"""Shortest-path algorithms over :class:`~repro.graph.digraph.DiGraph`.

* :func:`dijkstra` / :func:`dijkstra_multi` — our from-scratch Dijkstra
  with a pluggable heap (binary / radix / pairing), the reference
  implementation matching the paper's §5 and the subject of the §6.5 heap
  ablation;
* :func:`multi_source_distances` — one row per source from
  :mod:`scipy.sparse.csgraph` in a single call: the workhorse of the
  linear-time SND computation (one single-source run per changed user,
  Theorem 4).
"""

from repro.shortestpath.dijkstra import (
    dijkstra,
    dijkstra_multi,
    multi_source_distances,
)

__all__ = ["dijkstra", "dijkstra_multi", "multi_source_distances"]
