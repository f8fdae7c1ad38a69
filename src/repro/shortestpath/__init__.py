"""Shortest paths over :class:`~repro.graph.digraph.DiGraph`.

:func:`multi_source_distances` returns one row per source from
:mod:`scipy.sparse.csgraph` in a single call: the workhorse of the
linear-time SND computation (one single-source run per changed user,
Theorem 4). The pure-Python Dijkstra over binary, radix and pairing heaps
that the paper's §6.5 heap ablation times lives in the test oracle
``tests/dijkstra_reference.py``.
"""

from repro.shortestpath.dijkstra import multi_source_distances

__all__ = ["multi_source_distances"]
