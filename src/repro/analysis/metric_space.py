"""Metric-space applications of SND — the paper's §9 future work.

SND is a metric only under size-proportional bank shares
(``bank_shares="size"``) with nearest-member bank distances
(``bank_metric="nearest"``; see :func:`repro.emd.emd_star.build_extension`),
and even then only approximately across pairs, because Eq. 3 rebuilds the
ground distance from each pair's own states. Under the default
``bank_shares="mass"`` the bank capacities depend on the pair, and the
triangle inequality can fail outright: on ``erdos_renyi_graph(30, 0.15)``
with three clusters one pinned triple has ``d(a, c) > 1.06·(d(a, b) +
d(b, c))`` (``tests/snd/test_invariances.py``). This module implements the
three applications §9 names, and they treat SND as a metric:

* **search** — :class:`VPTree`, a vantage-point tree with triangle-
  inequality pruning for nearest-neighbor queries (the §4 remark on
  exploiting metricity "to improve practical performance of distance-based
  search", citing Clarkson). The pruning is exact for a true metric; for
  SND under the default ``"mass"`` shares it is a heuristic that can miss
  the true nearest neighbour;
* **clustering** — :func:`k_medoids`, PAM-style clustering over a
  precomputed distance matrix (needs no triangle inequality);
* **classification** — :class:`KnnStateClassifier`, k-nearest-neighbor
  classification of network states (e.g. "normal" vs "anomalous" regime).

All three are distance-agnostic: pass ``SND(...).distance`` or any
callable/matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import as_rng

__all__ = ["VPTree", "k_medoids", "KnnStateClassifier", "state_distance_matrix"]

DistanceFn = Callable[[object, object], float]


def state_distance_matrix(
    items: Sequence,
    distance,
    *,
    jobs: int | None = None,
) -> np.ndarray:
    """The symmetric ``(N, N)`` matrix :func:`k_medoids` (and any other
    matrix consumer here) expects.

    *distance* may be a :class:`repro.snd.Corpus` (whose incrementally
    maintained matrix is returned directly when *items* are exactly the
    corpus members, and whose engine is used otherwise), an object
    exposing a batched ``pairwise_matrix`` (:class:`repro.snd.SND` or
    :class:`repro.snd.SNDEngine`, which cache ground costs), or a plain
    callable ``f(a, b) -> float``, in which case the upper triangle is
    evaluated once and mirrored. *jobs* is forwarded to
    :meth:`repro.snd.SND.pairwise_matrix`; an engine (or a corpus's
    engine) always runs on its own worker count.
    """
    # Class-level probes: ``matrix`` is a copying property on Corpus, so
    # it must not be touched until the membership check says it applies.
    cls = type(distance)
    if getattr(cls, "states", None) is not None and getattr(cls, "matrix", None) is not None:
        items = list(items)
        members = list(distance.states)
        if len(items) == len(members) and all(
            a == b for a, b in zip(items, members)
        ):
            return np.asarray(distance.matrix, dtype=np.float64)
        distance = getattr(distance, "engine", distance)
    batched = getattr(distance, "pairwise_matrix", None)
    if callable(batched):
        values = batched(items) if jobs is None else batched(items, jobs=jobs)
        return np.asarray(values, dtype=np.float64)
    items = list(items)
    n = len(items)
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = float(distance(items[i], items[j]))
    return out


# --------------------------------------------------------------------- #
# Vantage-point tree
# --------------------------------------------------------------------- #


@dataclass
class _VPNode:
    index: int
    radius: float = 0.0
    inside: "._VPNode | None" = None
    outside: "._VPNode | None" = None


class VPTree:
    """Nearest-neighbor search, exact under a metric distance.

    Construction performs O(n log n) distance evaluations; queries prune
    subtrees with the triangle inequality, so with a true metric the result
    equals brute force at (typically) far fewer evaluations. With a
    distance that breaks the inequality — SND under the default
    ``bank_shares="mass"`` — the pruning is a heuristic and a query may
    return a farther item than brute force would. The number of
    distance calls is tracked in :attr:`last_query_evaluations` so tests
    and benchmarks can verify the pruning actually bites.
    """

    def __init__(self, items: Sequence, distance_fn: DistanceFn, *, seed=None) -> None:
        if not items:
            raise ValidationError("VPTree needs at least one item")
        self.items = list(items)
        self.distance_fn = distance_fn
        self._rng = as_rng(seed)
        self.last_query_evaluations = 0
        indices = list(range(len(self.items)))
        self._root = self._build(indices)

    def _build(self, indices: list[int]) -> _VPNode | None:
        if not indices:
            return None
        vantage = indices[int(self._rng.integers(len(indices)))]
        rest = [i for i in indices if i != vantage]
        node = _VPNode(index=vantage)
        if not rest:
            return node
        dists = np.array(
            [self.distance_fn(self.items[vantage], self.items[i]) for i in rest]
        )
        node.radius = float(np.median(dists))
        inside = [i for i, d in zip(rest, dists) if d <= node.radius]
        outside = [i for i, d in zip(rest, dists) if d > node.radius]
        node.inside = self._build(inside)
        node.outside = self._build(outside)
        return node

    def nearest(self, query, *, exclude: int | None = None) -> tuple[int, float]:
        """Index and distance of the nearest stored item to *query*.

        ``exclude`` skips one stored index (for leave-one-out evaluation).
        """
        self.last_query_evaluations = 0
        best = [-1, np.inf]

        def visit(node: _VPNode | None) -> None:
            if node is None:
                return
            d = self.distance_fn(query, self.items[node.index])
            self.last_query_evaluations += 1
            if node.index != exclude and d < best[1]:
                best[0], best[1] = node.index, d
            # Triangle-inequality pruning: a child region can only contain
            # a better candidate if its annulus intersects the best ball.
            if d <= node.radius:
                visit(node.inside)
                if d + best[1] > node.radius:
                    visit(node.outside)
            else:
                visit(node.outside)
                if d - best[1] <= node.radius:
                    visit(node.inside)

        visit(self._root)
        if best[0] < 0:
            raise ValidationError("no eligible items (everything excluded)")
        return int(best[0]), float(best[1])


# --------------------------------------------------------------------- #
# k-medoids
# --------------------------------------------------------------------- #


def k_medoids(
    distance_matrix: np.ndarray,
    k: int,
    *,
    max_iter: int = 100,
    seed=None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """PAM-style k-medoids over a precomputed distance matrix.

    Returns ``(labels, medoid_indices, total_cost)``. Deterministic given
    the seed (medoids initialised by k-center-style greedy seeding).
    """
    d = np.asarray(distance_matrix, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError("distance_matrix must be square")
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    rng = as_rng(seed)

    # Greedy far-apart seeding.
    medoids = [int(rng.integers(n))]
    while len(medoids) < k:
        dist_to_nearest = d[:, medoids].min(axis=1)
        medoids.append(int(np.argmax(dist_to_nearest)))
    medoids_arr = np.array(sorted(set(medoids)), dtype=np.int64)
    while medoids_arr.size < k:  # degenerate duplicates: pad randomly
        extra = int(rng.integers(n))
        if extra not in medoids_arr:
            medoids_arr = np.sort(np.append(medoids_arr, extra))

    for _ in range(max_iter):
        labels = np.argmin(d[:, medoids_arr], axis=1)
        changed = False
        for ci in range(k):
            members = np.flatnonzero(labels == ci)
            if members.size == 0:
                continue
            within = d[np.ix_(members, members)].sum(axis=1)
            best = int(members[np.argmin(within)])
            if best != medoids_arr[ci]:
                medoids_arr[ci] = best
                changed = True
        if not changed:
            break
    labels = np.argmin(d[:, medoids_arr], axis=1)
    cost = float(d[np.arange(n), medoids_arr[labels]].sum())
    return labels.astype(np.int64), medoids_arr, cost


# --------------------------------------------------------------------- #
# kNN classification
# --------------------------------------------------------------------- #


@dataclass
class KnnStateClassifier:
    """k-nearest-neighbor classification of network states.

    Fit with labelled states and a distance callable; predicts by majority
    vote among the k nearest training states (ties: smallest total
    distance).
    """

    distance_fn: DistanceFn
    k: int = 3
    _states: list = field(default_factory=list, repr=False)
    _labels: list = field(default_factory=list, repr=False)

    def fit(self, states: Sequence, labels: Sequence) -> "KnnStateClassifier":
        if len(states) != len(labels):
            raise ValidationError("states and labels must align")
        if len(states) == 0:
            raise ValidationError("need at least one training state")
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        self._states = list(states)
        self._labels = list(labels)
        return self

    def predict(self, state) -> object:
        if not self._states:
            raise ValidationError("classifier is not fitted")
        dists = np.array([self.distance_fn(state, s) for s in self._states])
        k = min(self.k, len(self._states))
        nearest = np.argsort(dists, kind="stable")[:k]
        votes: dict = {}
        for idx in nearest:
            label = self._labels[int(idx)]
            total, count = votes.get(label, (0.0, 0))
            votes[label] = (total + float(dists[idx]), count + 1)
        # Majority; ties broken by smaller accumulated distance.
        return max(votes.items(), key=lambda kv: (kv[1][1], -kv[1][0]))[0]

    def score(self, states: Sequence, labels: Sequence) -> float:
        """Mean accuracy over a labelled evaluation set."""
        if len(states) != len(labels):
            raise ValidationError("states and labels must align")
        if not states:
            return 1.0
        hits = sum(self.predict(s) == y for s, y in zip(states, labels))
        return hits / len(states)
