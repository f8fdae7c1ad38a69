"""The Lemma 1 / Lemma 2 reductions enabling linear-time SND (§5).

* **Lemma 2** (:func:`cancel_common_mass`): subtracting
  ``min(P_i, Q_i)`` from both histograms at every bin leaves EMD* unchanged
  when the ground distance is a semimetric — mass that stays put travels at
  zero cost, and rerouting never beats the triangle inequality.
* **Lemma 1** (:func:`remove_empty_bins`): bins that are empty on both sides
  neither supply nor demand mass, so they (and their ground-distance
  rows/columns) can be dropped.

Composed, they shrink the transportation problem from ``n`` bins to the
``n∆`` users whose opinion changed — Assumption 1 makes ``n∆ ≪ n``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import HistogramError
from repro.utils.validation import check_nonnegative, check_vector

__all__ = [
    "cancel_common_mass",
    "remove_empty_bins",
    "reduce_histograms",
]


def cancel_common_mass(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Apply Lemma 2 at every bin: subtract the elementwise minimum.

    At least one of the returned histograms is zero at every bin.
    """
    p = check_nonnegative(check_vector(p, "P"), "P")
    q = check_nonnegative(check_vector(q, "Q"), "Q")
    if p.shape != q.shape:
        raise HistogramError(
            f"histograms must share a bin set, got lengths {p.shape[0]} and {q.shape[0]}"
        )
    common = np.minimum(p, q)
    return p - common, q - common


def remove_empty_bins(
    p: np.ndarray, q: np.ndarray, costs: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Apply Lemma 1: drop bins empty in P (as suppliers) and in Q (as
    consumers), and slice the ground distance accordingly.

    Returns ``(p_reduced, q_reduced, costs_reduced, supplier_ids, consumer_ids)``
    where the id arrays map reduced positions back to original bins. P and Q
    are reduced *independently* (suppliers by P's support, consumers by Q's),
    which is the asymmetric form the transportation problem needs.
    """
    p = check_vector(p, "P")
    q = check_vector(q, "Q")
    supplier_ids = np.flatnonzero(p > 0)
    consumer_ids = np.flatnonzero(q > 0)
    p_red = p[supplier_ids]
    q_red = q[consumer_ids]
    costs_red = None
    if costs is not None:
        costs = np.asarray(costs, dtype=np.float64)
        if costs.shape != (p.shape[0], q.shape[0]):
            raise HistogramError(
                f"ground distance must be ({p.shape[0]}, {q.shape[0]}), got {costs.shape}"
            )
        costs_red = costs[np.ix_(supplier_ids, consumer_ids)]
    return p_red, q_red, costs_red, supplier_ids, consumer_ids


def reduce_histograms(
    p, q, costs: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Lemma 2 followed by Lemma 1 — the full §5 histogram reduction.

    Returns the same tuple as :func:`remove_empty_bins`. After this step the
    remaining suppliers are exactly the bins where ``P > Q`` and consumers
    those where ``Q > P`` — for opinion histograms, the changed users.
    """
    p_c, q_c = cancel_common_mass(p, q)
    return remove_empty_bins(p_c, q_c, costs)
