"""The §6.1 synthetic evolution process, generalised to ``k`` poles.

Same shape as :mod:`repro.opinions.dynamics`: the first state seeds
approximately equal numbers of adopters per pole uniformly at random; each
subsequent state gives every neutral user one draw — with probability
``p_nbr`` she adopts by probabilistic voting over her active in-neighbors'
pole counts, with probability ``p_ext`` a uniformly random pole (the
"external source"), otherwise she stays neutral. Activation is monotone.
Anomalous states swap mass between ``p_nbr`` and ``p_ext`` while
preserving their sum — the activation *rate* is unchanged, only the
mechanism, which is exactly the anomaly a scalar summary cannot see
(§6.2). At ``k = 2`` the process is the bipolar one over pole labels
``{1, 2}`` instead of ``{+1, -1}``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.graph.digraph import DiGraph
from repro.multipolar.state import POLE_NEUTRAL, MultipolarSeries, MultipolarState
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int, check_probability

__all__ = [
    "seed_multipolar_state",
    "evolve_multipolar_state",
    "generate_multipolar_series",
]


def seed_multipolar_state(
    graph: DiGraph,
    n_adopters: int,
    *,
    n_poles: int,
    seed=None,
) -> MultipolarState:
    """Initial state: *n_adopters* users chosen uniformly, split across
    the *n_poles* poles as evenly as the count allows."""
    check_positive_int(n_adopters, "n_adopters")
    if n_adopters > graph.num_nodes:
        raise ModelError(
            f"cannot seed {n_adopters} adopters into {graph.num_nodes} users"
        )
    rng = as_rng(seed)
    adopters = rng.choice(graph.num_nodes, size=n_adopters, replace=False)
    # Even split, remainder to the lowest-numbered poles; shuffled so no
    # pole is systematically seeded onto low user ids.
    poles = np.arange(n_adopters) % n_poles + 1
    rng.shuffle(poles)
    return MultipolarState.neutral(graph.num_nodes, n_poles=n_poles).with_opinions(
        adopters, poles.astype(np.int8)
    )


def evolve_multipolar_state(
    graph: DiGraph,
    state: MultipolarState,
    *,
    p_nbr: float,
    p_ext: float,
    candidate_fraction: float = 1.0,
    seed=None,
) -> MultipolarState:
    """One k-pole evolution step.

    Each neutral user (or a random *candidate_fraction* of them) draws
    once: with probability ``p_nbr`` she adopts a pole sampled
    proportionally to the counts of active in-neighbors holding each pole
    (no active in-neighbors: she stays neutral); with probability
    ``p_ext`` a uniformly random pole; otherwise she stays neutral.
    Active users never change.
    """
    check_probability(p_nbr, "p_nbr")
    check_probability(p_ext, "p_ext")
    if p_nbr + p_ext > 1.0:
        raise ModelError(f"p_nbr + p_ext must be <= 1, got {p_nbr + p_ext}")
    check_probability(candidate_fraction, "candidate_fraction")
    rng = as_rng(seed)
    values = state.values
    k = state.n_poles

    neutral_users = np.flatnonzero(values == POLE_NEUTRAL)
    if candidate_fraction < 1.0 and neutral_users.size:
        m = int(round(candidate_fraction * neutral_users.size))
        neutral_users = rng.choice(neutral_users, size=m, replace=False)
    if neutral_users.size == 0:
        return state

    # Per-node active in-neighbor counts for every pole, vectorised:
    # in_counts[p-1, v] = |{u -> v : u holds pole p}|.
    targets = graph.indices
    src_vals = values[graph.edge_sources()]
    in_counts = np.zeros((k, graph.num_nodes), dtype=np.int64)
    for pole in range(1, k + 1):
        np.add.at(in_counts[pole - 1], targets[src_vals == pole], 1)

    draws = rng.random(neutral_users.shape[0])
    new_values = np.zeros(neutral_users.shape[0], dtype=np.int8)

    nbr_mask = draws < p_nbr
    ext_mask = (draws >= p_nbr) & (draws < p_nbr + p_ext)

    # Neighbor adoption: probabilistic voting over per-pole counts (the
    # k-ary generalisation of the bipolar coin flip: invert the CDF of
    # the normalised count vector with one uniform draw per user).
    nbr_users = neutral_users[nbr_mask]
    if nbr_users.size:
        counts = in_counts[:, nbr_users].astype(np.float64)  # (k, m)
        totals = counts.sum(axis=0)
        has_active = totals > 0
        cdf = np.cumsum(
            np.divide(counts, totals, out=np.zeros_like(counts), where=has_active),
            axis=0,
        )
        vote = rng.random(nbr_users.shape[0])
        chosen = (vote[None, :] >= cdf).sum(axis=0) + 1  # first bin above vote
        chosen = np.where(has_active, chosen, POLE_NEUTRAL).astype(np.int8)
        new_values[nbr_mask] = chosen

    # External adoption: uniformly random pole.
    n_ext = int(ext_mask.sum())
    if n_ext:
        new_values[ext_mask] = rng.integers(1, k + 1, size=n_ext, dtype=np.int8)

    changed = new_values != POLE_NEUTRAL
    if not changed.any():
        return state
    return state.with_opinions(neutral_users[changed], new_values[changed])


def generate_multipolar_series(
    graph: DiGraph,
    n_states: int,
    *,
    n_poles: int,
    n_seeds: int,
    p_nbr: float,
    p_ext: float,
    anomalous: set[int] | frozenset[int] | None = None,
    p_nbr_anomalous: float | None = None,
    p_ext_anomalous: float | None = None,
    candidate_fraction: float = 1.0,
    seed=None,
) -> MultipolarSeries:
    """Generate *n_states* k-pole states per the §6.2 protocol.

    *anomalous* lists the indices of states (>= 1) generated with the
    anomalous parameters; the defaults preserve ``p_nbr + p_ext`` across
    the two regimes exactly like the bipolar generator (``p_nbr - 0.04 /
    p_ext + 0.04`` when not given). Labels are ``"anomalous"`` /
    ``"normal"`` per state.
    """
    check_positive_int(n_states, "n_states")
    anomalous = frozenset(anomalous or ())
    if p_nbr_anomalous is None:
        p_nbr_anomalous = max(0.0, p_nbr - 0.04)
    if p_ext_anomalous is None:
        p_ext_anomalous = p_ext + (p_nbr - p_nbr_anomalous)
    rng = as_rng(seed)
    states = [seed_multipolar_state(graph, n_seeds, n_poles=n_poles, seed=rng)]
    for t in range(1, n_states):
        if t in anomalous:
            nbr, ext = p_nbr_anomalous, p_ext_anomalous
        else:
            nbr, ext = p_nbr, p_ext
        states.append(
            evolve_multipolar_state(
                graph,
                states[-1],
                p_nbr=nbr,
                p_ext=ext,
                candidate_fraction=candidate_fraction,
                seed=rng,
            )
        )
    labels = ["anomalous" if t in anomalous else "normal" for t in range(n_states)]
    return MultipolarSeries(states, labels=labels)
