"""The §6.1 synthetic opinion-evolution process and series generators.

The paper generates network-state series as follows: the first state seeds
approximately equal numbers of "+" and "-" adopters uniformly at random;
each subsequent state gives every neutral user a chance to activate —
adopting an opinion from her active in-neighbors with probability ``p_nbr``
(probabilistic voting over in-neighbor opinion counts) or a uniformly random
opinion with probability ``p_ext`` (the "external source"). Anomalous
states are generated with a different ``(p_nbr, p_ext)`` split *preserving
the sum*, which perturbs the activation process qualitatively while keeping
the activation rate — exactly the anomaly a summary statistic cannot see
(§6.2).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.graph.digraph import DiGraph
from repro.opinions.state import NEUTRAL, NetworkState, StateSeries
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int, check_probability

__all__ = ["seed_state", "evolve_state", "generate_series", "random_transition"]


def seed_state(
    graph: DiGraph, n_adopters: int, *, balance: float = 0.5, seed=None
) -> NetworkState:
    """Initial state: *n_adopters* users chosen uniformly, split ± by *balance*."""
    check_positive_int(n_adopters, "n_adopters")
    check_probability(balance, "balance")
    if n_adopters > graph.num_nodes:
        raise ModelError(
            f"cannot seed {n_adopters} adopters into {graph.num_nodes} users"
        )
    rng = as_rng(seed)
    adopters = rng.choice(graph.num_nodes, size=n_adopters, replace=False)
    n_pos = int(round(balance * n_adopters))
    opinions = np.concatenate(
        [np.ones(n_pos, dtype=np.int8), -np.ones(n_adopters - n_pos, dtype=np.int8)]
    )
    rng.shuffle(opinions)
    return NetworkState.neutral(graph.num_nodes).with_opinions(adopters, opinions)


def evolve_state(
    graph: DiGraph,
    state: NetworkState,
    *,
    p_nbr: float,
    p_ext: float,
    candidate_fraction: float = 1.0,
    seed=None,
) -> NetworkState:
    """One §6.1 evolution step.

    Each neutral user (or a random *candidate_fraction* of them) draws once:
    with probability ``p_nbr`` she adopts from her neighbors — an opinion
    sampled proportionally to the counts of active in-neighbors of each kind
    (no active in-neighbors: she stays neutral); with probability ``p_ext``
    she adopts a uniformly random polar opinion; otherwise she stays neutral.
    Active users never change (activation is monotone in this process).
    """
    check_probability(p_nbr, "p_nbr")
    check_probability(p_ext, "p_ext")
    if p_nbr + p_ext > 1.0:
        raise ModelError(f"p_nbr + p_ext must be <= 1, got {p_nbr + p_ext}")
    check_probability(candidate_fraction, "candidate_fraction")
    rng = as_rng(seed)
    values = state.values

    neutral_users = np.flatnonzero(values == NEUTRAL)
    if candidate_fraction < 1.0 and neutral_users.size:
        k = int(round(candidate_fraction * neutral_users.size))
        neutral_users = rng.choice(neutral_users, size=k, replace=False)
    if neutral_users.size == 0:
        return state

    # Count active in-neighbors of each polarity for every node, vectorised.
    targets = graph.indices
    src_vals = values[graph.edge_sources()]
    pos_in = np.zeros(graph.num_nodes, dtype=np.int64)
    neg_in = np.zeros(graph.num_nodes, dtype=np.int64)
    np.add.at(pos_in, targets[src_vals > 0], 1)
    np.add.at(neg_in, targets[src_vals < 0], 1)

    draws = rng.random(neutral_users.shape[0])
    new_values = np.zeros(neutral_users.shape[0], dtype=np.int8)

    nbr_mask = draws < p_nbr
    ext_mask = (draws >= p_nbr) & (draws < p_nbr + p_ext)

    # Neighbor adoption: probabilistic voting over in-neighbor counts.
    nbr_users = neutral_users[nbr_mask]
    if nbr_users.size:
        pos = pos_in[nbr_users].astype(np.float64)
        neg = neg_in[nbr_users].astype(np.float64)
        total = pos + neg
        has_active = total > 0
        vote = rng.random(nbr_users.shape[0])
        chosen = np.where(vote < np.divide(pos, total, out=np.zeros_like(pos), where=has_active), 1, -1)
        chosen = np.where(has_active, chosen, 0).astype(np.int8)
        new_values[nbr_mask] = chosen

    # External adoption: uniformly random polar opinion.
    n_ext = int(ext_mask.sum())
    if n_ext:
        new_values[ext_mask] = rng.choice(np.array([1, -1], dtype=np.int8), size=n_ext)

    changed = new_values != NEUTRAL
    if not changed.any():
        return state
    return state.with_opinions(neutral_users[changed], new_values[changed])


def generate_series(
    graph: DiGraph,
    n_states: int,
    *,
    n_seeds: int,
    p_nbr: float,
    p_ext: float,
    anomalous: set[int] | frozenset[int] | None = None,
    p_nbr_anomalous: float | None = None,
    p_ext_anomalous: float | None = None,
    candidate_fraction: float = 1.0,
    seed=None,
) -> StateSeries:
    """Generate a series of *n_states* states per the §6.2 protocol.

    *anomalous* lists the indices of states (>= 1) generated with the
    anomalous parameters; the paper preserves ``p_nbr + p_ext`` across the
    two regimes and so do the defaults (swap enough mass between the two to
    matter: ``p_nbr - 0.04 / p_ext + 0.04`` as in Fig. 7 when not given).
    """
    check_positive_int(n_states, "n_states")
    anomalous = frozenset(anomalous or ())
    if p_nbr_anomalous is None:
        p_nbr_anomalous = max(0.0, p_nbr - 0.04)
    if p_ext_anomalous is None:
        p_ext_anomalous = p_ext + (p_nbr - p_nbr_anomalous)
    rng = as_rng(seed)
    states = [seed_state(graph, n_seeds, seed=rng)]
    for t in range(1, n_states):
        if t in anomalous:
            nbr, ext = p_nbr_anomalous, p_ext_anomalous
        else:
            nbr, ext = p_nbr, p_ext
        states.append(
            evolve_state(
                graph,
                states[-1],
                p_nbr=nbr,
                p_ext=ext,
                candidate_fraction=candidate_fraction,
                seed=rng,
            )
        )
    labels = [
        "anomalous" if t in anomalous else "normal" for t in range(n_states)
    ]
    return StateSeries(states, labels=labels)


def random_transition(
    graph: DiGraph,
    state: NetworkState,
    n_activations: int,
    *,
    seed=None,
) -> NetworkState:
    """The §6.4 "anomalous" transition: *n_activations* neutral users adopt
    uniformly random opinions, ignoring the network structure entirely."""
    rng = as_rng(seed)
    neutral_users = np.flatnonzero(state.values == NEUTRAL)
    k = min(int(n_activations), neutral_users.size)
    if k == 0:
        return state
    chosen = rng.choice(neutral_users, size=k, replace=False)
    opinions = rng.choice(np.array([1, -1], dtype=np.int8), size=k)
    return state.with_opinions(chosen, opinions)
