"""Sparse network simplex with warm-startable spanning-tree bases.

The paper dismisses the dense transportation simplex as super-cubic (§5,
the point of Theorem 4) — but the repo's real workloads solve long chains
of *nearly identical* instances: sliding-window sweeps, corpus appends and
streaming ``watch`` differ in a handful of coordinates per step, so the
previous optimal spanning tree is a near-feasible start for the next
solve. This module supplies the solver tier that exploits that:

* a primal network simplex over the bipartite transportation graph
  (suppliers ``0..n-1``, consumers ``n..n+m-1``, plus an artificial root),
  with the spanning-tree basis held in flat ``parent`` / ``pred_arc`` /
  ``depth`` lists threaded in preorder (a pivot re-roots one subtree by
  splicing the thread), a *block-pivoting* entering-arc search (vectorised
  reduced costs over sqrt-sized arc blocks with a roving start pointer),
  and Cunningham's *strongly feasible basis* leaving-arc rule for
  anti-cycling (degenerate arcs always point toward the root; the leaving
  arc is the last blocking arc in cycle orientation from the join);
* warm starts: :func:`solve_transportation_network_simplex` accepts a
  prior :class:`~repro.flow.basis.TransportBasis` and returns the optimal
  one, so consecutive solves of nearby instances pay only for the
  *difference* between their optimal trees. A warm basis is only a hint —
  it is de-cycled, re-flowed by leaf elimination against the new
  marginals, and any node it cannot feasibly cover falls back to a big-M
  artificial arc — so *any* cell set is safe to pass and the result is
  always the exact optimum (bit-identical to a cold solve on integral
  instances, see docs/solvers.md for the contract);
* per-solve diagnostics on the returned plan (``plan.info``, a
  :class:`NetworkSimplexInfo`: pivots, and whether a warm basis was
  used), which an engine sums into its own cold vs warm pivot counts
  (``engine.stats()["network_simplex"]``, BENCH_engine.json), so the
  temporal-locality win is measured rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import FlowError
from repro.flow.basis import TransportBasis
from repro.flow.plan import TransportPlan
from repro.flow.problem import MASS_EPS, TransportationProblem

__all__ = [
    "NetworkSimplexInfo",
    "solve_transportation_network_simplex",
]

_TOL = 1e-9
# Artificial arcs carry flow only on infeasible supports; tolerate the float
# dust a long pivot chain can leave on one before calling the instance
# infeasible.
_FEAS_TOL = 1e-7
# A full-wrap "optimal" verdict under big-M-contaminated potentials is only
# trusted after recomputing potentials exactly from the tree; bound how many
# times that refinement can re-open the solve.
_MAX_REFINEMENTS = 64


# --------------------------------------------------------------------------- #
# Diagnostics
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class NetworkSimplexInfo:
    """Diagnostics for one network-simplex solve."""

    n_suppliers: int
    n_consumers: int
    n_arcs: int
    pivots: int
    warm: bool
    warm_arcs_given: int
    warm_arcs_used: int
    cost: float


# --------------------------------------------------------------------------- #
# Core solver
# --------------------------------------------------------------------------- #


class _TreeSimplex:
    """Primal network simplex on a bipartite transportation graph.

    Nodes: suppliers ``0..n-1``, consumers ``n..n+m-1``, root ``n+m``.
    Real arcs run supplier -> consumer with the given costs; every non-root
    node additionally owns one big-M artificial arc to/from the root, used
    only where the (warm or empty) starting forest leaves it uncovered.

    A pivot reads and writes the tree one element at a time, so the tree
    state lives on Python lists: arc ``tails`` / ``heads`` / ``costs`` /
    ``flow`` and per-node ``parent`` / ``pred_arc`` / ``pred_dir`` /
    ``depth``. The tree is also threaded in preorder: ``thread[x]`` is the
    node after ``x`` in a depth-first order from the root and
    ``rev_thread`` its inverse, so a subtree is the run of the thread that
    starts at its root and ends before the first node no deeper than it.
    Pricing stays vectorised: it reads numpy views of the real arcs, the
    numpy potentials ``pi`` and the numpy ``in_tree`` mask, which the
    pivots update in place. ``flow`` becomes an array when :meth:`run`
    finishes.
    """

    def __init__(
        self,
        n: int,
        m: int,
        tails: np.ndarray,
        heads: np.ndarray,
        costs: np.ndarray,
        supplies: np.ndarray,
        demands: np.ndarray,
    ) -> None:
        self.n = int(n)
        self.m = int(m)
        self.root = self.n + self.m
        self.N = self.n + self.m + 1
        self.n_real = int(tails.shape[0])
        self.n_arcs = self.n_real + self.N - 1  # + one artificial per non-root

        cost_scale = float(np.abs(costs).max()) if self.n_real else 1.0
        self.big_m = 1.0 + self.N * max(1.0, cost_scale)

        # Real arcs as arrays for pricing; every arc as lists for pivoting.
        # Artificial arc n_real + v belongs to node v; build_tree orients it.
        self.real_tails = tails
        self.real_heads = heads
        self.real_costs = costs
        n_art = self.N - 1
        self.tails = tails.tolist() + [0] * n_art
        self.heads = heads.tolist() + [0] * n_art
        self.costs = costs.tolist() + [self.big_m] * n_art

        self.supplies = np.asarray(supplies, dtype=np.float64)
        self.demands = np.asarray(demands, dtype=np.float64)

        self.block = max(64, int(round(math.sqrt(max(self.n_real, 1)))))
        self.pivot_budget = 50 * self.n_arcs + 1000

        self.flow = [0.0] * self.n_arcs
        self.in_tree = np.zeros(self.n_arcs, dtype=bool)

        self._next_arc = 0
        self.pivots = 0
        self.warm_arcs_used = 0

    # -- starting tree ----------------------------------------------------- #

    def build_tree(self, warm_arc_ids: list[int]) -> None:
        """Build a strongly feasible starting tree from a warm-arc hint.

        The warm arcs (possibly empty — the cold start) are de-cycled into
        a forest, then *leaf elimination* propagates the new marginals
        through it: a leaf's pending arc is kept only if the flow it must
        carry is strictly positive, otherwise it is dropped. Every node the
        surviving forest does not anchor falls back to its artificial root
        arc, oriented by residual sign so degenerate arcs point toward the
        root — which is exactly Cunningham's strong-feasibility invariant,
        making the cold start (empty hint → pure artificial star) and every
        warm start cycle-safe from the first pivot.

        A kept arc becomes the tree arc from its leaf up to the node it
        leads to, which is eliminated later or anchored at the root, so
        the elimination itself yields the rooted tree, and its reverse
        order lists every parent before its children.
        """
        n_real, root, N = self.n_real, self.root, self.N
        tails, heads, flow = self.tails, self.heads, self.flow
        residual = self.supplies.tolist() + (-self.demands).tolist() + [0.0]
        parent = [root] * N
        pred_arc = [-1] * N
        pred_dir = [0] * N
        tree_arcs: list[int] = []
        kept_nodes: list[int] = []  # anchored by a kept arc, in elimination order

        if warm_arc_ids:
            # De-cycle the hint: keep arcs that connect new components only.
            uf = list(range(N))
            forest_adj: list[list[int]] = [[] for _ in range(N)]
            degree = [0] * N
            for aid in warm_arc_ids:
                u, v = tails[aid], heads[aid]
                ru, rv = u, v  # their components' roots, by path halving
                while uf[ru] != ru:
                    uf[ru] = ru = uf[uf[ru]]
                while uf[rv] != rv:
                    uf[rv] = rv = uf[uf[rv]]
                if ru == rv:
                    continue
                uf[ru] = rv
                forest_adj[u].append(aid)
                forest_adj[v].append(aid)
                degree[u] += 1
                degree[v] += 1

            settled: set[int] = set()  # kept or dropped warm arcs
            done: set[int] = set()
            queue = [v for v in range(N - 1) if degree[v] == 1]
            while queue:
                v = queue.pop()
                if v in done or degree[v] != 1:
                    continue
                arc = -1
                for aid in forest_adj[v]:
                    if aid not in settled:
                        arc = aid
                        break
                if arc < 0:
                    continue
                settled.add(arc)
                on_tail = tails[arc] == v
                u = heads[arc] if on_tail else tails[arc]
                # Flow the arc must carry to zero out v's residual (arc
                # points supplier -> consumer; v on the tail side pushes,
                # head side pulls).
                needed = residual[v] if on_tail else -residual[v]
                if needed > _TOL:
                    tree_arcs.append(arc)
                    kept_nodes.append(v)
                    flow[arc] = needed
                    parent[v] = u
                    pred_arc[v] = arc
                    pred_dir[v] = 1 if on_tail else -1
                    residual[u] += residual[v]
                    residual[v] = 0.0
                done.add(v)
                degree[v] -= 1
                degree[u] -= 1
                if degree[u] == 1 and u not in done:
                    queue.append(u)
            self.warm_arcs_used = len(kept_nodes)

        # Artificial anchors for every node the surviving forest missed.
        anchors: list[int] = []
        for v in range(N - 1):
            if pred_arc[v] >= 0:
                continue
            aid = n_real + v
            rv = residual[v]
            if rv >= 0.0:
                tails[aid] = v  # degenerate arcs point toward the root
                heads[aid] = root
                pred_dir[v] = 1
            else:
                tails[aid] = root
                heads[aid] = v
                pred_dir[v] = -1
            flow[aid] = abs(rv)
            pred_arc[v] = aid
            tree_arcs.append(aid)
            anchors.append(v)
        self.in_tree[tree_arcs] = True

        # Thread the tree in preorder by inserting each node right after its
        # parent, parents first; depths and potentials follow the same way.
        costs = self.costs
        depth = [0] * N
        pi = [0.0] * N
        thread = [root] * N
        rev_thread = [root] * N
        for v in anchors + kept_nodes[::-1]:
            p = parent[v]
            nxt = thread[p]
            thread[p] = v
            rev_thread[v] = p
            thread[v] = nxt
            rev_thread[nxt] = v
            depth[v] = depth[p] + 1
            aid = pred_arc[v]
            if pred_dir[v] == 1:
                pi[v] = costs[aid] + pi[p]
            else:
                pi[v] = pi[p] - costs[aid]

        parent[root] = -1
        self.parent, self.pred_arc, self.pred_dir = parent, pred_arc, pred_dir
        self.depth, self.thread, self.rev_thread = depth, thread, rev_thread
        self.pi = np.array(pi)

    def _recompute_potentials(self) -> None:
        """Exact potentials from the current tree (kills big-M float drift)."""
        root, costs, parent = self.root, self.costs, self.parent
        pred_arc, pred_dir, thread = self.pred_arc, self.pred_dir, self.thread
        pi = [0.0] * self.N
        x = thread[root]
        while x != root:
            aid = pred_arc[x]
            if pred_dir[x] == 1:
                pi[x] = costs[aid] + pi[parent[x]]
            else:
                pi[x] = pi[parent[x]] - costs[aid]
            x = thread[x]
        self.pi[:] = pi

    # -- pricing ----------------------------------------------------------- #

    def _scan_blocks(self) -> int:
        """Block search over *real* arcs: best entering arc within the first
        block (from the roving pointer) that contains one."""
        n_real = self.n_real
        if n_real == 0:
            return -1
        costs, tails, heads = self.real_costs, self.real_tails, self.real_heads
        pi, in_tree = self.pi, self.in_tree
        start = self._next_arc
        scanned = 0
        while scanned < n_real:
            end = min(start + self.block, n_real)
            sl = slice(start, end)
            rc = costs[sl] - pi[tails[sl]] + pi[heads[sl]]
            rc[in_tree[sl]] = 0.0
            k = int(rc.argmin())
            if rc[k] < -_TOL:
                self._next_arc = (start + k + 1) % n_real
                return start + k
            scanned += end - start
            start = 0 if end >= n_real else end
        return -1

    def _scan_full(self) -> int:
        """One vectorised scan of every real arc (termination verification)."""
        if self.n_real == 0:
            return -1
        pi = self.pi
        rc = self.real_costs - pi[self.real_tails] + pi[self.real_heads]
        rc[self.in_tree[: self.n_real]] = 0.0
        k = int(rc.argmin())
        if rc[k] < -_TOL:
            self._next_arc = (k + 1) % self.n_real
            return k
        return -1

    # -- pivoting ---------------------------------------------------------- #

    def _pivot(self, entering: int) -> None:
        tails, costs, flow = self.tails, self.costs, self.flow
        parent, pred_arc, pred_dir, depth = (
            self.parent,
            self.pred_arc,
            self.pred_dir,
            self.depth,
        )
        thread, rev_thread, pi = self.thread, self.rev_thread, self.pi
        u = tails[entering]
        v = self.heads[entering]

        # Ratio test along the cycle (entering arc oriented u -> v; the tree
        # path closes it v -> join -> u). Cunningham's rule: leaving arc is
        # the *last* blocking arc in cycle orientation from the join — strict
        # '<' on the u-side keeps the candidate closest to u, '<=' on the
        # v-side keeps the candidate closest to the join, and v-side wins
        # side ties.
        theta_u = math.inf
        leave_u = -1
        node_u = -1
        theta_v = math.inf
        leave_v = -1
        node_v = -1
        x, y = u, v
        while x != y:
            if depth[x] >= depth[y]:
                if pred_dir[x] == 1:  # arc x->parent opposes cycle: decreases
                    arc = pred_arc[x]
                    if flow[arc] < theta_u:
                        theta_u = flow[arc]
                        leave_u = arc
                        node_u = x
                x = parent[x]
            else:
                if pred_dir[y] == -1:  # arc parent->y opposes cycle: decreases
                    arc = pred_arc[y]
                    if flow[arc] <= theta_v:
                        theta_v = flow[arc]
                        leave_v = arc
                        node_v = y
                y = parent[y]

        theta = min(theta_u, theta_v)
        if not math.isfinite(theta):
            raise FlowError("network simplex cycle is unbounded")

        # Apply the flow change around the cycle.
        if theta > 0.0:
            x, y = u, v
            while x != y:
                if depth[x] >= depth[y]:
                    flow[pred_arc[x]] += -theta if pred_dir[x] == 1 else theta
                    x = parent[x]
                else:
                    flow[pred_arc[y]] += theta if pred_dir[y] == 1 else -theta
                    y = parent[y]
            flow[entering] += theta

        if theta_v <= theta_u:
            leaving, w_out, e_in_node, other = leave_v, node_v, v, u
        else:
            leaving, w_out, e_in_node, other = leave_u, node_u, u, v
        flow[leaving] = 0.0
        self.in_tree[leaving] = False
        self.in_tree[entering] = True
        self.pivots += 1

        # Re-root the subtree cut off by the leaving arc onto the entering
        # arc. The subtree hanging from w_out is cut out of the thread,
        # re-rooted at e_in_node and spliced back in right after other, its
        # new parent. Its new preorder takes each node of the path
        # e_in_node -> ... -> w_out in turn, followed by that node's old
        # descendants outside the previous path node's old subtree; the old
        # thread and depths are read before anything changes.
        path = [e_in_node]
        while path[-1] != w_out:
            path.append(parent[path[-1]])
        order: list[int] = []
        below = -1  # previous path node
        skip_to = -1  # first node after the previous path node's old subtree
        for p in path:
            order.append(p)
            d = depth[p]
            x = thread[p]
            while depth[x] > d:
                if x == below:
                    x = skip_to
                    continue
                order.append(x)
                x = thread[x]
            below, skip_to = p, x
        after = skip_to  # the old subtree of w_out ends right before it

        # Reverse the tree arcs along the path.
        for i in range(len(path) - 1, 0, -1):
            child_new = path[i]
            arc = pred_arc[path[i - 1]]
            parent[child_new] = path[i - 1]
            pred_arc[child_new] = arc
            pred_dir[child_new] = 1 if tails[arc] == child_new else -1
        parent[e_in_node] = other
        pred_arc[e_in_node] = entering
        pred_dir[e_in_node] = 1 if tails[entering] == e_in_node else -1

        # Potentials shift by one constant across the moved component.
        if pred_dir[e_in_node] == 1:
            new_pi = costs[entering] + pi[other]
        else:
            new_pi = pi[other] - costs[entering]
        delta = new_pi - pi[e_in_node]

        # Cut the old run out of the thread and splice the new one in after
        # other, fixing depths and potentials on the way.
        before = rev_thread[w_out]
        thread[before] = after
        rev_thread[after] = before
        prev = other
        nxt = thread[other]
        for x in order:
            thread[prev] = x
            rev_thread[x] = prev
            depth[x] = depth[parent[x]] + 1
            if delta != 0.0:
                pi[x] += delta
            prev = x
        thread[prev] = nxt
        rev_thread[nxt] = prev

    # -- driver ------------------------------------------------------------ #

    def run(self) -> None:
        refinements = 0
        scan, pivot = self._scan_blocks, self._pivot
        while True:
            entering = scan()
            if entering < 0:
                # Big-M artificial costs contaminate incrementally-maintained
                # potentials with ~1e-7 cancellation noise; re-derive them
                # exactly from the tree before trusting "no entering arc".
                self._recompute_potentials()
                entering = self._scan_full()
                if entering < 0:
                    break
                refinements += 1
                if refinements > _MAX_REFINEMENTS:
                    raise FlowError(
                        "network simplex failed to converge (potential refinement)"
                    )
            pivot(entering)
            if self.pivots > self.pivot_budget:
                raise FlowError("network simplex exceeded its pivot budget")

        self.flow = np.array(self.flow)
        # At optimality the artificial arcs must be flowless, otherwise the
        # real-arc graph cannot route the marginals (sparse supports only;
        # dense instances are always feasible).
        art = self.flow[self.n_real :]
        if art.size and float(art.max(initial=0.0)) > _FEAS_TOL * max(
            1.0, float(self.supplies.sum())
        ):
            raise FlowError("transportation instance is infeasible on this support")

    def tree_real_arcs(self) -> np.ndarray:
        return np.flatnonzero(self.in_tree[: self.n_real])


# --------------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------------- #


def _solve_arcs(
    n: int,
    m: int,
    tails: np.ndarray,
    heads: np.ndarray,
    costs: np.ndarray,
    supplies: np.ndarray,
    demands: np.ndarray,
    warm_arc_ids: list[int],
) -> _TreeSimplex:
    solver = _TreeSimplex(n, m, tails, heads, costs, supplies, demands)
    solver.build_tree(warm_arc_ids)
    solver.run()
    return solver


def solve_transportation_network_simplex(
    problem: TransportationProblem,
    *,
    basis: TransportBasis | None = None,
    return_basis: bool = False,
) -> TransportPlan | tuple[TransportPlan, TransportBasis]:
    """Solve a (possibly unbalanced) transportation problem, warm-startable.

    *basis* is a hint in the **original** (pre-dummy) cell space — normally
    the basis returned by a previous solve of a nearby instance. Cells that
    fall outside the instance are ignored; whatever remains is repaired
    into a feasible strongly feasible tree, so the hint never changes the
    result, only the number of pivots needed to reach it. The solve counts
    as warm when at least one hint cell lies inside the instance. With
    ``return_basis=True`` the optimal spanning-tree basis (restricted to
    non-dummy cells) is returned alongside the plan.
    """
    # TransportationProblem.balanced_form inline, without building and
    # re-validating a second problem: a zero-cost dummy consumer
    # (supplier) absorbs a supply (demand) surplus.
    supplies, demands = problem.supplies, problem.demands
    n_orig, m_orig = problem.costs.shape
    total_supply = float(supplies.sum())
    total_demand = float(demands.sum())
    surplus = total_supply - total_demand
    dummy_consumer = dummy_supplier = False
    if abs(surplus) > MASS_EPS * max(1.0, total_supply, total_demand):
        if surplus > 0:
            dummy_consumer = True
            demands = np.append(demands, surplus)
        else:
            dummy_supplier = True
            supplies = np.append(supplies, -surplus)
            total_supply = float(supplies.sum())
    n, m = supplies.shape[0], demands.shape[0]

    given = 0 if basis is None else len(basis)
    warm_arc_ids = []
    if given:
        warm_arc_ids = [
            r * m + c
            for r, c in zip(basis.rows.tolist(), basis.cols.tolist())
            if 0 <= r < n and 0 <= c < m
        ]

    if n == 0 or m == 0 or total_supply <= _TOL:
        info = NetworkSimplexInfo(
            n_suppliers=n_orig,
            n_consumers=m_orig,
            n_arcs=0,
            pivots=0,
            warm=bool(warm_arc_ids),
            warm_arcs_given=given,
            warm_arcs_used=0,
            cost=0.0,
        )
        plan = TransportPlan(flows=np.zeros((n_orig, m_orig)), cost=0.0, info=info)
        empty = TransportBasis(
            rows=np.empty(0, dtype=np.int64), cols=np.empty(0, dtype=np.int64)
        )
        return (plan, empty) if return_basis else plan

    costs = problem.costs
    if dummy_consumer:
        costs = np.hstack([costs, np.zeros((n, 1))])
    elif dummy_supplier:
        costs = np.vstack([costs, np.zeros((1, m))])
    tails, heads = np.divmod(np.arange(n * m, dtype=np.int64), m)
    heads += n

    solver = _solve_arcs(
        n, m, tails, heads, costs.ravel(), supplies, demands, warm_arc_ids
    )

    flows = solver.flow[: n * m].reshape(n, m)
    if dummy_consumer:
        flows = flows[:, :-1]
    if dummy_supplier:
        flows = flows[:-1, :]
    flows = np.maximum(flows, 0.0)  # clamp float dust from pivoting (a copy)
    cost = float((flows * problem.costs).sum())
    info = NetworkSimplexInfo(
        n_suppliers=n_orig,
        n_consumers=m_orig,
        n_arcs=solver.n_arcs,
        pivots=solver.pivots,
        warm=bool(warm_arc_ids),
        warm_arcs_given=given,
        warm_arcs_used=solver.warm_arcs_used,
        cost=cost,
    )
    plan = TransportPlan(flows=flows, cost=cost, info=info)
    if not return_basis:
        return plan

    rows, cols = np.divmod(solver.tree_real_arcs(), m)
    if dummy_consumer or dummy_supplier:
        keep = (rows < n_orig) & (cols < m_orig)  # drop dummy-node cells
        rows, cols = rows[keep], cols[keep]
    return plan, TransportBasis(rows=rows, cols=cols)
