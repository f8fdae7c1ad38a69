"""Frozen network simplex (test-only oracle).

This is the array-state ``_TreeSimplex`` with its children-set tree, the
``_solve_arcs`` helper and the dense entry point exactly as
``repro.flow.network_simplex`` shipped them before the tree state moved
onto Python lists and thread arrays. The oracle tests assert the library
solver is bitwise equal to it: cost, flows, basis cells, pivots and
warm arcs used. Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FlowError
from repro.flow.basis import TransportBasis
from repro.flow.network_simplex import NetworkSimplexInfo
from repro.flow.plan import TransportPlan
from repro.flow.problem import TransportationProblem

_TOL = 1e-9
# Artificial arcs carry flow only on infeasible supports; tolerate the float
# dust a long pivot chain can leave on one before calling the instance
# infeasible.
_FEAS_TOL = 1e-7
# A full-wrap "optimal" verdict under big-M-contaminated potentials is only
# trusted after recomputing potentials exactly from the tree; bound how many
# times that refinement can re-open the solve.
_MAX_REFINEMENTS = 64


class _TreeSimplex:
    """Primal network simplex on a bipartite transportation graph.

    Nodes: suppliers ``0..n-1``, consumers ``n..n+m-1``, root ``n+m``.
    Real arcs run supplier -> consumer with the given costs; every non-root
    node additionally owns one big-M artificial arc to/from the root, used
    only where the (warm or empty) starting forest leaves it uncovered.
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
        *,
        block_size: int | None = None,
        max_iterations: int | None = None,
    ) -> None:
        self.n = int(n)
        self.m = int(m)
        self.root = self.n + self.m
        self.N = self.n + self.m + 1
        self.n_real = int(tails.shape[0])
        self.n_arcs = self.n_real + self.N - 1  # + one artificial per non-root

        cost_scale = float(np.max(np.abs(costs))) if self.n_real else 1.0
        self.big_m = 1.0 + self.N * max(1.0, cost_scale)

        self.tails = np.empty(self.n_arcs, dtype=np.int64)
        self.heads = np.empty(self.n_arcs, dtype=np.int64)
        self.costs = np.empty(self.n_arcs, dtype=np.float64)
        self.tails[: self.n_real] = tails
        self.heads[: self.n_real] = heads
        self.costs[: self.n_real] = costs
        # Artificial orientations are fixed per-node at tree build time.
        self.costs[self.n_real :] = self.big_m

        self.supplies = np.asarray(supplies, dtype=np.float64)
        self.demands = np.asarray(demands, dtype=np.float64)

        self.block = (
            int(block_size)
            if block_size is not None
            else max(64, int(round(np.sqrt(max(self.n_real, 1)))))
        )
        self.max_iterations = (
            int(max_iterations)
            if max_iterations is not None
            else 50 * self.n_arcs + 1000
        )

        self.flow = np.zeros(self.n_arcs, dtype=np.float64)
        self.in_tree = np.zeros(self.n_arcs, dtype=bool)
        self.parent = np.full(self.N, -1, dtype=np.int64)
        self.pred_arc = np.full(self.N, -1, dtype=np.int64)
        self.pred_dir = np.zeros(self.N, dtype=np.int64)
        self.depth = np.zeros(self.N, dtype=np.int64)
        self.pi = np.zeros(self.N, dtype=np.float64)
        self.children: list[set[int]] = [set() for _ in range(self.N)]

        self._next_arc = 0
        self.pivots = 0
        self.warm_arcs_used = 0

    # -- starting tree ----------------------------------------------------- #

    def build_tree(self, warm_arc_ids: np.ndarray | None) -> None:
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
        """
        n, m, root, N = self.n, self.m, self.root, self.N
        residual = np.concatenate([self.supplies, -self.demands, [0.0]])

        kept_adj: list[list[int]] = [[] for _ in range(N)]
        degree = np.zeros(N, dtype=np.int64)
        if warm_arc_ids is not None and len(warm_arc_ids):
            # De-cycle the hint: keep arcs that connect new components only.
            uf = np.arange(N, dtype=np.int64)

            def find(x: int) -> int:
                while uf[x] != x:
                    uf[x] = uf[uf[x]]
                    x = int(uf[x])
                return x

            for aid in warm_arc_ids:
                aid = int(aid)
                u, v = int(self.tails[aid]), int(self.heads[aid])
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                uf[ru] = rv
                kept_adj[u].append(aid)
                kept_adj[v].append(aid)
                degree[u] += 1
                degree[v] += 1

        arc_dropped = np.zeros(self.n_arcs, dtype=bool)
        up_real = np.full(N, -1, dtype=np.int64)
        done = np.zeros(N, dtype=bool)
        queue = [v for v in range(N - 1) if degree[v] == 1]
        while queue:
            v = queue.pop()
            if done[v] or degree[v] != 1:
                continue
            arc = -1
            for aid in kept_adj[v]:
                if not arc_dropped[aid] and not self.in_tree[aid]:
                    arc = aid
                    break
            if arc < 0:
                continue
            u = int(self.heads[arc]) if int(self.tails[arc]) == v else int(self.tails[arc])
            # Flow the arc must carry to zero out v's residual (arc points
            # supplier -> consumer; v on the tail side pushes, head side pulls).
            needed = residual[v] if int(self.tails[arc]) == v else -residual[v]
            if needed > _TOL:
                self.in_tree[arc] = True
                self.flow[arc] = needed
                up_real[v] = arc
                residual[u] += residual[v]
                residual[v] = 0.0
                self.warm_arcs_used += 1
            else:
                arc_dropped[arc] = True
            done[v] = True
            degree[v] -= 1
            degree[u] -= 1
            if degree[u] == 1 and not done[u]:
                queue.append(u)

        # Artificial anchors for every node the surviving forest missed.
        for v in range(N - 1):
            if up_real[v] >= 0:
                continue
            aid = self.n_real + v
            rv = residual[v]
            if rv >= 0.0:
                self.tails[aid] = v  # degenerate arcs point toward the root
                self.heads[aid] = root
            else:
                self.tails[aid] = root
                self.heads[aid] = v
            self.flow[aid] = abs(rv)
            self.in_tree[aid] = True

        self._rebuild_indices()

    def _rebuild_indices(self) -> None:
        """Recompute parent/pred/depth/pi/children from ``in_tree`` arcs."""
        N, root = self.N, self.root
        adj: list[list[int]] = [[] for _ in range(N)]
        for aid in np.nonzero(self.in_tree)[0]:
            aid = int(aid)
            adj[int(self.tails[aid])].append(aid)
            adj[int(self.heads[aid])].append(aid)

        self.parent[:] = -1
        self.pred_arc[:] = -1
        self.pred_dir[:] = 0
        self.depth[:] = 0
        self.pi[:] = 0.0
        self.children = [set() for _ in range(N)]

        visited = np.zeros(N, dtype=bool)
        visited[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for aid in adj[u]:
                v = int(self.heads[aid]) if int(self.tails[aid]) == u else int(self.tails[aid])
                if visited[v]:
                    continue
                visited[v] = True
                self.parent[v] = u
                self.pred_arc[v] = aid
                self.pred_dir[v] = 1 if int(self.tails[aid]) == v else -1
                self.depth[v] = self.depth[u] + 1
                if self.pred_dir[v] == 1:
                    self.pi[v] = self.costs[aid] + self.pi[u]
                else:
                    self.pi[v] = self.pi[u] - self.costs[aid]
                self.children[u].add(v)
                stack.append(v)
        if not visited.all():
            raise FlowError("network simplex basis does not span all nodes")

    def _recompute_potentials(self) -> None:
        """Exact potentials from the current tree (kills big-M float drift)."""
        stack = [self.root]
        self.pi[self.root] = 0.0
        while stack:
            u = stack.pop()
            for v in self.children[u]:
                aid = int(self.pred_arc[v])
                if self.pred_dir[v] == 1:
                    self.pi[v] = self.costs[aid] + self.pi[u]
                else:
                    self.pi[v] = self.pi[u] - self.costs[aid]
                stack.append(v)

    # -- pricing ----------------------------------------------------------- #

    def _scan_blocks(self) -> int:
        """Block search over *real* arcs: best entering arc within the first
        block (from the roving pointer) that contains one."""
        n_real = self.n_real
        if n_real == 0:
            return -1
        start = self._next_arc
        scanned = 0
        while scanned < n_real:
            end = min(start + self.block, n_real)
            sl = slice(start, end)
            rc = self.costs[sl] - self.pi[self.tails[sl]] + self.pi[self.heads[sl]]
            rc[self.in_tree[sl]] = 0.0
            k = int(np.argmin(rc))
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
        sl = slice(0, self.n_real)
        rc = self.costs[sl] - self.pi[self.tails[sl]] + self.pi[self.heads[sl]]
        rc[self.in_tree[sl]] = 0.0
        k = int(np.argmin(rc))
        if rc[k] < -_TOL:
            self._next_arc = (k + 1) % self.n_real
            return k
        return -1

    # -- pivoting ---------------------------------------------------------- #

    def _pivot(self, entering: int) -> None:
        u = int(self.tails[entering])
        v = int(self.heads[entering])
        depth, parent, pred_arc, pred_dir, flow = (
            self.depth,
            self.parent,
            self.pred_arc,
            self.pred_dir,
            self.flow,
        )

        # Ratio test along the cycle (entering arc oriented u -> v; the tree
        # path closes it v -> join -> u). Cunningham's rule: leaving arc is
        # the *last* blocking arc in cycle orientation from the join — strict
        # '<' on the u-side keeps the candidate closest to u, '<=' on the
        # v-side keeps the candidate closest to the join, and v-side wins
        # side ties.
        theta_u = np.inf
        leave_u = -1
        node_u = -1
        theta_v = np.inf
        leave_v = -1
        node_v = -1
        x, y = u, v
        while x != y:
            if depth[x] >= depth[y]:
                arc = int(pred_arc[x])
                if pred_dir[x] == 1:  # arc x->parent opposes cycle: decreases
                    if flow[arc] < theta_u:
                        theta_u = flow[arc]
                        leave_u = arc
                        node_u = x
                x = int(parent[x])
            else:
                arc = int(pred_arc[y])
                if pred_dir[y] == -1:  # arc parent->y opposes cycle: decreases
                    if flow[arc] <= theta_v:
                        theta_v = flow[arc]
                        leave_v = arc
                        node_v = y
                y = int(parent[y])

        theta = min(theta_u, theta_v)
        if not np.isfinite(theta):
            raise FlowError("network simplex cycle is unbounded")

        # Apply the flow change around the cycle.
        if theta > 0.0:
            x, y = u, v
            while x != y:
                if depth[x] >= depth[y]:
                    flow[int(pred_arc[x])] += -theta if pred_dir[x] == 1 else theta
                    x = int(parent[x])
                else:
                    flow[int(pred_arc[y])] += theta if pred_dir[y] == 1 else -theta
                    y = int(parent[y])
            flow[entering] += theta

        if theta_v <= theta_u:
            leaving, w_out, e_in_node, other = leave_v, node_v, v, u
        else:
            leaving, w_out, e_in_node, other = leave_u, node_u, u, v
        flow[leaving] = 0.0

        self._replace_arc(entering, leaving, w_out, e_in_node, other)
        self.pivots += 1

    def _replace_arc(
        self, entering: int, leaving: int, w_out: int, e_in_node: int, other: int
    ) -> None:
        """Re-root the subtree cut off by *leaving* onto the entering arc."""
        parent, pred_arc, pred_dir, children = (
            self.parent,
            self.pred_arc,
            self.pred_dir,
            self.children,
        )

        # Collect the detached component before restructuring it.
        component = []
        stack = [w_out]
        while stack:
            x = stack.pop()
            component.append(x)
            stack.extend(children[x])

        children[int(parent[w_out])].discard(w_out)

        # Reverse the path e_in_node -> ... -> w_out.
        path = [e_in_node]
        while path[-1] != w_out:
            path.append(int(parent[path[-1]]))
        arcs_up = [int(pred_arc[x]) for x in path[:-1]]
        for i in range(len(path) - 1, 0, -1):
            child_new, parent_new = path[i], path[i - 1]
            arc = arcs_up[i - 1]
            parent[child_new] = parent_new
            pred_arc[child_new] = arc
            pred_dir[child_new] = 1 if int(self.tails[arc]) == child_new else -1
            children[child_new].discard(parent_new)
            children[parent_new].add(child_new)

        parent[e_in_node] = other
        pred_arc[e_in_node] = entering
        pred_dir[e_in_node] = 1 if int(self.tails[entering]) == e_in_node else -1
        children[other].add(e_in_node)

        self.in_tree[leaving] = False
        self.in_tree[entering] = True

        # Potentials shift by one constant across the moved component.
        if pred_dir[e_in_node] == 1:
            new_pi = self.costs[entering] + self.pi[other]
        else:
            new_pi = self.pi[other] - self.costs[entering]
        delta = new_pi - self.pi[e_in_node]
        if delta != 0.0:
            for x in component:
                self.pi[x] += delta

        # Depths below the new attachment point.
        self.depth[e_in_node] = self.depth[other] + 1
        stack = [e_in_node]
        while stack:
            x = stack.pop()
            for c in children[x]:
                self.depth[c] = self.depth[x] + 1
                stack.append(c)

    # -- main loop --------------------------------------------------------- #

    def run(self) -> None:
        refinements = 0
        while True:
            entering = self._scan_blocks()
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
            self._pivot(entering)
            if self.pivots > self.max_iterations:
                raise FlowError("network simplex exceeded its pivot budget")

        # At optimality the artificial arcs must be flowless, otherwise the
        # real-arc graph cannot route the marginals (sparse supports only;
        # dense instances are always feasible).
        art = self.flow[self.n_real :]
        if art.size and float(art.max(initial=0.0)) > _FEAS_TOL * max(
            1.0, float(self.supplies.sum())
        ):
            raise FlowError("transportation instance is infeasible on this support")

    def tree_real_arcs(self) -> np.ndarray:
        return np.nonzero(self.in_tree[: self.n_real])[0]


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
    warm_arc_ids: np.ndarray | None,
    *,
    block_size: int | None = None,
    max_iterations: int | None = None,
) -> _TreeSimplex:
    solver = _TreeSimplex(
        n,
        m,
        tails,
        heads,
        costs,
        supplies,
        demands,
        block_size=block_size,
        max_iterations=max_iterations,
    )
    solver.build_tree(warm_arc_ids)
    solver.run()
    return solver


def solve_transportation_network_simplex(
    problem: TransportationProblem,
    *,
    basis: TransportBasis | None = None,
    return_basis: bool = False,
    block_size: int | None = None,
    max_iterations: int | None = None,
) -> TransportPlan | tuple[TransportPlan, TransportBasis]:
    """Solve a (possibly unbalanced) transportation problem, warm-startable.

    *basis* is a hint in the **original** (pre-dummy) cell space — normally
    the basis returned by a previous solve of a nearby instance. Cells that
    fall outside the instance are ignored; whatever remains is repaired
    into a feasible strongly feasible tree, so the hint never changes the
    result, only the number of pivots needed to reach it. With
    ``return_basis=True`` the optimal spanning-tree basis (restricted to
    non-dummy cells) is returned alongside the plan.
    """
    balanced, dummy_consumer, dummy_supplier = problem.balanced_form()
    supplies = balanced.supplies
    demands = balanced.demands
    n, m = balanced.n_suppliers, balanced.n_consumers
    n_orig, m_orig = problem.n_suppliers, problem.n_consumers

    if n == 0 or m == 0 or balanced.total_supply <= _TOL:
        info = NetworkSimplexInfo(
            n_suppliers=n_orig,
            n_consumers=m_orig,
            n_arcs=0,
            pivots=0,
            warm=basis is not None,
            warm_arcs_given=0 if basis is None else len(basis),
            warm_arcs_used=0,
            cost=0.0,
        )
        plan = TransportPlan(flows=np.zeros((n_orig, m_orig)), cost=0.0, info=info)
        empty = TransportBasis(
            rows=np.empty(0, dtype=np.int64), cols=np.empty(0, dtype=np.int64)
        )
        return (plan, empty) if return_basis else plan

    tails = np.repeat(np.arange(n, dtype=np.int64), m)
    heads = n + np.tile(np.arange(m, dtype=np.int64), n)
    costs = np.ascontiguousarray(balanced.costs, dtype=np.float64).ravel()

    warm_arc_ids = None
    if basis is not None and len(basis):
        keep = (basis.rows >= 0) & (basis.rows < n) & (basis.cols >= 0) & (basis.cols < m)
        warm_arc_ids = (basis.rows[keep] * m + basis.cols[keep]).astype(np.int64)

    solver = _solve_arcs(
        n,
        m,
        tails,
        heads,
        costs,
        supplies,
        demands,
        warm_arc_ids,
        block_size=block_size,
        max_iterations=max_iterations,
    )

    flows = solver.flow[: n * m].reshape(n, m)
    if dummy_consumer:
        flows = flows[:, :-1]
    if dummy_supplier:
        flows = flows[:-1, :]
    flows = np.maximum(flows, 0.0)  # clamp float dust from pivoting
    cost = float((flows * problem.costs).sum())
    info = NetworkSimplexInfo(
        n_suppliers=n_orig,
        n_consumers=m_orig,
        n_arcs=solver.n_arcs,
        pivots=solver.pivots,
        warm=warm_arc_ids is not None and len(warm_arc_ids) > 0,
        warm_arcs_given=0 if basis is None else len(basis),
        warm_arcs_used=solver.warm_arcs_used,
        cost=cost,
    )
    plan = TransportPlan(flows=flows.copy(), cost=cost, info=info)

    tree_arcs = solver.tree_real_arcs()
    rows = tree_arcs // m
    cols = tree_arcs % m
    keep = (rows < n_orig) & (cols < m_orig)  # drop dummy-node cells
    out_basis = TransportBasis(rows=rows[keep], cols=cols[keep])
    return (plan, out_basis) if return_basis else plan
