"""Sinkhorn-screened sparse exact transportation solves (``"sinkhorn-hybrid"``).

The large-instance branch of the solver stack. Every exact solver in the
library works on the *dense* reduced cost matrix, so instance size
(``n_suppliers · n_consumers`` cells) is the binding constraint on graph
scale. The paper's §7 rejects EMD approximations that simplify the ground
distance; entropic screening keeps the full ground distance and instead
uses a cheap regularised solve to decide *which cells can matter*:

1. **Screen** — log-domain Sinkhorn (:func:`repro.flow.sinkhorn.sinkhorn_iterate`)
   with *epsilon-scaling*: a geometric schedule of decreasing ε values,
   each stage warm-started from the previous stage's potentials (scaled
   into the new regularisation), so the final tight-ε stage converges in
   a handful of iterations.
2. **Support** — the entropic transport kernel concentrates on the cells
   an optimal plan uses; keep the top-``k`` cells per row and per column
   (union).
3. **Repair** — the screened support is made *guaranteed feasible* by
   union with the northwest-corner chain (a classic basic feasible
   solution touching at most ``n + m - 1`` cells), so the restricted
   problem always admits a plan regardless of how aggressively the screen
   pruned.
4. **Exact solve on the support** — the restricted problem is solved
   *exactly* with the library's own backends: the sparse SSP min-cost-flow
   kernel over support arcs only, or the HiGHS LP on a sparse
   column-restricted constraint matrix (``exact_backend="auto"`` picks LP
   when scipy is importable). Arc count drops from ``n·m`` to
   ``O(k·(n+m))``.

The result is a **feasible plan whose cost upper-bounds the exact
optimum** (it is the exact optimum over a restricted arc set). A certified
*relative error bound* comes for free: the screening potentials are
repaired into a feasible dual (``g_j = min_i (D_ij - f_i)``), whose
objective lower-bounds the optimum, so

.. math::
   \\frac{C_{hybrid} - OPT}{OPT} \\le
   \\frac{C_{hybrid} - LB_{dual}}{LB_{dual}} =: \\texttt{screen\\_error\\_bound}

is reported per solve (and aggregated by :data:`HYBRID_METRICS`, which
:meth:`repro.snd.engine.SNDEngine.stats` embeds). The tolerance-tiered
property harness in ``tests/flow/test_solver_equivalence.py`` asserts the
certificate, plan feasibility, the upper-bound property, and that the
error tiers are monotone in ε and ``k``.

Instances at or below :data:`SMALL_EXACT_CELLS` cells skip the screen and
solve exactly — screening has nothing to prune there, which also makes the
hybrid safe as the ``method="auto"`` large-instance branch: selection only
routes here above the measured threshold
(:data:`repro.flow.AUTO_HYBRID_CELLS`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import FlowError, ValidationError
from repro.flow.basis import TransportBasis
from repro.flow.network_simplex import solve_support_network_simplex
from repro.flow.plan import TransportPlan
from repro.flow.problem import MinCostFlowProblem, TransportationProblem
from repro.flow.sinkhorn import sinkhorn_iterate
from repro.flow.ssp import solve_mcf_ssp

__all__ = [
    "HYBRID_METRICS",
    "HybridMetrics",
    "HybridSolveInfo",
    "SMALL_EXACT_CELLS",
    "epsilon_schedule",
    "last_hybrid_info",
    "resolve_support_k",
    "screen_support",
    "solve_transportation_sinkhorn_hybrid",
]

_EPS = 1e-12

#: Instances at or below this many dense cells are solved exactly without
#: screening: the screen cannot win there (measured — see
#: benchmarks/README.md), and delegating keeps the hybrid bit-exact on the
#: small reduced problems that dominate low-``n∆`` SND sweeps.
SMALL_EXACT_CELLS = 4096

_EXACT_BACKENDS = ("auto", "ssp", "lp", "network-simplex")


# --------------------------------------------------------------------- #
# Diagnostics
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class HybridSolveInfo:
    """Per-solve diagnostics of the hybrid pipeline."""

    n_cells: int = 0
    support_cells: int = 0
    support_density: float = 1.0
    screen_error_bound: float = 0.0
    epsilon: float = 0.0
    support_k: int = 0
    sinkhorn_iterations: int = 0
    exact_backend: str = ""
    cost: float = 0.0
    lower_bound: float = 0.0
    screened: bool = False


class HybridMetrics:
    """Thread-safe running aggregate of hybrid solves.

    Embedded in :meth:`repro.snd.engine.SNDEngine.stats` as the
    ``"hybrid"`` block. Counters are process-local: the serial and thread
    executors are fully covered; process-pool workers aggregate inside the
    worker (their parents see only distance values).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with getattr(self, "_lock", threading.Lock()):
            self.solves = 0
            self.screened_solves = 0
            self.total_cells = 0
            self.support_cells = 0
            self.max_screen_error_bound = 0.0
            self.last_support_density = 1.0
            self.last_screen_error_bound = 0.0

    def record(self, info: HybridSolveInfo) -> None:
        with self._lock:
            self.solves += 1
            if info.screened:
                self.screened_solves += 1
                self.total_cells += info.n_cells
                self.support_cells += info.support_cells
                self.last_support_density = info.support_density
                self.last_screen_error_bound = info.screen_error_bound
                if np.isfinite(info.screen_error_bound):
                    self.max_screen_error_bound = max(
                        self.max_screen_error_bound, info.screen_error_bound
                    )

    def snapshot(self) -> dict:
        with self._lock:
            density = (
                self.support_cells / self.total_cells if self.total_cells else 1.0
            )
            return {
                "solves": self.solves,
                "screened_solves": self.screened_solves,
                "support_density": density,
                "last_support_density": self.last_support_density,
                "last_screen_error_bound": self.last_screen_error_bound,
                "max_screen_error_bound": self.max_screen_error_bound,
            }


#: Module-level aggregate every hybrid solve records into.
HYBRID_METRICS = HybridMetrics()

_LAST = threading.local()


def last_hybrid_info() -> HybridSolveInfo | None:
    """The :class:`HybridSolveInfo` of this thread's most recent hybrid
    solve (``None`` before the first). The SND fast pipeline reads it to
    fill ``FastTermStats.support_density`` / ``screen_error_bound``."""
    return getattr(_LAST, "info", None)


def _record(info: HybridSolveInfo) -> None:
    _LAST.info = info
    HYBRID_METRICS.record(info)


# --------------------------------------------------------------------- #
# Screening building blocks
# --------------------------------------------------------------------- #


def epsilon_schedule(epsilon: float, *, start: float = 1.0, factor: float = 0.25) -> list[float]:
    """Geometric ε-scaling schedule from *start* down to exactly *epsilon*.

    Each stage's potentials warm-start the next, so the expensive tight-ε
    stage starts near its fixed point (the standard epsilon-scaling
    speedup for Sinkhorn).
    """
    if epsilon <= 0:
        raise FlowError(f"epsilon must be positive, got {epsilon}")
    if not 0 < factor < 1:
        raise ValidationError(f"factor must be in (0, 1), got {factor}")
    schedule: list[float] = []
    e = float(start)
    while e > epsilon * (1.0 + 1e-12):
        schedule.append(e)
        e *= factor
    schedule.append(float(epsilon))
    return schedule


def resolve_support_k(support_k, n: int, m: int) -> int:
    """Normalise the ``support_k`` knob to a per-row/column keep count.

    ``"auto"`` scales logarithmically with the instance — enough to cover
    the optimal basis plus screening noise while keeping support density
    ``O(k/n)``; explicit values must be positive integers.
    """
    if isinstance(support_k, str):
        if support_k == "auto":
            return max(5, int(np.ceil(2.0 * np.log2(max(n, m) + 1))))
        raise ValidationError(
            f"support_k must be a positive integer or 'auto', got {support_k!r}"
        )
    if isinstance(support_k, bool) or not isinstance(support_k, (int, np.integer)):
        raise ValidationError(
            f"support_k must be a positive integer or 'auto', got {support_k!r}"
        )
    if support_k < 1:
        raise ValidationError(f"support_k must be >= 1, got {support_k}")
    return int(support_k)


def screen_support(log_plan: np.ndarray, k: int) -> np.ndarray:
    """Boolean support mask: top-*k* cells per row ∪ top-*k* per column.

    *log_plan* is the log of the entropic transport kernel
    (``log_u + log_K + log_v``); ranking is monotone in the plan itself.
    """
    n, m = log_plan.shape
    mask = np.zeros((n, m), dtype=bool)
    if k >= m:
        mask[:] = True
    else:
        cols = np.argpartition(log_plan, m - k, axis=1)[:, m - k :]
        np.put_along_axis(mask, cols, True, axis=1)
    if k >= n:
        mask[:] = True
    else:
        rows = np.argpartition(log_plan, n - k, axis=0)[n - k :, :]
        np.put_along_axis(mask, rows, True, axis=0)
    return mask


def _northwest_corner_cells(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells touched by the northwest-corner rule on marginals ``(a, b)``.

    The NW chain is a basic feasible solution of the balanced problem that
    uses at most ``n + m - 1`` cells; union-ing it into any support mask
    makes the restricted problem feasible *by construction* (the
    connectivity-repair step of the screen).
    """
    n, m = a.shape[0], b.shape[0]
    rows: list[int] = []
    cols: list[int] = []
    i = j = 0
    rem_a = float(a[0]) if n else 0.0
    rem_b = float(b[0]) if m else 0.0
    while i < n and j < m:
        rows.append(i)
        cols.append(j)
        moved = min(rem_a, rem_b)
        rem_a -= moved
        rem_b -= moved
        if rem_a <= _EPS and i + 1 < n:
            i += 1
            rem_a = float(a[i])
        elif rem_b <= _EPS and j + 1 < m:
            j += 1
            rem_b = float(b[j])
        elif rem_a <= _EPS and rem_b <= _EPS:
            break
        elif rem_a <= _EPS or rem_b <= _EPS:
            # One side exhausted its bins; the other's residual is zero
            # too on balanced inputs (up to float), so stop.
            break
    return np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)


def _dual_lower_bound(
    d: np.ndarray, a: np.ndarray, b: np.ndarray, f: np.ndarray
) -> float:
    """A feasible-dual objective: a certified lower bound on the optimum.

    Given any row potentials *f*, the column potentials
    ``g_j = min_i (D_ij - f_i)`` make ``(f, g)`` feasible for the dual of
    the balanced problem (``f_i + g_j <= D_ij`` everywhere), so
    ``a·f + b·g <= OPT``. Two further coordinate-ascent sweeps (re-tighten
    ``f`` against ``g``, then ``g`` against ``f``) only increase the
    objective while keeping feasibility — they strip most of the entropic
    smearing off the screening potentials. Tight as ε → 0.
    """
    g = (d - f[:, None]).min(axis=0)
    f = (d - g[None, :]).min(axis=1)
    g = (d - f[:, None]).min(axis=0)
    return float(a @ f + b @ g)


# --------------------------------------------------------------------- #
# Exact solves restricted to a sparse support
# --------------------------------------------------------------------- #


def _solve_support_ssp(
    a: np.ndarray, b: np.ndarray, d: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Exact restricted solve as a sparse bipartite min-cost flow."""
    n, m = a.shape[0], b.shape[0]
    mcf = MinCostFlowProblem(n + m)
    mcf.supply[:n] = a
    mcf.supply[n:] = -b
    cap = float(a.sum()) + 1.0
    mcf.add_edges(rows, n + cols, np.full(rows.size, cap), d[rows, cols])
    solution = solve_mcf_ssp(mcf)
    plan = np.zeros((n, m))
    np.add.at(plan, (rows, cols), solution.flows)
    return plan


def _solve_support_lp(
    a: np.ndarray, b: np.ndarray, d: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Exact restricted solve as a column-sparse HiGHS LP.

    Variables are the support cells only; equality marginals (the
    balanced form), so the constraint matrix has exactly two non-zeros per
    variable.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n, m = a.shape[0], b.shape[0]
    nnz = rows.size
    var = np.arange(nnz)
    a_eq = csr_matrix(
        (
            np.ones(2 * nnz),
            (np.concatenate([rows, n + cols]), np.concatenate([var, var])),
        ),
        shape=(n + m, nnz),
    )
    b_eq = np.concatenate([a, b])
    result = linprog(
        d[rows, cols], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    if not result.success:
        raise FlowError(f"restricted LP solve failed: {result.message}")
    plan = np.zeros((n, m))
    np.add.at(plan, (rows, cols), np.maximum(result.x, 0.0))
    return plan


def _solve_support_ns(
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    warm_cells: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Exact restricted solve on the warm-startable network simplex.

    The screened support *is* a sparse min-cost flow, which makes the
    hybrid tier the first consumer of the basis-carrying backend: the
    warm cells (intersected with the support — the restricted problem is
    identical to a cold solve, only the starting tree differs) seed the
    spanning tree, and the optimal basis cells come back for the caller's
    basis store.
    """
    return solve_support_network_simplex(
        a, b, d, rows, cols, warm_cells=warm_cells, return_cells=True
    )


def _resolve_backend(exact_backend: str) -> str:
    if exact_backend not in _EXACT_BACKENDS:
        raise ValidationError(
            f"exact_backend must be one of {_EXACT_BACKENDS}, got {exact_backend!r}"
        )
    if exact_backend != "auto":
        return exact_backend
    try:
        import scipy.optimize  # noqa: F401

        return "lp"
    except ImportError:  # pragma: no cover - scipy-less hosts
        return "ssp"


# --------------------------------------------------------------------- #
# The solver
# --------------------------------------------------------------------- #


def solve_transportation_sinkhorn_hybrid(
    problem: TransportationProblem,
    *,
    epsilon: float = 0.02,
    support_k="auto",
    exact_backend: str = "auto",
    max_iter: int = 1_000,
    tolerance: float = 1e-5,
    scaling_factor: float = 0.25,
    basis: TransportBasis | None = None,
    return_basis: bool = False,
) -> TransportPlan | tuple[TransportPlan, TransportBasis]:
    """Sinkhorn-screened sparse exact solve.

    Parameters
    ----------
    epsilon:
        Final entropic regularisation of the screening pass, relative to
        the maximum cost (scale-free, as in
        :func:`~repro.flow.sinkhorn.solve_transportation_sinkhorn`).
        Smaller ε concentrates the kernel harder on the optimal support →
        tighter error at slightly more screening work.
    support_k:
        Cells kept per row and per column (union), or ``"auto"``
        (logarithmic in the instance size). Larger ``k`` → denser support
        → tighter error, slower exact solve.
    exact_backend:
        Exact solver for the restricted problem: ``"ssp"`` (sparse
        min-cost flow over support arcs), ``"lp"`` (sparse HiGHS),
        ``"network-simplex"`` (warm-startable sparse simplex — the only
        backend that consumes *basis* / produces *return_basis*), or
        ``"auto"`` (LP when scipy is importable).
    max_iter, tolerance:
        Screening iteration budget (split across the ε-scaling stages)
        and marginal-violation stop threshold. Screening accuracy only
        affects *which* cells are kept — the restricted solve is exact
        regardless.
    scaling_factor:
        Geometric decay of the ε-scaling schedule (see
        :func:`epsilon_schedule`).

    Returns a feasible :class:`~repro.flow.plan.TransportPlan` whose cost
    is the exact optimum of the support-restricted problem — an upper
    bound on the true optimum, certified by ``screen_error_bound`` (see
    :func:`last_hybrid_info` / :data:`HYBRID_METRICS`).

    *basis* (original cell space) seeds the restricted solve's
    spanning tree when the backend is ``"network-simplex"``; warm cells
    are intersected with the screened support, so the solved problem —
    and hence the plan and bound — is identical to a cold solve. With
    ``return_basis=True`` the optimal basis comes back for caching.
    """
    if epsilon <= 0:
        raise FlowError(f"epsilon must be positive, got {epsilon}")
    backend = _resolve_backend(exact_backend)
    if return_basis and backend != "network-simplex":
        raise ValidationError(
            "return_basis requires exact_backend='network-simplex', "
            f"got {exact_backend!r}"
        )

    balanced, dummy_consumer, dummy_supplier = problem.balanced_form()
    a_full = balanced.supplies
    b_full = balanced.demands
    costs = balanced.costs

    total = float(a_full.sum())
    if total <= 0:
        _record(HybridSolveInfo(exact_backend=backend))
        plan = TransportPlan(flows=np.zeros(problem.costs.shape), cost=0.0)
        if return_basis:
            empty = np.empty(0, dtype=np.int64)
            return plan, TransportBasis(rows=empty, cols=empty)
        return plan

    # Lemma 1: restrict to positive-mass bins (empty bins break Sinkhorn
    # and cannot carry flow anyway).
    rows_ids = np.flatnonzero(a_full > 0)
    cols_ids = np.flatnonzero(b_full > 0)
    a_s = a_full[rows_ids] / total
    b_s = b_full[cols_ids] / total
    d_s = costs[np.ix_(rows_ids, cols_ids)]
    n, m = a_s.shape[0], b_s.shape[0]
    n_cells = n * m

    k = resolve_support_k(support_k, n, m)

    # Warm basis cells arrive in the original cell space; re-anchor them
    # onto the positive-mass restriction (cells that fall outside it, or
    # outside the screened support below, are simply ignored).
    warm_local = None
    if backend == "network-simplex" and basis is not None and len(basis):
        inv_r = np.full(costs.shape[0], -1, dtype=np.int64)
        inv_r[rows_ids] = np.arange(n)
        inv_c = np.full(costs.shape[1], -1, dtype=np.int64)
        inv_c[cols_ids] = np.arange(m)
        br, bc = basis.rows, basis.cols
        ok = (br >= 0) & (br < costs.shape[0]) & (bc >= 0) & (bc < costs.shape[1])
        lr, lc = inv_r[br[ok]], inv_c[bc[ok]]
        ok = (lr >= 0) & (lc >= 0)
        if ok.any():
            warm_local = (lr[ok], lc[ok])

    ns_cells = None
    if n_cells <= SMALL_EXACT_CELLS or (k >= n and k >= m):
        # Nothing to prune: solve exactly on the full support.
        rr, cc = np.nonzero(np.ones((n, m), dtype=bool))
        if backend == "network-simplex":
            plan_s, ns_cells = _solve_support_ns(
                a_s, b_s, d_s, rr, cc, warm_cells=warm_local
            )
        else:
            solve = _solve_support_lp if backend == "lp" else _solve_support_ssp
            plan_s = solve(a_s, b_s, d_s, rr, cc)
        info = HybridSolveInfo(
            n_cells=n_cells,
            support_cells=n_cells,
            support_density=1.0,
            screen_error_bound=0.0,
            epsilon=float(epsilon),
            support_k=k,
            exact_backend=backend,
            screened=False,
        )
    else:
        # ---- screen: epsilon-scaling with warm-started potentials ---- #
        scale = float(d_s.max()) if d_s.max() > 0 else 1.0
        log_a = np.log(a_s)
        log_b = np.log(b_s)
        schedule = epsilon_schedule(epsilon, factor=scaling_factor)
        stage_iter = max(20, max_iter // len(schedule))
        log_u = log_v = None
        f = g = None  # potentials in cost units — the warm-start carrier
        iterations = 0
        log_k_mat = None
        reg = scale
        for eps_t in schedule:
            reg = eps_t * scale
            log_k_mat = -d_s / reg
            if f is not None:
                log_u, log_v = f / reg, g / reg
            log_u, log_v, it = sinkhorn_iterate(
                log_a, log_b, log_k_mat,
                max_iter=stage_iter, tolerance=tolerance,
                log_u=log_u, log_v=log_v,
            )
            f, g = log_u * reg, log_v * reg
            iterations += it

        # ---- support: top-k union + NW-corner feasibility repair ----- #
        log_plan = log_u[:, None] + log_k_mat + log_v[None, :]
        mask = screen_support(log_plan, k)
        nw_rows, nw_cols = _northwest_corner_cells(a_s, b_s)
        mask[nw_rows, nw_cols] = True
        if dummy_consumer and cols_ids[-1] == costs.shape[1] - 1:
            mask[:, -1] = True  # surplus may park anywhere at zero cost
        if dummy_supplier and rows_ids[-1] == costs.shape[0] - 1:
            mask[-1, :] = True
        rr, cc = np.nonzero(mask)

        # ---- exact solve restricted to the support ------------------- #
        if backend == "network-simplex":
            plan_s, ns_cells = _solve_support_ns(
                a_s, b_s, d_s, rr, cc, warm_cells=warm_local
            )
        else:
            solve = _solve_support_lp if backend == "lp" else _solve_support_ssp
            plan_s = solve(a_s, b_s, d_s, rr, cc)

        # ---- certified error bound via the repaired dual ------------- #
        cost_norm = float((plan_s * d_s).sum())
        # Center the row potentials (dual objectives are shift-invariant).
        f_centered = f - f.mean()
        lb_norm = _dual_lower_bound(d_s, a_s, b_s, f_centered)
        gap = max(0.0, cost_norm - lb_norm)
        if cost_norm <= _EPS:
            bound = 0.0
        elif lb_norm > _EPS:
            bound = gap / lb_norm
        else:
            bound = float("inf")  # dual too loose to certify (huge ε)
        info = HybridSolveInfo(
            n_cells=n_cells,
            support_cells=int(rr.size),
            support_density=float(rr.size) / n_cells,
            screen_error_bound=float(bound),
            epsilon=float(epsilon),
            support_k=k,
            sinkhorn_iterations=iterations,
            exact_backend=backend,
            lower_bound=lb_norm * total,
            screened=True,
        )

    plan_s = plan_s * total
    flows = np.zeros_like(costs)
    flows[np.ix_(rows_ids, cols_ids)] = plan_s
    if dummy_consumer:
        flows = flows[:, :-1]
    if dummy_supplier:
        flows = flows[:-1, :]
    cost = float((flows * problem.costs).sum())
    _record(replace(info, cost=cost))
    plan = TransportPlan(flows=flows, cost=cost)
    if return_basis:
        if ns_cells is not None:
            gr = rows_ids[ns_cells[0]]
            gc = cols_ids[ns_cells[1]]
            keep = (gr < problem.n_suppliers) & (gc < problem.n_consumers)
            out_basis = TransportBasis(rows=gr[keep], cols=gc[keep])
        else:
            empty = np.empty(0, dtype=np.int64)
            out_basis = TransportBasis(rows=empty, cols=empty)
        return plan, out_basis
    return plan
