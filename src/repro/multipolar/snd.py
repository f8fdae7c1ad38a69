"""k-pole Social Network Distance.

Eq. 3 generalises from two polar opinions to ``k`` poles by summing one
``EMD*`` term per (direction, pole):

.. math::
   SND_k(G_1, G_2) = \\tfrac{1}{2} \\sum_{p=1}^{k} \\bigl[
       EMD^*(G_1^p, G_2^p, D(G_1, p)) + EMD^*(G_2^p, G_1^p, D(G_2, p))
   \\bigr]

where ``G^p`` is pole ``p``'s unit-mass indicator histogram and
``D(G, p)`` the Eq. 2 ground distance of the one-vs-rest projection
:meth:`~repro.multipolar.state.MultipolarState.polar_projection` (pole
``p``'s adopters positive, every competing pole's adopters negative, so
every competing pole is adverse). Each term is the bipolar positive-opinion
term on the pole-``p`` projections, so :class:`MultipolarSND` is an
:class:`~repro.snd.snd.SND` whose term list holds those projections.
Terms are summed direction-major, pole-minor — at ``k = 2`` that is
exactly the Eq. 3 order ``(G_1, G_2, +), (G_1, G_2, -), (G_2, G_1, +),
(G_2, G_1, -)``, and each projected term equals the corresponding bipolar
term byte-for-byte, so ``SND_k`` at ``k = 2`` is **bit-identical** to the
bipolar :class:`~repro.snd.snd.SND` (asserted across solvers in
``tests/multipolar/test_multipolar.py::TestBitIdentity``).

Everything else is inherited: the batch methods, the cache hierarchy,
:class:`~repro.snd.engine.SNDEngine` (process pools included),
:class:`~repro.snd.engine.Corpus` and ``stream``. Multipolar states carry
the same byte-stable content fingerprints as bipolar ones, so the
ground/row/transition/basis cache layers work unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import StateError
from repro.graph.digraph import DiGraph
from repro.multipolar.state import MultipolarState
from repro.opinions.models.base import OpinionModel
from repro.opinions.state import POSITIVE
from repro.snd.snd import SND

__all__ = ["MultipolarSND"]


class MultipolarSND(SND):
    """k-pole SND over a fixed graph and opinion model.

    Parameters
    ----------
    graph:
        The social network (direction = influence flow).
    n_poles:
        Number of poles ``k >= 2``.
    model:
        Opinion model supplying spreading penalties for the projected
        states; defaults to the polarity-symmetric
        :class:`~repro.opinions.models.model_agnostic.ModelAgnostic`
        (symmetry is what the k=2 bit-identity reduction relies on).
    **snd_kwargs:
        Forwarded to :class:`~repro.snd.snd.SND` (banks, solver,
        penalties, seed, ...).

    Examples
    --------
    >>> from repro.graph import erdos_renyi_graph
    >>> from repro.multipolar import MultipolarState
    >>> g = erdos_renyi_graph(30, 0.2, seed=1)
    >>> msnd = MultipolarSND(g, n_poles=3, n_clusters=2, seed=0)
    >>> a = MultipolarState.from_pole_sets(30, [[0], [5], [9]])
    >>> b = MultipolarState.from_pole_sets(30, [[1], [5], [9]])
    >>> msnd.distance(a, a)
    0.0
    >>> msnd.distance(a, b) > 0
    True
    """

    def __init__(
        self,
        graph: DiGraph,
        n_poles: int = 2,
        model: OpinionModel | None = None,
        **snd_kwargs,
    ) -> None:
        if not isinstance(n_poles, (int, np.integer)) or n_poles < 2:
            raise StateError(f"n_poles must be an integer >= 2, got {n_poles!r}")
        super().__init__(graph, model, **snd_kwargs)
        self.n_poles = int(n_poles)

    def _check_state(self, state: MultipolarState) -> None:
        if not isinstance(state, MultipolarState):
            raise StateError(
                f"expected a MultipolarState, got {type(state).__name__}"
            )
        if state.n_poles != self.n_poles:
            raise StateError(
                f"state has {state.n_poles} poles, instance expects {self.n_poles}"
            )
        super()._check_state(state)

    def state_from_row(self, row: np.ndarray) -> MultipolarState:
        return MultipolarState(row, n_poles=self.n_poles)

    @property
    def pole_values(self) -> tuple[int, ...]:
        """Pole p's holders carry the value p."""
        return tuple(range(1, self.n_poles + 1))

    def _pair_terms(self, a, b):
        """Pole-``p`` projections at the positive opinion, direction-major
        and pole-minor."""
        return [
            (sup.polar_projection(pole), con.polar_projection(pole), POSITIVE)
            for sup, con in ((a, b), (b, a))
            for pole in range(1, self.n_poles + 1)
        ]
