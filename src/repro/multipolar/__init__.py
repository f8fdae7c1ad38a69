"""k-pole generalisation of the SND stack.

The paper's state space has exactly two polar opinions; this package
generalises it to ``k >= 2`` mutually exclusive poles:

* :class:`MultipolarState` / :class:`MultipolarSeries` — k-pole states
  with the same byte-stable content fingerprints as bipolar ones, so the
  cache hierarchy and scheduler layers work unchanged;
* :class:`MultipolarSND` — the k-pole Eq. 3 generalisation: an
  :class:`~repro.snd.snd.SND` whose terms are the one-vs-rest pole
  projections (every competing pole adverse), so it runs on
  :class:`~repro.snd.engine.SNDEngine` unchanged and reduces
  **bit-identically** to the bipolar SND at ``k = 2``.

The synthetic k-pole evolution process lives in
:mod:`repro.opinions.models.multipolar_voting`; the polarization-measure
bake-off comparing ``SND_k`` against scalar literature measures lives in
:mod:`repro.analysis.bakeoff`.
"""

from repro.multipolar.snd import MultipolarSND
from repro.multipolar.state import (
    POLE_NEUTRAL,
    MultipolarSeries,
    MultipolarState,
)

__all__ = [
    "POLE_NEUTRAL",
    "MultipolarState",
    "MultipolarSeries",
    "MultipolarSND",
]
