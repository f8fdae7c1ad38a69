"""Earth Mover's Distance family.

* :func:`emd` — the original EMD (Rubner et al.), normalised optimal
  transportation cost; ignores total-mass mismatch.
* :func:`emd_hat` — EMD̂ (Pele & Werman): additive mass-mismatch penalty.
* :func:`emd_alpha` — EMDα (Ljosa et al.): single global bank bin.
* :func:`emd_star` — EMD\\* (this paper): local bank bins per bin cluster,
  relating the mass-mismatch penalty to network structure.

Theorem 2 (EMDα ≡ EMD̂ for metric ground distances and α ≥ 0.5) and
Theorem 3 (EMD\\* metricity) are property-tested in ``tests/emd``.
"""

from repro.emd.base import emd, emd_raw_cost
from repro.emd.emd_alpha import emd_alpha
from repro.emd.emd_hat import emd_hat
from repro.emd.emd_star import EmdStarExtension, build_extension, emd_star, metric_gammas
from repro.emd.reduction import cancel_common_mass, remove_empty_bins

__all__ = [
    "emd",
    "emd_raw_cost",
    "emd_hat",
    "emd_alpha",
    "emd_star",
    "EmdStarExtension",
    "build_extension",
    "metric_gammas",
    "cancel_common_mass",
    "remove_empty_bins",
]
