"""Shared utilities: validation helpers and RNG handling."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_nonnegative,
    check_positive_int,
    check_probability,
    check_square,
    check_vector,
)

__all__ = [
    "as_rng",
    "spawn_rngs",
    "check_finite",
    "check_in_range",
    "check_nonnegative",
    "check_positive_int",
    "check_probability",
    "check_square",
    "check_vector",
]
