"""Tests for the utils package (validation, rng)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_nonnegative,
    check_positive_int,
    check_probability,
    check_same_length,
    check_square,
    check_vector,
)


class TestValidation:
    def test_check_vector_coerces(self):
        out = check_vector([1, 2, 3])
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_check_vector_scalar_promoted(self):
        assert check_vector(5.0).shape == (1,)

    def test_check_vector_rejects_matrix(self):
        with pytest.raises(ValidationError):
            check_vector(np.zeros((2, 2)))

    def test_check_vector_length(self):
        with pytest.raises(ValidationError):
            check_vector([1, 2], length=3)

    def test_check_square(self):
        assert check_square(np.eye(3)).shape == (3, 3)
        with pytest.raises(ValidationError):
            check_square(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            check_square(np.eye(3), size=4)

    def test_check_nonnegative(self):
        check_nonnegative(np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            check_nonnegative(np.array([-0.1]))

    def test_check_finite(self):
        check_finite(np.array([1.0]))
        with pytest.raises(ValidationError):
            check_finite(np.array([np.inf]))
        with pytest.raises(ValidationError):
            check_finite(np.array([np.nan]))

    def test_check_probability(self):
        assert check_probability(0.5) == 0.5
        with pytest.raises(ValidationError):
            check_probability(1.1)
        with pytest.raises(ValidationError):
            check_probability(-0.1)

    def test_check_positive_int(self):
        assert check_positive_int(3) == 3
        with pytest.raises(ValidationError):
            check_positive_int(0)
        with pytest.raises(ValidationError):
            check_positive_int(2.5)
        with pytest.raises(ValidationError):
            check_positive_int(True)

    def test_check_in_range(self):
        assert check_in_range(0.5, 0, 1) == 0.5
        with pytest.raises(ValidationError):
            check_in_range(2, 0, 1)
        with pytest.raises(ValidationError):
            check_in_range(0.0, 0, 1, inclusive=False)

    def test_check_same_length(self):
        check_same_length("a", [1], "b", [2])
        with pytest.raises(ValidationError):
            check_same_length("a", [1], "b", [2, 3])


class TestRng:
    def test_as_rng_from_int_deterministic(self):
        assert as_rng(7).integers(1000) == as_rng(7).integers(1000)

    def test_as_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_none_fresh(self):
        a, b = as_rng(None), as_rng(None)
        assert a is not b

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(42, 3)
        draws = [g.integers(10**9) for g in children]
        assert len(set(draws)) == 3

    def test_spawn_rngs_deterministic(self):
        a = [g.integers(10**9) for g in spawn_rngs(1, 2)]
        b = [g.integers(10**9) for g in spawn_rngs(1, 2)]
        assert a == b

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(0)
        children = spawn_rngs(gen, 2)
        assert len(children) == 2

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
