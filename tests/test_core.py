import numpy as np
import pytest

from pnmkit.core import (
    NonFiniteError,
    RngStream,
    Trajectory,
    as_param_vector,
    config_digest,
)


class TestParamVector:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            as_param_vector([])

    def test_matrix_rejected(self):
        with pytest.raises(ValueError):
            as_param_vector(np.zeros((2, 2)))

    def test_float64_coercion(self):
        v = as_param_vector([1, 2, 3])
        assert v.dtype == np.float64

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            as_param_vector([np.nan, 1.0])


class TestStandardGaussian:
    def test_moments(self):
        # CLT band for the mean, ~chi-square concentration for the variance
        draws = RngStream(101).standard_gaussian_vector(1_000_000)
        assert abs(draws.mean()) < 4.0 / np.sqrt(1e6)
        assert abs(draws.var() - 1.0) < 0.01

    def test_determinism(self):
        a = RngStream(7).standard_gaussian_vector(1000)
        b = RngStream(7).standard_gaussian_vector(1000)
        np.testing.assert_array_equal(a, b)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0).standard_gaussian_vector(0)


class TestRngStream:
    def test_call_sequence_reproducible(self):
        s1, s2 = RngStream(42), RngStream(42)
        for _ in range(3):
            np.testing.assert_array_equal(s1.standard_normal(5), s2.standard_normal(5))
            assert s1.integers(0, 100) == s2.integers(0, 100)

    def test_spawn_deterministic_and_distinct(self):
        parent = RngStream(9)
        a, b = parent.spawn(0), parent.spawn(1)
        assert a.seed == RngStream(9).spawn(0).seed
        assert a.seed != b.seed
        assert not np.array_equal(a.standard_normal(8), b.standard_normal(8))

    def test_algorithm_identifier(self):
        assert RngStream(1).algorithm == "pcg64"


class TestTrajectory:
    def test_steps_strictly_increasing(self):
        t = Trajectory()
        t.append(0, 1.0, 2.0)
        t.append(1, 0.5, 1.0)
        with pytest.raises(ValueError):
            t.append(1, 0.4, 0.9)

    def test_column_arrays(self):
        t = Trajectory()
        t.append(0, 1.0, 2.0)
        t.append(5, 0.5, 1.5)
        np.testing.assert_array_equal(t.steps, [0, 5])
        np.testing.assert_array_equal(t.losses, [1.0, 0.5])
        np.testing.assert_array_equal(t.grad_norms_sq, [2.0, 1.5])


class TestConfigDigest:
    def test_key_order_invariant(self):
        assert config_digest({"a": 1, "b": [2, 3]}) == config_digest({"b": [2, 3], "a": 1})

    def test_value_sensitivity(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})
