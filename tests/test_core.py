import numpy as np
import pytest
from scipy.signal import lfilter

from pnmkit import core
from pnmkit.core import (
    NonFiniteError,
    RngStream,
    ar1_filter,
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
        draws = RngStream(101).standard_normal(1_000_000)
        assert abs(draws.mean()) < 4.0 / np.sqrt(1e6)
        assert abs(draws.var() - 1.0) < 0.01

    def test_determinism(self):
        a = RngStream(7).standard_normal(1000)
        b = RngStream(7).standard_normal(1000)
        np.testing.assert_array_equal(a, b)


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


class TestConfigDigest:
    def test_key_order_invariant(self):
        assert config_digest({"a": 1, "b": [2, 3]}) == config_digest({"b": [2, 3], "a": 1})

    def test_value_sensitivity(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})


def _lfilter(x, b0, phi, z):
    """scipy's filter, one call per column for per-column coefficients."""
    b0, phi = np.broadcast_to(b0, x.shape[1:]), np.broadcast_to(phi, x.shape[1:])
    cols = [lfilter([b0[j]], [1.0, -phi[j]], x[:, j], zi=z[:, j]) for j in range(x.shape[1])]
    return np.stack([y for y, _ in cols], axis=1), np.stack([zf for _, zf in cols], axis=1)


def _assert_bits(x, b0, phi, z):
    """ar1_filter writes lfilter's bytes over a copy of x and returns them
    with lfilter's final state."""
    want_y, want_zf = _lfilter(x, b0, phi, z)
    x = x.copy()
    y, zf = ar1_filter(x, b0, phi, z)
    assert y is x
    assert y.shape == want_y.shape and zf.shape == want_zf.shape
    assert y.tobytes() == want_y.tobytes()
    assert zf.tobytes() == want_zf.tobytes()


class TestAr1Filter:
    """ar1_filter is scipy.signal.lfilter([b0], [1, -phi]) bit for bit,
    written over its input.

    At |phi| = 1/2 a gap between two states halves per step, so any two
    float64 states reach equal bits within 53 steps: blocks are 106 steps,
    and a series of 32 blocks (3,392 steps) or more runs blocked."""

    BLOCK = 106

    @pytest.fixture()
    def blocked_calls(self, monkeypatch):
        calls = []
        real = core._ar1_blocked

        def spy(X, *args):
            calls.append(len(X))
            return real(X, *args)

        monkeypatch.setattr(core, "_ar1_blocked", spy)
        return calls

    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 32 * BLOCK - 1,
                                   32 * BLOCK, 32 * BLOCK + 1, 40 * BLOCK + 37])
    def test_block_edges(self, n):
        rng = np.random.default_rng(n)
        _assert_bits(rng.standard_normal((n, 3)), 0.3, 0.5, np.zeros((1, 3)))
        _assert_bits(rng.standard_normal((n, 2)), np.array([0.7, -1.3]), np.array([0.5, -0.25]),
                     rng.standard_normal((1, 2)))

    @pytest.mark.parametrize("phi", [0.0, 0.3, -0.7, 0.81, 0.98, 0.999, 0.9999])
    def test_memory_lengths(self, phi):
        rng = np.random.default_rng(7)
        for n in (1, 500, 70_000):
            _assert_bits(rng.standard_normal((n, 1)), 1.0 - phi, phi, rng.standard_normal((1, 1)))
        x = rng.standard_normal(300)
        want = _lfilter(x[:, None], 0.5, phi, np.full((1, 1), 0.25))[0]
        y, zf = ar1_filter(x, 0.5, phi, np.array([0.25]))
        assert y.shape == (300,) and zf.shape == (1,)
        assert y.tobytes() == want.tobytes()

    def test_selection_rule(self, blocked_calls):
        rng = np.random.default_rng(3)
        for n in (32 * self.BLOCK - 1, 32 * self.BLOCK):
            _assert_bits(rng.standard_normal((n, 2)), 0.5, np.array([0.5, 0.25]), np.zeros((1, 2)))
        # The column with the longest memory sets the block.
        assert blocked_calls == [32 * self.BLOCK]
        blocked_calls.clear()
        _assert_bits(rng.standard_normal((100_000, 1)), 0.1, 1.0, np.ones((1, 1)))
        _assert_bits(rng.standard_normal((100_000, 1)), 0.1, -1.01, np.ones((1, 1)))
        assert blocked_calls == []

    def test_long_series_run_in_chunks(self, blocked_calls):
        n = 2 * core._AR1_CHUNK + 1
        rng = np.random.default_rng(4)
        _assert_bits(rng.standard_normal((n, 1)), 0.19, 0.81, rng.standard_normal((1, 1)))
        assert len(blocked_calls) == 2 and sum(blocked_calls) == n

    def test_x_must_be_writeable_c_contiguous(self):
        x = np.random.default_rng(9).standard_normal((3, 40 * self.BLOCK))
        read_only = x.T.copy()
        read_only.flags.writeable = False
        for bad in (x.T, x.T[::2], x.T.astype(np.float32), read_only, x.T.tolist()):
            with pytest.raises(ValueError, match="writeable C-contiguous float64"):
                ar1_filter(bad, 0.4, 0.5, np.zeros((1, 3)))
        assert x.tobytes() == np.random.default_rng(9).standard_normal(x.shape).tobytes()

    def test_state_carries_across_calls(self):
        rng = np.random.default_rng(5)
        x, phi = rng.standard_normal((9_000, 2)), np.array([0.5, 0.9])
        whole = ar1_filter(x.copy(), 0.2, phi, np.zeros((1, 2)))
        first = ar1_filter(x[:4_000], 0.2, phi, np.zeros((1, 2)))
        second = ar1_filter(x[4_000:], 0.2, phi, first[1])
        assert np.vstack([first[0], second[0]]).tobytes() == whole[0].tobytes()
        assert second[1].tobytes() == whole[1].tobytes()

    def test_repeat_round(self, monkeypatch):
        # Inputs near 1e-200 after a stretch of unit noise: a block started
        # from a guessed zero tracks the true run only as closely as the
        # decaying true state, so it never reaches equal bits, its end moves,
        # and a further round reruns its successor.
        moved, real_argmax = [], np.argmax
        monkeypatch.setattr(np, "argmax", lambda *a, **kw: moved.append(1) or real_argmax(*a, **kw))
        x = np.random.default_rng(6).standard_normal((40 * self.BLOCK, 2))
        x[10 * self.BLOCK + 50:13 * self.BLOCK] *= 1e-200
        _assert_bits(x, 1.0, 0.5, np.ones((1, 2)))
        assert len(moved) >= 2  # one per round that found a moved start
        moved.clear()
        _assert_bits(x[:10 * self.BLOCK].repeat(4, axis=0), 1.0, 0.5, np.ones((1, 2)))
        assert len(moved) == 1

    @pytest.mark.parametrize("phi", [0.0, 0.5, -0.5])
    def test_zero_and_non_finite_outputs(self, phi, blocked_calls):
        # The blocked step drops lfilter's 0 * x, so zeros and non-finite
        # outputs go to the per-column path, which keeps lfilter's signs.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40 * self.BLOCK, 2))
        x[3_000, 0], x[1_000, 1] = 0.0, -0.0
        _assert_bits(x, 0.7, phi, rng.standard_normal((1, 2)))
        _assert_bits(np.zeros((40 * self.BLOCK, 1)), 1.0, phi, np.full((1, 1), -0.0))
        x[2_000, 0], x[3_500, 1] = np.inf, np.nan
        _assert_bits(x, 0.7, phi, np.zeros((1, 2)))
        _assert_bits(x[:50], 0.7, phi, np.zeros((1, 2)))
        assert blocked_calls  # the checks above did take the blocked path first

    # Each case: (length, columns, b0, phi, last input). Lengths are odd; the
    # blocked ones leave a head of single steps before the first block.
    ODD = {
        "one_step": (1, 2, 0.7, 0.5, None),
        "per_column": (2 * BLOCK + 1, 2, np.array([0.7, -1.3]), np.array([0.5, -0.25]), None),
        "blocked_head": (40 * BLOCK + 37, 2, np.array([0.7, -1.3]), np.array([0.5, -0.25]), None),
        "two_chunks": (2 * core._AR1_CHUNK + 1, 1, 0.19, 0.81, None),
        "last_negative_zero": (40 * BLOCK + 37, 2, 0.7, 0.5, -0.0),
        # At phi = 0 the final state is the sign of the zero x[-1] * 0.0 less
        # the zero y[-1] * -0.0, and b0 < 0 gives y[-1] the other sign.
        "last_state_sign": (40 * BLOCK + 37, 1, -0.7, 0.0, 1.5),
    }

    @pytest.mark.parametrize("case", list(ODD))
    def test_odd_lengths_and_last_inputs(self, case, blocked_calls):
        n, c, b0, phi, last = self.ODD[case]
        rng = np.random.default_rng(n)
        x, z = rng.standard_normal((n, c)), rng.standard_normal((1, c))
        if last is not None:
            x[-1] = last
        _assert_bits(x, b0, phi, z)
        assert bool(blocked_calls) == (n >= 32 * self.BLOCK)

    def test_fallback_reads_inputs(self, blocked_calls):
        # At phi = 0 (16-step blocks) a zero input makes a zero output, so the
        # second of two chunks falls back to the per-column path after the
        # first was written: that path must read the chunk's inputs, its head
        # step included, not outputs. The last input is -0.0.
        chunk = core._AR1_CHUNK
        x = np.random.default_rng(11).standard_normal((2 * chunk + 1, 1))
        x[chunk + chunk // 2], x[-1] = 0.0, -0.0
        assert (len(x) - chunk) % 16 == 1
        _assert_bits(x, 0.7, 0.0, np.full((1, 1), 0.25))
        assert blocked_calls == [chunk, chunk + 1]
