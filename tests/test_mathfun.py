"""Numeric primitive tests.

Expected values come from independent arbitrary-precision oracles
(quadrature for the Gaussian tail, power series for the Bessel function),
either frozen from a 50-digit run or recomputed here with mpmath.
"""

import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from avlinksim.link import ChannelSpec, _channel_draw
from avlinksim.mathfun import (
    _Q_BLOCK,
    RngStream,
    bessel_j1,
    gaussian_q,
    gaussian_q_inv,
    sample_rician_power,
)

mp.mp.dps = 40


def _q_quad(x):
    # tail integral of the standard normal, no erfc involved; splitting the
    # interval keeps full relative precision deep into the tail
    x = mp.mpf(x)
    return mp.quad(
        lambda t: mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi),
        [x, x + 5, x + 15, x + 45],
    ) + mp.quad(
        lambda t: mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi), [x + 45, mp.inf]
    )


# ============================================================
# Gaussian tail
# ============================================================

class TestGaussianQ:
    def test_frozen_oracle_value(self):
        # 50-digit quadrature: Q(1.2815515655) = 0.10000000000782730756
        assert_allclose(gaussian_q(1.2815515655), 0.10000000000782730756, rtol=1e-13)

    def test_against_quadrature_grid(self):
        xs = [-8.0, -3.0, -1.0, 0.0, 0.5, 1.0, 2.5, 5.0, 8.0, 12.0]
        for x in xs:
            assert_allclose(gaussian_q(x), float(_q_quad(x)), rtol=1e-12)

    def test_symmetry_and_bounds(self):
        assert gaussian_q(0.0) == pytest.approx(0.5, rel=1e-15)
        for x in (0.3, 1.7, 4.0):
            assert_allclose(gaussian_q(x) + gaussian_q(-x), 1.0, rtol=1e-14)

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, 2.0])
        out = gaussian_q(xs)
        assert out.shape == (3,)
        assert_allclose(out[0], 0.5, rtol=1e-15)

    def test_scalar_returns_float(self):
        assert isinstance(gaussian_q(1.0), float)

    def test_against_mpmath_over_the_fbl_range(self):
        # [-9, 38.5] is where the estimator evaluates Q; both sides of every
        # range edge x = sqrt(2) * 0.46875 and sqrt(2) * 4 are included
        xs = list(np.linspace(-9.0, 38.5, 1901))
        for y in (0.46875, 4.0):
            for edge in (-float(mp.sqrt(2) * y), float(mp.sqrt(2) * y)):
                xs += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf),
                       edge - 1e-9, edge + 1e-9]
        xs = np.array(xs)
        tiny = np.finfo(float).tiny
        for x, got in zip(xs, gaussian_q(xs)):
            ref = mp.erfc(mp.mpf(float(x)) / mp.sqrt(2)) / 2
            if ref >= tiny:
                assert abs(mp.mpf(float(got)) / ref - 1) <= 3e-13, x

    def test_exact_ends_without_warnings(self):
        ones = np.concatenate([[-np.inf, -1e300, -40.0], np.linspace(-38.5, -9.0, 301)])
        zeros = np.concatenate([np.linspace(38.5, 60.0, 301), [1e300, np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(gaussian_q(ones) == 1.0)
            assert np.all(gaussian_q(zeros) == 0.0)
            assert gaussian_q(-np.inf) == 1.0 and gaussian_q(np.inf) == 0.0
            assert 0.0 < gaussian_q(38.45) < np.finfo(float).tiny   # subnormal
            assert np.isnan(gaussian_q(np.nan))
            out = gaussian_q(np.array([2.0, np.nan, -np.inf, 0.0]))
        assert np.isnan(out[1]) and out[2] == 1.0 and out[3] == 0.5

    def test_order_and_output_buffer(self):
        # unsorted input is sorted and put back; out may be the input itself
        xs = np.random.default_rng(3).uniform(-12.0, 40.0, 10_000)
        ascending = np.sort(xs)
        want = gaussian_q(ascending)
        perm = np.argsort(np.argsort(xs))
        assert np.array_equal(gaussian_q(xs), want[perm])
        assert np.array_equal(gaussian_q(xs.reshape(100, 100)), want[perm].reshape(100, 100))
        buf = ascending.copy()
        assert gaussian_q(buf, out=buf) is buf
        assert np.array_equal(buf, want)
        buf = xs.copy()
        assert gaussian_q(buf, out=buf) is buf
        assert np.array_equal(buf, want[perm])

    def test_memory_bounded_by_block(self):
        # unsorted input is sorted one block at a time, so in place on
        # 2**17 elements only block-sized temporaries are allocated
        xs = np.random.default_rng(4).uniform(-12.0, 40.0, 1 << 17)
        # ascending runs back to back, as the kernel packs short windows
        runs = np.concatenate([np.sort(part) for part in np.split(xs, 64)])
        for x in (xs, runs):
            want = gaussian_q(np.sort(x))[np.argsort(np.argsort(x))]
            tracemalloc.start()
            try:
                gaussian_q(x, out=x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 8 * _Q_BLOCK
            assert np.array_equal(x, want)


class TestGaussianQInv:
    def test_frozen_oracle_value(self):
        # 50-digit bisection on the quadrature tail: Qinv(1e-5)
        assert_allclose(gaussian_q_inv(1e-5), 4.2648907939228246285, rtol=1e-13)

    def test_against_mpmath_root(self):
        # the exact root of erfc(x / sqrt 2) / 2 = p, solved on log Q at 40
        # digits; the standard library's AS241 alone measured at most 5.4e-16
        # relative over this range, so 1e-14 leaves a margin of 18. The grid
        # skips p = 0.5, whose root 0 test_median_is_zero checks
        ps = np.concatenate([np.logspace(-300, -1, 150), np.linspace(0.1, 0.9, 32),
                             1.0 - np.logspace(-1, -6, 30)])
        for p, x in zip(ps.tolist(), gaussian_q_inv(ps).tolist()):
            log_p = mp.log(p)
            root = mp.findroot(lambda t: mp.log(mp.erfc(t / mp.sqrt(2)) / 2) - log_p,
                               mp.mpf(x))
            assert abs(x - root) <= 1e-14 * abs(root), p

    def test_median_is_zero(self):
        assert abs(gaussian_q_inv(0.5)) < 1e-12

    def test_round_trip_deep_tail(self):
        for p in (1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.05, 0.3, 0.5, 0.9, 0.999):
            assert_allclose(gaussian_q(gaussian_q_inv(p)), p, rtol=1e-11)

    def test_vector_round_trip(self):
        p = np.logspace(-10, -0.05, 40)
        assert_allclose(gaussian_q(gaussian_q_inv(p)), p, rtol=1e-11)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            gaussian_q_inv(bad)

    @given(st.floats(min_value=-5.0, max_value=7.5))
    @settings(max_examples=60, derandomize=True)
    def test_inverse_identity(self, x):
        # below about -5 the round trip is limited by float64 resolution of
        # p near 1 (error ~ eps_mach / phi(x)), not by the solver
        assert gaussian_q_inv(gaussian_q(x)) == pytest.approx(x, abs=1e-9)


# ============================================================
# Bessel function
# ============================================================

class TestBessel:
    def test_frozen_oracle_values(self):
        assert_allclose(bessel_j1(1.0), 0.44005058574493351596, rtol=1e-14)

    def test_j1_against_series(self):
        for x in np.linspace(0.1, 50.0, 23):
            ref = float(mp.besselj(1, mp.mpf(float(x))))
            assert_allclose(bessel_j1(float(x)), ref, rtol=1e-9, atol=1e-13)

    def test_j1_first_root(self):
        root = 3.8317059702075123156
        assert abs(bessel_j1(root)) < 1e-14
        assert bessel_j1(root - 1e-3) * bessel_j1(root + 1e-3) < 0.0

    def test_j1_odd(self):
        assert bessel_j1(0.0) == 0.0
        assert_allclose(bessel_j1(-2.2), -bessel_j1(2.2), rtol=1e-15)

    def test_j1_against_mpmath(self):
        # the beam pattern's range, |x| <= 2 pi a with a = 10 wavelengths,
        # both sides of the series/integral switch at 2, and tiny arguments
        xs = np.concatenate([np.linspace(-2.0 * np.pi * 10.0, 2.0 * np.pi * 10.0, 1201),
                             [1e-300, 1e-9, 1e-3, np.nextafter(2.0, 0.0), 2.0]])
        got = bessel_j1(xs)
        assert np.array_equal(bessel_j1(-xs), -got)
        for x, value in zip(xs, got):
            ref = mp.besselj(1, mp.mpf(float(x)))
            assert abs(mp.mpf(float(value)) - ref) <= 2e-15, x
            if 0.0 < abs(x) < 2.0:
                assert abs(mp.mpf(float(value)) / ref - 1) <= 1e-15, x


# ============================================================
# Fading samplers
# ============================================================

class TestRicianPower:
    @pytest.mark.parametrize("k_db", [-10.0, 0.0, 5.0, 12.0, 15.0])
    def test_unit_mean(self, k_db):
        rng = RngStream(99, 7).generator()
        omega2 = sample_rician_power(k_db, rng, size=400_000)
        assert abs(float(omega2.mean()) - 1.0) < 0.01

    @pytest.mark.parametrize(
        "k_db,var",
        [(-10.0, 0.9917355372), (0.0, 0.75), (5.0, 0.4227846074),
         (12.0, 0.1151793518), (15.0, 0.06036722729)],
    )
    def test_variance_matches_closed_form(self, k_db, var):
        # var(omega^2) = (1 + 2K) / (1 + K)^2 with K linear
        rng = RngStream(123, 5).generator()
        omega2 = sample_rician_power(k_db, rng, size=400_000)
        assert float(omega2.var()) == pytest.approx(var, rel=0.03)

    def test_infinite_k_is_deterministic(self):
        rng = RngStream(1).generator()
        omega2 = sample_rician_power(np.inf, rng, size=100)
        assert_allclose(omega2, 1.0, rtol=0, atol=0)

    def test_huge_k_close_to_one(self):
        rng = RngStream(2).generator()
        omega2 = sample_rician_power(200.0, rng, size=1000)
        assert np.all(np.abs(omega2 - 1.0) < 1e-6)

    def test_rayleigh_limit_is_exponential(self):
        # K -> 0 collapses to an Exp(1) power distribution
        rng = RngStream(3).generator()
        omega2 = sample_rician_power(-np.inf, rng, size=400_000)
        assert float(omega2.mean()) == pytest.approx(1.0, abs=0.01)
        for q in (0.5, 1.0, 2.0):
            assert float((omega2 > q).mean()) == pytest.approx(np.exp(-q), abs=0.005)

    def test_scalar_mode(self):
        rng = RngStream(4).generator()
        assert isinstance(sample_rician_power(6.0, rng), float)

    def test_nonnegative(self):
        rng = RngStream(5).generator()
        assert np.all(sample_rician_power(-3.0, rng, size=10_000) >= 0.0)


class TestShadowFading:
    """Lognormal shadowing, drawn per sample from ChannelSpec.sf_sigma_db."""

    @staticmethod
    def _shadow_db(sigma_db, seed, n):
        spec = ChannelSpec(pl_db=0.0, tx_gain=1.0, rx_gain=1.0, k_db=np.inf,
                           sf_sigma_db=sigma_db)
        return -10.0 * np.log10(_channel_draw(spec, RngStream(seed).generator(), np.empty((2, n))))

    def test_moments(self):
        draws = self._shadow_db(4.0, 6, 200_000)
        assert float(draws.mean()) == pytest.approx(0.0, abs=0.05)
        assert float(draws.std()) == pytest.approx(4.0, rel=0.02)

    def test_zero_sigma(self):
        assert_allclose(self._shadow_db(0.0, 7, 50), 0.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(pl_db=0.0, tx_gain=1.0, rx_gain=1.0, k_db=0.0, sf_sigma_db=-1.0)


# ============================================================
# Random streams
# ============================================================

class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(42, 9).generator().random(8)
        b = RngStream(42, 9).generator().random(8)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_different_ids_differ(self):
        a = RngStream(42, 1).generator().random(8)
        b = RngStream(42, 2).generator().random(8)
        assert not np.allclose(a, b)

    def test_child_folding(self):
        s = RngStream(7)
        assert s.child(3, 4, 5) == s.child(3).child(4).child(5)

    def test_child_order_sensitive(self):
        s = RngStream(7)
        assert s.child(3, 4) != s.child(4, 3)

    def test_children_distinct(self):
        s = RngStream(11)
        ids = {s.child(i).stream_id for i in range(4096)}
        assert len(ids) == 4096

    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2 ** 64)
        with pytest.raises(ValueError):
            RngStream(0).child(-1)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7)])
    def test_numpy_seed_is_stored_as_an_int(self, seed):
        # a numpy seed used to construct, then overflow in generator()
        stream = RngStream(seed)
        assert stream.seed == 7 and type(stream.seed) is int
        for got, want in ((stream, RngStream(7)), (stream.child(3), RngStream(7).child(3))):
            assert_allclose(got.generator().random(4), want.generator().random(4),
                            rtol=0, atol=0)

    @pytest.mark.parametrize("field", ["seed", "stream_id"])
    @pytest.mark.parametrize("value", [-1, 2 ** 64, 5.0, True, None])
    def test_seed_and_stream_id_rule_is_named(self, field, value):
        # 5.0 used to construct and fail in generator(); True to stand for 1
        with pytest.raises(ValueError) as rejected:
            RngStream(**{"seed": 1, field: value})
        assert str(rejected.value) == \
            f"{field}: expected a seed in [0, 18446744073709551616), got {value!r}"

    @pytest.mark.parametrize("index", [1.5, True, -1])
    def test_child_index_must_be_a_non_negative_int(self, index):
        # 1.5 and True used to give child(1)'s stream
        with pytest.raises(ValueError, match="expected a stream index in "):
            RngStream(7).child(2, index)

    def test_numpy_child_index_is_its_int(self):
        s = RngStream(7)
        assert s.child(np.int64(3)) == s.child(3)
        assert s.child(np.uint64(2), np.int32(4)) == s.child(2, 4)

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=0, max_value=2 ** 32),
           st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=50, derandomize=True)
    def test_child_never_escapes_64_bits(self, seed, i, j):
        child = RngStream(seed).child(i, j)
        assert 0 <= child.stream_id < 2 ** 64
        assert child.seed == seed
