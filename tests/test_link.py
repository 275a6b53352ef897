"""Link-layer tests: SINR sampling and finite-blocklength rate/error.

The rate example is frozen from a 50-digit evaluation; the mean-SINR check
uses an independently integrated expectation of the inverse fading power.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scipy.optimize import brentq

from avlinksim import link
from avlinksim.link import (
    ChannelSpec,
    LinkSetup,
    LinkStats,
    RadioParams,
    _Q_ONE,
    _TAIL_REL,
    _fbl_terms,
    arq_delay,
    decoding_error_stats,
    fbl_error,
    fbl_rate,
    sinr_sample,
)
from avlinksim.mathfun import _Q_BLOCK, _Q_FLUSH, RngStream, gaussian_q, gaussian_q_inv


def _radio(bandwidth_hz=0.4e6, tx_power_w=1.0, nf_db=0.0):
    return RadioParams(bandwidth_hz, tx_power_w, 10.0 ** ((-174.0 - 30.0) / 10.0), nf_db)


def _unit_gamma_setup():
    """Deterministic channel tuned so the SNR equals exactly 1."""
    radio = _radio()
    pl_db = 10.0 * math.log10(radio.tx_power_w / radio.noise_power_w)
    desired = ChannelSpec(pl_db=pl_db, tx_gain=1.0, rx_gain=1.0, k_db=np.inf)
    return desired, radio


# ============================================================
# Radio and channel containers
# ============================================================

class TestContainers:
    def test_noise_power(self):
        radio = RadioParams(0.4e6, 1.0, 10.0 ** (-20.4), 9.0)
        expected = 0.4e6 * 10.0 ** (-20.4) * 10.0 ** 0.9
        assert_allclose(radio.noise_power_w, expected, rtol=1e-13)

    def test_radio_validation(self):
        with pytest.raises(ValueError):
            RadioParams(0.0, 1.0, 1e-20)
        with pytest.raises(ValueError):
            RadioParams(1e6, -1.0, 1e-20)

    def test_mean_gain(self):
        spec = ChannelSpec(pl_db=100.0, tx_gain=2.0, rx_gain=3.0, k_db=10.0)
        assert_allclose(spec.mean_gain, 6e-10, rtol=1e-13)

    def test_levels_bounded(self):
        # 10^400 overflows a double: the model classes take the config's
        # [-300, 300] dB interval, and a Rice factor may also be infinite
        for db in (300.0, -300.0):
            RadioParams(1e6, 1.0, 1e-20, db)
            ChannelSpec(pl_db=0.0, tx_gain=1.0, rx_gain=1.0, k_db=db)
        for db in (math.inf, -math.inf):
            ChannelSpec(pl_db=0.0, tx_gain=1.0, rx_gain=1.0, k_db=db)
        for db in (4000.0, -4000.0, math.nan):
            with pytest.raises(ValueError, match="noise_figure_db"):
                RadioParams(1e6, 1.0, 1e-20, db)
            with pytest.raises(ValueError, match="k_db"):
                ChannelSpec(pl_db=0.0, tx_gain=1.0, rx_gain=1.0, k_db=db)

    def test_channel_must_be_drawable(self):
        # a NaN path loss, or one whose linear gain overflows, and a negative,
        # NaN or infinite antenna gain would draw NaN, negative or infinite
        # SINRs; each is rejected by its field's name
        for pl_db in (math.nan, -4000.0, np.float64(-4000.0), -math.inf):
            with pytest.raises(ValueError, match="pl_db"):
                ChannelSpec(pl_db=pl_db, tx_gain=1.0, rx_gain=1.0, k_db=10.0)
        for name in ("tx_gain", "rx_gain"):
            for gain in (-1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    ChannelSpec(**{"pl_db": 90.0, "tx_gain": 1.0, "rx_gain": 1.0,
                                   "k_db": 10.0, name: gain})

    def test_drawable_extremes_are_kept(self):
        # a zero gain (the array directly under a site), a loss far below
        # -300 dB whose gain is still finite, and an infinite loss
        radio = _radio()
        for spec in (ChannelSpec(pl_db=90.0, tx_gain=0.0, rx_gain=1.0, k_db=10.0),
                     ChannelSpec(pl_db=-1000.0, tx_gain=1.0, rx_gain=1.0, k_db=10.0),
                     ChannelSpec(pl_db=math.inf, tx_gain=1.0, rx_gain=1.0, k_db=10.0)):
            gamma = sinr_sample(LinkSetup(spec, radio), np.random.default_rng(1), 4)
            assert np.all(gamma >= 0.0) and not np.any(np.isnan(gamma))

    def test_link_setup_validation(self):
        desired, radio = _unit_gamma_setup()
        with pytest.raises(ValueError):
            LinkSetup(desired, radio, p_interf=1.5)
        with pytest.raises(ValueError):
            LinkSetup(desired, radio, p_interf=0.5, mode="sometimes")

    def test_interferers_are_a_tuple(self):
        # a list of interferers makes the same, hashable, setup
        desired, radio = _unit_gamma_setup()
        listed = LinkSetup(desired, radio, [desired, desired], 0.1)
        stated = LinkSetup(desired, radio, (desired, desired), 0.1)
        assert listed.interferers == (desired, desired)
        assert listed == stated
        assert hash(listed) == hash(stated)

    def test_no_interference_default(self):
        # the default setup is the interference-free link
        desired, radio = _unit_gamma_setup()
        assert LinkSetup(desired, radio).interferers == ()
        assert LinkSetup(desired, radio).p_interf == 0.0


# ============================================================
# SINR sampling
# ============================================================

def _stacked_sinr(setup, rng, n):
    """Expected-mode SINR by stacking every interferer's power, then summing:
    the formula sinr_sample evaluates as a running sum."""
    def draw(spec):
        k = 10.0 ** (spec.k_db / 10.0)
        if np.isinf(k):
            rho, sigma = 1.0, 0.0
        else:
            rho, sigma = np.sqrt(k / (k + 1.0)), np.sqrt(0.5 / (k + 1.0))
        z = rng.standard_normal(size=(2, n))
        power = (rho + sigma * z[0]) ** 2 + (sigma * z[1]) ** 2
        if spec.sf_sigma_db > 0.0:
            shadow_db = spec.sf_sigma_db * rng.standard_normal(size=n)
            return spec.mean_gain * power * 10.0 ** (-shadow_db / 10.0)
        return spec.mean_gain * power

    radio = setup.radio
    signal = radio.tx_power_w * draw(setup.desired)
    powers = np.empty((len(setup.interferers), n))
    for i, channel in enumerate(setup.interferers):
        powers[i] = radio.tx_power_w * draw(channel)
    interference = setup.p_interf * powers.sum(axis=0)
    return signal / (interference + radio.noise_power_w)


class TestSinrSample:
    def test_deterministic_unit_snr(self):
        desired, radio = _unit_gamma_setup()
        rng = RngStream(1).generator()
        gamma = sinr_sample(LinkSetup(desired, radio), rng, size=64)
        assert_allclose(gamma, 1.0, rtol=1e-12)

    def test_expected_mode_scales_interference(self):
        desired, radio = _unit_gamma_setup()
        # interference power = noise power, from a 1 W radio
        interferer = ChannelSpec(pl_db=0.0, tx_gain=radio.noise_power_w, rx_gain=1.0,
                                 k_db=np.inf)
        setup = LinkSetup(desired, radio, (interferer,), p_interf=0.5, mode="expected")
        rng = RngStream(2).generator()
        gamma = sinr_sample(setup, rng, size=16)
        # signal / (0.5 * noise + noise) = 2/3
        assert_allclose(gamma, 2.0 / 3.0, rtol=1e-12)

    def test_bernoulli_extremes(self):
        desired, radio = _unit_gamma_setup()
        interferer = ChannelSpec(pl_db=0.0, tx_gain=radio.noise_power_w, rx_gain=1.0,
                                 k_db=np.inf)
        always = LinkSetup(desired, radio, (interferer,), p_interf=1.0, mode="bernoulli")
        never = LinkSetup(desired, radio, (interferer,), p_interf=0.0, mode="bernoulli")
        rng = RngStream(3).generator()
        assert_allclose(sinr_sample(always, rng, size=8), 0.5, rtol=1e-12)
        assert_allclose(sinr_sample(never, rng, size=8), 1.0, rtol=1e-12)

    def test_bernoulli_activity_rate(self):
        desired, radio = _unit_gamma_setup()
        interferer = ChannelSpec(pl_db=0.0, tx_gain=radio.noise_power_w, rx_gain=1.0,
                                 k_db=np.inf)
        setup = LinkSetup(desired, radio, (interferer,), p_interf=0.3, mode="bernoulli")
        rng = RngStream(4).generator()
        gamma = sinr_sample(setup, rng, size=400_000)
        hit = float((gamma < 0.75).mean())  # interfered draws give 0.5
        assert hit == pytest.approx(0.3, abs=0.005)

    def test_mean_sinr_ratio_oracle(self):
        # gamma = S w_s / (I w_i) with unit-mean Rician fades at K = 12 dB;
        # E[gamma] = (S/I) * E[w_s] * E[1/w_i], and quadrature of the power
        # pdf gives E[1/w] = 1.14091621968
        radio = RadioParams(1.0, 1.0, 1e-40, 0.0)  # noise negligible
        desired = ChannelSpec(pl_db=0.0, tx_gain=1.0, rx_gain=1.0, k_db=12.0)
        interferer = ChannelSpec(pl_db=0.0, tx_gain=4.0, rx_gain=1.0, k_db=12.0)
        setup = LinkSetup(desired, radio, (interferer,), p_interf=1.0, mode="expected")
        rng = RngStream(5).generator()
        gamma = sinr_sample(setup, rng, size=600_000)
        assert float(gamma.mean()) == pytest.approx(1.14091621968 / 4.0, rel=0.02)

    def test_interference_only_reduces_sinr(self):
        desired = ChannelSpec(pl_db=90.0, tx_gain=1.0, rx_gain=1.0, k_db=8.0)
        radio = _radio()
        interferer = ChannelSpec(pl_db=95.0, tx_gain=1.0, rx_gain=1.0, k_db=8.0)
        setup = LinkSetup(desired, radio, (interferer,), p_interf=0.1, mode="expected")
        clean = sinr_sample(LinkSetup(desired, radio), RngStream(6).generator(), size=4096)
        dirty = sinr_sample(setup, RngStream(6).generator(), size=4096)
        assert np.all(dirty <= clean + 1e-18)

    def test_shadow_fading_widens_distribution(self):
        radio = _radio()
        plain = ChannelSpec(pl_db=90.0, tx_gain=1.0, rx_gain=1.0, k_db=np.inf)
        shadowed = ChannelSpec(
            pl_db=90.0, tx_gain=1.0, rx_gain=1.0, k_db=np.inf, sf_sigma_db=4.0
        )
        a = sinr_sample(LinkSetup(plain, radio), RngStream(7).generator(), size=20_000)
        b = sinr_sample(LinkSetup(shadowed, radio), RngStream(7).generator(), size=20_000)
        assert float(np.std(np.log10(a))) < 1e-12
        assert float(np.std(10.0 * np.log10(b))) == pytest.approx(4.0, rel=0.05)

    def test_matches_stack_and_sum_formula(self):
        # the running interferer sum must reproduce the stacked formula bit
        # for bit, so a sampler change cannot silently redraw
        # the desired 0.2 W and the interferers' 39.8 W are folded into
        # their channels' transmit gains, with the radio at 1 W
        radio = _radio(tx_power_w=1.0, nf_db=9.0)
        desired = ChannelSpec(pl_db=95.0, tx_gain=3.0 * 0.2, rx_gain=1.0, k_db=12.0,
                              sf_sigma_db=4.0)
        rs = np.random.default_rng(11)
        interferers = tuple(
            ChannelSpec(pl_db=float(rs.uniform(95.0, 115.0)),
                        tx_gain=float(rs.uniform(0.1, 2.0)) * 39.8, rx_gain=1.0,
                        k_db=k_db, sf_sigma_db=sf)
            for k_db, sf in [(5.0, 6.0), (12.0, 0.0), (np.inf, 4.0),
                             (-np.inf, 0.0), (15.0, 6.0)] * 8
        )
        setup = LinkSetup(desired, radio, interferers, p_interf=0.3, mode="expected")
        got = sinr_sample(setup, RngStream(5, 9).generator(), size=4099)
        want = _stacked_sinr(setup, RngStream(5, 9).generator(), 4099)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["expected", "bernoulli"])
    def test_traced_peak_bounded_by_batch(self, mode):
        n = 32768
        radio = _radio()
        spec = ChannelSpec(pl_db=100.0, tx_gain=1.0, rx_gain=1.0, k_db=12.0,
                           sf_sigma_db=4.0)
        peaks = []
        for count in (6, 90):
            setup = LinkSetup(spec, radio, (spec,) * count, p_interf=0.2, mode=mode)
            rng = RngStream(1).generator()
            tracemalloc.start()
            try:
                sinr_sample(setup, rng, size=n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8 * n * 8
        assert peaks[1] <= peaks[0]


# ============================================================
# Finite-blocklength rate and error
# ============================================================

class TestFblRate:
    def test_frozen_value(self):
        # gamma 10 (linear), B 0.4 MHz, d_t 1 ms, eps 1e-5
        assert_allclose(fbl_rate(10.0, 0.4e6, 1e-3, 1e-5),
                        1261223.4736605019697, rtol=1e-12)

    def test_penalty_below_capacity(self):
        capacity = 0.4e6 * math.log2(11.0)
        rate = fbl_rate(10.0, 0.4e6, 1e-3, 1e-5)
        assert_allclose(capacity - rate, 122549.17379441693278, rtol=1e-12)

    def test_median_eps_gives_capacity(self):
        rate = fbl_rate(10.0, 0.4e6, 1e-3, 0.5)
        assert_allclose(rate, 0.4e6 * math.log2(11.0), rtol=1e-12)

    def test_longer_blocklength_raises_rate(self):
        rates = [fbl_rate(10.0, 0.4e6, dt, 1e-5) for dt in (1e-4, 1e-3, 1e-2)]
        assert rates[0] < rates[1] < rates[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            fbl_rate(10.0, 0.0, 1e-3, 1e-5)
        with pytest.raises(ValueError):
            fbl_rate(-0.5, 0.4e6, 1e-3, 1e-5)

    def test_nan_sinr_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            fbl_rate(math.nan, 0.4e6, 1e-3, 1e-5)
        with pytest.raises(ValueError, match="NaN"):
            fbl_rate(np.array([10.0, math.nan]), 0.4e6, 1e-3, 1e-5)


class TestFblError:
    def test_round_trip_grid(self):
        for gamma_db in (0.0, 5.0, 10.0, 20.0, 30.0):
            for d_t in (0.32e-3, 1e-3, 3.2e-3):
                for eps in (1e-5, 1e-3, 0.5):
                    g = 10.0 ** (gamma_db / 10.0)
                    rate = fbl_rate(g, 0.4e6, d_t, eps)
                    back = fbl_error(g, 0.4e6, d_t, rate * d_t)
                    assert_allclose(back, eps, rtol=1e-9)

    def test_zero_snr_certain_failure(self):
        assert fbl_error(0.0, 0.4e6, 1e-3, 256.0) == 1.0

    def test_capacity_rate_is_half(self):
        g = 10.0
        bits = 0.4e6 * math.log2(1.0 + g) * 1e-3
        assert_allclose(fbl_error(g, 0.4e6, 1e-3, bits), 0.5, rtol=1e-12)

    def test_monotone_in_gamma_and_bits(self):
        # range chosen to keep the error inside float range (no underflow)
        gammas = np.linspace(0.5, 8.0, 40)
        errs = fbl_error(gammas, 0.4e6, 6.4e-4, 256.0)
        assert np.all(np.diff(errs) < 0.0)
        bits = np.linspace(700.0, 1050.0, 30)  # capacity sits near 886 bits
        errs_b = np.array([fbl_error(10.0, 0.4e6, 6.4e-4, b) for b in bits])
        assert np.all(np.diff(errs_b) > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fbl_error(1.0, 0.4e6, 1e-3, 0.0)
        with pytest.raises(ValueError):
            fbl_error(np.array([1.0, -2.0]), 0.4e6, 1e-3, 256.0)

    def test_nan_sinr_rejected(self):
        # NaN is no SINR: it must not pass as certain failure (Q = 1)
        with pytest.raises(ValueError, match="NaN"):
            fbl_error(math.nan, 0.4e6, 1e-3, 256.0)
        with pytest.raises(ValueError, match="NaN"):
            fbl_error(np.array([1.0, math.nan]), 0.4e6, 1e-3, 256.0)

    @given(
        st.floats(min_value=0.01, max_value=1e4),
        st.floats(min_value=1e-5, max_value=1e-2),
        st.floats(min_value=8.0, max_value=1e5),
    )
    @settings(max_examples=80, derandomize=True)
    def test_is_probability(self, gamma, d_t, bits):
        eps = fbl_error(gamma, 0.4e6, d_t, bits)
        assert 0.0 <= eps <= 1.0

    @given(st.floats(min_value=0.1, max_value=1e3),
           st.floats(min_value=1e-6, max_value=0.4))
    @settings(max_examples=60, derandomize=True)
    def test_rate_below_capacity(self, gamma, eps):
        rate = fbl_rate(gamma, 0.4e6, 1e-3, eps)
        assert rate <= 0.4e6 * math.log2(1.0 + gamma) + 1e-9


class TestArqDelay:
    def test_values(self):
        assert_allclose(arq_delay(1e-3, 0.0), 1e-3, rtol=1e-15)
        assert_allclose(arq_delay(1e-3, 0.5), 2e-3, rtol=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            arq_delay(1e-3, 1.0)
        with pytest.raises(ValueError):
            arq_delay(1e-3, -0.1)


# ============================================================
# Monte Carlo link statistic
# ============================================================

def _batches(desired, radio, n_samples, stream, batch_size=1 << 15):
    """SINR draws in fixed batches, one child stream per batch index."""
    for ix, done in enumerate(range(0, n_samples, batch_size)):
        m = min(batch_size, n_samples - done)
        yield sinr_sample(LinkSetup(desired, radio), stream.child(ix).generator(), size=m)


def _reference(gamma, bandwidth_hz, packet_bits, rate_bps):
    """Mean error and SE over the whole draw array, evaluated directly."""
    d_t = packet_bits / rate_bps
    capacity = bandwidth_hz * np.log1p(gamma) / math.log(2.0)
    v = -np.expm1(-2.0 * np.log1p(gamma))
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (capacity - rate_bps) * math.log(2.0) / np.sqrt(bandwidth_hz * v / d_t)
    errs = gaussian_q(np.where(v > 0.0, arg, -np.inf))
    return float(errs.mean()), math.sqrt(float(errs.var()) / errs.size)


def _assert_matches_reference(stats, gamma, bandwidth_hz, packet_bits, rates):
    for got, rate in zip(stats, rates):
        mean, stderr = _reference(gamma, bandwidth_hz, packet_bits, rate)
        assert_allclose(got.eps_t_bar, mean, rtol=1e-12, atol=0.0)
        assert_allclose(got.std_error, stderr, rtol=1e-12, atol=0.0)
        assert got.n_samples == gamma.size


def _rician_draws(n, seed=12):
    desired = ChannelSpec(pl_db=135.0, tx_gain=1.0, rx_gain=1.0, k_db=6.0)
    return sinr_sample(LinkSetup(desired, _radio()), RngStream(seed).generator(), size=n)


class TestAvgDecodingError:
    """The streaming estimator, fed one batch per child stream as in scenario runs."""

    def test_deterministic_channel_matches_closed_form(self):
        desired, radio = _unit_gamma_setup()
        rate = 256.0 / 6.4e-4
        (stats,) = decoding_error_stats(
            _batches(desired, radio, 5000, RngStream(8)), radio.bandwidth_hz, 256.0, [rate]
        )
        expected = fbl_error(1.0, radio.bandwidth_hz, 6.4e-4, 256.0)
        assert_allclose(stats.eps_t_bar, expected, rtol=1e-12)
        assert stats.std_error == pytest.approx(0.0, abs=1e-15)
        assert_allclose(stats.d_t_bar, 6.4e-4 / (1.0 - expected), rtol=1e-12)

    def test_repeatable_and_batch_structured(self):
        desired = ChannelSpec(pl_db=135.0, tx_gain=1.0, rx_gain=1.0, k_db=9.0)
        radio = _radio()
        a = decoding_error_stats(_batches(desired, radio, 70_000, RngStream(9, 4)),
                                 radio.bandwidth_hz, 256.0, [256e3])
        b = decoding_error_stats(_batches(desired, radio, 70_000, RngStream(9, 4)),
                                 radio.bandwidth_hz, 256.0, [256e3])
        assert a == b

    def test_matches_manual_batch_loop(self):
        desired = ChannelSpec(pl_db=135.0, tx_gain=1.0, rx_gain=1.0, k_db=9.0)
        radio = _radio()
        stream = RngStream(10, 2)
        n, batch = 50_000, 1 << 15
        rates = [256e3, 1e6]
        stats = decoding_error_stats(_batches(desired, radio, n, stream, batch),
                                     radio.bandwidth_hz, 256.0, rates)
        gamma = np.concatenate(list(_batches(desired, radio, n, stream, batch)))
        _assert_matches_reference(stats, gamma, radio.bandwidth_hz, 256.0, rates)

    def test_error_grows_with_rate(self):
        # 135 dB loss puts the mean SNR near 20, keeping every sampled
        # error away from the 0/1 saturation points
        desired = ChannelSpec(pl_db=135.0, tx_gain=1.0, rx_gain=1.0, k_db=9.0)
        radio = _radio()
        stats = decoding_error_stats(_batches(desired, radio, 20_000, RngStream(11)),
                                     radio.bandwidth_hz, 256.0, [1e5, 3e5, 6e5, 1e6])
        eps = [s.eps_t_bar for s in stats]
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_validation(self):
        desired, radio = _unit_gamma_setup()
        with pytest.raises(ValueError):
            decoding_error_stats(_batches(desired, radio, 0, RngStream(1)),
                                 radio.bandwidth_hz, 256.0, [256e3])
        with pytest.raises(ValueError):
            decoding_error_stats([np.ones(4)], radio.bandwidth_hz, 256.0, [])
        with pytest.raises(ValueError):
            decoding_error_stats([np.ones(4)], radio.bandwidth_hz, 256.0, [1e5, 0.0])
        with pytest.raises(ValueError):
            decoding_error_stats([np.array([1.0, -1.0])], radio.bandwidth_hz, 256.0, [1e5])

    def test_nan_sinr_rejected(self):
        # NaN would sort past every cut and count as zero error
        with pytest.raises(ValueError, match="NaN"):
            decoding_error_stats([[math.nan, math.nan, 1.0]], 4e5, 256.0, [1e5])
        with pytest.raises(ValueError, match="NaN"):
            decoding_error_stats([np.ones(4), np.array([2.0, math.nan])], 4e5, 256.0, [1e5])


class TestStreamingEstimator:
    """Against a direct evaluation over the whole draw array."""

    BW = 0.4e6

    def test_unsorted_and_duplicate_rates(self):
        gamma = _rician_draws(9000)
        rates = [800e3, 100e3, 800e3, 30e3, 2e6, 450e3, 100e3]
        stats = decoding_error_stats(np.split(gamma, 3), self.BW, 256.0, rates)
        _assert_matches_reference(stats, gamma, self.BW, 256.0, rates)
        assert stats[0] == stats[2] and stats[1] == stats[6]
        for got, rate in zip(stats, rates):
            assert_allclose(got.d_t_bar, arq_delay(256.0 / rate, got.eps_t_bar), rtol=1e-15)

    def test_zero_sinr_is_certain_failure(self):
        gamma = _rician_draws(4000)
        gamma[::7] = 0.0
        rates = [50e3, 400e3, 1.2e6]
        stats = decoding_error_stats([gamma[:1500], gamma[1500:]], self.BW, 256.0, rates)
        _assert_matches_reference(stats, gamma, self.BW, 256.0, rates)
        zeros = np.count_nonzero(gamma == 0.0) / gamma.size
        assert all(s.eps_t_bar >= zeros for s in stats)
        (all_zero,) = decoding_error_stats([np.zeros(10)], self.BW, 256.0, [1e5])
        assert all_zero.eps_t_bar == 1.0 and all_zero.d_t_bar == math.inf
        assert all_zero.std_error == 0.0

    def test_rates_where_every_error_underflows(self):
        # SNR 0-30 dB at 1-5 kbps puts Q's argument far past the cutoff;
        # 600 kbps exceeds the 0 dB capacity of 400 kbps
        gamma = 10.0 ** np.linspace(0.0, 3.0, 2000)
        rates = [5e3, 600e3, 1e3]
        stats = decoding_error_stats(np.split(gamma, 4), self.BW, 256.0, rates)
        assert stats[0].eps_t_bar == 0.0 and stats[0].std_error == 0.0
        assert stats[2].eps_t_bar == 0.0 and stats[2].std_error == 0.0
        assert stats[0].d_t_bar == 256.0 / 5e3
        assert stats[1].eps_t_bar > 0.0
        _assert_matches_reference(stats, gamma, self.BW, 256.0, rates)

    def test_empty_batches_are_skipped(self):
        rates = [100e3, 700e3]
        ones = decoding_error_stats([np.ones(3)], self.BW, 256.0, rates)
        assert decoding_error_stats([np.ones(3), np.array([])], self.BW, 256.0, rates) == ones
        gamma = _rician_draws(3000, seed=15)
        want = decoding_error_stats([gamma], self.BW, 256.0, rates)
        assert decoding_error_stats([np.array([]), gamma, np.array([])],
                                    self.BW, 256.0, rates) == want
        with pytest.raises(ValueError, match="at least one SINR draw"):
            decoding_error_stats([np.array([]), np.array([])], self.BW, 256.0, rates)

    def test_no_q_call_on_an_empty_window(self, monkeypatch):
        # at 5 and 1 kbps every argument lies past the cutoff: those rates
        # have empty windows, and only their first elements reach gaussian_q,
        # in the one call that bounds each batch sum from below
        sizes = []

        def counting_q(x, out=None):
            sizes.append(np.size(x))
            return gaussian_q(x, out=out)

        monkeypatch.setattr(link, "gaussian_q", counting_q)
        gamma = 10.0 ** np.linspace(0.0, 3.0, 2000)
        decoding_error_stats(np.split(gamma, 4), self.BW, 256.0, [5e3, 600e3, 1e3])
        assert sizes and min(sizes) > 0
        sizes.clear()
        decoding_error_stats([gamma], self.BW, 256.0, [5e3, 1e3])
        assert sizes == [2]

    def test_sample_count_not_a_multiple_of_the_batch(self):
        desired = ChannelSpec(pl_db=135.0, tx_gain=1.0, rx_gain=1.0, k_db=6.0)
        radio = _radio()
        stream = RngStream(13, 1)
        rates = [200e3, 700e3]
        stats = decoding_error_stats(_batches(desired, radio, 10_007, stream, 1000),
                                     radio.bandwidth_hz, 256.0, rates)
        gamma = np.concatenate(list(_batches(desired, radio, 10_007, stream, 1000)))
        assert gamma.size == 10_007
        _assert_matches_reference(stats, gamma, radio.bandwidth_hz, 256.0, rates)

    def test_batch_boundaries_only_regroup_the_sums(self):
        gamma = _rician_draws(6000, seed=14)
        rates = [300e3, 900e3]
        one = decoding_error_stats([gamma], self.BW, 256.0, rates)
        many = decoding_error_stats(np.split(gamma, [1, 5, 2500, 2501]), self.BW, 256.0, rates)
        for a, b in zip(one, many):
            assert_allclose(b.eps_t_bar, a.eps_t_bar, rtol=1e-12)
            assert_allclose(b.std_error, a.std_error, rtol=1e-12)

    def test_q_is_exactly_one_below_the_one_cut(self):
        # the estimator counts elements below _Q_ONE as exact ones
        xs = np.concatenate([np.linspace(-60.0, _Q_ONE, 2001), [-1e3, -np.inf]])
        assert np.all(gaussian_q(xs) == 1.0)
        assert gaussian_q(_Q_ONE) == 1.0
        assert gaussian_q(-8.0) < 1.0

    def test_q_is_exactly_zero_past_the_cutoff(self):
        # the estimator drops elements past the cutoff as exact zeros
        xs = np.concatenate([np.linspace(_Q_FLUSH, 60.0, 2001), [1e3, np.inf]])
        assert np.all(gaussian_q(xs) == 0.0)
        assert gaussian_q(_Q_FLUSH) == 0.0
        assert gaussian_q(37.5) > 0.0


# ============================================================
# Sorted-batch kernel against the full-array formula
# ============================================================

_BW, _BITS = 0.4e6, 256.0
_RATES = (30e3, 100e3, 450e3, 800e3, 2e6)


def _fbl_arg(gamma, rate):
    """Q's argument at one rate, written as the estimator evaluates it."""
    a, b = _fbl_terms(np.asarray(gamma, dtype=float), _BW)
    return math.sqrt(_BITS / rate) * (a - rate * b)


def _gamma_at(x, rate):
    """SINR whose FBL argument at rate is x (root in ln gamma)."""
    return math.exp(brentq(lambda t: float(_fbl_arg(math.exp(t), rate)) - x,
                           -60.0, 60.0, xtol=1e-14))


def _full_array_stats(gamma, rates):
    """Mean error and SE per rate: Q on every element of the whole array."""
    out = []
    for rate in rates:
        q = gaussian_q(_fbl_arg(gamma, rate))
        out.append((float(q.mean()), math.sqrt(float(q.var()) / q.size)))
    return out


def _tail_cut(args, n):
    """The x past which the estimator may drop elements of a batch whose
    arguments (at one rate) include args and which has n elements."""
    args = np.asarray(args)
    ones = int(np.count_nonzero(args < _Q_ONE))
    first = float(args[args >= _Q_ONE].min())
    return math.sqrt(-2.0 * math.log((ones + gaussian_q(first)) * _TAIL_REL / n))


@st.composite
def _cut_batches(draw):
    """Rates (unsorted, with repeats) and SINR batches whose values sit on
    either side of the one-cut, the zero cutoff and the tail cut, with
    ties, gamma = 0, very large gamma and single-element batches."""
    rates = draw(st.lists(st.sampled_from(_RATES), min_size=1, max_size=5))
    rate = draw(st.sampled_from(rates))
    side = st.sampled_from((-1e-9, 1e-9))
    placed = st.builds(lambda x, d: x + d * abs(x),
                       st.sampled_from((_Q_ONE, 37.5, _Q_FLUSH)), side)
    xs = draw(st.lists(st.one_of(st.floats(-30.0, 45.0), placed), max_size=24))
    xs.append(draw(st.floats(-8.0, 8.0)))     # a window element below any tail cut
    base = [_gamma_at(x, rate) for x in xs]
    base += draw(st.lists(st.sampled_from((0.0, 1e300)), max_size=3))
    base += base[:draw(st.integers(0, 3))]     # ties
    n_tail = draw(st.integers(0, 6))
    x_cut = _tail_cut(_fbl_arg(base, rate), len(base) + n_tail)
    base += [_gamma_at(x_cut + draw(side) * x_cut, rate) for _ in range(n_tail)]
    cut_batch = np.array(draw(st.permutations(base)))
    extra = draw(st.lists(
        st.lists(st.one_of(st.floats(0.0, 1e4), st.just(0.0), st.just(1e300)),
                 min_size=1, max_size=5),
        max_size=3))
    batches = [cut_batch] + [np.array(e) for e in extra]
    return rates, draw(st.permutations(batches))


class TestSortedKernel:
    """The sorted-batch kernel evaluates Q only where it can change a batch
    sum; every statistic must match Q on every element of the whole array."""

    @given(_cut_batches())
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_matches_full_array_evaluation(self, case):
        rates, batches = case
        stats = decoding_error_stats(batches, _BW, _BITS, rates)
        gamma = np.concatenate(batches)
        for got, (mean, stderr) in zip(stats, _full_array_stats(gamma, rates)):
            assert got.n_samples == gamma.size
            assert_allclose(got.eps_t_bar, mean, rtol=1e-12, atol=0.0)
            # equal errors leave only the mean's rounding in the variance,
            # a floor of about 1e-16 of the mean in the SE
            assert_allclose(got.std_error, stderr, rtol=1e-12, atol=1e-14 * mean)

    def test_two_searches_per_batch(self, monkeypatch):
        # the ones and the tail cut; the zero cutoff caps the tail cut's
        # argument rather than taking a search of its own
        count_below, calls = link._count_below, []

        def counting(*args):
            calls.append(args)
            return count_below(*args)

        monkeypatch.setattr(link, "_count_below", counting)
        gamma = _rician_draws(6000, seed=14)
        stats = decoding_error_stats(np.split(gamma, [2500]), _BW, _BITS, _RATES)
        assert len(calls) == 4
        for got, (mean, _) in zip(stats, _full_array_stats(gamma, _RATES)):
            assert_allclose(got.eps_t_bar, mean, rtol=1e-12, atol=0.0)

    def test_a_rate_sharing_its_batches_changes_no_value(self, monkeypatch):
        # the windows of every rate are packed into rows, one gaussian_q call
        # each; Q is elementwise, so each rate's statistics are those it gets
        # evaluated alone, field for field
        batches = np.split(_rician_draws(40_000, seed=16), 2)
        rates = list(np.geomspace(20e3, 2e6, 30))
        moments, windows, calls = link._moments, [], []

        def recording_moments(q, lo, hi, n):
            windows.append(q.size)
            return moments(q, lo, hi, n)

        def counting_q(x, out=None):
            calls.append(np.size(x))
            return gaussian_q(x, out=out)

        monkeypatch.setattr(link, "_moments", recording_moments)
        monkeypatch.setattr(link, "gaussian_q", counting_q)
        shared = decoding_error_stats(batches, _BW, _BITS, rates)
        # windows longer and shorter than a Q block occur, and they share calls
        assert min(windows) < _Q_BLOCK < max(windows)
        assert len(calls) < len(windows) == 2 * len(rates)
        for rate, stats in zip(rates, shared):
            assert decoding_error_stats(batches, _BW, _BITS, [rate]) == [stats]

    def test_sampler_scratch_rows_change_no_value(self):
        # the kernel run in rows 1-3 of the buffer each batch is drawn into
        # (the batch is row 0) gives the statistics of its own rows, field
        # for field; 40 rates fill more than one row of windows
        desired = ChannelSpec(pl_db=135.0, tx_gain=1.0, rx_gain=1.0, k_db=6.0)
        setup = LinkSetup(desired, _radio(),
                          (ChannelSpec(pl_db=150.0, tx_gain=1.0, rx_gain=1.0, k_db=3.0),),
                          p_interf=0.3)
        rates = list(np.geomspace(10e3, 1e6, 40))

        def draws(work):
            for ix, m in enumerate((5000, 5000, 1234)):
                yield sinr_sample(setup, RngStream(7).child(ix).generator(), size=m, work=work)

        work = np.empty((link.SINR_WORK_ROWS, 5000))
        shared = decoding_error_stats(draws(work), _BW, _BITS, rates, work=work[1:])
        assert shared == decoding_error_stats(list(draws(None)), _BW, _BITS, rates)

    def test_tail_past_the_cut_is_below_one_ulp(self, monkeypatch):
        # one error near 1e-3 and 32767 errors just past the tail cut: the
        # dropped tail sums to about 2e-24, far below the ULP of the mean
        rate, n = 450e3, 1 << 15
        x0 = float(gaussian_q_inv(1e-3))
        x_cut = _tail_cut([x0], n)
        gamma = np.array([_gamma_at(x0, rate)] + [_gamma_at(x_cut * (1.0 + 1e-9), rate)] * (n - 1))
        (mean, _), = _full_array_stats(gamma, [rate])
        evaluated = []

        def counting_q(x, out=None):
            evaluated.append(np.size(x))
            return gaussian_q(x, out=out)

        monkeypatch.setattr(link, "gaussian_q", counting_q)
        (stats,) = decoding_error_stats([gamma], _BW, _BITS, [rate])
        assert sum(evaluated) <= 2     # the window's first element, in the bound and the sum
        assert abs(stats.eps_t_bar - mean) <= 2.0 ** -60 * mean

