"""Channel model tests: LoS probability, path loss, antennas, Rice factors.

Frozen expected values come from a 50-digit arbitrary-precision run of the
same closed-form expressions.
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from avlinksim.channel import (
    MAX_APERTURE_WAVELENGTHS,
    MAX_DISTANCE_M,
    MIN_LENGTH_M,
    Q2_MAX_PER_KM2,
    Environment,
    ReflectorSpec,
    UlaSpec,
    clutter_loss_db,
    fspl_db,
    hap_gain,
    p_los,
    pl_avg_g2a_db,
    pl_g2a_los_db,
    pl_g2a_nlos_db,
    pl_g2h_db,
    rice_k_db,
    ula_array_factor,
    ula_element_gain,
    ula_gain,
)
from avlinksim.link import SF_SIGMA_MAX_DB, ChannelSpec, _channel_draw
from avlinksim.mathfun import RngStream, bessel_j1

ENV = Environment()


# ============================================================
# Line-of-sight probability
# ============================================================

class TestLosProbability:
    def test_frozen_value_at_150m(self):
        # single building term: 1 - exp(-162.5^2 / (2 * 20^2)); the product
        # rounds to the double nearest 1 - 4.6226304054837065e-15
        p = p_los(150.0, 25.0, 300.0, ENV)
        assert p == 1.0 - 4.6226304054837065e-15
        assert 0.0 < 1.0 - p < 1e-14

    def test_empty_product_is_exactly_one(self):
        # below ~81.65 m no building enters the product
        assert p_los(0.0, 25.0, 300.0, ENV) == 1.0
        assert p_los(81.0, 25.0, 300.0, ENV) == 1.0

    def test_first_building_enters_at_threshold(self):
        r_star = 1000.0 / math.sqrt(ENV.q1 * ENV.q2)  # ~81.65 m
        assert p_los(r_star - 0.5, 25.0, 300.0, ENV) == 1.0
        assert p_los(r_star + 0.5, 25.0, 300.0, ENV) < 1.0

    def test_monotone_in_range(self):
        values = [p_los(r, 25.0, 300.0, ENV) for r in np.linspace(10, 3000, 60)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_higher_altitude_more_los(self):
        low = p_los(800.0, 25.0, 100.0, ENV)
        high = p_los(800.0, 25.0, 300.0, ENV)
        assert high > low

    def test_long_ray_stops_at_zero(self):
        # 1.2e10 buildings; every factor is above 1/2, so without the flush
        # the product would sit at 5e-324 through all of them
        started = time.monotonic()
        assert p_los(1e12, 25.0, 300.0, ENV) == 0.0
        assert time.monotonic() - started < 1.0

    def test_subnormal_product_is_zero(self):
        # the full product here is the subnormal 1e-323, which reads 0; a
        # normal product is returned as it is
        assert p_los(1e6, 25.0, 100.0, ENV) == 0.0
        assert 0.0 < p_los(1e6, 25.0, 300.0, ENV) < 1e-100

    def test_validation(self):
        with pytest.raises(ValueError):
            p_los(-1.0, 25.0, 300.0, ENV)
        with pytest.raises(ValueError):
            p_los(100.0, 25.0, 25.0, ENV)


# ============================================================
# Path loss
# ============================================================

class TestPathLoss:
    def test_frozen_los(self):
        assert_allclose(pl_g2a_los_db(300.0, 2.0), 88.517267517112197525, rtol=1e-13)

    def test_frozen_nlos(self):
        assert_allclose(
            pl_g2a_nlos_db(300.0, 300.0, 2.0), 91.957041842345368886, rtol=1e-13
        )

    def test_frozen_fspl(self):
        assert_allclose(fspl_db(1000.0, 2.0), 98.470599913279623904, rtol=1e-13)
        assert_allclose(
            fspl_db(20615.528128088302749, 2.0), 124.75448921378273929, rtol=1e-13
        )

    def test_fspl_slope(self):
        # free space: +6.02 dB per doubling of distance or frequency
        assert_allclose(fspl_db(2000.0, 2.0) - fspl_db(1000.0, 2.0),
                        20.0 * math.log10(2.0), rtol=1e-12)
        assert_allclose(fspl_db(1000.0, 4.0) - fspl_db(1000.0, 2.0),
                        20.0 * math.log10(2.0), rtol=1e-12)

    def test_db_mixture_matches_manual_blend(self):
        r, h_g, h_a, fc = 700.0, 25.0, 300.0, 2.0
        d3 = math.hypot(r, h_a - h_g)
        p = p_los(r, h_g, h_a, ENV)
        expected = p * pl_g2a_los_db(d3, fc) + (1.0 - p) * pl_g2a_nlos_db(d3, h_a, fc)
        assert_allclose(pl_avg_g2a_db(r, h_g, h_a, fc, ENV), expected, rtol=1e-13)

    def test_linear_mixture_matches_manual_blend(self):
        r, h_g, h_a, fc = 700.0, 25.0, 300.0, 2.0
        d3 = math.hypot(r, h_a - h_g)
        p = p_los(r, h_g, h_a, ENV)
        g = p * 10.0 ** (-pl_g2a_los_db(d3, fc) / 10.0) \
            + (1.0 - p) * 10.0 ** (-pl_g2a_nlos_db(d3, h_a, fc) / 10.0)
        expected = -10.0 * math.log10(g)
        got = pl_avg_g2a_db(r, h_g, h_a, fc, ENV, mixture="linear")
        assert_allclose(got, expected, rtol=1e-13)

    def test_linear_mixture_never_exceeds_db_mixture(self):
        # averaging gains favors the stronger branch, so the equivalent loss
        # in dB is at most the dB-domain average
        for r in (200.0, 700.0, 1500.0, 3000.0):
            db_mix = pl_avg_g2a_db(r, 25.0, 300.0, 2.0, ENV)
            lin_mix = pl_avg_g2a_db(r, 25.0, 300.0, 2.0, ENV, mixture="linear")
            assert lin_mix <= db_mix + 1e-12

    def test_mixture_collapses_when_los_certain(self):
        r = 50.0  # p_los == 1 exactly
        d3 = math.hypot(r, 275.0)
        assert_allclose(
            pl_avg_g2a_db(r, 25.0, 300.0, 2.0, ENV),
            pl_g2a_los_db(d3, 2.0),
            rtol=1e-13,
        )

    def test_unknown_mixture_rejected(self):
        with pytest.raises(ValueError):
            pl_avg_g2a_db(100.0, 25.0, 300.0, 2.0, ENV, mixture="geometric")


class TestClutterAndG2h:
    def test_bin_lookup(self):
        env = Environment(clutter_loss_table_db=tuple(float(i) for i in range(1, 10)))
        assert clutter_loss_db(0.0, env) == 1.0
        assert clutter_loss_db(9.99, env) == 1.0
        assert clutter_loss_db(10.0, env) == 2.0
        assert clutter_loss_db(89.0, env) == 9.0
        assert clutter_loss_db(90.0, env) == 9.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            clutter_loss_db(-0.1, ENV)
        with pytest.raises(ValueError):
            clutter_loss_db(90.1, ENV)

    def test_deterministic_part_is_fspl_plus_clutter(self):
        env = Environment(clutter_loss_table_db=(3.0,) * 9)
        d, fc, elev = 20615.528128088302749, 2.0, 75.963756532073521417
        got = pl_g2h_db(d, fc, elev, env)
        assert_allclose(got, 124.75448921378273929 + 3.0, rtol=1e-13)

    def test_shadowed_draws_scatter_around_mean(self):
        # a g2h link draws lognormal shadowing with the LoS sigma per sample
        # around the deterministic loss, as scenario builds its ChannelSpec
        d, fc, elev = 20615.5, 2.0, 76.0
        det = pl_g2h_db(d, fc, elev, ENV)
        spec = ChannelSpec(pl_db=det, tx_gain=1.0, rx_gain=1.0, k_db=np.inf,
                           sf_sigma_db=ENV.sf_sigma_los_db)
        power = _channel_draw(spec, RngStream(21).generator(), np.empty((2, 200_000)))
        draws = -10.0 * np.log10(power)
        assert draws.shape == (200_000,)
        assert float(draws.mean()) == pytest.approx(det, abs=0.05)
        assert float(draws.std()) == pytest.approx(ENV.sf_sigma_los_db, rel=0.02)

    def test_environment_validation(self):
        with pytest.raises(ValueError):
            Environment(q1=0.0)
        with pytest.raises(ValueError, match="q1"):
            Environment(q1=5.0)
        Environment(q1=1.0)
        with pytest.raises(ValueError):
            Environment(clutter_loss_table_db=(0.0,) * 8)
        # p_los loops once per building the ray crosses
        Environment(q1=1.0, q2=Q2_MAX_PER_KM2)
        for q2 in (0.0, 1e7, math.nan):
            with pytest.raises(ValueError, match="q2"):
                Environment(q2=q2)
        with pytest.raises(ValueError):
            Environment(clutter_loss_table_db=(0.0,) * 8 + (-1.0,))

    def test_height_scale_is_a_length(self):
        # q3_m = 1e-300 divided by zero in p_los, and 1e300 overflowed
        for q3_m in (MIN_LENGTH_M, MAX_DISTANCE_M):
            assert 0.0 <= p_los(150.0, 25.0, 300.0, Environment(q3_m=q3_m)) <= 1.0
        for q3_m in (1e-300, math.nextafter(MIN_LENGTH_M, 0.0),
                     math.nextafter(MAX_DISTANCE_M, math.inf), 1e300, math.nan):
            with pytest.raises(ValueError, match=r"q3_m: expected a length in \[0.001, 1e\+06\] m"):
                Environment(q3_m=q3_m)

    @pytest.mark.parametrize("field", ["sf_sigma_los_db", "sf_sigma_nlos_db"])
    def test_shadow_sigma_bounded(self, field):
        # at 100 dB a shadow gain overflows only past |z| = 30.8
        Environment(**{field: SF_SIGMA_MAX_DB})
        for sigma in (-1.0, 100.5, 1e6, math.nan):
            with pytest.raises(ValueError, match=f"{field}: expected a shadow sigma in"):
                Environment(**{field: sigma})

    def test_channel_shadow_sigma_bounded(self):
        spec = dict(pl_db=90.0, tx_gain=1.0, rx_gain=1.0, k_db=10.0)
        ChannelSpec(**spec, sf_sigma_db=SF_SIGMA_MAX_DB)
        for sigma in (100.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="sf_sigma_db"):
                ChannelSpec(**spec, sf_sigma_db=sigma)


# ============================================================
# Antennas
# ============================================================

class TestUla:
    SPEC = UlaSpec()

    def test_frozen_boresight_gains(self):
        assert_allclose(
            ula_element_gain(102.0, self.SPEC), 6.0368278024815578676, rtol=1e-13
        )
        assert_allclose(ula_gain(102.0, self.SPEC), 48.294622419852462941, rtol=1e-13)

    def test_boresight_array_factor_is_n(self):
        assert_allclose(ula_array_factor(102.0, self.SPEC), 8.0, rtol=1e-12)

    def test_singular_branch_continuity(self):
        at = ula_array_factor(102.0, self.SPEC)
        near = ula_array_factor(102.0 + 1e-7, self.SPEC)
        assert_allclose(near, at, rtol=1e-6)

    def test_array_factor_null(self):
        # nulls where (cos phi - cos phi_t)/2 = k/N
        phi = math.degrees(math.acos(math.cos(math.radians(102.0)) + 2.0 / 8.0))
        assert ula_array_factor(phi, self.SPEC) < 1e-18

    def test_array_factor_bounds(self):
        for phi in np.linspace(0.0, 180.0, 361):
            af = ula_array_factor(float(phi), self.SPEC)
            assert -1e-12 <= af <= 8.0 + 1e-9

    def test_element_pattern_nulls_along_axis(self):
        assert ula_element_gain(0.0, self.SPEC) == pytest.approx(0.0, abs=1e-30)
        assert ula_element_gain(180.0, self.SPEC) == pytest.approx(0.0, abs=1e-25)

    def test_element_peak_at_horizontal(self):
        assert_allclose(ula_element_gain(90.0, self.SPEC), 10.0 ** 0.8, rtol=1e-13)

    def test_validation(self):
        # a NaN downtilt made ula_gain NaN at every angle, and a gain of
        # 4000 dBi overflows a double: gains take the config's [-300, 300] dB
        UlaSpec(8, 102.0, 300.0)
        for args in ((8, 102.0, math.nan), (8, 102.0, 4000.0), (8, 102.0, -4000.0)):
            with pytest.raises(ValueError, match=r"element_gain_max_dbi: expected a level in \[-300, 300\] dB"):
                UlaSpec(*args)

    def test_downtilt_is_a_zenith_angle(self):
        # the boresight's zenith angle, as the config's ula_downtilt_deg
        for downtilt in (0.0, 180.0):
            UlaSpec(8, downtilt)
        for downtilt in (math.nan, math.inf, -1e-9, 180.0 + 1e-9, 1e300):
            with pytest.raises(ValueError, match=r"downtilt_deg: expected a zenith angle in \[0, 180\]"):
                UlaSpec(8, downtilt)

    def test_total_is_product(self):
        for phi in (30.0, 75.0, 102.0, 140.0):
            assert_allclose(
                ula_gain(phi, self.SPEC),
                ula_element_gain(phi, self.SPEC) * ula_array_factor(phi, self.SPEC),
                rtol=1e-13,
            )


class TestHapBeam:
    SPEC = ReflectorSpec()

    def test_on_axis_peak(self):
        assert_allclose(hap_gain(0.0, self.SPEC), 10.0 ** 3.2, rtol=1e-13)

    def test_normalized_on_axis_is_one(self):
        assert_allclose(hap_gain(0.0, self.SPEC) / 10.0 ** 3.2, 1.0, rtol=1e-13)

    def test_first_null_position(self):
        # first zero of J1 mapped through sin(theta) = root / (2 pi a)
        theta = 3.4962662408636478558
        assert hap_gain(theta, self.SPEC) < 1e-15 * 10.0 ** 3.2
        from scipy.optimize import brentq
        found = brentq(
            lambda t: bessel_j1(2.0 * math.pi * 10.0 * math.sin(math.radians(t))),
            3.0, 4.0, xtol=1e-12,
        )
        assert_allclose(found, theta, atol=1e-9)

    def test_continuity_near_axis(self):
        assert_allclose(hap_gain(1e-9, self.SPEC), hap_gain(0.0, self.SPEC), rtol=1e-9)

    def test_sidelobe_below_peak(self):
        for theta in (1.0, 2.0, 5.0, 10.0, 45.0):
            assert hap_gain(theta, self.SPEC) < hap_gain(0.0, self.SPEC)

    def test_validation(self):
        # a zero aperture gave the full on-axis gain at every offset; the
        # Bessel quadrature takes one node per unit of 2 pi a sin(offset), so
        # a = 1e9 asked for ~4.8e8 nodes; and 4000 dBi overflows a double
        assert hap_gain(0.0, ReflectorSpec(300.0, MAX_APERTURE_WAVELENGTHS)) == 1e30
        for aperture in (0.0, -1.0, math.nan, math.inf, 1e9):
            with pytest.raises(ValueError, match="aperture_radius_wavelengths"):
                ReflectorSpec(32.0, aperture)
        for gain in (math.nan, math.inf, 4000.0, -4000.0):
            with pytest.raises(ValueError, match="max_gain_dbi"):
                ReflectorSpec(gain, 10.0)

    def test_main_lobe_monotone(self):
        thetas = np.linspace(0.0, 3.4, 35)
        gains = [hap_gain(float(t), self.SPEC) for t in thetas]
        assert all(a >= b for a, b in zip(gains, gains[1:]))


# ============================================================
# Rice factor table
# ============================================================

class TestRiceTable:
    # the default [k_min, k_max] range of each link kind
    RANGES = {"g2a": (5.0, 12.0), "a2a": (12.0, 12.0), "g2h": (5.0, 15.0), "h2a": (12.0, 15.0)}

    @pytest.mark.parametrize(
        "kind,elev,expected",
        [
            ("g2a", 0.0, 5.0),
            ("g2a", 9.99, 5.0),
            ("g2a", 45.0, 8.5),
            ("g2a", 61.389540334034783042, 10.25),
            ("g2a", 90.0, 12.0),
            ("a2a", 0.0, 12.0),
            ("a2a", 77.0, 12.0),
            ("g2h", 75.963756532073521417, 13.75),
            ("h2a", 89.5, 15.0),
            ("h2a", 5.0, 12.0),
        ],
    )
    def test_bin_interpolation(self, kind, elev, expected):
        assert_allclose(rice_k_db(self.RANGES[kind], elev), expected, rtol=1e-13)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rice_k_db(self.RANGES["g2a"], -0.1)
        with pytest.raises(ValueError):
            rice_k_db(self.RANGES["g2a"], 90.5)

    def test_monotone_for_increasing_ranges(self):
        ks = [rice_k_db(self.RANGES["g2h"], e) for e in range(0, 91, 10)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))


# ============================================================
# Faded channel sample
# ============================================================

class TestChannelPowerSample:
    """The faded channel power |h|^2 that every link draws."""

    def test_mean_matches_deterministic_gain(self):
        spec = ChannelSpec(pl_db=90.0, tx_gain=2.0, rx_gain=1.5, k_db=9.0)
        draws = _channel_draw(spec, RngStream(31).generator(), np.empty((2, 300_000)))
        expected = 2.0 * 1.5 * 10.0 ** (-9.0)
        assert float(draws.mean()) == pytest.approx(expected, rel=0.01)

    def test_infinite_k_deterministic(self):
        spec = ChannelSpec(pl_db=80.0, tx_gain=1.0, rx_gain=1.0, k_db=np.inf)
        draws = _channel_draw(spec, RngStream(32).generator(), np.empty((2, 100)))
        assert_allclose(draws, 1e-8, rtol=1e-12)
