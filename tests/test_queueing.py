"""Tests for the effective-bandwidth queue admission rule.

The frozen constant was produced with a 50-digit mpmath evaluation of the
same expression; the runtime cross-check below recomputes it at 40 digits.
"""

import dataclasses

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from avlinksim.queueing import QueueSpec, effective_bandwidth


def _mp_effective_bandwidth(arrival_pps, delay_bound_s, violation_prob):
    mp.mp.dps = 40
    lam = mp.mpf(arrival_pps)
    d = mp.mpf(delay_bound_s)
    theta = mp.log(1 / mp.mpf(violation_prob))
    return theta / (d * mp.log(theta / (lam * d) + 1))


# ============================================================
# Effective bandwidth
# ============================================================

class TestEffectiveBandwidth:
    def test_frozen_value(self):
        # arrival 1000 pps, delay bound 0.3 ms, violation probability 1e-7
        ebw = effective_bandwidth(QueueSpec(1000.0, 0.3e-3, 1e-7))
        assert_allclose(ebw, 13423.836634389200146, rtol=1e-12)

    def test_matches_arbitrary_precision(self):
        cases = [
            (1000.0, 0.3e-3, 1e-7),
            (100.0, 0.3e-3, 1e-7),
            (10000.0, 0.3e-3, 1e-7),
            (250.0, 2e-3, 1e-9),
            (5.0, 1e-4, 1e-3),
        ]
        for lam, d, eps in cases:
            oracle = float(_mp_effective_bandwidth(lam, d, eps))
            got = effective_bandwidth(QueueSpec(lam, d, eps))
            assert_allclose(got, oracle, rtol=1e-12)

    def test_defaults_bit_for_bit(self):
        # the diagnostics of the default config, as log(x + 1.0) gave them
        for lam, ebw in ((1000.0, 13423.836634389203), (100.0, 8543.878737988704),
                         (10000.0, 29009.890855955713)):
            assert effective_bandwidth(QueueSpec(lam, 0.3e-3, 1e-7)) == ebw

    def test_heavy_load_tends_to_arrival_rate(self):
        # theta / (lambda D) below half an ULP of 1 made log(x + 1.0) = 0 and
        # the bandwidth a ZeroDivisionError; log1p keeps x
        got = effective_bandwidth(QueueSpec(1e21, 1.0, 1e-7))
        assert_allclose(got, float(_mp_effective_bandwidth(1e21, 1.0, 1e-7)), rtol=1e-12)
        # lambda D beyond the float range leaves x = 0: the limit, lambda
        assert effective_bandwidth(QueueSpec(1e21, 1e305, 1e-7)) == 1e21

    @pytest.mark.parametrize("lam, d, eps", [
        (5e-324, 0.3e-3, 1e-7),         # lambda D rounds to 0: about 71 pps
        (1e-300, 1e-300, 1e-7),         # theta / (lambda D) overflows: about 1.2e298 pps
        (1e-300, 1e-303, 1e-7),
        (1e-300, 1e-20, 1.0 - 2.0 ** -53),  # lambda D is subnormal, 11 bits of it exact
    ])
    def test_vanishing_load_in_log_space(self, lam, d, eps):
        # lambda D rounding to 0 divided theta by it (a ZeroDivisionError);
        # the log of theta / (lambda D) is finite where that ratio overflows
        got = effective_bandwidth(QueueSpec(lam, d, eps))
        assert_allclose(got, float(_mp_effective_bandwidth(lam, d, eps)), rtol=1e-12)

    def test_exceeds_arrival_rate(self):
        for lam in (1.0, 50.0, 1e3, 1e6):
            assert effective_bandwidth(QueueSpec(lam, 1e-3, 1e-6)) > lam

    def test_monotone_in_violation_prob(self):
        # tightening the violation target demands more service capacity
        e_loose = effective_bandwidth(QueueSpec(1000.0, 0.3e-3, 1e-4))
        e_tight = effective_bandwidth(QueueSpec(1000.0, 0.3e-3, 1e-9))
        assert e_tight > e_loose

    def test_monotone_in_delay_bound(self):
        e_slow = effective_bandwidth(QueueSpec(1000.0, 1e-2, 1e-7))
        e_fast = effective_bandwidth(QueueSpec(1000.0, 1e-4, 1e-7))
        assert e_fast > e_slow

    def test_monotone_in_arrival_rate(self):
        e_lo = effective_bandwidth(QueueSpec(100.0, 0.3e-3, 1e-7))
        e_hi = effective_bandwidth(QueueSpec(10_000.0, 0.3e-3, 1e-7))
        assert e_hi > e_lo

    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=1e-5, max_value=1.0),
        st.floats(min_value=1e-12, max_value=0.1),
    )
    @settings(max_examples=100, derandomize=True)
    def test_always_above_arrival(self, lam, d, eps):
        assert effective_bandwidth(QueueSpec(lam, d, eps)) > lam


# ============================================================
# Admission rule
# ============================================================

class TestAdmits:
    SPEC = QueueSpec(1000.0, 0.3e-3, 1e-7)

    def _served_at(self, rate):
        return dataclasses.replace(self.SPEC, service_rate_pps=rate)

    def test_boundary(self):
        ebw = effective_bandwidth(self.SPEC)
        assert self._served_at(ebw).admits is True
        assert self._served_at(ebw - 1.0).admits is False
        assert self._served_at(2.0 * ebw).admits is True

    def test_unprovisioned_queue_admits(self):
        assert self.SPEC.service_rate_pps is None
        assert self.SPEC.admits is True

    def test_service_rate_does_not_change_the_bandwidth(self):
        assert effective_bandwidth(self._served_at(1.0)) == effective_bandwidth(self.SPEC)

    @pytest.mark.parametrize("rate", [-1.0, float("nan")])
    def test_negative_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="service_rate_pps"):
            self._served_at(rate)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QueueSpec(-1.0, 0.3e-3, 1e-7)
        with pytest.raises(ValueError):
            QueueSpec(1000.0, -0.3e-3, 1e-7)
        with pytest.raises(ValueError):
            QueueSpec(1000.0, 0.3e-3, 2.0)
