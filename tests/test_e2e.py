"""Tests for end-to-end path composition and combination search.

Frozen constants come from 50-digit mpmath evaluations of the same chain
products; the Monte Carlo cross-check replays the chains as independent
Bernoulli failures.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from avlinksim.e2e import (
    CANONICAL_COMBINATIONS,
    SPEED_OF_LIGHT_M_S,
    BackhaulSpec,
    PathOutcome,
    QosTarget,
    a2a_path,
    chain_loss,
    combine_paths,
    da2g_path,
    enumerate_combinations,
    hap_path,
)
from avlinksim.link import LinkStats
from avlinksim.queueing import QueueSpec

QOS = QosTarget(eps_th=1e-5, d_max_s=10e-3)
BACKHAUL = BackhaulSpec(delay_s=1e-3, eps=1e-6)
QUEUE = QueueSpec(1000.0, 0.3e-3, 1e-7)


def _stats(eps, d_t=1e-3, se=0.0):
    return LinkStats(eps, d_t, 100_000, se)


class TestQosTarget:
    def test_admits_is_inclusive_on_both_thresholds(self):
        assert QOS.admits(1e-5, 10e-3)
        assert not QOS.admits(1.0000001e-5, 1e-3)
        assert not QOS.admits(1e-7, 10.000001e-3)
        assert not QOS.admits(math.nan, 1e-3)


# ============================================================
# Chain loss
# ============================================================

class TestChainLoss:
    def test_frozen_value(self):
        got = chain_loss([1e-6, 1e-7, 1e-6])
        assert_allclose(got, 2.0999988000001e-6, rtol=1e-9)

    def test_edge_cases(self):
        assert chain_loss([]) == 0.0
        assert chain_loss([1.0, 1e-9]) == 1.0
        assert chain_loss([0.0, 0.0]) == 0.0

    def test_tiny_terms_do_not_cancel(self):
        # naive 1 - prod(1 - eps) loses everything below 1e-16
        got = chain_loss([1e-18, 1e-18])
        assert_allclose(got, 2e-18, rtol=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chain_loss([0.5, -0.1])
        with pytest.raises(ValueError):
            chain_loss([1.5])

    @given(st.lists(st.floats(min_value=0.0, max_value=0.2), max_size=6))
    @settings(max_examples=100, derandomize=True)
    def test_bounds_and_monotonic(self, terms):
        loss = chain_loss(terms)
        assert 0.0 <= loss <= 1.0
        if terms:
            assert loss >= max(terms) - 1e-15
        assert chain_loss(terms + [0.01]) >= loss


# ============================================================
# Path constructions
# ============================================================

class TestDa2gPath:
    def test_two_branch_loss(self):
        branches = [_stats(3.2e-3, 1.2e-3), _stats(3.2e-3, 0.9e-3)]
        out = da2g_path(BACKHAUL, QUEUE, branches)
        assert_allclose(out.eps_e2e, 1.1339988636001024e-5, rtol=1e-9)
        assert out.label == "DA2G"

    def test_delay_uses_fastest_branch(self):
        branches = [_stats(3.2e-3, 1.2e-3), _stats(3.2e-3, 0.9e-3)]
        out = da2g_path(BACKHAUL, QUEUE, branches)
        assert out.delay_breakdown["radio_da2g"] == 0.9e-3
        assert set(out.delay_breakdown) == {"backhaul", "queue_gbs", "radio_da2g"}
        assert out.d_e2e == sum(out.delay_breakdown.values())

    def test_std_error_first_order(self):
        branches = [_stats(1e-2, se=1e-4), _stats(2e-2, se=2e-4)]
        out = da2g_path(BACKHAUL, QUEUE, branches)
        radio_se = math.sqrt((1e-4 * 2e-2) ** 2 + (2e-4 * 1e-2) ** 2)
        partial = (1.0 - 1e-6) * (1.0 - 1e-7)
        assert_allclose(out.eps_std_error, radio_se * partial, rtol=1e-12)

    def test_cloned_branches_are_one_estimate(self):
        # K copies of one estimate: d(eps^K)/d eps = K eps^(K-1), so the
        # radio SE at K = 2 is 2 * 1e-2 * 1e-3 = 2e-5, not sqrt(2) * 1e-5
        one = _stats(1e-2, se=1e-3)
        out = da2g_path(BACKHAUL, QUEUE, [one, one])
        partial = (1.0 - 1e-6) * (1.0 - 1e-7)
        assert_allclose(out.eps_std_error, 2e-5 * partial, rtol=1e-12)
        three = da2g_path(BACKHAUL, QUEUE, [one] * 3)
        assert_allclose(three.eps_std_error, 3 * 1e-4 * 1e-3 * partial, rtol=1e-12)

    def test_equal_but_separate_estimates_stay_independent(self):
        branches = [_stats(1e-2, se=1e-3), _stats(1e-2, se=1e-3)]
        out = da2g_path(BACKHAUL, QUEUE, branches)
        partial = (1.0 - 1e-6) * (1.0 - 1e-7)
        assert_allclose(out.eps_std_error, math.sqrt(2.0) * 1e-5 * partial, rtol=1e-12)

    def test_repeated_branch_among_others(self):
        # [x, y, x]: radio eps = eps_x^2 eps_y, so d/d eps_x = 2 eps_x eps_y
        # and d/d eps_y = eps_x^2, each squared once
        x, y = _stats(1e-2, se=1e-3), _stats(3e-2, se=2e-3)
        out = da2g_path(BACKHAUL, QUEUE, [x, y, x])
        radio_se = math.hypot(2 * 1e-2 * 3e-2 * 1e-3, 1e-2 ** 2 * 2e-3)
        partial = (1.0 - 1e-6) * (1.0 - 1e-7)
        assert_allclose(out.eps_std_error, radio_se * partial, rtol=1e-12)

    def test_empty_branches_rejected(self):
        with pytest.raises(ValueError):
            da2g_path(BACKHAUL, QUEUE, [])


class TestA2aPath:
    def test_chain_loss(self):
        out = a2a_path(BackhaulSpec(delay_s=1e-3, eps=1e-5), QUEUE,
                       _stats(1e-3), QUEUE, _stats(1e-3))
        assert_allclose(out.eps_e2e, 0.0020091796081940180898, rtol=1e-9)
        assert out.label == "A2A"

    def test_breakdown_keys_and_sum(self):
        out = a2a_path(BACKHAUL, QUEUE, _stats(1e-3, 0.8e-3), QUEUE,
                       _stats(2e-3, 0.7e-3))
        assert set(out.delay_breakdown) == {
            "backhaul", "queue_gbs", "radio_g2a", "queue_relay", "radio_a2a"
        }
        assert out.d_e2e == sum(out.delay_breakdown.values())
        assert out.error_terms["radio_g2a"] == 1e-3
        assert out.error_terms["radio_a2a"] == 2e-3


class TestHapPath:
    def test_propagation_terms(self):
        d_g2h = 20615.528128088302749
        out = hap_path(BACKHAUL, QUEUE, _stats(1e-4, 0.64e-3), d_g2h,
                       QUEUE, _stats(1e-4, 0.64e-3), 19700.0)
        assert_allclose(out.delay_breakdown["prop_g2h"],
                        6.8764269940254512171e-5, rtol=1e-12)
        assert_allclose(out.delay_breakdown["prop_h2a"],
                        6.57104736490993996e-5, rtol=1e-12)
        fixed = (out.delay_breakdown["backhaul"]
                 + out.delay_breakdown["prop_g2h"]
                 + out.delay_breakdown["prop_h2a"])
        assert_allclose(fixed, 0.0011344747435893539118, rtol=1e-12)

    def test_breakdown_sums_exactly(self):
        out = hap_path(BACKHAUL, QUEUE, _stats(1e-4, 0.64e-3), 20000.0,
                       QUEUE, _stats(1e-4, 0.64e-3), 19700.0)
        assert set(out.delay_breakdown) == {
            "backhaul", "queue_gs", "radio_g2h", "prop_g2h",
            "queue_hap", "radio_h2a", "prop_h2a",
        }
        assert out.d_e2e == sum(out.delay_breakdown.values())

    def test_rejects_non_positive_distances(self):
        with pytest.raises(ValueError):
            hap_path(BACKHAUL, QUEUE, _stats(1e-4), 0.0,
                     QUEUE, _stats(1e-4), 19700.0)
        with pytest.raises(ValueError):
            hap_path(BACKHAUL, QUEUE, _stats(1e-4), 20000.0,
                     QUEUE, _stats(1e-4), -1.0)

    def test_loss_never_below_backhaul_floor(self):
        out = hap_path(BACKHAUL, QUEUE, _stats(0.0, 0.64e-3), 20000.0,
                       QUEUE, _stats(0.0, 0.64e-3), 19700.0)
        assert out.eps_e2e >= BACKHAUL.eps


# ============================================================
# Parallel combining
# ============================================================

class TestCombinePaths:
    def _path(self, label, eps, delay, se=0.0):
        return PathOutcome(label, eps, delay, {"total": delay}, {label: eps}, se, 0.0)

    def test_product_and_min_delay(self):
        a = self._path("DA2G", 2e-3, 2.1e-3)
        b = self._path("A2A-1", 2e-3, 3.4e-3)
        out = combine_paths([a, b])
        assert_allclose(out.eps_e2e, 4e-6, rtol=1e-12)
        assert out.d_e2e == 2.1e-3
        assert out.label == "DA2G + A2A-1"
        assert out.error_terms == {"DA2G": 2e-3, "A2A-1": 2e-3}

    def test_std_error_first_order(self):
        a = self._path("DA2G", 1e-3, 2e-3, se=1e-5)
        b = self._path("HAP", 2e-3, 3e-3, se=3e-5)
        out = combine_paths([a, b])
        expected = math.sqrt((1e-5 * 2e-3) ** 2 + (3e-5 * 1e-3) ** 2)
        assert_allclose(out.eps_std_error, expected, rtol=1e-12)

    def test_one_path_twice_is_one_estimate(self):
        a = self._path("DA2G", 1e-3, 2e-3, se=1e-5)
        out = combine_paths([a, a])
        assert_allclose(out.eps_std_error, 2 * 1e-3 * 1e-5, rtol=1e-12)
        twin = self._path("DA2G", 1e-3, 2e-3, se=1e-5)
        apart = combine_paths([a, twin])
        assert_allclose(apart.eps_std_error, math.sqrt(2.0) * 1e-3 * 1e-5, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_paths([])

    @pytest.mark.parametrize("path", [
        da2g_path(BACKHAUL, QUEUE, [_stats(2e-6, se=3e-7)]),
        da2g_path(BACKHAUL, QUEUE, [_stats(0.3, d_t=2e-3, se=1.7e-3)]),
        hap_path(BACKHAUL, QUEUE, _stats(1e-4, se=2e-5), 2.1e4, QUEUE,
                 _stats(3e-3, se=4e-4), 1.97e4),
    ], ids=["feasible", "infeasible", "hap"])
    def test_single_path_is_the_path(self, path):
        # the region picks its "DA2G" cell from the direct path itself
        out = combine_paths([path], label="DA2G")
        for name in ("eps_e2e", "d_e2e", "eps_std_error", "d_std_error"):
            assert getattr(out, name) == getattr(path, name), name

    @given(st.lists(st.floats(min_value=1e-6, max_value=0.5),
                    min_size=1, max_size=4))
    @settings(max_examples=60, derandomize=True)
    def test_product_law(self, losses):
        paths = [self._path(f"P{i}", eps, 1e-3 + i * 1e-4)
                 for i, eps in enumerate(losses)]
        out = combine_paths(paths)
        assert_allclose(out.eps_e2e, math.prod(losses), rtol=1e-12)
        assert out.d_e2e == 1e-3


# ============================================================
# Combination enumeration
# ============================================================

class TestEnumerate:
    def _paths(self, n_a2a):
        da2g = PathOutcome("DA2G", 1e-3, 2e-3, {"t": 2e-3}, {})
        a2a = [PathOutcome(f"A2A-{m}", 2e-3, 3e-3, {"t": 3e-3}, {})
               for m in range(1, n_a2a + 1)]
        hap = PathOutcome("HAP", 5e-4, 4e-3, {"t": 4e-3}, {})
        return da2g, a2a, hap

    def test_canonical_labels(self):
        da2g, a2a, hap = self._paths(3)
        combos = enumerate_combinations(da2g, a2a, hap)
        assert [c.label for c in combos] == [
            "DA2G",
            "DA2G + 1-A2A",
            "DA2G + 2-A2A",
            "DA2G + 3-A2A",
            "DA2G + HAP",
            "DA2G + 1-A2A + HAP",
            "DA2G + 2-A2A + HAP",
            "DA2G + 3-A2A + HAP",
        ]
        assert tuple(c.label for c in combos) == CANONICAL_COMBINATIONS

    def test_extra_relays_capped_at_three(self):
        da2g, a2a, hap = self._paths(5)
        combos = enumerate_combinations(da2g, a2a, hap)
        assert len(combos) == 8
        assert combos[3].label == "DA2G + 3-A2A"

    def test_losses_multiply_down_the_ladder(self):
        da2g, a2a, hap = self._paths(3)
        combos = enumerate_combinations(da2g, a2a, hap)
        by_label = {c.label: c for c in combos}
        assert_allclose(by_label["DA2G + 2-A2A"].eps_e2e,
                        1e-3 * 2e-3 * 2e-3, rtol=1e-12)
        assert_allclose(by_label["DA2G + 3-A2A + HAP"].eps_e2e,
                        1e-3 * (2e-3) ** 3 * 5e-4, rtol=1e-12)


# ============================================================
# Bernoulli replay cross-check
# ============================================================

class TestBernoulliReplay:
    def test_chain_and_parallel_against_simulation(self):
        rng = np.random.default_rng(42)
        n = 200_000
        chain_a = [1e-2, 3e-3, 2e-2]
        chain_b = [5e-3, 1.5e-2]

        fail_a = np.zeros(n, dtype=bool)
        for eps in chain_a:
            fail_a |= rng.random(n) < eps
        fail_b = np.zeros(n, dtype=bool)
        for eps in chain_b:
            fail_b |= rng.random(n) < eps

        for fails, chain in ((fail_a, chain_a), (fail_b, chain_b)):
            p_hat = float(fails.mean())
            p = chain_loss(chain)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(p_hat - p) < 4.0 * se

        both = float((fail_a & fail_b).mean())
        p_joint = chain_loss(chain_a) * chain_loss(chain_b)
        se_joint = math.sqrt(p_joint * (1.0 - p_joint) / n)
        assert abs(both - p_joint) < 4.0 * se_joint
