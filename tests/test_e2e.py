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
    _chain,
    _hop,
    _product_stderr,
    _radio,
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
    EXACT_HOPS = (1.0 - 1e-6) * (1.0 - 1e-7)     # backhaul and queue survivals

    def test_two_branch_loss(self):
        out = da2g_path(BACKHAUL, QUEUE, _stats(3.2e-3, 0.9e-3), 2)
        assert_allclose(out.eps_e2e, 1.1339988636001024e-5, rtol=1e-9)
        assert out.label == "DA2G"

    def test_delay_uses_fastest_branch(self):
        # every branch is a clone over the one link, so the fastest branch's
        # delay is that link's mean delay whatever the branch count
        for branches in (1, 3):
            out = da2g_path(BACKHAUL, QUEUE, _stats(3.2e-3, 0.9e-3), branches)
            assert out.delay_breakdown["radio_da2g"] == 0.9e-3
            assert set(out.delay_breakdown) == {"backhaul", "queue_gbs", "radio_da2g"}
            assert out.d_e2e == sum(out.delay_breakdown.values())

    def test_std_error_first_order(self):
        out = da2g_path(BACKHAUL, QUEUE, _stats(2e-2, se=2e-4))
        assert_allclose(out.eps_std_error, 2e-4 * self.EXACT_HOPS, rtol=1e-12)

    def test_cloned_branches_are_one_estimate(self):
        # K clones of one estimate: d(eps^K)/d eps = K eps^(K-1), so the
        # radio SE at K = 2 is 2 * 1e-2 * 1e-3 = 2e-5, not sqrt(2) * 1e-5
        eps, se = 1e-2, 1e-3
        for branches in (1, 2, 3, 4):
            out = da2g_path(BACKHAUL, QUEUE, _stats(eps, se=se), branches)
            assert_allclose(out.error_terms["radio_da2g"], eps ** branches, rtol=1e-15)
            assert_allclose(out.eps_std_error,
                            branches * eps ** (branches - 1) * se * self.EXACT_HOPS,
                            rtol=1e-12)

    def test_many_branches_form_the_power_directly(self):
        # eps^(K - 1) was the product of a tuple of K - 1 floats: at
        # K = 10^15 that tuple raised MemoryError
        out = da2g_path(BACKHAUL, QUEUE, _stats(1e-2, se=1e-3), 10 ** 15)
        assert out.error_terms["radio_da2g"] == 0.0
        assert out.eps_std_error == 0.0
        certain = da2g_path(BACKHAUL, QUEUE, _stats(1.0, se=1e-3), 10 ** 15)
        assert certain.error_terms["radio_da2g"] == 1.0

    def test_equal_but_separate_estimates_stay_independent(self):
        # two direct paths over equal-valued links are two estimates: their
        # product's SE adds the two first-order terms in quadrature
        one, twin = _stats(1e-2, se=1e-3), _stats(1e-2, se=1e-3)
        paths = [da2g_path(BACKHAUL, QUEUE, link) for link in (one, twin)]
        out = combine_paths(paths, label="two links")
        path_se = 1e-3 * self.EXACT_HOPS
        assert_allclose(out.eps_std_error,
                        math.sqrt(2.0) * paths[0].eps_e2e * path_se, rtol=1e-12)

    def test_empty_branches_rejected(self):
        with pytest.raises(ValueError):
            da2g_path(BACKHAUL, QUEUE, _stats(1e-2), 0)


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
        out = combine_paths([a, b], label="DA2G + 1-A2A")
        assert_allclose(out.eps_e2e, 4e-6, rtol=1e-12)
        assert out.d_e2e == 2.1e-3
        assert out.label == "DA2G + 1-A2A"
        assert out.error_terms == {"DA2G": 2e-3, "A2A-1": 2e-3}

    def test_std_error_first_order(self):
        a = self._path("DA2G", 1e-3, 2e-3, se=1e-5)
        b = self._path("HAP", 2e-3, 3e-3, se=3e-5)
        out = combine_paths([a, b], label="DA2G + HAP")
        expected = math.sqrt((1e-5 * 2e-3) ** 2 + (3e-5 * 1e-3) ** 2)
        assert_allclose(out.eps_std_error, expected, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_paths([], label="none")

    @pytest.mark.parametrize("path", [
        da2g_path(BACKHAUL, QUEUE, _stats(2e-6, se=3e-7)),
        da2g_path(BACKHAUL, QUEUE, _stats(0.3, d_t=2e-3, se=1.7e-3)),
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
        out = combine_paths(paths, label="all")
        assert_allclose(out.eps_e2e, math.prod(losses), rtol=1e-12)
        assert out.d_e2e == 1e-3


# ============================================================
# Queue gates compose along the path
# ============================================================

class TestQueuesAdmit:
    """A path admits when every queue it crosses does (QueueSpec.admits),
    and a combination when every path does; the gate changes no number."""

    # the effective bandwidth of QUEUE's target is 13 424 packets/s
    FAILING = QueueSpec(1000.0, 0.3e-3, 1e-7, service_rate_pps=10_000.0)
    PASSING = QueueSpec(1000.0, 0.3e-3, 1e-7, service_rate_pps=20_000.0)

    def _hap(self, gs_queue, hap_queue):
        return hap_path(BACKHAUL, gs_queue, _stats(1e-4), 2e4, hap_queue, _stats(1e-4), 1.97e4)

    def test_unprovisioned_queues_admit(self):
        assert da2g_path(BACKHAUL, QUEUE, _stats(1e-3)).queues_admit is True
        assert self._hap(QUEUE, QUEUE).queues_admit is True

    def test_platform_path_does_not_cross_base_station(self):
        da2g = da2g_path(BACKHAUL, self.FAILING, _stats(1e-4))
        hap = self._hap(self.PASSING, self.PASSING)
        assert da2g.queues_admit is False
        assert hap.queues_admit is True
        assert combine_paths([da2g, hap], label="DA2G + HAP").queues_admit is False
        assert combine_paths([hap], label="HAP").queues_admit is True

    @pytest.mark.parametrize("gs_queue, hap_queue", [(FAILING, PASSING), (PASSING, FAILING)])
    def test_platform_path_crosses_both_of_its_queues(self, gs_queue, hap_queue):
        assert self._hap(gs_queue, hap_queue).queues_admit is False

    def test_relayed_path_crosses_the_relay_queue(self):
        def a2a(relay_queue):
            return a2a_path(BACKHAUL, self.PASSING, _stats(1e-3), relay_queue, _stats(1e-3))
        assert a2a(self.PASSING).queues_admit is True
        assert a2a(self.FAILING).queues_admit is False

    def test_gate_changes_no_number(self):
        passing = _outcome(da2g_path(BACKHAUL, self.PASSING, _stats(1e-3, se=1e-4)))
        assert _outcome(da2g_path(BACKHAUL, self.FAILING, _stats(1e-3, se=1e-4))) == passing


# ============================================================
# Composition reads values, not identities or names
# ============================================================

def _outcome(path):
    return path.eps_e2e, path.d_e2e, path.eps_std_error, path.d_std_error


class TestValuesOnly:
    """Every factor is an independent estimate: an object passed twice
    composes as two equal-valued objects do."""

    def test_product_stderr(self):
        factor = (1e-3, 1e-5)
        twin = tuple([1e-3, 1e-5])
        assert twin is not factor
        got = _product_stderr([factor, factor])
        assert got == _product_stderr([factor, twin])
        assert_allclose(got, math.sqrt(2.0) * 1e-3 * 1e-5, rtol=1e-12)

    def test_combine_paths(self):
        a = PathOutcome("DA2G", 1e-3, 2e-3, eps_std_error=1e-5)
        twin = PathOutcome("DA2G", 1e-3, 2e-3, eps_std_error=1e-5)
        once = combine_paths([a, a], label="twice")
        assert _outcome(once) == _outcome(combine_paths([a, twin], label="twice"))
        assert_allclose(once.eps_std_error, math.sqrt(2.0) * 1e-3 * 1e-5, rtol=1e-12)

    def test_chain(self):
        one = _stats(1e-2, 1e-3, se=1e-3)
        twin = _stats(1e-2, 1e-3, se=1e-3)
        same = _chain("P", [_radio("radio_1", one), _radio("radio_2", one)])
        apart = _chain("P", [_radio("radio_1", one), _radio("radio_2", twin)])
        assert _outcome(same) == _outcome(apart)
        assert_allclose(same.eps_std_error, math.sqrt(2.0) * (1.0 - 1e-2) * 1e-3,
                        rtol=1e-12)

    def test_hops_that_share_a_name_keep_every_term(self):
        # the totals run over the hops: a repeated name drops no delay or loss
        hops = [_hop("queue", 1e-3, 1e-3), _hop("queue", 2e-3, 2e-3)]
        out = _chain("P", hops)
        assert out.d_e2e == 1e-3 + 2e-3
        assert out.eps_e2e == chain_loss([1e-3, 2e-3])


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
