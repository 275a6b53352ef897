"""Acceptance checks: every stated behavior target at its stated tolerance.

Each test prints one PASS line (run with `-s` to see them). Together they
cover the rate/error inversion, the composition algebra against a
discrete-event Bernoulli replay, the backhaul reliability floor, antenna
reference directions, fading-power normalization, the queue provisioning
constant, the single-cell rate ladder, both operating-region grids, and
worker-count independence of the serialized outputs.
"""

import dataclasses
import math
import os
import textwrap
import time

import mpmath as mp
import numpy as np
from click.testing import CliRunner
from numpy.testing import assert_allclose

from avlinksim import channel, e2e, mathfun
from avlinksim.cli import main as cli_main
from avlinksim.link import LinkStats, fbl_error, fbl_rate
from avlinksim.queueing import QueueSpec, effective_bandwidth
from avlinksim.scenario import _THREADS, ScenarioConfig, run_operating_region, run_rate_sweep


def _max_feasible_kbps(rows, label):
    rates = [r.rate_bps for r in rows if r.label == label and r.feasible]
    return max(rates) / 1e3 if rates else 0.0


# ============================================================
# Rate / error inversion
# ============================================================

def test_rate_error_inversion_round_trip():
    bandwidth = 0.4e6
    for gamma_db in (0.0, 5.0, 10.0, 20.0, 30.0):
        gamma = 10.0 ** (gamma_db / 10.0)
        for d_t in (0.32e-3, 1.0e-3, 3.2e-3):
            for eps in (1e-5, 1e-3, 0.5):
                rate = fbl_rate(gamma, bandwidth, d_t, eps)
                assert rate > 0.0
                back = fbl_error(gamma, bandwidth, d_t, rate * d_t)
                assert_allclose(back, eps, rtol=1e-9)
    print("PASS - rate/error inversion round trips at 1e-9 over the "
          "5 x 3 x 3 grid")


# ============================================================
# Composition vs. discrete-event replay
# ============================================================

def _draw_hop(rng):
    eps = 10.0 ** rng.uniform(-2.3, -0.8)
    d_t = rng.uniform(0.1e-3, 1.0e-3)
    return eps, d_t


def _stats(eps, d_t, n):
    return LinkStats(eps, d_t / (1.0 - eps), n, 0.0)


def test_path_composition_matches_bernoulli_replay():
    """Ten randomized path sets, each replayed as 1e7 independent
    Bernoulli/geometric trials; all loss and delay statistics must land
    within 3 standard errors of the closed-form composition."""
    n = 10_000_000
    started = time.monotonic()
    worst_z = 0.0
    for k in range(10):
        rng = np.random.default_rng(np.random.PCG64(2024 + 1000 * k))
        eps_b = 10.0 ** rng.uniform(-3, -2)
        eps_q = 10.0 ** rng.uniform(-4, -3)
        backhaul = e2e.BackhaulSpec(delay_s=rng.uniform(0.5e-3, 2e-3), eps=eps_b)
        queue = QueueSpec(1000.0, rng.uniform(0.1e-3, 0.5e-3), eps_q)

        # 1 or 2 diversity branches, each a clone over the one g2a link
        branch_eps, branch_d = _draw_hop(rng)
        branches = 1 + (k % 2)
        path_a = e2e.da2g_path(backhaul, queue, _stats(branch_eps, branch_d, n), branches)
        hops = [_draw_hop(rng) for _ in range(2)]
        if k % 2 == 0:
            path_b = e2e.a2a_path(backhaul, queue, _stats(*hops[0], n),
                                  queue, _stats(*hops[1], n))
        else:
            d1, d2 = rng.uniform(5e3, 25e3), rng.uniform(15e3, 25e3)
            path_b = e2e.hap_path(backhaul, queue, _stats(*hops[0], n), d1,
                                  queue, _stats(*hops[1], n), d2)
        chain_b = [eps_b, eps_q, hops[0][0], eps_q, hops[1][0]]

        sim = np.random.default_rng(np.random.PCG64(777 + k))
        fail_a = sim.random(n) < eps_b
        fail_a |= sim.random(n) < eps_q
        radio_fail = np.ones(n, dtype=bool)
        for _ in range(branches):
            radio_fail &= sim.random(n) < branch_eps
        fail_a |= radio_fail
        fail_b = np.zeros(n, dtype=bool)
        for eps in chain_b:
            fail_b |= sim.random(n) < eps

        for fails, p in ((fail_a, path_a.eps_e2e), (fail_b, path_b.eps_e2e)):
            z = abs(float(fails.mean()) - p) / math.sqrt(p * (1 - p) / n)
            worst_z = max(worst_z, z)
            assert z < 3.0
        p_joint = path_a.eps_e2e * path_b.eps_e2e
        z = (abs(float((fail_a & fail_b).mean()) - p_joint)
             / math.sqrt(p_joint * (1 - p_joint) / n))
        worst_z = max(worst_z, z)
        assert z < 3.0

        delay_a = sim.geometric(1.0 - branch_eps, size=n) * branch_d
        mean_a = float(delay_a.mean()) + backhaul.delay_s + queue.delay_bound_s
        z = abs(mean_a - path_a.d_e2e) / (float(delay_a.std()) / math.sqrt(n))
        worst_z = max(worst_z, z)
        assert z < 3.0

        delay_b = np.zeros(n)
        for eps, d_t in hops:
            delay_b += sim.geometric(1.0 - eps, size=n) * d_t
        fixed_b = path_b.d_e2e - sum(
            v for key, v in path_b.delay_breakdown.items()
            if key.startswith("radio")
        )
        mean_b = float(delay_b.mean()) + fixed_b
        z = abs(mean_b - path_b.d_e2e) / (float(delay_b.std()) / math.sqrt(n))
        worst_z = max(worst_z, z)
        assert z < 3.0

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"PASS - composition matches 1e7-trial Bernoulli replay on 10 "
          f"path sets within 3 SE (worst z {worst_z:.2f}, {elapsed:.1f} s)")


# ============================================================
# Backhaul reliability floor
# ============================================================

def test_backhaul_floor_blocks_every_single_path():
    """With the backhaul loss equal to the end-to-end target, no single
    path can meet the target even with perfect radio hops, and no
    single-path sweep row may come out feasible."""
    qos = e2e.QosTarget(1e-5, 10e-3)
    backhaul = e2e.BackhaulSpec(delay_s=1e-3, eps=1e-5)
    queue = QueueSpec(1000.0, 0.3e-3, 1e-7)
    perfect = LinkStats(0.0, 1e-3, 1, 0.0)
    da2g = e2e.da2g_path(backhaul, queue, perfect)
    a2a = e2e.a2a_path(backhaul, queue, perfect, queue, perfect)
    hap = e2e.hap_path(backhaul, queue, perfect, 20000.0, queue, perfect, 19700.0)
    for path in (da2g, a2a, hap):
        assert path.eps_e2e > qos.eps_th
        assert not qos.admits(path.eps_e2e, path.d_e2e)

    config = dataclasses.replace(
        ScenarioConfig(), eps_b=1e-5, n_samples=20_000
    )
    result = run_rate_sweep(config)
    single = [r for r in result.rows if r.label in ("DA2G", "A2A", "HAP")]
    assert len(single) == 3 * len(config.sweep_rates_kbps)
    assert all(not r.feasible for r in single)
    print("PASS - backhaul loss at the target blocks all "
          f"{len(single)} single-path rows analytically and in the sweep")


# ============================================================
# Antenna reference directions
# ============================================================

def test_antenna_reference_directions():
    ula = channel.UlaSpec()
    af = channel.ula_array_factor(ula.downtilt_deg, ula)
    assert abs(af - 8.0) <= 1e-9

    reflector = channel.ReflectorSpec()
    peak = channel.hap_gain(0.0, reflector)
    assert abs(peak / 10.0 ** 3.2 - 1.0) <= 1e-12

    # first null of the circular-aperture pattern via sign change of the
    # underlying Bessel factor
    lo, hi = 3.0, 4.0
    f = lambda deg: mathfun.bessel_j1(
        2.0 * math.pi * reflector.aperture_radius_wavelengths
        * math.sin(math.radians(deg))
    )
    assert f(lo) > 0.0 > f(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    null_deg = 0.5 * (lo + hi)
    assert abs(null_deg - 3.497) <= 0.01
    assert channel.hap_gain(null_deg, reflector) <= 1e-12 * peak
    print(f"PASS - boresight array factor 8, on-axis beam gain 10^3.2, "
          f"first null at {null_deg:.4f} deg (within 0.01 of 3.497)")


# ============================================================
# Fading-power normalization
# ============================================================

def test_fading_power_is_unit_mean():
    rng = mathfun.RngStream(20_240_501).generator()
    means = {}
    for k_db in (-10.0, 0.0, 5.0, 12.0, 15.0):
        omega2 = mathfun.sample_rician_power(k_db, rng, size=1_000_000)
        means[k_db] = float(np.mean(omega2))
        assert 0.99 <= means[k_db] <= 1.01
    joined = ", ".join(f"{k:g} dB -> {v:.4f}" for k, v in means.items())
    print(f"PASS - fading power unit-mean within 1% over 1e6 draws ({joined})")


# ============================================================
# Queue provisioning constant
# ============================================================

def test_effective_bandwidth_reference_value():
    got = effective_bandwidth(QueueSpec(1000.0, 0.3e-3, 1e-7))

    mp.mp.dps = 40
    theta = mp.log(1 / mp.mpf("1e-7"))
    lam_d = mp.mpf(1000) * mp.mpf("0.3e-3")
    oracle = float(theta / (mp.mpf("0.3e-3") * mp.log(theta / lam_d + 1)))

    assert abs(got - oracle) <= 10.0
    assert abs(got - oracle) <= 1e-9 * oracle
    assert abs(got - 1.342e4) <= 10.0
    print(f"PASS - effective bandwidth {got:.3f} pps matches the "
          f"arbitrary-precision value within 10 pps")


# ============================================================
# Single-cell rate ladder
# ============================================================

def test_single_cell_rate_ladder():
    """At the reference distance, each added path roughly doubles the
    sustainable rate: the direct path tops out near 200 kbps, one relay
    reaches 300, two relays about double the direct rate, and the
    platform ladder runs past 500 kbps."""
    config = dataclasses.replace(
        ScenarioConfig(),
        sweep_rates_kbps=(30.0, 50.0, 70.0, 100.0, 140.0, 200.0, 280.0,
                          300.0, 400.0, 560.0, 600.0, 800.0, 1000.0),
    )
    started = time.monotonic()
    result = run_rate_sweep(config)
    elapsed = time.monotonic() - started

    rows = result.rows
    by = {(r.rate_bps, r.label): r for r in rows}

    da2g_low = [r for r in rows
                if r.label == "DA2G" and 30e3 <= r.rate_bps <= 200e3 and r.feasible]
    assert da2g_low, "direct path must be feasible somewhere in 30..200 kbps"
    assert not by[(300e3, "DA2G")].feasible
    assert by[(300e3, "DA2G + 1-A2A")].feasible

    max_da2g = _max_feasible_kbps(rows, "DA2G")
    max_1a2a = _max_feasible_kbps(rows, "DA2G + 1-A2A")
    max_2a2a = _max_feasible_kbps(rows, "DA2G + 2-A2A")
    max_full = _max_feasible_kbps(rows, "DA2G + 3-A2A + HAP")
    assert max_2a2a >= 2.0 * max_da2g
    assert 100.0 <= max_da2g <= 400.0
    assert 150.0 <= max_1a2a <= 600.0
    assert 300.0 <= max_2a2a <= 1200.0
    assert 500.0 <= max_full <= 2000.0
    print(f"PASS - rate ladder at 150 m: direct {max_da2g:g}, +1 relay "
          f"{max_1a2a:g}, +2 relays {max_2a2a:g}, full {max_full:g} kbps "
          f"({elapsed:.1f} s)")


# ============================================================
# Operating-region grids
# ============================================================

# Both grids run on every core, up to the drivers' worker bound: no output
# depends on the worker count (test_outputs_identical_for_any_worker_count).
WORKERS = min(os.cpu_count(), _THREADS.high)


def test_saturated_interference_leaves_uncovered_region():
    """With heavy interferer activity and a weak backhaul there must be
    cells no combination can serve, all at 300 kbps or more."""
    config = dataclasses.replace(ScenarioConfig(), p_interf=0.1, eps_b=1e-5)
    started = time.monotonic()
    result = run_operating_region(config, threads=WORKERS)
    elapsed = time.monotonic() - started
    assert elapsed < 600.0

    uncovered = [c for c in result.cells if c.label == "none"]
    high_rate = [c for c in uncovered if c.rate_bps >= 300e3]
    assert high_rate, "expected an uncovered region at 300 kbps and above"
    print(f"PASS - saturated interference leaves {len(uncovered)} uncovered "
          f"cells, {len(high_rate)} at >= 300 kbps ({elapsed:.1f} s)")


def test_platform_path_required_at_rate_extremes():
    """Under nominal settings the platform becomes mandatory at high rates
    both under the site (near zero ground distance) and at the cell edge."""
    config = ScenarioConfig()
    started = time.monotonic()
    result = run_operating_region(config, threads=WORKERS)
    elapsed = time.monotonic() - started
    assert elapsed < 600.0

    n_rates = len(result.rates_bps)
    last_col = len(result.r_edges_m) - 2
    for col in (0, last_col):
        hap_needed = [
            result.label_at(col, k)
            for k in range(n_rates)
            if result.rates_bps[k] >= 700e3
            and "HAP" in result.label_at(col, k)
        ]
        assert hap_needed, f"no platform-inclusive cell in column {col}"
    print(f"PASS - platform-inclusive combinations required at >= 700 kbps "
          f"in the near column and the edge column ({elapsed:.1f} s)")


# ============================================================
# Worker-count independence
# ============================================================

def test_outputs_identical_for_any_worker_count(tmp_path):
    config_text = textwrap.dedent("""\
        n_samples: 2000
        mc_batch_size: 512
        sweep_topologies: 3
        sweep_rates_kbps: [100, 400]
        region_topologies: 2
        region_r_edges_m: [0, 100, 200]
        region_rates_kbps: [100, 400]
        av_count: 5
        a2a_relay_count: 2
    """)
    cfg = tmp_path / "threads.yaml"
    cfg.write_text(config_text, encoding="utf-8")
    runner = CliRunner()

    outputs = {"sweep": [], "region": []}
    for command in ("sweep", "region"):
        for threads in ("1", "2", "4", "8"):
            out = tmp_path / f"{command}_{threads}.csv"
            res = runner.invoke(cli_main, [
                command, "--config", str(cfg), "--out", str(out),
                "--threads", threads, "--quiet",
            ])
            assert res.exit_code == 0, res.output
            outputs[command].append(out.read_bytes())
    for command, blobs in outputs.items():
        assert len(set(blobs)) == 1, f"{command} differs by workers"
    print("PASS - sweep and region outputs byte-identical for 1, 2, 4, and 8 "
          "workers")
