"""Command-line interface tests using click's CliRunner."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest
from click.testing import CliRunner

import avlinksim
from avlinksim import scenario
from avlinksim.cli import main
from avlinksim.mathfun import RngStream

# tiny but structurally complete run: one rate, one relay, one topology
FAST_YAML = """\
    n_samples: 800
    mc_batch_size: 512
    sweep_topologies: 1
    sweep_rates_kbps: [50]
    region_topologies: 1
    region_r_edges_m: [100, 200]
    region_rates_kbps: [100]
    av_count: 4
    a2a_relay_count: 1
"""

SWEEP_LABELS = 6   # DA2G, A2A, HAP, DA2G+1-A2A, DA2G+HAP, DA2G+1-A2A+HAP
HANG_LIMIT_S = 60  # several configs below once ran for minutes


@pytest.fixture(autouse=True)
def hang_limit():
    # pytest's Failed is no Exception, so CliRunner passes it on
    def hung(signum, frame):
        pytest.fail(f"the test ran past its {HANG_LIMIT_S} s hang limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(HANG_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.yaml"
    path.write_text(textwrap.dedent(FAST_YAML), encoding="utf-8")
    return path


# ============================================================
# Top level
# ============================================================

class TestTopLevel:
    def test_import_leaves_scipy_out(self, fast_config, tmp_path):
        # the runtime needs numpy, click and PyYAML only, and a 1-worker sweep
        # or region never needs the thread pool or the inverse of Q
        modules = ("scipy", "concurrent.futures", "statistics")
        src = str(pathlib.Path(avlinksim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = textwrap.dedent("""\
            import sys
            from avlinksim import cli
            config, out, *modules = sys.argv[1:]
            for command in ("sweep", "region"):
                cli.main([command, "--config", config, "--out", out, "--quiet"],
                         standalone_mode=False)
            print([m for m in modules if m in sys.modules])
        """)
        done = subprocess.run(
            [sys.executable, "-c", code, str(fast_config), str(tmp_path / "out.csv"), *modules],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_version(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0
        assert "avlinksim" in res.stdout

    def test_help_lists_commands(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        for name in ("sweep", "region", "link-budget", "validate"):
            assert name in res.stdout


# ============================================================
# validate
# ============================================================

class TestValidate:
    def test_all_invariants_pass(self, runner):
        res = runner.invoke(main, ["validate"])
        assert res.exit_code == 0
        ok_lines = [l for l in res.stdout.splitlines() if l.startswith("ok   - ")]
        assert len(ok_lines) == 9
        assert res.stdout.splitlines()[-1] == "9 passed, 0 failed"

    def test_good_config_counts_as_check(self, runner, fast_config):
        res = runner.invoke(main, ["validate", "--config", str(fast_config)])
        assert res.exit_code == 0
        assert "ok   - config file" in res.stdout
        assert res.stdout.splitlines()[-1] == "10 passed, 0 failed"

    def test_bad_config_is_a_finding(self, runner, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("p_interf: 2.0\n", encoding="utf-8")
        res = runner.invoke(main, ["validate", "--config", str(bad)])
        assert res.exit_code == 1
        assert "FAIL - config file" in res.stdout
        assert res.stdout.splitlines()[-1] == "9 passed, 1 failed"

    def test_config_the_model_rejects_fails_before_any_run(self, runner, tmp_path,
                                                           monkeypatch):
        # eps_q = 0 used to load, sample every link, then die in QueueSpec
        bad = tmp_path / "bad.yaml"
        bad.write_text("eps_q: 0\n", encoding="utf-8")

        def never(*args, **kwargs):
            raise AssertionError("a driver ran on a rejected config")

        monkeypatch.setattr(scenario, "run_rate_sweep", never)
        monkeypatch.setattr(scenario, "run_operating_region", never)
        for command in ("sweep", "region"):
            res = runner.invoke(main, [command, "--config", str(bad)])
            assert res.exit_code == 2, command
            assert res.stderr.startswith("config error: config key 'eps_q'"), command
        res = runner.invoke(main, ["validate", "--config", str(bad)])
        assert res.exit_code == 1
        assert "FAIL - config file: config key 'eps_q'" in res.stdout


    @pytest.mark.parametrize("text", [
        "tx_power_av_dbm: 4000\n",             # overflowed to an OverflowError
        "noise_density_dbm_hz: -4000\n",       # rounded to 0 W/Hz
        "fc_ghz: 1.0e-300\n",                  # a -6000 dB path loss overflowed
        # a 4000 dB Rice factor: OverflowError in sample_rician_power
        "rice_k_db: {g2a: [4000, 4000], a2a: [12, 12], g2h: [5, 15], h2a: [12, 15]}\n",
        # the reflector's Bessel quadrature takes a node per unit of 2 pi a sin(offset)
        "hap_aperture_radius_wavelengths: 1000000000.0\n",
        "isd_m: 1\ngrid_tiers: 200\n",         # 120 601 sites: a sweep ran past 30 s
        "n_samples: 200\nn_samples: 300\n",     # loaded as 300 with no message
        "ula_downtilt_deg: 1.0e+300\n",        # a boresight 1e300 degrees from zenith ran
        # the ms -> s conversion rounded the bound to 0 s: ValueError in QueueSpec
        "queue_delay_bound_ms: 1.0e-322\n",
        "delay_threshold_ms: 1.0e-322\n",      # and in QosTarget
        pytest.param(f"packet_bits: {10 ** 300}\n",     # OverflowError at a float ** 2
                     id="packet_bits: 10 ** 300"),
        # a 35.5 PiB batch buffer: MemoryError
        "n_samples: 1000000000000000\nmc_batch_size: 1000000000000000\n",
        "av_count: 1000000000\n",              # about nine hours per topology
        # sin(N pi w) of an overflowing N pi w made the array gain NaN
        pytest.param(f"ula_elements: {int(sys.float_info.max)}\n", id="ula_elements: max"),
        # 1e3 times the rate overflowed to inf bit/s, and the row reported success
        "sweep_rates_kbps: [1.7976931348623157e+308]\n",
        # a noise power of 0 W: every SINR draw divided by zero
        "bandwidth_gh_hz: 5.0e-324\n",
        # the slot packet_bits / rate overflowed, and the DA2G delay was infinite
        "sweep_rates_kbps: [5.0e-324]\n",
    ])
    def test_config_that_crashed_or_misloaded_is_a_finding(self, runner, tmp_path, text):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text, encoding="utf-8")
        res = runner.invoke(main, ["validate", "--config", str(bad)])
        assert res.exit_code == 1
        assert "FAIL - config file" in res.stdout
        res = runner.invoke(main, ["sweep", "--config", str(bad), "--quiet"])
        assert res.exit_code == 2
        assert res.stderr.startswith("config error: ")

    @pytest.mark.parametrize("text, key", [
        # a -6563 dB g2a path loss failed in ChannelSpec
        ("gbs_height_m: 1.0e-300\nav_altitude_m: 2.0e-300\nr_ga_m: 1.0e-300\n",
         "gbs_height_m"),
        ("q3_m: 1.0e-300\n", "q3_m"),                  # ZeroDivisionError in p_los
        ("q3_m: 1.0e+300\n", "q3_m"),                  # OverflowError in p_los
        ("av_altitude_m: 1.0e+300\nhap_altitude_m: 2.0e+300\n", "av_altitude_m"),
    ])
    def test_length_outside_the_interval_is_a_config_error(self, runner, tmp_path, text, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text, encoding="utf-8")
        res = runner.invoke(main, ["validate", "--config", str(bad)])
        assert res.exit_code == 1
        assert (f"FAIL - config file: config key '{key}': expected a length in "
                f"[0.001, 1e+06] m") in res.stdout
        for command in ("sweep", "region"):
            res = runner.invoke(main, [command, "--config", str(bad), "--quiet"])
            assert res.exit_code == 2, command
            assert res.stderr.startswith(f"config error: config key '{key}'"), command

    @pytest.mark.parametrize("text", [
        # arrival_rate * delay_bound overflowed, and the effective bandwidth
        # divided by log(0 + 1.0) = 0: ZeroDivisionError
        "arrival_rate_gbs_pps: 1.0e+21\nqueue_delay_bound_ms: 1.0e+308\n",
        # the branch loss multiplied a tuple of 10^15 - 1 floats: MemoryError
        "diversity_branches: 1000000000000000\n",
    ])
    def test_config_that_crashed_the_sweep_runs(self, runner, tmp_path, text):
        path = tmp_path / "extreme.yaml"
        path.write_text(textwrap.dedent(FAST_YAML) + text, encoding="utf-8")
        res = runner.invoke(main, ["validate", "--config", str(path)])
        assert res.exit_code == 0
        res = runner.invoke(main, ["sweep", "--config", str(path), "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert len(payload["rows"]) == SWEEP_LABELS
        # a non-finite float is written as null
        assert all(value is not None for row in payload["rows"] for value in row.values())
        assert None not in payload["diagnostics"]["effective_bandwidth_pps"].values()

    def test_far_destination_is_a_config_error_not_a_hang(self, runner, tmp_path):
        # p_los loops once per building: at 1e9 m the sweep ran for minutes
        far = tmp_path / "far.yaml"
        far.write_text("r_ga_m: 1000000000.0\nq3_m: 0.01\nn_samples: 200\n"
                       "sweep_rates_kbps: [100]\n", encoding="utf-8")
        res = runner.invoke(main, ["validate", "--config", str(far)])
        assert res.exit_code == 1
        assert "FAIL - config file: config key 'r_ga_m'" in res.stdout
        src = str(pathlib.Path(avlinksim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run(
            [sys.executable, "-m", "avlinksim.cli", "sweep", "--config", str(far), "--quiet"],
            env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == 2
        assert done.stderr.startswith("config error: config key 'r_ga_m'")


# ============================================================
# sweep
# ============================================================

class TestSweep:
    def test_stdout_csv(self, runner, fast_config):
        res = runner.invoke(main, ["sweep", "--config", str(fast_config)])
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "# avlinksim sweep v1"
        assert lines[1].startswith("# config_sha256: ")
        assert lines[2] == "# seed: 1"
        assert lines[3] == "# n_samples: 800"
        assert lines[4] == "# topologies: 1"
        assert lines[5] == (
            "rate_bps,label,eps_e2e,eps_std_error,delay_s,delay_std_error,feasible"
        )
        rows = lines[6:]
        assert len(rows) == SWEEP_LABELS
        assert all(r.split(",")[-1] in ("true", "false") for r in rows)
        assert rows[0].startswith("50000.0,DA2G,")

    def test_file_output_and_rerun_identical(self, runner, fast_config, tmp_path):
        out = tmp_path / "sweep.csv"
        res = runner.invoke(
            main, ["sweep", "--config", str(fast_config), "--out", str(out)]
        )
        assert res.exit_code == 0
        assert "sweep:" in res.stderr and str(out) in res.stderr
        first = out.read_bytes()
        res2 = runner.invoke(
            main, ["sweep", "--config", str(fast_config), "--out", str(out)]
        )
        assert res2.exit_code == 0
        assert out.read_bytes() == first
        assert not list(tmp_path.glob("*.tmp"))

    def test_thread_count_does_not_change_bytes(self, runner, fast_config, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for out, threads in ((out1, "1"), (out2, "4")):
            res = runner.invoke(main, [
                "sweep", "--config", str(fast_config),
                "--out", str(out), "--threads", threads, "--quiet",
            ])
            assert res.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_output(self, runner, fast_config):
        res = runner.invoke(
            main, ["sweep", "--config", str(fast_config), "--format", "json"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["schema"] == "avlinksim.sweep.v1"
        assert len(payload["rows"]) == SWEEP_LABELS
        assert len(payload["config_sha256"]) == 64
        assert payload["rates_bps"] == [50000.0]
        # serialization is canonical: sorted keys, trailing newline
        assert res.stdout.endswith("\n")
        assert res.stdout == json.dumps(
            payload, sort_keys=True, indent=2, allow_nan=False
        ) + "\n"

    def test_seed_override_changes_numbers(self, runner, fast_config):
        base = runner.invoke(main, ["sweep", "--config", str(fast_config)])
        same = runner.invoke(
            main, ["sweep", "--config", str(fast_config), "--seed", "1"]
        )
        other = runner.invoke(
            main, ["sweep", "--config", str(fast_config), "--seed", "2"]
        )
        assert base.stdout == same.stdout
        assert base.stdout != other.stdout

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_its_rule_is_a_config_error(self, runner, fast_config, seed):
        res = runner.invoke(main, ["sweep", "--config", str(fast_config), "--seed", seed])
        assert res.exit_code == 2
        assert res.stderr.startswith("config error: config key 'master_seed': expected a seed in ")

    @pytest.mark.parametrize("threads", ["0", "257"])
    def test_worker_count_outside_its_rule_is_a_usage_error(self, runner, fast_config, threads):
        res = runner.invoke(main, ["sweep", "--config", str(fast_config), "--threads", threads])
        assert res.exit_code == 2
        assert "'--threads'" in res.stderr and "1<=x<=256" in res.stderr

    def test_unknown_config_key_is_usage_error(self, runner, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("no_such_option: 1\n", encoding="utf-8")
        res = runner.invoke(main, ["sweep", "--config", str(bad)])
        assert res.exit_code == 2
        assert "config error" in res.stderr
        assert "no_such_option" in res.stderr

    def test_missing_output_directory_is_io_error(self, runner, fast_config, tmp_path):
        out = tmp_path / "absent" / "sweep.csv"
        res = runner.invoke(
            main, ["sweep", "--config", str(fast_config), "--out", str(out)]
        )
        assert res.exit_code == 3
        assert "i/o error" in res.stderr

    def test_config_dir_env_resolution(self, runner, fast_config):
        res = runner.invoke(
            main,
            ["sweep", "--config", fast_config.name],
            env={"AVLINKSIM_CONFIG_DIR": str(fast_config.parent)},
        )
        assert res.exit_code == 0
        assert res.stdout.startswith("# avlinksim sweep v1")


# ============================================================
# region
# ============================================================

class TestRegion:
    def test_stdout_csv(self, runner, fast_config):
        res = runner.invoke(main, ["region", "--config", str(fast_config)])
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "# avlinksim region v1"
        assert lines[3].startswith("# labels: DA2G; ")
        assert lines[4] == "r_low_m,r_high_m,r_center_m,rate_bps,label"
        cells = lines[5:]
        assert len(cells) == 1
        assert cells[0].startswith("100.0,200.0,150.0,100000.0,")

    def test_json_output(self, runner, fast_config):
        res = runner.invoke(
            main, ["region", "--config", str(fast_config), "--format", "json"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["schema"] == "avlinksim.region.v1"
        assert payload["r_edges_m"] == [100.0, 200.0]
        assert len(payload["cells"]) == 1
        assert payload["cells"][0]["label"]

    def test_file_output_identical_across_reruns(self, runner, fast_config, tmp_path):
        out = tmp_path / "region.csv"
        for _ in range(2):
            res = runner.invoke(main, [
                "region", "--config", str(fast_config),
                "--out", str(out), "--quiet",
            ])
            assert res.exit_code == 0
        first = out.read_bytes()
        res = runner.invoke(main, [
            "region", "--config", str(fast_config),
            "--out", str(out), "--threads", "4", "--quiet",
        ])
        assert res.exit_code == 0
        assert out.read_bytes() == first


# ============================================================
# sweep and region: one command body
# ============================================================

SUMMARIES = {
    "sweep": f"sweep: {SWEEP_LABELS} rows (1 rates x {SWEEP_LABELS} paths)",
    "region": "region: 1 cells (1 distance bins x 1 rates)",
}


@pytest.mark.parametrize("command", ["sweep", "region"])
class TestCommandBody:
    def test_summary_line(self, runner, fast_config, tmp_path, command):
        out = tmp_path / f"{command}.csv"
        res = runner.invoke(main, [command, "--config", str(fast_config), "--out", str(out)])
        assert res.exit_code == 0
        assert res.stdout == ""
        assert res.stderr == f"{SUMMARIES[command]} -> {out}\n"

    def test_quiet_suppresses_progress(self, runner, fast_config, tmp_path, command):
        out = tmp_path / f"{command}.csv"
        res = runner.invoke(main, [
            command, "--config", str(fast_config), "--out", str(out), "--quiet",
        ])
        assert res.exit_code == 0
        assert res.stderr == ""
        assert out.read_text(encoding="utf-8").startswith(f"# avlinksim {command} v1\n")

    def test_overflowing_shadow_sigma_is_a_config_error(self, runner, tmp_path, command):
        # past 100 dB, 10^(sigma z / 10) can overflow in the desired and the
        # interferer fades alike, and the inf / inf SINR is NaN
        bad = tmp_path / "bad.yaml"
        bad.write_text("g2a_shadow_fading: true\nsf_sigma_los_db: 1000000\n",
                       encoding="utf-8")
        res = runner.invoke(main, [command, "--config", str(bad)])
        assert res.exit_code == 2
        assert res.stderr.startswith("config error: config key 'sf_sigma_los_db': "
                                     "expected a shadow sigma in [0, 100] dB")


# ============================================================
# link-budget
# ============================================================

class TestLinkBudget:
    def test_g2a_defaults(self, runner):
        res = runner.invoke(main, ["link-budget", "g2a"])
        assert res.exit_code == 0
        assert res.stdout.startswith("g2a link budget")
        for key in ("d_2d_m: 150.0", "p_los:", "pl_los_db:", "pl_nlos_db:",
                    "pl_avg_db:", "tx_array_gain_db:", "rice_k_db:",
                    "mean_snr_db:"):
            assert key in res.stdout

    def test_g2a_directly_under_the_site(self, runner):
        # the ULA element gain is sin^2 0 = 0 straight up: no signal, not a crash
        res = runner.invoke(main, ["link-budget", "g2a", "--distance-m", "0"])
        assert res.exit_code == 0
        assert "tx_array_gain_db: -inf" in res.stdout
        assert "mean_snr_db: -inf" in res.stdout

    def test_budget_is_the_simulators_link(self, runner):
        # at the configured destination distance the budget shows the same
        # channel the Monte Carlo draws from
        config = scenario.ScenarioConfig()
        links = scenario.instantiate(config, RngStream(1), config.r_ga_m).links
        r_ga = repr(config.r_ga_m)
        for args, link, keys in (
            (["g2a"], "g2a_dest", ("pl_avg_db", "rice_k_db")),
            (["hap", "--distance-m", r_ga], "h2a", ("fspl_db", "rice_k_db")),
        ):
            res = runner.invoke(main, ["link-budget", *args])
            assert res.exit_code == 0
            desired = links[link].desired
            for key, value in zip(keys, (desired.pl_db, desired.k_db)):
                assert f"  {key}: {value!r}\n" in res.stdout

    def test_g2a_negative_distance_rejected(self, runner):
        res = runner.invoke(main, ["link-budget", "g2a", "--distance-m", "-5"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["g2a", "a2a", "hap"])
    def test_non_finite_distance_is_a_usage_error(self, runner, kind, value):
        res = runner.invoke(main, ["link-budget", kind, "--distance-m", value])
        assert res.exit_code == 2
        assert "--distance-m must be finite" in res.output

    @pytest.mark.parametrize("kind", ["g2a", "a2a", "hap"])
    def test_distance_beyond_the_bound_is_a_usage_error(self, runner, kind):
        # p_los loops once per building, so 1e300 m would never return
        started = time.monotonic()
        res = runner.invoke(main, ["link-budget", kind, "--distance-m", "1e300"])
        assert time.monotonic() - started < 5.0
        assert res.exit_code == 2
        assert f"1e+06] m for {kind}, got 1e+300" in res.output
        res = runner.invoke(main, ["link-budget", kind, "--distance-m", "1e6"])
        assert res.exit_code == 0

    @pytest.mark.parametrize("kind, low", [("g2a", "0"), ("a2a", "0.001"), ("hap", "0")])
    def test_distance_below_the_bound_is_a_usage_error(self, runner, kind, low):
        # a2a at 1e-300 m formed a -5962 dB free-space loss and failed in
        # ChannelSpec; the g2a and hap offsets may be 0
        res = runner.invoke(main, ["link-budget", kind, "--distance-m", low])
        assert res.exit_code == 0
        for value in ("-1e-300", "1e-300" if kind == "a2a" else "-1"):
            res = runner.invoke(main, ["link-budget", kind, "--distance-m", value])
            assert res.exit_code == 2, value
            what = "a length" if kind == "a2a" else "a distance"
            assert f"--distance-m must be finite and {what} in [{low}, 1e+06] m for {kind}" \
                in res.output, value

    def test_building_density_beyond_the_bound_is_a_config_error(self, runner, tmp_path):
        # 5.5e8 buildings on the ray would keep p_los looping for minutes
        dense = tmp_path / "dense.yaml"
        dense.write_text("q2_per_km2: 1000000000000\ngbs_height_m: 290\n", encoding="utf-8")
        started = time.monotonic()
        res = runner.invoke(main, ["link-budget", "g2a", "--distance-m", "1e6",
                                   "--config", str(dense)])
        assert time.monotonic() - started < 5.0
        assert res.exit_code == 2
        assert res.stderr.startswith("config error: config key 'q2_per_km2'")

    def test_a2a_requires_distance(self, runner):
        res = runner.invoke(main, ["link-budget", "a2a"])
        assert res.exit_code == 2
        res = runner.invoke(main, ["link-budget", "a2a", "--distance-m", "0"])
        assert res.exit_code == 2

    def test_a2a_budget(self, runner):
        res = runner.invoke(main, ["link-budget", "a2a", "--distance-m", "400"])
        assert res.exit_code == 0
        assert "fspl_db:" in res.stdout
        assert "rice_k_db: 12.0" in res.stdout

    def test_hap_nadir_delay(self, runner):
        res = runner.invoke(main, ["link-budget", "hap"])
        assert res.exit_code == 0
        assert "nadir_offset_m: 0.0" in res.stdout
        assert "elevation_deg: 90.0" in res.stdout
        # 19.7 km of slant range at the speed of light
        assert "prop_delay_us: 65.7104736" in res.stdout

    def test_unknown_kind_rejected(self, runner):
        res = runner.invoke(main, ["link-budget", "satellite"])
        assert res.exit_code == 2
