"""Tests for configuration loading, topology instantiation, the rate sweep,
and the operating-region search."""

import builtins
import concurrent.futures
import dataclasses
import inspect
import math
import sys
import textwrap
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from avlinksim import e2e
from avlinksim import geometry as geo
from avlinksim import scenario
from avlinksim.channel import (LENGTH, MAX_DISTANCE_M, MIN_LENGTH_M, Environment, ReflectorSpec,
                               UlaSpec)
from avlinksim.e2e import BackhaulSpec, QosTarget
from avlinksim.geometry import GridSpec
from avlinksim.link import (SINR_WORK_ROWS, ChannelSpec, LinkSetup, LinkStats, RadioParams,
                            sinr_sample)
from avlinksim.mathfun import _Q_BLOCK, Interval, RngStream, _Rule
from avlinksim.queueing import DURATION_S, QueueSpec
from avlinksim.scenario import (
    CANONICAL_COMBINATIONS,
    ConfigError,
    ScenarioConfig,
    config_hash,
    instantiate,
    load_config,
    run_operating_region,
    run_rate_sweep,
)

# small but fully structured: 5 vehicles, 2 relays, 2 rates, 2 topologies
FAST = dataclasses.replace(
    ScenarioConfig(),
    n_samples=1500,
    mc_batch_size=512,
    sweep_topologies=2,
    sweep_rates_kbps=(50.0, 100.0),
    region_topologies=2,
    region_r_edges_m=(100.0, 200.0),
    region_rates_kbps=(100.0, 400.0),
    av_count=5,
    a2a_relay_count=2,
)

FAST_LABELS = (
    "DA2G", "A2A", "HAP",
    "DA2G + 1-A2A", "DA2G + 2-A2A",
    "DA2G + HAP", "DA2G + 1-A2A + HAP", "DA2G + 2-A2A + HAP",
)


LENGTH_KEYS = ("isd_m", "gbs_height_m", "av_altitude_m", "hap_altitude_m",
               "hap_gs_offset_m", "r_ga_m", "q3_m")
# each end of each length key, one key at a time. Sites, vehicles and the
# platform fly in that order, so the site height takes the low end with the
# vehicles and the platform one and two doubles above it, and the platform
# takes the high end with the vehicles and the sites one and two below it.
LENGTH_ENDS = [
    {"isd_m": MIN_LENGTH_M}, {"isd_m": MAX_DISTANCE_M, "grid_tiers": 1},
    {"gbs_height_m": MIN_LENGTH_M, "av_altitude_m": math.nextafter(MIN_LENGTH_M, 1.0),
     "hap_altitude_m": math.nextafter(math.nextafter(MIN_LENGTH_M, 1.0), 1.0)},
    {"gbs_height_m": math.nextafter(math.nextafter(MAX_DISTANCE_M, 0.0), 0.0),
     "av_altitude_m": math.nextafter(MAX_DISTANCE_M, 0.0), "hap_altitude_m": MAX_DISTANCE_M},
    *({key: end} for key in ("hap_gs_offset_m", "r_ga_m", "q3_m")
      for end in (MIN_LENGTH_M, MAX_DISTANCE_M)),
]


def _write(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def _yaml(keys: dict) -> str:
    """keys as config file text, in their order, each tuple a list; every
    number reads back as the same number."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return list(v) if isinstance(v, tuple) else v
    return yaml.safe_dump(plain(keys), sort_keys=False)


# ============================================================
# Configuration loading
# ============================================================

class TestLoadConfig:
    def test_none_gives_defaults(self):
        assert load_config(None) == ScenarioConfig()

    def test_empty_file_gives_defaults(self, tmp_path):
        assert load_config(_write(tmp_path, "")) == ScenarioConfig()

    def test_comment_only_file_gives_defaults(self, tmp_path):
        assert load_config(_write(tmp_path, "# nothing here\n")) == ScenarioConfig()

    def test_overrides_applied(self, tmp_path):
        cfg = load_config(_write(tmp_path, """\
            eps_th: 1.0e-4
            delay_threshold_ms: 20.0
            sweep_rates_kbps: [10, 20]
            av_count: 4
            service_rate_gbs_pps: null
        """))
        assert cfg.eps_th == 1e-4
        assert cfg.sweep_rates_kbps == (10.0, 20.0)
        assert cfg.av_count == 4
        assert cfg.service_rate_gbs_pps is None
        assert cfg.qos().d_max_s == pytest.approx(0.02)

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key 'bandwith_ga_hz'"):
            load_config(_write(tmp_path, "bandwith_ga_hz: 1.0\n"))

    def test_bad_probability_named(self, tmp_path):
        with pytest.raises(ConfigError, match="'p_interf'"):
            load_config(_write(tmp_path, "p_interf: 1.5\n"))

    def test_parse_error_carries_line(self, tmp_path):
        path = _write(tmp_path, "eps_th: 1.0e-5\nq1: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_root_must_be_mapping(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_config(_write(tmp_path, "- 1\n- 2\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_rice_table_requires_all_kinds(self, tmp_path):
        with pytest.raises(ConfigError, match="'rice_k_db'"):
            load_config(_write(tmp_path, "rice_k_db: {g2a: [5, 12]}\n"))

    def test_rice_pair_ordering(self, tmp_path):
        with pytest.raises(ConfigError, match="rice_k_db.g2a"):
            load_config(_write(tmp_path, """\
                rice_k_db:
                  g2a: [12, 5]
                  a2a: [12, 12]
                  g2h: [5, 15]
                  h2a: [12, 15]
            """))

    @pytest.mark.parametrize("pair", ["[4000, 4000]", "[-4000, 12]"])
    def test_rice_levels_bounded(self, tmp_path, pair):
        # 10^400 passed the check and then overflowed in sample_rician_power
        text = f"rice_k_db: {{g2a: {pair}, a2a: [12, 12], g2h: [5, 15], h2a: [12, 15]}}\n"
        with pytest.raises(ConfigError, match=r"'rice_k_db.g2a': expected a \[k_min, k_max\] "
                                              r"pair .*, each a level in \[-300, 300\] dB"):
            load_config(_write(tmp_path, text))
        flat = load_config(_write(tmp_path, "rice_k_db: {g2a: [-300, 300], a2a: [12, 12], "
                                            "g2h: [5, 15], h2a: [12, 15]}\n"))
        assert flat.rice_k_db["g2a"] == (-300.0, 300.0)

    @pytest.mark.parametrize("text, key", [
        ("hap_aperture_radius_wavelengths: 1000000000.0\n", "hap_aperture_radius_wavelengths"),
        ("isd_m: 1\ngrid_tiers: 200\n", "grid_tiers"),
    ])
    def test_work_bounded_by_the_config(self, tmp_path, text, key):
        # the Bessel quadrature's nodes grow with the aperture, and every
        # topology scans every one of the 3t^2 + 3t + 1 sites
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("value", ["-1", "180.5", "1.0e+300", ".nan"])
    def test_downtilt_is_a_zenith_angle(self, tmp_path, value):
        # a downtilt of 1e300 degrees loaded and ran
        with pytest.raises(ConfigError, match=r"'ula_downtilt_deg': expected a zenith angle "
                                              r"in \[0, 180\] degrees"):
            load_config(_write(tmp_path, f"ula_downtilt_deg: {value}\n"))
        for edge in (0.0, 180.0):
            cfg = load_config(_write(tmp_path, f"ula_downtilt_deg: {edge}\n"))
            assert cfg.ula().downtilt_deg == edge

    def test_clutter_table_length(self, tmp_path):
        with pytest.raises(ConfigError, match="'clutter_loss_db'"):
            load_config(_write(tmp_path, "clutter_loss_db: [1, 2, 3]\n"))

    def test_vehicle_must_fly_above_sites(self, tmp_path):
        with pytest.raises(ConfigError, match="'av_altitude_m'"):
            load_config(_write(tmp_path, "av_altitude_m: 10.0\n"))

    @pytest.mark.parametrize("key, value", [
        ("av_altitude_m", 10.0), ("n_samples", -5), ("fc_ghz", math.nan),
        ("interference_mode", "sometimes"), ("clutter_loss_db", [1, 2, 3]),
    ])
    def test_config_built_in_python_meets_the_file_rules(self, key, value):
        # vehicles 15 m below the sites used to run, and report paths feasible
        with pytest.raises(ConfigError, match=f"^config key '{key}'"):
            dataclasses.replace(ScenarioConfig(), **{key: value})
        with pytest.raises(ConfigError, match=f"^config key '{key}'"):
            ScenarioConfig(**{key: value})

    def test_platform_must_fly_above_vehicles(self, tmp_path):
        with pytest.raises(ConfigError, match="'hap_altitude_m'"):
            load_config(_write(tmp_path, "hap_altitude_m: 200.0\n"))

    def test_relay_count_needs_candidates(self, tmp_path):
        with pytest.raises(ConfigError, match="'a2a_relay_count'"):
            load_config(_write(tmp_path, "av_count: 2\na2a_relay_count: 3\n"))

    @pytest.mark.parametrize("text", [
        "isd_m: .inf\n",
        "tx_power_av_dbm: .nan\n",
        "region_r_edges_m: [0, .inf]\n",
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, text):
        key = text.split(":")[0]
        with pytest.raises(ConfigError, match=key):
            load_config(_write(tmp_path, text))

    def test_region_edges_must_increase(self, tmp_path):
        with pytest.raises(ConfigError, match="'region_r_edges_m'"):
            load_config(_write(tmp_path, "region_r_edges_m: [100, 100]\n"))

    def test_interference_mode_choices(self, tmp_path):
        with pytest.raises(ConfigError, match="'interference_mode'"):
            load_config(_write(tmp_path, "interference_mode: sometimes\n"))

    def test_every_default_passes_its_rule_unchanged(self, tmp_path):
        # the rules store each declared default as it is, and writing the
        # defaults into a config file leaves the config as it is
        config = ScenarioConfig()
        for f in dataclasses.fields(ScenarioConfig):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            got = getattr(config, f.name)
            assert got == default and type(got) is type(default), f.name
        loaded = load_config(_write(tmp_path, _yaml(dataclasses.asdict(config))))
        assert loaded == config
        assert all(type(getattr(loaded, f.name)) is type(getattr(config, f.name))
                   for f in dataclasses.fields(ScenarioConfig))

    @pytest.mark.parametrize("text", [
        "eps_q: 0\n",       # QueueSpec needs a violation probability in (0, 1)
        "eps_q: 1\n",
        "eps_b: 1\n",       # BackhaulSpec needs a loss in [0, 1)
        "q1: 5.0\n",        # built-up land fraction in (0, 1]
        "q1: 0\n",
    ])
    def test_rules_match_the_model_intervals(self, tmp_path, text):
        key = text.split(":")[0]
        with pytest.raises(ConfigError, match=f"config key '{key}': expected"):
            load_config(_write(tmp_path, text))

    def test_integer_beyond_the_float_range_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="'isd_m': expected a length"):
            load_config(_write(tmp_path, f"isd_m: {10 ** 400}\n"))

    @pytest.mark.parametrize("text", [
        "eps_th: 0.999999\neps_q: 0.999999\n",
        "eps_th: 1.0e-300\neps_q: 1.0e-300\n",
        "eps_b: 0\np_interf: 0\n",
        "eps_b: 0.999999\np_interf: 1\ninterference_mode: bernoulli\n",
        "q1: 1\nsf_sigma_los_db: 0\nsf_sigma_nlos_db: 0\ng2a_shadow_fading: true\n",
        "grid_tiers: 0\nula_elements: 1\ninterferer_count: 1\n",
        "master_seed: 0\n",
        f"master_seed: {2 ** 64 - 1}\n",
        "rice_k_db: {g2a: [0, 0], a2a: [-5, -5], g2h: [5, 5], h2a: [30, 30]}\n",
        "av_count: 2\na2a_relay_count: 1\nnoise_density_dbm_hz: 0\n",
    ])
    def test_accepted_extremes_build_the_model(self, tmp_path, text):
        cfg = load_config(_write(tmp_path, text))
        for build in (cfg.qos, cfg.backhaul, cfg.environment, cfg.ula, cfg.reflector,
                      cfg.grid):
            build()
        for node in ("gbs", "av", "hap", "gs"):
            cfg.queue(node)
        topo = instantiate(cfg, RngStream(cfg.master_seed), cfg.r_ga_m)
        # every site but the serving one sends an h2a side-lobe beam
        assert len(topo.links["h2a"].interferers) == 3 * cfg.grid_tiers * (cfg.grid_tiers + 1)

    @pytest.mark.parametrize("key, view, name", [
        ("q3_m", ScenarioConfig.environment, "q3_m"),
        ("clutter_loss_db", ScenarioConfig.environment, "clutter_loss_table_db"),
        ("isd_m", ScenarioConfig.grid, "isd_m"),
        ("arrival_rate_gbs_pps", lambda c: c.queue("gbs"), "arrival_rate_pps"),
        ("queue_delay_bound_ms", lambda c: c.queue("gbs"), "delay_bound_s"),
        ("backhaul_delay_ms", ScenarioConfig.backhaul, "delay_s"),
        ("delay_threshold_ms", ScenarioConfig.qos, "d_max_s"),
        ("bandwidth_gh_hz", lambda c: c.radio("g2h"), "bandwidth_hz"),
        ("tx_power_gs_dbm", lambda c: c.radio("g2h"), "tx_power_w"),
        ("noise_density_dbm_hz", lambda c: c.radio("g2h"), "noise_density_w_hz"),
    ])
    def test_nan_fails_the_rule_and_the_model(self, key, view, name):
        # NaN compares False, so every check must be written to fail on it:
        # the key's rule, and that of the model field it feeds (NaN in any unit)
        value = (math.nan,) * 9 if key == "clutter_loss_db" else math.nan
        with pytest.raises(ConfigError, match=f"^config key '{key}': expected"):
            ScenarioConfig(**{key: value})
        with pytest.raises(ValueError, match=f"^{name}: expected"):
            dataclasses.replace(view(ScenarioConfig()), **{name: value})

    @pytest.mark.parametrize("key", ["sf_sigma_los_db", "sf_sigma_nlos_db"])
    def test_shadow_sigma_above_100_db_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"'{key}': expected a shadow sigma in"):
            load_config(_write(tmp_path, f"g2a_shadow_fading: true\n{key}: 1000000\n"))

    def test_largest_shadow_sigma_draws_finite_sinr(self, tmp_path):
        # shadowed desired and interferer fades at 100 dB stay finite, so the
        # SINR is never inf / inf
        cfg = load_config(_write(tmp_path, "g2a_shadow_fading: true\nsf_sigma_los_db: 100\n"
                                           "n_samples: 4096\nmc_batch_size: 4096\n"))
        setup = instantiate(cfg, RngStream(cfg.master_seed), cfg.r_ga_m).links["g2a_dest"]
        assert setup.desired.sf_sigma_db == 100.0
        # the one batch of a link item on this stream, in a work item's buffer
        gamma = sinr_sample(setup, RngStream(cfg.master_seed).child(0).generator(),
                            size=cfg.n_samples, work=np.empty((SINR_WORK_ROWS, cfg.n_samples)))
        assert np.all(gamma >= 0.0)

    def test_every_field_declares_a_rule(self):
        for f in dataclasses.fields(ScenarioConfig):
            rule = f.metadata.get("rule")
            assert isinstance(rule, (_Rule, Interval)), f.name
            # every key that takes numbers states them as an interval, which
            # TestEveryInterval reads
            if f.name not in ("interference_mode", "g2a_shadow_fading", "pl_mixture"):
                assert isinstance(_interval(f.name), Interval), f.name

    def test_batch_buffer_bounded(self):
        # a worker thread's buffer is (SINR_WORK_ROWS, min(mc_batch_size,
        # n_samples)) float64, so a batch above the draws costs only the draws
        most = scenario._MAX_BATCH_BYTES // (SINR_WORK_ROWS * 8)
        assert ScenarioConfig(mc_batch_size=10 ** 8).mc_batch_size == 10 ** 8
        assert ScenarioConfig(n_samples=most, mc_batch_size=most)
        with pytest.raises(ConfigError, match="'mc_batch_size': a worker thread's batch "
                                              f"buffer.*at most {1 << 30} bytes"):
            ScenarioConfig(n_samples=most + 1, mc_batch_size=most + 1)

    def test_building_density_bounded(self, tmp_path):
        # p_los loops once per building the ray crosses
        assert load_config(_write(tmp_path, "q2_per_km2: 1000000\n")).q2_per_km2 == 1e6
        with pytest.raises(ConfigError, match="'q2_per_km2': expected a building density in "
                                              r"\(0, 1e\+06\] per km\^2"):
            load_config(_write(tmp_path, "q2_per_km2: 1000001\n"))

    LEVEL_KEYS = ("tx_power_av_dbm", "tx_power_gbs_dbm", "tx_power_hap_dbm", "tx_power_gs_dbm",
                  "noise_figure_av_db", "noise_figure_hap_db", "noise_density_dbm_hz",
                  "av_antenna_gain_dbi", "gs_antenna_gain_dbi", "ula_element_gain_dbi",
                  "hap_max_gain_dbi")

    @pytest.mark.parametrize("value", [4000, -4000])
    @pytest.mark.parametrize("key", LEVEL_KEYS)
    def test_level_whose_linear_value_overflows_rejected(self, tmp_path, key, value):
        # 10^400 overflows a double and 10^-400 rounds to 0, which used to
        # pass the config check and crash the run
        with pytest.raises(ConfigError, match=rf"'{key}': expected a level in \[-300, 300\] dB"):
            load_config(_write(tmp_path, f"{key}: {value}\n"))

    @pytest.mark.parametrize("signal, noise", [(300, -300), (-300, 300), (300, 300)])
    def test_extreme_levels_run(self, signal, noise):
        noise_keys = {"noise_figure_av_db", "noise_figure_hap_db", "noise_density_dbm_hz"}
        config = dataclasses.replace(FAST, sweep_topologies=1, **{
            key: float(noise if key in noise_keys else signal) for key in self.LEVEL_KEYS})
        for row in run_rate_sweep(config).rows:
            assert 0.0 <= row.eps_e2e <= 1.0 and row.delay_s > 0.0, row

    @pytest.mark.parametrize("value", ["1.0e-300", "1.0e-20", "1.0e-16", "1.0e+16"])
    def test_frequency_beyond_the_level_bound_rejected(self, tmp_path, value):
        # 20 log10(fc_ghz) enters every path loss: at 1e-300 GHz a -6000 dB
        # loss overflowed the link's gain in the middle of the run
        with pytest.raises(ConfigError, match=r"'fc_ghz': expected a frequency in "
                                              r"\[1e-15, 1e\+15\] GHz"):
            load_config(_write(tmp_path, f"fc_ghz: {value}\n"))

    @pytest.mark.parametrize("text, key", [
        ("r_ga_m: 1000000000.0\n", "r_ga_m"),
        ("region_r_edges_m: [0, 2000000]\n", "region_r_edges_m"),
        ("isd_m: 500000\ngrid_tiers: 3\n", "grid_tiers"),
    ])
    def test_distance_beyond_the_los_bound_rejected(self, tmp_path, text, key):
        # p_los loops once per building the ray crosses, as link-budget's bound says
        with pytest.raises(ConfigError, match=f"'{key}'.*1e\\+06"):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("key", ["bandwidth_ga_hz", "bandwidth_aa_hz", "bandwidth_ha_hz",
                                     "bandwidth_gh_hz"])
    def test_bandwidth_whose_noise_power_is_no_normal_double_rejected(self, key):
        # a noise power that rounds to 0 W divided every SINR draw by zero
        with pytest.raises(ConfigError, match=f"config key '{key}': noise_power_w: expected a "
                                              r"noise power .* in \[2.22507e-308, "):
            ScenarioConfig(**{key: 5e-324})

    def test_lowest_rate_keeps_the_slot_finite(self):
        # at 5e-324 kbps packet_bits / rate overflowed and the DA2G delay was infinite
        low = _interval("sweep_rates_kbps").low
        config = ScenarioConfig(packet_bits=scenario._MAX_PACKET_BITS, sweep_rates_kbps=[low],
                                n_samples=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_rate_sweep(config).rows
        assert all(math.isfinite(row.delay_s) and row.eps_e2e < 1.0 for row in rows)
        with pytest.raises(ConfigError, match="'sweep_rates_kbps': expected"):
            ScenarioConfig(sweep_rates_kbps=[math.nextafter(low, 0.0)])

    def test_distance_at_the_los_bound_accepted(self, tmp_path):
        cfg = load_config(_write(tmp_path, "r_ga_m: 1000000\nregion_r_edges_m: [0, 1000000]\n"
                                           "isd_m: 250000\ngrid_tiers: 4\n"))
        assert (cfg.r_ga_m, cfg.region_r_edges_m[-1], cfg.isd_m * cfg.grid_tiers) == (1e6,) * 3

    @pytest.mark.parametrize("key", LENGTH_KEYS)
    def test_lengths_share_one_interval(self, key):
        assert _rule(key) is LENGTH
        for value in (MIN_LENGTH_M, MAX_DISTANCE_M):
            assert _accepts(key, value)
        for value in (math.nextafter(MIN_LENGTH_M, 0.0), math.nextafter(MAX_DISTANCE_M, math.inf),
                      0, 1e-300, 1e300):
            with pytest.raises(ConfigError, match=f"config key '{key}': expected a length "
                                                  r"in \[0.001, 1e\+06\] m"):
                ScenarioConfig(**{key: value})

    @pytest.mark.parametrize("ends", LENGTH_ENDS)
    def test_lengths_at_the_ends_run(self, ends):
        # within the interval every path loss and p_los stay finite
        config = ScenarioConfig(**{"n_samples": 200, "mc_batch_size": 200,
                                   "sweep_rates_kbps": [100], "av_count": 4,
                                   "a2a_relay_count": 1, **ends})
        for row in run_rate_sweep(config).rows:
            assert 0.0 <= row.eps_e2e <= 1.0 and math.isfinite(row.eps_std_error), row
            assert row.delay_s > 0.0, row      # infinite where no path delivers

    @pytest.mark.parametrize("text, key, line", [
        ("n_samples: 200\nn_samples: 300\n", "n_samples", 2),
        ("eps_th: 1.0e-3\nn_samples: 200\neps_th: 1.0e-4\n", "eps_th", 3),
        ("rice_k_db:\n  g2a: [5, 12]\n  a2a: [12, 12]\n  g2a: [1, 2]\n", "g2a", 4),
    ])
    def test_repeated_key_rejected(self, tmp_path, text, key, line):
        with pytest.raises(ConfigError, match=f"line {line}: key '{key}' given twice"):
            load_config(_write(tmp_path, text))

    def test_config_is_frozen(self):
        cfg = ScenarioConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.eps_th = 1e-3


# ============================================================
# Every interval a config rule states
# ============================================================

def _rule(key):
    """The rule that key's field declares."""
    return ScenarioConfig.__dataclass_fields__[key].metadata["rule"]


def _interval(key):
    """The interval of key's numbers: its rule, or a list, table or nullable
    rule's interval of each number (None for the other rules)."""
    rule = _rule(key)
    return rule if isinstance(rule, Interval) else rule.interval


def _accepts(key, value) -> bool:
    """Whether key's rule, alone, accepts value."""
    try:
        _rule(key).check(key, value)
    except ValueError:
        return False
    return True


def _both_routes(tmp_path, keys: dict) -> ScenarioConfig:
    """keys as a config by both routes, a config file through load_config
    and the constructor: both give the same config, or raise the same
    ConfigError."""
    try:
        config = ScenarioConfig(**keys)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as loaded:
            load_config(_write(tmp_path, _yaml(keys)))
        assert str(loaded.value) == str(exc)
        raise
    assert load_config(_write(tmp_path, _yaml(keys))) == config
    return config


DEFAULTS = ScenarioConfig()
HEIGHTS = ("gbs_height_m", "av_altitude_m", "hap_altitude_m")
INTERVAL_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig) if _interval(f.name)]
# a tiny run: two rates, one topology, one region column
TINY = {"n_samples": 200, "sweep_rates_kbps": [100.0, 200.0], "region_topologies": 1,
        "region_r_edges_m": [140.0, 160.0], "region_rates_kbps": [100.0]}
# keys that set only how long a run takes: a value above the tiny run's is
# checked by its rule alone, as the run would take as long as the value asks
RUN_LENGTH = {"n_samples": 200, "sweep_topologies": 1, "region_topologies": 1}
# the value of a list or table key that holds the number v
HOLDING = {
    "clutter_loss_db": lambda v: [v] * 9,
    "rice_k_db": lambda v: dict.fromkeys(DEFAULTS.rice_k_db, [v, v]),
    "region_r_edges_m": lambda v: [v, MAX_DISTANCE_M] if v < 1.0 else [0.0, v],
    # and the tiny run's first rate, so the run has two rates inside the interval
    "sweep_rates_kbps": lambda v: [v, TINY["sweep_rates_kbps"][0]],
    "region_rates_kbps": lambda v: [v],
}
# bandwidth key -> the link kind of its radio
BANDWIDTHS = {keys[0]: kind for kind, keys in scenario._RADIO_KEYS.items()}


def _next(x, toward, kind):
    """The next number of kind after x toward toward."""
    return x + (1 if toward > x else -1) if kind is int else math.nextafter(x, toward)


def _ends(interval):
    """(number, accepted) at each end of interval: the end, and the next
    numbers inside and outside it. Next to an infinite end the largest
    finite number is inside, and the next one is outside (an int beyond the
    float range counts as infinite)."""
    kind = interval.kind
    for end, closed, out in ((interval.low, interval.ends[0] == "[", -math.inf),
                             (interval.high, interval.ends[1] == "]", math.inf)):
        yield end, closed
        if math.isinf(end):
            end = kind(math.copysign(sys.float_info.max, end))
            yield end, True
        else:
            yield _next(end, -out, kind), True
        yield _next(end, out, kind), False


def _inside(interval):
    """Numbers drawn from inside interval."""
    low, high = (None if math.isinf(b) else b for b in (interval.low, interval.high))
    if interval.kind is int:
        return st.integers(low + (interval.ends[0] == "("),
                           int(sys.float_info.max) if high is None
                           else high - (interval.ends[1] == ")"))
    return st.floats(low, high, exclude_min=low is not None and interval.ends[0] == "(",
                     exclude_max=high is not None and interval.ends[1] == ")",
                     allow_nan=False, allow_infinity=False)


def _tiny_run_keys(key, value) -> dict:
    """TINY with key at value, and each key that a rule across keys ties to
    it moved the least the rule asks: the heights keep their order, the grid
    its extent, and the relays their candidates."""
    keys = {**TINY, key: value}
    if key in HEIGHTS:
        at = HEIGHTS.index(key)
        for lower in reversed(range(at)):
            keys[HEIGHTS[lower]] = min(getattr(DEFAULTS, HEIGHTS[lower]),
                                       math.nextafter(keys[HEIGHTS[lower + 1]], 0.0))
        for upper in range(at + 1, len(HEIGHTS)):
            keys[HEIGHTS[upper]] = max(getattr(DEFAULTS, HEIGHTS[upper]),
                                       math.nextafter(keys[HEIGHTS[upper - 1]], math.inf))
    if key == "isd_m":
        keys["grid_tiers"] = min(DEFAULTS.grid_tiers, int(MAX_DISTANCE_M // value))
    if key == "av_count":
        keys["a2a_relay_count"] = min(DEFAULTS.a2a_relay_count, value - 1)
    return keys


def _check(tmp_path, key, number, accepted):
    """A value of key that holds number, given by both routes (_both_routes):
    rejected by name, with the rule's interval, or else a tiny run of it
    gives finite rows."""
    value = HOLDING.get(key, lambda v: v)(number)
    if not accepted:
        with pytest.raises(ConfigError) as rejected:
            _both_routes(tmp_path, {key: value})
        assert f"config key '{key}" in str(rejected.value), number
        assert f"expected {_interval(key)}" in str(rejected.value) or \
            f"each {_interval(key)}" in str(rejected.value), number
        return
    keys = _tiny_run_keys(key, value)
    if not all(_accepts(k, v) for k, v in keys.items()):
        # no config holds the value: the heights have no room to keep their order
        with pytest.raises(ConfigError, match="must exceed|expected a length"):
            _both_routes(tmp_path, keys)
        return
    if key in BANDWIDTHS:
        try:
            dataclasses.replace(DEFAULTS.radio(BANDWIDTHS[key]), bandwidth_hz=value)
        except ValueError:
            # bandwidth x noise density x noise figure is no normal double
            with pytest.raises(ConfigError, match=f"'{key}': noise_power_w: expected"):
                _both_routes(tmp_path, keys)
            return
    config = _both_routes(tmp_path, keys)
    if any(getattr(config, k) > size for k, size in RUN_LENGTH.items()):
        return
    if key.startswith("region_"):
        labels = {cell.label for cell in run_operating_region(config).cells}
        assert labels <= {*CANONICAL_COMBINATIONS, "none"}, number
        return
    rows = run_rate_sweep(config).rows
    for row in rows:
        assert 0.0 <= row.eps_e2e <= 1.0 and row.delay_s > 0.0, (number, row)
        assert not math.isnan(row.eps_std_error + row.delay_std_error), (number, row)
    # the same draws at the higher rate: no label's error falls
    eps = {}
    for row in rows:
        eps.setdefault(row.rate_bps, {})[row.label] = row.eps_e2e
    low, high = eps[min(eps)], eps[max(eps)]
    assert all(high[label] >= low[label] for label in low), (number, low, high)


class TestEveryInterval:
    """One key at a time, the others at their defaults: each end of its
    rule's interval, the next numbers inside and outside it, and draws from
    inside, each given by a config file and by the constructor. A value the
    config accepts runs, and one it rejects is named alike by both."""

    @pytest.mark.parametrize("key", INTERVAL_KEYS)
    def test_accepted_values_run_and_others_are_named(self, tmp_path, key):
        interval = _interval(key)
        for number, accepted in _ends(interval):
            _check(tmp_path, key, number, accepted)

        @settings(max_examples=3, derandomize=True, deadline=None)
        @given(_inside(interval))
        def inside(number):
            _check(tmp_path, key, number, True)

        inside()


# ============================================================
# Every interval a model field declares
# ============================================================

_DESIRED = ChannelSpec(pl_db=90.0, tx_gain=1.0, rx_gain=1.0, k_db=10.0)
_RADIO = RadioParams(4e5, 0.2, 4e-21)
# each model class, with a value for each field that has no default
MODELS = {
    RadioParams: {"bandwidth_hz": 4e5, "tx_power_w": 0.2, "noise_density_w_hz": 4e-21},
    ChannelSpec: {"pl_db": 90.0, "tx_gain": 1.0, "rx_gain": 1.0, "k_db": 10.0},
    LinkSetup: {"desired": _DESIRED, "radio": _RADIO},
    Environment: {}, UlaSpec: {}, ReflectorSpec: {}, GridSpec: {},
    QueueSpec: {"arrival_rate_pps": 1000.0, "delay_bound_s": 3e-4, "violation_prob": 1e-7},
    BackhaulSpec: {}, QosTarget: {"eps_th": 1e-5, "d_max_s": 1e-2}, RngStream: {"seed": 1},
}
# the fields whose rule states an interval: itself, or that of a list or nullable rule
MODEL_FIELDS = [pytest.param(model, f, id=f"{model.__name__}.{f.name}") for model in MODELS
                for f in dataclasses.fields(model)
                if isinstance(f.metadata.get("rule"), Interval)
                or getattr(f.metadata.get("rule"), "interval", None)]
# the value of a list field that holds the number v
MODEL_HOLDING = {"clutter_loss_table_db": lambda v: (v,) * 9}
# the radio's noise power is the product of these two and the noise figure,
# so a probe of one takes the reciprocal of the other
NOISE_FACTORS = {"bandwidth_hz": "noise_density_w_hz", "noise_density_w_hz": "bandwidth_hz"}
# config key -> the model field it feeds in the same unit
SHARED = {
    "q1": (Environment, "q1"), "q2_per_km2": (Environment, "q2"), "q3_m": (Environment, "q3_m"),
    "sf_sigma_los_db": (Environment, "sf_sigma_los_db"),
    "sf_sigma_nlos_db": (Environment, "sf_sigma_nlos_db"),
    "clutter_loss_db": (Environment, "clutter_loss_table_db"),
    "ula_elements": (UlaSpec, "n_elements"), "ula_downtilt_deg": (UlaSpec, "downtilt_deg"),
    "ula_element_gain_dbi": (UlaSpec, "element_gain_max_dbi"),
    "hap_max_gain_dbi": (ReflectorSpec, "max_gain_dbi"),
    "hap_aperture_radius_wavelengths": (ReflectorSpec, "aperture_radius_wavelengths"),
    "isd_m": (GridSpec, "isd_m"), "grid_tiers": (GridSpec, "tiers"),
    "gbs_height_m": (GridSpec, "bs_height_m"),
    **{key: (RadioParams, "bandwidth_hz") for key in BANDWIDTHS},
    "noise_figure_av_db": (RadioParams, "noise_figure_db"),
    "noise_figure_hap_db": (RadioParams, "noise_figure_db"),
    "p_interf": (LinkSetup, "p_interf"), "interference_mode": (LinkSetup, "mode"),
    "eps_b": (BackhaulSpec, "eps"),
    "eps_th": (QosTarget, "eps_th"), "eps_q": (QueueSpec, "violation_prob"),
    **{keys[0]: (QueueSpec, "arrival_rate_pps") for keys in scenario._QUEUE_KEYS.values()},
    **{keys[1]: (QueueSpec, "service_rate_pps") for keys in scenario._QUEUE_KEYS.values()},
    "master_seed": (RngStream, "seed"),
}
# model -> the config view that builds it, from a key for each of its fields
VIEWS = {Environment: ScenarioConfig.environment, UlaSpec: ScenarioConfig.ula,
         ReflectorSpec: ScenarioConfig.reflector, GridSpec: ScenarioConfig.grid}
# the keys whose default is their model field's: each key of a view, eps_b, the
# interference mode and the service rates
VIEW_KEYS = [key for key, (model, _) in SHARED.items() if model in VIEWS]
FIELD_DEFAULT_KEYS = [*VIEW_KEYS, "eps_b", "interference_mode",
                      *dict.fromkeys(keys[1] for keys in scenario._QUEUE_KEYS.values())]
# a value of each view key inside its interval, other than its default
OTHER = {
    "q1": 0.5, "q2_per_km2": 300.0, "q3_m": 15.0, "sf_sigma_los_db": 3.0,
    "sf_sigma_nlos_db": 7.0, "clutter_loss_db": [float(i) for i in range(1, 10)],
    "ula_elements": 4, "ula_downtilt_deg": 95.0, "ula_element_gain_dbi": 5.0,
    "hap_max_gain_dbi": 30.0, "hap_aperture_radius_wavelengths": 5.0,
    "isd_m": 400.0, "grid_tiers": 2, "gbs_height_m": 30.0,
}


class TestKeysDeclaredByTheirField:
    """A key that feeds a model field in its unit is declared by that field:
    it takes the field's default, and the view of its model reads it."""

    @pytest.mark.parametrize("key", FIELD_DEFAULT_KEYS)
    def test_config_default_is_its_fields(self, key):
        model, name = SHARED[key]
        assert ScenarioConfig.__dataclass_fields__[key].metadata["feeds"] == (model, name)
        default, want = getattr(ScenarioConfig(), key), model.__dataclass_fields__[name].default
        assert default == want and type(default) is type(want), (default, want)

    @pytest.mark.parametrize("model", VIEWS)
    def test_view_at_defaults_is_the_models_default(self, model):
        # and every field of the model has its key
        assert {name for m, name in SHARED.values() if m is model} \
            == {f.name for f in dataclasses.fields(model)}
        assert VIEWS[model](ScenarioConfig()) == model()

    @pytest.mark.parametrize("key", VIEW_KEYS)
    def test_view_key_reaches_its_field(self, key):
        model, name = SHARED[key]
        cfg = ScenarioConfig(**{key: OTHER[key]})
        value = getattr(cfg, key)
        assert value != getattr(ScenarioConfig(), key)
        # that field takes the value, and every other field keeps its default
        assert VIEWS[model](cfg) == dataclasses.replace(model(), **{name: value})


def _numpy(number, kind):
    """number as a numpy scalar of kind, or None where none holds it."""
    if kind is int:
        return np.int64(number) if abs(number) < 2 ** 63 else None
    return np.float64(number)


class TestEveryModelInterval:
    """One field at a time, the others at their defaults: each end of the
    interval a model field's rule states, the next numbers inside and
    outside it, and NaN. A value inside constructs, as the same number does
    as a numpy scalar, and one outside raises a ValueError that names the
    field and its rule."""

    @pytest.mark.parametrize("model, f", MODEL_FIELDS)
    def test_accepted_values_construct_and_others_are_named(self, model, f):
        rule = f.metadata["rule"]
        interval = rule if isinstance(rule, Interval) else rule.interval
        for number, accepted in [*_ends(interval), (math.nan, False)]:
            for value in (number, _numpy(number, interval.kind)):
                if value is None:
                    continue
                kwargs = {**MODELS[model], f.name: MODEL_HOLDING.get(f.name, lambda v: v)(value)}
                if accepted and f.name in NOISE_FACTORS and model is RadioParams:
                    kwargs[NOISE_FACTORS[f.name]] = min(1.0 / number, sys.float_info.max)
                if accepted:
                    model(**kwargs)
                    continue
                with pytest.raises(ValueError) as rejected:
                    model(**kwargs)
                assert str(rejected.value).startswith(f"{f.name}: expected {rule}, got "), \
                    (number, str(rejected.value))

    def test_every_bounded_model_is_probed(self):
        assert {p.values[0] for p in MODEL_FIELDS} == set(MODELS)

    @pytest.mark.parametrize("key", SHARED)
    def test_config_key_takes_its_fields_rule(self, key):
        # the same object, so the config accepts exactly what the model does
        model, name = SHARED[key]
        assert _rule(key) is model.__dataclass_fields__[name].metadata["rule"]

    def test_durations_are_the_seconds_image_of_the_config_interval(self):
        ms = scenario._DURATION
        for model, name in ((QueueSpec, "delay_bound_s"), (BackhaulSpec, "delay_s"),
                            (QosTarget, "d_max_s")):
            assert model.__dataclass_fields__[name].metadata["rule"] is DURATION_S
        for key in ("delay_threshold_ms", "backhaul_delay_ms", "queue_delay_bound_ms"):
            assert _interval(key) is ms
        # the lowest millisecond value the config accepts is the lowest whose
        # value in seconds the models accept
        assert ms.low * 1e-3 in DURATION_S
        assert math.nextafter(ms.low, 0.0) * 1e-3 not in DURATION_S

    @pytest.mark.parametrize("build, name", [
        (lambda: UlaSpec(10 ** 31), "n_elements"),
        (lambda: UlaSpec(10 ** 400), "n_elements"),       # an OverflowError in ula_gain
        (lambda: QueueSpec(1000.0, 3e-4, 1e-7, service_rate_pps=0.0), "service_rate_pps"),
        (lambda: QueueSpec(1000.0, 5e-324, 1e-7), "delay_bound_s"),   # an infinite bandwidth
        (lambda: GridSpec(isd_m=1e-300), "isd_m"),
        (lambda: GridSpec(bs_height_m=-5), "bs_height_m"),
        (lambda: Environment(clutter_loss_table_db=(math.inf,) * 9), "clutter_loss_table_db"),
        (lambda: RadioParams(math.inf, 0.2, 4e-21), "bandwidth_hz"),
        (lambda: BackhaulSpec(delay_s=0.0), "delay_s"),
        (lambda: RadioParams(5e-324, 0.2, 4e-21), "noise_power_w"),     # divided every SINR by 0
    ])
    def test_input_the_config_rejects_is_rejected_by_name(self, build, name):
        # each was accepted by its model class while its config key refused it
        with pytest.raises(ValueError, match=f"^{name}: expected "):
            build()


class TestConfigHash:
    def test_stable(self):
        a = config_hash(ScenarioConfig())
        b = config_hash(ScenarioConfig())
        assert a == b
        assert len(a) == 64
        assert all(c in "0123456789abcdef" for c in a)

    def test_sensitive_to_any_field(self):
        base = config_hash(ScenarioConfig())
        assert config_hash(dataclasses.replace(ScenarioConfig(), master_seed=2)) != base
        assert config_hash(dataclasses.replace(ScenarioConfig(), eps_th=2e-5)) != base


# ============================================================
# Topology instantiation
# ============================================================

def _placed(config, stream):
    """The grid and the background vehicles that the placement step puts
    on it from stream."""
    sites = geo.hex_grid(config.grid())
    return sites, scenario._place_background(config, sites, stream)


def _destination(config, r_ga_m):
    return geo.NodePose(0, r_ga_m, 0.0, config.av_altitude_m)


class TestInstantiate:
    def test_reference_layout(self):
        config = ScenarioConfig()
        sites, background = _placed(config, RngStream(7))
        assert len(sites) == 37
        assert [b.id for b in background] == list(range(1, 10))
        assert all(b.altitude == 300.0 for b in background)
        # the destination at (150, 0) m and 300 m up, served by the center site
        topo = instantiate(config, RngStream(7), config.r_ga_m)
        assert topo.links["g2a_dest"] == scenario._g2a_link(
            sites[0], _destination(config, 150.0), sites, config)
        assert sum(name.startswith("a2a_") for name in topo.links) == 3

    @pytest.mark.parametrize("r_ga_m", [math.nan, math.inf, -1.0, 1e300,
                                        math.nextafter(1e6, math.inf), True])
    def test_destination_distance_outside_its_interval_is_named(self, r_ga_m):
        # 1e300 used to build links with an 8 619 dB path loss, and NaN to
        # fail inside p_los naming no input
        with pytest.raises(ValueError, match=r"^r_ga_m: expected a distance in \[0, 1e\+06\] m"):
            instantiate(ScenarioConfig(), RngStream(7), r_ga_m)

    def test_destination_at_the_serving_site_is_placed(self):
        topo = instantiate(ScenarioConfig(), RngStream(7), 0.0)
        assert topo.d_h2a_m == ScenarioConfig().hap_altitude_m - ScenarioConfig().av_altitude_m

    def test_topology_is_what_composition_reads(self):
        assert [f.name for f in dataclasses.fields(scenario.Topology)] == [
            "links", "d_g2h_m", "d_h2a_m"]

    def test_link_catalog_order(self):
        topo = instantiate(ScenarioConfig(), RngStream(7), 150.0)
        assert list(topo.links) == [
            "g2a_dest", "g2a_relay_1", "a2a_1", "g2a_relay_2", "a2a_2",
            "g2a_relay_3", "a2a_3", "g2h", "h2a",
        ]

    def test_interferer_counts(self):
        topo = instantiate(ScenarioConfig(), RngStream(7), 150.0)
        assert len(topo.links["g2a_dest"].interferers) == 6
        assert len(topo.links["h2a"].interferers) == 36
        assert topo.links["g2h"].interferers == ()

    def test_each_link_takes_its_kinds_rice_range(self, tmp_path):
        # flat ranges, one K per kind, so the elevation of a channel drops out
        cfg = load_config(_write(tmp_path, "rice_k_db: {g2a: [0, 0], a2a: [-5, -5], "
                                           "g2h: [5, 5], h2a: [30, 30]}\n"))
        kinds = {"g2a": 0.0, "a2a": -5.0, "g2h": 5.0, "h2a": 30.0}
        for name, setup in instantiate(cfg, RngStream(7), cfg.r_ga_m).links.items():
            k_db = kinds[name.split("_")[0]]
            channels = [setup.desired, *setup.interferers]
            assert [c.k_db for c in channels] == [k_db] * len(channels), name

    def test_relays_are_the_nearest_background_vehicles(self):
        config = ScenarioConfig()
        sites, background = _placed(config, RngStream(7))
        destination = _destination(config, config.r_ga_m)
        relays = sorted(background, key=lambda b: geo.distance_3d(b, destination))[:3]
        assert geo.distance_3d(relays[0], destination) >= 1.0
        links = instantiate(config, RngStream(7), config.r_ga_m).links
        for m, relay in enumerate(relays, start=1):
            assert links[f"g2a_relay_{m}"] == scenario._g2a_link(
                geo.serving_bs(relay, sites), relay, sites, config)
            assert links[f"a2a_{m}"] == scenario._a2a_link(relay, destination, background,
                                                           config)

    def test_relay_excluded_from_own_interferers(self):
        cfg = dataclasses.replace(ScenarioConfig(), av_count=3, a2a_relay_count=2)
        topo = instantiate(cfg, RngStream(7), cfg.r_ga_m)
        # two background vehicles, both are relays; each relay's link sees
        # only the other vehicle as a potential interferer
        assert len(topo.links["a2a_1"].interferers) == 1
        assert len(topo.links["a2a_2"].interferers) == 1

    def test_radio_parameters(self):
        topo = instantiate(ScenarioConfig(), RngStream(7), 150.0)
        assert topo.links["g2a_dest"].radio.bandwidth_hz == 0.4e6
        assert topo.links["g2h"].radio.bandwidth_hz == 0.5e6
        assert topo.links["g2a_dest"].radio.tx_power_w == pytest.approx(
            10.0 ** 1.6, rel=1e-12
        )
        assert topo.links["a2a_1"].radio.tx_power_w == pytest.approx(
            10.0 ** -0.7, rel=1e-12
        )

    def test_feeder_distances(self):
        topo = instantiate(ScenarioConfig(), RngStream(7), 150.0)
        assert topo.d_g2h_m == pytest.approx(20615.528128088302749, rel=1e-14)
        assert topo.d_h2a_m == math.hypot(150.0, 0.0, 20000.0 - 300.0)

    def test_deterministic_per_stream(self):
        config = ScenarioConfig()
        assert _placed(config, RngStream(7)) == _placed(config, RngStream(7))
        assert instantiate(config, RngStream(7), 150.0) == instantiate(
            config, RngStream(7), 150.0)

    def test_seed_changes_layout(self):
        config = ScenarioConfig()
        assert _placed(config, RngStream(7))[1] != _placed(config, RngStream(8))[1]

    def test_distance_override(self):
        config = ScenarioConfig()
        sites = geo.hex_grid(config.grid())
        topo = instantiate(config, RngStream(7), 60.0)
        assert topo.d_h2a_m == math.hypot(60.0, 0.0, 20000.0 - 300.0)
        assert topo.links["g2a_dest"] == scenario._g2a_link(
            sites[0], _destination(config, 60.0), sites, config)


class TestTopologySteps:
    """A topology is built in two steps: the placement step, its one
    random step, which reads no column, and the deterministic link step."""

    def test_placement_reads_no_column(self):
        assert list(inspect.signature(scenario._place_background).parameters) == [
            "config", "sites", "stream"]
        config = ScenarioConfig()
        placed = _placed(config, RngStream(7))
        for r_ga_m in (MIN_LENGTH_M, 10.0, 250.0, MAX_DISTANCE_M):
            assert _placed(dataclasses.replace(config, r_ga_m=r_ga_m), RngStream(7)) == placed

    @pytest.mark.parametrize("seed, r_ga_m", [(7, 0.0), (7, 60.0), (7, 150.0), (8, 250.0)])
    def test_link_step_reproduces_instantiate(self, seed, r_ga_m):
        config = ScenarioConfig()
        sites, background = _placed(config, RngStream(seed))
        assert scenario._build_links(config, sites, background, r_ga_m) == instantiate(
            config, RngStream(seed), r_ga_m)

    def test_placement_is_the_one_draw(self, monkeypatch):
        # instantiate opens its stream once, for the placement step
        opened = []
        generator = RngStream.generator

        def counting(stream):
            opened.append(stream)
            return generator(stream)

        monkeypatch.setattr(RngStream, "generator", counting)
        instantiate(ScenarioConfig(), RngStream(7), 150.0)
        assert opened == [RngStream(7)]

    def test_grid_built_once_per_topology(self, monkeypatch):
        built = []
        hex_grid = geo.hex_grid

        def counting(spec):
            built.append(spec)
            return hex_grid(spec)

        monkeypatch.setattr(geo, "hex_grid", counting)
        instantiate(ScenarioConfig(), RngStream(7), 150.0)
        assert len(built) == 1
        run_rate_sweep(FAST)
        assert len(built) == 1 + FAST.sweep_topologies


# ============================================================
# Rate sweep
# ============================================================

class TestRateSweep:
    def test_shape_and_labels(self):
        result = run_rate_sweep(FAST)
        assert result.labels == FAST_LABELS
        assert result.rates_bps == (50e3, 100e3)
        assert len(result.rows) == len(FAST_LABELS) * 2
        assert result.seed == FAST.master_seed
        assert result.config_digest == config_hash(FAST)
        # rows grouped by rate in grid order
        assert [r.rate_bps for r in result.rows[:8]] == [50e3] * 8
        assert [r.label for r in result.rows[:8]] == list(FAST_LABELS)

    def test_diagnostics(self):
        result = run_rate_sweep(FAST)
        diag = result.diagnostics
        assert set(diag["effective_bandwidth_pps"]) == {"gbs", "av", "hap", "gs"}
        assert diag["effective_bandwidth_pps"]["gbs"] == pytest.approx(
            13423.836634389200146, rel=1e-12
        )
        assert diag["queue_gates"] == {"gbs": True, "av": True, "hap": True, "gs": True}
        assert diag["topologies"] == 2
        assert diag["n_samples"] == 1500

    def test_deterministic(self):
        a = run_rate_sweep(FAST)
        b = run_rate_sweep(FAST)
        assert a.rows == b.rows

    def test_thread_count_invariant(self):
        a = run_rate_sweep(FAST, threads=1)
        b = run_rate_sweep(FAST, threads=2)
        assert a.rows == b.rows

    def test_seed_sensitivity(self):
        a = run_rate_sweep(FAST)
        b = run_rate_sweep(dataclasses.replace(FAST, master_seed=99))
        assert any(
            ra.eps_e2e != rb.eps_e2e for ra, rb in zip(a.rows, b.rows)
        )

    def test_more_paths_never_hurt_reliability(self):
        result = run_rate_sweep(FAST)
        by = {(r.rate_bps, r.label): r for r in result.rows}
        for rate in result.rates_bps:
            assert by[(rate, "DA2G + 1-A2A")].eps_e2e <= by[(rate, "DA2G")].eps_e2e
            assert (by[(rate, "DA2G + 2-A2A")].eps_e2e
                    <= by[(rate, "DA2G + 1-A2A")].eps_e2e)
            assert (by[(rate, "DA2G + HAP")].eps_e2e
                    <= by[(rate, "DA2G")].eps_e2e)

    def test_interference_activity_degrades_links(self):
        # expected-interference mode shares the fading draws, so raising the
        # activity factor can only raise every averaged loss
        quiet = run_rate_sweep(dataclasses.replace(FAST, p_interf=0.0))
        busy = run_rate_sweep(dataclasses.replace(FAST, p_interf=0.01))
        for rq, rb in zip(quiet.rows, busy.rows):
            assert (rq.rate_bps, rq.label) == (rb.rate_bps, rb.label)
            assert rq.eps_e2e <= rb.eps_e2e


class TestGammaBatches:
    @pytest.mark.parametrize("mode", ["expected", "bernoulli"])
    def test_reused_buffers_match_fresh_draws(self, monkeypatch, mode):
        # every batch of a link item is drawn into the same buffer; copied
        # as they come, they equal fresh draws from each batch's child
        # stream bit for bit
        config = dataclasses.replace(FAST, n_samples=1300, interference_mode=mode)
        topology = instantiate(
            config, RngStream(config.master_seed).child(scenario._NS_SWEEP_TOPO, 0),
            config.r_ga_m)
        samples = RngStream(config.master_seed).child(scenario._NS_SWEEP_SAMP, 0)
        batches, buffers = [], []

        def recording(*args, work, **kwargs):
            gamma = sinr_sample(*args, work=work, **kwargs)
            batches.append(gamma.copy())
            buffers.append(work)
            return gamma

        monkeypatch.setattr(scenario, "sinr_sample", recording)
        thread_buffers = threading.local()
        for link_ix, setup in enumerate(topology.links.values()):
            stream = samples.child(link_ix)
            batches.clear()
            scenario._link_stats(config, [100e3], thread_buffers, setup, stream)
            assert [g.size for g in batches] == [512, 512, 276]
            for batch_ix, got in enumerate(batches):
                fresh = sinr_sample(setup, stream.child(batch_ix).generator(), size=got.size)
                assert np.array_equal(got, fresh)
        assert all(work is buffers[0] for work in buffers)


class TestLinkItemMemory:
    """A link work item allocates one (SINR_WORK_ROWS, batch) array: each
    batch is drawn into it and evaluated in its scratch rows. Every other
    per-batch temporary is bounded by gaussian_q's block, whatever
    n_samples is."""

    @staticmethod
    def _traced_peak(config, rates):
        root = RngStream(config.master_seed)
        topology = instantiate(config, root.child(scenario._NS_SWEEP_TOPO, 0), config.r_ga_m)
        stream = root.child(scenario._NS_SWEEP_SAMP, 0).child(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scenario._link_stats(config, rates, threading.local(),
                                 topology.links["g2a_dest"], stream)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_is_one_batch_buffer(self):
        # the default batch at 40 rates from 10 kbps to 1 Mbps, so the
        # windows of each batch fill rows of one Q call each
        config = ScenarioConfig()
        rates = [10e3 * 100.0 ** (i / 39) for i in range(40)]
        peak = self._traced_peak(config, rates)
        assert peak <= SINR_WORK_ROWS * 8 * config.mc_batch_size + 16 * 8 * _Q_BLOCK
        doubled = dataclasses.replace(config, n_samples=2 * config.n_samples)
        assert abs(self._traced_peak(doubled, rates) - peak) <= 8 * _Q_BLOCK


class TestRelayShortage:
    """instantiate skips vehicles within 1 m of the destination, so a
    topology can have fewer relays than a2a_relay_count."""

    SHORT = dataclasses.replace(
        ScenarioConfig(), grid_tiers=0, isd_m=10.0, av_count=4, a2a_relay_count=3,
        r_ga_m=2.0, sweep_topologies=30, n_samples=500, mc_batch_size=500,
        sweep_rates_kbps=(100.0,))
    LABELS = ("DA2G", "A2A", "HAP", *CANONICAL_COMBINATIONS[1:])

    def _relay_counts(self, config):
        root = RngStream(config.master_seed)
        # each relay brings a g2a and an a2a link
        return [sum(name.startswith("a2a_") for name in instantiate(
                    config, root.child(scenario._NS_SWEEP_TOPO, t), config.r_ga_m).links)
                for t in range(config.sweep_topologies)]

    def test_every_topology_gives_every_label(self):
        # topology 23 has 2 relays; the sweep used to fail on the third
        assert [t for t, n in enumerate(self._relay_counts(self.SHORT)) if n < 3] == [23]
        assert run_rate_sweep(self.SHORT).labels == self.LABELS

    def test_short_first_topology_keeps_the_label(self):
        # the first topology set the labels of the averages, so a short one
        # used to drop "DA2G + 3-A2A" from the sweep and the region's choice
        config = dataclasses.replace(self.SHORT, master_seed=39, sweep_topologies=2)
        assert self._relay_counts(config) == [2, 3]
        assert run_rate_sweep(config).labels == self.LABELS

    def test_absent_relay_never_delivers(self):
        config = self.SHORT
        root = RngStream(config.master_seed)
        topology = instantiate(config, root.child(scenario._NS_SWEEP_TOPO, 23), config.r_ga_m)
        samples = root.child(scenario._NS_SWEEP_SAMP, 23)
        buffers = threading.local()
        stats = {name: scenario._link_stats(config, [100e3], buffers, setup,
                                            samples.child(i))[0]
                 for i, (name, setup) in enumerate(topology.links.items())}
        rows = scenario._topology_rows(topology, stats, config)
        for platform in ("", " + HAP"):
            two, three = rows[f"DA2G + 2-A2A{platform}"], rows[f"DA2G + 3-A2A{platform}"]
            assert (three.eps_e2e, three.d_e2e, three.eps_std_error, three.d_std_error) \
                == (two.eps_e2e, two.d_e2e, two.eps_std_error, two.d_std_error)

    def test_absent_relay_path_is_the_placeholder(self):
        # the first relay's links left out: its path is the one that never
        # delivers, with the fields of the PathOutcome the drivers once built
        # by hand for it
        config = self.SHORT
        topology = instantiate(config, RngStream(config.master_seed).child(
            scenario._NS_SWEEP_TOPO, 23), config.r_ga_m)
        stats = {name: LinkStats(1e-3, 1e-3, 500, 1e-4) for name in topology.links
                 if name not in ("g2a_relay_1", "a2a_1")}
        absent = scenario._topology_rows(topology, stats, config)["A2A"]
        placeholder = e2e.PathOutcome("A2A-1", 1.0, math.inf, d_std_error=math.inf)
        for name in ("label", "eps_e2e", "d_e2e", "eps_std_error", "d_std_error",
                     "queues_admit"):
            assert getattr(absent, name) == getattr(placeholder, name), name


class TestDiversityBranches:
    """At diversity_branches K every branch carries a clone over the same
    g2a_dest link, so the branches are one estimate, not K independent
    ones."""

    CONFIG = dataclasses.replace(FAST, diversity_branches=2, sweep_topologies=1,
                                 sweep_rates_kbps=(100.0, 1000.0))

    def test_radio_loss_is_the_branch_error_squared(self):
        config = self.CONFIG
        root = RngStream(config.master_seed)
        topology = instantiate(config, root.child(scenario._NS_SWEEP_TOPO, 0), config.r_ga_m)
        samples = root.child(scenario._NS_SWEEP_SAMP, 0)
        rates = [rate_kbps * 1e3 for rate_kbps in config.sweep_rates_kbps]
        buffers = threading.local()
        stats = {name: scenario._link_stats(config, rates, buffers, setup, samples.child(i))
                 for i, (name, setup) in enumerate(topology.links.items())}
        sweep = {(r.rate_bps, r.label): r for r in run_rate_sweep(config).rows}
        exact_hops = (1.0 - config.eps_b) * (1.0 - config.eps_q)
        for k, rate in enumerate(rates):
            branch = stats["g2a_dest"][k]
            da2g = scenario._topology_rows(
                topology, {name: per_rate[k] for name, per_rate in stats.items()},
                config)["DA2G"]
            assert da2g.error_terms["radio_da2g"] == branch.eps_t_bar * branch.eps_t_bar
            assert da2g.delay_breakdown["radio_da2g"] == branch.d_t_bar
            assert da2g.eps_std_error == pytest.approx(
                exact_hops * 2.0 * branch.eps_t_bar * branch.std_error, rel=1e-12)
            # the sweep of this one topology reports exactly its row
            row = sweep[(rate, "DA2G")]
            assert (row.eps_e2e, row.delay_s) == (da2g.eps_e2e, da2g.d_e2e)
            assert row.eps_std_error == pytest.approx(da2g.eps_std_error, rel=1e-15)
        assert any(0.0 < per_rate.eps_t_bar < 1.0 and per_rate.std_error > 0.0
                   for per_rate in stats["g2a_dest"])

    def test_rows_do_not_depend_on_the_worker_count(self):
        config = dataclasses.replace(self.CONFIG, sweep_topologies=2)
        assert run_rate_sweep(config, threads=2).rows == run_rate_sweep(config, threads=1).rows


class TestTopologyAverages:
    def test_infinite_mean_delay_has_an_infinite_se(self):
        # averaged with a topology whose path delivers, one whose path
        # never does gives an infinite mean delay, and so an infinite SE
        sums = {}
        scenario._add_rows(sums, {"A2A": e2e.PathOutcome(
            "A2A", 1e-3, 2e-3, eps_std_error=1e-4, d_std_error=1e-5, queues_admit=True)})
        scenario._add_rows(sums, {"A2A": e2e.PathOutcome(
            "A2A", 1.0, math.inf, d_std_error=math.inf, queues_admit=True)})
        row = scenario._mean_outcomes(sums, 2, 2e6, ScenarioConfig().qos())["A2A"]
        assert (row.delay_s, row.delay_std_error) == (math.inf, math.inf)
        assert row.eps_std_error == pytest.approx(5e-5)
        assert row.feasible is False


class TestQueueGates:
    def test_underprovisioned_base_station_blocks_everything(self):
        open_run = run_rate_sweep(FAST)
        gated_run = run_rate_sweep(
            dataclasses.replace(FAST, service_rate_gbs_pps=10_000.0)
        )
        # sanity: the gate actually removes rows that were feasible before
        assert any(r.feasible for r in open_run.rows)
        assert all(not r.feasible for r in gated_run.rows)
        gates = gated_run.diagnostics["queue_gates"]
        assert gates["gbs"] is False and gates["gs"] is False
        assert gates["av"] is True and gates["hap"] is True

    def test_underprovisioned_platform_blocks_only_platform_rows(self):
        open_run = run_rate_sweep(FAST)
        gated_run = run_rate_sweep(
            dataclasses.replace(
                FAST, service_rate_gbs_pps=20_000.0, service_rate_hap_pps=20_000.0
            )
        )
        gates = gated_run.diagnostics["queue_gates"]
        assert gates["gbs"] is True and gates["hap"] is False
        open_by = {(r.rate_bps, r.label): r for r in open_run.rows}
        assert any(
            r.feasible and "HAP" in r.label for r in open_run.rows
        )
        for row in gated_run.rows:
            if "HAP" in row.label:
                assert not row.feasible
            else:
                assert row.feasible == open_by[(row.rate_bps, row.label)].feasible

    @pytest.mark.parametrize("admits, feasible", [
        ((True, True), True), ((False, False), False), ((True, False), False),
    ])
    def test_gate_survives_topology_average(self, admits, feasible):
        # each topology fails one threshold, but the averages (7.55e-6,
        # 6.5 ms) meet both: the row is feasible only if every topology's
        # queues admit
        label = "DA2G + HAP"
        sums = {}
        for (eps, delay), admit in zip(((1.5e-5, 1e-3), (1e-7, 12e-3)), admits):
            scenario._add_rows(sums, {label: e2e.PathOutcome(label, eps, delay,
                                                             queues_admit=admit)})
        assert scenario._mean_outcomes(sums, 2, 100e3, FAST.qos())[label].feasible is feasible


class TestFeasibilityDecision:
    def test_cell_is_the_first_feasible_canonical_row(self):
        # the region reads the same averaged rows as the sweep: each cell
        # takes the first canonical label whose row is feasible, or "none"
        cfg = dataclasses.replace(FAST, region_r_edges_m=(60.0, 140.0, 220.0),
                                  region_rates_kbps=(100.0, 400.0, 800.0, 1500.0))
        rates = [rate_kbps * 1e3 for rate_kbps in cfg.region_rates_kbps]
        groups = [((scenario._NS_REGION_TOPO, col), (scenario._NS_REGION_SAMP, col), centre)
                  for col, centre in enumerate((100.0, 180.0))]
        expected = [
            next((label for label in CANONICAL_COMBINATIONS
                  if label in rows and rows[label].feasible), "none")
            for per_rate in scenario._group_means(cfg, groups, cfg.region_topologies, rates, 1)
            for rows in per_rate
        ]
        assert [cell.label for cell in run_operating_region(cfg).cells] == expected
        assert {"DA2G", "DA2G + 1-A2A", "DA2G + HAP", "none"} <= set(expected)

    def test_delay_budget_below_the_backhaul_admits_nothing(self):
        cfg = dataclasses.replace(FAST, delay_threshold_ms=0.5)   # backhaul 1 ms
        assert all(cell.label == "none" for cell in run_operating_region(cfg).cells)
        assert not any(row.feasible for row in run_rate_sweep(cfg).rows)

    def test_combinations_multiply_their_paths_backhaul(self):
        # each combined path carries its own backhaul and queue losses, so
        # with eps_b = eps_th no single path is feasible, yet combinations
        # are: a combination's eps is the product of its paths' eps exactly
        cfg = ScenarioConfig(eps_b=1e-5, n_samples=4000, sweep_topologies=1,
                             sweep_rates_kbps=[100.0, 300.0, 700.0])
        rows = {(row.rate_bps, row.label): row for row in run_rate_sweep(cfg).rows}
        assert not any(rows[key].feasible for key in rows if key[1] in ("DA2G", "A2A", "HAP"))
        assert any(row.feasible for row in rows.values())
        for rate in (100e3, 300e3, 700e3):
            for combination, paths in (("DA2G + HAP", ("DA2G", "HAP")),
                                       ("DA2G + 1-A2A", ("DA2G", "A2A")),
                                       ("DA2G + 1-A2A + HAP", ("DA2G", "A2A", "HAP"))):
                assert rows[rate, combination].eps_e2e == math.prod(
                    rows[rate, path].eps_e2e for path in paths)


# ============================================================
# Operating region
# ============================================================

class TestOperatingRegion:
    def test_cells_and_lookup(self):
        result = run_operating_region(FAST)
        assert len(result.cells) == 1 * 2
        cell = result.cells[0]
        assert (cell.r_low_m, cell.r_high_m, cell.r_center_m) == (100.0, 200.0, 150.0)
        assert cell.rate_bps == 100e3
        assert result.label_at(0, 0) == cell.label
        assert result.label_at(0, 1) == result.cells[1].label
        assert result.labels == CANONICAL_COMBINATIONS
        assert result.config_digest == config_hash(FAST)

    def test_labels_are_canonical_or_none(self):
        result = run_operating_region(FAST)
        for cell in result.cells:
            assert cell.label == "none" or cell.label in CANONICAL_COMBINATIONS

    def test_direct_path_suffices_at_low_rate(self):
        result = run_operating_region(FAST)
        assert result.label_at(0, 0) == "DA2G"

    def test_deterministic_and_thread_invariant(self):
        cfg = dataclasses.replace(FAST, region_r_edges_m=(100.0, 150.0, 200.0))
        a = run_operating_region(cfg, threads=1)
        b = run_operating_region(cfg, threads=2)
        assert a == b

    def test_demand_only_grows_the_requirement(self):
        # at a fixed distance, the chosen combination index never decreases
        # with rate (a harder rate cannot need fewer paths)
        cfg = dataclasses.replace(
            FAST, region_rates_kbps=(50.0, 100.0, 200.0, 400.0)
        )
        result = run_operating_region(cfg)
        order = CANONICAL_COMBINATIONS + ("none",)
        indices = [
            order.index(result.label_at(0, k))
            for k in range(len(cfg.region_rates_kbps))
        ]
        assert indices == sorted(indices)


# ============================================================
# Worker pool
# ============================================================

class _RecordingPool:
    """Stands in for ThreadPoolExecutor: runs each job in the calling thread
    and records the requested worker count, the submitted jobs, how many
    of their results were read, and how many were unread at each submit."""

    requested = []
    submitted = []
    collected = 0
    in_flight = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted.append(args)
        self.in_flight.append(len(self.submitted) - _RecordingPool.collected)
        done = _CountedResult()
        done.set_result(fn(*args))
        return done


class _CountedResult(concurrent.futures.Future):
    def result(self, timeout=None):
        _RecordingPool.collected += 1
        return super().result(timeout)


@pytest.fixture
def pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
    _RecordingPool.requested = []
    _RecordingPool.submitted = []
    _RecordingPool.collected = 0
    _RecordingPool.in_flight = []
    return _RecordingPool


class TestParallelMap:
    def test_workers_clamped_to_work_items(self):
        # the executor starts a thread only when no idle one can take an
        # item; the barrier holds each item until all three run at once, so
        # every thread the 256-worker pool started is alive at that point
        before = set(threading.enumerate())
        barrier = threading.Barrier(3, timeout=10.0)
        alive = []

        def job(k):
            barrier.wait()
            alive.append(len(set(threading.enumerate()) - before))
            return 2 ** k

        assert list(scenario._parallel_map(job, [(1,), (2,), (3,)], 256)) == [2, 4, 8]
        assert alive == [3, 3, 3]

    def test_single_item_runs_in_process(self):
        # a one-item map on a 64-worker pool runs its item on a single
        # thread of this process: the executor starts no second thread
        before = set(threading.enumerate())
        ran_on = []

        def job(base, exp):
            ran_on.append((threading.current_thread(),
                           set(threading.enumerate()) - before))
            return base ** exp

        assert list(scenario._parallel_map(job, [(5, 2)], 64)) == [25]
        ((thread, started),) = ran_on
        assert started == {thread}

    def test_fewer_threads_than_items_kept(self, pool):
        assert list(scenario._parallel_map(pow, [(3, k) for k in range(5)], 2)) \
            == [1, 3, 9, 27, 81]
        assert pool.requested == [2]

    def test_failure_cancels_items_not_started(self):
        # two workers: item 0 fails at once while item 1 and whichever item
        # the freed worker takes next are held, so every later item is still
        # queued when the failure reaches the caller
        release = threading.Event()
        ran = []

        def job(k):
            ran.append(k)
            if k == 0:
                raise RuntimeError("item 0 failed")
            release.wait(5.0)
            return k

        timer = threading.Timer(0.5, release.set)
        timer.start()
        try:
            with pytest.raises(RuntimeError, match="item 0 failed"):
                list(scenario._parallel_map(job, [(k,) for k in range(8)], 2))
        finally:
            timer.cancel()
            release.set()
        assert set(ran) <= {0, 1, 2}


class TestWorkItems:
    """The pool's work item is one link of one topology."""

    def test_sweep_submits_one_item_per_link(self, pool):
        config = dataclasses.replace(FAST, sweep_topologies=1)
        topology = instantiate(
            config, RngStream(config.master_seed).child(scenario._NS_SWEEP_TOPO, 0),
            config.r_ga_m)
        result = run_rate_sweep(config, threads=2)
        assert pool.requested == [2]
        assert len(pool.submitted) == len(topology.links)
        assert [args[0] for args in pool.submitted] == list(topology.links.values())
        assert result == run_rate_sweep(config, threads=1)

    def test_thread_buffers_under_contention(self):
        # more workers than cores, switching often: a batch buffer shared
        # between threads would mix their draws
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            contended = run_rate_sweep(FAST, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert contended.rows == run_rate_sweep(FAST, threads=1).rows

    @pytest.mark.parametrize("run", [run_rate_sweep, run_operating_region])
    @pytest.mark.parametrize("threads", [0, -1, 257, 2.5, True, "2"])
    def test_worker_count_outside_its_interval_is_named(self, monkeypatch, run, threads):
        # checked before any topology is built or any thread starts: a count
        # of 0 or below used to run serially. FAST has two topologies per
        # group, so even an unchecked count starts only a few threads.
        built = []
        monkeypatch.setattr(scenario, "instantiate", lambda *args, **kwargs: built.append(args))
        before = threading.active_count()
        with pytest.raises(ValueError,
                           match=r"^threads: expected a worker count in \[1, 256\], got "):
            run(FAST, threads=threads)
        assert built == []
        assert threading.active_count() <= before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_batch_buffer_per_worker_thread(self, monkeypatch, threads):
        # every link item of a run draws and evaluates in its thread's buffer
        buffers = []        # held, so no two buffers share an id

        def recording(*args, work, **kwargs):
            buffers.append(work)
            return sinr_sample(*args, work=work, **kwargs)

        monkeypatch.setattr(scenario, "sinr_sample", recording)
        run_rate_sweep(FAST, threads=threads)
        assert 1 <= len({id(work) for work in buffers}) <= threads

    def test_region_submits_columns_by_topologies_by_links(self, pool):
        config = dataclasses.replace(FAST, region_r_edges_m=(60.0, 120.0, 180.0))
        result = run_operating_region(config, threads=2)
        # each topology has both relays: g2a_dest, g2h, h2a and two links per relay
        n_links = 3 + 2 * config.a2a_relay_count
        assert len(pool.submitted) == 2 * config.region_topologies * n_links
        assert result == run_operating_region(config, threads=1)


class TestStreaming:
    """Topologies are instantiated as their links are submitted, and reduced
    to floats as their results come in, so what a run holds follows the
    work in flight, not the grid."""

    # six columns of two relays each: every topology has 3 + 2 * 2 links
    GRID = dataclasses.replace(FAST, region_r_edges_m=tuple(float(r) for r in range(0, 121, 20)))
    N_LINKS = 7

    def test_window_bounds_items_and_topologies_in_flight(self, pool, monkeypatch):
        config = dataclasses.replace(self.GRID, region_topologies=4)
        expected = run_operating_region(config, threads=1)
        window = scenario._WINDOW_PER_WORKER * 2
        ahead = []
        make = scenario.instantiate

        def instantiate(*args, **kwargs):
            # topologies made, this one included, less those whose every
            # result has been read
            ahead.append(len(ahead) + 1 - pool.collected // self.N_LINKS)
            return make(*args, **kwargs)

        monkeypatch.setattr(scenario, "instantiate", instantiate)
        assert run_operating_region(config, threads=2) == expected
        assert len(pool.submitted) == 6 * 4 * self.N_LINKS == pool.collected
        assert max(pool.in_flight) == window
        assert len(ahead) == 6 * 4
        assert max(ahead) <= 1 + -(-window // self.N_LINKS)

    @staticmethod
    def _traced_peak(config):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_operating_region(config)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_grows_by_one_columns_floats_per_topology(self):
        # each extra topology leaves its floats (2 rates x 8 labels, about
        # 10 kB) while its column lasts; holding the topologies of all six
        # columns until the run ends grew the peak by about 200 kB each
        config = dataclasses.replace(self.GRID, n_samples=200, mc_batch_size=200)
        self._traced_peak(config)           # lazy imports and caches
        small = self._traced_peak(dataclasses.replace(config, region_topologies=2))
        large = self._traced_peak(dataclasses.replace(config, region_topologies=8))
        assert large - small < 6 * 16_000

    def test_column_peak_holds_sums_not_topologies(self):
        # one default region column: a topology's rows are added into the
        # column's running sums, so 35 more topologies hold nothing more;
        # a table of every topology's rows grew the peak by about 770 kB
        config = dataclasses.replace(ScenarioConfig(), n_samples=200,
                                     region_r_edges_m=(0.0, 20.0))
        self._traced_peak(config)           # lazy imports and caches
        small = self._traced_peak(dataclasses.replace(config, region_topologies=5))
        large = self._traced_peak(dataclasses.replace(config, region_topologies=40))
        assert large <= small + 64_000


def _compensated_sum(real_sum):
    """CPython 3.12's sum(): Neumaier-compensated for float items; anything
    else is left to real_sum."""
    def compensated(iterable, /, start=0):
        items = list(iterable)
        floats = type(start) in (int, float) and all(type(x) is float for x in items)
        if not (items and floats):
            return real_sum(items, start)
        total, c = float(start), 0.0
        for x in items:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        return total + c if c and math.isfinite(c) else total
    return compensated


class TestPythonVersion:
    def test_rows_do_not_depend_on_sum_compensation(self, monkeypatch):
        # Python 3.12 made sum() compensated; the pipeline adds left to
        # right itself, so a 3.12 sum changes no row
        config = dataclasses.replace(FAST, sweep_topologies=3)
        expected = run_rate_sweep(config).rows
        monkeypatch.setattr(builtins, "sum", _compensated_sum(builtins.sum))
        assert run_rate_sweep(config).rows == expected
