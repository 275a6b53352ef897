"""Scenario assembly and Monte Carlo drivers.

Provides:
 - ScenarioConfig / load_config / config_hash : validated configuration
 - instantiate                : one seeded topology with all link setups
 - run_rate_sweep             : error/delay vs. data rate for every path
                                combination at a fixed destination distance
 - run_operating_region       : minimum feasible combination over a
                                (distance bin x rate bin) grid

Random streams are assigned by a fixed map (namespace, cell, realization,
link, batch) -> stream, so results are identical for any worker count.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import channel as ch
from . import e2e
from . import geometry as geo
from .e2e import CANONICAL_COMBINATIONS
from .link import (
    LEVEL,
    LEVEL_MAX_DB,
    SINR_WORK_ROWS,
    ChannelSpec,
    LinkSetup,
    LinkStats,
    RadioParams,
    decoding_error_stats,
    sinr_sample,
)
from .mathfun import POSITIVE, Interval, RngStream, _floats, _Rule, check_fields
from .queueing import DURATION_S, OPEN_PROBABILITY, QueueSpec, effective_bandwidth

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "load_config",
    "config_hash",
    "LinkSetup",
    "Topology",
    "instantiate",
    "SweepRow",
    "SweepResult",
    "run_rate_sweep",
    "RegionCell",
    "RegionResult",
    "run_operating_region",
    "CANONICAL_COMBINATIONS",
]


class ConfigError(ValueError):
    """Invalid configuration file or value."""


# ============================================================
# Configuration
# ============================================================

_COUNT = Interval("an integer in {}", 1, math.inf, "[)", kind=int)
# a carrier frequency [GHz]: the term 20 log10(fc_ghz) of every path loss is a
# level too, so it takes the levels' bound, fc_ghz in [1e-15, 1e15]
_FC_MAX_GHZ = 10.0 ** (LEVEL_MAX_DB / 20.0)
_FREQUENCY = Interval("a frequency in {} GHz", 1 / _FC_MAX_GHZ, _FC_MAX_GHZ)
# a rate [kbps]: its value in bit/s, 1e3 times as large, stays a finite double,
# and so does the slot packet_bits / rate of every size up to _MAX_PACKET_BITS
_RATES = _floats("a non-empty list", bool, Interval("a rate in {} kbps", 1e-290, 1e300))
_RICE = _floats("a [k_min, k_max] pair with k_min <= k_max",
                lambda v: len(v) == 2 and v[0] <= v[1], LEVEL)
# a distance from the serving site, which may be 0
_DISTANCE = Interval("a distance in {} m", 0, ch.MAX_DISTANCE_M)
# the drivers' worker thread count, bounded so that _parallel_map's window is
_THREADS = Interval("a worker count in {}", 1, 256, kind=int)
# a duration [ms]: the numbers whose value in seconds, times 1e-3, lies in DURATION_S
_DURATION = DURATION_S._replace(what="a duration in {} ms", low=DURATION_S.low * 1e3)

# Counts that size a run's work or memory:
# - a worker thread's (SINR_WORK_ROWS, min(mc_batch_size, n_samples)) float64
#   buffer (_link_stats) takes at most 1 GiB;
_MAX_BATCH_BYTES = 1 << 30
# - instantiate places av_count - 1 vehicles and ranks them all as each a2a
#   link's interferers, linear in the count: 0.34 s per topology at 1e4;
_MAX_AV_COUNT = 10_000
# - the FBL and delay formulas take packet_bits as a double, and every size
#   up to 2^53 bits is an exact one.
_MAX_PACKET_BITS = 2 ** 53


def _key(default, rule: _Rule | Interval, feeds: tuple = (None, None)):
    """A config field: its default, its rule and the (model, field) it feeds (_of)."""
    metadata = {"rule": rule, "feeds": feeds}
    if isinstance(default, dict):
        return field(default_factory=lambda: dict(default), metadata=metadata)
    return field(default=default, metadata=metadata)


def _of(model, name: str, default=dataclasses.MISSING):
    """A config field declared by the model field it feeds, in its unit: the
    field's rule, and its default unless it states its own."""
    f = model.__dataclass_fields__[name]
    return _key(f.default if default is dataclasses.MISSING else default,
                f.metadata["rule"], (model, name))


# link kind -> (bandwidth key, transmit power key, noise figure key) of its radio
_RADIO_KEYS = {
    "g2a": ("bandwidth_ga_hz", "tx_power_gbs_dbm", "noise_figure_av_db"),
    "a2a": ("bandwidth_aa_hz", "tx_power_av_dbm", "noise_figure_av_db"),
    "h2a": ("bandwidth_ha_hz", "tx_power_hap_dbm", "noise_figure_av_db"),
    "g2h": ("bandwidth_gh_hz", "tx_power_gs_dbm", "noise_figure_hap_db"),
}
# node type -> (arrival key, service key) of its queue. The ground station
# has no keys of its own: it takes the base station's.
_QUEUE_KEYS = {
    "gbs": ("arrival_rate_gbs_pps", "service_rate_gbs_pps"),
    "av": ("arrival_rate_av_pps", "service_rate_av_pps"),
    "hap": ("arrival_rate_hap_pps", "service_rate_hap_pps"),
    "gs": ("arrival_rate_gbs_pps", "service_rate_gbs_pps"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Every scenario parameter, with its default and its rule. However a config
    is built, each key meets its rule and the rules across keys, or a ConfigError names it."""

    # QoS targets (QosTarget)
    eps_th: float = _key(1e-5, OPEN_PROBABILITY)
    delay_threshold_ms: float = _key(10.0, _DURATION)
    # traffic
    packet_bits: int = _key(256, Interval("a size in {} bits", 1, _MAX_PACKET_BITS, kind=int))
    # backhaul (BackhaulSpec)
    eps_b: float = _of(e2e.BackhaulSpec, "eps")
    backhaul_delay_ms: float = _key(1.0, _DURATION)
    # interference model (LinkSetup)
    p_interf: float = _of(LinkSetup, "p_interf", 0.01)
    interference_mode: str = _of(LinkSetup, "mode")
    interferer_count: int = _key(6, _COUNT)
    # radio
    fc_ghz: float = _key(2.0, _FREQUENCY)
    noise_density_dbm_hz: float = _key(-174.0, LEVEL)
    bandwidth_ga_hz: float = _key(0.4e6, POSITIVE)
    bandwidth_aa_hz: float = _key(0.4e6, POSITIVE)
    bandwidth_ha_hz: float = _key(0.4e6, POSITIVE)
    bandwidth_gh_hz: float = _key(0.5e6, POSITIVE)
    tx_power_av_dbm: float = _key(23.0, LEVEL)
    tx_power_gbs_dbm: float = _key(46.0, LEVEL)
    tx_power_hap_dbm: float = _key(46.0, LEVEL)
    tx_power_gs_dbm: float = _key(46.0, LEVEL)
    noise_figure_av_db: float = _key(9.0, LEVEL)
    noise_figure_hap_db: float = _key(5.0, LEVEL)
    av_antenna_gain_dbi: float = _key(0.0, LEVEL)
    gs_antenna_gain_dbi: float = _key(0.0, LEVEL)
    ula_elements: int = _of(ch.UlaSpec, "n_elements")
    ula_downtilt_deg: float = _of(ch.UlaSpec, "downtilt_deg")
    ula_element_gain_dbi: float = _of(ch.UlaSpec, "element_gain_max_dbi")
    hap_max_gain_dbi: float = _of(ch.ReflectorSpec, "max_gain_dbi")
    hap_aperture_radius_wavelengths: float = _of(ch.ReflectorSpec, "aperture_radius_wavelengths")
    # geometry
    isd_m: float = _of(geo.GridSpec, "isd_m")
    grid_tiers: int = _of(geo.GridSpec, "tiers")
    gbs_height_m: float = _of(geo.GridSpec, "bs_height_m")
    av_altitude_m: float = _key(300.0, ch.LENGTH)
    hap_altitude_m: float = _key(20000.0, ch.LENGTH)
    hap_gs_offset_m: float = _key(5000.0, ch.LENGTH)
    # the destination and at least one relay candidate
    av_count: int = _key(10, Interval("a vehicle count in {}", 2, _MAX_AV_COUNT, kind=int))
    r_ga_m: float = _key(150.0, ch.LENGTH)
    # propagation environment (ITU-R P.1410: built-up ratio, density, height scale)
    q1: float = _of(ch.Environment, "q1")
    q2_per_km2: float = _of(ch.Environment, "q2")
    q3_m: float = _of(ch.Environment, "q3_m")
    sf_sigma_los_db: float = _of(ch.Environment, "sf_sigma_los_db")
    sf_sigma_nlos_db: float = _of(ch.Environment, "sf_sigma_nlos_db")
    g2a_shadow_fading: bool = _key(False, _Rule("a boolean", lambda v: isinstance(v, bool)))
    pl_mixture: str = _key("db", _Rule("'db' or 'linear'", lambda v: v in ("db", "linear")))
    clutter_loss_db: tuple = _of(ch.Environment, "clutter_loss_table_db")
    # [k_min, k_max] dB per link kind, linear in the 10-degree elevation bin
    rice_k_db: dict = _key(
        {"g2a": (5.0, 12.0), "a2a": (12.0, 12.0), "g2h": (5.0, 15.0), "h2a": (12.0, 15.0)},
        _Rule("a mapping with keys g2a, a2a, g2h, h2a", lambda v: isinstance(v, dict)
              and set(v) == {"g2a", "a2a", "g2h", "h2a"},
              lambda v: {k: _RICE.check(f"config key 'rice_k_db.{k}'", p, ConfigError)
                         for k, p in v.items()},
              LEVEL))
    # queueing
    arrival_rate_gbs_pps: float = _key(1000.0, POSITIVE)
    arrival_rate_av_pps: float = _key(100.0, POSITIVE)
    arrival_rate_hap_pps: float = _key(10000.0, POSITIVE)
    queue_delay_bound_ms: float = _key(0.3, _DURATION)
    eps_q: float = _key(1e-7, OPEN_PROBABILITY)
    service_rate_gbs_pps: float | None = _of(QueueSpec, "service_rate_pps")
    service_rate_av_pps: float | None = _of(QueueSpec, "service_rate_pps")
    service_rate_hap_pps: float | None = _of(QueueSpec, "service_rate_pps")
    # Monte Carlo and grids
    master_seed: int = _of(RngStream, "seed", 1)
    n_samples: int = _key(100_000, _COUNT)
    mc_batch_size: int = _key(1 << 15, _COUNT)
    diversity_branches: int = _key(1, _COUNT)
    a2a_relay_count: int = _key(3, Interval("a count in {}", 1, e2e.MAX_A2A_PATHS, kind=int))
    sweep_topologies: int = _key(1, _COUNT)
    sweep_rates_kbps: tuple = _key((10.0, 20.0, 30.0, 50.0, 70.0, 100.0, 140.0, 200.0, 280.0,
                                    400.0, 560.0, 800.0, 1000.0), _RATES)
    region_topologies: int = _key(20, _COUNT)
    region_r_edges_m: tuple = _key(tuple(float(v) for v in range(0, 261, 20)), _floats(
        "a strictly increasing list of at least 2 bin edges",
        lambda v: len(v) >= 2 and all(a < b for a, b in zip(v, v[1:])), _DISTANCE))
    region_rates_kbps: tuple = _key(tuple(float(v) for v in range(100, 1001, 100)), _RATES)

    def __post_init__(self):
        check_fields(self, ConfigError, "config key '{}'")
        # the rules across keys, each named by the key it checks
        if self.av_altitude_m <= self.gbs_height_m:
            raise ConfigError("config key 'av_altitude_m': must exceed gbs_height_m")
        if self.hap_altitude_m <= self.av_altitude_m:
            raise ConfigError("config key 'hap_altitude_m': must exceed av_altitude_m")
        if self.isd_m * self.grid_tiers not in _DISTANCE:
            raise ConfigError("config key 'grid_tiers': the grid's extent isd_m * grid_tiers "
                              f"must be {_DISTANCE}")
        if self.a2a_relay_count > self.av_count - 1:
            raise ConfigError("config key 'a2a_relay_count': needs av_count - 1 candidates")
        if SINR_WORK_ROWS * 8 * min(self.mc_batch_size, self.n_samples) > _MAX_BATCH_BYTES:
            raise ConfigError(f"config key 'mc_batch_size': a worker thread's batch buffer, "
                              f"{SINR_WORK_ROWS} x 8 bytes x min(mc_batch_size, n_samples), "
                              f"must be at most {_MAX_BATCH_BYTES} bytes")
        for kind, (bandwidth, _, _) in _RADIO_KEYS.items():
            try:    # each key passed its rule, so only the radio's noise power can fail
                self.radio(kind)
            except ValueError as exc:
                raise ConfigError(f"config key '{bandwidth}': {exc}") from None

    # -------- derived views --------

    def _model(self, model):
        """model, each of its fields from the key that feeds it (_of)."""
        return model(**{f.metadata["feeds"][1]: getattr(self, f.name)
                        for f in dataclasses.fields(self) if f.metadata["feeds"][0] is model})

    environment = functools.partialmethod(_model, ch.Environment)
    ula = functools.partialmethod(_model, ch.UlaSpec)
    reflector = functools.partialmethod(_model, ch.ReflectorSpec)
    grid = functools.partialmethod(_model, geo.GridSpec)

    def qos(self) -> e2e.QosTarget:
        return e2e.QosTarget(self.eps_th, self.delay_threshold_ms * 1e-3)

    def backhaul(self) -> e2e.BackhaulSpec:
        return e2e.BackhaulSpec(self.backhaul_delay_ms * 1e-3, self.eps_b)

    def queue(self, node: str) -> QueueSpec:
        """One node type's queue, from its keys (_QUEUE_KEYS)."""
        arrival, service = _QUEUE_KEYS[node]
        return QueueSpec(getattr(self, arrival), self.queue_delay_bound_ms * 1e-3,
                         self.eps_q, getattr(self, service))

    def radio(self, kind: str) -> RadioParams:
        """One link kind's radio, from its keys (_RADIO_KEYS)."""
        bandwidth, power, figure = (getattr(self, key) for key in _RADIO_KEYS[kind])
        return RadioParams(bandwidth, _dbm_to_w(power), _dbm_to_w(self.noise_density_dbm_hz),
                           figure)


class _ConfigLoader(yaml.SafeLoader):
    """The safe YAML loader, but a key repeated in one mapping is an error
    rather than silently overriding the first."""

    def construct_mapping(self, node, deep=False):
        self.flatten_mapping(node)      # resolve "<<" merge keys first
        lines = {}
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode):   # other keys fail in super()
                key, line = self.construct_object(key_node), key_node.start_mark.line + 1
                if key in lines:
                    raise ConfigError(f"config parse error at line {line}: key '{key}' "
                                      f"given twice (first at line {lines[key]})")
                lines[key] = line
        return super().construct_mapping(node, deep)


def load_config(path=None) -> ScenarioConfig:
    """Load a YAML key/value config; None or an empty file yields defaults.

    ScenarioConfig checks every key; unknown and repeated keys are rejected
    by name and parse errors carry the line number.
    """
    if path is None:
        return ScenarioConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a key/value mapping")
    for key in data:
        if key not in ScenarioConfig.__dataclass_fields__:
            raise ConfigError(f"unknown config key '{key}'")
    return ScenarioConfig(**data)


def config_hash(config: ScenarioConfig) -> str:
    """Stable digest of the fully-resolved configuration."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=list)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ============================================================
# Topology instantiation
# ============================================================

@dataclass(frozen=True)
class Topology:
    """What composition reads of one topology realization."""
    links: dict            # name -> LinkSetup, insertion order is canonical
    d_g2h_m: float
    d_h2a_m: float


def _dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _dbi_to_lin(dbi: float) -> float:
    return 10.0 ** (dbi / 10.0)


def _g2a_channel(site, victim, config: ScenarioConfig, env, ula) -> ChannelSpec:
    zenith = geo.zenith_angle_deg(site, victim)
    elevation = max(geo.elevation_angle_deg(site, victim), 0.0)
    pl = ch.pl_avg_g2a_db(
        geo.distance_2d(site, victim),
        site.altitude,
        victim.altitude,
        config.fc_ghz,
        env,
        mixture=config.pl_mixture,
    )
    sf = env.sf_sigma_los_db if config.g2a_shadow_fading else 0.0
    return ChannelSpec(
        pl_db=pl,
        tx_gain=float(ch.ula_gain(zenith, ula)),
        rx_gain=_dbi_to_lin(config.av_antenna_gain_dbi),
        k_db=ch.rice_k_db(config.rice_k_db["g2a"], min(elevation, 90.0)),
        sf_sigma_db=sf,
    )


def _link(desired, interferers, radio, config: ScenarioConfig) -> LinkSetup:
    """A link to an aerial vehicle whose interferer channels, in draw
    order, send at radio.tx_power_w like the desired one."""
    return LinkSetup(desired, radio, interferers, config.p_interf,
                     config.interference_mode)


def _interfered_link(channel, tx, others, radio, config: ScenarioConfig) -> LinkSetup:
    """The link from tx, with channel(node) the channel from a node to the
    victim, and as interferers the interferer_count strongest of the others
    that are not tx by mean received power (ties resolve by node id). Every
    node sends at radio.tx_power_w."""
    ranked = sorted(((o.id, channel(o)) for o in others if o.id != tx.id),
                    key=lambda item: (-item[1].mean_gain * radio.tx_power_w, item[0]))
    return _link(channel(tx), [spec for _, spec in ranked[:config.interferer_count]],
                 radio, config)


def _g2a_link(site, victim, sites, config) -> LinkSetup:
    env, ula = config.environment(), config.ula()
    return _interfered_link(lambda tx: _g2a_channel(tx, victim, config, env, ula),
                            site, sites, config.radio("g2a"), config)


def _a2a_channel(tx, victim, config) -> ChannelSpec:
    d = geo.distance_3d(tx, victim)
    elevation = min(abs(geo.elevation_angle_deg(victim, tx)), 90.0)
    return ChannelSpec(
        pl_db=float(ch.fspl_db(d, config.fc_ghz)),
        tx_gain=_dbi_to_lin(config.av_antenna_gain_dbi),
        rx_gain=_dbi_to_lin(config.av_antenna_gain_dbi),
        k_db=ch.rice_k_db(config.rice_k_db["a2a"], elevation),
    )


def _a2a_link(relay, victim, background, config) -> LinkSetup:
    if geo.distance_3d(relay, victim) <= 0.0:
        raise ValueError("relay and destination poses coincide")
    return _interfered_link(lambda tx: _a2a_channel(tx, victim, config),
                            relay, background, config.radio("a2a"), config)


def _h2a_link(hap, victim, sites, serving_site, config) -> LinkSetup:
    """Platform beam to the destination; every beam serving another cell
    interferes, in site order, with its side-lobe gain toward the
    destination."""
    pl = float(ch.fspl_db(geo.distance_3d(hap, victim), config.fc_ghz))
    elevation = min(geo.elevation_angle_deg(victim, hap), 90.0)
    k_db = ch.rice_k_db(config.rice_k_db["h2a"], elevation)
    reflector = config.reflector()

    def beam(offset_deg):
        return ChannelSpec(pl_db=pl, tx_gain=float(ch.hap_gain(offset_deg, reflector)),
                           rx_gain=_dbi_to_lin(config.av_antenna_gain_dbi), k_db=k_db)

    # each other cell's beam aims at the vehicle altitude above its site
    aims = [geo.NodePose(s.id, s.x, s.y, config.av_altitude_m)
            for s in sites if s.id != serving_site.id]
    return _link(beam(0.0), [beam(geo.angle_between_deg(hap, aim, victim)) for aim in aims],
                 config.radio("h2a"), config)


def _g2h_link(gs, hap, config) -> LinkSetup:
    env = config.environment()
    d = geo.distance_3d(gs, hap)
    elevation = min(geo.elevation_angle_deg(gs, hap), 90.0)
    desired = ChannelSpec(
        pl_db=float(ch.pl_g2h_db(d, config.fc_ghz, elevation, env)),
        tx_gain=_dbi_to_lin(config.gs_antenna_gain_dbi),
        rx_gain=_dbi_to_lin(config.hap_max_gain_dbi),
        k_db=ch.rice_k_db(config.rice_k_db["g2h"], elevation),
        sf_sigma_db=env.sf_sigma_los_db,
    )
    return LinkSetup(desired, config.radio("g2h"))


def _place_background(config: ScenarioConfig, sites, stream: RngStream) -> list:
    """A topology's one random step: the av_count - 1 background vehicles,
    uniform over the cells of sites. It reads no column, so one stream
    places the same vehicles at every destination distance."""
    return geo.place_avs_uniform(sites, config.isd_m, config.av_count - 1,
                                 config.av_altitude_m, stream.generator(), id_start=1)


def _build_links(config: ScenarioConfig, sites, background, r_ga_m: float) -> Topology:
    """A topology's deterministic step: its links, in canonical order.

    The destination vehicle sits at (r_ga_m, 0) served by the center site
    (the reference layout pins the serving site at the origin), and the
    background vehicles nearest to it, at least 1 m away, act as relays.
    """
    serving = sites[0]
    destination = geo.NodePose(0, _DISTANCE.check("r_ga_m", r_ga_m), 0.0, config.av_altitude_m)
    hap = geo.NodePose(0, 0.0, 0.0, config.hap_altitude_m)
    gs = geo.NodePose(0, config.hap_gs_offset_m, 0.0, 0.0)
    candidates = [b for b in background if geo.distance_3d(b, destination) >= 1.0]
    candidates.sort(key=lambda b: (geo.distance_3d(b, destination), b.id))

    links: dict[str, LinkSetup] = {}
    links["g2a_dest"] = _g2a_link(serving, destination, sites, config)
    for m, relay in enumerate(candidates[:config.a2a_relay_count], start=1):
        links[f"g2a_relay_{m}"] = _g2a_link(geo.serving_bs(relay, sites), relay, sites, config)
        links[f"a2a_{m}"] = _a2a_link(relay, destination, background, config)
    links["g2h"] = _g2h_link(gs, hap, config)
    links["h2a"] = _h2a_link(hap, destination, sites, serving, config)
    return Topology(links, geo.distance_3d(gs, hap), geo.distance_3d(hap, destination))


def instantiate(config: ScenarioConfig, stream: RngStream, r_ga_m: float) -> Topology:
    """One topology realization: the background placed from stream, then
    the links of the destination at r_ga_m."""
    sites = geo.hex_grid(config.grid())
    return _build_links(config, sites, _place_background(config, sites, stream), r_ga_m)


# ============================================================
# Link and path evaluation
# ============================================================

# stream namespaces: sweep topology / sweep samples / region topology / region samples
_NS_SWEEP_TOPO, _NS_SWEEP_SAMP, _NS_REGION_TOPO, _NS_REGION_SAMP = 0, 1, 2, 3


# a link that never delivers: the stats of a relay that instantiate could not place
_NEVER = LinkStats(1.0, math.inf, 0, 0.0)


def _topology_rows(topology: Topology, stats: dict, config: ScenarioConfig) -> dict:
    """{label: PathOutcome} of one topology at one rate, from that rate's
    {link name: LinkStats}: the single paths DA2G, A2A (the first relay)
    and HAP, then every combination beyond the direct path. Every topology
    has the same labels: a relay that instantiate could not place (no
    vehicle left 1 m or more from the destination) has no links, so its
    path runs over links that never deliver (_NEVER), with error 1 and
    infinite delay, and a combination that adds it equals the one without
    it. Feasibility is decided on the averages (_mean_outcomes)."""
    backhaul = config.backhaul()
    da2g = e2e.da2g_path(backhaul, config.queue("gbs"), stats["g2a_dest"],
                         config.diversity_branches)
    a2a_paths = [
        e2e.a2a_path(
            backhaul, config.queue("gbs"), stats.get(f"g2a_relay_{m}", _NEVER),
            config.queue("av"), stats.get(f"a2a_{m}", _NEVER), label=f"A2A-{m}",
        )
        for m in range(1, config.a2a_relay_count + 1)
    ]
    hap = e2e.hap_path(
        backhaul, config.queue("gs"), stats["g2h"], topology.d_g2h_m,
        config.queue("hap"), stats["h2a"], topology.d_h2a_m,
    )
    rows = {"DA2G": da2g, "A2A": a2a_paths[0], "HAP": hap}
    # the first combination is DA2G alone
    rows.update((combo.label, combo)
                for combo in e2e.enumerate_combinations(da2g, a2a_paths, hap)[1:])
    return rows


def _link_stats(config: ScenarioConfig, rates_bps, buffers: threading.local,
                setup: LinkSetup, stream: RngStream) -> list:
    """One work item: the LinkStats of one link at every rate, from
    n_samples SINR draws in mc_batch_size batches, batch i drawn from
    stream.child(i). The items of a run share buffers, which holds the
    (SINR_WORK_ROWS, batch) array of each worker thread, allocated on its
    first item: each batch is drawn into its first row, and the kernel
    works in the other rows, which hold only the sampler's scratch until
    the next batch is drawn. One array per thread rather than one per item
    keeps the heap from fragmenting under it."""
    work = getattr(buffers, "work", None)
    if work is None:
        work = buffers.work = np.empty((SINR_WORK_ROWS,
                                        min(config.mc_batch_size, config.n_samples)))
    n, size = config.n_samples, config.mc_batch_size
    batches = (sinr_sample(setup, stream.child(batch_ix).generator(), min(size, n - done),
                           work=work)
               for batch_ix, done in enumerate(range(0, n, size)))
    return decoding_error_stats(batches, setup.radio.bandwidth_hz, config.packet_bits,
                                rates_bps, work=work[1:])


def _add_rows(sums: dict, rows: dict) -> None:
    """Add one topology's {label: PathOutcome} at one rate into that rate's
    running sums, {label: [ε, ε SE², delay, delay SE², all queues admit]}.
    An infinite delay SE keeps its sum infinite. Topologies are added in
    order, one float addition each, so the sums do not depend on the Python
    version."""
    for label, o in rows.items():
        s = sums.setdefault(label, [0.0, 0.0, 0.0, 0.0, True])
        s[0] += o.eps_e2e
        s[1] += o.eps_std_error ** 2
        s[2] += o.d_e2e
        s[3] += o.d_std_error ** 2
        s[4] = s[4] and o.queues_admit


def _mean_outcomes(sums: dict, t: int, rate_bps: float, qos: e2e.QosTarget) -> dict:
    """{label: SweepRow} at one rate, from the running sums (_add_rows) of
    t topologies. This is the one feasibility decision: the averages must
    meet the target and every queue the label's paths cross must admit."""
    merged = {}
    for label, (eps, eps_var, delay, delay_var, admit) in sums.items():
        eps, delay = eps / t, delay / t
        merged[label] = SweepRow(rate_bps, label, eps, math.sqrt(eps_var) / t,
                                 delay, math.sqrt(delay_var) / t,
                                 qos.admits(eps, delay) and admit)
    return merged


def _group_means(config: ScenarioConfig, groups, n_topo: int, rates_bps,
                 threads: int) -> list:
    """Per group, per rate: {label: SweepRow} averaged over the group's
    n_topo topologies (_mean_outcomes).

    A group is (topology key, sample key, r_ga_m): its topology t is
    instantiate(config, root.child(*topology key, t), r_ga_m) and draws from
    root.child(*sample key, t), where root is the master seed's stream.
    Every link of every topology is one work item, (setup, stream) for
    _link_stats with the run's constants bound, and link i of a topology
    draws from its sample stream's child(i). Topologies are instantiated on
    the calling thread in that fixed order, as their items are submitted,
    and results are collected in submission order, so the worker count
    changes no number. Once a topology's links are in, its rows at every
    rate are added into the group's running sums (_add_rows) and it is
    dropped, so a run holds the topologies of the map's window and one
    group's sums, however many groups and topologies there are.
    """
    threads = _THREADS.check("threads", threads)
    root = RngStream(config.master_seed)
    pending = collections.deque()       # instantiated, results not yet collected

    def items():
        for topo_key, samp_key, r_ga_m in groups:
            for t in range(n_topo):
                pending.append(instantiate(config, root.child(*topo_key, t), r_ga_m=r_ga_m))
                stream = root.child(*samp_key, t)
                for link_ix, setup in enumerate(pending[-1].links.values()):
                    yield setup, stream.child(link_ix)

    link_stats = functools.partial(_link_stats, config, rates_bps, threading.local())
    stats = _parallel_map(link_stats, items(), threads)
    qos = config.qos()
    means = []
    for _ in groups:
        sums = [{} for _ in rates_bps]
        for first in itertools.islice(stats, n_topo):     # each topology's first link
            topology = pending.popleft()    # the map took it with its first link
            links = dict(zip(topology.links, itertools.chain([first], stats)))
            for rate_sums, at_rate in zip(sums, zip(*links.values())):
                _add_rows(rate_sums, _topology_rows(topology, dict(zip(links, at_rate)), config))
        means.append([_mean_outcomes(rate_sums, n_topo, rate, qos)
                      for rate_sums, rate in zip(sums, rates_bps)])
    return means


# ============================================================
# Rate sweep
# ============================================================

@dataclass(frozen=True)
class SweepRow:
    rate_bps: float
    label: str
    eps_e2e: float
    eps_std_error: float
    delay_s: float
    delay_std_error: float
    feasible: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    labels: tuple
    rates_bps: tuple
    seed: int
    config_digest: str
    diagnostics: dict


def run_rate_sweep(config: ScenarioConfig, threads: int = 1) -> SweepResult:
    """Error and delay of every path combination across the rate grid."""
    rates = [rate_kbps * 1e3 for rate_kbps in config.sweep_rates_kbps]
    group = ((_NS_SWEEP_TOPO,), (_NS_SWEEP_SAMP,), config.r_ga_m)
    (per_rate,) = _group_means(config, [group], config.sweep_topologies, rates, threads)
    rows = tuple(row for merged in per_rate for row in merged.values())
    diagnostics = {
        "effective_bandwidth_pps": {node: effective_bandwidth(config.queue(node))
                                    for node in _QUEUE_KEYS},
        "queue_gates": {node: config.queue(node).admits for node in _QUEUE_KEYS},
        "topologies": config.sweep_topologies,
        "n_samples": config.n_samples,
    }
    return SweepResult(
        rows=rows,
        labels=tuple(per_rate[0]),
        rates_bps=tuple(rates),
        seed=config.master_seed,
        config_digest=config_hash(config),
        diagnostics=diagnostics,
    )


# ============================================================
# Operating region
# ============================================================

@dataclass(frozen=True)
class RegionCell:
    r_low_m: float
    r_high_m: float
    r_center_m: float
    rate_bps: float
    label: str


@dataclass(frozen=True)
class RegionResult:
    cells: tuple
    r_edges_m: tuple
    rates_bps: tuple
    labels: tuple          # canonical combination order, "none" excluded
    seed: int
    config_digest: str

    def label_at(self, col_ix: int, rate_ix: int) -> str:
        return self.cells[col_ix * len(self.rates_bps) + rate_ix].label


def run_operating_region(config: ScenarioConfig, threads: int = 1) -> RegionResult:
    """Minimum feasible combination per (distance bin, rate bin) cell: the
    first label of CANONICAL_COMBINATIONS whose row is feasible, or "none"."""
    edges = config.region_r_edges_m
    bins = list(zip(edges, edges[1:]))
    rates = [rate_kbps * 1e3 for rate_kbps in config.region_rates_kbps]
    groups = [((_NS_REGION_TOPO, col_ix), (_NS_REGION_SAMP, col_ix), 0.5 * (lo + hi))
              for col_ix, (lo, hi) in enumerate(bins)]
    columns = _group_means(config, groups, config.region_topologies, rates, threads)
    cells = tuple(
        RegionCell(lo, hi, 0.5 * (lo + hi), rate, next(
            (label for label in CANONICAL_COMBINATIONS
             if label in merged and merged[label].feasible), "none"))
        for (lo, hi), per_rate in zip(bins, columns)
        for rate, merged in zip(rates, per_rate)
    )
    return RegionResult(
        cells=cells,
        r_edges_m=tuple(edges),
        rates_bps=tuple(rates),
        labels=CANONICAL_COMBINATIONS,
        seed=config.master_seed,
        config_digest=config_hash(config),
    )


# items in the pool per worker thread: enough that a worker finds one
# queued while the oldest, perhaps the slowest, still runs (on a 2-core
# host, 2 per worker made a 2-thread region-coarse run ~9% slower than
# queueing every item; 4 and 8 matched it)
_WINDOW_PER_WORKER = 4


def _parallel_map(fn, arg_tuples, threads: int):
    """Lazy map on up to threads worker threads, yielding results in
    submission order so they never depend on the worker count. The hot
    numpy loops release the GIL. Items are taken from arg_tuples on the
    calling thread as the pool has room, at most _WINDOW_PER_WORKER per
    worker at a time, with no barrier between any of them; the pool starts
    a thread only when no idle one can take an item, so it never starts
    more threads than there are items. On a failure the items not yet
    started are cancelled."""
    if threads <= 1:
        yield from (fn(*args) for args in arg_tuples)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        window = collections.deque()
        try:
            for args in arg_tuples:
                window.append(pool.submit(fn, *args))
                if len(window) == _WINDOW_PER_WORKER * threads:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        except BaseException:
            for f in window:
                f.cancel()
            raise
