"""Command line interface.

Subcommands:
  sweep        error/delay vs. data rate for every path combination
  region       minimum feasible combination over a distance x rate grid
  link-budget  deterministic single-link budget breakdown
  validate     run the embedded invariant suite, optionally check a config

Exit codes: 0 success, 1 validation findings, 2 usage or config errors,
3 output I/O errors.

Outputs carry no timestamps and floats use shortest round-trip formatting,
so reruns with the same config, seed, and worker count are byte-identical
(and worker count itself never changes the numbers).

If --config names a relative path that does not exist in the working
directory, it is looked up under $AVLINKSIM_CONFIG_DIR as well.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import pathlib
import sys
import tempfile

import click
import numpy as np

from . import __version__, channel, e2e, geometry, link, mathfun, queueing, scenario

CONFIG_DIR_ENV = "AVLINKSIM_CONFIG_DIR"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_IO = 3

# ============================================================
# Shared helpers
# ============================================================

def _resolve_config(path_str: str | None):
    if path_str is None:
        return None
    path = pathlib.Path(path_str)
    if path.is_absolute() or path.exists():
        return path
    base = os.environ.get(CONFIG_DIR_ENV)
    if base:
        candidate = pathlib.Path(base) / path
        if candidate.exists():
            return candidate
    return path


def _load(config_path: str | None, seed: int | None) -> scenario.ScenarioConfig:
    config = scenario.load_config(_resolve_config(config_path))
    if seed is not None:
        config = dataclasses.replace(config, master_seed=seed)
    return config


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_num(value):
    # non-finite floats become null, so the JSON stays strict
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(text: str, out_path: str | None) -> None:
    """Print to stdout, or atomically replace the target file."""
    if out_path is None:
        click.echo(text, nl=False)
        return
    target = pathlib.Path(out_path)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _fail_config(exc: scenario.ConfigError) -> None:
    click.echo(f"config error: {exc}", err=True)
    sys.exit(EXIT_USAGE)


def _fail_io(exc: OSError) -> None:
    click.echo(f"i/o error: {exc}", err=True)
    sys.exit(EXIT_IO)


# ============================================================
# Serializers
# ============================================================

def _csv(head: list, cls, records) -> str:
    """Comment header lines, then one column per field of the record class."""
    names = [f.name for f in dataclasses.fields(cls)]
    lines = head + [",".join(names)]
    lines += [",".join(_fmt(getattr(rec, name)) for name in names) for rec in records]
    return "\n".join(lines) + "\n"


def _json(payload: dict, key: str, records) -> str:
    """Canonical JSON of the payload plus the records, one {field: value}
    object each, under key."""
    payload[key] = [{f.name: _json_num(getattr(rec, f.name)) for f in dataclasses.fields(rec)}
                    for rec in records]
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _sweep_csv(result: scenario.SweepResult) -> str:
    return _csv([
        "# avlinksim sweep v1",
        f"# config_sha256: {result.config_digest}",
        f"# seed: {result.seed}",
        f"# n_samples: {result.diagnostics['n_samples']}",
        f"# topologies: {result.diagnostics['topologies']}",
    ], scenario.SweepRow, result.rows)


def _sweep_json(result: scenario.SweepResult) -> str:
    return _json({
        "schema": "avlinksim.sweep.v1",
        "config_sha256": result.config_digest,
        "seed": result.seed,
        "labels": list(result.labels),
        "rates_bps": list(result.rates_bps),
        "diagnostics": result.diagnostics,
    }, "rows", result.rows)


def _region_csv(result: scenario.RegionResult) -> str:
    return _csv([
        "# avlinksim region v1",
        f"# config_sha256: {result.config_digest}",
        f"# seed: {result.seed}",
        f"# labels: {'; '.join(result.labels)}",
    ], scenario.RegionCell, result.cells)


def _region_json(result: scenario.RegionResult) -> str:
    return _json({
        "schema": "avlinksim.region.v1",
        "config_sha256": result.config_digest,
        "seed": result.seed,
        "labels": list(result.labels),
        "r_edges_m": list(result.r_edges_m),
        "rates_bps": list(result.rates_bps),
    }, "cells", result.cells)


# ============================================================
# Commands
# ============================================================

@click.group()
@click.version_option(version=__version__, prog_name="avlinksim")
def main() -> None:
    """Monte Carlo link simulator for remote-piloting connectivity."""


_common = [
    click.option("--config", "config_path", type=str, default=None,
                 help="YAML config file (defaults applied for missing keys)."),
    click.option("--seed", type=int, default=None,
                 help="Override the master seed from the config."),
    click.option("--out", "out_path", type=str, default=None,
                 help="Output file (atomic replace); stdout when omitted."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                 default="csv", show_default=True),
    click.option("--threads", type=click.IntRange(scenario._THREADS.low, scenario._THREADS.high),
                 default=1, show_default=True,
                 help="Worker threads; results are identical for any value."),
    click.option("--quiet", is_flag=True, help="Suppress progress messages."),
]


def _with_common(fn):
    for deco in reversed(_common):
        fn = deco(fn)
    return fn


def _run(run, serializers: dict, summary, config_path, seed, out_path, fmt, threads,
         quiet) -> None:
    """Body of the sweep and region commands: load, run, write, report."""
    try:
        config = _load(config_path, seed)
    except scenario.ConfigError as exc:
        _fail_config(exc)
    result = run(config, threads=threads)
    text = serializers[fmt](result)
    try:
        _emit(text, out_path)
    except OSError as exc:
        _fail_io(exc)
    if not quiet and out_path is not None:
        click.echo(f"{summary(result)} -> {out_path}", err=True)


@main.command()
@_with_common
def sweep(**opts) -> None:
    """Rate sweep at the configured destination distance."""
    _run(scenario.run_rate_sweep, {"csv": _sweep_csv, "json": _sweep_json},
         lambda r: f"sweep: {len(r.rows)} rows "
                   f"({len(r.rates_bps)} rates x {len(r.labels)} paths)", **opts)


@main.command()
@_with_common
def region(**opts) -> None:
    """Operating-region grid of minimum feasible combinations."""
    _run(scenario.run_operating_region, {"csv": _region_csv, "json": _region_json},
         lambda r: f"region: {len(r.cells)} cells "
                   f"({len(r.r_edges_m) - 1} distance bins x {len(r.rates_bps)} rates)",
         **opts)


def _echo_budget(title: str, entries: list) -> None:
    click.echo(title)
    for key, value in entries:
        click.echo(f"  {key}: {_fmt(value)}")


def _db(linear: float) -> float:
    return 10.0 * math.log10(linear) if linear > 0 else -math.inf


def _mean_snr(setup: scenario.LinkSetup) -> float:
    """Mean SNR [dB] of the desired channel, without interference: its
    mean gain at the radio's power, in sinr_sample's operation order."""
    return _db(setup.desired.mean_gain * setup.radio.tx_power_w / setup.radio.noise_power_w)


def _pose(x: float, altitude: float) -> geometry.NodePose:
    return geometry.NodePose(0, x, 0.0, altitude)


def _budget_g2a(config: scenario.ScenarioConfig, distance_m: float) -> None:
    site = _pose(0.0, config.gbs_height_m)
    av = _pose(distance_m, config.av_altitude_m)
    setup = scenario._g2a_link(site, av, [], config)
    d3 = geometry.distance_3d(site, av)
    _echo_budget("g2a link budget", [
        ("d_2d_m", distance_m),
        ("d_3d_m", d3),
        ("elevation_deg", geometry.elevation_angle_deg(site, av)),
        ("p_los", channel.p_los(distance_m, site.altitude, av.altitude, config.environment())),
        ("pl_los_db", float(channel.pl_g2a_los_db(d3, config.fc_ghz))),
        ("pl_nlos_db", float(channel.pl_g2a_nlos_db(d3, av.altitude, config.fc_ghz))),
        ("pl_avg_db", setup.desired.pl_db),
        ("tx_array_gain_db", _db(setup.desired.tx_gain)),
        ("rice_k_db", setup.desired.k_db),
        ("noise_power_w", setup.radio.noise_power_w),
        ("mean_snr_db", _mean_snr(setup)),
    ])


def _budget_a2a(config: scenario.ScenarioConfig, distance_m: float) -> None:
    relay = _pose(0.0, config.av_altitude_m)
    av = _pose(distance_m, config.av_altitude_m)
    setup = scenario._a2a_link(relay, av, [], config)
    _echo_budget("a2a link budget", [
        ("d_3d_m", geometry.distance_3d(relay, av)),
        ("fspl_db", setup.desired.pl_db),
        ("rice_k_db", setup.desired.k_db),
        ("noise_power_w", setup.radio.noise_power_w),
        ("mean_snr_db", _mean_snr(setup)),
    ])


def _budget_hap(config: scenario.ScenarioConfig, offset_m: float) -> None:
    hap = _pose(0.0, config.hap_altitude_m)
    av = _pose(offset_m, config.av_altitude_m)
    site = _pose(0.0, config.gbs_height_m)
    setup = scenario._h2a_link(hap, av, [site], site, config)
    d3 = geometry.distance_3d(hap, av)
    _echo_budget("hap link budget", [
        ("nadir_offset_m", offset_m),
        ("d_3d_m", d3),
        ("elevation_deg", geometry.elevation_angle_deg(av, hap)),
        ("fspl_db", setup.desired.pl_db),
        ("beam_gain_db", _db(setup.desired.tx_gain)),
        ("rice_k_db", setup.desired.k_db),
        ("prop_delay_us", 1e6 * d3 / e2e.SPEED_OF_LIGHT_M_S),
        ("mean_snr_db", _mean_snr(setup)),
    ])


@main.command("link-budget")
@click.argument("kind", type=click.Choice(["g2a", "a2a", "hap"]))
@click.option("--distance-m", type=float, default=None,
              help=f"g2a: horizontal site-to-vehicle distance, {scenario._DISTANCE}; a2a: "
                   f"vehicle separation (required), {channel.LENGTH}; hap: nadir offset "
                   f"(default 0), {scenario._DISTANCE}.")
@click.option("--config", "config_path", type=str, default=None)
def link_budget(kind, distance_m, config_path) -> None:
    """Deterministic budget breakdown for a single link type."""
    # the config's intervals: a vehicle separation is a length, an offset may be 0
    within = channel.LENGTH if kind == "a2a" else scenario._DISTANCE
    if distance_m is not None and distance_m not in within:
        raise click.UsageError(f"--distance-m must be finite and {within} for {kind}, "
                               f"got {distance_m}")
    if kind == "a2a" and distance_m is None:
        raise click.UsageError("a2a requires --distance-m")
    try:
        config = _load(config_path, None)
    except scenario.ConfigError as exc:
        _fail_config(exc)
    if distance_m is None:
        distance_m = config.r_ga_m if kind == "g2a" else 0.0
    {"g2a": _budget_g2a, "a2a": _budget_a2a, "hap": _budget_hap}[kind](config, distance_m)


# ============================================================
# Embedded invariants
# ============================================================

# the shipped defaults, which the invariants check
_DEFAULTS = scenario.ScenarioConfig()


def _inv_gaussian_q_round_trip() -> None:
    for p in (1e-7, 1e-5, 1e-2, 0.4):
        x = mathfun.gaussian_q_inv(p)
        assert abs(mathfun.gaussian_q(x) - p) <= 1e-9 * p, f"round trip off at {p}"


def _inv_fbl_round_trip() -> None:
    gamma, bw, d_t, eps = 10.0, 0.4e6, 6.4e-4, 1e-5
    rate = link.fbl_rate(gamma, bw, d_t, eps)
    back = link.fbl_error(gamma, bw, d_t, rate * d_t)
    assert abs(back - eps) <= 1e-6 * eps, "rate/error inversion mismatch"


def _inv_hex_grid() -> None:
    tiers, sites = _DEFAULTS.grid_tiers, geometry.hex_grid(_DEFAULTS.grid())
    count = 3 * tiers ** 2 + 3 * tiers + 1
    assert len(sites) == count, f"expected {count} sites, got {len(sites)}"
    dmin = min(geometry.distance_2d(sites[0], s) for s in sites[1:])
    assert abs(dmin - _DEFAULTS.isd_m) < 1e-9, "nearest-site spacing is not one ISD"


def _inv_rician_unit_mean() -> None:
    rng = mathfun.RngStream(12345).generator()
    omega2 = mathfun.sample_rician_power(12.0, rng, size=200_000)
    assert abs(float(np.mean(omega2)) - 1.0) < 0.02, "fading power not unit mean"


def _inv_chain_loss() -> None:
    terms = [1e-3, 2e-4, 5e-6]
    direct = 1.0 - (1 - terms[0]) * (1 - terms[1]) * (1 - terms[2])
    assert abs(e2e.chain_loss(terms) - direct) <= 1e-15, "chain loss mismatch"


def _inv_effective_bandwidth() -> None:
    spec = _DEFAULTS.queue("gbs")
    e_bw = queueing.effective_bandwidth(spec)
    assert e_bw > spec.arrival_rate_pps, "effective bandwidth below arrival rate"
    assert abs(e_bw - 13423.836634389200146) < 1e-6, "effective bandwidth drifted"


def _inv_stream_map() -> None:
    s = mathfun.RngStream(7)
    assert s.child(2, 3) == s.child(2).child(3), "child folding broken"
    assert s.child(2, 3) != s.child(3, 2), "child order must matter"


def _inv_antenna_peaks() -> None:
    ula = _DEFAULTS.ula()
    af = channel.ula_array_factor(ula.downtilt_deg, ula)
    assert abs(af - ula.n_elements) < 1e-9, "boresight array factor is not N"
    peak = 10.0 ** (_DEFAULTS.hap_max_gain_dbi / 10.0)
    assert abs(channel.hap_gain(0.0, _DEFAULTS.reflector()) - peak) < 1e-9, "on-axis beam gain"


def _inv_los_probability() -> None:
    env, h_g, h_a = _DEFAULTS.environment(), _DEFAULTS.gbs_height_m, _DEFAULTS.av_altitude_m
    values = [channel.p_los(r, h_g, h_a, env) for r in (10, 150, 600, 2000)]
    assert all(0.0 <= v <= 1.0 for v in values), "LoS probability out of range"
    assert all(a >= b for a, b in zip(values, values[1:])), "LoS must not grow with range"


_INVARIANTS = [
    ("gaussian q round trip", _inv_gaussian_q_round_trip),
    ("finite-blocklength inversion", _inv_fbl_round_trip),
    ("hex grid layout", _inv_hex_grid),
    ("rician unit mean power", _inv_rician_unit_mean),
    ("loss composition", _inv_chain_loss),
    ("effective bandwidth", _inv_effective_bandwidth),
    ("stream map", _inv_stream_map),
    ("antenna peaks", _inv_antenna_peaks),
    ("los probability", _inv_los_probability),
]


@main.command()
@click.option("--config", "config_path", type=str, default=None,
              help="Also validate this config file.")
def validate(config_path) -> None:
    """Run fast self-checks; report findings and exit 1 if any fail."""
    failures = 0
    for name, fn in _INVARIANTS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - findings, not crashes
            failures += 1
            click.echo(f"FAIL - {name}: {exc}")
        else:
            click.echo(f"ok   - {name}")
    if config_path is not None:
        try:
            scenario.load_config(_resolve_config(config_path))
        except scenario.ConfigError as exc:
            failures += 1
            click.echo(f"FAIL - config file: {exc}")
        else:
            click.echo("ok   - config file")
    total = len(_INVARIANTS) + (1 if config_path is not None else 0)
    click.echo(f"{total - failures} passed, {failures} failed")
    if failures:
        sys.exit(EXIT_FINDINGS)


if __name__ == "__main__":
    main()
