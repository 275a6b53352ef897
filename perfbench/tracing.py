"""Span tracing from outside the program, and the per-layer metrics.

The child process installs a Tracer before it runs the CLI. Each wrapper
replaces a function at the name its caller looks it up by, records a span
(name, start, end, parent span) in memory, and counts the work it saw.
Spans are written out once, when the run ends. Only the process that
installed the tracer records; forked pool workers call straight through.

A target that no longer exists is skipped with a warning, and every metric
that needs it comes out as null.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute path). One span name may cover several
# functions; the module is where the caller looks the name up.
TARGETS = (
    ("scenario.load_config", "avlinksim.scenario", "load_config"),
    ("scenario.run", "avlinksim.scenario", "run_rate_sweep"),
    ("scenario.run", "avlinksim.scenario", "run_operating_region"),
    ("scenario.instantiate", "avlinksim.scenario", "instantiate"),
    ("link.sinr_sample", "avlinksim.scenario", "sinr_sample"),
    ("link.decoding_error_stats", "avlinksim.scenario", "decoding_error_stats"),
    ("mathfun.sample_rician_power", "avlinksim.link", "sample_rician_power"),
    ("link.fbl_error", "avlinksim.link", "fbl_error"),
    ("mathfun.gaussian_q", "avlinksim.link", "gaussian_q"),
    ("mathfun.generator", "avlinksim.mathfun", "RngStream.generator"),
    ("e2e.compose", "avlinksim.e2e", "da2g_path"),
    ("e2e.compose", "avlinksim.e2e", "a2a_path"),
    ("e2e.compose", "avlinksim.e2e", "hap_path"),
    ("e2e.compose", "avlinksim.e2e", "enumerate_combinations"),
    ("cli.serialize", "avlinksim.cli", "_sweep_json"),
    ("cli.serialize", "avlinksim.cli", "_region_json"),
)

FBL_SPANS = ("link.fbl_error", "mathfun.gaussian_q", "link.decoding_error_stats")
SAMPLING_SPANS = ("link.sinr_sample", "mathfun.sample_rician_power", "mathfun.generator")


def _count_sinr(counts, result):
    counts["link.sinr_sample.draws"] += int(np.size(result))


def _count_rician(counts, result):
    counts["mathfun.sample_rician_power.normals"] += 2 * int(np.size(result))


def _count_fbl(counts, result):
    counts["link.fbl_error.elements"] += int(np.size(result))


def _count_q(counts, result):
    arr = np.asarray(result)
    counts["mathfun.gaussian_q.elements"] += int(arr.size)
    counts["mathfun.gaussian_q.zeros"] += int(arr.size - np.count_nonzero(arr))


def _count_topology(counts, result):
    counts["scenario.max_links"] = max(counts["scenario.max_links"], len(result.links))


def _count_config(counts, result):
    counts["scenario.n_samples"] = int(result.n_samples)


# Counting runs after the span has closed, and its time is excluded from
# the enclosing span, so it shows in no layer's self time.
COUNTERS = {
    "link.sinr_sample": _count_sinr,
    "mathfun.sample_rician_power": _count_rician,
    "link.fbl_error": _count_fbl,
    "mathfun.gaussian_q": _count_q,
    "scenario.instantiate": _count_topology,
    "scenario.load_config": _count_config,
}


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, excluded s]
        self.stack = []
        self.counts = defaultdict(int)
        self.missing = []        # "module:attr" targets not found
        self.broken = set()      # span names whose counter failed
        self.active = True
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self):
        self.active = False

    def install(self, targets=TARGETS) -> None:
        for name, module_name, attr_path in targets:
            try:
                owner, attr, fn = _resolve(module_name, attr_path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{attr_path}")
                print(f"perfbench: trace target {module_name}:{attr_path} not found; "
                      f"its metrics are null", file=sys.stderr)
                continue
            setattr(owner, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            ix = len(spans)
            spans.append([name, clock(), 0.0, parent, 0.0])
            stack.append(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[ix][2] = end
            if counter is not None and name not in self.broken:
                try:
                    counter(counts, result)
                except Exception as exc:  # noqa: BLE001 - a refactor changed the result
                    self.broken.add(name)
                    print(f"perfbench: cannot count {name}: {exc!r}; its counts are null",
                          file=sys.stderr)
                if parent >= 0:
                    spans[parent][4] += clock() - end
            return result

        # same name and module, so pickling by reference still finds it
        return functools.wraps(fn)(wrapper)

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
            "broken": sorted(self.broken),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ============================================================
# Per-layer metrics (computed in the benchmark process)
# ============================================================

PER_LAYER_UNITS = {
    "link.sinr_sample.calls": "count",
    "link.sinr_sample.draws": "count",
    "link.sinr_sample.self_s": "s",
    "link.sinr_sample.ns_per_channel_draw": "ns",
    "mathfun.sample_rician_power.normals": "count",
    "mathfun.sample_rician_power.self_s": "s",
    "mathfun.ns_per_normal": "ns",
    "mathfun.generator.calls": "count",
    "mathfun.generator.self_s": "s",
    "link.fbl_error.calls": "count",
    "link.fbl_error.elements": "count",
    "link.fbl_error.self_s": "s",
    "mathfun.gaussian_q.elements": "count",
    "mathfun.gaussian_q.self_s": "s",
    "mathfun.ns_per_q_element": "ns",
    "mathfun.gaussian_q.zero_frac": "ratio",
    "link.decoding_error_stats.self_s": "s",
    "scenario.driver.self_s": "s",
    "scenario.stored_draw_bytes": "B",
    "scenario.instantiate.calls": "count",
    "scenario.instantiate.self_s": "s",
    "e2e.compose.calls": "count",
    "e2e.compose.self_s": "s",
    "cli.serialize.self_s": "s",
    "scenario.load_config.s": "s",
    "pool.speedup": "ratio",
    "pool.efficiency": "ratio",
    "pool.load_bound": "ratio",
    "trace.fbl_share": "ratio",
    "trace.sampling_share": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


def span_totals(spans) -> tuple[dict, dict, dict, float]:
    """Per span name: calls, self time, inclusive time; and the time
    covered by root spans.

    Self time is a span's duration minus its children's durations and
    minus the counting time excluded from it. Inclusive time counts only
    the outermost span of a name, so nesting is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, self_s, incl_s = defaultdict(int), defaultdict(float), defaultdict(float)
    covered = 0.0
    for ix, (name, start, end, parent, excluded) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[ix] - excluded
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            incl_s[name] += end - start
        if parent < 0:
            covered += end - start
    return calls, self_s, incl_s, covered


def _ratio(num, den):
    """num / den; null when a part is unknown, 0 when no work was seen."""
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def per_layer_metrics(dump: dict, traced_wall_s: float, untraced_wall_s: float,
                      wall_1w_s: float, wall_2w_s: float, work_items: int) -> dict:
    """Every per-layer metric by name; null where a traced target is gone."""
    calls, self_s, incl_s, covered = span_totals(dump["spans"])
    counts = dump["counts"]
    gone = {name for name, module, attr in TARGETS
            if f"{module}:{attr}" in dump["missing"]}
    broken = set(dump["broken"])

    def span(name, table):
        return None if name in gone else table.get(name, 0)

    def count(key, source):
        return None if source in gone or source in broken else counts.get(key, 0)

    out = {
        "link.sinr_sample.calls": span("link.sinr_sample", calls),
        "link.sinr_sample.draws": count("link.sinr_sample.draws", "link.sinr_sample"),
        "link.sinr_sample.self_s": span("link.sinr_sample", self_s),
        "mathfun.sample_rician_power.normals":
            count("mathfun.sample_rician_power.normals", "mathfun.sample_rician_power"),
        "mathfun.sample_rician_power.self_s": span("mathfun.sample_rician_power", self_s),
        "mathfun.generator.calls": span("mathfun.generator", calls),
        "mathfun.generator.self_s": span("mathfun.generator", self_s),
        "link.fbl_error.calls": span("link.fbl_error", calls),
        "link.fbl_error.elements": count("link.fbl_error.elements", "link.fbl_error"),
        "link.fbl_error.self_s": span("link.fbl_error", self_s),
        "mathfun.gaussian_q.elements":
            count("mathfun.gaussian_q.elements", "mathfun.gaussian_q"),
        "mathfun.gaussian_q.self_s": span("mathfun.gaussian_q", self_s),
        "link.decoding_error_stats.self_s": span("link.decoding_error_stats", self_s),
        "scenario.driver.self_s": span("scenario.run", self_s),
        "scenario.instantiate.calls": span("scenario.instantiate", calls),
        "scenario.instantiate.self_s": span("scenario.instantiate", self_s),
        "e2e.compose.calls": span("e2e.compose", calls),
        "e2e.compose.self_s": span("e2e.compose", self_s),
        "cli.serialize.self_s": span("cli.serialize", self_s),
        "scenario.load_config.s": span("scenario.load_config", incl_s),
    }
    def ns_per(seconds, n):
        return None if seconds is None else _ratio(seconds * 1e9, n)

    normals = out["mathfun.sample_rician_power.normals"]
    q_elements = out["mathfun.gaussian_q.elements"]
    out["link.sinr_sample.ns_per_channel_draw"] = ns_per(
        span("link.sinr_sample", incl_s), None if normals is None else normals // 2)
    out["mathfun.ns_per_normal"] = ns_per(out["mathfun.sample_rician_power.self_s"], normals)
    out["mathfun.ns_per_q_element"] = ns_per(out["mathfun.gaussian_q.self_s"], q_elements)
    out["mathfun.gaussian_q.zero_frac"] = _ratio(
        count("mathfun.gaussian_q.zeros", "mathfun.gaussian_q"), q_elements)

    links = count("scenario.max_links", "scenario.instantiate")
    n_samples = count("scenario.n_samples", "scenario.load_config")
    out["scenario.stored_draw_bytes"] = (
        None if links is None or n_samples is None else n_samples * links * 8)

    speedup = wall_1w_s / wall_2w_s
    out["pool.speedup"] = speedup
    out["pool.efficiency"] = speedup / 2
    out["pool.load_bound"] = work_items / (2 * -(-work_items // 2))

    run_s = span("scenario.run", incl_s)
    for key, names in (("trace.fbl_share", FBL_SPANS),
                       ("trace.sampling_share", SAMPLING_SPANS)):
        parts = [span(n, self_s) for n in names]
        out[key] = None if None in parts else _ratio(sum(parts), run_s)
    out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    out["trace.coverage_frac"] = covered / traced_wall_s
    return {name: out[name] for name in PER_LAYER_UNITS}
