#!/usr/bin/env python3
"""avlinksim benchmark: runs the real CLI on a seeded workload and prints
end-to-end (--trace 0) or per-layer (--trace 1) metrics.

    python3 perfbench/run.py --workload sweep-fine --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Each CLI invocation is a fresh process running this checkout's src/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170.0        # hard stop for one workload run, inside its 180 s limit
MIN_TIMED = 3              # full invocations per timed run, whatever --seconds says


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Invocation:
    """One fresh-process CLI run and what the benchmark saw of it."""

    def __init__(self, record: dict | None, spawn: float, elapsed: float,
                 output: str | None, error: str | None, spans: dict | None = None):
        self.record, self.spawn, self.elapsed = record, spawn, elapsed
        self.output, self.error, self.spans = output, error, spans

    @property
    def setup_s(self) -> float:
        return self.record["t_setup"] - self.spawn

    @property
    def wall_s(self) -> float:
        return self.record["t_done"] - self.spawn

    @property
    def peak_rss_mb(self) -> float:
        rec = self.record
        return (rec["maxrss_self_kb"] + rec["maxrss_children_kb"]) / 1024.0


class Tally:
    """Counts attempted and failed invocations and checks their outputs."""

    def __init__(self, command: str, config: dict, ref: dict | None):
        self.command, self.config, self.ref = command, config, ref
        self.attempted = 0
        self.failed = 0
        self.digest = None     # every output of one run must be byte-identical
        self.verdicts = {}     # output digest -> problems found

    def add(self, inv: Invocation) -> bool:
        self.attempted += 1
        problems = [inv.error] if inv.error else []
        if not problems and inv.output is not None:
            digest = hashlib.sha256(inv.output.encode()).hexdigest()
            if digest not in self.verdicts:
                self.verdicts[digest] = checks.check_output(
                    self.command, inv.output, self.config, self.ref)
            problems = list(self.verdicts[digest])
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("output differs from the run's first output")
        if problems:
            self.failed += 1
            for line in problems[:10]:
                print(f"perfbench: FAILED: {line}", file=sys.stderr)
            return False
        return True


def invoke(workload, cfg_path: pathlib.Path, tag: str, threads: int, deadline: float, *,
           setup_only: bool = False, trace: bool = False) -> Invocation:
    record_path = WORK / f"{tag}.record.json"
    out_path = WORK / f"{tag}.out.json"
    trace_path = WORK / f"{tag}.spans.json"
    for p in (record_path, out_path, trace_path):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--record", str(record_path),
           "--src", str(SRC)]
    if trace:
        cmd += ["--trace", str(trace_path)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", workload.command, "--config", str(cfg_path), "--out", str(out_path),
            "--format", "json", "--threads", str(threads), "--quiet"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawn = _now()
    proc = subprocess.Popen(cmd, cwd=str(WORK), env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return Invocation(None, spawn, _now() - spawn, None, f"{tag}: timed out")
    finally:
        # pool workers share the session; none may outlive the invocation
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    elapsed = _now() - spawn
    sys.stderr.write(stderr)
    if proc.returncode != 0 or not record_path.exists():
        return Invocation(None, spawn, elapsed, None,
                          f"{tag}: exit code {proc.returncode}")
    record = json.loads(record_path.read_text())
    if record["t_setup"] is None:
        return Invocation(None, spawn, elapsed, None, f"{tag}: config was never loaded")
    if not setup_only and not out_path.exists():
        return Invocation(None, spawn, elapsed, None, f"{tag}: no output written")
    output = None if setup_only else out_path.read_text()
    spans = json.loads(trace_path.read_text()) if trace else None
    return Invocation(record, spawn, elapsed, output, None, spans)


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _prepare(workload, seed: int) -> tuple[pathlib.Path, dict, dict | None]:
    config = workload.make_config(seed)
    cfg_path = WORK / f"{workload.name}.seed-{seed}.yaml"
    cfg_path.write_text(workload.config_text(seed))
    return cfg_path, config, checks.load_reference(seed)


def timed_run(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics: alternate setup-only and full invocations."""
    cfg_path, config, ref = _prepare(workload, seed)
    tally = Tally(workload.command, config, ref)
    start = _now()
    deadline = start + RUN_LIMIT_S
    # compiles bytecode on a fresh checkout; not timed
    tally.add(invoke(workload, cfg_path, "warmup", workload.threads, deadline,
                     setup_only=True))
    setups, walls, rss = [], [], []
    while True:
        probe = invoke(workload, cfg_path, "setup", workload.threads, deadline,
                       setup_only=True)
        if tally.add(probe):
            setups.append(probe.setup_s)
        full = invoke(workload, cfg_path, "full", workload.threads, deadline)
        if tally.add(full):
            setups.append(full.setup_s)
            walls.append(full.wall_s)
            rss.append(full.peak_rss_mb)
        cycle = probe.elapsed + full.elapsed
        spent = _now() - start
        if len(walls) >= MIN_TIMED and spent + cycle > seconds:
            break
        if start + spent + cycle > deadline or tally.failed > 2:
            break
    summary = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    print(f"workload {workload.name} seed {seed} --threads {workload.threads}: "
          f"reference {'seed-%d' % seed if ref else 'none (invariant checks only)'}")
    for name, values in summary.items():
        if values:
            q1, q2, q3 = _quartiles(values)
            print(f"  {name:<12} median {q2:.4f} {END_TO_END_UNITS[name]}  "
                  f"q1 {q1:.4f}  q3 {q3:.4f}  (n={len(values)})")
    print(f"  failed_frac  {tally.failed}/{tally.attempted}")
    metrics = {name: _metric(statistics.median(values) if values else None,
                             END_TO_END_UNITS[name])
               for name, values in summary.items()}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics: each cycle runs the workload untraced, traced, and
    untraced with the other worker count (for the pool metrics)."""
    cfg_path, config, ref = _prepare(workload, seed)
    tally = Tally(workload.command, config, ref)
    start = _now()
    deadline = start + RUN_LIMIT_S
    tally.add(invoke(workload, cfg_path, "warmup", workload.threads, deadline,
                     setup_only=True))
    cycles = []
    while True:
        plain = invoke(workload, cfg_path, "plain", workload.threads, deadline)
        traced = invoke(workload, cfg_path, "traced", workload.threads, deadline, trace=True)
        other = invoke(workload, cfg_path, "other", workload.compare_threads, deadline)
        oks = [tally.add(inv) for inv in (plain, traced, other)]
        if all(oks):
            walls = {workload.threads: plain.wall_s,
                     workload.compare_threads: other.wall_s}
            cycles.append(tracing.per_layer_metrics(
                traced.spans, traced.wall_s, plain.wall_s, walls[1], walls[2],
                workload.work_items))
        cycle = plain.elapsed + traced.elapsed + other.elapsed
        spent = _now() - start
        if cycles and spent + cycle > seconds:
            break
        if start + spent + cycle > deadline or tally.failed > 2:
            break
    metrics = {}
    for name, unit in tracing.PER_LAYER_UNITS.items():
        values = [c[name] for c in cycles if c[name] is not None]
        metrics[name] = _metric(statistics.median(values) if values else None, unit)
    print(f"workload {workload.name} seed {seed} traced ({len(cycles)} cycles):")
    for name, m in metrics.items():
        shown = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<40} {shown} {m['unit']}")
    print(f"  failed_frac  {tally.failed}/{tally.attempted}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not (SRC / "avlinksim" / "cli.py").is_file():
        print(f"perfbench: no avlinksim source under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = traced_run if args.trace else timed_run
    results = {name: run(WORKLOADS[name], args.seed, args.seconds) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}/{name}": m for wl, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
