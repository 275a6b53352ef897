#!/usr/bin/env python3
"""Writes the reference outputs in reference/ from this checkout's src/.

    python3 perfbench/calibrate.py --seeds 0-11 --jobs 2

For each seed it runs the sweep-fine and region-coarse configs once as the
reference, then again with other mc_batch_size values. A new batch size
redraws every fade but keeps every topology, so these fading-only redraws
show how far a correct program's outputs move between draws:

- sweep: the largest |eps - eps_ref| in combined SE is printed and kept,
  so the Z_MAX rule in checks.py can be judged against it;
- region: a cell whose label changes in any redraw is marked unstable,
  with every label seen.

Run it only at a commit whose outputs are trusted; a later change is
checked against these files, not against its own outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Sample j of a link sits in batch j // B at offset j % B, and every batch
# index has its own stream, so the draws of two batch sizes can coincide
# only within the first min(B, B') samples. Small sizes keep redraws nearly
# independent of the reference (default 32768) and of each other.
SWEEP_REDRAWS = (7_000, 11_000)
REGION_REDRAWS = tuple(4_000 + 330 * i for i in range(24))
HELD_OUT_BATCH = 9_100         # used by the tests only, never for calibration


def run_cli(workload, seed: int, src: pathlib.Path, **overrides) -> dict:
    """Run the CLI once in a fresh process and return its parsed JSON output."""
    with tempfile.TemporaryDirectory(dir=HERE.parent / ".perfbench_work") as tmp:
        cfg = pathlib.Path(tmp) / "config.yaml"
        out = pathlib.Path(tmp) / "out.json"
        cfg.write_text(workload.config_text(seed, **overrides))
        subprocess.run(
            [sys.executable, "-m", "avlinksim.cli", workload.command, "--config", str(cfg),
             "--out", str(out), "--format", "json", "--quiet"],
            check=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        return json.loads(out.read_text())


def sweep_table(doc: dict) -> dict:
    labels, rates = doc["labels"], doc["rates_bps"]
    eps = [[0.0] * len(labels) for _ in rates]
    se = [[0.0] * len(labels) for _ in rates]
    for k, row in enumerate(doc["rows"]):
        i, j = divmod(k, len(labels))
        # 10 significant digits: rounding stays far below checks.REL_SLACK
        eps[i][j] = float(f"{row['eps_e2e']:.10g}")
        se[i][j] = float(f"{row['eps_std_error']:.10g}")
    return {"labels": labels, "rates_bps": rates, "eps": eps, "se": se}


def max_z(ref: dict, doc: dict) -> float:
    worst = 0.0
    other = sweep_table(doc)
    for i in range(len(ref["rates_bps"])):
        for j in range(len(ref["labels"])):
            diff = abs(other["eps"][i][j] - ref["eps"][i][j])
            scale = math.hypot(other["se"][i][j], ref["se"][i][j])
            if diff > checks.REL_SLACK * abs(ref["eps"][i][j]):
                worst = max(worst, diff / scale if scale > 0 else math.inf)
    return worst


def calibrate(seed: int, src: pathlib.Path, pool: ThreadPoolExecutor) -> dict:
    sweep, region = WORKLOADS["sweep-fine"], WORKLOADS["region-coarse"]
    jobs = {("sweep", None): pool.submit(run_cli, sweep, seed, src),
            ("region", None): pool.submit(run_cli, region, seed, src)}
    for b in SWEEP_REDRAWS:
        jobs[("sweep", b)] = pool.submit(run_cli, sweep, seed, src, mc_batch_size=b)
    for b in REGION_REDRAWS:
        jobs[("region", b)] = pool.submit(run_cli, region, seed, src, mc_batch_size=b)
    docs = {key: job.result() for key, job in jobs.items()}

    sweep_ref = sweep_table(docs[("sweep", None)])
    sweep_ref["redraw_batch_sizes"] = list(SWEEP_REDRAWS)
    sweep_ref["max_redraw_z"] = max(max_z(sweep_ref, docs[("sweep", b)])
                                    for b in SWEEP_REDRAWS)

    labels = [c["label"] for c in docs[("region", None)]["cells"]]
    unstable = {}
    for b in REGION_REDRAWS:
        for k, cell in enumerate(docs[("region", b)]["cells"]):
            if cell["label"] != labels[k]:
                unstable.setdefault(str(k), {labels[k]}).add(cell["label"])
    region_ref = {
        "labels": labels,
        "unstable": {k: sorted(v) for k, v in sorted(unstable.items(), key=lambda kv: int(kv[0]))},
        "redraw_batch_sizes": list(REGION_REDRAWS),
    }
    return {"seed": seed, "sweep": sweep_ref, "region": region_ref}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-11", help="e.g. 0-11 or 1,7")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    src = HERE.parent / "src"
    (HERE.parent / ".perfbench_work").mkdir(exist_ok=True)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        for seed in parse_seeds(args.seeds):
            ref = calibrate(seed, src, pool)
            checks.reference_path(seed).write_text(json.dumps(ref, separators=(",", ":")) + "\n")
            print(f"seed {seed}: sweep max redraw z {ref['sweep']['max_redraw_z']:.2f}, "
                  f"region unstable cells {len(ref['region']['unstable'])}/"
                  f"{len(ref['region']['labels'])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
