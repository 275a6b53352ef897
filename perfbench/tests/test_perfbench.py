"""Tests of the benchmark's own output check and tracer.

    python3 -m pytest perfbench/tests -q

The redraw fixture runs the real CLI twice per seed (about 15 s on one
core): at seed 1, the config default, and at seed 7, held out while the
check was written.
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
SWEEP_CONFIG = WORKLOADS["sweep-fine"].make_config(SEED)
REGION_CONFIG = WORKLOADS["region-coarse"].make_config(SEED)
HELD_OUT_SEED = 7
CANONICAL = ["DA2G", "DA2G + 1-A2A", "DA2G + 2-A2A", "DA2G + 3-A2A", "DA2G + HAP",
             "DA2G + 1-A2A + HAP", "DA2G + 2-A2A + HAP", "DA2G + 3-A2A + HAP"]


def _redraw(seed):
    """Fading-only redraw at a batch size calibration never used."""
    run.WORK.mkdir(exist_ok=True)
    return {
        name: calibrate.run_cli(WORKLOADS[name], seed, run.SRC,
                                mc_batch_size=calibrate.HELD_OUT_BATCH)
        for name in ("sweep-fine", "region-coarse")
    }


@pytest.fixture(scope="module")
def reference():
    ref = checks.load_reference(SEED)
    assert ref is not None, "reference/seed-1.json is missing"
    return ref


@pytest.fixture(scope="module")
def redraw():
    return _redraw(SEED)


def _text(doc) -> str:
    return json.dumps(doc)


def test_fading_only_redraw_passes(redraw, reference):
    assert calibrate.HELD_OUT_BATCH not in calibrate.SWEEP_REDRAWS
    assert calibrate.HELD_OUT_BATCH not in calibrate.REGION_REDRAWS
    assert checks.check_output("sweep", _text(redraw["sweep-fine"]),
                               SWEEP_CONFIG, reference) == []
    assert checks.check_output("region", _text(redraw["region-coarse"]),
                               REGION_CONFIG, reference) == []


def test_held_out_seed_redraw_passes():
    ref = checks.load_reference(HELD_OUT_SEED)
    docs = _redraw(HELD_OUT_SEED)
    assert checks.check_output("sweep", _text(docs["sweep-fine"]),
                               WORKLOADS["sweep-fine"].make_config(HELD_OUT_SEED), ref) == []
    assert checks.check_output("region", _text(docs["region-coarse"]),
                               WORKLOADS["region-coarse"].make_config(HELD_OUT_SEED), ref) == []


def test_sweep_eps_scaled_beyond_its_se_fails(redraw, reference):
    doc = copy.deepcopy(redraw["sweep-fine"])
    # the last rate: every path there has a resolved, non-zero error
    row = next(r for r in reversed(doc["rows"])
               if r["label"] == "DA2G" and r["eps_std_error"] > 0)
    row["eps_e2e"] += 12 * row["eps_std_error"]
    errors = checks.check_output("sweep", _text(doc), SWEEP_CONFIG, reference)
    assert any("combined SE" in e for e in errors), errors


def _stable_cell(ref, order, step):
    for k, label in enumerate(ref["region"]["labels"]):
        if str(k) not in ref["region"]["unstable"] and order.index(label) + step < len(order):
            return k
    raise AssertionError("no stable cell to plant an error in")


def test_region_label_moved_two_steps_fails(redraw, reference):
    doc = copy.deepcopy(redraw["region-coarse"])
    order = doc["labels"] + ["none"]
    k = _stable_cell(reference, order, 2)
    doc["cells"][k]["label"] = order[order.index(reference["region"]["labels"][k]) + 2]
    errors = checks.check_output("region", _text(doc), REGION_CONFIG, reference)
    assert any(e.startswith(f"cell {k}:") for e in errors), errors


def test_region_unstable_cell_may_take_a_calibrated_label(reference):
    ref = reference["region"]
    k, seen = next(iter(ref["unstable"].items()))
    other = next(label for label in seen if label != ref["labels"][int(k)])
    doc = {"schema": "avlinksim.region.v1", "seed": SEED,
           "labels": list(CANONICAL),
           "r_edges_m": [20.0 * i for i in range(14)],
           "rates_bps": [r * 1e3 for r in REGION_CONFIG["region_rates_kbps"]],
           "cells": [{"label": label} for label in ref["labels"]]}
    assert checks.check_output("region", _text(doc), REGION_CONFIG, reference) == []
    doc["cells"][int(k)]["label"] = other
    assert checks.check_output("region", _text(doc), REGION_CONFIG, reference) == []


def test_invariants_catch_errors_without_a_reference(redraw):
    doc = copy.deepcopy(redraw["sweep-fine"])
    assert checks.check_output("sweep", _text(doc), SWEEP_CONFIG, None) == []
    n_labels = len(doc["labels"])
    top, below = doc["rows"][-n_labels], doc["rows"][-2 * n_labels]
    top["eps_e2e"] = below["eps_e2e"] * 0.5          # error falls as the rate rises
    errors = checks.check_output("sweep", _text(doc), SWEEP_CONFIG, None)
    assert any("as the rate rises" in e for e in errors), errors
    doc = copy.deepcopy(redraw["sweep-fine"])
    doc["rows"][0]["eps_e2e"] = 1e-9                  # below the backhaul floor
    errors = checks.check_output("sweep", _text(doc), SWEEP_CONFIG, None)
    assert any("backhaul floor" in e for e in errors), errors


def test_planted_error_counts_as_failed(redraw, reference):
    good = _text(redraw["sweep-fine"])
    doc = copy.deepcopy(redraw["sweep-fine"])
    row = next(r for r in reversed(doc["rows"]) if r["eps_std_error"] > 0)
    row["eps_e2e"] += 12 * row["eps_std_error"]
    tally = run.Tally("sweep", SWEEP_CONFIG, reference)
    assert tally.add(run.Invocation({}, 0.0, 0.0, good, None))
    assert not tally.add(run.Invocation({}, 0.0, 0.0, _text(doc), None))
    assert not tally.add(run.Invocation(None, 0.0, 0.0, None, "exit code 1"))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_self_time_subtracts_children_and_counting():
    spans = [
        ["scenario.run", 0.0, 10.0, -1, 0.0],
        ["e2e.compose", 1.0, 4.0, 0, 0.5],
        ["e2e.compose", 2.0, 3.0, 1, 0.0],
        ["cli.serialize", 10.0, 11.0, -1, 0.0],
    ]
    calls, self_s, incl_s, covered = tracing.span_totals(spans)
    assert calls["e2e.compose"] == 2
    assert self_s["scenario.run"] == pytest.approx(7.0)
    assert self_s["e2e.compose"] == pytest.approx(1.5 + 1.0)
    assert incl_s["e2e.compose"] == pytest.approx(3.0)    # nested span not counted twice
    assert covered == pytest.approx(11.0)


def test_missing_target_gives_null_metrics_with_a_warning(capsys, monkeypatch):
    fake = types.ModuleType("perfbench_fake")
    fake.fbl_error = lambda n: [0.0] * n
    monkeypatch.setitem(sys.modules, "perfbench_fake", fake)
    tracer = tracing.Tracer()
    tracer.install([("link.fbl_error", "perfbench_fake", "fbl_error"),
                    ("link.gone", "perfbench_fake", "no_such_function")])
    assert fake.fbl_error(3) == [0.0] * 3
    assert "perfbench_fake:no_such_function not found" in capsys.readouterr().err
    assert [s[0] for s in tracer.spans] == ["link.fbl_error"]
    assert tracer.counts["link.fbl_error.elements"] == 3

    dump = {"spans": [["scenario.run", 0.0, 2.0, -1, 0.0]], "counts": {},
            "missing": ["avlinksim.link:fbl_error"], "broken": []}
    metrics = tracing.per_layer_metrics(dump, 2.5, 2.4, 2.0, 1.0, 13)
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    assert metrics["link.fbl_error.calls"] is None
    assert metrics["link.fbl_error.self_s"] is None
    assert metrics["trace.fbl_share"] is None
    assert metrics["scenario.driver.self_s"] == pytest.approx(2.0)
    assert metrics["pool.load_bound"] == pytest.approx(13 / 14)
    assert metrics["pool.speedup"] == pytest.approx(2.0)


def test_exits_nonzero_without_result_when_source_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench_json = BENCH.parent / "BENCHMARK.json"
    if bench_json.exists():
        shutil.copy(bench_json, tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep-fine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
