"""Golden regression test: a small sweep and region run against committed
expected outputs.

The expected outputs in golden_expected.json were written by this module's
generator at a commit whose outputs were trusted:

    PYTHONPATH=src python tests/test_golden.py

They are compared by the rule of the benchmark's output check
(perfbench/checks.py), imported here rather than copied: a sweep eps must
lie within 4 combined standard errors of the expected value plus 1e-9
relative, and a region cell must carry the expected label unless a
fading-only redraw (another mc_batch_size) flipped it when the file was
written. The config keeps the default QoS and backhaul keys, because the
check's invariants assume them.
"""

import dataclasses
import json
import pathlib
import sys

from avlinksim import cli, scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
from calibrate import sweep_table  # noqa: E402

EXPECTED_PATH = pathlib.Path(__file__).resolve().parent / "golden_expected.json"

# two topologies per sweep row and region cell; three batches per link,
# the last one partial
GOLDEN = {
    "master_seed": 5,
    "n_samples": 20_000,
    "mc_batch_size": 8_192,
    "sweep_topologies": 2,
    "sweep_rates_kbps": [50.0, 200.0, 500.0, 1000.0],
    "region_topologies": 2,
    "region_r_edges_m": [60.0, 100.0, 140.0, 180.0],
    "region_rates_kbps": [100.0, 300.0, 600.0, 1000.0],
}
# fading-only redraws used to mark region cells as unstable
REGION_REDRAWS = (3_000, 4_100, 5_300, 6_700, 7_100, 9_900)


def _config(**overrides) -> scenario.ScenarioConfig:
    return scenario.ScenarioConfig(**{**GOLDEN, **overrides})


def _sweep_json(config, threads=1) -> str:
    return cli._sweep_json(scenario.run_rate_sweep(config, threads=threads))


def _region_json(config, threads=1) -> str:
    return cli._region_json(scenario.run_operating_region(config, threads=threads))


def _sweep_doc(config) -> dict:
    return json.loads(_sweep_json(config))


def _region_doc(config) -> dict:
    return json.loads(_region_json(config))


def build_expected() -> dict:
    """Expected sweep table and region labels, with the unstable cells."""
    sweep = sweep_table(_sweep_doc(_config()))
    labels = [c["label"] for c in _region_doc(_config())["cells"]]
    unstable = {}
    for batch in REGION_REDRAWS:
        for k, cell in enumerate(_region_doc(_config(mc_batch_size=batch))["cells"]):
            if cell["label"] != labels[k]:
                unstable.setdefault(str(k), {labels[k]}).add(cell["label"])
    region = {
        "labels": labels,
        "unstable": {k: sorted(v) for k, v in sorted(unstable.items(),
                                                     key=lambda kv: int(kv[0]))},
        "redraw_batch_sizes": list(REGION_REDRAWS),
    }
    return {"config": GOLDEN, "sweep": sweep, "region": region}


def _expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_expected_file_matches_config():
    assert _expected()["config"] == GOLDEN


def test_sweep_matches_golden():
    config = _config()
    doc = _sweep_doc(config)
    assert checks.check_sweep(doc, dataclasses.asdict(config), _expected()["sweep"]) == []


def test_region_matches_golden():
    config = _config()
    doc = _region_doc(config)
    assert checks.check_region(doc, dataclasses.asdict(config), _expected()["region"]) == []


def test_two_threads_give_identical_json():
    config = _config()
    assert _sweep_json(config, threads=2) == _sweep_json(config)
    assert _region_json(config, threads=2) == _region_json(config)


def test_planted_sweep_error_is_caught():
    config = _config()
    doc = _sweep_doc(config)
    expected = _expected()["sweep"]
    row = doc["rows"][len(doc["labels"])]            # second rate, DA2G
    row["eps_e2e"] += 12.0 * max(row["eps_std_error"], 1e-9)
    assert checks.check_sweep(doc, dataclasses.asdict(config), expected) != []


if __name__ == "__main__":
    EXPECTED_PATH.write_text(json.dumps(build_expected(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
