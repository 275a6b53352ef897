"""Output checks for the benchmark's CLI runs.

Every output is checked for structure and physics invariants. When a
reference file exists for the seed, it is also compared with the reference
outputs committed in reference/, by the rule calibrated with fading-only
redraws (see README.md):

- sweep: each eps_e2e lies within Z_MAX combined standard errors of the
  reference, plus a relative slack REL_SLACK for summation order;
- region: a cell calibrated as stable must carry the reference label; an
  unstable cell may carry a label seen during calibration or one canonical
  step from the reference label.
"""

from __future__ import annotations

import json
import math
import pathlib

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"
Z_MAX = 4.0
REL_SLACK = 1e-9
EPS_B = 1e-6               # default backhaul loss: a floor for every single path
EPS_TH = 1e-5              # default loss target
DELAY_MAX_S = 10e-3        # default delay budget
SINGLE_PATHS = ("DA2G", "A2A", "HAP")


def reference_path(seed: int) -> pathlib.Path:
    return REFERENCE_DIR / f"seed-{seed}.json"


def load_reference(seed: int) -> dict | None:
    path = reference_path(seed)
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, rel: float = REL_SLACK) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _common(doc: dict, schema: str, config: dict, rates_key: str) -> list[str]:
    errors = []
    if doc.get("schema") != schema:
        errors.append(f"schema {doc.get('schema')!r}, expected {schema!r}")
    if doc.get("seed") != config["master_seed"]:
        errors.append(f"seed {doc.get('seed')!r}, expected {config['master_seed']}")
    rates = doc.get("rates_bps", [])
    want = [r * 1e3 for r in config[rates_key]]
    if len(rates) != len(want) or not all(_close(a, b) for a, b in zip(rates, want)):
        errors.append("rates_bps differ from the config")
    return errors


def check_sweep(doc: dict, config: dict, ref: dict | None) -> list[str]:
    errors = _common(doc, "avlinksim.sweep.v1", config, "sweep_rates_kbps")
    if errors:
        return errors
    labels, rates = doc["labels"], doc["rates_bps"]
    rows = doc["rows"]
    if len(rows) != len(labels) * len(rates):
        return [f"{len(rows)} rows, expected {len(labels)} x {len(rates)}"]
    eps = [[0.0] * len(labels) for _ in rates]
    se = [[0.0] * len(labels) for _ in rates]
    for k, row in enumerate(rows):
        i, j = divmod(k, len(labels))
        where = f"row {row.get('rate_bps')}/{row.get('label')}"
        if row["label"] != labels[j] or not _close(row["rate_bps"], rates[i]):
            return [f"{where}: out of (rate, label) order"]
        e, s = row["eps_e2e"], row["eps_std_error"]
        if e is None or s is None or not 0.0 <= e <= 1.0 or s < 0.0:
            errors.append(f"{where}: eps {e!r} +- {s!r} is not a probability with an SE")
            continue
        eps[i][j], se[i][j] = e, s
        if row["label"] in SINGLE_PATHS and e < EPS_B * (1.0 - REL_SLACK):
            errors.append(f"{where}: eps {e!r} is below the backhaul floor {EPS_B}")
        delay = row["delay_s"]
        if row["feasible"] and not (e <= EPS_TH and delay is not None and delay <= DELAY_MAX_S):
            errors.append(f"{where}: feasible although eps {e!r}, delay {delay!r}")
    if errors:
        return errors
    # every rate reuses the same SINR draws, so each path's error can only
    # grow with the rate
    for j, label in enumerate(labels):
        for i in range(1, len(rates)):
            if eps[i][j] < eps[i - 1][j] * (1.0 - REL_SLACK):
                errors.append(f"{label}: eps falls from {eps[i - 1][j]!r} to "
                              f"{eps[i][j]!r} as the rate rises to {rates[i]}")
    if ref is None or errors:
        return errors
    if ref["labels"] != labels or len(ref["eps"]) != len(rates):
        return ["labels or rates differ from the reference"]
    for i, rate in enumerate(rates):
        for j, label in enumerate(labels):
            e_ref, s_ref = ref["eps"][i][j], ref["se"][i][j]
            limit = Z_MAX * math.hypot(s_ref, se[i][j]) + REL_SLACK * abs(e_ref)
            if abs(eps[i][j] - e_ref) > limit:
                z = abs(eps[i][j] - e_ref) / max(math.hypot(s_ref, se[i][j]), 1e-300)
                errors.append(f"{rate}/{label}: eps {eps[i][j]!r} vs reference "
                              f"{e_ref!r} ({z:.1f} combined SE)")
    return errors


def check_region(doc: dict, config: dict, ref: dict | None) -> list[str]:
    errors = _common(doc, "avlinksim.region.v1", config, "region_rates_kbps")
    if errors:
        return errors
    order = list(doc["labels"]) + ["none"]
    cells = doc["cells"]
    n_cols = len(doc["r_edges_m"]) - 1
    if len(cells) != n_cols * len(doc["rates_bps"]):
        return [f"{len(cells)} cells, expected {n_cols} x {len(doc['rates_bps'])}"]
    labels = [cell["label"] for cell in cells]
    errors += [f"cell {k}: unknown label {lab!r}" for k, lab in enumerate(labels)
               if lab not in order]
    if ref is None or errors:
        return errors
    if len(ref["labels"]) != len(labels):
        return ["cell count differs from the reference"]
    for k, (got, want) in enumerate(zip(labels, ref["labels"])):
        if got == want:
            continue
        seen = ref["unstable"].get(str(k))
        if seen is None:
            errors.append(f"cell {k}: {got!r}, reference {want!r} (stable in calibration)")
        elif got not in seen and abs(order.index(got) - order.index(want)) > 1:
            errors.append(f"cell {k}: {got!r} is more than one canonical step from "
                          f"{want!r} and was not seen in calibration {seen}")
    return errors


def check_output(command: str, text: str, config: dict, ref: dict | None) -> list[str]:
    """Problems found in one CLI output (JSON text); empty when it passes."""
    try:
        doc = json.loads(text)
        if command == "sweep":
            return check_sweep(doc, config, None if ref is None else ref["sweep"])
        return check_region(doc, config, None if ref is None else ref["region"])
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed output: {exc!r}"]
