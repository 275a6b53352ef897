"""Benchmark workloads: which CLI subcommand runs, with how many workers,
on which seeded config.

All three use the default physics (interference_mode "expected", six
interferers, a 36-beam h2a link); the seed becomes the config's
master_seed, so the program sees only the generated config file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

SWEEP_RATES_KBPS = tuple(10.0 * 100.0 ** (i / 39) for i in range(40))
REGION_RATES_KBPS = (100.0, 400.0, 1000.0)
REGION_COLUMNS = 13        # the default region_r_edges_m: 0..260 m in 20 m bins


def sweep_config(seed: int) -> dict:
    # one topology, many draws and many rates: FBL evaluation dominates
    return {
        "master_seed": seed,
        "n_samples": 400_000,
        "sweep_topologies": 1,
        "sweep_rates_kbps": list(SWEEP_RATES_KBPS),
    }


def region_config(seed: int) -> dict:
    # thirteen fresh topologies, three rates: SINR sampling dominates
    return {
        "master_seed": seed,
        "region_topologies": 1,
        "region_rates_kbps": list(REGION_RATES_KBPS),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                    # CLI subcommand
    threads: int                    # --threads of the timed runs
    compare_threads: int            # --threads of the traced run's pool comparison
    make_config: Callable[[int], dict]
    work_items: int                 # items _parallel_map distributes

    def config_text(self, seed: int, **overrides) -> str:
        """YAML text of the config (JSON is a subset of YAML)."""
        return json.dumps({**self.make_config(seed), **overrides}) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-fine", "sweep", 1, 2, sweep_config, 1),
        Workload("region-coarse", "region", 1, 2, region_config, REGION_COLUMNS),
        Workload("region-coarse-2w", "region", 2, 1, region_config, REGION_COLUMNS),
    )
}
