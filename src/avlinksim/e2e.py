"""End-to-end path composition: reliability, delay, and path combining.

Provides:
 - BackhaulSpec / QosTarget / PathOutcome   : composition inputs and result
 - da2g_path / a2a_path / hap_path          : the three path constructions
 - combine_paths                            : parallel (cloned) paths
 - CANONICAL_COMBINATIONS / enumerate_combinations / min_feasible_combination :
                                            canonical search order

Loss probabilities compose as 1 - prod(1 - eps_i) over the chain elements;
delays add along a chain and take the minimum across parallel paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .link import LinkStats
from .queueing import QueueSpec

__all__ = [
    "SPEED_OF_LIGHT_M_S",
    "BackhaulSpec",
    "QosTarget",
    "PathOutcome",
    "chain_loss",
    "da2g_path",
    "a2a_path",
    "hap_path",
    "combine_paths",
    "CANONICAL_COMBINATIONS",
    "enumerate_combinations",
    "min_feasible_combination",
    "MAX_A2A_PATHS",
]

SPEED_OF_LIGHT_M_S = 2.998e8
MAX_A2A_PATHS = 3       # longest relay ladder in the canonical combination order


@dataclass(frozen=True)
class BackhaulSpec:
    delay_s: float = 1e-3
    eps: float = 1e-6

    def __post_init__(self):
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be non-negative")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must lie in [0, 1)")


@dataclass(frozen=True)
class QosTarget:
    eps_th: float       # end-to-end loss target
    d_max_s: float      # end-to-end delay budget

    def __post_init__(self):
        if not 0.0 < self.eps_th < 1.0:
            raise ValueError("eps_th must lie in (0, 1)")
        if self.d_max_s <= 0.0:
            raise ValueError("d_max_s must be positive")

    def admits(self, eps: float, delay_s: float) -> bool:
        """True when a loss and a delay both meet the target."""
        return bool(eps <= self.eps_th and delay_s <= self.d_max_s)


@dataclass(frozen=True)
class PathOutcome:
    label: str
    eps_e2e: float
    d_e2e: float
    feasible: bool
    delay_breakdown: dict = field(default_factory=dict)   # sums exactly to d_e2e
    error_terms: dict = field(default_factory=dict)       # chain loss terms
    eps_std_error: float = 0.0
    d_std_error: float = 0.0


# ============================================================
# Composition helpers
# ============================================================

def chain_loss(terms) -> float:
    """1 - prod(1 - eps_i), accurate for very small terms."""
    acc = 0.0
    for eps in terms:
        if not 0.0 <= eps <= 1.0:
            raise ValueError("loss terms must lie in [0, 1]")
        if eps == 1.0:
            return 1.0
        acc += math.log1p(-eps)
    return -math.expm1(acc)


def _product_stderr(factors) -> float:
    """First-order standard error of prod(value) over (estimate, value, se)
    factors: d prod / d value_i = prod_{j != i} value_j.

    Factors that are one estimate (the same object) are fully correlated:
    their partial derivatives add before squaring, so K copies give
    K value^(K-1) se.
    """
    factors = list(factors)
    values = [v for _, v, _ in factors]
    partials = {}           # id(estimate) -> (se, partial of each copy)
    for i, (est, _, se) in enumerate(factors):
        if se != 0.0:       # exact inputs (backhaul, queues) add no variance
            partials.setdefault(id(est), (se, []))[1].append(
                math.prod(values[:i] + values[i + 1:]))
    var = 0.0
    for se, copies in partials.values():
        var += (se * sum(copies)) ** 2
    return math.sqrt(var)


def _chain_eps_stderr(terms: dict, stderrs: dict) -> float:
    # 1 - eps is the product of the survivals 1 - eps_i
    return _product_stderr(
        (name, 1.0 - eps, stderrs.get(name, 0.0)) for name, eps in terms.items()
    )


def _radio_delay_var(stats: LinkStats) -> float:
    # variance of d_t / (1 - eps) induced by the eps standard error
    if not math.isfinite(stats.d_t_bar) or stats.eps_t_bar >= 1.0:
        return math.inf
    return (stats.d_t_bar * stats.std_error / (1.0 - stats.eps_t_bar)) ** 2


def _finish(label, breakdown, terms, qos, eps_stderr, d_var) -> PathOutcome:
    d_e2e = sum(breakdown.values())
    eps = chain_loss(terms.values())
    return PathOutcome(
        label=label,
        eps_e2e=eps,
        d_e2e=d_e2e,
        feasible=qos.admits(eps, d_e2e),
        delay_breakdown=breakdown,
        error_terms=terms,
        eps_std_error=eps_stderr,
        d_std_error=math.sqrt(d_var) if math.isfinite(d_var) else math.inf,
    )


# ============================================================
# Path constructions
# ============================================================

def da2g_path(
    backhaul: BackhaulSpec,
    gbs_queue: QueueSpec,
    branches,
    qos: QosTarget,
    label: str = "DA2G",
) -> PathOutcome:
    """Direct path: backhaul -> base-station queue -> K diversity branches.

    All branches carry a clone, so the radio loss is the product of branch
    errors and the radio delay is the fastest branch's mean delay. A branch
    passed more than once is one estimate, not independent ones.
    """
    branches = list(branches)
    if not branches:
        raise ValueError("at least one radio branch is required")
    radio_eps = math.prod(b.eps_t_bar for b in branches)
    best = min(branches, key=lambda b: b.d_t_bar)
    breakdown = {
        "backhaul": backhaul.delay_s,
        "queue_gbs": gbs_queue.delay_bound_s,
        "radio_da2g": best.d_t_bar,
    }
    terms = {
        "backhaul": backhaul.eps,
        "queue_gbs": gbs_queue.violation_prob,
        "radio_da2g": radio_eps,
    }
    radio_se = _product_stderr((b, b.eps_t_bar, b.std_error) for b in branches)
    eps_stderr = _chain_eps_stderr(terms, {"radio_da2g": radio_se})
    return _finish(label, breakdown, terms, qos, eps_stderr, _radio_delay_var(best))


def a2a_path(
    backhaul: BackhaulSpec,
    gbs_queue: QueueSpec,
    g2a: LinkStats,
    relay_queue: QueueSpec,
    a2a: LinkStats,
    qos: QosTarget,
    label: str = "A2A",
) -> PathOutcome:
    """Relayed path: backhaul -> base station -> relay vehicle -> destination."""
    breakdown = {
        "backhaul": backhaul.delay_s,
        "queue_gbs": gbs_queue.delay_bound_s,
        "radio_g2a": g2a.d_t_bar,
        "queue_relay": relay_queue.delay_bound_s,
        "radio_a2a": a2a.d_t_bar,
    }
    terms = {
        "backhaul": backhaul.eps,
        "queue_gbs": gbs_queue.violation_prob,
        "radio_g2a": g2a.eps_t_bar,
        "queue_relay": relay_queue.violation_prob,
        "radio_a2a": a2a.eps_t_bar,
    }
    eps_stderr = _chain_eps_stderr(
        terms, {"radio_g2a": g2a.std_error, "radio_a2a": a2a.std_error}
    )
    d_var = _radio_delay_var(g2a) + _radio_delay_var(a2a)
    return _finish(label, breakdown, terms, qos, eps_stderr, d_var)


def hap_path(
    backhaul: BackhaulSpec,
    gs_queue: QueueSpec,
    g2h: LinkStats,
    d_g2h_m: float,
    hap_queue: QueueSpec,
    h2a: LinkStats,
    d_h2a_m: float,
    qos: QosTarget,
    label: str = "HAP",
) -> PathOutcome:
    """Platform path: backhaul -> ground station -> platform -> destination.

    The long feeder and service hops add explicit propagation delays.
    """
    if d_g2h_m <= 0.0 or d_h2a_m <= 0.0:
        raise ValueError("hop distances must be positive")
    breakdown = {
        "backhaul": backhaul.delay_s,
        "queue_gs": gs_queue.delay_bound_s,
        "radio_g2h": g2h.d_t_bar,
        "prop_g2h": d_g2h_m / SPEED_OF_LIGHT_M_S,
        "queue_hap": hap_queue.delay_bound_s,
        "radio_h2a": h2a.d_t_bar,
        "prop_h2a": d_h2a_m / SPEED_OF_LIGHT_M_S,
    }
    terms = {
        "backhaul": backhaul.eps,
        "queue_gs": gs_queue.violation_prob,
        "radio_g2h": g2h.eps_t_bar,
        "queue_hap": hap_queue.violation_prob,
        "radio_h2a": h2a.eps_t_bar,
    }
    eps_stderr = _chain_eps_stderr(
        terms, {"radio_g2h": g2h.std_error, "radio_h2a": h2a.std_error}
    )
    d_var = _radio_delay_var(g2h) + _radio_delay_var(h2a)
    return _finish(label, breakdown, terms, qos, eps_stderr, d_var)


# ============================================================
# Parallel combining and combination search
# ============================================================

def combine_paths(paths, qos: QosTarget, label: str | None = None) -> PathOutcome:
    """Parallel cloned paths: losses multiply, delay is the fastest path's.
    A path passed more than once is one estimate, not independent ones."""
    paths = list(paths)
    if not paths:
        raise ValueError("at least one path is required")
    eps = math.prod(p.eps_e2e for p in paths)
    best = min(paths, key=lambda p: p.d_e2e)
    return PathOutcome(
        label=label if label is not None else " + ".join(p.label for p in paths),
        eps_e2e=eps,
        d_e2e=best.d_e2e,
        feasible=qos.admits(eps, best.d_e2e),
        delay_breakdown=dict(best.delay_breakdown),
        error_terms={p.label: p.eps_e2e for p in paths},
        eps_std_error=_product_stderr((p, p.eps_e2e, p.eps_std_error) for p in paths),
        d_std_error=best.d_std_error,
    )


def _combination_label(relays: int, platform: bool) -> str:
    return "DA2G" + (f" + {relays}-A2A" if relays else "") + (" + HAP" if platform else "")


# (relayed paths, platform path) of every combination, in preference order:
# the relay ladder on the direct path, then the same ladder with the platform
_LADDER = tuple((m, platform) for platform in (False, True) for m in range(MAX_A2A_PATHS + 1))
CANONICAL_COMBINATIONS = tuple(_combination_label(*rung) for rung in _LADDER)


def enumerate_combinations(da2g: PathOutcome, a2a_paths, hap: PathOutcome | None,
                           qos: QosTarget) -> list[PathOutcome]:
    """All candidate combinations in canonical preference order
    (CANONICAL_COMBINATIONS), skipping those that need a relayed path or a
    platform path that is not there."""
    a2a_paths = list(a2a_paths)[:MAX_A2A_PATHS]
    return [
        combine_paths([da2g] + a2a_paths[:m] + ([hap] if platform else []), qos,
                      label=_combination_label(m, platform))
        for m, platform in _LADDER
        if m <= len(a2a_paths) and (hap is not None or not platform)
    ]


def min_feasible_combination(combos) -> str:
    """Label of the first feasible combination in the given order, or "none"."""
    for combo in combos:
        if combo.feasible:
            return combo.label
    return "none"
