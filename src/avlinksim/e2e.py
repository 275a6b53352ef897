"""End-to-end path composition: reliability, delay, and path combining.

Provides:
 - BackhaulSpec / PathOutcome               : composition input and result
 - QosTarget                                : the loss and delay target
 - da2g_path / a2a_path / hap_path          : the three path constructions
 - combine_paths                            : parallel (cloned) paths
 - CANONICAL_COMBINATIONS / enumerate_combinations : canonical search order

Loss probabilities compose as 1 - prod(1 - eps_i) over the chain elements;
delays add along a chain and take the minimum across parallel paths. This
module only composes: whether an outcome meets a QosTarget is decided once,
on the topology averages, by the scenario drivers.
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
    "MAX_A2A_PATHS",
]

SPEED_OF_LIGHT_M_S = 2.998e8
MAX_A2A_PATHS = 3       # longest relay ladder in the canonical combination order


@dataclass(frozen=True)
class BackhaulSpec:
    delay_s: float = 1e-3
    eps: float = 1e-6

    def __post_init__(self):
        if not self.delay_s >= 0.0:
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
        if not self.d_max_s > 0.0:
            raise ValueError("d_max_s must be positive")

    def admits(self, eps: float, delay_s: float) -> bool:
        """True when a loss and a delay both meet the target."""
        return bool(eps <= self.eps_th and delay_s <= self.d_max_s)


@dataclass(frozen=True)
class PathOutcome:
    label: str
    eps_e2e: float
    d_e2e: float
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


def _total(values) -> float:
    """Left-to-right float sum: the order of Python 3.11's sum(), which
    Python 3.12 compensates, so a total is the same on every version."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


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
        var += (se * _total(copies)) ** 2
    return math.sqrt(var)


def _hop(name, delay_s, loss=None):
    """An exact hop (backhaul, queue, propagation): a delay and, unless
    None, a loss, neither with sampling error."""
    return name, delay_s, loss, 0.0, 0.0


def _radio(name, stats: LinkStats, eps=None, eps_se=None):
    """A radio hop: stats' mean ARQ delay d_t / (1 - eps), with the variance
    that stats' eps SE induces in it, and a loss that is stats' own unless
    eps and eps_se are given."""
    if eps is None:
        eps, eps_se = stats.eps_t_bar, stats.std_error
    if not math.isfinite(stats.d_t_bar) or stats.eps_t_bar >= 1.0:
        d_var = math.inf
    else:
        d_var = (stats.d_t_bar * stats.std_error / (1.0 - stats.eps_t_bar)) ** 2
    return name, stats.d_t_bar, eps, eps_se, d_var


def _chain(label, hops) -> PathOutcome:
    """Compose a chain of hops (name, delay, loss or None, loss SE, delay
    variance): delays and their variances add, the losses compose by
    chain_loss, and the loss SE is that of the product of the survivals
    1 - loss."""
    breakdown = {name: delay for name, delay, *_ in hops}
    terms = {name: loss for name, _, loss, _, _ in hops if loss is not None}
    survivals = [(name, 1.0 - loss, se) for name, _, loss, se, _ in hops if loss is not None]
    d_var = _total(var for *_, var in hops)
    return PathOutcome(
        label=label,
        eps_e2e=chain_loss(terms.values()),
        d_e2e=_total(breakdown.values()),
        delay_breakdown=breakdown,
        error_terms=terms,
        eps_std_error=_product_stderr(survivals),
        d_std_error=math.sqrt(d_var),
    )


# ============================================================
# Path constructions
# ============================================================

def da2g_path(
    backhaul: BackhaulSpec,
    gbs_queue: QueueSpec,
    branches,
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
    return _chain(label, [
        _hop("backhaul", backhaul.delay_s, backhaul.eps),
        _hop("queue_gbs", gbs_queue.delay_bound_s, gbs_queue.violation_prob),
        _radio("radio_da2g", min(branches, key=lambda b: b.d_t_bar),
               math.prod(b.eps_t_bar for b in branches),
               _product_stderr((b, b.eps_t_bar, b.std_error) for b in branches)),
    ])


def a2a_path(
    backhaul: BackhaulSpec,
    gbs_queue: QueueSpec,
    g2a: LinkStats,
    relay_queue: QueueSpec,
    a2a: LinkStats,
    label: str = "A2A",
) -> PathOutcome:
    """Relayed path: backhaul -> base station -> relay vehicle -> destination."""
    return _chain(label, [
        _hop("backhaul", backhaul.delay_s, backhaul.eps),
        _hop("queue_gbs", gbs_queue.delay_bound_s, gbs_queue.violation_prob),
        _radio("radio_g2a", g2a),
        _hop("queue_relay", relay_queue.delay_bound_s, relay_queue.violation_prob),
        _radio("radio_a2a", a2a),
    ])


def hap_path(
    backhaul: BackhaulSpec,
    gs_queue: QueueSpec,
    g2h: LinkStats,
    d_g2h_m: float,
    hap_queue: QueueSpec,
    h2a: LinkStats,
    d_h2a_m: float,
    label: str = "HAP",
) -> PathOutcome:
    """Platform path: backhaul -> ground station -> platform -> destination.

    The long feeder and service hops add explicit propagation delays.
    """
    if d_g2h_m <= 0.0 or d_h2a_m <= 0.0:
        raise ValueError("hop distances must be positive")
    return _chain(label, [
        _hop("backhaul", backhaul.delay_s, backhaul.eps),
        _hop("queue_gs", gs_queue.delay_bound_s, gs_queue.violation_prob),
        _radio("radio_g2h", g2h),
        _hop("prop_g2h", d_g2h_m / SPEED_OF_LIGHT_M_S),
        _hop("queue_hap", hap_queue.delay_bound_s, hap_queue.violation_prob),
        _radio("radio_h2a", h2a),
        _hop("prop_h2a", d_h2a_m / SPEED_OF_LIGHT_M_S),
    ])


# ============================================================
# Parallel combining and combination search
# ============================================================

def combine_paths(paths, label: str | None = None) -> PathOutcome:
    """Parallel cloned paths: losses multiply, delay is the fastest path's.
    A path passed more than once is one estimate, not independent ones."""
    paths = list(paths)
    if not paths:
        raise ValueError("at least one path is required")
    best = min(paths, key=lambda p: p.d_e2e)
    return PathOutcome(
        label=label if label is not None else " + ".join(p.label for p in paths),
        eps_e2e=math.prod(p.eps_e2e for p in paths),
        d_e2e=best.d_e2e,
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


def enumerate_combinations(da2g: PathOutcome, a2a_paths, hap: PathOutcome) -> list[PathOutcome]:
    """All candidate combinations in canonical preference order
    (CANONICAL_COMBINATIONS), skipping those that need more relayed paths
    than are given."""
    a2a_paths = list(a2a_paths)[:MAX_A2A_PATHS]
    return [
        combine_paths([da2g] + a2a_paths[:m] + ([hap] if platform else []),
                      label=_combination_label(m, platform))
        for m, platform in _LADDER
        if m <= len(a2a_paths)
    ]
