"""End-to-end path composition: reliability, delay, and path combining.

Provides:
 - BackhaulSpec / PathOutcome               : composition input and result
 - QosTarget                                : the loss and delay target
 - da2g_path / a2a_path / hap_path          : the three path constructions
 - combine_paths                            : parallel (cloned) paths
 - CANONICAL_COMBINATIONS / enumerate_combinations : canonical search order

Loss probabilities compose as 1 - prod(1 - eps_i) over the chain elements;
delays add along a chain and take the minimum across parallel paths; the
queues admit when every queue crossed does (QueueSpec.admits). This module
only composes: whether an outcome meets a QosTarget is decided once, on the
topology averages, by the scenario drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .link import LinkStats
from .mathfun import Interval, check_fields, within
from .queueing import DURATION_S, OPEN_PROBABILITY, QueueSpec

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
    delay_s: float = within(DURATION_S, 1e-3)
    eps: float = within(Interval("a probability in {}", 0, 1, "[)"), 1e-6)

    __post_init__ = check_fields


@dataclass(frozen=True)
class QosTarget:
    eps_th: float = within(OPEN_PROBABILITY)   # end-to-end loss target
    d_max_s: float = within(DURATION_S)        # end-to-end delay budget

    __post_init__ = check_fields

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
    queues_admit: bool = True       # every queue crossed admits (QueueSpec.admits)


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
    """First-order standard error of prod(value) over independent (value,
    se) factors: d prod / d value_i = prod_{j != i} value_j."""
    values = [v for v, _ in factors]
    var = 0.0
    for i, (_, se) in enumerate(factors):
        if se != 0.0:       # exact inputs (backhaul, queues) add no variance
            var += (se * math.prod(values[:i] + values[i + 1:])) ** 2
    return math.sqrt(var)


def _hop(name, delay_s, loss=None):
    """An exact hop (backhaul, propagation): a delay and, unless None, a
    loss, neither with sampling error."""
    return name, delay_s, loss, 0.0, 0.0, True


def _queue(name, spec: QueueSpec):
    """A node's queue: an exact hop that admits only if spec does."""
    return name, spec.delay_bound_s, spec.violation_prob, 0.0, 0.0, spec.admits


def _radio(name, stats: LinkStats, copies: int = 1):
    """A radio hop: stats' mean ARQ delay d_t / (1 - eps), with the variance
    that stats' eps SE induces in it. The hop sends `copies` clones over
    links that stats' one estimate describes, so its loss is eps^copies,
    with SE copies eps^(copies - 1) se."""
    partial = stats.eps_t_bar ** (copies - 1)
    if not math.isfinite(stats.d_t_bar) or stats.eps_t_bar >= 1.0:
        d_var = math.inf
    else:
        d_var = (stats.d_t_bar * stats.std_error / (1.0 - stats.eps_t_bar)) ** 2
    return (name, stats.d_t_bar, partial * stats.eps_t_bar,
            copies * partial * stats.std_error, d_var, True)


def _chain(label, hops) -> PathOutcome:
    """Compose a chain of hops (name, delay, loss or None, loss SE, delay
    variance, admits): delays and their variances add, the losses compose
    by chain_loss, the loss SE is that of the product of the survivals
    1 - loss, and the queues admit when every hop does. Totals run over
    the hop list, so hops that share a name each count."""
    lossy = [(loss, se) for _, _, loss, se, *_ in hops if loss is not None]
    return PathOutcome(
        label=label,
        eps_e2e=chain_loss(loss for loss, _ in lossy),
        d_e2e=_total(delay for _, delay, *_ in hops),
        delay_breakdown={name: delay for name, delay, *_ in hops},
        error_terms={name: loss for name, _, loss, *_ in hops if loss is not None},
        eps_std_error=_product_stderr([(1.0 - loss, se) for loss, se in lossy]),
        d_std_error=math.sqrt(_total(var for *_, var, _ in hops)),
        queues_admit=all(admits for *_, admits in hops),
    )


# ============================================================
# Path constructions
# ============================================================

def da2g_path(
    backhaul: BackhaulSpec,
    gbs_queue: QueueSpec,
    g2a: LinkStats,
    branches: int = 1,
    label: str = "DA2G",
) -> PathOutcome:
    """Direct path: backhaul -> base-station queue -> the g2a link, over
    `branches` diversity branches that each carry a clone. The branches are
    clones of the one g2a estimate, so the radio loss is its error to the
    power `branches` and the radio delay is its mean delay."""
    if branches < 1:
        raise ValueError("at least one radio branch is required")
    return _chain(label, [
        _hop("backhaul", backhaul.delay_s, backhaul.eps),
        _queue("queue_gbs", gbs_queue),
        _radio("radio_da2g", g2a, branches),
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
        _queue("queue_gbs", gbs_queue),
        _radio("radio_g2a", g2a),
        _queue("queue_relay", relay_queue),
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
        _queue("queue_gs", gs_queue),
        _radio("radio_g2h", g2h),
        _hop("prop_g2h", d_g2h_m / SPEED_OF_LIGHT_M_S),
        _queue("queue_hap", hap_queue),
        _radio("radio_h2a", h2a),
        _hop("prop_h2a", d_h2a_m / SPEED_OF_LIGHT_M_S),
    ])


# ============================================================
# Parallel combining and combination search
# ============================================================

def combine_paths(paths, label: str) -> PathOutcome:
    """Parallel cloned paths, each an independent estimate: losses
    multiply, delay is the fastest path's, queues admit if all paths' do."""
    paths = list(paths)
    if not paths:
        raise ValueError("at least one path is required")
    best = min(paths, key=lambda p: p.d_e2e)
    return PathOutcome(
        label=label,
        eps_e2e=math.prod(p.eps_e2e for p in paths),
        d_e2e=best.d_e2e,
        delay_breakdown=dict(best.delay_breakdown),
        error_terms={p.label: p.eps_e2e for p in paths},
        eps_std_error=_product_stderr([(p.eps_e2e, p.eps_std_error) for p in paths]),
        d_std_error=best.d_std_error,
        queues_admit=all(p.queues_admit for p in paths),
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
    a2a_paths = list(a2a_paths)
    return [
        combine_paths([da2g] + a2a_paths[:m] + ([hap] if platform else []),
                      label=_combination_label(m, platform))
        for m, platform in _LADDER
        if m <= len(a2a_paths)
    ]
