"""Queueing at transmitting nodes: effective-bandwidth delay guarantees.

Provides:
 - QueueSpec            : a node's traffic target and service rate; admits is its gate
 - effective_bandwidth  : service rate needed to honor the (D, eps) target
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .mathfun import POSITIVE, Interval, _Rule, check_fields, within

__all__ = ["DURATION_S", "OPEN_PROBABILITY", "QueueSpec", "effective_bandwidth"]

# a duration [s] of a queue, a backhaul or a delay target: a positive normal
# double, and so is its value in milliseconds
DURATION_S = Interval("a duration in {} s", 1e-303, math.inf, "[)")
OPEN_PROBABILITY = Interval("a probability in {}", 0, 1, "()")
# a provisioned service rate [1/s], or None (null in a config file): not provisioned
_SERVICE = _Rule(f"{POSITIVE} or null", lambda v: v is None or v in POSITIVE,
                 lambda v: None if v is None else float(v), POSITIVE)


@dataclass(frozen=True)
class QueueSpec:
    arrival_rate_pps: float = within(POSITIVE)         # mean packet arrival rate [1/s]
    delay_bound_s: float = within(DURATION_S)          # queueing-delay bound
    violation_prob: float = within(OPEN_PROBABILITY)   # allowed P[delay > bound]
    service_rate_pps: float | None = within(_SERVICE, None)

    __post_init__ = check_fields

    @property
    def admits(self) -> bool:
        """True if the queue is not provisioned or its service rate meets
        the effective bandwidth of its target."""
        return self.service_rate_pps is None or self.service_rate_pps >= effective_bandwidth(self)


def effective_bandwidth(spec: QueueSpec) -> float:
    """Minimum service rate [packets/s] meeting the delay-violation target
    for Poisson arrivals at the given rate."""
    log_inv_eps = -math.log(spec.violation_prob)
    load = spec.arrival_rate_pps * spec.delay_bound_s
    if load >= sys.float_info.min and log_inv_eps / load < math.inf:
        log_term = math.log1p(log_inv_eps / load)
    else:
        # a load below the normal doubles (it loses bits, or rounds to 0) or
        # one that makes the ratio overflow puts the log's argument above
        # 1e16, where log1p(x) is log(x): that is finite in log space
        log_term = (math.log(log_inv_eps) - math.log(spec.arrival_rate_pps)
                    - math.log(spec.delay_bound_s))
    denom = spec.delay_bound_s * log_term
    # denom is 0 only where the log's argument rounds to 0 (as when arrival
    # rate x delay bound overflows); the bandwidth's limit there is the arrival rate
    return log_inv_eps / denom if denom > 0.0 else spec.arrival_rate_pps
