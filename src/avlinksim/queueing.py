"""Queueing at transmitting nodes: effective-bandwidth delay guarantees.

Provides:
 - QueueSpec            : arrival rate, delay bound, violation probability
 - effective_bandwidth  : service rate needed to honor the (D, eps) target
 - queue_feasible       : gate of a provisioned service rate against it
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["QueueSpec", "effective_bandwidth", "queue_feasible"]


@dataclass(frozen=True)
class QueueSpec:
    arrival_rate_pps: float     # mean packet arrival rate [1/s]
    delay_bound_s: float        # queueing-delay bound
    violation_prob: float       # allowed P[delay > bound]

    def __post_init__(self):
        if not self.arrival_rate_pps > 0.0:
            raise ValueError("arrival_rate_pps must be positive")
        if not self.delay_bound_s > 0.0:
            raise ValueError("delay_bound_s must be positive")
        if not 0.0 < self.violation_prob < 1.0:
            raise ValueError("violation_prob must lie in (0, 1)")


def effective_bandwidth(spec: QueueSpec) -> float:
    """Minimum service rate [packets/s] meeting the delay-violation target
    for Poisson arrivals at the given rate."""
    log_inv_eps = -math.log(spec.violation_prob)
    denom = spec.delay_bound_s * math.log(
        log_inv_eps / (spec.arrival_rate_pps * spec.delay_bound_s) + 1.0
    )
    return log_inv_eps / denom


def queue_feasible(service_rate_pps: float, spec: QueueSpec) -> bool:
    """True if the provisioned service rate meets the queueing target."""
    if service_rate_pps < 0.0:
        raise ValueError("service_rate_pps must be non-negative")
    return service_rate_pps >= effective_bandwidth(spec)
