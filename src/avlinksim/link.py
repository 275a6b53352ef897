"""Single-link radio abstractions: SINR sampling and short-packet decoding.

Provides:
 - RadioParams / ChannelSpec / Interferer / InterfererSet : link description
 - sinr_sample          : Monte Carlo SINR draws under Rician fading
 - fbl_rate / fbl_error : finite-blocklength rate and decoding error
 - decoding_error_stats : streaming Monte Carlo link statistic (LinkStats)
                          at every rate from batches of SINR draws; each
                          batch is sorted once, and Q is evaluated only on
                          the run of draws whose error can change the
                          batch sum (the rest are exact 0s and 1s, or
                          below one ULP of it in total)
 - arq_delay            : mean persistent-retransmission delay
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathfun import gaussian_q, gaussian_q_inv, sample_rician_power

__all__ = [
    "RadioParams",
    "ChannelSpec",
    "Interferer",
    "InterfererSet",
    "LinkStats",
    "NO_INTERFERENCE",
    "sinr_sample",
    "fbl_rate",
    "fbl_error",
    "decoding_error_stats",
    "arq_delay",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class RadioParams:
    bandwidth_hz: float
    tx_power_w: float
    noise_density_w_hz: float     # thermal density before the noise figure
    noise_figure_db: float = 0.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0.0 or self.tx_power_w <= 0.0:
            raise ValueError("bandwidth_hz and tx_power_w must be positive")
        if self.noise_density_w_hz <= 0.0:
            raise ValueError("noise_density_w_hz must be positive")

    @property
    def noise_power_w(self) -> float:
        return (
            self.bandwidth_hz
            * self.noise_density_w_hz
            * 10.0 ** (self.noise_figure_db / 10.0)
        )


@dataclass(frozen=True)
class ChannelSpec:
    """Statistical description of one fading channel."""

    pl_db: float              # deterministic path-loss part
    tx_gain: float            # linear
    rx_gain: float            # linear
    k_db: float               # Rice factor
    sf_sigma_db: float = 0.0  # per-draw lognormal shadow sigma

    def __post_init__(self):
        if not self.sf_sigma_db >= 0.0:
            raise ValueError("sf_sigma_db must be non-negative")

    @property
    def mean_gain(self) -> float:
        return self.tx_gain * self.rx_gain * 10.0 ** (-self.pl_db / 10.0)


@dataclass(frozen=True)
class Interferer:
    channel: ChannelSpec
    tx_power_w: float


@dataclass(frozen=True)
class InterfererSet:
    """Co-channel interferers plus the activity model.

    mode="expected" scales the summed interferer powers by p_interf each
    draw; mode="bernoulli" switches each interferer fully on with
    probability p_interf instead.
    """

    members: tuple = ()
    p_interf: float = 0.0
    mode: str = "expected"

    def __post_init__(self):
        if not 0.0 <= self.p_interf <= 1.0:
            raise ValueError("p_interf must lie in [0, 1]")
        if self.mode not in ("expected", "bernoulli"):
            raise ValueError("mode must be 'expected' or 'bernoulli'")


NO_INTERFERENCE = InterfererSet()


@dataclass(frozen=True)
class LinkStats:
    """Monte Carlo estimate of one link's decoding error and ARQ delay."""

    eps_t_bar: float    # mean decoding error
    d_t_bar: float      # mean delay with persistent retransmission [s]
    n_samples: int
    std_error: float    # standard error of eps_t_bar


# ============================================================
# SINR sampling
# ============================================================

def _channel_draw(spec: ChannelSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Received gain mean_gain * fade (* shadow), in the fade's buffer."""
    power = sample_rician_power(spec.k_db, rng, size=n)
    power *= spec.mean_gain
    if spec.sf_sigma_db > 0.0:
        shadow = rng.standard_normal(size=n)
        shadow *= -spec.sf_sigma_db
        shadow /= 10.0
        np.power(10.0, shadow, out=shadow)
        power *= shadow
    return power


def sinr_sample(
    desired: ChannelSpec,
    interferers: InterfererSet,
    radio: RadioParams,
    rng: np.random.Generator,
    size: int = 1,
) -> np.ndarray:
    """Draw SINR realizations for one link.

    Draw order is fixed (desired channel, then each interferer in member
    order, in bernoulli mode each followed by its activity marks), so
    results are reproducible for a given generator state. Interferer
    powers are added into one running sum in member order, so memory is
    a few size-long arrays whatever the member count.
    """
    n = int(size)
    signal = _channel_draw(desired, rng, n)
    signal *= radio.tx_power_w
    if not interferers.members or interferers.p_interf == 0.0:
        signal /= radio.noise_power_w
        return signal
    bernoulli = interferers.mode == "bernoulli"
    interference = np.zeros(n)
    for member in interferers.members:
        power = _channel_draw(member.channel, rng, n)
        power *= member.tx_power_w
        if bernoulli:
            power *= rng.random(size=n) < interferers.p_interf
        interference += power
        del power   # freed before the next member draws
    if not bernoulli:
        interference *= interferers.p_interf
    interference += radio.noise_power_w
    signal /= interference
    return signal


# ============================================================
# Finite-blocklength rate and error
# ============================================================

def _dispersion(log1p_gamma: np.ndarray) -> np.ndarray:
    # V = 1 - (1 + gamma)^-2 from ln(1 + gamma), accurate for tiny gamma
    return -np.expm1(-2.0 * log1p_gamma)


def _fbl_terms(gamma: np.ndarray, bandwidth_hz: float):
    """Rate-free parts (a, b) of the FBL error argument.

    Q's argument at rate R and slot d_t is sqrt(d_t) * (a - R * b) with
    a = B ln(1 + gamma) / sqrt(B V) and b = ln 2 / sqrt(B V). gamma == 0
    has zero dispersion and zero capacity, which is certain failure:
    a = -inf there.
    """
    log1p_gamma = np.log1p(gamma)
    root = np.sqrt(bandwidth_hz * _dispersion(log1p_gamma))
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(root > 0.0, bandwidth_hz * log1p_gamma / root, -np.inf)
        b = np.where(root > 0.0, _LN2 / root, 0.0)
    return a, b


def _check_gamma(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0.0):
        raise ValueError("gamma must be non-negative and not NaN")
    return g


def fbl_rate(gamma, bandwidth_hz: float, d_t_s: float, eps: float):
    """Achievable rate [bit/s] at blocklength B*d_t and target error eps."""
    if bandwidth_hz <= 0.0 or d_t_s <= 0.0:
        raise ValueError("bandwidth_hz and d_t_s must be positive")
    g = _check_gamma(gamma)
    q_inv = gaussian_q_inv(eps)
    log1p_gamma = np.log1p(g)
    capacity = bandwidth_hz * log1p_gamma / _LN2
    penalty = (bandwidth_hz * np.sqrt(_dispersion(log1p_gamma) / (bandwidth_hz * d_t_s))
               * q_inv / _LN2)
    out = capacity - penalty
    return float(out) if np.isscalar(gamma) else out


def fbl_error(gamma, bandwidth_hz: float, d_t_s: float, packet_bits: float):
    """Decoding error of a packet_bits packet sent over d_t_s seconds."""
    if bandwidth_hz <= 0.0 or d_t_s <= 0.0 or packet_bits <= 0.0:
        raise ValueError("bandwidth_hz, d_t_s and packet_bits must be positive")
    a, b = _fbl_terms(_check_gamma(gamma), bandwidth_hz)
    out = gaussian_q(math.sqrt(d_t_s) * (a - (packet_bits / d_t_s) * b))
    return float(out) if np.isscalar(gamma) else out


def arq_delay(d_t_s: float, eps_bar: float) -> float:
    """Mean delay of persistent retransmissions: d_t / (1 - eps_bar)."""
    if not 0.0 <= eps_bar < 1.0:
        raise ValueError("eps_bar must lie in [0, 1)")
    return d_t_s / (1.0 - eps_bar)


# ============================================================
# Monte Carlo link statistic
# ============================================================

# gaussian_q(x) is exactly 1.0 in float64 for x <= -8.3 and exactly 0.0 for
# x >= 37.68; with the margins, an element counted as a 1 (argument below
# _Q_ONE) or a 0 (at or past _Q_CUTOFF) has exactly that error
_Q_ONE = -9.0
_Q_CUTOFF = 38.5
# an element whose Chernoff bound 0.5 * exp(-x^2 / 2) on Q is below
# _TAIL_REL / n of a lower bound on its batch's error sum is not evaluated:
# all of them together move that sum by less than one ULP
_TAIL_REL = 2.0 ** -64


def _count_below(a, b, rates, scale, x):
    """Per rate, how many elements have an FBL argument below x.

    a and b come from ascending SINR, and the argument
    scale * (a - rate * b) rises strictly with the SINR at every rate, so
    each count is found on a grid of every step-th element and then inside
    one step, for all rates at once.
    """
    n = a.size
    step = math.isqrt(n) + 1
    rate, scale = rates[:, None], scale[:, None]
    x = np.broadcast_to(x, rates.shape)[:, None]
    ix = np.arange(step - 1, n, step)
    start = step * np.count_nonzero(scale * (a[ix] - rate * b[ix]) < x, axis=1)
    ix = start[:, None] + np.arange(step)
    inside = ix < n
    ix = np.minimum(ix, n - 1)
    below = inside & (scale * (a[ix] - rate * b[ix]) < x)
    return start + np.count_nonzero(below, axis=1)


def _batch_moments(gamma, bandwidth_hz, packet_bits, rates):
    """Per rate: mean error of one batch and its sum of squared deviations.

    The batch is sorted once, so at every rate Q's argument rises along it
    and the errors split into three contiguous runs: arguments below
    _Q_ONE (error exactly 1, counted), the evaluated window, and a tail
    that is either exactly 0 (past _Q_CUTOFF) or below _TAIL_REL of the
    batch sum by the Chernoff bound (counted as 0). Only the window calls
    gaussian_q; its errors are summed in ascending-SINR order.
    """
    n = gamma.size
    a, b = _fbl_terms(np.sort(gamma, axis=None), bandwidth_hz)
    scale = np.sqrt(packet_bits / rates)
    ones = _count_below(a, b, rates, scale, _Q_ONE)
    end = _count_below(a, b, rates, scale, _Q_CUTOFF)
    # the certain failures plus the window's first (largest) error bound the
    # batch sum from below
    live = ones < end
    first = ones[live]
    bound = ones.astype(float)
    bound[live] += gaussian_q(scale[live] * (a[first] - rates[live] * b[first]))
    with np.errstate(divide="ignore"):
        x_cut = np.sqrt(-2.0 * np.log(bound * (_TAIL_REL / n)))
    cut = np.minimum(_count_below(a, b, rates, scale, x_cut), end)
    mean = np.empty(rates.size)
    m2 = np.empty(rates.size)
    for i, (lo, hi) in enumerate(zip(ones.tolist(), cut.tolist())):
        rate = rates[i]
        q = gaussian_q(scale[i] * (a[lo:hi] - rate * b[lo:hi]))
        m = (lo + float(q.sum())) / n
        mean[i] = m
        # the counted ones sit 1 - m from the mean, the counted zeros m
        m2[i] = (float(np.square(q - m).sum()) + lo * (1.0 - m) ** 2
                 + (n - hi) * m * m)
    return mean, m2


def decoding_error_stats(batches, bandwidth_hz: float, packet_bits: float,
                         rates_bps) -> list:
    """Monte Carlo decoding error and ARQ delay of one link at every rate.

    batches yields arrays of SINR draws. Each batch is evaluated once for
    all rates (slot d_t = packet_bits / rate) and then dropped, so memory
    is bounded by the batch size. Within a batch the errors are summed in
    ascending-SINR order (see _batch_moments). The per-batch means and sums
    of squared deviations merge in batch order (Chan, Golub & LeVeque), so
    the result depends only on the draws and the batch boundaries. SINR
    draws must be non-negative and not NaN. Returns one
    LinkStats per entry of rates_bps, in the given order.
    """
    if bandwidth_hz <= 0.0 or packet_bits <= 0.0:
        raise ValueError("bandwidth_hz and packet_bits must be positive")
    rates = np.asarray(rates_bps, dtype=float)
    if rates.ndim != 1 or rates.size == 0 or np.any(rates <= 0.0):
        raise ValueError("rates_bps must be a non-empty list of positive rates")
    count = 0
    mean = np.zeros(rates.size)
    m2 = np.zeros(rates.size)
    for gamma in batches:
        g = _check_gamma(gamma)
        b_mean, b_m2 = _batch_moments(g, bandwidth_hz, packet_bits, rates)
        total = count + g.size
        delta = b_mean - mean
        mean = mean + delta * (g.size / total)
        m2 = m2 + b_m2 + np.square(delta) * (count * g.size / total)
        count = total
    if count == 0:
        raise ValueError("at least one SINR draw is required")
    out = []
    for rate, eps, dev2 in zip(rates.tolist(), mean.tolist(), m2.tolist()):
        d_t = packet_bits / rate
        delay = arq_delay(d_t, eps) if eps < 1.0 else math.inf
        out.append(LinkStats(eps, delay, count, math.sqrt(dev2 / count / count)))
    return out

