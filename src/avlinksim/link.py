"""Single-link radio abstractions: SINR sampling and short-packet decoding.

Provides:
 - RadioParams / ChannelSpec / LinkSetup : link description
 - sinr_sample          : Monte Carlo SINR draws under Rician fading,
                          made in caller-owned batch buffers when given
 - fbl_rate / fbl_error : finite-blocklength rate and decoding error
 - decoding_error_stats : streaming Monte Carlo link statistic (LinkStats)
                          at every rate from batches of SINR draws; each
                          batch is sorted once, and Q is evaluated only on
                          the run of draws whose error can change the
                          batch sum (the rest are exact 0s and 1s, or
                          below one ULP of it in total); the kernel works
                          in caller-owned rows when given (the sampler's
                          scratch rows), and a producer may overwrite each
                          yielded batch with the next
 - arq_delay            : mean persistent-retransmission delay
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .mathfun import (_Q_BLOCK, _Q_FLUSH, POSITIVE, Interval, _Rule, check_fields, gaussian_q,
                      gaussian_q_inv, sample_rician_power, within)

__all__ = [
    "RadioParams",
    "ChannelSpec",
    "LinkSetup",
    "LinkStats",
    "LEVEL_MAX_DB",
    "LEVEL",
    "SF_SIGMA_MAX_DB",
    "SF_SIGMA",
    "sinr_sample",
    "fbl_rate",
    "fbl_error",
    "decoding_error_stats",
    "arq_delay",
]

_LN2 = math.log(2.0)
# Largest shadow sigma [dB]. A shadow gain 10^(sigma z / 10) overflows a
# double once |z| > 3082.5 / sigma (30.8 at 100 dB, which no normal draw
# reaches); past that, inf desired and interferer powers give an inf/inf SINR.
SF_SIGMA_MAX_DB = 100.0
# Largest magnitude [dB] of a power, gain, noise figure, noise density or
# Rice factor: within it the linear values, and a link budget's product of
# them, stay normal doubles
LEVEL_MAX_DB = 300.0
LEVEL = Interval("a level in {} dB", -LEVEL_MAX_DB, LEVEL_MAX_DB)
SF_SIGMA = Interval("a shadow sigma in {} dB", 0, SF_SIGMA_MAX_DB)
_GAIN = Interval("a linear gain in {}", 0, math.inf, "[)")


def _drawable_loss(pl_db) -> bool:
    """Whether the linear gain of pl_db [dB] is a finite double (0 included, NaN's is NaN)."""
    try:
        return math.isfinite(10.0 ** (-float(pl_db) / 10.0))
    except (OverflowError, TypeError, ValueError):
        return False


_LOSS = _Rule("a number whose linear gain 10^(-pl_db/10) is a finite double",
              _drawable_loss, float)
# a Rice factor: a level, or infinite (Rayleigh or no fading)
_RICE_FACTOR = _Rule(f"{LEVEL} or an infinite one",
                     lambda v: v in LEVEL or v in (math.inf, -math.inf), float)
_MODES = _Rule("'expected' or 'bernoulli'", lambda v: v in ("expected", "bernoulli"))
# the noise power divides every SINR draw
_NOISE_POWER = Interval("a noise power (bandwidth x noise density x noise figure) in {} W",
                        sys.float_info.min, sys.float_info.max)


@dataclass(frozen=True)
class RadioParams:
    bandwidth_hz: float = within(POSITIVE)
    tx_power_w: float = within(POSITIVE)
    noise_density_w_hz: float = within(POSITIVE)    # thermal density before the noise figure
    noise_figure_db: float = within(LEVEL, 0.0)

    def __post_init__(self):
        check_fields(self)
        _NOISE_POWER.check("noise_power_w", self.noise_power_w)

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

    pl_db: float = within(_LOSS)    # deterministic path-loss part
    tx_gain: float = within(_GAIN)
    rx_gain: float = within(_GAIN)
    k_db: float = within(_RICE_FACTOR)
    sf_sigma_db: float = within(SF_SIGMA, 0.0)  # per-draw lognormal shadow sigma

    __post_init__ = check_fields

    @property
    def mean_gain(self) -> float:
        return self.tx_gain * self.rx_gain * 10.0 ** (-self.pl_db / 10.0)


@dataclass(frozen=True)
class LinkSetup:
    """Everything needed to draw SINR samples for one link: the desired
    channel, the radio, and the co-channel interferers, each a channel from
    a transmitter that sends at radio.tx_power_w, in draw order.

    mode="expected" scales the summed interferer powers by p_interf each
    draw; mode="bernoulli" switches each interferer fully on with
    probability p_interf instead.
    """

    desired: ChannelSpec
    radio: RadioParams
    interferers: tuple = ()
    p_interf: float = within(Interval("a probability in {}", 0, 1), 0.0)
    mode: str = within(_MODES, "expected")

    def __post_init__(self):
        object.__setattr__(self, "interferers", tuple(self.interferers))    # hashable
        check_fields(self)


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

def _channel_draw(spec: ChannelSpec, rng: np.random.Generator, work) -> np.ndarray:
    """Received gain mean_gain * fade (* shadow), in the first row of work,
    a (2, n) array for n draws."""
    power = sample_rician_power(spec.k_db, rng, size=work.shape[1], work=work)
    power *= spec.mean_gain
    if spec.sf_sigma_db > 0.0:
        shadow = rng.standard_normal(out=work[1])
        shadow *= -spec.sf_sigma_db
        shadow /= 10.0
        np.power(10.0, shadow, out=shadow)
        power *= shadow
    return power


# batch-length rows sinr_sample works in: the desired fade and its scratch,
# which holds the interference sum once the fade is drawn, and an
# interferer's fade and its scratch
SINR_WORK_ROWS = 4


def sinr_sample(setup: LinkSetup, rng: np.random.Generator, size: int = 1,
                work=None) -> np.ndarray:
    """Draw SINR realizations for one link.

    Draw order is fixed (desired channel, then each interferer in order, in
    bernoulli mode each followed by its activity marks), so results are
    reproducible for a given generator state. Every channel's power is
    scaled by the radio's transmit power, and interferer powers are added
    into one running sum in order, so memory is the SINR_WORK_ROWS rows of
    work whatever the interferer count. work, if given, is a
    (SINR_WORK_ROWS, >= size) array that the draws are made in: the result
    is a view of its first row, overwritten by the next call with the same
    work.
    """
    n = int(size)
    work = np.empty((SINR_WORK_ROWS, n)) if work is None else work[:, :n]
    radio = setup.radio
    signal = _channel_draw(setup.desired, rng, work[0:2])
    signal *= radio.tx_power_w
    if not setup.interferers or setup.p_interf == 0.0:
        signal /= radio.noise_power_w
        return signal
    bernoulli = setup.mode == "bernoulli"
    interference = work[1]
    interference.fill(0.0)
    for channel in setup.interferers:
        power = _channel_draw(channel, rng, work[2:4])
        power *= radio.tx_power_w
        if bernoulli:
            active = rng.random(out=work[3])
            np.less(active, setup.p_interf, out=active)
            power *= active
        interference += power
    if not bernoulli:
        interference *= setup.p_interf
    interference += radio.noise_power_w
    signal /= interference
    return signal


# ============================================================
# Finite-blocklength rate and error
# ============================================================

def _dispersion(log1p_gamma: np.ndarray, out=None) -> np.ndarray:
    # V = 1 - (1 + gamma)^-2 from ln(1 + gamma), accurate for tiny gamma
    return np.negative(np.expm1(np.multiply(log1p_gamma, -2.0, out=out), out=out), out=out)


def _fbl_terms(gamma: np.ndarray, bandwidth_hz: float, out=None):
    """Rate-free parts (a, b) of the FBL error argument.

    Q's argument at rate R and slot d_t is sqrt(d_t) * (a - R * b) with
    a = B ln(1 + gamma) / sqrt(B V) and b = ln 2 / sqrt(B V). gamma == 0
    has zero dispersion and zero capacity, which is certain failure:
    a = -inf there. out, if given, is a (2, *gamma.shape) array whose rows
    receive a and b; gamma may be its first row.
    """
    if out is None:
        out = np.empty((2, *gamma.shape))
    a, b = out[0, ...], out[1, ...]
    np.log1p(gamma, out=a)
    root = _dispersion(a, out=b)
    root *= bandwidth_hz
    np.sqrt(root, out=root)
    dead = root == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        a *= bandwidth_hz
        a /= root
        np.divide(_LN2, root, out=b)
    a[dead] = -np.inf
    b[dead] = 0.0
    return a, b


def _fbl_arg(a, b, rate, scale, out=None):
    """Q's argument scale * (a - rate * b) of the FBL error (see _fbl_terms),
    into out if given. Every caller forms it here, in this operation order,
    so the argument is bit-identical wherever it is evaluated."""
    arg = np.multiply(b, rate, out=out)
    arg = np.subtract(a, arg, out=out)
    return np.multiply(arg, scale, out=out)


def _check_gamma(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if g.size and not g.min() >= 0.0:    # NaN compares False
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
    out = gaussian_q(_fbl_arg(a, b, packet_bits / d_t_s, math.sqrt(d_t_s)))
    return float(out) if np.isscalar(gamma) else out


def arq_delay(d_t_s: float, eps_bar: float) -> float:
    """Mean delay of persistent retransmissions: d_t / (1 - eps_bar)."""
    if not 0.0 <= eps_bar < 1.0:
        raise ValueError("eps_bar must lie in [0, 1)")
    return d_t_s / (1.0 - eps_bar)


# ============================================================
# Monte Carlo link statistic
# ============================================================

# gaussian_q(x) is exactly 1.0 in float64 for x <= -8.3 and exactly 0.0
# from _Q_FLUSH on (subnormal just below); so an element counted as a 1
# (argument below _Q_ONE) or a 0 (at or past _Q_FLUSH) has exactly that
# error
_Q_ONE = -9.0
# an element whose Chernoff bound 0.5 * exp(-x^2 / 2) on Q is below
# _TAIL_REL / n of a lower bound on its batch's error sum is not evaluated:
# all of them together move that sum by less than one ULP
_TAIL_REL = 2.0 ** -64


def _count_below(a, b, rates, scale, x):
    """Per rate, how many elements have an FBL argument below x.

    a and b come from ascending SINR, and the argument
    scale * (a - rate * b) rises strictly with the SINR at every rate, so
    each count is found on a grid of every step-th element and then inside
    one step, for as many rates at once as keep every (rates, step)
    temporary within one gaussian_q block.
    """
    n = a.size
    step = math.isqrt(n) + 1
    x = np.broadcast_to(x, rates.shape)
    grid = np.arange(step - 1, n, step)
    chunk = max(1, _Q_BLOCK // step)
    counts = []
    for lo in range(0, rates.size, chunk):
        rate, s, bar = (v[lo:lo + chunk, None] for v in (rates, scale, x))
        start = step * np.count_nonzero(_fbl_arg(a[grid], b[grid], rate, s) < bar, axis=1)
        ix = start[:, None] + np.arange(step)
        inside = ix < n
        ix = np.minimum(ix, n - 1)
        below = inside & (_fbl_arg(a[ix], b[ix], rate, s) < bar)
        counts.append(start + np.count_nonzero(below, axis=1))
    return np.concatenate(counts)


# batch-length rows _batch_moments works in: the sorted batch, which
# becomes a, then b and Q's arguments; the rows 1 to 3 of sinr_sample's
# work, which are scratch once a batch is drawn
_KERNEL_ROWS = 3


def _batch_moments(gamma, bandwidth_hz, packet_bits, rates, work):
    """Per rate: mean error of one batch and its sum of squared deviations.

    The batch is sorted once, so at every rate Q's argument rises along it
    and the errors split into three contiguous runs: arguments below
    _Q_ONE (error exactly 1, counted), the evaluated window, and a tail
    that is either exactly 0 (past _Q_FLUSH) or below _TAIL_REL of the
    batch sum by the Chernoff bound (counted as 0). Only the windows reach
    gaussian_q, an empty one never; each window's errors are summed in
    ascending-SINR order. work is a (_KERNEL_ROWS, gamma.size) array.
    """
    n = gamma.size
    np.copyto(work[0], gamma.reshape(-1))
    work[0].sort()
    a, b = _fbl_terms(work[0], bandwidth_hz, out=work[0:2])
    args = work[2]
    scale = np.sqrt(packet_bits / rates)
    ones = _count_below(a, b, rates, scale, _Q_ONE)
    # the certain failures plus the window's first (largest) error bound the
    # batch sum from below; past _Q_FLUSH that error is an exact 0
    live = ones < n
    first = ones[live]
    bound = ones.astype(float)
    if first.size:
        bound[live] += gaussian_q(_fbl_arg(a[first], b[first], rates[live], scale[live]))
    with np.errstate(divide="ignore"):
        x_cut = np.sqrt(-2.0 * np.log(bound * (_TAIL_REL / n)))
    cut = _count_below(a, b, rates, scale, np.minimum(x_cut, _Q_FLUSH))
    # the windows are packed back to back into args, in rate order, a new
    # row starting where the next one does not fit; each row takes one
    # gaussian_q call, whose fixed cost outweighs a short window's work.
    # Q is elementwise, so no value depends on the packing
    rows, packed = [[]], 0
    for i, (lo, hi) in enumerate(zip(ones.tolist(), cut.tolist())):
        if packed + hi - lo > n:
            rows.append([])
            packed = 0
        rows[-1].append((i, lo, hi, slice(packed, packed + hi - lo)))
        packed += hi - lo
    mean = np.empty(rates.size)
    m2 = np.empty(rates.size)
    for row in rows:
        for i, lo, hi, at in row:
            _fbl_arg(a[lo:hi], b[lo:hi], rates[i], scale[i], args[at])
        run = args[:row[-1][3].stop]
        if run.size:
            gaussian_q(run, out=run)
        for i, lo, hi, at in row:
            mean[i], m2[i] = _moments(args[at], lo, hi, n)
    return mean, m2


def _moments(q, lo, hi, n):
    """Mean error of a batch of n and its sum of squared deviations, from
    the errors q on [lo, hi): the lo before are 1, the rest 0. Overwrites q."""
    m = (lo + float(q.sum())) / n
    q -= m
    dev2 = float(np.square(q, out=q).sum())
    # the counted ones sit 1 - m from the mean, the counted zeros m
    return m, dev2 + lo * (1.0 - m) ** 2 + (n - hi) * m * m


def decoding_error_stats(batches, bandwidth_hz: float, packet_bits: float,
                         rates_bps, work=None) -> list:
    """Monte Carlo decoding error and ARQ delay of one link at every rate.

    batches yields arrays of SINR draws. Each batch is evaluated once for
    all rates (slot d_t = packet_bits / rate) before the next is drawn, so
    a producer may yield one buffer that it overwrites with each batch.
    The kernel works in work, a (_KERNEL_ROWS, m) array that no batch
    overlaps, such as rows 1 to 3 of the buffer sinr_sample draws into
    (the batch is its row 0); without work, or for a batch longer than m,
    the rows are allocated once per call. Besides them a batch allocates
    only a fraction of a row and temporaries bounded by gaussian_q's
    block, so memory is bounded by the batch size and the values do not
    depend on where the rows live. Empty batches are skipped. Within a batch
    the errors are summed in ascending-SINR order (see _batch_moments).
    The per-batch means and sums of squared deviations merge in batch
    order (Chan, Golub & LeVeque), so the result depends only on the draws
    and the batch boundaries. SINR draws must be non-negative and not NaN.
    Returns one LinkStats per entry of rates_bps, in the given order.
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
        if g.size == 0:
            continue
        if work is None or work.shape[1] < g.size:
            work = np.empty((_KERNEL_ROWS, g.size))
        b_mean, b_m2 = _batch_moments(g, bandwidth_hz, packet_bits, rates,
                                      work[:, :g.size])
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

