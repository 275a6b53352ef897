"""Numeric primitives shared by the simulator.

Provides:
 - gaussian_q / gaussian_q_inv : standard normal tail (Cody's rational
                                 erfc) and its inverse (Wichura's AS241,
                                 from the standard library)
 - bessel_j1                   : Bessel function of the reflector beam pattern
 - sample_rician_power         : unit-mean Rician power fades
 - RngStream                   : counter-based, splittable random streams
 - Interval / within / check_fields : the rule a field declares, and its check

Only numpy and the standard library are used.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Interval",
    "within",
    "check_fields",
    "RngStream",
    "gaussian_q",
    "gaussian_q_inv",
    "bessel_j1",
    "sample_rician_power",
]

_SQRT2 = float(np.sqrt(2.0))
_MASK64 = (1 << 64) - 1


# ============================================================
# Intervals
# ============================================================

# the types of an interval's numbers, by kind: numpy's scalars count, a bool does not
_NUMBERS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


class Interval(NamedTuple):
    """The numbers of kind (ints only, if int) from low to high, each end closed or open."""
    what: str                       # how an error names them, "{}" standing for the bounds
    low: float
    high: float
    ends: str = "[]"
    kind: type = float

    def __contains__(self, v) -> bool:
        # an int beyond the float range counts as infinite, so float() cannot fail
        return (isinstance(v, _NUMBERS[self.kind]) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max
                and (self.low <= v if self.ends[0] == "[" else self.low < v)
                and (v <= self.high if self.ends[1] == "]" else v < self.high))

    def __str__(self) -> str:
        low, high = (b if isinstance(b, int) else f"{b:g}" for b in (self.low, self.high))
        return self.what.format(f"{self.ends[0]}{low}, {high}{self.ends[1]}")

    def check(self, name: str, value, error=ValueError):
        """value as kind, or else an error that names name and the interval."""
        if value not in self:
            raise error(f"{name}: expected {self}, got {value!r}")
        return self.kind(value)


POSITIVE = Interval("a number in {}", 0, math.inf, "()")


class _Rule(NamedTuple):
    """The values ok accepts, as want names them; coerce gives each its stored form."""
    want: str
    ok: Callable[[object], bool]
    coerce: Callable = lambda v: v
    interval: Interval | None = None    # of each number of a list or table, or of a number or null

    def __str__(self) -> str:
        return self.want

    def check(self, name: str, value, error=ValueError):
        """As Interval.check: the coerced value, or else an error naming name and want."""
        if not self.ok(value):
            raise error(f"{name}: expected {self}, got {value!r}")
        return self.coerce(value)


def _floats(shape: str, ok, each: Interval) -> _Rule:
    """A list or tuple that ok accepts, of numbers in each, stored as a tuple of floats."""
    return _Rule(f"{shape}, each {each}", lambda v: isinstance(v, (list, tuple))
                 and all(x in each for x in v) and ok(v), lambda v: tuple(map(float, v)), each)


def within(rule: Interval | _Rule, default=dataclasses.MISSING):
    """A field whose value rule checks and coerces; check_fields reads it."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def check_fields(model, error=ValueError, name: str = "{}") -> None:
    """A dataclass's __post_init__: store each field that declares a rule
    (within) as the rule coerces it, or raise error naming the first field
    the rule rejects, as name formats it."""
    for f in dataclasses.fields(model):
        if "rule" in f.metadata:
            value = f.metadata["rule"].check(name.format(f.name), getattr(model, f.name), error)
            object.__setattr__(model, f.name, value)


# ============================================================
# Counter-based random streams
# ============================================================

# a stream's seed and its id, each one 64-bit half of Philox's 128-bit key
SEED = Interval("a seed in {}", 0, 2 ** 64, "[)", kind=int)
_INDEX = Interval("a stream index in {}", 0, math.inf, "[)", kind=int)


def _mix64(z: int) -> int:
    # splitmix64 finalizer; bijective on 64-bit ints
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclasses.dataclass(frozen=True)
class RngStream:
    """Replayable random stream keyed by (seed, stream_id).

    The same key always yields the same variate sequence, independent of
    thread count or evaluation order. Child streams are derived by hashing
    integer indices into the key, so any (cell, realization, link, batch)
    tuple maps to a fixed, collision-resistant stream.
    """

    seed: int = within(SEED)
    stream_id: int = within(SEED, 0)

    __post_init__ = check_fields

    def child(self, *indices: int) -> "RngStream":
        sid = self.stream_id
        for ix in indices:
            sid = _mix64(sid ^ _mix64(_INDEX.check("index", ix)))
        return RngStream(self.seed, sid)

    def generator(self) -> np.random.Generator:
        key = self.seed | (self.stream_id << 64)
        return np.random.Generator(np.random.Philox(key=key))


# ============================================================
# Gaussian tail function and inverse
# ============================================================

# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969), with the coefficients of his CALERF:
#   y < 0.46875:  erf(y)  = y * A(y^2) / B(y^2)
#   y < 4:        erfc(y) = exp(-y^2) * C(y) / D(y)
#   y >= 4:       erfc(y) = exp(-y^2) / y * (1/sqrt(pi) - r P(r) / Q(r)),
#                 r = 1 / y^2
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_RSQRT_PI = 0.56418958354775628695
_RSQRT2 = 0.70710678118654752440


def _horner_pair(num, den, n_loop):
    """One of CALERF's ratios as (top, pairs) for _rational.

    CALERF starts the numerator at num[-1] * t and the monic denominator
    at t, adds each of the first n_loop coefficient pairs and multiplies
    by t, then adds the pair at n_loop. The numerator is halved (exactly)
    here because Q = erfc / 2.
    """
    pairs = [(0.5 * c, d) for c, d in zip(num[:n_loop + 1], den[:n_loop + 1])]
    return 0.5 * num[-1], pairs


_SMALL = _horner_pair(_ERF_A, _ERF_B, 3)
_MID = _horner_pair(_ERFC_C, _ERFC_D, 7)
_TAIL = _horner_pair(_ERFC_P, _ERFC_Q, 4)

# Q's argument x = sqrt(2) y at the range edges. From _Q_FLUSH on Q is
# 0.0 (the true value rounds to 0 from about 38.4854 on);
# below -_Q_FLUSH it is 1.0, as it already is in float64 below -8.3.
# NaN sorts last, so the final edge starts the NaN run.
_Q_FLUSH = 38.5
_Q_EDGES = np.array([-_Q_FLUSH, -4.0 * _SQRT2, -0.46875 * _SQRT2,
                     0.46875 * _SQRT2, 4.0 * _SQRT2, _Q_FLUSH, np.nan])
# elements per evaluation block: the temporaries of a block (32 KB each)
# are reused from the heap, while larger ones would be mapped fresh and
# page-faulted on every call; they are all gaussian_q allocates besides
# its result
_Q_BLOCK = 4096


def _rational(t, coef):
    """Half the numerator over the denominator at t (see _horner_pair)."""
    top, pairs = coef
    num = t * top
    den = t.copy()
    for c, d in pairs[:-1]:
        num += c
        num *= t
        den += d
        den *= t
    c, d = pairs[-1]
    num += c
    den += d
    num /= den
    return num


def _exp_half_square(ax, out):
    """exp(-ax^2 / 2) into out, for 0 <= ax < 64; out may be ax.

    As in CALERF, ax^2 is split so that the large part of the exponent is
    exact: s = floor(16 ax) / 16 has s^2 / 2 exact, and the rest
    (ax - s)(ax + s) / 2 is small.
    """
    s = np.floor(ax * 16.0)
    s *= 0.0625
    e = np.empty((2, ax.size))
    np.square(s, out=e[0])
    np.subtract(ax, s, out=e[1])
    s += ax
    e[1] *= s
    e *= -0.5
    np.exp(e, out=e)
    np.multiply(e[0], e[1], out=out)


# Each part below reads its argument before it writes out, which may be
# the argument itself.

def _q_small(x, out):
    """Q(x) = 1/2 - erf(x / sqrt 2) / 2 for |x| / sqrt 2 < 0.46875."""
    y = x * _RSQRT2
    np.multiply(_rational(np.square(y), _SMALL), y, out=out)
    np.subtract(0.5, out, out=out)


def _q_mid(ax, out):
    """Q(ax) = erfc(ax / sqrt 2) / 2 for 0.46875 <= ax / sqrt 2 < 4."""
    ratio = _rational(ax * _RSQRT2, _MID)
    _exp_half_square(ax, out)
    out *= ratio


def _q_tail(ax, out):
    """Q(ax) = erfc(ax / sqrt 2) / 2 for 4 <= ax / sqrt 2 < _Q_FLUSH / sqrt 2."""
    y = ax * _RSQRT2
    r = np.square(y)
    np.reciprocal(r, out=r)
    ratio = _rational(r, _TAIL)
    ratio *= r
    np.subtract(0.5 * _RSQRT_PI, ratio, out=ratio)
    ratio /= y
    _exp_half_square(ax, out)
    out *= ratio


def _q_block(x, out):
    """Q on ascending x into out: one contiguous run per range, found by
    search. Each run reads its x before it writes its out."""
    e = [0, *np.searchsorted(x, _Q_EDGES).tolist(), x.size]
    # erfc(-y) = 2 - erfc(y): Q(x) = 1 - Q(-x) on the negative ranges
    for lo, hi, part in ((e[1], e[2], _q_tail), (e[2], e[3], _q_mid)):
        if lo < hi:
            part(-x[lo:hi], out[lo:hi])
            np.subtract(1.0, out[lo:hi], out=out[lo:hi])
    for lo, hi, part in ((e[3], e[4], _q_small), (e[4], e[5], _q_mid),
                         (e[5], e[6], _q_tail)):
        if lo < hi:
            part(x[lo:hi], out[lo:hi])
    out[:e[1]] = 1.0
    out[e[6]:e[7]] = 0.0
    out[e[7]:] = np.nan
    return out


def gaussian_q(x, out=None):
    """Q(x) = P[N(0,1) > x], elementwise.

    Cody's (1969) rational approximations of erfc, within a few ULPs
    relative wherever Q is a normal float. Q is exactly 1.0 below about
    -8.3, exactly 0.0 from 38.5 on (subnormals just below), 1.0 and 0.0 at
    -inf and +inf, and NaN at NaN. The input is evaluated _Q_BLOCK
    elements at a time: an ascending block range by range on contiguous
    runs, any other block stable-sorted first (which merges ascending
    runs, such as packed windows) and its result put back in place. So no
    temporary outgrows a block. out, if given, is a C-contiguous float
    array shaped like x that receives Q; it may be x itself.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    if out is not None and not (out.shape == arr.shape and out.dtype == float
                                and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float array shaped like x")
    res = np.empty_like(flat) if out is None else out.reshape(-1)
    for lo in range(0, flat.size, _Q_BLOCK):
        block = flat[lo:lo + _Q_BLOCK]
        if np.all(block[1:] >= block[:-1]):    # NaN compares False: sorted first
            _q_block(block, res[lo:lo + _Q_BLOCK])
        else:
            order = np.argsort(block, kind="stable")
            ordered = block[order]
            res[lo:lo + _Q_BLOCK][order] = _q_block(ordered, ordered)
    res = res.reshape(arr.shape) if out is None else out
    return float(res) if np.isscalar(x) else res


def gaussian_q_inv(p):
    """Inverse of gaussian_q on (0, 1): -inv_cdf(p) of the standard
    library's NormalDist, Wichura's algorithm AS241, which is within 1e-14
    relative of the exact root from p = 1e-300 to 1 - 1e-6."""
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise ValueError("gaussian_q_inv requires 0 < p < 1")
    from statistics import NormalDist     # here, so a sweep or region never loads it
    inv_cdf = NormalDist().inv_cdf
    x = np.array([-inv_cdf(v) for v in p_arr.ravel().tolist()]).reshape(p_arr.shape)
    return float(x) if np.isscalar(p) else x


# ============================================================
# Bessel function
# ============================================================

# power series of J1 about 0: (x/2) sum_k (-x^2/4)^k / (k! (k+1)!), to
# below one ULP at |x| = 2
_J1_SERIES = tuple(1.0 / (math.factorial(k) * math.factorial(k + 1))
                   for k in range(14))
# Bessel's integral by the trapezoid rule on m nodes errs by about
# J_(2m-1)(x), which is negligible once 2m - 1 passes |x| by a margin
_J1_NODES_MIN = 40
_J1_BLOCK = 1 << 16


def _j1_integral(ax):
    """J1(ax) = (1/pi) int_0^pi cos(t - ax sin t) dt, trapezoid rule.

    The integrand is even and 2 pi-periodic, so the rule converges
    geometrically; its end values 1 and -1 cancel, leaving the inner
    nodes t_k = k pi / m. Evaluated in blocks of elements to bound memory.
    """
    m = _J1_NODES_MIN + int(math.ceil(float(ax.max(initial=0.0))))
    t = np.pi * np.arange(1, m) / m
    sin_t = np.sin(t)
    out = np.empty_like(ax)
    step = max(1, _J1_BLOCK // m)
    for lo in range(0, ax.size, step):
        phase = np.multiply.outer(ax[lo:lo + step], sin_t)
        np.subtract(t, phase, out=phase)
        np.cos(phase, out=phase)
        out[lo:lo + step] = phase.sum(axis=1) / m
    return out


def bessel_j1(x):
    """Bessel function of the first kind, order one; exactly odd.

    |x| < 2 sums the power series, which keeps full relative accuracy near
    0; beyond, Bessel's integral by the trapezoid rule, whose cost per
    element grows with the largest |x|. J1(+-inf) = 0.
    """
    arr = np.asarray(x, dtype=float)
    ax = np.abs(arr)
    out = np.where(np.isnan(ax), np.nan, 0.0)
    small = ax < 2.0
    z = -0.25 * np.square(ax[small])
    series = np.full_like(z, _J1_SERIES[-1])
    for c in _J1_SERIES[-2::-1]:
        series *= z
        series += c
    out[small] = 0.5 * ax[small] * series
    big = (ax >= 2.0) & (ax < np.inf)
    out[big] = _j1_integral(ax[big])
    out = np.where(arr < 0.0, -out, out)
    return float(out) if np.isscalar(x) else out


# ============================================================
# Fading samplers
# ============================================================

def sample_rician_power(k_db: float, rng: np.random.Generator, size=None, work=None):
    """Unit-mean Rician power fades |omega|^2 with Rice factor k_db.

    The line-of-sight amplitude and scatter variance are normalized so that
    E[omega^2] = 1: rho^2 = K/(K+1), 2 sigma^2 = 1/(K+1) with K linear.
    k_db = -inf degenerates to Rayleigh, +inf to a deterministic unit fade.
    work, if given, is a (2, size) array: the fades are written into its
    first row and returned, and the second row is scratch.
    """
    k_lin = 10.0 ** (float(k_db) / 10.0)
    if np.isinf(k_lin):
        rho, sigma = 1.0, 0.0
    else:
        rho = np.sqrt(k_lin / (k_lin + 1.0))
        sigma = np.sqrt(0.5 / (k_lin + 1.0))
    if work is None:
        work = np.empty((2, *np.atleast_1d(1 if size is None else size)))
    # in-phase then quadrature normals, the same variates as one (2, size)
    # draw; each part is computed in its own normal buffer
    power, quadrature = work
    rng.standard_normal(out=power)
    power *= sigma
    power += rho
    np.square(power, out=power)
    rng.standard_normal(out=quadrature)
    quadrature *= sigma
    np.square(quadrature, out=quadrature)
    power += quadrature
    return float(power[0]) if size is None else power
