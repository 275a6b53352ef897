"""Numeric primitives shared by the simulator.

Provides:
 - gaussian_q / gaussian_q_inv : standard normal tail and its inverse
 - bessel_j1                   : Bessel function of the reflector beam pattern
 - sample_rician_power         : unit-mean Rician power fades
 - RngStream                   : counter-based, splittable random streams
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sf

__all__ = [
    "RngStream",
    "gaussian_q",
    "gaussian_q_inv",
    "bessel_j1",
    "sample_rician_power",
]

_SQRT2 = float(np.sqrt(2.0))
_LOG_SQRT_2PI = 0.5 * float(np.log(2.0 * np.pi))
_MASK64 = (1 << 64) - 1


# ============================================================
# Counter-based random streams
# ============================================================

def _mix64(z: int) -> int:
    # splitmix64 finalizer; bijective on 64-bit ints
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Replayable random stream keyed by (seed, stream_id).

    The same key always yields the same variate sequence, independent of
    thread count or evaluation order. Child streams are derived by hashing
    integer indices into the key, so any (cell, realization, link, batch)
    tuple maps to a fixed, collision-resistant stream.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= self.stream_id < 2 ** 64:
            raise ValueError("stream_id must be a 64-bit unsigned integer")

    def child(self, *indices: int) -> "RngStream":
        sid = self.stream_id
        for ix in indices:
            if ix < 0:
                raise ValueError("stream indices must be non-negative")
            sid = _mix64(sid ^ _mix64(int(ix)))
        return RngStream(self.seed, sid)

    def generator(self) -> np.random.Generator:
        key = (self.seed & _MASK64) | ((self.stream_id & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))


# ============================================================
# Gaussian tail function and inverse
# ============================================================

def gaussian_q(x):
    """Q(x) = P[N(0,1) > x], elementwise."""
    out = 0.5 * _sf.erfc(np.asarray(x, dtype=float) / _SQRT2)
    return float(out) if np.isscalar(x) else out


def gaussian_q_inv(p):
    """Inverse of gaussian_q on (0, 1).

    Starts from the library inverse-CDF estimate, then refines with Newton
    steps on log Q(x) until the update falls below 1e-12, which avoids
    accuracy cliffs of any single polynomial approximation.
    """
    scalar = np.isscalar(p)
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("gaussian_q_inv requires 0 < p < 1")
    x = -_sf.ndtri(p_arr)
    log_p = np.log(p_arr)
    for _ in range(60):
        log_q = _sf.log_ndtr(-x)
        # Newton on f(x) = log Q(x) - log p; f'(x) = -phi(x)/Q(x)
        q_over_phi = np.exp(log_q + 0.5 * x * x + _LOG_SQRT_2PI)
        step = (log_q - log_p) * q_over_phi
        x = x + step
        if np.all(np.abs(step) <= 1e-12 * np.maximum(1.0, np.abs(x))):
            break
    return float(x) if scalar else x


# ============================================================
# Bessel function
# ============================================================

def bessel_j1(x):
    """Bessel function of the first kind, order one."""
    out = _sf.j1(np.asarray(x, dtype=float))
    return float(out) if np.isscalar(x) else out


# ============================================================
# Fading samplers
# ============================================================

def sample_rician_power(k_db: float, rng: np.random.Generator, size=None):
    """Unit-mean Rician power fades |omega|^2 with Rice factor k_db.

    The line-of-sight amplitude and scatter variance are normalized so that
    E[omega^2] = 1: rho^2 = K/(K+1), 2 sigma^2 = 1/(K+1) with K linear.
    k_db = -inf degenerates to Rayleigh, +inf to a deterministic unit fade.
    """
    k_lin = 10.0 ** (float(k_db) / 10.0)
    if np.isinf(k_lin):
        rho, sigma = 1.0, 0.0
    else:
        rho = np.sqrt(k_lin / (k_lin + 1.0))
        sigma = np.sqrt(0.5 / (k_lin + 1.0))
    shape = (1,) if size is None else size
    # in-phase then quadrature normals, the same variates as one (2, size)
    # draw; each part is computed in its own normal buffer
    power = rng.standard_normal(size=shape)
    power *= sigma
    power += rho
    np.square(power, out=power)
    quadrature = rng.standard_normal(size=shape)
    quadrature *= sigma
    np.square(quadrature, out=quadrature)
    power += quadrature
    return float(power[0]) if size is None else power
