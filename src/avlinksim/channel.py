"""Radio channel models: LoS statistics, path loss, antennas, Rice factors.

Provides:
 - Environment                           : channel parameterization
 - p_los                                 : urban line-of-sight probability
 - pl_g2a_los_db / pl_g2a_nlos_db / pl_avg_g2a_db : ground-to-air path loss
 - fspl_db / clutter_loss_db / pl_g2h_db : free-space and platform links
 - UlaSpec / ula_gain (+ element, array factor)   : downtilted base-station array
 - ReflectorSpec / hap_gain               : platform reflector beam pattern
 - rice_k_db                              : elevation-binned Rice factor
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .link import LEVEL, LEVEL_MAX_DB, SF_SIGMA
from .mathfun import Interval, _floats, bessel_j1, check_fields, within

__all__ = [
    "Q2_MAX_PER_KM2",
    "MIN_LENGTH_M",
    "MAX_DISTANCE_M",
    "LENGTH",
    "MAX_APERTURE_WAVELENGTHS",
    "Environment",
    "UlaSpec",
    "ReflectorSpec",
    "p_los",
    "pl_g2a_los_db",
    "pl_g2a_nlos_db",
    "pl_avg_g2a_db",
    "fspl_db",
    "clutter_loss_db",
    "pl_g2h_db",
    "ula_element_gain",
    "ula_array_factor",
    "ula_gain",
    "hap_gain",
    "rice_k_db",
]


# p_los loops once per building the ray crosses, so both the building
# density [1/km^2] (one building per m^2) and every length [m] that a config
# or link-budget may ask of it are bounded. 1e6 m is far beyond any modelled
# link, and from 1 mm to 1e6 m every path loss a topology forms, and p_los's
# ray_h^2 / (2 q3_m^2), stay finite doubles
Q2_MAX_PER_KM2 = 1e6
MIN_LENGTH_M, MAX_DISTANCE_M = 1e-3, 1e6
LENGTH = Interval("a length in {} m", MIN_LENGTH_M, MAX_DISTANCE_M)
# hap_gain's Bessel quadrature takes one node per unit of its largest
# argument 2 pi a sin(offset), so the reflector radius a [wavelengths] is
# bounded too (1e4 keeps a 36-beam link's gains within milliseconds)
MAX_APERTURE_WAVELENGTHS = 1e4


@dataclass(frozen=True)
class Environment:
    """Urban propagation constants and shadow/clutter tables."""

    q1: float = within(Interval("a fraction in {}", 0, 1, "(]"), 0.3)  # built-up land fraction
    q2: float = within(Interval(                    # buildings per km^2
        "a building density in {} per km^2", 0, Q2_MAX_PER_KM2, "(]"), 500.0)
    q3_m: float = within(LENGTH, 20.0)              # Rayleigh height-scale [m]
    sf_sigma_los_db: float = within(SF_SIGMA, 4.0)
    sf_sigma_nlos_db: float = within(SF_SIGMA, 6.0)
    # additional loss per 10-degree elevation bin for the ground->platform
    # link; all-zero placeholder until a measured table is configured
    clutter_loss_table_db: tuple = within(_floats("a list of 9", lambda v: len(v) == 9,
                                                  Interval("a loss in {} dB", 0, math.inf, "[)")),
                                          (0.0,) * 9)

    __post_init__ = check_fields


# ============================================================
# Line-of-sight probability (urban)
# ============================================================

def p_los(r_2d: float, h_g: float, h_a: float, env: Environment) -> float:
    """Probability of line of sight between a ground node at height h_g and
    an aerial node at altitude h_a, separated by r_2d on the ground.

    Product over the buildings crossed by the ray; an empty product (the
    2D distance spans no building) gives exactly 1. A product below the
    smallest normal double is 0, below one ULP of any mixed path loss; with
    every factor above 1/2, as at the default heights, subnormal rounding
    would otherwise hold it at 5e-324 through every remaining building.
    """
    if r_2d < 0.0:
        raise ValueError("r_2d must be non-negative")
    if h_a == h_g:
        raise ValueError("p_los is undefined for h_a == h_g")
    k = math.floor(r_2d * math.sqrt(env.q1 * env.q2) / 1000.0 - 1.0)
    prob = 1.0
    for j in range(k + 1):
        ray_h = h_g - (j + 0.5) * (h_g - h_a) / (k + 1)
        prob *= 1.0 - math.exp(-(ray_h ** 2) / (2.0 * env.q3_m ** 2))
        if prob < sys.float_info.min:
            return 0.0
    return prob


# ============================================================
# Path loss
# ============================================================

def pl_g2a_los_db(d_3d: float, fc_ghz: float):
    return 28.0 + 22.0 * np.log10(d_3d) + 20.0 * np.log10(fc_ghz)


def pl_g2a_nlos_db(d_3d: float, h_a: float, fc_ghz: float):
    return (
        -17.5
        + (46.0 - 7.0 * np.log10(h_a)) * np.log10(d_3d)
        + 20.0 * np.log10(40.0 * np.pi * fc_ghz / 3.0)
    )


def pl_avg_g2a_db(
    r_2d: float,
    h_g: float,
    h_a: float,
    fc_ghz: float,
    env: Environment,
    mixture: str = "db",
) -> float:
    """LoS-probability-weighted ground-to-air path loss.

    mixture="db" mixes the two losses in the dB domain (the reference
    formulation); mixture="linear" averages the linear channel gains and
    converts back, which is the physically-motivated alternative.
    """
    p = p_los(r_2d, h_g, h_a, env)
    d_3d = math.hypot(r_2d, h_a - h_g)
    los = float(pl_g2a_los_db(d_3d, fc_ghz))
    nlos = float(pl_g2a_nlos_db(d_3d, h_a, fc_ghz))
    if mixture == "db":
        return p * los + (1.0 - p) * nlos
    if mixture == "linear":
        gain = p * 10.0 ** (-los / 10.0) + (1.0 - p) * 10.0 ** (-nlos / 10.0)
        return -10.0 * math.log10(gain)
    raise ValueError("mixture must be 'db' or 'linear'")


def fspl_db(d_m, fc_ghz):
    """Free-space path loss for distance in meters, carrier in GHz."""
    return 32.45 + 20.0 * np.log10(d_m) + 20.0 * np.log10(fc_ghz)


def _elevation_bin(elevation_deg: float) -> int:
    """Index 0..8 of the 10-degree elevation bin, 90 degrees in the last."""
    if not 0.0 <= elevation_deg <= 90.0:
        raise ValueError("elevation_deg must lie in [0, 90]")
    return min(int(elevation_deg // 10.0), 8)


def clutter_loss_db(elevation_deg: float, env: Environment) -> float:
    """Table lookup of ground-clutter loss by elevation decile."""
    return env.clutter_loss_table_db[_elevation_bin(elevation_deg)]


def pl_g2h_db(d_m: float, fc_ghz: float, elevation_deg: float, env: Environment) -> float:
    """Ground-to-platform path loss: free space + clutter.

    Shadow fading is drawn per sample from ChannelSpec.sf_sigma_db.
    """
    return float(fspl_db(d_m, fc_ghz)) + clutter_loss_db(elevation_deg, env)


# ============================================================
# Antennas
# ============================================================

@dataclass(frozen=True)
class UlaSpec:
    """Vertical uniform linear array on a ground site, angles are zenith."""

    # the array's peak power gain, its element count, is a level too
    n_elements: int = within(Interval(
        "an element count in {}", 1, 10 ** round(LEVEL_MAX_DB / 10), kind=int), 8)
    downtilt_deg: float = within(Interval(  # boresight zenith angle
        "a zenith angle in {} degrees", 0, 180), 102.0)
    element_gain_max_dbi: float = within(LEVEL, 8.0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class ReflectorSpec:
    """Platform reflector antenna; angles are offsets from the beam axis."""

    max_gain_dbi: float = within(LEVEL, 32.0)
    aperture_radius_wavelengths: float = within(Interval(
        "a radius in {} wavelengths", 0, MAX_APERTURE_WAVELENGTHS, "(]"), 10.0)

    __post_init__ = check_fields


def ula_element_gain(zenith_deg, spec: UlaSpec):
    """Single element power gain (linear) at zenith angle phi."""
    phi = np.deg2rad(np.asarray(zenith_deg, dtype=float))
    out = 10.0 ** (spec.element_gain_max_dbi / 10.0) * np.sin(phi) ** 2
    return float(out) if np.isscalar(zenith_deg) else out


def ula_array_factor(zenith_deg, spec: UlaSpec):
    """Array power factor (linear); exactly N at boresight and at grating
    angles, where the sin ratio is evaluated as its limit."""
    phi = np.deg2rad(np.asarray(zenith_deg, dtype=float))
    n = spec.n_elements
    w = 0.5 * (np.cos(phi) - math.cos(math.radians(spec.downtilt_deg)))
    den = np.sin(np.pi * w)
    singular = np.abs(den) < 1e-9
    safe_den = np.where(singular, 1.0, den)
    out = np.where(singular, float(n), np.sin(n * np.pi * w) ** 2 / (n * safe_den ** 2))
    return float(out) if np.isscalar(zenith_deg) else out


def ula_gain(zenith_deg, spec: UlaSpec):
    """Total power gain (linear): element pattern times array factor."""
    out = ula_element_gain(zenith_deg, spec) * ula_array_factor(zenith_deg, spec)
    return float(out) if np.isscalar(zenith_deg) else out


def hap_gain(offset_deg, spec: ReflectorSpec):
    """Reflector power gain (linear) at an angle off the beam axis.

    Normalized pattern 4*|J1(x)/x|^2 with x = 2*pi*a*sin(theta); the on-axis
    removable singularity evaluates to 1.
    """
    theta = np.deg2rad(np.asarray(offset_deg, dtype=float))
    x = 2.0 * np.pi * spec.aperture_radius_wavelengths * np.sin(theta)
    on_axis = x == 0.0
    safe_x = np.where(on_axis, 1.0, x)
    pattern = np.where(on_axis, 1.0, 4.0 * np.abs(bessel_j1(safe_x) / safe_x) ** 2)
    out = 10.0 ** (spec.max_gain_dbi / 10.0) * pattern
    return float(out) if np.isscalar(offset_deg) else out


# ============================================================
# Rice factor
# ============================================================

def rice_k_db(k_range, elevation_deg: float) -> float:
    """Rice factor [dB] of a link kind's (k_min, k_max) range, linear
    across nine 10-degree elevation bins."""
    k_min, k_max = k_range
    return k_min + (k_max - k_min) * _elevation_bin(elevation_deg) / 8.0
