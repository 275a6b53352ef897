"""Scenario geometry: hexagonal ground-station layout and node placement.

Provides:
 - NodePose / GridSpec            : node and layout descriptions
 - hex_grid                        : tiered hexagonal site layout
 - place_avs_uniform               : uniform placement over the cell union
 - distance_2d / distance_3d
 - elevation_angle_deg / zenith_angle_deg / angle_between_deg
 - serving_bs                      : strongest-by-proximity site selection
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LENGTH
from .mathfun import Interval, check_fields, within

__all__ = [
    "MAX_GRID_TIERS",
    "NodePose",
    "GridSpec",
    "hex_grid",
    "cell_contains",
    "place_avs_uniform",
    "distance_2d",
    "distance_3d",
    "elevation_angle_deg",
    "zenith_angle_deg",
    "angle_between_deg",
    "serving_bs",
]


# A layout of t tiers has 3t^2 + 3t + 1 sites, and each topology scans
# them all (the g2a interferer ranking, one h2a interfering beam per other
# site), so the tier count is bounded: 20 tiers are 1261 sites
MAX_GRID_TIERS = 20


@dataclass(frozen=True)
class NodePose:
    id: int
    x: float          # [m]
    y: float          # [m]
    altitude: float   # [m] above ground


@dataclass(frozen=True)
class GridSpec:
    isd_m: float = within(LENGTH, 500.0)       # inter-site distance
    tiers: int = within(Interval(              # rings around the center site
        "a tier count in {}", 0, MAX_GRID_TIERS, kind=int), 3)
    bs_height_m: float = within(LENGTH, 25.0)

    __post_init__ = check_fields


# unit vectors normal to the three hexagon edge pairs (flat sides face
# neighboring sites, so the cells tile the plane)
_HEX_AXES = [(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(3)]


# ============================================================
# Layout construction
# ============================================================

def hex_grid(spec: GridSpec) -> list[NodePose]:
    """Ground sites on a triangular lattice, center site at the origin.

    A layout with t tiers has 3t^2 + 3t + 1 sites; ids are assigned ring by
    ring, counter-clockwise from azimuth 0, so id 0 is always the center.
    """
    a1 = (spec.isd_m, 0.0)
    a2 = (0.5 * spec.isd_m, 0.5 * math.sqrt(3.0) * spec.isd_m)
    sites = []
    t = spec.tiers
    for q in range(-t, t + 1):
        for r in range(-t, t + 1):
            if max(abs(q), abs(r), abs(q + r)) > t:
                continue
            x = q * a1[0] + r * a2[0]
            y = q * a1[1] + r * a2[1]
            ring = max(abs(q), abs(r), abs(q + r))
            az = math.atan2(y, x) % (2.0 * math.pi) if ring else 0.0
            sites.append((ring, az, x, y))
    sites.sort()
    return [
        NodePose(i, x, y, spec.bs_height_m)
        for i, (_, _, x, y) in enumerate(sites)
    ]


def cell_contains(center_x: float, center_y: float, isd_m: float, x: float, y: float) -> bool:
    """True if (x, y) lies in the hexagonal cell around (center_x, center_y)."""
    dx, dy = x - center_x, y - center_y
    half = 0.5 * isd_m + 1e-9
    return all(abs(dx * ux + dy * uy) <= half for ux, uy in _HEX_AXES)


def place_avs_uniform(
    sites: list[NodePose],
    isd_m: float,
    count: int,
    altitude_m: float,
    rng: np.random.Generator,
    id_start: int = 0,
) -> list[NodePose]:
    """Place count vehicles uniformly over the union of the cells of sites,
    hexagons of inter-site distance isd_m.

    Cells have equal area, so a uniform cell pick followed by rejection
    sampling inside that cell is exactly uniform over the union.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    circum = isd_m / math.sqrt(3.0)  # hexagon corner radius
    nodes = []
    for i in range(count):
        site = sites[int(rng.integers(0, len(sites)))]
        while True:
            x = site.x + rng.uniform(-0.5 * isd_m, 0.5 * isd_m)
            y = site.y + rng.uniform(-circum, circum)
            if cell_contains(site.x, site.y, isd_m, x, y):
                break
        nodes.append(NodePose(id_start + i, x, y, altitude_m))
    return nodes


# ============================================================
# Distances and angles
# ============================================================

def distance_2d(a: NodePose, b: NodePose) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


def distance_3d(a: NodePose, b: NodePose) -> float:
    return math.hypot(b.x - a.x, b.y - a.y, b.altitude - a.altitude)


def elevation_angle_deg(a: NodePose, b: NodePose) -> float:
    """Elevation of b above a's local horizon, in [-90, 90] degrees."""
    return math.degrees(math.atan2(b.altitude - a.altitude, distance_2d(a, b)))


def zenith_angle_deg(a: NodePose, b: NodePose) -> float:
    """Angle of the a->b direction from a's local vertical."""
    return 90.0 - elevation_angle_deg(a, b)


def serving_bs(av: NodePose, sites: list[NodePose]) -> NodePose:
    """Closest site in 2D; ties resolve to the lowest site id."""
    if not sites:
        raise ValueError("sites must be non-empty")
    return min(sites, key=lambda s: (distance_2d(av, s), s.id))


def angle_between_deg(apex: NodePose, a: NodePose, b: NodePose) -> float:
    """Angle at apex between the directions to a and to b, in [0, 180]."""
    va = (a.x - apex.x, a.y - apex.y, a.altitude - apex.altitude)
    vb = (b.x - apex.x, b.y - apex.y, b.altitude - apex.altitude)
    na = math.hypot(*va)
    nb = math.hypot(*vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("apex must differ from both endpoints")
    cosang = (va[0] * vb[0] + va[1] * vb[1] + va[2] * vb[2]) / (na * nb)
    return math.degrees(math.acos(min(1.0, max(-1.0, cosang))))
