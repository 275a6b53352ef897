"""Geometry tests: grid layout, placement, distances and angles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from avlinksim.geometry import (
    MAX_GRID_TIERS,
    GridSpec,
    NodePose,
    angle_between_deg,
    cell_contains,
    distance_2d,
    distance_3d,
    elevation_angle_deg,
    hex_grid,
    place_avs_uniform,
    serving_bs,
    zenith_angle_deg,
)
from avlinksim.mathfun import RngStream


def _in_footprint(spec, x, y):
    """True if (x, y) lies in the union of all grid cells."""
    return any(cell_contains(s.x, s.y, spec.isd_m, x, y) for s in hex_grid(spec))


def _av(x, y, alt=300.0, id=0):
    return NodePose(id, x, y, alt)


# ============================================================
# Hex grid
# ============================================================

class TestHexGrid:
    def test_site_count_three_tiers(self):
        sites = hex_grid(GridSpec())
        assert len(sites) == 37  # 1 + 6 + 12 + 18

    @pytest.mark.parametrize("tiers,count", [(0, 1), (1, 7), (2, 19), (3, 37),
                                             (MAX_GRID_TIERS, 1261)])
    def test_ring_counts(self, tiers, count):
        assert len(hex_grid(GridSpec(tiers=tiers))) == count

    def test_center_site_first(self):
        sites = hex_grid(GridSpec())
        assert sites[0].id == 0
        assert sites[0].x == 0.0 and sites[0].y == 0.0

    def test_heights(self):
        sites = hex_grid(GridSpec(bs_height_m=25.0))
        assert all(s.altitude == 25.0 for s in sites)

    def test_nearest_neighbor_spacing_is_isd(self):
        sites = hex_grid(GridSpec(isd_m=500.0))
        dmin = min(
            distance_2d(a, b)
            for i, a in enumerate(sites)
            for b in sites[i + 1:]
        )
        assert_allclose(dmin, 500.0, rtol=1e-12)

    def test_first_ring_distance(self):
        sites = hex_grid(GridSpec(isd_m=500.0))
        ring1 = sites[1:7]
        for s in ring1:
            assert_allclose(distance_2d(sites[0], s), 500.0, rtol=1e-12)

    def test_ids_sequential(self):
        sites = hex_grid(GridSpec())
        assert [s.id for s in sites] == list(range(37))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(isd_m=0.0)
        with pytest.raises(ValueError):
            GridSpec(tiers=-1)
        # every topology scans every site, 3t^2 + 3t + 1 of them
        with pytest.raises(ValueError, match="tiers"):
            GridSpec(tiers=MAX_GRID_TIERS + 1)


# ============================================================
# Hexagonal cell membership
# ============================================================

class TestCellMembership:
    def test_center_inside(self):
        assert cell_contains(0.0, 0.0, 500.0, 0.0, 0.0)

    def test_apothem_boundary(self):
        # flat side at isd/2 = 250 m along the x axis
        assert cell_contains(0.0, 0.0, 500.0, 249.9, 0.0)
        assert not cell_contains(0.0, 0.0, 500.0, 250.5, 0.0)

    def test_vertex_direction(self):
        # vertex radius isd / sqrt(3) ~ 288.7 m at 30 degrees
        r_in, r_out = 288.0, 289.5
        c30, s30 = math.cos(math.radians(30)), math.sin(math.radians(30))
        assert cell_contains(0.0, 0.0, 500.0, r_in * c30, r_in * s30)
        assert not cell_contains(0.0, 0.0, 500.0, r_out * c30, r_out * s30)

    def test_offset_cell(self):
        assert cell_contains(500.0, 0.0, 500.0, 520.0, 30.0)
        assert not cell_contains(500.0, 0.0, 500.0, 0.0, 0.0)

    def test_footprint(self):
        spec = GridSpec()
        assert _in_footprint(spec, 0.0, 0.0)
        assert _in_footprint(spec, 1500.0, 0.0)   # tier-3 site center
        assert not _in_footprint(spec, 5000.0, 0.0)


# ============================================================
# Vehicle placement
# ============================================================

class TestPlacement:
    def test_count_ids_altitude(self):
        rng = RngStream(5).generator()
        avs = place_avs_uniform(hex_grid(GridSpec()), 500.0, 9, 300.0, rng, id_start=1)
        assert len(avs) == 9
        assert [a.id for a in avs] == list(range(1, 10))
        assert all(a.altitude == 300.0 for a in avs)

    def test_all_inside_footprint(self):
        spec = GridSpec()
        rng = RngStream(6).generator()
        avs = place_avs_uniform(hex_grid(spec), spec.isd_m, 200, 300.0, rng)
        assert all(_in_footprint(spec, a.x, a.y) for a in avs)

    def test_places_over_the_given_sites(self):
        # the sites it is given, not a grid of its own: one cell off the origin
        site = NodePose(4, 1000.0, -250.0, 25.0)
        avs = place_avs_uniform([site], 500.0, 50, 300.0, RngStream(6).generator())
        assert all(cell_contains(site.x, site.y, 500.0, a.x, a.y) for a in avs)

    def test_deterministic_for_stream(self):
        sites = hex_grid(GridSpec())
        a = place_avs_uniform(sites, 500.0, 5, 300.0, RngStream(7).generator())
        b = place_avs_uniform(sites, 500.0, 5, 300.0, RngStream(7).generator())
        assert a == b

    def test_seed_changes_layout(self):
        sites = hex_grid(GridSpec())
        a = place_avs_uniform(sites, 500.0, 5, 300.0, RngStream(7).generator())
        b = place_avs_uniform(sites, 500.0, 5, 300.0, RngStream(8).generator())
        assert a != b

    def test_spread_covers_cells(self):
        # with many draws the picks should land in many distinct cells
        spec = GridSpec()
        rng = RngStream(9).generator()
        sites = hex_grid(spec)
        avs = place_avs_uniform(sites, spec.isd_m, 400, 300.0, rng)
        used = {serving_bs(a, sites).id for a in avs}
        assert len(used) > 25


# ============================================================
# Distances and angles
# ============================================================

class TestDistancesAngles:
    def test_frozen_3d_distance(self):
        bs = NodePose(0, 0.0, 0.0, 25.0)
        av = _av(150.0, 0.0)
        assert_allclose(distance_3d(bs, av), 313.24910215354169471, rtol=1e-14)
        assert_allclose(distance_2d(bs, av), 150.0, rtol=1e-15)

    def test_frozen_elevation(self):
        bs = NodePose(0, 0.0, 0.0, 25.0)
        av = _av(150.0, 0.0)
        assert_allclose(elevation_angle_deg(bs, av), 61.389540334034783042, rtol=1e-14)

    def test_gs_to_hap_frozen(self):
        gs = NodePose(0, 5000.0, 0.0, 0.0)
        hap = NodePose(0, 0.0, 0.0, 20000.0)
        assert_allclose(distance_3d(gs, hap), 20615.528128088302749, rtol=1e-14)
        assert_allclose(elevation_angle_deg(gs, hap), 75.963756532073521417, rtol=1e-14)

    def test_elevation_zenith_complementary(self):
        a = NodePose(0, 10.0, -20.0, 25.0)
        b = _av(400.0, 300.0)
        assert_allclose(
            elevation_angle_deg(a, b) + zenith_angle_deg(a, b), 90.0, rtol=1e-15
        )

    def test_elevation_sign(self):
        a = _av(0.0, 0.0, alt=300.0)
        b = NodePose(1, 100.0, 0.0, 25.0)
        assert elevation_angle_deg(a, b) < 0.0
        assert elevation_angle_deg(b, a) > 0.0

    def test_straight_up(self):
        a = NodePose(0, 0.0, 0.0, 0.0)
        b = NodePose(0, 0.0, 0.0, 20000.0)
        assert elevation_angle_deg(a, b) == 90.0
        assert zenith_angle_deg(a, b) == 0.0

    def test_angle_between(self):
        apex = NodePose(0, 0.0, 0.0, 20000.0)
        below = _av(0.0, 0.0)
        side = _av(20000.0 - 300.0, 0.0, alt=20000.0)
        assert_allclose(angle_between_deg(apex, below, side), 90.0, rtol=1e-12)
        assert_allclose(angle_between_deg(apex, below, below), 0.0, atol=1e-12)

    def test_angle_between_opposite(self):
        apex = _av(0.0, 0.0)
        a = _av(100.0, 0.0)
        b = _av(-50.0, 0.0)
        assert_allclose(angle_between_deg(apex, a, b), 180.0, rtol=1e-12)

    def test_angle_between_rejects_degenerate(self):
        apex = _av(1.0, 2.0)
        with pytest.raises(ValueError):
            angle_between_deg(apex, apex, _av(5.0, 5.0))

    def test_small_beam_offset(self):
        # ring-1 beam aim point seen from the platform: about 1.4 degrees
        hap = NodePose(0, 0.0, 0.0, 20000.0)
        dest = _av(150.0, 0.0)
        aim = _av(500.0, 0.0)
        got = angle_between_deg(hap, aim, dest)
        expected = math.degrees(
            math.atan2(500.0, 19700.0) - math.atan2(150.0, 19700.0)
        )
        assert_allclose(got, expected, rtol=1e-9)


# ============================================================
# Serving site selection
# ============================================================

class TestServingBs:
    def test_nearest_wins(self):
        sites = hex_grid(GridSpec())
        assert serving_bs(_av(260.0, 0.0), sites).id == 1
        assert serving_bs(_av(100.0, 50.0), sites).id == 0

    def test_tie_breaks_to_lowest_id(self):
        sites = hex_grid(GridSpec())
        assert serving_bs(_av(250.0, 0.0), sites).id == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            serving_bs(_av(0.0, 0.0), [])

    def test_first_ring_azimuth_order(self):
        sites = hex_grid(GridSpec(isd_m=500.0))
        az = [math.degrees(math.atan2(s.y, s.x)) % 360.0 for s in sites[1:7]]
        assert az == sorted(az)
        assert_allclose(az[0], 0.0, atol=1e-12)
