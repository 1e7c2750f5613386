"""Tests for the spot-profile / radial-extent / field-of-view analyzer."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltview.optics import (
    BeamParameters,
    OpticalSystemConfig,
    PlaneGrid,
    ScalarField2D,
    TiltedPlaneSpec,
)
from tiltview.resolution import (
    DegenerateFieldError,
    FovResult,
    ResolutionCurve,
    extract_fov,
    lenslet_pixel_distance,
    lenslet_tilt,
    point_source_intensity,
    radial_extent,
    scan_resolution,
    spot_extent,
    write_curve_csv,
    write_fov_json,
)


def rv_config(m=16, n=16):
    return OpticalSystemConfig(
        m=m, n=n, pitch_x_mm=10.0, pitch_y_mm=10.0, gap_mm=50.0, focal_length_mm=35.0
    )


def rv_beam(cfg):
    return BeamParameters.from_config(cfg, z_i_override_mm=360.0)


# ---------------------------------------------------------------------------
# per-lenslet geometry


def test_lenslet_tilt_central_is_view_angle():
    cfg = rv_config()
    assert lenslet_tilt(8, 8, 360.0, 12.5, -3.0, cfg) == (12.5, -3.0)


def test_lenslet_tilt_offsets():
    cfg = rv_config()
    tpx, _ = lenslet_tilt(9, 8, 360.0, 0.0, 0.0, cfg)  # c_p = +10 mm
    assert tpx == pytest.approx(-1.5911403, abs=1e-6)
    tpx, _ = lenslet_tilt(0, 8, 360.0, 15.0, 0.0, cfg)  # c_p = -80 mm
    assert tpx == pytest.approx(15.0 + math.degrees(math.atan(80.0 / 360.0)), rel=1e-12)
    tpx, _ = lenslet_tilt(15, 8, 360.0, 15.0, 0.0, cfg)  # c_p = +70 mm
    assert tpx == pytest.approx(15.0 - math.degrees(math.atan(70.0 / 360.0)), rel=1e-12)


def test_lenslet_tilt_eighty_mm_offset_value():
    # a lenslet 80 mm off axis seen from 360 mm away under a 15 degree view
    cfg = OpticalSystemConfig(m=17, n=17, pitch_x_mm=10.0, pitch_y_mm=10.0,
                              gap_mm=50.0, focal_length_mm=35.0)
    tpx, _ = lenslet_tilt(16, 8, 360.0, 15.0, 0.0, cfg)  # c_p = (16 - 8.5)*10 = 75
    assert tpx == pytest.approx(15.0 - math.degrees(math.atan(75.0 / 360.0)), rel=1e-12)
    assert 15.0 - math.degrees(math.atan(80.0 / 360.0)) == pytest.approx(2.4711923, abs=1e-6)


def test_lenslet_pixel_distance_central_is_axial():
    cfg = rv_config()
    assert lenslet_pixel_distance(8, 8, 360.0, cfg) == pytest.approx(410.0, rel=1e-12)


def test_lenslet_pixel_distance_offset_value():
    cfg = rv_config()
    assert lenslet_pixel_distance(9, 8, 360.0, cfg) == pytest.approx(
        410.1581485, abs=1e-6
    )


def test_lenslet_pixel_distance_monotone_in_offset():
    cfg = rv_config()
    dists = [lenslet_pixel_distance(p, 8, 360.0, cfg) for p in range(8, 16)]
    assert all(b > a for a, b in zip(dists, dists[1:]))


# ---------------------------------------------------------------------------
# point_source_intensity


def test_central_peak_matches_on_axis_formula():
    cfg = rv_config()
    beam = rv_beam(cfg)
    peak = point_source_intensity(0.0, 0.0, 8, 8, 360.0, cfg, beam)
    assert peak == pytest.approx(2.0 / (math.pi * beam.waist_x_mm**2), rel=1e-12)


def test_gaussian_falloff_one_over_e():
    cfg = rv_config()
    beam = rv_beam(cfg)
    peak = point_source_intensity(0.0, 0.0, 8, 8, 360.0, cfg, beam)
    x = beam.waist_x_mm / math.sqrt(2.0)
    val = point_source_intensity(x, 0.0, 8, 8, 360.0, cfg, beam)
    assert val == pytest.approx(peak / math.e, rel=1e-12)


@given(
    x=st.floats(min_value=-0.5, max_value=0.5),
    y=st.floats(min_value=-0.5, max_value=0.5),
    p=st.integers(min_value=0, max_value=15),
    q=st.integers(min_value=0, max_value=15),
)
@settings(max_examples=60)
def test_intensity_strictly_positive(x, y, p, q):
    cfg = rv_config()
    beam = rv_beam(cfg)
    assert point_source_intensity(x, y, p, q, 360.0, cfg, beam, 10.0, 0.0) > 0.0


def test_intensity_broadcasts():
    cfg = rv_config()
    beam = rv_beam(cfg)
    xs = np.linspace(-0.1, 0.1, 7)
    out = point_source_intensity(xs, 0.0, 8, 8, 360.0, cfg, beam)
    assert out.shape == (7,)
    assert np.all(out > 0)


# ---------------------------------------------------------------------------
# the spot on a plane grid: the oracle of spot_extent


def grid_spot(plane, D_mm, cfg, beam):
    """The spot intensity sampled on the plane's grid. Each lenslet row p is
    evaluated at once over all q, and its parts are added in fixed
    lexicographic (p, q) order."""
    xs, ys = plane.grid.xs(), plane.grid.ys()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    q = np.arange(cfg.n)[:, None, None]
    total = np.zeros_like(X)
    for p in range(cfg.m):
        for part in point_source_intensity(X, Y, p, q, D_mm, cfg, beam,
                                           plane.theta_x_deg, plane.theta_y_deg):
            total += part
    return ScalarField2D(total, xs, ys, plane.grid.sample_pitch_mm)


def spot_plane(hw=0.3, pitch=0.006, tx=0.0):
    return TiltedPlaneSpec(tx, 0.0, 360.0, PlaneGrid(hw, hw, pitch))


def test_single_lenslet_spot_equals_lone_contribution():
    cfg = OpticalSystemConfig(m=1, n=1, pitch_x_mm=10.0, pitch_y_mm=10.0,
                              gap_mm=50.0, focal_length_mm=35.0)
    beam = rv_beam(cfg)
    plane = spot_plane()
    spot = grid_spot(plane, 360.0, cfg, beam)
    X, Y = spot.meshgrid()
    expected = point_source_intensity(X, Y, 0, 0, 360.0, cfg, beam)
    np.testing.assert_array_equal(spot.values, expected)


def test_array_spot_dominates_central_lenslet():
    cfg = rv_config()
    beam = rv_beam(cfg)
    plane = spot_plane()
    spot = grid_spot(plane, 360.0, cfg, beam)
    X, Y = spot.meshgrid()
    central = point_source_intensity(X, Y, 8, 8, 360.0, cfg, beam)
    assert spot.values.sum() >= central.sum()
    assert np.all(spot.values >= central)


def test_spot_nearly_even_at_normal_view():
    # the centered indexing puts one extra lenslet on the negative side
    # (centers -80..+70 mm), so evenness holds to the far-tail level only
    cfg = rv_config()
    beam = rv_beam(cfg)
    v = grid_spot(spot_plane(), 360.0, cfg, beam).values
    peak = v.max()
    np.testing.assert_allclose(v, v[::-1, :], atol=1e-5 * peak)
    np.testing.assert_allclose(v, v[:, ::-1], atol=1e-5 * peak)


def test_aggregate_spot_matches_per_lenslet_loop():
    # the row-batched grid sum against one point_source_intensity per lenslet,
    # summed in lexicographic (p, q) order; m != n so that a swapped axis
    # cannot pass
    cfg = rv_config(m=5, n=6)
    plane = TiltedPlaneSpec(9.0, -4.0, 360.0, PlaneGrid(0.3, 0.3, 0.006))
    X, Y = np.meshgrid(plane.grid.xs(), plane.grid.ys(), indexing="ij")
    for beam in (rv_beam(cfg), BeamParameters.from_config(cfg, z_i_override_mm=math.inf)):
        expected = np.zeros_like(X)
        for p in range(cfg.m):
            for q in range(cfg.n):
                expected += point_source_intensity(X, Y, p, q, 360.0, cfg, beam, 9.0, -4.0)
        spot = grid_spot(plane, 360.0, cfg, beam)
        np.testing.assert_allclose(spot.values, expected, rtol=1e-12, atol=0.0)


def test_lenslet_helpers_broadcast_over_q():
    cfg = rv_config(m=5, n=6)
    q = np.arange(cfg.n)
    tpx, tpy = lenslet_tilt(3, q, 360.0, 9.0, -4.0, cfg)
    d = lenslet_pixel_distance(3, q, 360.0, cfg)
    for j in range(cfg.n):
        scalar_tilt = lenslet_tilt(3, j, 360.0, 9.0, -4.0, cfg)
        scalar_d = lenslet_pixel_distance(3, j, 360.0, cfg)
        assert type(scalar_tilt[0]) is float and type(scalar_d) is float
        assert (tpx, tpy[j], d[j]) == (scalar_tilt[0], scalar_tilt[1], scalar_d)


# ---------------------------------------------------------------------------
# radial_extent


def _field_from(values, xs, ys, pitch):
    return ScalarField2D(values, xs, ys, pitch)


def test_radial_extent_gaussian_oracle():
    w0 = 0.05
    xs = np.linspace(-0.4, 0.4, 513)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    gauss = np.exp(-2.0 * (X**2 + Y**2) / w0**2)
    ext = radial_extent(_field_from(gauss, xs, xs, xs[1] - xs[0]))
    assert ext == pytest.approx(w0 / math.sqrt(2.0), rel=0.01)


def test_radial_extent_disk_oracle():
    R = 0.2
    xs = np.linspace(-0.5, 0.5, 1025)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    disk = (X**2 + Y**2 <= R**2).astype(float)
    ext = radial_extent(_field_from(disk, xs, xs, xs[1] - xs[0]))
    assert ext == pytest.approx(R / math.sqrt(2.0), rel=0.01)


@given(scale=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=40)
def test_radial_extent_scale_invariant(scale):
    xs = np.linspace(-1.0, 1.0, 33)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    base = np.exp(-(X**2 + Y**2))
    e1 = radial_extent(_field_from(base, xs, xs, xs[1] - xs[0]))
    e2 = radial_extent(_field_from(base * scale, xs, xs, xs[1] - xs[0]))
    assert e2 == pytest.approx(e1, rel=1e-9)


def test_radial_extent_rejects_zero_field():
    xs = np.linspace(-1.0, 1.0, 9)
    with pytest.raises(DegenerateFieldError):
        radial_extent(_field_from(np.zeros((9, 9)), xs, xs, 0.25))


# ---------------------------------------------------------------------------
# scan_resolution


def test_scan_validation():
    cfg = rv_config()
    with pytest.raises(ValueError):
        scan_resolution(cfg, 360.0, "x", -40, 40, 2)
    with pytest.raises(ValueError):
        scan_resolution(cfg, 360.0, "x", -70, 40, 5)
    with pytest.raises(ValueError):
        scan_resolution(cfg, 360.0, "z", -40, 40, 5)
    with pytest.raises(ValueError):
        scan_resolution(cfg, 360.0, "x", 40, -40, 5)


def test_scan_curve_nearly_even():
    # mirror symmetry is broken only by the one-lenslet centering offset
    cfg = rv_config()
    curve = scan_resolution(cfg, 360.0, "x", -30, 30, 7, z_i_override_mm=360.0)
    ext = curve.extents()
    np.testing.assert_allclose(ext, ext[::-1], rtol=0.02)


def test_scan_focus_is_global_minimum_within_step():
    cfg = rv_config()
    curve = scan_resolution(cfg, 360.0, "x", -40, 40, 17, z_i_override_mm=360.0)
    ext = curve.extents()
    angles = curve.swept_angles()
    step = angles[1] - angles[0]
    assert abs(angles[int(np.argmin(ext))]) <= step + 1e-9


def test_scan_extent_at_normal_view_frozen():
    cfg = rv_config()
    curve = scan_resolution(cfg, 360.0, "x", -1, 1, 3, z_i_override_mm=360.0)
    assert curve.extents()[1] == pytest.approx(0.0344422, abs=2e-6)


def test_scan_axes():
    cfg = rv_config(m=5, n=5)
    cy = scan_resolution(cfg, 360.0, "y", -10, 10, 3, z_i_override_mm=360.0)
    assert all(s[0] == 0.0 for s in cy.samples)
    cd = scan_resolution(cfg, 360.0, "diagonal", -10, 10, 3, z_i_override_mm=360.0)
    assert all(s[0] == s[1] for s in cd.samples)


def test_tail_truncation_controlled():
    # doubling the grid half-width moves the grid moment by well under 1%
    cfg = rv_config()
    beam = rv_beam(cfg)
    pitch = beam.waist_x_mm / 4.0
    e = []
    for hw in (0.3, 0.6):
        plane = TiltedPlaneSpec(0.0, 0.0, 360.0, PlaneGrid(hw, hw, pitch))
        e.append(radial_extent(grid_spot(plane, 360.0, cfg, beam)))
    assert abs(e[1] - e[0]) / e[0] < 0.01


def test_scan_ignores_plane_grid():
    cfg = rv_config(m=4, n=4)
    plain = scan_resolution(cfg, 360.0, "x", -10, 10, 3, z_i_override_mm=360.0)
    gridded = scan_resolution(cfg, 360.0, "x", -10, 10, 3, z_i_override_mm=360.0,
                              plane_grid=PlaneGrid(0.01, 0.01, 0.005))
    assert gridded.samples == plain.samples


# ---------------------------------------------------------------------------
# spot_extent: per-lenslet Gauss-Hermite quadrature


@pytest.mark.parametrize("theta", [0.0, 40.0, -40.0, 60.0, -60.0])
def test_spot_extent_matches_grid_oracle(theta):
    # a window of 12 waists, twice the six-waist span that holds the spot,
    # sampled at a quarter waist; at +60 deg the most oblique lenslet
    # (72.5 deg) still has ~7 standard deviations inside it
    cfg = rv_config()
    beam = rv_beam(cfg)
    hw = 12.0 * beam.waist_x_mm
    plane = TiltedPlaneSpec(theta, 0.0, 360.0, PlaneGrid(hw, hw, beam.waist_x_mm / 4.0))
    grid = radial_extent(grid_spot(plane, 360.0, cfg, beam))
    assert spot_extent(theta, 0.0, 360.0, cfg, beam) == pytest.approx(grid, rel=1e-10, abs=0.0)


def _extent_by_reference_rule(tx, ty, D_mm, cfg, beam, nodes=32):
    """The spot moment by a `nodes`-point Gauss-Hermite rule per lenslet,
    one lenslet at a time."""
    a, w = np.polynomial.hermite.hermgauss(nodes)
    w = w * np.exp(a**2)
    num = den = 0.0
    for p in range(cfg.m):
        for q in range(cfg.n):
            tpx, tpy = lenslet_tilt(p, q, D_mm, tx, ty, cfg)
            sx = beam.width_x(D_mm) / (math.sqrt(2.0) * math.cos(math.radians(tpx)))
            sy = beam.width_y(D_mm) / (math.sqrt(2.0) * math.cos(math.radians(tpy)))
            X, Y = np.meshgrid(sx * a, sy * a, indexing="ij")
            mass = sx * sy * np.outer(w, w) * point_source_intensity(
                X, Y, p, q, D_mm, cfg, beam, tx, ty)
            num += (mass * (X**2 + Y**2)).sum()
            den += mass.sum()
    return math.sqrt(num / den)


@pytest.mark.parametrize("D_mm, rel", [(360.0, 1e-9), (300.0, 1e-5), (340.0, 1e-5),
                                       (400.0, 1e-5)])
def test_spot_extent_matches_reference_rule(D_mm, rel):
    # away from the 360 mm focus the beam width changes across the tilted
    # spot; the 8-node rule stays within 2.7e-6 of 32 nodes up to (60, 60)
    cfg = rv_config()
    beam = rv_beam(cfg)
    for tx, ty in [(0.0, 0.0), (40.0, 0.0), (60.0, 0.0), (-60.0, 0.0), (0.0, 60.0),
                   (60.0, 60.0), (-60.0, -60.0)]:
        expected = _extent_by_reference_rule(tx, ty, D_mm, cfg, beam)
        assert spot_extent(tx, ty, D_mm, cfg, beam) == pytest.approx(expected, rel=rel, abs=0.0)


@given(
    m=st.integers(min_value=1, max_value=16),
    n=st.integers(min_value=1, max_value=16),
    tx=st.floats(min_value=-60.0, max_value=60.0),
    ty=st.floats(min_value=-60.0, max_value=60.0),
    D_mm=st.floats(min_value=500.0, max_value=6000.0),
)
@settings(max_examples=60, deadline=None)
def test_spot_extent_focused_matches_closed_form(m, n, tx, ty, D_mm):
    # a collimated beam has a constant width, so each lenslet's Gaussian
    # integrates in closed form: mass weight / (cos t_px cos t_py), x-variance
    # w^2 / (4 cos^2 t_px), y-variance w^2 / (4 cos^2 t_py)
    cfg = OpticalSystemConfig(m=m, n=n, pitch_x_mm=10.0, pitch_y_mm=8.0,
                              gap_mm=35.0, focal_length_mm=35.0)
    beam = BeamParameters.from_config(cfg)
    wx, wy = cfg.pitch_x_mm / 2.0, cfg.pitch_y_mm / 2.0
    cx, cy = cfg.lenslet_centers()
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    g = cfg.gap_mm
    weight = (D_mm + g) ** 2 / ((D_mm + g) ** 2 + ((D_mm + g) / D_mm) ** 2 * (CX**2 + CY**2))
    cos_x = np.cos(math.radians(tx) - np.arctan(CX / D_mm))
    cos_y = np.cos(math.radians(ty) - np.arctan(CY / D_mm))
    mass = weight / (cos_x * cos_y)
    var = wx**2 / (4.0 * cos_x**2) + wy**2 / (4.0 * cos_y**2)
    expected = math.sqrt((mass * var).sum() / mass.sum())
    assert spot_extent(tx, ty, D_mm, cfg, beam) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_off_focus_scan_is_fast():
    # 300 mm from a 360 mm focus a plane grid that holds the spot at the
    # waist-resolving pitch has ~930^2 samples and took ~15 s per step
    cfg = rv_config()
    t0 = time.perf_counter()
    curve = scan_resolution(cfg, 300.0, "x", -40, 40, 81, z_i_override_mm=360.0)
    elapsed = time.perf_counter() - t0
    assert len(curve.samples) == 81 and np.all(np.isfinite(curve.extents()))
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# extract_fov


def _curve(samples):
    return ResolutionCurve(samples=tuple(samples), config_digest="test")


def test_fov_linear_interpolation_example():
    curve = _curve([(0.0, 0.0, 1.0), (10.0, 0.0, 1.2), (20.0, 0.0, 1.6)])
    fov = extract_fov(curve)
    assert fov.fov_positive_deg == pytest.approx(17.5, rel=1e-12)
    assert fov.fov_negative_deg is None
    assert fov.min_extent_mm == 1.0


def test_fov_flat_curve_open_ended():
    curve = _curve([(t, 0.0, 2.0) for t in np.linspace(-30, 30, 7)])
    fov = extract_fov(curve)
    assert fov.fov_negative_deg is None
    assert fov.fov_positive_deg is None


def test_fov_symmetric_crossings():
    angles = np.linspace(-20, 20, 41)
    curve = _curve([(t, 0.0, 1.0 + (t / 10.0) ** 2) for t in angles])
    fov = extract_fov(curve)
    # 1 + (t/10)^2 = 1.5 at t = sqrt(0.5)*10
    expect = math.sqrt(0.5) * 10.0
    assert fov.fov_positive_deg == pytest.approx(expect, abs=0.2)
    assert fov.fov_negative_deg == pytest.approx(-expect, abs=0.2)


def test_fov_threshold_ratio_respected():
    curve = _curve([(0.0, 0.0, 1.0), (10.0, 0.0, 3.0)])
    fov = extract_fov(curve, threshold_ratio=2.0)
    assert fov.threshold_ratio == 2.0
    assert fov.fov_positive_deg == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("ratio", [1.0, 0.5, 0.0, -2.0, math.nan, math.inf])
def test_fov_rejects_threshold_ratio_not_above_one(ratio):
    # a threshold at or below the minimum puts the crossing behind the
    # bracketing sample: at 0.5 the 16x16 real/virtual scan over +/-40 deg
    # had read a field of view of 4087.5 / -11712.6 deg
    curve = _curve([(-10.0, 0.0, 1.6), (0.0, 0.0, 1.0), (10.0, 0.0, 1.6)])
    with pytest.raises(ValueError, match="threshold_ratio"):
        extract_fov(curve, threshold_ratio=ratio)


# ---------------------------------------------------------------------------
# serialization


def test_curve_csv_format(tmp_path):
    curve = _curve([(0.0, 0.0, 1.0), (10.0, 0.0, 1.23456789012)])
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theta_x_deg,theta_y_deg,radial_extent_mm"
    assert len(lines) == 3
    # values carry >= 9 significant digits
    assert float(lines[2].split(",")[2]) == pytest.approx(1.23456789012, rel=1e-9)


def test_fov_json_nulls(tmp_path):
    import json

    fov = FovResult(threshold_ratio=1.5, min_extent_mm=0.5,
                    fov_negative_deg=None, fov_positive_deg=12.5)
    path = tmp_path / "fov.json"
    write_fov_json(fov, path)
    doc = json.loads(path.read_text())
    assert doc == {
        "threshold_ratio": 1.5,
        "min_extent_mm": 0.5,
        "fov_negative_deg": None,
        "fov_positive_deg": 12.5,
    }
