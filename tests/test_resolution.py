"""Tests for the spot-profile / radial-extent / field-of-view analyzer."""

import json
import math
import time
from dataclasses import asdict

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
    write_json,
)
from tiltview.resolution import (
    DegenerateFieldError,
    FovResult,
    ResolutionCurve,
    extract_fov,
    radial_extent,
    scan_resolution,
    spot_extents,
    write_curve_csv,
)


def rv_config(m=16, n=16):
    return OpticalSystemConfig(
        m=m, n=n, pitch_x_mm=10.0, pitch_y_mm=10.0, gap_mm=50.0, focal_length_mm=35.0
    )


def rv_beam(cfg):
    return BeamParameters.from_config(cfg, z_i_override_mm=360.0)


# ---------------------------------------------------------------------------
# the spot model of README.md, written out apart from the library


def lenslet_tilts(p, q, D_mm, cfg, theta_x_deg, theta_y_deg):
    """Centres (cx, cy) of lenslets (p, q), lenslet (m/2, n/2) on axis, and
    the tilts (t_px, t_py) of their beams from the view in radians: the view
    angle less the angle atan(c/D) at which the source (0, 0, D) sees c."""
    cx = (np.asarray(p) - cfg.m / 2) * cfg.pitch_x_mm
    cy = (np.asarray(q) - cfg.n / 2) * cfg.pitch_y_mm
    tpx = math.radians(theta_x_deg) - np.arctan(cx / D_mm)
    tpy = math.radians(theta_y_deg) - np.arctan(cy / D_mm)
    return cx, cy, tpx, tpy


def lenslet_gaussian(x_t, y_t, p, q, D_mm, cfg, beam, theta_x_deg=0.0, theta_y_deg=0.0):
    """Contribution of lenslet (p, q) to the spot at (x_t, y_t) on the plane
    tilted (theta_x, theta_y) through the source: the Gaussian
    2 / (pi w_x w_y) exp(-2 ((x cos t_px / w_x)^2 + (y cos t_py / w_y)^2)),
    its widths those of the beam at the depth D + x sin t_px + y sin t_py,
    weighted by (D + g)^2 over the squared pixel distance
    (D + g)^2 + |c|^2 ((D + g) / D)^2. Broadcasts over arrays, index arrays
    p and q included."""
    cx, cy, tpx, tpy = lenslet_tilts(p, q, D_mm, cfg, theta_x_deg, theta_y_deg)
    z = D_mm + x_t * np.sin(tpx) + y_t * np.sin(tpy)
    wx, wy = beam.width_x(z), beam.width_y(z)
    g = cfg.gap_mm
    weight = (D_mm + g) ** 2 / ((D_mm + g) ** 2 + (cx**2 + cy**2) * ((D_mm + g) / D_mm) ** 2)
    return (weight * 2.0 / (math.pi * wx * wy)
            * np.exp(-2.0 * ((x_t * np.cos(tpx) / wx) ** 2 + (y_t * np.cos(tpy) / wy) ** 2)))


def test_central_peak_matches_on_axis_formula():
    cfg = rv_config()
    beam = rv_beam(cfg)
    peak = lenslet_gaussian(0.0, 0.0, 8, 8, 360.0, cfg, beam)
    assert peak == pytest.approx(2.0 / (math.pi * beam.waist_x_mm**2), rel=1e-12)


def test_gaussian_falloff_one_over_e():
    cfg = rv_config()
    beam = rv_beam(cfg)
    peak = lenslet_gaussian(0.0, 0.0, 8, 8, 360.0, cfg, beam)
    x = beam.waist_x_mm / math.sqrt(2.0)
    val = lenslet_gaussian(x, 0.0, 8, 8, 360.0, cfg, beam)
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
    assert lenslet_gaussian(x, y, p, q, 360.0, cfg, beam, 10.0, 0.0) > 0.0


def test_intensity_broadcasts():
    cfg = rv_config()
    beam = rv_beam(cfg)
    xs = np.linspace(-0.1, 0.1, 7)
    out = lenslet_gaussian(xs, 0.0, 8, 8, 360.0, cfg, beam)
    assert out.shape == (7,)
    assert np.all(out > 0)


# ---------------------------------------------------------------------------
# the spot on a plane grid: the oracle of spot_extents


def grid_spot(plane, D_mm, cfg, beam):
    """The spot intensity sampled on the plane's grid. Each lenslet row p is
    evaluated at once over all q, and its parts are added in fixed
    lexicographic (p, q) order."""
    xs, ys = plane.grid.xs(), plane.grid.ys()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    q = np.arange(cfg.n)[:, None, None]
    total = np.zeros_like(X)
    for p in range(cfg.m):
        for part in lenslet_gaussian(X, Y, p, q, D_mm, cfg, beam,
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
    expected = lenslet_gaussian(X, Y, 0, 0, 360.0, cfg, beam)
    np.testing.assert_array_equal(spot.values, expected)


def test_array_spot_dominates_central_lenslet():
    cfg = rv_config()
    beam = rv_beam(cfg)
    plane = spot_plane()
    spot = grid_spot(plane, 360.0, cfg, beam)
    X, Y = spot.meshgrid()
    central = lenslet_gaussian(X, Y, 8, 8, 360.0, cfg, beam)
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
    # the row-batched grid sum against one lenslet_gaussian per lenslet,
    # summed in lexicographic (p, q) order; m != n so that a swapped axis
    # cannot pass
    cfg = rv_config(m=5, n=6)
    plane = TiltedPlaneSpec(9.0, -4.0, 360.0, PlaneGrid(0.3, 0.3, 0.006))
    X, Y = np.meshgrid(plane.grid.xs(), plane.grid.ys(), indexing="ij")
    for beam in (rv_beam(cfg), BeamParameters.from_config(cfg, z_i_override_mm=math.inf)):
        expected = np.zeros_like(X)
        for p in range(cfg.m):
            for q in range(cfg.n):
                expected += lenslet_gaussian(X, Y, p, q, 360.0, cfg, beam, 9.0, -4.0)
        spot = grid_spot(plane, 360.0, cfg, beam)
        np.testing.assert_allclose(spot.values, expected, rtol=1e-12, atol=0.0)


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
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="scan range"):
            scan_resolution(cfg, 360.0, "x", bad, 40, 5)
    for steps in (5.5, 3.0, True):
        with pytest.raises(ValueError, match="steps must be an integer"):
            scan_resolution(cfg, 360.0, "x", -40, 40, steps)


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
# spot_extents: per-lenslet Gauss-Hermite quadrature


def step_extent(tx, ty, D_mm, cfg, beam):
    """The spot extent of the one tilt step (tx, ty)."""
    return spot_extents(cfg, D_mm, beam, [tx], [ty])[0]


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
    assert step_extent(theta, 0.0, 360.0, cfg, beam) == pytest.approx(grid, rel=1e-10, abs=0.0)


def _extent_by_reference_rule(tx, ty, D_mm, cfg, beam, nodes=32):
    """The spot moment by a `nodes`-point Gauss-Hermite rule per lenslet,
    one lenslet at a time."""
    a, w = np.polynomial.hermite.hermgauss(nodes)
    w = w * np.exp(a**2)
    num = den = 0.0
    for p in range(cfg.m):
        for q in range(cfg.n):
            _, _, tpx, tpy = lenslet_tilts(p, q, D_mm, cfg, tx, ty)
            sx = beam.width_x(D_mm) / (math.sqrt(2.0) * math.cos(tpx))
            sy = beam.width_y(D_mm) / (math.sqrt(2.0) * math.cos(tpy))
            X, Y = np.meshgrid(sx * a, sy * a, indexing="ij")
            mass = sx * sy * np.outer(w, w) * lenslet_gaussian(
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
        assert step_extent(tx, ty, D_mm, cfg, beam) == pytest.approx(expected, rel=rel, abs=0.0)


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
    assert step_extent(tx, ty, D_mm, cfg, beam) == pytest.approx(expected, rel=1e-12, abs=0.0)


def _spot_extent_reference(tx, ty, D_mm, cfg, beam):
    """The spot moment as one broadcast expression over an (m, n, 8, 8)
    array, lenslet row, lenslet column, x node, y node, summed as one
    (p, q, a, b) array; ``spot_extents`` sums by row and column reductions
    and agrees within 1e-15 relative."""
    a, w = np.polynomial.hermite.hermgauss(8)
    w = w * np.exp(a**2)
    centers_x, centers_y = cfg.lenslet_centers()
    cx, cy = centers_x[:, None, None, None], centers_y[None, :, None, None]
    tpx = np.radians(tx - np.degrees(np.arctan(cx / D_mm)))
    tpy = np.radians(ty - np.degrees(np.arctan(cy / D_mm)))
    sx = beam.width_x(D_mm) / (math.sqrt(2.0) * np.cos(tpx))
    sy = beam.width_y(D_mm) / (math.sqrt(2.0) * np.cos(tpy))
    x, y = sx * a[:, None], sy * a[None, :]
    z = D_mm + x * np.sin(tpx) + y * np.sin(tpy)
    wx, wy = beam.width_x(z), beam.width_y(z)
    g = cfg.gap_mm
    weight = (D_mm + g) ** 2 / ((D_mm + g) ** 2 + ((0.0 - cx) ** 2 + (0.0 - cy) ** 2)
                                * (1.0 + 1.0 / (D_mm / g)) ** 2)
    intensity = (2.0 / (math.pi * wx * wy) * weight
                 * np.exp(-2.0 * ((x * np.cos(tpx)) ** 2 / wx**2
                                  + (y * np.cos(tpy)) ** 2 / wy**2)))
    mass = sx * sy * w[:, None] * w[None, :] * intensity
    return float(np.sqrt((mass * (x**2 + y**2)).sum() / mass.sum()))


#: (m, n, pitch_x, pitch_y, gap, focal length, focus override, D): a round
#: beam, whose width is evaluated once, and a rectangular pitch, whose two
#: widths are evaluated apart, off focus; a focused (g = f) rectangular
#: array; a virtual focus (g < f); one lenslet
REFERENCE_SYSTEMS = {
    "round": (16, 16, 10.0, 10.0, 50.0, 35.0, 360.0, 300.0),
    "rectangular": (5, 7, 10.0, 8.0, 50.0, 35.0, None, 160.0),
    "focused": (6, 4, 10.0, 8.0, 35.0, 35.0, None, 800.0),
    "virtual": (3, 5, 10.0, 10.0, 30.0, 35.0, None, 400.0),
    "single": (1, 1, 10.0, 10.0, 50.0, 35.0, 360.0, 2000.0),
}


#: The bound between ``spot_extents`` and ``_spot_extent_reference``: the
#: two sum the same products in other orders, ~2 ulp apart at most
REFERENCE_REL = 1e-15


def near_reference(tx, ty, D_mm, cfg, beam):
    return pytest.approx(_spot_extent_reference(tx, ty, D_mm, cfg, beam),
                         rel=REFERENCE_REL, abs=0.0)


@pytest.mark.parametrize("system", sorted(REFERENCE_SYSTEMS))
def test_spot_extent_matches_broadcast_reference_within_1e_15(system):
    m, n, px, py, g, f, override, D_mm = REFERENCE_SYSTEMS[system]
    cfg = OpticalSystemConfig(m=m, n=n, pitch_x_mm=px, pitch_y_mm=py, gap_mm=g,
                              focal_length_mm=f)
    beam = BeamParameters.from_config(cfg, z_i_override_mm=override)
    for tx, ty in [(0.0, 0.0), (40.0, 0.0), (0.0, -55.0), (30.0, 30.0), (17.0, -23.0),
                   (-60.0, 60.0)]:
        assert step_extent(tx, ty, D_mm, cfg, beam) == near_reference(tx, ty, D_mm, cfg, beam)


@pytest.mark.parametrize("system", sorted(REFERENCE_SYSTEMS))
@pytest.mark.parametrize("axis", ["x", "y", "diagonal"])
def test_scan_samples_equal_spot_extent(system, axis):
    # the scan builds the tilt-independent parts once; each step must still
    # be exactly the one-step evaluation
    m, n, px, py, g, f, override, D_mm = REFERENCE_SYSTEMS[system]
    cfg = OpticalSystemConfig(m=m, n=n, pitch_x_mm=px, pitch_y_mm=py, gap_mm=g,
                              focal_length_mm=f)
    beam = BeamParameters.from_config(cfg, z_i_override_mm=override)
    curve = scan_resolution(cfg, D_mm, axis, -60.0, 60.0, 9, z_i_override_mm=override)
    for tx, ty, extent in curve.samples:
        assert extent == step_extent(tx, ty, D_mm, cfg, beam)
        assert extent == near_reference(tx, ty, D_mm, cfg, beam)


def test_spot_extents_twice_in_one_process_equal_the_reference():
    # each call allocates its own buffers: a scan that follows another, on a
    # system of another size and with another step count, still equals the
    # one-step reference at every step, within REFERENCE_REL
    for system, steps in (("round", 7), ("rectangular", 4), ("round", 5)):
        m, n, px, py, g, f, override, D_mm = REFERENCE_SYSTEMS[system]
        cfg = OpticalSystemConfig(m=m, n=n, pitch_x_mm=px, pitch_y_mm=py, gap_mm=g,
                                  focal_length_mm=f)
        beam = BeamParameters.from_config(cfg, z_i_override_mm=override)
        tx = np.linspace(-50.0, 50.0, steps)
        ty = -0.5 * tx
        extents = spot_extents(cfg, D_mm, beam, tx, ty)
        assert extents == [near_reference(a, b, D_mm, cfg, beam) for a, b in zip(tx, ty)]


@pytest.mark.parametrize("theta_x, theta_y, lengths", [
    ([1.0, 2.0, 3.0], [0.0], "3 and 1"),
    ([0.0], [1.0, 2.0], "1 and 2"),
    ([], [0.0], "0 and 1"),
])
def test_spot_extents_rejects_angle_arrays_of_different_lengths(theta_x, theta_y, lengths):
    # three x angles and one y angle had broadcast to one extent
    cfg = rv_config()
    with pytest.raises(ValueError, match=rf"one angle per tilt step, got {lengths} angles"):
        spot_extents(cfg, 360.0, BeamParameters.from_config(cfg), theta_x, theta_y)


@pytest.mark.parametrize("theta_x, theta_y, shapes", [
    (10.0, [0.0], r"\(\) and \(1,\)"),
    (10.0, 0.0, r"\(\) and \(\)"),
    ([[0.0, 1.0], [2.0, 3.0]], [0.0, 1.0, 2.0, 3.0], r"\(2, 2\) and \(4,\)"),
], ids=["scalar-and-array", "two-scalars", "2-D"])
def test_spot_extents_rejects_angles_that_are_not_one_dimensional(theta_x, theta_y, shapes):
    # a scalar had raised IndexError and a 2-D array a broadcast error
    cfg = rv_config()
    with pytest.raises(ValueError, match=rf"one angle per tilt step, got shapes {shapes}"):
        spot_extents(cfg, 360.0, BeamParameters.from_config(cfg), theta_x, theta_y)


def test_spot_extents_of_no_steps_is_empty():
    cfg = rv_config()
    assert spot_extents(cfg, 360.0, BeamParameters.from_config(cfg), [], []) == []


@pytest.mark.parametrize("slope_y", [0.0, 0.5])
def test_spot_curve_at_the_beam_focus_moves_with_the_wavelength_only_in_scale(slope_y):
    # at D = z_i the waist and the Rayleigh range both scale with the
    # wavelength, and the quadrature's depth offsets with the width, so w(z)/w0
    # at every node is the same at every wavelength: only the scale moves
    theta_x = np.linspace(-60.0, 60.0, 121)
    shapes, minima = [], []
    for wavelength in (400.0, 550.0, 750.0):
        cfg = OpticalSystemConfig(m=16, n=16, pitch_x_mm=10.0, pitch_y_mm=10.0, gap_mm=50.0,
                                  focal_length_mm=35.0, wavelength_nm=wavelength)
        extents = np.array(spot_extents(cfg, 360.0, rv_beam(cfg), theta_x, slope_y * theta_x))
        shapes.append(extents / extents.min())
        minima.append(extents.min() / wavelength)
    for shape in shapes[1:]:
        np.testing.assert_allclose(shape, shapes[0], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(minima, minima[0], rtol=1e-14, atol=0.0)
    assert shapes[0].max() > 1.5  # the curve crosses the field-of-view threshold


def test_scan_rejects_beam_tilted_to_ninety_degrees():
    # at 120 mm the outer lenslets sit 33.7 and 30.3 degrees off the source,
    # so an x scan over +/-60 degrees turns some beam past 90 degrees, where
    # cos t <= 0 had scaled the nodes through zero: nan at 57 and 58 degrees
    # and 26.9 mm at 60 degrees against 0.11 mm at normal view
    cfg = rv_config()
    with pytest.raises(ValueError, match=r"step 0 .* lenslet \(15, 0\) -90\.26 degrees") as err:
        scan_resolution(cfg, 120.0, "x", -60.0, 60.0, 121)
    assert "theta_x in (-59.74, 56.31)" in str(err.value)
    with pytest.raises(ValueError, match=r"lenslet \(0, 0\) 90\.69 degrees"):
        scan_resolution(cfg, 120.0, "x", 0.0, 57.0, 3)
    with pytest.raises(ValueError, match=r"lenslet \(0, 0\)"):
        spot_extents(cfg, 120.0, BeamParameters.from_config(cfg), [57.0], [0.0])
    # a focused array of 8 x 12 mm pitch fails on its y axis at 160 mm
    focused = OpticalSystemConfig(m=16, n=16, pitch_x_mm=8.0, pitch_y_mm=12.0, gap_mm=35.0,
                                  focal_length_mm=35.0)
    with pytest.raises(ValueError, match=r"step 120 .* theta_y in \(-62\.30, 59\.04\)"):
        scan_resolution(focused, 160.0, "y", -60.0, 60.0, 121)
    # inside the range every step is finite
    curve = scan_resolution(cfg, 120.0, "x", -59.0, 56.0, 5)
    assert np.all(np.isfinite(curve.extents()))


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
    return ResolutionCurve(samples=tuple(samples))


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


def test_fov_json_rejects_nan(tmp_path):
    # a bare NaN is not JSON; the writer raises before it opens the file
    fov = FovResult(threshold_ratio=1.5, min_extent_mm=math.nan,
                    fov_negative_deg=None, fov_positive_deg=None)
    path = tmp_path / "fov.json"
    with pytest.raises(ValueError):
        write_json(asdict(fov), path)
    assert not path.exists()
    # an existing file keeps its bytes
    write_json(asdict(FovResult(1.5, 0.5, None, 12.5)), path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_json(asdict(fov), path)
    assert path.read_bytes() == before


def test_fov_json_nulls(tmp_path):
    fov = FovResult(threshold_ratio=1.5, min_extent_mm=0.5,
                    fov_negative_deg=None, fov_positive_deg=12.5)
    path = tmp_path / "fov.json"
    write_json(asdict(fov), path)
    doc = json.loads(path.read_text())
    assert doc == {
        "threshold_ratio": 1.5,
        "min_extent_mm": 0.5,
        "fov_negative_deg": None,
        "fov_positive_deg": 12.5,
    }
