"""Unit tests for the geometry and Gaussian-beam primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltview.optics import (
    FOCUS_BAND,
    BeamParameters,
    OpticalSystemConfig,
    PlaneGrid,
    ScalarField2D,
    TiltedPlaneSpec,
    tilted_to_global,
    write_json,
)
from tiltview.reconstruction import psf_builder

LAMBDA_MM = 550e-6


def _cfg(**kw):
    base = dict(m=16, n=16, pitch_x_mm=10.0, pitch_y_mm=10.0, gap_mm=50.0, focal_length_mm=35.0)
    base.update(kw)
    return OpticalSystemConfig(**base)


def _beam(z_i, pitch_x=10.0, pitch_y=10.0):
    """The beam of the 16 x 16 config focused at ``z_i`` by the override."""
    return BeamParameters.from_config(_cfg(pitch_x_mm=pitch_x, pitch_y_mm=pitch_y),
                                      z_i_override_mm=z_i)


# ---------------------------------------------------------------------------
# image distance: the lens law of OpticalSystemConfig.focus_mm


def test_image_distance_symmetric_conjugate():
    # 2f-2f imaging: g = 2f gives z = 2f
    assert _cfg(gap_mm=70.0).focus_mm() == pytest.approx(70.0, rel=1e-12)


def test_image_distance_real_virtual_example():
    # 1/z = 1/35 - 1/50 = 3/350
    assert _cfg(gap_mm=50.0).focus_mm() == pytest.approx(350.0 / 3.0, rel=1e-12)


def test_image_distance_focused_sentinel():
    assert _cfg(gap_mm=35.0).focus_mm() == math.inf


def test_image_distance_virtual_focus_negative():
    assert _cfg(gap_mm=20.0).focus_mm() < 0


@pytest.mark.parametrize("f,g", [(0.0, 50.0), (-1.0, 50.0), (35.0, 0.0), (35.0, -2.0)])
def test_image_distance_rejects_nonpositive(f, g):
    # the lens law never sees a nonpositive f or g: the config rejects them
    with pytest.raises(ValueError, match="must be positive and finite"):
        _cfg(focal_length_mm=f, gap_mm=g)


@given(
    f=st.floats(min_value=1.0, max_value=100.0),
    delta=st.floats(min_value=-0.4, max_value=0.4),
)
def test_mode_classification_stable_near_focus(f, delta):
    # perturbing g by less than FOCUS_BAND * f / 2 never flips focused mode
    g = f * (1.0 + delta * FOCUS_BAND)
    assert _cfg(focal_length_mm=f, gap_mm=g).focus_mm() == math.inf


# ---------------------------------------------------------------------------
# waist / Rayleigh range / beam width: BeamParameters


def test_waist_at_focus_values():
    assert _beam(360.0).waist_x_mm == pytest.approx(0.0483120, abs=1e-7)
    assert _beam(350.0 / 3.0).waist_x_mm == pytest.approx(0.0156567, abs=1e-7)
    # a virtual focus gives the same waist magnitude
    assert _beam(-360.0).waist_x_mm == _beam(360.0).waist_x_mm


@given(
    z_i=st.floats(min_value=10.0, max_value=5000.0),
    pitch=st.floats(min_value=0.5, max_value=50.0),
)
def test_waist_halves_when_pitch_doubles(z_i, pitch):
    beam = _beam(z_i, pitch_x=pitch, pitch_y=2.0 * pitch)
    assert beam.waist_y_mm == pytest.approx(beam.waist_x_mm / 2.0, rel=1e-12)


def test_rayleigh_range_value():
    # b = pi w0^2 / (2 lambda) for the 360 mm waist
    assert _beam(360.0).rayleigh_x_mm == pytest.approx(6.666029, abs=1e-5)


@given(z_i=st.floats(min_value=10.0, max_value=5000.0))
def test_rayleigh_range_quadratic(z_i):
    # halving the pitch doubles the waist and quadruples the Rayleigh range
    beam = _beam(z_i, pitch_x=10.0, pitch_y=5.0)
    assert beam.waist_y_mm == pytest.approx(2.0 * beam.waist_x_mm, rel=1e-12)
    assert beam.rayleigh_y_mm == pytest.approx(4.0 * beam.rayleigh_x_mm, rel=1e-12)


def test_beam_width_landmarks():
    w0, b, z_i = 0.05, 7.0, 360.0
    beam = BeamParameters(z_i, w0, w0, b, b)
    assert beam.width_x(z_i) == pytest.approx(w0, rel=1e-12)
    assert beam.width_x(z_i + b / 2.0) == pytest.approx(w0 * math.sqrt(2.0), rel=1e-12)
    assert beam.width_y(z_i + 5.0 * b) == pytest.approx(w0 * math.sqrt(101.0), rel=1e-12)


def test_beam_width_at_one_rayleigh_range():
    # with the factor-4 convention, w(z_i +/- b) = w0 * sqrt(5)
    beam = _beam(360.0)
    w0, b = beam.waist_x_mm, beam.rayleigh_x_mm
    assert beam.width_x(360.0 + b) == pytest.approx(w0 * math.sqrt(5.0), rel=1e-12)
    assert beam.width_x(360.0 - b) == pytest.approx(w0 * math.sqrt(5.0), rel=1e-12)


@given(delta=st.floats(min_value=0.0, max_value=100.0))
def test_beam_width_symmetric_about_focus(delta):
    w0, b, z_i = 0.0483, 6.67, 360.0
    beam = BeamParameters(z_i, w0, w0, b, b)
    assert beam.width_x(z_i + delta) == beam.width_x(z_i - delta)
    assert beam.width_x(z_i + delta) >= w0


def test_beam_width_collimated_fallback_constant():
    beam = BeamParameters(math.inf, 5.0, 3.0, math.inf, math.inf)
    assert beam.width_x(123.0) == 5.0
    assert beam.width_y(123.0) == 3.0
    widths = beam.width_x(np.array([1.0, 10.0, 1e4]))
    assert widths.shape == (3,) and np.all(widths == 5.0)


@pytest.mark.parametrize("focus", [360.0, math.inf], ids=["finite-focus", "collimated"])
def test_beam_width_is_the_root_of_its_squared_terms(focus):
    # the spot scan evaluates w(z)^2 = w0^2 + slope (z - z_i)^2 from these
    # terms; width_x and width_y are its square root, w0 in focused mode
    rayleigh = 1.03 if math.isfinite(focus) else math.inf
    beam = BeamParameters(focus, 0.0134, 0.0201, rayleigh, 2.0 * rayleigh)
    z = np.random.default_rng(7).uniform(300.0, 420.0, (16, 24))
    offset = z - focus if math.isfinite(focus) else np.zeros_like(z)
    assert np.array_equal(beam.focus_offset(z), offset)
    for axis, width, waist, b in (("x", beam.width_x, 0.0134, rayleigh),
                                  ("y", beam.width_y, 0.0201, 2.0 * rayleigh)):
        waist_sq, slope = beam.width_sq_terms(axis)
        assert waist_sq == waist**2
        assert slope == (4.0 * waist**2 / b**2 if math.isfinite(focus) else 0.0)
        assert np.array_equal(width(z), np.sqrt(waist_sq + slope * offset**2))


# ---------------------------------------------------------------------------
# tilted-plane mapping


def _plane(tx, ty, D, hw=10.0, pitch=1.0):
    return TiltedPlaneSpec(tx, ty, D, PlaneGrid(hw, hw, pitch))


def test_tilted_to_global_identity_at_zero_tilt():
    assert tilted_to_global(3.0, -2.0, _plane(0.0, 0.0, 100.0)) == (3.0, -2.0, 100.0)


def test_tilted_to_global_thirty_degrees():
    x, y, z = tilted_to_global(10.0, 0.0, _plane(30.0, 0.0, 100.0))
    assert x == pytest.approx(8.6603, abs=1e-4)
    assert y == 0.0
    assert z == pytest.approx(105.0, rel=1e-12)


@given(
    tx=st.floats(min_value=-89.0, max_value=89.0),
    ty=st.floats(min_value=-89.0, max_value=89.0),
)
def test_tilted_to_global_origin_fixed_point(tx, ty):
    assert tilted_to_global(0.0, 0.0, _plane(tx, ty, 250.0)) == (0.0, 0.0, 250.0)


@given(
    xt=st.floats(min_value=-50.0, max_value=50.0),
    yt=st.floats(min_value=-50.0, max_value=50.0),
)
def test_tilted_to_global_zero_tilt_identity_property(xt, yt):
    x, y, z = tilted_to_global(xt, yt, _plane(0.0, 0.0, 77.0))
    assert (x, y, z) == (xt, yt, 77.0)


def test_tilted_to_global_depth_matches_magnification():
    # one depth expression: the global z, which the back-projection divides
    # by the gap for its magnification M = z / g, is D + x sin(tx) + y sin(ty)
    # evaluated point by point in Python floats
    plane = TiltedPlaneSpec(17.0, -23.0, 300.0, PlaneGrid(12.0, 12.0, 0.25))
    X, Y = np.meshgrid(plane.grid.xs(), plane.grid.ys(), indexing="ij")
    assert X.shape == (96, 96)
    _, _, z = tilted_to_global(X, Y, plane)
    sx, sy = math.sin(math.radians(17.0)), math.sin(math.radians(-23.0))
    expected = [[300.0 + float(x) * sx + float(y) * sy for x, y in zip(row_x, row_y)]
                for row_x, row_y in zip(X, Y)]
    np.testing.assert_array_equal(z, expected)


def test_plane_spec_validation():
    with pytest.raises(ValueError):
        _plane(90.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        _plane(0.0, 0.0, -5.0)


@pytest.mark.parametrize("D", [math.nan, math.inf])
def test_plane_spec_rejects_non_finite_depth(D):
    with pytest.raises(ValueError, match=f"axial_offset_mm must be positive and finite, got {D}"):
        _plane(0.0, 0.0, D)


@pytest.mark.parametrize("hw", [math.nan, math.inf])
def test_plane_grid_rejects_non_finite_half_width(hw):
    with pytest.raises(ValueError, match="positive and finite"):
        PlaneGrid(hw, 1.0, 0.1)
    with pytest.raises(ValueError, match="positive and finite"):
        PlaneGrid(1.0, hw, 0.1)


# ---------------------------------------------------------------------------
# config and lenslet centers


def test_lenslet_center_values():
    cx, cy = _cfg().lenslet_centers()
    assert (cx[8], cy[8]) == (0.0, 0.0)
    assert (cx[0], cy[8]) == (-80.0, 0.0)
    assert (cx[15], cy[8]) == (70.0, 0.0)
    assert cx.shape == cy.shape == (16,)


def test_odd_lenslet_count_puts_no_lenslet_on_the_axis():
    # cx = (p - m/2) pitch for every m: for odd m no centre is 0, and the
    # array's centre lies half a pitch off the axis, as for even m
    cfg = OpticalSystemConfig(m=15, n=16, pitch_x_mm=10.0, pitch_y_mm=8.0,
                              gap_mm=50.0, focal_length_mm=35.0)
    cx, cy = cfg.lenslet_centers()
    assert not np.any(cx == 0.0)
    assert (cx[0], cx[-1]) == (-75.0, 65.0)
    assert cx.mean() == -5.0 and cy.mean() == -4.0


# ---------------------------------------------------------------------------
# pixel distance: the on-axis source at depth D seen through lenslet (p, q)


def _on_axis_pixel_distance_sq(cfg, p, q, D):
    cx, cy = cfg.lenslet_centers()
    return cfg.pixel_distance_sq(0.0 - cx[p], 0.0 - cy[q], D)


def test_pixel_distance_sq_central_is_axial():
    assert _on_axis_pixel_distance_sq(_cfg(), 8, 8, 360.0) == (360.0 + 50.0) ** 2


def test_pixel_distance_sq_offset_value():
    d2 = _on_axis_pixel_distance_sq(_cfg(), 9, 8, 360.0)
    assert math.sqrt(d2) == pytest.approx(410.1581485, abs=1e-6)


def test_pixel_distance_sq_monotone_in_offset():
    d2 = [_on_axis_pixel_distance_sq(_cfg(), p, 8, 360.0) for p in range(8, 16)]
    assert all(b > a for a, b in zip(d2, d2[1:]))


@pytest.mark.parametrize("D", [160.0, 300.0, 360.0, 2000.0])
def test_pixel_distance_sq_matches_closed_form(D):
    # the pixel sits g behind lenslet centre c at -c/M, M = D/g: its distance
    # to (0, 0, D) is sqrt((D + g)^2 + ((D + g)/D)^2 |c|^2)
    cfg = _cfg()
    g = cfg.gap_mm
    CX, CY = np.meshgrid(*cfg.lenslet_centers(), indexing="ij")
    closed = (D + g) ** 2 + ((D + g) / D) ** 2 * (CX**2 + CY**2)
    np.testing.assert_allclose(cfg.pixel_distance_sq(0.0 - CX, 0.0 - CY, D), closed,
                               rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("D", [160.0, 300.0, 360.0, 2000.0])
def test_pixel_distance_sq_matches_capture_distance(D):
    # the capture weights by the squared lens-centre distance dx^2 + dy^2 + z^2;
    # the pixel and the source lie on one ray through the centre, so the pixel
    # distance is that distance stretched by (z + g)/z
    cfg = _cfg()
    g = cfg.gap_mm
    CX, CY = np.meshgrid(*cfg.lenslet_centers(), indexing="ij")
    dx, dy = 0.0 - CX, 0.0 - CY
    centre_sq = np.float_power(dx, 2) + np.float_power(dy, 2) + np.float_power(D, 2)
    np.testing.assert_allclose(centre_sq * ((D + g) / D) ** 2,
                               cfg.pixel_distance_sq(dx, dy, D), rtol=1e-15, atol=0.0)


def test_mode_property():
    assert _cfg().focus_mm() == pytest.approx(350.0 / 3.0, rel=1e-12)
    assert _cfg(gap_mm=35.0).focus_mm() == math.inf


@pytest.mark.parametrize("override", [360.0, -120.0, math.inf, -math.inf])
def test_focus_mm_returns_override(override):
    # a negative override is a virtual focus and either infinity the collimated case
    z_i = _cfg(gap_mm=35.0).focus_mm(override)
    assert type(z_i) is float and z_i == override


@pytest.mark.parametrize("override", [math.nan, 0])
def test_focus_mm_rejects_nan_and_zero_override(override):
    with pytest.raises(ValueError, match="z_i_override_mm"):
        _cfg().focus_mm(override)
    with pytest.raises(ValueError, match="z_i_override_mm"):
        BeamParameters.from_config(_cfg(), z_i_override_mm=override)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(m=0)
    with pytest.raises(ValueError):
        _cfg(pitch_x_mm=-1.0)
    # the visible-band check always applies
    with pytest.raises(ValueError, match="visible band"):
        _cfg(wavelength_nm=1064.0)


@pytest.mark.parametrize("key, value", [("m", 2.5), ("n", 4.0), ("m", True), ("n", False),
                                        ("m", "4")])
def test_config_rejects_non_integer_lenslet_count(key, value):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        _cfg(**{key: value})


@pytest.mark.parametrize("key, value", [("pitch_x_mm", math.nan), ("pitch_y_mm", math.inf),
                                        ("focal_length_mm", math.nan), ("gap_mm", math.inf),
                                        ("gap_mm", math.nan)])
def test_config_rejects_non_finite_geometry(key, value):
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        _cfg(**{key: value})


def test_collimated_inputs_stay_accepted():
    # an infinite focus is the focused-mode sentinel, not a bad input
    beam = BeamParameters.from_config(_cfg(), z_i_override_mm=math.inf)
    assert math.isinf(beam.z_focus_mm)
    build_psf = psf_builder(_cfg(m=1, n=1, pitch_x_mm=1.0, pitch_y_mm=1.0), z_i_mm=math.inf,
                            sample_pitch_mm=0.05, max_half_width_mm=math.inf)
    kernel = build_psf(300.0)
    assert kernel.samples.sum() == pytest.approx(1.0, rel=1e-9)


def test_config_digest_distinguishes_configs():
    assert _cfg().digest() != _cfg(gap_mm=51.0).digest()
    assert _cfg().digest() == _cfg().digest()


def test_write_json_rejects_nan_and_keeps_an_existing_file(tmp_path):
    # json.dump into the open file had written a bare NaN, which is no JSON,
    # and a value it could not serialize had left a truncated file
    path = tmp_path / "out.json"
    write_json({"mode": "geometric", "images": [{"p": 0}]}, path)
    before = path.read_bytes()
    assert before == (b'{\n  "mode": "geometric",\n  "images": [\n    {\n      "p": 0\n'
                      b'    }\n  ]\n}\n')
    with pytest.raises(ValueError):
        write_json({"mode": "geometric", "images": [{"p": math.nan}]}, path)
    assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# BeamParameters


def test_beam_parameters_real_virtual():
    beam = BeamParameters.from_config(_cfg(), z_i_override_mm=360.0)
    assert beam.z_focus_mm == 360.0
    assert beam.waist_x_mm == pytest.approx(0.0483120, abs=1e-7)
    assert beam.rayleigh_x_mm == pytest.approx(6.666029, abs=1e-5)
    assert math.isfinite(beam.z_focus_mm)
    # waist and Rayleigh range stay mutually consistent
    assert beam.rayleigh_x_mm == pytest.approx(
        math.pi * beam.waist_x_mm**2 / (2.0 * LAMBDA_MM), rel=1e-12
    )


def test_beam_parameters_focused_fallback():
    beam = BeamParameters.from_config(_cfg(gap_mm=35.0))
    assert math.isinf(beam.z_focus_mm)
    assert beam.waist_x_mm == 5.0
    assert beam.waist_y_mm == 5.0
    assert beam.width_x(1234.5) == 5.0


def test_beam_parameters_uses_lens_law_without_override():
    beam = BeamParameters.from_config(_cfg())
    assert beam.z_focus_mm == pytest.approx(350.0 / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# grids and fields


@given(hw=st.floats(min_value=0.5, max_value=50.0))
@settings(max_examples=50)
def test_plane_grid_axes_symmetric(hw):
    xs = PlaneGrid(hw, hw, 0.25).xs()
    np.testing.assert_allclose(xs, -xs[::-1], atol=1e-12)


def test_scalar_field_shape_check():
    with pytest.raises(ValueError):
        ScalarField2D(np.zeros((3, 4)), np.arange(4), np.arange(3), 1.0)
    with pytest.raises(ValueError):
        ScalarField2D(-np.ones((2, 2)), np.arange(2), np.arange(2), 1.0)


def test_scalar_field_integral_midpoint():
    field = ScalarField2D(np.ones((4, 4)), np.arange(4) * 0.5, np.arange(4) * 0.5, 0.5)
    assert field.values.sum() * field.sample_pitch_mm**2 == pytest.approx(16 * 0.25, rel=1e-12)
    # on a PlaneGrid the midpoint sum of a Gaussian is its integral pi w^2 / 2
    grid = PlaneGrid(0.5, 0.5, 0.005)
    X, Y = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    gauss = ScalarField2D(np.exp(-2.0 * (X**2 + Y**2) / 0.05**2), grid.xs(), grid.ys(), 0.005)
    assert gauss.values.sum() * 0.005**2 == pytest.approx(math.pi * 0.05**2 / 2.0, rel=1e-12)
