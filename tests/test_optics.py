"""Unit tests for the geometry and Gaussian-beam primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltview.optics import (
    FOCUS_BAND,
    INFINITE_FOCUS,
    BeamParameters,
    FocusedModeError,
    OpticalSystemConfig,
    PlaneGrid,
    ScalarField2D,
    TiltedPlaneSpec,
    beam_width,
    image_distance,
    rayleigh_range,
    tilted_to_global,
    waist_at_focus,
)
from tiltview.reconstruction import defocus_psf

LAMBDA_MM = 550e-6


# ---------------------------------------------------------------------------
# image_distance


def test_image_distance_symmetric_conjugate():
    # 2f-2f imaging: g = 2f gives z = 2f
    assert image_distance(35.0, 70.0) == pytest.approx(70.0, rel=1e-12)


def test_image_distance_real_virtual_example():
    # 1/z = 1/35 - 1/50 = 3/350
    assert image_distance(35.0, 50.0) == pytest.approx(350.0 / 3.0, rel=1e-12)


def test_image_distance_focused_sentinel():
    assert image_distance(35.0, 35.0) == INFINITE_FOCUS


def test_image_distance_virtual_focus_negative():
    assert image_distance(35.0, 20.0) < 0


@pytest.mark.parametrize("f,g", [(0.0, 50.0), (-1.0, 50.0), (35.0, 0.0), (35.0, -2.0)])
def test_image_distance_rejects_nonpositive(f, g):
    with pytest.raises(ValueError):
        image_distance(f, g)


@given(
    f=st.floats(min_value=1.0, max_value=100.0),
    delta=st.floats(min_value=-0.4, max_value=0.4),
)
def test_mode_classification_stable_near_focus(f, delta):
    # perturbing g by less than FOCUS_BAND * f / 2 never flips focused mode
    g = f * (1.0 + delta * FOCUS_BAND)
    assert image_distance(f, g) == INFINITE_FOCUS


# ---------------------------------------------------------------------------
# waist / Rayleigh range / beam width


def test_waist_at_focus_values():
    assert waist_at_focus(LAMBDA_MM, 360.0, 10.0) == pytest.approx(0.0483120, abs=1e-7)
    assert waist_at_focus(LAMBDA_MM, 350.0 / 3.0, 10.0) == pytest.approx(0.0156567, abs=1e-7)


@given(
    z_i=st.floats(min_value=10.0, max_value=5000.0),
    pitch=st.floats(min_value=0.5, max_value=50.0),
)
def test_waist_halves_when_pitch_doubles(z_i, pitch):
    w1 = waist_at_focus(LAMBDA_MM, z_i, pitch)
    w2 = waist_at_focus(LAMBDA_MM, z_i, 2.0 * pitch)
    assert w2 == pytest.approx(w1 / 2.0, rel=1e-12)


def test_waist_rejects_collimated():
    with pytest.raises(FocusedModeError):
        waist_at_focus(LAMBDA_MM, INFINITE_FOCUS, 10.0)


def test_rayleigh_range_value():
    # b = pi w0^2 / (2 lambda) for the 360 mm waist
    w0 = waist_at_focus(LAMBDA_MM, 360.0, 10.0)
    assert rayleigh_range(w0, LAMBDA_MM) == pytest.approx(6.666029, abs=1e-5)


@given(w0=st.floats(min_value=1e-3, max_value=10.0))
def test_rayleigh_range_quadratic(w0):
    assert rayleigh_range(2.0 * w0, LAMBDA_MM) == pytest.approx(
        4.0 * rayleigh_range(w0, LAMBDA_MM), rel=1e-12
    )


def test_beam_width_landmarks():
    w0, b, z_i = 0.05, 7.0, 360.0
    assert beam_width(z_i, z_i, w0, b) == pytest.approx(w0, rel=1e-12)
    assert beam_width(z_i + b / 2.0, z_i, w0, b) == pytest.approx(w0 * math.sqrt(2.0), rel=1e-12)
    assert beam_width(z_i + 5.0 * b, z_i, w0, b) == pytest.approx(w0 * math.sqrt(101.0), rel=1e-12)


def test_beam_width_at_one_rayleigh_range():
    # with the factor-4 convention, w(z_i +/- b) = w0 * sqrt(5)
    lam = LAMBDA_MM
    w0 = waist_at_focus(lam, 360.0, 10.0)
    b = rayleigh_range(w0, lam)
    assert beam_width(360.0 + b, 360.0, w0, b) == pytest.approx(w0 * math.sqrt(5.0), rel=1e-12)
    assert beam_width(360.0 - b, 360.0, w0, b) == pytest.approx(w0 * math.sqrt(5.0), rel=1e-12)


@given(delta=st.floats(min_value=0.0, max_value=100.0))
def test_beam_width_symmetric_about_focus(delta):
    w0, b, z_i = 0.0483, 6.67, 360.0
    assert beam_width(z_i + delta, z_i, w0, b) == beam_width(z_i - delta, z_i, w0, b)
    assert beam_width(z_i + delta, z_i, w0, b) >= w0


def test_beam_width_collimated_fallback_constant():
    assert beam_width(123.0, INFINITE_FOCUS, 5.0, math.inf) == 5.0
    widths = beam_width(np.array([1.0, 10.0, 1e4]), INFINITE_FOCUS, 5.0, math.inf)
    assert np.all(widths == 5.0)


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
    with pytest.raises(ValueError, match="axial offset must be positive and finite"):
        _plane(0.0, 0.0, D)


@pytest.mark.parametrize("hw", [math.nan, math.inf])
def test_plane_grid_rejects_non_finite_half_width(hw):
    with pytest.raises(ValueError, match="positive and finite"):
        PlaneGrid(hw, 1.0, 0.1)
    with pytest.raises(ValueError, match="positive and finite"):
        PlaneGrid(1.0, hw, 0.1)


# ---------------------------------------------------------------------------
# config and lenslet centers


def _cfg(**kw):
    base = dict(m=16, n=16, pitch_x_mm=10.0, pitch_y_mm=10.0, gap_mm=50.0, focal_length_mm=35.0)
    base.update(kw)
    return OpticalSystemConfig(**base)


def test_lenslet_center_values():
    cfg = _cfg()
    assert cfg.lenslet_center(8, 8) == (0.0, 0.0)
    assert cfg.lenslet_center(0, 8) == (-80.0, 0.0)
    assert cfg.lenslet_center(15, 8) == (70.0, 0.0)


def test_lenslet_center_out_of_range():
    with pytest.raises(IndexError):
        _cfg().lenslet_center(16, 0)
    with pytest.raises(IndexError):
        _cfg().lenslet_center(0, -1)
    with pytest.raises(IndexError):
        _cfg().lenslet_center(0, np.arange(17))


def test_mode_property():
    assert _cfg().focus_mm() == pytest.approx(350.0 / 3.0, rel=1e-12)
    assert _cfg(gap_mm=35.0).focus_mm() == INFINITE_FOCUS


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
    kernel = defocus_psf(_cfg(m=1, n=1, pitch_x_mm=1.0, pitch_y_mm=1.0), z_local_mm=300.0,
                         z_i_mm=math.inf, sample_pitch_mm=0.05)
    assert kernel.samples.sum() == pytest.approx(1.0, rel=1e-9)


def test_config_digest_distinguishes_configs():
    assert _cfg().digest() != _cfg(gap_mm=51.0).digest()
    assert _cfg().digest() == _cfg().digest()


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
