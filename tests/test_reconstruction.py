"""Tests for back-projection, the defocus PSF and diffraction-mode blur."""

import gc
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve as scipy_fftconvolve
from scipy.special import j1

from tiltview.optics import (
    OpticalSystemConfig,
    PlaneGrid,
    ScalarField2D,
    TiltedPlaneSpec,
    tilted_to_global,
)
from tiltview import optics, reconstruction
from tiltview.reconstruction import (
    ElementalImageSet,
    OutOfHalfSpaceError,
    PSFKernel,
    _antialiased_pupil,
    _strip_weights,
    apply_diffraction,
    backproject_geometric,
    defocus_psf,
    reconstruct,
)
from tiltview.scene import Scene, PointEmitter, capture, point_source_scene


def small_config(**kw):
    base = dict(m=4, n=4, pitch_x_mm=10.0, pitch_y_mm=10.0, gap_mm=50.0,
                focal_length_mm=35.0)
    base.update(kw)
    return OpticalSystemConfig(**base)


def plane_at(D, tx=0.0, ty=0.0, hw=5.0, pitch=0.1):
    return TiltedPlaneSpec(tx, ty, D, PlaneGrid(hw, hw, pitch))


# ---------------------------------------------------------------------------
# magnification: the back-projection's M = z / g, with z from tilted_to_global


def magnification(x_t, y_t, plane, g_mm):
    return tilted_to_global(x_t, y_t, plane)[2] / g_mm


def test_magnification_normal_view():
    assert magnification(0.0, 0.0, plane_at(100.0), 50.0) == pytest.approx(2.0, rel=1e-12)


def test_magnification_tilted_point():
    M = magnification(20.0, 0.0, plane_at(100.0, tx=30.0), 50.0)
    assert M == pytest.approx(2.2, rel=1e-12)


@given(
    tx=st.floats(min_value=-45.0, max_value=45.0),
    ty=st.floats(min_value=-45.0, max_value=45.0),
)
def test_magnification_origin_is_axial(tx, ty):
    assert magnification(0.0, 0.0, plane_at(100.0, tx=tx, ty=ty), 50.0) == pytest.approx(
        2.0, rel=1e-12
    )


def test_magnification_behind_array_rejected():
    with pytest.raises(OutOfHalfSpaceError):
        magnification(-300.0, 0.0, plane_at(100.0, tx=30.0), 50.0)
    # the check lives in tilted_to_global, the one depth expression
    assert OutOfHalfSpaceError is optics.OutOfHalfSpaceError
    with pytest.raises(OutOfHalfSpaceError):
        optics.tilted_to_global(-300.0, 0.0, plane_at(100.0, tx=30.0))


# ---------------------------------------------------------------------------
# ElementalImageSet


def test_elemental_set_validation():
    cfg = small_config()
    with pytest.raises(ValueError):
        ElementalImageSet(np.zeros((3, 4, 8, 8)), 0.1, cfg)
    with pytest.raises(ValueError):
        ElementalImageSet(-np.ones((4, 4, 8, 8)), 0.1, cfg)
    with pytest.raises(ValueError):
        # 8 pixels * 2 mm = 16 mm exceeds the 10 mm pitch
        ElementalImageSet(np.zeros((4, 4, 8, 8)), 2.0, cfg)


def test_elemental_sample_at_pixel_centers():
    cfg = small_config()
    rng = np.random.default_rng(7)
    images = rng.random((4, 4, 8, 8))
    eis = ElementalImageSet(images, 0.5, cfg)
    cx, cy = cfg.lenslet_center(1, 2)
    # pixel (row 3, col 5) center in global display coordinates
    u = cx + (5 - 3.5) * 0.5
    v = cy + (3.5 - 3) * 0.5
    assert eis.sample(1, 2, u, v) == pytest.approx(images[1, 2, 3, 5], rel=1e-12)


def test_elemental_sample_outside_is_zero():
    cfg = small_config()
    eis = ElementalImageSet(np.ones((4, 4, 8, 8)), 0.5, cfg)
    cx, cy = cfg.lenslet_center(0, 0)
    assert eis.sample(0, 0, cx + 7.0, cy) == 0.0


# ---------------------------------------------------------------------------
# geometric back-projection


def test_tilted_zero_matches_normal_path():
    # reference: the normal-view per-lenslet loop, one magnification M = D/g
    cfg = small_config()
    eis = capture(point_source_scene(200.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    plane = plane_at(200.0, hw=3.0, pitch=0.05)
    X, Y = np.meshgrid(plane.grid.xs(), plane.grid.ys(), indexing="ij")
    M = 200.0 / cfg.gap_mm
    normal = np.zeros_like(X)
    for p in range(cfg.m):
        for q in range(cfg.n):
            cx, cy = cfg.lenslet_center(p, q)
            vals = eis.sample(p, q, cx - (X - cx) / M, cy - (Y - cy) / M)
            normal += vals / ((200.0 + cfg.gap_mm) ** 2
                              + ((X - cx) ** 2 + (Y - cy) ** 2) * (1.0 + 1.0 / M) ** 2)
    assert np.any(normal)
    tilted = backproject_geometric(eis, plane)
    np.testing.assert_allclose(tilted.field.values, normal, rtol=1e-12)


def test_point_source_recovered_at_origin():
    # grid pitch comparable to the back-projected pixel footprint (M * 0.15)
    cfg = small_config()
    eis = capture(point_source_scene(200.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    plane = plane_at(200.0, hw=3.0, pitch=0.15)
    rec = backproject_geometric(eis, plane)
    i, j = np.unravel_index(np.argmax(rec.field.values), rec.field.values.shape)
    assert abs(rec.field.xs[i]) <= plane.grid.sample_pitch_mm
    assert abs(rec.field.ys[j]) <= plane.grid.sample_pitch_mm


def test_off_axis_point_recovered():
    cfg = small_config()
    scene = Scene(points=[PointEmitter(4.0, -2.0, 150.0)])
    eis = capture(scene, cfg, 64, 64, pixel_pitch_mm=0.15)
    plane = plane_at(150.0, hw=8.0, pitch=0.15)
    rec = backproject_geometric(eis, plane)
    i, j = np.unravel_index(np.argmax(rec.field.values), rec.field.values.shape)
    assert rec.field.xs[i] == pytest.approx(4.0, abs=plane.grid.sample_pitch_mm)
    assert rec.field.ys[j] == pytest.approx(-2.0, abs=plane.grid.sample_pitch_mm)


def test_empty_overlap_warns_and_zeroes():
    cfg = small_config()
    images = np.zeros((4, 4, 8, 8))
    eis = ElementalImageSet(images, 0.5, cfg)
    with pytest.warns(UserWarning, match="no elemental image"):
        rec = backproject_geometric(eis, plane_at(200.0, hw=2.0, pitch=0.1))
    assert not np.any(rec.field.values)


def test_plane_behind_array_rejected():
    cfg = small_config()
    eis = ElementalImageSet(np.ones((4, 4, 8, 8)), 0.5, cfg)
    # a steep tilt drives part of the grid to z <= 0
    plane = TiltedPlaneSpec(80.0, 0.0, 10.0, PlaneGrid(30.0, 30.0, 1.0))
    with pytest.raises(OutOfHalfSpaceError):
        backproject_geometric(eis, plane)


def _per_lenslet_loop(eis, plane):
    """Reference back-projection: one eis.sample per lenslet over the whole
    grid, summed in lexicographic (p, q) order, with no lenslet skipped.
    Also returns the number of lenslets that add anything."""
    cfg = eis.capture_config
    X, Y = np.meshgrid(plane.grid.xs(), plane.grid.ys(), indexing="ij")
    depth = (plane.axial_offset_mm + X * math.sin(plane.theta_x_rad)
             + Y * math.sin(plane.theta_y_rad))
    M = depth / cfg.gap_mm
    gx, gy = X * math.cos(plane.theta_x_rad), Y * math.cos(plane.theta_y_rad)
    expected = np.zeros_like(X)
    reached = 0
    for p in range(cfg.m):
        for q in range(cfg.n):
            cx, cy = cfg.lenslet_center(p, q)
            vals = eis.sample(p, q, cx - (gx - cx) / M, cy - (gy - cy) / M)
            expected += vals / ((depth + cfg.gap_mm) ** 2
                                + ((gx - cx) ** 2 + (gy - cy) ** 2) * (1.0 + 1.0 / M) ** 2)
            reached += bool(np.any(vals))
    return expected, reached


def test_backprojection_matches_per_lenslet_loop():
    # m != n so that a swapped lenslet axis cannot pass
    cfg = small_config(m=3, n=5)
    eis = capture(point_source_scene(200.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    plane = plane_at(200.0, tx=12.0, ty=-7.0, hw=3.0, pitch=0.1)
    expected, _ = _per_lenslet_loop(eis, plane)
    assert np.any(expected)
    rec = reconstruct(eis, plane, mode="geometric")
    np.testing.assert_array_equal(rec.field.values, expected)


@given(
    m=st.integers(1, 8), n=st.integers(1, 8), pixels=st.integers(1, 24),
    fill=st.floats(0.05, 1.0), hw=st.floats(0.5, 40.0), steps=st.integers(1, 20),
    D=st.floats(60.0, 600.0), tx=st.floats(-45.0, 45.0), ty=st.floats(-45.0, 45.0),
    seed=st.integers(0, 2**16),
)
# none reaches: one lenslet at (-5, -5) mm, a 0.5 mm image, a 1 mm plane
@example(m=1, n=1, pixels=4, fill=0.05, hw=0.5, steps=4, D=60.0, tx=0.0, ty=0.0, seed=0)
# part reaches: the row at x = -25 mm and the column at y = -20 mm miss the
# 10 mm plane at 100 mm
@example(m=5, n=4, pixels=16, fill=1.0, hw=5.0, steps=10, D=100.0, tx=0.0, ty=0.0, seed=1)
@settings(max_examples=80, deadline=None)
def test_backprojection_bound_matches_per_lenslet_loop(m, n, pixels, fill, hw, steps, D,
                                                        tx, ty, seed):
    # every elemental pixel is positive, so a lenslet the bound wrongly
    # skipped would leave its nonzero part out of the field
    cfg = small_config(m=m, n=n)
    rng = np.random.default_rng(seed)
    eis = ElementalImageSet(rng.random((m, n, pixels, pixels)) + 0.5,
                            fill * cfg.pitch_x_mm / pixels, cfg)
    plane = plane_at(D, tx=tx, ty=ty, hw=hw, pitch=hw / steps)
    expected, reached = _per_lenslet_loop(eis, plane)
    event("lenslets reaching the plane: "
          + ("none" if not reached else "all" if reached == m * n else "part"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = backproject_geometric(eis, plane)
    np.testing.assert_array_equal(rec.field.values, expected)
    warned = any("no elemental image" in str(w.message) for w in caught)
    assert warned == (not np.any(expected))


def test_backprojection_bound_examples_cover_none_and_part():
    # the two explicit draws of the property above do what their comments say
    cfg = small_config(m=1, n=1)
    eis = ElementalImageSet(np.ones((1, 1, 4, 4)), 0.05 * 10.0 / 4, cfg)
    assert _per_lenslet_loop(eis, plane_at(60.0, hw=0.5, pitch=0.125))[1] == 0
    cfg = small_config(m=5, n=4)
    eis = ElementalImageSet(np.ones((5, 4, 16, 16)), 10.0 / 16, cfg)
    assert 0 < _per_lenslet_loop(eis, plane_at(100.0, hw=5.0, pitch=0.5))[1] < 20


def sweep_elemental_set(seed=5):
    """The sweep geometry (16 x 16 lenslets, 128^2 px of 10/128 mm) with
    random positive images, so that every lenslet that reaches a sample adds
    to it."""
    cfg = small_config(m=16, n=16)
    images = np.random.default_rng(seed).random((16, 16, 128, 128)) + 0.5
    return ElementalImageSet(images, 10.0 / 128, cfg)


@pytest.mark.parametrize("tx, ty, D", [(0.0, 0.0, 300.0), (17.0, -23.0, 300.0),
                                       (-20.0, 0.0, 300.0), (45.0, 0.0, 360.0)])
def test_backprojection_on_sweep_geometry_matches_per_lenslet_loop(tx, ty, D):
    eis = sweep_elemental_set()
    plane = TiltedPlaneSpec(tx, ty, D, PlaneGrid(12.0, 12.0, 0.25))
    rec = backproject_geometric(eis, plane)
    np.testing.assert_array_equal(rec.field.values, _per_lenslet_loop(eis, plane)[0])


def test_backprojection_logs_lenslets_reached(caplog):
    eis = sweep_elemental_set()
    plane = TiltedPlaneSpec(10.0, 0.0, 300.0, PlaneGrid(12.0, 12.0, 0.25))
    with caplog.at_level(logging.DEBUG, logger="tiltview.reconstruction"):
        backproject_geometric(eis, plane)
    assert "81 of 256 lenslets reach the plane" in caplog.text


# ---------------------------------------------------------------------------
# defocus PSF


def _fft_psf(cfg, z, z_i, size, du, pitch, taps):
    """Oracle: the FFT of the phased pupil on a size x size grid of pitch du,
    area-integrated onto taps x taps pixels of the given pitch.

    Each FFT sample stands for a cell of pitch lambda z / (size du); a pixel
    takes each cell's share by overlap length along x and along y.
    """
    k = 2.0 * math.pi / cfg.wavelength_mm
    c = (np.arange(size) - size / 2) * du
    U, V = np.meshgrid(c, c, indexing="ij")
    pupil = _antialiased_pupil(U, V, cfg.pitch_x_mm, cfg.pitch_y_mm, du, cfg.aperture_shape)
    phased = pupil * np.exp(0.5j * k * (1.0 / z - 1.0 / z_i) * (U**2 + V**2))
    fine = np.abs(np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(phased)))) ** 2
    d = cfg.wavelength_mm * z / (size * du)
    cell = (np.arange(size) - size / 2 - 0.5) * d
    pixel = (np.arange(taps) - taps // 2 - 0.5) * pitch
    overlap = np.clip(np.minimum(pixel[:, None] + pitch, cell + d)
                      - np.maximum(pixel[:, None], cell), 0.0, None) / d
    out = overlap @ fine @ overlap.T
    return out / out.sum()


def test_psf_kernel_invariants_enforced():
    with pytest.raises(ValueError):
        PSFKernel(np.ones((3, 3)), 0.1, 100.0, 1, 64, 1.0)  # sum != 1
    with pytest.raises(ValueError):
        PSFKernel(-np.eye(3) + np.full((3, 3), 1.0 / 6.0), 0.1, 100.0, 1, 64, 1.0)
    with pytest.raises(ValueError, match="window energy"):
        PSFKernel(np.ones((3, 3)) / 9.0, 0.1, 100.0, 1, 64, 1.5)


def test_defocus_psf_unit_sum_and_support():
    cfg = small_config()
    psf = defocus_psf(cfg, 360.0, 360.0, 0.01)
    assert psf.samples.sum() == pytest.approx(1.0, abs=1e-9)
    # in focus the window is 15 Airy radii; S is the Nyquist count of the
    # intensity's highest frequency a / (lambda z), plus two
    lz = cfg.wavelength_mm * 360.0
    assert psf.taps == 2 * math.ceil(15 * 1.22 * lz / 10.0 / 0.01) + 1
    assert psf.samples.shape == (psf.taps, psf.taps)
    assert psf.subpixels == math.ceil(0.01 * 2 * 10.0 / lz) + 2
    assert psf.pupil_samples >= 256
    assert np.unravel_index(np.argmax(psf.samples), psf.samples.shape) == (psf.taps // 2,) * 2
    cropped = defocus_psf(cfg, 360.0, 360.0, 0.01, max_half_width_mm=0.1)
    assert cropped.taps == 21


def test_airy_first_zero():
    cfg = small_config()
    psf = defocus_psf(cfg, 360.0, 360.0, 0.001)
    n = psf.taps
    profile = psf.samples[n // 2, n // 2:]
    # first local minimum along the radius, refined parabolically
    k = 1
    while profile[k] <= profile[k - 1]:
        k += 1
    k -= 1
    y0, y1, y2 = profile[k - 1], profile[k], profile[k + 1]
    frac = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    r_zero = (k + frac) * psf.sample_pitch_mm
    expected = 1.22 * cfg.wavelength_mm * 360.0 / cfg.pitch_x_mm
    assert r_zero == pytest.approx(expected, rel=0.05)


def test_in_focus_psf_is_pixel_integrated_airy():
    # pixels narrower than the Airy disk: the kernel must be the area
    # integral of [2 J1(v) / v]^2, here by a 16 x 16 midpoint sum per pixel
    # (Nyquist midpoint sub-pixels would be off by ~3e-2)
    cfg = small_config()
    psf = defocus_psf(cfg, 360.0, 360.0, 0.01)
    fine = 16
    c = ((np.arange(psf.taps * fine) + 0.5) / fine - psf.taps / 2) * psf.sample_pitch_mm
    X, Y = np.meshgrid(c, c, indexing="ij")
    v = math.pi * cfg.pitch_x_mm * np.hypot(X, Y) / (cfg.wavelength_mm * 360.0)
    airy = (2.0 * j1(v) / v) ** 2  # the grid has no point at v = 0
    oracle = airy.reshape(psf.taps, fine, psf.taps, fine).sum(axis=(1, 3))
    assert np.abs(psf.samples - oracle / oracle.sum()).sum() <= 1e-3


def test_zero_defocus_psf_radially_symmetric():
    cfg = small_config()
    v = defocus_psf(cfg, 360.0, 360.0, 0.01).samples
    np.testing.assert_allclose(v, v.T, atol=1e-6 * v.max())
    np.testing.assert_allclose(v, v[::-1, ::-1], atol=1e-6 * v.max())


def test_defocus_width_monotone():
    cfg = small_config(pitch_x_mm=2.0, pitch_y_mm=2.0)
    z_i = 360.0

    def width(z):
        psf = defocus_psf(cfg, z, z_i, 0.02)
        c = (np.arange(psf.taps) - psf.taps // 2) * psf.sample_pitch_mm
        X, Y = np.meshgrid(c, c, indexing="ij")
        return math.sqrt(float((psf.samples * (X**2 + Y**2)).sum()))

    widths = [width(z) for z in (360.0, 400.0, 460.0, 560.0)]
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_defocus_psf_parameter_validation():
    cfg = small_config()
    with pytest.raises(ValueError):
        defocus_psf(cfg, -5.0, 360.0, 0.01)
    with pytest.raises(ValueError):
        defocus_psf(cfg, 360.0, 360.0, 0.0)
    with pytest.raises(ValueError):
        defocus_psf(cfg, 360.0, 360.0, -0.01)


def test_defocus_window_energy_guard(monkeypatch):
    # a pupil that alternates sign per sample sends its energy half an alias
    # period away, outside any window the closed forms choose
    def checkerboard(U, V, *args):
        i, j = np.indices(U.shape)
        return (-1.0) ** (i + j) * (np.abs(U) < 4.0) * (np.abs(V) < 4.0)

    monkeypatch.setattr(reconstruction, "_antialiased_pupil", checkerboard)
    with pytest.raises(ValueError, match="window holds"):
        defocus_psf(small_config(), 360.0, 360.0, 0.01)


def test_defocus_psf_matches_fft_oracle_far_from_focus():
    # the 300 mm sweep depth on the 0.25 mm reconstruction grid
    cfg = small_config()
    psf = defocus_psf(cfg, 300.0, 360.0, 0.25)
    oracle = _fft_psf(cfg, 300.0, 360.0, 2048, 10.0 / 1024, 0.25, psf.taps)
    assert np.abs(psf.samples - oracle).sum() <= 2e-3


@pytest.mark.parametrize("z", [351.0, 360.0, 369.0])
def test_defocus_psf_matches_fft_oracle_near_focus(z):
    # the strip depths of a 45 degree plane through the 360 mm focus
    cfg = small_config()
    psf = defocus_psf(cfg, z, 360.0, 0.25)
    oracle = _fft_psf(cfg, z, 360.0, 1024, 10.0 / 512, 0.25, psf.taps)
    assert np.abs(psf.samples - oracle).sum() <= 5e-3


def test_defocus_psf_tends_to_geometric_disk():
    # far from focus the PSF is the uniform disk of radius R = a/2 |1 - z/z_i|,
    # whose radial second moment is R^2 / 2
    cfg = small_config(pitch_x_mm=2.0, pitch_y_mm=2.0)
    z_i = cfg.image_distance_mm()
    for z in (1000.0, 2000.0):
        psf = defocus_psf(cfg, z, z_i, 0.2)
        c = (np.arange(psf.taps) - psf.taps // 2) * psf.sample_pitch_mm
        X, Y = np.meshgrid(c, c, indexing="ij")
        R = 1.0 * abs(1.0 - z / z_i)
        assert float((psf.samples * (X**2 + Y**2)).sum()) == pytest.approx(R * R / 2, rel=0.02)


def test_defocus_window_holds_energy_300_to_2000mm():
    cfg = small_config(m=16, n=16)
    for z in (300.0, 360.0, 700.0, 1200.0, 2000.0):
        assert defocus_psf(cfg, z, 360.0, 0.25).window_energy >= 0.99


def test_defocus_psf_leaves_no_reference_cycle():
    # every array of a PSF build must be freed without the cyclic collector
    cfg = small_config()
    gc.collect()
    gc.disable()
    try:
        psf = defocus_psf(cfg, 300.0, 360.0, 0.25)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert psf.taps == 11
    assert unreachable == 0


# ---------------------------------------------------------------------------
# spatially varying convolution


def _delta_field(hw=2.0, pitch=0.05):
    grid = PlaneGrid(hw, hw, pitch)
    xs, ys = grid.xs(), grid.ys()
    values = np.zeros((len(xs), len(ys)))
    values[len(xs) // 2, len(ys) // 2] = 1.0
    return ScalarField2D(values, xs, ys, pitch)


def test_delta_field_blurs_to_psf():
    cfg = small_config()
    field = _delta_field(hw=1.0, pitch=0.01)
    plane = plane_at(360.0, hw=1.0, pitch=0.01)
    out = apply_diffraction(field, plane, cfg, 360.0)
    # the zero-defocus PSF on the same grid, cropped to the field as apply_diffraction crops
    half_span = float(field.xs[-1] - field.xs[0]) / 2.0 + field.sample_pitch_mm
    kern = defocus_psf(cfg, 360.0, 360.0, 0.01, max_half_width_mm=half_span).samples
    center = out.values[out.values.shape[0] // 2, out.values.shape[1] // 2]
    k_center = kern[kern.shape[0] // 2, kern.shape[1] // 2]
    assert center == pytest.approx(k_center, rel=1e-6)
    assert out.values.sum() == pytest.approx(field.values.sum(), rel=0.01)


def test_untilted_plane_uses_single_strip():
    cfg = small_config()
    field = _delta_field(hw=1.0, pitch=0.01)
    plane = plane_at(360.0, hw=1.0, pitch=0.01)
    # explicit strip width narrower than the field must still give one strip
    a = apply_diffraction(field, plane, cfg, 360.0)
    b = apply_diffraction(field, plane, cfg, 360.0, strip_width_mm=0.5)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-9, atol=1e-20)


@pytest.mark.parametrize("width", [0.3, 1.0, 2.5])
def test_strip_weights_partition_unity(width):
    # the blend weights alone; test_impulse_diffraction_equals_geometric runs them
    # through apply_diffraction
    plane = plane_at(300.0, tx=17.0, ty=-23.0, hw=12.0, pitch=0.25)
    X, Y = np.meshgrid(plane.grid.xs(), plane.grid.ys(), indexing="ij")
    t = X * math.sin(plane.theta_x_rad) + Y * math.sin(plane.theta_y_rad)
    strips = _strip_weights(t, width)
    assert len(strips) > 1
    assert all(np.all(w >= 0.0) for _, w in strips)
    np.testing.assert_allclose(sum(w for _, w in strips), 1.0, rtol=0.0, atol=1e-12)


def test_constant_field_stays_constant_through_strips():
    # the sweep system with its 360 mm beam focus, on a plane whose depth
    # varies along both axes: the kernel reaches ~5 px, so at 10 px from the
    # border only the strip blend can move a constant field (2.6e-4 here,
    # from the kinks of the triangular weights)
    cfg = small_config(m=16, n=16)
    plane = plane_at(300.0, tx=17.0, ty=-23.0, hw=12.0, pitch=0.25)
    xs, ys = plane.grid.xs(), plane.grid.ys()
    field = ScalarField2D(np.ones((xs.size, ys.size)), xs, ys, 0.25)
    out = apply_diffraction(field, plane, cfg, 360.0).values
    assert np.abs(out[10:-10, 10:-10] - 1.0).max() <= 1e-3


@pytest.mark.parametrize("shape", [(96, 96), (40, 70)])
@pytest.mark.parametrize("taps", [1, 5, 11, 99])
def test_fftconvolve_matches_scipy_same(shape, taps):
    # 99 taps is wider than either field's short axis
    rng = np.random.default_rng(taps)
    field = rng.random(shape)
    kernel = rng.random((taps, taps))
    ours = reconstruction.fftconvolve(field, kernel)
    ref = scipy_fftconvolve(field, kernel, mode="same")
    assert ours.shape == shape
    assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


def test_strip_width_validated():
    cfg = small_config()
    field = _delta_field(hw=1.0, pitch=0.01)
    plane = plane_at(360.0, tx=10.0, hw=1.0, pitch=0.01)
    with pytest.raises(ValueError):
        apply_diffraction(field, plane, cfg, 360.0, strip_width_mm=0.001)


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_mode_validation():
    cfg = small_config()
    eis = ElementalImageSet(np.ones((4, 4, 8, 8)), 0.5, cfg)
    with pytest.raises(ValueError):
        reconstruct(eis, plane_at(200.0), mode="fancy")


def test_impulse_diffraction_equals_geometric(monkeypatch):
    # With a 1x1 unit kernel in place of the defocus PSF, the strip blend and
    # the FFT convolution still run and must give back the geometric field.
    # FFT round-off is absolute, so the bound is relative to the field maximum.
    depths = []

    def unit_psf(cfg, z_local_mm, z_i_mm, sample_pitch_mm, max_half_width_mm):
        depths.append(z_local_mm)
        return PSFKernel(samples=np.ones((1, 1)), sample_pitch_mm=sample_pitch_mm,
                         defocus_distance_mm=z_local_mm, subpixels=1, pupil_samples=1,
                         window_energy=1.0)

    monkeypatch.setattr(reconstruction, "defocus_psf", unit_psf)
    cfg = small_config()
    eis = capture(point_source_scene(300.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    plane = plane_at(300.0, tx=17.0, ty=-23.0, hw=12.0, pitch=0.25)
    geo = reconstruct(eis, plane, mode="geometric")
    imp = reconstruct(eis, plane, mode="diffraction", strip_width_mm=1.0)
    assert len(depths) == 18
    peak = geo.field.values.max()
    assert peak > 0
    assert np.abs(imp.field.values - geo.field.values).max() <= 1e-12 * peak
    assert geo.mode == "geometric" and imp.mode == "diffraction"


def test_diffraction_conserves_energy():
    cfg = small_config()
    eis = capture(point_source_scene(360.0), cfg, 200, 200, pixel_pitch_mm=0.05)
    plane = plane_at(360.0, hw=1.5, pitch=0.01)
    geo = reconstruct(eis, plane, mode="geometric")
    dif = reconstruct(eis, plane, mode="diffraction", z_i_override_mm=360.0)
    assert dif.field.values.sum() == pytest.approx(geo.field.values.sum(), rel=0.01)


def test_diffraction_widens_point_image():
    from tiltview.resolution import radial_extent

    cfg = small_config()
    eis = capture(point_source_scene(360.0), cfg, 200, 200, pixel_pitch_mm=0.05)
    plane = plane_at(360.0, hw=1.5, pitch=0.01)
    geo = reconstruct(eis, plane, mode="geometric")
    dif = reconstruct(eis, plane, mode="diffraction", z_i_override_mm=360.0)
    assert radial_extent(dif.field) > radial_extent(geo.field)
