"""Tests for back-projection, the defocus PSF and diffraction-mode blur."""

import gc
import logging
import math
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve as scipy_fftconvolve
from scipy.special import j1

from tiltview.optics import (
    OpticalSystemConfig,
    OutOfHalfSpaceError,
    PlaneGrid,
    ScalarField2D,
    TiltedPlaneSpec,
    tilted_to_global,
)
from tiltview import optics, reconstruction
from tiltview.manifest import load_elemental_set, save_elemental_set
from tiltview.reconstruction import (
    _BORDER,
    ElementalImageSet,
    PSFKernel,
    _antialiased_pupil,
    _strip_weights,
    apply_diffraction,
    backproject_geometric,
    corner,
    gather,
    into_window,
    psf_builder,
    reconstruct,
)
from tiltview.scene import Scene, PointEmitter, TexturedPlane, capture, point_source_scene

from elemental_sets import dense, elemental_set


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
    with pytest.raises(OutOfHalfSpaceError):
        optics.tilted_to_global(-300.0, 0.0, plane_at(100.0, tx=30.0))


# ---------------------------------------------------------------------------
# ElementalImageSet


def test_elemental_set_validation():
    cfg = small_config()
    with pytest.raises(ValueError, match="is not a"):
        ElementalImageSet({(4, 0): np.zeros((8, 8))}, 8, 8, 0.1, cfg)  # past the 4 x 4 array
    with pytest.raises(ValueError, match="has shape"):
        ElementalImageSet({(0, 0): np.zeros((8, 7))}, 8, 8, 0.1, cfg)
    with pytest.raises(ValueError, match="row_spans"):
        ElementalImageSet({}, 8, 8, 0.1, cfg, row_spans=np.tile([0, 9], (4, 1)))
    with pytest.raises(ValueError, match="col_spans"):
        ElementalImageSet({}, 8, 8, 0.1, cfg, col_spans=np.tile([3, 2], (4, 1)))
    with pytest.raises(ValueError):
        elemental_set(-np.ones((4, 4, 8, 8)), 0.1, cfg)
    with pytest.raises(ValueError):
        # 8 pixels * 2 mm = 16 mm exceeds the 10 mm pitch
        elemental_set(np.zeros((4, 4, 8, 8)), 2.0, cfg)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-300])
def test_elemental_set_rejects_nonfinite_or_negative_intensity(value):
    images = np.ones((4, 4, 8, 8))
    images[2, 1, 5, 3] = value
    with pytest.raises(ValueError, match="finite and nonnegative"):
        elemental_set(images, 0.1, small_config())


@pytest.mark.parametrize("pitch", [math.nan, math.inf, 0.0, -0.1])
def test_elemental_set_rejects_nonfinite_or_nonpositive_pitch(pitch):
    with pytest.raises(ValueError, match="pixel pitch must be positive and finite"):
        elemental_set(np.ones((4, 4, 8, 8)), pitch, small_config())


def test_elemental_set_keeps_codes_and_holds_other_input_as_float():
    cfg = small_config()
    codes = np.full((8, 8), 65535, dtype=np.uint16)
    assert ElementalImageSet({(1, 2): codes}, 8, 8, 0.1, cfg).blocks[1, 2] is codes
    ints = np.ones((8, 8), dtype=np.int32)
    assert ElementalImageSet({(1, 2): ints}, 8, 8, 0.1, cfg).blocks[1, 2].dtype == np.float64


def test_elemental_sample_at_pixel_centers():
    cfg = small_config()
    rng = np.random.default_rng(7)
    images = rng.random((4, 4, 8, 8))
    eis = elemental_set(images, 0.5, cfg)
    # pixel (row 3, col 5) center, as an offset from the image centre
    du, dv = (5 - 3.5) * 0.5, (3.5 - 3) * 0.5
    # image (1, 2) of the stack of lenslet rows and columns 0..2
    assert sample(eis, whole_stack(eis, 3, 3), 1, 2, du, dv)[0] == pytest.approx(
        images[1, 2, 3, 5], rel=1e-12)


def test_elemental_sample_outside_is_zero():
    cfg = small_config()
    eis = elemental_set(np.ones((4, 4, 8, 8)), 0.5, cfg)
    assert sample(eis, whole_stack(eis, 1, 1), 0, 0, 7.0, 0.0)[0] == 0.0


def whole_stack(eis, rows, cols):
    """The ``padded`` stack of lenslet rows 0..rows - 1 and columns
    0..cols - 1 of a set, each crop its whole window."""
    return eis.padded(np.arange(rows), np.arange(cols), eis.row_spans[:cols],
                      eis.col_spans[:rows])


def sample(eis, stack, i, j, du, dv, starts=(0, 0)):
    """``gather`` of image (i, j) of a ``padded`` stack of the set's images
    at display offsets (du, dv) from the image centre, as the
    back-projection samples it: the corners of each axis from ``corner``,
    moved into the crops that start at pixel rows and columns ``starts``
    (``into_window``), and the flat index of each lower corner the sum of a
    row part and a column part."""
    _, cols, height, width = stack.shape
    du, dv = np.array(du, dtype=float, ndmin=1), np.array(dv, dtype=float, ndmin=1)
    r, *row = corner(dv, eis.pixel_pitch_mm, eis.pixels_y, "row")
    c, *col = corner(du, eis.pixel_pitch_mm, eis.pixels_x, "col")
    at = ((into_window(r, starts[0], height) + _BORDER + (i * cols + j) * height) * width
          + into_window(c, starts[1], width) + _BORDER)
    out = np.empty(at.shape)
    return gather(stack.reshape(-1), width, at, row, col, out, np.empty_like(out))


def masked_sample(eis, images, p, q, u, v):
    """Reference bilinear sample of image (p, q) of the set's ``dense``
    ``images`` at global display coordinates, written out here: column 0 at
    the smallest u, row 0 at the largest v, the four corners summed in order
    and each corner outside the image masked to 0.0. An index array ``q`` broadcasts against the
    coordinates. The offsets of these tests stay within a few images, so
    the index needs no clip before its cast."""
    centers_x, centers_y = eis.capture_config.lenslet_centers()
    cx, cy = centers_x[p], centers_y[q]
    du = np.asarray(u, dtype=float) - cx
    dv = np.asarray(v, dtype=float) - cy
    rows, cols = eis.pixels_y, eis.pixels_x
    fr = (rows - 1) / 2.0 - dv / eis.pixel_pitch_mm
    fc = du / eis.pixel_pitch_mm + (cols - 1) / 2.0
    r0, c0 = np.floor(fr).astype(int), np.floor(fc).astype(int)
    wr, wc = fr - r0, fc - c0
    img = images[p].astype(float)
    out = np.zeros(np.broadcast(du, dv).shape)
    for dr, dc in ((0, 0), (0, 1), (1, 0), (1, 1)):
        r, c = r0 + dr, c0 + dc
        inside = (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
        w = (wr if dr else 1.0 - wr) * (wc if dc else 1.0 - wc)
        out += np.where(inside, w * img[q, np.clip(r, 0, rows - 1), np.clip(c, 0, cols - 1)], 0.0)
    return out


def scalar_bilinear(img, du, dv, pitch):
    """Reference bilinear sample of one image at one display offset from its
    centre, in Python floats: column 0 at the smallest u, row 0 at the
    largest v, and a corner outside the image adds nothing."""
    rows, cols = img.shape
    fr = (rows - 1) / 2.0 - dv / pitch
    fc = du / pitch + (cols - 1) / 2.0
    if not (-1.0 < fr < rows and -1.0 < fc < cols):  # no corner with weight inside
        return 0.0
    r0, c0 = math.floor(fr), math.floor(fc)
    wr, wc = fr - r0, fc - c0
    total = 0.0
    for dr, dc in ((0, 0), (0, 1), (1, 0), (1, 1)):
        if 0 <= r0 + dr < rows and 0 <= c0 + dc < cols:
            total += ((wr if dr else 1.0 - wr) * (wc if dc else 1.0 - wc)
                      * float(img[r0 + dr, c0 + dc]))
    return total


#: Offsets far outside any image; the largest finite ones leave the float
#: range when divided by a pitch below 1.
FAR_OFFSETS = [1e300, -1e300, float(np.nextafter(np.inf, 0.0)),
               -float(np.nextafter(np.inf, 0.0))]


def gather_case(rows, cols, pitch, seed, indices):
    """A 2 x 2 set of random rows x cols images and display offsets
    (du, dv) at the given fractional (row, col) indices of one image; a
    float in FAR_OFFSETS stands for itself as an offset."""
    images = np.random.default_rng(seed).random((2, 2, rows, cols)) + 0.5
    du = [fc if fc in FAR_OFFSETS else (fc - (cols - 1) / 2.0) * pitch for _, fc in indices]
    dv = [fr if fr in FAR_OFFSETS else ((rows - 1) / 2.0 - fr) * pitch for fr, _ in indices]
    return images, pitch, np.array(du), np.array(dv)


@st.composite
def gather_cases(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def index(size):
        return st.one_of(st.sampled_from([-2.0, size + 1.0, *FAR_OFFSETS]),
                         st.floats(-4.0, size + 3.0))

    indices = draw(st.lists(st.tuples(index(rows), index(cols)), min_size=1, max_size=12))
    # a power-of-two pitch puts an index exactly on the clip bounds -2 and size + 1
    pitch = draw(st.one_of(st.sampled_from([0.25, 1.0, 4.0]), st.floats(0.01, 10.0)))
    return gather_case(rows, cols, pitch, draw(st.integers(0, 2**16)), indices)


@given(case=gather_cases(), p=st.integers(0, 1), q=st.integers(0, 1))
@example(case=gather_case(1, 1, 0.25, 0, [(0.0, 0.0), (-2.0, -2.0), (2.0, 2.0), (0.5, -0.5),
                                          (1e300, 0.0), (0.0, -1e300)]), p=1, q=0)
@example(case=gather_case(1, 5, 1.0, 1, [(0.0, -2.0), (0.0, 6.0), (-2.0, 3.5), (2.0, 0.25),
                                         (0.25, 4.0), (-1.0, 1.0)]), p=0, q=1)
@settings(max_examples=150, deadline=None)
def test_padded_gather_matches_masked_scalar_reference(case, p, q):
    images, pitch, du, dv = case
    rows, cols = images.shape[2:]
    cfg = small_config(m=2, n=2, pitch_x_mm=cols * pitch, pitch_y_mm=rows * pitch)
    eis = elemental_set(images, pitch, cfg)
    values = sample(eis, whole_stack(eis, 2, 2), p, q, du, dv)
    expected = [scalar_bilinear(images[p, q], u, v, pitch)
                for u, v in zip(du.tolist(), dv.tolist())]
    np.testing.assert_array_equal(values, expected)


# ---------------------------------------------------------------------------
# geometric back-projection


def test_tilted_zero_matches_normal_path():
    # reference: the normal-view per-lenslet loop, one magnification M = D/g
    cfg = small_config()
    eis = capture(point_source_scene(200.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    plane = plane_at(200.0, hw=3.0, pitch=0.05)
    X, Y = np.meshgrid(plane.grid.xs(), plane.grid.ys(), indexing="ij")
    M = 200.0 / cfg.gap_mm
    normal, images = np.zeros_like(X), dense(eis)
    centers_x, centers_y = cfg.lenslet_centers()
    for p in range(cfg.m):
        for q in range(cfg.n):
            cx, cy = centers_x[p], centers_y[q]
            vals = masked_sample(eis, images, p, q, cx - (X - cx) / M, cy - (Y - cy) / M)
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
    eis = elemental_set(images, 0.5, cfg)
    with pytest.warns(UserWarning, match="no elemental image"):
        rec = backproject_geometric(eis, plane_at(200.0, hw=2.0, pitch=0.1))
    assert not np.any(rec.field.values)


def test_plane_behind_array_rejected():
    cfg = small_config()
    eis = elemental_set(np.ones((4, 4, 8, 8)), 0.5, cfg)
    # a steep tilt drives part of the grid to z <= 0
    plane = TiltedPlaneSpec(80.0, 0.0, 10.0, PlaneGrid(30.0, 30.0, 1.0))
    with pytest.raises(OutOfHalfSpaceError):
        backproject_geometric(eis, plane)


def _per_lenslet_loop(eis, plane):
    """Reference back-projection: one masked_sample per lenslet over the whole
    grid, summed in lexicographic (p, q) order, with no lenslet skipped.
    Also returns the number of lenslets that add anything."""
    cfg = eis.capture_config
    X, Y = np.meshgrid(plane.grid.xs(), plane.grid.ys(), indexing="ij")
    depth = (plane.axial_offset_mm + X * math.sin(plane.theta_x_rad)
             + Y * math.sin(plane.theta_y_rad))
    M = depth / cfg.gap_mm
    gx, gy = X * math.cos(plane.theta_x_rad), Y * math.cos(plane.theta_y_rad)
    expected, images = np.zeros_like(X), dense(eis)
    reached = 0
    centers_x, centers_y = cfg.lenslet_centers()
    for p in range(cfg.m):
        for q in range(cfg.n):
            cx, cy = centers_x[p], centers_y[q]
            vals = masked_sample(eis, images, p, q, cx - (gx - cx) / M, cy - (gy - cy) / M)
            expected += vals / ((depth + cfg.gap_mm) ** 2
                                + ((gx - cx) ** 2 + (gy - cy) ** 2) * (1.0 + 1.0 / M) ** 2)
            reached += bool(np.any(vals))
    return expected, reached


def reloaded(eis):
    """The set saved as 16-bit PGMs and loaded back: its uint16 codes."""
    with tempfile.TemporaryDirectory() as tmp:
        back = load_elemental_set(save_elemental_set(eis, tmp))
    assert all(block.dtype == np.uint16 for block in back.blocks.values())
    return back


def test_backprojection_matches_per_lenslet_loop():
    # m != n so that a swapped lenslet axis cannot pass
    cfg = small_config(m=3, n=5)
    captured = capture(point_source_scene(200.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    plane = plane_at(200.0, tx=12.0, ty=-7.0, hw=3.0, pitch=0.1)
    for eis in (captured, reloaded(captured)):
        expected, _ = _per_lenslet_loop(eis, plane)
        assert np.any(expected)
        rec = reconstruct(eis, plane, mode="geometric")
        np.testing.assert_array_equal(rec.field.values, expected)


@given(
    m=st.integers(1, 8), n=st.integers(1, 8), pixels_x=st.integers(1, 24),
    pixels_y=st.integers(1, 24), aspect=st.floats(0.5, 2.0), fill=st.floats(0.05, 1.0),
    hw=st.floats(0.5, 40.0), steps=st.integers(1, 20), D=st.floats(60.0, 600.0),
    tx=st.floats(-45.0, 45.0), ty=st.floats(-45.0, 45.0), seed=st.integers(0, 2**16),
)
# none reaches: one lenslet at (-5, -5) mm, a 0.5 mm image, a 1 mm plane
@example(m=1, n=1, pixels_x=4, pixels_y=4, aspect=1.0, fill=0.05, hw=0.5, steps=4, D=60.0,
         tx=0.0, ty=0.0, seed=0)
# part reaches: the row at x = -25 mm and the column at y = -20 mm miss the
# 10 mm plane at 100 mm
@example(m=5, n=4, pixels_x=16, pixels_y=16, aspect=1.0, fill=1.0, hw=5.0, steps=10, D=100.0,
         tx=0.0, ty=0.0, seed=1)
# a gap: the column at y = 0 reaches no sample of the 3.67 mm grid, but the
# columns at y = -10 and 10 mm on either side of it do
@example(m=1, n=4, pixels_x=2, pixels_y=2, aspect=1.0, fill=0.0625, hw=11.0, steps=3, D=89.0,
         tx=0.0, ty=0.0, seed=0)
# rows and columns of different sizes and pitches, on a tilt about both axes
@example(m=3, n=5, pixels_x=9, pixels_y=20, aspect=1.5, fill=0.9, hw=6.0, steps=8, D=150.0,
         tx=20.0, ty=-10.0, seed=2)
@settings(max_examples=80, deadline=None)
def test_backprojection_bound_matches_per_lenslet_loop(m, n, pixels_x, pixels_y, aspect, fill,
                                                        hw, steps, D, tx, ty, seed):
    # every elemental pixel is positive, so a lenslet the bound wrongly
    # skipped would leave its nonzero part out of the field
    # and so is every 16-bit code of the reloaded set; the image rows and
    # columns differ in count and the lens pitches in size, so a swapped
    # axis cannot pass
    cfg = small_config(m=m, n=n, pitch_y_mm=10.0 * aspect)
    rng = np.random.default_rng(seed)
    pixel_pitch = fill * min(cfg.pitch_x_mm / pixels_x, cfg.pitch_y_mm / pixels_y)
    drawn = elemental_set(rng.random((m, n, pixels_y, pixels_x)) + 0.5, pixel_pitch, cfg)
    plane = plane_at(D, tx=tx, ty=ty, hw=hw, pitch=hw / steps)
    for eis in (drawn, reloaded(drawn)):
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
    eis = elemental_set(np.ones((1, 1, 4, 4)), 0.05 * 10.0 / 4, cfg)
    assert _per_lenslet_loop(eis, plane_at(60.0, hw=0.5, pitch=0.125))[1] == 0
    cfg = small_config(m=5, n=4)
    eis = elemental_set(np.ones((5, 4, 16, 16)), 10.0 / 16, cfg)
    assert 0 < _per_lenslet_loop(eis, plane_at(100.0, hw=5.0, pitch=0.5))[1] < 20


def sweep_elemental_set(seed=5):
    """The sweep geometry (16 x 16 lenslets, 128^2 px of 10/128 mm) with
    random positive images, so that every lenslet that reaches a sample adds
    to it."""
    cfg = small_config(m=16, n=16)
    images = np.random.default_rng(seed).random((16, 16, 128, 128)) + 0.5
    return elemental_set(images, 10.0 / 128, cfg)


@pytest.mark.parametrize("tx, ty, D", [(0.0, 0.0, 300.0), (17.0, -23.0, 300.0),
                                       (-20.0, 0.0, 300.0), (45.0, 0.0, 360.0)])
def test_backprojection_on_sweep_geometry_matches_per_lenslet_loop(tx, ty, D):
    eis = sweep_elemental_set()
    plane = TiltedPlaneSpec(tx, ty, D, PlaneGrid(12.0, 12.0, 0.25))
    rec = backproject_geometric(eis, plane)
    np.testing.assert_array_equal(rec.field.values, _per_lenslet_loop(eis, plane)[0])


def sweep_capture():
    """The textured sweep plane (30 mm wide at 300 mm) captured by the sweep
    geometry, 81 of its lenslets in windows."""
    texture = np.random.default_rng(3).random((64, 64)) + 0.1
    scene = Scene(planes=[TexturedPlane(300.0, 15.0, 15.0, texture)])
    return capture(scene, small_config(m=16, n=16), 128, 128, pixel_pitch_mm=10.0 / 128)


@pytest.mark.parametrize("mode", ["geometric", "diffraction"])
@pytest.mark.parametrize("captured, planes", [
    (sweep_capture, [(0.0, 0.0, 300.0), (10.0, 0.0, 300.0), (20.0, 0.0, 300.0),
                     (17.0, -23.0, 300.0), (45.0, 0.0, 360.0)]),
    # the point at the 360 mm focus lands in windows of 2 x 2 pixels
    (lambda: capture(point_source_scene(360.0), small_config(), 400, 400,
                     pixel_pitch_mm=0.025), [(0.0, 0.0, 360.0), (20.0, 0.0, 360.0),
                                             (40.0, -10.0, 360.0)]),
], ids=["sweep", "point"])
def test_windowed_set_reconstructs_as_whole_images(captured, planes, mode):
    eis = captured()
    whole = elemental_set(dense(eis), eis.pixel_pitch_mm, eis.capture_config)
    assert sum(block.size for block in eis.blocks.values()) < dense(eis).size / 10
    for tx, ty, D in planes:
        plane = TiltedPlaneSpec(tx, ty, D, PlaneGrid(3.0, 3.0, 0.1))
        # in focus, so each diffraction kernel is small
        windowed = reconstruct(eis, plane, mode=mode, z_i_override_mm=D)
        assert np.any(windowed.field.values)
        np.testing.assert_array_equal(
            windowed.field.values,
            reconstruct(whole, plane, mode=mode, z_i_override_mm=D).field.values)


def test_window_gather_matches_whole_image_at_window_edges():
    # a 12 x 10 image whose light lies in pixel rows 4-7 and columns 3-5. Its
    # fractional indices straddle each window edge (one corner in, one out),
    # lie inside, and lie past the window's 2-pixel zero border before and
    # after it, where into_window clips them; -2 and size + 1 are corner's own clips
    cfg = small_config(m=1, n=1, pitch_x_mm=10.0, pitch_y_mm=12.0)
    images = np.zeros((1, 1, 12, 10))
    images[0, 0, 4:8, 3:6] = np.random.default_rng(2).random((4, 3)) + 0.5
    whole = elemental_set(images, 1.0, cfg)
    windowed = elemental_set(images, 1.0, cfg, windows=True)
    assert windowed.row_spans.tolist() == [[4, 8]] and windowed.col_spans.tolist() == [[3, 6]]
    fr = np.array([-2.0, 0.5, 1.9, 3.5, 4.0, 6.25, 7.5, 9.0, 10.6, 13.0])
    fc = np.array([-2.0, 0.25, 2.5, 3.0, 4.75, 5.5, 8.1, 9.9, 11.0])
    FR, FC = np.meshgrid(fr, fc, indexing="ij")
    dv, du = (12 - 1) / 2.0 - FR, FC - (10 - 1) / 2.0
    r = corner(dv, 1.0, 12, "row")[0]
    c = corner(du, 1.0, 10, "col")[0]
    expected = sample(whole, whole_stack(whole, 1, 1), 0, 0, du, dv)
    stack = whole_stack(windowed, 1, 1)
    assert stack.shape == (1, 1, 4 + 5, 3 + 5)
    # clipped past the window on each side of each axis
    assert (r - 4 < -2).any() and (r - 4 > 4 + 1).any()
    assert (c - 3 < -2).any() and (c - 3 > 3 + 1).any()
    values = sample(windowed, stack, 0, 0, du, dv, starts=(4, 3))
    np.testing.assert_array_equal(values, expected)
    # the straddling footprints read light, and so differ from 0
    assert np.all(values[[3, 6], 3:6] > 0) and np.all(values[4:7, [2, 5]] > 0)
    plane = plane_at(60.0, hw=8.0, pitch=0.1)
    field = backproject_geometric(windowed, plane).field.values
    assert np.any(field)
    np.testing.assert_array_equal(field, backproject_geometric(whole, plane).field.values)


def spy_stacks(monkeypatch, change=None):
    """Record each stack that ``padded`` returns, with the crops it was asked
    for: (stack, row crops, column crops, row windows, column windows).
    ``change(stack, rows, cols)`` may first change the stack in place."""
    stacks, padded = [], ElementalImageSet.padded

    def spy(eis, p, q, rows, cols):
        stack = padded(eis, p, q, rows, cols)
        if change is not None:
            change(stack, rows, cols)
        stacks.append((stack, rows, cols, eis.row_spans[q], eis.col_spans[p]))
        return stack

    monkeypatch.setattr(ElementalImageSet, "padded", spy)
    return stacks


def _zero_crop_edge(edge):
    """A ``spy_stacks`` change that zeroes one edge of every nonempty crop:
    its first or last pixel row, or its first or last pixel column."""
    def change(stack, rows, cols):
        for k, (start, stop) in enumerate((rows if edge.endswith("row") else cols).tolist()):
            if stop > start:
                at = _BORDER if edge.startswith("first") else _BORDER + stop - start - 1
                if edge.endswith("row"):
                    stack[:, k, at, :] = 0
                else:
                    stack[k, :, :, at] = 0
    return change


@pytest.mark.parametrize("held", ["windowed capture", "loaded whole images"])
@pytest.mark.parametrize("tx, ty", [(20.0, 0.0), (-20.0, 0.0), (0.0, 15.0), (17.0, -23.0),
                                    (-17.0, 23.0)])
def test_crop_edges_are_read_and_match_whole_images(monkeypatch, held, tx, ty):
    # the back-projection stacks only the pixels from the lowest lower corner
    # to the highest upper one of each lenslet column and row, inside its
    # window; each edge of those crops is read, so zeroing it changes the field
    captured = sweep_capture()
    eis = captured if held == "windowed capture" else reloaded(captured)
    plane = TiltedPlaneSpec(tx, ty, 300.0, PlaneGrid(6.0, 6.0, 0.25))
    stacks = spy_stacks(monkeypatch)
    field = backproject_geometric(eis, plane).field.values
    [(stack, rows, cols, row_windows, col_windows)] = stacks
    # some crop starts after its window's start, and some ends before its stop
    for crops, windows in ((rows, row_windows), (cols, col_windows)):
        assert np.all((windows[:, 0] <= crops[:, 0]) & (crops[:, 1] <= windows[:, 1]))
        assert np.any(crops[:, 0] > windows[:, 0]) and np.any(crops[:, 1] < windows[:, 1])
    assert stack.shape[2:] == (np.ptp(rows, axis=1).max() + 5, np.ptp(cols, axis=1).max() + 5)
    whole = elemental_set(dense(eis), eis.pixel_pitch_mm, eis.capture_config)
    np.testing.assert_array_equal(field, backproject_geometric(whole, plane).field.values)
    np.testing.assert_array_equal(field, _per_lenslet_loop(eis, plane)[0])
    for edge in ("first row", "last row", "first column", "last column"):
        spy_stacks(monkeypatch, _zero_crop_edge(edge))
        changed = backproject_geometric(eis, plane).field.values
        assert not np.array_equal(changed, field), edge


def test_sweep_plane_stack_holds_only_the_pixels_it_reads(monkeypatch, caplog):
    # the 10 deg sweep plane reads ~58 of the 128 pixel rows and columns of
    # each of its 9 x 9 loaded images, which the stack held whole before
    eis = reloaded(sweep_capture())
    plane = TiltedPlaneSpec(10.0, 0.0, 300.0, PlaneGrid(12.0, 12.0, 0.25))
    stacks = spy_stacks(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="tiltview.reconstruction")
    backproject_geometric(eis, plane)
    [(stack, *_)] = stacks
    assert stack.dtype == np.uint16 and stack.shape[:2] == (9, 9)
    assert stack.size <= 9 * 9 * (58 + 5) * (58 + 5)
    assert f"a uint16 stack of {stack.shape}, {stack.nbytes} bytes" in caplog.text


def test_point_capture_and_diffraction_reconstruct_allocate_little():
    # criterion 7's 4 x 4 point capture at 2000^2 pixels holds 64 lit pixels
    # in 16 windows of 2 x 2; whole images would be 16 x 2000^2 float64
    # (488 MiB), and the reconstruct's stack of them as much again
    cfg = small_config()
    plane = TiltedPlaneSpec(0.0, 0.0, 360.0, PlaneGrid(0.3, 0.3, 0.006))
    tracemalloc.start()
    try:
        eis = capture(point_source_scene(360.0), cfg, 2000, 2000, pixel_pitch_mm=0.005)
        rec = reconstruct(eis, plane, mode="diffraction", z_i_override_mm=360.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.any(rec.field.values)
    assert len(eis.blocks) == 16
    assert all(block.shape == (2, 2) for block in eis.blocks.values())
    assert peak < 16 * 2**20


def test_backprojection_logs_lenslets_reached(caplog):
    eis = sweep_elemental_set()
    plane = TiltedPlaneSpec(10.0, 0.0, 300.0, PlaneGrid(12.0, 12.0, 0.25))
    with caplog.at_level(logging.DEBUG, logger="tiltview.reconstruction"):
        backproject_geometric(eis, plane)
    # brute force: every (lenslet, sample) pair, each inside the lenslet's
    # bound on both axes, |g - c| <= M_max ((pixels + 1)/2 + 1) pixel_pitch
    cfg = eis.capture_config
    X, Y = np.meshgrid(plane.grid.xs(), plane.grid.ys(), indexing="ij")
    gx, gy, depth = tilted_to_global(X, Y, plane)
    radius = depth.max() / cfg.gap_mm * ((128 + 1) / 2.0 + 1.0) * eis.pixel_pitch_mm
    cx, cy = cfg.lenslet_centers()
    gx, gy = gx[:, :, None, None], gy[:, :, None, None]  # axes: sample x, sample y, p, q
    in_x = (gx >= cx[:, None] - radius) & (gx <= cx[:, None] + radius)
    in_y = (gy >= cy - radius) & (gy <= cy + radius)
    pairs = int((in_x & in_y).sum())
    assert pairs == 358_800
    assert f"81 of 256 lenslets reach the plane, over {pairs} (lenslet, sample) pairs" \
        in caplog.text


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
    pupil = _antialiased_pupil(U, V, cfg.pitch_x_mm, cfg.pitch_y_mm, du)
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
    psf = psf_builder(cfg, 360.0, 0.01, math.inf)(360.0)
    assert psf.samples.sum() == pytest.approx(1.0, abs=1e-9)
    # in focus the window is 15 Airy radii; S is the Nyquist count of the
    # intensity's highest frequency a / (lambda z), plus two
    lz = cfg.wavelength_mm * 360.0
    assert psf.taps == 2 * math.ceil(15 * 1.22 * lz / 10.0 / 0.01) + 1
    assert psf.samples.shape == (psf.taps, psf.taps)
    assert psf.subpixels == math.ceil(0.01 * 2 * 10.0 / lz) + 2
    assert psf.pupil_samples >= 256
    assert np.unravel_index(np.argmax(psf.samples), psf.samples.shape) == (psf.taps // 2,) * 2
    cropped = psf_builder(cfg, 360.0, 0.01, 0.1)(360.0)
    assert cropped.taps == 21


def test_airy_first_zero():
    cfg = small_config()
    psf = psf_builder(cfg, 360.0, 0.001, math.inf)(360.0)
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
    psf = psf_builder(cfg, 360.0, 0.01, math.inf)(360.0)
    fine = 16
    c = ((np.arange(psf.taps * fine) + 0.5) / fine - psf.taps / 2) * psf.sample_pitch_mm
    X, Y = np.meshgrid(c, c, indexing="ij")
    v = math.pi * cfg.pitch_x_mm * np.hypot(X, Y) / (cfg.wavelength_mm * 360.0)
    airy = (2.0 * j1(v) / v) ** 2  # the grid has no point at v = 0
    oracle = airy.reshape(psf.taps, fine, psf.taps, fine).sum(axis=(1, 3))
    assert np.abs(psf.samples - oracle / oracle.sum()).sum() <= 1e-3


def test_zero_defocus_psf_radially_symmetric():
    cfg = small_config()
    v = psf_builder(cfg, 360.0, 0.01, math.inf)(360.0).samples
    np.testing.assert_allclose(v, v.T, atol=1e-6 * v.max())
    np.testing.assert_allclose(v, v[::-1, ::-1], atol=1e-6 * v.max())


def test_defocus_width_monotone():
    cfg = small_config(pitch_x_mm=2.0, pitch_y_mm=2.0)
    z_i = 360.0

    def width(z):
        psf = psf_builder(cfg, z_i, 0.02, math.inf)(z)
        c = (np.arange(psf.taps) - psf.taps // 2) * psf.sample_pitch_mm
        X, Y = np.meshgrid(c, c, indexing="ij")
        return math.sqrt(float((psf.samples * (X**2 + Y**2)).sum()))

    widths = [width(z) for z in (360.0, 400.0, 460.0, 560.0)]
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_defocus_psf_parameter_validation():
    cfg = small_config()
    with pytest.raises(ValueError):
        psf_builder(cfg, 360.0, 0.01, math.inf)(-5.0)
    with pytest.raises(ValueError):
        psf_builder(cfg, 360.0, 0.0, math.inf)(360.0)
    with pytest.raises(ValueError):
        psf_builder(cfg, 360.0, -0.01, math.inf)(360.0)


def test_defocus_window_energy_guard(monkeypatch):
    # a pupil that alternates sign per sample sends its energy half an alias
    # period away, outside any window the closed forms choose
    def checkerboard(U, V, ax, ay, du):
        i, j = np.indices(U.shape)
        return (-1.0) ** (i + j) * (np.abs(U) < 4.0) * (np.abs(V) < 4.0)

    monkeypatch.setattr(reconstruction, "_antialiased_pupil", checkerboard)
    with pytest.raises(ValueError, match="window holds"):
        psf_builder(small_config(), 360.0, 0.01, math.inf)(360.0)


def test_defocus_psf_matches_fft_oracle_far_from_focus():
    # the 300 mm sweep depth on the 0.25 mm reconstruction grid
    cfg = small_config()
    psf = psf_builder(cfg, 360.0, 0.25, math.inf)(300.0)
    oracle = _fft_psf(cfg, 300.0, 360.0, 2048, 10.0 / 1024, 0.25, psf.taps)
    assert np.abs(psf.samples - oracle).sum() <= 2e-3


@pytest.mark.parametrize("z", [351.0, 360.0, 369.0])
def test_defocus_psf_matches_fft_oracle_near_focus(z):
    # the strip depths of a 45 degree plane through the 360 mm focus
    cfg = small_config()
    psf = psf_builder(cfg, 360.0, 0.25, math.inf)(z)
    oracle = _fft_psf(cfg, z, 360.0, 1024, 10.0 / 512, 0.25, psf.taps)
    assert np.abs(psf.samples - oracle).sum() <= 5e-3


def test_defocus_psf_tends_to_geometric_disk():
    # far from focus the PSF is the uniform disk of radius R = a/2 |1 - z/z_i|,
    # whose radial second moment is R^2 / 2
    cfg = small_config(pitch_x_mm=2.0, pitch_y_mm=2.0)
    z_i = cfg.focus_mm()
    for z in (1000.0, 2000.0):
        psf = psf_builder(cfg, z_i, 0.2, math.inf)(z)
        c = (np.arange(psf.taps) - psf.taps // 2) * psf.sample_pitch_mm
        X, Y = np.meshgrid(c, c, indexing="ij")
        R = 1.0 * abs(1.0 - z / z_i)
        assert float((psf.samples * (X**2 + Y**2)).sum()) == pytest.approx(R * R / 2, rel=0.02)


def test_defocus_window_holds_energy_300_to_2000mm():
    cfg = small_config(m=16, n=16)
    for z in (300.0, 360.0, 700.0, 1200.0, 2000.0):
        assert psf_builder(cfg, 360.0, 0.25, math.inf)(z).window_energy >= 0.99


def test_defocus_psf_leaves_no_reference_cycle():
    # every array of a PSF build must be freed without the cyclic collector
    cfg = small_config()
    gc.collect()
    gc.disable()
    try:
        psf = psf_builder(cfg, 360.0, 0.25, math.inf)(300.0)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert psf.taps == 11
    assert unreachable == 0


def _complex_psf(cfg, z_i_mm, sample_pitch_mm, max_half_width_mm, z):
    """Oracle: the defocus PSF in complex form, (unit-sum samples, window
    energy). The sampling follows psf_builder's closed forms; the field at
    |x| of every Gauss-Legendre sub-pixel is A_u @ pupil @ A_v^T with the
    complex A[i, a] = w_a chirp(u_a) cos(2 pi |x_i| u_a / (lambda z)), and its
    squared modulus is integrated over each pixel."""
    ax, ay = cfg.pitch_x_mm, cfg.pitch_y_mm
    a, lz = max(ax, ay), cfg.wavelength_mm * z
    k = 2.0 * math.pi / cfg.wavelength_mm
    delta = 1.0 / z - (1.0 / z_i_mm if math.isfinite(z_i_mm) else 0.0)
    half = a / 2.0 * abs(delta) * z + 15 * 1.22 * lz / min(ax, ay)
    taps = 2 * max(1, math.ceil(min(half, max_half_width_mm) / sample_pitch_mm)) + 1
    sub = math.ceil(sample_pitch_mm * 2.0 * a / lz) + 2
    du = min(math.pi / 4.0 / (k * abs(delta) * a / 2.0) if delta else math.inf,
             lz / (4.0 * half), a / 256.0)
    u = np.arange(math.ceil(ax / (2.0 * du)) + 2) * du
    v = np.arange(math.ceil(ay / (2.0 * du)) + 2) * du
    wu, wv = np.where(u > 0, 2.0, 1.0), np.where(v > 0, 2.0, 1.0)
    pupil = _antialiased_pupil(*np.meshgrid(u, v, indexing="ij"), ax, ay, du)
    nodes, weights = np.polynomial.legendre.leggauss(sub)
    x = np.abs(((np.arange(taps) - taps // 2)[:, None] + nodes / 2.0).ravel()) * sample_pitch_mm

    def cosine_dft(u, w):
        return w * np.exp(0.5j * k * delta * u**2) * np.cos(2.0 * math.pi / lz * np.outer(x, u))

    field = cosine_dft(u, wu) @ pupil @ cosine_dft(v, wv).T
    pixel = np.kron(np.eye(taps), weights) * sample_pitch_mm / 2.0
    intensity = pixel @ np.abs(field) ** 2 @ pixel.T
    window_energy = intensity.sum() * (du / lz) ** 2 / (wu @ pupil**2 @ wv)
    return intensity / intensity.sum(), window_energy


@pytest.mark.parametrize("pitch_y, z_i, z", [
    (10.0, 360.0, 351.6), (10.0, 360.0, 360.0), (10.0, 360.0, 368.4),  # steep strips
    (10.0, 360.0, 300.0),  # the sweep depth
    (10.0, None, 200.0),  # far from the 116.7 mm focus of no override
    (15.0, 360.0, 330.0),  # rectangular pitch: u and v differ
    (10.0, math.inf, 360.0),  # collimated
])
def test_psf_builder_matches_complex_form(pitch_y, z_i, z):
    # the real cosine products reorder the complex products' round-off only
    cfg = small_config(m=16, n=16, pitch_y_mm=pitch_y)
    z_i = cfg.focus_mm() if z_i is None else z_i
    psf = psf_builder(cfg, z_i, 0.25, 12.25)(z)
    samples, window_energy = _complex_psf(cfg, z_i, 0.25, 12.25, z)
    assert psf.samples.shape == samples.shape
    assert np.abs(psf.samples - samples).max() <= 1e-12 * samples.max()
    assert psf.window_energy == pytest.approx(window_energy, rel=0.0, abs=1e-12)


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
    kern = psf_builder(cfg, 360.0, 0.01, half_span)(360.0).samples
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
    # NaN had passed the guard and failed later, converting the strip count
    with pytest.raises(ValueError, match="at least the plane sample pitch.*got nan"):
        apply_diffraction(field, plane, cfg, 360.0, strip_width_mm=math.nan)
    # an infinite width is valid: one strip
    single = apply_diffraction(field, plane, cfg, 360.0, strip_width_mm=math.inf)
    assert np.array_equal(single.values, _strip_oracle(field, plane, cfg, 360.0, math.inf))


@pytest.mark.parametrize("width", [1.0, math.nan])
def test_geometric_reconstruct_rejects_strip_width(width):
    # the strip width only splits the plane for the defocus blur; it had been ignored
    eis = capture(point_source_scene(200.0), small_config(), 16, 16)
    with pytest.raises(ValueError, match=r"needs mode='diffraction'"):
        reconstruct(eis, plane_at(200.0), mode="geometric", strip_width_mm=width)


def _half_span(field):
    """The kernel crop of apply_diffraction: the field half-span plus one pitch."""
    return max(float(field.xs[-1] - field.xs[0]),
               float(field.ys[-1] - field.ys[0])) / 2.0 + field.sample_pitch_mm


def _strip_oracle(field, plane, cfg, z_i_mm, strip_width_mm):
    """apply_diffraction written out with a fresh psf_builder for every strip:
    each kernel centred in the widest, and the strips' spectra summed by
    fftconvolve."""
    X, Y = field.meshgrid()
    t = tilted_to_global(X, Y, plane)[2] - plane.axial_offset_mm
    strips = _strip_weights(t, strip_width_mm)
    kernels = [psf_builder(cfg, z_i_mm, field.sample_pitch_mm, _half_span(field))(
        plane.axial_offset_mm + t_center).samples for t_center, _ in strips]
    taps = max(len(kernel) for kernel in kernels)
    kernels = np.stack([np.pad(kernel, (taps - len(kernel)) // 2) for kernel in kernels])
    fields = np.stack([field.values * weight for _, weight in strips])
    return np.clip(reconstruction.fftconvolve(fields, kernels), 0.0, None)


def test_spectral_strip_sum_matches_scipy_per_strip():
    # 45 degrees through the 360 mm focus in 1 mm strips on a 0.1 mm grid:
    # the defocus widens the kernels from 9 taps at the focus to 11 at its ends
    cfg = small_config(m=16, n=16)
    plane = plane_at(360.0, tx=45.0, hw=5.0, pitch=0.1)
    field = _random_field(plane)
    out = apply_diffraction(field, plane, cfg, 360.0, strip_width_mm=1.0).values
    X, Y = field.meshgrid()
    t = tilted_to_global(X, Y, plane)[2] - plane.axial_offset_mm
    build_psf = psf_builder(cfg, 360.0, field.sample_pitch_mm, _half_span(field))
    ref, taps = 0.0, set()
    for t_center, weight in _strip_weights(t, 1.0):
        psf = build_psf(360.0 + t_center)
        taps.add(psf.taps)
        ref = ref + scipy_fftconvolve(field.values * weight, psf.samples, mode="same")
    assert taps == {9, 11}
    assert np.abs(out - np.clip(ref, 0.0, None)).max() <= 1e-12 * ref.max()


def _pupil_counter(monkeypatch):
    """Records (ax, du) of each pupil the PSF builds make."""
    built = []

    def counting(U, V, ax, ay, du):
        built.append((ax, du))
        return _antialiased_pupil(U, V, ax, ay, du)

    monkeypatch.setattr(reconstruction, "_antialiased_pupil", counting)
    return built


def _random_field(plane, seed=0):
    xs, ys = plane.grid.xs(), plane.grid.ys()
    values = np.random.default_rng(seed).random((xs.size, ys.size))
    return ScalarField2D(values, xs, ys, plane.grid.sample_pitch_mm)


@pytest.mark.parametrize("D, shared_du", [(360.0, True), (300.0, False)])
def test_strips_sharing_psf_parts_equal_fresh_kernels(monkeypatch, D, shared_du):
    # 45 degrees in 1 mm strips: through the 360 mm focus every strip has the
    # pupil pitch a/256; at 300 mm the defocus phase sets a pitch per strip
    cfg = small_config(m=16, n=16)
    plane = plane_at(D, tx=45.0, hw=12.0, pitch=0.25)
    field = _random_field(plane)
    built = _pupil_counter(monkeypatch)
    oracle = _strip_oracle(field, plane, cfg, 360.0, 1.0)
    assert len(built) == 18
    assert (len({du for _, du in built}) == 1) == shared_du
    out = apply_diffraction(field, plane, cfg, 360.0, strip_width_mm=1.0)
    assert np.array_equal(out.values, oracle)


def test_psf_parts_are_shared_within_one_call_only(monkeypatch):
    built = _pupil_counter(monkeypatch)
    plane = plane_at(360.0, tx=45.0, hw=12.0, pitch=0.25)
    field = _random_field(plane)
    for pitch in (10.0, 10.0, 8.0):
        cfg = small_config(m=16, n=16, pitch_x_mm=pitch, pitch_y_mm=pitch)
        apply_diffraction(field, plane, cfg, 360.0, strip_width_mm=1.0)
    # one pupil per call, each of its own config, none kept from the call before
    assert built == [(10.0, 10.0 / 256), (10.0, 10.0 / 256), (8.0, 8.0 / 256)]


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_mode_validation():
    cfg = small_config()
    eis = elemental_set(np.ones((4, 4, 8, 8)), 0.5, cfg)
    with pytest.raises(ValueError):
        reconstruct(eis, plane_at(200.0), mode="fancy")


def test_impulse_diffraction_equals_geometric(monkeypatch):
    # With a 1x1 unit kernel in place of the defocus PSF, the strip blend and
    # the FFT convolution still run and must give back the geometric field.
    # FFT round-off is absolute, so the bound is relative to the field maximum.
    depths = []

    def unit_psf_builder(cfg, z_i_mm, sample_pitch_mm, max_half_width_mm):
        def unit_psf(z_local_mm):
            depths.append(z_local_mm)
            return PSFKernel(samples=np.ones((1, 1)), sample_pitch_mm=sample_pitch_mm,
                             defocus_distance_mm=z_local_mm, subpixels=1, pupil_samples=1,
                             window_energy=1.0)
        return unit_psf

    monkeypatch.setattr(reconstruction, "psf_builder", unit_psf_builder)
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
