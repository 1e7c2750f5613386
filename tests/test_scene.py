"""Tests for the synthetic-scene pinhole capture model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltview.optics import OpticalSystemConfig
from tiltview.scene import (
    PointEmitter,
    Scene,
    TexturedPlane,
    capture,
    capture_with_report,
    point_source_scene,
)

from elemental_sets import dense
from textures import texture_at


def cfg16():
    return OpticalSystemConfig(m=16, n=16, pitch_x_mm=10.0, pitch_y_mm=10.0,
                               gap_mm=50.0, focal_length_mm=35.0)


def cfg4():
    return OpticalSystemConfig(m=4, n=4, pitch_x_mm=10.0, pitch_y_mm=10.0,
                               gap_mm=50.0, focal_length_mm=35.0)


def center_of_mass(img, pitch):
    """Center of mass of an elemental image relative to its center, in mm."""
    rows, cols = img.shape
    total = img.sum()
    cidx = (img.sum(axis=0) * np.arange(cols)).sum() / total
    ridx = (img.sum(axis=1) * np.arange(rows)).sum() / total
    u = (cidx - (cols - 1) / 2.0) * pitch
    v = ((rows - 1) / 2.0 - ridx) * pitch
    return u, v


# ---------------------------------------------------------------------------
# scene primitives


def test_point_source_scene_constructor():
    scene = point_source_scene(360.0)
    assert scene.points == [PointEmitter(0.0, 0.0, 360.0, 1.0)]
    assert scene.planes == []


def test_emitter_validation():
    with pytest.raises(ValueError):
        PointEmitter(0.0, 0.0, -10.0)
    with pytest.raises(ValueError):
        PointEmitter(0.0, 0.0, 10.0, intensity=-1.0)


def test_textured_plane_validation():
    with pytest.raises(ValueError):
        TexturedPlane(-1.0, 5.0, 5.0, np.ones((4, 4)))
    with pytest.raises(ValueError):
        TexturedPlane(100.0, 5.0, 5.0, np.ones(4))
    with pytest.raises(ValueError):
        TexturedPlane(100.0, 5.0, 5.0, -np.ones((4, 4)))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_textured_plane_rejects_non_finite_texel(value):
    tex = np.ones((4, 4))
    tex[1, 2] = value
    with pytest.raises(ValueError, match="texture intensities must be nonnegative and finite"):
        TexturedPlane(100.0, 5.0, 5.0, tex)


@pytest.mark.parametrize("shape", [(4, 1), (1, 4), (1, 1), (0, 0), (0, 4)])
def test_textured_plane_rejects_texture_under_two_texels_per_axis(shape):
    # with one column, (cols - 1) = 0 put every x inside, so sample(1e6, 0) was 1;
    # a (0, 0) texture had raised an IndexError
    with pytest.raises(ValueError, match="at least 2 x 2 texels"):
        TexturedPlane(300.0, 5.0, 5.0, np.ones(shape))


def sample_at(plane, x, y):
    """The plane's value at one scene point, through its two axis lookups."""
    cols, rows = plane.texels(np.array([x]), "col"), plane.texels(np.array([y]), "row")
    return plane.sample(cols, rows)[0, 0]


def test_textured_plane_two_texels_has_edges():
    plane = TexturedPlane(300.0, 5.0, 5.0, np.ones((2, 2)))
    assert sample_at(plane, 1e6, 0.0) == 0.0 and sample_at(plane, 0.0, 1e6) == 0.0
    assert sample_at(plane, 5.0, -5.0) == 1.0


@pytest.mark.parametrize("half_widths", [(0.0, 5.0), (5.0, 0.0), (-5.0, 5.0), (5.0, -5.0)])
def test_textured_plane_rejects_nonpositive_half_widths(half_widths):
    key = "half_width_x_mm" if half_widths[0] <= 0 else "half_width_y_mm"
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        TexturedPlane(100.0, *half_widths, np.ones((4, 4)))


def test_textured_plane_sample_outside_zero():
    plane = TexturedPlane(100.0, 5.0, 5.0, np.ones((8, 8)))
    assert sample_at(plane, 6.0, 0.0) == 0.0
    assert sample_at(plane, 0.0, -7.0) == 0.0
    assert sample_at(plane, 0.0, 0.0) == 1.0


def test_textured_plane_sample_orientation():
    tex = np.zeros((4, 4))
    tex[0, 3] = 1.0  # top-right texel -> (+x, +y) corner
    plane = TexturedPlane(100.0, 5.0, 5.0, tex)
    assert sample_at(plane, 5.0, 5.0) == 1.0
    assert sample_at(plane, -5.0, -5.0) == 0.0


def test_texels_lookup_per_axis():
    # 3 rows over y in [-4, 4], 5 columns over x in [-6, 6]: an edge point
    # takes the last pair of texels with the whole weight on the edge texel
    plane = TexturedPlane(100.0, 6.0, 4.0, np.ones((3, 5)))
    lower, w, v, on = plane.texels(np.array([-6.0, -4.5, 6.0, 6.5]), "col")
    np.testing.assert_array_equal(lower, [0, 0, 3, 3])
    np.testing.assert_array_equal(w, [0.0, 0.5, 1.0, 1.0])
    np.testing.assert_array_equal(v, 1 - w)
    np.testing.assert_array_equal(on, [True, True, True, False])
    lower, w, v, on = plane.texels(np.array([4.0, 2.0, -4.0, -4.1]), "row")  # row 0 at largest y
    np.testing.assert_array_equal(lower, [0, 0, 1, 1])
    np.testing.assert_array_equal(w, [0.0, 0.5, 1.0, 1.0])
    np.testing.assert_array_equal(on, [True, True, True, False])


def test_textured_plane_sample_grid_matches_written_out_lookup():
    # a grid of pixel rows times pixel columns that crosses every edge, with
    # points on the edges themselves, equals the bilinear lookup done point
    # by point in scene coordinates
    rng = np.random.default_rng(3)
    plane = TexturedPlane(100.0, 6.0, 4.0, rng.random((7, 9)) + 0.5, intensity_scale=0.8)
    x = np.concatenate([rng.uniform(-8.0, 8.0, 40), [-6.0, 6.0, 0.0]])
    y = np.concatenate([rng.uniform(-6.0, 6.0, 30), [-4.0, 4.0]])
    values = plane.sample(plane.texels(x, "col"), plane.texels(y, "row"))
    assert values.shape == (y.size, x.size)
    expected = texture_at(plane, x[None, :], y[:, None])
    assert 0 < np.count_nonzero(expected) < expected.size
    np.testing.assert_array_equal(values, expected)


# ---------------------------------------------------------------------------
# point capture


def test_on_axis_point_under_central_lenslet():
    cfg = cfg16()
    eis = capture(point_source_scene(360.0), cfg, 63, 63, pixel_pitch_mm=0.15)
    img = dense(eis)[8, 8]  # lenslet (8, 8) sits on the axis
    r, c = np.unravel_index(np.argmax(img), img.shape)
    assert (r, c) == (31, 31)


def test_similar_triangle_projection():
    # emitter at (5, 0, 100) seen through the on-axis lenslet lands at u = -2.5
    cfg = cfg16()
    scene = Scene(points=[PointEmitter(5.0, 0.0, 100.0)])
    eis = capture(scene, cfg, 64, 64, pixel_pitch_mm=0.15)
    u, v = center_of_mass(dense(eis)[8, 8], 0.15)
    assert u == pytest.approx(-2.5, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-9)


def test_projection_through_offset_lenslet():
    cfg = cfg16()
    eis = capture(point_source_scene(360.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    # u - c_p = c_p * g / z for the on-axis source
    for p in (6, 10):
        cx = cfg.lenslet_centers()[0][p]
        u, _ = center_of_mass(dense(eis)[p, 8], 0.15)
        assert u == pytest.approx(cx * 50.0 / 360.0, abs=1e-9)


def test_capture_linear_in_intensity():
    cfg = cfg4()
    a = capture(Scene(points=[PointEmitter(1.0, -2.0, 250.0, 0.75)]), cfg, 32, 32,
                pixel_pitch_mm=0.3)
    b = capture(Scene(points=[PointEmitter(1.0, -2.0, 250.0, 0.75 * 4.0)]), cfg, 32, 32,
                pixel_pitch_mm=0.3)
    np.testing.assert_array_equal(dense(b), 4.0 * dense(a))


@given(scale=st.sampled_from([0.5, 2.0, 8.0]))
@settings(max_examples=3, deadline=None)
def test_capture_linearity_property(scale):
    cfg = cfg4()
    a = capture(Scene(points=[PointEmitter(2.0, 1.0, 300.0)]), cfg, 16, 16, pixel_pitch_mm=0.5)
    b = capture(Scene(points=[PointEmitter(2.0, 1.0, 300.0, scale)]), cfg, 16, 16,
                pixel_pitch_mm=0.5)
    np.testing.assert_array_equal(dense(b), scale * dense(a))


def test_central_image_mirror_symmetry():
    # on-axis source: lenslet (p, q) and its mirror (m-p, n-q) see
    # point-reflected copies of each other
    cfg = cfg16()
    eis = capture(point_source_scene(360.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    images = dense(eis)
    for p, q in ((6, 8), (5, 11), (1, 2)):
        a = images[p, q]
        b = images[16 - p, 16 - q]
        np.testing.assert_allclose(a, b[::-1, ::-1], atol=1e-12 * max(a.max(), 1e-30))


def test_vignetting_reported():
    cfg = cfg4()
    # a far off-axis emitter projects at least 28 mm from every image centre,
    # so it misses all 16 elemental images (8 mm wide)
    scene = Scene(points=[PointEmitter(60.0, 0.0, 80.0)])
    eis, vignetted = capture_with_report(scene, cfg, 16, 16, pixel_pitch_mm=0.5)
    assert vignetted == cfg.m * cfg.n
    assert not np.any(dense(eis))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_emitter_almost_on_the_array_vignettes_without_warning():
    # 1e-290 mm in front of the array the projection lands ~1e292 pixels out;
    # the fractional pixel index must not be cast to int unclipped
    cfg = cfg4()
    scene = Scene(points=[PointEmitter(3.0, 0.0, 1e-290)])
    eis, vignetted = capture_with_report(scene, cfg, 16, 16, pixel_pitch_mm=0.5)
    assert vignetted == cfg.m * cfg.n
    assert not np.any(dense(eis))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z_mm", [1e-170, 1e-305, 1e-308, 5e-324])
@pytest.mark.parametrize("x_mm", [3.0, 0.0])
def test_emitter_on_the_array_rejected_or_captured_finite(x_mm, z_mm):
    # at x = 0 the emitter sits on the axis of lenslet (2, 2), where 1 / z**2
    # had deposited inf; at x = 3 its projections had overflowed from 1e-305
    # mm in and are misses. Either it is rejected by name or every image is finite.
    scene = Scene(points=[PointEmitter(x_mm, 0.0, z_mm)])
    if x_mm == 0.0:
        with pytest.raises(ValueError, match="z_mm"):
            capture(scene, cfg4(), 16, 16, pixel_pitch_mm=0.5)
        return
    eis, vignetted = capture_with_report(scene, cfg4(), 16, 16, pixel_pitch_mm=0.5)
    assert vignetted == 16
    assert not np.any(dense(eis))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z_mm", [1.4e154, 1e200, 1.7e308])
def test_emitter_too_far_to_square_captures_zero(z_mm):
    # z_mm**2 on a Python float had raised a bare OverflowError: (34, ...). Each
    # projection lands on its image's centre, so none vignettes; each deposits 0
    eis, vignetted = capture_with_report(Scene(points=[PointEmitter(0.0, 0.0, z_mm)]), cfg4(),
                                         16, 16, pixel_pitch_mm=0.5)
    assert vignetted == 0
    assert not np.any(dense(eis))


def test_default_pixel_pitch_fills_pitch():
    cfg = cfg4()
    eis = capture(point_source_scene(200.0), cfg, 40, 40)
    assert eis.pixel_pitch_mm == pytest.approx(0.25, rel=1e-12)


def test_capture_rejects_empty_raster():
    with pytest.raises(ValueError):
        capture(point_source_scene(100.0), cfg4(), 0, 16)


def test_capture_rejects_zero_pixel_pitch_before_projecting():
    with pytest.raises(ValueError, match="pixel_pitch_mm must be positive and finite, got 0.0"):
        capture(point_source_scene(100.0), cfg4(), 16, 16, pixel_pitch_mm=0.0)


# ---------------------------------------------------------------------------
# plane capture


def test_uniform_plane_gives_uniform_central_region():
    cfg = cfg4()
    plane = TexturedPlane(200.0, 120.0, 120.0, np.ones((16, 16)))
    eis = capture(Scene(planes=[plane]), cfg, 32, 32, pixel_pitch_mm=0.3)
    inner = dense(eis)[1, 1][8:-8, 8:-8]
    np.testing.assert_allclose(inner, inner[0, 0], rtol=1e-9)
    assert inner[0, 0] > 0


def test_plane_capture_inverts_image():
    # a plane bright only in the +x half maps to the -u half of the
    # elemental image behind the on-axis lenslet
    cfg = cfg16()
    tex = np.zeros((8, 8))
    tex[:, 4:] = 1.0  # +x half
    plane = TexturedPlane(200.0, 30.0, 30.0, tex)
    eis = capture(Scene(planes=[plane]), cfg, 32, 32, pixel_pitch_mm=0.3)
    img = dense(eis)[8, 8]
    left = img[:, :16].sum()   # -u side
    right = img[:, 16:].sum()  # +u side
    assert left > right


def reference_capture(scene, cfg, pixels_x, pixels_y, pitch):
    """Per-lenslet capture in Python scalars: each emitter is splatted into
    image (p, q) in turn, then each plane is sampled through lenslet (p, q).
    Returns the images and the number of point projections vignetted."""
    images = np.zeros((cfg.m, cfg.n, pixels_y, pixels_x))
    vignetted = 0
    g = cfg.gap_mm
    col_du = (np.arange(pixels_x) - (pixels_x - 1) / 2.0) * pitch
    row_dv = ((pixels_y - 1) / 2.0 - np.arange(pixels_y)) * pitch
    centers_x, centers_y = cfg.lenslet_centers()
    for p in range(cfg.m):
        for q in range(cfg.n):
            cx, cy = float(centers_x[p]), float(centers_y[q])
            img = images[p, q]
            for pt in scene.points:
                u = cx - (pt.x_mm - cx) * g / pt.z_mm
                v = cy - (pt.y_mm - cy) * g / pt.z_mm
                value = pt.intensity / ((pt.x_mm - cx) ** 2 + (pt.y_mm - cy) ** 2 + pt.z_mm**2)
                fc = (u - cx) / pitch + (pixels_x - 1) / 2.0
                fr = (pixels_y - 1) / 2.0 - (v - cy) / pitch
                c0, r0 = math.floor(fc), math.floor(fr)
                wc, wr = fc - c0, fr - r0
                hit = False
                for dr, dc, w in ((0, 0, (1 - wr) * (1 - wc)), (0, 1, (1 - wr) * wc),
                                  (1, 0, wr * (1 - wc)), (1, 1, wr * wc)):
                    if 0 <= r0 + dr < pixels_y and 0 <= c0 + dc < pixels_x:
                        img[r0 + dr, c0 + dc] += value * w
                        hit = True
                vignetted += not hit
            for plane in scene.planes:
                img += texture_at(plane, cx - col_du[None, :] * plane.z_mm / g,
                                  cy - row_dv[:, None] * plane.z_mm / g)
    return images, vignetted


def random_points(rng, count, spread_mm, z_range_mm):
    """Emitters with Python float fields, as a scene file gives them."""
    return [PointEmitter(*rng.uniform(-spread_mm, spread_mm, 2).tolist(),
                         float(rng.uniform(*z_range_mm)), float(rng.uniform(0.1, 2.0)))
            for _ in range(count)]


def test_plane_capture_skip_matches_unskipped_loop():
    # points that vignette on some lenslets and a textured plane narrower
    # than the array's reach: the plane is sampled over the blocks that the
    # points lit too, where its view misses the texture and adds exact
    # zeros, and the images must equal the per-lenslet loop bit for bit
    cfg = cfg16()
    rng = np.random.default_rng(4)
    plane = TexturedPlane(300.0, 9.0, 6.0, rng.random((20, 30)) + 0.1)
    points = [PointEmitter(60.0, 0.0, 80.0), PointEmitter(-3.0, 2.0, 250.0, 0.5),
              *random_points(rng, 8, 70.0, (60.0, 400.0))]
    pixels, pitch = 48, 10.0 / 48
    scene = Scene(points=points, planes=[plane])
    eis, vignetted = capture_with_report(scene, cfg, pixels, pixels, pixel_pitch_mm=pitch)
    expected, expected_vignetted = reference_capture(scene, cfg, pixels, pixels, pitch)
    plane_only, _ = reference_capture(Scene(planes=[plane]), cfg, pixels, pixels, pitch)
    missed = int(np.sum(~np.any(plane_only, axis=(2, 3))))
    assert 0 < missed < cfg.m * cfg.n
    assert 0 < vignetted < len(points) * cfg.m * cfg.n
    np.testing.assert_array_equal(dense(eis), expected)
    assert vignetted == expected_vignetted


@pytest.mark.parametrize("seed", [0, 1])
def test_capture_matches_per_lenslet_reference_on_unequal_axes(seed):
    # odd m != n, pitch_x != pitch_y and pixels_x != pixels_y, so a swapped
    # axis or a transposed image cannot cancel out. The plane's edges lie
    # within 0.1 texel inside the edges of the views of lenslet rows 1, 2
    # and columns 2, 3 (x views [-6.85, -1.15] and [1.15, 6.85] mm, y views
    # [-10.35, -1.65] and [1.65, 10.35] mm), so a lenslet picked too tightly
    # drops a nonzero edge pixel.
    cfg = OpticalSystemConfig(m=3, n=5, pitch_x_mm=8.0, pitch_y_mm=12.0,
                              gap_mm=40.0, focal_length_mm=30.0)
    rng = np.random.default_rng(seed)
    plane = TexturedPlane(30.0, 1.2, 1.75, rng.random((4, 3)) + 0.1)
    scene = Scene(points=random_points(rng, 12, 30.0, (50.0, 300.0)), planes=[plane])
    eis, vignetted = capture_with_report(scene, cfg, 20, 30, pixel_pitch_mm=0.4)
    expected, expected_vignetted = reference_capture(scene, cfg, 20, 30, 0.4)
    plane_only, _ = reference_capture(Scene(planes=[plane]), cfg, 20, 30, 0.4)
    assert 0 < int(np.sum(~np.any(plane_only, axis=(2, 3)))) < cfg.m * cfg.n
    assert 0 < vignetted < len(scene.points) * cfg.m * cfg.n
    np.testing.assert_array_equal(dense(eis), expected)
    assert vignetted == expected_vignetted


def test_plane_capture_crop_partial_on_both_axes():
    # lenslet row 2 sees the 14 x 3 mm plane through pixel columns 3-20 of
    # 24, rows 1 and 3 through one edge each; lenslet columns 2 and 3 see it
    # through pixel rows 12-15 and 2-5 of 18, so the windows span only part
    # of each axis. A window one pixel too tight on either axis drops a
    # nonzero pixel, and lenslets whose view misses the plane get no block.
    cfg = OpticalSystemConfig(m=4, n=5, pitch_x_mm=10.0, pitch_y_mm=8.0,
                              gap_mm=50.0, focal_length_mm=35.0)
    rng = np.random.default_rng(7)
    plane = TexturedPlane(100.0, 7.0, 1.5, rng.random((5, 13)) + 0.1)
    scene = Scene(planes=[plane])
    eis = capture(scene, cfg, 24, 18, pixel_pitch_mm=0.4)
    expected, _ = reference_capture(scene, cfg, 24, 18, 0.4)
    np.testing.assert_array_equal(dense(eis), expected)
    seen = expected > 0
    rows_seen = np.flatnonzero(seen.any(axis=(0, 1, 3)))
    assert (rows_seen[0], rows_seen[-1]) == (2, 15)
    cols_seen = np.flatnonzero(seen[2].any(axis=(0, 1)))
    assert (cols_seen[0], cols_seen[-1]) == (3, 20)


def sweep_scene(seed=0):
    """The textured sweep plane: 30 mm wide at 300 mm, seen by 16 x 16
    lenslets of 128^2 pixels."""
    texture = np.random.default_rng(seed).random((64, 64)) + 0.1
    return Scene(planes=[TexturedPlane(300.0, 15.0, 15.0, texture)])


@pytest.mark.parametrize("scene, cfg, pixels, pitch", [
    (sweep_scene(), cfg16(), 128, 10.0 / 128),
    (point_source_scene(360.0), cfg16(), 64, 0.15),
    (Scene(points=[PointEmitter(1.5, -2.0, 250.0, 0.75), PointEmitter(-4.0, 3.0, 180.0)],
           planes=[TexturedPlane(220.0, 6.0, 9.0, np.arange(1.0, 31.0).reshape(5, 6))]),
     cfg4(), 40, 0.2),
    # the planes overlap at two depths: each window holds pixels that one of
    # them misses, the 140 mm plane is seen by 9 of the 16 lit lenslets, and 2
    # pixels round differently when the planes are added in the other order
    (Scene(points=[PointEmitter(1.5, -2.0, 250.0, 0.75), PointEmitter(-12.0, 8.0, 90.0)],
           planes=[TexturedPlane(220.0, 6.0, 9.0, np.arange(1.0, 31.0).reshape(5, 6)),
                   TexturedPlane(140.0, 9.0, 3.0,
                                 np.arange(12.0, 0.0, -1.0).reshape(3, 4) * 0.3)]),
     cfg4(), 40, 0.2),
], ids=["sweep-plane", "point", "two-emitters-and-plane", "two-emitters-and-two-planes"])
def test_windowed_capture_densifies_to_per_lenslet_reference(scene, cfg, pixels, pitch):
    # the capture stores blocks in windows only; densified they are the
    # per-lenslet loop's images bit for bit, and the windows leave pixels out
    eis, vignetted = capture_with_report(scene, cfg, pixels, pixels, pixel_pitch_mm=pitch)
    expected, expected_vignetted = reference_capture(scene, cfg, pixels, pixels, pitch)
    np.testing.assert_array_equal(dense(eis), expected)
    assert vignetted == expected_vignetted
    assert sum(block.size for block in eis.blocks.values()) < expected.size
    # every image that holds light has a block, and every block lies in its windows
    assert set(eis.blocks) >= {tuple(lenslet) for lenslet in
                               np.argwhere(expected.any(axis=(2, 3))).tolist()}
    for (p, q), block in eis.blocks.items():
        assert block.shape == (np.diff(eis.row_spans[q])[0], np.diff(eis.col_spans[p])[0])


def test_sweep_capture_blocks_hold_only_the_pixels_on_the_texture():
    # 9 x 9 lenslets see the plane, each through a window of its column's
    # pixel rows and its row's pixel columns: 384 rows over 9 columns times
    # 384 columns over 9 rows, against 256 dense images of 128^2 pixels
    eis = capture(sweep_scene(), cfg16(), 128, 128, pixel_pitch_mm=10.0 / 128)
    assert len(eis.blocks) == 81
    assert sum(block.size for block in eis.blocks.values()) == 147_456
    assert all(np.all(block > 0) for block in eis.blocks.values())
