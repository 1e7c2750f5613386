"""Tests for the synthetic-scene pinhole capture model."""

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


def test_textured_plane_sample_outside_zero():
    plane = TexturedPlane(100.0, 5.0, 5.0, np.ones((8, 8)))
    assert plane.sample(6.0, 0.0) == 0.0
    assert plane.sample(0.0, -7.0) == 0.0
    assert plane.sample(0.0, 0.0) == 1.0


def test_textured_plane_sample_orientation():
    tex = np.zeros((4, 4))
    tex[0, 3] = 1.0  # top-right texel -> (+x, +y) corner
    plane = TexturedPlane(100.0, 5.0, 5.0, tex)
    assert plane.sample(5.0, 5.0) == 1.0
    assert plane.sample(-5.0, -5.0) == 0.0


# ---------------------------------------------------------------------------
# point capture


def test_on_axis_point_under_central_lenslet():
    cfg = cfg16()
    eis = capture(point_source_scene(360.0), cfg, 63, 63, pixel_pitch_mm=0.15)
    img = eis.images[8, 8]  # lenslet (8, 8) sits on the axis
    r, c = np.unravel_index(np.argmax(img), img.shape)
    assert (r, c) == (31, 31)


def test_similar_triangle_projection():
    # emitter at (5, 0, 100) seen through the on-axis lenslet lands at u = -2.5
    cfg = cfg16()
    scene = Scene(points=[PointEmitter(5.0, 0.0, 100.0)])
    eis = capture(scene, cfg, 64, 64, pixel_pitch_mm=0.15)
    u, v = center_of_mass(eis.images[8, 8], 0.15)
    assert u == pytest.approx(-2.5, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-9)


def test_projection_through_offset_lenslet():
    cfg = cfg16()
    eis = capture(point_source_scene(360.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    # u - c_p = c_p * g / z for the on-axis source
    for p in (6, 10):
        cx, _ = cfg.lenslet_center(p, 8)
        u, _ = center_of_mass(eis.images[p, 8], 0.15)
        assert u == pytest.approx(cx * 50.0 / 360.0, abs=1e-9)


def test_capture_linear_in_intensity():
    cfg = cfg4()
    scene = Scene(points=[PointEmitter(1.0, -2.0, 250.0, 0.75)])
    a = capture(scene, cfg, 32, 32, pixel_pitch_mm=0.3)
    b = capture(scene.scaled(4.0), cfg, 32, 32, pixel_pitch_mm=0.3)
    np.testing.assert_array_equal(b.images, 4.0 * a.images)


@given(scale=st.sampled_from([0.5, 2.0, 8.0]))
@settings(max_examples=3, deadline=None)
def test_capture_linearity_property(scale):
    cfg = cfg4()
    scene = Scene(points=[PointEmitter(2.0, 1.0, 300.0)])
    a = capture(scene, cfg, 16, 16, pixel_pitch_mm=0.5)
    b = capture(scene.scaled(scale), cfg, 16, 16, pixel_pitch_mm=0.5)
    np.testing.assert_array_equal(b.images, scale * a.images)


def test_central_image_mirror_symmetry():
    # on-axis source: lenslet (p, q) and its mirror (m-p, n-q) see
    # point-reflected copies of each other
    cfg = cfg16()
    eis = capture(point_source_scene(360.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    for p, q in ((6, 8), (5, 11), (1, 2)):
        a = eis.images[p, q]
        b = eis.images[16 - p, 16 - q]
        np.testing.assert_allclose(a, b[::-1, ::-1], atol=1e-12 * max(a.max(), 1e-30))


def test_vignetting_reported():
    cfg = cfg4()
    # far off-axis emitter misses the outer elemental images
    scene = Scene(points=[PointEmitter(60.0, 0.0, 80.0)])
    eis, report = capture_with_report(scene, cfg, 16, 16, pixel_pitch_mm=0.5)
    assert report.vignetted > 0
    assert report.splatted + report.vignetted == cfg.m * cfg.n


def test_default_pixel_pitch_fills_pitch():
    cfg = cfg4()
    eis = capture(point_source_scene(200.0), cfg, 40, 40)
    assert eis.pixel_pitch_mm == pytest.approx(0.25, rel=1e-12)


def test_capture_rejects_empty_raster():
    with pytest.raises(ValueError):
        capture(point_source_scene(100.0), cfg4(), 0, 16)


# ---------------------------------------------------------------------------
# plane capture


def test_uniform_plane_gives_uniform_central_region():
    cfg = cfg4()
    plane = TexturedPlane(200.0, 120.0, 120.0, np.ones((16, 16)))
    eis = capture(Scene(planes=[plane]), cfg, 32, 32, pixel_pitch_mm=0.3)
    inner = eis.images[1, 1][8:-8, 8:-8]
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
    img = eis.images[8, 8]
    left = img[:, :16].sum()   # -u side
    right = img[:, 16:].sum()  # +u side
    assert left > right


def test_plane_capture_skip_matches_unskipped_loop():
    # a textured plane narrower than the array's reach: lenslets whose view
    # misses it are skipped, and the images must equal a loop that samples
    # the plane through every lenslet
    cfg = cfg16()
    rng = np.random.default_rng(4)
    plane = TexturedPlane(300.0, 9.0, 6.0, rng.random((20, 30)) + 0.1)
    points = [PointEmitter(60.0, 0.0, 80.0), PointEmitter(-3.0, 2.0, 250.0, 0.5)]
    pixels, pitch = 48, 10.0 / 48
    eis, report = capture_with_report(Scene(points=points, planes=[plane]), cfg, pixels,
                                      pixels, pixel_pitch_mm=pitch)
    # the points are splatted before the plane is added, as in capture
    expected, point_report = capture_with_report(Scene(points=points), cfg, pixels, pixels,
                                                 pixel_pitch_mm=pitch)
    coords = (np.arange(pixels) - (pixels - 1) / 2.0) * pitch
    missed = 0
    for p in range(cfg.m):
        for q in range(cfg.n):
            cx, cy = cfg.lenslet_center(p, q)
            view = plane.sample(cx - coords[None, :] * plane.z_mm / cfg.gap_mm,
                                cy - coords[::-1, None] * plane.z_mm / cfg.gap_mm)
            expected.images[p, q] += view
            missed += not np.any(view)
    assert 0 < missed < cfg.m * cfg.n
    np.testing.assert_array_equal(eis.images, expected.images)
    assert report.vignetted > 0
    assert (report.splatted, report.vignetted) == (point_report.splatted, point_report.vignetted)
