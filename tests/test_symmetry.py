"""Metamorphic relations: a transformed input must give the transformed
output, whatever the model's numbers are.

Each relation holds for the present model and for any model that keeps the
array square and the pipeline linear, so these checks survive a change that
moves outputs on purpose. A swapped sum rounds in another order, so the
checks hold within a tolerance relative to the peak, not bit for bit.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from tiltview.cli import RunConfig
from tiltview.optics import OpticalSystemConfig, PlaneGrid, TiltedPlaneSpec
from tiltview.reconstruction import reconstruct
from tiltview.resolution import scan_resolution
from tiltview.scene import PointEmitter, Scene, TexturedPlane, capture

ROOT = Path(__file__).resolve().parents[1]
PIXELS = 64
Z_I_MM = 360.0


def square_array():
    # m = n and equal pitches: the array is its own transpose
    return OpticalSystemConfig(m=6, n=6, pitch_x_mm=10.0, pitch_y_mm=10.0,
                               gap_mm=50.0, focal_length_mm=35.0)


def scene(scale=1.0):
    """A textured plane with unequal half widths and texture axes, and an
    emitter off both axes, every intensity times ``scale``."""
    texture = np.random.default_rng(3).random((14, 24)) + 0.1
    return Scene(points=[PointEmitter(3.0, -2.0, 280.0, 2e4 * scale)],
                 planes=[TexturedPlane(300.0, 12.0, 7.0, texture, intensity_scale=scale)])


def transposed(s: Scene) -> Scene:
    """The scene with x and y swapped: texel (r, c) moves to (C-1-c, R-1-r),
    since rows run down y and columns up x."""
    return Scene(points=[dataclasses.replace(pt, x_mm=pt.y_mm, y_mm=pt.x_mm) for pt in s.points],
                 planes=[dataclasses.replace(pl, half_width_x_mm=pl.half_width_y_mm,
                                             half_width_y_mm=pl.half_width_x_mm,
                                             texture=pl.texture[::-1, ::-1].T)
                         for pl in s.planes])


def mirrored_x(s: Scene) -> Scene:
    """The scene mirrored in x: columns of a texture run up x."""
    return Scene(points=[dataclasses.replace(pt, x_mm=-pt.x_mm) for pt in s.points],
                 planes=[dataclasses.replace(pl, texture=pl.texture[:, ::-1])
                         for pl in s.planes])


def field(s: Scene, theta_x, theta_y, grid, mode, cfg=None):
    eis = capture(s, cfg or square_array(), PIXELS, PIXELS, pixel_pitch_mm=10.0 / PIXELS)
    plane = TiltedPlaneSpec(theta_x, theta_y, 300.0, grid)
    return reconstruct(eis, plane, mode=mode, z_i_override_mm=Z_I_MM).field.values


@pytest.mark.parametrize("mode", ["geometric", "diffraction"])
@pytest.mark.parametrize("theta_x, theta_y", [(20.0, 0.0), (30.0, -15.0)])
def test_transposed_scene_gives_transposed_field(mode, theta_x, theta_y):
    # measured: within 1.3e-14 of peak
    values = field(scene(), theta_x, theta_y, PlaneGrid(8.0, 5.0, 0.25), mode)
    swapped = field(transposed(scene()), theta_y, theta_x, PlaneGrid(5.0, 8.0, 0.25), mode)
    assert values.shape == (64, 40)
    assert values.max() > 0
    np.testing.assert_allclose(swapped, values.T, rtol=0, atol=1e-12 * values.max())


def test_analyze_x_and_y_scans_agree():
    # measured: within 2.2e-16 relative on the real/virtual config
    run = RunConfig.from_file(ROOT / "configs" / "real_virtual_fov.json")
    cfg, scan = run.optical_system, run.scan
    assert cfg.m == cfg.n and cfg.pitch_x_mm == cfg.pitch_y_mm
    x, y = (scan_resolution(cfg, run.plane.axial_offset_mm, axis, scan.theta_min_deg,
                            scan.theta_max_deg, scan.steps, z_i_override_mm=run.z_i_override_mm)
            for axis in ("x", "y"))
    assert [s[0] for s in x.samples] == [s[1] for s in y.samples]
    np.testing.assert_allclose(y.extents(), x.extents(), rtol=1e-15, atol=0)


@pytest.mark.parametrize("mode", ["geometric", "diffraction"])
def test_doubled_intensities_double_capture_and_field(mode):
    cfg = square_array()
    once, twice = (capture(scene(scale), cfg, PIXELS, PIXELS, pixel_pitch_mm=10.0 / PIXELS)
                   for scale in (1.0, 2.0))
    assert once.blocks.keys() == twice.blocks.keys()
    peak = max(block.max() for block in once.blocks.values())
    for lenslet, block in once.blocks.items():
        np.testing.assert_allclose(twice.blocks[lenslet], 2 * block, rtol=0, atol=1e-15 * peak)
    plane = TiltedPlaneSpec(30.0, -15.0, 300.0, PlaneGrid(8.0, 5.0, 0.25))
    values, doubled = (reconstruct(eis, plane, mode=mode, z_i_override_mm=Z_I_MM).field.values
                       for eis in (once, twice))
    np.testing.assert_allclose(doubled, 2 * values, rtol=0, atol=1e-15 * 2 * values.max())


def central_plane_scene():
    # a 30 mm square texture at 300 mm: each lenslet sees +/-30 mm about its centre there
    texture = np.random.default_rng(5).random((24, 30)) + 0.1
    return Scene(planes=[TexturedPlane(300.0, 15.0, 15.0, texture)])


@pytest.mark.parametrize("mode", ["geometric", "diffraction"])
@pytest.mark.parametrize("theta_x, theta_y", [(20.0, 0.0), (-17.0, 10.0)])
def test_mirrored_scene_gives_mirrored_field(mode, theta_x, theta_y):
    # lenslet p sits at (p - m/2) pitch, so p and m - p are mirror images and
    # row 0 has no partner; on a scene that row 0 does not reach, mirroring
    # the scene and the x tilt mirrors the field (measured: within 1.8e-15 of peak)
    cfg = dataclasses.replace(square_array(), m=16, n=16)
    eis = capture(central_plane_scene(), cfg, PIXELS, PIXELS, pixel_pitch_mm=10.0 / PIXELS)
    assert sorted({p for p, _ in eis.blocks}) == list(range(4, 13))
    grid = PlaneGrid(12.0, 12.0, 0.25)
    values = field(central_plane_scene(), theta_x, theta_y, grid, mode, cfg)
    mirrored = field(mirrored_x(central_plane_scene()), -theta_x, theta_y, grid, mode, cfg)
    assert values.shape == (96, 96)
    assert values.max() > 0
    np.testing.assert_allclose(mirrored, values[::-1, :], rtol=0, atol=1e-12 * values.max())


def test_mirror_relation_fails_when_row_0_is_lit():
    # control: on the 6x6 array lenslet row 0 sees the texture, and the
    # array's centre lies half a pitch off the axis (measured: off by 0.17 of peak)
    eis = capture(central_plane_scene(), square_array(), PIXELS, PIXELS,
                  pixel_pitch_mm=10.0 / PIXELS)
    assert any(p == 0 for p, _ in eis.blocks)
    grid = PlaneGrid(12.0, 12.0, 0.25)
    values = field(central_plane_scene(), 20.0, 0.0, grid, "geometric")
    mirrored = field(mirrored_x(central_plane_scene()), -20.0, 0.0, grid, "geometric")
    assert np.abs(mirrored - values[::-1, :]).max() > 0.1 * values.max()
