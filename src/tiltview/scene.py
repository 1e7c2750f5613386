"""Synthetic scenes and an ideal pinhole capture model.

Capture projects scene content through each lenslet center onto the display
plane, producing the elemental-image grid that the reconstructor consumes.
No diffraction is applied on the capture side; blur is a reconstruction
concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .optics import OpticalSystemConfig
from .reconstruction import ElementalImageSet, bilinear_corners, pixel_centers


@dataclass(frozen=True)
class PointEmitter:
    x_mm: float
    y_mm: float
    z_mm: float
    intensity: float = 1.0

    def __post_init__(self):
        if self.z_mm <= 0:
            raise ValueError("emitters must sit in front of the lens array (z > 0)")
        if self.intensity < 0:
            raise ValueError("emitter intensity must be nonnegative")


def _on_texels(f, count: int):
    """Whether fractional texel indices ``f`` lie on an axis of ``count`` texels."""
    return (f >= 0) & (f <= count - 1)


def _span(on: np.ndarray) -> slice:
    """The range from the first to the last true entry of a 1D mask."""
    seen = np.flatnonzero(on)
    return slice(seen[0], seen[-1] + 1)


@dataclass(frozen=True)
class TexturedPlane:
    """A fronto-parallel textured rectangle at a fixed depth."""

    z_mm: float
    half_width_x_mm: float
    half_width_y_mm: float
    texture: np.ndarray  # [row, col], row 0 at largest y
    intensity_scale: float = 1.0

    def __post_init__(self):
        if self.z_mm <= 0:
            raise ValueError("plane must sit in front of the lens array (z > 0)")
        if self.half_width_x_mm <= 0 or self.half_width_y_mm <= 0:
            raise ValueError("plane half widths must be positive")
        object.__setattr__(self, "texture", np.asarray(self.texture, dtype=float))
        if self.texture.ndim != 2 or min(self.texture.shape) < 2:
            # one texel per axis would give the bilinear lookup no edge on that axis
            raise ValueError(f"texture must be a 2D array of at least 2 x 2 texels, "
                             f"got shape {self.texture.shape}")
        if np.any(self.texture < 0) or self.intensity_scale < 0:
            raise ValueError("texture intensities must be nonnegative")

    def _texel(self, x, y):
        """Fractional texel column and row of scene coordinates."""
        rows, cols = self.texture.shape
        fc = (np.asarray(x, dtype=float) + self.half_width_x_mm) \
            / (2 * self.half_width_x_mm) * (cols - 1)
        fr = (self.half_width_y_mm - np.asarray(y, dtype=float)) \
            / (2 * self.half_width_y_mm) * (rows - 1)
        return fc, fr

    def sample(self, x, y):
        """Bilinear texture lookup at scene coordinates; zero outside extent."""
        rows, cols = self.texture.shape
        fc, fr = self._texel(x, y)
        inside = _on_texels(fc, cols) & _on_texels(fr, rows)
        c0 = np.clip(np.floor(fc).astype(int), 0, cols - 2)
        r0 = np.clip(np.floor(fr).astype(int), 0, rows - 2)
        wc = np.clip(fc - c0, 0.0, 1.0)
        wr = np.clip(fr - r0, 0.0, 1.0)
        t = self.texture
        vals = ((1 - wr) * (1 - wc) * t[r0, c0] + (1 - wr) * wc * t[r0, c0 + 1]
                + wr * (1 - wc) * t[r0 + 1, c0] + wr * wc * t[r0 + 1, c0 + 1])
        return np.where(inside, vals * self.intensity_scale, 0.0)


@dataclass
class Scene:
    points: list[PointEmitter] = field(default_factory=list)
    planes: list[TexturedPlane] = field(default_factory=list)


def point_source_scene(D_mm: float) -> Scene:
    """Single unit-intensity emitter on the longitudinal axis at depth D."""
    return Scene(points=[PointEmitter(0.0, 0.0, D_mm, 1.0)])


@dataclass
class CaptureReport:
    """Bookkeeping from one capture run."""

    splatted: int = 0
    vignetted: int = 0


def capture_with_report(scene: Scene, cfg: OpticalSystemConfig,
                        pixels_x: int, pixels_y: int,
                        pixel_pitch_mm: float | None = None
                        ) -> tuple[ElementalImageSet, CaptureReport]:
    """Pinhole capture of a scene into an m x n elemental-image grid.

    Point emitters are projected through each lenslet center onto the
    display plane (with image inversion), splatted bilinearly with
    inverse-square distance falloff; textured planes are sampled per display
    pixel through the inverse mapping. Projections that miss the elemental
    image are dropped and counted. Emitters are projected through the whole
    lenslet grid at once; planes are sampled one lenslet at a time, over the
    pixel rows and columns of that lenslet whose view lands on the texture.
    """
    if pixels_x < 1 or pixels_y < 1:
        raise ValueError("elemental images need at least one pixel per axis")
    if pixel_pitch_mm is None:
        pixel_pitch_mm = min(cfg.pitch_x_mm / pixels_x, cfg.pitch_y_mm / pixels_y)
    eis = ElementalImageSet(images=np.zeros((cfg.m, cfg.n, pixels_y, pixels_x)),
                            pixel_pitch_mm=pixel_pitch_mm, capture_config=cfg)
    images, report, g = eis.images, CaptureReport(), cfg.gap_mm
    cx, cy = cfg.lenslet_centers()
    P, Q = np.ogrid[:cfg.m, :cfg.n]
    for pt in scene.points:
        dx, dy = pt.x_mm - cx[P], pt.y_mm - cy[Q]
        # float_power squares with C pow, as ** on Python floats does (numpy's **
        # multiplies), so each deposit equals a scalar per-lenslet loop's bit for bit;
        # unlike ** it gives inf for an emitter too far to square, whose deposits are 0
        with np.errstate(over="ignore"):
            dist_sq = np.float_power(dx, 2) + np.float_power(dy, 2) + np.float_power(pt.z_mm, 2)
        # the largest deposit, divided in Python floats, which give inf without a warning
        nearest = float(dist_sq.min())
        if nearest == 0 or math.isinf(pt.intensity / nearest):
            raise ValueError(f"the emitter at z_mm={pt.z_mm!r} deposits an infinite intensity "
                             "behind the lenslet nearest its axis; move it away from the "
                             "lens array")
        value = pt.intensity / dist_sq
        # so near the array a projection can leave the float range: the infinite
        # offset is a miss, which bilinear_corners clips
        with np.errstate(over="ignore"):
            u, v = cx[P] - dx * g / pt.z_mm, cy[Q] - dy * g / pt.z_mm
            corners = list(bilinear_corners(u - cx[P], v - cy[Q], pixel_pitch_mm,
                                            pixels_y, pixels_x))
        hit = np.zeros((cfg.m, cfg.n), dtype=bool)
        for row, col, w, inside in corners:
            np.add.at(images, (P, Q, row, col), np.where(inside, value * w, 0.0))
            hit |= inside
        report.splatted += int(hit.sum())
        report.vignetted += hit.size - int(hit.sum())
    du, dv = pixel_centers(pixel_pitch_mm, pixels_y, pixels_x)
    for plane in scene.planes:
        # pixel (du, dv) sees the plane point x = cx - du z/g, y = cy - dv z/g
        sx, sy = du * plane.z_mm / g, dv * plane.z_mm / g
        # a pixel sees the texture iff its x lies on the texture's columns and
        # its y on its rows: lenslet (p, q) is cropped to the pixel columns
        # whose x does through lenslet row p, and the pixel rows whose y does
        # through lenslet column q
        fc, fr = plane._texel(cx[:, None] - sx, cy[:, None] - sy)
        tex_rows, tex_cols = plane.texture.shape
        cols_on, rows_on = _on_texels(fc, tex_cols), _on_texels(fr, tex_rows)
        pixel_rows = [(q, _span(rows_on[q])) for q in np.flatnonzero(rows_on.any(axis=1))]
        for p in np.flatnonzero(cols_on.any(axis=1)):
            c = _span(cols_on[p])
            x = cx[p] - sx[c]
            for q, r in pixel_rows:
                images[p, q, r, c] += plane.sample(x, cy[q] - sy[r, None])
    return eis, report


def capture(scene: Scene, cfg: OpticalSystemConfig, pixels_x: int, pixels_y: int,
            pixel_pitch_mm: float | None = None) -> ElementalImageSet:
    eis, _ = capture_with_report(scene, cfg, pixels_x, pixels_y, pixel_pitch_mm)
    return eis
