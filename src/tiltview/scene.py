"""Synthetic scenes and an ideal pinhole capture model.

Capture projects scene content through each lenslet center onto the display
plane, producing the elemental-image grid that the reconstructor consumes.
No diffraction is applied on the capture side; blur is a reconstruction
concern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .optics import OpticalSystemConfig
from .reconstruction import ElementalImageSet


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
        object.__setattr__(self, "texture", np.asarray(self.texture, dtype=float))
        if self.texture.ndim != 2:
            raise ValueError("texture must be a 2D array")
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

    def misses(self, x_min, x_max, y_min, y_max) -> bool:
        """True when ``sample`` is zero everywhere in the box: no point of it
        maps inside the texture (the texel coordinates are monotone in x, y)."""
        rows, cols = self.texture.shape
        fc, fr = self._texel(np.array([x_min, x_max]), np.array([y_max, y_min]))
        return bool(fc[1] < 0 or fc[0] > cols - 1 or fr[1] < 0 or fr[0] > rows - 1)

    def sample(self, x, y):
        """Bilinear texture lookup at scene coordinates; zero outside extent."""
        rows, cols = self.texture.shape
        fc, fr = self._texel(x, y)
        inside = (fc >= 0) & (fc <= cols - 1) & (fr >= 0) & (fr <= rows - 1)
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

    def scaled(self, factor: float) -> "Scene":
        """Scene with all intensities multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("intensity scale must be nonnegative")
        return Scene(
            points=[PointEmitter(p.x_mm, p.y_mm, p.z_mm, p.intensity * factor)
                    for p in self.points],
            planes=[TexturedPlane(pl.z_mm, pl.half_width_x_mm, pl.half_width_y_mm,
                                  pl.texture, pl.intensity_scale * factor)
                    for pl in self.planes],
        )


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
    image are dropped and counted.
    """
    if pixels_x < 1 or pixels_y < 1:
        raise ValueError("elemental images need at least one pixel per axis")
    if pixel_pitch_mm is None:
        pixel_pitch_mm = min(cfg.pitch_x_mm / pixels_x, cfg.pitch_y_mm / pixels_y)
    g = cfg.gap_mm
    images = np.zeros((cfg.m, cfg.n, pixels_y, pixels_x))
    report = CaptureReport()
    col_coords = (np.arange(pixels_x) - (pixels_x - 1) / 2.0) * pixel_pitch_mm
    row_coords = ((pixels_y - 1) / 2.0 - np.arange(pixels_y)) * pixel_pitch_mm
    for p in range(cfg.m):
        for q in range(cfg.n):
            cx, cy = cfg.lenslet_center(p, q)
            img = images[p, q]
            for pt in scene.points:
                u = cx - (pt.x_mm - cx) * g / pt.z_mm
                v = cy - (pt.y_mm - cy) * g / pt.z_mm
                r2 = (pt.x_mm - cx) ** 2 + (pt.y_mm - cy) ** 2 + pt.z_mm**2
                ok = _splat(img, u - cx, v - cy, pixel_pitch_mm, pt.intensity / r2)
                if ok:
                    report.splatted += 1
                else:
                    report.vignetted += 1
            for plane in scene.planes:
                # display pixel (u, v) sees the plane point on the ray
                # through the lenslet center
                px = cx - (col_coords[None, :]) * plane.z_mm / g
                py = cy - (row_coords[:, None]) * plane.z_mm / g
                if not plane.misses(px.min(), px.max(), py.min(), py.max()):
                    img += plane.sample(px, py)
    eis = ElementalImageSet(images=images, pixel_pitch_mm=pixel_pitch_mm, capture_config=cfg)
    return eis, report


def capture(scene: Scene, cfg: OpticalSystemConfig, pixels_x: int, pixels_y: int,
            pixel_pitch_mm: float | None = None) -> ElementalImageSet:
    eis, _ = capture_with_report(scene, cfg, pixels_x, pixels_y, pixel_pitch_mm)
    return eis


def _splat(img: np.ndarray, du: float, dv: float, pitch: float, value: float) -> bool:
    """Bilinear deposit at offset (du, dv) from the elemental-image center."""
    rows, cols = img.shape
    fc = du / pitch + (cols - 1) / 2.0
    fr = (rows - 1) / 2.0 - dv / pitch
    c0 = int(np.floor(fc))
    r0 = int(np.floor(fr))
    wc = fc - c0
    wr = fr - r0
    hit = False
    for dr, dc, w in ((0, 0, (1 - wr) * (1 - wc)), (0, 1, (1 - wr) * wc),
                      (1, 0, wr * (1 - wc)), (1, 1, wr * wc)):
        rr, cc = r0 + dr, c0 + dc
        if 0 <= rr < rows and 0 <= cc < cols:
            img[rr, cc] += value * w
            hit = True
    return hit
