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

from .optics import OpticalSystemConfig, check_number
from .reconstruction import ElementalImageSet, corner, pixel_centers, raster_pitch


@dataclass(frozen=True)
class PointEmitter:
    x_mm: float
    y_mm: float
    z_mm: float
    intensity: float = 1.0

    def __post_init__(self):
        check_number("x_mm", self.x_mm, low=-math.inf)
        check_number("y_mm", self.y_mm, low=-math.inf)
        check_number("z_mm", self.z_mm)  # in front of the lens array
        check_number("intensity", self.intensity, closed=True)


@dataclass(frozen=True)
class TexturedPlane:
    """A fronto-parallel textured rectangle at a fixed depth."""

    z_mm: float
    half_width_x_mm: float
    half_width_y_mm: float
    texture: np.ndarray  # [row, col], row 0 at largest y
    intensity_scale: float = 1.0
    texture_file: str | None = None  # the file the texture was read from, if any

    def __post_init__(self):
        for name in ("z_mm", "half_width_x_mm", "half_width_y_mm"):
            check_number(name, getattr(self, name))
        check_number("intensity_scale", self.intensity_scale, closed=True)
        object.__setattr__(self, "texture", np.asarray(self.texture, dtype=float))
        if self.texture.ndim != 2 or min(self.texture.shape) < 2:
            # one texel per axis would give the bilinear lookup no edge on that axis
            raise ValueError(f"texture must be a 2D array of at least 2 x 2 texels, "
                             f"got shape {self.texture.shape}")
        if not np.all((self.texture >= 0) & (self.texture < math.inf)):
            raise ValueError("texture intensities must be nonnegative and finite")

    def texels(self, coord: np.ndarray, axis: str):
        """The bilinear lookup along ``axis`` at an array of scene coordinates,
        ``(lower, w, 1 - w, on)``: the lower texel's index, clipped so that it
        and the next lie on the texture, the next one's weight ``w``, and
        whether each coordinate lies on the texture. Column 0 lies at the
        smallest x (``"col"``) and row 0 at the largest y (``"row"``)."""
        row = axis == "row"
        count = self.texture.shape[0 if row else 1]
        f = ((self.half_width_y_mm - coord) / (2 * self.half_width_y_mm) if row
             else (coord + self.half_width_x_mm) / (2 * self.half_width_x_mm)) * (count - 1)
        lower = np.clip(np.floor(f).astype(int), 0, count - 2)
        w = np.clip(f - lower, 0.0, 1.0)
        return lower, w, 1 - w, (f >= 0) & (f <= count - 1)

    def sample(self, cols, rows):
        """The bilinear values, zero off the texture, on the grid of ``rows``
        times ``cols``: two ``texels`` lookups of 1D arrays."""
        c0, wc, vc, cols_on = cols
        r0, wr, vr, rows_on = rows
        vr, wr = vr[:, None], wr[:, None]
        flat, width = self.texture.ravel(), self.texture.shape[1]
        # the flat index of each lower corner; the other three lie 1, width and width + 1
        # past it, all on the texture, so "clip" clips nothing (and, unlike "raise",
        # takes into out= unbuffered)
        at = r0[:, None] * width + c0
        vals, term, texels = np.multiply(vr, vc), np.empty(at.shape), np.empty(at.shape)
        vals *= flat.take(at, out=texels, mode="clip")
        for row_w, col_w, offset in ((vr, wc, 1), (wr, vc, width), (wr, wc, width + 1)):
            np.multiply(row_w, col_w, out=term)
            term *= flat[offset:].take(at, out=texels, mode="clip")
            vals += term
        vals *= self.intensity_scale
        vals[~rows_on] = 0.0
        vals[:, ~cols_on] = 0.0
        return vals


@dataclass
class Scene:
    points: list[PointEmitter] = field(default_factory=list)
    planes: list[TexturedPlane] = field(default_factory=list)


def point_source_scene(D_mm: float) -> Scene:
    """Single unit-intensity emitter on the longitudinal axis at depth D."""
    return Scene(points=[PointEmitter(0.0, 0.0, D_mm, 1.0)])


def _windows(on: np.ndarray) -> np.ndarray:
    """The [start, stop) range from the first to the last true entry of each
    row of a 2D mask, [0, 0) for a row with none."""
    seen = on.any(axis=1)
    start = np.where(seen, on.argmax(axis=1), 0)
    stop = np.where(seen, on.shape[1] - on[:, ::-1].argmax(axis=1), 0)
    return np.stack([start, stop], axis=1)


def capture_with_report(scene: Scene, cfg: OpticalSystemConfig,
                        pixels_x: int, pixels_y: int,
                        pixel_pitch_mm: float | None = None) -> tuple[ElementalImageSet, int]:
    """Pinhole capture of a scene into an m x n elemental-image grid, and the
    number of point projections vignetted.

    Point emitters are projected through each lenslet center onto the
    display plane (with image inversion), through the whole lenslet grid at
    once, and splatted bilinearly with inverse-square distance falloff;
    projections that miss the elemental image are dropped and counted.
    Textured planes are sampled per display pixel through the inverse
    mapping, one lenslet's window at a time, from one ``texels`` lookup per
    plane and axis.

    Every projection is found before a pixel is stored, and the set holds
    only the windows they reach (``ElementalImageSet``): for each lenslet
    that receives a deposit or sees a plane, the pixel rows that its
    lenslet column reaches times the pixel columns that its lenslet row
    reaches. The deposits go into those blocks emitter by emitter and
    corner by corner, and the planes' samples after them in scene order. A
    window pixel whose view misses a plane samples +0.0, which leaves any
    sum unchanged, so every pixel gets the additions, in the order, that a
    whole image would.
    """
    pixel_pitch_mm = raster_pitch(cfg, pixels_y, pixels_x, pixel_pitch_mm)
    vignetted, g = 0, cfg.gap_mm
    cx, cy = cfg.lenslet_centers()
    P, Q = np.ogrid[:cfg.m, :cfg.n]
    # the pixel rows of each lenslet column and the pixel columns of each
    # lenslet row that a deposit or a plane sample reaches, and the lenslets
    rows_reached = np.zeros((cfg.n, pixels_y), dtype=bool)
    cols_reached = np.zeros((cfg.m, pixels_x), dtype=bool)
    lit = np.zeros((cfg.m, cfg.n), dtype=bool)
    deposits = []
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
        # offset is a miss, which corner clips
        with np.errstate(over="ignore"):
            u, v = cx[P] - dx * g / pt.z_mm, cy[Q] - dy * g / pt.z_mm
            r0, wr, vr = corner(v - cy[Q], pixel_pitch_mm, pixels_y, "row")  # (1, n)
            c0, wc, vc = corner(u - cx[P], pixel_pitch_mm, pixels_x, "col")  # (m, 1)
        hit = np.zeros((cfg.m, cfg.n), dtype=bool)
        for row, row_w in ((r0, vr), (r0 + 1, wr)):
            for col, col_w in ((c0, vc), (c0 + 1, wc)):
                inside = (row >= 0) & (row < pixels_y) & (col >= 0) & (col < pixels_x)
                # the lenslet columns and rows this corner lands in
                qs, ps = (np.flatnonzero(inside.any(axis=axis)) for axis in (0, 1))
                rows_reached[qs, row[0, qs]] = True
                cols_reached[ps, col[ps, 0]] = True
                deposits.append((row, col, inside, value * (row_w * col_w)))
                hit |= inside
        vignetted += hit.size - int(hit.sum())
        lit |= hit
    du, dv = pixel_centers(pixel_pitch_mm, pixels_y, pixels_x)
    views = []
    for plane in scene.planes:
        # pixel (du, dv) sees the plane point x = cx - du z/g, y = cy - dv z/g: a
        # pixel column's x depends only on the lenslet row p, a pixel row's y only
        # on the lenslet column q, and a pixel sees the texture iff both are on it
        cols = plane.texels(cx[:, None] - du * plane.z_mm / g, "col")  # each (m, pixels_x)
        rows = plane.texels(cy[:, None] - dv * plane.z_mm / g, "row")  # each (n, pixels_y)
        cols_on, rows_on = cols[3], rows[3]
        seen = cols_on.any(axis=1)[:, None] & rows_on.any(axis=1)
        if seen.any():
            rows_reached |= rows_on
            cols_reached |= cols_on
            lit |= seen
            views.append((plane, cols, rows))
    # one buffer holds the blocks of the lit lenslets, each (rows of q) x (columns of p)
    row_spans, col_spans = _windows(rows_reached), _windows(cols_reached)
    heights, widths = np.diff(row_spans)[:, 0], np.diff(col_spans)[:, 0]
    sizes = np.where(lit, widths[P] * heights[Q], 0)
    offsets = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    buffer = np.zeros(int(sizes.sum()))
    blocks = {(p, q): buffer[offsets[p, q]:offsets[p, q] + sizes[p, q]].reshape(
        heights[q], widths[p]) for p, q in np.argwhere(lit).tolist()}
    for row, col, inside, deposit in deposits:
        at = offsets + (row - row_spans[Q, 0]) * widths[P] + (col - col_spans[P, 0])
        buffer[at[inside]] += deposit[inside]
    for plane, cols, rows in views:
        for (p, q), block in blocks.items():
            (r0, r1), (c0, c1) = row_spans[q], col_spans[p]
            block += plane.sample([a[p, c0:c1] for a in cols], [a[q, r0:r1] for a in rows])
    return ElementalImageSet(blocks, pixels_y, pixels_x, pixel_pitch_mm, cfg,
                             row_spans=row_spans, col_spans=col_spans), vignetted


def capture(scene: Scene, cfg: OpticalSystemConfig, pixels_x: int, pixels_y: int,
            pixel_pitch_mm: float | None = None) -> ElementalImageSet:
    return capture_with_report(scene, cfg, pixels_x, pixels_y, pixel_pitch_mm)[0]
