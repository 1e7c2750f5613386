"""Back-projection of elemental images onto tilted planes, with optional
diffraction/defocus blur from the lenslet-pupil point-spread function."""

from __future__ import annotations

import functools
import logging
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .optics import (
    OpticalSystemConfig,
    ScalarField2D,
    TiltedPlaneSpec,
    tilted_to_global,
)

log = logging.getLogger(__name__)


def raster_pitch(cfg: OpticalSystemConfig, pixels_y: int, pixels_x: int,
                 pixel_pitch_mm: float | None = None) -> float:
    """The pixel pitch of elemental images of ``pixels_y`` x ``pixels_x``
    pixels behind the lenslets of ``cfg``: ``pixel_pitch_mm``, or when it is
    None the largest that fits both lens pitches. Raises ``ValueError`` for
    an image with no pixel, a pitch that is not positive and finite, or an
    image wider than the lens pitch."""
    if pixels_x < 1 or pixels_y < 1:
        raise ValueError("elemental images need at least one pixel per axis")
    if pixel_pitch_mm is None:
        pixel_pitch_mm = min(cfg.pitch_x_mm / pixels_x, cfg.pitch_y_mm / pixels_y)
    if not (math.isfinite(pixel_pitch_mm) and pixel_pitch_mm > 0):
        raise ValueError(f"pixel pitch must be positive and finite, got {pixel_pitch_mm!r}")
    if pixels_x * pixel_pitch_mm > cfg.pitch_x_mm * (1 + 1e-12):
        raise ValueError("elemental image wider than the lens pitch in x")
    if pixels_y * pixel_pitch_mm > cfg.pitch_y_mm * (1 + 1e-12):
        raise ValueError("elemental image wider than the lens pitch in y")
    return pixel_pitch_mm


@dataclass
class ElementalImageSet:
    """m x n grid of elemental images of ``pixels_y`` x ``pixels_x`` pixels
    with a shared physical pixel pitch, held as separable windows.

    Row 0 of an image is its top (largest y) and columns run along +x.
    ``row_spans[q]`` is the [start, stop) range of pixel rows of the images
    of lenslet column q, and ``col_spans[p]`` that of pixel columns of
    lenslet row p; without them every image is whole. ``blocks[p, q]`` holds
    the pixels of image (p, q) inside its rows and columns, shape
    (rows of q, columns of p), and every pixel outside them is 0; a lenslet
    without a block is all zero. The windows are separable because a
    projection's pixel row depends on the lenslet column only and its pixel
    column on the lenslet row. A set loaded from a manifest holds each
    stored image whole as its 16-bit codes in ``uint16`` (2 bytes per
    pixel); any other block, such as a capture's, is held as float64. The
    back-projection copies only the pixels its plane can read from the
    blocks of the lenslets it visits (``padded``) and converts to float
    only the pixels it reads from them (``gather``).
    """

    blocks: dict[tuple[int, int], np.ndarray]
    pixels_y: int
    pixels_x: int
    pixel_pitch_mm: float
    capture_config: OpticalSystemConfig
    row_spans: np.ndarray | None = None  # shape (n, 2)
    col_spans: np.ndarray | None = None  # shape (m, 2)

    def __post_init__(self):
        cfg = self.capture_config
        raster_pitch(cfg, self.pixels_y, self.pixels_x, self.pixel_pitch_mm)
        spans = {}
        for name, count, size in (("row_spans", cfg.n, self.pixels_y),
                                  ("col_spans", cfg.m, self.pixels_x)):
            given = getattr(self, name)
            span = np.tile([0, size], (count, 1)) if given is None else np.asarray(given)
            if (span.shape != (count, 2) or span.dtype.kind not in "iu"
                    or not np.all((0 <= span[:, 0]) & (span[:, 0] <= span[:, 1])
                                  & (span[:, 1] <= size))):
                raise ValueError(f"{name} must hold a [start, stop) range of the {size} "
                                 f"pixels for each of the {count} lenslets, got {given!r}")
            spans[name] = span.astype(np.intp, copy=False)
        self.row_spans, self.col_spans = spans["row_spans"], spans["col_spans"]
        blocks, rows, cols = {}, self.row_spans.tolist(), self.col_spans.tolist()
        for lenslet, block in self.blocks.items():
            if not (type(lenslet) is tuple and len(lenslet) == 2
                    and type(lenslet[0]) is int and type(lenslet[1]) is int
                    and 0 <= lenslet[0] < cfg.m and 0 <= lenslet[1] < cfg.n):
                raise ValueError(f"block key {lenslet!r} is not a (p, q) lenslet of the "
                                 f"{cfg.m} x {cfg.n} array")
            p, q = lenslet
            block = np.asarray(block)
            (r0, r1), (c0, c1) = rows[q], cols[p]
            if block.shape != (r1 - r0, c1 - c0):
                raise ValueError(f"block {lenslet} has shape {block.shape}, but its window "
                                 f"is {r1 - r0} x {c1 - c0} pixels")
            if block.dtype != np.uint16:  # codes are finite and nonnegative
                block = block.astype(float, copy=False)
                # NaN fails both comparisons: min and max propagate it
                lo, hi = block.min(initial=0.0), block.max(initial=0.0)
                if not (lo >= 0 and hi < math.inf):
                    raise ValueError(f"elemental intensities must be finite and nonnegative, "
                                     f"got values from {float(lo)} to {float(hi)}")
            blocks[lenslet] = block
        self.blocks = blocks

    def padded(self, p: np.ndarray, q: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
        """The pixels of the blocks of lenslet rows ``p`` and columns ``q``
        (index arrays) inside ``rows[j]``, the [start, stop) range of pixel
        rows of column ``q[j]``, and ``cols[i]``, that of pixel columns of
        row ``p[i]``; each range lies inside its window. Shape (len(p),
        len(q), H + 5, W + 5), with H the longest range of ``rows`` and W
        that of ``cols``. Each crop sits at its own range's offset 0, inside
        the zero border that ``gather`` reads for a corner outside it; a
        lenslet without a block is all zero. They keep the blocks' dtype:
        uint16 codes stay 2 bytes a pixel."""
        height = int((rows[:, 1] - rows[:, 0]).max())
        width = int((cols[:, 1] - cols[:, 0]).max())
        chosen = {(i, j): self.blocks[row, col] for i, row in enumerate(p.tolist())
                  for j, col in enumerate(q.tolist()) if (row, col) in self.blocks}
        dtype = np.result_type(*chosen.values()) if chosen else np.float64
        out = np.zeros((len(p), len(q), height + 2 * _BORDER + 1, width + 2 * _BORDER + 1),
                       dtype=dtype)
        # the ranges in the coordinates of each block, whose pixel 0 is its window's start
        in_rows = (rows - self.row_spans[q, :1]).tolist()
        in_cols = (cols - self.col_spans[p, :1]).tolist()
        for (i, j), block in chosen.items():
            (r0, r1), (c0, c1) = in_rows[j], in_cols[i]
            out[i, j, _BORDER:_BORDER + r1 - r0, _BORDER:_BORDER + c1 - c0] = block[r0:r1, c0:c1]
        return out


#: The fractional pixel index is clipped to [-_BORDER, size - 1 + _BORDER],
#: so the corners around it lie at most _BORDER pixels before the first
#: pixel and _BORDER + 1 past the last: the zero border of ``padded``.
_BORDER = 2


def pixel_centers(pitch: float, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Display offsets from the image centre of the pixel centres, (du of each
    column, dv of each row): the inverse of ``corner``'s fractional index."""
    return ((np.arange(cols) - (cols - 1) / 2.0) * pitch,
            ((rows - 1) / 2.0 - np.arange(rows)) * pitch)


def corner(offset, pitch: float, size: int, axis: str):
    """The elemental-pixel convention, one axis at a time: the bilinear
    corners along ``axis`` around display offsets from the image centre,
    ``(lower, w, 1 - w)``, with ``lower`` the integer index of the lower
    corner and ``w`` the weight of the upper one. Column 0 lies at the
    smallest u (``"col"``, offsets du) and row 0 at the largest v
    (``"row"``, offsets dv). The fractional index is clipped to
    [-2, size + 1], which moves no corner into the image and keeps a far
    projection's index castable; an offset too far for the float range is
    such a projection."""
    with np.errstate(over="ignore"):
        index = ((size - 1) / 2.0 - offset / pitch if axis == "row"
                 else offset / pitch + (size - 1) / 2.0)
        index = np.clip(index, -_BORDER, size - 1.0 + _BORDER)
    lower = np.floor(index)
    w = index - lower
    return lower.astype(np.intp), w, 1.0 - w


def gather(flat: np.ndarray, width: int, at: np.ndarray, row, col, out: np.ndarray,
           weight: np.ndarray) -> np.ndarray:
    """Bilinear sample of a flattened ``padded`` stack of images ``width``
    pixels wide, written into ``out``. ``at`` is the flat index of each
    sample's lower corner (r0, c0), so (r0, c0 + 1), (r0 + 1, c0) and
    (r0 + 1, c0 + 1) lie 1, ``width`` and ``width + 1`` on; ``row`` and
    ``col`` are ``corner``'s weights ``(w, 1 - w)`` along each axis, of
    ``out``'s shape. ``weight`` is a buffer of that shape for each corner's
    term. The four terms are summed in that order. A corner outside the
    image reads the zero border, so it adds an exact 0.0, as a masked sum
    would; only the pixels read are converted to float."""
    (wr, vr), (wc, vc) = row, col
    np.multiply(vr, vc, out=out)
    out *= flat.take(at)
    for a, b, step in ((vr, wc, 1), (wr, vc, width), (wr, wc, width + 1)):
        np.multiply(a, b, out=weight)
        weight *= flat[step:].take(at)
        out += weight
    return out


def into_window(lower: np.ndarray, start: int, size: int) -> np.ndarray:
    """``corner``'s lower indices along one axis of an image, moved in place
    to a crop of that axis that starts at pixel ``start``, in a ``padded``
    stack of ``size`` pixels along it. The crop holds every corner that
    lies inside the image's window. An index past the zero border around
    the crop is clipped into it: both its corners lie outside the crop, and
    so outside the window, where the image is 0, and both still read 0.0."""
    lower -= start
    np.maximum(lower, -_BORDER, out=lower)  # two ufuncs take half np.clip's time
    return np.minimum(lower, size - _BORDER - 2, out=lower)


@dataclass
class PSFKernel:
    """Unit-sum intensity point-spread function integrated over the pixels of
    a plane grid, with an odd number of taps per side centred on the point.

    The sampling it was built with is kept: ``subpixels`` per pixel side,
    ``pupil_samples`` per pupil side and ``window_energy``, the share of the
    pupil energy that the kernel window holds.
    """

    samples: np.ndarray
    sample_pitch_mm: float
    defocus_distance_mm: float
    subpixels: int
    pupil_samples: int
    window_energy: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if np.any(self.samples < 0):
            raise ValueError("PSF samples must be nonnegative")
        total = self.samples.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"PSF must sum to 1, got {total!r}")
        if not 0.0 < self.window_energy <= 1.0 + 1e-6:
            raise ValueError(f"window energy must be in (0, 1], got {self.window_energy!r}")

    @property
    def taps(self) -> int:
        return self.samples.shape[0]


@dataclass
class Reconstruction:
    """Back-projected image on a tilted plane."""

    field: ScalarField2D
    mode: str


def _reach(g_axis: np.ndarray, centers: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index range [lo, hi) of the ascending plane axis within ``radius`` of each center."""
    return (np.searchsorted(g_axis, centers - radius, side="left"),
            np.searchsorted(g_axis, centers + radius, side="right"))


def backproject_geometric(eis: ElementalImageSet, plane: TiltedPlaneSpec) -> Reconstruction:
    """Sum the distance-weighted back-projections of all elemental images.

    A lenslet adds to a plane sample only where the bilinear footprint of the
    back-projected point lies inside its elemental image,
    |g - c| < M (pixels + 1)/2 pixel_pitch per axis. With the grid's largest
    M and one elemental pixel of margin, that bound picks before the loop
    the lenslet rows and columns that reach the plane, and the plane samples
    each can reach: lenslet (p, q) is evaluated over its own window, the
    samples row p reaches along x times those column q reaches along y.
    Every term left out is an exact 0.0, so the sum is the same, bit for
    bit, as over all lenslets and samples in (p, q) order.

    Each term is built at the dimension it depends on: the plane x of a
    sample fixes its global x, and its plane y its global y. So the row
    corners depend on the lenslet column and the sample only, and are built
    once per column; the column corners once per lenslet row; the depth
    terms of the pixel distance once per plane. The row corners of every
    column, and the column corners of each row at its first and last plane
    y, give the pixels each column and row can read. Only those, inside
    each window, are copied into a zero-padded stack
    (``ElementalImageSet.padded``), each corner's lower index moved from
    the image into its crop (``into_window``). Each (lenslet, sample) tile
    is then sampled with ``gather`` and divided by its distance in reused
    buffers.
    """
    cfg = eis.capture_config
    g = cfg.gap_mm
    xs, ys = plane.grid.xs(), plane.grid.ys()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    gx, gy, depth = tilted_to_global(X, Y, plane)
    M = depth / g
    m_max, pitch = float(M.max()), eis.pixel_pitch_mm
    cx, cy = cfg.lenslet_centers()
    x_lo, x_hi = _reach(gx[:, 0], cx, m_max * ((eis.pixels_x + 1) / 2.0 + 1.0) * pitch)
    y_lo, y_hi = _reach(gy[0, :], cy, m_max * ((eis.pixels_y + 1) / 2.0 + 1.0) * pitch)
    rows = np.flatnonzero(x_hi > x_lo)
    cols = np.flatnonzero(y_hi > y_lo)
    total = np.zeros_like(X)
    stacked = "no stack"
    if rows.size and cols.size:
        axial, spread = cfg.pixel_distance_terms(depth)
        # the plane samples any visited row (x) or column (y) reaches
        x0, x1 = x_lo[rows[0]], x_hi[rows[-1]]
        y0, y1 = y_lo[cols[0]], y_hi[cols[-1]]
        row_corners, dy_sq = [], []
        for q in cols:
            ys_q = slice(y_lo[q], y_hi[q])
            dy = gy[0, ys_q] - cy[q]
            v = cy[q] - dy / M[x0:x1, ys_q]
            row_corners.append(corner(v - cy[q], pitch, eis.pixels_y, "row"))
            dy_sq.append(dy ** 2)
        # At each plane x, a column corner's lower index is monotone in the
        # plane y: the depth is, and so is every rounded step from the depth
        # to the index. So the corners at the first and last y bound those of
        # the row, which the loop below builds one row at a time.
        col_reads = []
        for p in rows:
            dx = gx[x_lo[p]:x_hi[p], 0] - cx[p]
            u = cx[p] - dx[:, None] / M[x_lo[p]:x_hi[p], [y0, y1 - 1]]
            lower = corner(u - cx[p], pitch, eis.pixels_x, "col")[0]
            col_reads.append((lower.min(), lower.max() + 2))
        row_reads = [(lower.min(), lower.max() + 2) for lower, *_ in row_corners]
        # The pixels from each lowest lower corner to each highest upper one,
        # inside the window: a corner outside this crop is outside the window
        row_spans, col_spans = eis.row_spans[cols], eis.col_spans[rows]
        row_spans = np.clip(row_reads, row_spans[:, :1], row_spans[:, 1:])
        col_spans = np.clip(col_reads, col_spans[:, :1], col_spans[:, 1:])
        stack = eis.padded(rows, cols, row_spans, col_spans)
        stacked = f"a {stack.dtype} stack of {stack.shape}, {stack.nbytes} bytes"
        height, width = stack.shape[-2:]
        flat = stack.reshape(-1)
        # The flat index of a lower corner is a part per column plus a part
        # per row: image (i, j) of the stack starts at (i * cols.size + j)
        # height * width, and its crop _BORDER rows and columns in
        for j, (lower, *_) in enumerate(row_corners):
            into_window(lower, row_spans[j, 0], height)
            lower += _BORDER + j * height
            lower *= width
        tile = (x_hi - x_lo)[rows].max() * (y_hi - y_lo)[cols].max()
        buffers = np.empty(tile, np.intp), np.empty(tile), np.empty(tile)
        # the samples each column reaches along y: in the plane, and from y0 on
        y_tiles = [(slice(lo, hi), slice(lo - y0, hi - y0), hi - lo)
                   for lo, hi in zip(y_lo[cols].tolist(), y_hi[cols].tolist())]
        for i, (p, lo, hi) in enumerate(zip(rows.tolist(), x_lo[rows].tolist(),
                                            x_hi[rows].tolist())):
            xs_p = slice(lo, hi)
            dx = gx[xs_p, 0] - cx[p]
            u = cx[p] - dx[:, None] / M[xs_p, y0:y1]
            col_at, *col_weights = corner(u - cx[p], pitch, eis.pixels_x, "col")
            into_window(col_at, col_spans[i, 0], width)
            col_at += _BORDER + i * cols.size * height * width
            dx_sq = dx[:, None] ** 2
            in_x = slice(lo - x0, hi - x0)
            for (ys_q, in_y, ny), (row_at, *row_weights), dy_sq_q in zip(
                    y_tiles, row_corners, dy_sq):  # fixed lexicographic (p, q) order
                s = (xs_p, ys_q)
                size = (hi - lo) * ny
                at, values, weight = (b[:size].reshape(hi - lo, ny) for b in buffers)
                np.add(row_at[in_x], col_at[:, in_y], out=at)
                gather(flat, width, at, [a[in_x] for a in row_weights],
                       [a[:, in_y] for a in col_weights], values, weight)
                # the squared distance axial + (dx² + dy²) spread, in place
                np.add(dx_sq, dy_sq_q, out=weight)
                weight *= spread[s]
                np.add(axial[s], weight, out=weight)
                values /= weight
                total[s] += values
    log.debug("back-projection: %d of %d lenslets reach the plane, over %d "
              "(lenslet, sample) pairs; %s", rows.size * cols.size, cfg.m * cfg.n,
              int((x_hi - x_lo).sum()) * int((y_hi - y_lo).sum()), stacked)
    if not np.any(total):
        warnings.warn("no elemental image sees the reconstruction plane; field is zero")
    field = ScalarField2D(total, xs, ys, plane.grid.sample_pitch_mm)
    return Reconstruction(field=field, mode="geometric")


#: Sub-samples per axis of each pupil sample on the ellipse's rim.
_PUPIL_SUBSAMPLES = 8


def _antialiased_pupil(U: np.ndarray, V: np.ndarray, ax: float, ay: float,
                       du: float) -> np.ndarray:
    """Transmission of the ellipse inscribed in the lens pitches, with
    area-weighted rim samples.

    A hard-thresholded rim aliases the transform badly enough to lift the
    kernel floor above the support tolerance; fractional edge coverage
    removes that artifact.
    """

    def inside(u, v):
        return (u / (ax / 2.0)) ** 2 + (v / (ay / 2.0)) ** 2 <= 1.0

    pupil = inside(U, V).astype(float)
    r = np.sqrt((U / (ax / 2.0)) ** 2 + (V / (ay / 2.0)) ** 2)
    # never empty: du <= a/256, and the grid reaches past the rim
    band = np.abs(r - 1.0) < 2.0 * du / min(ax, ay)
    off = ((np.arange(_PUPIL_SUBSAMPLES) + 0.5) / _PUPIL_SUBSAMPLES - 0.5) * du
    ou, ov = np.meshgrid(off, off, indexing="ij")
    ub = U[band][:, None] + ou.ravel()[None, :]
    vb = V[band][:, None] + ov.ravel()[None, :]
    pupil[band] = inside(ub, vb).mean(axis=1)
    return pupil


def psf_builder(cfg: OpticalSystemConfig, z_i_mm: float, sample_pitch_mm: float,
                max_half_width_mm: float) -> Callable[[float], PSFKernel]:
    """The defocus PSF builder of one plane grid and beam focus:
    ``build(z_local_mm)`` returns the intensity PSF of one lenslet pupil with
    a quadratic defocus phase, integrated over the pixels of a plane grid of
    pitch ``sample_pitch_mm``.

    The pupil (diameters = lens pitches) is multiplied by
    exp[(jk/2)(1/z_local - 1/z_i)(u^2 + v^2)] and Fresnel transformed only at
    S x S sub-pixel points x of each pixel, as the matrix DFT A . pupil . A^T
    with A[i, a] = exp(-2 pi j x_i u_a / (lambda z_local)) (Soummer et al.,
    Opt. Express 15, 15935, 2007). The squared modulus is integrated over
    each pixel and normalized to unit sum. A collimated system passes
    ``z_i_mm = inf`` (zero 1/z_i).

    The sampling follows from closed forms, with a = the larger pitch:

    * window half-width: the geometric blur radius a/2 |1 - z/z_i| plus 15
      Airy radii, cropped to ``max_half_width_mm``;
    * S = ceil(pitch / (lambda z / 2a)) + 2: the Nyquist count for the
      intensity, whose highest frequency is a / (lambda z), plus two. The
      sub-pixels are Gauss-Legendre nodes, so the pixel integral converges
      spectrally in S (midpoint sub-pixels at Nyquist leave ~3% L1 error
      when a pixel is narrower than the Airy disk);
    * pupil pitch du: the defocus phase step at the rim stays <= pi/4, the
      alias period lambda z / du is at least twice the window, and
      du <= a/256.

    Pupil and phase are even in u and v, so the field is even in x and y:
    the transform runs over u, v >= 0 (a cosine DFT, the u = 0 column
    weighted once, the others twice) and x, y >= 0, and is mirrored. So
    A = C . diag(weight . chirp) with the real cosine matrix
    C[i, a] = cos(2 pi x_i u_a / (lambda z_local)), built once per depth and
    once for both axes on a square pitch, where v is u. The weights and the
    chirp are folded into the pupil, and its real and imaginary parts go
    through C on each side as real matrix products: no complex product runs.

    A matrix DFT has no wrap-around; what it can miss is energy outside the
    window. ``window_energy`` is the Parseval share of the pupil energy that
    the window holds, and an uncropped window must hold at least 0.99 of it.

    The parts that do not depend on the depth are cached (``functools.cache``)
    per value of what they do depend on: the pupil quadrant, with its DFT
    weights folded in, and its Parseval denominator per pupil pitch du, and
    the pixel quadrature, with its Gauss-Legendre rule, per (taps, S). The
    caches live as long as the builder, so ``apply_diffraction`` makes one
    per call.
    """
    if sample_pitch_mm <= 0:
        raise ValueError("sample pitch must be positive")
    ax, ay = cfg.pitch_x_mm, cfg.pitch_y_mm
    a = max(ax, ay)
    inv_zi = 1.0 / z_i_mm
    k = 2.0 * math.pi / cfg.wavelength_mm

    @functools.cache
    def pupil_quadrant(du):
        # u, v >= 0 reach past the antialiased rim; on a square pitch v is u
        u = np.arange(math.ceil(ax / (2.0 * du)) + 2) * du
        v = u if ay == ax else np.arange(math.ceil(ay / (2.0 * du)) + 2) * du
        # the u = 0 column is weighted once, the others twice: folded in without round-off
        wu, wv = np.where(u > 0, 2.0, 1.0), np.where(v > 0, 2.0, 1.0)
        U, V = np.meshgrid(u, v, indexing="ij")
        pupil = _antialiased_pupil(U, V, ax, ay, du)
        return u, v, wu[:, None] * pupil * wv, wu @ pupil**2 @ wv

    @functools.cache
    def pixel_quadrature(taps, sub):
        nodes, weights = np.polynomial.legendre.leggauss(sub)
        x = ((np.arange(taps) - taps // 2)[:, None] + nodes / 2.0).ravel() * sample_pitch_mm
        x_half = x[x.size // 2:]  # x >= 0: from 0 if x.size is odd
        # pixel i integrates sub-pixel n, whose field is at |x_n| = x_half[mirror[n]]
        mirror = np.abs(2 * np.arange(x.size) - (x.size - 1)) // 2
        quadrature = np.zeros((taps, x_half.size))
        np.add.at(quadrature, (np.arange(x.size) // sub, mirror),
                  np.tile(weights, taps) * sample_pitch_mm / 2.0)
        return x_half, quadrature

    def build(z_local_mm: float) -> PSFKernel:
        if z_local_mm <= 0:
            raise ValueError("z_local must be positive")
        lz = cfg.wavelength_mm * z_local_mm
        delta = 1.0 / z_local_mm - inv_zi
        half = a / 2.0 * abs(delta) * z_local_mm + 15 * 1.22 * lz / min(ax, ay)
        cropped = half > max_half_width_mm
        taps = 2 * max(1, math.ceil(min(half, max_half_width_mm) / sample_pitch_mm)) + 1
        sub = math.ceil(sample_pitch_mm * 2.0 * a / lz) + 2
        du = min(math.pi / 4.0 / (k * abs(delta) * a / 2.0) if delta else math.inf,
                 lz / (4.0 * half), a / 256.0)
        u, v, pupil, pupil_energy = pupil_quadrant(du)
        x_half, quadrature = pixel_quadrature(taps, sub)
        cos_u = np.cos(2.0 * math.pi / lz * np.outer(x_half, u))
        cos_v = cos_u if v is u else np.cos(2.0 * math.pi / lz * np.outer(x_half, v))
        chirp_u = np.exp(0.5j * k * delta * u**2)
        chirp_v = chirp_u if v is u else np.exp(0.5j * k * delta * v**2)
        phased = pupil * np.outer(chirp_u, chirp_v)
        # cos_u is real: one real product over the interleaved real and imaginary parts
        left = (cos_u @ phased.view(float)).view(complex)
        quadrant = (left.real @ cos_v.T) ** 2 + (left.imag @ cos_v.T) ** 2
        intensity = quadrature @ quadrant @ quadrature.T
        # Parseval over one alias period (lambda z / du per side) of the full pupil grid
        window_energy = float(intensity.sum() * (du / lz) ** 2 / pupil_energy)
        if not cropped and window_energy < 0.99:
            raise ValueError(f"PSF window holds {window_energy:.4f} of the pupil energy (< 0.99)")
        return PSFKernel(samples=intensity / intensity.sum(), sample_pitch_mm=sample_pitch_mm,
                         defocus_distance_mm=z_local_mm, subpixels=sub,
                         pupil_samples=2 * max(u.size, v.size) - 1, window_energy=window_energy)

    return build


def _strip_weights(t: np.ndarray, strip_width_mm: float) -> list[tuple[float, np.ndarray]]:
    """Triangular partition of unity over the strip coordinate t. The first
    and last centres are t's extremes, where their weight is exactly 1."""
    t_min, t_max = float(t.min()), float(t.max())
    span = t_max - t_min
    if span <= strip_width_mm:
        return [((t_min + t_max) / 2.0, np.ones_like(t))]
    centers = np.linspace(t_min, t_max, int(math.ceil(span / strip_width_mm)) + 1)
    width = centers[1] - centers[0]
    return [(float(c), np.clip(1.0 - np.abs(t - c) / width, 0.0, None)) for c in centers]


def fftconvolve(in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
    """Linear convolution of a 2D field with an odd kernel, cropped to the
    field around the kernel centre (scipy's ``mode="same"``). Each axis is
    zero-padded to a power of two >= the full size, so nothing wraps.

    A stack of fields (leading axis) and a stack of as many kernels of one
    size give the sum of their convolutions: the products of the spectra
    are summed one pair at a time, and one inverse transform ends it."""
    (n0, n1), (k0, k1) = in1.shape[-2:], in2.shape[-2:]
    size = [1 << (n + k - 2).bit_length() for n, k in ((n0, k0), (n1, k1))]
    spectrum = sum(np.fft.rfft2(field, size) * np.fft.rfft2(kernel, size)
                   for field, kernel in zip(in1.reshape(-1, n0, n1), in2.reshape(-1, k0, k1),
                                            strict=True))
    out = np.fft.irfft2(spectrum, size)
    return out[k0 // 2:k0 // 2 + n0, k1 // 2:k1 // 2 + n1]


def apply_diffraction(field: ScalarField2D, plane: TiltedPlaneSpec,
                      cfg: OpticalSystemConfig, z_i_mm: float,
                      strip_width_mm: float | None = None) -> ScalarField2D:
    """Spatially varying convolution with the defocus PSF.

    The plane is partitioned into strips of approximately constant depth;
    each strip is convolved with the PSF of its central depth and the strips
    are blended with a linear cross-fade of one strip overlap. An untilted
    plane, or one strip wider than the plane, is a single strip at depth D.
    The strips' kernels come from one ``psf_builder``, so they share its
    depth-invariant parts. Each kernel is centred in the widest one, so
    ``fftconvolve`` sums the strips' spectra and runs one inverse transform.
    """
    X, Y = field.meshgrid()
    t = tilted_to_global(X, Y, plane)[2] - plane.axial_offset_mm
    grad = abs(math.sin(plane.theta_x_rad)) + abs(math.sin(plane.theta_y_rad))
    if strip_width_mm is None:
        # a width in depth t: a strip spans up to 0.02/sin(theta) of D (2.8% at 45 deg)
        strip_width_mm = (0.02 * plane.axial_offset_mm / grad) if grad > 0 else math.inf
    elif not strip_width_mm >= field.sample_pitch_mm:  # a depth vs the lateral pitch; NaN too
        raise ValueError(f"strip width must be at least the plane sample pitch "
                         f"({field.sample_pitch_mm!r} mm), got {strip_width_mm!r}")
    strips = _strip_weights(t, strip_width_mm)
    # kernels are cropped to the field: a far-defocus disk wider than it costs no more
    half_span = max(
        float(field.xs[-1] - field.xs[0]),
        float(field.ys[-1] - field.ys[0]),
    ) / 2.0 + field.sample_pitch_mm
    build_psf = psf_builder(cfg, z_i_mm, field.sample_pitch_mm, half_span)
    psfs = [build_psf(plane.axial_offset_mm + t_center) for t_center, _ in strips]
    for psf in psfs:
        log.debug("strip z=%.6g mm: %d taps, %d subpixels per pixel, %d pupil samples, "
                  "window energy %.6f", psf.defocus_distance_mm, psf.taps, psf.subpixels,
                  psf.pupil_samples, psf.window_energy)
    taps = max(psf.taps for psf in psfs)
    kernels = np.stack([np.pad(psf.samples, (taps - psf.taps) // 2) for psf in psfs])
    fields = np.stack([weight for _, weight in strips])
    fields *= field.values
    out = fftconvolve(fields, kernels)
    return ScalarField2D(np.clip(out, 0.0, None), field.xs, field.ys, field.sample_pitch_mm)


def reconstruct(eis: ElementalImageSet, plane: TiltedPlaneSpec, mode: str = "geometric",
                strip_width_mm: float | None = None,
                z_i_override_mm: float | None = None) -> Reconstruction:
    """Reconstruct the scene on a tilted plane, geometrically or with blur.

    Diffraction mode convolves the back-projected field strip-by-strip with
    the shared defocus PSF; ``strip_width_mm`` sets those strips, so
    geometric mode rejects it.
    """
    if mode not in ("geometric", "diffraction"):
        raise ValueError(f"mode must be 'geometric' or 'diffraction', got {mode!r}")
    if strip_width_mm is not None and mode != "diffraction":
        raise ValueError(f"a strip width ({strip_width_mm!r} mm) sets the strips of the "
                         "defocus blur; it needs mode='diffraction'")
    recon = backproject_geometric(eis, plane)
    if mode == "geometric":
        return recon
    cfg = eis.capture_config
    z_i = cfg.focus_mm(z_i_override_mm)
    blurred = apply_diffraction(recon.field, plane, cfg, z_i, strip_width_mm=strip_width_mm)
    return Reconstruction(field=blurred, mode="diffraction")
