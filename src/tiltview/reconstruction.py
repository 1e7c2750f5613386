"""Back-projection of elemental images onto tilted planes, with optional
diffraction/defocus blur from the lenslet-pupil point-spread function."""

from __future__ import annotations

import logging
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .optics import (  # noqa: F401 - OutOfHalfSpaceError is re-exported
    OpticalSystemConfig,
    OutOfHalfSpaceError,
    ScalarField2D,
    TiltedPlaneSpec,
    tilted_to_global,
)

log = logging.getLogger(__name__)


@dataclass
class ElementalImageSet:
    """m x n grid of elemental images with a shared physical pixel pitch.

    ``images[p][q]`` is a 2D array indexed ``[row, col]``; row 0 is the top
    of the image (largest y) and columns run along +x. A set loaded from a
    manifest holds its 16-bit codes as ``uint16`` (2 bytes per pixel); any
    other input, such as a capture, is held as float64. The back-projection
    copies only the images of the lenslets it visits (``padded``) and
    converts to float only the pixels it reads from them (``gather``).
    """

    images: np.ndarray  # shape (m, n, pixels_y, pixels_x)
    pixel_pitch_mm: float
    capture_config: OpticalSystemConfig

    def __post_init__(self):
        images = np.asarray(self.images)
        self.images = images if images.dtype == np.uint16 else images.astype(float, copy=False)
        cfg = self.capture_config
        if self.images.ndim != 4 or self.images.shape[:2] != (cfg.m, cfg.n):
            raise ValueError(
                f"expected images of shape ({cfg.m}, {cfg.n}, pixels_y, pixels_x), "
                f"got {self.images.shape}"
            )
        if not (math.isfinite(self.pixel_pitch_mm) and self.pixel_pitch_mm > 0):
            raise ValueError(f"pixel pitch must be positive and finite, "
                             f"got {self.pixel_pitch_mm!r}")
        if self.images.dtype != np.uint16:  # codes are finite and nonnegative
            # NaN fails both comparisons: min and max propagate it
            lo, hi = self.images.min(), self.images.max()
            if not (lo >= 0 and hi < math.inf):
                raise ValueError(f"elemental intensities must be finite and nonnegative, "
                                 f"got values from {float(lo)} to {float(hi)}")
        if self.pixels_x * self.pixel_pitch_mm > cfg.pitch_x_mm * (1 + 1e-12):
            raise ValueError("elemental image wider than the lens pitch in x")
        if self.pixels_y * self.pixel_pitch_mm > cfg.pitch_y_mm * (1 + 1e-12):
            raise ValueError("elemental image wider than the lens pitch in y")

    @property
    def pixels_x(self) -> int:
        return self.images.shape[3]

    @property
    def pixels_y(self) -> int:
        return self.images.shape[2]

    def padded(self, p: slice, q: slice) -> np.ndarray:
        """Copies of the images of lenslet rows ``p`` and columns ``q``
        (slices), shape (rows of p, columns of q, pixels_y + 5, pixels_x + 5),
        each inside the zero border that ``gather`` reads for a corner
        outside it. They keep the set's dtype: uint16 codes stay 2 bytes a
        pixel."""
        images = self.images[p, q]
        rows, cols = self.pixels_y, self.pixels_x
        out = np.zeros(images.shape[:2] + (rows + 2 * _BORDER + 1, cols + 2 * _BORDER + 1),
                       dtype=images.dtype)
        out[..., _BORDER:_BORDER + rows, _BORDER:_BORDER + cols] = images
        return out


#: The fractional pixel index is clipped to [-_BORDER, size - 1 + _BORDER],
#: so the corners around it lie at most _BORDER pixels before the first
#: pixel and _BORDER + 1 past the last: the zero border of ``padded``.
_BORDER = 2


def pixel_index(offset, pitch: float, size: int, axis: str) -> np.ndarray:
    """The elemental-pixel convention, one axis at a time: the fractional
    index along ``axis`` of display offsets from the image centre, with
    column 0 at the smallest u (``"col"``, offsets du) and row 0 at the
    largest v (``"row"``, offsets dv). It is clipped to [-2, size + 1],
    which moves no corner into the image and keeps a far projection's index
    castable; an offset too far for the float range is such a projection."""
    with np.errstate(over="ignore"):
        index = ((size - 1) / 2.0 - offset / pitch if axis == "row"
                 else offset / pitch + (size - 1) / 2.0)
        return np.clip(index, -_BORDER, size - 1.0 + _BORDER)


def pixel_centers(pitch: float, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Display offsets from the image centre of the pixel centres, (du of each
    column, dv of each row): the inverse of ``pixel_index``."""
    return ((np.arange(cols) - (cols - 1) / 2.0) * pitch,
            ((rows - 1) / 2.0 - np.arange(rows)) * pitch)


def bilinear_corners(du, dv, pitch: float, rows: int, cols: int):
    """Yields ``(row, col, weight, inside)`` for the 4 pixels around display
    offsets (du, dv) from the image centre (``pixel_index``). ``row`` and
    ``col`` are clipped to the image; ``inside`` marks the corners that lie
    in it."""
    fr, fc = pixel_index(dv, pitch, rows, "row"), pixel_index(du, pitch, cols, "col")
    c0, r0 = np.floor(fc).astype(int), np.floor(fr).astype(int)
    wc, wr = fc - c0, fr - r0
    for dr, dc in ((0, 0), (0, 1), (1, 0), (1, 1)):
        rr, cc = r0 + dr, c0 + dc
        inside = (rr >= 0) & (rr < rows) & (cc >= 0) & (cc < cols)
        yield (np.clip(rr, 0, rows - 1), np.clip(cc, 0, cols - 1),
               (wr if dr else 1.0 - wr) * (wc if dc else 1.0 - wc), inside)


def corner(padded: np.ndarray, offset, pitch: float, axis: str):
    """One axis of the bilinear corners in the images of a ``padded`` stack
    around display offsets from the image centre (``pixel_index``):
    ``(at, w, 1 - w)``, with ``at`` the flat offset within an image of the
    lower corner along ``axis`` and ``w`` the weight of the upper one."""
    height, width = padded.shape[-2:]
    size, stride = (height, width) if axis == "row" else (width, 1)
    index = pixel_index(offset, pitch, size - 2 * _BORDER - 1, axis)
    lower = np.floor(index)
    w = index - lower
    return (lower.astype(np.intp) + _BORDER) * stride, w, 1.0 - w


def gather(padded: np.ndarray, k: int, row, col) -> np.ndarray:
    """Bilinear sample of image ``k`` of a ``padded`` stack (its leading axes
    flattened) at the corners ``row`` and ``col`` that ``corner`` gives
    along each axis; the two broadcast against each other. A corner outside
    the image reads the zero border, so it adds an exact 0.0, as a masked
    sum would."""
    height, width = padded.shape[-2:]
    (r, wr, vr), (c, wc, vc) = row, col
    # flat index of corner (r0, c0) of image k; corners (r0, c0 + 1),
    # (r0 + 1, c0) and (r0 + 1, c0 + 1) are 1, width and width + 1 further on
    at = r + c + k * height * width
    flat = padded.reshape(-1)
    return (vr * vc * flat.take(at) + vr * wc * flat[1:].take(at)
            + wr * vc * flat[width:].take(at) + wr * wc * flat[width + 1:].take(at))


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

    plane: TiltedPlaneSpec
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
    terms of the pixel distance once per plane. The images of the visited
    lenslets are copied once into a zero-padded stack
    (``ElementalImageSet.padded``) and sampled with ``gather``.
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
    log.debug("back-projection: %d of %d lenslets reach the plane, over %d "
              "(lenslet, sample) pairs", rows.size * cols.size, cfg.m * cfg.n,
              int((x_hi - x_lo).sum()) * int((y_hi - y_lo).sum()))
    total = np.zeros_like(X)
    if rows.size and cols.size:
        # a lenslet between two visited ones that reaches no sample, as where the
        # windows are narrower than the sample pitch, is copied but not visited
        stack = eis.padded(slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        stride = cols[-1] + 1 - cols[0]
        axial, spread = cfg.pixel_distance_terms(depth)
        # the plane samples any visited row (x) or column (y) reaches
        x0, x1 = x_lo[rows[0]], x_hi[rows[-1]]
        y0, y1 = y_lo[cols[0]], y_hi[cols[-1]]
        row_corners, dy_sq = [], []
        for q in cols:
            ys_q = slice(y_lo[q], y_hi[q])
            dy = gy[0, ys_q] - cy[q]
            v = cy[q] - dy / M[x0:x1, ys_q]
            row_corners.append(corner(stack, v - cy[q], pitch, "row"))
            dy_sq.append(dy ** 2)
        for p in rows:
            xs_p = slice(x_lo[p], x_hi[p])
            dx = gx[xs_p, 0] - cx[p]
            u = cx[p] - dx[:, None] / M[xs_p, y0:y1]
            col_corners = corner(stack, u - cx[p], pitch, "col")
            dx_sq = dx[:, None] ** 2
            in_x = slice(x_lo[p] - x0, x_hi[p] - x0)
            for j, q in enumerate(cols):  # fixed lexicographic (p, q) order
                s = (xs_p, slice(y_lo[q], y_hi[q]))
                in_y = slice(y_lo[q] - y0, y_hi[q] - y0)
                values = gather(stack, (p - rows[0]) * stride + q - cols[0],
                                [a[in_x] for a in row_corners[j]],
                                [a[:, in_y] for a in col_corners])
                total[s] += values / (axial[s] + (dx_sq + dy_sq[j]) * spread[s])
    if not np.any(total):
        warnings.warn("no elemental image sees the reconstruction plane; field is zero")
    field = ScalarField2D(total, xs, ys, plane.grid.sample_pitch_mm)
    return Reconstruction(plane=plane, field=field, mode="geometric")


def _antialiased_pupil(U: np.ndarray, V: np.ndarray, ax: float, ay: float,
                       du: float, subsamples: int = 8) -> np.ndarray:
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
    band = np.abs(r - 1.0) < 2.0 * du / min(ax, ay)
    if np.any(band):
        off = ((np.arange(subsamples) + 0.5) / subsamples - 0.5) * du
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
    weighted once, the others twice) and x, y >= 0, and is mirrored.

    A matrix DFT has no wrap-around; what it can miss is energy outside the
    window. ``window_energy`` is the Parseval share of the pupil energy that
    the window holds, and an uncropped window must hold at least 0.99 of it.

    The parts that do not depend on the depth are built once per value of
    what they do depend on and shared by the builder's later calls: the
    pupil quadrant and its Parseval denominator per pupil pitch du, the
    Gauss-Legendre rule per S and the pixel quadrature per (taps, S). They
    live as long as the builder, so ``apply_diffraction`` makes one per call.
    """
    if sample_pitch_mm <= 0:
        raise ValueError("sample pitch must be positive")
    ax, ay = cfg.pitch_x_mm, cfg.pitch_y_mm
    a = max(ax, ay)
    inv_zi = 0.0 if not math.isfinite(z_i_mm) else 1.0 / z_i_mm
    k = 2.0 * math.pi / cfg.wavelength_mm
    pupils, rules, quadratures = {}, {}, {}

    def pupil_quadrant(du):
        if du not in pupils:
            # u, v >= 0 reach past the antialiased rim; the u = 0 column is weighted once
            u = np.arange(math.ceil(ax / (2.0 * du)) + 2) * du
            v = np.arange(math.ceil(ay / (2.0 * du)) + 2) * du
            wu, wv = np.where(u > 0, 2.0, 1.0), np.where(v > 0, 2.0, 1.0)
            U, V = np.meshgrid(u, v, indexing="ij")
            pupil = _antialiased_pupil(U, V, ax, ay, du)
            pupils[du] = u, wu, v, wv, pupil, wu @ pupil**2 @ wv
        return pupils[du]

    def pixel_quadrature(taps, sub):
        if (taps, sub) not in quadratures:
            if sub not in rules:
                rules[sub] = np.polynomial.legendre.leggauss(sub)
            nodes, weights = rules[sub]
            x = ((np.arange(taps) - taps // 2)[:, None] + nodes / 2.0).ravel() * sample_pitch_mm
            x_half = x[x.size // 2:]  # x >= 0: from 0 if x.size is odd
            # pixel i integrates sub-pixel n, whose field is at |x_n| = x_half[mirror[n]]
            mirror = np.abs(2 * np.arange(x.size) - (x.size - 1)) // 2
            quadrature = np.zeros((taps, x_half.size))
            np.add.at(quadrature, (np.arange(x.size) // sub, mirror),
                      np.tile(weights, taps) * sample_pitch_mm / 2.0)
            quadratures[taps, sub] = x_half, quadrature
        return quadratures[taps, sub]

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
        u, wu, v, wv, pupil, pupil_energy = pupil_quadrant(du)
        x_half, quadrature = pixel_quadrature(taps, sub)

        def cosine_dft(u, weight):
            chirp = np.exp(0.5j * k * delta * u**2)
            return weight * chirp * np.cos(2.0 * math.pi / lz * np.outer(x_half, u))

        field = cosine_dft(u, wu) @ pupil @ cosine_dft(v, wv).T
        quadrant = field.real**2 + field.imag**2
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
    zero-padded to a power of two >= the full size, so nothing wraps."""
    full = [a + b - 1 for a, b in zip(in1.shape, in2.shape)]
    size = [1 << (s - 1).bit_length() for s in full]
    out = np.fft.irfft2(np.fft.rfft2(in1, size) * np.fft.rfft2(in2, size), size)
    (n0, n1), (k0, k1) = in1.shape, in2.shape
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
    depth-invariant parts.
    """
    X, Y = field.meshgrid()
    t = tilted_to_global(X, Y, plane)[2] - plane.axial_offset_mm
    grad = abs(math.sin(plane.theta_x_rad)) + abs(math.sin(plane.theta_y_rad))
    if strip_width_mm is None:
        # keep the depth variation below 2% per strip
        strip_width_mm = (0.02 * plane.axial_offset_mm / grad) if grad > 0 else math.inf
    elif not strip_width_mm >= field.sample_pitch_mm:  # NaN fails too
        raise ValueError(f"strip width must be at least the plane sample pitch "
                         f"({field.sample_pitch_mm!r} mm), got {strip_width_mm!r}")
    strips = _strip_weights(t, strip_width_mm)
    # kernels are cropped to the field: a far-defocus disk wider than it costs no more
    half_span = max(
        float(field.xs[-1] - field.xs[0]),
        float(field.ys[-1] - field.ys[0]),
    ) / 2.0 + field.sample_pitch_mm
    build_psf = psf_builder(cfg, z_i_mm, field.sample_pitch_mm, half_span)
    out = np.zeros_like(field.values)
    for t_center, weight in strips:
        z_local = plane.axial_offset_mm + t_center
        psf = build_psf(z_local)
        log.debug("strip z=%.6g mm: %d taps, %d subpixels per pixel, %d pupil samples, "
                  "window energy %.6f", z_local, psf.taps, psf.subpixels,
                  psf.pupil_samples, psf.window_energy)
        out += fftconvolve(field.values * weight, psf.samples)
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
    return Reconstruction(plane=plane, field=blurred, mode="diffraction")
