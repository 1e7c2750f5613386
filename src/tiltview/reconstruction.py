"""Back-projection of elemental images onto tilted planes, with optional
diffraction/defocus blur from the lenslet-pupil point-spread function."""

from __future__ import annotations

import logging
import math
import warnings
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
    of the image (largest y) and columns run along +x.
    """

    images: np.ndarray  # shape (m, n, pixels_y, pixels_x)
    pixel_pitch_mm: float
    capture_config: OpticalSystemConfig

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float)
        cfg = self.capture_config
        if self.images.ndim != 4 or self.images.shape[:2] != (cfg.m, cfg.n):
            raise ValueError(
                f"expected images of shape ({cfg.m}, {cfg.n}, pixels_y, pixels_x), "
                f"got {self.images.shape}"
            )
        if self.pixel_pitch_mm <= 0:
            raise ValueError("pixel pitch must be positive")
        if np.any(self.images < 0):
            raise ValueError("elemental intensities must be nonnegative")
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

    def sample(self, p: int, q, u, v):
        """Bilinear sample of image (p, q) at global display coordinates.

        Points outside the elemental image contribute zero. An index array
        ``q`` broadcasts against the coordinates, so ``q`` of shape
        (n, 1, 1) samples every image of row ``p`` at once.
        """
        cx, cy = self.capture_config.lenslet_center(p, q)
        du = np.asarray(u, dtype=float) - cx
        dv = np.asarray(v, dtype=float) - cy
        img = self.images[p]
        out = np.zeros(np.broadcast(du, dv).shape, dtype=float)
        for row, col, w, inside in bilinear_corners(du, dv, self.pixel_pitch_mm,
                                                    self.pixels_y, self.pixels_x):
            out += np.where(inside, w * img[q, row, col], 0.0)
        return out


def pixel_centers(pitch: float, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Display offsets from the image centre of the pixel centres, (du of each
    column, dv of each row): the inverse of ``bilinear_corners``."""
    return ((np.arange(cols) - (cols - 1) / 2.0) * pitch,
            ((rows - 1) / 2.0 - np.arange(rows)) * pitch)


def bilinear_corners(du, dv, pitch: float, rows: int, cols: int):
    """The elemental-pixel model: yields ``(row, col, weight, inside)`` for the
    4 pixels around display offsets (du, dv) from the image centre, with
    column 0 at the smallest u and row 0 at the largest v. ``row`` and ``col``
    are clipped to the image; ``inside`` marks the corners that lie in it.
    The fractional index is clipped to [-2, size + 1] first, which moves no
    corner into the image and keeps a far projection's index castable."""
    fc = np.clip(du / pitch + (cols - 1) / 2.0, -2.0, cols + 1.0)
    fr = np.clip((rows - 1) / 2.0 - dv / pitch, -2.0, rows + 1.0)
    c0, r0 = np.floor(fc).astype(int), np.floor(fr).astype(int)
    wc, wr = fc - c0, fr - r0
    for dr, dc in ((0, 0), (0, 1), (1, 0), (1, 1)):
        rr, cc = r0 + dr, c0 + dc
        inside = (rr >= 0) & (rr < rows) & (cc >= 0) & (cc < cols)
        yield (np.clip(rr, 0, rows - 1), np.clip(cc, 0, cols - 1),
               (wr if dr else 1.0 - wr) * (wc if dc else 1.0 - wc), inside)


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
    each can reach. Every term left out is an exact 0.0, so the sum is the
    same, bit for bit, as over all lenslets and samples in (p, q) order.
    """
    cfg = eis.capture_config
    g = cfg.gap_mm
    xs, ys = plane.grid.xs(), plane.grid.ys()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    gx, gy, depth = tilted_to_global(X, Y, plane)
    M = depth / g
    axial2 = (depth + g) ** 2
    lateral_scale = (1.0 + 1.0 / M) ** 2
    m_max, pitch = float(M.max()), eis.pixel_pitch_mm
    cx, cy = cfg.lenslet_centers()
    x_lo, x_hi = _reach(gx[:, 0], cx, m_max * ((eis.pixels_x + 1) / 2.0 + 1.0) * pitch)
    y_lo, y_hi = _reach(gy[0, :], cy, m_max * ((eis.pixels_y + 1) / 2.0 + 1.0) * pitch)
    rows = np.flatnonzero(x_hi > x_lo)
    cols = np.flatnonzero(y_hi > y_lo)
    log.debug("back-projection: %d of %d lenslets reach the plane",
              rows.size * cols.size, cfg.m * cfg.n)
    total = np.zeros_like(X)
    if cols.size:
        q = cols[:, None, None]
        ys_reach = slice(y_lo[cols].min(), y_hi[cols].max())
        for p in rows:
            s = (slice(x_lo[p], x_hi[p]), ys_reach)
            cpx, cpy = cfg.lenslet_center(p, q)
            gxs, gys, Ms = gx[s], gy[s], M[s]
            u = cpx - (gxs - cpx) / Ms
            v = cpy - (gys - cpy) / Ms
            denom = axial2[s] + ((gxs - cpx) ** 2 + (gys - cpy) ** 2) * lateral_scale[s]
            for part in eis.sample(p, q, u, v) / denom:  # fixed lexicographic (p, q) order
                total[s] += part
    if not np.any(total):
        warnings.warn("no elemental image sees the reconstruction plane; field is zero")
    field = ScalarField2D(total, xs, ys, plane.grid.sample_pitch_mm)
    return Reconstruction(plane=plane, field=field, mode="geometric")


def _antialiased_pupil(U: np.ndarray, V: np.ndarray, ax: float, ay: float,
                       du: float, shape: str, subsamples: int = 8) -> np.ndarray:
    """Aperture transmission with area-weighted rim samples.

    A hard-thresholded rim aliases the transform badly enough to lift the
    kernel floor above the support tolerance; fractional edge coverage
    removes that artifact.
    """

    def inside(u, v):
        if shape == "ellipse":
            return (u / (ax / 2.0)) ** 2 + (v / (ay / 2.0)) ** 2 <= 1.0
        return (np.abs(u) <= ax / 2.0) & (np.abs(v) <= ay / 2.0)

    pupil = inside(U, V).astype(float)
    if shape == "ellipse":
        r = np.sqrt((U / (ax / 2.0)) ** 2 + (V / (ay / 2.0)) ** 2)
        band = np.abs(r - 1.0) < 2.0 * du / min(ax, ay)
    else:
        band = ((np.abs(np.abs(U) - ax / 2.0) < du) & (np.abs(V) <= ay / 2.0 + du)) | \
               ((np.abs(np.abs(V) - ay / 2.0) < du) & (np.abs(U) <= ax / 2.0 + du))
    if np.any(band):
        off = ((np.arange(subsamples) + 0.5) / subsamples - 0.5) * du
        ou, ov = np.meshgrid(off, off, indexing="ij")
        ub = U[band][:, None] + ou.ravel()[None, :]
        vb = V[band][:, None] + ov.ravel()[None, :]
        pupil[band] = inside(ub, vb).mean(axis=1)
    return pupil


def defocus_psf(cfg: OpticalSystemConfig, z_local_mm: float, z_i_mm: float,
                sample_pitch_mm: float, max_half_width_mm: float = math.inf) -> PSFKernel:
    """Intensity PSF of one lenslet pupil with a quadratic defocus phase,
    integrated over the pixels of a plane grid of the given pitch.

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
    """
    if z_local_mm <= 0:
        raise ValueError("z_local must be positive")
    if sample_pitch_mm <= 0:
        raise ValueError("sample pitch must be positive")
    ax, ay = cfg.pitch_x_mm, cfg.pitch_y_mm
    a = max(ax, ay)
    lz = cfg.wavelength_mm * z_local_mm
    inv_zi = 0.0 if not math.isfinite(z_i_mm) else 1.0 / z_i_mm
    delta = 1.0 / z_local_mm - inv_zi
    k = 2.0 * math.pi / cfg.wavelength_mm
    half = a / 2.0 * abs(delta) * z_local_mm + 15 * 1.22 * lz / min(ax, ay)
    cropped = half > max_half_width_mm
    taps = 2 * max(1, math.ceil(min(half, max_half_width_mm) / sample_pitch_mm)) + 1
    sub = math.ceil(sample_pitch_mm * 2.0 * a / lz) + 2
    du = min(math.pi / 4.0 / (k * abs(delta) * a / 2.0) if delta else math.inf,
             lz / (4.0 * half), a / 256.0)
    nodes, weights = np.polynomial.legendre.leggauss(sub)
    x = ((np.arange(taps) - taps // 2)[:, None] + nodes / 2.0).ravel() * sample_pitch_mm
    x_half = x[x.size // 2:]  # x >= 0: from 0 if x.size is odd
    # pixel i integrates sub-pixel n, whose field is at |x_n| = x_half[mirror[n]]
    mirror = np.abs(2 * np.arange(x.size) - (x.size - 1)) // 2
    quadrature = np.zeros((taps, x_half.size))
    np.add.at(quadrature, (np.arange(x.size) // sub, mirror),
              np.tile(weights, taps) * sample_pitch_mm / 2.0)

    def cosine_dft(width):
        u = np.arange(math.ceil(width / (2.0 * du)) + 2) * du  # reaches past the antialiased rim
        weight = np.where(u > 0, 2.0, 1.0)
        chirp = np.exp(0.5j * k * delta * u**2)
        return u, weight, weight * chirp * np.cos(2.0 * math.pi / lz * np.outer(x_half, u))

    u, wu, Ax = cosine_dft(ax)
    v, wv, Ay = cosine_dft(ay)
    U, V = np.meshgrid(u, v, indexing="ij")
    pupil = _antialiased_pupil(U, V, ax, ay, du, cfg.aperture_shape)
    field = Ax @ pupil @ Ay.T
    quadrant = field.real**2 + field.imag**2
    intensity = quadrature @ quadrant @ quadrature.T
    # Parseval over one alias period (lambda z / du per side) of the full pupil grid
    window_energy = float(intensity.sum() * (du / lz) ** 2 / (wu @ pupil**2 @ wv))
    if not cropped and window_energy < 0.99:
        raise ValueError(f"PSF window holds {window_energy:.4f} of the pupil energy (< 0.99)")
    return PSFKernel(samples=intensity / intensity.sum(), sample_pitch_mm=sample_pitch_mm,
                     defocus_distance_mm=z_local_mm, subpixels=sub,
                     pupil_samples=2 * max(u.size, v.size) - 1, window_energy=window_energy)


def _strip_weights(t: np.ndarray, strip_width_mm: float) -> list[tuple[float, np.ndarray]]:
    """Triangular partition of unity over the strip coordinate t."""
    t_min, t_max = float(t.min()), float(t.max())
    span = t_max - t_min
    if span <= strip_width_mm:
        return [((t_min + t_max) / 2.0, np.ones_like(t))]
    count = int(math.ceil(span / strip_width_mm)) + 1
    centers = np.linspace(t_min, t_max, count)
    width = centers[1] - centers[0]
    out = []
    for i, c in enumerate(centers):
        w = np.clip(1.0 - np.abs(t - c) / width, 0.0, None)
        if i == 0:
            w = np.where(t <= c, 1.0, w)
        if i == count - 1:
            w = np.where(t >= c, 1.0, w)
        out.append((float(c), w))
    return out


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
    """
    X, Y = field.meshgrid()
    t = tilted_to_global(X, Y, plane)[2] - plane.axial_offset_mm
    grad = abs(math.sin(plane.theta_x_rad)) + abs(math.sin(plane.theta_y_rad))
    if strip_width_mm is None:
        # keep the depth variation below 2% per strip
        strip_width_mm = (0.02 * plane.axial_offset_mm / grad) if grad > 0 else math.inf
    elif strip_width_mm < field.sample_pitch_mm:
        raise ValueError("strip width must be at least the plane sample pitch")
    strips = _strip_weights(t, strip_width_mm)
    # kernels are cropped to the field: a far-defocus disk wider than it costs no more
    half_span = max(
        float(field.xs[-1] - field.xs[0]),
        float(field.ys[-1] - field.ys[0]),
    ) / 2.0 + field.sample_pitch_mm
    out = np.zeros_like(field.values)
    for t_center, weight in strips:
        z_local = plane.axial_offset_mm + t_center
        psf = defocus_psf(cfg, z_local_mm=z_local, z_i_mm=z_i_mm,
                          sample_pitch_mm=field.sample_pitch_mm, max_half_width_mm=half_span)
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
    the shared defocus PSF.
    """
    if mode not in ("geometric", "diffraction"):
        raise ValueError(f"mode must be 'geometric' or 'diffraction', got {mode!r}")
    recon = backproject_geometric(eis, plane)
    if mode == "geometric":
        return recon
    cfg = eis.capture_config
    z_i = cfg.image_distance_mm() if z_i_override_mm is None else float(z_i_override_mm)
    blurred = apply_diffraction(recon.field, plane, cfg, z_i, strip_width_mm=strip_width_mm)
    return Reconstruction(plane=plane, field=blurred, mode="diffraction")
