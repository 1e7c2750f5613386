"""Back-projection of elemental images onto tilted planes, with optional
diffraction/defocus blur from the lenslet-pupil point-spread function."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .optics import OpticalSystemConfig, PlaneGrid, ScalarField2D, TiltedPlaneSpec


class PupilSamplingError(ValueError):
    """Raised when the pupil grid aliases the defocus phase."""

    def __init__(self, message: str, required_pitch_mm: float):
        super().__init__(message)
        self.required_pitch_mm = required_pitch_mm


class OutOfHalfSpaceError(ValueError):
    """Raised when a reconstruction plane reaches behind the lens array."""


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
        # fractional pixel indices; col 0 at smallest u, row 0 at largest v
        fc = (np.asarray(u, dtype=float) - cx) / self.pixel_pitch_mm + (self.pixels_x - 1) / 2.0
        fr = (self.pixels_y - 1) / 2.0 - (np.asarray(v, dtype=float) - cy) / self.pixel_pitch_mm
        img = self.images[p]
        c0 = np.floor(fc).astype(int)
        r0 = np.floor(fr).astype(int)
        wc = fc - c0
        wr = fr - r0
        out = np.zeros(np.broadcast(fc, fr).shape, dtype=float)
        for dr, dc in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rr = r0 + dr
            cc = c0 + dc
            inside = (rr >= 0) & (rr < self.pixels_y) & (cc >= 0) & (cc < self.pixels_x)
            w = (wr if dr else 1.0 - wr) * (wc if dc else 1.0 - wc)
            vals = img[q, np.clip(rr, 0, self.pixels_y - 1), np.clip(cc, 0, self.pixels_x - 1)]
            out += np.where(inside, w * vals, 0.0)
        return out


@dataclass
class PSFKernel:
    """Unit-sum intensity point-spread function sampled on the image plane."""

    samples: np.ndarray
    sample_pitch_mm: float
    defocus_distance_mm: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if np.any(self.samples < 0):
            raise ValueError("PSF samples must be nonnegative")
        total = self.samples.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"PSF must sum to 1, got {total!r}")
        if min(self.samples.shape) < 3:
            return  # a discrete delta has no border to check
        peak = self.samples.max()
        edge = max(
            self.samples[0, :].max(), self.samples[-1, :].max(),
            self.samples[:, 0].max(), self.samples[:, -1].max(),
        )
        if peak > 0 and edge >= 1e-6 * peak:
            raise ValueError(
                "PSF support reaches the kernel border "
                f"(edge/peak = {edge / peak:.3g}); enlarge the transform window"
            )


@dataclass
class Reconstruction:
    """Back-projected image on a tilted plane."""

    plane: TiltedPlaneSpec
    field: ScalarField2D
    mode: str


def _depth(x_t, y_t, plane: TiltedPlaneSpec) -> np.ndarray:
    """Axial depth of tilted-plane points, which must lie in front of the array."""
    depth = (plane.axial_offset_mm
             + np.asarray(x_t, dtype=float) * math.sin(plane.theta_x_rad)
             + np.asarray(y_t, dtype=float) * math.sin(plane.theta_y_rad))
    if np.any(depth <= 0):
        raise OutOfHalfSpaceError("plane reaches at or behind the lens array (depth <= 0)")
    return depth


def magnification(x_t, y_t, plane: TiltedPlaneSpec, g_mm: float):
    """Local lenslet magnification (depth of the plane point over the gap)."""
    if g_mm <= 0:
        raise ValueError("gap must be positive")
    out = _depth(x_t, y_t, plane) / g_mm
    return float(out) if out.ndim == 0 else out


def _backproject(eis: ElementalImageSet, xs: np.ndarray, ys: np.ndarray,
                 plane: TiltedPlaneSpec) -> np.ndarray:
    cfg = eis.capture_config
    g = cfg.gap_mm
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    depth = _depth(X, Y, plane)
    M = depth / g
    gx = X * math.cos(plane.theta_x_rad)  # global lateral coordinates of the plane samples
    gy = Y * math.cos(plane.theta_y_rad)
    axial2 = (depth + g) ** 2
    lateral_scale = (1.0 + 1.0 / M) ** 2
    q = np.arange(cfg.n)[:, None, None]
    total = np.zeros_like(X)
    for p in range(cfg.m):
        cpx, cpy = cfg.lenslet_center(p, q)
        u = cpx - (gx - cpx) / M
        v = cpy - (gy - cpy) / M
        denom = axial2 + ((gx - cpx) ** 2 + (gy - cpy) ** 2) * lateral_scale
        for part in eis.sample(p, q, u, v) / denom:  # fixed lexicographic (p, q) order
            total += part
    if not np.any(total):
        warnings.warn("no elemental image sees the reconstruction plane; field is zero")
    return total


def backproject_geometric(eis: ElementalImageSet, plane: TiltedPlaneSpec) -> Reconstruction:
    """Sum the distance-weighted back-projections of all elemental images."""
    xs, ys = plane.grid.xs(), plane.grid.ys()
    total = _backproject(eis, xs, ys, plane)
    field = ScalarField2D(total, xs, ys, plane.grid.sample_pitch_mm)
    return Reconstruction(plane=plane, field=field, mode="geometric")


def backproject_normal(eis: ElementalImageSet, z_mm: float, grid: PlaneGrid) -> ScalarField2D:
    """Normal-view back-projection at axial distance z (untilted plane)."""
    plane = TiltedPlaneSpec(0.0, 0.0, z_mm, grid)
    xs, ys = grid.xs(), grid.ys()
    return ScalarField2D(_backproject(eis, xs, ys, plane), xs, ys, grid.sample_pitch_mm)


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
                kernel_size: int = 512, pupil_sample_pitch_mm: float | None = None) -> PSFKernel:
    """Intensity PSF of one lenslet pupil with a quadratic defocus phase.

    The pupil (diameters = lens pitches) is multiplied by
    exp[(jk/2)(1/z_local - 1/z_i)(u^2 + v^2)], Fourier transformed, squared
    and normalized to unit sum; output frequencies map to image-plane
    lengths via x = lambda * z_local * f_u. A collimated system passes
    ``z_i_mm = inf`` (zero 1/z_i).
    """
    if kernel_size < 128 or kernel_size & (kernel_size - 1):
        raise ValueError("kernel_size must be a power of two >= 128")
    if z_local_mm <= 0:
        raise ValueError("z_local must be positive")
    ax, ay = cfg.pitch_x_mm, cfg.pitch_y_mm
    du = pupil_sample_pitch_mm if pupil_sample_pitch_mm is not None else max(ax, ay) / 128.0
    if kernel_size * du <= max(ax, ay):
        raise ValueError("pupil does not fit the sampled aperture plane; "
                         "increase kernel_size or pupil_sample_pitch")
    lam = cfg.wavelength_mm
    k = 2.0 * math.pi / lam
    inv_zi = 0.0 if not math.isfinite(z_i_mm) else 1.0 / z_i_mm
    delta = 1.0 / z_local_mm - inv_zi
    u_max = max(ax, ay) / 2.0
    # phase advance per pupil sample must stay below pi
    step = k * abs(delta) * u_max * du
    if step >= math.pi:
        required = math.pi / (k * abs(delta) * u_max)
        raise PupilSamplingError(
            f"defocus phase advances {step:.3g} rad per pupil sample; "
            f"required pupil_sample_pitch < {required:.6g} mm",
            required_pitch_mm=required,
        )
    coords = (np.arange(kernel_size) - kernel_size / 2) * du
    U, V = np.meshgrid(coords, coords, indexing="ij")
    pupil = _antialiased_pupil(U, V, ax, ay, du, cfg.aperture_shape)
    phased = pupil * np.exp(0.5j * k * delta * (U**2 + V**2))
    spectrum = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(phased)))
    intensity = np.abs(spectrum) ** 2
    intensity /= intensity.sum()
    out_pitch = lam * z_local_mm / (kernel_size * du)
    return PSFKernel(samples=intensity, sample_pitch_mm=out_pitch,
                     defocus_distance_mm=z_local_mm)


def impulse_kernel() -> PSFKernel:
    """Discrete delta kernel; convolution with it is the identity."""
    return PSFKernel(samples=np.ones((1, 1)), sample_pitch_mm=1.0, defocus_distance_mm=math.inf)


def resample_kernel(kernel: PSFKernel, target_pitch_mm: float,
                    max_half_width_mm: float | None = None) -> np.ndarray:
    """Bilinearly resample a PSF onto a grid of the given pitch (unit sum)."""
    n = kernel.samples.shape[0]
    half_extent = (n / 2) * kernel.sample_pitch_mm
    if max_half_width_mm is not None:
        half_extent = min(half_extent, max_half_width_mm)
    half_count = max(1, int(half_extent / target_pitch_mm))
    coords = np.arange(-half_count, half_count + 1) * target_pitch_mm
    fi = coords / kernel.sample_pitch_mm + n / 2
    i0 = np.clip(np.floor(fi).astype(int), 0, n - 2)
    w1 = np.clip(fi - i0, 0.0, 1.0)
    a = kernel.samples
    rows = (1 - w1)[:, None] * a[i0, :] + w1[:, None] * a[i0 + 1, :]
    out = rows[:, i0] * (1 - w1)[None, :] + rows[:, i0 + 1] * w1[None, :]
    out = np.clip(out, 0.0, None)
    total = out.sum()
    if total <= 0:
        raise ValueError("resampled PSF vanished; target grid too coarse")
    return out / total


def _auto_psf(cfg: OpticalSystemConfig, z_local_mm: float, z_i_mm: float,
              kernel_size: int, pupil_sample_pitch_mm: float | None) -> PSFKernel:
    """PSF with caller-chosen sampling, or refine automatically until the
    kernel support and aliasing constraints are met."""
    if pupil_sample_pitch_mm is not None:
        return defocus_psf(cfg, z_local_mm, z_i_mm, kernel_size=kernel_size,
                           pupil_sample_pitch_mm=pupil_sample_pitch_mm)
    du = max(cfg.pitch_x_mm, cfg.pitch_y_mm) / 256.0
    size = max(kernel_size, 512)
    attempts = 5
    for attempt in range(attempts):
        try:
            return defocus_psf(cfg, z_local_mm, z_i_mm, kernel_size=size,
                               pupil_sample_pitch_mm=du)
        except ValueError:  # includes PupilSamplingError
            # Re-raise in place and store no exception: a stored exception's
            # traceback would keep the failed attempt's arrays alive.
            if attempt == attempts - 1:
                raise
        du /= 2.0
        size = min(size * 2, 8192)


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


def apply_diffraction(field: ScalarField2D, plane: TiltedPlaneSpec,
                      cfg: OpticalSystemConfig, z_i_mm: float,
                      strip_width_mm: float | None = None,
                      kernel_size: int = 512,
                      pupil_sample_pitch_mm: float | None = None,
                      impulse: bool = False) -> ScalarField2D:
    """Spatially varying convolution with the defocus PSF.

    The plane is partitioned into strips of approximately constant depth;
    each strip is convolved with the PSF of its central depth and the strips
    are blended with a linear cross-fade of one strip overlap. With
    ``impulse=True`` the kernel is a discrete delta and the field is
    returned unchanged.
    """
    if impulse:
        return ScalarField2D(field.values.copy(), field.xs, field.ys, field.sample_pitch_mm)
    X, Y = field.meshgrid()
    t = X * math.sin(plane.theta_x_rad) + Y * math.sin(plane.theta_y_rad)
    grad = abs(math.sin(plane.theta_x_rad)) + abs(math.sin(plane.theta_y_rad))
    if strip_width_mm is None:
        # keep the depth variation below 2% per strip
        strip_width_mm = (0.02 * plane.axial_offset_mm / grad) if grad > 0 else math.inf
    elif strip_width_mm < field.sample_pitch_mm:
        raise ValueError("strip width must be at least the plane sample pitch")
    if grad == 0 or strip_width_mm == math.inf:
        strips = [(0.0, np.ones_like(field.values))]
    else:
        strips = _strip_weights(t, strip_width_mm)
    out = np.zeros_like(field.values)
    for t_center, weight in strips:
        z_local = plane.axial_offset_mm + t_center
        psf = _auto_psf(cfg, z_local, z_i_mm, kernel_size, pupil_sample_pitch_mm)
        half_span = max(
            float(field.xs[-1] - field.xs[0]),
            float(field.ys[-1] - field.ys[0]),
        ) / 2.0 + field.sample_pitch_mm
        kern = resample_kernel(psf, field.sample_pitch_mm, max_half_width_mm=half_span)
        out += fftconvolve(field.values * weight, kern, mode="same")
    return ScalarField2D(np.clip(out, 0.0, None), field.xs, field.ys, field.sample_pitch_mm)


def reconstruct(eis: ElementalImageSet, plane: TiltedPlaneSpec, mode: str = "geometric",
                strip_width_mm: float | None = None,
                z_i_override_mm: float | None = None,
                kernel_size: int = 512,
                pupil_sample_pitch_mm: float | None = None,
                impulse_psf: bool = False) -> Reconstruction:
    """Reconstruct the scene on a tilted plane, geometrically or with blur.

    Diffraction mode convolves the back-projected field strip-by-strip with
    the shared defocus PSF; with an impulse kernel it reduces exactly to the
    geometric mode.
    """
    if mode not in ("geometric", "diffraction"):
        raise ValueError(f"mode must be 'geometric' or 'diffraction', got {mode!r}")
    recon = backproject_geometric(eis, plane)
    if mode == "geometric":
        return recon
    cfg = eis.capture_config
    z_i = cfg.image_distance_mm() if z_i_override_mm is None else float(z_i_override_mm)
    blurred = apply_diffraction(recon.field, plane, cfg, z_i,
                                strip_width_mm=strip_width_mm,
                                kernel_size=kernel_size,
                                pupil_sample_pitch_mm=pupil_sample_pitch_mm,
                                impulse=impulse_psf)
    return Reconstruction(plane=plane, field=blurred, mode="diffraction")
