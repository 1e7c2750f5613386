"""Spot-size and field-of-view analysis of an on-axis point source.

The visualized point source on a tilted plane is the sum of one tilted
Gaussian contribution per lenslet; the spot size is the normalized radial
second moment of that intensity, and the field of view is the tilt range
over which the spot stays below ``threshold_ratio`` times its minimum.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .optics import BeamParameters, OpticalSystemConfig, PlaneGrid, ScalarField2D


class DegenerateFieldError(ValueError):
    """Raised when a moment is requested of an all-zero field."""


@dataclass(frozen=True)
class ResolutionCurve:
    """Radial spot extent versus tilt angle for one optical configuration."""

    samples: tuple[tuple[float, float, float], ...]  # (theta_x_deg, theta_y_deg, extent_mm)
    config_digest: str

    def swept_angles(self) -> np.ndarray:
        tx = np.array([s[0] for s in self.samples])
        ty = np.array([s[1] for s in self.samples])
        return tx if np.ptp(tx) >= np.ptp(ty) else ty

    def extents(self) -> np.ndarray:
        return np.array([s[2] for s in self.samples])


@dataclass(frozen=True)
class FovResult:
    """Tilt range within which the spot stays below threshold_ratio x minimum.

    ``fov_negative_deg`` / ``fov_positive_deg`` are ``None`` when the curve
    never crosses the threshold on that side (open-ended).
    """

    threshold_ratio: float
    min_extent_mm: float
    fov_negative_deg: float | None
    fov_positive_deg: float | None


def _float_if_scalar(value):
    return float(value) if np.ndim(value) == 0 else value


def lenslet_tilt(p, q, D_mm: float, theta_x_deg: float, theta_y_deg: float,
                 cfg: OpticalSystemConfig):
    """Tilt of lenslet (p, q)'s beam relative to the viewing direction, degrees.

    Broadcasts over index arrays ``p`` and ``q``; scalar indices give floats.
    """
    if not 0 < D_mm < math.inf:
        raise ValueError(f"source depth must be positive and finite, got {D_mm!r}")
    cx, cy = cfg.lenslet_centers()
    tpx = theta_x_deg - np.degrees(np.arctan(cx[p] / D_mm))
    tpy = theta_y_deg - np.degrees(np.arctan(cy[q] / D_mm))
    return _float_if_scalar(tpx), _float_if_scalar(tpy)


def point_source_intensity(x_t, y_t, p, q, D_mm: float,
                           cfg: OpticalSystemConfig, beam: BeamParameters,
                           theta_x_deg: float = 0.0, theta_y_deg: float = 0.0):
    """Contribution of lenslet (p, q) to the spot intensity at (x_t, y_t).

    A tilted Gaussian centered on the image point, weighted by the
    inverse-square pixel distance so that the central lenslet reproduces the
    untilted on-axis beam intensity exactly. Broadcasts over array inputs,
    including index arrays ``p`` and ``q``: with ``q`` of shape (n, 1, 1) and
    2D coordinates, the result holds one plane per lenslet of row ``p``.
    """
    tpx_deg, tpy_deg = lenslet_tilt(p, q, D_mm, theta_x_deg, theta_y_deg, cfg)
    tpx, tpy = np.radians(tpx_deg), np.radians(tpy_deg)
    x_t = np.asarray(x_t, dtype=float)
    y_t = np.asarray(y_t, dtype=float)
    z_loc = D_mm + x_t * np.sin(tpx) + y_t * np.sin(tpy)
    wx = beam.width_x(z_loc)
    wy = beam.width_y(z_loc)
    cx, cy = cfg.lenslet_centers()  # the source point is (0, 0, D)
    weight = (D_mm + cfg.gap_mm) ** 2 / cfg.pixel_distance_sq(0.0 - cx[p], 0.0 - cy[q], D_mm)
    amp = 2.0 / (math.pi * wx * wy) * weight
    arg = (x_t * np.cos(tpx)) ** 2 / wx**2 + (y_t * np.cos(tpy)) ** 2 / wy**2
    return _float_if_scalar(amp * np.exp(-2.0 * arg))


def radial_extent(field: ScalarField2D) -> float:
    """Normalized radial second moment sqrt(<x^2 + y^2>) of an intensity field.

    Invariant under uniform intensity rescaling.
    """
    total = field.values.sum()
    if total <= 0:
        raise DegenerateFieldError("radial extent is undefined for an all-zero field")
    X, Y = field.meshgrid()
    return float(np.sqrt(((X**2 + Y**2) * field.values).sum() / total))


#: Gauss-Hermite rule for each lenslet's Gaussian, one axis: nodes a and
#: weights multiplied by e^(a^2), so that they integrate the Gaussian itself.
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(8)
_GH_WEIGHTS = _GH_WEIGHTS * np.exp(_GH_NODES**2)


def spot_extent(theta_x_deg: float, theta_y_deg: float, D_mm: float,
                cfg: OpticalSystemConfig, beam: BeamParameters) -> float:
    """Normalized radial second moment of the spot, without a plane grid.

    Each lenslet's contribution is integrated by an 8x8 Gauss-Hermite rule
    whose nodes are scaled to that lenslet's Gaussian at the source depth,
    x = w_x(D) a / (sqrt(2) cos t_px) and likewise for y. The rule is exact
    for a constant beam width and keeps the width's change with depth across
    the tilted spot, the only remaining factor of the integrand.
    """
    p = np.arange(cfg.m)[:, None, None, None]
    q = np.arange(cfg.n)[None, :, None, None]
    tpx, tpy = lenslet_tilt(p, q, D_mm, theta_x_deg, theta_y_deg, cfg)
    sx = beam.width_x(D_mm) / (math.sqrt(2.0) * np.cos(np.radians(tpx)))
    sy = beam.width_y(D_mm) / (math.sqrt(2.0) * np.cos(np.radians(tpy)))
    x = sx * _GH_NODES[:, None]
    y = sy * _GH_NODES[None, :]
    mass = (sx * sy * _GH_WEIGHTS[:, None] * _GH_WEIGHTS[None, :]
            * point_source_intensity(x, y, p, q, D_mm, cfg, beam, theta_x_deg, theta_y_deg))
    return float(np.sqrt((mass * (x**2 + y**2)).sum() / mass.sum()))


def scan_resolution(cfg: OpticalSystemConfig, D_mm: float, axis: str,
                    theta_min_deg: float, theta_max_deg: float, steps: int,
                    z_i_override_mm: float | None = None,
                    plane_grid: PlaneGrid | None = None) -> ResolutionCurve:
    """Radial spot extent versus tilt angle along one scan axis.

    Each step's extent comes from ``spot_extent``. ``plane_grid`` is
    ignored; it is accepted so that existing callers keep working.
    """
    if steps < 3:
        raise ValueError(f"scan needs at least 3 steps, got {steps}")
    if theta_min_deg >= theta_max_deg:
        raise ValueError("scan range must satisfy theta_min < theta_max")
    if max(abs(theta_min_deg), abs(theta_max_deg)) > 60.0:
        raise ValueError("scan range must stay within +/-60 degrees")
    if axis not in ("x", "y", "diagonal"):
        raise ValueError(f"scan axis must be 'x', 'y' or 'diagonal', got {axis!r}")
    beam = BeamParameters.from_config(cfg, z_i_override_mm=z_i_override_mm)
    thetas = np.linspace(theta_min_deg, theta_max_deg, steps)
    samples = []
    for theta in thetas:
        tx = float(theta) if axis in ("x", "diagonal") else 0.0
        ty = float(theta) if axis in ("y", "diagonal") else 0.0
        samples.append((tx, ty, spot_extent(tx, ty, D_mm, cfg, beam)))
    return ResolutionCurve(samples=tuple(samples), config_digest=cfg.digest())


def check_threshold_ratio(threshold_ratio: float) -> None:
    """Raise ``ValueError`` unless the ratio is a finite number above 1."""
    if not 1.0 < threshold_ratio < math.inf:
        raise ValueError(
            f"threshold_ratio must be a finite number above 1, got {threshold_ratio!r}")


def extract_fov(curve: ResolutionCurve, threshold_ratio: float = 1.5) -> FovResult:
    """First outward crossings of threshold_ratio x the curve minimum.

    Crossings are located by linear interpolation between bracketing
    samples; a side that never crosses is reported as open-ended (None).
    """
    check_threshold_ratio(threshold_ratio)
    if not curve.samples:
        raise ValueError("cannot extract a field of view from an empty curve")
    angles = curve.swept_angles()
    extents = curve.extents()
    i_min = int(np.argmin(extents))
    threshold = threshold_ratio * extents[i_min]

    def first_crossing(order) -> float | None:
        prev = i_min
        for j in order:
            if extents[j] >= threshold and extents[j] > extents[prev]:
                t = (threshold - extents[prev]) / (extents[j] - extents[prev])
                return float(angles[prev] + t * (angles[j] - angles[prev]))
            prev = j
        return None

    pos = first_crossing(range(i_min + 1, len(extents)))
    neg = first_crossing(range(i_min - 1, -1, -1))
    return FovResult(
        threshold_ratio=threshold_ratio,
        min_extent_mm=float(extents[i_min]),
        fov_negative_deg=neg,
        fov_positive_deg=pos,
    )


def write_curve_csv(curve: ResolutionCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_x_deg", "theta_y_deg", "radial_extent_mm"])
        for tx, ty, ext in curve.samples:
            writer.writerow([f"{tx:.9e}", f"{ty:.9e}", f"{ext:.9e}"])


def write_fov_json(fov: FovResult, path) -> None:
    """The fields of ``fov`` as a JSON object, in their declared order."""
    with open(path, "w") as fh:
        json.dump(asdict(fov), fh, indent=2)
        fh.write("\n")
