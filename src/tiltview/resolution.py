"""Spot-size and field-of-view analysis of an on-axis point source.

The visualized point source on a tilted plane is the sum of one tilted
Gaussian contribution per lenslet; the spot size is the normalized radial
second moment of that intensity, and the field of view is the tilt range
over which the spot stays below ``threshold_ratio`` times its minimum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .optics import (BeamParameters, OpticalSystemConfig, PlaneGrid, ScalarField2D, check_count,
                     check_number, check_real)


class DegenerateFieldError(ValueError):
    """Raised when a moment is requested of an all-zero field."""


@dataclass(frozen=True)
class ResolutionCurve:
    """Radial spot extent versus tilt angle for one optical configuration."""

    samples: tuple[tuple[float, float, float], ...]  # (theta_x_deg, theta_y_deg, extent_mm)

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


def _grazing_error(theta_x, theta_y, tilt_x, tilt_y, angles_x, angles_y,
                   D_mm: float) -> ValueError:
    """The error for the first tilt step that turns a lenslet's beam to 90
    degrees or more, with the tilt range that keeps every beam below it."""
    i, p, q = np.argwhere((np.abs(tilt_x) >= 90.0)[:, :, None]
                          | (np.abs(tilt_y) >= 90.0)[:, None, :])[0]
    tilt = tilt_x[i, p] if abs(tilt_x[i, p]) >= 90.0 else tilt_y[i, q]
    return ValueError(
        f"tilt step {i} (theta_x {theta_x[i]:g}, theta_y {theta_y[i]:g} degrees) turns the "
        f"beam of lenslet ({p}, {q}) {tilt:.2f} degrees from the view, where the spot is "
        f"undefined; at D_mm = {D_mm:g} every beam stays below 90 degrees only for theta_x in "
        f"({angles_x.max() - 90.0:.2f}, {angles_x.min() + 90.0:.2f}) and theta_y in "
        f"({angles_y.max() - 90.0:.2f}, {angles_y.min() + 90.0:.2f}) degrees: narrow the scan "
        "or move the source farther away")


def spot_extents(cfg: OpticalSystemConfig, D_mm: float, beam: BeamParameters,
                 theta_x_deg, theta_y_deg) -> list[float]:
    """Normalized radial second moment of the spot at each tilt step
    (theta_x_deg[i], theta_y_deg[i]), without a plane grid.

    The spot of the on-axis source at depth D is the sum of one tilted
    Gaussian per lenslet, centred on the image point. The source sees the
    centre c of lenslet (p, q) at the angles atan(c/D), so the lenslet's
    beam is tilted t_p = theta - atan(c/D) from the view. Its widths are
    those of the beam at the local depth z = D + x sin t_px + y sin t_py,
    its Gaussian is stretched by 1/cos t_p, and it is weighted by the
    inverse square of its pixel distance, so that the central lenslet
    reproduces the untilted on-axis beam intensity 2 / (pi w_x w_y) exactly.

    Each lenslet's contribution is integrated by an 8x8 Gauss-Hermite rule
    whose nodes are scaled to that lenslet's Gaussian at the source depth,
    x = w_x(D) a / (sqrt(2) cos t_px) and likewise for y. The rule is exact
    for a constant beam width and keeps the width's change with depth
    across the tilted spot, the only remaining factor of the integrand.

    Each step evaluates the weighted Gaussians, its mass, once at full
    size, in buffers the call allocates once: an (m*8, n*8) array whose rows
    are (p, a), lenslet row and x node, and whose columns are (q, b),
    lenslet column and y node. The width is w^2 = w0^2 + (4 w0^2 / b^2)
    (z - z_i)^2, the offset to the focus a row term plus a column term. The
    quadrature weight sx w_a sy w_b is a row factor qx times a column factor
    qy, and x^2 + y^2 a row term plus a column term, so with rows = mass qy
    and cols = qx^T mass, sum(mass q) = qx . rows and sum(mass q (x^2 +
    y^2)) = (qx x^2) . rows + cols . (qy y^2). The reductions are numpy's
    own ``einsum`` loops, not BLAS, whose summation order changes with the
    CPU. What does not depend on the tilt is built before the loop: the
    inverse-square weights times 2/pi at full size, and the small factors of
    every step, D - z_i and -2 folded in. Every step is checked before any
    is evaluated: ``ValueError`` is raised when the two angle arrays are not
    1-D of one length, naming their lengths or shapes, and when a step turns
    some lenslet's beam to 90 degrees or more.
    """
    check_number("D_mm", D_mm)
    cx, cy = cfg.lenslet_centers()  # the source point is (0, 0, D)
    angles_x, angles_y = np.degrees(np.arctan(cx / D_mm)), np.degrees(np.arctan(cy / D_mm))
    theta_x, theta_y = np.asarray(theta_x_deg, dtype=float), np.asarray(theta_y_deg, dtype=float)
    if theta_x.ndim != 1 or theta_x.shape != theta_y.shape:
        got = (f"{theta_x.size} and {theta_y.size} angles" if theta_x.ndim == theta_y.ndim == 1
               else f"shapes {theta_x.shape} and {theta_y.shape}")
        raise ValueError(f"theta_x_deg and theta_y_deg must give one angle per tilt step, "
                         f"got {got}")
    tilt_x, tilt_y = theta_x[:, None] - angles_x, theta_y[:, None] - angles_y
    if np.any(np.abs(tilt_x) >= 90.0) or np.any(np.abs(tilt_y) >= 90.0):
        raise _grazing_error(theta_x, theta_y, tilt_x, tilt_y, angles_x, angles_y, D_mm)
    m, n, k, steps = cfg.m, cfg.n, _GH_NODES.size, theta_x.size
    mk, nk = m * k, n * k
    # the inverse-square weights times 2/pi, 2/pi exactly for the central lenslet
    weight = (2.0 / math.pi) * (D_mm + cfg.gap_mm) ** 2 / cfg.pixel_distance_sq(
        0.0 - cx[:, None, None, None], 0.0 - cy[:, None], D_mm)
    weight = np.broadcast_to(weight, (m, k, n, k)).reshape(mk, nk)  # a full-size copy
    (waist_x_sq, slope_x), (waist_y_sq, slope_y) = map(beam.width_sq_terms, "xy")
    # the small factors of every step: a column over the rows (p, a) or a
    # row over the columns (q, b) of that step's full-size arrays
    tpx, tpy = np.radians(tilt_x)[:, :, None], np.radians(tilt_y)[:, :, None]
    sx = beam.width_x(D_mm) / (math.sqrt(2.0) * np.cos(tpx))
    sy = beam.width_y(D_mm) / (math.sqrt(2.0) * np.cos(tpy))
    x, y = sx * _GH_NODES, sy * _GH_NODES
    offset_x = (beam.focus_offset(D_mm) + x * np.sin(tpx)).reshape(steps, mk, 1)
    offset_y = (y * np.sin(tpy)).reshape(steps, nk)
    exponent_x = (-2.0 * (x * np.cos(tpx)) ** 2).reshape(steps, mk, 1)
    exponent_y = (-2.0 * (y * np.cos(tpy)) ** 2).reshape(steps, nk)
    qx, qy = (sx * _GH_WEIGHTS).reshape(steps, mk), (sy * _GH_WEIGHTS).reshape(steps, nk)
    wx_sq, mass, arg = np.empty((3, mk, nk))
    round_beam = (waist_x_sq, slope_x) == (waist_y_sq, slope_y)
    wy_sq = wx_sq if round_beam else np.empty((mk, nk))  # one width for both axes
    rows, cols = np.empty((steps, mk)), np.empty((steps, nk))
    for i in range(steps):
        # w^2 = w0^2 + slope (z - z_i)^2 of each axis
        np.add(offset_x[i], offset_y[i], out=arg)
        np.square(arg, out=arg)
        if not round_beam:
            np.multiply(arg, slope_y, out=wy_sq)
            wy_sq += waist_y_sq
        np.multiply(arg, slope_x, out=wx_sq)
        wx_sq += waist_x_sq
        # the weighted Gaussians at the nodes, 2 weight / (pi w_x w_y) times
        # exp(-2 (x cos t_px / w_x)^2 - 2 (y cos t_py / w_y)^2)
        if round_beam:
            np.divide(weight, wx_sq, out=mass)
            np.add(exponent_x[i], exponent_y[i], out=arg)
            arg /= wx_sq
        else:
            np.multiply(wx_sq, wy_sq, out=mass)
            np.sqrt(mass, out=mass)
            np.divide(weight, mass, out=mass)
            np.divide(exponent_y[i], wy_sq, out=wy_sq)
            np.divide(exponent_x[i], wx_sq, out=arg)
            arg += wy_sq
        mass *= np.exp(arg, out=arg)
        np.einsum("rc,c->r", mass, qy[i], out=rows[i])
        np.einsum("r,rc->c", qx[i], mass, out=cols[i])
    total = np.einsum("sr,sr->s", qx, rows)
    moment = (np.einsum("sr,sr->s", qx * (x**2).reshape(steps, mk), rows)
              + np.einsum("sc,sc->s", cols, qy * (y**2).reshape(steps, nk)))
    return np.sqrt(moment / total).tolist()


def scan_resolution(cfg: OpticalSystemConfig, D_mm: float, axis: str,
                    theta_min_deg: float, theta_max_deg: float, steps: int,
                    z_i_override_mm: float | None = None,
                    plane_grid: PlaneGrid | None = None) -> ResolutionCurve:
    """Radial spot extent versus tilt angle along one scan axis: the
    ``spot_extents`` of ``steps`` evenly spaced tilts, with ``ValueError``
    raised for a scan ``check_scan`` rejects. ``plane_grid`` is ignored; it
    is accepted so that existing callers keep working.
    """
    check_scan(axis, theta_min_deg, theta_max_deg, steps)
    beam = BeamParameters.from_config(cfg, z_i_override_mm=z_i_override_mm)
    thetas = np.linspace(theta_min_deg, theta_max_deg, steps)
    untilted = np.zeros(steps)
    tx = thetas if axis in ("x", "diagonal") else untilted
    ty = thetas if axis in ("y", "diagonal") else untilted
    extents = spot_extents(cfg, D_mm, beam, tx, ty)
    samples = tuple((float(a), float(b), e) for a, b, e in zip(tx, ty, extents))
    return ResolutionCurve(samples=samples)


def check_scan(axis: str, theta_min_deg: float, theta_max_deg: float, steps: int) -> None:
    """Raise ``ValueError`` unless the scan runs along 'x', 'y' or 'diagonal'
    over finite angles with theta_min < theta_max inside +/-60 degrees, in an
    integer number of steps of at least 3."""
    if axis not in ("x", "y", "diagonal"):
        raise ValueError(f"scan axis must be 'x', 'y' or 'diagonal', got {axis!r}")
    for name, value in (("theta_min_deg", theta_min_deg), ("theta_max_deg", theta_max_deg)):
        check_real(name, value)
        if not -60.0 <= value <= 60.0:  # NaN fails too
            raise ValueError(f"{name} must lie in the scan range [-60, 60] degrees, got {value!r}")
    if not theta_min_deg < theta_max_deg:
        raise ValueError(f"theta_min_deg must be below theta_max_deg in the scan range, "
                         f"got {theta_min_deg!r} and {theta_max_deg!r}")
    check_count("steps", steps, low=3)


def extract_fov(curve: ResolutionCurve, threshold_ratio: float = 1.5) -> FovResult:
    """First outward crossings of threshold_ratio x the curve minimum.

    Crossings are located by linear interpolation between bracketing
    samples; a side that never crosses is reported as open-ended (None).
    """
    check_number("threshold_ratio", threshold_ratio, 1.0)
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
