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

    What does not depend on the tilt is built once for all steps: the
    angles of the lenslet centres, the inverse-square weights, the beam
    widths at D, the node arrays and the full-size arrays every step writes
    into; a round beam's width is evaluated once for both axes. Every step
    is checked before any is evaluated: ``ValueError`` is raised when a
    step turns some lenslet's beam to 90 degrees or more. The arrays are
    laid out (p, a, q, b): lenslet row, x node, lenslet column, y node, so
    that each full-size operation streams over contiguous (q, b) blocks.
    The two sums read (p, q, a, b) copies, which keeps the summation order,
    and so every bit, of an (m, n, 8, 8) array.
    """
    if not 0 < D_mm < math.inf:
        raise ValueError(f"source depth must be positive and finite, got {D_mm!r}")
    cx, cy = cfg.lenslet_centers()  # the source point is (0, 0, D)
    angles_x, angles_y = np.degrees(np.arctan(cx / D_mm)), np.degrees(np.arctan(cy / D_mm))
    theta_x, theta_y = np.asarray(theta_x_deg, dtype=float), np.asarray(theta_y_deg, dtype=float)
    tilt_x, tilt_y = theta_x[:, None] - angles_x, theta_y[:, None] - angles_y
    if np.any(np.abs(tilt_x) >= 90.0) or np.any(np.abs(tilt_y) >= 90.0):
        raise _grazing_error(theta_x, theta_y, tilt_x, tilt_y, angles_x, angles_y, D_mm)
    # the inverse-square weights, exactly 1 for the central lenslet
    weight = (D_mm + cfg.gap_mm) ** 2 / cfg.pixel_distance_sq(
        0.0 - cx[:, None, None, None], 0.0 - cy[:, None], D_mm)
    width_x, width_y = beam.width_x(D_mm), beam.width_y(D_mm)
    round_beam = beam.waist_x_mm == beam.waist_y_mm and beam.rayleigh_x_mm == beam.rayleigh_y_mm
    k = _GH_NODES.size
    nodes_a, weights_a = _GH_NODES[:, None, None], _GH_WEIGHTS[:, None, None]
    mass, work = np.empty((2, cfg.m, k, cfg.n, k))
    summand = np.empty((cfg.m, cfg.n, k, k))
    extents = []
    for tpx, tpy in zip(np.radians(tilt_x), np.radians(tilt_y)):
        tpx, tpy = tpx[:, None, None, None], tpy[:, None]
        sx = width_x / (math.sqrt(2.0) * np.cos(tpx))
        sy = width_y / (math.sqrt(2.0) * np.cos(tpy))
        x, y = sx * nodes_a, sy * _GH_NODES
        # the weighted Gaussians at the nodes, written into mass
        z_loc = np.add(D_mm + x * np.sin(tpx), y * np.sin(tpy), out=work)
        wx = beam.width_x(z_loc)
        wy = wx if round_beam else beam.width_y(z_loc)
        np.multiply(math.pi, wx, out=mass)
        mass *= wy
        np.divide(2.0, mass, out=mass)
        mass *= weight
        wx_sq = wx**2
        wy_sq = wx_sq if wy is wx else wy**2
        arg = np.divide((x * np.cos(tpx)) ** 2, wx_sq, out=work)
        arg += (y * np.cos(tpy)) ** 2 / wy_sq
        arg *= -2.0
        mass *= np.exp(arg, out=arg)
        # the quadrature weight sx sy w_a w_b, multiplied in that order
        mass *= np.multiply(sx * sy * weights_a, _GH_WEIGHTS, out=work)
        moment = np.add(x**2, y**2, out=work)
        moment *= mass
        np.copyto(summand, moment.transpose(0, 2, 1, 3))
        total_moment = summand.sum()
        np.copyto(summand, mass.transpose(0, 2, 1, 3))
        extents.append(float(np.sqrt(total_moment / summand.sum())))
    return extents


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
    return ResolutionCurve(samples=samples, config_digest=cfg.digest())


def check_scan(axis: str, theta_min_deg: float, theta_max_deg: float, steps: int) -> None:
    """Raise ``ValueError`` unless the scan runs along 'x', 'y' or 'diagonal'
    over finite angles with theta_min < theta_max inside +/-60 degrees, in an
    integer number of steps of at least 3."""
    if axis not in ("x", "y", "diagonal"):
        raise ValueError(f"scan axis must be 'x', 'y' or 'diagonal', got {axis!r}")
    if not -60.0 <= theta_min_deg < theta_max_deg <= 60.0:  # NaN fails too
        raise ValueError(f"scan range must satisfy -60 <= theta_min < theta_max <= 60 degrees, "
                         f"got theta_min {theta_min_deg!r} and theta_max {theta_max_deg!r}")
    # bool is an int subclass, and a fractional count is no number of steps
    if type(steps) is not int or steps < 3:
        raise ValueError(f"scan steps must be an integer >= 3, got {steps!r}")


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
    """The fields of ``fov`` as a JSON object, in their declared order. It is
    serialized before the file is opened, so a field that JSON cannot hold
    raises and leaves no file, and an existing one unchanged."""
    text = json.dumps(asdict(fov), indent=2, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
