"""System geometry and the Gaussian-beam model of lenslet-array imaging.

All lengths are millimetres and all interface angles are degrees; trig is
done in radians internally. The one deliberate unit exception is the config
wavelength, which is nanometres because that is how visible-light sources
are quoted.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

NM_PER_MM = 1e6

#: Width of the focused-mode band around g = f, relative to 1/f.
FOCUS_BAND = 1e-6


class OutOfHalfSpaceError(ValueError):
    """Raised when a plane reaches at or behind the lens array (z <= 0)."""


class ConfigError(ValueError):
    """Raised when a block of a config, scene or manifest document is rejected.

    The message starts with the file and the block.
    """


#: The JSON name of each type a parsed document holds; bool before int, which it subclasses.
_JSON_TYPES = ((type(None), "null"), (bool, "boolean"), (numbers.Real, "number"),
               (str, "string"), (list, "array"), (dict, "object"))


def json_type(value) -> str:
    """The JSON name of a parsed value's type (``null``, ``boolean``, ``number``,
    ``string``, ``array`` or ``object``), else its Python type's name."""
    return next((name for cls, name in _JSON_TYPES if isinstance(value, cls)),
                type(value).__name__)


def read_block(doc, path, block: str, required=(), optional=()) -> dict:
    """A copy of one JSON object of a document, holding only the keys named.

    Raises ``ConfigError`` naming the file and the block when ``doc`` is not
    an object, has a key that is neither required nor optional, or lacks a
    required key.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {block} must be a JSON object, got {json_type(doc)}")
    unknown = set(doc) - {*required, *optional}
    if unknown:
        raise ConfigError(f"{path}: {block} has unknown key(s): {', '.join(sorted(unknown))}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{path}: {block} is missing required key(s): {', '.join(missing)}")
    return dict(doc)


def read_json(path):
    """The UTF-8 JSON document in the file ``path``: the one reader of the config,
    the scene and the manifest. Raises ``ConfigError`` naming the file for text
    that is not UTF-8 or not JSON, with its line and column, and for a key given
    twice in one object, which JSON would read as its last value."""

    def unique(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            twice = next(key for key in keys if keys.count(key) > 1)
            raise ConfigError(f"{path}: key {twice!r} is given more than once in one object")
        return doc

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 at byte {exc.start}; save it as UTF-8") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc.msg} at line {exc.lineno}, "
                              f"column {exc.colno}") from exc


def write_json(doc, path) -> None:
    """Write ``doc`` as JSON with two-space indents and a trailing newline:
    the one writer of the manifest, the ``fov.json`` and the ``reconstruct``
    sidecar. The text is built before the file is opened, so a value that
    JSON cannot hold (NaN, an infinity) raises and leaves no file, and an
    existing one unchanged."""
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def path_string(value, path, block: str, key: str) -> str:
    """The file path ``value`` of ``key``, or a ConfigError naming the file and the block."""
    if not isinstance(value, str):
        raise ConfigError(f"{path}: {block}: {key} must be a path string, got {value!r}")
    return value


def check_real(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` and ``value`` unless ``value`` is a real
    number, NaN and infinities included; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {json.dumps(value, default=repr)}")


def check_number(name: str, value, low: float = 0.0, closed: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` and ``value`` unless ``value`` is a finite
    real number above ``low``, or at or above it when ``closed``; a bool is not."""
    check_real(name, value)
    if not (low <= value if closed else low < value) or not value < math.inf:  # NaN fails too
        rule = ("finite" if low == -math.inf else
                f"{'nonnegative' if closed else 'positive'} and finite" if low == 0 else
                f"a finite number {'at least' if closed else 'above'} {low:g}")
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_count(name: str, value, low: int = 1) -> None:
    """Raise ``ValueError`` naming ``name`` and ``value`` unless ``value`` is an
    int of at least ``low``; a bool or a fractional count is not."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def build(cls, path, block: str, keys: dict[str, str] | None = None, /, **values):
    """``cls(**values)`` for a class or any other callable, with a rejected value
    reported as a ``ConfigError`` naming the file and the block. A message
    that names a parameter names the document's key where ``keys`` maps it
    to one. A JSON ``true`` or ``false`` that ``cls`` accepted is rejected
    after it: no value a document gives here is a bool, and a bool is an
    int, which would pass as 1 or 0."""
    try:
        result = cls(**values)
        for name, value in values.items():
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    except (ValueError, TypeError) as exc:
        message = str(exc)
        for name, key in (keys or {}).items():
            message = re.sub(rf"\b{name}\b", key, message)
        raise ConfigError(f"{path}: {block}: {message}") from exc
    return result


@dataclass(frozen=True)
class OpticalSystemConfig:
    """Geometry of an m x n lenslet array in front of an ideal display."""

    m: int
    n: int
    pitch_x_mm: float
    pitch_y_mm: float
    gap_mm: float
    focal_length_mm: float
    wavelength_nm: float = 550.0

    def __post_init__(self):
        check_count("m", self.m)
        check_count("n", self.n)
        for name in ("pitch_x_mm", "pitch_y_mm", "gap_mm", "focal_length_mm", "wavelength_nm"):
            check_number(name, getattr(self, name))
        if not 380.0 <= self.wavelength_nm <= 780.0:
            raise ValueError(f"wavelength_nm must lie in the visible band [380, 780], "
                             f"got {self.wavelength_nm!r}")

    @property
    def wavelength_mm(self) -> float:
        return self.wavelength_nm / NM_PER_MM

    def focus_mm(self, z_i_override_mm: float | None = None) -> float:
        """Beam focus distance z_i: the override when given, else the lens law
        1/z_i = 1/f - 1/g, which gives ``math.inf`` when g is within
        ``FOCUS_BAND`` (relative to 1/f) of f. An infinite value of either sign
        is the collimated, focused-mode case and a negative one a virtual
        focus; an override that is not a real number, NaN or zero raises.
        """
        if z_i_override_mm is None:
            inv = 1.0 / self.focal_length_mm - 1.0 / self.gap_mm
            return math.inf if abs(inv) < FOCUS_BAND / self.focal_length_mm else 1.0 / inv
        check_real("z_i_override_mm", z_i_override_mm)
        z_i = float(z_i_override_mm)
        if math.isnan(z_i) or z_i == 0:
            raise ValueError(f"z_i_override_mm must be nonzero and not NaN, got {z_i!r}; "
                             "use inf for a collimated beam")
        return z_i

    def lenslet_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Lateral centres (cx[p], cy[q]) = ((p - m/2) pitch_x, (q - n/2) pitch_y) of the
        lenslets. Lenslet (m/2, n/2) sits on the axis when m and n are even;
        along an axis with an odd count no centre is 0. Either way the array's
        centre lies half a pitch on the negative side of the axis."""
        cx = (np.arange(self.m) - self.m / 2) * self.pitch_x_mm
        cy = (np.arange(self.n) - self.n / 2) * self.pitch_y_mm
        return cx, cy

    def pixel_distance_sq(self, dx, dy, z_mm):
        """Squared distance from a point at depth z, offset (dx, dy) from a
        lenslet centre, to the display pixel that sees it through that centre.

        The pixel lies g behind the centre at offset -(dx, dy)/M, M = z/g.
        Broadcasts over arrays.
        """
        axial, spread = self.pixel_distance_terms(z_mm)
        return axial + (dx ** 2 + dy ** 2) * spread

    def pixel_distance_terms(self, z_mm):
        """The depth terms of ``pixel_distance_sq``, which is
        axial + (dx² + dy²)·spread: axial = (z + g)² and
        spread = (1 + 1/(z/g))². A caller that evaluates many offsets at the
        same depths builds them once."""
        g = self.gap_mm
        return (z_mm + g) ** 2, (1.0 + 1.0 / (z_mm / g)) ** 2

    def digest(self) -> str:
        import hashlib  # here: OpenSSL's _hashlib adds ~3 ms to start-up, and no command uses it

        blob = json.dumps(
            {k: getattr(self, k) for k in self.__dataclass_fields__}, sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class BeamParameters:
    """Per-lenslet Gaussian-beam constants and the half-width w(z).

    With a finite focus z_i: waist w0 = 2.44 lambda |z_i| / pitch, Rayleigh
    range b = pi w0^2 / (2 lambda), w(z)^2 = w0^2 + (4 w0^2 / b^2)(z - z_i)^2. In
    focused mode ``z_focus_mm`` and the Rayleigh ranges are infinite, and w(z)
    is the collimated pitch/2 fallback held in the waists, at every depth.
    """

    z_focus_mm: float
    waist_x_mm: float
    waist_y_mm: float
    rayleigh_x_mm: float
    rayleigh_y_mm: float

    def __post_init__(self):
        if self.waist_x_mm <= 0 or self.waist_y_mm <= 0:
            raise ValueError("waists must be positive")
        finite_focus = math.isfinite(self.z_focus_mm)
        if finite_focus != (math.isfinite(self.rayleigh_x_mm) and math.isfinite(self.rayleigh_y_mm)):
            raise ValueError("Rayleigh ranges must be finite exactly when the focus is finite")

    @classmethod
    def from_config(cls, cfg: OpticalSystemConfig,
                    z_i_override_mm: float | None = None) -> "BeamParameters":
        z_i = cfg.focus_mm(z_i_override_mm)
        if not math.isfinite(z_i):
            # Focused mode: each pixel maps to a collimated bundle as wide as
            # the lenslet pupil, modelled as a constant pitch/2 half-width.
            return cls(z_focus_mm=math.inf, waist_x_mm=cfg.pitch_x_mm / 2.0,
                       waist_y_mm=cfg.pitch_y_mm / 2.0, rayleigh_x_mm=math.inf,
                       rayleigh_y_mm=math.inf)
        lam = cfg.wavelength_mm
        w0x = 2.44 * lam * abs(z_i) / cfg.pitch_x_mm
        w0y = 2.44 * lam * abs(z_i) / cfg.pitch_y_mm
        return cls(z_focus_mm=z_i, waist_x_mm=w0x, waist_y_mm=w0y,
                   rayleigh_x_mm=math.pi * w0x**2 / (2.0 * lam),
                   rayleigh_y_mm=math.pi * w0y**2 / (2.0 * lam))

    def width_sq_terms(self, axis: str) -> tuple[float, float]:
        """(w0^2, 4 w0^2 / b^2) of axis 'x' or 'y': w(z)^2 = w0^2 + (4 w0^2 / b^2)
        (z - z_i)^2, the one w(z) formula. The slope is 0 in focused mode."""
        waist, rayleigh = ((self.waist_x_mm, self.rayleigh_x_mm) if axis == "x"
                           else (self.waist_y_mm, self.rayleigh_y_mm))
        return waist**2, 4.0 * waist**2 / rayleigh**2

    def focus_offset(self, z_mm):
        """z - z_i, the offset of depth z from the focus; 0 in focused mode,
        where no width depends on it."""
        z = np.asarray(z_mm, dtype=float)
        return z - self.z_focus_mm if math.isfinite(self.z_focus_mm) else 0.0 * z

    def _width(self, z_mm, axis: str):
        waist_sq, slope = self.width_sq_terms(axis)
        return np.sqrt(waist_sq + slope * self.focus_offset(z_mm) ** 2)

    def width_x(self, z_mm):
        return self._width(z_mm, "x")

    def width_y(self, z_mm):
        return self._width(z_mm, "y")


@dataclass(frozen=True)
class PlaneGrid:
    """Symmetric midpoint sampling grid on a reconstruction plane."""

    half_width_x_mm: float
    half_width_y_mm: float
    sample_pitch_mm: float

    def __post_init__(self):
        for name in ("half_width_x_mm", "half_width_y_mm", "sample_pitch_mm"):
            check_number(name, getattr(self, name))

    def _axis(self, half_width: float) -> np.ndarray:
        count = max(1, round(2.0 * half_width / self.sample_pitch_mm))
        return (np.arange(count) - (count - 1) / 2.0) * self.sample_pitch_mm

    def xs(self) -> np.ndarray:
        return self._axis(self.half_width_x_mm)

    def ys(self) -> np.ndarray:
        return self._axis(self.half_width_y_mm)


@dataclass(frozen=True)
class TiltedPlaneSpec:
    """A sampled rectangular plane tilted about the lateral axes.

    The plane is centered on the longitudinal axis at depth
    ``axial_offset_mm`` and rotated by ``theta_x_deg`` / ``theta_y_deg``.
    """

    theta_x_deg: float
    theta_y_deg: float
    axial_offset_mm: float
    grid: PlaneGrid

    def __post_init__(self):
        for name in ("theta_x_deg", "theta_y_deg"):
            value = getattr(self, name)
            check_real(name, value)
            if not abs(value) < 90.0:  # NaN too
                raise ValueError(f"{name} must satisfy |theta| < 90 degrees, got {value!r}")
        check_number("axial_offset_mm", self.axial_offset_mm)

    @property
    def theta_x_rad(self) -> float:
        return math.radians(self.theta_x_deg)

    @property
    def theta_y_rad(self) -> float:
        return math.radians(self.theta_y_deg)


def tilted_to_global(x_t, y_t, plane: TiltedPlaneSpec):
    """Map tilted-plane coordinates (x_t, y_t) to global (x, y, z).

    This is the one depth expression of the package. Every point must lie in
    front of the lens array: ``OutOfHalfSpaceError`` is raised when z <= 0.
    """
    tx, ty = plane.theta_x_rad, plane.theta_y_rad
    x_t = np.asarray(x_t, dtype=float)
    y_t = np.asarray(y_t, dtype=float)
    x = x_t * math.cos(tx)
    y = y_t * math.cos(ty)
    z = plane.axial_offset_mm + x_t * math.sin(tx) + y_t * math.sin(ty)
    if np.any(z <= 0):
        raise OutOfHalfSpaceError("plane reaches at or behind the lens array (depth <= 0)")
    return x, y, z


@dataclass
class ScalarField2D:
    """Nonnegative intensity sampled on a uniform physical grid.

    ``values`` is indexed ``[ix, iy]`` with ``xs``/``ys`` the sample-center
    coordinates along each axis.
    """

    values: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    sample_pitch_mm: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.values.shape != (self.xs.size, self.ys.size):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.xs.size}, {self.ys.size})"
            )
        if np.any(self.values < 0):
            raise ValueError("intensity field must be nonnegative")

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs, self.ys, indexing="ij")
