"""Reference implementations that the benchmark checks tiltview's outputs against.

Nothing here imports tiltview. Each function re-derives its quantity from the
documented model (README, "Units and conventions"), so a change inside the
package cannot move its own oracle. Arrays follow the package conventions:
elemental images are ``[p, q, row, col]`` with row 0 at the largest y, and
plane fields are ``[ix, iy]``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

MAXVAL_16 = 65535


def smooth_texture(seed: int, n: int = 64, sigma: float = 0.05) -> np.ndarray:
    """Band-limited random texture in [0.1, 1.1], the tilt-sweep scene."""
    rng = np.random.default_rng(seed)
    freq = np.fft.fftfreq(n)
    FX, FY = np.meshgrid(freq, freq, indexing="ij")
    spec = np.exp(-(FX**2 + FY**2) / (2 * sigma**2)) * np.exp(2j * np.pi * rng.random((n, n)))
    tex = np.fft.ifft2(spec).real
    return (tex - tex.min()) / (tex.max() - tex.min()) + 0.1


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def grid_axis(half_width_mm: float, pitch_mm: float) -> np.ndarray:
    count = max(1, round(2.0 * half_width_mm / pitch_mm))
    return (np.arange(count) - (count - 1) / 2.0) * pitch_mm


def lenslet_centers(osys: dict) -> tuple[np.ndarray, np.ndarray]:
    cx = (np.arange(osys["m"]) - osys["m"] / 2) * osys["pitch_x_mm"]
    cy = (np.arange(osys["n"]) - osys["n"] / 2) * osys["pitch_y_mm"]
    return cx, cy


def sample_texture(texture: np.ndarray, hw_x: float, hw_y: float, x, y) -> np.ndarray:
    """Bilinear lookup of a fronto-parallel texture; zero outside its extent."""
    rows, cols = texture.shape
    fc = (x + hw_x) / (2 * hw_x) * (cols - 1)
    fr = (hw_y - y) / (2 * hw_y) * (rows - 1)
    inside = (fc >= 0) & (fc <= cols - 1) & (fr >= 0) & (fr <= rows - 1)
    c0 = np.clip(np.floor(fc).astype(int), 0, cols - 2)
    r0 = np.clip(np.floor(fr).astype(int), 0, rows - 2)
    wc = np.clip(fc - c0, 0.0, 1.0)
    wr = np.clip(fr - r0, 0.0, 1.0)
    t = texture
    vals = ((1 - wr) * (1 - wc) * t[r0, c0] + (1 - wr) * wc * t[r0, c0 + 1]
            + wr * (1 - wc) * t[r0 + 1, c0] + wr * wc * t[r0 + 1, c0 + 1])
    return np.where(inside, vals, 0.0)


def capture_texture(osys: dict, texture: np.ndarray, z_mm: float, hw_mm: float,
                    pixels: int, pixel_pitch_mm: float) -> np.ndarray:
    """Pinhole capture of one textured plane: display pixel (u, v) of lenslet
    (p, q) sees the plane point on the ray through the lenslet centre."""
    g = osys["gap_mm"]
    cx, cy = lenslet_centers(osys)
    cols = (np.arange(pixels) - (pixels - 1) / 2.0) * pixel_pitch_mm
    rows = ((pixels - 1) / 2.0 - np.arange(pixels)) * pixel_pitch_mm
    out = np.empty((osys["m"], osys["n"], pixels, pixels))
    py = cy[:, None, None] - rows[None, :, None] * z_mm / g  # (n, rows, 1)
    for p in range(osys["m"]):  # one lenslet column at a time keeps temporaries small
        px = cx[p] - cols[None, None, :] * z_mm / g  # (1, 1, cols)
        out[p] = sample_texture(texture, hw_mm, hw_mm, px, py)
    return out


def quantize(images: np.ndarray) -> np.ndarray:
    """16-bit codes normalized by the set-wide peak, as the manifest stores them."""
    peak = float(images.max())
    scale = MAXVAL_16 / peak if peak > 0 else 1.0
    return np.round(images * scale).astype(np.uint16)


def write_pgm16(path, raster: np.ndarray) -> None:
    rows, cols = raster.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n{MAXVAL_16}\n".encode("ascii"))
        fh.write(raster.astype(">u2").tobytes())


_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_pgm16(path) -> np.ndarray:
    data = Path(path).read_bytes()
    head = _PGM_HEADER.match(data)
    if head is None or int(head.group(3)) != MAXVAL_16:
        raise ValueError(f"{path}: not a 16-bit binary PGM")
    cols, rows = int(head.group(1)), int(head.group(2))
    raster = np.frombuffer(data, dtype=">u2", count=rows * cols, offset=head.end())
    return raster.reshape(rows, cols).astype(np.uint16)


def write_elemental_set(out_dir: Path, codes: np.ndarray, osys: dict,
                        pixel_pitch_mm: float) -> Path:
    """Store 16-bit elemental images in the documented manifest layout."""
    out_dir.mkdir(parents=True, exist_ok=True)
    m, n, rows, cols = codes.shape
    entries = []
    for p in range(m):
        for q in range(n):
            name = f"e_{p:02d}_{q:02d}.pgm"
            write_pgm16(out_dir / name, codes[p, q])
            entries.append({"p": p, "q": q, "file": name})
    manifest = {
        "m": m, "n": n,
        "pitch_x_mm": osys["pitch_x_mm"], "pitch_y_mm": osys["pitch_y_mm"],
        "g_mm": osys["gap_mm"], "f_mm": osys["focal_length_mm"],
        "wavelength_nm": osys["wavelength_nm"],
        "pixel_pitch_mm": pixel_pitch_mm, "pixels_x": cols, "pixels_y": rows,
        "images": entries,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def read_elemental_set(manifest_path) -> np.ndarray:
    """16-bit codes of a stored set, shape (m, n, rows, cols)."""
    path = Path(manifest_path)
    man = load_json(path)
    out = np.zeros((man["m"], man["n"], man["pixels_y"], man["pixels_x"]), dtype=np.uint16)
    for entry in man["images"]:
        out[entry["p"], entry["q"]] = read_pgm16(path.parent / entry["file"])
    return out


def backproject(images: np.ndarray, osys: dict, pixel_pitch_mm: float,
                theta_x_deg: float, D_mm: float, grid: dict) -> np.ndarray:
    """Distance-weighted geometric back-projection onto a plane tilted about y.

    Each plane point is traced through every lenslet centre to the display;
    the elemental image is sampled bilinearly there (zero off the image) and
    weighted by the inverse square of the pixel-to-point distance.
    """
    g = osys["gap_mm"]
    pitch = grid["sample_pitch_mm"]
    xs = grid_axis(grid["half_width_x_mm"], pitch)
    ys = grid_axis(grid["half_width_y_mm"], pitch)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    t = math.radians(theta_x_deg)
    depth = D_mm + X * math.sin(t)
    M = depth / g
    gx, gy = X * math.cos(t), Y
    cx, cy = lenslet_centers(osys)
    rows, cols = images.shape[2:]
    q_idx = np.arange(osys["n"])[:, None, None]
    cyq = cy[:, None, None]
    v = cyq - (gy - cyq) / M  # (n, x, y)
    fr = (rows - 1) / 2.0 - (v - cyq) / pixel_pitch_mm
    r0 = np.floor(fr).astype(int)
    wr = fr - r0
    total = np.zeros_like(X)
    for p in range(osys["m"]):
        u = cx[p] - (gx - cx[p]) / M
        fc = (u - cx[p]) / pixel_pitch_mm + (cols - 1) / 2.0
        c0 = np.floor(fc).astype(int)
        wc = fc - c0
        img = images[p]
        vals = np.zeros(v.shape)
        for dr in (0, 1):
            rr = r0 + dr
            for dc in (0, 1):
                cc = c0 + dc
                inside = (rr >= 0) & (rr < rows) & (cc >= 0) & (cc < cols)
                w = (wr if dr else 1.0 - wr) * (wc if dc else 1.0 - wc)
                tap = img[q_idx, np.clip(rr, 0, rows - 1), np.clip(cc, 0, cols - 1)]
                vals += np.where(inside, w * tap, 0.0)
        denom = (depth + g) ** 2 + ((gx - cx[p]) ** 2 + (gy - cyq) ** 2) * (1.0 + 1.0 / M) ** 2
        total += (vals / denom).sum(axis=0)
    return total


def image_distance_mm(osys: dict) -> float:
    z_i = osys.get("z_i_override_mm")
    if z_i is None:
        z_i = 1.0 / (1.0 / osys["focal_length_mm"] - 1.0 / osys["gap_mm"])
    return z_i


def defocus_blur(field: np.ndarray, osys: dict, z_mm: float, pitch_mm: float,
                 subsamples: int = 8) -> np.ndarray:
    """Geometric-optics defocus of a plane field at depth z: convolution with
    the lenslet pupil ellipse scaled by |1 - z/z_i|, area-integrated over each
    grid pixel. Diffraction at this scale only softens the disk's rim."""
    scale = abs(1.0 - z_mm / image_distance_mm(osys))
    rx, ry = osys["pitch_x_mm"] * scale / 2.0, osys["pitch_y_mm"] * scale / 2.0
    if min(rx, ry) < pitch_mm / subsamples:
        return field  # in focus: the disk is smaller than a sub-pixel
    half = int(math.ceil(max(rx, ry) / pitch_mm)) + 1
    taps = np.arange(-half, half + 1) * pitch_mm
    offsets = ((np.arange(subsamples) + 0.5) / subsamples - 0.5) * pitch_mm
    X, Y = np.meshgrid(taps, taps, indexing="ij")
    kernel = sum((((X + a) / rx) ** 2 + ((Y + b) / ry) ** 2 <= 1.0).astype(float)
                 for a in offsets for b in offsets)
    return fftconvolve(field, kernel / kernel.sum(), mode="same")


def raster_to_field(raster: np.ndarray, peak: float) -> np.ndarray:
    """Undo the reconstruct output layout: rows run top-down along -y."""
    return raster[::-1].T.astype(float) * (peak / MAXVAL_16)


def field_to_raster(field: np.ndarray) -> np.ndarray:
    peak = float(field.max())
    scale = MAXVAL_16 / peak if peak > 0 else 1.0
    return np.round(field.T[::-1] * scale).astype(np.uint16)


def ncc(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / math.sqrt((a * a).sum() * (b * b).sum()))


def spot_moment_curve(doc: dict) -> np.ndarray:
    """Closed-form radial spot extent for an x-axis tilt scan.

    Lenslet (p, q) contributes a Gaussian of x-variance w^2/(4 cos^2 t_px),
    y-variance w^2/(4 cos^2 t_py) and mass weight/(cos t_px cos t_py), with
    w the beam half-width at the source depth. The extent is the square root
    of the mass-weighted mean variance sum; it neglects the Rayleigh-range
    variation of w across the spot.
    """
    osys, scan = doc["optical_system"], doc["scan"]
    if scan["axis"] != "x":
        raise ValueError("closed form implemented for x-axis scans only")
    D = doc["plane"]["D_mm"]
    lam = osys["wavelength_nm"] * 1e-6
    z_i = image_distance_mm(osys)

    def width(pitch):
        w0 = 2.44 * lam * abs(z_i) / pitch
        b = math.pi * w0**2 / (2.0 * lam)
        return w0 * math.sqrt(1.0 + 4.0 * ((D - z_i) / b) ** 2)

    wx, wy = width(osys["pitch_x_mm"]), width(osys["pitch_y_mm"])
    g = osys["gap_mm"]
    cx, cy = lenslet_centers(osys)
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    d2 = (D + g) ** 2 + ((D + g) / D) ** 2 * (CX**2 + CY**2)
    weight = (D + g) ** 2 / d2
    tpy = -np.arctan(CY / D)
    out = []
    for theta in np.linspace(scan["theta_min_deg"], scan["theta_max_deg"], scan["steps"]):
        tpx = math.radians(theta) - np.arctan(CX / D)
        cos_x, cos_y = np.cos(tpx), np.cos(tpy)
        mass = weight / (cos_x * cos_y)
        var = wx**2 / (4 * cos_x**2) + wy**2 / (4 * cos_y**2)
        out.append(math.sqrt((mass * var).sum() / mass.sum()))
    return np.array(out)
