"""Manifest-based storage of elemental-image sets.

A set is saved as ``manifest.json`` plus one 16-bit PGM per lenslet,
``e_{p:02d}_{q:02d}.pgm``, all normalized by the set-wide maximum so
relative intensities survive quantization.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .optics import FOCUS_BAND, ConfigError, OpticalSystemConfig, require_keys
from .pgm import MAXVAL_16, read_pgm, write_pgm16
from .reconstruction import ElementalImageSet

MANIFEST_NAME = "manifest.json"
REQUIRED_KEYS = ("m", "n", "pitch_x_mm", "pitch_y_mm", "g_mm", "f_mm", "wavelength_nm",
                 "pixel_pitch_mm", "pixels_x", "pixels_y", "images")
#: Keys that manifests written before the pupil and focus band were fixed may
#: hold, each with the one value it can take.
FIXED_KEYS = {"aperture_shape": "ellipse", "focus_epsilon": FOCUS_BAND}


def save_elemental_set(eis: ElementalImageSet, out_dir) -> Path:
    """Write the manifest and PGM files; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = eis.capture_config
    peak = float(eis.images.max())
    scale = MAXVAL_16 / peak if peak > 0 else 1.0
    entries = []
    for p in range(cfg.m):
        for q in range(cfg.n):
            name = f"e_{p:02d}_{q:02d}.pgm"
            write_pgm16(out / name, np.round(eis.images[p, q] * scale).astype(np.uint16))
            entries.append({"p": p, "q": q, "file": name})
    manifest = {
        "m": cfg.m,
        "n": cfg.n,
        "pitch_x_mm": cfg.pitch_x_mm,
        "pitch_y_mm": cfg.pitch_y_mm,
        "g_mm": cfg.gap_mm,
        "f_mm": cfg.focal_length_mm,
        "wavelength_nm": cfg.wavelength_nm,
        "pixel_pitch_mm": eis.pixel_pitch_mm,
        "pixels_x": eis.pixels_x,
        "pixels_y": eis.pixels_y,
        "images": entries,
    }
    path = out / MANIFEST_NAME
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def load_elemental_set(manifest_path) -> ElementalImageSet:
    """Load a saved set; intensities come back in 16-bit units (0..65535)."""
    path = Path(manifest_path)
    with open(path) as fh:
        man = json.load(fh)
    require_keys(man, REQUIRED_KEYS, "the manifest", path)
    for key, value in FIXED_KEYS.items():
        if man.get(key, value) != value:
            raise ConfigError(f"{path}: the manifest's {key} is {man[key]!r}, but only "
                              f"{value!r} can be reconstructed")
    cfg = OpticalSystemConfig(
        m=man["m"],
        n=man["n"],
        pitch_x_mm=man["pitch_x_mm"],
        pitch_y_mm=man["pitch_y_mm"],
        gap_mm=man["g_mm"],
        focal_length_mm=man["f_mm"],
        wavelength_nm=man["wavelength_nm"],
    )
    shape = (man["pixels_y"], man["pixels_x"])
    images = np.zeros((cfg.m, cfg.n) + shape)
    seen = set()
    for entry in man["images"]:
        require_keys(entry, ("p", "q", "file"), "an image entry", path)
        p, q = entry["p"], entry["q"]
        # bool is an int subclass, and numpy reads a bool index as a mask, not a position
        if not (type(p) is int and type(q) is int and 0 <= p < cfg.m and 0 <= q < cfg.n):
            raise ValueError(f"{path}: image entry (p={p!r}, q={q!r}) is not a lenslet "
                             f"of the {cfg.m} x {cfg.n} array")
        if (p, q) in seen:
            raise ValueError(f"{path}: image entry (p={p}, q={q}) is listed more than once")
        img = read_pgm(path.parent / entry["file"]).astype(float)
        if img.shape != shape:
            raise ValueError(
                f"{entry['file']}: image shape {img.shape} does not match manifest {shape}"
            )
        images[p, q] = img
        seen.add((p, q))
    missing = {(p, q) for p in range(cfg.m) for q in range(cfg.n)} - seen
    if missing:
        raise ValueError(f"manifest is missing {len(missing)} elemental images, e.g. {sorted(missing)[0]}")
    return ElementalImageSet(images=images, pixel_pitch_mm=man["pixel_pitch_mm"], capture_config=cfg)
