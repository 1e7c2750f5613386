"""Manifest-based storage of elemental-image sets.

A set is saved as ``manifest.json`` plus one 16-bit PGM per lenslet,
``e_{p:02d}_{q:02d}.pgm``, all normalized by the set-wide maximum so
relative intensities survive quantization.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .optics import FOCUS_BAND, ConfigError, OpticalSystemConfig, build, read_block
from .pgm import read_pgm16, to_codes, write_pgm16
from .reconstruction import ElementalImageSet

MANIFEST_NAME = "manifest.json"
#: The manifest key of each OpticalSystemConfig field, in the order they are written.
GEOMETRY_KEYS = {f.name: {"gap_mm": "g_mm", "focal_length_mm": "f_mm"}.get(f.name, f.name)
                 for f in dataclasses.fields(OpticalSystemConfig)}
REQUIRED_KEYS = (*GEOMETRY_KEYS.values(), "pixel_pitch_mm", "pixels_x", "pixels_y", "images")
#: Keys that manifests written before the pupil and focus band were fixed may
#: hold, each with the one value it can take.
FIXED_KEYS = {"aperture_shape": "ellipse", "focus_epsilon": FOCUS_BAND}


def save_elemental_set(eis: ElementalImageSet, out_dir) -> Path:
    """Write the manifest and PGM files; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = eis.capture_config
    peak = float(eis.images.max())
    entries = []
    for p in range(cfg.m):
        for q in range(cfg.n):
            name = f"e_{p:02d}_{q:02d}.pgm"
            write_pgm16(out / name, to_codes(eis.images[p, q], peak))
            entries.append({"p": p, "q": q, "file": name})
    manifest = {key: getattr(cfg, name) for name, key in GEOMETRY_KEYS.items()}
    manifest.update(pixel_pitch_mm=eis.pixel_pitch_mm, pixels_x=eis.pixels_x,
                    pixels_y=eis.pixels_y, images=entries)
    path = out / MANIFEST_NAME
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def load_elemental_set(manifest_path) -> ElementalImageSet:
    """Load a saved set; intensities come back as its uint16 codes (0..65535).

    Every image must be a 16-bit PGM with maxval 65535, the scale the set
    was saved on."""
    path = Path(manifest_path)
    with open(path) as fh:
        man = read_block(json.load(fh), path, "the manifest", required=REQUIRED_KEYS,
                         optional=FIXED_KEYS)
    for key, value in FIXED_KEYS.items():
        if man.get(key, value) != value:
            raise ConfigError(f"{path}: the manifest's {key} is {man[key]!r}, but only "
                              f"{value!r} can be reconstructed")
    cfg = build(OpticalSystemConfig, path, "the manifest",
                **{name: man[key] for name, key in GEOMETRY_KEYS.items()})
    shape = (man["pixels_y"], man["pixels_x"])
    if not all(type(size) is int and size >= 1 for size in shape):
        raise ConfigError(f"{path}: the manifest: pixels_x and pixels_y must be integers "
                          f">= 1, got {man['pixels_x']!r} and {man['pixels_y']!r}")
    images = np.zeros((cfg.m, cfg.n) + shape, dtype=np.uint16)
    seen = set()
    for entry in man["images"]:
        entry = read_block(entry, path, "an image entry", required=("p", "q", "file"))
        p, q = entry["p"], entry["q"]
        # bool is an int subclass, and numpy reads a bool index as a mask, not a position
        if not (type(p) is int and type(q) is int and 0 <= p < cfg.m and 0 <= q < cfg.n):
            raise ValueError(f"{path}: image entry (p={p!r}, q={q!r}) is not a lenslet "
                             f"of the {cfg.m} x {cfg.n} array")
        if (p, q) in seen:
            raise ValueError(f"{path}: image entry (p={p}, q={q}) is listed more than once")
        img = read_pgm16(path.parent / entry["file"])
        if img.shape != shape:
            raise ValueError(
                f"{entry['file']}: image shape {img.shape} does not match manifest {shape}"
            )
        images[p, q] = img
        seen.add((p, q))
    missing = {(p, q) for p in range(cfg.m) for q in range(cfg.n)} - seen
    if missing:
        raise ValueError(f"{path}: the manifest is missing {len(missing)} elemental images, "
                         f"e.g. {sorted(missing)[0]}")
    return build(ElementalImageSet, path, "the manifest", images=images,
                 pixel_pitch_mm=man["pixel_pitch_mm"], capture_config=cfg)
