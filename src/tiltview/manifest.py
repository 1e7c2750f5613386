"""Manifest-based storage of elemental-image sets.

A set is saved as ``manifest.json`` plus one 16-bit PGM,
``e_{p:02d}_{q:02d}.pgm``, per lenslet whose codes are not all zero, all
normalized by the set-wide maximum so relative intensities survive
quantization. The manifest lists each other lenslet under ``zero_images``
as a ``[p, q]`` pair, and it loads as zeros without a file.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import numpy as np

from .optics import (ConfigError, OpticalSystemConfig, build, check_number, path_string,
                     read_block, read_json, write_json)
from .pgm import read_pgm16, to_codes, write_pgm16
from .reconstruction import ElementalImageSet, raster_pitch

MANIFEST_NAME = "manifest.json"
#: The manifest key of each OpticalSystemConfig field, in the order they are written.
GEOMETRY_KEYS = {f.name: {"gap_mm": "g_mm", "focal_length_mm": "f_mm"}.get(f.name, f.name)
                 for f in dataclasses.fields(OpticalSystemConfig)}
REQUIRED_KEYS = (*GEOMETRY_KEYS.values(), "pixel_pitch_mm", "pixels_x", "pixels_y", "images")


def save_elemental_set(eis: ElementalImageSet, out_dir) -> Path:
    """Write the manifest and the PGM of each image that holds a nonzero code;
    returns the manifest path. Each PGM is a whole image: its block's codes
    at the block's window, and zeros around it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = eis.capture_config
    maxima = {lenslet: block.max(initial=0) for lenslet, block in eis.blocks.items()}
    peak = float(max(maxima.values(), default=0.0))
    # scaling and rounding are monotone: an image's codes are all zero exactly
    # when the code of its maximum is
    stored = sorted(lenslet for lenslet, top in maxima.items() if to_codes(top, peak) > 0)
    entries, kept = [], set(stored)
    for p, q in stored:
        name = f"e_{p:02d}_{q:02d}.pgm"
        (r0, r1), (c0, c1) = eis.row_spans[q], eis.col_spans[p]
        codes = np.zeros((eis.pixels_y, eis.pixels_x), dtype=np.uint16)
        codes[r0:r1, c0:c1] = to_codes(eis.blocks[p, q], peak)
        write_pgm16(out / name, codes)
        entries.append({"p": p, "q": q, "file": name})
    manifest = {key: getattr(cfg, name) for name, key in GEOMETRY_KEYS.items()}
    manifest.update(pixel_pitch_mm=eis.pixel_pitch_mm, pixels_x=eis.pixels_x,
                    pixels_y=eis.pixels_y, images=entries,
                    zero_images=[[p, q] for p in range(cfg.m) for q in range(cfg.n)
                                 if (p, q) not in kept])
    path = out / MANIFEST_NAME
    write_json(manifest, path)
    return path


def load_elemental_set(manifest_path) -> ElementalImageSet:
    """Load a saved set; intensities come back as its uint16 codes (0..65535),
    each stored image one whole block and each other lenslet without one.

    Every image must be a 16-bit PGM with maxval 65535, the scale the set
    was saved on. Each lenslet is listed once, in ``images`` or, all zero and
    without a file, in ``zero_images``, which a manifest may lack."""
    path = Path(manifest_path)
    man = read_block(read_json(path), path, "the manifest", required=REQUIRED_KEYS,
                     optional=("zero_images",))
    cfg = build(OpticalSystemConfig, path, "the manifest", GEOMETRY_KEYS,
                **{name: man[key] for name, key in GEOMETRY_KEYS.items()})
    # the raster is checked before any image is read; a manifest states its
    # pitch, which raster_pitch would choose for a None
    build(check_number, path, "the manifest", name="pixel_pitch_mm", value=man["pixel_pitch_mm"])
    build(raster_pitch, path, "the manifest", cfg=cfg, pixels_y=man["pixels_y"],
          pixels_x=man["pixels_x"], pixel_pitch_mm=man["pixel_pitch_mm"])
    shape = (man["pixels_y"], man["pixels_x"])
    blocks, folder, seen = {}, os.path.dirname(path), set()
    for key in ("images", "zero_images"):
        if type(man.get(key, [])) is not list:
            raise ConfigError(f"{path}: the manifest: {key} must be a list, got {man[key]!r}")
    for pair in man.get("zero_images", []):
        if not (type(pair) is list and len(pair) == 2 and all(type(i) is int for i in pair)
                and 0 <= pair[0] < cfg.m and 0 <= pair[1] < cfg.n):
            raise ValueError(f"{path}: zero_images entry {pair!r} is not a [p, q] lenslet "
                             f"of the {cfg.m} x {cfg.n} array")
        if tuple(pair) in seen:
            raise ValueError(f"{path}: zero_images entry {pair} is listed more than once")
        seen.add(tuple(pair))
    # one buffer holds the stored images in native byte order, each a block of
    # it: an array per image made a load of 256 images ~2x slower (5.5 -> 11 ms
    # in-process on a 2-core x86_64 host)
    stored = np.empty((len(man["images"]),) + shape, dtype=np.uint16)
    for entry, block in zip(man["images"], stored):
        entry = read_block(entry, path, "an image entry", required=("p", "q", "file"))
        p, q = entry["p"], entry["q"]
        # bool is an int subclass, and numpy reads a bool index as a mask, not a position
        if not (type(p) is int and type(q) is int and 0 <= p < cfg.m and 0 <= q < cfg.n):
            raise ValueError(f"{path}: image entry (p={p!r}, q={q!r}) is not a lenslet "
                             f"of the {cfg.m} x {cfg.n} array")
        if (p, q) in seen:
            raise ValueError(f"{path}: image entry (p={p}, q={q}) is listed more than once")
        name = path_string(entry["file"], path, "an image entry", "file")
        try:
            codes = read_pgm16(os.path.join(folder, name))
        except (OSError, ValueError) as exc:  # keeps the class: FileNotFoundError, ValueError
            raise type(exc)(f"{path}: image entry (p={p}, q={q}, file={name!r}) "
                            f"cannot be read: {exc}") from exc
        if codes.shape != shape:
            raise ValueError(f"{path}: image entry (p={p}, q={q}, file={name!r}) has shape "
                             f"{codes.shape}, but pixels_y x pixels_x is {shape}")
        block[...] = codes
        blocks[p, q] = block
        seen.add((p, q))
    missing = {(p, q) for p in range(cfg.m) for q in range(cfg.n)} - seen
    if missing:
        raise ValueError(f"{path}: the manifest is missing {len(missing)} elemental images, "
                         f"e.g. {sorted(missing)[0]}")
    return build(ElementalImageSet, path, "the manifest", blocks=blocks, pixels_y=shape[0],
                 pixels_x=shape[1], pixel_pitch_mm=man["pixel_pitch_mm"], capture_config=cfg)
