"""Tests for PGM I/O, the manifest format and the command-line surface."""

import argparse
import dataclasses
import json
import logging
import math
import os
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltview import manifest as manifest_io
from tiltview.cli import ConfigError, RunConfig, ScanConfig, build_parser, load_scene, main
from tiltview.optics import OpticalSystemConfig, PlaneGrid
from tiltview.pgm import MAXVAL_16, read_pgm, to_codes, write_pgm16
from tiltview.scene import PointEmitter, Scene, TexturedPlane, capture, point_source_scene

from elemental_sets import dense, elemental_set


ROOT = Path(__file__).resolve().parents[1]


def cfg4():
    return OpticalSystemConfig(m=4, n=4, pitch_x_mm=10.0, pitch_y_mm=10.0,
                               gap_mm=50.0, focal_length_mm=35.0)


# ---------------------------------------------------------------------------
# PGM


def test_pgm_roundtrip_16bit(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.integers(0, 65536, size=(12, 7), dtype=np.uint16)
    path = tmp_path / "img.pgm"
    write_pgm16(path, data)
    back = read_pgm(path)
    assert back.dtype == np.uint16
    np.testing.assert_array_equal(back, data)


def test_pgm_reads_8bit(tmp_path):
    path = tmp_path / "small.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 50]))
    img = read_pgm(path)
    assert img.dtype == np.uint8
    np.testing.assert_array_equal(img, [[0, 10, 20], [30, 40, 50]])


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n# more\n255\n" + bytes(4))
    assert read_pgm(path).shape == (2, 2)


def test_pgm_bad_magic_names_file(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError, match="bad.pgm"):
        read_pgm(path)


def test_pgm_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n65535\n" + bytes(5))
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


def test_pgm_ignores_bytes_past_the_raster(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n" + bytes([1, 2, 3, 4]) + b"trailing")
    img = read_pgm(path)
    np.testing.assert_array_equal(img, [[0x0102, 0x0304]])
    img[0, 0] = 0  # a copy, not a view of the file's bytes


def test_pgm_writes_any_memory_layout(tmp_path):
    # the CLI writes a transposed, flipped view of the field
    data = np.arange(12, dtype=np.uint16).reshape(3, 4) * 5000
    for view in (data.T, data.T[::-1], np.asfortranarray(data)):
        write_pgm16(tmp_path / "v.pgm", view)
        np.testing.assert_array_equal(read_pgm(tmp_path / "v.pgm"), view)


def test_pgm_rejects_out_of_range():
    with pytest.raises(ValueError):
        write_pgm16("/dev/null", np.array([[70000.0]]))
    # only 2D uint16 codes are written: floats, even in range, go through to_codes
    for values in (np.array([[1.0, 2.0]]), np.array([[3]]), np.zeros(3, dtype=np.uint16),
                   np.zeros((2, 2, 2), dtype=np.uint16)):
        with pytest.raises(ValueError, match="2D uint16"):
            write_pgm16("/dev/null", values)


def test_pgm_writes_exact_bytes(tmp_path):
    path = tmp_path / "fixed.pgm"
    write_pgm16(path, np.array([[0, 1, 256], [4660, 65534, 65535]], dtype=np.uint16))
    assert path.read_bytes() == (b"P5\n3 2\n65535\n" + bytes([0x00, 0x00, 0x00, 0x01, 0x01, 0x00,
                                                             0x12, 0x34, 0xFF, 0xFE, 0xFF, 0xFF]))


@pytest.mark.parametrize("header", [b"P5\n-2 -2\n255\n", b"P5\n0 0\n255\n",
                                    b"P5\n3 0\n255\n", b"P5\nab 2\n255\n",
                                    b"P5\n2 2\n255x\n", b"P5\n2 2\n0\n", b"P5\n2 2\n65536\n",
                                    b"P52 2\n255\n", b"P5\n2 2\n255"],
                         ids=["negative", "zero", "zero-rows", "ab", "255x", "maxval-0",
                              "maxval-65536", "no-separator", "no-raster-byte"])
def test_pgm_rejected_header_names_file(tmp_path, header):
    # a negative size had raised a reshape error, "ab" an int() error, and "0 0"
    # had been read as an empty image; neither error named the file
    path = tmp_path / "bad_header.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(ValueError, match="bad_header.pgm"):
        read_pgm(path)


SEPARATORS = st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"# c\n",
                                         b"#\n"]), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(seps=st.lists(SEPARATORS, min_size=3, max_size=3), cols=st.integers(1, 4),
       rows=st.integers(1, 4), maxval=st.sampled_from([1, 255, 256, 65535]),
       last=st.sampled_from([b" ", b"\n", b"\t", b"\r"]))
def test_pgm_header_grammar(tmp_path_factory, seps, cols, rows, maxval, last):
    # whitespace or # comments between the tokens, a whitespace byte first
    # (a comment glued to a token is part of it), then exactly one whitespace
    # byte: the raster's first byte is a newline and stays pixel data
    seps = [b" " + b"".join(sep) for sep in seps]
    wide = maxval > 255
    codes = (np.arange(10, 10 + rows * cols, dtype=np.uint16).reshape(rows, cols)
             * (257 if wide else 1))
    path = tmp_path_factory.mktemp("grammar") / "g.pgm"
    path.write_bytes(b"P5" + seps[0] + str(cols).encode() + seps[1] + str(rows).encode()
                     + seps[2] + str(maxval).encode() + last
                     + codes.astype(">u2" if wide else "u1").tobytes())
    image = read_pgm(path)
    assert image.dtype == (np.uint16 if wide else np.uint8)
    np.testing.assert_array_equal(image, codes)


def test_to_codes_maps_peak_to_maxval():
    values = np.array([[0.0, 0.25, 1.0], [0.5, 2.0, 1e-9]])
    np.testing.assert_array_equal(to_codes(values, 2.0),
                                  [[0, 8192, 32768], [16384, MAXVAL_16, 0]])
    assert to_codes(values, 2.0).dtype == np.uint16
    # a set encoded image by image with the set-wide peak
    np.testing.assert_array_equal(to_codes(values[0], 2.0), to_codes(values, 2.0)[0])
    np.testing.assert_array_equal(to_codes(np.zeros((2, 2)), 0.0), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# manifest


def test_manifest_roundtrip(tmp_path):
    cfg = cfg4()
    rng = np.random.default_rng(11)
    # integer images whose maximum is exactly the 16-bit ceiling survive
    # the save-side normalization without loss
    images = rng.integers(0, 65535, size=(4, 4, 6, 5)).astype(float)
    images[0, 0, 0, 0] = 65535.0
    eis = elemental_set(images, 0.5, cfg)
    path = manifest_io.save_elemental_set(eis, tmp_path)
    assert path.name == "manifest.json"
    assert len(list(tmp_path.glob("e_*.pgm"))) == 16
    back = manifest_io.load_elemental_set(path)
    np.testing.assert_array_equal(dense(back), images)
    assert back.pixel_pitch_mm == eis.pixel_pitch_mm
    assert back.capture_config.gap_mm == cfg.gap_mm
    assert back.capture_config.m == 4


def test_manifest_schema_fields(tmp_path):
    eis = capture(point_source_scene(200.0), cfg4(), 8, 8, pixel_pitch_mm=1.0)
    path = manifest_io.save_elemental_set(eis, tmp_path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"m", "n", "pitch_x_mm", "pitch_y_mm", "g_mm", "f_mm",
                        "wavelength_nm", "pixel_pitch_mm", "pixels_x", "pixels_y", "images",
                        "zero_images"}
    # the point reaches 9 of the 16 images; the row and column at p = 0 and q = 0 stay dark
    dark = [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [2, 0], [3, 0]]
    assert doc["zero_images"] == dark
    assert [[e["p"], e["q"]] for e in doc["images"]] == [
        [p, q] for p in range(4) for q in range(4) if [p, q] not in dark]
    assert all(set(e) == {"p", "q", "file"} for e in doc["images"])
    assert doc["images"][0]["file"] == "e_01_01.pgm"


def test_manifest_round_trips_capture_config(tmp_path):
    # the counts, the pitches per axis and the wavelength all differ from the 16x16 configs
    cfg = OpticalSystemConfig(m=2, n=3, pitch_x_mm=10.0, pitch_y_mm=8.0, gap_mm=50.0,
                              focal_length_mm=35.0, wavelength_nm=633.0)
    eis = elemental_set(np.ones((2, 3, 4, 4)), 0.5, cfg)
    back = manifest_io.load_elemental_set(manifest_io.save_elemental_set(eis, tmp_path))
    assert back.capture_config == cfg


def test_manifest_missing_image_rejected(tmp_path):
    eis = capture(point_source_scene(200.0), cfg4(), 8, 8, pixel_pitch_mm=1.0)
    path = manifest_io.save_elemental_set(eis, tmp_path)
    (tmp_path / "e_02_03.pgm").unlink()
    with pytest.raises(FileNotFoundError):
        manifest_io.load_elemental_set(path)
    doc = json.loads(path.read_text())
    doc["images"] = [e for e in doc["images"] if (e["p"], e["q"]) != (2, 3)]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="missing"):
        manifest_io.load_elemental_set(path)


BAD_ENTRIES = [
    pytest.param({"p": -1, "q": 0}, "not a lenslet", id="p=-1"),
    pytest.param({"p": 4, "q": 0}, "not a lenslet", id="p=m"),
    pytest.param({"p": 0, "q": -1}, "not a lenslet", id="q=-1"),
    pytest.param({"p": 0, "q": 4}, "not a lenslet", id="q=n"),
    pytest.param({"p": True, "q": 0}, "not a lenslet", id="p=true"),
    pytest.param({"p": 0, "q": 1.0}, "not a lenslet", id="q=1.0"),
    pytest.param({"p": 1, "q": 2}, "more than once", id="repeated"),
]


def _add_manifest_entry(path, entry):
    doc = json.loads(path.read_text())
    doc["images"].append(dict(entry, file="e_00_00.pgm"))
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("entry, message", BAD_ENTRIES)
def test_manifest_rejects_bad_entry(tmp_path, entry, message):
    # a full set plus one entry that would overwrite another image
    eis = capture(point_source_scene(200.0), cfg4(), 8, 8, pixel_pitch_mm=1.0)
    path = manifest_io.save_elemental_set(eis, tmp_path)
    _add_manifest_entry(path, entry)
    with pytest.raises(ValueError, match=message) as err:
        manifest_io.load_elemental_set(path)
    assert str(path) in str(err.value)


def test_manifest_missing_key_names_key_and_file(tmp_path):
    eis = capture(point_source_scene(200.0), cfg4(), 8, 8, pixel_pitch_mm=1.0)
    path = manifest_io.save_elemental_set(eis, tmp_path)
    doc = json.loads(path.read_text())
    del doc["pixels_x"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        manifest_io.load_elemental_set(path)
    assert str(err.value) == f"{path}: the manifest is missing required key(s): pixels_x"
    doc["pixels_x"] = 8
    del doc["images"][5]["file"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        manifest_io.load_elemental_set(path)
    assert str(err.value) == f"{path}: an image entry is missing required key(s): file"


def test_manifest_resave_of_loaded_set_is_byte_identical(tmp_path):
    eis = capture(Scene(points=[PointEmitter(x, y, 200.0 + 40.0 * x, 1.0 + y)
                                for x in (-3.0, 1.0) for y in (0.0, 2.5)]),
                  cfg4(), 8, 6, pixel_pitch_mm=1.0)
    assert all(block.dtype == np.float64 for block in eis.blocks.values())  # a capture stays float
    first = manifest_io.save_elemental_set(eis, tmp_path / "a")
    loaded = manifest_io.load_elemental_set(first)
    # a loaded set holds its 16-bit codes, 2 bytes per pixel
    assert all(block.dtype == np.uint16 and block.itemsize == 2
               for block in loaded.blocks.values())
    manifest_io.save_elemental_set(loaded, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    # the manifest and the 12 images the points reach; q = 0 stays dark
    assert json.loads(first.read_text())["zero_images"] == [[0, 0], [1, 0], [2, 0], [3, 0]]
    assert len(names) == 13 and names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


@pytest.mark.parametrize("maxval", [255, 4095])
def test_manifest_rejects_image_that_is_not_16bit(tmp_path, maxval):
    # an 8-bit image would load 257x too dim, and a 12-bit one 16x
    eis = capture(point_source_scene(200.0), cfg4(), 8, 8, pixel_pitch_mm=1.0)
    path = manifest_io.save_elemental_set(eis, tmp_path)
    image = tmp_path / "e_01_02.pgm"
    codes = read_pgm(image) >> (16 - maxval.bit_length())
    raster = codes.astype(np.uint8 if maxval < 256 else ">u2").tobytes()
    image.write_bytes(f"P5\n8 8\n{maxval}\n".encode() + raster)
    with pytest.raises(ValueError) as err:
        manifest_io.load_elemental_set(path)
    assert str(err.value).startswith(f"{path}: image entry (p=1, q=2, file='e_01_02.pgm') "
                                     f"cannot be read: {image}: maxval {maxval}, but a 16-bit PGM")


def _saved_2x2(tmp_path, images):
    cfg = OpticalSystemConfig(m=2, n=2, pitch_x_mm=10.0, pitch_y_mm=10.0, gap_mm=50.0,
                              focal_length_mm=35.0)
    return manifest_io.save_elemental_set(elemental_set(images, 0.5, cfg), tmp_path)


def test_manifest_rejects_image_of_another_shape(tmp_path):
    path = _saved_2x2(tmp_path, np.ones((2, 2, 8, 8)))
    doc = json.loads(path.read_text())
    doc["pixels_x"] = 9
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        manifest_io.load_elemental_set(path)
    assert str(err.value) == (f"{path}: image entry (p=0, q=0, file='e_00_00.pgm') has shape "
                              "(8, 8), but pixels_y x pixels_x is (8, 9)")


def test_manifest_round_trips_full_code_range(tmp_path):
    # 0x00FF and 0xFF00 trade places if a byte swap is lost or doubled
    codes = np.random.default_rng(5).integers(0, 65536, size=(2, 2, 6, 7), dtype=np.uint16)
    codes[0, 0, 0, :4] = [0, 0x00FF, 0xFF00, MAXVAL_16]
    back = manifest_io.load_elemental_set(_saved_2x2(tmp_path, codes))
    assert all(block.dtype == np.uint16 for block in back.blocks.values())
    np.testing.assert_array_equal(dense(back), codes)


def test_manifest_loads_commented_headers_and_ignores_bytes_past_the_raster(tmp_path):
    codes = np.random.default_rng(6).integers(0, 65536, size=(2, 2, 5, 3), dtype=np.uint16)
    codes[1, 1, 0, :3] = [0x00FF, 0xFF00, MAXVAL_16]  # the peak keeps the codes
    path = _saved_2x2(tmp_path, codes)
    # comments of 1 to 4 bytes make the headers odd and even in length, so the
    # raster starts at both parities; every image also carries trailing bytes
    lengths = set()
    for k, image in enumerate(sorted(tmp_path.glob("e_*.pgm"))):
        header = b"P5\n#" + b"c" * k + b"\n3 5\n65535\n"
        lengths.add(len(header) % 2)
        image.write_bytes(header + image.read_bytes()[len(b"P5\n3 5\n65535\n"):] + b"tail")
    assert lengths == {0, 1}
    np.testing.assert_array_equal(dense(manifest_io.load_elemental_set(path)), codes)


def test_manifest_truncated_image_names_the_file(tmp_path):
    path = _saved_2x2(tmp_path, np.ones((2, 2, 8, 8)))
    image = tmp_path / "e_01_00.pgm"
    image.write_bytes(image.read_bytes()[:-1])
    with pytest.raises(ValueError) as err:
        manifest_io.load_elemental_set(path)
    assert str(err.value) == (f"{path}: image entry (p=1, q=0, file='e_01_00.pgm') cannot be "
                              f"read: {image}: truncated raster (127 < 128 bytes)")


def test_manifest_load_opens_each_file_once(tmp_path, monkeypatch):
    # the manifest and the 9 images the point reaches, each read once
    path = manifest_io.save_elemental_set(
        capture(point_source_scene(200.0), cfg4(), 8, 8, pixel_pitch_mm=1.0), tmp_path)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    manifest_io.load_elemental_set(path)
    monkeypatch.undo()
    assert len(opened) == 10
    assert sorted(opened) == sorted(str(p) for p in tmp_path.iterdir())


def _read_listed_images(path):
    """The codes of a stored set, read as the benchmark's reader does: every
    ``images`` entry into a zero-filled array, and no other key."""
    doc = json.loads(path.read_text())
    codes = np.zeros((doc["m"], doc["n"], doc["pixels_y"], doc["pixels_x"]), dtype=np.uint16)
    for entry in doc["images"]:
        codes[entry["p"], entry["q"]] = read_pgm(path.parent / entry["file"])
    return codes


def _write_dense_manifest(out, codes):
    """A manifest in the layout written before ``zero_images``: one PGM per
    lenslet of the 2 x 2 array of ``_saved_2x2``, zero or not."""
    out.mkdir()
    entries = []
    for p in range(2):
        for q in range(2):
            write_pgm16(out / f"e_{p:02d}_{q:02d}.pgm", codes[p, q])
            entries.append({"p": p, "q": q, "file": f"e_{p:02d}_{q:02d}.pgm"})
    doc = {"m": 2, "n": 2, "pitch_x_mm": 10.0, "pitch_y_mm": 10.0, "g_mm": 50.0,
           "f_mm": 35.0, "wavelength_nm": 550.0, "pixel_pitch_mm": 0.5,
           "pixels_x": codes.shape[3], "pixels_y": codes.shape[2], "images": entries}
    (out / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")
    return out / "manifest.json"


def test_manifest_stores_only_images_that_hold_light(tmp_path):
    eis = capture(point_source_scene(200.0), cfg4(), 8, 8, pixel_pitch_mm=1.0)
    images = dense(eis)
    codes = to_codes(images, float(images.max()))
    nonzero = int((codes.max(axis=(2, 3)) > 0).sum())
    assert nonzero == 9
    path = manifest_io.save_elemental_set(eis, tmp_path / "set")
    assert len(list(path.parent.iterdir())) == nonzero + 1
    np.testing.assert_array_equal(dense(manifest_io.load_elemental_set(path)), codes)
    np.testing.assert_array_equal(_read_listed_images(path), codes)
    # each stored file holds the bytes that one PGM per lenslet had
    (tmp_path / "dense").mkdir()
    for entry in json.loads(path.read_text())["images"]:
        expected = tmp_path / "dense" / entry["file"]
        write_pgm16(expected, codes[entry["p"], entry["q"]])
        assert (path.parent / entry["file"]).read_bytes() == expected.read_bytes()


def test_manifest_omits_image_whose_codes_round_to_zero(tmp_path):
    # peak 65535 keeps the intensities as codes: 0.4 rounds to 0, 0.6 to 1
    images = np.zeros((2, 2, 3, 4))
    images[0, 0] = 65535.0
    images[0, 1] = 0.4
    images[1, 0, 2, 3] = 0.6
    path = _saved_2x2(tmp_path, images)
    doc = json.loads(path.read_text())
    assert [[e["p"], e["q"]] for e in doc["images"]] == [[0, 0], [1, 0]]
    assert doc["zero_images"] == [[0, 1], [1, 1]]
    assert sorted(p.name for p in tmp_path.glob("e_*.pgm")) == ["e_00_00.pgm", "e_01_00.pgm"]
    np.testing.assert_array_equal(dense(manifest_io.load_elemental_set(path)),
                                  to_codes(images, 65535.0))


def test_manifest_of_all_zero_set_has_no_image_file(tmp_path):
    path = _saved_2x2(tmp_path, np.zeros((2, 2, 3, 4)))
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    doc = json.loads(path.read_text())
    assert doc["images"] == [] and doc["zero_images"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    back = manifest_io.load_elemental_set(path)
    assert back.blocks == {}
    np.testing.assert_array_equal(dense(back), np.zeros((2, 2, 3, 4)))


def test_manifest_ignores_stale_image_of_earlier_save(tmp_path):
    _saved_2x2(tmp_path, np.ones((2, 2, 3, 4)))
    images = np.ones((2, 2, 3, 4))
    images[1, 0] = 0.0
    path = _saved_2x2(tmp_path, images)
    assert (tmp_path / "e_01_00.pgm").exists()  # the earlier save's, with codes 65535
    assert json.loads(path.read_text())["zero_images"] == [[1, 0]]
    np.testing.assert_array_equal(dense(manifest_io.load_elemental_set(path)),
                                  to_codes(images, 1.0))


def test_manifest_without_zero_images_key_loads(tmp_path):
    codes = np.random.default_rng(7).integers(0, 65536, size=(2, 2, 5, 3), dtype=np.uint16)
    codes[0, 1] = 0  # stored as a file, as every image was
    path = _write_dense_manifest(tmp_path / "dense", codes)
    back = manifest_io.load_elemental_set(path)
    np.testing.assert_array_equal(dense(back), codes)
    assert back.capture_config == OpticalSystemConfig(
        m=2, n=2, pitch_x_mm=10.0, pitch_y_mm=10.0, gap_mm=50.0, focal_length_mm=35.0)


BAD_ZERO_IMAGES = [
    pytest.param([[True, 0]], "zero_images entry [True, 0] is not a [p, q] lenslet of the "
                 "4 x 4 array", id="bool"),
    pytest.param([[0, 1.0]], "zero_images entry [0, 1.0] is not a [p, q] lenslet of the "
                 "4 x 4 array", id="float"),
    pytest.param([[0]], "zero_images entry [0] is not a [p, q] lenslet of the 4 x 4 array",
                 id="one-index"),
    pytest.param([[0, 0, 0]], "zero_images entry [0, 0, 0] is not a [p, q] lenslet of the "
                 "4 x 4 array", id="three-indices"),
    pytest.param([{"p": 0, "q": 0}], "zero_images entry {'p': 0, 'q': 0} is not a [p, q] "
                 "lenslet of the 4 x 4 array", id="object"),
    pytest.param([[4, 0]], "zero_images entry [4, 0] is not a [p, q] lenslet of the "
                 "4 x 4 array", id="p=m"),
    pytest.param([[0, -1]], "zero_images entry [0, -1] is not a [p, q] lenslet of the "
                 "4 x 4 array", id="q=-1"),
    pytest.param([[0, 0]], "zero_images entry [0, 0] is listed more than once",
                 id="repeated"),
    pytest.param([[1, 2]], "image entry (p=1, q=2) is listed more than once",
                 id="also-an-image"),
]


@pytest.mark.parametrize("extra, message", BAD_ZERO_IMAGES)
def test_manifest_rejects_bad_zero_images_entry(tmp_path, extra, message):
    # the point capture's 7 dark lenslets plus one entry that is not a new one
    path = manifest_io.save_elemental_set(
        capture(point_source_scene(200.0), cfg4(), 8, 8, pixel_pitch_mm=1.0), tmp_path)
    doc = json.loads(path.read_text())
    doc["zero_images"] += extra
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        manifest_io.load_elemental_set(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("key", ["images", "zero_images"])
def test_manifest_rejects_image_list_that_is_not_a_list(tmp_path, key):
    # an integer had raised a bare TypeError that named no file
    path = _saved_2x2(tmp_path, np.ones((2, 2, 3, 4)))
    doc = json.loads(path.read_text())
    doc[key] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        manifest_io.load_elemental_set(path)
    assert str(err.value) == f"{path}: the manifest: {key} must be a list, got 5"


# ---------------------------------------------------------------------------
# run config / scene files


def write_config(tmp_path, **extra):
    doc = {
        "optical_system": {
            "m": 4, "n": 4, "pitch_x_mm": 10.0, "pitch_y_mm": 10.0,
            "gap_mm": 50.0, "focal_length_mm": 35.0,
        },
    }
    doc.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_config_minimal(tmp_path):
    run = RunConfig.from_file(write_config(tmp_path))
    assert run.optical_system.m == 4
    assert run.plane is None and run.scan is None


def test_run_config_full(tmp_path):
    path = write_config(
        tmp_path,
        plane={"theta_x_deg": 10.0, "D_mm": 200.0,
               "grid": {"half_width_x_mm": 3.0, "half_width_y_mm": 3.0,
                        "sample_pitch_mm": 0.1}},
        scan={"axis": "x", "theta_min_deg": -20, "theta_max_deg": 20, "steps": 5},
        io={"out_dir": "out"},
    )
    run = RunConfig.from_file(path)
    assert run.plane.theta_x_deg == 10.0
    assert run.scan.steps == 5
    assert run.out_dir == "out"


def test_run_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, typo_block={})
    with pytest.raises(ConfigError, match="typo_block"):
        RunConfig.from_file(path)


def test_run_config_z_i_override(tmp_path):
    doc = json.loads(write_config(tmp_path).read_text())
    doc["optical_system"]["z_i_override_mm"] = 360.0
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    run = RunConfig.from_file(path)
    assert run.z_i_override_mm == 360.0


def test_run_config_optical_system_missing_key_names_block_and_file(tmp_path):
    doc = json.loads(write_config(tmp_path).read_text())
    del doc["optical_system"]["gap_mm"]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(path)
    assert str(err.value) == (
        f"{path}: the optical_system block is missing required key(s): gap_mm")


def test_cli_analyze_plane_missing_key_names_block_and_file(tmp_path, caplog):
    path = write_config(tmp_path, plane={"grid": {"half_width_x_mm": 1.0, "half_width_y_mm": 1.0,
                                                  "sample_pitch_mm": 0.1}})
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)
    rc = main(["analyze", "--config", str(path), "--out", str(tmp_path / "scan")])
    assert rc == 1
    assert f"{path}: the plane block is missing required key(s): D_mm" in caplog.text
    assert not (tmp_path / "scan").exists()


def write_scene(tmp_path, doc):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_scene_points(tmp_path):
    path = write_scene(tmp_path, {"points": [{"x_mm": 1.0, "z_mm": 200.0}]})
    scene = load_scene(path)
    assert scene.points[0].x_mm == 1.0
    assert scene.points[0].intensity == 1.0


def test_load_scene_rejects_unknown(tmp_path):
    path = write_scene(tmp_path, {"points": [{"z_mm": 200.0, "bogus": 1}]})
    with pytest.raises(ConfigError) as err:
        load_scene(path)
    assert str(err.value) == f"{path}: scene point 0 has unknown key(s): bogus"


def test_load_scene_plane_missing_keys_names_block_and_file(tmp_path):
    path = write_scene(tmp_path, {"planes": [{"z_mm": 200.0, "half_width_x_mm": 5.0}]})
    with pytest.raises(ConfigError) as err:
        load_scene(path)
    assert str(err.value) == (f"{path}: scene plane 0 is missing required key(s): "
                              "half_width_y_mm, texture_file")


@pytest.mark.parametrize("key", ["points", "planes"])
@pytest.mark.parametrize("value, shown", [(None, "null"), (5, "number"), ("x", "string"),
                                          ({}, "object"), (True, "boolean")],
                         ids=["null", "number", "string", "object", "boolean"])
def test_load_scene_rejects_list_that_is_not_an_array(tmp_path, key, value, shown):
    # null had read "'NoneType' object is not iterable", naming no file, and
    # "x" had been iterated one character at a time
    path = write_scene(tmp_path, {key: value})
    with pytest.raises(ConfigError) as err:
        load_scene(path)
    assert str(err.value) == f"{path}: the scene: {key} must be an array, got {shown}"


@pytest.mark.parametrize("document, keys, value, message", [
    ("config", ["optical_system"], None,
     "the optical_system block must be a JSON object, got null"),
    ("config", ["plane", "grid"], [1.0], "the plane.grid block must be a JSON object, got array"),
    ("scene", ["points", 0], "x", "scene point 0 must be a JSON object, got string"),
    ("scene", ["planes", 0], False, "scene plane 0 must be a JSON object, got boolean"),
    ("manifest", ["images", 0], 5, "an image entry must be a JSON object, got number"),
], ids=["null", "array", "string", "boolean", "number"])
def test_cli_block_that_is_not_an_object_names_its_json_type(tmp_path, caplog, document, keys,
                                                             value, message):
    # the type had been Python's: NoneType, list, str, bool, int
    block = message.partition(" must ")[0]
    test_cli_rejected_block_names_file_and_block(tmp_path, caplog, document, keys, value, block)
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.endswith(f": {message}")


def test_cli_reconstruct_names_manifest_and_entry_of_a_missing_image(tmp_path, caplog):
    # a missing file had been logged as "[Errno 2] No such file or directory:
    # 'cap/e_01_01.pgm'", naming neither the manifest nor the entry
    config, manifest, img = _synth_point_capture(tmp_path)
    entry = json.loads(manifest.read_text())["images"][0]
    (manifest.parent / entry["file"]).unlink()
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--out", str(img)])
    assert rc == 1
    assert not img.exists()
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"{manifest}: image entry (p={entry['p']}, q={entry['q']}, "
                            f"file={entry['file']!r}) cannot be read: ")
    assert "No such file or directory" in error


def test_cli_reconstruct_names_manifest_and_entry_of_a_malformed_image(tmp_path, caplog):
    # a listed file that is not a PGM had been logged as "cap/e_01_01.pgm: not
    # a binary PGM: ...", naming neither the manifest nor the entry
    config, manifest, img = _synth_point_capture(tmp_path)
    entry = json.loads(manifest.read_text())["images"][0]
    image = manifest.parent / entry["file"]
    image.write_bytes(b"XX")
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--out", str(img)])
    assert rc == 1
    assert not img.exists()
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"{manifest}: image entry (p={entry['p']}, q={entry['q']}, "
                            f"file={entry['file']!r}) cannot be read: {image}: not a binary PGM")


def test_cli_synth_scene_point_missing_key_names_block_and_file(tmp_path, caplog):
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}, {"x_mm": 1.0}]})
    out = tmp_path / "cap"
    rc = main(["synth", "--config", str(write_config(tmp_path)), "--scene", str(scene),
               "--out", str(out), "--pixels-x", "8", "--pixels-y", "8"])
    assert rc == 1
    assert f"{scene}: scene point 1 is missing required key(s): z_mm" in caplog.text
    assert not out.exists()


def test_cli_synth_scene_plane_zero_half_width_names_block_and_file(tmp_path, caplog):
    write_pgm16(tmp_path / "tex.pgm", np.full((4, 4), 100, dtype=np.uint16))
    scene = write_scene(tmp_path, {"planes": [
        {"z_mm": 200.0, "half_width_x_mm": 0.0, "half_width_y_mm": 5.0,
         "texture_file": "tex.pgm"}]})
    out = tmp_path / "cap"
    rc = main(["synth", "--config", str(write_config(tmp_path)), "--scene", str(scene),
               "--out", str(out), "--pixels-x", "8", "--pixels-y", "8"])
    assert rc == 1
    assert (f"{scene}: scene plane 0: half_width_x_mm must be positive and finite, got 0.0"
            in caplog.text)
    assert not out.exists()


def test_cli_synth_rejects_zero_pixel_pitch(tmp_path, caplog):
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}]})
    out = tmp_path / "cap"
    rc = main(["synth", "--config", str(write_config(tmp_path)), "--scene", str(scene),
               "--out", str(out), "--pixels-x", "8", "--pixels-y", "8",
               "--pixel-pitch-mm", "0"])
    assert rc == 1
    assert "--pixel-pitch-mm must be positive and finite, got 0.0" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("error, exits", [
    pytest.param(ConfigError("the scan block: steps must be an integer >= 2"), True,
                 id="ConfigError"),
    pytest.param(TypeError("unsupported operand type(s)"), False, id="TypeError"),
])
def test_cli_exits_1_on_a_rejected_input_and_lets_a_bug_propagate(
        tmp_path, caplog, monkeypatch, error, exits):
    # a library defect must not pass as a rejected document
    def scan_resolution(*args, **kwargs):
        raise error

    monkeypatch.setattr("tiltview.cli.scan_resolution", scan_resolution)
    argv = ["analyze", "--config", str(ROOT / "configs" / "real_virtual_fov.json"),
            "--out", str(tmp_path / "fov")]
    if exits:
        assert main(argv) == 1
        [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert message == str(error)
    else:
        with pytest.raises(TypeError, match="unsupported operand"):
            main(argv)
        assert not [r for r in caplog.records if r.levelname == "ERROR"]
    assert not (tmp_path / "fov").exists()


# ---------------------------------------------------------------------------
# CLI end to end


def test_cli_synth_analyze_reconstruct(tmp_path, caplog):
    config = write_config(
        tmp_path,
        plane={"theta_x_deg": 0.0, "D_mm": 200.0,
               "grid": {"half_width_x_mm": 3.0, "half_width_y_mm": 3.0,
                        "sample_pitch_mm": 0.15}},
        scan={"axis": "x", "theta_min_deg": -10, "theta_max_deg": 10, "steps": 5},
    )
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}]})
    out = tmp_path / "cap"
    caplog.set_level(logging.INFO, logger="tiltview")
    rc = main(["synth", "--config", str(config), "--scene", str(scene),
               "--out", str(out), "--pixels-x", "64", "--pixels-y", "64",
               "--pixel-pitch-mm", "0.15"])
    assert rc == 0
    # the point reaches 9 of the 16 images; the other 7 are listed, without a file
    assert len(list(out.glob("e_*.pgm"))) == 9
    assert len(json.loads((out / "manifest.json").read_text())["zero_images"]) == 7
    assert f"wrote {out / 'manifest.json'} (9 images stored, 7 all-zero, " in caplog.text

    scan_out = tmp_path / "scan"
    rc = main(["analyze", "--config", str(config), "--out", str(scan_out)])
    assert rc == 0
    lines = (scan_out / "curve.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + steps rows
    fov = json.loads((scan_out / "fov.json").read_text())
    assert set(fov) == {"threshold_ratio", "min_extent_mm",
                        "fov_negative_deg", "fov_positive_deg"}

    img_out = tmp_path / "recon.pgm"
    rc = main(["reconstruct", "--config", str(config),
               "--manifest", str(out / "manifest.json"),
               "--out", str(img_out)])
    assert rc == 0
    raster = read_pgm(img_out)
    assert raster.dtype == np.uint16
    assert raster.max() == 65535
    sidecar = json.loads(img_out.with_suffix(".json").read_text())
    assert sidecar["mode"] == "geometric"
    assert sidecar["D_mm"] == 200.0


def test_cli_flags_override_config(tmp_path):
    config = write_config(
        tmp_path,
        plane={"theta_x_deg": 0.0, "D_mm": 200.0,
               "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                        "sample_pitch_mm": 0.2}},
    )
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}]})
    out = tmp_path / "cap"
    main(["synth", "--config", str(config), "--scene", str(scene),
          "--out", str(out), "--pixel-pitch-mm", "0.15"])
    img_out = tmp_path / "tilted.pgm"
    rc = main(["reconstruct", "--config", str(config),
               "--manifest", str(out / "manifest.json"),
               "--theta-x-deg", "12.5", "--D-mm", "210.0",
               "--out", str(img_out)])
    assert rc == 0
    sidecar = json.loads(img_out.with_suffix(".json").read_text())
    assert sidecar["theta_x_deg"] == 12.5
    assert sidecar["D_mm"] == 210.0


def test_cli_reconstruct_ignores_workers(tmp_path):
    config = write_config(
        tmp_path,
        plane={"theta_x_deg": 10.0, "D_mm": 200.0,
               "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                        "sample_pitch_mm": 0.2}},
    )
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}]})
    out = tmp_path / "cap"
    main(["synth", "--config", str(config), "--scene", str(scene),
          "--out", str(out), "--pixel-pitch-mm", "0.15"])
    outputs = []
    for workers in ("1", "4"):
        img = tmp_path / f"w{workers}.pgm"
        assert main(["reconstruct", "--config", str(config),
                     "--manifest", str(out / "manifest.json"),
                     "--workers", workers, "--out", str(img)]) == 0
        outputs.append(img.read_bytes() + img.with_suffix(".json").read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_reconstruct_diffraction_far_from_focus(tmp_path):
    # 2000 mm lies far from the 360 mm beam focus of the shipped config
    config = str(ROOT / "configs" / "textured_recon.json")
    out = tmp_path / "cap"
    assert main(["synth", "--config", config, "--out", str(out),
                 "--scene", str(ROOT / "configs" / "scenes" / "point_360mm.json")]) == 0
    img = tmp_path / "far.pgm"
    start = time.monotonic()
    rc = main(["reconstruct", "--config", config, "--manifest", str(out / "manifest.json"),
               "--mode", "diffraction", "--D-mm", "2000", "--out", str(img)])
    assert rc == 0
    assert time.monotonic() - start < 30.0
    assert json.loads(img.with_suffix(".json").read_text())["mode"] == "diffraction"


def _other_value(value):
    """A valid value of the same type that differs from ``value``."""
    return value + 1 if isinstance(value, int) else value * 1.25


@pytest.mark.parametrize("field", dataclasses.fields(OpticalSystemConfig),
                         ids=lambda f: f.name)
def test_cli_reconstruct_rejects_config_of_another_capture(tmp_path, caplog, field):
    plane = {"D_mm": 200.0, "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                                     "sample_pitch_mm": 0.2}}
    config = write_config(tmp_path, plane=plane)
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}]})
    out = tmp_path / "cap"
    assert main(["synth", "--config", str(config), "--scene", str(scene),
                 "--out", str(out), "--pixel-pitch-mm", "0.15"]) == 0
    doc = json.loads(config.read_text())
    value = getattr(RunConfig.from_file(config).optical_system, field.name)
    doc["optical_system"][field.name] = _other_value(value)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    img = tmp_path / "r.pgm"
    rc = main(["reconstruct", "--config", str(other),
               "--manifest", str(out / "manifest.json"), "--out", str(img)])
    assert rc == 1
    assert not img.exists()
    assert f"{field.name} (manifest {value!r}, config {_other_value(value)!r})" in caplog.text
    assert caplog.text.count(" (manifest ") == 1


@pytest.mark.parametrize("entry, message", BAD_ENTRIES)
def test_cli_reconstruct_rejects_bad_manifest_entry(tmp_path, caplog, entry, message):
    config = write_config(tmp_path, plane={
        "D_mm": 200.0, "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                                "sample_pitch_mm": 0.2}})
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}]})
    out = tmp_path / "cap"
    assert main(["synth", "--config", str(config), "--scene", str(scene),
                 "--out", str(out), "--pixel-pitch-mm", "0.15"]) == 0
    _add_manifest_entry(out / "manifest.json", entry)
    img = tmp_path / "r.pgm"
    rc = main(["reconstruct", "--config", str(config),
               "--manifest", str(out / "manifest.json"), "--out", str(img)])
    assert rc == 1
    assert not img.exists()
    assert message in caplog.text


def _synth_point_capture(tmp_path, **extra):
    """Config, manifest path and an output image path for a 4x4 point capture."""
    plane = {"D_mm": 200.0, "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                                     "sample_pitch_mm": 0.2}}
    config = write_config(tmp_path, plane=plane, **extra)
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}]})
    out = tmp_path / "cap"
    assert main(["synth", "--config", str(config), "--scene", str(scene),
                 "--out", str(out), "--pixel-pitch-mm", "0.15"]) == 0
    return config, out / "manifest.json", tmp_path / "r.pgm"


def test_cli_geometric_reconstruct_does_not_read_the_wavelength(tmp_path):
    # back-projection is ray geometry: a manifest and config that differ only in
    # wavelength_nm give the same image and sidecar bytes, where the defocus blur
    # of a diffraction reconstruct does read it
    config, manifest, _ = _synth_point_capture(tmp_path)
    outputs = {"geometric": [], "diffraction": []}
    for wavelength in (400.0, 750.0):
        doc = json.loads(config.read_text())
        doc["optical_system"]["wavelength_nm"] = wavelength
        run = tmp_path / f"run_{wavelength:.0f}.json"
        run.write_text(json.dumps(doc))
        doc = json.loads(manifest.read_text())
        doc["wavelength_nm"] = wavelength
        man = manifest.with_name(f"manifest_{wavelength:.0f}.json")
        man.write_text(json.dumps(doc))
        for mode, images in outputs.items():
            img = tmp_path / f"{mode}_{wavelength:.0f}.pgm"
            assert main(["reconstruct", "--config", str(run), "--manifest", str(man),
                         "--mode", mode, "--theta-x-deg", "15", "--out", str(img)]) == 0
            images.append((img.read_bytes(), img.with_suffix(".json").read_bytes()))
    assert outputs["geometric"][0] == outputs["geometric"][1]
    assert outputs["diffraction"][0][0] != outputs["diffraction"][1][0]


def test_cli_geometric_reconstruct_rejects_strip_width(tmp_path, capsys):
    # the strip width only splits the plane for the defocus blur
    config, manifest, img = _synth_point_capture(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
              "--strip-width-mm", "1", "--out", str(img)])
    assert err.value.code == 2
    assert "--mode diffraction" in capsys.readouterr().err
    assert not img.exists()


@pytest.mark.parametrize("key, value", [("aperture_shape", "rectangle"),
                                        ("focus_epsilon", 0.001)])
def test_cli_reconstruct_rejects_manifest_of_another_geometry(tmp_path, caplog, key, value):
    # a capture with another pupil or focus band is never reconstructed with this one:
    # no writer has stored either key since both were fixed, so each is an unknown key
    config, manifest, img = _synth_point_capture(tmp_path)
    doc = json.loads(manifest.read_text())
    doc[key] = value
    manifest.write_text(json.dumps(doc))
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--mode", "diffraction", "--out", str(img)])
    assert rc == 1
    assert not img.exists() and not img.with_suffix(".json").exists()
    assert f"{manifest}: the manifest has unknown key(s): {key}" in caplog.text


def test_cli_reconstruct_names_the_rejected_flag(tmp_path, caplog):
    # an override is checked before the manifest is read, and named by its flag
    config, manifest, img = _synth_point_capture(tmp_path)
    manifest.unlink()
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--D-mm", "-5", "--out", str(img)])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records] == [
        "reconstruct: the command line: --D-mm must be positive and finite, got -5.0"]
    assert not img.exists() and not img.with_suffix(".json").exists()


@pytest.mark.parametrize("theta", ["95", "nan"])
def test_cli_reconstruct_names_the_rejected_tilt_flag(tmp_path, caplog, theta):
    config, manifest, img = _synth_point_capture(tmp_path)
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--theta-x-deg", theta, "--out", str(img)])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records] == [
        "reconstruct: the command line: --theta-x-deg must satisfy |theta| < 90 degrees, "
        f"got {float(theta)!r}"]
    assert not img.exists() and not img.with_suffix(".json").exists()


def test_cli_reconstruct_names_the_rejected_tilt_key(tmp_path, caplog):
    config, manifest, img = _synth_point_capture(tmp_path)
    doc = json.loads(config.read_text())
    doc["plane"]["theta_y_deg"] = -90
    config.write_text(json.dumps(doc))
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--out", str(img)])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{config}: the plane block: theta_y_deg must satisfy |theta| < 90 degrees, got -90"]
    assert not img.exists() and not img.with_suffix(".json").exists()


@pytest.mark.parametrize("out, overwritten", [
    ("r.json", "--out itself"),
    ("cap/manifest.json", "--out itself"),
    ("cap/manifest.pgm", "the manifest"),
    ("cap/manifest", "the manifest"),
    ("run", "the config"),
])
def test_cli_reconstruct_rejects_out_whose_sidecar_overwrites_a_file(tmp_path, capsys, out,
                                                                     overwritten):
    # the sidecar is --out with the suffix .json; it must land on neither the image
    # nor an input, and the rejection comes before the config or the manifest is read
    config, manifest, _ = _synth_point_capture(tmp_path)
    config.unlink()
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
              "--out", str(tmp_path / out)])
    assert err.value.code == 2
    # a --out that ends in .json is its own sidecar, and a manifest at --out is
    # met as --out, before the sidecar is
    name = {"r.json": "--out", "cap/manifest.json": "the manifest"}.get(out, overwritten)
    assert (f"reconstruct writes {(tmp_path / out).with_suffix('.json')}, which is {name}; "
            "choose another --out" in capsys.readouterr().err)
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("overwritten", ["the manifest", "the config"])
def test_cli_reconstruct_rejects_out_that_is_an_input(tmp_path, capsys, overwritten):
    # an input without the suffix .json keeps the sidecar off it, and --out itself
    # had been written over it with exit 0
    config, manifest, _ = _synth_point_capture(tmp_path)
    config = config.rename(tmp_path / "run.cfg")
    manifest = manifest.rename(manifest.with_name("man.txt"))
    out = manifest if overwritten == "the manifest" else config
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
              "--out", str(out)])
    assert err.value.code == 2
    assert (f"reconstruct writes {out}, which is {overwritten}; choose another --out"
            in capsys.readouterr().err)
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("name", ["fov.json", "curve.csv"])
def test_cli_analyze_rejects_out_that_holds_the_config(tmp_path, capsys, name):
    # analyze writes curve.csv and fov.json into --out; a config at either had
    # been overwritten with exit 0
    plane = {"D_mm": 360.0, "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                                     "sample_pitch_mm": 0.2}}
    out = tmp_path / "out"
    out.mkdir()
    config = write_config(tmp_path, plane=plane, scan={"steps": 3}).rename(out / name)
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--config", str(config), "--out", str(out)])
    assert err.value.code == 2
    assert (f"analyze writes {config}, which is the config; choose another --out"
            in capsys.readouterr().err)
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def _collision_inputs(tmp_path):
    """The inputs of all three commands: a 6 x 6 config with a plane and a 3-step
    scan, a scene of one textured plane and its capture in ``cap/``."""
    plane = {"D_mm": 200.0, "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                                     "sample_pitch_mm": 0.2}}
    config = write_config(tmp_path, plane=plane, scan={"steps": 3})
    doc = json.loads(config.read_text())
    doc["optical_system"].update(m=6, n=6)
    config.write_text(json.dumps(doc))
    texture = tmp_path / "tex.pgm"
    write_pgm16(texture, np.full((4, 4), 100, dtype=np.uint16))
    scene = write_scene(tmp_path, {"planes": [{"z_mm": 200.0, "half_width_x_mm": 20.0,
                                               "half_width_y_mm": 20.0,
                                               "texture_file": str(texture)}]})
    assert main(["synth", "--config", str(config), "--scene", str(scene),
                 "--out", str(tmp_path / "cap"), "--pixel-pitch-mm", "0.15"]) == 0
    manifest = tmp_path / "cap" / "manifest.json"
    image = manifest.parent / json.loads(manifest.read_text())["images"][0]["file"]
    return {"config": config, "scene": scene, "texture": texture, "manifest": manifest,
            "image": image}


@pytest.mark.parametrize("how", ["path", "symlink", "hard-link"])
@pytest.mark.parametrize("command, read, written", [
    ("analyze", "config", "out/fov.json"),
    ("analyze", "config", "out/curve.csv"),
    ("reconstruct", "config", "r.pgm"),
    ("reconstruct", "manifest", "r.pgm"),
    ("reconstruct", "config", "r.json"),
    ("reconstruct", "image", "r.pgm"),
    ("synth", "config", "out/manifest.json"),
    ("synth", "scene", "out/manifest.json"),
    ("synth", "texture", "out/manifest.json"),
    ("synth", "texture", "out/e_05_05.pgm"),
])
def test_cli_refuses_to_overwrite_what_it_reads(tmp_path, capsys, command, read, written, how):
    # one rule for every command: a path it writes may not be a file it reads,
    # whether by the same path, a symbolic link or a hard link. Several of these
    # had overwritten the input and exited 0
    files = _collision_inputs(tmp_path)
    target = tmp_path / written
    target.parent.mkdir(exist_ok=True)
    if how == "path" and command == "reconstruct":
        target = files[read]  # r.json: the sidecar of --out run.pgm is the config run.json
    elif how == "path":
        files[read] = files[read].rename(target)
        if read == "texture":
            scene = json.loads(files["scene"].read_text())
            scene["planes"][0]["texture_file"] = str(target)
            files["scene"].write_text(json.dumps(scene))
    else:
        {"symlink": os.symlink, "hard-link": os.link}[how](files[read], target)
    out = {"analyze": target.parent, "synth": target.parent,
           "reconstruct": target if written == "r.pgm" else target.with_suffix(".pgm")}[command]
    argv = {"analyze": ["--config", files["config"]],
            "synth": ["--config", files["config"], "--scene", files["scene"],
                      "--pixel-pitch-mm", "0.15"],
            "reconstruct": ["--config", files["config"], "--manifest", files["manifest"]]}
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    with pytest.raises(SystemExit) as err:
        main([command, *map(str, argv[command]), "--out", str(out)])
    assert err.value.code == 2
    name = {"config": "the config", "scene": "the scene", "manifest": "the manifest",
            "texture": f"the texture {files['texture']}",
            "image": f"the manifest's image {files['image'].name}"}[read]
    assert (f"{command} writes {target}, which is {name}; choose another --out"
            in capsys.readouterr().err)
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def test_cli_synth_writes_over_its_own_earlier_capture(tmp_path):
    # the images an earlier synth left in --out are outputs, not inputs
    files = _collision_inputs(tmp_path)
    before = {path: path.read_bytes() for path in (tmp_path / "cap").iterdir()}
    assert main(["synth", "--config", str(files["config"]), "--scene", str(files["scene"]),
                 "--out", str(tmp_path / "cap"), "--pixel-pitch-mm", "0.15"]) == 0
    assert {path: path.read_bytes() for path in (tmp_path / "cap").iterdir()} == before


@pytest.mark.parametrize("document", ["config", "manifest"])
def test_cli_json_that_is_not_utf8_names_the_file(tmp_path, caplog, document):
    # JSON is UTF-8 whatever the locale; a 0xFF byte had been reported without the file
    config, manifest, out = _synth_point_capture(tmp_path)
    path = {"config": config, "manifest": manifest}[document]
    path.write_bytes(b'{"m": \xff}')
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--out", str(out)])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        f"{path}: not UTF-8 at byte 6; save it as UTF-8"]
    assert not out.exists()


def test_cli_rejects_pupil_shape_in_config(tmp_path, caplog):
    doc = json.loads(write_config(tmp_path).read_text())
    doc["optical_system"]["aperture_shape"] = "hexagon"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 1
    assert (f"{path}: the optical_system block has unknown key(s): aperture_shape"
            in caplog.text)
    assert not out.exists()


READER_CASES = [
    pytest.param("config", ["optical_system", "gap_mm"], -1, "the optical_system block",
                 id="gap_mm"),
    pytest.param("config", ["plane", "theta_x_deg"], 95, "the plane block", id="theta_x_deg"),
    pytest.param("config", ["plane", "grid", "sample_pitch_mm"], "1", "the plane.grid block",
                 id="sample_pitch_mm"),
    pytest.param("config", ["optical_system"], [1], "the optical_system block",
                 id="non-object"),
    pytest.param("scene", ["planes", 0, "z_mm"], 0, "scene plane 0", id="scene-z_mm"),
    pytest.param("manifest", ["bogus"], 1, "the manifest", id="manifest-key"),
    pytest.param("manifest", ["pixels_x"], -3, "the manifest", id="pixels_x"),
    pytest.param("manifest", ["pixel_pitch_mm"], math.nan, "the manifest",
                 id="pixel_pitch_mm-nan"),
    pytest.param("config", ["optical_system", "z_i_override_mm"], 0, "the optical_system block",
                 id="z_i_override_mm-zero"),
    pytest.param("config", ["scan", "threshold_ratio"], 0.5, "the scan block",
                 id="threshold_ratio"),
    # a path that is not a string had failed in the / of pathlib or in open
    pytest.param("scene", ["planes", 0, "texture_file"], 5, "scene plane 0",
                 id="texture_file-int"),
    pytest.param("manifest", ["images", 0, "file"], 5, "an image entry", id="file-int"),
    pytest.param("config", ["io"], {"out_dir": 5}, "the io block", id="out_dir-int"),
]


@pytest.mark.parametrize("document, keys, value, block", READER_CASES)
def test_cli_rejected_block_names_file_and_block(tmp_path, caplog, document, keys, value,
                                                 block):
    config, manifest, _ = _synth_point_capture(tmp_path, scan={"steps": 5})
    write_pgm16(tmp_path / "tex.pgm", np.full((4, 4), 100, dtype=np.uint16))
    scene = write_scene(tmp_path, {
        "points": [{"x_mm": 0.0, "y_mm": 0.0, "z_mm": 200.0, "intensity": 1.0}],
        "planes": [{"z_mm": 200.0, "half_width_x_mm": 5.0, "half_width_y_mm": 5.0,
                    "texture_file": "tex.pgm", "intensity_scale": 1.0}]})
    path = {"config": config, "scene": scene, "manifest": manifest}[document]
    doc = json.loads(path.read_text())
    block_doc = doc
    for key in keys[:-1]:
        block_doc = block_doc[key]
    block_doc[keys[-1]] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {"config": ["analyze", "--config", str(config), "--out", str(out)],
            "scene": ["synth", "--config", str(config), "--scene", str(scene),
                      "--out", str(out)],
            "manifest": ["reconstruct", "--config", str(config), "--manifest", str(manifest),
                         "--out", str(out / "r.pgm")]}[document]
    assert main(argv) == 1
    assert not out.exists()
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"{path}: {block}")


@pytest.mark.parametrize("document, keys, value, block, key", [
    ("config", ["optical_system", "gap_mm"], True, "the optical_system block", "gap_mm"),
    ("config", ["optical_system", "z_i_override_mm"], True, "the optical_system block",
     "z_i_override_mm"),
    # the plane block builds the plane's axial_offset_mm from D_mm, and names D_mm
    ("config", ["plane", "D_mm"], True, "the plane block", "D_mm"),
    ("config", ["plane", "grid", "sample_pitch_mm"], False, "the plane.grid block",
     "sample_pitch_mm"),
    ("config", ["scan", "theta_min_deg"], True, "the scan block", "theta_min_deg"),
    ("scene", ["points"], [{"z_mm": 200.0, "intensity": True}], "scene point 0", "intensity"),
    ("scene", ["planes", 0, "intensity_scale"], True, "scene plane 0", "intensity_scale"),
    ("manifest", ["pixel_pitch_mm"], True, "the manifest", "pixel_pitch_mm"),
], ids=["gap_mm", "z_i_override_mm", "D_mm", "sample_pitch_mm", "theta_min_deg",
        "point-intensity", "intensity_scale", "pixel_pitch_mm"])
def test_cli_rejects_json_bool_for_a_real_value(tmp_path, caplog, document, keys, value,
                                                block, key):
    # a bool is an int: "D_mm": true had been read as a 1 mm depth, and
    # "theta_min_deg": true as 1 degree
    test_cli_rejected_block_names_file_and_block(tmp_path, caplog, document, keys, value, block)
    bool_text = "false" if value is False else "true"
    assert f": {block}: {key} must be a number, got {bool_text}" in caplog.text


@pytest.mark.parametrize("document, key, value, block, message", [
    ("config", "D_mm", True, "the plane block", "D_mm must be a number, got true"),
    ("config", "D_mm", -1, "the plane block", "D_mm must be positive and finite, got -1"),
    ("manifest", "g_mm", True, "the manifest", "g_mm must be a number, got true"),
    ("manifest", "g_mm", -1, "the manifest", "g_mm must be positive and finite, got -1"),
    ("manifest", "f_mm", True, "the manifest", "f_mm must be a number, got true"),
    ("manifest", "f_mm", 0, "the manifest", "f_mm must be positive and finite, got 0"),
    # raster_pitch reads None as "choose the pitch": a null pitch had loaded, and
    # reconstruct had exited 1 with "unsupported operand type(s) for *: 'float'
    # and 'NoneType'"
    ("manifest", "pixel_pitch_mm", None, "the manifest",
     "pixel_pitch_mm must be a number, got null"),
], ids=["D_mm-bool", "D_mm-negative", "g_mm-bool", "g_mm-negative", "f_mm-bool", "f_mm-zero",
        "pixel_pitch_mm-null"])
def test_cli_rejection_names_the_documents_key(tmp_path, caplog, document, key, value, block,
                                               message):
    # the plane's D_mm is built as axial_offset_mm, and the manifest's g_mm
    # and f_mm as gap_mm and focal_length_mm; the message names the key the
    # document holds, and its value
    keys = ["plane", key] if document == "config" else [key]
    test_cli_rejected_block_names_file_and_block(tmp_path, caplog, document, keys, value, block)
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.endswith(f": {block}: {message}")


def _numeric_keys(cls):
    """The fields of ``cls`` annotated ``int`` or ``float``: a numeric field
    added later joins the table below without an edit."""
    return [f.name for f in dataclasses.fields(cls) if f.type in ("int", "float")]


NUMERIC_KEYS = [
    *[("config", ["optical_system", key], "the optical_system block")
      for key in (*_numeric_keys(OpticalSystemConfig), "z_i_override_mm")],
    *[("config", ["plane", key], "the plane block")
      for key in ("D_mm", "theta_x_deg", "theta_y_deg")],
    *[("config", ["plane", "grid", key], "the plane.grid block")
      for key in _numeric_keys(PlaneGrid)],
    *[("config", ["scan", key], "the scan block") for key in _numeric_keys(ScanConfig)],
    *[("scene", ["points", 0, key], "scene point 0") for key in _numeric_keys(PointEmitter)],
    *[("scene", ["planes", 0, key], "scene plane 0") for key in _numeric_keys(TexturedPlane)],
    *[("manifest", [key], "the manifest")
      for key in (*manifest_io.GEOMETRY_KEYS.values(), "pixel_pitch_mm", "pixels_x", "pixels_y")],
]


@pytest.mark.parametrize("value", [math.nan, True], ids=["nan", "true"])
@pytest.mark.parametrize("document, keys, block", NUMERIC_KEYS,
                         ids=[f"{block}-{keys[-1]}" for _, keys, block in NUMERIC_KEYS])
def test_cli_rejected_number_names_its_key(tmp_path, caplog, document, keys, block, value):
    # every numeric key of the config, the scene and the manifest: the one
    # ERROR line names the file, the block, the key and the value given
    test_cli_rejected_block_names_file_and_block(tmp_path, caplog, document, keys, value, block)
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert f": {block}: {keys[-1]} " in error
    shown = ("nan",) if value is not True else ("true", "True")
    assert any(f"got {text}" in error for text in shown), error


@pytest.mark.parametrize("value", ["5", None], ids=["string", "null"])
@pytest.mark.parametrize("keys, block", [
    (["plane", "theta_x_deg"], "the plane block"),
    (["plane", "theta_y_deg"], "the plane block"),
    (["scan", "theta_min_deg"], "the scan block"),
    (["scan", "theta_max_deg"], "the scan block"),
], ids=["theta_x_deg", "theta_y_deg", "theta_min_deg", "theta_max_deg"])
def test_cli_rejected_angle_that_is_not_a_number_names_its_key(tmp_path, caplog, keys, block,
                                                                value):
    # a tilt or a scan angle given as a string or null had been logged as
    # "bad operand type for abs(): 'str'", naming neither the key nor the value
    test_cli_rejected_block_names_file_and_block(tmp_path, caplog, "config", keys, value, block)
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.endswith(f": {block}: {keys[-1]} must be a number, got {json.dumps(value)}")


@pytest.mark.parametrize("flags, message", [
    (["--pixels-x", "0"], "--pixels-x must be an integer >= 1, got 0"),
    (["--pixels-y", "-2"], "--pixels-y must be an integer >= 1, got -2"),
    (["--pixel-pitch-mm", "nan"], "--pixel-pitch-mm must be positive and finite, got nan"),
    (["--pixels-x", "200", "--pixel-pitch-mm", "0.1"], "--pixels-x times --pixel-pitch-mm "
     "must not exceed the lens pitch pitch_x_mm, got 200 * 0.1 > 10.0"),
], ids=["pixels-x", "pixels-y", "pixel-pitch-mm", "wider-than-the-lens"])
def test_cli_synth_names_the_rejected_pixel_flag(tmp_path, caplog, flags, message):
    # the flags are checked before the scene is read, so an absent scene is
    # not what the error names
    out = tmp_path / "cap"
    rc = main(["synth", "--config", str(write_config(tmp_path)),
               "--scene", str(tmp_path / "absent.json"), "--out", str(out), *flags])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records] == [f"synth: the command line: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("written", ["--out", "the sidecar"])
def test_cli_reconstruct_rejects_out_onto_an_image_the_manifest_lists(tmp_path, capsys,
                                                                        written):
    # --out had overwritten the stored image, exiting 0, and the capture no
    # longer loaded; the check comes after the manifest is read
    config, manifest, _ = _synth_point_capture(tmp_path)
    doc = json.loads(manifest.read_text())
    entry = doc["images"][0]
    if written == "the sidecar":
        # a manifest may name its images as it likes: list one with the suffix .json
        (manifest.parent / entry["file"]).rename(manifest.parent / "e.json")
        entry["file"] = "e.json"
        manifest.write_text(json.dumps(doc))
    out = (manifest.parent / entry["file"]).with_suffix(".pgm")
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
              "--out", str(out)])
    assert err.value.code == 2
    path = out if written == "--out" else out.with_suffix(".json")
    assert (f"reconstruct writes {path}, which is the manifest's image {entry['file']}; "
            "choose another --out" in capsys.readouterr().err)
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before
    # a path in the capture's folder that the manifest does not list is written
    assert main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
                 "--out", str(manifest.parent / "recon.pgm")]) == 0
    after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert set(after) - set(before) == {manifest.parent / "recon.pgm",
                                        manifest.parent / "recon.json"}
    assert all(after[path] == data for path, data in before.items())


@pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard-link"])
@pytest.mark.parametrize("written", ["--out", "the sidecar"])
def test_cli_reconstruct_rejects_out_linked_to_an_image_the_manifest_lists(tmp_path, capsys,
                                                                         written, link):
    # a path outside the capture's folder that is the same file as a listed
    # image, by a symbolic or a hard link, is rejected like the image's own path
    config, manifest, out = _synth_point_capture(tmp_path)
    entry = json.loads(manifest.read_text())["images"][0]
    link(manifest.parent / entry["file"], out if written == "--out" else out.with_suffix(".json"))
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
              "--out", str(out)])
    assert err.value.code == 2
    path = out if written == "--out" else out.with_suffix(".json")
    assert (f"reconstruct writes {path}, which is the manifest's image {entry['file']}; "
            "choose another --out" in capsys.readouterr().err)
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("document, edit, message", [
    ("config", lambda text: text[:20], "not valid JSON: Expecting property name enclosed in "
     "double quotes at line 1, column 21"),
    ("config", lambda text: text.replace('"gap_mm": 50.0', '"gap_mm": 50, "gap_mm": 35'),
     "key 'gap_mm' is given more than once in one object"),
    ("scene", lambda text: text[:-1], "not valid JSON: Expecting ',' delimiter at line 1"),
    ("manifest", lambda text: text.replace('"m": 4', '"m": 4, "m": 4'),
     "key 'm' is given more than once in one object"),
], ids=["config-truncated", "config-duplicate", "scene-truncated", "manifest-duplicate"])
def test_cli_malformed_json_names_the_file(tmp_path, caplog, document, edit, message):
    # a syntax error had been logged without the file, and a key given twice
    # had been read as its last value
    config, manifest, _ = _synth_point_capture(tmp_path)
    write_pgm16(tmp_path / "tex.pgm", np.full((4, 4), 100, dtype=np.uint16))
    scene = write_scene(tmp_path, {"planes": [{"z_mm": 200.0, "half_width_x_mm": 5.0,
                                               "half_width_y_mm": 5.0,
                                               "texture_file": "tex.pgm"}]})
    path = {"config": config, "scene": scene, "manifest": manifest}[document]
    path.write_text(edit(path.read_text()))
    out = tmp_path / "out"
    argv = {"config": ["analyze", "--config", str(config), "--out", str(out)],
            "scene": ["synth", "--config", str(config), "--scene", str(scene),
                      "--out", str(out)],
            "manifest": ["reconstruct", "--config", str(config), "--manifest", str(manifest),
                         "--out", str(out / "r.pgm")]}[document]
    assert main(argv) == 1
    assert not out.exists()
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"{path}: {message}")


@pytest.mark.parametrize("block, key, value", [
    ("plane", "intensity_scale", math.nan), ("point", "x_mm", math.nan),
    ("point", "y_mm", -math.inf), ("point", "z_mm", math.inf), ("point", "intensity", math.inf),
    ("plane", "z_mm", math.inf), ("plane", "half_width_x_mm", math.inf)])
def test_cli_synth_rejects_non_finite_scene_value(tmp_path, caplog, block, key, value):
    # each had written a manifest of NaN-cast, vignetted or blank images with exit 0
    write_pgm16(tmp_path / "tex.pgm", np.full((4, 4), 100, dtype=np.uint16))
    point = {"x_mm": 1.0, "y_mm": 0.0, "z_mm": 200.0, "intensity": 1.0}
    plane = {"z_mm": 200.0, "half_width_x_mm": 5.0, "half_width_y_mm": 5.0,
             "intensity_scale": 1.0, "texture_file": "tex.pgm"}
    {"point": point, "plane": plane}[block][key] = value
    scene = write_scene(tmp_path, {"points": [point], "planes": [plane]})
    out = tmp_path / "cap"
    rc = main(["synth", "--config", str(write_config(tmp_path)), "--scene", str(scene),
               "--out", str(out), "--pixels-x", "8", "--pixels-y", "8"])
    assert rc == 1
    assert not out.exists()
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"{scene}: scene {block} 0: ")
    assert "finite" in error


@pytest.mark.parametrize("m", [2.5, True])
def test_cli_analyze_rejects_non_integer_lenslet_count(tmp_path, caplog, m):
    # m = 2.5 had scanned 3 lenslets, none on the axis, and true a single one
    doc = json.loads((ROOT / "configs" / "real_virtual_fov.json").read_text())
    doc["optical_system"]["m"] = m
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    assert not (out / "curve.csv").exists()
    assert f"{config}: the optical_system block: m must be an integer" in caplog.text


def test_cli_reconstruct_rejects_non_integer_lenslet_count_in_manifest(tmp_path, caplog):
    config, manifest, img = _synth_point_capture(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["m"] = 2.5
    manifest.write_text(json.dumps(doc))
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--out", str(img)])
    assert rc == 1
    assert not img.exists()
    assert f"{manifest}: the manifest: m must be an integer" in caplog.text


@pytest.mark.parametrize("override", [math.nan, 0])
def test_cli_analyze_rejects_nan_and_zero_focus_override(tmp_path, caplog, override):
    # a NaN override had been taken as the collimated case and written a focused-mode curve
    doc = json.loads((ROOT / "configs" / "real_virtual_fov.json").read_text())
    doc["optical_system"]["z_i_override_mm"] = override
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    assert "z_i_override_mm" in caplog.text
    assert not (out / "curve.csv").exists() and not (out / "fov.json").exists()


@pytest.mark.parametrize("override", [math.nan, 0])
def test_cli_reconstruct_rejects_nan_and_zero_focus_override(tmp_path, caplog, override):
    config, manifest, img = _synth_point_capture(tmp_path)
    doc = json.loads(config.read_text())
    doc["optical_system"]["z_i_override_mm"] = override
    config.write_text(json.dumps(doc))
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--mode", "diffraction", "--out", str(img)])
    assert rc == 1
    assert "z_i_override_mm" in caplog.text
    assert not img.exists()


@pytest.mark.parametrize("override", [math.nan, 0])
def test_cli_geometric_reconstruct_rejects_nan_and_zero_focus_override(tmp_path, caplog,
                                                                     override):
    # the geometric back-projection never uses the focus, and had accepted it
    config, manifest, img = _synth_point_capture(tmp_path)
    doc = json.loads(config.read_text())
    doc["optical_system"]["z_i_override_mm"] = override
    config.write_text(json.dumps(doc))
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--out", str(img)])
    assert rc == 1
    assert f"{config}: the optical_system block: z_i_override_mm must be nonzero" in caplog.text
    assert not img.exists()


@pytest.mark.parametrize("override, focus", [(math.inf, math.inf), (-math.inf, -math.inf),
                                             (-120, -120.0), (360, 360.0)])
def test_run_config_keeps_infinite_and_negative_focus_override(tmp_path, override, focus):
    doc = json.loads(write_config(tmp_path).read_text())
    doc["optical_system"]["z_i_override_mm"] = override
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    run = RunConfig.from_file(path)
    assert run.optical_system.focus_mm(run.z_i_override_mm) == focus


@pytest.mark.parametrize("override, message", [
    ("5", 'z_i_override_mm must be a number, got "5"'),
    ([], "z_i_override_mm must be a number, got []"),
    ({}, "z_i_override_mm must be a number, got {}"),
    ([1.0], "z_i_override_mm must be a number, got [1.0]"),
    (math.nan, "z_i_override_mm must be nonzero and not NaN, got nan; "
     "use inf for a collimated beam"),
    (0, "z_i_override_mm must be nonzero and not NaN, got 0.0; "
     "use inf for a collimated beam"),
    (math.inf, None),  # the collimated beam
], ids=["string", "empty-array", "object", "array", "nan", "zero", "infinity"])
def test_cli_analyze_focus_override_that_is_not_a_number_names_its_key(tmp_path, caplog,
                                                                      override, message):
    # "5" had been read as 5.0 and analyze had exited 0; an array or an object
    # had read "float() argument must be a string or a real number", naming no key
    doc = json.loads((ROOT / "configs" / "real_virtual_fov.json").read_text())
    doc["optical_system"]["z_i_override_mm"] = override
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = main(["analyze", "--config", str(config), "--out", str(out)])
    if message is None:
        run = RunConfig.from_file(config)
        assert rc == 0 and run.optical_system.focus_mm(run.z_i_override_mm) == math.inf
        return
    assert rc == 1
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error == f"{config}: the optical_system block: {message}"
    assert not out.exists()


def test_cli_synth_rejects_one_texel_wide_texture(tmp_path, caplog):
    # a texture one texel wide had no edge in x: the plane filled every view
    write_pgm16(tmp_path / "tex.pgm", np.full((4, 1), 100, dtype=np.uint16))
    scene = write_scene(tmp_path, {"planes": [
        {"z_mm": 200.0, "half_width_x_mm": 5.0, "half_width_y_mm": 5.0,
         "texture_file": "tex.pgm"}]})
    out = tmp_path / "cap"
    rc = main(["synth", "--config", str(write_config(tmp_path)), "--scene", str(scene),
               "--out", str(out), "--pixels-x", "8", "--pixels-y", "8"])
    assert rc == 1
    assert f"{scene}: scene plane 0: texture must be a 2D array of at least 2 x 2" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("texture, error, reason", [
    pytest.param(None, FileNotFoundError, "[Errno 2] No such file or directory: '{}'",
                 id="missing"),
    pytest.param(b"P6\n2 2\n255\n" + bytes(12), ValueError, "{}: not a binary PGM",
                 id="not-a-PGM"),
])
def test_load_scene_names_scene_block_and_key_of_an_unreadable_texture(
        tmp_path, caplog, texture, error, reason):
    if texture is not None:
        (tmp_path / "tex.pgm").write_bytes(texture)
    scene = write_scene(tmp_path, {"planes": [
        {"z_mm": 200.0, "half_width_x_mm": 5.0, "half_width_y_mm": 5.0,
         "texture_file": "tex.pgm"}]})
    prefix = (f"{scene}: scene plane 0: texture_file 'tex.pgm' cannot be read: "
              + reason.format(tmp_path / "tex.pgm"))
    # the reader's own class is kept
    with pytest.raises(error) as raised:
        load_scene(scene)
    assert str(raised.value).startswith(prefix)
    out = tmp_path / "cap"
    rc = main(["synth", "--config", str(write_config(tmp_path)), "--scene", str(scene),
               "--out", str(out), "--pixels-x", "8", "--pixels-y", "8"])
    assert rc == 1
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.startswith(prefix)
    assert not out.exists()


@pytest.mark.parametrize("config", ["focused_2m", "focused_6m", "real_virtual_fov"])
def test_cli_analyze_matches_reference_curve(tmp_path, config):
    # golden bytes of each shipped config; the real/virtual curve is the benchmark's reference
    out = tmp_path / "fov"
    assert main(["analyze", "--config", str(ROOT / "configs" / f"{config}.json"),
                 "--out", str(out)]) == 0
    golden = ROOT / "tests" / "golden" / config
    curve = (ROOT / "perfbench" / "ref" / "real_virtual_fov_curve.csv"
             if config == "real_virtual_fov" else golden / "curve.csv")
    assert (out / "curve.csv").read_bytes() == curve.read_bytes()
    assert (out / "fov.json").read_bytes() == (golden / "fov.json").read_bytes()


def _assert_within_golden(image, golden):
    """A reconstruct output against its golden file: at most one code apart
    per pixel, the sidecar equal but for ``normalization_max``, which must
    agree within 1e-12 relative (round-off may differ between hosts)."""
    ours, gold = read_pgm(image), read_pgm(golden)
    assert ours.shape == gold.shape
    assert np.abs(ours.astype(int) - gold.astype(int)).max() <= 1, image.name
    sidecar = json.loads(image.with_suffix(".json").read_text())
    expected = json.loads(golden.with_suffix(".json").read_text())
    peak, golden_peak = sidecar.pop("normalization_max"), expected.pop("normalization_max")
    assert sidecar == expected
    assert peak == pytest.approx(golden_peak, rel=1e-12, abs=0.0), image.name


#: The digest that ``tests/golden/regenerate.py`` writes the digest goldens with.
sha256_listing = runpy.run_path(str(ROOT / "tests" / "golden" / "regenerate.py"))[
    "sha256_listing"]


def run_script(monkeypatch, name, *args):
    """Run ``scripts/<name>`` as a program with ``args``; it must exit 0."""
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    assert done.value.code == 0


def run_tilt_sweep(monkeypatch, mode, out):
    run_script(monkeypatch, "run_tilt_sweep.py", "--mode", mode, "--out", out)


def test_fov_analysis_script_writes_each_shipped_config(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "run_fov_analysis.py", "--out", tmp_path)
    names = ["real_virtual_fov", "focused_2m", "focused_6m"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["curve.csv", "fov.json"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == names
    # the shipped scans stop at +/-40 deg, inside every 1.5x crossing
    assert all(line.endswith(", fov open/open") for line in lines)


def test_fov_analysis_summary_prints_each_crossing_with_its_own_sign(tmp_path):
    summarize = runpy.run_path(str(ROOT / "scripts" / "run_fov_analysis.py"))["summarize"]
    (tmp_path / "curve.csv").write_bytes(
        (ROOT / "tests" / "golden" / "focused_2m" / "curve.csv").read_bytes())
    fov = {"threshold_ratio": 1.5, "min_extent_mm": 0.0344,
           "fov_negative_deg": -55.16, "fov_positive_deg": 53.64}
    (tmp_path / "fov.json").write_text(json.dumps(fov))
    assert summarize(tmp_path).endswith(", fov -55.16 deg/+53.64 deg")
    fov["fov_negative_deg"] = None
    (tmp_path / "fov.json").write_text(json.dumps(fov))
    assert summarize(tmp_path).endswith(", fov open/+53.64 deg")


def test_point_oracle_script_agrees_with_the_analyzer(monkeypatch, capsys):
    # the reconstructed spot against the analyzer's, within tens of percent
    run_script(monkeypatch, "run_point_oracle.py")
    [ratio] = [float(line.split(":")[1]) for line in capsys.readouterr().out.splitlines()
               if line.startswith("ratio:")]
    assert 0.5 <= ratio <= 1.5


def test_geometric_sweep_matches_golden_outputs(tmp_path, monkeypatch, capsys):
    # the six planes of scripts/run_tilt_sweep.py in geometric mode: no FFT or
    # BLAS runs, so every PGM and sidecar keeps its bytes
    out = tmp_path / "sweep"
    run_tilt_sweep(monkeypatch, "geometric", out)
    assert ("captured 16x16 elemental images, 81 stored and 175 all-zero -> "
            f"{out / 'capture' / 'manifest.json'}\n") in capsys.readouterr().out
    golden = ROOT / "tests" / "golden" / "tilt_sweep_geometric"
    names = sorted(p.name for p in golden.iterdir())
    assert names == sorted(p.name for p in out.iterdir() if p.is_file())
    assert len(names) == 12
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_synth_point_matches_golden_digest(tmp_path):
    # the one golden that runs the point splat: every file keeps its bytes
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(ROOT / "configs" / "real_virtual_fov.json"),
                 "--scene", str(ROOT / "configs" / "scenes" / "point_360mm.json"),
                 "--pixels-x", "64", "--pixels-y", "64", "--out", str(out)]) == 0
    golden = ROOT / "tests" / "golden" / "synth_point_360mm.sha256"
    assert sha256_listing(out) == golden.read_text()


def test_diffraction_reconstructs_match_golden_outputs(tmp_path, monkeypatch):
    # the six planes of scripts/run_tilt_sweep.py in diffraction mode, and the
    # 45 degree plane through the 360 mm beam focus in 1 mm strips on its capture
    out = tmp_path / "sweep"
    run_tilt_sweep(monkeypatch, "diffraction", out)
    golden = ROOT / "tests" / "golden"
    # the capture runs no FFT or BLAS: every file keeps its bytes
    assert sha256_listing(out / "capture") == (golden / "tilt_sweep_capture.sha256").read_text()
    images = sorted((golden / "tilt_sweep_diffraction").glob("*.pgm"))
    assert [p.name for p in images] == sorted(p.name for p in out.glob("*.pgm"))
    assert len(images) == 6
    for image in images:
        _assert_within_golden(out / image.name, image)
    steep = tmp_path / "recon_steep.pgm"
    assert main(["reconstruct", "--config", str(ROOT / "configs" / "textured_recon.json"),
                 "--manifest", str(out / "capture" / "manifest.json"), "--mode", "diffraction",
                 "--theta-x-deg", "45", "--D-mm", "360", "--strip-width-mm", "1",
                 "--out", str(steep)]) == 0
    _assert_within_golden(steep, golden / "recon_steep" / "recon_steep.pgm")


def test_focused_series_matches_golden_outputs(tmp_path):
    # the focused (g = f) system: a textured plane at 2000 mm read through a
    # scene document, captured by synth and reconstructed with the defocus PSF
    golden = ROOT / "tests" / "golden" / "focused_2m_series"
    config, capture = str(ROOT / "configs" / "focused_2m.json"), tmp_path / "capture"
    assert main(["synth", "--config", config, "--scene", str(golden / "scene.json"),
                 "--pixels-x", "128", "--pixels-y", "128", "--out", str(capture)]) == 0
    images = sorted(golden.glob("recon_theta_*.pgm"))
    assert [p.name for p in images] == ["recon_theta_00.0.pgm", "recon_theta_20.0.pgm",
                                        "recon_theta_40.0.pgm"]
    for theta, image in zip(("0", "20", "40"), images, strict=True):
        out = tmp_path / image.name
        assert main(["reconstruct", "--config", config,
                     "--manifest", str(capture / "manifest.json"), "--mode", "diffraction",
                     "--theta-x-deg", theta, "--out", str(out)]) == 0
        _assert_within_golden(out, image)


def test_cli_imports_without_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, tiltview.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("level, code", [("debug", 0), ("Warning", 0), ("verbose", 2), ("", 2)])
def test_cli_log_level_takes_any_case_and_names_the_variable_when_unknown(tmp_path, level, code):
    # a lower-case or unknown level had ended every command in a traceback
    # from logging, before the command ran
    env = dict(os.environ, TILTVIEW_LOG_LEVEL=level)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "tiltview.cli", "analyze", "--config",
                           str(ROOT / "configs" / "real_virtual_fov.json"),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code and "Traceback" not in done.stderr
    assert (tmp_path / "out" / "fov.json").exists() == (code == 0)
    if code:
        assert done.stderr == (f"tiltview: TILTVIEW_LOG_LEVEL must be one of DEBUG, INFO, "
                               f"WARNING, ERROR, CRITICAL, in any case, got {level!r}\n")


def test_importing_a_module_loads_only_its_own_imports():
    # the package root imports nothing, so pgm and optics come without the rest
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, tiltview.pgm, tiltview.optics; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'tiltview'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "['tiltview', 'tiltview.optics', 'tiltview.pgm']"


def test_readme_names_every_cli_flag():
    # a flag that README never names is undocumented, or passed by nothing
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    readme = (ROOT / "README.md").read_text()
    missing = [f"{name} {option}" for name, command in commands.choices.items()
               for action in command._actions for option in action.option_strings
               if option not in ("-h", "--help")
               and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)]
    assert missing == []


def test_readme_command_bullets_name_only_their_commands_flags():
    # the reverse check: a flag deleted from a command cannot stay in its README bullet
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    readme = (ROOT / "README.md").read_text()
    bullets = dict(re.findall(r"^\* `(\w+)`:(.*(?:\n  .*)*)", readme, re.M))
    assert sorted(bullets) == sorted(commands.choices)
    stale = [f"{name} {flag}" for name, text in bullets.items()
             for flag in re.findall(r"(?<![\w-])--\w[\w-]*", text)
             if flag not in commands.choices[name]._option_string_actions]
    assert stale == []


def test_cli_synth_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path)
    scene = write_scene(tmp_path, {"points": [{"x_mm": 1.5, "z_mm": 180.0}]})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["synth", "--config", str(config), "--scene", str(scene),
                     "--out", str(out), "--pixel-pitch-mm", "0.15"]) == 0
        files = sorted(out.glob("e_*.pgm"))
        assert len(files) == 9  # the images the point reaches
        files.append(out / "manifest.json")
        outs.append(b"".join(p.read_bytes() for p in files))
    assert outs[0] == outs[1]


def test_cli_analyze_zero_steps_usage_error(tmp_path, caplog):
    # the step count is checked with the rest of the scan block when the
    # config is read, so a bad count is a config error (exit 1), not a
    # usage error (exit 2)
    config = write_config(
        tmp_path,
        plane={"D_mm": 200.0,
               "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                        "sample_pitch_mm": 0.2}},
        scan={"steps": 0},
    )
    assert main(["analyze", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert f"{config}: the scan block: steps must be an integer >= 3, got 0" in caplog.text


@pytest.mark.parametrize("scan, message", [
    # a NaN angle had written a curve.csv of nan rows and a truncated fov.json
    ({"theta_min_deg": math.nan}, "scan range"),
    # a fractional count had failed in numpy without naming the file
    ({"steps": 5.5}, "steps must be an integer >= 3, got 5.5"),
    # a bool is an int subclass, and had passed the step check
    ({"steps": True}, "steps must be an integer >= 3, got True"),
    ({"steps": 2}, "steps must be an integer >= 3, got 2"),
    ({"axis": "z"}, "scan axis must be 'x', 'y' or 'diagonal', got 'z'"),
    ({"theta_min_deg": 20.0, "theta_max_deg": -20.0}, "scan range"),
])
def test_cli_analyze_rejects_bad_scan_block(tmp_path, caplog, scan, message):
    config = write_config(
        tmp_path,
        plane={"D_mm": 360.0,
               "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                        "sample_pitch_mm": 0.2}},
        scan=scan,
    )
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    assert f"{config}: the scan block: " in caplog.text
    assert message in caplog.text
    assert not (out / "curve.csv").exists() and not (out / "fov.json").exists()


@pytest.mark.parametrize("depth", ["nan", "inf"])
def test_cli_analyze_rejects_non_finite_depth(tmp_path, caplog, depth):
    # a NaN depth had written a curve.csv of nan and a fov.json holding a
    # bare NaN, which is not JSON; json.dumps writes NaN and Infinity, which
    # the config reader takes
    plane = {"D_mm": float(depth), "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                                            "sample_pitch_mm": 0.2}}
    config = write_config(tmp_path, plane=plane, scan={"steps": 5})
    out = tmp_path / "o"
    rc = main(["analyze", "--config", str(config), "--out", str(out)])
    assert rc == 1
    assert (f"{config}: the plane block: D_mm must be positive and finite, "
            f"got {float(depth)!r}" in caplog.text)
    assert not out.exists()


def test_cli_analyze_takes_the_depth_from_the_config_only(tmp_path, caplog, capsys):
    config = write_config(tmp_path, scan={"steps": 5})
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        "analyze needs the source depth: set plane.D_mm in the config"]
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--config", str(config), "--D-mm", "300", "--out", str(out)])
    assert err.value.code == 2
    assert "unrecognized arguments: --D-mm 300" in capsys.readouterr().err
    assert not out.exists()


def test_cli_analyze_rejects_beam_tilted_to_ninety_degrees(tmp_path, caplog):
    # at 120 mm an x scan over +/-60 degrees turns the outer lenslets' beams
    # past 90 degrees: it had exited 0 with nan at 57 and 58 degrees, finite
    # garbage beyond and a fov.json holding a bare NaN
    doc = json.loads((ROOT / "configs" / "real_virtual_fov.json").read_text())
    del doc["optical_system"]["z_i_override_mm"]
    doc["plane"]["D_mm"] = 120.0
    doc["scan"].update(theta_min_deg=-60.0, theta_max_deg=60.0, steps=121)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    assert "lenslet (15, 0)" in caplog.text
    assert "theta_x in (-59.74, 56.31)" in caplog.text
    assert not (out / "curve.csv").exists() and not (out / "fov.json").exists()


def test_cli_analyze_rejects_threshold_ratio_below_one(tmp_path, caplog):
    doc = json.loads((ROOT / "configs" / "real_virtual_fov.json").read_text())
    doc["scan"]["threshold_ratio"] = 0.5
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    assert "threshold_ratio" in caplog.text
    assert not (out / "curve.csv").exists() and not (out / "fov.json").exists()


def test_cli_bad_config_returns_nonzero(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"optical_system": {"m": 4}}))
    rc = main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_cli_reconstruct_without_plane_fails_before_loading(tmp_path, caplog):
    # the manifest does not exist: the missing plane block is reported first
    config = write_config(tmp_path)
    img = tmp_path / "r.pgm"
    rc = main(["reconstruct", "--config", str(config),
               "--manifest", str(tmp_path / "absent" / "manifest.json"), "--out", str(img)])
    assert rc == 1
    assert [r.getMessage() for r in caplog.records] == [
        "reconstruct needs a plane block in the config"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_cli_corrupt_pgm_fails_reconstruct(tmp_path):
    config = write_config(
        tmp_path,
        plane={"D_mm": 200.0,
               "grid": {"half_width_x_mm": 2.0, "half_width_y_mm": 2.0,
                        "sample_pitch_mm": 0.2}},
    )
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}]})
    out = tmp_path / "cap"
    assert main(["synth", "--config", str(config), "--scene", str(scene),
                 "--out", str(out), "--pixel-pitch-mm", "0.15"]) == 0
    victim = out / "e_01_01.pgm"
    victim.write_bytes(b"P6" + victim.read_bytes()[2:])
    rc = main(["reconstruct", "--config", str(config),
               "--manifest", str(out / "manifest.json"),
               "--out", str(tmp_path / "r.pgm")])
    assert rc == 1
