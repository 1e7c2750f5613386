"""Tests for PGM I/O, the manifest format and the command-line surface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltview import manifest as manifest_io
from tiltview.cli import ConfigError, RunConfig, load_scene, main
from tiltview.optics import OpticalSystemConfig
from tiltview.pgm import MAXVAL_16, read_pgm, to_codes, write_pgm16
from tiltview.reconstruction import ElementalImageSet
from tiltview.scene import PointEmitter, Scene, capture, point_source_scene


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
    eis = ElementalImageSet(images, 0.5, cfg)
    path = manifest_io.save_elemental_set(eis, tmp_path)
    assert path.name == "manifest.json"
    assert len(list(tmp_path.glob("e_*.pgm"))) == 16
    back = manifest_io.load_elemental_set(path)
    np.testing.assert_array_equal(back.images, images)
    assert back.pixel_pitch_mm == eis.pixel_pitch_mm
    assert back.capture_config.gap_mm == cfg.gap_mm
    assert back.capture_config.m == 4


def test_manifest_schema_fields(tmp_path):
    eis = capture(point_source_scene(200.0), cfg4(), 8, 8, pixel_pitch_mm=1.0)
    path = manifest_io.save_elemental_set(eis, tmp_path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"m", "n", "pitch_x_mm", "pitch_y_mm", "g_mm", "f_mm",
                        "wavelength_nm", "pixel_pitch_mm", "pixels_x", "pixels_y", "images"}
    assert len(doc["images"]) == 16
    assert set(doc["images"][0]) == {"p", "q", "file"}


def test_manifest_round_trips_capture_config(tmp_path):
    # the counts, the pitches per axis and the wavelength all differ from the 16x16 configs
    cfg = OpticalSystemConfig(m=2, n=3, pitch_x_mm=10.0, pitch_y_mm=8.0, gap_mm=50.0,
                              focal_length_mm=35.0, wavelength_nm=633.0)
    eis = ElementalImageSet(np.ones((2, 3, 4, 4)), 0.5, cfg)
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
    assert eis.images.dtype == np.float64  # a capture stays float
    first = manifest_io.save_elemental_set(eis, tmp_path / "a")
    loaded = manifest_io.load_elemental_set(first)
    # a loaded set holds its 16-bit codes, 2 bytes per pixel
    assert loaded.images.dtype == np.uint16 and loaded.images.itemsize == 2
    manifest_io.save_elemental_set(loaded, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(names) == 17 and names == sorted(p.name for p in (tmp_path / "b").iterdir())
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
    assert str(err.value).startswith(f"{image}: maxval {maxval}, but a 16-bit PGM")


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
    assert f"{scene}: scene plane 0: plane half widths must be positive" in caplog.text
    assert not out.exists()


def test_cli_synth_rejects_zero_pixel_pitch(tmp_path, caplog):
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}]})
    out = tmp_path / "cap"
    rc = main(["synth", "--config", str(write_config(tmp_path)), "--scene", str(scene),
               "--out", str(out), "--pixels-x", "8", "--pixels-y", "8",
               "--pixel-pitch-mm", "0"])
    assert rc == 1
    assert "pixel pitch must be positive" in caplog.text
    assert not out.exists()


# ---------------------------------------------------------------------------
# CLI end to end


def test_cli_synth_analyze_reconstruct(tmp_path):
    config = write_config(
        tmp_path,
        plane={"theta_x_deg": 0.0, "D_mm": 200.0,
               "grid": {"half_width_x_mm": 3.0, "half_width_y_mm": 3.0,
                        "sample_pitch_mm": 0.15}},
        scan={"axis": "x", "theta_min_deg": -10, "theta_max_deg": 10, "steps": 5},
    )
    scene = write_scene(tmp_path, {"points": [{"z_mm": 200.0}]})
    out = tmp_path / "cap"
    rc = main(["synth", "--config", str(config), "--scene", str(scene),
               "--out", str(out), "--pixels-x", "64", "--pixels-y", "64",
               "--pixel-pitch-mm", "0.15"])
    assert rc == 0
    assert (out / "manifest.json").exists()
    assert len(list(out.glob("e_*.pgm"))) == 16

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
    # a capture with another pupil or focus band is never reconstructed with this one
    config, manifest, img = _synth_point_capture(tmp_path)
    doc = json.loads(manifest.read_text())
    doc[key] = value
    manifest.write_text(json.dumps(doc))
    rc = main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
               "--mode", "diffraction", "--out", str(img)])
    assert rc == 1
    assert not img.exists() and not img.with_suffix(".json").exists()
    assert f"{manifest}: the manifest's {key} is {value!r}" in caplog.text


def test_cli_reconstruct_reads_manifest_with_fixed_geometry_keys(tmp_path):
    # older manifests store the pupil shape and focus band with the only values there are
    config, manifest, img = _synth_point_capture(tmp_path)
    doc = json.loads(manifest.read_text())
    doc.update(aperture_shape="ellipse", focus_epsilon=1e-06)
    manifest.write_text(json.dumps(doc, indent=2))
    assert '"focus_epsilon": 1e-06' in manifest.read_text()
    assert main(["reconstruct", "--config", str(config), "--manifest", str(manifest),
                 "--mode", "diffraction", "--out", str(img)]) == 0
    assert img.exists()


def test_cli_rejects_pupil_shape_in_config(tmp_path, caplog):
    doc = json.loads(write_config(tmp_path).read_text())
    doc["optical_system"]["aperture_shape"] = "hexagon"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(path), "--D-mm", "300", "--out", str(out)]) == 1
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
]


@pytest.mark.parametrize("document, keys, value, block", READER_CASES)
def test_cli_rejected_block_names_file_and_block(tmp_path, caplog, document, keys, value,
                                                 block):
    config, manifest, _ = _synth_point_capture(tmp_path, scan={"steps": 5})
    write_pgm16(tmp_path / "tex.pgm", np.full((4, 4), 100, dtype=np.uint16))
    scene = write_scene(tmp_path, {"planes": [{"z_mm": 200.0, "half_width_x_mm": 5.0,
                                               "half_width_y_mm": 5.0,
                                               "texture_file": "tex.pgm"}]})
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


def test_cli_imports_without_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, tiltview.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_package_exports_resolve():
    import tiltview

    assert len(tiltview.__all__) == len(set(tiltview.__all__))
    missing = [name for name in tiltview.__all__ if not hasattr(tiltview, name)]
    assert missing == []


def test_cli_synth_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path)
    scene = write_scene(tmp_path, {"points": [{"x_mm": 1.5, "z_mm": 180.0}]})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["synth", "--config", str(config), "--scene", str(scene),
                     "--out", str(out), "--pixel-pitch-mm", "0.15"]) == 0
        files = sorted(out.glob("e_*.pgm"))
        assert len(files) == 16
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
    assert f"{config}: the scan block: scan steps must be an integer >= 3, got 0" in caplog.text


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
    # bare NaN, which is not JSON
    config = write_config(tmp_path, scan={"steps": 5})
    out = tmp_path / "o"
    rc = main(["analyze", "--config", str(config), "--D-mm", depth, "--out", str(out)])
    assert rc == 1
    assert "source depth must be positive and finite" in caplog.text
    assert not (out / "curve.csv").exists() and not (out / "fov.json").exists()


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
