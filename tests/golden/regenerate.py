#!/usr/bin/env python3
"""Rewrite every file under tests/golden/ with the commands that
tests/golden/README.md lists.

    python tests/golden/regenerate.py

The library is taken from ``src/`` of this checkout. The real/virtual
``curve.csv`` is not written: its reference is
``perfbench/ref/real_virtual_fov_curve.csv``, which belongs to the
benchmark. A reconstruct output of the diffraction sets that matches its
file within the tolerance tier-1 allows it keeps that file, so a whole run
on unchanged code leaves the tree as it was. Run it only for a change that
moves outputs on purpose, and say in ``CHANGES.md`` which files moved and why.
"""

import hashlib
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ROOT / "configs"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def sha256_listing(directory: Path) -> str:
    """One ``sha256sum`` line per file of ``directory``, in name order."""
    return "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                   for path in sorted(directory.iterdir()))


def run(*argv) -> None:
    subprocess.run([sys.executable, *map(str, argv)], env=ENV, check=True)


def tiltview(*argv) -> None:
    run("-m", "tiltview.cli", *argv)


def within_tolerance(new: Path, old: Path) -> bool:
    """Whether the reconstruct output ``new`` matches ``old`` as tier-1 compares a
    diffraction output: a PGM of the same shape at most one 16-bit code apart per
    pixel, or a sidecar equal but for ``normalization_max``, within 1e-12 relative."""
    sys.path.insert(0, str(ROOT / "src"))
    from tiltview.pgm import read_pgm

    if new.suffix == ".pgm":
        ours, theirs = read_pgm(new).astype(int), read_pgm(old).astype(int)
        return ours.shape == theirs.shape and abs(ours - theirs).max() <= 1
    ours, theirs = json.loads(new.read_text()), json.loads(old.read_text())
    peak, old_peak = ours.pop("normalization_max"), theirs.pop("normalization_max")
    return ours == theirs and math.isclose(peak, old_peak, rel_tol=1e-12, abs_tol=0.0)


def replace(directory: Path, files, tolerant: bool = False) -> None:
    """Make ``directory`` hold copies of ``files`` and nothing else. With
    ``tolerant``, a reconstruct output (``recon_*``) that is within tolerance of
    the file it would replace keeps that file: FFT and BLAS round-off differ
    between hosts in the 17th digit of ``normalization_max``."""
    names = {path.name for path in files}
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.iterdir():
        if stale.name not in names:
            stale.unlink()
    for path in files:
        old = directory / path.name
        if not (tolerant and path.name.startswith("recon_") and old.exists()
                and within_tolerance(path, old)):
            shutil.copyfile(path, old)


def focused_series(out: Path) -> None:
    """The focused-mode series in ``out``: the seeded texture of
    ``scripts/run_tilt_sweep.py`` as a 16-bit PGM, a scene document that
    places it at 2000 mm, and the diffraction reconstructs of its ``synth``
    capture with ``configs/focused_2m.json`` at 0, 20 and 40 degrees about
    x on that config's plane grid."""
    sys.path.insert(0, str(ROOT / "src"))
    from tiltview.pgm import to_codes, write_pgm16

    out.mkdir(parents=True)
    texture = runpy.run_path(str(ROOT / "scripts" / "run_tilt_sweep.py"))["smooth_texture"]()
    write_pgm16(out / "texture.pgm", to_codes(texture, float(texture.max())))
    scene = {"planes": [{"z_mm": 2000.0, "half_width_x_mm": 30.0, "half_width_y_mm": 30.0,
                         "texture_file": "texture.pgm"}]}
    (out / "scene.json").write_text(json.dumps(scene, indent=2) + "\n")
    config, capture = CONFIGS / "focused_2m.json", out / "capture"
    tiltview("synth", "--config", config, "--scene", out / "scene.json",
             "--pixels-x", "128", "--pixels-y", "128", "--out", capture)
    for theta in (0.0, 20.0, 40.0):
        tiltview("reconstruct", "--config", config, "--manifest", capture / "manifest.json",
                 "--mode", "diffraction", "--theta-x-deg", str(theta),
                 "--out", out / f"recon_theta_{theta:04.1f}.pgm")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for config in ("focused_2m", "focused_6m", "real_virtual_fov"):
            out = work / config
            tiltview("analyze", "--config", CONFIGS / f"{config}.json", "--out", out)
            names = ["fov.json"] if config == "real_virtual_fov" else ["curve.csv", "fov.json"]
            replace(GOLDEN / config, [out / name for name in names])
        for mode in ("geometric", "diffraction"):
            out = work / f"tilt_sweep_{mode}"
            run(ROOT / "scripts" / "run_tilt_sweep.py", "--mode", mode, "--out", out)
            replace(GOLDEN / out.name, sorted([*out.glob("*.pgm"), *out.glob("*.json")]),
                    tolerant=mode == "diffraction")
        capture = work / "tilt_sweep_diffraction" / "capture"
        (GOLDEN / "tilt_sweep_capture.sha256").write_text(sha256_listing(capture))
        steep = work / "recon_steep" / "recon_steep.pgm"
        tiltview("reconstruct", "--config", CONFIGS / "textured_recon.json",
                 "--manifest", capture / "manifest.json", "--mode", "diffraction",
                 "--theta-x-deg", "45", "--D-mm", "360", "--strip-width-mm", "1",
                 "--out", steep)
        replace(GOLDEN / "recon_steep", [steep, steep.with_suffix(".json")], tolerant=True)
        synth = work / "synth_point_360mm"
        tiltview("synth", "--config", CONFIGS / "real_virtual_fov.json",
                 "--scene", CONFIGS / "scenes" / "point_360mm.json",
                 "--pixels-x", "64", "--pixels-y", "64", "--out", synth)
        (GOLDEN / "synth_point_360mm.sha256").write_text(sha256_listing(synth))
        series = work / "focused_2m_series"
        focused_series(series)
        replace(GOLDEN / series.name, sorted(p for p in series.iterdir() if p.is_file()),
                tolerant=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
