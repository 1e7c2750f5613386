"""Command-line surface: ``tiltview synth | analyze | reconstruct``.

Runs are driven by a single JSON config document; command-line flags win
over config values. Every block of the config and scene documents is read
by ``optics.read_block`` and built by ``optics.build``, so an unknown key,
a missing key or a rejected value is reported with the file and the block.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import manifest as manifest_io
from .optics import (ConfigError, OpticalSystemConfig, PlaneGrid, TiltedPlaneSpec, build,
                     read_block)
from .pgm import read_pgm, to_codes, write_pgm16
from .reconstruction import reconstruct
from .resolution import (check_scan, check_threshold_ratio, extract_fov, scan_resolution,
                         write_curve_csv, write_fov_json)
from .scene import PointEmitter, Scene, TexturedPlane, capture_with_report

log = logging.getLogger("tiltview")


#: The capture's geometry: every field of OpticalSystemConfig.
OPTICAL_SYSTEM_KEYS = tuple(f.name for f in dataclasses.fields(OpticalSystemConfig))
#: The optical-system keys without a default.
REQUIRED_OPTICAL_SYSTEM_KEYS = tuple(f.name for f in dataclasses.fields(OpticalSystemConfig)
                                     if f.default is dataclasses.MISSING)
GRID_KEYS = ("half_width_x_mm", "half_width_y_mm", "sample_pitch_mm")


@dataclass
class ScanConfig:
    axis: str = "x"
    theta_min_deg: float = -40.0
    theta_max_deg: float = 40.0
    steps: int = 81
    threshold_ratio: float = 1.5

    def __post_init__(self):
        check_scan(self.axis, self.theta_min_deg, self.theta_max_deg, self.steps)
        check_threshold_ratio(self.threshold_ratio)


@dataclass
class RunConfig:
    optical_system: OpticalSystemConfig
    z_i_override_mm: float | None = None
    plane: TiltedPlaneSpec | None = None
    scan: ScanConfig | None = None
    out_dir: str | None = None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            doc = read_block(json.load(fh), path, "the config", required=("optical_system",),
                             optional=("plane", "scan", "io"))
        block = "the optical_system block"
        opt = read_block(doc["optical_system"], path, block,
                         required=REQUIRED_OPTICAL_SYSTEM_KEYS,
                         optional=(*OPTICAL_SYSTEM_KEYS, "z_i_override_mm"))
        z_i_override = opt.pop("z_i_override_mm", None)
        cfg = build(OpticalSystemConfig, path, block, **opt)
        build(cfg.focus_mm, path, block, z_i_override_mm=z_i_override)  # rejects NaN and 0
        plane = None
        if "plane" in doc:
            block = "the plane block"
            pl = read_block(doc["plane"], path, block, required=("D_mm", "grid"),
                            optional=("theta_x_deg", "theta_y_deg"))
            grid = read_block(pl["grid"], path, "the plane.grid block", required=GRID_KEYS)
            plane = build(TiltedPlaneSpec, path, block,
                          theta_x_deg=pl.get("theta_x_deg", 0.0),
                          theta_y_deg=pl.get("theta_y_deg", 0.0),
                          axial_offset_mm=pl["D_mm"],
                          grid=build(PlaneGrid, path, "the plane.grid block", **grid))
        scan = None
        if "scan" in doc:
            sc = read_block(doc["scan"], path, "the scan block",
                            optional=[f.name for f in dataclasses.fields(ScanConfig)])
            scan = build(ScanConfig, path, "the scan block", **sc)
        io_block = read_block(doc.get("io", {}), path, "the io block", optional=("out_dir",))
        return cls(optical_system=cfg, z_i_override_mm=z_i_override,
                   plane=plane, scan=scan, out_dir=io_block.get("out_dir"))


def load_scene(path) -> Scene:
    base = Path(path).parent
    with open(path) as fh:
        doc = read_block(json.load(fh), path, "the scene", optional=("points", "planes"))
    points = []
    for i, entry in enumerate(doc.get("points", [])):
        block = f"scene point {i}"
        entry = read_block(entry, path, block, required=("z_mm",),
                           optional=("x_mm", "y_mm", "intensity"))
        points.append(build(PointEmitter, path, block, **{"x_mm": 0.0, "y_mm": 0.0, **entry}))
    planes = []
    for i, entry in enumerate(doc.get("planes", [])):
        block = f"scene plane {i}"
        entry = read_block(entry, path, block, optional=("intensity_scale",), required=(
            "z_mm", "half_width_x_mm", "half_width_y_mm", "texture_file"))
        texture = read_pgm(base / entry.pop("texture_file"))
        planes.append(build(TexturedPlane, path, block, texture=texture, **entry))
    return Scene(points=points, planes=planes)


def cmd_synth(args) -> int:
    run = RunConfig.from_file(args.config)
    scene = load_scene(args.scene)
    eis, report = capture_with_report(
        scene, run.optical_system, args.pixels_x, args.pixels_y,
        pixel_pitch_mm=args.pixel_pitch_mm)
    out = Path(args.out or run.out_dir or ".")
    path = manifest_io.save_elemental_set(eis, out)
    log.info("wrote %s (%d images, %d point projections vignetted)",
             path, run.optical_system.m * run.optical_system.n, report.vignetted)
    return 0


def cmd_analyze(args) -> int:
    run = RunConfig.from_file(args.config)
    scan = run.scan or ScanConfig()
    D = args.D_mm if args.D_mm is not None else (
        run.plane.axial_offset_mm if run.plane else None)
    if D is None:
        raise ConfigError("analyze needs a depth: set plane.D_mm or pass --D-mm")
    curve = scan_resolution(
        run.optical_system, D, scan.axis, scan.theta_min_deg, scan.theta_max_deg,
        scan.steps, z_i_override_mm=run.z_i_override_mm)
    fov = extract_fov(curve, threshold_ratio=scan.threshold_ratio)
    out = Path(args.out or run.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    write_curve_csv(curve, out / "curve.csv")
    write_fov_json(fov, out / "fov.json")
    log.info("wrote %s and %s", out / "curve.csv", out / "fov.json")
    return 0


def cmd_reconstruct(args) -> int:
    if args.strip_width_mm is not None and args.mode != "diffraction":
        raise UsageError("--strip-width-mm sets the strips of the defocus blur; "
                         "it needs --mode diffraction")
    run = RunConfig.from_file(args.config)
    eis = manifest_io.load_elemental_set(args.manifest)
    differ = [f"{key} (manifest {getattr(eis.capture_config, key)!r}, "
              f"config {getattr(run.optical_system, key)!r})"
              for key in OPTICAL_SYSTEM_KEYS
              if getattr(eis.capture_config, key) != getattr(run.optical_system, key)]
    if differ:
        raise ConfigError(f"the config's optical_system differs from the capture's: "
                          f"{'; '.join(differ)}; pass the config the capture was made with")
    plane = run.plane
    if plane is None:
        raise ConfigError("reconstruct needs a plane block in the config")
    theta_x = args.theta_x_deg if args.theta_x_deg is not None else plane.theta_x_deg
    theta_y = args.theta_y_deg if args.theta_y_deg is not None else plane.theta_y_deg
    D = args.D_mm if args.D_mm is not None else plane.axial_offset_mm
    plane = TiltedPlaneSpec(theta_x, theta_y, D, plane.grid)
    recon = reconstruct(
        eis, plane, mode=args.mode, strip_width_mm=args.strip_width_mm,
        z_i_override_mm=run.z_i_override_mm)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    peak = float(recon.field.values.max())
    # field is [ix, iy]; image rows run top-down along -y
    write_pgm16(out, to_codes(recon.field.values.T[::-1], peak))
    sidecar = {
        "theta_x_deg": plane.theta_x_deg,
        "theta_y_deg": plane.theta_y_deg,
        "D_mm": plane.axial_offset_mm,
        "sample_pitch_mm": plane.grid.sample_pitch_mm,
        "mode": recon.mode,
        "normalization_max": peak,
    }
    with open(out.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    log.info("wrote %s", out)
    return 0


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltview",
        description="Lenslet-array integral-imaging analysis and free-view reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="capture a synthetic scene into elemental images")
    synth.add_argument("--config", required=True)
    synth.add_argument("--scene", required=True)
    synth.add_argument("--out", default=None)
    synth.add_argument("--pixels-x", type=int, default=64)
    synth.add_argument("--pixels-y", type=int, default=64)
    synth.add_argument("--pixel-pitch-mm", type=float, default=None)
    synth.set_defaults(func=cmd_synth)

    analyze = sub.add_parser("analyze", help="tilt-angle resolution scan and field of view")
    analyze.add_argument("--config", required=True)
    analyze.add_argument("--out", default=None)
    analyze.add_argument("--D-mm", dest="D_mm", type=float, default=None)
    analyze.add_argument("--workers", type=int, default=1,
                         help="ignored; accepted for existing command lines")
    analyze.set_defaults(func=cmd_analyze)

    recon = sub.add_parser("reconstruct", help="back-project elemental images onto a plane")
    recon.add_argument("--config", required=True)
    recon.add_argument("--manifest", required=True)
    recon.add_argument("--mode", choices=("geometric", "diffraction"), default="geometric")
    recon.add_argument("--theta-x-deg", dest="theta_x_deg", type=float, default=None)
    recon.add_argument("--theta-y-deg", dest="theta_y_deg", type=float, default=None)
    recon.add_argument("--D-mm", dest="D_mm", type=float, default=None)
    recon.add_argument("--out", required=True)
    recon.add_argument("--strip-width-mm", type=float, default=None,
                       help="depth strip width of the defocus blur (--mode diffraction only)")
    recon.add_argument("--workers", type=int, default=1,
                       help="ignored; accepted for existing command lines")
    recon.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("TILTVIEW_LOG_LEVEL", "INFO"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.exit(2, f"tiltview: {exc}\n")
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
