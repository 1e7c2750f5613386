"""Command-line surface: ``tiltview synth | analyze | reconstruct``.

Runs are driven by a single JSON config document; command-line flags win
over config values. Every block of the config and scene documents is read
by ``optics.read_block`` and built by ``optics.build``, so an unknown key,
a missing key or a rejected value is reported with the file and the block.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import manifest as manifest_io
from .optics import (ConfigError, OpticalSystemConfig, PlaneGrid, TiltedPlaneSpec, build,
                     check_number, json_type, path_string, read_block, read_json, write_json)
from .pgm import read_pgm, to_codes, write_pgm16
from .reconstruction import raster_pitch, reconstruct
from .resolution import check_scan, extract_fov, scan_resolution, write_curve_csv
from .scene import PointEmitter, Scene, TexturedPlane, capture_with_report

log = logging.getLogger("tiltview")


#: The capture's geometry: every field of OpticalSystemConfig.
OPTICAL_SYSTEM_KEYS = tuple(f.name for f in dataclasses.fields(OpticalSystemConfig))
#: The optical-system keys without a default.
REQUIRED_OPTICAL_SYSTEM_KEYS = tuple(f.name for f in dataclasses.fields(OpticalSystemConfig)
                                     if f.default is dataclasses.MISSING)
GRID_KEYS = tuple(f.name for f in dataclasses.fields(PlaneGrid))


@dataclass
class ScanConfig:
    axis: str = "x"
    theta_min_deg: float = -40.0
    theta_max_deg: float = 40.0
    steps: int = 81
    threshold_ratio: float = 1.5

    def __post_init__(self):
        check_scan(self.axis, self.theta_min_deg, self.theta_max_deg, self.steps)
        check_number("threshold_ratio", self.threshold_ratio, 1.0)


@dataclass
class RunConfig:
    optical_system: OpticalSystemConfig
    z_i_override_mm: float | None = None
    plane: TiltedPlaneSpec | None = None
    scan: ScanConfig | None = None
    out_dir: str | None = None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        doc = read_block(read_json(path), path, "the config", required=("optical_system",),
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
            plane = build(TiltedPlaneSpec, path, block, {"axial_offset_mm": "D_mm"},
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
        if "out_dir" in io_block:
            path_string(io_block["out_dir"], path, "the io block", "out_dir")
        return cls(optical_system=cfg, z_i_override_mm=z_i_override,
                   plane=plane, scan=scan, out_dir=io_block.get("out_dir"))


def load_scene(path) -> Scene:
    base = Path(path).parent
    doc = read_block(read_json(path), path, "the scene", optional=("points", "planes"))
    for key in ("points", "planes"):
        if type(doc.get(key, [])) is not list:
            raise ConfigError(f"{path}: the scene: {key} must be an array, "
                              f"got {json_type(doc[key])}")
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
        name = path_string(entry.pop("texture_file"), path, block, "texture_file")
        try:
            texture = read_pgm(base / name)
        except (OSError, ValueError) as exc:  # keeps the class: FileNotFoundError, ValueError
            raise type(exc)(f"{path}: {block}: texture_file {name!r} cannot be read: "
                            f"{exc}") from exc
        planes.append(build(TexturedPlane, path, block, texture=texture,
                            texture_file=str(base / name), **entry))
    return Scene(points=points, planes=planes)


def cmd_synth(args) -> int:
    run = RunConfig.from_file(args.config)
    pitch = build(raster_pitch, "synth", "the command line", {
        "pixels_x": "--pixels-x", "pixels_y": "--pixels-y", "pixel_pitch_mm": "--pixel-pitch-mm"},
        cfg=run.optical_system, pixels_y=args.pixels_y, pixels_x=args.pixels_x,
        pixel_pitch_mm=args.pixel_pitch_mm)
    scene = load_scene(args.scene)
    out = Path(args.out or run.out_dir or ".")
    writes = [out / manifest_io.MANIFEST_NAME, *sorted(out.glob("e_*.pgm"))]
    refuse_overwrite("synth", [(path, str(path)) for path in writes], [
        (args.config, "the config"), (args.scene, "the scene"),
        *((plane.texture_file, f"the texture {plane.texture_file}") for plane in scene.planes)])
    eis, vignetted = capture_with_report(scene, run.optical_system, args.pixels_x,
                                         args.pixels_y, pixel_pitch_mm=pitch)
    path = manifest_io.save_elemental_set(eis, out)
    zero = len(read_json(path)["zero_images"])
    log.info("wrote %s (%d images stored, %d all-zero, %d point projections vignetted)",
             path, run.optical_system.m * run.optical_system.n - zero, zero, vignetted)
    return 0


def cmd_analyze(args) -> int:
    run = RunConfig.from_file(args.config)
    if run.plane is None:
        raise ConfigError("analyze needs the source depth: set plane.D_mm in the config")
    out = Path(args.out or run.out_dir or ".")
    refuse_overwrite("analyze", [(out / "curve.csv", "curve.csv"), (out / "fov.json", "fov.json")],
                     [(args.config, "the config")])
    scan = run.scan or ScanConfig()
    curve = scan_resolution(
        run.optical_system, run.plane.axial_offset_mm, scan.axis, scan.theta_min_deg,
        scan.theta_max_deg, scan.steps, z_i_override_mm=run.z_i_override_mm)
    fov = extract_fov(curve, threshold_ratio=scan.threshold_ratio)
    out.mkdir(parents=True, exist_ok=True)
    write_curve_csv(curve, out / "curve.csv")
    write_json(dataclasses.asdict(fov), out / "fov.json")
    log.info("wrote %s and %s", out / "curve.csv", out / "fov.json")
    return 0


def cmd_reconstruct(args) -> int:
    if args.strip_width_mm is not None and args.mode != "diffraction":
        raise UsageError("--strip-width-mm sets the strips of the defocus blur; "
                         "it needs --mode diffraction")
    out = Path(args.out)
    sidecar_path = out.with_suffix(".json")
    writes = [(out, "--out"), (sidecar_path, "--out's sidecar")]
    refuse_overwrite("reconstruct", writes,
                     [(args.config, "the config"), (args.manifest, "the manifest")])
    run = RunConfig.from_file(args.config)
    given = run.plane
    if given is None:
        raise ConfigError("reconstruct needs a plane block in the config")
    # the config's plane passed its checks when it was read, so a rejection here names a flag
    plane = build(TiltedPlaneSpec, "reconstruct", "the command line",
                  {"axial_offset_mm": "--D-mm", "theta_x_deg": "--theta-x-deg"},
                  theta_x_deg=given.theta_x_deg if args.theta_x_deg is None else args.theta_x_deg,
                  theta_y_deg=given.theta_y_deg, grid=given.grid,
                  axial_offset_mm=given.axial_offset_mm if args.D_mm is None else args.D_mm)
    eis = manifest_io.load_elemental_set(args.manifest)
    if any(path.resolve().exists() for path, _ in writes):  # each listed image exists
        refuse_overwrite("reconstruct", writes, [
            (Path(args.manifest).parent / entry["file"], f"the manifest's image {entry['file']}")
            for entry in read_json(args.manifest)["images"]])
    differ = [f"{key} (manifest {getattr(eis.capture_config, key)!r}, "
              f"config {getattr(run.optical_system, key)!r})"
              for key in OPTICAL_SYSTEM_KEYS
              if getattr(eis.capture_config, key) != getattr(run.optical_system, key)]
    if differ:
        raise ConfigError(f"the config's optical_system differs from the capture's: "
                          f"{'; '.join(differ)}; pass the config the capture was made with")
    recon = reconstruct(
        eis, plane, mode=args.mode, strip_width_mm=args.strip_width_mm,
        z_i_override_mm=run.z_i_override_mm)
    out.parent.mkdir(parents=True, exist_ok=True)
    peak = float(recon.field.values.max())
    # field is [ix, iy]; image rows run top-down along -y
    write_pgm16(out, to_codes(recon.field.values.T[::-1], peak))
    write_json({"theta_x_deg": plane.theta_x_deg, "theta_y_deg": plane.theta_y_deg,
                "D_mm": plane.axial_offset_mm, "sample_pitch_mm": plane.grid.sample_pitch_mm,
                "mode": recon.mode, "normalization_max": peak}, sidecar_path)
    log.info("wrote %s", out)
    return 0


class UsageError(Exception):
    pass


def refuse_overwrite(command: str, writes, reads) -> None:
    """Raise ``UsageError`` if a path in ``writes`` is a file in ``reads`` or an earlier write,
    both lists of (path, name): the two resolve to one path, or both exist with one (st_dev,
    st_ino), as through a hard link."""
    seen = []
    for i, (path, name) in enumerate([*reads, *writes]):
        st = os.stat(path) if os.path.exists(path) else None
        ids = {Path(path).resolve(), st and (st.st_dev, st.st_ino)} - {None}
        same = [other for other_ids, other in seen if ids & other_ids]
        if same and i >= len(reads):
            raise UsageError(f"{command} writes {path}, which is {same[0]}; choose another --out")
        seen.append((ids, name))


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
    analyze.add_argument("--workers", type=int, default=1,
                         help="ignored; accepted for existing command lines")
    analyze.set_defaults(func=cmd_analyze)

    recon = sub.add_parser("reconstruct", help="back-project elemental images onto a plane")
    recon.add_argument("--config", required=True)
    recon.add_argument("--manifest", required=True)
    recon.add_argument("--mode", choices=("geometric", "diffraction"), default="geometric")
    recon.add_argument("--theta-x-deg", dest="theta_x_deg", type=float, default=None)
    recon.add_argument("--D-mm", dest="D_mm", type=float, default=None)
    recon.add_argument("--out", required=True)
    recon.add_argument("--strip-width-mm", type=float, default=None,
                       help="depth strip width of the defocus blur (--mode diffraction only)")
    recon.add_argument("--workers", type=int, default=1,
                       help="ignored; accepted for existing command lines")
    recon.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    level = os.environ.get("TILTVIEW_LOG_LEVEL", "INFO")
    levels = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
    if level.upper() not in levels:
        parser.exit(2, f"tiltview: TILTVIEW_LOG_LEVEL must be one of {', '.join(levels)}, "
                       f"in any case, got {level!r}\n")
    logging.basicConfig(level=level.upper())
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.exit(2, f"tiltview: {exc}\n")
    except (ValueError, OSError) as exc:  # a rejected input; any other error is a bug
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
