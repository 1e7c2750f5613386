"""The benchmark workloads: inputs made from the seed, the timed tiltview
calls, and the untimed checks of every output against ``oracles``.

Every tiltview entry point is looked up on its module at call time
(``cli.main``, ``scene.capture``, ...), so a traced run sees the rebound
layer entry points of ``spans.Tracer``.
"""

from __future__ import annotations

import csv
import math
import traceback
from pathlib import Path

import numpy as np

import tiltview.cli as cli
import tiltview.manifest as manifest
import tiltview.reconstruction as reconstruction
import tiltview.resolution as resolution
import tiltview.scene as scene
from tiltview.optics import OpticalSystemConfig, PlaneGrid, TiltedPlaneSpec

import oracles

HERE = Path(__file__).resolve().parent
ANALYZE_CONFIG = "configs/real_virtual_fov.json"
RECON_CONFIG = "configs/textured_recon.json"
SEED_CURVE = HERE / "ref" / "real_virtual_fov_curve.csv"

# The tilt-sweep scene: a seeded smooth texture 30 mm wide at 300 mm,
# captured as 16x16 elemental images of 128^2 pixels.
SCENE_Z_MM = 300.0
SCENE_HALF_WIDTH_MM = 15.0
PIXELS = 128
ANGLES_DEG = (0.0, 10.0, 12.0, 15.0, 17.0, 20.0)
STEEP = {"theta_x_deg": 45.0, "D_mm": 360.0, "strip_width_mm": 1.0}

# Stated tolerances. Seed-commit values are quoted for the margin.
CURVE_REL_TOL = 2e-4         # against the seed curve; the closed form is 9.5e-5 away
CLOSED_FORM_REL_TOL = 1e-4   # seed 9.49e-5 (the grid model's Rayleigh-range term)
CODE_TOL = 1                 # 16-bit codes: summation order may flip a rounding
PEAK_REL_TOL = 1e-9          # reconstruct sidecar normalization_max
TRUTH_NCC_MIN = 0.95         # acceptance criterion 6; seed 0.99996
# Diffraction outputs against the geometric reference blurred by the
# defocus disk of the plane's centre depth (oracles.defocus_blur): over 8
# seeds the seed commit gives NCC >= 0.9996 and energy ratios 1.0017-1.002
# on the 300 mm sweep, NCC >= 0.9990 and 0.9997 on the steep plane. The
# unblurred NCC is no oracle: it ranges 0.90-0.96 with the texture.
DIFFRACTION_NCC_MIN = 0.99
DIFFRACTION_ENERGY = (0.99, 1.01)
POINT_ORACLE_RANGE = (0.5, 1.5)  # acceptance criterion 7


class Ops:
    """Operations attempted and failed in one workload process."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            traceback.print_exc()
            self.failures.append(f"{name}: {exc!r}")
            return None

    def cli(self, argv: list[str]) -> None:
        name = f"tiltview {argv[0]}"
        rc = self.call(name, cli.main, argv)
        if rc is not None and rc != 0:
            self.failures.append(f"{name} exited with {rc}")

    def check(self, name: str, fn, *args) -> None:
        """``fn`` returns (ok, detail); an exception is a failed check."""
        result = self.call(name, fn, *args)
        if result is not None and not result[0]:
            self.failures.append(f"{name}: {result[1]}")


def within(value: float, lo: float, hi: float, label: str):
    return lo <= value <= hi, f"{label} {value:.6g} outside [{lo:g}, {hi:g}]"


def _read_field(path: Path) -> np.ndarray:
    """A reconstruct output as a field in raw units, using its sidecar."""
    peak = oracles.load_json(path.with_suffix(".json"))["normalization_max"]
    return oracles.raster_to_field(oracles.read_pgm16(path), peak)


def _diffraction_check(out: Path, blurred: np.ndarray):
    field = _read_field(out)
    score = oracles.ncc(field, blurred)
    energy = float(field.sum() / blurred.sum())
    lo, hi = DIFFRACTION_ENERGY
    ok = score >= DIFFRACTION_NCC_MIN and lo <= energy <= hi
    return ok, (f"NCC vs defocused geometric {score:.4f} (>= {DIFFRACTION_NCC_MIN}), "
                f"energy ratio {energy:.4f} (in [{lo}, {hi}])")


class Workload:
    """Inputs, timed run and checks of one workload in one process."""

    config: str

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.config_path = root / self.config
        self.doc = oracles.load_json(self.config_path)

    def prepare(self) -> None:
        pass

    def run(self, ops: Ops):
        """The timed tiltview calls, as a generator that yields after each
        one; the caller times each step and may pause between steps."""
        raise NotImplementedError

    def check(self, ops: Ops) -> None:
        raise NotImplementedError

    def config_digest(self) -> str:
        return cli.RunConfig.from_file(self.config_path).optical_system.digest()


class AnalyzeRV81(Workload):
    """``tiltview analyze`` of the real/virtual system: 81 tilt steps."""

    config = ANALYZE_CONFIG

    def run(self, ops: Ops):
        ops.cli(["analyze", "--config", str(self.config_path),
                 "--out", str(self.work / "analyze"), "--workers", "1"])
        yield

    def check(self, ops: Ops) -> None:
        curve = self.work / "analyze" / "curve.csv"
        ext = ops.call("read curve", _curve_extents, curve)
        if ext is None:
            return
        steps = self.doc["scan"]["steps"]
        ops.check("curve rows", lambda: (ext.size == steps, f"{ext.size} rows, wanted {steps}"))
        if ext.size != steps:
            return
        seed_curve = _curve_extents(SEED_CURVE)
        ops.check("seed curve", lambda: within(
            float(np.max(np.abs(ext / seed_curve - 1.0))), 0.0, CURVE_REL_TOL,
            "max relative difference from the seed curve"))
        closed = oracles.spot_moment_curve(self.doc)
        ops.check("closed form", lambda: within(
            float(np.max(np.abs(ext / closed - 1.0))), 0.0, CLOSED_FORM_REL_TOL,
            "max relative difference from the closed-form moment"))

        def fov_json():
            fov = oracles.load_json(self.work / "analyze" / "fov.json")
            ok = (fov["threshold_ratio"] == self.doc["scan"]["threshold_ratio"]
                  and math.isclose(fov["min_extent_mm"], float(ext.min()), rel_tol=1e-9))
            return ok, f"fov.json {fov} does not match the curve minimum {ext.min():.9e}"

        ops.check("fov.json", fov_json)


def _curve_extents(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row["radial_extent_mm"]) for row in csv.DictReader(fh)])


class _TexturedCapture(Workload):
    """Workloads on the seeded tilt-sweep scene."""

    config = RECON_CONFIG

    def prepare(self) -> None:
        self.osys = dict(self.doc["optical_system"])
        self.pixel_pitch_mm = self.osys["pitch_x_mm"] / PIXELS
        self.texture = oracles.smooth_texture(self.seed)
        self.grid = self.doc["plane"]["grid"]

    def reference_capture(self) -> np.ndarray:
        return oracles.capture_texture(self.osys, self.texture, SCENE_Z_MM,
                                       SCENE_HALF_WIDTH_MM, PIXELS, self.pixel_pitch_mm)

    def geometric_reference(self, codes: np.ndarray, theta_x_deg: float, D_mm: float):
        return oracles.backproject(codes.astype(float), self.osys, self.pixel_pitch_mm,
                                   theta_x_deg, D_mm, self.grid)


class Sweep(_TexturedCapture):
    """Capture the scene through the API, then reconstruct it at six tilts."""

    mode = "geometric"

    def prepare(self) -> None:
        super().prepare()
        cfg = {k: v for k, v in self.osys.items() if k != "z_i_override_mm"}
        self.capture_cfg = OpticalSystemConfig(**cfg)
        self.scene = scene.Scene(planes=[scene.TexturedPlane(
            z_mm=SCENE_Z_MM, half_width_x_mm=SCENE_HALF_WIDTH_MM,
            half_width_y_mm=SCENE_HALF_WIDTH_MM, texture=self.texture)])
        self.manifest_path = None

    def output(self, theta: float) -> Path:
        return self.work / f"recon_theta_{theta:04.1f}.pgm"

    def run(self, ops: Ops):
        eis = ops.call("capture", scene.capture, self.scene, self.capture_cfg, PIXELS, PIXELS,
                       pixel_pitch_mm=self.pixel_pitch_mm)
        yield
        if eis is None:
            return
        self.manifest_path = ops.call("save", manifest.save_elemental_set, eis,
                                      self.work / "capture")
        yield
        if self.manifest_path is None:
            return
        for theta in ANGLES_DEG:
            ops.cli(["reconstruct", "--config", str(self.config_path),
                     "--manifest", str(self.manifest_path), "--mode", self.mode,
                     "--theta-x-deg", f"{theta:g}", "--out", str(self.output(theta)),
                     "--workers", "1"])
            yield

    def check(self, ops: Ops) -> None:
        if self.manifest_path is None:
            return
        codes = ops.call("read capture", oracles.read_elemental_set, self.manifest_path)
        if codes is None:
            return
        expected = oracles.quantize(self.reference_capture())
        ops.check("capture", lambda: within(
            int(np.abs(codes.astype(int) - expected).max()), 0, CODE_TOL,
            "max 16-bit code difference from the reference capture"))
        D = self.doc["plane"]["D_mm"]
        for theta in ANGLES_DEG:
            geometric = self.geometric_reference(codes, theta, D)
            ops.check(f"reconstruct {self.mode} {theta:g} deg", self.check_output,
                      self.output(theta), geometric)
        if self.mode == "geometric":
            ops.check("round trip at 0 deg", self.check_truth, self.output(0.0))

    def check_output(self, out: Path, geometric: np.ndarray):
        raster = oracles.read_pgm16(out)
        peak = oracles.load_json(out.with_suffix(".json"))["normalization_max"]
        codes = int(np.abs(raster.astype(int) - oracles.field_to_raster(geometric)).max())
        peak_err = abs(peak / float(geometric.max()) - 1.0)
        ok = codes <= CODE_TOL and peak_err <= PEAK_REL_TOL
        return ok, (f"max code difference {codes} (<= {CODE_TOL}), normalization_max "
                    f"relative error {peak_err:.3g} (<= {PEAK_REL_TOL})")

    def check_truth(self, out: Path):
        field = _read_field(out)
        xs = oracles.grid_axis(self.grid["half_width_x_mm"], self.grid["sample_pitch_mm"])
        ys = oracles.grid_axis(self.grid["half_width_y_mm"], self.grid["sample_pitch_mm"])
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        truth = oracles.sample_texture(self.texture, SCENE_HALF_WIDTH_MM,
                                       SCENE_HALF_WIDTH_MM, X, Y)
        return within(oracles.ncc(field, truth), TRUTH_NCC_MIN, 1.0, "NCC against the texture")


class SweepDiffraction(Sweep):
    """The same sweep with the defocus PSF (``scripts/run_tilt_sweep.py``)."""

    mode = "diffraction"

    def check_output(self, out: Path, geometric: np.ndarray):
        D = self.doc["plane"]["D_mm"]
        return _diffraction_check(out, oracles.defocus_blur(
            geometric, self.osys, D, self.grid["sample_pitch_mm"]))


class ReconSteep(_TexturedCapture):
    """One diffraction reconstruct of a stored capture on a 45 deg plane
    through the beam focus, in 1 mm strips."""

    def prepare(self) -> None:
        super().prepare()
        self.codes = oracles.quantize(self.reference_capture())
        self.manifest_path = oracles.write_elemental_set(
            self.work / "capture", self.codes, self.osys, self.pixel_pitch_mm)
        self.out = self.work / "recon_steep.pgm"

    def run(self, ops: Ops):
        ops.cli(["reconstruct", "--config", str(self.config_path),
                 "--manifest", str(self.manifest_path), "--mode", "diffraction",
                 "--theta-x-deg", f"{STEEP['theta_x_deg']:g}", "--D-mm", f"{STEEP['D_mm']:g}",
                 "--strip-width-mm", f"{STEEP['strip_width_mm']:g}",
                 "--out", str(self.out), "--workers", "1"])
        yield

    def check(self, ops: Ops) -> None:
        geometric = self.geometric_reference(self.codes, STEEP["theta_x_deg"], STEEP["D_mm"])
        blurred = oracles.defocus_blur(geometric, self.osys, STEEP["D_mm"],
                                       self.grid["sample_pitch_mm"])
        ops.check("reconstruct diffraction 45 deg", _diffraction_check, self.out, blurred)


WORKLOADS = {
    "analyze_rv81": AnalyzeRV81,
    "sweep_geometric": Sweep,
    "sweep_diffraction": SweepDiffraction,
    "recon_steep": ReconSteep,
}


def point_oracle():
    """Acceptance criterion 7: a captured point source at the 360 mm beam
    focus, reconstructed with diffraction, matches the analyzer's spot size."""
    cfg = OpticalSystemConfig(m=4, n=4, pitch_x_mm=10.0, pitch_y_mm=10.0,
                              gap_mm=50.0, focal_length_mm=35.0)
    D = 360.0
    eis = scene.capture(scene.point_source_scene(D), cfg, 2000, 2000, pixel_pitch_mm=0.005)
    grid = PlaneGrid(0.3, 0.3, 0.006)
    rec = reconstruction.reconstruct(eis, TiltedPlaneSpec(0.0, 0.0, D, grid),
                                     mode="diffraction", z_i_override_mm=D)
    measured = resolution.radial_extent(rec.field)
    curve = resolution.scan_resolution(cfg, D, "x", -1.0, 1.0, 3,
                                       z_i_override_mm=D, plane_grid=grid)
    return within(measured / curve.extents()[1], *POINT_ORACLE_RANGE,
                   "reconstructed/analyzer spot extent ratio")
