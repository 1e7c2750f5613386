#!/usr/bin/env python3
"""Free-view reconstruction sweep of a synthetic textured scene.

Captures a smooth random texture at 300 mm with the optical system of
configs/textured_recon.json (the real/virtual system), then reconstructs
it on planes tilted by 0, 10, 12, 15, 17 and 20 degrees (diffraction mode
by default). One 16-bit PGM plus JSON sidecar is written per angle.
"""

import argparse
from pathlib import Path

import numpy as np

from tiltview.cli import RunConfig, main as tiltview_main
from tiltview.manifest import save_elemental_set
from tiltview.optics import read_json
from tiltview.scene import Scene, TexturedPlane, capture

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "textured_recon.json"
ANGLES_DEG = [0.0, 10.0, 12.0, 15.0, 17.0, 20.0]
PIXELS = 128  # elemental pixels per lenslet and axis


def smooth_texture(n: int = 64, sigma: float = 0.05, seed: int = 42) -> np.ndarray:
    """Band-limited random texture in [0.1, 1.1]; features span a few mm."""
    rng = np.random.default_rng(seed)
    freq = np.fft.fftfreq(n)
    FX, FY = np.meshgrid(freq, freq, indexing="ij")
    spec = np.exp(-(FX**2 + FY**2) / (2 * sigma**2)) * np.exp(2j * np.pi * rng.random((n, n)))
    tex = np.fft.ifft2(spec).real
    return (tex - tex.min()) / (tex.max() - tex.min()) + 0.1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/tilt_sweep")
    parser.add_argument("--mode", choices=("geometric", "diffraction"),
                        default="diffraction")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    out = Path(args.out)

    cfg = RunConfig.from_file(CONFIG).optical_system
    plane = TexturedPlane(z_mm=300.0, half_width_x_mm=15.0, half_width_y_mm=15.0,
                          texture=smooth_texture(seed=args.seed))
    eis = capture(Scene(planes=[plane]), cfg, PIXELS, PIXELS,
                  pixel_pitch_mm=cfg.pitch_x_mm / PIXELS)
    manifest = save_elemental_set(eis, out / "capture")
    zero = len(read_json(manifest)["zero_images"])
    print(f"captured {cfg.m}x{cfg.n} elemental images, {cfg.m * cfg.n - zero} stored "
          f"and {zero} all-zero -> {manifest}")

    for theta in ANGLES_DEG:
        image = out / f"recon_theta_{theta:04.1f}.pgm"
        rc = tiltview_main([
            "reconstruct",
            "--config", str(CONFIG),
            "--manifest", str(manifest),
            "--mode", args.mode,
            "--theta-x-deg", str(theta),
            "--out", str(image),
        ])
        if rc != 0:
            return rc
        print(f"theta_x = {theta:5.1f} deg -> {image}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
