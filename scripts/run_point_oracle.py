#!/usr/bin/env python3
"""End-to-end point-source oracle: capture, reconstruct, compare spot sizes.

A point source at the 360 mm beam focus is pinhole-captured with a 4x4
array, reconstructed in diffraction mode at the same depth, and the radial
extent of the reconstructed spot is compared with the analyzer's
prediction at normal view. The two should agree within tens of percent;
the residual is the back-projected display-pixel footprint. It also prints
the capture's lit pixels and the process's peak resident memory.
"""

import argparse
import resource

import numpy as np

from tiltview.optics import OpticalSystemConfig, PlaneGrid, TiltedPlaneSpec
from tiltview.reconstruction import reconstruct
from tiltview.resolution import radial_extent, scan_resolution
from tiltview.scene import capture, point_source_scene


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth-mm", type=float, default=360.0)
    parser.add_argument("--pixels", type=int, default=2000)
    args = parser.parse_args()

    cfg = OpticalSystemConfig(m=4, n=4, pitch_x_mm=10.0, pitch_y_mm=10.0,
                              gap_mm=50.0, focal_length_mm=35.0)
    D = args.depth_mm
    eis = capture(point_source_scene(D), cfg, args.pixels, args.pixels,
                  pixel_pitch_mm=cfg.pitch_x_mm / args.pixels)
    grid = PlaneGrid(0.3, 0.3, 0.006)
    rec = reconstruct(eis, TiltedPlaneSpec(0.0, 0.0, D, grid),
                      mode="diffraction", z_i_override_mm=360.0)
    measured = radial_extent(rec.field)

    curve = scan_resolution(cfg, D, "x", -1.0, 1.0, 3, z_i_override_mm=360.0)
    predicted = curve.extents()[1]

    print(f"reconstructed spot extent: {measured * 1e3:8.2f} um")
    print(f"analyzer prediction:       {predicted * 1e3:8.2f} um")
    print(f"ratio:                     {measured / predicted:8.3f}")
    lit = sum(int(np.count_nonzero(block)) for block in eis.blocks.values())
    print(f"lit elemental pixels:      {lit:8d} (in {len(eis.blocks)} windows of "
          f"{cfg.m * cfg.n} images of {args.pixels}^2)")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS:                  "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:8.1f} MiB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
