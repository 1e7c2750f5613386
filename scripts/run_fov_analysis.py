#!/usr/bin/env python3
"""Spot-size-versus-tilt scans for the three reference configurations.

Runs the analyzer on the real/virtual system (source at the 360 mm beam
focus) and the focused system at 2 m and 6 m, then prints a short summary
of each curve. Outputs land in results/<name>/curve.csv and fov.json.
"""

import argparse
import csv
import json
from pathlib import Path

from tiltview.cli import main as tiltview_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = ["real_virtual_fov", "focused_2m", "focused_6m"]


def summarize(out_dir: Path) -> str:
    with open(out_dir / "curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    extents = [float(r["radial_extent_mm"]) for r in rows]
    fov = json.loads((out_dir / "fov.json").read_text())
    lo, hi = min(extents), max(extents)
    # each side is a signed crossing angle, or null where the scan stays below the threshold
    negative, positive = (("open" if deg is None else f"{deg:+.2f} deg")
                          for deg in (fov["fov_negative_deg"], fov["fov_positive_deg"]))
    return (f"min {lo:.5f} mm, max {hi:.5f} mm, ratio {hi / lo:.3f}, "
            f"fov {negative}/{positive}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory root")
    args = parser.parse_args()

    for name in CONFIGS:
        out_dir = Path(args.out) / name
        rc = tiltview_main([
            "analyze",
            "--config", str(CONFIG_DIR / f"{name}.json"),
            "--out", str(out_dir),
        ])
        if rc != 0:
            return rc
        print(f"{name}: {summarize(out_dir)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
