#!/usr/bin/env python3
"""tiltview benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each iteration of the workload is one fresh
``worker.py`` process, so nothing a process caches carries over to the next
iteration. Iterations repeat until ``--seconds`` have passed, and at least
twice; extra set-up-only processes then bring the set-up samples to at
least five.
Metrics are medians over the run's samples.

With ``--trace 0`` the run reports the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``, ``ops_ok_frac``). With ``--trace 1``
untraced and traced iterations alternate and the run reports the per-layer
metrics of ``spans.PER_LAYER``, the tracing overhead among them. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
WORKLOADS = ("analyze_rv81", "sweep_geometric", "sweep_diffraction", "recon_steep")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "ratio"}
MIN_ITERATIONS = 2  # the diffraction sweep takes longer than one run's --seconds
MIN_SETUP_SAMPLES = 5
BUDGET_S = 170.0  # a run must end within 180 s
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.scratch = root / ".perfbench_tmp" / str(os.getpid())
        self.deadline = time.perf_counter() + BUDGET_S
        self.count = 0
        self.env = dict(os.environ, **THREAD_PINS, TILTVIEW_LOG_LEVEL="WARNING")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)

    def worker(self, *flags: str) -> dict | None:
        """One worker process; None when it failed or ran out of time."""
        self.count += 1
        work = self.scratch / str(self.count)
        work.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--work", str(work), *flags]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.time_left()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker {' '.join(flags)} timed out", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(work, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(lines[-1])

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def source_record(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "tiltview").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "thread_pins": THREAD_PINS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="texture RNG seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tiltview" / "__init__.py").is_file():
        print("perfbench: no src/tiltview here; run from the repository root", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    try:
        return measure(runner, args)
    finally:
        runner.close()


def measure(runner: Runner, args) -> int:
    untraced, traced, setups = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    longest = 0.0
    while True:
        trace = bool(args.trace) and len(untraced) > len(traced)
        flags = ["--trace"] if trace else []
        if runner.count == 0:
            flags.append("--oracle")
        began = time.perf_counter()
        res = runner.worker(*flags)
        longest = max(longest, time.perf_counter() - began)
        if res is None:
            attempted += 1
            failed += 1
        else:
            attempted += res["attempted"]
            failed += len(res["failures"])
            for failure in res["failures"]:
                print(f"FAILED {failure}", file=sys.stderr)
            setups.append(res)
            (traced if trace else untraced).append(res)
        enough = (time.perf_counter() - start >= args.seconds
                  and (len(untraced) >= MIN_ITERATIONS if not args.trace
                       else untraced and traced))
        if enough or runner.time_left() < longest:
            break
    while len(setups) < MIN_SETUP_SAMPLES and runner.time_left() > 10.0:
        res = runner.worker("--setup-only")
        if res is None:
            break
        setups.append(res)

    if not untraced or (args.trace and not traced):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1

    record = dict(source_record(runner.root), workload=args.workload, seed=args.seed,
                  iterations=len(untraced) + len(traced), setup_samples=len(setups),
                  **untraced[0]["record"])
    print("record: " + json.dumps(record))

    samples = {
        "wall_s": [r["wall_ref_s"] for r in untraced],
        "raw_wall_s": [r["wall_s"] for r in untraced],
        "setup_s": [r["setup_ref_s"] for r in setups],
        "raw_setup_s": [r["import_s"] + r["inputs_s"] for r in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    if args.trace:
        units = PER_LAYER
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in PER_LAYER if name in traced[0]["layers"]}
        metrics["setup.import_s"] = statistics.median(r["import_s"] for r in setups)
        metrics["setup.inputs_s"] = statistics.median(r["inputs_s"] for r in setups)
        metrics["trace.untraced_wall_s"] = statistics.median(samples["raw_wall_s"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    else:
        units = END_TO_END
        metrics = {name: statistics.median(samples[name]) for name in END_TO_END if name in samples}
        metrics["ops_ok_frac"] = (attempted - failed) / attempted
    for name, values in samples.items():
        q1, q2, q3 = quartiles(values)
        print(f"{name:<12} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  min {min(values):.6g}  "
              f"(n={len(values)}) samples " + json.dumps(values))
    print(f"operations   {attempted - failed}/{attempted} passed")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
