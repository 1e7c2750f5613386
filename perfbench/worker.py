#!/usr/bin/env python3
"""One workload in one fresh interpreter: import, prepare, run, check.

``run.py`` starts this from the repository root with ``src`` on
``PYTHONPATH`` and BLAS/OpenMP pinned to one thread. The last line of
standard output is one JSON object with the set-up times, the timed
``wall_s`` (raw and contention-corrected), the peak resident memory of the
timed part, the operations attempted and failed and, with ``--trace``, the
per-layer metrics.

Contention correction: on a shared host the same code runs up to ~1.5x
slower while a neighbour holds the core, in stretches from a second to the
length of a whole run. An untraced iteration therefore runs a fixed
reference kernel before the first tiltview call and after each one, with
the clock paused, and scales each call's time by ``REFERENCE_NOMINAL_S``
over the mean kernel time around it. Set-up time is scaled the same way by
the kernel times after the import and after the input preparation. The
results read as seconds at the host's uncontended speed; the raw times are
reported beside them.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


#: Uncontended time of ``ReferenceKernel`` on the 2-core host the bounds
#: in BENCHMARK.json were set on (lowest quartile of its samples).
REFERENCE_NOMINAL_S = 0.0298


class ReferenceKernel:
    """A fixed mix like tiltview's import and hot paths: interpreter-bound
    Python, small-array arithmetic, gathers and masking in a Python loop,
    then FFTs. Calling it returns the mean seconds of ``REPEATS`` runs:
    the host's speed also flips within a second, and one ~30 ms run
    catches a single moment of it."""

    REPEATS = 3

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.a = rng.random((96, 96))
        self.idx = rng.integers(0, 96, size=(96, 96))
        self.z = np.exp(2j * np.pi * rng.random((512, 512)))

    def __call__(self) -> float:
        return sum(self._once() for _ in range(self.REPEATS)) / self.REPEATS

    def _once(self) -> float:
        np, a, idx = self.np, self.a, self.idx
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[i % 97] = table.get(i % 89, 0) + i
        for _ in range(128):
            u = a * 1.5 - a / 3.0
            cols = np.floor(a * 95.0).astype(int)
            (a[idx, cols] + np.where(u > 0.5, u, 0.0)).sum()
        for _ in range(2):
            np.abs(np.fft.fft2(self.z)) ** 2
        return time.perf_counter() - start


def timed_steps(steps, kernel: ReferenceKernel, before: float) -> tuple[float, float]:
    """Raw and contention-corrected seconds of a workload's steps;
    ``before`` is the kernel time just before the first step."""
    raw = corrected = 0.0
    done = False
    while not done:
        start = time.perf_counter()
        try:
            next(steps)
        except StopIteration:
            done = True
        elapsed = time.perf_counter() - start
        after = before if done else kernel()
        raw += elapsed
        corrected += elapsed * REFERENCE_NOMINAL_S * 2.0 / (before + after)
        before = after
    return raw, corrected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for outputs")
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after import and input preparation")
    parser.add_argument("--oracle", action="store_true",
                        help="also run the point-source oracle, untimed")
    args = parser.parse_args()

    start = time.perf_counter()
    import tiltview.cli  # noqa: F401 - the whole package, as every CLI invocation pays it
    import_s = time.perf_counter() - start

    import numpy
    import scipy

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](Path.cwd(), Path(args.work), args.seed)
    kernel = ReferenceKernel()
    kernel_after_import = kernel()
    start = time.perf_counter()
    workload.prepare()
    inputs_s = time.perf_counter() - start
    kernel_after_inputs = kernel()
    result = {"import_s": import_s, "inputs_s": inputs_s,
              "setup_ref_s": (import_s + inputs_s) * REFERENCE_NOMINAL_S * 2.0
              / (kernel_after_import + kernel_after_inputs)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ops = workloads.Ops()
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        root = tracer.open(spans.ROOT_SPAN)
        start = time.perf_counter()
        for _ in workload.run(ops):
            pass
        wall_s = wall_ref_s = time.perf_counter() - start
        tracer.close(root)
        tracer.uninstall()
    else:
        wall_s, wall_ref_s = timed_steps(workload.run(ops), kernel, kernel_after_inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload.check(ops)
    if args.oracle:
        ops.check("point oracle", workloads.point_oracle)
    if tracer:
        result["layers"] = layers = tracer.metrics()
        ops.check("trace accounting", workloads.within, layers["trace.accounted_share"],
                  spans.ACCOUNTED_MIN, 1.0, "share of traced wall_s inside cli and layer spans")
    result.update(
        wall_s=wall_s,
        wall_ref_s=wall_ref_s,
        peak_rss_mb=peak_rss_mb,
        attempted=ops.attempted,
        failures=ops.failures,
        record={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "config": workload.config,
            "config_digest": workload.config_digest(),
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
