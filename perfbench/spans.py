"""Span tracing of tiltview's layers from outside the package.

A traced run rebinds each layer entry point where its caller looks it up
(the module attribute the caller reads at call time), so the package itself
is unchanged. Every call records a span (name, start, end, parent) and
updates counters of the work it was asked to do. Spans stay in memory and
are reduced to per-layer metrics when the workload has finished.

This module imports only the standard library, so ``run.py`` reads the
metric tables below without importing numpy or tiltview.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "workload"
#: Least share of the traced wall_s that cli and layer spans must cover;
#: the rest is the benchmark's own code between calls.
ACCOUNTED_MIN = 0.99

#: Per-layer metrics of a traced run, with their units. Time metrics are the
#: total duration of the named spans; ``*.self_s`` is span time not covered
#: by child spans.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "cli.commands": "count",
    "cli.self_s": "s",
    "scene.capture_s": "s",
    "scene.elemental_px": "count",
    "manifest.save_s": "s",
    "manifest.load_s": "s",
    "manifest.bytes_written": "B",
    "manifest.bytes_read": "B",
    "reconstruction.self_s": "s",
    "reconstruction.backproject_calls": "count",
    "reconstruction.backproject_s": "s",
    "reconstruction.lenslet_samples": "count",
    "reconstruction.ns_per_lenslet_sample": "ns",
    "reconstruction.psf_s": "s",
    "reconstruction.psf_attempts": "count",
    "reconstruction.psf_failed": "count",
    "reconstruction.psf_useful_ratio": "ratio",
    "reconstruction.psf_fft_px": "count",
    "reconstruction.psf_max_kernel": "px",
    "reconstruction.psf_repeat_share": "ratio",
    "reconstruction.resample_s": "s",
    "reconstruction.strips": "count",
    "reconstruction.strip_convolve_s": "s",
    "resolution.self_s": "s",
    "resolution.aggregate_calls": "count",
    "resolution.aggregate_s": "s",
    "resolution.lenslet_evals": "count",
    "resolution.ns_per_lenslet_eval": "ns",
    "resolution.moment_s": "s",
    "resolution.fov_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.harness_self_s": "s",
    "trace.accounted_share": "ratio",
    "trace.spans": "count",
}

#: Span names whose self time belongs to each layer's ``self_s`` metric.
SELF_SPANS = {
    "cli.self_s": ("cli",),
    "reconstruction.self_s": ("reconstruction.reconstruct", "reconstruction.diffraction"),
    "resolution.self_s": ("resolution.scan",),
}

#: Span names whose total time is reported as a layer metric.
TOTAL_SPANS = {
    "scene.capture_s": "scene.capture",
    "manifest.save_s": "manifest.save",
    "manifest.load_s": "manifest.load",
    "reconstruction.backproject_s": "reconstruction.backproject",
    "reconstruction.psf_s": "reconstruction.psf",
    "reconstruction.resample_s": "reconstruction.resample",
    "reconstruction.strip_convolve_s": "reconstruction.strip_convolve",
    "resolution.aggregate_s": "resolution.aggregate",
    "resolution.moment_s": "resolution.moment",
    "resolution.fov_s": "resolution.fov",
}


def _manifest_bytes(manifest_path) -> int:
    """Size of a stored elemental set: the manifest plus every image it lists."""
    path = Path(manifest_path)
    with open(path) as fh:
        entries = json.load(fh)["images"]
    return path.stat().st_size + sum(os.path.getsize(path.parent / e["file"]) for e in entries)


class Tracer:
    """In-memory span recorder with counters, installed by rebinding."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict = defaultdict(int)
        self.psf_depths: list[tuple[float, float]] = []
        self.manifests_saved: list[str] = []
        self.manifests_loaded: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def rebind(self, module, attr: str, name: str, note=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper.

        ``note(bound_args, result, ok)`` updates counters after each call;
        it must keep no reference to large arguments or results.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        signature = inspect.signature(original) if note else None

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.close(index)
                self._count(name, note, signature, args, kwargs, None, False)
                raise
            self.close(index)
            self._count(name, note, signature, args, kwargs, result, True)
            return result

        self._undo.append((module, attr, original))
        setattr(module, attr, traced)

    def _count(self, name, note, signature, args, kwargs, result, ok) -> None:
        """Run a counter note; a note that no longer fits the entry point's
        signature is reported and skipped rather than failing the call."""
        if note is None:
            return
        try:
            note(_bind(signature, args, kwargs), result, ok)
        except (TypeError, KeyError, AttributeError) as exc:
            print(f"perfbench: counter for {name} skipped: {exc!r}", file=sys.stderr)

    def install(self) -> None:
        import tiltview.cli as cli
        import tiltview.manifest as manifest
        import tiltview.reconstruction as reconstruction
        import tiltview.resolution as resolution
        import tiltview.scene as scene

        self.rebind(cli, "main", "cli", self._note_cli)
        self.rebind(scene, "capture", "scene.capture", self._note_capture)
        self.rebind(manifest, "save_elemental_set", "manifest.save", self._note_save)
        self.rebind(manifest, "load_elemental_set", "manifest.load", self._note_load)
        self.rebind(cli, "reconstruct", "reconstruction.reconstruct")
        self.rebind(reconstruction, "backproject_geometric", "reconstruction.backproject",
                    self._note_backproject)
        self.rebind(reconstruction, "apply_diffraction", "reconstruction.diffraction")
        self.rebind(reconstruction, "defocus_psf", "reconstruction.psf", self._note_psf)
        self.rebind(reconstruction, "resample_kernel", "reconstruction.resample")
        self.rebind(reconstruction, "fftconvolve", "reconstruction.strip_convolve",
                    self._note_strip)
        self.rebind(cli, "scan_resolution", "resolution.scan")
        self.rebind(resolution, "aggregate_spot", "resolution.aggregate", self._note_aggregate)
        self.rebind(resolution, "radial_extent", "resolution.moment")
        self.rebind(cli, "extract_fov", "resolution.fov")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # counters --------------------------------------------------------------

    def _note_cli(self, args, result, ok):
        self.counts["cli.commands"] += 1

    def _note_capture(self, args, result, ok):
        if ok:
            self.counts["scene.elemental_px"] += int(result.images.size)

    def _note_save(self, args, result, ok):
        if ok:
            self.manifests_saved.append(str(result))

    def _note_load(self, args, result, ok):
        if ok:
            self.manifests_loaded.append(str(args["manifest_path"]))

    def _note_backproject(self, args, result, ok):
        self.counts["reconstruction.backproject_calls"] += 1
        if ok:
            cfg = args["eis"].capture_config
            self.counts["reconstruction.lenslet_samples"] += (
                cfg.m * cfg.n * int(result.field.values.size))

    def _note_psf(self, args, result, ok):
        size = int(args.get("kernel_size") or 0)
        self.counts["reconstruction.psf_attempts"] += 1
        self.counts["reconstruction.psf_fft_px"] += size * size
        self.counts["reconstruction.psf_max_kernel"] = max(
            self.counts["reconstruction.psf_max_kernel"], size)
        if ok:
            self.psf_depths.append((float(args["z_local_mm"]), float(args["z_i_mm"])))
        else:
            self.counts["reconstruction.psf_failed"] += 1

    def _note_strip(self, args, result, ok):
        self.counts["reconstruction.strips"] += 1

    def _note_aggregate(self, args, result, ok):
        self.counts["resolution.aggregate_calls"] += 1
        if ok:
            cfg = args["cfg"]
            self.counts["resolution.lenslet_evals"] += (
                cfg.m * cfg.n * int(result.intensity.values.size))

    # reduction -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of one traced workload (without set-up and the
        untraced comparison, which the caller adds)."""
        totals: dict = defaultdict(float)
        selfs: dict = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            totals[name] += duration
            selfs[name] += duration
            if parent is not None:
                selfs[self.spans[parent][0]] -= duration
        out = {name: float(self.counts[name]) for name in (
            "cli.commands", "scene.elemental_px", "reconstruction.backproject_calls",
            "reconstruction.lenslet_samples", "reconstruction.psf_attempts",
            "reconstruction.psf_failed", "reconstruction.psf_fft_px",
            "reconstruction.psf_max_kernel", "reconstruction.strips",
            "resolution.aggregate_calls", "resolution.lenslet_evals")}
        for metric, span in TOTAL_SPANS.items():
            out[metric] = totals[span]
        for metric, names in SELF_SPANS.items():
            out[metric] = sum(selfs[n] for n in names)
        out["manifest.bytes_written"] = float(sum(map(_manifest_bytes, self.manifests_saved)))
        out["manifest.bytes_read"] = float(sum(map(_manifest_bytes, self.manifests_loaded)))
        out["reconstruction.ns_per_lenslet_sample"] = _ratio(
            1e9 * out["reconstruction.backproject_s"], out["reconstruction.lenslet_samples"])
        out["resolution.ns_per_lenslet_eval"] = _ratio(
            1e9 * out["resolution.aggregate_s"], out["resolution.lenslet_evals"])
        attempts = out["reconstruction.psf_attempts"]
        out["reconstruction.psf_useful_ratio"] = _ratio(
            attempts - out["reconstruction.psf_failed"], attempts)
        depths = self.psf_depths
        out["reconstruction.psf_repeat_share"] = _ratio(len(depths) - len(set(depths)),
                                                        len(depths))
        wall = totals[ROOT_SPAN]
        out["trace.wall_s"] = wall
        out["trace.harness_self_s"] = selfs[ROOT_SPAN]
        out["trace.accounted_share"] = _ratio(wall - selfs[ROOT_SPAN], wall)
        out["trace.spans"] = float(len(self.spans))
        return out


def _bind(signature, args, kwargs) -> dict:
    if signature is None:
        return {}
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when the layer did no such work."""
    return num / den if den else 0.0
