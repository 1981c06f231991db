"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public callables of the pnradar modules with
wrappers, in the namespace that looks each one up at call time (for example
``pnradar.imaging.propagate``, which ``SweepPipeline.profile`` calls).  A
wrapper records a span: name, start, end, parent span and counts derived from
the call's arguments and return value.  Spans stay in memory; ``metrics``
reduces them once the run has ended.

A layer's self time is its span durations minus the time covered by its
child spans.  Metric names ending in ``.s`` or ``.self_s`` are self time
summed over the run, ``_p50``/``_p90`` are nearest-rank percentiles of
per-call durations, and counts are means per call.

A target that no longer exists (after a refactor) is skipped and listed in
``Tracer.absent``; the metrics it fed read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time


def _rows(n):
    """Counter for a CSV writer whose second argument yields ``n(arg)`` rows."""
    def count(a, result):
        path, data = list(a.values())[:2]
        return {"rows": n(data), "bytes": os.path.getsize(path)}
    return count


# (module, attribute path, span name, counter(bound arguments, result)).
TARGETS = [
    ("pnradar.cli", "load_scenario", "scenario.load_scenario", None),
    # main resolves the scenario again after applying its flags.
    ("pnradar.cli", "resolve_scenario", "scenario.load_scenario", None),
    ("pnradar.cli", "self_calibrate", "imaging.self_calibrate", None),
    ("pnradar.cli", "scan_image", "imaging.scan_image", None),
    ("pnradar.cli", "write_profile_csv", "cli.write_csv", _rows(len)),
    ("pnradar.cli", "write_series_csv", "cli.write_csv", _rows(len)),
    ("pnradar.cli", "write_image_csv", "cli.write_csv",
     _rows(lambda image: image.power.size)),
    ("pnradar.cli", "write_calibration_csv", "cli.write_csv",
     _rows(lambda cal: 1)),
    ("pnradar.imaging", "make_waveform", "imaging.make_waveform", None),
    ("pnradar.imaging", "spread", "waveform", None),
    ("pnradar.imaging", "qpsk_baseband", "waveform", None),
    ("pnradar.imaging", "gate_pulse", "waveform", None),
    ("pnradar.imaging", "ds_uwb_train", "waveform", None),
    ("pnradar.imaging", "SweepPipeline.estimate", "imaging.estimate", None),
    ("pnradar.imaging", "SweepPipeline.profile", "imaging.profile", None),
    ("pnradar.imaging", "propagate", "channel.propagate",
     lambda a, r: {"points": len(a["scene"].all_points),
                   "samples": len(a["tx"])}),
    ("pnradar.imaging", "rx_gate", "receiver.rx_gate", None),
    ("pnradar.imaging", "uwb_correlate", "receiver.uwb_correlate",
     lambda a, r: {"lags": len(r)}),
    ("pnradar.imaging", "range_profile", "imaging.range_profile",
     lambda a, r: {"bins": len(r)}),
    ("pnradar.imaging", "estimate_rcs", "imaging.estimate_rcs", None),
    ("pnradar.imaging", "detect_scatterers", "imaging.detect_scatterers",
     lambda a, r: {"detections": len(r)}),
]

# Every per-layer metric with its unit, in report order.
METRICS = {
    "receiver.uwb_correlate.s": "s",
    "receiver.uwb_correlate.ms_p50": "ms",
    "receiver.uwb_correlate.ms_p90": "ms",
    "receiver.lags_computed": "count",
    "imaging.bins_kept": "count",
    "imaging.lag_yield": "ratio",
    "channel.propagate.s": "s",
    "channel.propagate.ms_p50": "ms",
    "channel.propagate.ms_p90": "ms",
    "channel.points_per_call": "count",
    "channel.samples_per_call": "count",
    "channel.propagate.us_per_point": "us",
    "imaging.detect_scatterers.s": "s",
    "imaging.detect_scatterers.ms_p50": "ms",
    "imaging.detections_per_sweep": "count",
    "imaging.estimate_rcs.self_s": "s",
    "imaging.range_profile.s": "s",
    "imaging.sweep_ms_p50": "ms",
    "imaging.sweep_ms_p90": "ms",
    "receiver.rx_gate.s": "s",
    "imaging.scan_image.self_s": "s",
    "cli.write_csv.s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "imaging.self_calibrate.s": "s",
    "imaging.make_waveform.s": "s",
    "waveform.s": "s",
    "scenario.load_scenario.s": "s",
    "trace.wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Span recorder for one run of the program."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, counts or None].
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(fn, name, counter))

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                span[4] = counter(bound.arguments, result)
            return result
        return wrapper

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Reduce the recorded spans to the per-layer metrics of METRICS.

        ``trace_overhead`` needs an untraced run and is filled in by the
        caller; it reads 0 here.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        calls: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, list[float]] = {}
        top_s = 0.0
        sweeps_ms = []
        for i, (name, t0, t1, parent, cnt) in enumerate(spans):
            calls.setdefault(name, []).append((t1 - t0) * 1e3)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_s[i]
            for key, value in (cnt or {}).items():
                counts.setdefault(key, []).append(value)
            if parent < 0:
                top_s += t1 - t0
            # A sweep is an estimate, or a profile that is not part of an
            # estimate or a calibration (scan rows).
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "imaging.estimate" or (
                    name == "imaging.profile" and parent_name not in
                    ("imaging.estimate", "imaging.self_calibrate")):
                sweeps_ms.append((t1 - t0) * 1e3)

        def mean(key):
            values = counts.get(key, [])
            return sum(values) / len(values) if values else 0.0

        def total(key):
            return float(sum(counts.get(key, [])))

        def ms(name, q):
            return _percentile(calls.get(name, []), q)

        prop_s = self_s.get("channel.propagate", 0.0)
        points = total("points")
        lags = total("lags")
        out = {
            "receiver.uwb_correlate.s": self_s.get("receiver.uwb_correlate", 0.0),
            "receiver.uwb_correlate.ms_p50": ms("receiver.uwb_correlate", 0.5),
            "receiver.uwb_correlate.ms_p90": ms("receiver.uwb_correlate", 0.9),
            "receiver.lags_computed": mean("lags"),
            "imaging.bins_kept": mean("bins"),
            "imaging.lag_yield": total("bins") / lags if lags else 0.0,
            "channel.propagate.s": prop_s,
            "channel.propagate.ms_p50": ms("channel.propagate", 0.5),
            "channel.propagate.ms_p90": ms("channel.propagate", 0.9),
            "channel.points_per_call": mean("points"),
            "channel.samples_per_call": mean("samples"),
            "channel.propagate.us_per_point":
                prop_s / points * 1e6 if points else 0.0,
            "imaging.detect_scatterers.s":
                self_s.get("imaging.detect_scatterers", 0.0),
            "imaging.detect_scatterers.ms_p50":
                ms("imaging.detect_scatterers", 0.5),
            "imaging.detections_per_sweep": mean("detections"),
            "imaging.estimate_rcs.self_s": self_s.get("imaging.estimate_rcs", 0.0),
            "imaging.range_profile.s": self_s.get("imaging.range_profile", 0.0),
            "imaging.sweep_ms_p50": _percentile(sweeps_ms, 0.5),
            "imaging.sweep_ms_p90": _percentile(sweeps_ms, 0.9),
            "receiver.rx_gate.s": self_s.get("receiver.rx_gate", 0.0),
            "imaging.scan_image.self_s": self_s.get("imaging.scan_image", 0.0),
            "cli.write_csv.s": self_s.get("cli.write_csv", 0.0),
            "cli.rows_written": mean("rows"),
            "cli.bytes_written": mean("bytes"),
            "imaging.self_calibrate.s": self_s.get("imaging.self_calibrate", 0.0),
            "imaging.make_waveform.s": self_s.get("imaging.make_waveform", 0.0),
            "waveform.s": self_s.get("waveform", 0.0),
            "scenario.load_scenario.s": self_s.get("scenario.load_scenario", 0.0),
            "trace.wall_s": wall_s,
            "unattributed_s": wall_s - top_s,
            "trace_overhead": 0.0,
        }
        return out
