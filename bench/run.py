"""pnradar benchmark: one workload, timed end to end or traced per layer.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--sweeps N]

Run from anywhere inside a checkout that holds ``src/pnradar`` and
``scenarios/``.  Each measurement is one run of the public entry point
``pnradar.cli.main`` in a fresh interpreter (bench/child.py), one at a
time.  ``--seed`` is passed to the program's own ``--seed`` flag; it
defaults to the scenario file's seed, where the outputs are also compared
with recorded values.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over runs
for ``--seconds``, at least three), ``setup_s`` (median of five set-ups,
each in its own process), ``peak_rss_mb`` and ``success_rate``.  The time
of ``import pnradar.cli`` in each process is printed but not reported.
``--trace 1`` alternates untraced and traced runs for ``--seconds`` (at
least one pair) and reports the per-layer metrics of spans.py, as medians
over the traced runs.

``--sweeps N`` runs a copy of the scenario cut to N sweeps (a scan to
about N azimuth rows), for quick checks of the harness itself.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the environment, each failed check, and sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import yaml

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORK_DIR = ROOT / ".bench_run"

# Why each workload exists: see bench/README.md.
WORKLOADS = {
    "sphere_compare": "scenarios/sphere_compare.yaml",
    "nb_dense_series": "bench/scenarios/nb_dense_series.yaml",
    "uwb_scan": "bench/scenarios/uwb_scan.yaml",
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "success_rate": "ratio"}

SETUP_REPS = 5
MIN_WALL_RUNS = 3
# No child starts, and none runs on, past this many seconds after start.
DEADLINE_S = 170.0


def env_info() -> dict:
    """Interpreter, library versions and processor of this machine."""
    info = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            info[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            info[dist] = None
    info["cpu"] = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Session:
    """Child runs of one workload, with their attempt and failure counts."""

    def __init__(self, workload: str, scenario: Path, kind: str, seed: int,
                 rows: int, golden: bool, tmp: Path):
        self.workload, self.scenario, self.kind = workload, scenario, kind
        self.seed, self.rows, self.golden, self.tmp = seed, rows, golden, tmp
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL [{self.workload} seed {self.seed}] {message}")

    def child(self, mode: str) -> dict | None:
        """Run one child; return its result, or None if it failed.

        Every run counts as an attempt, and the artifacts of ``wall`` and
        ``trace`` runs are checked.
        """
        self.attempted += 1
        out = self.tmp / f"out{self.attempted}"
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, str(self.scenario),
                 str(self.seed), str(out)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.time_left()))
        except subprocess.TimeoutExpired:
            self._fail(f"{mode} run timed out")
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self._fail(f"{mode} run exited {proc.returncode}: {tail[0]}")
            return None
        if result.get("exit_code", 0) != 0:
            self._fail(f"{mode} run: pnradar exited {result['exit_code']}: "
                       f"{proc.stderr.strip()}")
            return None
        if mode in ("wall", "trace"):
            errors, _ = checks.check(self.workload, self.kind, out, self.rows,
                                     self.golden)
            shutil.rmtree(out, ignore_errors=True)
            if errors:
                self._fail(f"{mode} run output check: " + "; ".join(errors))
                return None
        return result


def timed(session: Session, seconds: float) -> dict[str, float]:
    setup, imports, walls, rss = [], [], [], []
    for _ in range(SETUP_REPS):
        r = session.child("setup")
        if r is not None:
            setup.append(r["setup_s"])
            imports.append(r["import_s"])
    t0 = time.monotonic()
    runs = 0
    while ((runs < MIN_WALL_RUNS or time.monotonic() - t0 < seconds)
           and session.time_left() > 0):
        runs += 1
        r = session.child("wall")
        if r is not None:
            walls.append(r["wall_s"])
            imports.append(r["import_s"])
            rss.append(r["peak_rss_mb"])
    print(f"wall_s over {len(walls)} runs: {walls}")
    print(f"setup_s over {len(setup)} set-ups: {setup}")
    print(f"import_s over {len(imports)} imports: {imports}")
    # import_s is printed above but not reported: it proved too noisy.
    return {"wall_s": _median(walls), "setup_s": _median(setup),
            "peak_rss_mb": _median(rss),
            "success_rate": 1.0 - session.failed / max(1, session.attempted)}


def traced(session: Session, seconds: float) -> dict[str, float]:
    walls, layers, absent = [], [], set()
    t0 = time.monotonic()
    pairs = 0
    while ((pairs < 1 or time.monotonic() - t0 < seconds)
           and session.time_left() > 0):
        pairs += 1
        r = session.child("wall")
        if r is not None:
            walls.append(r["wall_s"])
        r = session.child("trace")
        if r is not None:
            layers.append(r["layers"])
            absent.update(r["absent"])
    if absent:
        print(f"absent span targets (their metrics read 0): {sorted(absent)}")
    out = {name: _median([run[name] for run in layers])
           for name in spans.METRICS}
    if walls and layers:
        out["trace_overhead"] = out["trace.wall_s"] / _median(walls) - 1.0
    print(f"traced runs: {len(layers)}, untraced runs: {len(walls)}; "
          f"unattributed share of traced wall: "
          f"{out['unattributed_s'] / out['trace.wall_s'] if layers else 0:.4f}")
    return out


def _prepare(scenario: Path, raw: dict, sweeps: int | None,
             tmp: Path) -> tuple[Path, int]:
    """Return the scenario to run (a cut copy with --sweeps) and the
    number of sweeps, or of azimuth rows for a scan, it should produce."""
    exp = raw["experiment"]
    if sweeps is not None:
        if exp["kind"] == "scan_image":
            exp["azimuth_span_deg"] = exp["azimuth_step_deg"] * (sweeps // 2)
        else:
            exp["sweeps"] = sweeps
        scenario = tmp / scenario.name
        scenario.write_text(yaml.safe_dump(raw, sort_keys=False))
    if exp["kind"] == "scan_image":
        rows = 2 * math.ceil(exp["azimuth_span_deg"] / exp["azimuth_step_deg"]) + 1
    else:
        rows = exp["sweeps"]
    return scenario, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweeps", type=int, default=None)
    args = parser.parse_args(argv)

    scenario = ROOT / WORKLOADS[args.workload]
    if not (ROOT / "src" / "pnradar" / "cli.py").is_file() \
            or not scenario.is_file():
        print(f"error: {ROOT} does not hold the pnradar sources and "
              f"{WORKLOADS[args.workload]}", file=sys.stderr)
        return 2
    if args.sweeps is not None and args.sweeps < 2:
        parser.error("--sweeps must be at least 2")
    raw = yaml.safe_load(scenario.read_text())
    seed = raw["seed"] if args.seed is None else args.seed
    print(f"env {json.dumps(env_info())}")

    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        path, rows = _prepare(scenario, raw, args.sweeps, tmp)
        golden = args.sweeps is None and seed == raw["seed"]
        session = Session(args.workload, path, raw["experiment"]["kind"],
                          seed, rows, golden, tmp)
        if args.trace:
            values, units = traced(session, args.seconds), spans.METRICS
        else:
            values, units = timed(session, args.seconds), END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
