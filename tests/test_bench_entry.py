"""The benchmark's set-up entry point still runs against this package.

``bench/child.py setup`` loads each workload's scenario and calls
``self_calibrate`` and ``SweepPipeline`` by position, as the benchmark
does; a signature change that breaks it fails here.  The benchmark's span
targets are also pinned, so a rename that would silently zero a per-layer
metric fails here instead.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["scenarios/sphere_compare.yaml",
             "bench/scenarios/nb_dense_series.yaml",
             "bench/scenarios/uwb_scan.yaml"]


@pytest.mark.parametrize("scenario", WORKLOADS)
def test_child_setup_runs(scenario, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "setup",
         str(ROOT / scenario), "2026", str(tmp_path / "out")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["setup_s"] > 0


def test_span_targets_absent_only_as_known():
    # installs the wrappers in a fresh interpreter, so this process keeps
    # the unwrapped functions
    script = ("import json, sys; sys.path[:0] = sys.argv[1:]; import spans; "
              "t = spans.Tracer(); t.install(); print(json.dumps(t.absent))")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    absent = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(absent) == {"pnradar.cli.resolve_scenario",
                           "pnradar.cli.self_calibrate",
                           "pnradar.imaging.detect_scatterers",
                           "pnradar.imaging.ds_uwb_train",
                           "pnradar.imaging.estimate_rcs",
                           "pnradar.imaging.gate_pulse",
                           "pnradar.imaging.propagate",
                           "pnradar.imaging.range_profile",
                           "pnradar.imaging.rx_gate",
                           "pnradar.imaging.spread"}
