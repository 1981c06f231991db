"""Self-test of the benchmark harness.

Runs every workload cut to three sweeps (a scan to three rows) on a copy of
its scenario, in both modes, and checks that the output checks catch a
corrupted artifact.  Takes about a minute:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
# The artifact each experiment kind is judged by.
ARTIFACT = {"compare_modes": "compare_summary.csv",
            "rcs_sweep_series": "series.csv", "scan_image": "image.csv"}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.METRICS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--sweeps", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["receiver.lags_computed"]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_artifact_fails_the_check(workload, tmp_path):
    source = ROOT / run.WORKLOADS[workload]
    raw = yaml.safe_load(source.read_text())
    kind = raw["experiment"]["kind"]
    scenario, rows = run._prepare(source, raw, 3, tmp_path)
    out = tmp_path / "out"
    subprocess.run([sys.executable, str(BENCH / "child.py"), "wall",
                    str(scenario), "3", str(out)], cwd=ROOT, check=True,
                   capture_output=True, timeout=120)
    assert checks.check(workload, kind, out, rows, golden=False)[0] == []

    artifact = out / ARTIFACT[kind]
    lines = artifact.read_text().splitlines(keepends=True)
    artifact.write_text("".join(lines[:-1]))
    assert checks.check(workload, kind, out, rows, golden=False)[0]


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans.extend([
        ["imaging.estimate", 0.0, 1.0, -1, None],
        ["channel.propagate", 0.1, 0.4, 0, {"points": 4, "samples": 10}],
        ["receiver.uwb_correlate", 0.4, 0.9, 0, {"lags": 7}],
        ["cli.write_csv", 1.5, 1.7, -1, {"rows": 3, "bytes": 30}],
    ])
    m = tracer.metrics(wall_s=2.0)
    assert m["channel.propagate.s"] == pytest.approx(0.3)
    assert m["channel.propagate.us_per_point"] == pytest.approx(0.3 / 4 * 1e6)
    assert m["receiver.uwb_correlate.ms_p50"] == pytest.approx(500.0)
    assert m["imaging.sweep_ms_p90"] == pytest.approx(1000.0)
    assert m["cli.write_csv.s"] == pytest.approx(0.2)
    assert m["unattributed_s"] == pytest.approx(2.0 - 1.0 - 0.2)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
