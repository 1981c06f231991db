"""simulate's exit-code contract under mutated scenarios: whatever a
scenario holds, a run exits 0, 2 (rejected at load, before any output
directory is made) or 3 (a runtime fault, on one line, leaving no CSV),
and never with a traceback."""

import os
import resource
import signal
import sys
import tempfile
import traceback
from pathlib import Path

import pytest
import yaml
from hypothesis import event, example, given, seed, settings, \
    strategies as st

from pnradar import cli, imaging
from pnradar.scenario import _SCHEMA, _List

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's three workloads
BASES = {
    "sphere_compare": ROOT / "scenarios" / "sphere_compare.yaml",
    "nb_dense_series": ROOT / "bench" / "scenarios" / "nb_dense_series.yaml",
    "uwb_scan": ROOT / "bench" / "scenarios" / "uwb_scan.yaml",
}
# a child's address space beyond its parent's, and its time limit
HEADROOM_BYTES = 1 << 30
ALARM_S = 60


def _leaf_paths(schema: dict, prefix: str = ""):
    """The dotted path of every leaf field of a schema section, a list
    section's fields under its first entry, [0]."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from _leaf_paths(spec, f"{prefix}{key}.")
        elif isinstance(spec, _List):
            yield from _leaf_paths(spec.schema, f"{prefix}{key}[0].")
        else:
            yield prefix + key


LEAVES = sorted(_leaf_paths(_SCHEMA))
VALUES = [0, -1, 0.5, 1e-30, 1e30, 2 ** 63, "x", [1], None]
MUTATIONS = st.lists(st.tuples(st.sampled_from(LEAVES),
                               st.sampled_from(VALUES)),
                     min_size=1, max_size=3, unique_by=lambda m: m[0])


def _mutated(base: str, mutations) -> dict:
    """The base workload cut to 2 sweeps (a scan to 5 rows), then each
    (path, value) of ``mutations`` set, making the sections it needs."""
    data = yaml.safe_load(BASES[base].read_text())
    exp = data["experiment"]
    exp["sweeps"] = min(exp.get("sweeps", 2), 2)
    if "azimuth_span_deg" in exp:
        exp["azimuth_span_deg"] = 2 * exp["azimuth_step_deg"]
    for path, value in mutations:
        *parents, leaf = path.split(".")
        node = data
        for key in parents:
            name, _, index = key.partition("[")
            if index:
                if not isinstance(node.get(name), list) or not node[name]:
                    node[name] = [{}]
                node = node[name][0]
            else:
                if not isinstance(node.get(name), dict):
                    node[name] = {}
                node = node[name]
        node[leaf] = value
    return data


def _simulate_in_child(scenario: Path, out: Path) -> tuple[int, str]:
    """simulate on one scenario, by cli.main in a forked child that forks
    no sweep worker, under an address space HEADROOM_BYTES past its
    parent's and an ALARM_S alarm, with the scenario's directory as its
    working directory: its exit code (minus the signal that killed it)
    and its stderr."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            os.dup2(write, 2)
            sys.stderr = open(2, "w", closefd=False)
            os.chdir(scenario.parent)
            imaging._usable_cpus = lambda: 1
            with open("/proc/self/statm") as statm:
                size = int(statm.read().split()[0]) * os.sysconf(
                    "SC_PAGE_SIZE")
            limit = size + HEADROOM_BYTES
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(ALARM_S)
            code = cli.main([str(scenario), "--out", str(out), "--quiet"])
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        err = pipe.read().decode(errors="replace")
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), err


@pytest.mark.skipif(not (hasattr(os, "fork")
                         and Path("/proc/self/statm").exists()),
                    reason="needs os.fork and /proc/self/statm")
@seed(20261022)
@settings(max_examples=40, deadline=None, database=None)
@given(base=st.sampled_from(sorted(BASES)), mutations=MUTATIONS)
# a calibration reference that echoes in the 0 m bin: the sphere
# compare_modes calibrates each chain on, and a calibrate run's own target
@example(base="sphere_compare",
         mutations=[("experiment.reference.range_m", 0.5)])
@example(base="sphere_compare", mutations=[
    ("radar.mode", "nb"), ("experiment.kind", "calibrate"),
    ("scene.clutter.count", 0), ("scene.target.points[0].range_m", 0.5),
    ("experiment.reference.range_m", 0.5)])
# streams past sys.maxsize samples
@example(base="uwb_scan", mutations=[("radar.uwb.pri_s", 1e30)])
@example(base="nb_dense_series", mutations=[("radar.nb.pri_s", 2 ** 63)])
# a 1.6 TB noise chunk beside a 0.1 MiB window
@example(base="uwb_scan", mutations=[("radar.uwb.pri_s", 2)])
def test_simulate_exits_zero_two_or_three_without_a_traceback(base,
                                                              mutations):
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "scenario.yaml", Path(tmp) / "out"
        scenario.write_text(yaml.safe_dump(_mutated(base, mutations)))
        code, err = _simulate_in_child(scenario, out)
        event(f"exit {code}")
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in err, err
        if code == 2:
            assert not out.exists(), err
        if code == 3:
            assert not list(out.glob("*.csv")), err
