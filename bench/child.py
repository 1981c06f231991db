"""One measurement of a pnradar workload in a fresh interpreter.

Usage: python3 bench/child.py {setup,wall,trace} SCENARIO SEED OUT_DIR

Every mode first times ``import pnradar.cli``.  Then:

* ``setup`` times the fixed cost paid before the first sweep: loading the
  scenario, then for each chain the experiment runs, ``self_calibrate`` and
  the ``SweepPipeline`` constructor;
* ``wall`` times ``pnradar.cli.main`` on the scenario and records the peak
  resident set size of this process;
* ``trace`` does the same with span wrappers installed (see spans.py).

The result is printed as one JSON line.  The program under test is imported
from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _setup_seconds(scenario_path: str) -> float:
    from pnradar.imaging import SweepPipeline, self_calibrate
    from pnradar.scenario import ExperimentKind, load_scenario
    from pnradar.waveform import Mode

    t0 = time.perf_counter()
    sc = load_scenario(scenario_path)
    if sc.experiment is ExperimentKind.COMPARE_MODES:
        modes = (Mode.NB_DSSS, Mode.DS_UWB)
    else:
        modes = (sc.mode,)
    sigma_ref, range_ref = sc.reference
    for mode in modes:
        self_calibrate(sc.params_for(mode), sc.pn, sigma_ref, range_ref,
                       sc.chips_per_bit, sc.rx_for(mode))
        SweepPipeline(sc.params_for(mode), sc.pn, sc.chips_per_bit,
                      sc.rx_for(mode))
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    mode, scenario_path, seed, out_dir = argv
    t0 = time.perf_counter()
    import pnradar.cli
    result = {"import_s": time.perf_counter() - t0}

    if mode == "setup":
        result["setup_s"] = _setup_seconds(scenario_path)
    elif mode in ("wall", "trace"):
        tracer = None
        if mode == "trace":
            import spans
            tracer = spans.Tracer()
            tracer.install()
        t1 = time.perf_counter()
        rc = pnradar.cli.main([scenario_path, "--seed", seed, "--out", out_dir,
                               "--quiet"])
        result["wall_s"] = time.perf_counter() - t1
        result["exit_code"] = rc
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["layers"] = tracer.metrics(result["wall_s"])
            result["absent"] = tracer.absent
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
