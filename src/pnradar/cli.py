"""Command-line front end: scenario execution and CSV artifact emission.

Usage: simulate <scenario-file> [--seed U64] [--out DIR]
                [--experiment NAME] [--mode nb|uwb] [--quiet]

Exit codes: 0 success, 2 validation failure, 3 runtime or model error.
Every artifact is a deterministic function of (scenario, seed); rerunning
the emitted manifest reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .channel import Pol
from .imaging import (Calibration, NoDetections, RangeProfile, RcsEstimate,
                      ScanImage, SweepPipeline, calibrate, scan_image,
                      self_calibrate)
# resolve_scenario is unused here since main resolves once, inside
# load_scenario; it stays a name of this module because the benchmark's
# span wrappers (bench/spans.py) look it up here.
from .scenario import (ExperimentKind, Scenario, ScenarioError, load_scenario,
                       resolve_scenario)  # noqa: F401
from .waveform import Mode


def _fmt(x: float) -> str:
    return "%.12g" % x


def _db(p: float, floor: float = 1e-30) -> float:
    return 10.0 * math.log10(max(p, floor))


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_profile_csv(path: Path, profile: RangeProfile) -> None:
    power = profile.power
    rows = ((_fmt(r), _fmt(p), _fmt(_db(p)))
            for r, p in zip(profile.ranges_m, power))
    _write_csv(path, "range_m,power_linear,power_db", rows)


def write_series_csv(path: Path, estimates: list[RcsEstimate]) -> None:
    rows = ((str(e.sweep_index), e.mode.value, _fmt(e.sigma_m2), _fmt(e.dbsm))
            for e in estimates)
    _write_csv(path, "sweep,mode,sigma_m2,dbsm", rows)


def write_image_csv(path: Path, image: ScanImage) -> None:
    rows = ((_fmt(az), _fmt(rng_m), _fmt(_db(p)))
            for az, row in zip(image.azimuths_deg, image.power)
            for rng_m, p in zip(image.ranges_m, row))
    _write_csv(path, "az_deg,range_m,power_db", rows)


def write_calibration_csv(path: Path, cal: Calibration) -> None:
    _write_csv(path, "gain,reference_sigma_m2,reference_range_m",
               [(_fmt(cal.gain), _fmt(cal.reference_sigma_m2),
                 _fmt(cal.reference_range_m))])


def _write_manifest(path: Path, scenario: Scenario) -> None:
    manifest = {
        "tool_version": __version__,
        "seed": scenario.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "scenario": scenario.raw,
    }
    with open(path, "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)


def _pipeline(scenario: Scenario, mode: Mode) -> SweepPipeline:
    return SweepPipeline(scenario.params_for(mode), scenario.pn,
                         scenario.chips_per_bit, scenario.rx_for(mode))


def _calibration_for(scenario: Scenario,
                     pipeline: SweepPipeline) -> Calibration:
    """The scenario's calibration file, or a self-calibration on the
    experiment's own pipeline."""
    if scenario.calibration is not None:
        return scenario.calibration
    sigma_ref, range_ref = scenario.reference
    return self_calibrate(pipeline.params, scenario.pn, sigma_ref, range_ref,
                          pipeline=pipeline)


def _mean_std(dbsm: np.ndarray) -> tuple[str, str]:
    mean = _fmt(float(np.mean(dbsm)))
    std = _fmt(float(np.std(dbsm))) if dbsm.size > 1 else ""
    return mean, std


def compare_modes(scenario: Scenario, out_dir: Path) -> list[Path]:
    """Run both chains on the identical scene and seed; emit per-sweep
    series plus a summary stating whether the wideband series is steadier."""
    written = []
    stats = {}
    for mode, name in ((Mode.NB_DSSS, "nb"), (Mode.DS_UWB, "uwb")):
        pipeline = _pipeline(scenario, mode)
        estimates = pipeline.series(
            scenario.scene, _calibration_for(scenario, pipeline),
            scenario.sweeps, scenario.pol)
        path = out_dir / f"compare_{name}.csv"
        write_series_csv(path, estimates)
        written.append(path)
        stats[name] = np.array([e.dbsm for e in estimates])
    nb_std = float(np.std(stats["nb"])) if scenario.sweeps > 1 else None
    uwb_std = float(np.std(stats["uwb"])) if scenario.sweeps > 1 else None
    verdict = "" if nb_std is None else str(uwb_std < nb_std).lower()
    rows = []
    for name in ("nb", "uwb"):
        mean, std = _mean_std(stats[name])
        rows.append((name, mean, std, verdict))
    path = out_dir / "compare_summary.csv"
    _write_csv(path, "mode,mean_dbsm,std_dbsm,uwb_std_lt_nb_std", rows)
    written.append(path)
    return written


def run(scenario: Scenario, quiet: bool = False) -> list[Path]:
    """Execute the selected experiment; returns the written artifacts.

    Partial outputs are removed if the run fails.
    """
    out_dir = scenario.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    try:
        kind = scenario.experiment
        mode = scenario.mode
        if kind is ExperimentKind.PROFILE:
            profile = _pipeline(scenario, mode).profile(scenario.scene,
                                                        scenario.pol)
            path = out_dir / "profile.csv"
            write_profile_csv(path, profile)
            written.append(path)
        elif kind is ExperimentKind.CALIBRATE:
            profile = _pipeline(scenario, mode).profile(scenario.scene,
                                                        scenario.pol)
            sigma_ref, range_ref = scenario.reference
            cal = calibrate(profile, sigma_ref, range_ref)
            path = out_dir / "calibration.csv"
            write_calibration_csv(path, cal)
            written.append(path)
        elif kind is ExperimentKind.RCS_SWEEP_SERIES:
            pipeline = _pipeline(scenario, mode)
            estimates = pipeline.series(
                scenario.scene, _calibration_for(scenario, pipeline),
                scenario.sweeps, scenario.pol)
            path = out_dir / "series.csv"
            write_series_csv(path, estimates)
            written.append(path)
        elif kind is ExperimentKind.POLARIMETRIC:
            # all four channels share sweep 0, hence the same noise and
            # jitter draws; only the scattering-matrix entries differ
            pipeline = _pipeline(scenario, mode)
            for pol in Pol:
                path = out_dir / f"profile_{pol.value}.csv"
                write_profile_csv(path, pipeline.profile(scenario.scene, pol))
                written.append(path)
        elif kind is ExperimentKind.SCAN_IMAGE:
            pipeline = _pipeline(scenario, mode)
            image = scan_image(pipeline, scenario.scene,
                               _calibration_for(scenario, pipeline),
                               scenario.azimuth_step_deg,
                               scenario.beamwidth_deg,
                               az_span_deg=scenario.azimuth_span_deg,
                               pol=scenario.pol)
            path = out_dir / "image.csv"
            write_image_csv(path, image)
            written.append(path)
        elif kind is ExperimentKind.COMPARE_MODES:
            written.extend(compare_modes(scenario, out_dir))
        manifest = out_dir / "run_manifest.yaml"
        _write_manifest(manifest, scenario)
        written.append(manifest)
    except Exception:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise
    for path in written:
        log(f"wrote {path}")
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Deterministic pulsed-DSSS / DS-UWB imaging radar simulator")
    parser.add_argument("scenario", help="scenario or run-manifest YAML file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--experiment", default=None,
                        choices=[k.value for k in ExperimentKind],
                        help="override the experiment kind")
    parser.add_argument("--mode", default=None, choices=["nb", "uwb"],
                        help="override the radar mode")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    args = parser.parse_args(argv)

    flags = {"seed": args.seed, "output.directory": args.out,
             "experiment.kind": args.experiment, "radar.mode": args.mode}
    try:
        scenario = load_scenario(args.scenario, {
            path: value for path, value in flags.items() if value is not None})
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        run(scenario, quiet=args.quiet)
    except (ScenarioError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoDetections, ValueError, RuntimeError, OSError) as exc:
        print(f"error [{scenario.experiment.value}]: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
