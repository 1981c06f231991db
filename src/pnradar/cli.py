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
                      ScanRows, SweepPipeline, calibrate, scan_rows)
from .scenario import (ExperimentKind, OutOfMemory, Scenario, ScenarioError,
                       load_scenario, waveform_fingerprint,
                       write_calibration_csv)
from .waveform import Mode


def _fmt(x: float) -> str:
    return "%.12g" % x


# A power_db cell is "%.12g" of 10*log10(max(p, _DB_FLOOR)), computed with
# math.log10; _db_text is the one place that rule is spelled out.
_DB_FLOOR = 1e-30


def _db_text(p: float) -> str:
    return _fmt(10.0 * math.log10(max(p, _DB_FLOOR)))


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_profile_csv(path: Path, profile: RangeProfile) -> None:
    power = profile.power
    rows = ((_fmt(r), _fmt(p), _db_text(p))
            for r, p in zip(profile.ranges_m, power))
    _write_csv(path, "range_m,power_linear,power_db", rows)


def write_series_csv(path: Path, estimates: list[RcsEstimate]) -> None:
    rows = ((str(e.sweep_index), e.mode.value, _fmt(e.sigma_m2), _fmt(e.dbsm))
            for e in estimates)
    _write_csv(path, "sweep,mode,sigma_m2,dbsm", rows)


def _text_rows(texts: list[bytes]) -> np.ndarray:
    """The texts as the rows of a uint8 matrix, NUL-padded to the longest."""
    rows = np.array(texts, dtype=bytes)
    return rows.view(np.uint8).reshape(len(texts), rows.itemsize)


def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """Each 4-digit group 0000..9999 as its 4 ASCII bytes in one uint32.

    Returns the fraction table, indexed by ``group + 10_000 * is_last``
    (trailing zeros of a last group become NUL), and the integer table
    (leading zeros become NUL).
    """
    group = np.arange(10_000, dtype=np.int16)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int16)
    chars = (group // place % 10 + ord("0")).astype(np.uint8)
    words = np.stack([chars, chars * (group % (10 * place) != 0),
                      chars * (group >= place)]).view(np.uint32)[..., 0]
    return words[:2].ravel(), words[2]


# Per decimal exponent e of |dB| (0..3): the scale that gives |dB| 12
# integer digits, and the shift that puts its units digit at 10^11.
_MANTISSA_SCALE = 10.0 ** (11 - np.arange(4))
_UNITS_SHIFT = 10 ** np.arange(4, dtype=np.int64)
_TIE_WINDOW = 2e-3


def _put_db_text(field: np.ndarray, power: np.ndarray,
                 words: tuple[np.ndarray, np.ndarray]) -> None:
    """Write each power's power_db text into its row of ``field``, an
    (n, 18) uint8 array: the row's bytes, NULs dropped, are the text.

    The vector layout is sign | 4 integer digits | "." | 11 fraction
    digits as 4+4+3, with leading integer and trailing fraction zeros as
    NUL: "%.12g"'s fixed notation for 1 <= |dB| < 10^4.
    """
    frac_words, int_words = words
    db = np.log10(np.maximum(power, _DB_FLOOR))
    db *= 10.0
    mag = np.abs(db)
    e = (mag >= 10.0).view(np.int8) + (mag >= 100.0).view(np.int8)
    e += (mag >= 1000.0).view(np.int8)
    mant = mag * _MANTISSA_SCALE[e]
    digits = np.rint(mant)
    # "%.12g" rounds the exact value of the math.log10 dB to 12 digits: it
    # rounds that value times the scale to an integer.  np.log10 is within
    # 1 ulp of log10 (numpy's accuracy tests) and libm's within 2 (glibc's
    # bound), so with the products by 10 and by the scale, mant is within
    # 4.5 * 2^-52 * 10^12 = 1.0e-3 of that value, and a mant more than
    # _TIE_WINDOW = 2e-3 from a half-integer rounds to the same integer.
    # Where the two logs straddle a decade, both round to the decade, or
    # mant rounds up to 10^12.  Near-ties, carries into 10^12, |dB| < 1
    # (no fixed 12-digit layout here), nan and inf print exactly.
    with np.errstate(invalid="ignore"):  # inf - inf where dB is infinite
        exact = np.abs(mant - digits) > 0.5 - _TIE_WINDOW
    exact |= ~(mag >= 1.0)
    exact |= ~(digits < 1e12)
    digits[exact] = 1e11  # any valid value; overwritten below
    units, frac = np.divmod(digits.astype(np.int64) * _UNITS_SHIFT[e],
                            10 ** 11)
    f1, rest = np.divmod(frac, 10 ** 7)
    f2, f3 = np.divmod(rest, 1000)
    np.multiply(db < 0, ord("-"), out=field[:, 0], casting="unsafe")
    np.multiply(frac != 0, ord("."), out=field[:, 5], casting="unsafe")
    int_w, f1_w, f2_w, f3_w = (field[:, k:k + 4].view(np.uint32)[:, 0]
                               for k in (1, 6, 10, 14))
    int_w[:] = int_words[units]
    f1_w[:] = frac_words[f1 + 10_000 * (rest == 0)]
    f2_w[:] = frac_words[f2 + 10_000 * (f3 == 0)]
    f3_w[:] = frac_words[f3 * 10 + 10_000]  # 3 digits: a last group "ddd0"
    cells = np.flatnonzero(exact)
    if cells.size:
        field[cells] = _text_rows([_db_text(p).encode().ljust(18, b"\0")
                                   for p in power[cells].tolist()])


def write_scan_csv(path: Path, scan: ScanRows) -> None:
    """Write image.csv, formatting each row as it is read from scan.rows."""
    # Each line is a fixed-width record of NUL-padded fields, one per range
    # cell: "az," | "range," | power_db | "\n".  The range fields are set
    # once per image and the az field once per row; a row's NULs are
    # dropped as it is written.
    words = _digit_words()
    azs = _text_rows([b"%.12g," % a for a in scan.azimuths_deg.tolist()])
    ranges = _text_rows([b"%.12g," % r for r in scan.ranges_m.tolist()])
    az_end = azs.shape[1]
    db_at = az_end + ranges.shape[1]
    rec = np.zeros((len(ranges), db_at + 19), np.uint8)
    rec[:, az_end:db_at] = ranges
    rec[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(b"az_deg,range_m,power_db\n")
        # the rows first, so that zip reads them to their end
        for row, az in zip(scan.rows, azs):
            rec[:, :az_end] = az
            _put_db_text(rec[:, db_at:-1], row, words)
            fh.write(rec.tobytes().translate(None, b"\0"))


def write_summary_csv(path: Path, rows) -> None:
    _write_csv(path, "mode,mean_dbsm,std_dbsm,uwb_std_lt_nb_std", rows)


# libyaml's emitter where PyYAML ships it, in about a quarter of
# yaml.safe_dump's time: the same bytes, but for where a long
# double-quoted string folds (README, "Scenario format")
_SafeDumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _write_manifest(path: Path, scenario: Scenario) -> None:
    manifest = {
        "tool_version": __version__,
        "seed": scenario.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "scenario": scenario.raw,
    }
    with open(path, "w") as fh:
        yaml.dump(manifest, fh, Dumper=_SafeDumper, sort_keys=True)


def _calibration_for(scenario: Scenario,
                     pipeline: SweepPipeline) -> Calibration:
    """The scenario's calibration file, or a self-calibration on the
    experiment's pipeline."""
    if scenario.calibration is not None:
        return scenario.calibration
    return pipeline.self_calibrate(*scenario.reference)


def _series(scenario: Scenario, pipeline: SweepPipeline) -> list[RcsEstimate]:
    """The calibrated cross section of each sweep on one chain."""
    return pipeline.series(scenario.scene,
                           _calibration_for(scenario, pipeline),
                           scenario.sweeps, scenario.pol)


def compare_modes(scenario: Scenario):
    """Run every chain on the identical scene and seed; yield each chain's
    per-sweep series, then a summary stating whether the wideband series
    is steadier."""
    rows, std = [], {}
    for mode, pipeline in scenario.pipelines.items():
        estimates = _series(scenario, pipeline)
        yield f"compare_{mode.value}.csv", write_series_csv, estimates
        dbsm = np.array([e.dbsm for e in estimates])
        std[mode] = float(np.std(dbsm))
        rows.append((mode.value, _fmt(float(np.mean(dbsm))),
                     _fmt(std[mode]) if scenario.sweeps > 1 else ""))
    verdict = (str(std[Mode.DS_UWB] < std[Mode.NB_DSSS]).lower()
               if scenario.sweeps > 1 else "")
    yield ("compare_summary.csv", write_summary_csv,
           [row + (verdict,) for row in rows])


def _artifacts(scenario: Scenario):
    """Yield (file name, writer, data) for each artifact of the experiment,
    computing each just before it is written."""
    kind = scenario.experiment
    if kind is ExperimentKind.COMPARE_MODES:
        yield from compare_modes(scenario)
        return
    pipeline = scenario.pipelines[scenario.mode]
    if kind is ExperimentKind.PROFILE:
        yield ("profile.csv", write_profile_csv,
               pipeline.profile(scenario.scene, scenario.pol))
    elif kind is ExperimentKind.CALIBRATE:
        profile = pipeline.profile(scenario.scene, scenario.pol)
        yield ("calibration.csv", write_calibration_csv,
               (calibrate(profile, *scenario.reference),
                waveform_fingerprint(pipeline.params, scenario.pn)))
    elif kind is ExperimentKind.RCS_SWEEP_SERIES:
        yield "series.csv", write_series_csv, _series(scenario, pipeline)
    elif kind is ExperimentKind.POLARIMETRIC:
        # all four channels share sweep 0, hence the same noise and
        # jitter draws; only the scattering-matrix entries differ
        for pol in Pol:
            yield (f"profile_{pol.value}.csv", write_profile_csv,
                   pipeline.profile(scenario.scene, pol))
    elif kind is ExperimentKind.SCAN_IMAGE:
        yield "image.csv", write_scan_csv, scan_rows(
            pipeline, scenario.scene, _calibration_for(scenario, pipeline),
            *scenario.scan, pol=scenario.pol)


def run(scenario: Scenario, quiet: bool = False) -> list[Path]:
    """Execute the selected experiment; returns the written artifacts.

    Partial outputs are removed if the run fails.
    """
    out_dir = scenario.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, write, data in _artifacts(scenario):
            written.append(out_dir / name)
            write(written[-1], data)
        written.append(out_dir / "run_manifest.yaml")
        _write_manifest(written[-1], scenario)
    except Exception:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise
    if not quiet:
        for path in written:
            print(f"wrote {path}")
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
    except OutOfMemory as exc:  # while building the pipelines
        print(f"error [{exc.kind.value}]: {exc}", file=sys.stderr)
        return 3

    try:
        run(scenario, quiet=args.quiet)
    except (NoDetections, ValueError, RuntimeError, OSError) as exc:
        print(f"error [{scenario.experiment.value}]: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        error = OutOfMemory(scenario.experiment, {
            mode: (p.block_rows, len(p.window))
            for mode, p in scenario.pipelines.items()})
        print(f"error [{scenario.experiment.value}]: {error}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
