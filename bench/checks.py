"""Output checks for one benchmark run.

Seed-free checks apply at every seed.  When a full-size workload runs at its
scenario's own seed, the outputs are also compared with values recorded at
the seed commit, to 1e-9 relative.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

GOLDEN_RTOL = 1e-9

# Values at each scenario's own seed.  sphere_compare's come from the README
# summary; the others were recorded at the seed commit.
GOLDEN = {
    "sphere_compare": {"nb_mean_dbsm": -22.70801851, "nb_std_dbsm": 1.3417769744,
                       "uwb_mean_dbsm": -30.004299561,
                       "uwb_std_dbsm": 0.0454228549578},
    "nb_dense_series": {"mean_dbsm": -16.669431283633166,
                        "std_dbsm": 1.6829816916619496},
    "uwb_scan": {"peak_az_deg": 0.0, "peak_range_m": 9.99957743659,
                 "peak_db": -30.0005274085},
}


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _series_dbsm(path: Path, sweeps: int, mode: str, errors: list[str]):
    rows = _read(path)
    if len(rows) != sweeps:
        errors.append(f"{path.name}: {len(rows)} rows, expected {sweeps}")
        return None
    if [r["sweep"] for r in rows] != [str(k) for k in range(sweeps)]:
        errors.append(f"{path.name}: sweep column is not 0..{sweeps - 1}")
    if any(r["mode"] != mode for r in rows):
        errors.append(f"{path.name}: mode column is not {mode}")
    dbsm = np.array([float(r["dbsm"]) for r in rows])
    if not np.all(np.isfinite(dbsm)):
        errors.append(f"{path.name}: non-finite dbsm")
    return dbsm


def _check_compare(out: Path, sweeps: int) -> tuple[list[str], dict]:
    errors: list[str] = []
    for mode in ("nb", "uwb"):
        _series_dbsm(out / f"compare_{mode}.csv", sweeps, mode, errors)
    summary = {r["mode"]: r for r in _read(out / "compare_summary.csv")}
    if sorted(summary) != ["nb", "uwb"]:
        errors.append(f"compare_summary.csv: modes {sorted(summary)}")
        return errors, {}
    for mode, row in summary.items():
        if row["uwb_std_lt_nb_std"] != "true":
            errors.append(f"compare_summary.csv: uwb_std_lt_nb_std is "
                          f"{row['uwb_std_lt_nb_std']!r} on the {mode} row")
    values = {f"{m}_{k}_dbsm": float(summary[m][f"{k}_dbsm"])
              for m in ("nb", "uwb") for k in ("mean", "std")}
    if not abs(values["uwb_mean_dbsm"] + 30.0) <= 0.1:
        errors.append(f"uwb mean {values['uwb_mean_dbsm']} dBsm is not "
                      f"within 0.1 dB of -30")
    return errors, values


def _check_series(out: Path, sweeps: int) -> tuple[list[str], dict]:
    errors: list[str] = []
    dbsm = _series_dbsm(out / "series.csv", sweeps, "nb", errors)
    if dbsm is None:
        return errors, {}
    return errors, {"mean_dbsm": float(np.mean(dbsm)),
                    "std_dbsm": float(np.std(dbsm))}


def _check_image(out: Path, rows: int) -> tuple[list[str], dict]:
    errors: list[str] = []
    data = np.loadtxt(out / "image.csv", delimiter=",", skiprows=1, ndmin=2)
    n_az = np.unique(data[:, 0]).size
    if n_az != rows or data.shape[0] % rows:
        errors.append(f"image.csv: {n_az} azimuth rows over {data.shape[0]} "
                      f"cells, expected {rows} equal rows")
    # Three 1e-3 m^2 points make three peaks of about -30 dB, so the
    # sphere's peak is sought in the az 0 row, and the image maximum is
    # checked for level only.
    row = data[data[:, 0] == 0.0]
    if row.size == 0:
        errors.append("image.csv: no az 0 row")
        return errors, {}
    peak = row[int(np.argmax(row[:, 2]))]
    values = {"peak_az_deg": float(peak[0]), "peak_range_m": float(peak[1]),
              "peak_db": float(peak[2])}
    if not abs(peak[1] - 10.0) <= 0.01:
        errors.append(f"az 0 peak at {peak[1]} m, expected 10 m")
    for name, db in (("az 0 peak", peak[2]), ("image maximum", data[:, 2].max())):
        if not abs(db + 30.0) <= 0.2:
            errors.append(f"{name} {db} dB is not within 0.2 dB of -30")
    return errors, values


CHECKS = {"compare_modes": _check_compare, "rcs_sweep_series": _check_series,
          "scan_image": _check_image}


def check(workload: str, kind: str, out_dir: Path, rows: int,
          golden: bool) -> tuple[list[str], dict]:
    """Check one run's artifacts; returns (failure messages, key values).

    ``rows`` is the expected sweep count (scan rows for an image).  With
    ``golden`` set, the key values are also compared with GOLDEN.
    """
    try:
        errors, values = CHECKS[kind](Path(out_dir), rows)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    if golden:
        for key, want in GOLDEN[workload].items():
            got = values.get(key)
            if got is None or not math.isclose(got, want, rel_tol=GOLDEN_RTOL,
                                               abs_tol=1e-12):
                errors.append(f"{key} = {got!r}, recorded {want!r}")
    return errors, values
