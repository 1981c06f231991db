"""The distribution of sphere_compare's summary over a fixed seed set.

``compare_modes`` runs sphere_compare at seeds 1-20.  Per chain, the mean
over seeds of its ``mean_dbsm`` and of its ``std_dbsm`` must lie within K
seed-to-seed standard errors of the recorded values, and the share of
seeds whose verdict is ``true`` must equal the recorded share, whose
seed-to-seed spread was zero.  A change that keeps every byte keeps the
recorded values exactly; one that redraws the noise (a new draw order,
say) moves them as a disjoint seed set does, and passes; one that changes
the model, such as a noise amplitude scaled by 1.2, fails.

Over seeds 1-60 in three disjoint sets of 20 (numpy 2.4.6, x86-64), a set
differed from seeds 1-20 by at most 3.3 standard errors (the uwb
std_dbsm), so K = 5.  With the noise amplitude scaled by 1.2 the uwb
std_dbsm rose by 9.0 standard errors.  The 20 runs take about 7 s.
"""

import math
from pathlib import Path

import numpy as np

from pnradar.cli import compare_modes
from pnradar.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 21)
K = 5.0

# chain -> statistic -> (mean over SEEDS, standard deviation over SEEDS);
# the verdict share is that of seeds whose uwb std_dbsm is the smaller
RECORDED = {
    "nb": {"mean_dbsm": (-22.874669636595, 0.18008904286504332),
           "std_dbsm": (1.1892693394490002, 0.18665288977863329)},
    "uwb": {"mean_dbsm": (-29.995563993485, 0.008798415267461567),
            "std_dbsm": (0.05470131432155499, 0.005453057119244861)},
}
VERDICT_SHARE = 1.0


def test_sphere_compare_summary_keeps_its_distribution():
    values = {chain: {"mean_dbsm": [], "std_dbsm": []} for chain in RECORDED}
    verdicts = []
    for seed in SEEDS:
        scenario = load_scenario(ROOT / "scenarios/sphere_compare.yaml",
                                 {"seed": seed})
        *_, (name, _, rows) = compare_modes(scenario)
        assert name == "compare_summary.csv"
        for chain, mean_dbsm, std_dbsm, verdict in rows:
            values[chain]["mean_dbsm"].append(float(mean_dbsm))
            values[chain]["std_dbsm"].append(float(std_dbsm))
        verdicts.append(verdict == "true")
    for chain, stats in RECORDED.items():
        for stat, (mean, sd) in stats.items():
            got = float(np.mean(values[chain][stat]))
            se = sd / math.sqrt(len(SEEDS))
            assert abs(got - mean) <= K * se, (
                f"{chain} {stat}: mean {got:.6g} over seeds "
                f"{SEEDS.start}-{SEEDS.stop - 1}, recorded {mean:.6g} "
                f"+- {K:g} x {se:.3g}")
    assert np.mean(verdicts) == VERDICT_SHARE
