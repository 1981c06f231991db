"""Byte identity of the benchmark workloads' artifacts.

Runs ``cli.main`` on each benchmark workload at two seeds and compares the
SHA-256 of every CSV it writes, and of its run manifest apart from
``timestamp`` and ``output.directory``, with recorded values.  A change
that must not move a single output byte keeps every digest; one that
means to must record new ones and say why.  Run as a script,

    PYTHONPATH=src python tests/test_workload_digests.py

it prints the ``DIGESTS`` table of the current code, for the workloads and
seeds the table lists, in its source form.

The digests hold for numpy 2.4.6 on x86-64; another numpy or processor
may round a last bit differently.
"""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

from pnradar.cli import main

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = {
    "sphere_compare": "scenarios/sphere_compare.yaml",
    "nb_dense_series": "bench/scenarios/nb_dense_series.yaml",
    "uwb_scan": "bench/scenarios/uwb_scan.yaml",
}

# (workload, seed) -> {file name: SHA-256}
DIGESTS = {
    ("sphere_compare", 2026): {
        "compare_nb.csv":
            "4361cdcb1b89b6be86fc925f48b2a857f523deb64edbac732015772add6d3386",
        "compare_summary.csv":
            "3e2594e2557910904528bdf41e761dd44919a2e1527d456bfbfbf99599fcf254",
        "compare_uwb.csv":
            "d24fd6f8532168c0911b672cc6e48fab849678e5319e4522e00d1e778bae82d3",
        "run_manifest.yaml":
            "3ce018e551f7099c7953623bd6944cfa1ce10cfa9278d2b3aecd42a28f1e0d58",
    },
    ("sphere_compare", 5150): {
        "compare_nb.csv":
            "ee32978935487b17bc71137f88c44d0beb5b4322edeb0f85e3e32149115933b3",
        "compare_summary.csv":
            "e4e38b7e6838a2294cf1d57a9d0d2705c091e2a32194a65905d40c2286ccef00",
        "compare_uwb.csv":
            "c66e54e1d8dbbb5e250ba0f71af5b5cacf4588e595ce84bf8e1b0f43de81fcf8",
        "run_manifest.yaml":
            "516050c6d4de2c84783bece3391414b9386dde71272e7de709ab7da456235e84",
    },
    ("nb_dense_series", 2026): {
        "series.csv":
            "a8c40d9fac7dff5cd97bca48939c66900bbb807460a27c256ff04c7f5047f6b0",
        "run_manifest.yaml":
            "8251c4ff2690d2ade915c4ec622bf9add905335d2915cac3340e428551d8e91d",
    },
    ("nb_dense_series", 5150): {
        # echo amplitudes formed by numpy's complex product rounded one
        # cell, sweep 290's sigma, to 0.026495906256 in its 12th digit;
        # written out in real arithmetic they give 0.0264959062559 again
        "series.csv":
            "260d1e9126b9f32cad21c7c3b4e921d9b1bd845013fc4c8aafe7e579b955fa61",
        "run_manifest.yaml":
            "2effdb503cc265705fd39caaa802918aa255bd65c7a775d7e90bc0983e104271",
    },
    ("uwb_scan", 2026): {
        "image.csv":
            "2bb210da247e25177d598000fbd8a735911ab293e6f18e3773c64c44c89fac92",
        "run_manifest.yaml":
            "4dbacf95dc85b27f0673ff5041935d087ba7ef06ed22916eeece9e2f3044f1ef",
    },
    ("uwb_scan", 5150): {
        # despreading through the code's autocorrelation rounds one cell,
        # line 236,355, in its 12th digit: -72.978605223 -> -72.9786052231
        "image.csv":
            "06176dfa1d1558cafcaa36d4316caa0ec626b13c05c4d938966fcc1c0470625a",
        "run_manifest.yaml":
            "45f337a226d42f8463e0b2dfedf3d12f8d7623d5683436ee0d525be44e28f471",
    },
}


def _manifest_digest(path: Path) -> str:
    manifest = yaml.safe_load(path.read_text())
    del manifest["timestamp"]
    del manifest["scenario"]["output"]["directory"]
    return hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def _run_digests(workload: str, seed: int, out: Path) -> dict[str, str]:
    """Run the workload at the seed into ``out``: the digest of each file
    it writes."""
    assert main([str(ROOT / WORKLOADS[workload]), "--seed", str(seed),
                 "--out", str(out), "--quiet"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.glob("*.csv")}
    got["run_manifest.yaml"] = _manifest_digest(out / "run_manifest.yaml")
    return got


@pytest.mark.parametrize("workload, seed", sorted(DIGESTS))
def test_workload_outputs_unchanged(tmp_path, workload, seed):
    got = _run_digests(workload, seed, tmp_path / "out")
    assert sorted(got) == sorted(DIGESTS[workload, seed]), \
        f"{workload} seed {seed}: files written"
    for name, digest in DIGESTS[workload, seed].items():
        assert got[name] == digest, f"{workload} seed {seed}: {name} changed"


if __name__ == "__main__":
    import tempfile

    print("DIGESTS = {")
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in DIGESTS:
            print(f'    ("{workload}", {seed}): {{')
            got = _run_digests(workload, seed, Path(tmp) / f"{workload}_{seed}")
            for name in sorted(got):
                print(f'        "{name}":\n            "{got[name]}",')
            print("    },")
    print("}")
