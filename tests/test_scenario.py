"""Scenario loading, validation, CLI runs, artifact determinism, and the
manifest round trip."""

import codecs
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import pnradar
from pnradar import (Mode, NoDetections, SPEED_OF_LIGHT, ScanRows, cli,
                     gen_gold, gen_mseq, imaging, nb_params, uwb_params)
from pnradar.cli import _write_manifest, main, run, write_scan_csv
from pnradar.channel import Scatterer, Scene, TargetModel
from pnradar.imaging import Calibration, calibrate
from pnradar import scenario as scenario_module
from pnradar.scenario import (_F, _List, _SCHEMA, ExperimentKind,
                              _UniqueKeyLoader, _reader_mark,
                              ScenarioError, load_scenario,
                              read_calibration_csv, resolve_scenario,
                              waveform_fingerprint, write_calibration_csv)

MINIMAL = """
radar: {mode: uwb}
scene:
  target:
    points:
      - {sigma_m2: 1.0e-3, range_m: 10.0}
"""

SERIES = """
seed: 77
radar: {mode: uwb}
code: {family: msequence, taps: [5, 2, 0], chips_per_bit: 31}
scene:
  target:
    points:
      - {sigma_m2: 1.0e-3, range_m: 10.0}
  noise_psd_w_per_hz: 1.0e-19
experiment:
  kind: rcs_sweep_series
  sweeps: 4
"""


# direct-path leakage and a blanked receiver whose kept lags run to 14.75 m,
# near the far end of chip 0's PRI slot (14.79 m), gated where nothing
# scatters
LEAKY = """
seed: 1
radar: {mode: uwb}
code: {family: msequence, taps: [5, 2, 0], chips_per_bit: 31}
scene:
  target: {points: [{sigma_m2: 1.0e-3, range_m: 10.0}]}
  direct_path_gain: 0.5
receiver: {blank_width_s: 2.0e-9, max_range_m: 14.75, gate_min_m: 14.5, gate_max_m: 14.75}
experiment:
  kind: rcs_sweep_series
  sweeps: 2
  reference: {sigma_m2: 1.0e-3, range_m: 10.0}
"""


def _write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _minimal_with(settings, mode):
    """MINIMAL in radar mode ``mode``, with each dotted field path of
    ``settings`` set to its value."""
    data = yaml.safe_load(MINIMAL)
    data["radar"]["mode"] = mode
    for dotted, value in settings.items():
        *parents, leaf = dotted.split(".")
        node = data
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return yaml.safe_dump(data)


def _assert_rejected_before_synthesis(tmp_path, capsys, cases):
    """Each (message, text) case fails to load, exits 2 and writes nothing."""
    for i, (message, text) in enumerate(cases.items()):
        path = _write(tmp_path, text, f"case{i}.yaml")
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(path)
        out = tmp_path / f"out{i}"
        assert main([str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # rejected before any synthesis


ROOT = Path(__file__).resolve().parents[1]


def _run_child(script, *args, timeout=300):
    """Run a Python snippet in a fresh interpreter that imports pnradar
    from the tree under test, one BLAS thread so its address space stays
    small."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(pnradar.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


def _readme_example():
    """The annotated scenario under the README's "Scenario format"."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("### Scenario format"):]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def _assert_image_csv(path, azimuths, ranges, power):
    """write_scan_csv writes power's rows to path as image.csv lines whose
    every field is formatted by itself."""
    write_scan_csv(path, ScanRows(azimuths, ranges, rows=iter(power)))
    assert path.read_text().splitlines() == ["az_deg,range_m,power_db"] + [
        "%.12g,%.12g,%.12g" % (az, r, 10.0 * math.log10(max(p, 1e-30)))
        for az, row in zip(azimuths.tolist(), power.tolist())
        for r, p in zip(ranges.tolist(), row)]


SCAN_5_ROWS = """
seed: 2026
radar: {mode: uwb}
code: {family: msequence, taps: [5, 2, 0], chips_per_bit: 31}
scene:
  target:
    points:
      - {sigma_m2: 1.0e-3, range_m: 10.0, cross_range_m: 0.0}
      - {sigma_m2: 1.0e-3, range_m: 10.5, cross_range_m: 0.6}
      - {sigma_m2: 1.0e-3, range_m: 9.5, cross_range_m: -0.6}
      - {sigma_m2: 5.0e-4, range_m: 12.0, cross_range_m: 1.0}
  noise_psd_w_per_hz: 1.0e-20
  direct_path_gain: 0.5
  sweep_phase_jitter_rad: 0.3
receiver: {blank_width_s: 2.0e-9, max_range_m: 14.0}
experiment:
  kind: scan_image
  azimuth_step_deg: 0.5
  beamwidth_deg: 2.0
  azimuth_span_deg: 1.0
  reference: {sigma_m2: 1.0e-3, range_m: 10.0}
"""


def _hashes(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths if p.suffix == ".csv"}


class TestLoadScenario:
    def test_minimal_file_materializes_defaults(self, tmp_path):
        scenario = load_scenario(_write(tmp_path, MINIMAL))
        raw = scenario.raw
        assert raw["radar"]["nb"]["carrier_hz"] == 1.0e9
        assert raw["radar"]["nb"]["chip_rate_hz"] == 10.0e6
        assert raw["radar"]["uwb"]["monocycle_width_s"] == 0.33e-9
        assert raw["code"]["chips_per_bit"] == 127
        assert raw["scene"]["clutter"]["count"] == 0
        assert raw["receiver"]["uwb"]["max_range_m"] > 0
        assert raw["experiment"]["kind"] == "profile"
        assert scenario.mode is Mode.DS_UWB
        assert scenario.experiment is ExperimentKind.PROFILE

    def test_carrier_out_of_band_rejected(self, tmp_path):
        text = MINIMAL.replace(
            "radar: {mode: uwb}",
            "radar:\n  mode: nb\n  nb: {carrier_hz: 5.0e+9}")
        with pytest.raises(ScenarioError, match="carrier outside 300-3000 MHz"):
            load_scenario(_write(tmp_path, text))

    def test_pulse_width_vs_pri_names_both_fields(self, tmp_path):
        text = MINIMAL.replace(
            "radar: {mode: uwb}",
            "radar:\n  mode: nb\n  nb: {pulse_width_s: 1.0e-4, pri_s: 1.0e-4}")
        with pytest.raises(ScenarioError) as err:
            load_scenario(_write(tmp_path, text))
        assert "pulse_width_s" in str(err.value) and "pri_s" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="antenna_height: unknown key"):
            load_scenario(_write(tmp_path, MINIMAL + "\nantenna_height: 3\n"))

    def test_unknown_nested_key_rejected(self, tmp_path):
        text = MINIMAL.replace("radar: {mode: uwb}",
                               "radar: {mode: uwb, gain_db: 30}")
        with pytest.raises(ScenarioError, match="radar.gain_db"):
            load_scenario(_write(tmp_path, text))

    def test_parse_error_reports_line(self, tmp_path):
        path = _write(tmp_path, "radar: {mode: nb\nscene: oops")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    def test_missing_target_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="scene.target.points"):
            load_scenario(_write(tmp_path, "radar: {mode: uwb}\n"))

    def test_chips_per_bit_exceeding_code_rejected(self, tmp_path):
        text = MINIMAL + "code: {taps: [5, 2, 0], chips_per_bit: 127}\n"
        with pytest.raises(ScenarioError, match="chips_per_bit"):
            load_scenario(_write(tmp_path, text))

    def test_gate_fields_must_pair(self, tmp_path):
        text = MINIMAL + "receiver: {gate_min_m: 9.0}\n"
        with pytest.raises(ScenarioError, match="gate"):
            load_scenario(_write(tmp_path, text))

    @pytest.mark.parametrize("message, mode, receiver", [
        ("receiver.gate_min_m and receiver.gate_max_m must be set together",
         "nb", "{gate_min_m: 9.0}"),
        ("receiver.uwb.gate_min_m and receiver.uwb.gate_max_m must be set "
         "together", "uwb", "{uwb: {gate_min_m: 9.0}}"),
        ("receiver.nb: (gate_min_m, gate_max_m) must be (min, max) with "
         "0 <= min < max, got (9.0, 8.0)",
         "nb", "{nb: {gate_min_m: 9.0, gate_max_m: 8.0}}"),
    ], ids=["base", "uwb_unpaired", "nb_reversed"])
    def test_gate_rules_name_the_section_that_breaks_them(
            self, tmp_path, capsys, message, mode, receiver):
        text = MINIMAL.replace("{mode: uwb}", f"{{mode: {mode}}}")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            message: text + f"receiver: {receiver}\n"})

    @pytest.mark.parametrize("field, text", [
        ("scene.noise_psd_w_per_hz", "  noise_psd_w_per_hz: .nan\n"),
        ("scene.noise_psd_w_per_hz", "  noise_psd_w_per_hz: .inf\n"),
        ("scene.target.points[1].sigma_m2",
         "      - {sigma_m2: .inf, range_m: 12.0}\n"),
    ], ids=["nan_noise", "inf_noise", "inf_sigma"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, field, text):
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            f"{field}: must be finite": MINIMAL + text})

    def test_non_finite_calibration_file_rejected(self, tmp_path, capsys):
        # a file of the series' own waveform, so that only its values fail
        cal = tmp_path / "calibration.csv"
        waveform = waveform_fingerprint(uwb_params(), gen_mseq([5, 2, 0]))
        cal.write_text("gain,reference_sigma_m2,reference_range_m,"
                       + ",".join(waveform) + "\ninf,nan,-5,"
                       + ",".join(waveform.values()) + "\n")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            f"experiment.calibration_file: {cal}: calibration gain must be "
            "finite and positive": SERIES + f"  calibration_file: {cal}\n"})

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        # safe_load would keep the last value, so the run would drop the
        # first without a word
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "line 8, column 3: duplicate key 'noise_psd_w_per_hz'":
                MINIMAL + "  noise_psd_w_per_hz: 1.0e-19\n"
                          "  noise_psd_w_per_hz: 0.0\n",
            "line 2, column 20: duplicate key 'mode'":
                MINIMAL.replace("{mode: uwb}", "{mode: uwb, mode: nb}")})

    @pytest.mark.parametrize("bad, problem", [
        (b"\x01", "unacceptable character #x0001: control characters are "
                   "not allowed"),
        (b"\xff", "unacceptable character #x00ff: invalid leading UTF-8 "
                   "octet")], ids=["control", "not-utf8"])
    def test_reader_error_names_line_and_column(self, tmp_path, capsys, bad,
                                                problem):
        # the bad character follows two characters of two bytes each, so
        # a column counted in bytes would be two too far
        head = MINIMAL.encode() + b"output:\n"
        path = tmp_path / "scenario.yaml"
        path.write_bytes(head + b'  directory: "\xc3\xa9\xc3\xa9' + bad
                         + b'"\n')
        out = tmp_path / "out"
        assert main([str(path), "--out", str(out)]) == 2
        line = head.count(b"\n") + 1
        assert capsys.readouterr().err == (
            f"error: parse error at line {line}, column 17: {problem}\n")
        assert not out.exists()

    def test_merged_keys_may_be_overridden(self, tmp_path):
        text = MINIMAL.replace("- {sigma_m2", "- &p {sigma_m2") + \
            "      - {<<: *p, range_m: 12.0}\n"
        points = load_scenario(_write(tmp_path, text)).raw["scene"][
            "target"]["points"]
        assert [p["range_m"] for p in points] == [10.0, 12.0]

    def test_seed_must_fit_64_bits(self, tmp_path, capsys):
        # RNG streams key on the seed mod 2^64, so 2^64 would rerun seed 0
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            f"seed: must be <= {2 ** 64 - 1}, got {2 ** 64}":
                f"seed: {2 ** 64}\n" + MINIMAL})
        path = _write(tmp_path, MINIMAL)
        out = tmp_path / "flag"
        assert main([str(path), "--out", str(out), "--quiet",
                     "--seed", str(2 ** 64)]) == 2
        assert f"got {2 ** 64}" in capsys.readouterr().err
        assert not out.exists()
        assert load_scenario(path, {"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1
        assert main([str(path), "--out", str(out), "--quiet",
                     "--seed", str(2 ** 64 - 1)]) == 0

    def test_readme_example_resolves(self):
        scenario = resolve_scenario(yaml.safe_load(_readme_example()))
        assert scenario.experiment is ExperimentKind.RCS_SWEEP_SERIES
        assert scenario.rx_for(Mode.DS_UWB).gate_m == (9.5, 10.5)

    def test_interferer_validation(self, tmp_path):
        text = MINIMAL + (
            "scene2: {}\n")
        with pytest.raises(ScenarioError, match="unknown key"):
            load_scenario(_write(tmp_path, text))

    def test_sweep_series_needs_two_sweeps(self, tmp_path):
        text = SERIES.replace("sweeps: 4", "sweeps: 1")
        with pytest.raises(ScenarioError, match="sweeps"):
            load_scenario(_write(tmp_path, text))

    def test_string_exponent_floats_accepted(self, tmp_path):
        # YAML 1.1 reads 5.0e9 (no exponent sign) as a string
        text = MINIMAL.replace("1.0e-3", "1.0e-3").replace(
            "range_m: 10.0", "range_m: 1.0e1")
        scenario = load_scenario(_write(tmp_path, text))
        assert scenario.scene.target.points[0].range_m == 10.0

    def test_list_and_override_errors_name_the_field(self, tmp_path, capsys):
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "scene.target.points: target must contain at least one point":
                MINIMAL.replace("    points:\n      - {sigma_m2: 1.0e-3, "
                                "range_m: 10.0}\n", "    points: []\n"),
            "scene.interferers: expected a list":
                MINIMAL + "  interferers: {}\n",
            "receiver.uwb: expected a mapping": MINIMAL + "receiver: {uwb: 3}\n",
            "receiver.nb.foo: unknown key":
                MINIMAL + "receiver: {nb: {foo: 1}}\n",
        })

    def test_target_window_margin_is_an_unknown_key(self, tmp_path, capsys):
        # a sweep is estimated from its gated detections alone, so no
        # receiver section takes a margin around them
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            f"{where}.margin_bins: unknown key":
                _minimal_with({f"{where}.margin_bins": 2}, "uwb")
            for where in ("receiver", "receiver.nb", "receiver.uwb")})

    def test_threshold_db_is_an_unknown_key(self, tmp_path, capsys):
        # the detector derives its threshold from the bins it searches
        # (imaging.detection_factor), so no receiver section sets one
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            f"{where}.threshold_db: unknown key":
                _minimal_with({f"{where}.threshold_db": 10.0}, "uwb")
            for where in ("receiver", "receiver.nb", "receiver.uwb")})

    def test_receiver_override_keeps_the_other_base_keys(self, tmp_path):
        text = MINIMAL + ("receiver:\n  blank_width_s: 2.0e-9\n"
                          "  uwb: {max_range_m: 14.0}\n")
        scenario = load_scenario(_write(tmp_path, text))
        rx = scenario.rx_for(Mode.DS_UWB)
        assert (rx.blank_width_s, rx.max_range_m) == (2.0e-9, 14.0)
        assert scenario.raw["receiver"]["uwb"]["blank_width_s"] == 2.0e-9

    def test_schema_bounds_only_the_fields_no_model_owns(self):
        # any other field's value rule belongs to the model type it builds
        # or the library function that checks it
        no_owner = {"seed", "scene.clutter.seed", "experiment.sweeps",
                    "experiment.reference.sigma_m2",
                    "experiment.reference.range_m"}

        def bounded(schema, path):
            for key, spec in schema.items():
                where = f"{path}.{key}" if path else key
                if isinstance(spec, dict):
                    yield from bounded(spec, where)
                elif isinstance(spec, _List):
                    yield from bounded(spec.schema, f"{where}[]")
                elif spec.minimum is not None or spec.maximum is not None:
                    yield where

        found = set(bounded(_SCHEMA, ""))
        assert found == no_owner, sorted(found ^ no_owner)

    # One case per value rule the schema left to a model type or a library
    # check, each value just outside the rule, on a run that uses it: the
    # message starts with the path of the object the field builds, or of
    # the section it is checked under, and names the field.
    MODEL_RULES = [
        ("scene.target.points[0].sigma_m2",
         {"scene.target.points": [{"sigma_m2": -1e-12, "range_m": 10.0}]},
         "uwb", "scene.target.points[0]: sigma_m2 must be finite and >= 0, "
                "got -1e-12"),
        ("scene.target.points[0].range_m",
         {"scene.target.points": [{"sigma_m2": 1e-3, "range_m": 0.0}]},
         "uwb", "scene.target.points[0]: range_m must be > 0, got 0.0"),
        ("scene.interferers[0].power_w",
         {"scene.interferers": [{"freq_hz": 1e9, "power_w": -1e-12}]},
         "uwb", "scene.interferers[0]: power_w must be finite and >= 0, got "
                "-1e-12"),
        ("receiver.uwb.blank_width_s", {"receiver.uwb.blank_width_s": -1e-12},
         "uwb", "receiver.uwb: blank_width_s must be finite and >= 0, got "
                "-1e-12"),
        ("receiver.nb.max_range_m", {"receiver.nb.max_range_m": 0.0},
         "nb", "receiver.nb: max_range_m must be finite and > 0, got 0.0"),
        ("receiver.uwb.gate_min_m", {"receiver.uwb.gate_min_m": -1e-3,
                                     "receiver.uwb.gate_max_m": 10.5},
         "uwb", "receiver.uwb: (gate_min_m, gate_max_m) must be (min, max) "
                "with 0 <= min < max, got (-0.001, 10.5)"),
        ("receiver.uwb.gate_max_m", {"receiver.uwb.gate_min_m": 0.0,
                                     "receiver.uwb.gate_max_m": -1e-3},
         "uwb", "receiver.uwb: (gate_min_m, gate_max_m) must be (min, max) "
                "with 0 <= min < max, got (0.0, -0.001)"),
        # a value the shared section sets is checked there, once, even when
        # every chain the run uses sets its own
        ("receiver.max_range_m", {"receiver.max_range_m": 0.0,
                                  "receiver.uwb.max_range_m": 12.0},
         "uwb", "receiver: max_range_m must be finite and > 0, got 0.0"),
        ("receiver.gate_max_m", {"receiver.gate_min_m": 9.0,
                                 "receiver.gate_max_m": 8.0},
         "uwb", "receiver: (gate_min_m, gate_max_m) must be (min, max) "
                "with 0 <= min < max, got (9.0, 8.0)"),
        ("radar.nb.chip_rate_hz", {"radar.nb.chip_rate_hz": 0.0},
         "nb", "radar.nb: chip_rate_hz must be finite and > 0, got 0.0"),
        ("radar.nb.samples_per_chip", {"radar.nb.samples_per_chip": 1},
         "nb", "radar.nb: samples_per_chip must be >= 2, got 1"),
        ("radar.nb.pulse_width_s", {"radar.nb.pulse_width_s": 0.0},
         "nb", "radar.nb: pulse_width_s (0) must span at least one sample"),
        ("radar.nb.pri_s", {"radar.nb.pri_s": 0.0},
         "nb", "radar.nb: pulse_width_s (1e-05) must span at least one "
               "sample and fewer than pri_s (0)"),
        ("radar.uwb.monocycle_width_s", {"radar.uwb.monocycle_width_s": 0.0},
         "uwb", "radar.uwb: monocycle_width_s must be finite and > 0, got 0.0"),
        ("radar.uwb.pri_s", {"radar.uwb.pri_s": 0.0},
         "uwb", "radar.uwb: pri_s 0 is not longer than the truncated "
                "monocycle support"),
        ("radar.uwb.sample_rate_hz", {"radar.uwb.sample_rate_hz": 0.0},
         "uwb", "radar.uwb: sample_rate_hz must be finite and > 0, got 0.0"),
        ("code.gold_shift", {"code.family": "gold", "code.taps": [5, 2, 0],
                             "code.taps_b": [5, 4, 3, 2, 0],
                             "code.chips_per_bit": 31, "code.gold_shift": -1},
         "uwb", "code: gold_shift must lie in [0, 31), got -1"),
        ("code.seed_state", {"code.seed_state": 0},
         "uwb", "code: seed_state must be a nonzero 7-bit state, got 0"),
        ("code.taps", {"code.taps": [5, 2, 0, -1]},
         "uwb", "code: taps [5, 2, 0, -1] must be non-negative exponents"),
        # chips_per_bit lies in [1, code length], on every run
        ("code.chips_per_bit", {"code.chips_per_bit": 0,
                                "experiment.kind": "scan_image"},
         "uwb", "code: chips_per_bit must lie in [1, 127], got 0"),
        ("code.chips_per_bit", {"code.chips_per_bit": 128,
                                "experiment.kind": "scan_image"},
         "uwb", "code: chips_per_bit must lie in [1, 127], got 128"),
        ("scene.clutter.count", {"scene.clutter.count": -1},
         "uwb", "scene.clutter: count must be >= 0, got -1"),
        ("scene.clutter.range_min_m", {"scene.clutter.range_min_m": 0.0},
         "uwb", "scene.clutter: (range_min_m, range_max_m) must be (near, "
                "far) with 0 < near <= far, got (0.0, 8.0)"),
        ("scene.clutter.range_max_m", {"scene.clutter.range_max_m": 0.0},
         "uwb", "scene.clutter: (range_min_m, range_max_m) must be (near, "
                "far) with 0 < near <= far, got (2.0, 0.0)"),
        ("scene.clutter.mean_sigma_m2",
         {"scene.clutter.mean_sigma_m2": -1e-12},
         "uwb", "scene.clutter: mean_sigma_m2 must be finite and >= 0, got "
                "-1e-12"),
        ("scene.noise_psd_w_per_hz", {"scene.noise_psd_w_per_hz": -1e-30},
         "uwb", "scene: noise_psd_w_per_hz must be >= 0, got -1e-30"),
        ("scene.direct_path_gain", {"scene.direct_path_gain": -1e-12},
         "uwb", "scene: direct_path_gain must be >= 0, got -1e-12"),
        ("scene.sweep_phase_jitter_rad",
         {"scene.sweep_phase_jitter_rad": -1e-12},
         "uwb", "scene: sweep_phase_jitter_rad must be >= 0, got -1e-12"),
        # the scan geometry, on scan_image runs only
        ("experiment.azimuth_step_deg",
         {"experiment.kind": "scan_image", "experiment.azimuth_step_deg": 0.0},
         "uwb", "experiment: azimuth_step_deg must be finite and > 0, got 0.0"),
        ("experiment.beamwidth_deg",
         {"experiment.kind": "scan_image", "experiment.beamwidth_deg": 0.0},
         "uwb", "experiment: beamwidth_deg must be finite and > 0, got 0.0"),
        ("experiment.azimuth_step_deg",
         {"experiment.kind": "scan_image", "experiment.azimuth_step_deg": 3.0},
         "uwb", "experiment: azimuth_step_deg (3) must not exceed "
                "beamwidth_deg (2)"),
        ("experiment.azimuth_span_deg",
         {"experiment.kind": "scan_image",
          "experiment.azimuth_span_deg": -1e-12},
         "uwb", "experiment: azimuth_span_deg must be finite and > 0, got "
                "-1e-12"),
    ]

    @pytest.mark.parametrize("field, settings, mode, message", MODEL_RULES,
                             ids=[case[0] for case in MODEL_RULES])
    def test_model_rules_exit_two(self, tmp_path, capsys, field, settings,
                                  mode, message):
        # the message's path is the field's or a section above it, and the
        # rule names the field the file sets
        head, rule = message.split(": ", 1)
        assert field == head or field.startswith((head + ".", head + "["))
        assert field.rsplit(".", 1)[-1] in rule
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            message: _minimal_with(settings, mode)})

    def test_unused_chain_is_checked_by_type_only(self, tmp_path, capsys):
        # a uwb profile builds neither the nb radar nor the nb receiver
        text = _minimal_with({"radar.nb.chip_rate_hz": 0.0,
                              "receiver.nb.max_range_m": -1.0}, "uwb")
        path = _write(tmp_path, text)
        assert main([str(path), "--out", str(tmp_path / "uwb"),
                     "--quiet"]) == 0
        nb_out = tmp_path / "nb"
        assert main([str(path), "--out", str(nb_out), "--mode", "nb"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: radar.nb: chip_rate_hz must be finite and > 0")
        assert not nb_out.exists()
        # a value of the wrong type is rejected in any section
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "receiver.nb.max_range_m: expected a number, got 'x'":
                _minimal_with({"receiver.nb.max_range_m": "x"}, "uwb")})


class TestRunExperiments:
    def test_profile_run_writes_artifacts(self, tmp_path):
        text = MINIMAL + f"output: {{directory: {tmp_path / 'out'}}}\n"
        scenario = load_scenario(_write(tmp_path, text))
        written = run(scenario, quiet=True)
        names = {p.name for p in written}
        assert names == {"profile.csv", "run_manifest.yaml"}
        lines = (tmp_path / "out" / "profile.csv").read_text().splitlines()
        assert lines[0] == "range_m,power_linear,power_db"
        assert len(lines) > 10

    def test_series_run_row_count(self, tmp_path):
        text = SERIES + f"output: {{directory: {tmp_path / 'out'}}}\n"
        scenario = load_scenario(_write(tmp_path, text))
        run(scenario, quiet=True)
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert lines[0] == "sweep,mode,sigma_m2,dbsm"
        assert len(lines) == 1 + 4

    def test_byte_identical_reruns(self, tmp_path):
        text = SERIES + f"output: {{directory: {tmp_path / 'out1'}}}\n"
        scenario = load_scenario(_write(tmp_path, text))
        h1 = _hashes(run(scenario, quiet=True))
        text2 = SERIES + f"output: {{directory: {tmp_path / 'out2'}}}\n"
        scenario2 = load_scenario(_write(tmp_path, text2, "s2.yaml"))
        h2 = _hashes(run(scenario2, quiet=True))
        assert h1 == h2

    def test_manifest_round_trip(self, tmp_path):
        text = SERIES + f"output: {{directory: {tmp_path / 'out1'}}}\n"
        scenario = load_scenario(_write(tmp_path, text))
        h1 = _hashes(run(scenario, quiet=True))
        manifest = tmp_path / "out1" / "run_manifest.yaml"
        replay = load_scenario(manifest)
        replay.raw["output"]["directory"] = str(tmp_path / "out2")
        replay2 = resolve_scenario(replay.raw)
        h2 = _hashes(run(replay2, quiet=True))
        assert h1 == h2

    def test_scan_span_settled_at_load_replays_from_the_manifest(
            self, tmp_path):
        # a null span becomes the widest point's azimuth plus 3 beamwidths
        # when the scenario loads, and the manifest records that number
        text = (SCAN_5_ROWS.replace("azimuth_step_deg: 0.5",
                                    "azimuth_step_deg: 1.0")
                .replace("beamwidth_deg: 2.0", "beamwidth_deg: 1.0")
                .replace("azimuth_span_deg: 1.0", "azimuth_span_deg: null"))
        widest = Scatterer(sigma_m2=5e-4, range_m=12.0, cross_range_m=1.0)
        span = math.degrees(widest.azimuth_rad) + 3.0
        assert load_scenario(_write(tmp_path, text)).scan == (1.0, 1.0, span)
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert main([str(tmp_path / "scenario.yaml"), "--out", str(out1),
                     "--quiet"]) == 0
        manifest = out1 / "run_manifest.yaml"
        recorded = yaml.safe_load(manifest.read_text())["scenario"]
        assert recorded["experiment"]["azimuth_span_deg"] == span
        assert main([str(manifest), "--out", str(out2), "--quiet"]) == 0
        image = (out1 / "image.csv").read_bytes()
        # 2 * ceil(7.78) + 1 azimuth rows, a degree apart
        assert {line.split(b",")[0] for line in image.splitlines()[1:]} \
            == {b"%d" % az for az in range(-8, 9)}
        assert (out2 / "image.csv").read_bytes() == image

    @pytest.mark.parametrize(
        "path", sorted(ROOT.glob("scenarios/*.yaml"))
        + sorted(ROOT.glob("bench/scenarios/*.yaml")), ids=lambda p: p.name)
    def test_bundled_scenario_manifest_replays_to_raw(self, path, tmp_path):
        # per-mode receiver overrides and interferers included
        scenario = load_scenario(path)
        manifest = tmp_path / "run_manifest.yaml"
        _write_manifest(manifest, scenario)
        assert load_scenario(manifest).raw == scenario.raw

    def test_calibrate_then_consume_calibration_file(self, tmp_path):
        # calibration is waveform-specific: use the same code as the series
        cal_text = MINIMAL + (
            "code: {family: msequence, taps: [5, 2, 0], chips_per_bit: 31}\n"
            "experiment: {kind: calibrate}\n"
            f"output: {{directory: {tmp_path / 'cal'}}}\n")
        run(load_scenario(_write(tmp_path, cal_text, "cal.yaml")), quiet=True)
        cal_file = tmp_path / "cal" / "calibration.csv"
        cal = read_calibration_csv(cal_file, uwb_params(), gen_mseq([5, 2, 0]))
        assert cal.reference_sigma_m2 == pytest.approx(1e-3)
        series_text = SERIES + (
            f"output: {{directory: {tmp_path / 'out'}}}\n")
        scenario = load_scenario(_write(tmp_path, series_text, "series.yaml"))
        scenario.raw["experiment"]["calibration_file"] = str(cal_file)
        scenario = resolve_scenario(scenario.raw)
        run(scenario, quiet=True)
        rows = (tmp_path / "out" / "series.csv").read_text().splitlines()[1:]
        dbsm = [float(r.split(",")[3]) for r in rows]
        assert all(abs(v + 30.0) < 1.0 for v in dbsm)

    def test_calibration_file_reads_back_equal(self, tmp_path):
        # each value to 12 significant digits, as every CSV cell is written,
        # after the fingerprint of the waveform it calibrates
        params, pn = nb_params(), gen_mseq([5, 2, 0])
        waveform = waveform_fingerprint(params, pn)
        path = tmp_path / "calibration.csv"
        cal = Calibration(gain=3.0517578125e-05, reference_sigma_m2=1e-3,
                          reference_range_m=10.0)
        write_calibration_csv(path, (cal, waveform))
        assert path.read_bytes() == (
            b"gain,reference_sigma_m2,reference_range_m,mode,code_kind,"
            b"code_generator,sample_rate_hz,pri_samples,pulse_samples,"
            b"carrier_hz,chip_rate_hz,samples_per_chip,pulse_width_s,"
            b"monocycle_width_s\n"
            b"3.0517578125e-05,0.001,10,nb,msequence,taps=[5 2 0];seed=1,"
            b"80000000,8000,800,1000000000,10000000,8,1e-05,\n")
        assert read_calibration_csv(path, params, pn) == cal
        drawn = Calibration(gain=1 / 3, reference_sigma_m2=2 / 3,
                            reference_range_m=10 / 3)
        write_calibration_csv(path, (drawn, waveform))
        assert read_calibration_csv(path, params, pn) == Calibration(
            *(float("%.12g" % v) for v in (1 / 3, 2 / 3, 10 / 3)))
        # a row of the wrong width is not a calibration
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n1,2\n")
        with pytest.raises(ScenarioError,
                           match="calibration_file: .*: not a "
                                 "calibration file"):
            read_calibration_csv(path, params, pn)

    @pytest.mark.parametrize("params, pn", [
        (nb_params(), gen_mseq([5, 2, 0])),
        (uwb_params(), gen_gold([5, 2, 0], [5, 4, 3, 2, 0], 3))],
        ids=["nb", "uwb"])
    def test_calibration_file_names_every_waveform_field(self, params, pn):
        # the fingerprint tells apart any two chains that differ in a field
        # of the waveform, and an empty cell stands for a field the chain
        # does not have
        waveform = waveform_fingerprint(params, pn)
        assert list(waveform)[:3] == ["mode", "code_kind", "code_generator"]
        assert all("," not in cell for cell in waveform.values())
        nb = params.mode is Mode.NB_DSSS
        assert (waveform["samples_per_chip"] == "") is not nb
        assert (waveform["monocycle_width_s"] == "") is nb
        others = ([nb_params(samples_per_chip=4), nb_params(carrier_hz=2e9),
                   nb_params(pulse_width_s=12e-6), nb_params(pri_s=90e-6)]
                  if nb else
                  [uwb_params(monocycle_width_s=0.4e-9),
                   uwb_params(sample_rate_hz=50e9), uwb_params(pri_s=90e-9)])
        for other in others:
            assert waveform_fingerprint(other, pn) != waveform
        for code in (gen_mseq([5, 2, 0], 2), gen_mseq([5, 4, 3, 2, 0]),
                     gen_gold([5, 2, 0], [5, 4, 3, 2, 0], 4)):
            assert waveform_fingerprint(params, code) != waveform

    def test_calibration_file_of_another_waveform_exits_two(self, tmp_path,
                                                             capsys):
        # an nb calibration of a sphere once fed a uwb series, which read
        # -25.1 dBsm for the -30 dBsm sphere and exited 0
        cal_text = """
seed: 7
radar: {mode: nb}
code: {family: msequence, taps: [5, 2, 0]}
scene:
  target:
    points:
      - {sigma_m2: 1.0e-3, range_m: 10.0}
experiment: {kind: calibrate}
"""
        cal_path = _write(tmp_path, cal_text, "cal.yaml")
        assert main([str(cal_path), "--out", str(tmp_path / "cal"),
                     "--quiet"]) == 0
        cal_file = tmp_path / "cal" / "calibration.csv"
        series = SERIES.replace("seed: 77", "seed: 7").replace(
            "sweeps: 4", f"sweeps: 3\n  calibration_file: {cal_file}") + (
            "receiver: {gate_min_m: 9.5, gate_max_m: 10.5, "
            "max_range_m: 14.0}\n")
        where = f"experiment.calibration_file: {cal_file}: "
        old_file = tmp_path / "old.csv"
        old_file.write_text("gain,reference_sigma_m2,reference_range_m\n"
                            "2.02832305723e-06,0.001,10\n")
        nb_series = series.replace("{mode: uwb}", "{mode: nb}").replace(
            "gate_min_m: 9.5, gate_max_m: 10.5, max_range_m: 14.0",
            "gate_min_m: 5.0, gate_max_m: 15.0, max_range_m: 100.0")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            where + "made on another waveform than the uwb chain this run "
            "uses: mode nb in the file, uwb here": series,
            where + "made on another waveform than the nb chain this run "
            "uses: code_generator taps=[5 2 0];seed=1 in the file, "
            "taps=[5 2 0];seed=3 here": nb_series.replace(
                "taps: [5, 2, 0]", "taps: [5, 2, 0], seed_state: 3"),
            # the same sample grid, chips twice as short
            where + "made on another waveform than the nb chain this run "
            "uses: chip_rate_hz 10000000 in the file, 20000000 here; "
            "samples_per_chip 8 in the file, 4 here": nb_series.replace(
                "{mode: nb}", "{mode: nb, nb: {chip_rate_hz: 2.0e+7, "
                "samples_per_chip: 4}}"),
            # a file written before the fingerprint cannot be checked
            f"experiment.calibration_file: {old_file}: the file records no "
            "waveform fingerprint, so it cannot be checked against the nb "
            "chain this run uses": nb_series.replace(str(cal_file),
                                                     str(old_file))})
        # the chain that made the file reads it, at any chips_per_bit
        out = tmp_path / "nb_out"
        nb_path = _write(tmp_path, nb_series.replace(
            "chips_per_bit: 31", "chips_per_bit: 5"), "nb_series.yaml")
        assert main([str(nb_path), "--out", str(out), "--quiet"]) == 0
        rows = (out / "series.csv").read_text().splitlines()[1:]
        assert all(abs(float(r.split(",")[3]) + 30.0) < 0.01 for r in rows)

    def test_polarimetric_run(self, tmp_path):
        text = MINIMAL + (
            "experiment: {kind: polarimetric}\n"
            f"output: {{directory: {tmp_path / 'out'}}}\n")
        run(load_scenario(_write(tmp_path, text)), quiet=True)
        for pol in ("vv", "hh", "vh", "hv"):
            assert (tmp_path / "out" / f"profile_{pol}.csv").exists()

    def test_failed_run_removes_partial_outputs(self, tmp_path):
        # gate excludes the only scatterer: the series run raises and cleans up
        text = SERIES + (
            "receiver: {gate_min_m: 1.0, gate_max_m: 2.0}\n"
            f"output: {{directory: {tmp_path / 'out'}}}\n")
        scenario = load_scenario(_write(tmp_path, text))
        with pytest.raises(Exception):
            run(scenario, quiet=True)
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_failed_chain_removes_the_chain_run_before_it(self, tmp_path):
        # the nb series is written, then the uwb gate holds nothing
        text = SERIES.replace("rcs_sweep_series", "compare_modes") + (
            "receiver: {uwb: {gate_min_m: 1.0, gate_max_m: 2.0}}\n"
            f"output: {{directory: {tmp_path / 'out'}}}\n")
        scenario = load_scenario(_write(tmp_path, text))
        with pytest.raises(NoDetections, match="uwb sweep"):
            run(scenario, quiet=True)
        assert not list((tmp_path / "out").iterdir())


class TestCompareModes:
    def test_clean_sphere_modes_agree(self, tmp_path):
        text = """
seed: 5
radar: {mode: nb}
code: {taps: [5, 2, 0], chips_per_bit: 31}
scene:
  target:
    points:
      - {sigma_m2: 1.0e-3, range_m: 10.0}
experiment: {kind: compare_modes, sweeps: 3}
"""
        text += f"output: {{directory: {tmp_path / 'out'}}}\n"
        run(load_scenario(_write(tmp_path, text)), quiet=True)
        rows = (tmp_path / "out" / "compare_summary.csv").read_text().splitlines()
        assert rows[0] == "mode,mean_dbsm,std_dbsm,uwb_std_lt_nb_std"
        means = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
        assert abs(means["nb"] - means["uwb"]) < 0.5

    def test_single_sweep_leaves_std_empty(self, tmp_path):
        text = """
radar: {mode: nb}
code: {taps: [5, 2, 0], chips_per_bit: 31}
scene:
  target:
    points:
      - {sigma_m2: 1.0e-3, range_m: 10.0}
experiment: {kind: compare_modes, sweeps: 1}
"""
        text += f"output: {{directory: {tmp_path / 'out'}}}\n"
        run(load_scenario(_write(tmp_path, text)), quiet=True)
        rows = (tmp_path / "out" / "compare_summary.csv").read_text().splitlines()
        for row in rows[1:]:
            assert row.split(",")[2] == ""

    def test_self_calibration_is_the_run_pipelines_reference_profile(
            self, tmp_path):
        # the cli calibrates each chain on the calibrate() of its run
        # pipeline's noiseless reference-sphere profile, bit for bit, with
        # the chain's own receiver settings
        text = MINIMAL + (
            "  noise_psd_w_per_hz: 1.0e-19\n"
            "receiver: {max_range_m: 12.0, nb: {max_range_m: 60.0},\n"
            "           uwb: {blank_width_s: 2.0e-9}}\n"
            "experiment: {kind: compare_modes, sweeps: 2}\n")
        scenario = load_scenario(_write(tmp_path, text))
        reference = Scene(target=TargetModel(points=(
            Scatterer(sigma_m2=1e-3, range_m=10.0),)))
        for mode, pipeline in scenario.pipelines.items():
            expected = calibrate(pipeline.profile(reference),
                                 *scenario.reference)
            got = cli._calibration_for(scenario, pipeline)
            assert vars(got) == vars(expected), mode
        assert [p.rx_config.max_range_m
                for p in scenario.pipelines.values()] == [60.0, 12.0]

    @pytest.mark.parametrize("jitter, verdict", [(0.0, "false"),
                                                  (0.3, "true")])
    def test_verdict_needs_phase_jitter(self, tmp_path, jitter, verdict):
        # sphere_compare's scene at 5 sweeps: without jitter the nb series
        # is steadier than the noise-limited uwb series (std about 3e-5
        # against 0.04 dB at seed 2026); at 0.3 rad the nb std is about 0.9
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / \
            "sphere_compare.yaml"
        run(load_scenario(scenario, {
            "experiment.sweeps": 5, "scene.sweep_phase_jitter_rad": jitter,
            "output.directory": str(tmp_path)}), quiet=True)
        rows = (tmp_path / "compare_summary.csv").read_text().splitlines()
        assert [r.split(",")[3] for r in rows[1:]] == [verdict, verdict]

    def test_sphere_compare_golden_summary(self, tmp_path):
        # the worked comparison from the README, pinned to 1e-9 relative
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / \
            "sphere_compare.yaml"
        rc = main([str(scenario), "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        rows = (tmp_path / "compare_summary.csv").read_text().splitlines()
        assert rows[0] == "mode,mean_dbsm,std_dbsm,uwb_std_lt_nb_std"
        summary = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
        golden = {"nb": (-22.70801851, 1.3417769744),
                  "uwb": (-30.004299561, 0.0454228549578)}
        for mode, (mean, std) in golden.items():
            assert float(summary[mode][0]) == pytest.approx(mean, rel=1e-9)
            assert float(summary[mode][1]) == pytest.approx(std, rel=1e-9)
            assert summary[mode][2] == "true"


class TestDenseSeries:
    # the benchmark's dense narrowband series (401 points on 5 sample
    # delays), cut to 40 sweeps; values recorded before echoes were summed
    # per delay, pinned to 1e-9 relative
    GOLDEN_DBSM = [
        -19.7994082455, -16.7758080937, -18.4436422682, -16.4678536646,
        -16.3932108936, -18.2395038869, -15.948468342, -17.1018555867,
        -16.5342731882, -17.0385937545, -16.6783560446, -15.0611436908,
        -15.7400051789, -16.1243439874, -16.245851685, -15.1495226756,
        -14.2193861262, -14.9589562977, -18.422135139, -16.7204976547,
        -14.6425154291, -19.1365621183, -14.3502209891, -15.2175651399,
        -14.7968084563, -18.5720226733, -16.3668940116, -18.182435667,
        -15.834087233, -15.4122316583, -15.5953818788, -21.3730795423,
        -15.339510804, -14.9920186784, -16.1275140121, -16.858493235,
        -16.0719456743, -15.4713071028, -16.0413657266, -18.5373473508]

    def test_nb_dense_series_golden(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "bench" / "scenarios" / \
            "nb_dense_series.yaml"
        scenario = load_scenario(path, {"experiment.sweeps": 40,
                                        "output.directory": str(tmp_path)})
        run(scenario, quiet=True)
        rows = (tmp_path / "series.csv").read_text().splitlines()[1:]
        dbsm = [float(r.split(",")[3]) for r in rows]
        assert dbsm == pytest.approx(self.GOLDEN_DBSM, rel=1e-9)


# simulate with a fault in the forked worker's blocks of the noisy series
# (the calibration's reference sphere is noiseless), named by argv[1]; it
# exits 4 if a worker process is left
WORKER_FAULT = """
import os, sys
from pnradar import imaging
from pnradar.cli import main

class Unloadable(Exception):
    # pickled as its class and one message, but its constructor takes two
    def __init__(self, first, second):
        super().__init__(f"{first} {second}")

despread_windows = imaging.despread_windows
caller = os.getpid()

def failing(tx, scene, params, pol, sweeps, window):
    if scene.noise_psd and os.getpid() != caller:
        if sys.argv[1] == "exit":
            os._exit(1)
        raise Unloadable("no", "way")
    return despread_windows(tx, scene, params, pol, sweeps, window)

imaging.despread_windows = failing
imaging._usable_cpus = lambda: 2
rc = main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    sys.exit(4)
except ChildProcessError:
    sys.exit(rc)
"""


class TestCliEntry:
    def test_exit_zero_on_success(self, tmp_path, capsys):
        path = _write(tmp_path, MINIMAL)
        rc = main([str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        assert (tmp_path / "out" / "profile.csv").exists()

    def test_without_quiet_prints_each_artifact(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([str(_write(tmp_path, MINIMAL)), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in ("profile.csv",
                                               "run_manifest.yaml")]

    def test_chips_per_bit_defaults_to_the_code_length(self, tmp_path,
                                                       capsys):
        # a 31-chip code that leaves chips_per_bit out runs, and the
        # manifest records the length it used
        text = MINIMAL + ("code: {taps: [5, 2, 0]}\n"
                          "receiver: {max_range_m: 14.0}\n"
                          "experiment: {kind: profile}\n")
        out = tmp_path / "out"
        rc = main([str(_write(tmp_path, text)), "--out", str(out), "--quiet"])
        assert (rc, capsys.readouterr().err) == (0, "")
        manifest = yaml.safe_load((out / "run_manifest.yaml").read_text())
        assert manifest["scenario"]["code"]["chips_per_bit"] == 31

    def test_exit_two_on_validation_failure(self, tmp_path, capsys):
        cases = {
            "unknown key": MINIMAL + "volume: 11\n",
            "radar.uwb: sample_rate_hz 1e+10 undersamples": MINIMAL.replace(
                "radar: {mode: uwb}",
                "radar: {mode: uwb, uwb: {sample_rate_hz: 1.0e+10}}"),
            "radar.uwb: pri_s 1e-09 is not longer than the truncated "
            "monocycle support": MINIMAL.replace(
                "radar: {mode: uwb}", "radar: {mode: uwb, uwb: {pri_s: 1.0e-9}}"),
            # the pulse rules compare samples: 800 of 800 fills the slot
            "radar.nb: pulse_width_s (1e-05) must span at least one sample "
            "and fewer than pri_s (1e-05): 800 pulse samples, 800 per PRI":
                MINIMAL.replace("{mode: uwb}", "{mode: nb, nb: {pulse_width_s: "
                                "1.0e-5, pri_s: 1.000001e-5}}"),
            # under half a sample each; the point lies within c*PRI/2
            "radar.nb: pulse_width_s (1e-09) must span at least one sample "
            "and fewer than pri_s (5e-09): 0 pulse samples, 0 per PRI":
                MINIMAL.replace("{mode: uwb}", "{mode: nb, nb: {pri_s: 5.0e-9, "
                                "pulse_width_s: 1.0e-9}}").replace(
                    "range_m: 10.0", "range_m: 0.5"),
        }
        _assert_rejected_before_synthesis(tmp_path, capsys, cases)

    def test_exit_three_on_model_error(self, tmp_path, capsys):
        # nothing scatters in the gate, so its noise is no cross section:
        # the message names the chain and the first sweep that failed
        text = SERIES + "receiver: {gate_min_m: 1.0, gate_max_m: 2.0}\n"
        path = _write(tmp_path, text)
        rc = main([str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error [rcs_sweep_series]: uwb sweep 0: no scatterer detected "
            "in gate [1, 2] m\n")
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("radar", [
        "{mode: uwb}",
        # 10,000.5 samples per PRI
        "{mode: uwb, uwb: {pri_s: 1.00005e-7}}"])
    def test_blanked_leakage_is_not_a_target(self, tmp_path, capsys, radar):
        # the gate holds nothing, so leakage that passed the blank would be
        # reported there as a cross section
        path = _write(tmp_path, LEAKY.replace("{mode: uwb}", radar))
        rc = main([str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error [rcs_sweep_series]: uwb sweep 0: no scatterer detected "
            "in gate [14.5, 14.75] m\n")
        assert not (tmp_path / "out" / "series.csv").exists()

    @pytest.mark.parametrize("radar", [
        "{mode: nb}",
        "{mode: uwb}",
        # 10,000.5 samples per PRI
        "{mode: uwb, uwb: {pri_s: 1.00005e-7}}"])
    def test_window_past_its_pri_slot_exits_two(self, tmp_path, capsys,
                                                radar):
        # the correlator reads one pulse past the last kept lag, so that
        # lag may be pri_samples - pulse_samples, where the window ends
        # with chip 0's slot; one lag more exits 2, as LEAKY does at 14.95 m
        text = MINIMAL.replace("{mode: uwb}", radar) \
            + "experiment: {kind: profile}\n"
        scenario = load_scenario(_write(tmp_path, text, "probe.yaml"))
        params, chain = scenario.params_for(scenario.mode), scenario.mode
        last = params.pri_samples - params.pulse_samples
        fs = params.sample_rate_hz
        at, past = (SPEED_OF_LIGHT * (lag * (1.0 / fs)) / 2.0
                    for lag in (last, last + 1))
        pipeline = load_scenario(_write(
            tmp_path, text + f"receiver: {{max_range_m: {at!r}}}\n",
            "limit.yaml")).pipelines[chain]
        assert (pipeline.lags.stop - 1, pipeline.window.stop) == \
            (last, params.pri_samples)
        where = f"receiver.max_range_m ({chain.value} chain): "
        cases = {
            f"{where}{past:g} m reads past the {params.pri_samples}-sample "
            f"PRI slot; the kept lags must end by lag {last}, {at:.7g} m":
                text + f"receiver: {{max_range_m: {past!r}}}\n"}
        if chain is Mode.DS_UWB:
            cases[f"{where}14.95 m reads past"] = LEAKY.replace(
                "{mode: uwb}", radar).replace("14.75", "14.95")
        _assert_rejected_before_synthesis(tmp_path, capsys, cases)

    def test_blank_shorter_than_the_monocycle_exits_two(self, tmp_path,
                                                        capsys):
        # the monocycle spans 133 samples, one more than pulse_width_s * fs
        text = LEAKY.replace(
            "blank_width_s: 2.0e-9, max_range_m: 14.75, gate_min_m: 14.5, "
            "gate_max_m: 14.75", "blank_width_s: 1.32e-9, max_range_m: 14.0, "
            "gate_min_m: 0.15, gate_max_m: 1.0")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "receiver.blank_width_s (uwb chain): blank width 1.32e-09 s is "
            "shorter than the transmit pulse 1.33e-09 s": text})

    def test_nb_pri_of_a_fractional_sample_count_runs(self, tmp_path):
        # 8,000.04 samples per PRI: the pulse and the stream cover 8,000
        text = MINIMAL.replace("{mode: uwb}",
                               "{mode: nb, nb: {pri_s: 1.000005e-4}}")
        path = _write(tmp_path, text)
        rc = main([str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        assert (tmp_path / "out" / "profile.csv").exists()

    def test_memory_error_in_a_pool_worker_exits_three(self, tmp_path,
                                                        capsys, monkeypatch):
        despread_windows = imaging.despread_windows
        caller = os.getpid()

        def failing(tx, scene, params, pol, sweeps, window):
            # the series' UWB sweeps (the noisy scene; the calibration's
            # reference sphere is noiseless) run as blocks of one in the
            # calling process and one forked worker; the worker's first
            # block fails, and the calling process raises it when it reads
            # it, after its own first block
            if scene.noise_psd and os.getpid() != caller:
                raise MemoryError
            return despread_windows(tx, scene, params, pol, sweeps, window)

        monkeypatch.setattr(imaging, "despread_windows", failing)
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: 2)
        path = _write(tmp_path, SERIES)
        rc = main([str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error [rcs_sweep_series]: out of memory: "
                              "a uwb block holds 1 sweep of ")
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("fault", ["exit", "unloadable"])
    def test_a_worker_fault_exits_three(self, fault, tmp_path):
        # the worker's first block, sweep 1 of the series, dies without a
        # result or raises an exception that pickles but does not unpickle;
        # simulate runs in its own interpreter, so a hang times out
        path = _write(tmp_path, SERIES)
        proc = _run_child(WORKER_FAULT, fault, path, "--out",
                          tmp_path / "out", "--quiet", timeout=60)
        assert proc.returncode == 3
        cause = {"exit": "EOFError: Ran out of input",
                 "unloadable": "TypeError: "}[fault]
        assert proc.stderr.startswith(
            "error [rcs_sweep_series]: the worker process running sweeps "
            f"1-1 gave no readable result ({cause}")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_exit_three_on_unwritable_out(self, tmp_path, capsys):
        path = _write(tmp_path, MINIMAL)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        rc = main([str(path), "--out", str(blocker / "sub"), "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error [profile]: ")
        assert "Traceback" not in err

    def test_mode_and_experiment_overrides(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        rc = main([str(path), "--out", str(tmp_path / "out"), "--quiet",
                   "--mode", "nb", "--experiment", "profile", "--seed", "9"])
        assert rc == 0
        manifest = yaml.safe_load(
            (tmp_path / "out" / "run_manifest.yaml").read_text())
        assert manifest["scenario"]["radar"]["mode"] == "nb"
        assert manifest["seed"] == 9
        assert "tool_version" in manifest

    def test_missing_file_reports_validation_error(self, tmp_path):
        assert main([str(tmp_path / "nope.yaml")]) == 2

    def test_directory_as_scenario_exits_two(self, tmp_path, capsys):
        with pytest.raises(ScenarioError, match=re.escape(str(tmp_path))):
            load_scenario(tmp_path)
        assert main([str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_seed_flag_redraws_default_clutter(self, tmp_path):
        path = _write(tmp_path, "seed: 5\n" + MINIMAL + "  clutter: {count: 5}\n")
        profiles = []
        for seed in ("1", "2"):
            out = tmp_path / f"out{seed}"
            assert main([str(path), "--out", str(out), "--quiet",
                         "--seed", seed]) == 0
            manifest = yaml.safe_load((out / "run_manifest.yaml").read_text())
            assert manifest["seed"] == int(seed)
            assert manifest["scenario"]["scene"]["clutter"]["seed"] is None
            profiles.append((out / "profile.csv").read_bytes())
        # no noise or jitter: the profiles differ only through the clutter
        assert profiles[0] != profiles[1]

    def test_blank_width_checked_for_the_chains_run(self, tmp_path, capsys):
        nb = MINIMAL.replace("{mode: uwb}", "{mode: nb}")
        cases = {
            "receiver.blank_width_s (nb chain): blank width 1e-06 s is "
            "shorter than the transmit pulse":
                nb + "receiver: {blank_width_s: 1.0e-6}\n",
            "receiver.blank_width_s (nb chain): blank width 0.0001 s covers "
            "the whole PRI": nb + "receiver: {blank_width_s: 1.0e-4}\n",
            # compare_modes runs both chains; 2 ns is too short for nb
            "receiver.blank_width_s (nb chain): blank width 2e-09 s":
                MINIMAL + "receiver: {blank_width_s: 2.0e-9}\n"
                "experiment: {kind: compare_modes}\n",
        }
        _assert_rejected_before_synthesis(tmp_path, capsys, cases)
        # a uwb-only run is not held to the nb pulse width
        text = MINIMAL + "receiver: {blank_width_s: 2.0e-9}\n"
        load_scenario(_write(tmp_path, text, "uwb_only.yaml"))

    def test_scatterer_beyond_unambiguous_range_exits_two(self, tmp_path,
                                                          capsys):
        # c*PRI/2 is 15 m for the 100 ns uwb PRI
        far = MINIMAL.replace("range_m: 10.0", "range_m: 20.0")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "scene (uwb chain): scatterer 0 at 20 m exceeds the unambiguous "
            "range": far})
        # the nb chain's 100 us PRI reaches 15 km
        load_scenario(_write(tmp_path, far.replace("{mode: uwb}", "{mode: nb}"),
                             "nb.yaml"))

    def test_reference_beyond_unambiguous_range_exits_two(self, tmp_path,
                                                          capsys):
        # the run self-calibrates on a sphere past c*PRI/2 (14.99 m)
        far = SERIES + ("  reference: {sigma_m2: 1.0e-3, range_m: 15.5}\n"
                        "receiver: {max_range_m: 14.0}\n")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "experiment.reference (uwb chain): scatterer 0 at 15.5 m exceeds "
            "the unambiguous range 14.9896 m": far,
            # compare_modes calibrates both chains; nb reaches 15 km
            "experiment.reference (uwb chain): scatterer 0 at 15.5 m":
                far.replace("rcs_sweep_series", "compare_modes")})
        # a profile run calibrates on nothing
        load_scenario(_write(tmp_path, far.replace("rcs_sweep_series",
                                                   "profile"), "profile.yaml"))

    def test_interferer_outside_the_nyquist_band_exits_two(self, tmp_path,
                                                           capsys):
        # 2 GHz is 1 GHz off the nb carrier, whose band is +- 40 MHz
        itf = MINIMAL + "  interferers: [{freq_hz: 2.0e+9, power_w: 1.0e-9}]\n"
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "scene.interferers[0] (nb chain): interferer at 2e+09 Hz is "
            "outside the Nyquist band around 1e+09 Hz (fs 8e+07)":
                itf.replace("{mode: uwb}", "{mode: nb}"),
            # compare_modes runs both chains
            "scene.interferers[0] (nb chain): interferer at 2e+09 Hz":
                itf + "experiment: {kind: compare_modes}\n",
        })
        # the carrierless uwb chain samples at 100 GHz
        load_scenario(_write(tmp_path, itf, "uwb_only.yaml"))

    @staticmethod
    def _count_builds(monkeypatch) -> list[str]:
        """The mode of each SweepPipeline built from now on, in order."""
        built = []
        init = imaging.SweepPipeline.__init__

        def counting(pipeline, params, *args, **kwargs):
            built.append(params.mode.value)
            init(pipeline, params, *args, **kwargs)

        monkeypatch.setattr(imaging.SweepPipeline, "__init__", counting)
        return built

    def test_only_the_chains_run_are_built(self, tmp_path, capsys,
                                           monkeypatch):
        built = self._count_builds(monkeypatch)
        # an nb pulse longer than the nb PRI is no fault of a uwb run
        text = MINIMAL.replace("{mode: uwb}",
                               "{mode: uwb, nb: {pulse_width_s: 2.0e-4}}")
        message = ("radar.nb: pulse_width_s (0.0002) must span at least one "
                   "sample and fewer than pri_s (0.0001)")
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main([str(path), "--out", str(out), "--quiet"]) == 0
        # a uwb run builds no nb chain, and a profile builds its chain once,
        # at load
        assert built == ["uwb"]
        manifest = yaml.safe_load((out / "run_manifest.yaml").read_text())
        receiver = manifest["scenario"]["receiver"]
        assert receiver["nb"]["max_range_m"] is None
        assert receiver["uwb"]["max_range_m"] > 0
        nb_out = tmp_path / "nb_out"
        assert main([str(path), "--out", str(nb_out), "--mode", "nb"]) == 2
        assert message in capsys.readouterr().err
        assert not nb_out.exists()
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            message: text + "experiment: {kind: compare_modes}\n"})

    @pytest.mark.parametrize("kind", [k.value for k in ExperimentKind])
    def test_a_run_builds_each_chain_once(self, kind, tmp_path, monkeypatch):
        # each chain a run uses is built when the scenario loads, and the
        # run, its self-calibration included, reuses it
        built = self._count_builds(monkeypatch)
        path = _write(tmp_path, MINIMAL + (
            "code: {taps: [5, 2, 0]}\n"
            f"experiment: {{kind: {kind}, sweeps: 2, azimuth_step_deg: 1.0,"
            " beamwidth_deg: 2.0, azimuth_span_deg: 1.0}\n"))
        runs = ({"uwb": ["nb", "uwb"]} if kind == "compare_modes"
                else {mode: [mode] for mode in ("nb", "uwb")})
        for mode, chains in runs.items():
            built.clear()
            assert main([str(path), "--mode", mode, "--out",
                         str(tmp_path / mode), "--quiet"]) == 0
            assert built == chains, mode

    def test_azimuth_step_checked_only_for_scan_image(self, tmp_path, capsys):
        wide = ("experiment: {kind: %s, azimuth_step_deg: 3.0, "
                "beamwidth_deg: 2.0}\n")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "experiment: azimuth_step_deg (3) must not exceed beamwidth_deg "
            "(2)": MINIMAL + wide % "scan_image"})
        # other runs check the scan fields by type only
        for i, scan in enumerate((wide % "profile", (
                "experiment: {azimuth_step_deg: 0.0, beamwidth_deg: -2.0, "
                "azimuth_span_deg: -1.0}\n"))):
            path = _write(tmp_path, MINIMAL + scan, f"profile{i}.yaml")
            assert main([str(path), "--out", str(tmp_path / f"out{i}"),
                         "--quiet"]) == 0

    def test_kept_window_without_a_range_bin_exits_two(self, tmp_path,
                                                       capsys):
        # c*blank/2 is 1843.7236167 m, just past lag 984 at
        # 1843.72361669999 m, and lag 985 lies at 1845.6 m
        nb = (MINIMAL.replace("{mode: uwb}", "{mode: nb}")
              + "receiver: {blank_width_s: 1.23e-5, max_range_m: 1844.5}\n")
        for kind in ("profile", "polarimetric"):
            _assert_rejected_before_synthesis(tmp_path, capsys, {
                "receiver.max_range_m (nb chain): the kept range window "
                "[1843.72, 1844.5] m is empty":
                    nb + f"experiment: {{kind: {kind}}}\n"})

    def test_gate_without_a_range_bin_exits_two(self, tmp_path, capsys):
        # the gate lies inside the kept window, between the bins at
        # 9.999577 and 10.00108 m, 1.5 mm apart
        gate = "receiver: {gate_min_m: %s, gate_max_m: %s}\n"
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "receiver.gate_min_m (uwb chain): the gate [10.0001, 10.0002] m "
            "holds no range bin; the nearest bins lie at 9.999577 and "
            "10.00108 m": SERIES + gate % (10.0001, 10.0002),
            # compare_modes runs both chains; the nb bins are 1.87 m apart
            "receiver.gate_min_m (nb chain): the gate [10.0001, 10.0002] m "
            "holds no range bin; the nearest bins lie at 9.368514 and "
            "11.24222 m": SERIES.replace("rcs_sweep_series",
                                         "compare_modes")
            + "receiver: {nb: {gate_min_m: 10.0001, gate_max_m: 10.0002}}\n",
        })
        # a gate that holds one bin, the one the sphere peaks in, runs
        path = _write(tmp_path, SERIES + gate % (9.9995, 10.0001), "one.yaml")
        pipeline = load_scenario(path).pipelines[Mode.DS_UWB]
        ranges = pipeline.ranges_m
        assert np.count_nonzero((ranges >= 9.9995) & (ranges <= 10.0001)) == 1
        out = tmp_path / "one"
        assert main([str(path), "--out", str(out), "--quiet"]) == 0
        assert len((out / "series.csv").read_text().splitlines()) == 5

    def test_gate_without_a_range_bin_exits_two_before_any_waveform(
            self, tmp_path, capsys, monkeypatch):
        # the gate is checked from the kept lags, before any pipeline
        # builds its transmit train; a run that does not estimate has no
        # gate, so the same gate does not stop a profile
        def no_waveform(*args, **kwargs):
            raise AssertionError("a waveform was built")

        gate = "receiver: {gate_min_m: 10.0001, gate_max_m: 10.0002}\n"
        path = _write(tmp_path, SERIES + gate)
        with monkeypatch.context() as patch:
            patch.setattr(imaging, "make_waveform", no_waveform)
            assert main([str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: receiver.gate_min_m (uwb chain): the gate [10.0001, "
            "10.0002] m holds no range bin; the nearest bins lie at "
            "9.999577 and 10.00108 m\n")
        path = _write(tmp_path, MINIMAL + gate, "profile.yaml")
        assert load_scenario(path).rx_for(Mode.DS_UWB).gate_m is None
        assert main([str(path), "--out", str(tmp_path / "profile"),
                     "--quiet"]) == 0

    def test_flags_apply_before_validation(self, tmp_path, capsys):
        # each file is invalid as written but valid for the run the flags
        # select, so it must not exit 2
        one_sweep = SERIES.replace("sweeps: 4", "sweeps: 1")
        far = MINIMAL.replace("range_m: 10.0", "range_m: 20.0")
        for i, (text, flags) in enumerate((
                (one_sweep, ["--experiment", "profile"]),
                (far, ["--mode", "nb"]))):
            path = _write(tmp_path, text, f"case{i}.yaml")
            out = tmp_path / f"out{i}"
            assert main([str(path), "--out", str(out), "--quiet"]) == 2
            capsys.readouterr()
            assert main([str(path), "--out", str(out), "--quiet"] + flags) == 0
            assert (out / "profile.csv").exists()

    def test_unreadable_calibration_file_exits_two(self, tmp_path, capsys):
        cal_dir = tmp_path / "a_directory"
        cal_dir.mkdir()
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            f"experiment.calibration_file: {cal_dir}: Is a directory":
                SERIES + f"  calibration_file: {cal_dir}\n",
            "experiment.calibration_file: " f"{tmp_path / 'missing.csv'}":
                SERIES + f"  calibration_file: {tmp_path / 'missing.csv'}\n",
        })

    def test_calibration_file_not_utf8_exits_two(self, tmp_path, capsys):
        # a UTF-16 byte-order mark does not decode as UTF-8; the error
        # names the file, on one line, instead of a traceback
        cal = tmp_path / "utf16.csv"
        cal.write_bytes(b"\xff\xfe\x00" + "gain".encode("utf-16-le"))
        nb = SERIES.replace("{mode: uwb}", "{mode: nb}")
        message = (f"experiment.calibration_file: {cal}: not a calibration "
                   f"file: not UTF-8")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            message: nb + f"  calibration_file: {cal}\n"})
        assert main([str(tmp_path / "case0.yaml"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_kept_window_reaches_reference_and_gate(self, tmp_path, capsys):
        nb = MINIMAL.replace("{mode: uwb}", "{mode: nb}")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "receiver.max_range_m (nb chain): the kept range window [0, 5] m "
            "excludes the calibration reference at 10 m":
                nb + "receiver: {max_range_m: 5.0}\n"
                "experiment: {kind: rcs_sweep_series}\n",
            "receiver.max_range_m (uwb chain): the kept range window [0, 12] "
            "m excludes the gate [12.5, 13] m":
                SERIES + "receiver: {max_range_m: 12.0, gate_min_m: 12.5, "
                "gate_max_m: 13.0}\n",
            # compare_modes runs both chains; only the uwb window is cut
            "receiver.max_range_m (uwb chain): the kept range window [0, 8] m "
            "excludes the calibration reference at 10 m":
                MINIMAL + "receiver: {uwb: {max_range_m: 8.0}}\n"
                "experiment: {kind: compare_modes}\n",
            "receiver.blank_width_s (uwb chain): the kept range window "
            "[11.9917, 13.4907] m excludes the calibration reference at 10 m":
                MINIMAL + "receiver: {blank_width_s: 8.0e-8}\n"
                "experiment: {kind: scan_image}\n",
            # clutter drawn past c*PRI/2 is caught with the scene's points
            "scene (uwb chain): scatterer":
                MINIMAL + "  clutter: {count: 20, range_max_m: 40.0}\n",
        })
        # the blank ends at c*blank/2 = 0.3 m, past max_range_m, for runs
        # that neither calibrate nor gate too; so does a blank of 95 ns,
        # at 14.24 m, past the default max_range_m a file does not set
        for kind in ("profile", "polarimetric"):
            _assert_rejected_before_synthesis(tmp_path, capsys, {
                "receiver.blank_width_s (uwb chain): the kept range window "
                "[0.299792, 0.2] m is empty": MINIMAL + "receiver: "
                "{blank_width_s: 2.0e-9, max_range_m: 0.2}\n"
                f"experiment: {{kind: {kind}}}\n",
                "receiver.blank_width_s (uwb chain): the kept range window "
                "[14.2401, 13.4907] m is empty": MINIMAL + "receiver: "
                "{blank_width_s: 95.0e-9}\n"
                f"experiment: {{kind: {kind}}}\n"})
        # a profile neither calibrates nor gates
        load_scenario(_write(tmp_path, nb + "receiver: {max_range_m: 5.0}\n",
                             "profile.yaml"))

    def test_compare_modes_rejects_one_calibration_file(self, tmp_path,
                                                         capsys):
        # an nb calibration would be applied to the uwb chain as well
        cal_text = MINIMAL.replace("{mode: uwb}", "{mode: nb}") + (
            "code: {taps: [5, 2, 0], chips_per_bit: 31}\n"
            "experiment: {kind: calibrate}\n"
            f"output: {{directory: {tmp_path / 'cal'}}}\n")
        run(load_scenario(_write(tmp_path, cal_text, "cal.yaml")), quiet=True)
        compare = MINIMAL + (
            "code: {taps: [5, 2, 0], chips_per_bit: 31}\n"
            "experiment: {kind: compare_modes, sweeps: 2, "
            f"calibration_file: {tmp_path / 'cal' / 'calibration.csv'}}}\n")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "experiment.calibration_file: compare_modes runs the nb and uwb "
            "chains, and one calibration file cannot calibrate two "
            "waveforms": compare})

    def test_calibrate_needs_a_reference(self, tmp_path, capsys):
        # two points give no default reference; a calibration file does not
        # stand in for one when the run writes a calibration
        text = MINIMAL + (
            "      - {sigma_m2: 1.0e-3, range_m: 12.0}\n"
            "experiment: {kind: calibrate, calibration_file: unused.csv}\n")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "experiment.reference: required for the calibrate experiment":
                text})

    def test_out_of_memory_exits_three(self, tmp_path):
        # a 31-chip train at 350 THz reads a despread window of 32.0 M
        # samples (488 MiB) per sweep, and a block builds more than one
        # array that long; under a 1 GiB address-space limit the chains
        # load, but the first sweep cannot be built
        path = _write(tmp_path, MINIMAL.replace(
            "radar: {mode: uwb}",
            "radar: {mode: uwb, uwb: {sample_rate_hz: 3.5e+14}}\n"
            "code: {family: msequence, taps: [5, 2, 0], chips_per_bit: 31}"))
        proc = _run_child(
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from pnradar.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n",
            path, "--out", tmp_path / "out", "--quiet")
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith(
            "error [profile]: out of memory: a uwb block holds 1 sweep of "
            "31,962,001 complex window samples (487.7 MiB)")
        assert "Traceback" not in proc.stderr
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("text, chains", [
        (SERIES, ["uwb"]),
        # compare_modes names both chains, though only uwb failed
        (SERIES.replace("rcs_sweep_series", "compare_modes"), ["nb", "uwb"])])
    def test_memory_error_while_loading_exits_three(self, tmp_path, capsys,
                                                     monkeypatch, text,
                                                     chains):
        make_waveform = imaging.make_waveform

        def failing(params, *args, **kwargs):
            if params.mode is Mode.DS_UWB:
                raise MemoryError
            return make_waveform(params, *args, **kwargs)

        monkeypatch.setattr(imaging, "make_waveform", failing)
        rc = main([str(_write(tmp_path, text)), "--out",
                   str(tmp_path / "out"), "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error \[load\]: out of memory: " + "; ".join(
                rf"a {c} block holds [\d,]+ sweeps? of [\d,]+ complex window "
                r"samples \([\d,]+\.\d MiB\) and a noise chunk of [\d,]+ "
                r"real samples \([\d,]+\.\d MiB\)" for c in chains) + "\n",
            err), err
        assert not (tmp_path / "out").exists()

    # a 1 GiB address-space limit, under which no window of these sizes
    # could be built
    LIMITED = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
               "from pnradar.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")

    @pytest.mark.parametrize("max_range", ["1.0e+9", "1.0e+20"])
    def test_huge_max_range_exits_two_while_loading(self, tmp_path,
                                                    max_range):
        # the window's PRI-slot rule is checked from integers, before the
        # 667,128,190,529 (1e9 m) or 6.7e22 (1e20 m) window samples that a
        # block would hold are built
        path = _write(tmp_path,
                      SERIES + f"receiver: {{max_range_m: {max_range}}}\n")
        proc = _run_child(self.LIMITED, path, "--out", tmp_path / "out",
                          "--quiet")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            f"error: receiver.max_range_m (uwb chain): {float(max_range):g} m "
            f"reads past the 10000-sample PRI slot; the kept lags must end "
            f"by lag 9867, 14.79026 m\n")
        assert not (tmp_path / "out").exists()

    def test_long_nb_pulse_exits_three_while_loading(self, tmp_path):
        # a window inside its PRI slot, past the largest array numpy can
        # index, which it reports as a ValueError
        path = _write(tmp_path, SERIES.replace(
            "{mode: uwb}",
            "{mode: nb, nb: {pulse_width_s: 1.0e+10, pri_s: 1.0e+11}}"))
        proc = _run_child(self.LIMITED, path, "--out", tmp_path / "out",
                          "--quiet")
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "error [load]: out of memory: a nb block holds 1 sweep of "
            "800,000,000,000,000,053 complex window samples "
            "(12,207,031,250,000.0 MiB) and a noise chunk of "
            "8,000,000,000,000,000,000 real samples "
            "(61,035,156,250,000.0 MiB)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pri_s, stage, chunk", [
        # one PRI of normals, 1.6 TB, fails as the first sweep runs
        ("2", "rcs_sweep_series", "200,000,000,000 real samples "
                                  "(1,525,878.9 MiB)"),
        # past numpy's largest array: the pre-check fails it at load
        ("1.0e+30", "load",
         "100,000,000,000,000,000,620,008,645,040,778,319,495,168 real "
         "samples (762,939,453,125,000,004,730,290,565,801,836,544.0 MiB)")])
    def test_long_pri_names_the_noise_chunk(self, tmp_path, pri_s, stage,
                                            chunk):
        # the kept window is the usual 9,472 samples; the noise is drawn
        # into chunks of one PRI
        path = _write(tmp_path, SERIES.replace(
            "{mode: uwb}", f"{{mode: uwb, uwb: {{pri_s: {pri_s}}}}}")
            + "receiver: {max_range_m: 14.0}\n")
        proc = _run_child(self.LIMITED, path, "--out", tmp_path / "out",
                          "--quiet")
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            f"error [{stage}]: out of memory: a uwb block holds 1 sweep of "
            f"9,472 complex window samples (0.1 MiB) and a noise chunk of "
            f"{chunk}\n")
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("kind", ["calibrate", "rcs_sweep_series"])
    def test_reference_in_the_zero_bin_exits_two(self, tmp_path, capsys,
                                                 kind):
        # the 0.5 m echo rounds to delay 0 at 80 MHz, the bin where
        # range ** 4, and so the calibration's gain, is undefined
        text = ("radar: {mode: nb}\n"
                "scene: {target: {points: [{sigma_m2: 1.0, range_m: 0.5}]}}\n"
                f"experiment: {{kind: {kind}}}\n")
        _assert_rejected_before_synthesis(tmp_path, capsys, {
            "experiment.reference (nb chain): the reference at 0.5 m echoes "
            "in the 0 m range bin, which calibrates no cross section": text})

    @pytest.mark.parametrize("where, raised, text", [
        ("caller", ArithmeticError(), "ArithmeticError"),
        ("worker", ArithmeticError("sweep 1 overflowed"),
         "sweep 1 overflowed")])
    def test_any_fault_of_a_block_exits_three(self, tmp_path, capsys,
                                              monkeypatch, where, raised,
                                              text):
        # the series' four one-sweep UWB blocks: block 0 runs in the calling
        # process, block 1 first in the forked worker
        rcs, caller = imaging._rcs, os.getpid()

        def failing(detections, cal, mode, sweep_index, gate_m):
            if (os.getpid() == caller) == (where == "caller"):
                raise raised
            return rcs(detections, cal, mode, sweep_index, gate_m)

        monkeypatch.setattr(imaging, "_rcs", failing)
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: 2)
        rc = main([str(_write(tmp_path, SERIES)), "--out",
                   str(tmp_path / "out"), "--quiet"])
        assert rc == 3
        assert capsys.readouterr().err == \
            f"error [rcs_sweep_series]: {text}\n"
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_any_fault_while_loading_exits_three(self, tmp_path, capsys,
                                                 monkeypatch):
        def failing(data):
            return 1 / 0

        monkeypatch.setattr(scenario_module, "resolve_scenario", failing)
        rc = main([str(_write(tmp_path, SERIES)), "--out",
                   str(tmp_path / "out"), "--quiet"])
        assert rc == 3
        assert capsys.readouterr().err == \
            "error [load]: division by zero\n"
        assert not (tmp_path / "out").exists()


class TestNumpyOnlyRuntime:
    def test_simulate_loads_no_scipy(self, tmp_path):
        data = yaml.safe_load((ROOT / "scenarios" / "sphere_compare.yaml")
                              .read_text())
        data["experiment"]["sweeps"] = 2
        path = _write(tmp_path, yaml.safe_dump(data))
        proc = _run_child(
            "import json, sys\n"
            "from pnradar.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules\n"
            "                             if m.split('.')[0] == 'scipy'),\n"
            "                  'numpy.ma' in sys.modules]))\n",
            path, "--out", tmp_path / "out", "--quiet")
        assert proc.returncode == 0, proc.stderr
        # no scipy, and no numpy.ma (np.median loads it)
        assert json.loads(proc.stdout) == [0, [], False]
        assert (tmp_path / "out" / "compare_summary.csv").exists()

    def test_the_sweep_pool_forks_and_loads_no_process_library(self,
                                                               tmp_path):
        # the second process is one os.fork, not a multiprocessing or
        # concurrent.futures pool: after numpy and yaml, `python3 -X
        # importtime` read 17.8 ms to import concurrent.futures.process
        # and 12.4 ms for multiprocessing.pool, against a whole
        # nb_dense_series run of about 0.11 s (2 CPUs)
        proc = _run_child(
            "import json, os, sys\n"
            "from pnradar import imaging\n"
            "from pnradar.cli import main\n"
            "imaging._usable_cpus = lambda: 2\n"
            "forks, fork = [], os.fork\n"
            "def counted():\n"
            "    pid = fork()\n"
            "    forks.append(pid)\n"
            "    return pid\n"
            "os.fork = counted\n"
            "rc = main(sys.argv[1:])\n"
            "print(json.dumps([rc, len(forks), sorted(\n"
            "    m for m in sys.modules\n"
            "    if m.split('.')[0] in ('multiprocessing', 'concurrent'))]))\n",
            ROOT / "bench" / "scenarios" / "nb_dense_series.yaml",
            "--out", tmp_path / "out", "--quiet")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, 1, []]

    def test_image_csv_matches_value_by_value_format(self, tmp_path):
        # every cell prints what "%.12g" of each field and
        # 10*log10(max(p, 1e-30)) print, on cells chosen to trip a
        # vectorized formatter: zeros, denormals, nan and inf, exact
        # decades, 12th-digit ties, |dB| < 1, and powers whose np.log10
        # and math.log10 differ in the last bit
        rng = np.random.default_rng(3)
        random = rng.exponential(1.0, 600) * 10.0 ** rng.integers(-40, 10, 600)
        special = [0.0, 1e-30, 5e-324, math.nan, math.inf, 1e-31, 1.0,
                   1.7976931348623157e308]
        decades = [10.0 ** k for k in range(-30, 309)]
        # dB = +-(m + 0.5) * 10^(e - 11): 13 digits ending in 5; e = 3
        # only up to 3000 dB, below float64's largest power
        tie_db = [sign * (m + 0.5) * 10.0 ** (e - 11) for sign, m, e in zip(
            [*rng.choice([-1, 1], 200), *[1] * 20],
            [*rng.integers(10 ** 11, 10 ** 12, 200),
             *rng.integers(10 ** 11, 3 * 10 ** 11, 20)],
            [*rng.integers(0, 3, 200), *[3] * 20])]
        ties = [10.0 ** (db / 10.0) for db in tie_db]
        # within 64 ulps of a tie, np.log10 and math.log10 can round the
        # 12th digit apart: these cells must take the exact path
        near_ties = np.multiply.outer(
            ties, 1.0 + np.arange(-64, 65) * 2.0 ** -52).ravel().tolist()
        flips = [p for p, db in zip(near_ties,
                                    (10.0 * np.log10(near_ties)).tolist())
                 if "%.12g" % db != "%.12g" % (10.0 * math.log10(p))]
        assert len(flips) >= 5
        near_unity = [*rng.uniform(0.75, 1.3, 100),
                      *(1.0 + np.arange(-20, 21) * 2.0 ** -52)]
        draw = np.exp(rng.uniform(-69.0, 0.0, 4000))
        log_differs = [p for p in draw.tolist()
                       if float(np.log10(p)) != math.log10(p)][:40]
        assert len(log_differs) == 40
        edges = decades + ties
        cells = np.concatenate([
            random, special, edges, np.nextafter(edges, 0.0),
            np.nextafter(edges, math.inf), flips, near_unity, log_differs])
        power = np.resize(cells, (6, -(-cells.size // 6)))
        _assert_image_csv(tmp_path / "image.csv", np.linspace(-2.5, 2.5, 6),
                          np.linspace(0.3, 1.0 / 3.0 + 2.0, power.shape[1]),
                          power)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   min_side=0, max_side=40),
                      elements=st.one_of(st.floats(min_value=0.0),
                                         st.just(math.nan))))
    def test_image_csv_matches_format_on_drawn_powers(self, tmp_path_factory,
                                                       power):
        _assert_image_csv(tmp_path_factory.mktemp("image") / "image.csv",
                          np.arange(power.shape[0]) - 0.5,
                          np.arange(power.shape[1]) * 0.15, power)

    def test_image_csv_memory_is_bounded_by_a_row(self, tmp_path):
        # uwb_scan's image size; a byte matrix of the whole image (about
        # 16 MB) or a list of its lines would break the bound
        rng = np.random.default_rng(5)
        power = rng.exponential(1e-9, (45, 9139))
        scan = ScanRows(azimuths_deg=np.arange(-11.0, 11.5, 0.5),
                        ranges_m=np.linspace(0.3, 14.0, 9139),
                        rows=iter(power))
        tracemalloc.start()
        try:
            write_scan_csv(tmp_path / "image.csv", scan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_scan_image_csv_digest_is_pinned(self, tmp_path):
        # uwb_scan's geometry over 5 rows; the digest was recorded before
        # the vectorized image writer (numpy 2.4.6, x86-64).  A change here
        # with the value-by-value tests still passing is a change upstream
        # of the writer.
        path = _write(tmp_path, SCAN_5_ROWS)
        assert main([str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        csv = tmp_path / "out" / "image.csv"
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "efd5ab0841c665110cd807059a52c33adc5693524a7b4154bdc30b37b729ae04")


    def test_scan_default_span_covers_uwb_scan_as_pinned(self):
        # a null azimuth_span_deg is settled at load to the widest point
        # (4.78 deg) plus 3 beamwidths, 10.78 deg: the same 45 rows as
        # uwb_scan's 11 deg
        path = ROOT / "bench" / "scenarios" / "uwb_scan.yaml"
        scenario = load_scenario(path)
        loaded = load_scenario(path, {"experiment.azimuth_span_deg": None})
        assert scenario.scan[2] == 11.0
        assert loaded.scan[:2] == scenario.scan[:2]
        assert 10.78 < loaded.scan[2] < 10.79
        pipeline = scenario.pipelines[Mode.DS_UWB]
        cal = Calibration(gain=1.0, reference_sigma_m2=1e-3,
                          reference_range_m=10.0)
        pinned, default = (
            imaging.scan_rows(pipeline, scenario.scene, cal, *s.scan)
            for s in (scenario, loaded))
        assert default.azimuths_deg.size == 45
        assert np.array_equal(default.azimuths_deg, pinned.azimuths_deg)
        assert np.array_equal(list(default.rows), list(pinned.rows))

class TestStreamedImage:
    """simulate writes a scan's image.csv row by row as the rows arrive,
    in azimuth order, from the calling process and its forked worker."""

    def test_streamed_bytes_equal_the_image_writer(self, tmp_path,
                                                    monkeypatch):
        # the rows streamed from two processes give the bytes that the
        # writer gives on one CPU, where the calling process runs every row
        path = _write(tmp_path, SCAN_5_ROWS)
        for cpus in (1, 2):
            monkeypatch.setattr(imaging, "_usable_cpus", lambda: cpus)
            assert main([str(path), "--out", str(tmp_path / f"out{cpus}"),
                         "--quiet"]) == 0
        assert (tmp_path / "out1" / "image.csv").read_bytes() == \
            (tmp_path / "out2" / "image.csv").read_bytes()

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_a_failing_row_exits_three_and_leaves_no_image(
            self, where, tmp_path, capsys, monkeypatch):
        # SCAN_5_ROWS's 5 rows in two processes (the calibration's
        # reference sphere is noiseless, the rows are not).  The worker's
        # rows fail, the first of them row 1, after the calling process has
        # written row 0; or the worker's rows are slow, and a row from 1 on
        # fails in the calling process, which writes the worker's earlier
        # rows before it raises
        despread_windows = imaging.despread_windows
        caller = os.getpid()

        def failing(tx, scene, params, pol, sweeps, window):
            here = "caller" if os.getpid() == caller else "worker"
            if scene.noise_psd and sweeps.start >= 1:
                if here == where:
                    raise ValueError(f"row {sweeps.start} failed in the "
                                     f"{here}")
                time.sleep(0.2)
            return despread_windows(tx, scene, params, pol, sweeps, window)

        monkeypatch.setattr(imaging, "despread_windows", failing)
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: 2)
        path = _write(tmp_path, SCAN_5_ROWS)
        out = tmp_path / "out"
        assert main([str(path), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        first = {"caller": "[34]", "worker": "1"}[where]
        assert re.fullmatch(rf"error \[scan_image\]: row {first} failed in "
                            rf"the {where}\n", err)
        assert not (out / "image.csv").exists()
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


BUNDLED = {p.stem: p for p in sorted([*(ROOT / "scenarios").glob("*.yaml"),
                                      *(ROOT / "bench" / "scenarios")
                                      .glob("*.yaml")])}
# a relative directory: the manifest records it as given
OUT_DIR = "runs/sweep set ü é 雷达"


def _without_timestamp(manifest_text):
    return [line for line in manifest_text.split("\n")
            if not line.startswith("timestamp: ")]


class TestYamlThroughLibyaml:
    """Scenarios are parsed and manifests written through libyaml where
    PyYAML ships it. PyYAML's pure-Python loader and emitter are the
    oracle: the same data, the same marks, the same bytes."""

    def test_libyaml_in_use_where_pyyaml_ships_it(self):
        if yaml.__with_libyaml__:
            assert issubclass(_UniqueKeyLoader, yaml.CSafeLoader)
            assert cli._SafeDumper is yaml.CSafeDumper
        else:
            assert _UniqueKeyLoader.__bases__ == (yaml.SafeLoader,)
            assert cli._SafeDumper is yaml.SafeDumper

    @pytest.mark.parametrize("name", [*BUNDLED, "readme"])
    def test_parses_to_the_pure_loaders_data(self, name):
        text = _readme_example() if name == "readme" \
            else BUNDLED[name].read_text()
        # repr tells 1 from 1.0 and True, and keeps the key order
        assert repr(yaml.load(text, Loader=_UniqueKeyLoader)) == \
            repr(yaml.load(text, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("text", [
        "a: b: c\n", "a: [1, 2\n", "a: {b: 1\n", "a: 'abc\n",
        "a:\n\tb: 1\n", "a:\n  b: 1\n c: 2\n", "a:\n  - 1\n  b: 2\n",
        "a: *x\n", "a: @x\n", "a: 1\n---\nb: 2\n", "a: !foo 1\n",
        "? [1, 2]\n: 3\n", "%YAML 2.0\n---\na: 1\n"])
    def test_errors_keep_their_line_and_column(self, text):
        marks = []
        for loader in (_UniqueKeyLoader, yaml.SafeLoader):
            with pytest.raises(yaml.MarkedYAMLError) as info:
                yaml.load(text, Loader=loader)
            marks.append((info.value.problem_mark.line,
                          info.value.problem_mark.column))
        assert marks[0] == marks[1]

    @pytest.mark.parametrize("raw, mark", [
        (b"a: 1\nb: \"\xc3\xa9\xc3\xa9a\x01b\"\n", (2, 8)),
        (b"a: 1\nb: \xc3\xa9\xc3\xa9 \xff\n", (2, 7)),
        (b"a: \xc3\xa9\xc3", (1, 5)),
        (b"# \xc3\xa9\x01\n", (1, 4)),
        (b"a: 1\r\nb: \xc3\xa9\x7f\r\n", (2, 5)),
        (b"a: 1\rb: \x01\r", (2, 4)),
        ("a: [1,\u0085 \x01]\n".encode(), (2, 2)),
        (codecs.BOM_UTF8 + b"a: \x01\n", (1, 4)),
        ("a: 1\nb: \xe9\x01\n".encode("utf-16"), (2, 5)),
        (codecs.BOM_UTF16_BE + "a: \xe9\x01\n".encode("utf-16-be"), (1, 5))],
        ids=["control", "not-utf8", "cut-utf8", "comment", "crlf", "cr",
             "nel", "utf8-bom", "utf16", "utf16-be"])
    def test_reader_errors_get_the_same_line_and_column(self, raw, mark):
        # the position counts bytes from libyaml, and characters from the
        # pure reader when it meets a character YAML does not allow
        marks = []
        for loader in (_UniqueKeyLoader, yaml.SafeLoader):
            with pytest.raises(yaml.reader.ReaderError) as info:
                yaml.load(raw, Loader=loader)
            marks.append(_reader_mark(raw, info.value))
        assert marks == [mark, mark]

    @staticmethod
    def _write_and_expect(path, scenario):
        """Write the scenario's manifest; return what was written and the
        manifest it should hold, with the timestamp that was written."""
        _write_manifest(path, scenario)
        written = path.read_text()
        return written, {"tool_version": pnradar.__version__,
                         "seed": scenario.seed,
                         "timestamp": yaml.safe_load(written)["timestamp"],
                         "scenario": scenario.raw}

    @pytest.mark.parametrize("name", [*BUNDLED, "readme"])
    def test_manifest_bytes_equal_safe_dump(self, tmp_path, name):
        path = BUNDLED.get(name) or _write(tmp_path, _readme_example())
        written, manifest = self._write_and_expect(
            tmp_path / "run_manifest.yaml",
            load_scenario(path, {"seed": 2 ** 64 - 1,
                                 "output.directory": OUT_DIR}))
        assert written == yaml.safe_dump(manifest, sort_keys=True)
        assert "seed: 18446744073709551615\n" in written
        assert "\\xFC \\xE9 \\u96F7\\u8FBE" in written

    @settings(max_examples=100, deadline=None)
    @given(directory=st.text(max_size=60))
    def test_manifest_reads_back_for_any_directory(self, tmp_path_factory,
                                                   directory):
        # libyaml folds a long double-quoted string only at a space, the
        # pure emitter anywhere: where a line would pass column 80 the
        # bytes may differ, the data may not
        written, manifest = self._write_and_expect(
            tmp_path_factory.getbasetemp() / "any_directory_manifest.yaml",
            resolve_scenario(yaml.safe_load(MINIMAL)
                             | {"output": {"directory": directory}}))
        assert yaml.load(written, Loader=yaml.SafeLoader) == manifest
        if all(len(line) <= 80 for line in written.split("\n")):
            assert written == yaml.safe_dump(manifest, sort_keys=True)

    def test_pure_fallback_reads_and_writes_the_same(self, tmp_path):
        # a PyYAML built without libyaml: the same manifests, the same
        # duplicate-key message
        duplicate = _write(tmp_path, MINIMAL.replace("{mode: uwb}",
                                                     "{mode: uwb, mode: nb}"))
        names = sorted(BUNDLED)
        proc = _run_child(
            "import sys, yaml\n"
            "from pathlib import Path\n"
            "for name in ('CSafeLoader', 'CSafeDumper'):\n"
            "    yaml.__dict__.pop(name, None)\n"
            "from pnradar import cli, scenario\n"
            "assert scenario._UniqueKeyLoader.__bases__ == "
            "(yaml.SafeLoader,)\n"
            "assert cli._SafeDumper is yaml.SafeDumper\n"
            "out, duplicate, *paths = sys.argv[1:]\n"
            "for path in paths:\n"
            "    cli._write_manifest(Path(out) / Path(path).name,\n"
            "        scenario.load_scenario(path, {'seed': 2 ** 64 - 1,\n"
            f"            'output.directory': {OUT_DIR!r}}}))\n"
            "try:\n"
            "    scenario.load_scenario(duplicate)\n"
            "except scenario.ScenarioError as exc:\n"
            "    print(exc)\n",
            tmp_path, duplicate, *(BUNDLED[n] for n in names))
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(ScenarioError) as info:
            load_scenario(duplicate)
        assert proc.stdout == f"{info.value}\n"
        for name in names:
            scenario = load_scenario(BUNDLED[name], {
                "seed": 2 ** 64 - 1, "output.directory": OUT_DIR})
            _write_manifest(tmp_path / "c.yaml", scenario)
            assert _without_timestamp(
                (tmp_path / BUNDLED[name].name).read_text()) == \
                _without_timestamp((tmp_path / "c.yaml").read_text())
