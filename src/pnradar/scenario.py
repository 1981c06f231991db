"""Scenario files: schema, validation, and construction of run objects.

A scenario is one YAML file with sections mirroring the library modules
(radar, code, scene, receiver, experiment, output).  Loading fails fast:
parse errors carry line info, every field's type is checked against the
schema and its value rules by the model type or library check that uses
it, unknown keys are rejected, and all defaults are materialized into
the returned scenario so no hidden default exists downstream.
"""

from __future__ import annotations

import codecs
import math
import re
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np
import yaml

from .channel import Interferer, InterfererKind, Pol, Scatterer, Scene, \
    TargetModel, check_interferer_band, check_unambiguous_range, gen_clutter
from .codes import CodeKind, PnSequence, gen_gold, gen_mseq
from .imaging import Calibration, ReceiverConfig, SweepPipeline, \
    block_shape, check_scan
from .receiver import check_blank_width
from .waveform import Mode, RadarParams, nb_params, uwb_params


class ScenarioError(ValueError):
    """Parse or validation failure; the message names field and constraint."""


class ExperimentKind(Enum):
    PROFILE = "profile"
    RCS_SWEEP_SERIES = "rcs_sweep_series"
    POLARIMETRIC = "polarimetric"
    SCAN_IMAGE = "scan_image"
    CALIBRATE = "calibrate"
    COMPARE_MODES = "compare_modes"


class OutOfMemory(MemoryError):
    """Memory ran out; the message gives what a block of each chain holds,
    its (sweeps, window samples) from block_shape."""

    def __init__(self, kind: ExperimentKind,
                 blocks: dict[Mode, tuple[int, int]]):
        super().__init__("out of memory: " + "; ".join(
            f"a {mode.value} block holds {rows:,} sweep"
            f"{'s' if rows > 1 else ''} of {window:,} complex window "
            f"samples ({rows * window * 16 / 2 ** 20:,.1f} MiB)"
            for mode, (rows, window) in blocks.items()))
        self.kind = kind


# --- schema -----------------------------------------------------------------

class _F:
    """Leaf field: type, default, bounds, choices."""

    def __init__(self, default, kind, minimum=None, choices=None,
                 nullable=False, exclusive_min=False, maximum=None):
        self.default = default
        self.kind = kind
        self.minimum = minimum
        self.maximum = maximum
        self.choices = choices
        self.nullable = nullable
        self.exclusive_min = exclusive_min

    def resolve(self, path: str, value):
        if value is None:
            if self.nullable:
                return None
            raise ScenarioError(f"{path}: must not be null")
        if self.kind == "float":
            if isinstance(value, str):
                # YAML 1.1 reads "5.0e9" (no exponent sign) as a string
                try:
                    value = float(value)
                except ValueError:
                    pass
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScenarioError(f"{path}: expected a number, got {value!r}")
            value = float(value)
            if not np.isfinite(value):
                raise ScenarioError(f"{path}: must be finite, got {value}")
        elif self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(f"{path}: expected an integer, got {value!r}")
        elif self.kind == "str":
            if not isinstance(value, str):
                raise ScenarioError(f"{path}: expected a string, got {value!r}")
        elif self.kind == "intlist":
            if (not isinstance(value, list) or not value
                    or not all(isinstance(v, int) and not isinstance(v, bool)
                               for v in value)):
                raise ScenarioError(f"{path}: expected a list of integers")
            return list(value)
        if self.choices is not None and value not in self.choices:
            raise ScenarioError(
                f"{path}: must be one of {sorted(self.choices)}, got {value!r}")
        if self.minimum is not None:
            if self.exclusive_min and not value > self.minimum:
                raise ScenarioError(f"{path}: must be > {self.minimum}, got {value}")
            if not self.exclusive_min and value < self.minimum:
                raise ScenarioError(f"{path}: must be >= {self.minimum}, got {value}")
        if self.maximum is not None and value > self.maximum:
            raise ScenarioError(f"{path}: must be <= {self.maximum}, got {value}")
        return value


class _List:
    """List field: each entry a mapping resolved against ``schema``; an
    absent or null list is empty."""

    def __init__(self, schema: dict):
        self.schema = schema

    def resolve(self, path: str, value) -> list[dict]:
        if value is None:
            value = []
        if not isinstance(value, list):
            raise ScenarioError(f"{path}: expected a list")
        return [_resolve_section(self.schema, item, f"{path}[{i}]")
                for i, item in enumerate(value)]


# Types, defaults and paths.  A value rule belongs to the model type that
# the field builds, which checks it at construction; the schema bounds only
# the fields that no model owns.
_POINT_SCHEMA = {
    "sigma_m2": _F(None, "float"),
    "range_m": _F(None, "float"),
    "cross_range_m": _F(0.0, "float"),
    "pol_vv": _F(1.0, "float"),
    "pol_hh": _F(1.0, "float"),
    "pol_vh": _F(0.0, "float"),
    "pol_hv": _F(0.0, "float"),
}

_INTERFERER_SCHEMA = {
    "freq_hz": _F(None, "float"),
    "power_w": _F(None, "float"),
    "kind": _F(Interferer.kind.value, "str",
               choices={k.value for k in InterfererKind}),
}

# receiver.nb and receiver.uwb share the receiver section's fields, so a
# field one of them leaves out takes the receiver section's value.
_RX_SCHEMA = {
    "blank_width_s": _F(ReceiverConfig.blank_width_s, "float"),
    "max_range_m": _F(ReceiverConfig.max_range_m, "float", nullable=True),
    "gate_min_m": _F(None, "float", nullable=True),
    "gate_max_m": _F(None, "float", nullable=True),
}

_NB, _UWB = nb_params(), uwb_params()

_SCHEMA = {
    "seed": _F(0, "int", minimum=0, maximum=2 ** 64 - 1),
    "radar": {
        "mode": _F(Mode.NB_DSSS.value, "str", choices={m.value for m in Mode}),
        "nb": {
            "carrier_hz": _F(_NB.carrier_hz, "float"),
            "chip_rate_hz": _F(_NB.chip_rate_hz, "float"),
            "samples_per_chip": _F(_NB.samples_per_chip, "int"),
            "pulse_width_s": _F(_NB.pulse_width_s, "float"),
            "pri_s": _F(_NB.pri_s, "float"),
        },
        "uwb": {
            "monocycle_width_s": _F(_UWB.monocycle_width_s, "float"),
            "pri_s": _F(_UWB.pri_s, "float"),
            "sample_rate_hz": _F(_UWB.sample_rate_hz, "float"),
        },
    },
    "code": {
        "family": _F(CodeKind.MSEQUENCE.value, "str",
                     choices={k.value for k in CodeKind}),
        "taps": _F([7, 1, 0], "intlist"),
        "taps_b": _F(None, "intlist", nullable=True),
        "gold_shift": _F(0, "int"),
        "seed_state": _F(1, "int"),
        "chips_per_bit": _F(None, "int", nullable=True),
    },
    "scene": {
        "target": {"points": _List(_POINT_SCHEMA)},
        "clutter": {
            "count": _F(0, "int"),
            "range_min_m": _F(2.0, "float"),
            "range_max_m": _F(8.0, "float"),
            "mean_sigma_m2": _F(0.01, "float"),
            "seed": _F(None, "int", nullable=True, minimum=0),
        },
        "interferers": _List(_INTERFERER_SCHEMA),
        "noise_psd_w_per_hz": _F(0.0, "float"),
        "direct_path_gain": _F(0.0, "float"),
        "sweep_phase_jitter_rad": _F(0.0, "float"),
    },
    "receiver": {**_RX_SCHEMA, "nb": _RX_SCHEMA, "uwb": _RX_SCHEMA},
    "experiment": {
        "kind": _F("profile", "str",
                   choices={k.value for k in ExperimentKind}),
        "sweeps": _F(10, "int", minimum=1),
        "polarization": _F(Pol.VV.value, "str",
                           choices={p.value for p in Pol}),
        "azimuth_step_deg": _F(1.0, "float"),
        "beamwidth_deg": _F(2.0, "float"),
        "azimuth_span_deg": _F(None, "float", nullable=True),
        "reference": {
            "sigma_m2": _F(None, "float", nullable=True, minimum=0.0,
                           exclusive_min=True),
            "range_m": _F(None, "float", nullable=True, minimum=0.0,
                          exclusive_min=True),
        },
        "calibration_file": _F(None, "str", nullable=True),
    },
    "output": {
        "directory": _F("out", "str"),
    },
}


def _resolve_section(schema: dict, data, path: str,
                     inherited: dict | None = None) -> dict:
    """Resolve ``data`` against ``schema``.  A key that ``data`` leaves out
    takes its ``inherited`` value, else the schema default."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ScenarioError(f"{path or 'top level'}: expected a mapping")
    out = {}
    for key in data:
        if key not in schema:
            where = f"{path}.{key}" if path else key
            raise ScenarioError(f"{where}: unknown key")
    for key, spec in schema.items():
        where = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            # a subsection inherits the fields it shares with this section
            shared = {k: v for k, v in out.items() if spec.get(k) is schema[k]}
            out[key] = _resolve_section(spec, data.get(key), where, shared)
        elif key in data or isinstance(spec, _List):
            out[key] = spec.resolve(where, data.get(key))
        elif inherited and key in inherited:
            out[key] = inherited[key]
        elif spec.default is None and not spec.nullable:
            raise ScenarioError(f"{where}: required field missing")
        else:
            out[key] = spec.default
    return out


# --- resolved scenario ------------------------------------------------------

@dataclass
class Scenario:
    """Fully validated run description with constructed domain objects."""

    raw: dict
    seed: int
    mode: Mode
    pipelines: dict[Mode, SweepPipeline]  # one per chain the run uses
    pn: PnSequence
    chips_per_bit: int
    scene: Scene
    experiment: ExperimentKind
    sweeps: int
    pol: Pol
    scan: tuple[float, float, float] | None  # a scan's step, beamwidth, span
    reference: tuple[float, float] | None
    calibration: Calibration | None  # read from experiment.calibration_file
    out_dir: Path

    def rx_for(self, mode: Mode) -> ReceiverConfig:
        return self.pipelines[mode].rx_config

    def params_for(self, mode: Mode) -> RadarParams:
        return self.pipelines[mode].params


def _named(where: str, build, *args, renamed: dict | None = None, **kwargs):
    """``build(*args, **kwargs)``; a ValueError is re-raised as a
    ScenarioError that starts with ``where``, the path of what it builds
    or checks, with the parameter that leads it renamed by ``renamed``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        param, *rest = str(exc).split(" ", 1)
        text = " ".join([(renamed or {}).get(param, param), *rest])
        raise ScenarioError(f"{where}: {text}") from exc


def _build_code(cfg: dict) -> PnSequence:
    if CodeKind(cfg["family"]) is CodeKind.MSEQUENCE:
        return _named("code", gen_mseq, cfg["taps"], cfg["seed_state"],
                      renamed={"seed": "seed_state"})
    if cfg["taps_b"] is None:
        raise ScenarioError("code.taps_b: required for the gold family")
    return _named("code", gen_gold, cfg["taps"], cfg["taps_b"],
                  cfg["gold_shift"], renamed={"shift": "gold_shift"})


def _rx_config(section: dict, where: str) -> ReceiverConfig:
    """The ReceiverConfig of the receiver section at ``where``, checked."""
    lo, hi = section["gate_min_m"], section["gate_max_m"]
    if (lo is None) != (hi is None):
        raise ScenarioError(
            f"{where}.gate_min_m and {where}.gate_max_m must be set together")
    return _named(where, ReceiverConfig, section["blank_width_s"],
                  section["max_range_m"], None if lo is None else (lo, hi),
                  renamed={"gate_m": "(gate_min_m, gate_max_m)"})


def resolve_scenario(data: dict) -> Scenario:
    """Validate a raw scenario mapping and construct every domain object."""
    cfg = _resolve_section(_SCHEMA, data, "")

    pn = _build_code(cfg["code"])
    if cfg["code"]["chips_per_bit"] is None:  # the manifest carries the length
        cfg["code"]["chips_per_bit"] = pn.length
    _named("code", pn.check_chips_per_bit, cfg["code"]["chips_per_bit"])

    seed = cfg["seed"]
    scene_cfg = cfg["scene"]
    clut_cfg = scene_cfg["clutter"]
    # a null clutter seed stays null so that --seed redraws the clutter too
    clutter_seed = seed if clut_cfg["seed"] is None else clut_cfg["seed"]
    clutter = _named(
        "scene.clutter", gen_clutter,
        (clut_cfg["range_min_m"], clut_cfg["range_max_m"]), clut_cfg["count"],
        clut_cfg["mean_sigma_m2"], clutter_seed,
        renamed={"extent_m": "(range_min_m, range_max_m)"})
    target = _named("scene.target.points", TargetModel, tuple(
        _named(f"scene.target.points[{i}]", Scatterer, p["sigma_m2"],
               p["range_m"], p["cross_range_m"],
               [[p["pol_vv"], p["pol_vh"]], [p["pol_hv"], p["pol_hh"]]])
        for i, p in enumerate(scene_cfg["target"]["points"])))
    interferers = tuple(
        _named(f"scene.interferers[{i}]", Interferer, itf["freq_hz"],
               itf["power_w"], InterfererKind(itf["kind"]))
        for i, itf in enumerate(scene_cfg["interferers"]))
    scene = _named("scene", Scene, target, clutter=clutter,
                   interferers=interferers,
                   noise_psd=scene_cfg["noise_psd_w_per_hz"],
                   direct_path_gain=scene_cfg["direct_path_gain"],
                   sweep_phase_jitter_rad=scene_cfg["sweep_phase_jitter_rad"],
                   rng_seed=seed, renamed={"noise_psd": "noise_psd_w_per_hz"})
    # the shared section's own values, once; each chain inherits them
    _rx_config(cfg["receiver"], "receiver")

    exp = cfg["experiment"]
    kind = ExperimentKind(exp["kind"])
    if kind is ExperimentKind.RCS_SWEEP_SERIES and exp["sweeps"] < 2:
        raise ScenarioError(
            "experiment.sweeps: a sweep series needs at least 2 sweeps")
    scan = None
    if kind is ExperimentKind.SCAN_IMAGE:
        if exp["azimuth_span_deg"] is None:  # the widest point + 3 beams
            exp["azimuth_span_deg"] = 3.0 * exp["beamwidth_deg"] + max(
                abs(math.degrees(p.azimuth_rad)) for p in scene.all_points)
        scan = (exp["azimuth_step_deg"], exp["beamwidth_deg"],
                exp["azimuth_span_deg"])
        _named("experiment", check_scan, *scan)

    ref_cfg = exp["reference"]
    if (ref_cfg["sigma_m2"] is None) != (ref_cfg["range_m"] is None):
        raise ScenarioError(
            "experiment.reference: sigma_m2 and range_m must be set together")
    if ref_cfg["sigma_m2"] is None and len(target.points) == 1:
        # default reference: the scene's single target point
        ref_cfg["sigma_m2"] = target.points[0].sigma_m2
        ref_cfg["range_m"] = target.points[0].range_m
    reference = (None if ref_cfg["sigma_m2"] is None
                 else (ref_cfg["sigma_m2"], ref_cfg["range_m"]))

    consumes_cal = kind in (ExperimentKind.RCS_SWEEP_SERIES,
                            ExperimentKind.SCAN_IMAGE,
                            ExperimentKind.COMPARE_MODES)
    if reference is None and kind is ExperimentKind.CALIBRATE:
        raise ScenarioError(
            "experiment.reference: required for the calibrate experiment")
    if consumes_cal and reference is None and exp["calibration_file"] is None:
        raise ScenarioError(
            f"experiment.reference: required for the {kind.value} experiment "
            "(or provide experiment.calibration_file)")
    if kind is ExperimentKind.COMPARE_MODES \
            and exp["calibration_file"] is not None:
        raise ScenarioError(
            "experiment.calibration_file: compare_modes runs the nb and uwb "
            "chains, and one calibration file cannot calibrate two waveforms")
    self_calibrates = kind is ExperimentKind.CALIBRATE or (
        consumes_cal and exp["calibration_file"] is None)
    calibrates_on = reference[1] if self_calibrates else None
    # check each chain the run uses, its blank's and window's rules from
    # integers, then build its pipeline and check the window it keeps
    mode = Mode(cfg["radar"]["mode"])
    chains, blocks = {}, {}
    for chain in (list(Mode) if kind is ExperimentKind.COMPARE_MODES
                  else [mode]):
        build = nb_params if chain is Mode.NB_DSSS else uwb_params
        params = _named(f"radar.{chain.value}", build, **cfg["radar"][chain.value])
        rx = cfg["receiver"][chain.value]
        rx_cfg = _rx_config(rx, f"receiver.{chain.value}").for_chain(params)
        rx["max_range_m"] = rx_cfg.max_range_m  # the manifest's, as used
        chains[chain] = params, rx_cfg
        where = f"({chain.value} chain)"
        _named(f"scene {where}", check_unambiguous_range,
               scene.point_arrays[0], params)
        if self_calibrates:
            _named(f"experiment.reference {where}", check_unambiguous_range,
                   np.array([calibrates_on]), params)
        for i, itf in enumerate(interferers):
            _named(f"scene.interferers[{i}] {where}", check_interferer_band,
                   itf.freq_hz, params.carrier_hz, params.sample_rate_hz)
        _named(f"receiver.blank_width_s {where}", check_blank_width,
               params, rx_cfg.blank_width_s)
        blocks[chain] = _named(f"receiver.max_range_m {where}", block_shape,
                               params, pn, rx_cfg)
    calibration = None
    if consumes_cal and exp["calibration_file"] is not None:
        # compare_modes takes no file, so the run has the one chain
        calibration = read_calibration_csv(exp["calibration_file"],
                                           chains[mode][0], pn)
    gated = kind in (ExperimentKind.RCS_SWEEP_SERIES,
                     ExperimentKind.COMPARE_MODES)
    pipelines = {}
    try:
        if max(r * w for r, w in blocks.values()) * 16 \
                > np.iinfo(np.intp).max:
            raise MemoryError  # numpy would raise ValueError for this size
        for chain, (params, rx_cfg) in chains.items():
            pipelines[chain] = SweepPipeline(params, pn, rx_config=rx_cfg)
            _check_kept_window(pipelines[chain], calibrates_on, gated)
    except MemoryError:
        raise OutOfMemory(kind, blocks) from None

    return Scenario(
        raw=cfg, seed=seed, mode=mode, pipelines=pipelines,
        pn=pn, chips_per_bit=cfg["code"]["chips_per_bit"], scene=scene,
        experiment=kind, sweeps=exp["sweeps"], pol=Pol(exp["polarization"]),
        scan=scan, reference=reference,
        calibration=calibration, out_dir=Path(cfg["output"]["directory"]))


def _check_kept_window(pipeline: SweepPipeline, reference_m: float | None,
                       gated: bool) -> None:
    """The range window a pipeline keeps must hold a range bin and reach
    the reference the run calibrates on; the gate the run estimates in
    must hold one of its bins."""
    chain = f"({pipeline.params.mode.value} chain)"
    near, far = pipeline.rx_config.range_window_m
    window = f"the kept range window [{near:g}, {far:g}] m"
    if not pipeline.lags:
        # a blank that ends past max_range_m leaves no range to keep
        where = "blank_width_s" if near > far else "max_range_m"
        raise ScenarioError(f"receiver.{where} {chain}: {window} is empty")
    gate = pipeline.rx_config.gate_m if gated else None
    needed = {} if reference_m is None else {
        f"the calibration reference at {reference_m:g} m": (reference_m,
                                                            reference_m)}
    if gate is not None:
        needed[f"the gate [{gate[0]:g}, {gate[1]:g}] m"] = gate
    for what, (lo, hi) in needed.items():
        if hi < near or lo > far:
            where = "blank_width_s" if hi < near else "max_range_m"
            raise ScenarioError(
                f"receiver.{where} {chain}: {window} excludes {what}")
    if gate is not None:
        # the first kept bin at or past the gate's near edge
        ranges = pipeline.ranges_m
        i = int(np.searchsorted(ranges, gate[0]))
        if i == ranges.size or ranges[i] > gate[1]:
            nearest = " and ".join(f"{r:.7g}"
                                   for r in ranges[max(i - 1, 0):i + 1])
            raise ScenarioError(
                f"receiver.gate_min_m {chain}: the gate [{gate[0]:g}, "
                f"{gate[1]:g}] m holds no range bin; the nearest bins lie "
                f"at {nearest} m")


def waveform_fingerprint(params: RadarParams,
                         pn: PnSequence) -> dict[str, str]:
    """The waveform a calibration belongs to, as the text of its
    calibration.csv cells: the chain, the code's generator, the sample grid
    and the pulse parameters, empty where the chain has none.
    chips_per_bit is part of no waveform, so it is not among them."""
    nb = params.mode is Mode.NB_DSSS
    # taps=[5 2 0];seed=1: no comma, as a CSV cell
    generator = ";".join(f"{k}={v}" for k, v in pn.generator.items())
    values = {"mode": params.mode.value, "code_kind": pn.kind.value,
              "code_generator": generator.replace(",", ""),
              "sample_rate_hz": params.sample_rate_hz,
              "pri_samples": params.pri_samples,
              "pulse_samples": params.pulse_samples,
              "carrier_hz": params.carrier_hz,
              "chip_rate_hz": params.chip_rate_hz,
              "samples_per_chip": params.samples_per_chip,
              "pulse_width_s": params.pulse_width_s,
              "monocycle_width_s": None if nb else params.monocycle_width_s}
    return {name: "" if v is None else "%.12g" % v if isinstance(v, float)
            else str(v) for name, v in values.items()}


def write_calibration_csv(path: str | Path,
                          data: tuple[Calibration, dict[str, str]]) -> None:
    """Write a calibration and the waveform_fingerprint of the chain it was
    made on, as read_calibration_csv reads them: a header of Calibration's
    field names and the fingerprint's, and one row of their values, the
    calibration's as "%.12g"."""
    cal, waveform = data
    cells = {name: "%.12g" % v for name, v in vars(cal).items()} | waveform
    Path(path).write_text(",".join(cells) + "\n" + ",".join(cells.values())
                          + "\n", newline="")


def read_calibration_csv(path: str | Path, params: RadarParams,
                         pn: PnSequence) -> Calibration:
    """Read a calibration written by the calibrate experiment, for the
    chain of ``params`` and ``pn``: the file's waveform fingerprint must be
    that chain's."""
    path = Path(path)
    where = f"experiment.calibration_file: {path}"
    try:
        lines = path.read_text(encoding="utf-8").strip().splitlines()
    except OSError as exc:
        raise ScenarioError(f"{where}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"{where}: not a calibration file: not UTF-8") from exc
    names = [f.name for f in fields(Calibration)]
    header, row = ([line.split(",") for line in lines] + [[], []])[:2]
    if header[:len(names)] != names or len(row) != len(header):
        raise ScenarioError(f"{where}: not a calibration file")
    expected = waveform_fingerprint(params, pn)
    chain = f"the {params.mode.value} chain this run uses"
    if header[len(names):] != list(expected):
        raise ScenarioError(f"{where}: the file records no waveform "
                            f"fingerprint, so it cannot be checked against "
                            f"{chain}")
    cells = dict(zip(header, row))
    wrong = [k for k in expected if cells[k] != expected[k]]
    if wrong:
        # a chain of another mode differs in the fields that follow the mode
        shown = wrong[:1] if wrong[0] == "mode" else wrong
        raise ScenarioError(
            f"{where}: made on another waveform than {chain}: " + "; ".join(
                f"{k} {cells[k]} in the file, {expected[k]} here"
                for k in shown))
    try:
        return Calibration(*(float(cells[name]) for name in names))
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _set_path(data: dict, dotted: str, value) -> None:
    """Write ``value`` at a dotted key path, creating missing sections."""
    *parents, leaf = dotted.split(".")
    for key in parents:
        if data.get(key) is None:
            data[key] = {}
        data = data[key]
        if not isinstance(data, dict):
            raise ScenarioError(f"{key}: expected a mapping")
    data[leaf] = value


class _UniqueKeyLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """yaml.safe_load's loader, but a key repeated in a mapping is an error.

    It parses through libyaml where PyYAML ships it; the pure-Python
    parser builds the same data and marks errors at the same line and
    column, but for an unknown escape (README, "Scenario format").
    """

    def construct_mapping(self, node, deep=False):
        # a merge key's entries may be overridden; a list of the keys seen
        # leaves an unhashable key to the base class's check
        seen = []
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node, deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key!r}",
                        key_node.start_mark)
                seen.append(key)
        return super().construct_mapping(node, deep)


def _reader_mark(raw: bytes, exc: yaml.reader.ReaderError) -> tuple[int, int]:
    """The line and column, from 1, of a reader error in the file ``raw``.
    Its position counts characters of the decoded text where the
    pure-Python reader found a character YAML does not allow, and bytes
    of the file otherwise.  The file is UTF-16 after a UTF-16 byte-order
    mark, and UTF-8 without one; a byte-order mark takes no column."""
    codec = ("utf-16-le" if raw.startswith(codecs.BOM_UTF16_LE) else
             "utf-16-be" if raw.startswith(codecs.BOM_UTF16_BE) else "utf-8")
    if exc.encoding == "unicode":
        text = raw.decode(codec, "replace")[:exc.position]
    else:
        text = raw[:exc.position].decode(codec, "replace")
    lines = re.split("\r\n|[\n\r\x85\u2028\u2029]", text)
    return len(lines), len(lines[-1].replace("\ufeff", "")) + 1


def load_scenario(path: str | Path, overrides: dict | None = None) -> Scenario:
    """Parse and validate a scenario (or run-manifest) file.

    ``overrides`` maps dotted field paths (``"radar.mode"``) to values
    that replace the file's before the one validation pass, so the file
    need only be valid for the run they select.
    """
    path = Path(path)
    try:
        # the parser decodes the bytes, as YAML reads them
        raw = path.read_bytes()
        data = yaml.load(raw, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror}") from exc
    except yaml.reader.ReaderError as exc:
        line, column = _reader_mark(raw, exc)
        what = (f"unacceptable character #x{exc.character:04x}: "
                if exc.character >= 0 else "")
        raise ScenarioError(
            f"parse error at line {line}, column {column}: "
            f"{what}{exc.reason}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ScenarioError(
                f"parse error at line {mark.line + 1}, column {mark.column + 1}: "
                f"{getattr(exc, 'problem', exc)}") from exc
        raise ScenarioError(f"parse error: {exc}") from exc
    if data is None:
        raise ScenarioError(f"{path}: file is empty")
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    data = data.get("scenario", data)  # a run manifest nests the scenario
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    for dotted, value in (overrides or {}).items():
        _set_path(data, dotted, value)
    return resolve_scenario(data)
