"""Scenario files: schema, validation, and construction of run objects.

A scenario is one YAML file with sections mirroring the library modules
(radar, code, scene, receiver, experiment, output).  Loading fails fast:
parse errors carry line info, every field is checked against the schema,
unknown keys are rejected, and all defaults are materialized into the
returned scenario so no hidden default exists downstream.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import yaml

from .channel import Interferer, InterfererKind, Pol, Scatterer, Scene, \
    TargetModel, check_interferer_band, check_unambiguous_range, gen_clutter
from .codes import PnSequence, gen_gold, gen_mseq
from .imaging import Calibration, ReceiverConfig, SweepPipeline, \
    sweep_samples
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
    """Memory ran out; the message gives each chain's sweep stream length."""

    def __init__(self, kind: ExperimentKind, streams: dict[Mode, int]):
        super().__init__("out of memory: " + "; ".join(
            f"the {mode.value} sweep stream holds {n:,} complex samples "
            f"({n * 16 / 2 ** 20:,.0f} MiB)" for mode, n in streams.items()))
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

    def __init__(self, schema: dict, required: bool = False):
        self.schema = schema
        self.required = required

    def resolve(self, path: str, value) -> list[dict]:
        if value is None:
            value = []
        if not isinstance(value, list):
            raise ScenarioError(f"{path}: expected a list")
        if self.required and not value:
            raise ScenarioError(f"{path}: at least one entry is required")
        return [_resolve_section(self.schema, item, f"{path}[{i}]")
                for i, item in enumerate(value)]


_POINT_SCHEMA = {
    "sigma_m2": _F(None, "float", minimum=0.0),
    "range_m": _F(None, "float", minimum=0.0, exclusive_min=True),
    "cross_range_m": _F(0.0, "float"),
    "pol_vv": _F(1.0, "float"),
    "pol_hh": _F(1.0, "float"),
    "pol_vh": _F(0.0, "float"),
    "pol_hv": _F(0.0, "float"),
}

_INTERFERER_SCHEMA = {
    "freq_hz": _F(None, "float"),
    "power_w": _F(None, "float", minimum=0.0),
    "kind": _F("cw", "str", choices={"cw", "qpsk"}),
}

# receiver.nb and receiver.uwb share the receiver section's fields, so a
# field one of them leaves out takes the receiver section's value.
_RX_SCHEMA = {
    "blank_width_s": _F(ReceiverConfig.blank_width_s, "float", minimum=0.0),
    "threshold_db": _F(ReceiverConfig.threshold_db, "float", minimum=0.0,
                       exclusive_min=True),
    "max_range_m": _F(None, "float", nullable=True, minimum=0.0,
                      exclusive_min=True),
    "gate_min_m": _F(None, "float", nullable=True, minimum=0.0),
    "gate_max_m": _F(None, "float", nullable=True, minimum=0.0),
    "margin_bins": _F(ReceiverConfig.margin_bins, "int", minimum=0),
}

_SCHEMA = {
    "seed": _F(0, "int", minimum=0, maximum=2 ** 64 - 1),
    "radar": {
        "mode": _F("nb", "str", choices={"nb", "uwb"}),
        "nb": {
            "carrier_hz": _F(1.0e9, "float"),
            "chip_rate_hz": _F(10.0e6, "float", minimum=0.0, exclusive_min=True),
            "samples_per_chip": _F(8, "int", minimum=2),
            "pulse_width_s": _F(10.0e-6, "float", minimum=0.0, exclusive_min=True),
            "pri_s": _F(100.0e-6, "float", minimum=0.0, exclusive_min=True),
        },
        "uwb": {
            "monocycle_width_s": _F(0.33e-9, "float", minimum=0.0,
                                    exclusive_min=True),
            "pri_s": _F(100.0e-9, "float", minimum=0.0, exclusive_min=True),
            "sample_rate_hz": _F(100.0e9, "float", minimum=0.0,
                                 exclusive_min=True),
        },
    },
    "code": {
        "family": _F("msequence", "str", choices={"msequence", "gold"}),
        "taps": _F([7, 1, 0], "intlist"),
        "taps_b": _F(None, "intlist", nullable=True),
        "gold_shift": _F(0, "int", minimum=0),
        "seed_state": _F(1, "int", minimum=1),
        "chips_per_bit": _F(127, "int", minimum=1),
    },
    "scene": {
        "target": {"points": _List(_POINT_SCHEMA, required=True)},
        "clutter": {
            "count": _F(0, "int", minimum=0),
            "range_min_m": _F(2.0, "float", minimum=0.0, exclusive_min=True),
            "range_max_m": _F(8.0, "float", minimum=0.0, exclusive_min=True),
            "mean_sigma_m2": _F(0.01, "float", minimum=0.0),
            "seed": _F(None, "int", nullable=True, minimum=0),
        },
        "interferers": _List(_INTERFERER_SCHEMA),
        "noise_psd_w_per_hz": _F(0.0, "float", minimum=0.0),
        "direct_path_gain": _F(0.0, "float", minimum=0.0),
        "sweep_phase_jitter_rad": _F(0.0, "float", minimum=0.0),
    },
    "receiver": {**_RX_SCHEMA, "nb": _RX_SCHEMA, "uwb": _RX_SCHEMA},
    "experiment": {
        "kind": _F("profile", "str",
                   choices={k.value for k in ExperimentKind}),
        "sweeps": _F(10, "int", minimum=1),
        "polarization": _F("vv", "str", choices={"vv", "hh", "vh", "hv"}),
        "azimuth_step_deg": _F(1.0, "float", minimum=0.0, exclusive_min=True),
        "beamwidth_deg": _F(2.0, "float", minimum=0.0, exclusive_min=True),
        "azimuth_span_deg": _F(None, "float", nullable=True, minimum=0.0,
                               exclusive_min=True),
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
    azimuth_step_deg: float
    beamwidth_deg: float
    azimuth_span_deg: float | None
    reference: tuple[float, float] | None
    calibration: Calibration | None  # read from experiment.calibration_file
    out_dir: Path

    def rx_for(self, mode: Mode) -> ReceiverConfig:
        return self.pipelines[mode].rx_config

    def params_for(self, mode: Mode) -> RadarParams:
        return self.pipelines[mode].params


@contextmanager
def _naming(where: str):
    """Re-raise a model's ValueError as a ScenarioError naming ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _build_code(cfg: dict) -> PnSequence:
    gold = cfg["family"] == "gold"
    if gold and cfg["taps_b"] is None:
        raise ScenarioError("code.taps_b: required for the gold family")
    with _naming("code"):
        if gold:
            return gen_gold(cfg["taps"], cfg["taps_b"], cfg["gold_shift"])
        return gen_mseq(cfg["taps"], cfg["seed_state"])


def _pol_matrix(point: dict) -> np.ndarray:
    return np.array([[point["pol_vv"], point["pol_vh"]],
                     [point["pol_hv"], point["pol_hh"]]], dtype=np.complex128)


def _gate(section: dict, where: str) -> tuple[float, float] | None:
    """The estimation gate a receiver section sets, if any; a broken gate
    rule is reported against ``where``, the section's path."""
    lo, hi = section["gate_min_m"], section["gate_max_m"]
    if (lo is None) != (hi is None):
        raise ScenarioError(
            f"{where}.gate_min_m and {where}.gate_max_m must be set together")
    if lo is not None and hi <= lo:
        raise ScenarioError(f"{where}.gate_max_m must exceed {where}.gate_min_m")
    return None if lo is None else (lo, hi)


def _build_rx_config(resolved: dict, params: RadarParams) -> ReceiverConfig:
    """The chain's receiver; a null max_range_m is set to the chain's
    default in ``resolved``, so the manifest carries the window used."""
    gate = _gate(resolved, f"receiver.{params.mode.value}")
    if resolved["max_range_m"] is None:
        resolved["max_range_m"] = (100.0 if params.mode is Mode.NB_DSSS
                                   else 0.9 * params.unambiguous_range_m)
    return ReceiverConfig(blank_width_s=resolved["blank_width_s"],
                          threshold_db=resolved["threshold_db"],
                          max_range_m=resolved["max_range_m"], gate_m=gate,
                          margin_bins=resolved["margin_bins"])


def resolve_scenario(data: dict) -> Scenario:
    """Validate a raw scenario mapping and construct every domain object."""
    cfg = _resolve_section(_SCHEMA, data, "")

    pn = _build_code(cfg["code"])
    if cfg["code"]["chips_per_bit"] > pn.length:
        raise ScenarioError(
            f"code.chips_per_bit ({cfg['code']['chips_per_bit']}) exceeds the "
            f"code length ({pn.length})")

    seed = cfg["seed"]
    clut_cfg = cfg["scene"]["clutter"]
    # a null clutter seed stays null so that --seed redraws the clutter too
    clutter_seed = seed if clut_cfg["seed"] is None else clut_cfg["seed"]
    if clut_cfg["range_max_m"] < clut_cfg["range_min_m"]:
        raise ScenarioError(
            "scene.clutter.range_max_m must be >= scene.clutter.range_min_m")
    clutter = gen_clutter((clut_cfg["range_min_m"], clut_cfg["range_max_m"]),
                          clut_cfg["count"], clut_cfg["mean_sigma_m2"],
                          clutter_seed) if clut_cfg["count"] else ()

    with _naming("scene"):
        points = tuple(
            Scatterer(sigma_m2=p["sigma_m2"], range_m=p["range_m"],
                      cross_range_m=p["cross_range_m"],
                      pol_matrix=_pol_matrix(p))
            for p in cfg["scene"]["target"]["points"])
        interferers = tuple(
            Interferer(freq_hz=i["freq_hz"], power_w=i["power_w"],
                       kind=InterfererKind.CW if i["kind"] == "cw"
                       else InterfererKind.QPSK_MODULATED)
            for i in cfg["scene"]["interferers"])
        scene = Scene(target=TargetModel(points=points), clutter=clutter,
                      interferers=interferers,
                      noise_psd=cfg["scene"]["noise_psd_w_per_hz"],
                      direct_path_gain=cfg["scene"]["direct_path_gain"],
                      sweep_phase_jitter_rad=cfg["scene"]["sweep_phase_jitter_rad"],
                      rng_seed=seed)

    _gate(cfg["receiver"], "receiver")

    exp = cfg["experiment"]
    kind = ExperimentKind(exp["kind"])
    if kind is ExperimentKind.RCS_SWEEP_SERIES and exp["sweeps"] < 2:
        raise ScenarioError(
            "experiment.sweeps: a sweep series needs at least 2 sweeps")
    if kind is ExperimentKind.SCAN_IMAGE \
            and exp["azimuth_step_deg"] > exp["beamwidth_deg"]:
        raise ScenarioError(
            "experiment.azimuth_step_deg must not exceed experiment.beamwidth_deg")

    ref_cfg = exp["reference"]
    if (ref_cfg["sigma_m2"] is None) != (ref_cfg["range_m"] is None):
        raise ScenarioError(
            "experiment.reference: sigma_m2 and range_m must be set together")
    if ref_cfg["sigma_m2"] is None and len(points) == 1:
        # default reference: the scene's single target point
        ref_cfg["sigma_m2"] = points[0].sigma_m2
        ref_cfg["range_m"] = points[0].range_m
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
    calibration = None
    if consumes_cal and exp["calibration_file"] is not None:
        calibration = read_calibration_csv(exp["calibration_file"])

    # check each chain the run uses, then build its pipeline and check the
    # window that pipeline keeps, all before synthesis
    mode = Mode(cfg["radar"]["mode"])
    chains = {}
    for chain in (list(Mode) if kind is ExperimentKind.COMPARE_MODES
                  else [mode]):
        with _naming(f"radar.{chain.value}"):
            build = nb_params if chain is Mode.NB_DSSS else uwb_params
            params = build(**cfg["radar"][chain.value])
        chains[chain] = params, _build_rx_config(cfg["receiver"][chain.value],
                                                 params)
        where = f"({chain.value} chain)"
        with _naming(f"scene {where}"):
            check_unambiguous_range(scene.point_arrays[0], params)
        for i, itf in enumerate(interferers):
            with _naming(f"scene.interferers[{i}] {where}"):
                check_interferer_band(itf.freq_hz, params.carrier_hz,
                                      params.sample_rate_hz)
    self_calibrates = kind is ExperimentKind.CALIBRATE or (
        consumes_cal and calibration is None)
    calibrates_on = reference[1] if self_calibrates else None
    gated = kind in (ExperimentKind.RCS_SWEEP_SERIES,
                     ExperimentKind.COMPARE_MODES)
    streams = {chain: sweep_samples(params, pn, rx_cfg.max_range_m)
               for chain, (params, rx_cfg) in chains.items()}
    pipelines = {}
    try:
        if max(streams.values()) * 16 > np.iinfo(np.intp).max:
            raise MemoryError  # numpy would raise ValueError for this size
        for chain, (params, rx_cfg) in chains.items():
            with _naming(f"receiver.blank_width_s ({chain.value} chain)"):
                pipelines[chain] = SweepPipeline(
                    params, pn, cfg["code"]["chips_per_bit"], rx_cfg)
            _check_kept_window(pipelines[chain], calibrates_on, gated)
    except MemoryError:
        raise OutOfMemory(kind, streams) from None

    return Scenario(
        raw=cfg, seed=seed, mode=mode, pipelines=pipelines,
        pn=pn, chips_per_bit=cfg["code"]["chips_per_bit"], scene=scene,
        experiment=kind, sweeps=exp["sweeps"], pol=Pol(exp["polarization"]),
        azimuth_step_deg=exp["azimuth_step_deg"],
        beamwidth_deg=exp["beamwidth_deg"],
        azimuth_span_deg=exp["azimuth_span_deg"], reference=reference,
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
        raise ScenarioError(f"receiver.max_range_m {chain}: {window} is empty")
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


def read_calibration_csv(path: str | Path) -> Calibration:
    """Read a calibration written by the calibrate experiment."""
    path = Path(path)
    where = f"experiment.calibration_file: {path}"
    try:
        lines = path.read_text().strip().splitlines()
    except OSError as exc:
        raise ScenarioError(f"{where}: {exc.strerror}") from exc
    if len(lines) < 2 or lines[0] != "gain,reference_sigma_m2,reference_range_m":
        raise ScenarioError(f"{where}: not a calibration file")
    try:
        gain, sigma, rng_m = (float(v) for v in lines[1].split(","))
        return Calibration(gain=gain, reference_sigma_m2=sigma,
                           reference_range_m=rng_m)
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


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.safe_load's loader, but a key repeated in a mapping is an error."""

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


def load_scenario(path: str | Path, overrides: dict | None = None) -> Scenario:
    """Parse and validate a scenario (or run-manifest) file.

    ``overrides`` maps dotted field paths (``"radar.mode"``) to values
    that replace the file's before the one validation pass, so the file
    need only be valid for the run they select.
    """
    path = Path(path)
    try:
        with open(path, "r") as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror}") from exc
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
