"""Scenario files: schema, validation, and construction of run objects.

A scenario is one YAML file with sections mirroring the library modules
(radar, code, scene, receiver, experiment, output).  Loading fails fast:
parse errors carry line info, every field is checked against the schema,
unknown keys are rejected, and all defaults are materialized into the
returned scenario so no hidden default exists downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import yaml

from .channel import Interferer, InterfererKind, Pol, Scatterer, Scene, \
    TargetModel, check_unambiguous_range, gen_clutter
from .codes import PnSequence, gen_gold, gen_mseq
from .imaging import Calibration, ReceiverConfig
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


# --- schema -----------------------------------------------------------------

class _F:
    """Leaf field: type, default, bounds, choices."""

    def __init__(self, default, kind, minimum=None, maximum=None,
                 choices=None, nullable=False, exclusive_min=False):
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

_RX_OVERRIDE_KEYS = ("blank_width_s", "threshold_db", "max_range_m",
                     "gate_min_m", "gate_max_m", "margin_bins")

_SCHEMA = {
    "seed": _F(0, "int", minimum=0),
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
        "target": {"points": None},  # handled specially
        "clutter": {
            "count": _F(0, "int", minimum=0),
            "range_min_m": _F(2.0, "float", minimum=0.0, exclusive_min=True),
            "range_max_m": _F(8.0, "float", minimum=0.0, exclusive_min=True),
            "mean_sigma_m2": _F(0.01, "float", minimum=0.0),
            "seed": _F(None, "int", nullable=True, minimum=0),
        },
        "interferers": None,  # handled specially
        "noise_psd_w_per_hz": _F(0.0, "float", minimum=0.0),
        "direct_path_gain": _F(0.0, "float", minimum=0.0),
        "sweep_phase_jitter_rad": _F(0.0, "float", minimum=0.0),
    },
    "receiver": {
        "blank_width_s": _F(0.0, "float", minimum=0.0),
        "threshold_db": _F(10.0, "float", minimum=0.0, exclusive_min=True),
        "max_range_m": _F(None, "float", nullable=True, minimum=0.0,
                          exclusive_min=True),
        "gate_min_m": _F(None, "float", nullable=True, minimum=0.0),
        "gate_max_m": _F(None, "float", nullable=True, minimum=0.0),
        "margin_bins": _F(2, "int", minimum=0),
        "nb": None,   # optional per-mode overrides, handled specially
        "uwb": None,
    },
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


def _resolve_section(schema: dict, data, path: str) -> dict:
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
        if spec is None:
            out[key] = data.get(key)  # handled by the caller
        elif isinstance(spec, dict):
            out[key] = _resolve_section(spec, data.get(key), where)
        elif key in data:
            out[key] = spec.resolve(where, data[key])
        elif spec.default is None and not spec.nullable:
            raise ScenarioError(f"{where}: required field missing")
        else:
            out[key] = spec.default
    return out


def _resolve_list(raw, path: str, schema: dict, required: bool) -> list[dict]:
    """Resolve a list of mappings, each against ``schema``."""
    if raw is None:
        raw = []
    if not isinstance(raw, list):
        raise ScenarioError(f"{path}: expected a list")
    if required and not raw:
        raise ScenarioError(f"{path}: at least one entry is required")
    return [_resolve_section(schema, item, f"{path}[{i}]")
            for i, item in enumerate(raw)]


def _resolve_rx_overrides(raw, path: str, base: dict) -> dict:
    out = {k: base[k] for k in _RX_OVERRIDE_KEYS}
    if raw is None:
        return out
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    section = {k: v for k, v in _SCHEMA["receiver"].items()
               if k in _RX_OVERRIDE_KEYS}
    for key in raw:
        if key not in section:
            raise ScenarioError(f"{path}.{key}: unknown key")
    for key, value in raw.items():
        out[key] = section[key].resolve(f"{path}.{key}", value)
    return out


# --- resolved scenario ------------------------------------------------------

@dataclass
class Scenario:
    """Fully validated run description with constructed domain objects."""

    raw: dict
    source: str
    seed: int
    mode: Mode
    params_nb: RadarParams
    params_uwb: RadarParams
    pn: PnSequence
    chips_per_bit: int
    scene: Scene
    rx_nb: ReceiverConfig
    rx_uwb: ReceiverConfig
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
        return self.rx_nb if mode is Mode.NB_DSSS else self.rx_uwb

    def params_for(self, mode: Mode) -> RadarParams:
        return self.params_nb if mode is Mode.NB_DSSS else self.params_uwb


def _build_code(cfg: dict) -> PnSequence:
    family = cfg["family"]
    try:
        if family == "gold":
            if cfg["taps_b"] is None:
                raise ScenarioError(
                    "code.taps_b: required for the gold family")
            return gen_gold(cfg["taps"], cfg["taps_b"], cfg["gold_shift"])
        return gen_mseq(cfg["taps"], cfg["seed_state"])
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"code: {exc}") from exc


def _pol_matrix(point: dict) -> np.ndarray:
    return np.array([[point["pol_vv"], point["pol_vh"]],
                     [point["pol_hv"], point["pol_hh"]]], dtype=np.complex128)


def _build_rx_config(resolved: dict, params: RadarParams) -> ReceiverConfig:
    gate = None
    if (resolved["gate_min_m"] is None) != (resolved["gate_max_m"] is None):
        raise ScenarioError(
            "receiver.gate_min_m and receiver.gate_max_m must be set together")
    if resolved["gate_min_m"] is not None:
        if resolved["gate_max_m"] <= resolved["gate_min_m"]:
            raise ScenarioError(
                "receiver.gate_max_m must exceed receiver.gate_min_m")
        gate = (resolved["gate_min_m"], resolved["gate_max_m"])
    max_range = resolved["max_range_m"]
    if max_range is None:
        if params.mode is Mode.NB_DSSS:
            max_range = 100.0
        else:
            max_range = 0.9 * params.unambiguous_range_m
    return ReceiverConfig(blank_width_s=resolved["blank_width_s"],
                          threshold_db=resolved["threshold_db"],
                          max_range_m=max_range, gate_m=gate,
                          margin_bins=resolved["margin_bins"])


def resolve_scenario(data: dict, source: str = "<dict>") -> Scenario:
    """Validate a raw mapping and construct every domain object."""
    if isinstance(data, dict) and "scenario" in data:
        # run manifest: the scenario sits under its own key, metadata beside it
        data = data["scenario"]
    cfg = _resolve_section(_SCHEMA, data, "")
    target = cfg["scene"]["target"]
    target["points"] = _resolve_list(target["points"], "scene.target.points",
                                     _POINT_SCHEMA, required=True)
    cfg["scene"]["interferers"] = _resolve_list(
        cfg["scene"]["interferers"], "scene.interferers", _INTERFERER_SCHEMA,
        required=False)

    params = {}
    for name, build in (("nb", nb_params), ("uwb", uwb_params)):
        try:
            params[name] = build(**cfg["radar"][name])
        except ValueError as exc:
            raise ScenarioError(f"radar.{name}: {exc}") from exc
    params_nb, params_uwb = params["nb"], params["uwb"]

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

    try:
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
    except ValueError as exc:
        raise ScenarioError(f"scene: {exc}") from exc

    rx = cfg["receiver"]
    base = {k: rx[k] for k in _RX_OVERRIDE_KEYS}
    rx["nb"] = _resolve_rx_overrides(rx.get("nb"), "receiver.nb", base)
    rx["uwb"] = _resolve_rx_overrides(rx.get("uwb"), "receiver.uwb", base)
    rx_nb = _build_rx_config(rx["nb"], params_nb)
    rx_uwb = _build_rx_config(rx["uwb"], params_uwb)
    rx["nb"]["max_range_m"] = rx_nb.max_range_m
    rx["uwb"]["max_range_m"] = rx_uwb.max_range_m

    exp = cfg["experiment"]
    kind = ExperimentKind(exp["kind"])
    if kind in (ExperimentKind.RCS_SWEEP_SERIES,) and exp["sweeps"] < 2:
        raise ScenarioError(
            "experiment.sweeps: a sweep series needs at least 2 sweeps")
    if exp["azimuth_step_deg"] > exp["beamwidth_deg"]:
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
    reference = None
    if ref_cfg["sigma_m2"] is not None:
        reference = (ref_cfg["sigma_m2"], ref_cfg["range_m"])

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
    calibration = None
    if consumes_cal and exp["calibration_file"] is not None:
        calibration = read_calibration_csv(exp["calibration_file"])

    mode = Mode(cfg["radar"]["mode"])
    scenario = Scenario(
        raw=cfg, source=source, seed=seed, mode=mode, params_nb=params_nb,
        params_uwb=params_uwb, pn=pn,
        chips_per_bit=cfg["code"]["chips_per_bit"], scene=scene, rx_nb=rx_nb,
        rx_uwb=rx_uwb, experiment=kind, sweeps=exp["sweeps"],
        pol=Pol(exp["polarization"]),
        azimuth_step_deg=exp["azimuth_step_deg"],
        beamwidth_deg=exp["beamwidth_deg"],
        azimuth_span_deg=exp["azimuth_span_deg"], reference=reference,
        calibration=calibration,
        out_dir=Path(cfg["output"]["directory"]))

    # rules the sweep chain enforces, checked here for the chains this
    # experiment runs so that a violation exits before any synthesis
    chains = list(Mode) if kind is ExperimentKind.COMPARE_MODES else [mode]
    for chain in chains:
        params = scenario.params_for(chain)
        blank = scenario.rx_for(chain).blank_width_s
        try:
            if blank > 0:
                check_blank_width(params, blank)
        except ValueError as exc:
            raise ScenarioError(f"receiver.blank_width_s ({chain.value} "
                                f"chain): {exc}") from exc
        try:
            check_unambiguous_range(scene.all_points, params)
        except ValueError as exc:
            raise ScenarioError(f"scene ({chain.value} chain): {exc}") from exc
    return scenario


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


def load_scenario(path: str | Path, overrides: dict | None = None) -> Scenario:
    """Parse and validate a scenario (or run-manifest) file.

    ``overrides`` maps dotted field paths (``"radar.mode"``) to values
    that replace the file's before the one validation pass, so the file
    need only be valid for the run they select.
    """
    path = Path(path)
    try:
        with open(path, "r") as fh:
            data = yaml.safe_load(fh)
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
    if overrides:
        body = data.get("scenario", data)  # a run manifest nests the scenario
        if not isinstance(body, dict):
            raise ScenarioError(f"{path}: scenario must be a mapping")
        for dotted, value in overrides.items():
            _set_path(body, dotted, value)
    return resolve_scenario(data, source=str(path))
