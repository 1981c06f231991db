"""Open-field propagation: point scatterers, clutter, interference, noise.

A scene is a set of discrete scattering centers plus environmental
impairments.  Propagation is a pure function of (tx, scene, params, pol,
sweep_index); every random quantity comes from an RNG stream derived
from (scene seed, sweep index, purpose), so sweeps are reproducible and
independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .waveform import RadarParams, SampleStream, SPEED_OF_LIGHT

# RNG purpose tags (third entry of the derived seed sequence).
_RNG_PHASE = 1
_RNG_NOISE = 2
_RNG_INTERFERER = 3

_POL_TOL = 1e-9


class Pol(Enum):
    VV = "vv"
    HH = "hh"
    VH = "vh"
    HV = "hv"


# Row = transmit polarization, column = receive polarization.
_POL_INDEX = {Pol.VV: (0, 0), Pol.VH: (0, 1), Pol.HV: (1, 0), Pol.HH: (1, 1)}


def identity_pol_matrix() -> np.ndarray:
    """Co-polarized scatterer: VV = HH = 1, no depolarization."""
    return np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class Scatterer:
    """Discrete scattering center.

    ``sigma_m2`` is the scattering cross section, ``range_m`` the radar
    distance, ``cross_range_m`` the lateral offset (used only for beam
    weighting), and ``pol_matrix`` the 2x2 complex scattering matrix
    [[S_vv, S_vh], [S_hv, S_hh]] with its largest entry normalized to 1.
    """

    sigma_m2: float
    range_m: float
    cross_range_m: float = 0.0
    pol_matrix: np.ndarray = field(default_factory=identity_pol_matrix)

    def __post_init__(self):
        if self.sigma_m2 < 0:
            raise ValueError(f"sigma_m2 must be >= 0, got {self.sigma_m2}")
        if self.range_m <= 0:
            raise ValueError(f"range_m must be > 0, got {self.range_m}")
        mat = np.asarray(self.pol_matrix, dtype=np.complex128)
        if mat.shape != (2, 2):
            raise ValueError("pol_matrix must be 2x2")
        peak = np.max(np.abs(mat))
        if peak > 1.0 + _POL_TOL:
            raise ValueError("pol_matrix entries must not exceed unit magnitude")
        if abs(peak - 1.0) > _POL_TOL:
            raise ValueError("largest pol_matrix entry must be normalized to 1")
        mat.flags.writeable = False
        object.__setattr__(self, "pol_matrix", mat)

    @property
    def azimuth_rad(self) -> float:
        ratio = np.clip(self.cross_range_m / self.range_m, -1.0, 1.0)
        return float(np.arcsin(ratio))


@dataclass(frozen=True)
class TargetModel:
    """Target as a set of scattering centers; extent is the range spread."""

    points: tuple[Scatterer, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("target must contain at least one point")
        object.__setattr__(self, "points", pts)

    @property
    def extent_m(self) -> float:
        ranges = [p.range_m for p in self.points]
        return max(ranges) - min(ranges)

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([p.sigma_m2 for p in self.points])

    @property
    def ranges(self) -> np.ndarray:
        return np.array([p.range_m for p in self.points])


class InterfererKind(Enum):
    CW = "cw"
    QPSK_MODULATED = "qpsk"


@dataclass(frozen=True)
class Interferer:
    freq_hz: float
    power_w: float
    kind: InterfererKind = InterfererKind.CW

    def __post_init__(self):
        if self.power_w < 0:
            raise ValueError("interferer power must be >= 0")


@dataclass(frozen=True)
class Scene:
    """Target plus environment: clutter, interferers, noise, leakage."""

    target: TargetModel
    clutter: tuple[Scatterer, ...] = ()
    interferers: tuple[Interferer, ...] = ()
    noise_psd: float = 0.0  # W/Hz
    direct_path_gain: float = 0.0  # linear amplitude of zero-range leakage
    sweep_phase_jitter_rad: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.noise_psd < 0:
            raise ValueError("noise_psd must be >= 0")
        if self.direct_path_gain < 0:
            raise ValueError("direct_path_gain must be >= 0")
        if self.sweep_phase_jitter_rad < 0:
            raise ValueError("sweep_phase_jitter_rad must be >= 0")
        object.__setattr__(self, "clutter", tuple(self.clutter))
        object.__setattr__(self, "interferers", tuple(self.interferers))

    @property
    def all_points(self) -> tuple[Scatterer, ...]:
        return self.target.points + self.clutter


def _rng(seed: int, sweep_index: int, purpose: int, extra: int | None = None):
    key = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(sweep_index), purpose]
    if extra is not None:
        key.append(extra)
    return np.random.default_rng(key)


def scattering_amplitude(point: Scatterer, pol: Pol) -> complex:
    """Complex scattered amplitude sqrt(sigma) * S_pq for a tx/rx pair."""
    r, c = _POL_INDEX[pol]
    return complex(np.sqrt(point.sigma_m2) * point.pol_matrix[r, c])


def gen_clutter(extent_m: tuple[float, float], count: int,
                mean_sigma_m2: float, seed: int) -> tuple[Scatterer, ...]:
    """Draw clutter points: uniform ranges over the window, exponential
    cross sections, uniform phase folded into the scattering matrix."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if mean_sigma_m2 < 0:
        raise ValueError(f"mean_sigma_m2 must be >= 0, got {mean_sigma_m2}")
    lo, hi = float(extent_m[0]), float(extent_m[1])
    if not (0 < lo <= hi):
        raise ValueError(f"invalid clutter range window ({lo}, {hi})")
    rng = np.random.default_rng(int(seed))
    ranges = rng.uniform(lo, hi, size=count)
    sigmas = rng.exponential(mean_sigma_m2, size=count) if mean_sigma_m2 > 0 \
        else np.zeros(count)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    points = []
    for r, s, ph in zip(ranges, sigmas, phases):
        mat = np.exp(1j * ph) * np.ones((2, 2), dtype=np.complex128)
        points.append(Scatterer(sigma_m2=float(s), range_m=float(r),
                                pol_matrix=mat))
    return tuple(points)


def _interferer_samples(itf: Interferer, n: int, fs: float, carrier_hz: float,
                        rng, symbol_rate_hz: float = 1e6) -> np.ndarray:
    """Baseband samples of one interferer at its carrier offset."""
    df = itf.freq_hz - carrier_hz
    if abs(df) >= fs / 2.0:
        raise ValueError(
            f"interferer at {itf.freq_hz:g} Hz is outside the Nyquist band "
            f"around {carrier_hz:g} Hz (fs {fs:g})")
    if itf.power_w == 0.0:
        return np.zeros(n, dtype=np.complex128)
    amp = np.sqrt(itf.power_w)
    t = np.arange(n) / fs
    tone = np.exp(2j * np.pi * df * t)
    if itf.kind is InterfererKind.CW:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return amp * np.exp(1j * phase) * tone
    # random QPSK stream, rectangular chips at the symbol rate
    sps = max(1, int(round(fs / symbol_rate_hz)))
    n_sym = -(-n // sps)
    points = (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0))
    symbols = points[rng.integers(0, 4, size=n_sym)]
    chips = np.repeat(symbols, sps)[:n]
    return amp * chips * tone


def add_interferer(s: SampleStream, freq_hz: float, power_w: float,
                   kind: InterfererKind = InterfererKind.CW,
                   seed: int = 0) -> SampleStream:
    """Add a CW tone or a random-QPSK emitter at an absolute frequency."""
    itf = Interferer(freq_hz=freq_hz, power_w=power_w, kind=kind)
    rng = np.random.default_rng(int(seed))
    extra = _interferer_samples(itf, len(s), s.sample_rate, s.carrier_hz, rng)
    return s.with_samples(s.samples + extra)


def check_unambiguous_range(points: tuple[Scatterer, ...],
                            params: RadarParams) -> None:
    """Every scatterer must lie within the unambiguous range c*PRI/2."""
    r_max = params.unambiguous_range_m
    for k, p in enumerate(points):
        if p.range_m > r_max:
            raise ValueError(
                f"scatterer {k} at {p.range_m:g} m exceeds the unambiguous "
                f"range {r_max:g} m set by the PRI")


def propagate(tx: SampleStream, scene: Scene, params: RadarParams, pol: Pol,
              sweep_index: int = 0) -> SampleStream:
    """Propagate a transmit stream through the scene for one sweep.

    Each scattering center contributes a delayed copy of tx scaled by
    sqrt(sigma) * S_pq / R^2 (absolute link constants are absorbed by
    calibration), rotated by the two-way carrier phase, and perturbed by
    a per-point phase drawn fresh every sweep when jitter is enabled.
    Delays round to the nearest sample, and each echo is added only over
    the nonzero samples of tx.  Direct-path leakage, external interferers
    and thermal noise are added on top.
    """
    if tx.duration < params.pri_s:
        raise ValueError("transmit stream must cover at least one PRI")
    fs = tx.sample_rate
    n = len(tx)
    points = scene.all_points
    check_unambiguous_range(points, params)

    out = np.zeros(n, dtype=np.complex128)
    if scene.direct_path_gain:
        out += scene.direct_path_gain * tx.samples

    if scene.sweep_phase_jitter_rad > 0 and points:
        rng = _rng(scene.rng_seed, sweep_index, _RNG_PHASE)
        jitter = rng.normal(0.0, scene.sweep_phase_jitter_rad, size=len(points))
    else:
        jitter = np.zeros(len(points))

    support = np.flatnonzero(tx.samples != 0)
    active = tx.samples[support]
    for k, p in enumerate(points):
        amp = scattering_amplitude(p, pol)
        if amp == 0:
            continue
        delay_s = 2.0 * p.range_m / SPEED_OF_LIGHT
        d = int(round(delay_s * fs))
        phase = -2.0 * np.pi * params.carrier_hz * delay_s + jitter[k]
        a = amp / p.range_m ** 2 * np.exp(1j * phase)
        m = int(np.searchsorted(support, n - d))
        out[support[:m] + d] += a * active[:m]

    for i, itf in enumerate(scene.interferers):
        rng = _rng(scene.rng_seed, sweep_index, _RNG_INTERFERER, i)
        out += _interferer_samples(itf, n, fs, tx.carrier_hz, rng)

    if scene.noise_psd > 0:
        rng = _rng(scene.rng_seed, sweep_index, _RNG_NOISE)
        sigma2 = scene.noise_psd * fs
        scale = np.sqrt(sigma2 / 2.0)
        # the real rail is drawn first, then the imaginary one
        out.real += scale * rng.standard_normal(n)
        out.imag += scale * rng.standard_normal(n)

    return SampleStream(out, fs, tx.carrier_hz)
