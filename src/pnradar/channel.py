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
from functools import cached_property, lru_cache

import numpy as np

from .waveform import RadarParams, SampleStream, SPEED_OF_LIGHT

# RNG purpose tags (third entry of the derived seed sequence).
_RNG_PHASE = 1
_RNG_NOISE = 2
_RNG_INTERFERER = 3

_POL_TOL = 1e-9

# Noise is drawn this many samples at a time into one scratch array.
_NOISE_CHUNK = 1 << 14


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
    """Target as a set of scattering centers."""

    points: tuple[Scatterer, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("target must contain at least one point")
        object.__setattr__(self, "points", pts)


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

    @cached_property
    def point_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(range, sqrt(sigma), 2x2 scattering matrix) of every point, in
        all_points order.  Built once: a series propagates the same scene
        every sweep, so the arrays are read-only."""
        points = self.all_points
        arrays = (np.array([p.range_m for p in points], dtype=np.float64),
                  np.sqrt(np.array([p.sigma_m2 for p in points],
                                   dtype=np.float64)),
                  np.array([p.pol_matrix for p in points],
                           dtype=np.complex128).reshape(-1, 2, 2))
        for a in arrays:
            a.flags.writeable = False
        return arrays


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


@lru_cache(maxsize=8)
def _tone(df: float, n: int, fs: float) -> np.ndarray:
    """exp(2j*pi*df*t) over n samples at rate fs.

    Memoized: every sweep of a scene adds the same carrier-offset tone
    per interferer, so the returned array is read-only.
    """
    t = np.arange(n) / fs
    tone = np.exp(2j * np.pi * df * t)
    tone.flags.writeable = False
    return tone


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
    tone = _tone(df, n, fs)
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


def _check_ranges(ranges: np.ndarray, params: RadarParams) -> None:
    r_max = params.unambiguous_range_m
    far = np.flatnonzero(ranges > r_max)
    if far.size:
        k = int(far[0])
        raise ValueError(
            f"scatterer {k} at {ranges[k]:g} m exceeds the unambiguous "
            f"range {r_max:g} m set by the PRI")


def check_unambiguous_range(points: tuple[Scatterer, ...],
                            params: RadarParams) -> None:
    """Every scatterer must lie within the unambiguous range c*PRI/2."""
    _check_ranges(np.array([p.range_m for p in points], dtype=np.float64),
                  params)


def _echoes(scene: Scene, pol: Pol, params: RadarParams, fs: float,
            jitter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample delay and complex amplitude of every point's echo:
    round(2R/c * fs) and sqrt(sigma) * S_pq / R^2 * exp(j(-2*pi*f_c*tau
    + jitter)).

    Each amplitude rounds exactly as the scalar expression
    ``scattering_amplitude(p, pol) / R**2 * np.exp(1j * phase)``: R**2
    goes through libm pow (``float_power``), the division by R**2 is
    taken part by part, and the complex product is written out, because
    numpy's vectorized complex multiply rounds differently from its
    scalar one.
    """
    ranges, root, pol_matrices = scene.point_arrays
    r, c = _POL_INDEX[pol]
    s_pq = pol_matrices[:, r, c]
    r2 = np.float_power(ranges, 2.0)
    re = root * s_pq.real / r2
    im = root * s_pq.imag / r2
    delay_s = 2.0 * ranges / SPEED_OF_LIGHT
    rot = np.exp(1j * (-2.0 * np.pi * params.carrier_hz * delay_s + jitter))
    a = np.empty(ranges.size, dtype=np.complex128)
    a.real = re * rot.real - im * rot.imag
    a.imag = re * rot.imag + im * rot.real
    # np.rint rounds half to even, as round() does
    return np.rint(delay_s * fs).astype(np.int64), a


def propagate(tx: SampleStream, scene: Scene, params: RadarParams, pol: Pol,
              sweep_index: int = 0, out: np.ndarray | None = None
              ) -> SampleStream:
    """Propagate a transmit stream through the scene for one sweep.

    Each scattering center contributes a delayed copy of tx scaled by
    sqrt(sigma) * S_pq / R^2 (absolute link constants are absorbed by
    calibration), rotated by the two-way carrier phase, and perturbed by
    a per-point phase drawn fresh every sweep when jitter is enabled.
    Delays round to the nearest sample (half to even).  The amplitudes
    of points that share a delay are summed in point order, and each
    distinct delay adds one scaled copy of tx, over its nonzero samples
    only, in order of first appearance; points of zero scattering
    amplitude are skipped.  Direct-path leakage, external interferers
    and thermal noise are added on top.

    ``out``, a writable complex array of len(tx), is overwritten with the
    received samples and the returned stream is a read-only view of it,
    so a caller can reuse one buffer for every sweep; the stream is valid
    only until the buffer is written again.
    """
    if tx.duration < params.pri_s:
        raise ValueError("transmit stream must cover at least one PRI")
    fs = tx.sample_rate
    n = len(tx)
    if out is None:
        out = np.zeros(n, dtype=np.complex128)
    elif out.shape != (n,) or out.dtype != np.complex128:
        raise ValueError(f"out must be a complex128 array of {n} samples")
    else:
        out.fill(0.0)
    ranges = scene.point_arrays[0]
    _check_ranges(ranges, params)
    n_points = ranges.size

    # tx is zero off its support: direct path and echoes are added there only
    support = tx.support
    active = tx.samples[support]
    if scene.direct_path_gain:
        out[support] += scene.direct_path_gain * active

    if scene.sweep_phase_jitter_rad > 0 and n_points:
        rng = _rng(scene.rng_seed, sweep_index, _RNG_PHASE)
        jitter = rng.normal(0.0, scene.sweep_phase_jitter_rad, size=n_points)
    else:
        jitter = np.zeros(n_points)

    delays, a = _echoes(scene, pol, params, fs, jitter)
    live = np.flatnonzero(a)
    distinct, first, which = np.unique(delays[live], return_index=True,
                                       return_inverse=True)
    h = np.zeros(distinct.size, dtype=np.complex128)
    np.add.at(h, which, a[live])
    for j in np.argsort(first):
        d = int(distinct[j])
        m = int(np.searchsorted(support, n - d))
        out[support[:m] + d] += h[j] * active[:m]

    for i, itf in enumerate(scene.interferers):
        rng = _rng(scene.rng_seed, sweep_index, _RNG_INTERFERER, i)
        out += _interferer_samples(itf, n, fs, tx.carrier_hz, rng)

    if scene.noise_psd > 0:
        rng = _rng(scene.rng_seed, sweep_index, _RNG_NOISE)
        sigma2 = scene.noise_psd * fs
        scale = np.sqrt(sigma2 / 2.0)
        # the real rail is drawn first, then the imaginary one, a chunk at
        # a time; a generator's draws continue across calls, so the chunks
        # hold exactly the values of one whole-rail draw
        z = np.empty(min(n, _NOISE_CHUNK))
        for rail in (out.real, out.imag):
            for start in range(0, n, z.size):
                part = z[:min(z.size, n - start)]
                rng.standard_normal(out=part)
                part *= scale
                rail[start:start + part.size] += part

    return SampleStream(out[:], fs, tx.carrier_hz)
