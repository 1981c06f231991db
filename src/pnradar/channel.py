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
from typing import NamedTuple

import numpy as np

from .waveform import RadarParams, SampleStream, SPEED_OF_LIGHT

# RNG purpose tags (third entry of the derived seed sequence).
_RNG_PHASE = 1
_RNG_NOISE = 2
_RNG_INTERFERER = 3

_POL_TOL = 1e-9

# Noise is drawn this many samples at a time into one scratch array.
_NOISE_CHUNK = 1 << 14

# A QPSK interferer keys a new symbol at this rate.
_QPSK_SYMBOL_RATE_HZ = 1e6


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

    @cached_property
    def _echo_memo(self) -> dict:
        """Echo geometry by (pol, sample rate, carrier), filled by
        _echo_geometry.  Not a field, so equality, repr and
        dataclasses.replace do not see it."""
        return {}


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


def check_interferer_band(freq_hz: float, carrier_hz: float,
                          fs: float) -> None:
    """An interferer must lie within the Nyquist band carrier +- fs/2 of
    the stream that receives it."""
    if abs(freq_hz - carrier_hz) >= fs / 2.0:
        raise ValueError(
            f"interferer at {freq_hz:g} Hz is outside the Nyquist band "
            f"around {carrier_hz:g} Hz (fs {fs:g})")


def _interferer_samples(itf: Interferer, n: int, fs: float, carrier_hz: float,
                        rng, stop: int | None = None) -> np.ndarray:
    """Baseband samples of one interferer at its carrier offset: the
    first ``stop`` (default all) of the n samples of a stream."""
    check_interferer_band(itf.freq_hz, carrier_hz, fs)
    df = itf.freq_hz - carrier_hz
    if stop is None:
        stop = n
    if itf.power_w == 0.0:
        return np.zeros(stop, dtype=np.complex128)
    amp = np.sqrt(itf.power_w)
    tone = _tone(df, n, fs)[:stop]
    if itf.kind is InterfererKind.CW:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return amp * np.exp(1j * phase) * tone
    # random QPSK stream, rectangular chips at the symbol rate; the symbols
    # of all n samples are drawn, as a whole-stream call draws them
    sps = max(1, int(round(fs / _QPSK_SYMBOL_RATE_HZ)))
    n_sym = -(-n // sps)
    points = (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0))
    draws = rng.integers(0, 4, size=n_sym)[:-(-stop // sps)]
    chips = np.repeat(points[draws], sps)[:stop]
    return amp * chips * tone


def add_interferer(s: SampleStream, freq_hz: float, power_w: float,
                   kind: InterfererKind = InterfererKind.CW,
                   seed: int = 0) -> SampleStream:
    """Add a CW tone or a random-QPSK emitter at an absolute frequency."""
    itf = Interferer(freq_hz=freq_hz, power_w=power_w, kind=kind)
    rng = np.random.default_rng(int(seed))
    extra = _interferer_samples(itf, len(s), s.sample_rate, s.carrier_hz, rng)
    return s.with_samples(s.samples + extra)


def check_unambiguous_range(ranges: np.ndarray, params: RadarParams) -> None:
    """Every scatterer range must lie within the unambiguous range c*PRI/2."""
    r_max = params.unambiguous_range_m
    far = np.flatnonzero(ranges > r_max)
    if far.size:
        k = int(far[0])
        raise ValueError(
            f"scatterer {k} at {ranges[k]:g} m exceeds the unambiguous "
            f"range {r_max:g} m set by the PRI")


class _EchoGeometry(NamedTuple):
    """What a scene's echoes keep from sweep to sweep, for the points of
    nonzero scattering amplitude (``live``, indices into all_points):
    sqrt(sigma) * S_pq / R^2 by parts, the two-way carrier phase
    -2*pi*f_c*tau, and the distinct sample delays round(tau * fs) in
    order of first appearance, with ``which`` the delay of each point."""

    live: np.ndarray
    re: np.ndarray
    im: np.ndarray
    phase: np.ndarray
    delays: tuple[int, ...]
    which: np.ndarray


def _echo_geometry(scene: Scene, pol: Pol, fs: float,
                   carrier_hz: float) -> _EchoGeometry:
    """The scene's echo geometry, built once per (pol, fs, carrier).

    Two threads may both build a missing entry; they build equal arrays,
    so either one may stay.
    """
    key = (pol, fs, carrier_hz)
    geometry = scene._echo_memo.get(key)
    if geometry is not None:
        return geometry
    ranges, root, pol_matrices = scene.point_arrays
    r, c = _POL_INDEX[pol]
    s_pq = pol_matrices[:, r, c]
    r2 = np.float_power(ranges, 2.0)
    re = root * s_pq.real / r2
    im = root * s_pq.imag / r2
    # points of zero amplitude add nothing; a unit rotation keeps the
    # others nonzero
    live = np.flatnonzero((re != 0.0) | (im != 0.0))
    delay_s = 2.0 * ranges[live] / SPEED_OF_LIGHT
    # np.rint rounds half to even, as round() does
    distinct, first, which = np.unique(
        np.rint(delay_s * fs).astype(np.int64), return_index=True,
        return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    geometry = _EchoGeometry(live, re[live], im[live],
                             -2.0 * np.pi * carrier_hz * delay_s,
                             tuple(distinct[order].tolist()), rank[which])
    for a in (geometry.live, geometry.re, geometry.im, geometry.phase,
              geometry.which):
        a.flags.writeable = False
    scene._echo_memo[key] = geometry
    return geometry


def _echoes(scene: Scene, pol: Pol, params: RadarParams, fs: float,
            jitter: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The distinct sample delays of the scene's echoes, in order of first
    appearance, and the summed complex amplitude at each: the amplitudes
    sqrt(sigma) * S_pq / R^2 * exp(j(-2*pi*f_c*tau + jitter)) of the
    points that share a delay, added in point order.

    Each amplitude rounds exactly as the scalar expression
    ``scattering_amplitude(p, pol) / R**2 * np.exp(1j * phase)``: R**2
    goes through libm pow (``float_power``), the division by R**2 is
    taken part by part, and the complex product is written out, because
    numpy's vectorized complex multiply rounds differently from its
    scalar one.
    """
    g = _echo_geometry(scene, pol, fs, params.carrier_hz)
    rot = np.exp(1j * (g.phase + jitter[g.live]))
    a = np.empty(g.live.size, dtype=np.complex128)
    a.real = g.re * rot.real - g.im * rot.imag
    a.imag = g.re * rot.imag + g.im * rot.real
    h = np.zeros(len(g.delays), dtype=np.complex128)
    np.add.at(h, g.which, a)
    return g.delays, h


def propagate(tx: SampleStream, scene: Scene, params: RadarParams, pol: Pol,
              sweep_index: int = 0, n_samples: int | None = None
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

    Only the first ``n_samples`` (default len(tx)) of the received stream
    are built, bit for bit those of a whole-stream call, so a caller can
    build only the samples it reads.  The noise's imaginary rail follows
    its whole real rail in one RNG stream, so the real rail is still
    drawn over len(tx) samples.
    """
    if (tx.sample_rate, tx.carrier_hz) != (params.sample_rate_hz,
                                           params.carrier_hz):
        raise ValueError(
            f"tx sampled at {tx.sample_rate:g} Hz on carrier "
            f"{tx.carrier_hz:g} Hz, but the chain runs at "
            f"{params.sample_rate_hz:g} Hz on {params.carrier_hz:g} Hz")
    if len(tx) < params.pri_samples:
        raise ValueError("transmit stream must cover at least one PRI")
    fs = params.sample_rate_hz
    n = len(tx)
    m = n if n_samples is None else n_samples
    if not 1 <= m <= n:
        raise ValueError(f"n_samples must lie in [1, {n}], got {m}")
    out = np.zeros(m, dtype=np.complex128)
    ranges = scene.point_arrays[0]
    check_unambiguous_range(ranges, params)
    n_points = ranges.size

    # tx is zero off its support: direct path and echoes are added there only
    support = tx.support[:np.searchsorted(tx.support, m)]
    active = tx.samples[support]
    if scene.direct_path_gain:
        out[support] += scene.direct_path_gain * active

    if scene.sweep_phase_jitter_rad > 0 and n_points:
        rng = _rng(scene.rng_seed, sweep_index, _RNG_PHASE)
        jitter = rng.normal(0.0, scene.sweep_phase_jitter_rad, size=n_points)
    else:
        jitter = np.zeros(n_points)

    delays, h = _echoes(scene, pol, params, fs, jitter)
    for d, h_d in zip(delays, h):
        k = int(np.searchsorted(support, m - d))
        out[support[:k] + d] += h_d * active[:k]

    for i, itf in enumerate(scene.interferers):
        rng = _rng(scene.rng_seed, sweep_index, _RNG_INTERFERER, i)
        out += _interferer_samples(itf, n, fs, params.carrier_hz, rng,
                                   stop=m)

    if scene.noise_psd > 0:
        rng = _rng(scene.rng_seed, sweep_index, _RNG_NOISE)
        sigma2 = scene.noise_psd * fs
        scale = np.sqrt(sigma2 / 2.0)
        # the real rail is drawn first, then the imaginary one, a chunk at
        # a time; a generator's draws continue across calls, so the chunks
        # hold exactly the values of one whole-rail draw.  Only the first m
        # samples of each rail are added, and the imaginary rail is drawn
        # no further.
        z = np.empty(min(n, _NOISE_CHUNK))
        for rail, stop in ((out.real, n), (out.imag, m)):
            for start in range(0, stop, z.size):
                part = z[:min(z.size, stop - start)]
                rng.standard_normal(out=part)
                kept = part[:max(0, m - start)]
                kept *= scale
                rail[start:start + kept.size] += kept

    return SampleStream(out, fs, params.carrier_hz)
