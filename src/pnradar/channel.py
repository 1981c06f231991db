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
from numpy.random.bit_generator import ISeedSequence

from .codes import read_only
from .waveform import RadarParams, SampleStream, SPEED_OF_LIGHT

# RNG purpose tags (third entry of the derived seed sequence).
_RNG_PHASE = 1
_RNG_NOISE = 2
_RNG_INTERFERER = 3

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of 4
# 32-bit words, the constants of its hash and of its mix, and the shift
# both use.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

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
        # each rule fails on NaN
        if not self.sigma_m2 >= 0:
            raise ValueError(f"sigma_m2 must be >= 0, got {self.sigma_m2}")
        if not self.range_m > 0:
            raise ValueError(f"range_m must be > 0, got {self.range_m}")
        if not np.isfinite(self.cross_range_m):
            raise ValueError(
                f"cross_range_m must be finite, got {self.cross_range_m}")
        mat = np.asarray(self.pol_matrix, dtype=np.complex128)
        if mat.shape != (2, 2):
            raise ValueError("pol_matrix must be 2x2")
        peak = np.max(np.abs(mat))
        if peak > 1.0 + _POL_TOL:
            raise ValueError("pol_matrix entries must not exceed unit magnitude")
        if abs(peak - 1.0) > _POL_TOL:
            raise ValueError("largest pol_matrix entry must be normalized to 1")
        object.__setattr__(self, "pol_matrix", read_only(mat))

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
        if not self.power_w >= 0:
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
        if not self.noise_psd >= 0:
            raise ValueError("noise_psd must be >= 0")
        if not self.direct_path_gain >= 0:
            raise ValueError("direct_path_gain must be >= 0")
        if not self.sweep_phase_jitter_rad >= 0:
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


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The constant SeedSequence's hash holds before each of its calls,
    init * mult**p mod 2**32 for p = 0 .. calls; call p xors its word with
    entry p and multiplies it by entry p + 1."""
    c = np.array([init * pow(mult, p, 1 << 32) % (1 << 32)
                  for p in range(calls + 1)], dtype=np.uint32)
    c.flags.writeable = False
    return c


# Calls 0-3 hash the first 4 entropy words into the pool, calls 4-15 mix
# its words pairwise, and call 4w + d hashes entropy word w >= 4 into pool
# word d.  Pool word s is hashed into word d != s by call
# 4 + 3s + d - (d > s); row s of the pair tables holds those calls'
# constants by d (its column s, call 0, is not used).
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_PAIR_CALL = np.array([[4 + 3 * s + d - (d > s) if d != s else 0
                        for d in range(4)] for s in range(4)])
_PAIR_XOR, _PAIR_MUL = _HASH_A[_PAIR_CALL], _HASH_A[_PAIR_CALL + 1]
_PAIR_XOR.flags.writeable = _PAIR_MUL.flags.writeable = False
# the output stage's hash, one call per 32-bit output word
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of words ``v`` by calls of the given
    constants, elementwise."""
    v = v ^ xor
    v *= mul
    v ^= v >> _XSHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
    r ^= r >> _XSHIFT
    return r


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(key).generate_state(4, np.uint64)`` for the
    key of each row of ``entropy``: its uint32 words, zero-padded to at
    least 4 (a shorter key hashes as the padded one).  Every step is
    numpy's uint32 arithmetic, applied to all rows at once."""
    n_words = entropy.shape[1]
    a = (_HASH_A if n_words == 4
         else _hash_constants(_INIT_A, _MULT_A, 4 * n_words))
    pool = _hashmix(entropy[:, :4], a[:4], a[1:5])
    for s in range(4):
        # word s is not mixed into itself; the others read it as it stands
        mixed = _mix(pool, _hashmix(pool[:, s, None], _PAIR_XOR[s],
                                    _PAIR_MUL[s]))
        mixed[:, s] = pool[:, s]
        pool = mixed
    for w in range(4, n_words):
        p = 4 * w
        pool = _mix(pool, _hashmix(entropy[:, w, None], a[p:p + 4],
                                   a[p + 1:p + 5]))
    # 8 output words cycle through the pool; each uint64 is a pair of
    # them, low word first
    out = _hashmix(np.concatenate((pool, pool), axis=1), _HASH_B[:-1],
                   _HASH_B[1:]).astype(np.uint64)
    return out[:, 0::2] | (out[:, 1::2] << 32)


def _key_words(n: int) -> list[int]:
    """A key entry as SeedSequence reads it: 32-bit words, least
    significant first; 0 is the one word [0]."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _stream_state(seed: int, sweeps: range,
                  tags: list[tuple[int, ...]]) -> np.ndarray:
    """The PCG64 state words of every stream of a block, shape
    (len(tags), len(sweeps), 4): row [t, r] is
    ``np.random.SeedSequence(key).generate_state(4, np.uint64)`` for the
    key [seed mod 2**64, sweeps[r], *tags[t]].  Keys of equal word count
    share one pass."""
    head = _key_words(int(seed) & 0xFFFFFFFFFFFFFFFF)
    tails = [[w for t in tag for w in _key_words(t)] for tag in tags]
    keys = [head + _key_words(k) + tail for tail in tails for k in sweeps]
    rows_by_width: dict[int, list[int]] = {}
    for r, key in enumerate(keys):
        rows_by_width.setdefault(max(4, len(key)), []).append(r)
    state = np.empty((len(keys), 4), dtype=np.uint64)
    for width, rows in rows_by_width.items():
        entropy = np.array([keys[r] + [0] * (width - len(keys[r]))
                            for r in rows], dtype=np.uint32)
        state[rows] = _seed_state(entropy)
    return state.reshape(len(tags), len(sweeps), 4)


class _State(ISeedSequence):
    """Hands a bit generator state words already derived: PCG64 asks its
    seed sequence for generate_state(4, np.uint64) and nothing else."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _stream_rngs(seed: int, sweeps: range, tags: list[tuple[int, ...]]
                 ) -> dict[tuple[int, ...], list[np.random.Generator]]:
    """For each tag, (purpose,) or (purpose, interferer index), the
    generator of each sweep k of ``sweeps``: it draws exactly as
    ``np.random.default_rng([seed mod 2**64, k, *tag])``.  All of them are
    seeded from one _stream_state call, which reads only constant tables,
    so concurrent calls are safe."""
    state = _stream_state(seed, sweeps, tags)
    return {tag: [np.random.Generator(np.random.PCG64(_State(words)))
                  for words in row]
            for tag, row in zip(tags, state)}


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
    if not abs(freq_hz - carrier_hz) < fs / 2.0:
        raise ValueError(
            f"interferer at {freq_hz:g} Hz is outside the Nyquist band "
            f"around {carrier_hz:g} Hz (fs {fs:g})")


def _interferer_samples(itf: Interferer, n: int, fs: float, carrier_hz: float,
                        rngs, stop: int | None = None) -> np.ndarray:
    """Baseband samples of one interferer at its carrier offset, one row
    per generator in ``rngs``: the first ``stop`` (default all) of the n
    samples of a stream, from that row's own draws."""
    df = itf.freq_hz - carrier_hz
    if stop is None:
        stop = n
    amp = np.sqrt(itf.power_w)
    tone = _tone(df, n, fs)[:stop]
    if itf.kind is InterfererKind.CW:
        coef = np.array([amp * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                         for rng in rngs], dtype=np.complex128)
        return coef[:, None] * tone[None, :]
    # random QPSK stream, rectangular chips at the symbol rate; the symbols
    # of all n samples are drawn, as a whole-stream call draws them
    sps = max(1, int(round(fs / _QPSK_SYMBOL_RATE_HZ)))
    n_sym = -(-n // sps)
    points = (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0))
    draws = np.array([rng.integers(0, 4, size=n_sym)[:-(-stop // sps)]
                      for rng in rngs], dtype=np.int64)
    chips = np.repeat(points[draws], sps, axis=1)[:, :stop]
    return amp * chips * tone[None, :]


def add_interferer(s: SampleStream, freq_hz: float, power_w: float,
                   kind: InterfererKind = InterfererKind.CW,
                   seed: int = 0) -> SampleStream:
    """Add a CW tone or a random-QPSK emitter at an absolute frequency."""
    itf = Interferer(freq_hz=freq_hz, power_w=power_w, kind=kind)
    check_interferer_band(freq_hz, s.carrier_hz, s.sample_rate)
    rng = np.random.default_rng(int(seed))
    extra = _interferer_samples(itf, len(s), s.sample_rate, s.carrier_hz,
                                [rng])[0]
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
    appearance, and for each row of ``jitter`` (one sweep's per-point
    phases) the summed complex amplitude at each delay: the amplitudes
    sqrt(sigma) * S_pq / R^2 * exp(j(-2*pi*f_c*tau + jitter)) of the
    points that share a delay, added in point order.

    Each amplitude rounds exactly as the one-point expression
    ``complex(sqrt(sigma) * S_pq) / R**2 * np.exp(1j * phase)`` in Python
    scalars: R**2 goes through libm pow (``float_power``), the division by
    R**2 is taken part by part, and the complex product is written out,
    because numpy's complex multiply rounds differently from Python's.
    Every step is elementwise, so a row's amplitudes do not depend on the
    other rows.
    """
    g = _echo_geometry(scene, pol, fs, params.carrier_hz)
    rot = np.exp(1j * (g.phase + jitter[:, g.live]))
    a = np.empty(rot.shape, dtype=np.complex128)
    a.real = g.re * rot.real - g.im * rot.imag
    a.imag = g.re * rot.imag + g.im * rot.real
    h = np.zeros((jitter.shape[0], len(g.delays)), dtype=np.complex128)
    np.add.at(h, (slice(None), g.which), a)
    return g.delays, h


def propagate(tx: SampleStream, scene: Scene, params: RadarParams, pol: Pol,
              sweep_index: int | range = 0, n_samples: int | None = None
              ) -> SampleStream | np.ndarray:
    """Propagate a transmit stream through the scene for one sweep, or for
    a block of sweeps.

    Each scattering center contributes a delayed copy of tx scaled by
    sqrt(sigma) * S_pq / R^2 (absolute link constants are absorbed by
    calibration), rotated by the two-way carrier phase, and perturbed by
    a per-point phase drawn fresh every sweep when jitter is enabled.
    Delays round to the nearest sample (half to even).  The amplitudes
    of points that share a delay are summed in point order, and each
    distinct delay adds one scaled copy of tx, over its nonzero samples
    only, in order of first appearance; points of zero scattering
    amplitude are skipped.  Direct-path leakage, external interferers
    and thermal noise are added on top, in that order.

    Sweep k's phase jitter, interferer i and noise each draw from their
    own RNG stream, the generator
    ``np.random.default_rng([rng_seed mod 2**64, k, purpose(, i)])`` with
    purpose 1 = phase, 2 = noise and 3 = interferer.  A call seeds all
    the streams of its sweeps in one pass that reproduces numpy's
    SeedSequence word for word, so the draws are those of the
    default_rng calls.  An interferer of zero power draws nothing and
    adds nothing.

    Only the first ``n_samples`` (default len(tx)) of the received stream
    are built, bit for bit those of a whole-stream call, so a caller can
    build only the samples it reads.  The noise's imaginary rail follows
    its whole real rail in one RNG stream, so the real rail is still
    drawn over len(tx) samples.

    An int ``sweep_index`` returns that sweep's stream.  A range of sweep
    indices returns a block: a (len(range), n_samples) array whose row r
    holds, bit for bit, the samples of sweep ``sweep_index[r]``.  Every
    row makes its own draws from its own RNG streams and each term is
    added elementwise, so a row does not depend on the others; one sweep
    is the block of one.  (Complex products are taken out of place, on
    operands of equal dimension: numpy rounds a lone broadcast or
    in-place complex product through its scalar loop, which differs in
    the last bit from the vector loop every other product takes.)
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
    sweeps = (sweep_index if isinstance(sweep_index, range)
              else range(sweep_index, sweep_index + 1))
    rows = len(sweeps)
    if not rows:
        raise ValueError("a block needs at least one sweep")
    out = np.zeros((rows, m), dtype=np.complex128)
    ranges = scene.point_arrays[0]
    check_unambiguous_range(ranges, params)
    for itf in scene.interferers:
        check_interferer_band(itf.freq_hz, params.carrier_hz, fs)
    n_points = ranges.size
    jittered = scene.sweep_phase_jitter_rad > 0 and n_points
    # a silent interferer draws nothing and adds nothing
    emitting = [i for i, itf in enumerate(scene.interferers) if itf.power_w]
    tags = ([(_RNG_PHASE,)] if jittered else []) \
        + [(_RNG_INTERFERER, i) for i in emitting] \
        + ([(_RNG_NOISE,)] if scene.noise_psd > 0 else [])
    rngs = _stream_rngs(scene.rng_seed, sweeps, tags)

    # tx is zero off its support: direct path and echoes are added there
    # only, in place through a slice where the support is one run (the NB
    # pulse), which numpy adds faster than through an index array
    support = tx.support[:np.searchsorted(tx.support, m)]
    active = tx.samples[support]
    one_run = support.size and support[-1] - support[0] + 1 == support.size

    def delayed(k: int, d: int):
        """The first k samples of the support, delayed by d samples."""
        return (slice(support[0] + d, support[0] + d + k) if one_run
                else support[:k] + d)

    if scene.direct_path_gain:
        out[:, delayed(support.size, 0)] += scene.direct_path_gain * active

    jitter = np.zeros((rows, n_points))
    if jittered:
        for row, rng in zip(jitter, rngs[_RNG_PHASE,]):
            row[:] = rng.normal(0.0, scene.sweep_phase_jitter_rad,
                                size=n_points)

    delays, h = _echoes(scene, pol, params, fs, jitter)
    for j, d in enumerate(delays):
        k = int(np.searchsorted(support, m - d))
        out[:, delayed(k, d)] += h[:, j, None] * active[None, :k]

    for i in emitting:
        out += _interferer_samples(scene.interferers[i], n, fs,
                                   params.carrier_hz,
                                   rngs[_RNG_INTERFERER, i], stop=m)

    if scene.noise_psd > 0:
        sigma2 = scene.noise_psd * fs
        scale = np.sqrt(sigma2 / 2.0)
        # each row's real rail is drawn first, then its imaginary one, a
        # chunk at a time; a generator's draws continue across calls, so
        # the chunks hold exactly the values of one whole-rail draw.  Only
        # the first m samples of each rail are added, and the imaginary
        # rail is drawn no further.  The scratch holds _NOISE_CHUNK draws
        # in all, whatever the number of rows.
        z = np.empty((rows, min(n, max(1, _NOISE_CHUNK // rows))))
        for rail, stop in ((out.real, n), (out.imag, m)):
            for start in range(0, stop, z.shape[1]):
                part = z[:, :min(z.shape[1], stop - start)]
                for rng, draws in zip(rngs[_RNG_NOISE,], part):
                    rng.standard_normal(out=draws)
                kept = part[:, :max(0, m - start)]
                kept *= scale
                rail[:, start:start + kept.shape[1]] += kept

    if isinstance(sweep_index, range):
        return out
    return SampleStream(out[0], fs, params.carrier_hz)
