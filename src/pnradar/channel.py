"""Open-field propagation: point scatterers, clutter, interference, noise.

A scene is a set of discrete scattering centers plus environmental
impairments.  Propagation is a pure function of (tx, scene, params, pol,
sweep_index); every random quantity comes from an RNG stream derived
from (scene seed, sweep index, purpose), so sweeps are reproducible and
independent of evaluation order.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .codes import check_field, read_only
from .waveform import PulseTrain, RadarParams, SampleStream, SPEED_OF_LIGHT

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
        check_field("sigma_m2", self.sigma_m2, "finite and >= 0")
        check_field("range_m", self.range_m, "> 0")
        check_field("cross_range_m", self.cross_range_m, "finite")
        mat = np.asarray(self.pol_matrix, dtype=np.complex128)
        if mat.shape != (2, 2):
            raise ValueError("pol_matrix must be 2x2")
        # four entries: Python's abs and max beat numpy's reductions, but
        # max drops a NaN that is not first, so finiteness comes first
        entries = [z for row in mat.tolist() for z in row]
        if not all(map(cmath.isfinite, entries)):
            raise ValueError("pol_matrix entries must be finite")
        peak = max(map(abs, entries))
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
        check_field("freq_hz", self.freq_hz, "finite")
        check_field("power_w", self.power_w, "finite and >= 0")


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
        for name in ("noise_psd", "direct_path_gain",
                     "sweep_phase_jitter_rad"):
            check_field(name, getattr(self, name), ">= 0")
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
    check_field("count", count, ">= 0")
    check_field("mean_sigma_m2", mean_sigma_m2, "finite and >= 0")
    lo, hi = float(extent_m[0]), float(extent_m[1])
    if not 0 < lo <= hi < np.inf:  # NaN fails too
        raise ValueError(f"extent_m must be (near, far) with "
                         f"0 < near <= far, got {extent_m}")
    rng = np.random.default_rng(int(seed))
    ranges = rng.uniform(lo, hi, size=count)
    sigmas = rng.exponential(mean_sigma_m2, size=count) if mean_sigma_m2 > 0 \
        else np.zeros(count)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    # one read-only stack of matrices, each exp(1j * phase) in all four
    # entries; each point holds a row of it
    mats = np.repeat(np.exp(1j * phases), 4).reshape(count, 2, 2)
    mats.flags.writeable = False
    return tuple(Scatterer(sigma_m2=s, range_m=r, pol_matrix=m)
                 for r, s, m in zip(ranges.tolist(), sigmas.tolist(), mats))


@lru_cache(maxsize=8)
def _tone(df: float, n: int, fs: float) -> np.ndarray:
    """exp(2j*pi*df*t) over n samples at rate fs.

    Memoized: every sweep of a scene adds the same carrier-offset tone
    per interferer, so the returned array is read-only.
    """
    # the tone is built in its argument's buffer, so that no time array
    # is held beside the n complex samples
    tone = 2j * np.pi * df * (np.arange(n) / fs)
    np.exp(tone, out=tone)
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


def _interferer(itf: Interferer, n: int, fs: float, carrier_hz: float, rngs):
    """One interferer's baseband stream of n samples at its carrier offset,
    one row per generator in ``rngs``, from that row's own draws, which are
    made here: returns samples(a, b), every row's samples a .. b-1."""
    amp = np.sqrt(itf.power_w)
    tone = _tone(itf.freq_hz - carrier_hz, n, fs)
    if itf.kind is InterfererKind.CW:
        coef = np.array([amp * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                         for rng in rngs], dtype=np.complex128)
        return lambda a, b: coef[:, None] * tone[None, a:b]
    # random QPSK stream, rectangular chips at the symbol rate; the symbols
    # of all n samples are drawn
    sps = max(1, int(round(fs / _QPSK_SYMBOL_RATE_HZ)))
    points = (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0))
    symbols = points[np.array([rng.integers(0, 4, size=-(-n // sps))
                               for rng in rngs], dtype=np.int64)]

    def samples(a: int, b: int) -> np.ndarray:
        # the repeated symbols are dropped once scaled, so that no more
        # than two products of b - a samples are held at once
        chips = amp * np.repeat(symbols[:, a // sps:-(-b // sps)], sps,
                                axis=1)[:, a % sps:a % sps + b - a]
        return chips * tone[None, a:b]
    return samples


def add_interferer(s: SampleStream, freq_hz: float, power_w: float,
                   kind: InterfererKind = InterfererKind.CW,
                   seed: int = 0) -> SampleStream:
    """Add a CW tone or a random-QPSK emitter at an absolute frequency."""
    itf = Interferer(freq_hz=freq_hz, power_w=power_w, kind=kind)
    check_interferer_band(freq_hz, s.carrier_hz, s.sample_rate)
    rng = np.random.default_rng(int(seed))
    extra = _interferer(itf, len(s), s.sample_rate, s.carrier_hz,
                        [rng])(0, len(s))[0]
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


def _echoes(scene: Scene, pol: Pol, params: RadarParams,
            jitter: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The distinct sample delays round(tau * fs) of the scene's echoes, in
    increasing order, and for each row of ``jitter`` (one sweep's
    per-point phases) the summed complex amplitude at each delay: the
    amplitudes sqrt(sigma) * S_pq / R^2 * exp(j(-2*pi*f_c*tau + jitter))
    of the points that share a delay, added in point order.  Points of
    zero amplitude add nothing and are left out.  Every step is
    elementwise, so a row's amplitudes do not depend on the other rows.
    """
    ranges, root, pol_matrices = scene.point_arrays
    r, c = _POL_INDEX[pol]
    scatter = root * pol_matrices[:, r, c] / ranges ** 2
    # a unit rotation keeps a nonzero amplitude nonzero
    live = np.flatnonzero(scatter)
    delay_s = 2.0 * ranges[live] / SPEED_OF_LIGHT
    # np.rint rounds half to even, as round() does
    delays, which = np.unique(
        np.rint(delay_s * params.sample_rate_hz).astype(np.int64),
        return_inverse=True)
    s, e = scatter[live], np.exp(1j * (-2.0 * np.pi * params.carrier_hz
                                       * delay_s + jitter[:, live]))
    # s * e, written out in real parts: numpy rounds a complex product of
    # one element whose operands differ in dimension without the fused
    # multiply-add of its other complex products, and a row must round
    # alike in a block of any size
    a = np.empty_like(e)
    a.real = s.real * e.real - s.imag * e.imag
    a.imag = s.real * e.imag + s.imag * e.real
    h = np.zeros((jitter.shape[0], delays.size), dtype=np.complex128)
    np.add.at(h, (slice(None), which), a)
    return tuple(delays.tolist()), h


def _block_terms(tx: PulseTrain, scene: Scene, params: RadarParams,
                 pol: Pol, sweeps: range):
    """What each sweep of a block adds to its received stream, in this
    order: the scene's terms (amp, d), each adding amp[r] * chip j's pulse
    at sample d + j*period of row r (the direct path, then each distinct
    echo delay in increasing order; see _echoes), the interferers'
    samples(a, b) functions (see _interferer) and the noise generators,
    one per row (none without noise), each drawing a whole real rail and
    then a whole imaginary one.  tests/stream_oracle.propagate adds them
    up into a sweep's whole stream, the reference of despread_windows."""
    if (tx.sample_rate, tx.carrier_hz) != (params.sample_rate_hz,
                                           params.carrier_hz):
        raise ValueError(
            f"tx sampled at {tx.sample_rate:g} Hz on carrier "
            f"{tx.carrier_hz:g} Hz, but the chain runs at "
            f"{params.sample_rate_hz:g} Hz on {params.carrier_hz:g} Hz")
    if tx.length < params.pri_samples:
        raise ValueError("transmit stream must cover at least one PRI")
    if not sweeps:
        raise ValueError("a block needs at least one sweep")
    fs = params.sample_rate_hz
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

    jitter = np.zeros((len(sweeps), n_points))
    if jittered:
        for row, rng in zip(jitter, rngs[_RNG_PHASE,]):
            row[:] = rng.normal(0.0, scene.sweep_phase_jitter_rad,
                                size=n_points)
    delays, h = _echoes(scene, pol, params, jitter)
    terms = [(np.full((len(sweeps), 1), scene.direct_path_gain), 0)] \
        if scene.direct_path_gain else []
    terms += [(h[:, j, None], d) for j, d in enumerate(delays)]
    interferers = [_interferer(scene.interferers[i], tx.length, fs,
                               params.carrier_hz, rngs[_RNG_INTERFERER, i])
                   for i in emitting]
    return terms, interferers, rngs.get((_RNG_NOISE,), [])


def despread_windows(tx: PulseTrain, scene: Scene, params: RadarParams,
                     pol: Pol, sweeps: range, window: range) -> np.ndarray:
    """The despread windows of a block of sweeps, without their received
    streams: row r is ``sum_j tx.chips[j] * rx[window.start + j*period :
    window.stop + j*period]`` over the chips j of the train, to rounding,
    for rx the whole received stream of sweep sweeps[r], what _block_terms
    adds up to (tests/stream_oracle.propagate).  The window may be at most
    one period wide, and every chip's window must end inside the stream.

    The sum is linear, so each thing the stream adds is despread on its
    own, in the stream's order.  A term (amp, d) sends chip k's pulse to
    sample d + k*period, which chip j's window reads at offset d +
    (k-j)*period - start; summed over the chips, the pulse at offset
    q*period is weighed by the code's aperiodic autocorrelation R(q) =
    sum_j c_j * c_{j+q}.  So each term adds R(q) * amp * pulse once per q
    whose pulse overlaps the window.  Each interferer adds its samples,
    window by window, weighed by their chips.  Each row draws its noise
    rails in chunks of one period from the window's start; chunk m adds
    to chip m's window, and the draws outside every window are made and
    dropped, but for those past the last one.  For the one chip of weight
    1 of a narrowband pulse each sample adds what the stream adds, in its
    order, so the window equals the stream's bit for bit.  A block holds
    a few arrays of rows x len(window) samples and one chunk.
    """
    n, period, chips = tx.length, tx.period, tx.chips
    start, width = window.start, len(window)
    if window.step != 1 or start < 0 or width > period \
            or start + width + (len(chips) - 1) * period > n:
        raise ValueError(f"chip windows of samples {window} every "
                         f"{period} samples must be at most a period wide "
                         f"and must lie in the {n}-sample stream")
    terms, interferers, noise = _block_terms(tx, scene, params, pol, sweeps)
    pulse = tx.pulse.samples
    corr = np.correlate(chips, chips, "full")  # R(q) at q + len(chips) - 1
    z = np.zeros((len(sweeps), width), dtype=np.complex128)
    # the terms share one product buffer and each interferer window is
    # weighed in place: a short-lived array of a block's size re-faults
    # its pages once freed
    product = np.empty((len(sweeps), pulse.size), dtype=np.complex128)
    for amp, d in terms:
        # the slot offsets q whose pulse overlaps the window
        for q in range(max((start - pulse.size - d) // period + 1,
                           1 - len(chips)),
                       min((start + width - d - 1) // period + 1, len(chips))):
            o = d + q * period - start
            a, b = max(o, 0), min(o + pulse.size, width)
            z[:, a:b] += np.multiply(corr[q + len(chips) - 1] * amp,
                                     pulse[None, a - o:b - o],
                                     out=product[:, :b - a])
    del product
    for samples in interferers:
        for j, chip in enumerate(chips.tolist()):
            s = start + j * period
            x = samples(s, s + width)
            x *= chip
            z += x
            del x  # before the next window's samples are made
    scale = np.sqrt(scene.noise_psd * params.sample_rate_hz / 2.0)
    # chunk m holds the draws from start + m*period on, of which chip m's
    # window reads the first width
    end = start + (len(chips) - 1) * period + width
    # every chunk and skip is drawn into one buffer; a window's draws are
    # weighed in it, scale first, and added into a contiguous copy of the
    # rail, with the same roundings as chip * (chunk * scale)
    chunk = np.empty(period)
    for row, rng in zip(z, noise):
        # the imaginary rail starts n draws after the real one
        for rail, skip in ((row.real, start), (row.imag, n - end + start)):
            for a in range(0, skip, period):
                rng.standard_normal(out=chunk[:min(period, skip - a)])
            total = rail.copy()
            for chip, a in zip(chips.tolist(), range(start, end, period)):
                rng.standard_normal(out=chunk[:min(period, end - a)])
                drawn = chunk[:width]
                drawn *= scale
                drawn *= chip
                total += drawn
            rail[:] = total
    return z
