"""Range profiling and radar-cross-section estimation.

Both chains share one measurement geometry: a clean transmit waveform is
matched-filtered against the received sweep, the correlation lags map to
two-way range, and detected peaks are converted to calibrated cross
sections.  The narrowband estimator sums peak values coherently (phase
sensitive); the wideband estimator sums per-peak powers, which is what
makes it immune to sweep-to-sweep phase drift.

The closed-form models are also provided: the narrowband cross section
as a cosine-weighted sum over scattering centers and the wideband cross
section as their plain sum.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import Pol, Scatterer, Scene, TargetModel, despread_windows
from .codes import PnSequence, check_field, read_only
from .receiver import check_blank_width, uwb_correlate
from .waveform import (Mode, PulseTrain, RadarParams, SPEED_OF_LIGHT,
                       check_finite, qpsk_baseband, uwb_pulse_train)

# Sweeps run in blocks of consecutive sweeps: one synthesis and one
# detection per block, on arrays with one row per sweep, so that numpy's
# per-call cost, which dominates a short sweep, is paid once per block;
# each sweep of a block is correlated on its own.  A block holds as many
# sweeps as fit this many despread-window samples, and at least one: 19
# narrowband sweeps of 853 window samples, or one DS-UWB sweep of 9,472.
# Measured on 2 CPUs with the blocks on two threads (medians of 6 runs of
# one process each), the 600 sweeps of the nb_dense_series benchmark took
# 0.22, 0.19 and 0.17 s in blocks of 9, 19 and 38, at a peak RSS of 41.3,
# 42.2 and 44.2 MB: a block of 19 peaks at about 1 MB of traced
# allocation.
_BLOCK_SAMPLES = 1 << 14

# The blocks run in at most this many processes: the calling process and
# _MAX_POOL_WORKERS - 1 forked workers (see SweepPipeline._each_block).  A
# block's work is mostly interpreter time between short numpy calls, so
# helper threads took turns at the GIL; processes run at once.  Measured
# on 2 CPUs (medians of 10 fresh-process runs of the whole CLI run; one
# process, two threads, one forked worker): nb_dense_series 0.152, 0.117
# and 0.092 s, sphere_compare 0.50, 0.29 and 0.27 s, uwb_scan 0.46, 0.29
# and 0.29 s.  A worker's pages are the caller's until either writes
# them; it dirtied 3-4.5 MB of its own.  Wider pools were not measured.
_MAX_POOL_WORKERS = 2


class NoDetections(RuntimeError):
    """Raised when an estimate is requested but no peak exists in the gate."""


@dataclass(frozen=True)
class RangeProfile:
    """Complex range response of one sweep.

    ``values`` keeps full phase so the narrowband estimator can sum
    coherently; ``power`` is the bin magnitude squared.
    """

    ranges_m: np.ndarray
    values: np.ndarray
    bin_width_m: float

    def __post_init__(self):
        ranges = np.asarray(self.ranges_m, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.complex128)
        if ranges.shape != values.shape:
            raise ValueError("ranges and values must have equal length")
        if ranges.size and np.any(np.diff(ranges) <= 0):
            raise ValueError("ranges must be strictly increasing")
        object.__setattr__(self, "ranges_m", read_only(ranges))
        object.__setattr__(self, "values", read_only(values))

    def __len__(self) -> int:
        return int(self.ranges_m.size)

    @property
    def power(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class Detection:
    range_m: float
    power: float
    value: complex


@dataclass(frozen=True)
class RcsEstimate:
    """Calibrated cross section with its logarithmic form."""

    sigma_m2: float
    mode: Mode
    sweep_index: int = 0
    dbsm: float = field(init=False)

    def __post_init__(self):
        if not self.sigma_m2 >= 0:  # NaN fails too
            raise ValueError(f"{self.mode.value} cross section cannot be "
                             f"negative, got {self.sigma_m2:g}")
        value = (10.0 * math.log10(self.sigma_m2) if self.sigma_m2 > 0
                 else -math.inf)
        object.__setattr__(self, "dbsm", value)


@dataclass(frozen=True)
class Calibration:
    """Scale from integrated profile power to square meters."""

    gain: float
    reference_sigma_m2: float
    reference_range_m: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 < value < math.inf:
                raise ValueError(f"calibration {name} must be finite and "
                                 f"positive, got {value}")


def rcs_nb(target: TargetModel, wavelength_m: float) -> float:
    """Narrowband cross-section model: sum of sigma_k * cos(2*pi*R_k/lambda).

    The value is signed; destructive phase alignment can drive it toward
    zero or below.  Sums are evaluated with exact rounding so the
    wideband bound holds exactly.
    """
    check_field("wavelength_m", wavelength_m, "> 0")
    return math.fsum(p.sigma_m2 * math.cos(2.0 * math.pi * p.range_m / wavelength_m)
                     for p in target.points)


def rcs_uwb(target: TargetModel) -> float:
    """Wideband cross-section model: plain sum of the point cross sections."""
    return math.fsum(p.sigma_m2 for p in target.points)


def pulse_volume_depth(tau_s: float, c_m_per_s: float = SPEED_OF_LIGHT) -> float:
    """Range extent illuminated by one pulse of width tau (c * tau).

    Pass c_m_per_s=3e8 for round textbook numbers (1 us -> 300 m,
    1 ns -> 0.3 m).
    """
    check_field("tau_s", tau_s, "> 0")
    return c_m_per_s * tau_s


def _lag_ranges_m(lags: range, params: RadarParams) -> np.ndarray:
    """Two-way range of correlation lags of one sample each."""
    return SPEED_OF_LIGHT * (np.arange(lags.start, lags.stop)
                             * (1.0 / params.sample_rate_hz)) / 2.0


def _median(x: np.ndarray) -> np.ndarray:
    """np.median along the last axis of a nonempty array, from one
    np.partition: the middle element for odd n, (a + b) / 2.0 of the two
    middle elements for even n, which is how np.median rounds.  np.median
    itself loads numpy.ma."""
    n = x.shape[-1]
    h = n // 2
    if n % 2:
        return np.partition(x, h, axis=-1)[..., h]
    part = np.partition(x, (h - 1, h), axis=-1)
    return (part[..., h - 1] + part[..., h]) / 2.0


def _sliding_max(x: np.ndarray, w: int) -> np.ndarray:
    """out[..., k] = max(x[..., k .. k+w-1]) for k = 0 .. n-w along the
    last axis, by doubling: after the pass of span s each entry is the
    maximum of 2s samples, and two overlapping windows of the largest
    power of two cover w.  max is exact, so the result holds the same
    floats as any other order."""
    m, span = x, 1
    while 2 * span <= w:
        m = np.maximum(m[..., :-span], m[..., span:])
        span *= 2
    return np.maximum(m[..., :m.shape[-1] - (w - span)], m[..., w - span:])


def _centroid(ranges, weights) -> float:
    """np.average(ranges, weights=weights) of nonempty 1-D float sequences
    with a positive weight sum: the same float, without its argument
    checks.  One weight is averaged in Python floats, by the same two
    IEEE operations, r * w / w."""
    if len(weights) == 1:
        w = float(weights[0])
        return float(ranges[0]) * w / w
    ranges, weights = np.asarray(ranges), np.asarray(weights)
    return float((ranges * weights).sum() / weights.sum())


# The chance that noise alone is detected among `cells` bins: each bin's
# power is exponential with median ln 2 * mean, so it tops k medians with
# chance 2**-k, and the union bound cells * 2**-k is P_FA at the factor k.
P_FA = 1e-3


def detection_factor(cells: int) -> float:
    """The power over a profile's median that is detectable among ``cells``
    bins searched (at least one): ln(cells / P_FA) / ln 2."""
    return math.log(max(cells, 1) / P_FA) / math.log(2.0)


def _detect_rows(values: np.ndarray, ranges_m: np.ndarray, factor: float,
                 window_bins: int) -> list[list[Detection]]:
    """Local maxima more than ``factor`` times the noise median in power, in
    each row of ``values`` (one profile's complex values over ``ranges_m``).

    A bin qualifies when it holds the window maximum over +/-window_bins
    neighbours; among equal-power bins the smaller range wins, and runs
    of equal-power adjacent bins merge into one detection at their
    power-weighted centroid.  All rows are searched at once, each from
    its own bins; then each detection is built in row order."""
    power = np.abs(values) ** 2
    rows, n = power.shape
    if n == 0:
        return [[] for _ in range(rows)]
    # Relative floor keeps float round-off in noiseless profiles (about
    # 300 dB down) from masquerading as scatterers.
    floor = np.maximum(_median(power), power.max(axis=1) * 1e-18)
    thr = floor * factor
    # past n bins a window holds only padding, so clipping w changes nothing
    w = min(window_bins, n)
    # peak[:, k] is the maximum of padded[:, k .. k+w-1]: the w bins left of
    # bin i start at padded index i, the w bins right of it at i+w+1.
    padded = np.full((rows, n + 2 * w), -np.inf)
    padded[:, w:w + n] = power
    peak = _sliding_max(padded, w)
    candidates = ((power > thr[:, None]) & (power > 0.0)
                  & (peak[:, :n] < power) & (peak[:, w + 1:] <= power))
    rows_of, starts = np.nonzero(candidates)
    # a detection spans its run of adjacent equal-power bins: it ends at
    # the first bin from its start whose right neighbour differs, or at
    # the last bin of its row
    last = np.ones((rows, n), dtype=bool)
    np.not_equal(power[:, 1:], power[:, :-1], out=last[:, :-1])
    last = np.flatnonzero(last)
    at = rows_of * n + starts
    ends = last[np.searchsorted(last, at)] - rows_of * n
    detections = [[] for _ in range(rows)]
    for r, i, j, p, v in zip(rows_of.tolist(), starts.tolist(), ends.tolist(),
                             power.ravel()[at].tolist(),
                             values.ravel()[at].tolist()):
        run = slice(i, j + 1)
        detections[r].append(Detection(
            range_m=_centroid(ranges_m[run], power[r, run]), power=p,
            value=v))
    return detections


def calibrate(profile: RangeProfile, sigma_ref_m2: float,
              range_ref_m: float) -> Calibration:
    """Derive the power-to-m^2 gain from a reference-sphere profile.

    The detected peak's own bin range normalizes the two-way spreading
    so that estimating on the same profile returns the reference cross
    section exactly.
    """
    check_field("sigma_ref_m2", sigma_ref_m2, "> 0")
    check_field("range_ref_m", range_ref_m, "> 0")
    power = profile.power
    if power.size == 0:
        raise ValueError("reference profile is empty")
    peak_idx = int(np.argmax(power))
    peak = float(power[peak_idx])
    factor = detection_factor(power.size)
    if peak <= 0 or peak < factor * _median(power):
        raise ValueError(f"reference peak is not detectable (needs >= "
                         f"{10 * math.log10(factor):.3g} dB over the median)")
    peak_range = float(profile.ranges_m[peak_idx])
    if abs(peak_range - range_ref_m) > 4.0 * profile.bin_width_m + 0.5:
        raise ValueError(
            f"reference peak found at {peak_range:g} m, expected near "
            f"{range_ref_m:g} m")
    gain = sigma_ref_m2 / (peak * peak_range ** 4)
    return Calibration(gain=gain, reference_sigma_m2=sigma_ref_m2,
                       reference_range_m=range_ref_m)


@dataclass(frozen=True)
class ReceiverConfig:
    """Gating settings of a SweepPipeline; the scenario schema takes its
    defaults from here.  An unset max_range_m is the chain's (for_chain)."""

    blank_width_s: float = 0.0
    max_range_m: float | None = None
    gate_m: tuple[float, float] | None = None

    def __post_init__(self):
        check_field("blank_width_s", self.blank_width_s, "finite and >= 0")
        if self.max_range_m is not None:
            check_field("max_range_m", self.max_range_m, "finite and > 0")
        if self.gate_m is not None:
            lo, hi = self.gate_m
            if not 0 <= lo < hi:  # NaN fails too
                raise ValueError(f"gate_m must be (min, max) with "
                                 f"0 <= min < max, got {self.gate_m}")

    def for_chain(self, params: RadarParams) -> ReceiverConfig:
        """This config with max_range_m set, by default to 100 m (nb) or
        0.9*c*PRI/2 (uwb)."""
        return self if self.max_range_m is not None else replace(
            self, max_range_m=100.0 if params.mode is Mode.NB_DSSS
            else 0.9 * params.unambiguous_range_m)

    @property
    def range_window_m(self) -> tuple[float, float]:
        """The two-way ranges a profile keeps: c*blank/2 to max_range_m."""
        return SPEED_OF_LIGHT * self.blank_width_s / 2.0, self.max_range_m


def _rcs(detections: list[Detection], cal: Calibration, mode: Mode,
         sweep_index: int, gate_m: tuple[float, float] | None) -> RcsEstimate:
    """The calibrated cross section of one sweep from its detections in the
    gate, or from all of them when there is no gate.  Narrowband: their
    complex values are summed coherently and the resulting power is
    calibrated once at their power-weighted range.  Wideband: their powers
    are calibrated individually and added."""
    gated = [d for d in detections
             if gate_m is None or gate_m[0] <= d.range_m <= gate_m[1]]
    if not gated:
        where = f" in gate [{gate_m[0]:g}, {gate_m[1]:g}] m" if gate_m else ""
        raise NoDetections(f"{mode.value} sweep {sweep_index}: "
                           f"no scatterer detected{where}")
    if mode is Mode.DS_UWB:
        sigma = math.fsum(cal.gain * d.power * d.range_m ** 4 for d in gated)
    else:
        z = sum(d.value for d in gated)
        r_mean = _centroid([d.range_m for d in gated],
                           [d.power for d in gated])
        sigma = cal.gain * abs(z) ** 2 * r_mean ** 4
    return RcsEstimate(sigma_m2=sigma, mode=mode, sweep_index=sweep_index)


# ---------------------------------------------------------------------------
# measurement pipeline
# ---------------------------------------------------------------------------

def _active_samples(params: RadarParams, pn: PnSequence) -> int:
    """Length of the active transmission: one PRI for the narrowband
    pulse, one PRI per chip for the wideband train."""
    chips = pn.length if params.mode is Mode.DS_UWB else 1
    return params.pri_samples * chips


def make_waveform(params: RadarParams, pn: PnSequence,
                  n_samples: int | None = None
                  ) -> tuple[PulseTrain, PulseTrain]:
    """Build (transmit, matched-filter template) from the radar parameters
    and the code alone.

    Narrowband: the code's chips, repeated as far as the pulse reaches,
    held on I and Q for pulse_samples; that pulse is the template, a
    train of one chip per PRI.  Wideband: the transmission is the
    polarity-coded monocycle train and the template is the same train,
    described as monocycle, chips and PRI (trailing silence trimmed).  The
    transmit is the template's train padded to n_samples (default: the
    active transmission); no sample of it is written out.
    """
    if params.mode is Mode.NB_DSSS:
        n_chips = math.ceil(params.pulse_samples / params.samples_per_chip)
        chips = pn.chips[np.arange(n_chips) % pn.length]
        stream = qpsk_baseband(chips, chips, params)
        pulse = stream.with_samples(stream.samples[:params.pulse_samples])
        template = PulseTrain(pulse, period=params.pri_samples)
    else:
        template = uwb_pulse_train(pn, params)
    if n_samples is None:
        n_samples = _active_samples(params, pn)
    return replace(template, length=n_samples), template


def sweep_samples(params: RadarParams, pn: PnSequence,
                  max_range_m: float) -> int:
    """Length of one sweep stream: the active transmission plus the echo
    tail out to max_range_m."""
    tail = int(math.ceil(2.0 * max_range_m / SPEED_OF_LIGHT
                         * params.sample_rate_hz)) + 1
    return _active_samples(params, pn) + tail


def _first(n: int, pred) -> int:
    """The least k in [0, n) with pred(k), or n, for a pred that once true
    stays true: a bisection, so no array of the n candidates is built."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def kept_lags(params: RadarParams, pn: PnSequence,
              rx_config: ReceiverConfig) -> range:
    """The correlation lags of a sweep whose two-way ranges, those of
    _lag_ranges_m, fall in rx_config's range window.  A lag's range grows
    with the lag, so they form one run (range(0) if none)."""
    inv = 1.0 / params.sample_rate_hz
    near, far = rx_config.range_window_m
    # the template, one pulse per chip, is a PRI less one pulse shorter
    # than the active transmission
    n_lags = (sweep_samples(params, pn, far)
              - _active_samples(params, pn) + params.pri_samples
              - params.pulse_samples + 1)
    lo = _first(n_lags, lambda k: SPEED_OF_LIGHT * (k * inv) / 2.0 >= near)
    hi = _first(n_lags, lambda k: SPEED_OF_LIGHT * (k * inv) / 2.0 > far)
    return range(lo, hi) if lo < hi else range(0)


def _block_rows(window: int) -> int:
    """Sweeps per block: as many as fit _BLOCK_SAMPLES window samples, and
    at least one."""
    return max(1, _BLOCK_SAMPLES // max(window, 1))


def despread_window(params: RadarParams, pn: PnSequence,
                    rx_config: ReceiverConfig) -> tuple[range, range]:
    """(kept lags, window) of a sweep under rx_config.for_chain: the
    window of chip 0's slot that the correlator reads must end inside the
    slot, past which it would read range-aliased echoes and the next
    slot's blank.  Checked from integers, before any array is built."""
    cfg = rx_config.for_chain(params)
    lags = kept_lags(params, pn, cfg)
    window = range(lags.start, lags.stop + params.pulse_samples - 1)
    if window.stop > params.pri_samples:
        last = params.pri_samples - params.pulse_samples
        raise ValueError(
            f"{cfg.max_range_m:g} m reads past the {params.pri_samples}"
            f"-sample PRI slot; the kept lags must end by lag {last}, "
            f"{_lag_ranges_m(range(last, last + 1), params)[0]:.7g} m")
    return lags, window


def block_shape(params: RadarParams, pn: PnSequence,
                rx_config: ReceiverConfig) -> tuple[int, int]:
    """(sweeps, window samples) of a block of the pipeline these build,
    whose despread_window rules it checks."""
    window = despread_window(params, pn, rx_config)[1]
    samples = window.stop - window.start  # len() cannot pass sys.maxsize
    return _block_rows(samples), samples


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class SweepPipeline:
    """One transmit train for repeated sweeps.

    One instance owns the waveform for a given (params, code) pair and
    runs the despread_windows / correlate / profile chain on blocks of
    sweeps, which share its transmit train, whose pulse the correlator
    matches over the kept lags, its window (see despread_window) and its
    detection_factor, that of the kept bins in the gate (all of them with
    no gate).  ``chips_per_bit`` is checked against the code and otherwise
    unused, as the waveform carries no data bits; it stays while the
    benchmark's set-up passes it by position (ROADMAP item 5).
    """

    def __init__(self, params: RadarParams, pn: PnSequence,
                 chips_per_bit: int | None = None,
                 rx_config: ReceiverConfig | None = None):
        if chips_per_bit is not None:
            pn.check_chips_per_bit(chips_per_bit)
        self.params = params
        self.rx_config = cfg = (rx_config or ReceiverConfig()).for_chain(params)
        check_blank_width(params, cfg.blank_width_s)  # before any array
        self.lags, self.window = despread_window(params, pn, cfg)
        self.block_rows = _block_rows(len(self.window))
        self.tx = make_waveform(
            params, pn, sweep_samples(params, pn, cfg.max_range_m))[0]
        # increasing, and shared read-only by every profile
        self.ranges_m = read_only(_lag_ranges_m(self.lags, params))
        self.bin_width_m = SPEED_OF_LIGHT * (1.0 / params.sample_rate_hz) / 2.0
        lo, hi = cfg.gate_m or (0.0, math.inf)
        self.detection_factor = detection_factor(np.count_nonzero(
            (self.ranges_m >= lo) & (self.ranges_m <= hi)))

    def _values(self, scene: Scene, pol: Pol, sweeps: range) -> np.ndarray:
        """Profile values of a block of sweeps, one row per sweep: the
        block's despread windows, checked finite as a whole, and one
        uwb_correlate per sweep, which matches its row."""
        z = despread_windows(self.tx, scene, self.params, pol, sweeps,
                             self.window)
        check_finite(z)
        values = np.empty((len(sweeps), len(self.lags)), dtype=np.complex128)
        for row, window in zip(values, z):
            row[:] = uwb_correlate(window, self.tx, self.lags)
        values.flags.writeable = False
        return values

    def profile(self, scene: Scene, pol: Pol = Pol.VV,
                sweep_index: int = 0) -> RangeProfile:
        """Range profile of one sweep, the block of one."""
        row = self._values(scene, pol, range(sweep_index, sweep_index + 1))[0]
        return RangeProfile(ranges_m=self.ranges_m, values=row,
                            bin_width_m=self.bin_width_m)

    def detect(self, scene: Scene, pol: Pol,
               sweeps: range) -> list[list[Detection]]:
        """Detections of a block of sweeps, one list per sweep in sweep
        order: peaks over detection_factor times the noise median that top
        the pulse_samples bins either side, the span of one point's
        matched-filter response, so that its side lobes do not count and
        points a pulse apart are both found."""
        return _detect_rows(self._values(scene, pol, sweeps), self.ranges_m,
                            self.detection_factor, self.params.pulse_samples)

    def estimate(self, scene: Scene, cal: Calibration, pol: Pol,
                 sweeps: range) -> list[RcsEstimate]:
        """Calibrated cross sections of a block of sweeps, in sweep order:
        detected together, then estimated one sweep at a time."""
        found = self.detect(scene, pol, sweeps)
        return [_rcs(detections, cal, self.params.mode, k,
                     self.rx_config.gate_m)
                for k, detections in zip(sweeps, found)]

    def series(self, scene: Scene, cal: Calibration, m_sweeps: int,
               pol: Pol = Pol.VV) -> list[RcsEstimate]:
        """Estimate the cross section over sweeps 0 .. m_sweeps-1.

        Sweep k uses RNG streams derived from (scene seed, k), so phase
        jitter and noise refresh per sweep while the scene stays fixed.
        """
        return list(self._each_block(
            lambda sweeps: self.estimate(scene, cal, pol, sweeps), m_sweeps))

    def self_calibrate(self, sigma_ref_m2: float,
                       range_ref_m: float) -> Calibration:
        """Calibrate this chain on its own profile of a clean reference
        sphere (no clutter, no noise), so it scales the waveform it saw."""
        reference = Scene(target=TargetModel(points=(
            Scatterer(sigma_m2=sigma_ref_m2, range_m=range_ref_m),)))
        return calibrate(self.profile(reference), sigma_ref_m2, range_ref_m)

    def _each_block(self, run, count: int):
        """run(sweeps) over consecutive blocks of block_rows sweeps that
        cover sweeps 0 .. count-1; yields the items of the lists it
        returns, in sweep order, as they arrive.

        With W = min(_MAX_POOL_WORKERS, usable CPUs, blocks) above 1 and
        os.fork at hand, W - 1 workers are forked: worker w runs blocks w,
        w + W, ... and pickles each block's list, or the exception it
        raised, into its own pipe as soon as the block is done, and stops
        after an exception; the calling process runs blocks 0, W, ... and
        reads the workers' results in sweep order.  Otherwise the calling
        process runs every block.  Every sweep draws from its own RNG
        streams, and its arithmetic does not change with the rows beside
        it (see channel._echoes), so the results depend neither on W nor
        on the block size.  The first failing sweep in sweep order raises,
        as in a serial loop.  However the generator ends, every worker is
        SIGKILLed and reaped, so none outlives it; a worker does not wait
        for its results to be read, so it may have begun blocks after the
        failure, whose results are never read.
        """
        rows = self.block_rows
        blocks = [range(k, min(k + rows, count))
                  for k in range(0, count, rows)]
        width = (min(_MAX_POOL_WORKERS, _usable_cpus(), len(blocks))
                 if hasattr(os, "fork") else 1)
        pids, pipes = [], [None]  # pipes[w]: worker w's read end
        try:
            for w in range(1, width):
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _serve(run, blocks[w::width], read_fd, write_fd)
                os.close(write_fd)
                pids.append(pid)
                pipes.append(os.fdopen(read_fd, "rb"))
            for i, block in enumerate(blocks):
                w = i % width
                yield from _receive(pipes[w], block) if w else run(block)
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for pipe in pipes[1:]:
                pipe.close()


def _serve(run, blocks: list[range], read_fd: int, write_fd: int) -> None:
    """A forked worker's life: run each block and pickle its list, or the
    exception it raised, into write_fd, stopping after an exception; then
    exit the process, whatever happened, so that it never returns into
    the caller's frames.  It drops its copy of the pipe's read end, so a
    write fails once the calling process is gone."""
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as out:
            for block in blocks:
                try:
                    result = run(block)
                except BaseException as exc:  # raised by the caller, in order
                    result = exc
                out.write(pickle.dumps(result))
                out.flush()
                if isinstance(result, BaseException):
                    break
    finally:
        os._exit(0)


def _receive(pipe, block: range) -> list:
    """The list a worker's block returned, read from the worker's pipe;
    the exception the block raised is raised here."""
    try:
        result = pickle.load(pipe)
    except Exception as exc:  # the worker died, or its result cannot load
        raise RuntimeError(
            f"the worker process running sweeps {block.start}-"
            f"{block.stop - 1} gave no readable result "
            f"({type(exc).__name__}: {exc})") from exc
    if isinstance(result, BaseException):
        raise result
    return result


def self_calibrate(params: RadarParams, pn: PnSequence,
                   sigma_ref_m2: float, range_ref_m: float,
                   chips_per_bit: int | None = None,
                   rx_config: ReceiverConfig | None = None) -> Calibration:
    """SweepPipeline.self_calibrate on a pipeline built for the call, kept
    only for bench/child.py, which calls it by position (ROADMAP item 5)."""
    return SweepPipeline(params, pn, chips_per_bit,
                         rx_config).self_calibrate(sigma_ref_m2, range_ref_m)


@dataclass(frozen=True)
class ScanImage:
    """Azimuth x range raster of calibrated power."""

    azimuths_deg: np.ndarray
    ranges_m: np.ndarray
    power: np.ndarray  # shape (n_az, n_range), linear, RCS-calibrated

    def __post_init__(self):
        if self.power.shape != (self.azimuths_deg.size, self.ranges_m.size):
            raise ValueError("image shape mismatch")


def check_scan(azimuth_step_deg: float, beamwidth_deg: float,
               azimuth_span_deg: float) -> None:
    """Step, beamwidth and span finite and > 0, step <= beamwidth."""
    check_field("azimuth_step_deg", azimuth_step_deg, "finite and > 0")
    check_field("beamwidth_deg", beamwidth_deg, "finite and > 0")
    if azimuth_step_deg > beamwidth_deg:
        raise ValueError(f"azimuth_step_deg ({azimuth_step_deg:g}) must not "
                         f"exceed beamwidth_deg ({beamwidth_deg:g})")
    check_field("azimuth_span_deg", azimuth_span_deg, "finite and > 0")


def _beam_weight(delta_deg: np.ndarray, beamwidth_deg: float) -> np.ndarray:
    """Two-way amplitude weight of a Gaussian beam with the given -3 dB width."""
    return np.exp(-4.0 * np.log(2.0) * (delta_deg / beamwidth_deg) ** 2)


def scan_image(pipeline: SweepPipeline, scene: Scene, cal: Calibration,
               azimuth_step_deg: float, beamwidth_deg: float,
               az_span_deg: float, pol: Pol = Pol.VV) -> ScanImage:
    """Mechanical azimuth raster over +-az_span_deg: weight the scene by
    the beam, profile, and stack rows into a calibrated image (see
    check_scan)."""
    check_scan(azimuth_step_deg, beamwidth_deg, az_span_deg)
    n_steps = int(math.ceil(az_span_deg / azimuth_step_deg))
    azimuths = np.arange(-n_steps, n_steps + 1) * azimuth_step_deg

    points = scene.all_points
    ranges = pipeline.ranges_m
    r4 = ranges ** 4
    power = np.empty((azimuths.size, ranges.size))

    def row(row_idx):
        az = azimuths[row_idx]
        weighted = []
        for p in points:
            w = float(_beam_weight(
                np.array(math.degrees(p.azimuth_rad) - az), beamwidth_deg))
            if w < 1e-8:
                continue
            weighted.append(replace(p, sigma_m2=p.sigma_m2 * w * w))
        # clutter is already weighted into the target; a row with no point
        # in the beam keeps a zero-strength placeholder
        row_points = tuple(weighted) or (
            Scatterer(sigma_m2=0.0, range_m=points[0].range_m),)
        pointed = replace(scene, target=TargetModel(points=row_points),
                          clutter=())
        prof = pipeline.profile(pointed, pol, sweep_index=row_idx)
        return cal.gain * prof.power * r4

    for row_idx, values in enumerate(pipeline._each_block(
            lambda rows: [row(k) for k in rows], azimuths.size)):
        power[row_idx] = values
    return ScanImage(azimuths_deg=azimuths, ranges_m=ranges, power=power)
