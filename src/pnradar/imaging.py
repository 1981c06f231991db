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
import select
import signal
from collections import deque
from collections.abc import Iterator
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
# Measured with one forked worker on 2 CPUs (medians of 8 alternating
# fresh-process runs), nb_dense_series's 600 sweeps took 0.125, 0.120 and
# 0.122 s in blocks of 9, 19 and 38 (peak RSS 40.5, 40.9, 41.8 MB): a tie.
_BLOCK_SAMPLES = 1 << 14

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


def lag_range_m(lag: int, params: RadarParams) -> float:
    """The float _lag_ranges_m gives one lag, from Python floats."""
    return SPEED_OF_LIGHT * (lag * (1.0 / params.sample_rate_hz)) / 2.0


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
    return math.log(cells / P_FA) / math.log(2.0)


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
    if peak_range == 0:
        raise ValueError("reference peak found in the 0 m range bin; a "
                         "calibration needs it at a positive range")
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
    near, far = rx_config.range_window_m
    # the template, one pulse per chip, is a PRI less one pulse shorter
    # than the active transmission
    n_lags = (sweep_samples(params, pn, far)
              - _active_samples(params, pn) + params.pri_samples
              - params.pulse_samples + 1)
    lo = _first(n_lags, lambda k: lag_range_m(k, params) >= near)
    hi = _first(n_lags, lambda k: lag_range_m(k, params) > far)
    return range(lo, hi) if lo < hi else range(0)


def gate_lags(params: RadarParams, lags: range,
              gate_m: tuple[float, float] | None) -> range:
    """The lags of ``lags`` whose two-way ranges fall in gate_m, all of
    them with no gate: one run, found from integers.  Empty, it starts at
    the first of ``lags`` at or past the gate's near edge."""
    if gate_m is None:
        return lags

    def first(past) -> int:
        return lags.start + _first(
            len(lags), lambda j: past(lag_range_m(lags.start + j, params)))

    return range(first(lambda r: r >= gate_m[0]),
                 first(lambda r: r > gate_m[1]))


def despread_window(params: RadarParams, pn: PnSequence,
                    rx_config: ReceiverConfig) -> tuple[range, range]:
    """(kept lags, window) of a sweep under rx_config, as for_chain gives
    it: the window of chip 0's slot that the correlator reads must end
    inside the slot, past which it would read range-aliased echoes and the
    next slot's blank.  Checked from integers, before any array is built."""
    lags = kept_lags(params, pn, rx_config)
    window = range(lags.start, lags.stop + params.pulse_samples - 1)
    if window.stop > params.pri_samples:
        last = params.pri_samples - params.pulse_samples
        raise ValueError(
            f"{rx_config.max_range_m:g} m reads past the {params.pri_samples}"
            f"-sample PRI slot; the kept lags must end by lag {last}, "
            f"{lag_range_m(last, params):.7g} m")
    return lags, window


def block_shape(window: range, period: int) -> tuple[int, int, int]:
    """(sweeps, window samples, noise-chunk samples) of a block: as many
    sweeps as fit _BLOCK_SAMPLES samples of the despread window, at least
    one, and the PRI period despread_windows draws each noise chunk of."""
    samples = window.stop - window.start  # len() cannot pass sys.maxsize
    return max(1, _BLOCK_SAMPLES // max(samples, 1)), samples, period


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
    no gate), which must hold one; both rules are checked from integers,
    before any array is built.  ``chips_per_bit`` is checked against the
    code and otherwise unused, as the waveform carries no data bits; it
    stays while the benchmark's set-up passes it by position (ROADMAP
    item 5).
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
        cells = len(gate_lags(params, self.lags, cfg.gate_m))
        if not cells:  # a scenario names the field at fault before this
            raise ValueError(f"no kept range bin to detect in: kept lags "
                             f"{self.lags}, gate_m {cfg.gate_m}")
        self.detection_factor = detection_factor(cells)
        self.block_rows = block_shape(self.window, params.pri_samples)[0]
        self.tx = make_waveform(
            params, pn, sweep_samples(params, pn, cfg.max_range_m))[0]
        # increasing, and shared read-only by every profile
        self.ranges_m = read_only(_lag_ranges_m(self.lags, params))
        self.bin_width_m = SPEED_OF_LIGHT * (1.0 / params.sample_rate_hz) / 2.0

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

        With more than one block, a second usable CPU and os.fork at hand,
        one worker is forked, and each of the two processes takes the next
        undealt block when it is free (see _deal).  A block's work is
        mostly interpreter time between short numpy calls, so threads took
        turns at the GIL where two processes run at once.  Otherwise the
        calling process runs every block.  Every sweep draws from its own
        RNG streams, and its arithmetic does not change with the rows
        beside it (see channel._echoes), so the results depend neither on
        which process ran a block nor on the block size.  The first
        failing sweep in sweep order raises, as in a serial loop.
        """
        rows = self.block_rows
        blocks = [range(k, min(k + rows, count))
                  for k in range(0, count, rows)]
        if len(blocks) > 1 and _usable_cpus() > 1 and hasattr(os, "fork"):
            yield from _deal(run, blocks)
        else:
            for block in blocks:
                yield from run(block)


# Blocks dealt to the worker whose results are not yet read, at most: the
# second keeps it busy while the calling process, which deals only between
# its own blocks, is running one.
_OUTSTANDING = 2


def _deal(run, blocks: list[range]):
    """run(block) for each block in the calling process and one forked
    worker, yielding the items of each block's list in sweep order.

    The calling process takes block 0 and deals the next block indices to
    the worker through its ticket pipe, _OUTSTANDING while at least two
    blocks are left undealt and one after, so that the last blocks go to
    whichever process is free first.  Then it runs the next undealt block
    whenever the block due next in sweep order has no result yet; between
    its blocks it reads, without waiting, each result the worker has piped
    back and deals the worker its next block.  With nothing left to run it
    waits for a result.  Results are buffered by block and yielded in
    sweep order.  A block that fails stops the dealing, so no block after
    it starts anywhere; its exception is raised when its turn comes, once
    every earlier block has given its list, so the first failing sweep in
    sweep order raises.  However the generator ends, the worker is
    SIGKILLed and reaped, so it does not outlive it.
    """
    undealt = deque(range(1, len(blocks)))
    dealt = deque()  # the worker's blocks whose results are not yet read
    done = {}  # block index -> its list, or the exception it raised

    def settle(i: int, result) -> None:
        done[i] = result
        if isinstance(result, Exception):
            undealt.clear()

    def deal() -> None:
        # a second block only while each process can still take one
        while undealt and len(dealt) < (
                _OUTSTANDING if len(undealt) >= 2 else 1):
            dealt.append(undealt.popleft())
            try:
                os.write(tickets, dealt[-1].to_bytes(4, "little"))
            except BrokenPipeError:  # it has exited: its result pipe says why
                pass

    pid, tickets, results = _fork(run, blocks)
    try:
        deal()
        settle(0, _attempt(run, blocks[0]))
        poller = select.poll()  # select would fail past fd 1023
        poller.register(results, select.POLLIN)
        for head in range(len(blocks)):
            while head not in done:
                if dealt and poller.poll(0 if undealt else None):
                    i = dealt.popleft()
                    settle(i, _receive(results, blocks[i]))
                    deal()
                if head not in done and undealt:
                    i = undealt.popleft()
                    settle(i, _attempt(run, blocks[i]))
            result = done.pop(head)
            if isinstance(result, Exception):
                raise result
            yield from result
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(tickets)
        os.close(results)


def _attempt(run, block: range):
    """run(block)'s list, or the exception it raised."""
    try:
        return run(block)
    except Exception as exc:  # raised in sweep order, by _deal
        return exc


def _fork(run, blocks: list[range]) -> tuple[int, int, int]:
    """Fork the worker that serves run over blocks (see _serve); returns
    its pid, the write end of its ticket pipe and the read end of its
    result pipe."""
    ends = os.pipe() + os.pipe()
    try:
        _widen(ends[2])
        pid = os.fork()
    except BaseException:
        for fd in ends:
            os.close(fd)
        raise
    tickets_r, tickets_w, results_r, results_w = ends
    if pid == 0:
        _serve(run, blocks, tickets_r, results_w, (tickets_w, results_r))
    os.close(tickets_r)
    os.close(results_w)
    return pid, tickets_w, results_r


# A result pipe's capacity: room for several of a worker's results, such
# as a 75 kB uwb_scan row, so that a worker does not wait for the calling
# process to read one before it runs its next block.  With Linux's default
# of 64 kB, a whole uwb_scan run was slower than with the static split
# this dealing replaced in 8 of 10 alternating fresh-process pairs, and
# with 1 MB, Linux's default cap, faster in 10 of 10 (2 CPUs).
_RESULT_PIPE_BYTES = 1 << 20


def _widen(fd: int) -> None:
    """Grow a pipe to _RESULT_PIPE_BYTES where the platform allows it."""
    import fcntl  # POSIX only, as is os.fork
    if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux only
        try:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _RESULT_PIPE_BYTES)
        except OSError:  # past the system's limit: the default works too
            pass


def _serve(run, blocks: list[range], tickets: int, results: int,
           inherited: tuple[int, int]) -> None:
    """A forked worker's life: for each block index read from tickets, pipe
    the block's _attempt into results as a length and a pickle, stopping
    after an exception or when the ticket pipe closes; then exit the
    process, whatever happened, so that it never returns into the
    caller's frames.  It first closes the calling process's ends of its
    pipes, inherited by the fork, so that its pipes close with the
    caller."""
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(results, "wb") as out:
            while True:
                try:
                    i = int.from_bytes(_read(tickets, 4), "little")
                except EOFError:
                    break
                result = _attempt(run, blocks[i])
                data = pickle.dumps(result)
                out.write(len(data).to_bytes(8, "little"))
                out.write(data)
                out.flush()
                if isinstance(result, Exception):
                    break
    finally:
        os._exit(0)


def _read(fd: int, n: int) -> bytes:
    """Exactly n bytes from fd, read without a buffer, so that poll sees
    what is left; EOFError if it closes first."""
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            raise EOFError("Ran out of input")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _receive(fd: int, block: range):
    """The list a worker's block returned, or the exception it raised, read
    from the worker's result pipe; a RuntimeError if the worker died
    without a result or its result cannot load."""
    try:
        return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))
    except Exception as exc:
        error = RuntimeError(
            f"the worker process running sweeps {block.start}-"
            f"{block.stop - 1} gave no readable result "
            f"({type(exc).__name__}: {exc})")
        error.__cause__ = exc
        return error


def self_calibrate(params: RadarParams, pn: PnSequence,
                   sigma_ref_m2: float, range_ref_m: float,
                   chips_per_bit: int | None = None,
                   rx_config: ReceiverConfig | None = None) -> Calibration:
    """SweepPipeline.self_calibrate on a pipeline built for the call, kept
    only for bench/child.py, which calls it by position (ROADMAP item 5)."""
    return SweepPipeline(params, pn, chips_per_bit,
                         rx_config).self_calibrate(sigma_ref_m2, range_ref_m)


@dataclass(frozen=True)
class ScanRows:
    """Azimuth x range raster of calibrated power (linear, RCS-calibrated),
    whose rows, one per azimuth in order, are computed as they are read:
    they can be read once."""

    azimuths_deg: np.ndarray
    ranges_m: np.ndarray
    rows: Iterator[np.ndarray]


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


def scan_rows(pipeline: SweepPipeline, scene: Scene, cal: Calibration,
              azimuth_step_deg: float, beamwidth_deg: float,
              az_span_deg: float, pol: Pol = Pol.VV) -> ScanRows:
    """Mechanical azimuth raster over +-az_span_deg: weight the scene by
    the beam and profile, row by row, into calibrated power (see
    check_scan, checked here).  The rows are computed as they are read,
    by the pipeline's blocks (SweepPipeline._each_block)."""
    check_scan(azimuth_step_deg, beamwidth_deg, az_span_deg)
    n_steps = int(math.ceil(az_span_deg / azimuth_step_deg))
    azimuths = np.arange(-n_steps, n_steps + 1) * azimuth_step_deg

    points = scene.all_points
    ranges = pipeline.ranges_m
    r4 = ranges ** 4

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

    return ScanRows(azimuths_deg=azimuths, ranges_m=ranges,
                    rows=pipeline._each_block(
                        lambda rows: [row(k) for k in rows], azimuths.size))

