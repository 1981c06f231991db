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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import Pol, Scatterer, Scene, TargetModel, propagate
from .codes import PnSequence
from .receiver import rx_gate, uwb_correlate
from .waveform import (Mode, PulseTrain, RadarParams, SampleStream,
                       SPEED_OF_LIGHT, gate_pulse, qpsk_baseband, spread,
                       uwb_pulse_train)

# Sweeps run on a thread pool only when a sweep's stream holds at least
# this many samples, so that numpy work that releases the GIL (the noise
# draw and the whole-stream adds) dominates a sweep.  Measured on 2 CPUs:
# pooling the 319,341-sample UWB sweeps took the sphere_compare benchmark
# from 0.80 to 0.49 s (medians of 10 runs each), while pooling the
# 8,055-sample NB sweeps made nb_dense_series 11% slower (0.64 -> 0.71 s).
_POOL_MIN_SAMPLES = 1 << 16

# At most this many sweeps run at once.  Each one in flight holds its own
# receive buffer (5.1 MB for a UWB sweep) plus its whole-stream
# temporaries, so peak memory grows with the width; the gains above and
# the peak RSS they cost (53.1 -> 55.4 MB on sphere_compare, 60.1 -> 61.1
# MB on uwb_scan) were measured at 2 workers, and wider pools are not.
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
    pol: Pol | None = None
    sweep_index: int = 0

    def __post_init__(self):
        ranges = np.asarray(self.ranges_m, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.complex128)
        if ranges.shape != values.shape:
            raise ValueError("ranges and values must have equal length")
        if ranges.size and np.any(np.diff(ranges) <= 0):
            raise ValueError("ranges must be strictly increasing")
        ranges.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "ranges_m", ranges)
        object.__setattr__(self, "values", values)

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
    """Calibrated cross section with its logarithmic form.

    Measured estimates are non-negative; the narrowband closed-form
    model may be negative, in which case dbsm reports the magnitude.
    """

    sigma_m2: float
    mode: Mode
    sweep_index: int = 0
    dbsm: float = field(init=False)

    def __post_init__(self):
        if self.mode is Mode.DS_UWB and self.sigma_m2 < 0:
            raise ValueError("wideband cross section cannot be negative")
        mag = abs(self.sigma_m2)
        value = 10.0 * math.log10(mag) if mag > 0 else -math.inf
        object.__setattr__(self, "dbsm", value)


@dataclass(frozen=True)
class Calibration:
    """Scale from integrated profile power to square meters."""

    gain: float
    reference_sigma_m2: float
    reference_range_m: float

    def __post_init__(self):
        if not self.gain > 0:
            raise ValueError("calibration gain must be positive")


def rcs_nb(target: TargetModel, wavelength_m: float) -> float:
    """Narrowband cross-section model: sum of sigma_k * cos(2*pi*R_k/lambda).

    The value is signed; destructive phase alignment can drive it toward
    zero or below.  Sums are evaluated with exact rounding so the
    wideband bound holds exactly.
    """
    if wavelength_m <= 0:
        raise ValueError("wavelength must be positive")
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
    if tau_s <= 0:
        raise ValueError("tau_s must be positive")
    return c_m_per_s * tau_s


def _lag_ranges_m(lags: range, params: RadarParams) -> np.ndarray:
    """Two-way range of correlation lags of one sample each."""
    return SPEED_OF_LIGHT * (np.arange(lags.start, lags.stop)
                             * (1.0 / params.sample_rate_hz)) / 2.0


def kept_lags(params: RadarParams, n_lags: int,
              window_m: tuple[float, float]) -> range:
    """The lags, out of 0 .. n_lags-1, whose ranges fall in ``window_m``
    (see ReceiverConfig.range_window_m); they form one contiguous run."""
    near, far = window_m
    ranges = _lag_ranges_m(range(n_lags), params)
    keep = (ranges >= near) & (ranges <= far)
    idx = np.flatnonzero(keep)
    return range(idx[0], idx[-1] + 1) if idx.size else range(0)


def range_profile(values: np.ndarray, params: RadarParams, lags: range,
                  pol: Pol | None = None, sweep_index: int = 0) -> RangeProfile:
    """Map correlation values at ``lags`` (see kept_lags) to two-way range."""
    if len(values) != len(lags):
        raise ValueError(
            f"{len(values)} correlation values for {len(lags)} lags")
    lag_s = 1.0 / params.sample_rate_hz
    return RangeProfile(ranges_m=_lag_ranges_m(lags, params), values=values,
                        bin_width_m=SPEED_OF_LIGHT * lag_s / 2.0,
                        pol=pol, sweep_index=sweep_index)


def _median(x: np.ndarray) -> float:
    """np.median of a nonempty 1-D array, from one np.partition: the
    middle element for odd n, (a + b) / 2.0 of the two middle elements
    for even n, which is how np.median rounds.  np.median itself loads
    numpy.ma."""
    h = x.size // 2
    if x.size % 2:
        return float(np.partition(x, h)[h])
    part = np.partition(x, (h - 1, h))
    return (float(part[h - 1]) + float(part[h])) / 2.0


def _sliding_max(x: np.ndarray, w: int) -> np.ndarray:
    """out[k] = max(x[k .. k+w-1]) for k = 0 .. len(x)-w, by doubling:
    after the pass of span s each entry is the maximum of 2s samples, and
    two overlapping windows of the largest power of two cover w.  max is
    exact, so the result holds the same floats as any other order."""
    m, span = x, 1
    while 2 * span <= w:
        m = np.maximum(m[:-span], m[span:])
        span *= 2
    return np.maximum(m[:m.size - (w - span)], m[w - span:])


def detect_scatterers(profile: RangeProfile, threshold_db_above_noise: float,
                      window_bins: int = 1) -> list[Detection]:
    """Pick local maxima more than the threshold above the noise median.

    A bin qualifies when it holds the window maximum over +/-window_bins
    neighbours; among equal-power bins the smaller range wins, and runs
    of equal-power adjacent bins merge into one detection at their
    power-weighted centroid.
    """
    if threshold_db_above_noise <= 0:
        raise ValueError("threshold must be positive (dB above noise)")
    power = profile.power
    n = power.size
    if n == 0:
        return []
    # Relative floor keeps float round-off in noiseless profiles (about
    # 300 dB down) from masquerading as scatterers.
    floor = max(_median(power), float(power.max()) * 1e-18)
    thr = floor * 10.0 ** (threshold_db_above_noise / 10.0)
    # past n bins a window holds only padding, so clipping w changes nothing
    w = min(max(1, int(window_bins)), n)
    # peak[k] is the maximum of padded[k .. k+w-1]: the w bins left of bin i
    # start at padded index i, the w bins right of it at i+w+1.
    padded = np.concatenate([np.full(w, -np.inf), power, np.full(w, -np.inf)])
    peak = _sliding_max(padded, w)
    left = peak[:n]
    right = peak[w + 1:]
    starts = np.flatnonzero((power > thr) & (power > 0.0)
                            & (left < power) & (right <= power))
    # a detection spans its run of adjacent equal-power bins
    changes = np.flatnonzero(power[1:] != power[:-1])
    ends = np.append(changes, n - 1)[np.searchsorted(changes, starts)]
    detections = []
    for i, j in zip(starts.tolist(), ends.tolist()):
        run = slice(i, j + 1)
        centroid = float(np.average(profile.ranges_m[run], weights=power[run]))
        detections.append(Detection(range_m=centroid, power=float(power[i]),
                                    value=complex(profile.values[i])))
    return detections


def calibrate(profile: RangeProfile, sigma_ref_m2: float,
              range_ref_m: float) -> Calibration:
    """Derive the power-to-m^2 gain from a reference-sphere profile.

    The detected peak's own bin range normalizes the two-way spreading
    so that estimating on the same profile returns the reference cross
    section exactly.
    """
    if sigma_ref_m2 <= 0:
        raise ValueError("reference cross section must be positive")
    if range_ref_m <= 0:
        raise ValueError("reference range must be positive")
    power = profile.power
    if power.size == 0:
        raise ValueError("reference profile is empty")
    peak_idx = int(np.argmax(power))
    peak = float(power[peak_idx])
    floor = _median(power)
    if peak <= 0 or (floor > 0 and peak < 10.0 * floor):
        raise ValueError(
            "reference peak is not detectable (needs >= 10 dB above the "
            "profile median)")
    peak_range = float(profile.ranges_m[peak_idx])
    if abs(peak_range - range_ref_m) > 4.0 * profile.bin_width_m + 0.5:
        raise ValueError(
            f"reference peak found at {peak_range:g} m, expected near "
            f"{range_ref_m:g} m")
    gain = sigma_ref_m2 / (peak * peak_range ** 4)
    return Calibration(gain=gain, reference_sigma_m2=sigma_ref_m2,
                       reference_range_m=range_ref_m)


def estimate_rcs(profile: RangeProfile, cal: Calibration, mode: Mode,
                 threshold_db: float = 10.0, window_bins: int = 1,
                 gate_m: tuple[float, float] | None = None,
                 margin_bins: int = 2) -> RcsEstimate:
    """Convert detected peaks into a calibrated cross section.

    Narrowband: the complex peak values inside the target window are
    summed coherently and the resulting power is calibrated once at the
    power-weighted window range.  Wideband: per-peak powers are
    calibrated individually and added.
    """
    detections = detect_scatterers(profile, threshold_db, window_bins)
    if gate_m is not None:
        lo, hi = gate_m
        gated = [d for d in detections if lo <= d.range_m <= hi]
    else:
        gated = detections
    if not gated:
        where = f" in gate [{gate_m[0]:g}, {gate_m[1]:g}] m" if gate_m else ""
        raise NoDetections(f"no scatterer detected{where}")
    margin = margin_bins * profile.bin_width_m
    w_lo = min(d.range_m for d in gated) - margin
    w_hi = max(d.range_m for d in gated) + margin
    peaks = [d for d in detections if w_lo <= d.range_m <= w_hi]
    if mode is Mode.DS_UWB:
        sigma = math.fsum(cal.gain * d.power * d.range_m ** 4 for d in peaks)
    else:
        z = sum(d.value for d in peaks)
        weights = np.array([d.power for d in peaks])
        ranges = np.array([d.range_m for d in peaks])
        r_mean = float(np.average(ranges, weights=weights))
        sigma = cal.gain * abs(z) ** 2 * r_mean ** 4
    return RcsEstimate(sigma_m2=sigma, mode=mode,
                       sweep_index=profile.sweep_index)


# ---------------------------------------------------------------------------
# measurement pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReceiverConfig:
    """Detection and gating settings shared by the experiment drivers."""

    blank_width_s: float = 0.0
    threshold_db: float = 10.0
    max_range_m: float = 20.0
    gate_m: tuple[float, float] | None = None
    margin_bins: int = 2

    @property
    def range_window_m(self) -> tuple[float, float]:
        """The two-way ranges a profile keeps: from the end of the receive
        blank, c*blank/2, to max_range_m."""
        return SPEED_OF_LIGHT * self.blank_width_s / 2.0, self.max_range_m


def matched_window_bins(params: RadarParams) -> int:
    """Peak-suppression window: the matched-filter mainlobe/sidelobe span."""
    fs = params.sample_rate_hz
    if params.mode is Mode.DS_UWB:
        return max(1, 2 * int(round(params.monocycle_support_s * fs)))
    return max(1, 2 * int(round(params.pulse_width_s * fs)))


def _active_samples(params: RadarParams, pn: PnSequence) -> int:
    """Length of the active transmission: one PRI for the narrowband
    pulse, one PRI per chip for the wideband train."""
    period = int(round(params.pri_s * params.sample_rate_hz))
    return period * pn.length if params.mode is Mode.DS_UWB else period


def make_waveform(params: RadarParams, pn: PnSequence,
                  chips_per_bit: int | None = None,
                  n_samples: int | None = None
                  ) -> tuple[SampleStream, PulseTrain]:
    """Build (transmit stream, matched-filter template).

    Narrowband: spread all-zero data over the code, hold on I and Q,
    gate to one pulse per PRI; the template is the pulse span, a train
    of one chip.  Wideband: the transmission is the polarity-coded
    monocycle train and the template is the same train, described as
    monocycle, chips and PRI (trailing silence trimmed).  The transmit
    stream is the template's train written straight into n_samples
    zeros (default: the active transmission).
    """
    fs = params.sample_rate_hz
    if params.mode is Mode.NB_DSSS:
        cpb = chips_per_bit or pn.length
        n_chips = math.ceil(params.pri_s * params.chip_rate_hz)
        n_bits = math.ceil(n_chips / cpb)
        chips = spread(np.zeros(n_bits, dtype=np.int64), pn, cpb)
        stream = qpsk_baseband(chips, chips, params)
        n_pri = int(round(params.pri_s * fs))
        samples = stream.samples[:n_pri]
        active = gate_pulse(SampleStream(samples, fs, params.carrier_hz), params)
        n_pulse = int(round(params.pulse_width_s * fs))
        template = PulseTrain(SampleStream(active.samples[:n_pulse], fs,
                                           params.carrier_hz))
    else:
        template = uwb_pulse_train(pn, params)
    if n_samples is None:
        n_samples = _active_samples(params, pn)
    tx = SampleStream(template.samples(n_samples), fs, params.carrier_hz)
    return tx, template


def sweep_samples(params: RadarParams, pn: PnSequence,
                  max_range_m: float) -> int:
    """Length of one sweep stream: the active transmission plus the echo
    tail out to max_range_m."""
    tail = int(math.ceil(2.0 * max_range_m / SPEED_OF_LIGHT
                         * params.sample_rate_hz)) + 1
    return _active_samples(params, pn) + tail


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class SweepPipeline:
    """Precomputed transmit/template pair for repeated sweeps.

    One instance owns the waveform for a given (params, code) pair and
    runs the propagate / gate / correlate / profile chain per sweep.  The
    correlator computes only the lags the profile keeps.
    """

    def __init__(self, params: RadarParams, pn: PnSequence,
                 chips_per_bit: int | None = None,
                 rx_config: ReceiverConfig | None = None):
        self.params = params
        self.rx_config = cfg = rx_config or ReceiverConfig()
        self.tx, self.template = make_waveform(
            params, pn, chips_per_bit,
            sweep_samples(params, pn, cfg.max_range_m))
        self.lags = kept_lags(params, len(self.tx) - len(self.template) + 1,
                              cfg.range_window_m)
        self.window_bins = matched_window_bins(params)

    def profile(self, scene: Scene, pol: Pol = Pol.VV, sweep_index: int = 0,
                out: np.ndarray | None = None) -> RangeProfile:
        """Range profile of one sweep.  The received stream is built and
        blanked in ``out``, a writable complex array of len(self.tx) that
        the caller may reuse (the profile keeps no reference to it), or
        in a fresh buffer."""
        if out is None:
            out = np.empty(len(self.tx), dtype=np.complex128)
        rx = propagate(self.tx, scene, self.params, pol, sweep_index, out=out)
        cfg = self.rx_config
        if cfg.blank_width_s > 0:
            rx = rx_gate(rx, self.params, cfg.blank_width_s, out=out)
        return range_profile(uwb_correlate(rx, self.template, self.lags),
                             self.params, self.lags, pol=pol,
                             sweep_index=sweep_index)

    def estimate(self, scene: Scene, cal: Calibration, pol: Pol = Pol.VV,
                 sweep_index: int = 0,
                 out: np.ndarray | None = None) -> RcsEstimate:
        """Calibrated cross section of one sweep (``out`` as in profile)."""
        cfg = self.rx_config
        prof = self.profile(scene, pol, sweep_index, out=out)
        return estimate_rcs(prof, cal, self.params.mode,
                            threshold_db=cfg.threshold_db,
                            window_bins=self.window_bins,
                            gate_m=cfg.gate_m, margin_bins=cfg.margin_bins)

    def series(self, scene: Scene, cal: Calibration, m_sweeps: int,
               pol: Pol = Pol.VV) -> list[RcsEstimate]:
        """Estimate the cross section over sweeps 0 .. m_sweeps-1.

        Sweep k uses RNG streams derived from (scene seed, k), so phase
        jitter and noise refresh per sweep while the scene stays fixed.
        """
        return self._each_sweep(
            lambda k, rx: self.estimate(scene, cal, pol, sweep_index=k,
                                        out=rx), m_sweeps)

    def _each_sweep(self, sweep, count: int) -> list:
        """[sweep(k, rx) for k in range(count)], in sweep order, where rx
        is a receive buffer that the running thread reuses for every sweep
        it runs; the buffers are freed on return.

        Long streams (see _POOL_MIN_SAMPLES) run on a thread pool sized to
        the usable CPUs, at most _MAX_POOL_WORKERS.  Every sweep draws from its own RNG streams, so
        the results do not depend on the number of workers.  The first
        failing sweep in sweep order raises, as in a serial loop, and the
        sweeps not yet started are cancelled.
        """
        n = len(self.tx)
        local = threading.local()

        def run(k):
            rx = getattr(local, "rx", None)
            if rx is None:
                rx = local.rx = np.empty(n, dtype=np.complex128)
            return sweep(k, rx)

        workers = (min(_MAX_POOL_WORKERS, _usable_cpus(), count)
                   if n >= _POOL_MIN_SAMPLES else 1)
        if workers <= 1:
            return [run(k) for k in range(count)]
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(run, k) for k in range(count)]
            return [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)


def self_calibrate(params: RadarParams, pn: PnSequence,
                   sigma_ref_m2: float, range_ref_m: float,
                   chips_per_bit: int | None = None,
                   rx_config: ReceiverConfig | None = None, *,
                   pipeline: SweepPipeline | None = None) -> Calibration:
    """Calibrate against a clean reference sphere (no clutter, no noise).

    Pass the experiment's own ``pipeline`` to reuse its waveform; it must
    have been built for ``params``.
    """
    if pipeline is None:
        pipeline = SweepPipeline(params, pn, chips_per_bit, rx_config)
    elif pipeline.params != params:
        raise ValueError("pipeline was built for other radar parameters")
    reference = Scene(target=TargetModel(points=(
        Scatterer(sigma_m2=sigma_ref_m2, range_m=range_ref_m),)))
    return calibrate(pipeline.profile(reference), sigma_ref_m2, range_ref_m)


@dataclass(frozen=True)
class ScanImage:
    """Azimuth x range raster of calibrated power."""

    azimuths_deg: np.ndarray
    ranges_m: np.ndarray
    power: np.ndarray  # shape (n_az, n_range), linear, RCS-calibrated

    def __post_init__(self):
        if self.power.shape != (self.azimuths_deg.size, self.ranges_m.size):
            raise ValueError("image shape mismatch")


def _beam_weight(delta_deg: np.ndarray, beamwidth_deg: float) -> np.ndarray:
    """Two-way amplitude weight of a Gaussian beam with the given -3 dB width."""
    return np.exp(-4.0 * np.log(2.0) * (delta_deg / beamwidth_deg) ** 2)


def scan_image(pipeline: SweepPipeline, scene: Scene, cal: Calibration,
               azimuth_step_deg: float, beamwidth_deg: float,
               az_span_deg: float | None = None,
               pol: Pol = Pol.VV) -> ScanImage:
    """Mechanical azimuth raster: weight the scene by the beam, profile,
    and stack rows into a calibrated image."""
    if azimuth_step_deg <= 0:
        raise ValueError("azimuth step must be positive")
    if azimuth_step_deg > beamwidth_deg:
        raise ValueError("azimuth step must not exceed the beamwidth")
    if az_span_deg is None:
        az_pts = [math.degrees(p.azimuth_rad) for p in scene.all_points]
        az_span_deg = max(abs(a) for a in az_pts) + 3.0 * beamwidth_deg
    n_steps = int(math.ceil(az_span_deg / azimuth_step_deg))
    azimuths = np.arange(-n_steps, n_steps + 1) * azimuth_step_deg

    points = scene.all_points
    ranges = _lag_ranges_m(pipeline.lags, pipeline.params)
    r4 = ranges ** 4
    power = np.empty((azimuths.size, ranges.size))

    def row(row_idx, rx):
        az = azimuths[row_idx]
        weighted = []
        for p in points:
            w = float(_beam_weight(
                np.array(math.degrees(p.azimuth_rad) - az), beamwidth_deg))
            if w < 1e-8:
                continue
            weighted.append(Scatterer(sigma_m2=p.sigma_m2 * w * w,
                                      range_m=p.range_m,
                                      cross_range_m=p.cross_range_m,
                                      pol_matrix=p.pol_matrix))
        # clutter is already weighted into the target; a row with no point
        # in the beam keeps a zero-strength placeholder
        row_points = tuple(weighted) or (
            Scatterer(sigma_m2=0.0, range_m=points[0].range_m),)
        pointed = replace(scene, target=TargetModel(points=row_points),
                          clutter=())
        prof = pipeline.profile(pointed, pol, sweep_index=row_idx, out=rx)
        power[row_idx] = cal.gain * prof.power * r4

    pipeline._each_sweep(row, azimuths.size)
    return ScanImage(azimuths_deg=azimuths, ranges_m=ranges, power=power)
