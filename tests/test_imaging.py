"""Imaging tests: closed-form cross-section models, profile formation,
detection, calibration identities, estimator behaviour, sweeps, scans."""

import ast
import dataclasses
import math
import os
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from scipy import signal, stats

from pnradar import (PREFERRED_PAIRS, Calibration, CodeKind, Detection,
                     Interferer, InterfererKind, Mode, NoDetections,
                     PnSequence, Pol, RangeProfile, RcsEstimate,
                     ReceiverConfig, SampleStream, Scatterer, Scene,
                     SweepPipeline, TargetModel, calibrate,
                     despread_windows, gen_clutter,
                     gen_gold, gen_mseq, make_waveform, nb_params,
                     pulse_volume_depth, qpsk_baseband, rcs_nb, rcs_uwb,
                     scan_rows, spread, uwb_correlate, uwb_params,
                     SPEED_OF_LIGHT)
from pnradar import imaging
from pnradar.cli import main
from pnradar.channel import _tone
from pnradar.imaging import (P_FA, _detect_rows, _median, detection_factor,
                             kept_lags, sweep_samples)
from pnradar.scenario import load_scenario
from stream_oracle import (assert_rounding_close, despread_stream,
                           propagate, rx_gate, stream_profile)

SIGMA_REF = 1e-3  # -30 dBsm reference sphere
R_REF = 10.0
ROOT = Path(__file__).resolve().parents[1]
# power factors over the median for the detector's property tests: 0.5, 3
# and 10 dB, and sphere_compare's UWB gate factor, 12.87 dB over 667 bins
FACTORS = [10.0 ** 0.05, 10.0 ** 0.3, 10.0, detection_factor(667)]


def target(*pairs):
    return TargetModel(points=tuple(
        Scatterer(sigma_m2=s, range_m=r) for s, r in pairs))


class _SharedLog:
    """Records that the calling process and its forked sweep workers add
    alike: one repr line per record, appended to a file opened O_APPEND
    for each record, so that no line interleaves with another."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def add(self, *record):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, f"{record!r}\n".encode())
        finally:
            os.close(fd)

    def read(self) -> list[tuple]:
        return [ast.literal_eval(line)
                for line in self.path.read_text().splitlines()]


@pytest.fixture(scope="module")
def uwb_setup():
    params = uwb_params()
    pn = gen_mseq([3, 1, 0])
    cfg = ReceiverConfig(max_range_m=14.0)
    pipeline = SweepPipeline(params, pn, rx_config=cfg)
    return params, pn, cfg, pipeline, pipeline.self_calibrate(SIGMA_REF, R_REF)


@pytest.fixture(scope="module")
def nb_setup():
    params = nb_params()
    pn = gen_mseq([7, 1, 0])
    cfg = ReceiverConfig(max_range_m=100.0)
    pipeline = SweepPipeline(params, pn, rx_config=cfg)
    return params, pn, cfg, pipeline, pipeline.self_calibrate(SIGMA_REF, R_REF)


class TestClosedFormModels:
    def test_nb_point_at_one_wavelength(self):
        assert rcs_nb(target((1.0, 0.3)), 0.3) == pytest.approx(1.0)

    def test_nb_point_at_quarter_wavelength(self):
        assert abs(rcs_nb(target((1.0, 0.075)), 0.3)) < 1e-12

    def test_nb_two_point_cancellation(self):
        assert abs(rcs_nb(target((1.0, 0.3), (1.0, 0.15)), 0.3)) < 1e-12

    def test_uwb_single_point(self):
        assert rcs_uwb(target((1.0, 5.0))) == 1.0

    def test_uwb_additive(self):
        assert rcs_uwb(target((1.0, 5.0), (2.0, 6.0), (3.0, 7.0))) == 6.0

    def test_uwb_permutation_invariant(self):
        a = target((1.0, 5.0), (2.0, 6.0), (3.0, 7.0))
        b = target((3.0, 7.0), (1.0, 5.0), (2.0, 6.0))
        assert rcs_uwb(a) == rcs_uwb(b)

    def test_nb_never_exceeds_uwb(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(1, 17))
            pts = [(float(rng.uniform(1e-3, 10.0)), float(rng.uniform(1.0, 100.0)))
                   for _ in range(k)]
            model = target(*pts)
            for _ in range(5):
                lam = float(rng.uniform(0.1, 1.0))
                assert rcs_nb(model, lam) <= rcs_uwb(model)

    def test_nb_wavelength_periodic_in_each_range(self):
        rng = np.random.default_rng(18)
        lam = 0.3
        for _ in range(50):
            pts = [(float(rng.uniform(0.1, 10.0)), float(rng.uniform(1.0, 100.0)))
                   for _ in range(4)]
            model = target(*pts)
            shifted = target(*((s, r + lam) for s, r in pts))
            tol = 1e-12 * max(1.0, rcs_uwb(model))
            assert abs(rcs_nb(model, lam) - rcs_nb(shifted, lam)) <= tol


class TestRcsEstimate:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_negative_cross_section_rejected(self, mode):
        for sigma in (-1e-3, math.nan):
            with pytest.raises(ValueError, match="cannot be negative"):
                RcsEstimate(sigma_m2=sigma, mode=mode)
        assert RcsEstimate(sigma_m2=0.0, mode=mode).dbsm == -math.inf
        assert RcsEstimate(sigma_m2=1e-3, mode=mode).dbsm == pytest.approx(-30)


class TestReceiverConfig:
    @pytest.mark.parametrize("field, value, match", [
        ("max_range_m", -1.0, "max_range_m must be finite and > 0"),
        ("max_range_m", math.nan, "max_range_m must be finite and > 0"),
        ("blank_width_s", math.nan, "blank_width_s must be finite and >= 0"),
        ("blank_width_s", -1e-9, "blank_width_s must be finite and >= 0"),
        ("max_range_m", 0.0, "max_range_m must be finite and > 0"),
        ("max_range_m", math.inf, "max_range_m must be finite and > 0"),
        ("blank_width_s", math.inf, "blank_width_s must be finite and >= 0"),
        ("blank_width_s", -math.inf, "blank_width_s must be finite and >= 0"),
        ("gate_m", (5.0, 1.0), re.escape(
            "gate_m must be (min, max) with 0 <= min < max, got (5.0, 1.0)")),
        ("gate_m", (-1.0, 1.0), "gate_m"),
        ("gate_m", (1.0, math.nan), "gate_m"),
    ])
    def test_fields_checked_at_construction(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ReceiverConfig(**{field: value})

    def test_edges_accepted(self):
        cfg = ReceiverConfig(blank_width_s=0.0, gate_m=(0.0, 1e-9))
        assert cfg.gate_m == (0.0, 1e-9)

    def test_unset_max_range_is_the_chains_default(self):
        # 100 m on nb; on uwb, 0.9*c*PRI/2 lies inside the 14.79 m slot
        assert [f.name for f in dataclasses.fields(ReceiverConfig)] == [
            "blank_width_s", "max_range_m", "gate_m"]
        pn = gen_mseq([5, 2, 0])
        for params, want in ((nb_params(), 100.0), (uwb_params(), 13.4906606)):
            pipeline = SweepPipeline(params, pn)
            assert pipeline.rx_config.max_range_m == pytest.approx(want)
            assert pipeline.rx_config == ReceiverConfig().for_chain(params)


class TestPulseVolumeDepth:
    def test_microsecond_pulse(self):
        assert pulse_volume_depth(1e-6, c_m_per_s=3e8) == 300.0

    def test_nanosecond_pulse(self):
        assert pulse_volume_depth(1e-9, c_m_per_s=3e8) == pytest.approx(
            0.3, rel=1e-12)

    def test_monocycle_width(self):
        assert pulse_volume_depth(0.33e-9, c_m_per_s=3e8) == pytest.approx(
            0.099, rel=1e-12)

    def test_exact_c_default(self):
        assert pulse_volume_depth(1e-6) == pytest.approx(299.792458)

    def test_nonpositive_tau_rejected(self):
        for tau in (0.0, math.nan):
            with pytest.raises(ValueError, match="tau_s must be > 0"):
                pulse_volume_depth(tau)


class TestRangeProfileAndDetection:
    def test_single_point_peak_within_one_bin(self, uwb_setup):
        _, _, _, pipeline, _ = uwb_setup
        scene = Scene(target=target((SIGMA_REF, R_REF)))
        prof = pipeline.profile(scene)
        peak = prof.ranges_m[int(np.argmax(prof.power))]
        assert abs(peak - R_REF) <= prof.bin_width_m

    def test_range_accuracy_over_random_ranges(self, uwb_setup):
        params, _, _, pipeline, _ = uwb_setup
        rng = np.random.default_rng(19)
        for _ in range(100):
            r = float(rng.uniform(0.5, 13.5))
            prof = pipeline.profile(Scene(target=target((1e-3, r))))
            peak = prof.ranges_m[int(np.argmax(prof.power))]
            assert abs(peak - r) <= prof.bin_width_m

    def test_bin_width_matches_sample_rate(self, uwb_setup):
        params, _, _, pipeline, _ = uwb_setup
        prof = pipeline.profile(Scene(target=target((SIGMA_REF, R_REF))))
        assert prof.bin_width_m == pytest.approx(
            SPEED_OF_LIGHT / (2 * params.sample_rate_hz))

    def test_noise_only_profile_has_no_detection(self, nb_setup):
        # with no gate, the detector searches all 54 kept bins
        _, _, _, pipeline, _ = nb_setup
        assert pipeline.detection_factor == detection_factor(54)
        scene = Scene(target=target((0.0, R_REF)), noise_psd=1e-15, rng_seed=3)
        assert pipeline.detect(scene, Pol.VV, range(1)) == [[]]

    def test_gate_counts_its_kept_bins_from_integers(self, monkeypatch):
        # the detector's cells are the kept bins in the gate, counted from
        # the lags; a gate between two bins stops the pipeline before it
        # builds its transmit train
        params, pn = uwb_params(), gen_mseq([3, 1, 0])
        cfg = ReceiverConfig(max_range_m=14.0, gate_m=(9.5, 10.5))
        pipeline = SweepPipeline(params, pn, rx_config=cfg)
        ranges = pipeline.ranges_m
        cells = np.count_nonzero((ranges >= 9.5) & (ranges <= 10.5))
        assert len(imaging.gate_lags(params, pipeline.lags, cfg.gate_m)) \
            == cells == 667
        assert pipeline.detection_factor == detection_factor(cells)

        def no_waveform(*args, **kwargs):
            raise AssertionError("a waveform was built")

        monkeypatch.setattr(imaging, "make_waveform", no_waveform)
        with pytest.raises(ValueError, match="^no kept range bin to detect "
                                             "in: kept lags range"):
            SweepPipeline(params, pn, rx_config=dataclasses.replace(
                cfg, gate_m=(10.0001, 10.0002)))

    def test_silent_profile_empty_detections(self, uwb_setup):
        _, _, _, pipeline, _ = uwb_setup
        scene = Scene(target=target((0.0, R_REF)))
        assert pipeline.detect(scene, Pol.VV, range(1)) == [[]]

    def test_five_point_sigma_ranks_recovered(self, uwb_setup):
        _, _, _, pipeline, cal = uwb_setup
        sigmas = [5e-3, 1e-3, 8e-3, 3e-4, 2e-3]
        ranges = [3.0, 5.0, 7.0, 9.0, 11.0]
        scene = Scene(target=target(*zip(sigmas, ranges)))
        (dets,) = pipeline.detect(scene, Pol.VV, range(1))
        assert len(dets) == 5
        est = {round(d.range_m): cal.gain * d.power * d.range_m ** 4
               for d in dets}
        truth_order = [r for _, r in sorted(zip(sigmas, ranges), reverse=True)]
        est_order = [r for r, _ in sorted(est.items(), key=lambda kv: -kv[1])]
        assert est_order == truth_order

    def test_adjacent_equal_bins_merge_to_centroid(self):
        values = np.zeros(32, dtype=complex)
        values[10] = values[11] = 2.0
        (dets,) = _detect_rows(values[None], np.arange(32) * 0.5, 10.0, 1)
        assert len(dets) == 1
        assert dets[0].range_m == pytest.approx((5.0 + 5.5) / 2)

    def test_value_types_leave_the_callers_arrays_writeable(self):
        x, v = np.ones(4, dtype=complex), np.ones(4, dtype=complex)
        r = np.arange(4.0)
        c = np.array([1, -1, 1], dtype=np.int8)
        m = np.eye(2, dtype=complex)
        prof = RangeProfile(ranges_m=r, values=v, bin_width_m=1.0)
        held = (SampleStream(x, 1.0).samples, prof.ranges_m, prof.values,
                PnSequence(c, CodeKind.MSEQUENCE).chips,
                Scatterer(sigma_m2=1.0, range_m=5.0, pol_matrix=m).pol_matrix)
        for mine, theirs in zip((x, r, v, c, m), held):
            assert mine.flags.writeable
            assert not theirs.flags.writeable
            assert np.shares_memory(mine, theirs)  # no copy

    def test_ranges_must_increase_even_when_read_only(self):
        falling = np.array([3.0, 2.0, 1.0])
        frozen = falling.copy()
        frozen.flags.writeable = False
        for ranges in (falling, frozen,
                       np.broadcast_to(np.array(5.0), (3,))):
            with pytest.raises(ValueError, match="strictly increasing"):
                RangeProfile(ranges_m=ranges, values=np.ones(3),
                             bin_width_m=0.1)


class TestFalseAlarms:
    """Sweeps of noise alone at sphere_compare's density, counted when
    they have a detection where a run estimates: in the gate, or anywhere
    with no gate."""

    @staticmethod
    def _alarms(pipeline, sweeps, seed):
        scene = Scene(target=target((0.0, R_REF)), noise_psd=1e-19,
                      rng_seed=seed)
        lo, hi = pipeline.rx_config.gate_m or (0.0, math.inf)
        return sum(any(lo <= d.range_m <= hi for d in dets)
                   for dets in pipeline._each_block(
                       lambda block: pipeline.detect(scene, Pol.VV, block),
                       sweeps))

    def test_uwb_gate_alarms_at_most_p_fa(self):
        # sphere_compare's gate holds 667 bins: 12.87 dB over the median.
        # A sweep alarms with chance at most P_FA, so 200 sweeps alarm
        # more often than Binomial(200, P_FA)'s 1 - 1e-4 quantile, 3, with
        # chance 1e-4; a 10 dB threshold alarmed in 10 to 18 of them at
        # seeds 0 to 3
        pipeline = SweepPipeline(uwb_params(), gen_mseq([3, 1, 0]),
                                 rx_config=ReceiverConfig(
                                     max_range_m=14.0, gate_m=(9.5, 10.5)))
        assert 10.0 * math.log10(pipeline.detection_factor) == \
            pytest.approx(12.87, abs=0.005)
        bound = stats.binom.ppf(1.0 - 1e-4, 200, P_FA)
        assert bound == 3
        assert self._alarms(pipeline, 200, seed=0) <= bound

    def test_nb_alarms_at_a_measured_rate(self, nb_setup):
        # NB's 54 kept bins span about 7 chip-wide cells, whose median is
        # no noise estimate, so its rate exceeds P_FA: over seeds 0 to 11,
        # 7 to 15 of 2,000 sweeps alarmed (0.56 % pooled).  The bound,
        # 1.5 %, is 2.7 times that; a 10 dB threshold alarmed in 5.7 %
        _, _, _, pipeline, _ = nb_setup
        assert self._alarms(pipeline, 2000, seed=3) <= 30


class TestPulseResolution:
    """The DS-UWB detector keeps a peak that is the maximum over
    +/-pulse_samples bins: the 133 bins (0.20 m) either side that one
    point's matched-filter response spans."""

    @pytest.mark.parametrize("spacing_m, dbsm", [
        (0.15, -30.0),   # within the pulse support: the pair merges
        (0.25, -26.99),  # 167 bins apart: both spheres count
        (0.35, -26.99),
        (0.5, -26.99),
    ])
    def test_pair_table(self, uwb_setup, spacing_m, dbsm):
        params, pn, _, _, cal = uwb_setup
        pipeline = SweepPipeline(params, pn, rx_config=ReceiverConfig(
            max_range_m=14.0, gate_m=(9.5, 10.8)))
        scene = Scene(target=target((SIGMA_REF, R_REF),
                                    (SIGMA_REF, R_REF + spacing_m)),
                      noise_psd=1e-19, rng_seed=3)
        for est in pipeline.estimate(scene, cal, Pol.VV, range(3)):
            assert est.dbsm == pytest.approx(dbsm, abs=0.2)

    @settings(max_examples=60, deadline=None)
    @given(range_m=st.floats(0.001, 14.0))
    def test_one_sphere_one_detection(self, uwb_setup, range_m):
        # the monocycle's own side lobes are local maxima well above a
        # noiseless floor; the window must hold them all
        params, _, _, pipeline, _ = uwb_setup
        assert params.pulse_samples == 133
        (dets,) = pipeline.detect(Scene(target=target((SIGMA_REF, range_m))),
                                  Pol.VV, range(1))
        assert len(dets) == 1


class TestRangeGrid:
    """A noiseless lone sphere calibrated at 10 m reads
    sigma * (R_hat / R)**4 / (R_hat_ref / R_ref)**4, where R_hat is the
    range of the sample its delay rounds to: 1.875 m steps at NB's 80 MHz,
    1.5 mm at UWB's 100 GHz."""

    RANGES_M = (3.0, 10.0, 12.0, 30.0)

    def _errors_db(self, params, max_range_m):
        pn = gen_mseq([3, 1, 0])
        cfg = ReceiverConfig(max_range_m=max_range_m)
        pipeline = SweepPipeline(params, pn, rx_config=cfg)
        cal = pipeline.self_calibrate(SIGMA_REF, R_REF)
        bin_m = SPEED_OF_LIGHT / (2.0 * params.sample_rate_hz)

        def grid(r):
            return round(2.0 * r / SPEED_OF_LIGHT * params.sample_rate_hz) \
                * bin_m

        errors = []
        for r in self.RANGES_M:
            (est,) = pipeline.estimate(Scene(target=target((SIGMA_REF, r))),
                                       cal, Pol.VV, range(1))
            error = est.dbsm - 10.0 * math.log10(SIGMA_REF)
            formula = 40.0 * (math.log10(grid(r) / r)
                              - math.log10(grid(R_REF) / R_REF))
            assert error == pytest.approx(formula, abs=1e-9)
            errors.append(error)
        return errors

    def test_nb_reads_the_grid(self):
        errors = self._errors_db(nb_params(), 100.0)
        assert [round(e, 2) for e in errors] == [5.0, 0.0, 0.0, 1.12]

    def test_uwb_grid_is_fine(self):
        # a 250 ns PRI reaches 37.5 m, past the farthest sphere
        errors = self._errors_db(uwb_params(pri_s=2.5e-7), 35.0)
        assert max(map(abs, errors)) <= 0.003


def _detect_oracle(profile, factor, window_bins):
    """Bin-by-bin reference for _detect_rows on one profile: scan left to
    right, keep a bin that is the first maximum of its window, and merge
    the run of equal-power bins that follows it."""
    power = profile.power
    n = power.size
    if n == 0:
        return []
    thr = max(float(np.median(power)), float(power.max()) * 1e-18) * factor
    w = max(1, int(window_bins))
    detections = []
    i = 0
    while i < n:
        p = power[i]
        if p <= thr or p <= 0.0:
            i += 1
            continue
        lo = max(0, i - w)
        hi = min(n, i + w + 1)
        win = power[lo:hi]
        if p < win.max() or (lo + int(np.argmax(win))) != i:
            i += 1
            continue
        j = i
        while j + 1 < n and power[j + 1] == p:
            j += 1
        run = slice(i, j + 1)
        centroid = float(np.average(profile.ranges_m[run], weights=power[run]))
        detections.append(Detection(range_m=centroid, power=float(p),
                                    value=complex(profile.values[i])))
        i = j + 1
    return detections


@st.composite
def _plateau_profile(draw):
    """Profiles from a few power levels, so that ties, plateaus and peaks
    at the edges are common."""
    levels = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 30.0, 100.0, 1e4]),
                           min_size=1, max_size=400))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(levels),
                          max_size=len(levels)))
    values = np.sqrt(levels) * np.array(signs)  # equal levels, equal power
    start = draw(st.floats(0.5, 20.0))
    ranges = start + np.arange(len(levels)) * 0.0015
    return RangeProfile(ranges_m=ranges, values=values, bin_width_m=0.0015)


@st.composite
def _plateau_block(draw):
    """Rows over one shared range axis, each drawn from a few power levels
    as in _plateau_profile, so that ties, plateaus and edge peaks are
    common."""
    n = draw(st.integers(1, 300))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.choice([0.0, 1.0, 2.0, 30.0, 100.0, 1e4], size=(rows, n))
    values = np.sqrt(levels) * rng.choice([1.0, -1.0], size=(rows, n))
    start = draw(st.floats(0.5, 20.0))
    return values.astype(complex), start + np.arange(n) * 0.0015


class TestDetectOracle:
    @settings(max_examples=400, deadline=None)
    @given(_plateau_profile(), st.integers(1, 2000),
           st.sampled_from(FACTORS))
    def test_matches_bin_by_bin_scan(self, profile, window, factor):
        assert _detect_rows(profile.values[None], profile.ranges_m,
                            factor, window) == \
            [_detect_oracle(profile, factor, window)]

    @settings(max_examples=300, deadline=None)
    @given(_plateau_block(), st.integers(1, 400),
           st.sampled_from(FACTORS))
    def test_block_matches_each_row_alone(self, block, window, factor):
        values, ranges = block
        found = _detect_rows(values, ranges, factor, window)
        assert len(found) == len(values)
        for row, detections in zip(values, found):
            profile = RangeProfile(ranges_m=ranges.copy(), values=row,
                                   bin_width_m=0.0015)
            assert [detections] == _detect_rows(row[None], ranges,
                                                factor, window)
            assert detections == _detect_oracle(profile, factor,
                                                window)

    def test_noisy_uwb_sweep_matches(self, uwb_setup):
        # a block's detections are each sweep's, detected alone
        params, _, cfg, pipeline, _ = uwb_setup
        scene = Scene(target=target((SIGMA_REF, R_REF), (2e-3, 6.0)),
                      noise_psd=1e-19, sweep_phase_jitter_rad=0.3, rng_seed=4)
        block = pipeline.detect(scene, Pol.VV, range(3))
        assert len(block) == 3
        for k, dets in enumerate(block):
            prof = pipeline.profile(scene, sweep_index=k)
            assert dets
            assert [dets] == pipeline.detect(scene, Pol.VV, range(k, k + 1))
            assert dets == _detect_oracle(prof, pipeline.detection_factor,
                                          params.pulse_samples)


def _centroid_reference(ranges, weights):
    """np.average's floats for any number of weights, in numpy: the
    reference for imaging._centroid's one-weight case."""
    return float((ranges * weights).sum() / weights.sum())


def _detect_rows_reference(values, ranges_m, factor, window_bins):
    """Reference for imaging._detect_rows: the same floor, window maxima
    and candidates, then each row's runs and centroids row by row, in
    numpy."""
    power = np.abs(values) ** 2
    rows, n = power.shape
    if n == 0:
        return [[] for _ in range(rows)]
    thr = np.maximum(_median(power), power.max(axis=1) * 1e-18) * factor
    w = min(max(1, int(window_bins)), n)
    padded = np.full((rows, n + 2 * w), -np.inf)
    padded[:, w:w + n] = power
    peak = imaging._sliding_max(padded, w)
    candidates = ((power > thr[:, None]) & (power > 0.0)
                  & (peak[:, :n] < power) & (peak[:, w + 1:] <= power))
    changed = power[:, 1:] != power[:, :-1]
    detections = []
    for p, v, found, step in zip(power, values, candidates, changed):
        starts = np.flatnonzero(found)
        changes = np.flatnonzero(step)
        ends = np.append(changes, n - 1)[np.searchsorted(changes, starts)]
        row = []
        for i, j in zip(starts.tolist(), ends.tolist()):
            run = slice(i, j + 1)
            row.append(Detection(
                range_m=_centroid_reference(ranges_m[run], p[run]),
                power=float(p[i]), value=complex(v[i])))
        detections.append(row)
    return detections


def _rcs_reference(detections, cal, mode, sweep_index, gate_m):
    """Reference for imaging._rcs: the narrowband centroid always in
    numpy."""
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
        r_mean = _centroid_reference(np.array([d.range_m for d in gated]),
                                     np.array([d.power for d in gated]))
        sigma = cal.gain * abs(z) ** 2 * r_mean ** 4
    return RcsEstimate(sigma_m2=sigma, mode=mode, sweep_index=sweep_index)


def _bits(detections):
    """Detections as the exact bits of their floats."""
    return [(d.range_m.hex(), d.power.hex(), d.value.real.hex(),
             d.value.imag.hex()) for d in detections]


@st.composite
def _detect_block(draw):
    """Rows over one shared, irregular range axis.  Powers come from a few
    levels, so that equal-power runs, several peaks and edge peaks are
    common, or from levels scaled apart, so that single-bin centroids
    round as r * p / p does; each value is a power's root times one of
    1, -1, 1j, -1j, so equal levels give equal powers."""
    n = draw(st.integers(1, 300))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.choice([0.0, 1.0, 2.0, 30.0, 100.0, 1e4], size=(rows, n))
    if draw(st.booleans()):
        levels = levels * rng.uniform(0.5, 1.5, size=(rows, n))
    values = np.sqrt(levels) * rng.choice([1, -1, 1j, -1j], size=(rows, n))
    start = draw(st.floats(0.5, 20.0))
    ranges = start + np.cumsum(rng.uniform(1e-3, 1e-2, size=n))
    return values.astype(complex), ranges


class TestDetectAndEstimateReference:
    """_detect_rows and _rcs give the bits of the references above,
    NoDetections messages included."""

    @settings(max_examples=400, deadline=None)
    @given(_detect_block(), st.integers(1, 400),
           st.sampled_from(FACTORS), st.sampled_from(list(Mode)),
           st.data())
    def test_matches_reference(self, block, window, factor, mode,
                               data):
        values, ranges = block
        found = _detect_rows(values, ranges, factor, window)
        reference = _detect_rows_reference(values, ranges, factor,
                                           window)
        assert [_bits(row) for row in found] == \
            [_bits(row) for row in reference]
        if any(len(row) > 1 for row in found):
            event("several peaks in a row")
        cal = Calibration(gain=data.draw(st.floats(1e-9, 1e3)),
                          reference_sigma_m2=SIGMA_REF,
                          reference_range_m=R_REF)
        # gates with an edge on a bin's range, or anywhere near the axis
        lo = data.draw(st.sampled_from(ranges.tolist())
                       | st.floats(ranges[0] - 0.1, ranges[-1]))
        gate = data.draw(st.none() | st.floats(1e-6, 0.3).map(
            lambda width: (lo, lo + width)))
        for k, detections in enumerate(found):
            args = (cal, mode, k, gate)
            try:
                want = _rcs_reference(detections, *args)
            except NoDetections as exc:
                event("no detection")
                with pytest.raises(NoDetections) as got:
                    imaging._rcs(detections, *args)
                assert str(got.value) == str(exc)
                continue
            got = imaging._rcs(detections, *args)
            assert (got.sigma_m2.hex(), got.mode, got.sweep_index) == \
                (want.sigma_m2.hex(), want.mode, want.sweep_index)


class TestDetectionSpacing:
    @settings(max_examples=300, deadline=None)
    @given(_detect_block(), st.integers(1, 60),
           st.sampled_from(FACTORS))
    def test_starts_more_than_a_window_apart(self, block, window,
                                             factor):
        # a start tops the window_bins bins left of it and ties none, and
        # no bin of the window_bins right of it tops it; so no start lies
        # within the window of another
        values, ranges = block
        power = np.abs(values) ** 2
        found = _detect_rows(values, ranges, factor, window)
        for row, detections in zip(power, found):
            starts = []
            for d in detections:
                # the bin nearest the centroid lies in its run of equal
                # power, which begins at the detection's start
                k = int(np.argmin(np.abs(ranges - d.range_m)))
                while k and row[k - 1] == row[k]:
                    k -= 1
                assert row[k] == d.power
                starts.append(k)
            if len(starts) > 1:
                event("several detections in a row")
            assert all(np.diff(starts) > window)


class TestNoiseFloor:
    """A noise-only profile's median power is ln 2 * noise_psd * fs *
    ||template||^2: complex noise of variance noise_psd * fs per sample,
    matched-filtered, gives each bin an exponential power of mean
    noise_psd * fs * ||template||^2, whose median is ln 2 times the mean."""

    NOISE_PSD = 1e-19  # sphere_compare's
    SWEEPS = {Mode.DS_UWB: 40, Mode.NB_DSSS: 1600}
    # Over seeds 0..19 the measured-to-predicted ratio of the pooled median
    # had a standard deviation of 0.012 (uwb, 40 sweeps) and 0.009 (nb,
    # 1,600 sweeps); the bound is five times the larger
    BOUND = 0.06

    @pytest.mark.parametrize("mode", list(Mode))
    def test_pooled_median_matches_the_prediction(self, mode):
        pipeline = load_scenario(
            ROOT / "scenarios/sphere_compare.yaml").pipelines[mode]
        # a zero-strength point echoes nothing, so every bin is noise
        scene = Scene(target=target((0.0, R_REF)), noise_psd=self.NOISE_PSD,
                      rng_seed=2026)
        power = np.concatenate([
            np.abs(pipeline.profile(scene, sweep_index=k).values) ** 2
            for k in range(self.SWEEPS[mode])])
        energy = np.sum(np.abs(pipeline.tx.samples()) ** 2)
        predicted = (math.log(2) * self.NOISE_PSD
                     * pipeline.params.sample_rate_hz * energy)
        assert abs(np.median(power) / predicted - 1.0) <= self.BOUND


class TestKeptLags:
    """The pipeline correlates exactly the lags its profile keeps."""

    @pytest.mark.parametrize("mode", ["uwb", "nb", "uwb_blanked"])
    def test_profile_bins_are_the_kept_lags(self, mode):
        if mode == "nb":
            params, pn = nb_params(), gen_mseq([7, 1, 0])
            cfg = ReceiverConfig(blank_width_s=12e-6, max_range_m=3000.0)
        else:
            params, pn = uwb_params(), gen_mseq([3, 1, 0])
            blank = 2e-9 if mode == "uwb_blanked" else 0.0
            cfg = ReceiverConfig(blank_width_s=blank, max_range_m=14.0)
        pipeline = SweepPipeline(params, pn, rx_config=cfg)
        scene = Scene(target=target((SIGMA_REF, 9.0)), noise_psd=1e-19,
                      direct_path_gain=0.5, rng_seed=8)
        prof = pipeline.profile(scene, sweep_index=2)

        rx = propagate(pipeline.tx, scene, params, Pol.VV, 2)
        if cfg.blank_width_s:
            rx = rx_gate(rx, params, cfg.blank_width_s)
        template = make_waveform(params, pn)[1]
        full = signal.correlate(rx.samples, template.samples(),
                                mode="valid", method="fft")
        lag_s = 1.0 / params.sample_rate_hz
        ranges = SPEED_OF_LIGHT * (np.arange(full.size) * lag_s) / 2.0
        keep = ((ranges >= SPEED_OF_LIGHT * cfg.blank_width_s / 2.0)
                & (ranges <= cfg.max_range_m))
        assert len(pipeline.lags) == len(prof) == int(keep.sum())
        assert np.array_equal(prof.ranges_m, ranges[keep])
        np.testing.assert_allclose(prof.values, full[keep], rtol=0,
                                   atol=1e-9 * np.abs(full).max())


class TestReadPrefix:
    """A sweep builds only the despread windows its correlator reads, and
    its profile is that of the whole received stream: bit for bit for the
    narrowband pulse of one chip, to rounding for a train."""

    @pytest.mark.parametrize("mode", ["nb", "nb_past_slot", "uwb_blanked"])
    def test_profile_matches_the_full_stream(self, mode):
        if mode.startswith("nb"):
            params, pn = nb_params(), gen_mseq([7, 1, 0])
            cfg = ReceiverConfig(
                max_range_m=100.0 if mode == "nb" else 14_000.0)
            clutter = gen_clutter((2.0, 8.0), 40, 5e-4, seed=6)
        else:
            params, pn = uwb_params(), gen_mseq([3, 1, 0])
            cfg = ReceiverConfig(blank_width_s=2e-9, max_range_m=14.0)
            clutter = gen_clutter((9.0, 11.0), 10, 1e-4, seed=6)
        if mode == "nb_past_slot":
            # out to 14 km the window of 8,271 samples would read past its
            # 8,000-sample slot, so the pipeline is not built
            with pytest.raises(ValueError, match="reads past the 8000-sample "
                                                 "PRI slot"):
                SweepPipeline(params, pn, rx_config=cfg)
            return
        pipeline = SweepPipeline(params, pn, rx_config=cfg)
        scene = Scene(
            target=target((SIGMA_REF, 10.0)), clutter=clutter,
            interferers=(
                Interferer(freq_hz=params.carrier_hz + 3e6, power_w=1e-9),
                Interferer(freq_hz=params.carrier_hz - 1e7, power_w=1e-9,
                           kind=InterfererKind.QPSK_MODULATED)),
            noise_psd=1e-19, direct_path_gain=0.5,
            sweep_phase_jitter_rad=0.3, rng_seed=17)
        for sweep in (0, 5):
            prof = pipeline.profile(scene, Pol.HH, sweep_index=sweep)
            rx = propagate(pipeline.tx, scene, params, Pol.HH, sweep)
            if cfg.blank_width_s:
                rx = rx_gate(rx, params, cfg.blank_width_s)
            ref = stream_profile(rx.samples, pipeline.tx, pipeline.lags)
            if params.mode is Mode.NB_DSSS:
                assert prof.values.tobytes() == ref.tobytes()
            else:
                assert_rounding_close(prof.values, ref, pipeline.tx, scene,
                                      params, Pol.HH, sweep, pipeline.window,
                                      pipeline.tx.pulse)
        window = pipeline.window
        assert window.start == pipeline.lags.start
        assert len(window) == \
            len(pipeline.lags) + len(pipeline.tx.pulse) - 1
        if mode == "nb":
            assert (len(pipeline.lags), len(window), len(pipeline.tx)) == \
                (54, 853, 8055)


class TestOneCorrelatorPerSweep:
    """Each sweep is correlated by one uwb_correlate call over its despread
    window and the pipeline's own transmit train and kept lags;
    bench/spans.py times the correlator through that name."""

    @staticmethod
    def _record(monkeypatch, tmp_path, pipeline):
        """Log each uwb_correlate call, made in the calling process or in
        a forked worker, as (window length, whether the template is the
        pipeline's train, lags start and stop, values)."""
        calls = _SharedLog(tmp_path / "calls")

        def recording(z, template, lags):
            values = uwb_correlate(z, template, lags)
            calls.add(len(z), template is pipeline.tx, lags.start,
                      lags.stop, len(values))
            return values

        monkeypatch.setattr(imaging, "uwb_correlate", recording)
        return calls

    def _assert_each_sweep_once(self, calls, pipeline, sweeps):
        calls = calls.read()
        assert len(calls) == sweeps
        for n_z, own_template, start, stop, n_values in calls:
            assert own_template
            assert (n_z, range(start, stop), n_values) == (
                len(pipeline.window), pipeline.lags, len(pipeline.lags))

    def test_nb_series(self, nb_setup, monkeypatch, tmp_path):
        _, _, _, pipeline, cal = nb_setup
        scene = Scene(target=target((SIGMA_REF, R_REF)), noise_psd=1e-19,
                      rng_seed=4)
        # the second block runs in a forked worker
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: 2)
        calls = self._record(monkeypatch, tmp_path, pipeline)
        assert len(pipeline.series(scene, cal, 20)) == 20
        assert pipeline.block_rows < 20  # several blocks
        self._assert_each_sweep_once(calls, pipeline, 20)

    def test_blanked_uwb_profile(self, monkeypatch, tmp_path):
        pipeline = SweepPipeline(
            uwb_params(), gen_mseq([3, 1, 0]),
            rx_config=ReceiverConfig(blank_width_s=2e-9, max_range_m=14.0))
        assert pipeline.lags.start > 0
        calls = self._record(monkeypatch, tmp_path, pipeline)
        pipeline.profile(Scene(target=target((SIGMA_REF, R_REF)),
                               direct_path_gain=0.5))
        self._assert_each_sweep_once(calls, pipeline, 1)


def _last_lag(params):
    """The last lag a pipeline may keep: the correlator reads one pulse
    past it, to the last sample of chip 0's PRI slot."""
    pulse = make_waveform(params, gen_mseq([3, 1, 0]))[1].pulse
    return params.pri_samples - len(pulse)


def _blanked(params, blank, lag):
    """The radar and a receiver whose last kept lag is ``lag``."""
    far = SPEED_OF_LIGHT * (lag * (1.0 / params.sample_rate_hz)) / 2.0
    return params, ReceiverConfig(blank_width_s=blank, max_range_m=far)


@st.composite
def _radar(draw):
    """A default radar, or one whose PRI, within 50 samples of the
    default, is often a fractional number of samples (half a sample,
    rounding half to even, included)."""
    make = draw(st.sampled_from([uwb_params, nb_params]))
    default = make()
    if draw(st.booleans()):
        return default
    fs = default.sample_rate_hz
    whole = default.pri_samples + draw(st.integers(-50, 50))
    frac = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75])
                | st.floats(0.0, 1.0, exclude_max=True))
    return make(pri_s=(whole + frac) / fs)


@st.composite
def _blanked_receiver(draw):
    """A radar (see _radar) and a blanked receiver whose kept window runs
    from just past c*blank/2 to as far as its PRI slot allows.  The last
    kept lag is drawn near either end, _last_lag included."""
    params = draw(_radar())
    if params.mode is Mode.DS_UWB:
        blank = draw(st.floats(2e-9, 5e-9))
    else:
        blank = draw(st.floats(params.pulse_width_s, 2 * params.pulse_width_s))
    fs = params.sample_rate_hz
    first, last = int(blank * fs) + 2, _last_lag(params)
    lag = draw(st.one_of(st.integers(first, last),
                         st.integers(0, last - first).map(lambda k: last - k)))
    return _blanked(params, blank, lag)


class TestLagSearch:
    """kept_lags finds, without an array of every lag, the lags whose
    ranges fall in the receiver's window."""

    @settings(max_examples=60, deadline=None)
    @given(_radar(), st.floats(0.0, 1.2), st.floats(0.0, 2.0))
    def test_search_finds_the_lags_in_the_window(self, params, far, blank):
        # every lag's range against the window, as one array
        max_range = far * params.unambiguous_range_m + 1e-3
        blank_s = blank * params.pulse_samples / params.sample_rate_hz
        cfg = ReceiverConfig(blank_width_s=blank_s, max_range_m=max_range)
        pn = gen_mseq([3, 1, 0])
        tx, template = make_waveform(params, pn,
                                     sweep_samples(params, pn, max_range))
        fs = params.sample_rate_hz
        ranges = SPEED_OF_LIGHT * (
            np.arange(len(tx) - len(template) + 1) * (1.0 / fs)) / 2.0
        near = SPEED_OF_LIGHT * blank_s / 2.0
        kept = np.flatnonzero((ranges >= near) & (ranges <= max_range))
        want = range(kept[0], kept[-1] + 1) if kept.size else range(0)
        assert kept_lags(params, pn, cfg) == want


class TestBlankDecision:
    @settings(max_examples=40, deadline=None)
    @given(_blanked_receiver(), st.integers(0, 3))
    @example(_blanked(uwb_params(), 2e-9, _last_lag(uwb_params()) - 1), 0)
    @example(_blanked(uwb_params(), 2e-9, _last_lag(uwb_params())), 0)
    @example(_blanked(nb_params(), 1.2e-5, _last_lag(nb_params()) - 1), 0)
    @example(_blanked(nb_params(), 1.2e-5, _last_lag(nb_params())), 0)
    @example(_blanked(uwb_params(pri_s=1.00005e-7), 2e-9,
                      _last_lag(uwb_params(pri_s=1.00005e-7))), 0)
    def test_profile_matches_the_whole_stream_chain(self, case, sweep):
        params, cfg = case
        pipeline = SweepPipeline(params, gen_mseq([3, 1, 0]), rx_config=cfg)
        # noise leaves no received sample zero
        scene = Scene(target=target((SIGMA_REF, 10.0)), noise_psd=1e-19,
                      direct_path_gain=0.5, sweep_phase_jitter_rad=0.3,
                      rng_seed=9)
        prof = pipeline.profile(scene, sweep_index=sweep)
        rx = propagate(pipeline.tx, scene, params, Pol.VV, sweep)
        ref = stream_profile(rx_gate(rx, params, cfg.blank_width_s).samples,
                             pipeline.tx, pipeline.lags)
        assert_rounding_close(prof.values, ref, pipeline.tx, scene, params,
                              Pol.VV, sweep, pipeline.window,
                              pipeline.tx.pulse)
        # a window inside its slot reads no sample the blank zeroes
        ungated = stream_profile(rx.samples, pipeline.tx, pipeline.lags)
        assert ungated.tobytes() == ref.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(_radar(), st.sampled_from([[3, 1, 0], [5, 2, 0]]),
           st.integers(0, 100), st.floats(-0.49, 0.49))
    # the 2 ns blank of the default chain, over 31 PRI slots: a float time
    # mask, t mod PRI < blank, misses the first sample of slot 21
    @example(uwb_params(), [5, 2, 0], 67, 0.0)
    @example(uwb_params(pri_s=1.00005e-7), [5, 2, 0], 67, 0.0)
    # a blank of exactly one monocycle, 133 samples
    @example(uwb_params(), [5, 2, 0], 0, 0.0)
    def test_no_leakage_survives_the_blank(self, params, taps, extra, frac):
        tx, template = make_waveform(params, gen_mseq(taps))
        blank = (len(template.pulse) + extra + frac) / params.sample_rate_hz
        leakage = Scene(target=target((0.0, 1.0)), direct_path_gain=0.5)
        rx = propagate(tx, leakage, params, Pol.VV)
        assert rx.samples.any()
        assert not rx_gate(rx, params, blank).samples.any()

    def test_invalid_blank_fails_when_built(self):
        # a blank that lets leakage pass fails before the first sweep, even
        # where the correlator would not read it
        with pytest.raises(ValueError, match="shorter than the transmit"):
            SweepPipeline(uwb_params(), gen_mseq([3, 1, 0]),
                          rx_config=ReceiverConfig(blank_width_s=1e-10,
                                                   max_range_m=14.0))


@st.composite
def _synthesis_case(draw):
    """A radar (see _radar), a receiver blanked or not whose kept window
    runs as far as its PRI slot allows, a scene of points anywhere in
    range, one of them within one pulse of c*PRI/2, with or without each
    impairment, and a block of one to three sweeps."""
    params = draw(_radar())
    fs = params.sample_rate_hz
    blank = 0.0
    if draw(st.booleans()):
        blank = draw(st.floats(2e-9, 5e-9) if params.mode is Mode.DS_UWB
                     else st.floats(params.pulse_width_s,
                                    2 * params.pulse_width_s))
    first, last = int(blank * fs) + 2, _last_lag(params)
    lag = draw(st.one_of(st.integers(first, last),
                         st.integers(last - first, last)))
    _, cfg = _blanked(params, blank, lag)
    r_max = params.unambiguous_range_m
    pulse_m = SPEED_OF_LIGHT * params.pulse_samples / fs / 2.0
    ranges = [r_max - draw(st.floats(0.0, pulse_m))] + draw(st.lists(
        st.floats(1.0, r_max), min_size=0, max_size=4))
    points = tuple(Scatterer(sigma_m2=draw(st.floats(1e-6, 1e-2)), range_m=r)
                   for r in ranges)
    interferers = tuple(draw(st.sampled_from([(), (
        Interferer(freq_hz=params.carrier_hz + 3e6, power_w=1e-9),), (
        Interferer(freq_hz=params.carrier_hz - 1e7, power_w=1e-9,
                   kind=InterfererKind.QPSK_MODULATED),
        Interferer(freq_hz=params.carrier_hz + 1e6, power_w=1e-9))])))
    scene = Scene(target=TargetModel(points=points[:1]), clutter=points[1:],
                  interferers=interferers,
                  noise_psd=draw(st.sampled_from([0.0, 1e-19])),
                  direct_path_gain=draw(st.sampled_from([0.0, 0.5])),
                  sweep_phase_jitter_rad=draw(st.sampled_from([0.0, 0.3])),
                  rng_seed=draw(st.integers(0, 2**64 - 1)))
    start = draw(st.integers(0, 1000))
    sweeps = range(start, start + draw(st.integers(1, 3)))
    return params, cfg, scene, draw(st.sampled_from(list(Pol))), sweeps


class TestWindowSynthesis:
    """A pipeline synthesizes only each sweep's despread window, and both
    it and the profile equal, to rounding, those of the whole stream:
    propagate, one sweep at a time, then rx_gate, then the despread and
    match of test code."""

    @settings(max_examples=60, deadline=None)
    @given(_synthesis_case())
    def test_block_equals_the_whole_stream_chain(self, case):
        params, cfg, scene, pol, sweeps = case
        pipeline = SweepPipeline(params, gen_mseq([3, 1, 0]), rx_config=cfg)
        tx = pipeline.tx
        z = despread_windows(tx, scene, params, pol, sweeps,
                             pipeline.window)
        values = pipeline._values(scene, pol, sweeps)
        for k, z_row, row in zip(sweeps, z, values):
            rx = propagate(tx, scene, params, pol, k)
            assert_rounding_close(
                z_row, despread_stream(rx.samples, tx, pipeline.window),
                tx, scene, params, pol, k, pipeline.window)
            gated = rx_gate(rx, params, cfg.blank_width_s).samples
            assert_rounding_close(
                row, stream_profile(gated, tx, pipeline.lags),
                tx, scene, params, pol, k, pipeline.window,
                tx.pulse)

    def test_a_uwb_sweep_holds_its_windows_not_its_stream(self):
        # one sphere_compare sweep: its 9,472-sample despread window, the
        # two signals its +-1 chips reach it with, and the noise buffers,
        # not the 319,341-sample received stream (5.1 MB)
        scenario = load_scenario(ROOT / "scenarios/sphere_compare.yaml")
        pipeline = scenario.pipelines[Mode.DS_UWB]
        cal = pipeline.self_calibrate(*scenario.reference)
        pipeline.estimate(scenario.scene, cal, scenario.pol, range(1))
        tracemalloc.start()
        try:
            pipeline.estimate(scenario.scene, cal, scenario.pol, range(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSweepSamples:
    @pytest.mark.parametrize("mode", ["nb", "uwb"])
    def test_active_transmission_plus_echo_tail(self, mode):
        if mode == "nb":
            params, pn = nb_params(), gen_mseq([7, 1, 0])
            cfg = ReceiverConfig(max_range_m=3000.0)
        else:
            params, pn = uwb_params(), gen_mseq([3, 1, 0])
            cfg = ReceiverConfig(max_range_m=14.0)
        pipeline = SweepPipeline(params, pn, rx_config=cfg)
        active = make_waveform(params, pn)[0]
        tail = math.ceil(2.0 * cfg.max_range_m / SPEED_OF_LIGHT
                         * params.sample_rate_hz) + 1
        assert len(pipeline.tx) == len(active) + tail == \
            sweep_samples(params, pn, cfg.max_range_m)
        tx = pipeline.tx.samples()
        assert np.array_equal(tx[:len(active)], active.samples())
        assert not tx[len(active):].any()

    def test_a_pipeline_holds_no_dense_transmit(self):
        # the 319,341-sample UWB transmit, written out, would hold 5.1 MB
        cfg = ReceiverConfig(max_range_m=14.0)
        tracemalloc.start()
        try:
            pipeline = SweepPipeline(uwb_params(), gen_mseq([5, 2, 0]),
                                     rx_config=cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(pipeline.tx) == 319_341
        assert held < 1_000_000


def _spread_zeros_pulse(params, pn, cpb):
    """The narrowband pulse as it was once built: all-zero data spread over
    the code at cpb chips per bit, held on I and Q, cut to pulse_samples."""
    n_chips = math.ceil(params.pulse_samples / params.samples_per_chip)
    chips = spread(np.zeros(math.ceil(n_chips / cpb), dtype=np.int64), pn,
                   cpb)
    return qpsk_baseband(chips, chips, params).samples[:params.pulse_samples]


class TestChipsPerBit:
    def test_nb_waveform_does_not_depend_on_chips_per_bit(self, tmp_path):
        # the radar waveform carries no data bits, so every spreading
        # factor gives a run the same CSV bytes, on both chains; only the
        # manifest records the value
        text = """
seed: 3
code: {taps: [5, 2, 0], chips_per_bit: %d}
scene:
  target:
    points:
      - {sigma_m2: 1.0e-3, range_m: 10.0}
      - {sigma_m2: 5.0e-4, range_m: 10.6}
  noise_psd_w_per_hz: 1.0e-19
  sweep_phase_jitter_rad: 0.3
receiver: {uwb: {max_range_m: 12.0}}
experiment: {kind: compare_modes, sweeps: 2,
             reference: {sigma_m2: 1.0e-3, range_m: 10.0}}
"""
        runs = []
        for cpb in (1, 7, 31):
            path = tmp_path / f"cpb{cpb}.yaml"
            path.write_text(text % cpb)
            out = tmp_path / f"out{cpb}"
            for flags in ([], ["--experiment", "profile", "--mode", "nb"],
                          ["--experiment", "profile", "--mode", "uwb"]):
                assert main([str(path), "--out", str(out / "_".join(flags)),
                             "--quiet", *flags]) == 0
            runs.append({p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*.csv"))})
        assert len(runs[0]) == 5  # three compare CSVs, two profiles
        assert runs[0] == runs[1] == runs[2]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(1, 1999), st.sampled_from([5, 6, 7]),
           st.booleans(), st.integers(0, 2 ** 7 - 2))
    def test_nb_pulse_is_the_spread_of_zeros(self, spc, width, degree, gold,
                                              member):
        # the pulse built from the code alone is the pulse that spreading
        # all-zero data builds, at every chips_per_bit in [1, L]; a pulse
        # may end inside a chip and hold the code more than once
        params = nb_params(samples_per_chip=spc,
                           pulse_width_s=width / (10e6 * spc))
        assert params.pulse_samples == width
        taps_a, taps_b = PREFERRED_PAIRS[degree]
        length = 2 ** degree - 1
        pn = (gen_gold(taps_a, taps_b, member % length) if gold
              else gen_mseq(taps_a, member % length + 1))
        pulse = make_waveform(params, pn)[1].pulse.samples
        assert len(pulse) == params.pulse_samples
        for cpb in range(1, pn.length + 1):
            assert pulse.tobytes() == \
                _spread_zeros_pulse(params, pn, cpb).tobytes()

    @pytest.mark.parametrize("params", [nb_params(), uwb_params()],
                             ids=["nb", "uwb"])
    def test_out_of_range_is_rejected(self, params):
        # 0 once stood for the code length
        pn = gen_mseq([5, 2, 0])
        for cpb in (0, 32):
            with pytest.raises(ValueError, match=re.escape(
                    f"chips_per_bit must lie in [1, 31], got {cpb}")):
                SweepPipeline(params, pn, cpb)

    @pytest.mark.parametrize("params", [nb_params(), uwb_params()],
                             ids=["nb", "uwb"])
    def test_non_integer_is_rejected(self, params):
        # a float spreading factor cannot index the chips; the UWB chain
        # never indexes them, so only the check stops it there
        with pytest.raises(ValueError, match=re.escape(
                "chips_per_bit must be an integer, got 2.5")):
            SweepPipeline(params, gen_mseq([3, 1, 0]), 2.5)


class TestMedian:
    """_median is np.median without numpy.ma."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from([54, 9139, 9340]), st.integers(1, 400)),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_np_median(self, n, seed, ties):
        rng = np.random.default_rng(seed)
        x = np.round(rng.exponential(1.0, n), 1) if ties else \
            rng.exponential(1.0, n) * 10.0 ** rng.integers(-30, 5, n)
        before = x.copy()
        assert _median(x) == float(np.median(x))
        assert np.array_equal(x, before)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=60))
    def test_matches_np_median_on_drawn_values(self, values):
        x = np.array(values)
        assert _median(x) == float(np.median(x))


class TestCalibration:
    def test_identity_uwb(self, uwb_setup):
        _, _, _, pipeline, cal = uwb_setup
        (est,) = pipeline.estimate(Scene(target=target((SIGMA_REF, R_REF))),
                                   cal, Pol.VV, range(1))
        assert est.mode is Mode.DS_UWB
        assert abs(est.dbsm - (-30.0)) < 1e-6
        assert est.sigma_m2 == pytest.approx(SIGMA_REF, rel=1e-9)

    def test_identity_nb(self, nb_setup):
        _, _, _, pipeline, cal = nb_setup
        (est,) = pipeline.estimate(Scene(target=target((SIGMA_REF, R_REF))),
                                   cal, Pol.VV, range(1))
        assert est.mode is Mode.NB_DSSS
        assert abs(est.dbsm - (-30.0)) < 1e-6

    def test_gain_linear_in_reference_sigma(self, uwb_setup):
        _, _, _, pipeline, _ = uwb_setup
        prof = pipeline.profile(Scene(target=target((SIGMA_REF, R_REF))))
        g1 = calibrate(prof, SIGMA_REF, R_REF).gain
        g2 = calibrate(prof, 2 * SIGMA_REF, R_REF).gain
        assert g2 == pytest.approx(2 * g1, rel=1e-12)

    def test_nan_reference_rejected(self, uwb_setup):
        _, _, _, pipeline, _ = uwb_setup
        prof = pipeline.profile(Scene(target=target((SIGMA_REF, R_REF))))
        with pytest.raises(ValueError, match="sigma_ref_m2 must be > 0"):
            calibrate(prof, math.nan, R_REF)
        with pytest.raises(ValueError, match="range_ref_m must be > 0"):
            calibrate(prof, SIGMA_REF, math.nan)
        with pytest.raises(ValueError, match="wavelength_m must be > 0"):
            rcs_nb(target((SIGMA_REF, R_REF)), math.nan)

    def test_reference_below_noise_rejected(self, nb_setup):
        _, _, _, pipeline, _ = nb_setup
        scene = Scene(target=target((0.0, R_REF)), noise_psd=1e-15, rng_seed=5)
        prof = pipeline.profile(scene)
        with pytest.raises(ValueError, match="detectable"):
            calibrate(prof, SIGMA_REF, R_REF)

    def test_reference_held_to_the_detection_factor(self):
        # the detector's rule over the profile's 101 bins: 12.2 dB
        ranges = R_REF + (np.arange(101) - 50) * 0.01
        factor = detection_factor(101)
        for scale in (0.999, 1.001):
            power = np.ones(101)
            power[50] = scale * factor
            prof = RangeProfile(ranges_m=ranges, values=np.sqrt(power),
                                bin_width_m=0.01)
            if scale > 1:
                assert calibrate(prof, SIGMA_REF, R_REF).gain > 0
                continue
            with pytest.raises(ValueError, match=re.escape(
                    "reference peak is not detectable (needs >= 12.2 dB")):
                calibrate(prof, SIGMA_REF, R_REF)

    def test_gain_must_be_positive(self):
        with pytest.raises(ValueError, match="gain"):
            Calibration(gain=0.0, reference_sigma_m2=1.0, reference_range_m=1.0)


class TestEstimateRcs:
    def test_nb_two_point_interference_oscillates(self, nb_setup):
        params, _, cfg, pipeline, cal = nb_setup
        lam = params.wavelength_m
        estimates = []
        for delta in np.linspace(0.0, lam / 2.0, 17):
            scene = Scene(target=target((1.0, 10.0), (1.0, 10.5 + delta)))
            try:
                (est,) = pipeline.estimate(scene, cal, Pol.VV, range(1))
                estimates.append(est.sigma_m2)
            except NoDetections:
                estimates.append(0.0)
        estimates = np.array(estimates)
        assert estimates.max() > 3.0       # near the coherent sum of 4
        assert estimates.min() < 0.3       # near a null
        assert estimates.max() > 10 * max(estimates.min(), 1e-12)

    def test_uwb_same_sweep_stays_flat(self, uwb_setup):
        pipeline = uwb_setup[3]
        cal = pipeline.self_calibrate(1.0, 10.0)
        lam = SPEED_OF_LIGHT / 1e9
        dbsm = []
        for delta in np.linspace(0.0, lam / 2.0, 17):
            scene = Scene(target=target((1.0, 10.0), (1.0, 10.5 + delta)))
            (est,) = pipeline.estimate(scene, cal, Pol.VV, range(1))
            dbsm.append(est.dbsm)
        dbsm = np.array(dbsm)
        assert dbsm.max() - dbsm.min() < 0.5
        assert np.mean(dbsm) == pytest.approx(10 * math.log10(2.0), abs=0.5)

    def test_nb_estimate_tracks_coherent_model(self, nb_setup):
        # oracle: coherent sum over the scene truth with two-way carrier
        # phase and inverse-square weights, normalized at the reference
        params, _, cfg, pipeline, cal = nb_setup
        lam = params.wavelength_m
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(6):
            k = int(rng.integers(2, 5))
            pts = [(float(rng.uniform(0.5, 2.0)), float(rng.uniform(9.6, 10.2)))
                   for _ in range(k)]
            oracle = abs(sum(
                math.sqrt(s) * (R_REF ** 2 / r ** 2)
                * np.exp(-4j * np.pi * r / lam) for s, r in pts)) ** 2
            total = sum(s for s, _ in pts)
            if oracle < 0.1 * total:
                continue  # deep fade: envelope mismatch dominates
            (est,) = pipeline.estimate(Scene(target=target(*pts)), cal, Pol.VV,
                                       range(1))
            assert abs(10 * math.log10(est.sigma_m2 / oracle)) < 0.5
            checked += 1
        assert checked >= 3

    def test_no_detection_raises_distinct_error(self, uwb_setup):
        params, pn, cfg, _, cal = uwb_setup
        pipeline = SweepPipeline(params, pn, rx_config=dataclasses.replace(
            cfg, gate_m=(1.0, 2.0)))
        scene = Scene(target=target((SIGMA_REF, R_REF)))
        with pytest.raises(NoDetections, match="gate"):
            pipeline.estimate(scene, cal, Pol.VV, range(1))

    def test_estimate_carries_sweep_index_and_mode(self, uwb_setup):
        _, _, _, pipeline, cal = uwb_setup
        (est,) = pipeline.estimate(Scene(target=target((SIGMA_REF, R_REF))),
                                   cal, Pol.VV, range(7, 8))
        assert est.sweep_index == 7
        assert est.mode is Mode.DS_UWB
        assert est.dbsm == pytest.approx(10 * math.log10(est.sigma_m2))


class TestSweepSeries:
    def test_deterministic_without_noise_or_jitter(self, uwb_setup):
        _, _, _, pipeline, cal = uwb_setup
        scene = Scene(target=target((SIGMA_REF, R_REF)))
        series = pipeline.series(scene, cal, 5)
        sigmas = {e.sigma_m2 for e in series}
        assert len(series) == 5
        assert len(sigmas) == 1

    def test_jitter_makes_nb_series_fluctuate(self, nb_setup):
        _, _, _, pipeline, cal = nb_setup
        scene = Scene(target=target((SIGMA_REF, R_REF)),
                      clutter=gen_clutter((2.0, 8.0), 6, 1e-2, seed=8),
                      sweep_phase_jitter_rad=0.3, rng_seed=21)
        series = pipeline.series(scene, cal, 8)
        dbsm = np.array([e.dbsm for e in series])
        assert dbsm.std() > 0

    def test_uwb_steadier_than_nb_with_clutter_and_jitter(self):
        clutter = gen_clutter((2.0, 8.0), 10, 1e-2, seed=42)

        uparams = uwb_params()
        upn = gen_mseq([3, 1, 0])
        ucfg = ReceiverConfig(max_range_m=14.0, gate_m=(9.5, 10.5))
        upipe = SweepPipeline(uparams, upn, rx_config=ucfg)
        ucal = upipe.self_calibrate(SIGMA_REF, R_REF)
        scene = Scene(target=target((SIGMA_REF, R_REF)), clutter=clutter,
                      noise_psd=1e-19, sweep_phase_jitter_rad=0.3,
                      rng_seed=2026)
        u_dbsm = np.array([e.dbsm for e in upipe.series(scene, ucal, 12)])

        nparams = nb_params()
        npn = gen_mseq([7, 1, 0])
        ncfg = ReceiverConfig(max_range_m=100.0)
        npipe = SweepPipeline(nparams, npn, rx_config=ncfg)
        ncal = npipe.self_calibrate(SIGMA_REF, R_REF)
        n_dbsm = np.array([e.dbsm for e in npipe.series(scene, ncal, 12)])

        assert n_dbsm.std() > u_dbsm.std()
        assert abs(u_dbsm.mean() - (-30.0)) < 1.0


class TestSweepBlocks:
    """A series runs in blocks of block_rows sweeps; any cut of the sweeps
    into blocks gives each sweep's own estimate."""

    @pytest.fixture(scope="class")
    def busy_scene(self):
        return Scene(target=target((SIGMA_REF, R_REF)),
                     clutter=gen_clutter((2.0, 8.0), 40, 5e-4, seed=3),
                     interferers=(
                         Interferer(freq_hz=1.003e9, power_w=1e-12),
                         Interferer(freq_hz=0.99e9, power_w=1e-12,
                                    kind=InterfererKind.QPSK_MODULATED)),
                     noise_psd=1e-19, direct_path_gain=0.5,
                     sweep_phase_jitter_rad=0.3, rng_seed=2026)

    def test_series_across_block_boundaries(self, nb_setup, busy_scene):
        _, _, _, pipeline, cal = nb_setup
        rows = pipeline.block_rows
        assert rows == 19  # 853 read samples per sweep
        one_by_one = [pipeline.estimate(busy_scene, cal, Pol.VV,
                                        range(k, k + 1))[0]
                      for k in range(2 * rows + 1)]
        for count in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
            assert pipeline.series(busy_scene, cal, count) == \
                one_by_one[:count]

    def test_series_seeds_no_stream_through_default_rng(
            self, nb_setup, busy_scene, monkeypatch):
        # a block seeds its jitter, interferer and noise streams in one
        # pass; a series that went back to one default_rng (or
        # SeedSequence) per stream fails here
        _, _, _, pipeline, cal = nb_setup
        expected = pipeline.series(busy_scene, cal, 20)

        def refuse(*args, **kwargs):
            raise AssertionError("a stream was seeded one key at a time")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert pipeline.series(busy_scene, cal, 20) == expected

    def test_a_block_is_its_blocks_of_one(self, nb_setup, busy_scene):
        _, _, _, pipeline, cal = nb_setup
        sweeps = range(4, 8)
        block = pipeline._values(busy_scene, Pol.HH, sweeps)
        estimates = pipeline.estimate(busy_scene, cal, Pol.HH, sweeps)
        assert [e.sweep_index for e in estimates] == list(sweeps)
        for k, row, est in zip(sweeps, block, estimates):
            assert [est] == pipeline.estimate(busy_scene, cal, Pol.HH,
                                              range(k, k + 1))
            prof = pipeline.profile(busy_scene, Pol.HH, sweep_index=k)
            assert prof.values.tobytes() == row.tobytes()
            assert prof.ranges_m is pipeline.ranges_m


def _force_workers(monkeypatch, pipeline, workers):
    """Run pipeline's series and scans as blocks of one sweep in exactly
    ``workers`` processes, 1 or 2: the calling one, and with 2 a forked
    worker, whatever the stream length and the CPU count."""
    monkeypatch.setattr(pipeline, "block_rows", 1)
    monkeypatch.setattr(imaging, "_usable_cpus", lambda: workers)


def _scan(*args, **kwargs):
    """scan_rows' raster with its rows stacked: (azimuths, ranges, power)."""
    scan = scan_rows(*args, **kwargs)
    return scan.azimuths_deg, scan.ranges_m, np.array(list(scan.rows))


def _assert_no_child_process():
    """No process this one started is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepPool:
    """Series and scans give the same arrays in one process as in two, the
    calling one and one forked worker, and for any block size."""

    @pytest.mark.parametrize("chain", ["nb", "uwb"])
    def test_series_independent_of_worker_count(self, chain, nb_setup,
                                                uwb_setup, monkeypatch):
        _, _, _, pipeline, cal = nb_setup if chain == "nb" else uwb_setup
        scene = Scene(target=target((SIGMA_REF, R_REF)),
                      clutter=gen_clutter((2.0, 8.0), 6, 1e-2, seed=8),
                      interferers=(Interferer(freq_hz=1.003e9,
                                              power_w=1e-12),),
                      noise_psd=1e-19, direct_path_gain=0.5,
                      sweep_phase_jitter_rad=0.3, rng_seed=2026)
        # the default blocks: several NB sweeps run together, one UWB sweep
        runs = {0: [(e.sweep_index, e.sigma_m2)
                    for e in pipeline.series(scene, cal, 7)]}
        for workers in (1, 2):
            _force_workers(monkeypatch, pipeline, workers)
            runs[workers] = [(e.sweep_index, e.sigma_m2)
                             for e in pipeline.series(scene, cal, 7)]
        assert runs[0] == runs[1] == runs[2]
        assert [k for k, _ in runs[2]] == list(range(7))
        # blocks of one sweep in two processes: the worker ran some
        pids = self._block_pids(pipeline, scene, cal, 7, monkeypatch)
        assert len(set(pids)) == 2 and pids[0] == os.getpid()

    def test_scan_image_independent_of_worker_count(self, monkeypatch):
        params, pn = uwb_params(), gen_mseq([3, 1, 0])
        cfg = ReceiverConfig(blank_width_s=2e-9, max_range_m=14.0)
        pipeline = SweepPipeline(params, pn, rx_config=cfg)
        cal = pipeline.self_calibrate(SIGMA_REF, R_REF)
        scene = Scene(target=TargetModel(points=(
            Scatterer(sigma_m2=1e-3, range_m=10.0),
            Scatterer(sigma_m2=1e-3, range_m=10.5, cross_range_m=0.6))),
            noise_psd=1e-20, direct_path_gain=0.5,
            sweep_phase_jitter_rad=0.3, rng_seed=5)
        images = {}
        for workers in (1, 2):
            _force_workers(monkeypatch, pipeline, workers)
            images[workers] = _scan(pipeline, scene, cal, 1.0, 2.0,
                                    az_span_deg=4.0)
        for one, two in zip(images[1], images[2]):
            assert np.array_equal(one, two)

    @pytest.mark.parametrize("chain", ["nb", "uwb"])
    def test_uneven_blocks_match_one_worker(self, chain, nb_setup,
                                            uwb_setup, monkeypatch):
        # the default blocks, 5 of them on 2 processes, each of which runs
        # one or more; the last NB block is short
        _, _, _, pipeline, cal = nb_setup if chain == "nb" else uwb_setup
        scene = Scene(target=target((SIGMA_REF, R_REF)),
                      clutter=gen_clutter((2.0, 8.0), 6, 1e-2, seed=8),
                      noise_psd=1e-19, direct_path_gain=0.5,
                      sweep_phase_jitter_rad=0.3, rng_seed=31)
        rows = pipeline.block_rows
        count = 4 * rows + (rows + 1) // 2
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(imaging, "_usable_cpus", lambda: workers)
            runs[workers] = [(e.sweep_index, e.sigma_m2.hex())
                             for e in pipeline.series(scene, cal, count)]
        assert [k for k, _ in runs[2]] == list(range(count))
        assert runs[1] == runs[2]

    @staticmethod
    def _block_pids(pipeline, scene, cal, count, monkeypatch):
        """The pid of the process that ran each block of a series, in
        sweep order: each block returns it with its estimates."""
        estimate = pipeline.estimate
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "estimate", lambda *args: [
                (os.getpid(), e) for e in estimate(*args)])
            tagged = pipeline.series(scene, cal, count)
        assert [e.sweep_index for _, e in tagged] == list(range(count))
        return [pid for pid, _ in tagged[::pipeline.block_rows]]

    @staticmethod
    def _logged_blocks(pipeline, monkeypatch, log, worker_delay_s=0.0):
        """Make each block of the pipeline's series add (pid, first sweep,
        end) to log, in whichever process runs it, and take worker_delay_s
        longer in a forked worker."""
        estimate, caller = pipeline.estimate, os.getpid()

        def logged(scene, cal, pol, sweeps):
            log.add(os.getpid(), sweeps.start, sweeps.stop)
            if os.getpid() != caller:
                time.sleep(worker_delay_s)
            return estimate(scene, cal, pol, sweeps)

        monkeypatch.setattr(pipeline, "estimate", logged)

    def test_pool_width_is_capped_whatever_the_cpu_count(self, nb_setup,
                                                          monkeypatch,
                                                          tmp_path):
        # 16 usable CPUs, 6 blocks: two processes, the calling one and one
        # forked worker, share the blocks; each block runs once, and the
        # estimates come back in sweep order
        _, _, _, pipeline, cal = nb_setup
        scene = Scene(target=target((SIGMA_REF, R_REF)))
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: 16)
        rows, count = pipeline.block_rows, 6 * pipeline.block_rows
        log = _SharedLog(tmp_path / "blocks")
        with monkeypatch.context() as patch:
            self._logged_blocks(pipeline, patch, log)
            estimates = pipeline.series(scene, cal, count)
        assert [e.sweep_index for e in estimates] == list(range(count))
        runs = log.read()
        assert sorted((start, stop) for _, start, stop in runs) == [
            (k, k + rows) for k in range(0, count, rows)]
        pids = {pid for pid, _, _ in runs}
        assert os.getpid() in pids
        assert len(pids) == 2
        # a single block runs in the calling process alone
        assert self._block_pids(pipeline, scene, cal, rows,
                                monkeypatch) == [os.getpid()]

    def test_a_slow_worker_leaves_the_calling_process_most_blocks(
            self, nb_setup, monkeypatch, tmp_path):
        # 12 blocks in two processes, each of the worker's 0.1 s slower: a
        # static split would give each process half; dealing gives each
        # free process the next block
        _, _, _, pipeline, cal = nb_setup
        rows, count = pipeline.block_rows, 12 * pipeline.block_rows
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: 2)
        log = _SharedLog(tmp_path / "blocks")
        self._logged_blocks(pipeline, monkeypatch, log, worker_delay_s=0.1)
        estimates = pipeline.series(Scene(target=target((SIGMA_REF, R_REF))),
                                    cal, count)
        assert [e.sweep_index for e in estimates] == list(range(count))
        runs = log.read()
        assert sorted(start for _, start, _ in runs) == list(range(0, count,
                                                                  rows))
        assert sum(pid == os.getpid() for pid, _, _ in runs) > 12 / 2
        _assert_no_child_process()

    def test_twenty_thousand_blocks_leave_no_process_or_fd(self, nb_setup,
                                                            monkeypatch):
        # more block indices than a pipe holds (64 KiB of 4-byte tickets is
        # 16,384): they are dealt as the processes get free, not queued
        _, _, _, pipeline, _ = nb_setup
        _force_workers(monkeypatch, pipeline, 2)
        fds = os.listdir("/proc/self/fd")
        items = list(pipeline._each_block(lambda sweeps: list(sweeps),
                                          20_000))
        assert items == list(range(20_000))
        _assert_no_child_process()
        assert os.listdir("/proc/self/fd") == fds

    def _assert_serial(self, pipeline, cal, monkeypatch, limit):
        """After limit(), a series runs its blocks in the calling process
        alone, with the estimates of two processes."""
        scene = Scene(target=target((SIGMA_REF, R_REF)), noise_psd=1e-19,
                      sweep_phase_jitter_rad=0.3, rng_seed=5)
        count = 4 * pipeline.block_rows + 1
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: 2)
        pooled = [e.sigma_m2.hex() for e in pipeline.series(scene, cal, count)]
        limit()
        serial = [e.sigma_m2.hex() for e in pipeline.series(scene, cal, count)]
        assert serial == pooled
        assert self._block_pids(pipeline, scene, cal, count,
                                monkeypatch) == [os.getpid()] * 5

    def test_one_usable_cpu_runs_the_blocks_serially(self, nb_setup,
                                                    monkeypatch):
        _, _, _, pipeline, cal = nb_setup

        def fork():
            raise AssertionError("a worker was forked")

        def one_cpu():
            monkeypatch.setattr(imaging, "_usable_cpus", lambda: 1)
            monkeypatch.setattr(os, "fork", fork)

        self._assert_serial(pipeline, cal, monkeypatch, one_cpu)

    def test_without_fork_the_blocks_run_serially(self, nb_setup,
                                                  monkeypatch):
        _, _, _, pipeline, cal = nb_setup
        self._assert_serial(pipeline, cal, monkeypatch,
                            lambda: monkeypatch.delattr(os, "fork"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_sweep_raises_and_the_rest_are_cancelled(
            self, workers, nb_setup, monkeypatch, tmp_path):
        # one CPU runs the NB chain's own blocks of 19 sweeps one after
        # another, the failing sweep inside the first; two deal blocks of
        # one sweep between the calling process and a forked worker
        _, _, _, pipeline, cal = nb_setup
        count = 40
        started = _SharedLog(tmp_path / "started")
        rcs = imaging._rcs

        def failing(detections, cal, mode, k, *args):
            started.add(k)
            if k in (3, 5):
                raise NoDetections(f"sweep {k}")
            if k > 3:
                time.sleep(0.2)  # sweeps after the failure are slow
            return rcs(detections, cal, mode, k, *args)

        monkeypatch.setattr(imaging, "_rcs", failing)
        if workers == 1:
            assert pipeline.block_rows > 4
            monkeypatch.setattr(imaging, "_usable_cpus", lambda: 1)
        else:
            _force_workers(monkeypatch, pipeline, workers)
        with pytest.raises(NoDetections, match="^sweep 3$"):
            pipeline.series(Scene(target=target((SIGMA_REF, R_REF))), cal,
                            count)
        started = sorted(k for k, in started.read())
        assert started[:4] == [0, 1, 2, 3]
        # one process stops at the failure, inside its block; with two,
        # sweep 3's block stops the dealing, and the worker is killed inside
        # a slow later block, so far fewer than all sweeps run
        if workers == 1:
            assert len(started) == 4
        else:
            assert len(started) < count

    def test_first_failing_sweep_in_pooled_blocks_raises(self, nb_setup,
                                                         monkeypatch,
                                                         tmp_path):
        # three NB blocks of several sweeps in two processes: the calling
        # process takes the first, the worker the second, which fails at
        # once, the calling process's only after its slow sweeps, yet the
        # first in sweep order raises; a failure stops the dealing, so the
        # third block is never started
        _, _, _, pipeline, cal = nb_setup
        rows, count = pipeline.block_rows, 3 * pipeline.block_rows
        assert rows > 4
        started = _SharedLog(tmp_path / "started")
        rcs = imaging._rcs

        def failing(detections, cal, mode, k, *args):
            started.add(k)
            if k < 3:
                time.sleep(0.1)
            if k in (3, rows + 1):
                raise NoDetections(f"sweep {k}")
            return rcs(detections, cal, mode, k, *args)

        monkeypatch.setattr(imaging, "_rcs", failing)
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: 2)
        with pytest.raises(NoDetections, match="^sweep 3$"):
            pipeline.series(Scene(target=target((SIGMA_REF, R_REF))), cal,
                            count)
        started = sorted(k for k, in started.read())
        assert started[:4] == [0, 1, 2, 3]
        assert set(started) <= {0, 1, 2, 3, rows, rows + 1}

    @pytest.mark.parametrize("fails", [None, "caller", "worker"])
    def test_no_worker_outlives_a_series(self, fails, nb_setup,
                                         monkeypatch):
        # four blocks in two processes: every sweep the failing process
        # runs raises, so the first to fail is the first of the first
        # block it is dealt, the first block in the calling process or the
        # second in the worker; when the calling process fails, each
        # sweep of the worker takes 0.05 s, so it has about 2 s of sweeps
        # dealt at the failure
        _, _, _, pipeline, cal = nb_setup
        rows, caller = pipeline.block_rows, os.getpid()
        failing_sweep = {None: None, "caller": 0, "worker": rows}[fails]
        rcs = imaging._rcs

        def failing(detections, cal, mode, k, *args):
            here = "caller" if os.getpid() == caller else "worker"
            if here == fails:
                raise NoDetections(f"sweep {k}")
            if fails == "caller":
                time.sleep(0.05)
            return rcs(detections, cal, mode, k, *args)

        monkeypatch.setattr(imaging, "_rcs", failing)
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: 2)
        scene = Scene(target=target((SIGMA_REF, R_REF)))
        t0 = time.monotonic()
        if fails is None:
            assert len(pipeline.series(scene, cal, 4 * rows)) == 4 * rows
        else:
            with pytest.raises(NoDetections, match=f"^sweep {failing_sweep}$"):
                pipeline.series(scene, cal, 4 * rows)
        # the worker is killed, not waited for
        assert time.monotonic() - t0 < 0.9
        _assert_no_child_process()

    def test_stress_more_workers_than_cpus(self, monkeypatch):
        # two processes on blocks of one scan row, each building the
        # scene's point arrays and tone cache on its own, against one; the
        # rows are gathered in order from both
        params, pn = uwb_params(), gen_mseq([3, 1, 0])
        cfg = ReceiverConfig(blank_width_s=2e-9, max_range_m=14.0)
        cal = Calibration(gain=1.0, reference_sigma_m2=SIGMA_REF,
                          reference_range_m=R_REF)
        scene = Scene(target=target((SIGMA_REF, R_REF)),
                      interferers=(Interferer(freq_hz=1e9, power_w=1e-12),),
                      noise_psd=1e-20, direct_path_gain=0.5,
                      sweep_phase_jitter_rad=0.3, rng_seed=9)

        def image(workers):
            _tone.cache_clear()
            pipeline = SweepPipeline(params, pn, rx_config=cfg)
            _force_workers(monkeypatch, pipeline, workers)
            return _scan(pipeline, scene, cal, 0.5, 2.0, az_span_deg=3.0)[2]

        assert np.array_equal(image(2), image(1))
        _assert_no_child_process()

    def test_stress_nb_series_more_workers_than_cpus(self, monkeypatch):
        # NB blocks of the default size in two processes, each building
        # the tone cache and the scene's point arrays on its own, against
        # one; the estimates are gathered in order from both
        params, pn = nb_params(), gen_mseq([7, 1, 0])
        cfg = ReceiverConfig(max_range_m=100.0)
        cal = Calibration(gain=1.0, reference_sigma_m2=SIGMA_REF,
                          reference_range_m=R_REF)

        def series(workers):
            _tone.cache_clear()
            monkeypatch.setattr(imaging, "_usable_cpus", lambda: workers)
            scene = Scene(
                target=target((SIGMA_REF, R_REF)),
                clutter=gen_clutter((2.0, 8.0), 40, 5e-4, seed=3),
                interferers=(
                    Interferer(freq_hz=1.003e9, power_w=1e-9),
                    Interferer(freq_hz=0.99e9, power_w=1e-9,
                               kind=InterfererKind.QPSK_MODULATED)),
                noise_psd=1e-19, direct_path_gain=0.5,
                sweep_phase_jitter_rad=0.3, rng_seed=2026)
            pipeline = SweepPipeline(params, pn, rx_config=cfg)
            assert pipeline.block_rows == 19
            return [(e.sweep_index, e.sigma_m2)
                    for e in pipeline.series(scene, cal, 3 * 8 * 9 + 4)]

        assert series(2) == series(1)
        _assert_no_child_process()

    # peak traced allocation in receive streams of len(tx) * 16 bytes,
    # measured at 1 and 2 usable CPUs alike: 0.092 (series) and 0.189
    # (scan); each bound leaves a factor of 2
    PEAK_STREAMS = {"series": 0.2, "scan": 0.4}

    @pytest.mark.parametrize("run", ["series", "scan"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_uwb_runs_hold_a_fraction_of_a_receive_stream(self, cpus, run,
                                                          monkeypatch):
        # a process holds the despread windows of the UWB sweeps it runs,
        # not their receive stream; the calling process also holds the
        # rows a forked worker sends back.  On one CPU every block runs in
        # the calling process, so every block is traced; on two, the
        # worker's allocations are not
        params, pn = uwb_params(), gen_mseq([5, 2, 0])
        cfg = ReceiverConfig(blank_width_s=2e-9, max_range_m=14.0)
        pipeline = SweepPipeline(params, pn, rx_config=cfg)
        cal = pipeline.self_calibrate(SIGMA_REF, R_REF)
        scene = Scene(target=TargetModel(points=(
            Scatterer(sigma_m2=1e-3, range_m=10.0),
            Scatterer(sigma_m2=1e-3, range_m=10.5, cross_range_m=0.6))),
            noise_psd=1e-20, direct_path_gain=0.5, rng_seed=7)
        assert pipeline.block_rows == 1  # a UWB sweep is pooled alone
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            if run == "series":
                pipeline.series(scene, cal, 6)
            else:
                _scan(pipeline, scene, cal, 1.0, 2.0, az_span_deg=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_STREAMS[run] * len(pipeline.tx) * 16


def polarimetric(pipeline, scene):
    """One profile per tx/rx polarization pair, all at sweep 0."""
    return {pol: pipeline.profile(scene, pol) for pol in Pol}


class TestPolarimetricScan:
    def test_copolar_identity_matrix(self, uwb_setup):
        pipeline = uwb_setup[3]
        scene = Scene(target=target((SIGMA_REF, R_REF)), noise_psd=1e-19,
                      rng_seed=31)
        profiles = polarimetric(pipeline, scene)
        assert np.array_equal(profiles[Pol.VV].values, profiles[Pol.HH].values)
        assert np.array_equal(profiles[Pol.VH].values, profiles[Pol.HV].values)
        # cross-pol channels carry noise only: no echo energy above it
        assert (profiles[Pol.VV].power.max()
                > 100 * profiles[Pol.VH].power.max())

    def test_pure_cross_polarizer(self, uwb_setup):
        pipeline = uwb_setup[3]
        mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        scene = Scene(target=TargetModel(points=(
            Scatterer(sigma_m2=SIGMA_REF, range_m=R_REF, pol_matrix=mat),)))
        profiles = polarimetric(pipeline, scene)
        assert profiles[Pol.VH].power.max() > 0
        assert profiles[Pol.VV].power.max() == 0

    def test_swapping_offdiagonals_swaps_channels(self, uwb_setup):
        pipeline = uwb_setup[3]
        mat_a = np.array([[0.0, 1.0], [0.3, 0.0]], dtype=complex)
        mat_b = np.array([[0.0, 0.3], [1.0, 0.0]], dtype=complex)
        scene_a = Scene(target=TargetModel(points=(
            Scatterer(SIGMA_REF, R_REF, 0.0, mat_a),)), rng_seed=5)
        scene_b = Scene(target=TargetModel(points=(
            Scatterer(SIGMA_REF, R_REF, 0.0, mat_b),)), rng_seed=5)
        prof_a = polarimetric(pipeline, scene_a)
        prof_b = polarimetric(pipeline, scene_b)
        assert np.array_equal(prof_a[Pol.VH].values, prof_b[Pol.HV].values)
        assert np.array_equal(prof_a[Pol.HV].values, prof_b[Pol.VH].values)


class TestScanImage:
    def _image(self, points, step=1.0, bw=2.0, span=8.0):
        params = uwb_params()
        pn = gen_mseq([3, 1, 0])
        cfg = ReceiverConfig(max_range_m=14.0)
        pipeline = SweepPipeline(params, pn, rx_config=cfg)
        scene = Scene(target=TargetModel(points=points))
        return _scan(pipeline, scene,
                     pipeline.self_calibrate(SIGMA_REF, R_REF),
                     step, bw, az_span_deg=span)

    def test_on_axis_point_peaks_at_zero_azimuth(self):
        azimuths, ranges, power = self._image(
            (Scatterer(sigma_m2=1e-3, range_m=10.0),))
        i, j = np.unravel_index(np.argmax(power), power.shape)
        assert azimuths[i] == 0.0
        assert abs(ranges[j] - 10.0) < 0.01

    def test_offset_point_attenuated_on_axis(self):
        x = 10.0 * math.sin(math.radians(5.0))
        azimuths, _, power = self._image((Scatterer(
            sigma_m2=1e-3, range_m=10.0, cross_range_m=x),))
        row0 = power[list(azimuths).index(0.0)]
        row5 = power[list(azimuths).index(5.0)]
        assert row0.max() <= 0.1 * row5.max()

    def test_two_points_three_beamwidths_apart(self):
        x = 10.0 * math.sin(math.radians(6.0))
        power = self._image(
            (Scatterer(sigma_m2=1e-3, range_m=10.0, cross_range_m=-x),
             Scatterer(sigma_m2=1e-3, range_m=10.0, cross_range_m=x)),
            step=1.0, bw=2.0, span=10.0)[2]
        row_peaks = power.max(axis=1)
        bright = row_peaks > 0.1 * row_peaks.max()
        groups = np.count_nonzero(np.diff(bright.astype(int)) == 1) + int(bright[0])
        assert groups == 2

    def test_step_wider_than_beam_rejected(self):
        with pytest.raises(ValueError, match="beamwidth"):
            self._image((Scatterer(sigma_m2=1e-3, range_m=10.0),),
                        step=3.0, bw=2.0)
        with pytest.raises(ValueError,
                           match="azimuth_step_deg must be finite and > 0"):
            self._image((Scatterer(sigma_m2=1e-3, range_m=10.0),),
                        step=math.nan)

    @pytest.mark.parametrize("geometry, message", [
        ({"bw": math.nan}, "beamwidth_deg must be finite and > 0, got nan"),
        ({"span": math.nan}, "azimuth_span_deg must be finite and > 0, got nan"),
        ({"span": -3.0}, "azimuth_span_deg must be finite and > 0, got -3.0"),
        ({"step": math.inf}, "azimuth_step_deg must be finite and > 0"),
    ], ids=["nan_beamwidth", "nan_span", "negative_span", "inf_step"])
    def test_bad_geometry_names_the_field(self, geometry, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self._image((Scatterer(sigma_m2=1e-3, range_m=10.0),), **geometry)

    def test_scene_interferers_reach_every_row(self, nb_setup):
        _, _, _, pipeline, cal = nb_setup
        quiet = Scene(target=target((SIGMA_REF, R_REF)))
        jammed = dataclasses.replace(
            quiet, interferers=(Interferer(freq_hz=1.003e9, power_w=1.0),))
        (azimuths, _, clean), (_, _, noisy) = (
            _scan(pipeline, scene, cal, 1.0, 2.0, az_span_deg=2.0)
            for scene in (quiet, jammed))
        for row_clean, row_noisy in zip(clean, noisy):
            assert not np.array_equal(row_clean, row_noisy)
        # the on-axis row is the jammed scene's own profile, calibrated
        i0 = list(azimuths).index(0.0)
        prof = pipeline.profile(jammed, Pol.VV, sweep_index=i0)
        assert np.array_equal(noisy[i0],
                              cal.gain * prof.power * prof.ranges_m ** 4)
