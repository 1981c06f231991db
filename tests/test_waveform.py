"""Waveform synthesis tests: spreading identities, QPSK normalization,
pulse rules, monocycle shape/spectrum, coded pulse trains."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pnradar import (CodeKind, Mode, PnSequence, PulseTrain,
                     ReceiverConfig, SampleStream, SPEED_OF_LIGHT,
                     SweepPipeline, gaussian_monocycle, gen_mseq,
                     make_waveform, nb_params, qpsk_baseband, spread,
                     uwb_params, uwb_pulse_train)
from pnradar.receiver import check_blank_width


@pytest.fixture
def pn7():
    return gen_mseq([3, 1, 0], seed=0b001)


@pytest.fixture
def params():
    return nb_params()


class TestSpread:
    def test_zero_data_repeats_code(self, pn7):
        out = spread([0, 0, 0], pn7, chips_per_bit=7)
        assert np.array_equal(out, np.tile(pn7.chips, 3))

    def test_one_bit_negates_prefix(self, pn7):
        out = spread([1], pn7, chips_per_bit=5)
        assert np.array_equal(out, -pn7.chips[:5])

    def test_correlation_over_one_bit(self, pn7):
        # despreading one bit by direct sum returns chips_per_bit in magnitude
        for bit in (0, 1):
            out = spread([bit], pn7, chips_per_bit=7)
            assert abs(int(np.dot(out, pn7.chips))) == 7

    def test_code_runs_continuously(self, pn7):
        out = spread([0, 0], pn7, chips_per_bit=5)
        expected = pn7.chips[np.arange(10) % 7]
        assert np.array_equal(out, expected)

    def test_empty_data_rejected(self, pn7):
        with pytest.raises(ValueError, match="nonempty"):
            spread([], pn7, chips_per_bit=7)

    def test_chips_per_bit_bounds(self, pn7):
        for cpb in (0, 8, 2.5):
            with pytest.raises(ValueError, match="chips_per_bit"):
                spread([0], pn7, chips_per_bit=cpb)


class TestQpskBaseband:
    def test_constant_chip_value(self, params):
        s = qpsk_baseband([1] * 4, [1] * 4, params)
        assert np.allclose(s.samples, (1 + 1j) / np.sqrt(2))
        assert np.mean(np.abs(s.samples) ** 2) == pytest.approx(1.0)

    def test_four_constellation_points(self, params):
        s = qpsk_baseband([1, 1, -1, -1], [1, -1, 1, -1], params)
        points = np.unique(np.round(s.samples, 12))
        assert len(points) == 4

    def test_unit_power_per_chip_window(self, params):
        rng = np.random.default_rng(1)
        chips_i = 1 - 2 * rng.integers(0, 2, 64)
        chips_q = 1 - 2 * rng.integers(0, 2, 64)
        s = qpsk_baseband(chips_i, chips_q, params)
        spc = params.samples_per_chip
        windows = np.abs(s.samples.reshape(-1, spc)) ** 2
        assert np.allclose(windows.mean(axis=1), 1.0)

    def test_length_mismatch_rejected(self, params):
        with pytest.raises(ValueError, match="differ"):
            qpsk_baseband([1, 1], [1], params)


class TestGatePulse:
    def test_full_pri_pulse_rejected(self):
        with pytest.raises(ValueError, match="pri"):
            nb_params(pulse_width_s=100e-6, pri_s=100e-6)


NB_FS = nb_params().sample_rate_hz  # 80 MHz
UWB_FS = uwb_params().sample_rate_hz  # 100 GHz


@st.composite
def _pulse_and_pri(draw):
    """A chain, as (mode, pulse or monocycle width, PRI), drawn near the
    edge of its pulse rule.  NB widths and PRIs lie within a sample of a
    whole number of samples; a UWB PRI lies within a few samples of the
    monocycle's 2*round(2w*fs)+1."""
    near = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        pulse = draw(st.integers(0, 12)) + draw(near)
        pri = pulse + draw(st.integers(-2, 2)) + draw(near)
        return Mode.NB_DSSS, pulse / NB_FS, pri / NB_FS
    width = draw(st.floats(0.1e-9, 0.5e-9))
    pulse = 2 * round(2.0 * width * UWB_FS) + 1
    pri = pulse + draw(st.integers(-2, 2)) + draw(near)
    return Mode.DS_UWB, width, pri / UWB_FS


class TestPulseGrid:
    @settings(max_examples=60, deadline=None)
    @given(_pulse_and_pri())
    # an NB pulse that rounds to its whole 800-sample slot
    @example((Mode.NB_DSSS, 1.0e-5, 1.000001e-5))
    # an NB PRI and pulse of under half a sample
    @example((Mode.NB_DSSS, 1.0e-9, 5.0e-9))
    # the default 133-sample monocycle in a 133-sample slot
    @example((Mode.DS_UWB, 0.33e-9, 1.33e-9))
    def test_accepted_exactly_when_the_pulse_fits_its_slot(self, chain):
        mode, width, pri = chain
        if mode is Mode.NB_DSSS:
            fs = NB_FS
            pulse = round(width * fs)
            build = lambda: nb_params(pulse_width_s=width, pri_s=pri)
        else:
            fs = UWB_FS
            pulse = 2 * round(2.0 * width * fs) + 1
            build = lambda: uwb_params(monocycle_width_s=width, pri_s=pri)
        slot = round(pri * fs)
        if not 0 < pulse < slot:
            with pytest.raises(ValueError, match="pri_s"):
                build()
            return
        params = build()
        assert (params.pulse_samples, params.pri_samples) == (pulse, slot)
        # the kept lags run as far as the window stays in the slot
        far = SPEED_OF_LIGHT * ((slot - pulse) * (1.0 / fs)) / 2.0
        pipeline = SweepPipeline(params, gen_mseq([3, 1, 0]),
                                 rx_config=ReceiverConfig(max_range_m=far))
        assert len(pipeline.tx.pulse) == pulse
        check_blank_width(params, pulse / fs)


class TestPulseTrain:
    def test_expansion_sums_weighted_shifted_pulses(self):
        pulse = SampleStream(np.array([1.0, 2.0, 3.0]), 1.0)
        train = PulseTrain(pulse, [1.0, -1.0, 2.0], period=4)
        assert len(train) == 11
        assert np.array_equal(train.samples(),
                              [1.0, 2.0, 3.0, 0.0, -1.0, -2.0, -3.0, 0.0,
                               2.0, 4.0, 6.0])
        assert np.array_equal(
            dataclasses.replace(train, length=13).samples()[11:], [0.0, 0.0])

    def test_length_pads_the_train(self):
        pulse = SampleStream(np.array([1.0, 2.0, 3.0]), 1.0)
        train = PulseTrain(pulse, [1.0, -1.0], period=3, length=9)
        assert len(train) == 9
        assert np.array_equal(train.samples(),
                              [1.0, 2.0, 3.0, -1.0, -2.0, -3.0, 0.0, 0.0, 0.0])
        assert len(dataclasses.replace(train, length=None)) == 6
        with pytest.raises(ValueError, match="5 samples cannot hold a "
                                             "train of 6"):
            PulseTrain(pulse, [1.0, -1.0], period=3, length=5)

    def test_invalid_trains_rejected(self):
        pulse = SampleStream(np.ones(3), 1.0)
        with pytest.raises(ValueError, match="chips"):
            PulseTrain(pulse, [])
        with pytest.raises(ValueError, match="period"):
            PulseTrain(pulse, [1.0, 1.0], period=0)
        with pytest.raises(ValueError, match="cannot hold"):
            dataclasses.replace(PulseTrain(pulse, [1.0, 1.0], period=4),
                                length=6).samples()
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="chips must be finite"):
                PulseTrain(pulse, [1.0, bad])

    def test_uwb_train_is_the_transmitted_train(self):
        p = uwb_params()
        code = gen_mseq([3, 1, 0])
        train = uwb_pulse_train(code, p)
        tx = make_waveform(p, code)[0]
        assert (tx.period, tx.chips.tobytes(), tx.pulse.samples.tobytes()) \
            == (train.period, train.chips.tobytes(),
                train.pulse.samples.tobytes())
        nz = np.flatnonzero(tx.samples())
        assert len(train) == nz[-1] + 1
        assert np.array_equal(
            dataclasses.replace(train, length=len(tx)).samples(), tx.samples())


class TestMonocycle:
    def test_zero_dc_sum(self):
        pulse = gaussian_monocycle(uwb_params())
        assert abs(pulse.samples.sum()) < 1e-6  # relative to unit peak

    def test_zero_crossing_at_center(self):
        pulse = gaussian_monocycle(uwb_params(0.33e-9, sample_rate_hz=100e9))
        center = len(pulse) // 2
        assert pulse.samples[center] == 0
        # continuous peak is normalized to 1; the grid may miss t = sigma
        peak = np.max(np.abs(pulse.samples))
        assert 0.99 <= peak <= 1.0

    def test_single_positive_and_negative_lobe(self):
        pulse = gaussian_monocycle(uwb_params()).samples.real
        signs = np.sign(pulse[pulse != 0])
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 1
        assert pulse.max() > 0 and pulse.min() < 0

    def test_undersampled_rejected(self):
        with pytest.raises(ValueError, match="undersample"):
            gaussian_monocycle(uwb_params(0.33e-9, sample_rate_hz=10e9))

    def test_spectrum_null_at_dc(self):
        pulse = gaussian_monocycle(uwb_params()).samples.real
        spectrum = np.abs(np.fft.rfft(pulse, 4096))
        assert spectrum[0] / spectrum.max() < 1e-3


def coded_train(code, p):
    """The polarity-coded monocycle train over code.length PRIs."""
    train = uwb_pulse_train(code, p)
    return dataclasses.replace(
        train, length=code.length * train.period).samples()


class TestDsUwbTrain:
    def test_all_positive_code_identical_pulses(self):
        p = uwb_params()
        code = PnSequence(chips=[1, 1, 1], kind=CodeKind.MSEQUENCE)
        train = coded_train(code, p)
        pri = int(round(p.pri_s * p.sample_rate_hz))
        slots = train.reshape(3, pri)
        assert np.array_equal(slots[0], slots[1])
        assert np.array_equal(slots[1], slots[2])

    def test_polarity_flip(self):
        p = uwb_params()
        code = PnSequence(chips=[1, -1], kind=CodeKind.MSEQUENCE)
        train = coded_train(code, p)
        pri = int(round(p.pri_s * p.sample_rate_hz))
        assert np.array_equal(train[pri:2 * pri], -train[:pri])

    def test_matched_correlation_peak(self):
        p = uwb_params()
        code = gen_mseq([4, 1, 0])
        train = coded_train(code, p).real
        pulse = gaussian_monocycle(p).samples.real
        peak = float(np.dot(train, train))  # zero-lag correlation
        pulse_energy = float(np.dot(pulse, pulse))
        assert peak == pytest.approx(code.length * pulse_energy, rel=1e-9)

    def test_pri_too_small_rejected(self):
        # the truncated support (8 sigma = 1.32 ns) no longer fits the slot
        with pytest.raises(ValueError, match="pri_s"):
            uwb_params(monocycle_width_s=0.33e-9, pri_s=1e-9)

    def test_occupied_bandwidth_exceeds_1ghz(self):
        p = uwb_params()
        code = gen_mseq([5, 2, 0])
        train = coded_train(code, p).real
        spectrum = np.abs(np.fft.rfft(train)) ** 2
        freqs = np.fft.rfftfreq(train.size, 1.0 / p.sample_rate_hz)
        above = freqs[spectrum >= spectrum.max() / 10.0]
        assert above.max() - above.min() > 1e9

class TestRadarParams:
    def test_wavelength(self):
        assert nb_params(carrier_hz=1e9).wavelength_m == pytest.approx(
            0.299792458)

    def test_carrier_out_of_band_rejected(self):
        with pytest.raises(ValueError, match="300-3000"):
            nb_params(carrier_hz=5e9)

    def test_uwb_defaults(self):
        p = uwb_params()
        assert p.mode is Mode.DS_UWB
        assert p.sample_rate_hz == 100e9
        assert p.monocycle_sigma_s == pytest.approx(0.165e-9)

    @pytest.mark.parametrize("build, match", [
        (lambda: nb_params(chip_rate_hz=np.nan), "chip_rate_hz must be finite"),
        (lambda: nb_params(pulse_width_s=np.nan), "pulse_width_s must be finite"),
        (lambda: nb_params(pri_s=np.inf), "pri_s must be finite"),
        (lambda: uwb_params(monocycle_width_s=np.nan),
         "monocycle_width_s must be finite"),
        (lambda: uwb_params(sample_rate_hz=np.nan),
         "sample_rate_hz must be finite"),
        # zero once meant "use 100 GHz"
        (lambda: uwb_params(sample_rate_hz=0.0), "sample_rate_hz must be "
         "finite and > 0, got 0.0"),
        (lambda: uwb_params(pri_s=np.nan), "pri_s must be finite"),
    ], ids=["nb_chip_rate_nan", "nb_pulse_nan", "nb_pri_inf",
            "uwb_monocycle_nan", "uwb_sample_rate_nan", "uwb_sample_rate_zero",
            "uwb_pri_nan"])
    def test_rates_and_durations_checked_at_construction(self, build, match):
        # each would otherwise reach round() in the sample counts, or run
        with pytest.raises(ValueError, match=match):
            build()

    def test_stream_requires_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            SampleStream(np.array([np.nan + 0j]), 1.0)

    @pytest.mark.parametrize("bad", [
        complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
        complex(0.0, -np.inf), complex(-np.inf, np.inf)])
    def test_stream_rejects_any_non_finite_part(self, bad):
        samples = np.full(1000, -2.0 + 3.0j)
        samples[617] = bad
        with pytest.raises(ValueError, match="finite"):
            SampleStream(samples, 1.0)
        samples[617] = np.finfo(np.float64).max * (1 - 1j)
        assert len(SampleStream(samples, 1.0)) == 1000
