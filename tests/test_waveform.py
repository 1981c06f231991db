"""Waveform synthesis tests: spreading identities, QPSK normalization,
pulse gating, monocycle shape/spectrum, coded pulse trains."""

import numpy as np
import pytest

from pnradar import (CodeKind, Mode, PnSequence, PulseTrain, SampleStream,
                     ds_uwb_train, gate_pulse, gaussian_monocycle, gen_mseq,
                     nb_params, qpsk_baseband, spread, uwb_params,
                     uwb_pulse_train)
from pnradar.waveform import _pulse_mask


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
        with pytest.raises(ValueError, match="chips_per_bit"):
            spread([0], pn7, chips_per_bit=8)


class TestQpskBaseband:
    def test_constant_chip_value(self, params):
        s = qpsk_baseband([1] * 4, [1] * 4, params)
        assert np.allclose(s.samples, (1 + 1j) / np.sqrt(2))
        assert s.power == pytest.approx(1.0)

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
    def test_half_duty_cycle(self):
        p = nb_params(pulse_width_s=50e-6, pri_s=100e-6)
        n = int(round(2 * p.pri_s * p.sample_rate_hz))
        s = SampleStream(np.ones(n, dtype=complex), p.sample_rate_hz)
        gated = gate_pulse(s, p)
        nonzero = int(np.count_nonzero(gated.samples))
        assert abs(nonzero - n // 2) <= 2  # one sample per edge, two PRIs

    def test_full_pri_pulse_rejected(self):
        with pytest.raises(ValueError, match="pri"):
            nb_params(pulse_width_s=100e-6, pri_s=100e-6)

    def test_idempotent(self):
        p = nb_params()
        rng = np.random.default_rng(3)
        n = int(round(p.pri_s * p.sample_rate_hz))
        s = SampleStream(rng.standard_normal(n) + 0j, p.sample_rate_hz)
        once = gate_pulse(s, p)
        twice = gate_pulse(once, p)
        assert np.array_equal(once.samples, twice.samples)

    def test_gating_preserves_passed_values(self):
        p = nb_params()
        rng = np.random.default_rng(4)
        n = int(round(p.pri_s * p.sample_rate_hz))
        s = SampleStream(rng.standard_normal(n) + 0j, p.sample_rate_hz)
        gated = gate_pulse(s, p)
        passed = gated.samples != 0
        assert np.array_equal(gated.samples[passed], s.samples[passed])


class TestSampleStream:
    def test_support_is_cached_read_only_nonzero_indices(self):
        s = SampleStream(np.array([0.0, 1.0, 0.0, -0.0, 2j, 0.0]), 1.0)
        assert np.array_equal(s.support, [1, 4])
        assert s.support is s.support
        assert not s.support.flags.writeable


class TestPulseMask:
    def test_memoized_read_only_and_unchanged(self):
        args = (319341, 100e9, 100e-9, 2e-9)
        mask = _pulse_mask(*args)
        assert _pulse_mask(*args) is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = False
        t = np.arange(args[0]) / args[1]
        assert np.array_equal(mask, np.mod(t, args[2]) < args[3])


class TestPulseTrain:
    def test_expansion_sums_weighted_shifted_pulses(self):
        pulse = SampleStream(np.array([1.0, 2.0, 3.0]), 1.0)
        train = PulseTrain(pulse, [1.0, -1.0, 2.0], period=2)
        assert len(train) == 7
        assert np.array_equal(train.samples(),
                              [1.0, 2.0, 3.0 - 1.0, -2.0, -3.0 + 2.0, 4.0, 6.0])
        assert np.array_equal(train.samples(9)[7:], [0.0, 0.0])

    def test_invalid_trains_rejected(self):
        pulse = SampleStream(np.ones(3), 1.0)
        with pytest.raises(ValueError, match="chips"):
            PulseTrain(pulse, [])
        with pytest.raises(ValueError, match="period"):
            PulseTrain(pulse, [1.0, 1.0], period=0)
        with pytest.raises(ValueError, match="cannot hold"):
            PulseTrain(pulse, [1.0, 1.0], period=4).samples(6)

    def test_uwb_train_is_the_transmitted_train(self):
        p = uwb_params()
        code = gen_mseq([3, 1, 0])
        train = uwb_pulse_train(code, p)
        tx = ds_uwb_train(code, p).samples
        nz = np.flatnonzero(tx)
        assert len(train) == nz[-1] + 1
        assert np.array_equal(train.samples(tx.size), tx)


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


class TestDsUwbTrain:
    def test_all_positive_code_identical_pulses(self):
        p = uwb_params()
        code = PnSequence(chips=[1, 1, 1], kind=CodeKind.MSEQUENCE)
        train = ds_uwb_train(code, p)
        pri = int(round(p.pri_s * p.sample_rate_hz))
        slots = train.samples.reshape(3, pri)
        assert np.array_equal(slots[0], slots[1])
        assert np.array_equal(slots[1], slots[2])

    def test_polarity_flip(self):
        p = uwb_params()
        code = PnSequence(chips=[1, -1], kind=CodeKind.MSEQUENCE)
        train = ds_uwb_train(code, p)
        pri = int(round(p.pri_s * p.sample_rate_hz))
        assert np.array_equal(train.samples[pri:2 * pri],
                              -train.samples[:pri])

    def test_matched_correlation_peak(self):
        p = uwb_params()
        code = gen_mseq([4, 1, 0])
        train = ds_uwb_train(code, p).samples.real
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
        train = ds_uwb_train(code, p).samples.real
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
