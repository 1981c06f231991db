"""Receive-chain tests: blanking, despreading round trips and processing
gain, QPSK demodulation under noise, sliding correlation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import signal
from scipy.special import erfc

from pnradar import (InterfererKind, PREFERRED_PAIRS, Pol, PulseTrain,
                     SampleStream, Scatterer, Scene, TargetModel, add_interferer, despread,
                     gaussian_monocycle, gen_gold, gen_mseq,
                     nb_params, processing_gain, qpsk_baseband, qpsk_demod,
                     spread, uwb_correlate, uwb_params)
from pnradar.receiver import check_blank_width
from stream_oracle import despread_stream, lag_window, propagate, rx_gate


def _symbol_stream(bits_i, bits_q, pn, params, cpb):
    return qpsk_baseband(spread(bits_i, pn, cpb), spread(bits_q, pn, cpb),
                         params)


def _integrate(stream, params, cpb):
    n_sym = cpb * params.samples_per_chip
    m = len(stream) // n_sym
    return stream.samples[: m * n_sym].reshape(m, n_sym).mean(axis=1)


class TestRxGate:
    """The receive blank's rule, check_blank_width, and the oracle's
    rx_gate, which blanks a whole stream by it."""

    def test_leakage_fully_blanked(self):
        params = nb_params()
        rng = np.random.default_rng(0)
        # one pulse at the head of each of two PRI slots
        pulse = np.zeros(params.pri_samples, dtype=complex)
        pulse[:params.pulse_samples] = rng.standard_normal(params.pulse_samples)
        tx = PulseTrain(SampleStream(np.tile(pulse, 2),
                                     params.sample_rate_hz, params.carrier_hz))
        scene = Scene(target=TargetModel(points=(
            Scatterer(sigma_m2=0.0, range_m=10.0),)), direct_path_gain=0.5)
        rx = propagate(tx, scene, params, Pol.VV)
        gated = rx_gate(rx, params, blank_width_s=params.pulse_width_s)
        energy = np.sum(np.abs(rx.samples) ** 2)
        assert energy > 0
        assert np.sum(np.abs(gated.samples) ** 2) <= 1e-12 * energy

    def test_blank_shorter_than_pulse_rejected(self):
        params = nb_params()
        with pytest.raises(ValueError, match="shorter than the transmit"):
            check_blank_width(params, params.pulse_width_s / 2)

    def test_zero_width_blanks_nothing(self):
        params = nb_params()
        s = SampleStream(np.ones(8000, dtype=complex), params.sample_rate_hz)
        assert np.array_equal(rx_gate(s, params, 0.0).samples, s.samples)
        assert check_blank_width(params, 0.0) == 0
        with pytest.raises(ValueError, match="shorter than the transmit"):
            check_blank_width(params, -params.pulse_width_s)

    def test_blank_covering_pri_rejected(self):
        with pytest.raises(ValueError, match="never open"):
            check_blank_width(nb_params(), nb_params().pri_s)

    def test_echo_beyond_blank_untouched(self):
        params = nb_params(pulse_width_s=1e-6)
        n = int(round(params.pri_s * params.sample_rate_hz))
        rng = np.random.default_rng(1)
        rx = SampleStream(rng.standard_normal(n) + 0j, params.sample_rate_hz)
        gated = rx_gate(rx, params, blank_width_s=2e-6)
        blank_samples = int(round(2e-6 * params.sample_rate_hz))
        assert np.array_equal(gated.samples[blank_samples:],
                              rx.samples[blank_samples:])

    def test_idempotent(self):
        params = nb_params()
        rng = np.random.default_rng(2)
        n = int(round(params.pri_s * params.sample_rate_hz))
        rx = SampleStream(rng.standard_normal(n) + 0j, params.sample_rate_hz)
        once = rx_gate(rx, params, 12e-6)
        twice = rx_gate(once, params, 12e-6)
        assert np.array_equal(once.samples, twice.samples)


class TestDespread:
    def test_noiseless_round_trip_bit_exact(self):
        params = nb_params()
        pn = gen_mseq([7, 1, 0])
        rng = np.random.default_rng(3)
        bits_i = rng.integers(0, 2, 200)
        bits_q = rng.integers(0, 2, 200)
        s = _symbol_stream(bits_i, bits_q, pn, params, cpb=127)
        d = despread(s, pn, params)
        out_i, out_q = qpsk_demod(d, params, chips_per_bit=127)
        assert np.array_equal(out_i, bits_i)
        assert np.array_equal(out_q, bits_q)

    @pytest.mark.parametrize("taps,cpb", [
        ([3, 1, 0], 7), ([5, 2, 0], 7), ([5, 2, 0], 31),
        ([7, 1, 0], 7), ([7, 1, 0], 127)])
    def test_round_trip_any_code_and_spreading_factor(self, taps, cpb):
        params = nb_params()
        pn = gen_mseq(taps)
        rng = np.random.default_rng(30)
        bits_i = rng.integers(0, 2, 64)
        bits_q = rng.integers(0, 2, 64)
        s = _symbol_stream(bits_i, bits_q, pn, params, cpb)
        out_i, out_q = qpsk_demod(despread(s, pn, params), params, cpb)
        assert np.array_equal(out_i, bits_i)
        assert np.array_equal(out_q, bits_q)

    def test_wrong_lag_symbol_power_drop(self):
        # Gold-code despreading at a wrong lag leaves roughly 1/N of the
        # symbol power (averaged over lags), i.e. the processing gain
        params = nb_params()
        pn = gen_gold(*PREFERRED_PAIRS[7], shift=0)
        s = _symbol_stream([0] * 4, [0] * 4, pn, params, cpb=127)
        p_correct = np.mean(np.abs(_integrate(despread(s, pn, params), params,
                                              127)) ** 2)
        p_wrong = np.mean([
            np.mean(np.abs(_integrate(despread(s, pn, params, lag), params,
                                      127)) ** 2)
            for lag in range(1, 127)])
        drop_db = 10 * np.log10(p_correct / p_wrong)
        assert drop_db == pytest.approx(10 * np.log10(127), abs=1.5)

    def test_cw_interferer_suppression_matches_processing_gain(self):
        # pooled over 50 seeds: post-despread symbol SINR minus the raw
        # stream SINR equals 10*log10(127) within 1 dB
        params = nb_params()
        pn = gen_gold(*PREFERRED_PAIRS[7], shift=0)
        cpb = 127
        master = np.random.default_rng(2)
        sig_tot = 0.0
        res_tot = 0.0
        for _ in range(50):
            seed = int(master.integers(0, 2 ** 32))
            rng = np.random.default_rng(seed)
            bits_i = rng.integers(0, 2, 8)
            bits_q = rng.integers(0, 2, 8)
            s = _symbol_stream(bits_i, bits_q, pn, params, cpb)
            df = rng.uniform(0.02, 0.2) * params.chip_rate_hz * rng.choice([-1, 1])
            rx = add_interferer(s, params.carrier_hz + df, 10.0,
                                InterfererKind.CW, seed=seed)
            z = _integrate(despread(rx, pn, params), params, cpb)
            ref = ((1 - 2 * bits_i) + 1j * (1 - 2 * bits_q)) / np.sqrt(2)
            sig_tot += np.sum(np.abs(ref) ** 2)
            res_tot += np.sum(np.abs(z - ref) ** 2)
        improvement_db = 10 * np.log10(sig_tot / res_tot) - (-10.0)
        assert improvement_db == pytest.approx(
            processing_gain(pn, cpb), abs=1.0)


class TestQpskDemod:
    def test_noiseless_loopback_ber_zero(self):
        params = nb_params()
        pn = gen_mseq([7, 1, 0])
        rng = np.random.default_rng(4)
        bits_i = rng.integers(0, 2, 5000)
        bits_q = rng.integers(0, 2, 5000)
        s = _symbol_stream(bits_i, bits_q, pn, params, cpb=127)
        out_i, out_q = qpsk_demod(despread(s, pn, params), params, 127)
        assert np.sum(out_i != bits_i) + np.sum(out_q != bits_q) == 0

    def test_awgn_ber_matches_theory_at_6db(self):
        # Q(sqrt(2 Eb/N0)) = 2.39e-3 at 6 dB; 1e5 bits keep the Monte-Carlo
        # spread inside +/-3 sigma of the expectation
        params = nb_params(samples_per_chip=2)
        pn = gen_mseq([7, 1, 0])
        cpb = 1
        n_sym_samples = cpb * params.samples_per_chip
        ebn0 = 10 ** (6.0 / 10.0)
        sigma2 = n_sym_samples / (2 * ebn0)
        theory = 0.5 * erfc(np.sqrt(ebn0))
        rng = np.random.default_rng(5)
        n_sym = 50_000
        bits_i = rng.integers(0, 2, n_sym)
        bits_q = rng.integers(0, 2, n_sym)
        s = _symbol_stream(bits_i, bits_q, pn, params, cpb)
        noise = (rng.standard_normal(len(s)) + 1j * rng.standard_normal(len(s)))
        rx = s.with_samples(s.samples + np.sqrt(sigma2 / 2) * noise)
        out_i, out_q = qpsk_demod(despread(rx, pn, params), params, cpb)
        ber = (np.sum(out_i != bits_i) + np.sum(out_q != bits_q)) / (2 * n_sym)
        sigma_ber = np.sqrt(theory / (2 * n_sym))
        assert abs(ber - theory) < 3 * sigma_ber

    def test_stream_shorter_than_symbol_rejected(self):
        params = nb_params()
        s = SampleStream(np.ones(10, dtype=complex), params.sample_rate_hz)
        with pytest.raises(ValueError, match="shorter than one symbol"):
            qpsk_demod(s, params, chips_per_bit=127)


def _correlate_all(rx: np.ndarray, template: PulseTrain) -> np.ndarray:
    """uwb_correlate over every full overlap of template and rx: a
    template of one chip reads all of rx as its despread window."""
    return uwb_correlate(rx, template, range(len(rx) - len(template) + 1))


class TestUwbCorrelate:
    def test_delayed_template_peak_at_exact_lag(self):
        params = uwb_params()
        pulse = gaussian_monocycle(params)
        delay = 500
        rx = np.zeros(len(pulse) + 2000, dtype=complex)
        rx[delay:delay + len(pulse)] = pulse.samples
        corr = _correlate_all(rx, PulseTrain(pulse))
        assert int(np.argmax(np.abs(corr))) == delay

    def test_zero_input_zero_output(self):
        params = uwb_params()
        pulse = gaussian_monocycle(params)
        corr = _correlate_all(np.zeros(4000, dtype=complex), PulseTrain(pulse))
        assert np.all(corr == 0)

    def test_two_pulse_amplitude_ratio(self):
        params = uwb_params()
        pulse = gaussian_monocycle(params).samples
        a1, a2 = 1.0, 0.4
        d1, d2 = 300, 1800  # separated beyond the pulse support
        rx = np.zeros(4000, dtype=complex)
        rx[d1:d1 + pulse.size] += a1 * pulse
        rx[d2:d2 + pulse.size] += a2 * pulse
        corr = _correlate_all(
            rx, PulseTrain(SampleStream(pulse, params.sample_rate_hz)))
        mags = np.abs(corr)
        assert abs(mags[d1] / mags[d2] - a1 / a2) / (a1 / a2) < 0.01

    def test_template_longer_than_rx_rejected(self):
        params = uwb_params()
        long = SampleStream(np.ones(8, dtype=complex), params.sample_rate_hz)
        with pytest.raises(ValueError, match="does not hold"):
            uwb_correlate(np.ones(4, dtype=complex), PulseTrain(long),
                          range(1))

    def test_matches_direct_form(self):
        rng = np.random.default_rng(6)
        rx_s = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        t_s = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        template = PulseTrain(SampleStream(t_s, 1e6))
        corr = _correlate_all(rx_s, template)
        direct = np.array([np.sum(rx_s[n:n + 40] * np.conj(t_s))
                           for n in range(261)])
        assert np.max(np.abs(corr - direct)) <= 1e-9 * np.max(np.abs(direct))

    def test_conjugate_symmetry_under_swap(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        pad = 63
        a_pad = np.concatenate([np.zeros(pad), a, np.zeros(pad)])
        b_pad = np.concatenate([np.zeros(pad), b, np.zeros(pad)])
        c_ab = _correlate_all(a_pad, PulseTrain(SampleStream(b, 1.0)))
        c_ba = _correlate_all(b_pad, PulseTrain(SampleStream(a, 1.0)))
        assert np.max(np.abs(c_ab - np.conj(c_ba[::-1]))) <= \
            1e-9 * np.max(np.abs(c_ab))

    def test_matched_filter_beats_single_sample_snr(self):
        # peak SNR of the correlator output vs best single received sample,
        # measured across 100 noise realizations
        params = uwb_params()
        pulse = gaussian_monocycle(params).samples.real
        delay = 400
        clean = np.zeros(3000, dtype=complex)
        clean[delay:delay + pulse.size] = 0.05 * pulse
        template = PulseTrain(SampleStream(pulse.astype(complex),
                                           params.sample_rate_hz))
        peak_vals, raw_vals = [], []
        raw_bin = delay + int(np.argmax(np.abs(pulse)))
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean + 0.02 * (rng.standard_normal(3000)
                                    + 1j * rng.standard_normal(3000))
            corr = _correlate_all(noisy, template)
            peak_vals.append(corr[delay])
            raw_vals.append(noisy[raw_bin])
        def snr(values):
            values = np.array(values)
            return np.abs(values.mean()) ** 2 / values.var()
        assert snr(peak_vals) >= snr(raw_vals)


@st.composite
def _correlator_case(draw):
    """A random pulse train, a received stream (optionally gated) and a
    lag window of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_pulse = draw(st.integers(1, 24))
    n_chips = draw(st.integers(1, 8))
    # the pulses of a train of several chips do not overlap
    period = draw(st.integers(n_pulse if n_chips > 1 else 1, 40))
    pulse = rng.standard_normal(n_pulse) + 1j * rng.standard_normal(n_pulse)
    chips = rng.choice([-1.0, 1.0], n_chips) * draw(
        st.sampled_from([1.0, 0.5, 3.0]))
    train = PulseTrain(SampleStream(pulse, 1.0), chips, period)
    n = len(train) + draw(st.integers(0, 60))
    rx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gate = draw(st.integers(0, 10))
    if gate:  # receive blanking: zero the first `gate` samples of each slot
        rx[np.arange(n) % (gate + period) < gate] = 0.0
    n_lags = n - len(train) + 1
    lo = draw(st.integers(0, n_lags - 1))
    hi = draw(st.integers(lo, n_lags))
    return rx, train, range(lo, hi)


class TestPulseTrainCorrelator:
    """The despread-then-pulse correlator against an FFT correlation with
    the expanded template."""

    @settings(max_examples=300, deadline=None)
    @given(_correlator_case())
    def test_matches_fft_oracle(self, case):
        rx, train, lags = case
        full = signal.correlate(rx, train.samples(), mode="valid",
                                method="fft")
        got = uwb_correlate(
            despread_stream(rx, train, lag_window(train, lags)), train, lags)
        assert got.shape == (len(lags),)
        scale = np.linalg.norm(rx) * np.linalg.norm(train.samples())
        np.testing.assert_allclose(got, full[lags.start:lags.stop], rtol=0,
                                   atol=1e-12 * scale)

    @settings(max_examples=200, deadline=None)
    @given(_correlator_case(), st.data())
    def test_blank_equals_blanking_the_stream_first(self, case, data):
        # a window inside its slot that starts past the blank reads no
        # blanked sample, so the blank needs no mask of its own: it is the
        # window's near edge (see SweepPipeline)
        rx, train, _ = case
        pulse = len(train.pulse)
        # the room every chip's window has in its slot and in the stream
        room = min(train.period,
                   len(rx) - (len(train.chips) - 1) * train.period)
        assume(room >= pulse)
        blank = data.draw(st.integers(0, room - pulse))
        lo = data.draw(st.integers(blank, room - pulse))
        lags = range(lo, data.draw(st.integers(lo, room - pulse + 1)))
        blanked = rx.copy()
        blanked[np.arange(len(rx)) % train.period < blank] = 0.0
        window = lag_window(train, lags)
        assert window.stop <= room
        want = uwb_correlate(despread_stream(blanked, train, window), train,
                             lags)
        got = uwb_correlate(despread_stream(rx, train, window), train, lags)
        assert got.tobytes() == want.tobytes()

    def test_lag_window_outside_the_overlaps_rejected(self):
        train = PulseTrain(SampleStream(np.ones(4), 1.0))
        z = np.ones(10)
        # the overlaps of a 10-sample window are lags 0 .. 6
        for lags in (range(0, 8), range(-1, 3), range(0, 6, 2),
                     range(0, len(z) + 1)):
            with pytest.raises(ValueError, match="lags"):
                uwb_correlate(z, train, lags)
        assert uwb_correlate(z[:3], train, range(3, 3)).size == 0


class TestProcessingGain:
    def test_one_chip_zero_db(self):
        pn = gen_mseq([7, 1, 0])
        assert processing_gain(pn, 1) == 0.0

    def test_127_chips(self):
        pn = gen_mseq([7, 1, 0])
        assert processing_gain(pn, 127) == pytest.approx(21.04, abs=0.01)

    def test_bounds_checked(self):
        pn = gen_mseq([3, 1, 0])
        with pytest.raises(ValueError, match="chips_per_bit"):
            processing_gain(pn, 8)
