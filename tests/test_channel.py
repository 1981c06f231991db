"""Channel tests: scattering amplitudes, clutter statistics, propagation
physics (delay, superposition, linearity, determinism), interference."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnradar import (Interferer, InterfererKind, Pol, PulseTrain,
                     ReceiverConfig, SampleStream, Scatterer, Scene,
                     SweepPipeline, TargetModel,
                     add_interferer, despread_windows, gen_clutter, gen_mseq,
                     identity_pol_matrix, make_waveform, nb_params, propagate,
                     uwb_params, SPEED_OF_LIGHT)
from pnradar import channel
from pnradar.channel import (_POL_INDEX, _RNG_INTERFERER, _RNG_NOISE,
                             _RNG_PHASE, _interferer, _stream_rngs,
                             _stream_state, _tone)
from stream_oracle import assert_rounding_close, despread_stream

_U64 = 2**64 - 1


def scattering_amplitude(point, pol):
    """Complex scattered amplitude sqrt(sigma) * S_pq for a tx/rx pair, as
    one Python complex."""
    r, c = _POL_INDEX[pol]
    return complex(np.sqrt(point.sigma_m2) * point.pol_matrix[r, c])


def _mean_power(stream):
    """Mean |s|^2 over a stream."""
    return float(np.mean(np.abs(stream.samples) ** 2))


def _dense_tx(samples, params):
    """A dense transmit stream, as the train of one chip it is.  Its period
    sets only the train's noise chunk and its blank slot, so it is the
    stream's length: despread_windows then draws the noise in one chunk,
    not one sample per call."""
    return PulseTrain(SampleStream(samples, params.sample_rate_hz,
                                   params.carrier_hz), period=len(samples))


def _tone_stream(params, n_pri=1):
    n = int(round(n_pri * params.pri_s * params.sample_rate_hz))
    return _dense_tx(np.ones(n, dtype=complex), params)


def _noise_stream(params, seed=0, n_pri=1):
    rng = np.random.default_rng(seed)
    n = int(round(n_pri * params.pri_s * params.sample_rate_hz))
    return _dense_tx(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                     params)


def _single_point_scene(sigma=1.0, range_m=30.0, **kwargs):
    return Scene(target=TargetModel(points=(
        Scatterer(sigma_m2=sigma, range_m=range_m),)), **kwargs)


class TestScatteringAmplitude:
    """The echo of one point, times R^2, has magnitude sqrt(sigma)*|S_pq|."""

    @staticmethod
    def _echo(point, pol):
        params = nb_params()
        impulse = np.zeros(params.pri_samples, dtype=complex)
        impulse[0] = 1.0
        rx = propagate(_dense_tx(impulse, params),
                       Scene(target=TargetModel(points=(point,))), params, pol)
        return np.abs(rx.samples).max() * point.range_m ** 2

    def test_vv_unit(self):
        p = Scatterer(sigma_m2=1.0, range_m=10.0)
        assert self._echo(p, Pol.VV) == pytest.approx(1.0, rel=1e-12)

    def test_hh_scaled(self):
        mat = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)
        p = Scatterer(sigma_m2=4.0, range_m=10.0, pol_matrix=mat)
        assert self._echo(p, Pol.HH) == pytest.approx(1.0, rel=1e-12)

    def test_no_depolarization(self):
        p = Scatterer(sigma_m2=1.0, range_m=10.0)
        assert self._echo(p, Pol.VH) == 0.0
        assert self._echo(p, Pol.HV) == 0.0

    def test_pol_matrix_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            Scatterer(sigma_m2=1.0, range_m=10.0,
                      pol_matrix=0.5 * identity_pol_matrix())
        with pytest.raises(ValueError, match="unit"):
            Scatterer(sigma_m2=1.0, range_m=10.0,
                      pol_matrix=2.0 * identity_pol_matrix())


class TestGenClutter:
    def test_zero_count(self):
        assert gen_clutter((2.0, 8.0), 0, 0.01, seed=1) == ()

    def test_deterministic(self):
        a = gen_clutter((2.0, 8.0), 16, 0.01, seed=9)
        b = gen_clutter((2.0, 8.0), 16, 0.01, seed=9)
        assert all(p.range_m == q.range_m and p.sigma_m2 == q.sigma_m2
                   for p, q in zip(a, b))

    def test_ranges_inside_window(self):
        points = gen_clutter((2.0, 8.0), 200, 0.01, seed=3)
        assert all(2.0 <= p.range_m <= 8.0 for p in points)

    def test_sample_mean_sigma(self):
        # law of large numbers: 1e5 exponential draws land within 2 %
        points = gen_clutter((2.0, 8.0), 100_000, 0.01, seed=12345)
        mean = np.mean([p.sigma_m2 for p in points])
        assert abs(mean - 0.01) / 0.01 < 0.02

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError, match="mean_sigma"):
            gen_clutter((2.0, 8.0), 4, -0.01, seed=1)

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(0, 500), near=st.floats(1e-3, 1e4),
           width=st.floats(0.0, 1e4),
           mean=st.one_of(st.just(0.0), st.floats(1e-12, 1e3)),
           seed=st.integers(0, _U64))
    def test_equals_per_point_construction(self, count, near, width, mean,
                                           seed):
        # the oracle draws as gen_clutter does, then builds each point's
        # values and matrix one at a time
        rng = np.random.default_rng(seed)
        ranges = rng.uniform(near, near + width, size=count)
        sigmas = rng.exponential(mean, size=count) if mean > 0 \
            else np.zeros(count)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
        points = gen_clutter((near, near + width), count, mean, seed)
        assert len(points) == count
        assert all(type(p.range_m) is float and type(p.sigma_m2) is float
                   and not p.pol_matrix.flags.writeable for p in points)
        for attr, want in (
                ("range_m", [float(r) for r in ranges]),
                ("sigma_m2", [float(s) for s in sigmas]),
                ("pol_matrix",
                 [np.full((2, 2), np.exp(1j * ph)) for ph in phases])):
            got = np.array([getattr(p, attr) for p in points])
            assert got.tobytes() == np.array(want).tobytes(), attr


class TestPropagate:
    def test_echoes_match_dense_delayed_copies(self):
        # a dense stream is a train of one chip: each echo adds a * samples
        # over its zeros too, and those terms leave the dense sum as it is
        params = nb_params()
        rng = np.random.default_rng(6)
        n = int(round(params.pri_s * params.sample_rate_hz))
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        samples[rng.random(n) < 0.7] = 0.0
        tx = _dense_tx(samples, params)
        points = tuple(Scatterer(sigma_m2=s, range_m=r) for s, r in
                       ((1.0, 30.0), (0.5, 31.0), (2.0, 700.0), (1.5, 2000.0)))
        scene = Scene(target=TargetModel(points=points))
        rx = propagate(tx, scene, params, Pol.VV)
        dense = np.zeros(n, dtype=complex)
        for p in points:
            delay_s = 2.0 * p.range_m / SPEED_OF_LIGHT
            d = int(round(delay_s * params.sample_rate_hz))
            phase = -2.0 * np.pi * params.carrier_hz * delay_s
            a = (scattering_amplitude(p, Pol.VV) / p.range_m ** 2
                 * np.exp(1j * phase))
            dense[d:] += a * samples[:n - d]
        assert np.array_equal(rx.samples, dense)

    def test_zero_strength_scene_silent(self):
        params = nb_params()
        tx = _noise_stream(params, seed=1)
        scene = _single_point_scene(sigma=0.0)
        rx = propagate(tx, scene, params, Pol.VV)
        assert np.all(rx.samples == 0)

    def test_single_point_delayed_scaled_copy(self):
        params = nb_params()
        tx = _noise_stream(params, seed=2)
        r = 42.0
        scene = _single_point_scene(sigma=4.0, range_m=r)
        rx = propagate(tx, scene, params, Pol.VV)
        d = int(round(2 * r / SPEED_OF_LIGHT * params.sample_rate_hz))
        amp = (np.sqrt(4.0) / r ** 2
               * np.exp(-2j * np.pi * params.carrier_hz * 2 * r / SPEED_OF_LIGHT))
        assert np.all(rx.samples[:d] == 0)
        assert np.allclose(rx.samples[d:], amp * tx.samples()[:len(tx) - d])

    def test_two_point_destructive_cancellation(self):
        params = nb_params()
        tx = _noise_stream(params, seed=3)
        flipped = -identity_pol_matrix()
        pair = Scene(target=TargetModel(points=(
            Scatterer(sigma_m2=1.0, range_m=30.0),
            Scatterer(sigma_m2=1.0, range_m=30.0, pol_matrix=flipped))))
        single = _single_point_scene(sigma=1.0, range_m=30.0)
        rx_pair = propagate(tx, pair, params, Pol.VV)
        rx_single = propagate(tx, single, params, Pol.VV)
        assert _mean_power(rx_pair) < 1e-6 * _mean_power(rx_single)

    def test_unambiguous_range_violation_names_point(self):
        params = nb_params(pri_s=1e-6, pulse_width_s=0.4e-6)
        tx = _tone_stream(params)
        scene = _single_point_scene(range_m=400.0)  # > c*PRI/2 = 150 m
        with pytest.raises(ValueError, match="scatterer 0 at 400"):
            propagate(tx, scene, params, Pol.VV)

    def test_stream_must_cover_pri(self):
        params = nb_params()
        short = _dense_tx(np.ones(10, dtype=complex), params)
        with pytest.raises(ValueError, match="PRI"):
            propagate(short, _single_point_scene(), params, Pol.VV)

    def test_stream_must_match_the_chain(self):
        # a 100 GHz carrierless stream on the 80 MHz, 1 GHz nb chain, and
        # an nb stream tagged with another carrier
        uwb_tx = make_waveform(uwb_params(), gen_mseq([5, 2, 0]))[0]
        params = nb_params()
        off_carrier = PulseTrain(SampleStream(
            np.ones(params.pri_samples, dtype=complex),
            params.sample_rate_hz, 2e9))
        for tx in (uwb_tx, off_carrier):
            with pytest.raises(ValueError, match="but the chain runs at "
                               "8e[+]07 Hz on 1e[+]09 Hz"):
                propagate(tx, _single_point_scene(), params, Pol.VV)

    def test_linearity(self):
        params = nb_params()
        s = _noise_stream(params, seed=4)
        u = _noise_stream(params, seed=5)
        scene = Scene(target=TargetModel(points=(
            Scatterer(sigma_m2=1.0, range_m=20.0),
            Scatterer(sigma_m2=0.5, range_m=35.0),)),
            sweep_phase_jitter_rad=0.4, rng_seed=11)
        a, b = 0.7 - 0.2j, -1.3 + 0.4j
        mixed = _dense_tx(a * s.samples() + b * u.samples(), params)
        lhs = propagate(mixed, scene, params, Pol.VV, sweep_index=2).samples
        rhs = (a * propagate(s, scene, params, Pol.VV, sweep_index=2).samples
               + b * propagate(u, scene, params, Pol.VV, sweep_index=2).samples)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_superposition_over_points(self):
        params = nb_params()
        tx = _noise_stream(params, seed=6)
        p1 = Scatterer(sigma_m2=1.0, range_m=25.0)
        p2 = Scatterer(sigma_m2=2.0, range_m=60.0)
        both = Scene(target=TargetModel(points=(p1, p2)))
        rx_both = propagate(tx, both, params, Pol.VV)
        rx_1 = propagate(tx, Scene(target=TargetModel(points=(p1,))),
                         params, Pol.VV)
        rx_2 = propagate(tx, Scene(target=TargetModel(points=(p2,))),
                         params, Pol.VV)
        assert np.allclose(rx_both.samples, rx_1.samples + rx_2.samples,
                           rtol=1e-12, atol=1e-15)

    def test_byte_identical_determinism(self):
        params = nb_params()
        tx = _noise_stream(params, seed=7)
        scene = _single_point_scene(
            sigma=1.0, range_m=30.0, noise_psd=1e-12,
            sweep_phase_jitter_rad=0.3, rng_seed=99,
            clutter=gen_clutter((10.0, 100.0), 5, 0.1, seed=5))
        a = propagate(tx, scene, params, Pol.VV, sweep_index=3)
        b = propagate(tx, scene, params, Pol.VV, sweep_index=3)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_scene_arrays_built_once_per_scene(self):
        params = uwb_params()
        tx = make_waveform(params, gen_mseq([3, 1, 0]))[0]
        depolarizing = np.array([[1.0, 0.3j], [0.5j, -0.8]])
        scene = _single_point_scene(
            sigma=4.0, range_m=3.0, noise_psd=1e-19, rng_seed=5,
            clutter=(Scatterer(sigma_m2=0.5, range_m=6.0,
                               pol_matrix=depolarizing),))
        ranges, root, mats = scene.point_arrays
        assert scene.point_arrays[0] is ranges
        assert not any(a.flags.writeable for a in (ranges, root, mats))
        assert ranges.tolist() == [3.0, 6.0]
        assert root.tolist() == [2.0, math.sqrt(0.5)]
        assert np.array_equal(mats[1], depolarizing)
        # a scene propagated before, in another polarization, gives the
        # same sweep as a fresh copy of it
        for pol in Pol:
            warm = propagate(tx, scene, params, pol, 2).samples
            cold = propagate(tx, dataclasses.replace(scene), params, pol, 2)
            assert warm.tobytes() == cold.samples.tobytes()

    def test_distinct_sweeps_differ(self):
        params = nb_params()
        tx = _noise_stream(params, seed=8)
        scene = _single_point_scene(sigma=1.0, range_m=30.0, noise_psd=1e-12,
                                    rng_seed=99)
        a = propagate(tx, scene, params, Pol.VV, sweep_index=0)
        b = propagate(tx, scene, params, Pol.VV, sweep_index=1)
        assert not np.array_equal(a.samples, b.samples)

    def test_energy_monotonicity_with_random_phases(self):
        # adding a random-phase point never lowers mean received energy
        params = nb_params()
        tx = _noise_stream(params, seed=9)
        diffs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            base_points = tuple(
                Scatterer(sigma_m2=1.0, range_m=20.0 + 5 * k,
                          pol_matrix=np.exp(1j * rng.uniform(0, 2 * np.pi))
                          * np.ones((2, 2)))
                for k in range(3))
            extra = Scatterer(
                sigma_m2=1.0, range_m=22.5,
                pol_matrix=np.exp(1j * rng.uniform(0, 2 * np.pi))
                * np.ones((2, 2)))
            e_base = _mean_power(propagate(
                tx, Scene(target=TargetModel(points=base_points)), params,
                Pol.VV))
            e_more = _mean_power(propagate(
                tx, Scene(target=TargetModel(points=base_points + (extra,))),
                params, Pol.VV))
            diffs.append(e_more - e_base)
        diffs = np.array(diffs)
        sem = diffs.std(ddof=1) / np.sqrt(diffs.size)
        assert diffs.mean() > -3.0 * sem

    def test_direct_path_leakage(self):
        params = nb_params()
        tx = _noise_stream(params, seed=10)
        scene = _single_point_scene(sigma=0.0, direct_path_gain=0.25)
        rx = propagate(tx, scene, params, Pol.VV)
        assert np.allclose(rx.samples, 0.25 * tx.samples())


def _propagate_oracle(tx, scene, params, pol, sweep_index=0):
    """Reference propagation: one shifted add of tx per scatterer, in point
    order, with the same impairments, each drawn from a generator numpy
    seeds itself from the stream's key."""
    fs = tx.sample_rate
    n = len(tx)
    samples = tx.samples()
    points = scene.all_points
    seed = scene.rng_seed & _U64
    out = np.zeros(n, dtype=np.complex128)
    if scene.direct_path_gain:
        out += scene.direct_path_gain * samples
    if scene.sweep_phase_jitter_rad > 0 and points:
        rng = np.random.default_rng([seed, sweep_index, _RNG_PHASE])
        jitter = rng.normal(0.0, scene.sweep_phase_jitter_rad, size=len(points))
    else:
        jitter = np.zeros(len(points))
    support = np.flatnonzero(samples != 0)
    active = samples[support]
    for k, p in enumerate(points):
        amp = scattering_amplitude(p, pol)
        if amp == 0:
            continue
        delay_s = 2.0 * p.range_m / SPEED_OF_LIGHT
        d = int(round(delay_s * fs))
        phase = -2.0 * np.pi * params.carrier_hz * delay_s + jitter[k]
        a = amp / p.range_m ** 2 * np.exp(1j * phase)
        m = int(np.searchsorted(support, n - d))
        out[support[:m] + d] += a * active[:m]
    for i, itf in enumerate(scene.interferers):
        rng = np.random.default_rng([seed, sweep_index, _RNG_INTERFERER, i])
        out += _interferer(itf, n, fs, tx.carrier_hz, [rng])(0, n)[0]
    if scene.noise_psd > 0:
        rng = np.random.default_rng([seed, sweep_index, _RNG_NOISE])
        scale = np.sqrt(scene.noise_psd * fs / 2.0)
        out.real += scale * rng.standard_normal(n)
        out.imag += scale * rng.standard_normal(n)
    return SampleStream(out, fs, tx.carrier_hz)


def _oracle_streams():
    """(params, tx) pairs: the NB pulse, a 7-chip UWB train (its last echoes
    run past the stream end) and a sparse random NB stream, a train of one
    chip, with support up to its last sample, so that every echo is
    truncated."""
    pn = gen_mseq([3, 1, 0])
    nb, uwb = nb_params(), uwb_params()
    rng = np.random.default_rng(21)
    n = int(round(nb.pri_s * nb.sample_rate_hz))
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    samples[rng.random(n) < 0.8] = 0.0
    return [(nb, make_waveform(nb, pn)[0]), (uwb, make_waveform(uwb, pn)[0]),
            (nb, _dense_tx(samples, nb))]


_STREAMS = _oracle_streams()
_DEPOLARIZING = np.array([[1.0, 0.3j], [0.3j, -0.8]], dtype=complex)


@st.composite
def _oracle_case(draw):
    params, tx = draw(st.sampled_from(_STREAMS))
    fs = tx.sample_rate
    max_delay = int(params.unambiguous_range_m * 2.0 / SPEED_OF_LIGHT * fs)
    # a few delays near the start and the end of the window, so that
    # points share them often
    delay = st.one_of(st.integers(1, 3),
                      st.integers(max_delay - 2, max_delay),
                      st.integers(1, max_delay))
    points = []
    for _ in range(draw(st.integers(1, 10))):
        d = draw(delay)
        frac = draw(st.floats(-0.45, 0.45))
        range_m = min((d + frac) * SPEED_OF_LIGHT / (2.0 * fs),
                      params.unambiguous_range_m)
        # one point in five has zero cross section
        sigma = draw(st.floats(1e-6, 10.0)) if draw(st.integers(0, 4)) \
            else 0.0
        mat = draw(st.sampled_from(["identity", "phase", "depolarizing"]))
        if mat == "identity":
            pol_matrix = identity_pol_matrix()
        elif mat == "phase":
            pol_matrix = (np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
                          * np.ones((2, 2)))
        else:
            pol_matrix = _DEPOLARIZING
        points.append(Scatterer(sigma_m2=sigma, range_m=range_m,
                                pol_matrix=pol_matrix))
    interferers = ()
    if draw(st.booleans()):
        interferers = (
            Interferer(freq_hz=tx.carrier_hz + 1e6, power_w=1e-9),
            Interferer(freq_hz=tx.carrier_hz - 2e6, power_w=1e-9,
                       kind=InterfererKind.QPSK_MODULATED))
    scene = Scene(
        target=TargetModel(points=tuple(points[:1])),
        clutter=tuple(points[1:]), interferers=interferers,
        noise_psd=draw(st.sampled_from([0.0, 1e-19])),
        direct_path_gain=draw(st.sampled_from([0.0, 0.25])),
        sweep_phase_jitter_rad=draw(st.sampled_from([0.0, 0.3])),
        rng_seed=draw(st.integers(0, _U64)))
    # sweeps of one 32-bit word, of two (and blocks across the boundary)
    # and of three
    sweep = draw(st.one_of(st.integers(0, 50),
                           st.integers(2**32 - 3, 2**32 + 3),
                           st.integers(2**32, 2**66)))
    return params, tx, scene, draw(st.sampled_from(list(Pol))), sweep


class TestPropagateOracle:
    @settings(max_examples=300, deadline=None)
    @given(_oracle_case())
    def test_matches_per_point_loop(self, case):
        params, tx, scene, pol, sweep = case
        rx = propagate(tx, scene, params, pol, sweep).samples
        ref = _propagate_oracle(tx, scene, params, pol, sweep).samples
        # the amplitudes round as numpy's arrays do, not as the oracle's
        # Python scalars, and shared delays are summed first, which
        # reassociates the echo sums
        sum_a = sum(abs(scattering_amplitude(p, pol)) / p.range_m ** 2
                    for p in scene.all_points)
        max_tx = np.max(np.abs(tx.samples()))
        tol = 1e-12 * ((scene.direct_path_gain + sum_a) * max_tx
                       + np.max(np.abs(ref)))
        assert np.max(np.abs(rx - ref)) <= tol

    def test_half_sample_delays_round_to_even(self):
        # 2R/c*fs is exactly 2.5, 4.5, 6.5 and 8.5 samples for these ranges
        params, tx = _STREAMS[2]
        fs = tx.sample_rate
        ranges = [(k + 0.5) * SPEED_OF_LIGHT / (2.0 * fs) for k in (2, 4, 6, 8)]
        assert [2.0 * r / SPEED_OF_LIGHT * fs for r in ranges] == \
            [2.5, 4.5, 6.5, 8.5]
        scene = Scene(target=TargetModel(points=tuple(
            Scatterer(sigma_m2=1.0, range_m=r) for r in ranges)))
        rx = propagate(tx, scene, params, Pol.VV).samples
        assert np.array_equal(
            rx, _propagate_oracle(tx, scene, params, Pol.VV).samples)

    @settings(max_examples=200, deadline=None)
    @given(_oracle_case(), st.integers(1, 4))
    def test_echoes_sum_one_point_amplitudes(self, case, rows):
        # _echoes' delays increase strictly, a delay is kept only for a
        # point of nonzero amplitude, and each column is the sum of the
        # one-point amplitudes of its points in every row of jitter
        params, tx, scene, pol, sweep = case
        points = scene.all_points
        jitter = np.random.default_rng(sweep).normal(
            0.0, scene.sweep_phase_jitter_rad, (rows, len(points)))
        delays, h = channel._echoes(scene, pol, params, jitter)
        assert h.shape == (rows, len(delays))
        assert all(a < b for a, b in zip(delays, delays[1:]))
        fs = tx.sample_rate
        want = {d: np.zeros(rows, dtype=complex) for d in delays}
        scale = {d: 0.0 for d in delays}
        for k, p in enumerate(points):
            amp = scattering_amplitude(p, pol) / p.range_m ** 2
            if amp == 0:
                continue
            tau = 2.0 * p.range_m / SPEED_OF_LIGHT
            d = int(round(tau * fs))
            want[d] += amp * np.exp(1j * (-2.0 * np.pi * params.carrier_hz
                                          * tau + jitter[:, k]))
            scale[d] += abs(amp)
        assert all(scale.values())
        for j, d in enumerate(delays):
            assert np.abs(h[:, j] - want[d]).max() <= 1e-12 * scale[d]

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-39e6, 39e6), st.integers(1, 5000),
           st.sampled_from([80e6, 100e9]))
    def test_tone_is_read_only_and_exact(self, df, n, fs):
        tone = _tone(df, n, fs)
        assert not tone.flags.writeable
        with pytest.raises(ValueError):
            tone[0] = 0.0
        t = np.arange(n) / fs
        assert tone.tobytes() == np.exp(2j * np.pi * df * t).tobytes()
        assert _tone(df, n, fs) is tone


def _rail_windows(rail, train, window):
    """sum_j chips[j] * rail[window.start + j*period : window.stop +
    j*period] on one float rail, chip by chip."""
    out = np.zeros(len(window))
    for j, chip in enumerate(train.chips):
        start = window.start + j * train.period
        out += chip * rail[start:start + len(window)]
    return out


def _whole_rails(seed, sweep, n, scale):
    """A sweep's noise as one whole draw of each rail: n real samples,
    then n imaginary ones, scaled."""
    rng = np.random.default_rng([seed, sweep, _RNG_NOISE])
    re = rng.standard_normal(n)
    re *= scale
    im = rng.standard_normal(n)
    im *= scale
    return re, im


def _impulse_train(params, chips, period, length):
    """A train of one-sample pulses, so that only noise fills a window."""
    return PulseTrain(SampleStream(np.ones(1, dtype=complex),
                                   params.sample_rate_hz, params.carrier_hz),
                      chips, period, length)


class TestPropagateBuffers:
    """A block of despread windows draws each row's noise window by window
    into buffers one window wide: the draws between two windows are made
    and dropped, and overlapping windows share theirs."""

    @pytest.mark.parametrize("n", [10_000, 16_384, 32_768, 49_159])
    def test_chunked_noise_equals_whole_rail_draw(self, n):
        params = uwb_params()
        scale = np.sqrt(1e-19 * params.sample_rate_hz / 2.0)
        period = n // 4
        tx = _impulse_train(params, [1.0, -1.0, 0.5], period, n)
        scene = _single_point_scene(sigma=0.0, range_m=1.0, noise_psd=1e-19,
                                    rng_seed=31)
        re, im = _whole_rails(31, 4, n, scale)
        # windows with gaps between them, abutting, and overlapping
        for window in (range(7, period - 3), range(0, period),
                       range(5, period + 900)):
            z = despread_windows(tx, scene, params, Pol.VV, range(4, 5),
                                 window)[0]
            assert z.real.tobytes() == _rail_windows(re, tx, window).tobytes()
            assert z.imag.tobytes() == _rail_windows(im, tx, window).tobytes()

    @pytest.mark.parametrize("width", [6_383, 6_384, 6_385, 853],
                             ids=["below", "at", "above", "nb"])
    def test_block_rows_draw_real_then_imaginary_rail(self, width):
        # windows narrower than, as wide as and wider than the period of a
        # three-chip train, and a narrowband sweep's one window, on a block
        # of many rows, each drawn from its own stream
        if width == 853:
            params = nb_params()
            tx, window = make_waveform(params, gen_mseq([3, 1, 0]))[0], \
                range(0, width)
        else:
            params = uwb_params()
            tx = _impulse_train(params, [1.0, -1.0, 1.0], 6_384, 20_000)
            window = range(100, 100 + width)
        scale = np.sqrt(1e-19 * params.sample_rate_hz / 2.0)
        scene = _single_point_scene(sigma=0.0, range_m=1.0, noise_psd=1e-19,
                                    rng_seed=31)
        sweeps = range(4, 18)
        block = despread_windows(tx, scene, params, Pol.VV, sweeps, window)
        assert block.shape == (len(sweeps), width)
        for k, row in zip(sweeps, block):
            re, im = _whole_rails(31, k, len(tx), scale)
            assert row.real.tobytes() == _rail_windows(re, tx, window).tobytes()
            assert row.imag.tobytes() == _rail_windows(im, tx, window).tobytes()

    def test_buffer_must_match_the_stream(self):
        params = nb_params()
        tx = make_waveform(params, gen_mseq([3, 1, 0]))[0]
        scene = _single_point_scene(range_m=10.0)
        n = len(tx)
        for window in (range(-1, 5), range(0, n + 1), range(0, 6, 2),
                       range(n - 3, n + 1)):
            with pytest.raises(ValueError, match="must lie in"):
                despread_windows(tx, scene, params, Pol.VV, range(1), window)
        # a one-chip window that ends with the stream holds its last samples
        z = despread_windows(tx, scene, params, Pol.VV, range(1), range(1, n))
        full = propagate(tx, scene, params, Pol.VV).samples
        assert z[0].tobytes() == full[1:].tobytes()
        # a train's last chip window may end with the stream, not past it
        uwb = uwb_params()
        train = make_waveform(uwb, gen_mseq([3, 1, 0]))[0]
        last = len(train) - 6 * train.period
        despread_windows(train, scene, uwb, Pol.VV, range(1), range(0, last))
        with pytest.raises(ValueError, match="must lie in"):
            despread_windows(train, scene, uwb, Pol.VV, range(1),
                             range(1, last + 1))


@st.composite
def _windows(draw, train):
    """A window of chip 0's samples whose chip windows lie in the train's
    stream: often one period wide or a sample either side, often at the
    start or the end of the room the chips leave."""
    room = len(train) - (len(train.chips) - 1) * train.period
    widths = [w for w in (train.period - 1, train.period, train.period + 1)
              if 0 <= w <= room] + [room]
    width = draw(st.one_of(st.integers(0, room), st.sampled_from(widths)))
    start = draw(st.one_of(st.integers(0, room - width),
                           st.sampled_from([0, room - width])))
    return range(start, start + width)


class TestPropagateBlock:
    """A block of sweeps holds, row by row, the bytes of each sweep alone."""

    @settings(max_examples=200, deadline=None)
    @given(_oracle_case(), st.data())
    def test_rows_equal_the_block_of_one(self, case, data):
        params, tx, scene, pol, first = case
        if scene.interferers and data.draw(st.booleans()):
            # a silent emitter draws nothing and adds nothing
            scene = dataclasses.replace(scene, interferers=tuple(
                dataclasses.replace(itf, power_w=data.draw(
                    st.sampled_from([0.0, itf.power_w])))
                for itf in scene.interferers))
        sweeps = range(first, first + data.draw(st.integers(1, 6)))
        window = data.draw(_windows(tx))
        block = despread_windows(tx, scene, params, pol, sweeps, window)
        assert block.shape == (len(sweeps), len(window))
        for row, k in zip(block, sweeps):
            one = despread_windows(tx, scene, params, pol, range(k, k + 1),
                                   window)
            assert row.tobytes() == one.tobytes()

    def test_one_complex_point_rounds_alike_in_any_block(self):
        # one point whose S_pq is complex: numpy 2.4 rounds its (1,) x
        # (1, 1) amplitude product in a block of one through another loop
        # than the (1,) x (2, 1) product in a block of two, which differ in
        # the last bit for 7 of these 40 sweeps, unless the product is
        # written out in real arithmetic
        params = nb_params()
        tx = make_waveform(params, gen_mseq([3, 1, 0]))[0]
        scene = Scene(target=TargetModel(points=(Scatterer(
            1.0, 1.8737028625, pol_matrix=np.full((2, 2), np.exp(1j))),)),
            sweep_phase_jitter_rad=0.3, rng_seed=0)
        window = range(1, 9)
        for k in range(40):
            block = despread_windows(tx, scene, params, Pol.VV,
                                     range(k, k + 2), window)
            for row, sweep in zip(block, (k, k + 1)):
                one = despread_windows(tx, scene, params, Pol.VV,
                                       range(sweep, sweep + 1), window)
                assert row.tobytes() == one[0].tobytes(), sweep

    def test_empty_block_rejected(self):
        params, tx = _STREAMS[0]
        with pytest.raises(ValueError, match="at least one sweep"):
            despread_windows(tx, _single_point_scene(), params, Pol.VV,
                             range(3, 3), range(0, 10))


# an 80-sample PRI at 80 MHz, so that a short train reaches every delay
_SHORT_PRI = nb_params(pulse_width_s=0.4e-6, pri_s=1e-6)


@st.composite
def _train_case(draw):
    """A random train of 1-5 real chips on _SHORT_PRI, pulses a period or
    more apart, padded to at least one PRI; a scene of echoes at any delay,
    so that they cross PRI slots and the end of the stream, often with
    interferers; and a single sweep or a block."""
    params = _SHORT_PRI
    fs = params.sample_rate_hz
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 40))
    pulse = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    # exact zeros inside the pulse, as at the monocycle's center
    pulse[rng.random(width) < 0.2] = 0.0
    chips = draw(st.one_of(
        st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=5),
        st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5)))
    period = draw(st.integers(width, width + 30))
    end = (len(chips) - 1) * period + width
    length = max(end, params.pri_samples) + draw(st.integers(0, 40))
    train = PulseTrain(SampleStream(pulse, fs, params.carrier_hz), chips,
                       period, length)
    max_delay = int(params.unambiguous_range_m * 2.0 / SPEED_OF_LIGHT * fs)
    delays = [draw(st.integers(1, max_delay))
              for _ in range(draw(st.integers(1, 6)))]
    points = tuple(
        Scatterer(sigma_m2=draw(st.floats(1e-6, 10.0)),
                  range_m=min(d * SPEED_OF_LIGHT / (2.0 * fs),
                              params.unambiguous_range_m),
                  pol_matrix=np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
                  * np.ones((2, 2)))
        for d in delays)
    interferers = draw(st.sampled_from([(), (
        Interferer(freq_hz=params.carrier_hz + 1e6, power_w=1e-9),
        Interferer(freq_hz=params.carrier_hz - 2e6, power_w=1e-9,
                   kind=InterfererKind.QPSK_MODULATED))]))
    scene = Scene(target=TargetModel(points=points[:1]), clutter=points[1:],
                  interferers=interferers,
                  direct_path_gain=draw(st.sampled_from([0.0, 0.25])),
                  sweep_phase_jitter_rad=draw(st.sampled_from([0.0, 0.3])),
                  noise_psd=draw(st.sampled_from([0.0, 1e-19])),
                  rng_seed=draw(st.integers(0, _U64)))
    first = draw(st.integers(0, 50))
    sweep = draw(st.one_of(st.just(first),
                           st.builds(range, st.just(first),
                                     st.integers(first + 1, first + 5))))
    return params, train, scene, sweep


class TestPropagateTrain:
    """A train is propagated chip by chip, bit for bit as its dense stream,
    the train of one chip."""

    @settings(max_examples=300, deadline=None)
    @given(_train_case())
    def test_train_equals_its_dense_stream(self, case):
        params, train, scene, sweep = case
        dense = PulseTrain(SampleStream(train.samples(), train.sample_rate,
                                        train.carrier_hz))
        assert len(dense) == len(train)
        for k in sweep if isinstance(sweep, range) else [sweep]:
            got = propagate(train, scene, params, Pol.VV, k).samples
            want = propagate(dense, scene, params, Pol.VV, k).samples
            assert got.tobytes() == want.tobytes()

    def test_overlapping_pulses_are_rejected(self):
        pulse = SampleStream(np.ones(5, dtype=complex), 1.0)
        with pytest.raises(ValueError, match="overlap"):
            PulseTrain(pulse, [1.0, -1.0], period=4)
        # one pulse has nothing to overlap, and a period of its width
        # leaves no gap
        assert len(PulseTrain(pulse, [1.0], period=1)) == 5
        assert len(PulseTrain(pulse, [1.0, -1.0], period=5)) == 10


class TestDespreadWindows:
    """A block's despread windows hold, row by row and to rounding, the
    chip-weighted sum of the windows of each sweep's whole stream."""

    @staticmethod
    def _assert_despread(train, scene, params, pol, sweep, window):
        sweeps = (sweep if isinstance(sweep, range)
                  else range(sweep, sweep + 1))
        z = despread_windows(train, scene, params, pol, sweeps, window)
        assert z.shape == (len(sweeps), len(window))
        for row, k in zip(z, sweeps):
            rx = propagate(train, scene, params, pol, k).samples
            assert_rounding_close(row, despread_stream(rx, train, window),
                                  train, scene, params, pol, k, window)

    @settings(max_examples=200, deadline=None)
    @given(_train_case(), st.data())
    def test_trains_equal_the_despread_stream(self, case, data):
        params, train, scene, sweep = case
        self._assert_despread(train, scene, params, Pol.VV, sweep,
                              data.draw(_windows(train)))

    @settings(max_examples=60, deadline=None)
    @given(_oracle_case(), st.data())
    def test_chains_equal_the_despread_stream(self, case, data):
        params, tx, scene, pol, first = case
        sweeps = range(first, first + data.draw(st.integers(1, 3)))
        self._assert_despread(tx, scene, params, pol, sweeps,
                              data.draw(_windows(tx)))

    @pytest.mark.parametrize("kind", list(InterfererKind))
    @pytest.mark.parametrize("freq_hz", [1.003e9, 40e9])
    def test_tones_far_off_the_carrier_on_the_31_chip_train(self, kind,
                                                            freq_hz):
        # sphere_compare's DS-UWB train and 9,472-sample window, with one
        # interferer on the monocycle's spectral peak or near the band's
        # edge, far from the 1-10 MHz offsets of the other cases, where a
        # tone barely turns within a PRI: a CW tone added as its window
        # times the chip sum of e^(j*2*pi*df*j*period/fs), with no tone
        # memo, passes there and breaks the bound here
        params = uwb_params()
        pipeline = SweepPipeline(params, gen_mseq([5, 2, 0]),
                                 rx_config=ReceiverConfig(max_range_m=14.0))
        assert len(pipeline.tx.chips) == 31
        assert len(pipeline.window) == 9_472
        scene = Scene(target=TargetModel(points=(
            Scatterer(sigma_m2=1e-3, range_m=10.0),)),
            interferers=(Interferer(freq_hz, 1e-6, kind),), rng_seed=3)
        self._assert_despread(pipeline.tx, scene, params, Pol.VV,
                              range(2, 4), pipeline.window)


class TestDespreadingGain:
    """An echo despread against its own code is weighed by the code's
    aperiodic autocorrelation: R(0) = 31 for a 31-chip m-sequence where
    its pulse lies in its own slot, and R(-1) = sum_j c_j * c_{j-1} for
    the tail it sends into the next chip's slot."""

    @staticmethod
    def _echo(params, pn, slot_offset):
        """The one-point DS-UWB chain whose echo starts slot_offset samples
        into a PRI slot: its train, scene, sample delay and amplitude, as
        the one-point expression rounds it."""
        tx = make_waveform(params, pn)[0]
        fs = params.sample_rate_hz
        range_m = slot_offset * SPEED_OF_LIGHT / (2.0 * fs)
        scene = _single_point_scene(sigma=1e-3, range_m=range_m)
        tau = 2.0 * range_m / SPEED_OF_LIGHT
        amp = complex(np.sqrt(1e-3)) / range_m ** 2 \
            * np.exp(-2j * np.pi * params.carrier_hz * tau)
        return tx, scene, int(round(tau * fs)), amp

    def test_echo_in_its_slot_gains_the_code_length(self):
        params, pn = uwb_params(), gen_mseq([5, 2, 0])
        tx, scene, d, amp = self._echo(params, pn, 2_000)
        pulse = tx.pulse.samples
        assert (tx.chips.size, float(tx.chips @ tx.chips)) == (31, 31.0)
        window = range(d - 40, d + pulse.size + 40)
        want = np.zeros(len(window), dtype=np.complex128)
        want[40:40 + pulse.size] = 31.0 * amp * pulse
        z = despread_windows(tx, scene, params, Pol.VV, range(1), window)
        assert_rounding_close(z[0], want, tx, scene, params, Pol.VV, 0,
                              window)

    def test_echo_past_its_slot_reaches_the_next_chip(self):
        # windows from the start of each slot, and a point 5 samples short
        # of c*PRI/2: chip j's echo starts at the end of slot j and ends in
        # slot j + 1, which chip j + 1's window reads with weight
        # c_{j+1} * c_j.  The 31-chip
        # m-sequences have R(-1) = 0, the 7-chip one R(-1) = -2
        params, pn = uwb_params(), gen_mseq([3, 1, 0])
        period = params.pri_samples
        tx, scene, d, amp = self._echo(params, pn, period - 5)
        assert d == period - 5
        chips, pulse = tx.chips, tx.pulse.samples
        assert float(chips[1:] @ chips[:-1]) == -2.0
        window = range(0, period)
        want = np.zeros(period, dtype=np.complex128)
        want[:pulse.size - 5] = -2.0 * amp * pulse[5:]
        want[d:] = 7.0 * amp * pulse[:5]
        z = despread_windows(tx, scene, params, Pol.VV, range(1), window)
        assert_rounding_close(z[0], want, tx, scene, params, Pol.VV, 0,
                              window)


_PURPOSES = (_RNG_PHASE, _RNG_NOISE, _RNG_INTERFERER)


@st.composite
def _stream_block(draw):
    """(seed, sweeps, tags): seeds over [0, 2**64) with the word-count
    edges, negative seeds, sweeps from 0 to past 2**64 (blocks across
    2**32 included), and every purpose with and without an interferer
    index."""
    seed = draw(st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, _U64]),
                          st.integers(0, _U64), st.integers(-2**70, -1)))
    first = draw(st.one_of(st.sampled_from([0, 2**32 - 1, 2**32]),
                           st.integers(0, 100),
                           st.integers(2**32 - 12, 2**32 + 12),
                           st.integers(0, 2**70)))
    sweeps = range(first, first + draw(st.integers(1, 12)))
    tag = st.one_of(st.tuples(st.sampled_from(_PURPOSES)),
                    st.tuples(st.sampled_from(_PURPOSES),
                              st.one_of(st.integers(0, 3),
                                        st.integers(0, 2**40))))
    tags = draw(st.lists(tag, min_size=1, max_size=4, unique=True))
    return seed, sweeps, tags


class TestStreamSeeding:
    """A block's streams are seeded in one pass that must reproduce numpy's
    SeedSequence and default_rng for every key."""

    @settings(max_examples=300, deadline=None)
    @given(_stream_block())
    def test_state_equals_seed_sequence(self, block):
        seed, sweeps, tags = block
        state = _stream_state(seed, sweeps, tags)
        assert state.shape == (len(tags), len(sweeps), 4)
        assert state.dtype == np.uint64
        for t, tag in enumerate(tags):
            for r, k in enumerate(sweeps):
                key = [seed & _U64, k, *tag]
                expected = np.random.SeedSequence(key).generate_state(
                    4, np.uint64)
                assert state[t, r].tolist() == expected.tolist(), key

    @settings(max_examples=100, deadline=None)
    @given(_stream_block())
    def test_draws_equal_default_rng(self, block):
        seed, sweeps, tags = block
        rngs = _stream_rngs(seed, sweeps, tags)
        assert list(rngs) == tags
        for tag in tags:
            assert len(rngs[tag]) == len(sweeps)
            # the first and the last row of each stream
            for r in {0, len(sweeps) - 1}:
                ref = np.random.default_rng([seed & _U64, sweeps[r], *tag])
                rng = rngs[tag][r]
                assert rng.integers(0, 2**63, size=3).tolist() == \
                    ref.integers(0, 2**63, size=3).tolist()
                assert rng.standard_normal(4).tobytes() == \
                    ref.standard_normal(4).tobytes()

    def test_negative_sweep_rejected_as_numpy_does(self):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.default_rng([0, -1, _RNG_NOISE])
        with pytest.raises(ValueError, match="non-negative"):
            _stream_state(0, range(-1, 1), [(_RNG_NOISE,)])
        # a sweep that draws nothing is not keyed
        params, tx = _STREAMS[0]
        clean = _single_point_scene(range_m=10.0)
        assert propagate(tx, clean, params, Pol.VV, -1).samples.tobytes() \
            == propagate(tx, clean, params, Pol.VV, 0).samples.tobytes()
        with pytest.raises(ValueError, match="non-negative"):
            propagate(tx, dataclasses.replace(clean, noise_psd=1e-19),
                      params, Pol.VV, -1)

    def test_silent_interferer_draws_and_adds_nothing(self, monkeypatch):
        params, tx = _STREAMS[0]
        cw = Interferer(freq_hz=tx.carrier_hz + 1e6, power_w=1e-9)
        silent = Interferer(freq_hz=tx.carrier_hz - 2e6, power_w=0.0,
                            kind=InterfererKind.QPSK_MODULATED)
        base = _single_point_scene(range_m=10.0, noise_psd=1e-19,
                                   sweep_phase_jitter_rad=0.3, rng_seed=8,
                                   interferers=(cw,))
        with_silent = dataclasses.replace(base, interferers=(cw, silent))
        seeded = []

        def recording(seed, sweeps, tags):
            seeded.extend(tags)
            return _stream_rngs(seed, sweeps, tags)

        monkeypatch.setattr(channel, "_stream_rngs", recording)
        window = range(0, 500)
        block = despread_windows(tx, with_silent, params, Pol.VV,
                                 range(2, 5), window)
        assert (_RNG_INTERFERER, 1) not in seeded
        assert (_RNG_INTERFERER, 0) in seeded
        expected = despread_windows(tx, base, params, Pol.VV, range(2, 5),
                                    window)
        assert block.tobytes() == expected.tobytes()
        # a silent emitter outside the band is still rejected
        far = dataclasses.replace(silent, freq_hz=tx.carrier_hz + 1e9)
        with pytest.raises(ValueError, match="Nyquist"):
            propagate(tx, dataclasses.replace(base, interferers=(cw, far)),
                      params, Pol.VV)


class TestEchoGeometryMemo:
    """Echo geometry is derived on every call: a scene keeps no per-chain
    or per-polarization state, only its point arrays."""

    def test_one_scene_across_chains_and_pols(self):
        pn = gen_mseq([3, 1, 0])
        depolarizing = np.array([[1.0, 0.3j], [0.5j, -0.8]])
        scene = _single_point_scene(
            sigma=1e-3, range_m=10.0, noise_psd=1e-19,
            sweep_phase_jitter_rad=0.3, rng_seed=12,
            clutter=gen_clutter((2.0, 8.0), 30, 1e-4, seed=4)
            + (Scatterer(sigma_m2=2e-3, range_m=6.0,
                         pol_matrix=depolarizing),))
        cases = [(params, make_waveform(params, pn)[0], pol)
                 for params in (nb_params(), uwb_params()) for pol in Pol]
        order = np.random.default_rng(1).permutation(2 * len(cases))
        for k in order:
            params, tx, pol = cases[k % len(cases)]
            warm = propagate(tx, scene, params, pol, 3).samples
            cold = propagate(tx, dataclasses.replace(scene), params, pol, 3)
            assert warm.tobytes() == cold.samples.tobytes()
        fields = {f.name for f in dataclasses.fields(scene)}
        assert set(vars(scene)) - fields == {"point_arrays"}
        assert scene == dataclasses.replace(scene)
        assert repr(scene) == repr(dataclasses.replace(scene))


class TestAddInterferer:
    def _stream(self, n=80_000):
        params = nb_params()
        return params, SampleStream(np.zeros(n, dtype=complex),
                                    params.sample_rate_hz, params.carrier_hz)

    def test_zero_power_identity(self):
        params, s = self._stream()
        out = add_interferer(s, params.carrier_hz + 1e6, 0.0)
        assert np.array_equal(out.samples, s.samples)

    def test_cw_at_zero_offset_constant(self):
        params, s = self._stream()
        out = add_interferer(s, params.carrier_hz, 1.0, seed=4)
        assert np.allclose(np.abs(out.samples), 1.0)
        assert np.allclose(np.diff(out.samples), 0)

    def test_cw_power_within_1pct(self):
        params, s = self._stream()
        out = add_interferer(s, params.carrier_hz + 2.2e6, 3.0, seed=5)
        assert abs(_mean_power(out) - 3.0) / 3.0 < 0.01

    def test_qpsk_power_within_1pct(self):
        params, s = self._stream()
        out = add_interferer(s, params.carrier_hz - 1.1e6, 2.0,
                             InterfererKind.QPSK_MODULATED, seed=6)
        assert abs(_mean_power(out) - 2.0) / 2.0 < 0.01

    def test_out_of_nyquist_rejected(self):
        params, s = self._stream(1000)
        with pytest.raises(ValueError, match="Nyquist"):
            add_interferer(s, params.carrier_hz + s.sample_rate, 1.0)

    def test_scene_interferer_deterministic(self):
        params = nb_params()
        tx = _tone_stream(params)
        scene = _single_point_scene(
            sigma=0.0,
            interferers=(Interferer(freq_hz=1e9 + 3e6, power_w=1.0,
                                    kind=InterfererKind.QPSK_MODULATED),),
            rng_seed=7)
        a = propagate(tx, scene, params, Pol.VV, sweep_index=1)
        b = propagate(tx, scene, params, Pol.VV, sweep_index=1)
        c = propagate(tx, scene, params, Pol.VV, sweep_index=2)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert not np.array_equal(a.samples, c.samples)


class TestModelRules:
    """Every model rule fails on NaN: a rule written as ``x < 0`` lets NaN
    through, to run as a noiseless or jitter-free scene or to fail later."""

    @pytest.mark.parametrize("build, match", [
        pytest.param(lambda: _single_point_scene(noise_psd=math.nan),
                     "noise_psd", id="noise_psd"),
        pytest.param(lambda: _single_point_scene(direct_path_gain=math.nan),
                     "direct_path_gain", id="direct_path_gain"),
        pytest.param(lambda: _single_point_scene(
                         sweep_phase_jitter_rad=math.nan),
                     "sweep_phase_jitter_rad", id="jitter"),
        pytest.param(lambda: Scatterer(sigma_m2=math.nan, range_m=5.0),
                     "sigma_m2", id="sigma_m2"),
        pytest.param(lambda: Scatterer(sigma_m2=1.0, range_m=math.nan),
                     "range_m", id="range_m"),
        pytest.param(lambda: Scatterer(sigma_m2=1.0, range_m=5.0,
                                       cross_range_m=math.nan),
                     "cross_range_m must be finite", id="cross_range_m"),
        pytest.param(lambda: Scatterer(sigma_m2=1.0, range_m=5.0,
                                       cross_range_m=-math.inf),
                     "cross_range_m must be finite", id="cross_range_m_inf"),
        pytest.param(lambda: Interferer(freq_hz=1e9, power_w=math.nan),
                     "power_w must be finite and >= 0", id="power_w"),
        pytest.param(lambda: Interferer(freq_hz=math.nan, power_w=1e-9),
                     "freq_hz must be finite",
                     id="interferer_freq_hz"),
        pytest.param(lambda: Scatterer(sigma_m2=math.inf, range_m=5.0),
                     "sigma_m2 must be finite", id="sigma_m2_inf"),
        pytest.param(lambda: gen_clutter((2.0, 8.0), 4, math.nan, seed=1),
                     "mean_sigma_m2 must be finite", id="clutter_sigma"),
        pytest.param(lambda: gen_clutter((2.0, math.nan), 4, 1e-2, seed=1),
                     "extent_m", id="clutter_extent"),
        pytest.param(lambda: channel.check_interferer_band(math.nan, 1e9, 4e6),
                     "Nyquist", id="freq_hz"),
        # Python's max drops a NaN that is not first
        pytest.param(lambda: Scatterer(sigma_m2=1.0, range_m=5.0,
                                       pol_matrix=[[math.nan, 0], [0, 1]]),
                     "pol_matrix entries must be finite", id="pol_nan_first"),
        pytest.param(lambda: Scatterer(sigma_m2=1.0, range_m=5.0,
                                       pol_matrix=[[1, 0], [0, math.nan]]),
                     "pol_matrix entries must be finite", id="pol_nan_last"),
        pytest.param(lambda: Scatterer(sigma_m2=1.0, range_m=5.0,
                                       pol_matrix=[[1, complex(0, math.nan)],
                                                   [0, 1]]),
                     "pol_matrix entries must be finite", id="pol_nan_imag"),
        pytest.param(lambda: Scatterer(sigma_m2=1.0, range_m=5.0,
                                       pol_matrix=[[1, 0], [0, -math.inf]]),
                     "pol_matrix entries must be finite", id="pol_inf"),
    ])
    def test_nan_is_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()
