"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line and enforcing its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pnradar import (InterfererKind, PREFERRED_PAIRS, Pol, ReceiverConfig,
                     Scatterer, Scene, SweepPipeline, TargetModel,
                     add_interferer, despread, gen_clutter, gen_gold,
                     gen_mseq, make_waveform, nb_params,
                     processing_gain, propagate, pulse_volume_depth,
                     qpsk_baseband, qpsk_demod, rcs_nb, rcs_uwb, rx_gate,
                     spread, uwb_correlate,
                     uwb_params)
from pnradar.cli import main


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[criterion {number:02d}] FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {number:02d}] PASS  {label}  ({elapsed:.1f} s)")


def test_01_pulse_volume_depth_numbers():
    with criterion(1, "pulse volume depth: 1 us -> 300 m, 1 ns -> 0.3 m"):
        start = time.perf_counter()
        d_us = pulse_volume_depth(1e-6, c_m_per_s=3e8)
        d_ns = pulse_volume_depth(1e-9, c_m_per_s=3e8)
        assert d_us == 300.0
        assert d_ns == pytest.approx(0.3, rel=1e-12)
        assert f"{d_us:.6g}" == "300" and f"{d_ns:.6g}" == "0.3"
        # exact-constant variant for reference
        assert pulse_volume_depth(1e-6) == pytest.approx(299.792458, rel=1e-12)
        assert time.perf_counter() - start < 1.0


def test_02_rcs_inequality_random_targets():
    with criterion(2, "sigma_nb <= sigma_uwb over 1000 random targets"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        for _ in range(1000):
            k = int(rng.integers(1, 17))
            sigmas = rng.uniform(0.001, 10.0, size=k)
            ranges = rng.uniform(1.0, 100.0, size=k)
            model = TargetModel(points=tuple(
                Scatterer(sigma_m2=float(s), range_m=float(r))
                for s, r in zip(sigmas, ranges)))
            uwb = rcs_uwb(model)
            for lam in rng.uniform(0.1, 1.0, size=10):
                nb = rcs_nb(model, float(lam))
                assert nb <= uwb
                cos_terms = [math.cos(2 * math.pi * r / lam) for r in ranges]
                if any(c < 1.0 for c in cos_terms):
                    assert nb < uwb
        assert time.perf_counter() - start < 5.0


def test_03_range_resolution_two_points():
    with criterion(3, "pairs 0.25 and 0.5 m apart, past the 0.20 m pulse "
                      "support: 2 detections wideband, 1 narrowband; "
                      "0.15 m apart: 1 wideband"):
        start = time.perf_counter()
        uparams = uwb_params()  # 0.33 ns monocycle at 100 GHz
        upipe = SweepPipeline(uparams, gen_mseq([7, 1, 0]),
                              rx_config=ReceiverConfig(max_range_m=20.0))
        nparams = nb_params(pulse_width_s=1e-6)
        npipe = SweepPipeline(nparams, gen_mseq([7, 1, 0]),
                              rx_config=ReceiverConfig(max_range_m=100.0))
        # the monocycle's matched-filter response spans pulse_samples - 1
        # bins either side of its peak
        support_m = uparams.pulse_samples * upipe.bin_width_m
        assert support_m == pytest.approx(0.20, abs=0.005)
        for spacing in (0.15, 0.25, 0.5):
            truth = (10.0, 10.0 + spacing)
            scene = Scene(target=TargetModel(points=tuple(
                Scatterer(sigma_m2=1e-2, range_m=r) for r in truth)))
            (udets,) = upipe.detect(scene, Pol.VV, range(1))
            resolved = spacing > support_m
            assert len(udets) == (2 if resolved else 1)
            for det, r in zip(udets, truth):
                assert abs(det.range_m - r) <= upipe.bin_width_m

            (ndets,) = npipe.detect(scene, Pol.VV, range(1))
            assert len(ndets) == 1
        assert time.perf_counter() - start < 60.0


def test_04_processing_gain_against_cw_interferer():
    with criterion(4, "N=127 spreading: 21 dB CW rejection, clean loopback"):
        params = nb_params()
        pn = gen_gold(*PREFERRED_PAIRS[7], shift=0)
        cpb = 127
        spc = params.samples_per_chip
        n_sym = cpb * spc

        def integrate(stream):
            m = len(stream) // n_sym
            return stream.samples[: m * n_sym].reshape(m, n_sym).mean(axis=1)

        # CW interferer 10 dB above the signal, pooled over 50 seeds
        master = np.random.default_rng(2)
        sig_tot = res_tot = 0.0
        for _ in range(50):
            seed = int(master.integers(0, 2 ** 32))
            rng = np.random.default_rng(seed)
            bits_i = rng.integers(0, 2, 8)
            bits_q = rng.integers(0, 2, 8)
            s = qpsk_baseband(spread(bits_i, pn, cpb),
                              spread(bits_q, pn, cpb), params)
            df = rng.uniform(0.02, 0.2) * params.chip_rate_hz * rng.choice([-1, 1])
            rx = add_interferer(s, params.carrier_hz + df, 10.0,
                                InterfererKind.CW, seed=seed)
            z = integrate(despread(rx, pn, params))
            ref = ((1 - 2 * bits_i) + 1j * (1 - 2 * bits_q)) / np.sqrt(2)
            sig_tot += np.sum(np.abs(ref) ** 2)
            res_tot += np.sum(np.abs(z - ref) ** 2)
        improvement = 10 * np.log10(sig_tot / res_tot) - (-10.0)
        assert improvement == pytest.approx(processing_gain(pn, cpb), abs=1.0)

        # noiseless loopback: zero errors over 1e4 bits
        rng = np.random.default_rng(7)
        bits_i = rng.integers(0, 2, 5000)
        bits_q = rng.integers(0, 2, 5000)
        s = qpsk_baseband(spread(bits_i, pn, cpb), spread(bits_q, pn, cpb),
                          params)
        out_i, out_q = qpsk_demod(despread(s, pn, params), params, cpb)
        assert np.sum(out_i != bits_i) + np.sum(out_q != bits_q) == 0

        # wrong family member at a random lag, operating-point noise:
        # the despread output carries no data (chance-level decisions)
        wrong = gen_gold(*PREFERRED_PAIRS[7], shift=40)
        ebn0 = 10 ** (9.6 / 10)
        sigma2 = n_sym / (2 * ebn0)
        rng = np.random.default_rng(99)
        errors = total = 0
        for _ in range(5000):
            b_i = rng.integers(0, 2, 1)
            b_q = rng.integers(0, 2, 1)
            s = qpsk_baseband(spread(b_i, pn, cpb), spread(b_q, pn, cpb),
                              params)
            noise = (rng.standard_normal(len(s))
                     + 1j * rng.standard_normal(len(s))) * np.sqrt(sigma2 / 2)
            rx = s.with_samples(s.samples + noise)
            d = despread(rx, wrong, params,
                         code_lag_chips=int(rng.integers(0, 127)))
            out_i, out_q = qpsk_demod(d, params, cpb)
            errors += int(out_i[0] != b_i[0]) + int(out_q[0] != b_q[0])
            total += 2
        ber = errors / total
        assert abs(ber - 0.5) <= 0.02


def test_05_sweep_to_sweep_stability():
    with criterion(5, "clutter+jitter sphere: wideband series 2x steadier"):
        start = time.perf_counter()
        sigma_ref, r_sphere = 1e-3, 10.0  # -30 dBsm
        clutter = gen_clutter((2.0, 8.0), 20, 1e-2, seed=42)  # -20 dBsm mean

        def scene_with(noise_psd):
            return Scene(target=TargetModel(points=(
                Scatterer(sigma_m2=sigma_ref, range_m=r_sphere),)),
                clutter=clutter, noise_psd=noise_psd,
                sweep_phase_jitter_rad=0.3, rng_seed=2026)

        def noise_for(pipeline):
            # sphere echo 40 dB above the matched-filter noise floor
            amp = math.sqrt(sigma_ref) / r_sphere ** 2
            energy = float(np.sum(np.abs(pipeline.tx.samples()) ** 2))
            return (amp * amp * energy
                    / (1e4 * pipeline.params.sample_rate_hz))

        def series(params, pn, cfg):
            pipeline = SweepPipeline(params, pn, rx_config=cfg)
            return [e.dbsm for e in pipeline.series(
                scene_with(noise_for(pipeline)),
                pipeline.self_calibrate(sigma_ref, r_sphere), 100)]

        u_dbsm = np.array(series(
            uwb_params(), gen_mseq([5, 2, 0]),
            ReceiverConfig(max_range_m=14.0, gate_m=(9.5, 10.5))))
        n_dbsm = np.array(series(nb_params(), gen_mseq([7, 1, 0]),
                                 ReceiverConfig(max_range_m=100.0)))

        assert len(u_dbsm) == len(n_dbsm) == 100
        assert np.std(n_dbsm) > 2.0 * np.std(u_dbsm)
        assert abs(np.mean(u_dbsm) - (-30.0)) < 1.0
        assert time.perf_counter() - start < 300.0


def test_06_calibration_identity():
    with criterion(6, "calibrate-then-estimate returns -30 dBsm exactly"):
        sigma_ref, r_ref = 1e-3, 10.0
        for params, pn, cfg in (
                (uwb_params(), gen_mseq([5, 2, 0]),
                 ReceiverConfig(max_range_m=14.0)),
                (nb_params(), gen_mseq([7, 1, 0]),
                 ReceiverConfig(max_range_m=100.0))):
            pipeline = SweepPipeline(params, pn, rx_config=cfg)
            scene = Scene(target=TargetModel(points=(
                Scatterer(sigma_m2=sigma_ref, range_m=r_ref),)))
            from pnradar import calibrate
            cal = calibrate(pipeline.profile(scene), sigma_ref, r_ref)
            (est,) = pipeline.estimate(scene, cal, Pol.VV, range(1))
            assert abs(est.dbsm - (-30.0)) <= 1e-6


def test_07_direct_path_suppression():
    with criterion(7, "receive blanking removes direct-path leakage"):
        params = nb_params()
        pn = gen_mseq([7, 1, 0])
        active, template = make_waveform(params, pn)
        tx = dataclasses.replace(active, length=len(active) + 64)
        scene = Scene(target=TargetModel(points=(
            Scatterer(sigma_m2=0.0, range_m=10.0),)), direct_path_gain=0.5)
        rx = propagate(tx, scene, params, Pol.VV)
        gated = rx_gate(rx, params, blank_width_s=params.pulse_width_s)
        lags = range(len(rx) - len(template) + 1)
        raw_profile = np.abs(uwb_correlate(rx.samples, template, lags)) ** 2
        gated_profile = np.abs(
            uwb_correlate(gated.samples, template, lags)) ** 2
        assert raw_profile.sum() > 0
        assert gated_profile.sum() <= 1e-12 * raw_profile.sum()


def test_08_qpsk_demod_awgn_operating_point():
    with criterion(8, "Eb/N0 = 9.6 dB loopback BER inside [1e-5, 1e-4]"):
        params = nb_params(samples_per_chip=2)
        pn = gen_mseq([7, 1, 0])
        cpb = 1
        n_sym_samples = cpb * params.samples_per_chip
        ebn0 = 10 ** (9.6 / 10)
        sigma2 = n_sym_samples / (2 * ebn0)
        n_bits = 1_000_000
        rng = np.random.default_rng(11)
        bits_i = rng.integers(0, 2, n_bits // 2)
        bits_q = rng.integers(0, 2, n_bits // 2)
        s = qpsk_baseband(spread(bits_i, pn, cpb), spread(bits_q, pn, cpb),
                          params)
        noise = (rng.standard_normal(len(s))
                 + 1j * rng.standard_normal(len(s))) * np.sqrt(sigma2 / 2)
        rx = s.with_samples(s.samples + noise)
        out_i, out_q = qpsk_demod(despread(rx, pn, params), params, cpb)
        ber = (np.sum(out_i != bits_i) + np.sum(out_q != bits_q)) / n_bits
        assert 1e-5 <= ber <= 1e-4


def test_09_byte_identical_artifacts(tmp_path):
    with criterion(9, "identical scenario and seed give identical CSVs"):
        scenario_text = """
seed: 314
radar: {mode: uwb}
code: {family: msequence, taps: [5, 2, 0], chips_per_bit: 31}
scene:
  target:
    points:
      - {sigma_m2: 1.0e-3, range_m: 10.0}
  clutter: {count: 4, range_min_m: 2.0, range_max_m: 8.0,
            mean_sigma_m2: 1.0e-3, seed: 3}
  noise_psd_w_per_hz: 1.0e-19
  sweep_phase_jitter_rad: 0.2
receiver: {gate_min_m: 9.0, gate_max_m: 11.0}
experiment: {kind: rcs_sweep_series, sweeps: 6}
"""
        path = tmp_path / "scenario.yaml"
        path.write_text(scenario_text)
        digests = []
        for out in ("a", "b"):
            rc = main([str(path), "--out", str(tmp_path / out), "--quiet"])
            assert rc == 0
            csv = tmp_path / out / "series.csv"
            digests.append(hashlib.sha256(csv.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


def test_10_code_correlation_properties():
    with criterion(10, "m-sequence and Gold correlation value sets"):
        taps = {2: [2, 1, 0], 3: [3, 1, 0], 4: [4, 1, 0], 5: [5, 2, 0],
                6: [6, 1, 0], 7: [7, 1, 0], 8: [8, 4, 3, 2, 0],
                9: [9, 4, 0], 10: [10, 3, 0]}
        for degree, tap in taps.items():
            seq = gen_mseq(tap)
            chips = seq.chips.astype(np.int64)
            values = {int(np.dot(chips, np.roll(chips, lag)))
                      for lag in range(seq.length)}
            assert values == {seq.length, -1}, f"degree {degree}"
        for degree in (5, 7):
            taps_a, taps_b = PREFERRED_PAIRS[degree]
            a = gen_gold(taps_a, taps_b, shift=1).chips.astype(np.int64)
            b = gen_gold(taps_a, taps_b, shift=7).chips.astype(np.int64)
            t = 2 ** ((degree + 2) // 2) + 1
            values = {int(np.dot(a, np.roll(b, lag)))
                      for lag in range(a.size)}
            assert values <= {-1, -t, t - 2}, f"degree {degree}"
