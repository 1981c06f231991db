"""Receive chains: the receive blank's rule, despreading, QPSK
demodulation, and the despread-then-pulse sliding correlator.

Synchronization is genie-aided: chip, symbol and sweep timing are taken
from the common simulation clock, which matches an instrument that
shares one spreading-code generator between transmitter and receiver.
The IF stage is an identity on complex baseband, so despreading is a
chip-lattice multiply.
"""

from __future__ import annotations

import numpy as np

from .codes import PnSequence
from .waveform import PulseTrain, RadarParams, SampleStream


def check_blank_width(params: RadarParams, blank_width_s: float) -> int:
    """The blank in samples: 0, or one covering the pulse but not the PRI."""
    blank = params.to_samples(blank_width_s)
    if blank_width_s != 0 and blank < params.pulse_samples:
        raise ValueError(
            f"blank width {blank_width_s:g} s is shorter than the transmit "
            f"pulse {params.pulse_samples / params.sample_rate_hz:g} s; "
            f"leakage would pass")
    if blank >= params.pri_samples:
        raise ValueError(
            f"blank width {blank_width_s:g} s covers the whole PRI "
            f"{params.pri_s:g} s; the receiver would never open")
    return blank


def despread(s: SampleStream, pn: PnSequence, params: RadarParams,
             code_lag_chips: int = 0) -> SampleStream:
    """Multiply each chip-long block by the PN chip at the given code lag.

    With the transmitter's code and lag 0 this collapses the spread QPSK
    stream back to plain symbols.
    """
    n = len(s)
    spc = params.samples_per_chip
    lag = int(code_lag_chips) % pn.length
    chip_idx = (np.arange(n) // spc + lag) % pn.length
    return s.with_samples(s.samples * pn.chips[chip_idx])


def qpsk_demod(s: SampleStream, params: RadarParams,
               chips_per_bit: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate-and-dump demodulator; returns (I bits, Q bits).

    The symbol window is chips_per_bit * samples_per_chip samples; the
    sign of each rail decides the bit (positive -> 0).
    """
    n_sym_samples = int(chips_per_bit) * params.samples_per_chip
    n_symbols = len(s) // n_sym_samples
    if n_symbols < 1:
        raise ValueError(
            f"stream of {len(s)} samples is shorter than one symbol "
            f"({n_sym_samples} samples)")
    trimmed = s.samples[: n_symbols * n_sym_samples]
    z = trimmed.reshape(n_symbols, n_sym_samples).mean(axis=1)
    i_bits = (z.real < 0).astype(np.uint8)
    q_bits = (z.imag < 0).astype(np.uint8)
    return i_bits, q_bits


def uwb_correlate(z: np.ndarray, template: PulseTrain,
                  lags: range) -> np.ndarray:
    """Sliding inner product <rx[n+k], template[k]> for each lag n in
    ``lags``, from the despread lag window of a stream rx at the
    template's rate: z = sum_j chips[j] * rx[j*period + lags.start :] over
    len(lags) + len(pulse) - 1 samples (see channel.despread_windows),
    taken as finite (a SweepPipeline checks its block of windows at once).
    z is matched against the conjugated pulse, so a matched template
    yields the echo amplitude.
    """
    if lags.step != 1 or lags.start < 0:
        raise ValueError(f"lags {lags} must be a contiguous run of lags "
                         f"from 0 on")
    width = len(lags) + len(template.pulse) - 1
    if len(z) != width:
        raise ValueError(
            f"a despread window of {len(z)} samples does not hold lags "
            f"{lags} of a {len(template.pulse)}-sample pulse ({width})")
    if not lags:
        return np.zeros(0, dtype=np.complex128)
    return np.correlate(z, template.pulse.samples, mode="valid")


def processing_gain(pn: PnSequence, chips_per_bit: int) -> float:
    """Despreading gain in dB: 10*log10(chips per bit)."""
    pn.check_chips_per_bit(chips_per_bit)
    return 10.0 * np.log10(chips_per_bit)
