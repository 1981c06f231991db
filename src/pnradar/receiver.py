"""Receive chains: blanking gate, despreading, QPSK demodulation, and the
despread-then-pulse sliding correlator.

Synchronization is genie-aided: chip, symbol and sweep timing are taken
from the common simulation clock, which matches an instrument that
shares one spreading-code generator between transmitter and receiver.
The IF stage is an identity on complex baseband, so despreading is a
chip-lattice multiply.
"""

from __future__ import annotations

import numpy as np

from .codes import PnSequence
from .waveform import PulseTrain, RadarParams, SampleStream, _pulse_mask


def check_blank_width(params: RadarParams, blank_width_s: float) -> None:
    """The receive gate must cover the transmit pulse and re-open within
    every PRI."""
    if blank_width_s < params.pulse_width_s:
        raise ValueError(
            f"blank width {blank_width_s:g} s is shorter than the transmit "
            f"pulse {params.pulse_width_s:g} s; leakage would pass")
    if blank_width_s >= params.pri_s:
        raise ValueError(
            f"blank width {blank_width_s:g} s covers the whole PRI "
            f"{params.pri_s:g} s; the receiver would never open")


def rx_gate(s: SampleStream, params: RadarParams, blank_width_s: float,
            out: np.ndarray | None = None) -> SampleStream:
    """Blank the receiver while the transmitter fires: samples inside
    [m*PRI, m*PRI + blank) are zeroed (see check_blank_width).

    ``out``, the writable buffer that s views (see channel.propagate), is
    blanked in place, so s changes too, and the returned stream is a
    read-only view of it, valid until the buffer is written again; without
    it the gated samples are a copy.
    """
    check_blank_width(params, blank_width_s)
    mask = _pulse_mask(len(s), s.sample_rate, params.pri_s, blank_width_s)
    if out is None:
        return s.with_samples(np.where(mask, 0.0, s.samples))
    if out.shape != (len(s),) or not np.may_share_memory(out, s.samples):
        raise ValueError("out must be the buffer that the stream views")
    np.copyto(out, 0.0, where=mask)
    return s.with_samples(out[:])


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


def uwb_correlate(rx: SampleStream, template: PulseTrain,
                  lags: range | None = None) -> np.ndarray:
    """Sliding inner product <rx[n+k], template[k]> for each lag n in
    ``lags`` (default: every full overlap, from lag 0).

    The correlator follows the train's structure: it first despreads the
    lag window over the chip lattice, z = sum_j chips[j] *
    rx[j*period + n0 : ...], and then matches z against the single pulse.
    The pulse is conjugated, so a matched template yields the complex
    echo amplitude at the peak lag.
    """
    if len(template) > len(rx):
        raise ValueError(
            f"template ({len(template)} samples) longer than the received "
            f"stream ({len(rx)} samples)")
    if template.sample_rate != rx.sample_rate:
        raise ValueError("rx and template sample rates differ")
    n_lags = len(rx) - len(template) + 1
    if lags is None:
        lags = range(n_lags)
    if lags.step != 1 or (lags and not 0 <= lags.start < lags.stop <= n_lags):
        raise ValueError(
            f"lags {lags} must be a contiguous window of [0, {n_lags})")
    if not lags:
        return np.zeros(0, dtype=np.complex128)
    pulse = template.pulse.samples
    width = len(lags) + pulse.size - 1
    z = np.zeros(width, dtype=np.complex128)
    for j, chip in enumerate(template.chips):
        start = lags.start + j * template.period
        z += chip * rx.samples[start:start + width]
    return np.correlate(z, pulse, mode="valid")


def processing_gain(pn: PnSequence, chips_per_bit: int) -> float:
    """Despreading gain in dB: 10*log10(chips per bit)."""
    if not (1 <= chips_per_bit <= pn.length):
        raise ValueError(f"chips_per_bit must lie in [1, {pn.length}]")
    return 10.0 * np.log10(chips_per_bit)
