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


def _slot_heads(start: int, n: int, period: int, blank: int) -> np.ndarray:
    """Mask of the samples start .. start+n-1 the receive blank zeroes:
    the first ``blank`` samples of each ``period``-sample slot."""
    slot = np.arange(period) < blank
    return np.resize(np.roll(slot, -start), n)


def rx_gate(s: SampleStream, params: RadarParams,
            blank_width_s: float) -> SampleStream:
    """Blank the receiver while the transmitter fires: zero the first
    to_samples(blank) samples of each PRI slot (see check_blank_width)."""
    blanked = _slot_heads(0, len(s), params.pri_samples,
                          check_blank_width(params, blank_width_s))
    return s.with_samples(np.where(blanked, 0.0, s.samples))


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


def despread_window(rx: np.ndarray, template: PulseTrain, lags: range,
                    blank_samples: int = 0) -> np.ndarray:
    """The lag window of each received stream, despread over the train's
    chip lattice: z = sum_j chips[j] * rx[..., j*period + lags.start : ...]
    over len(lags) + len(pulse) - 1 samples, with the first
    ``blank_samples`` of each ``template.period``-sample slot of rx zeroed
    (the same positions in every chip's window).

    ``rx`` holds one stream, or a block of streams with one per row;
    each row is despread alone, elementwise.  The caller checks that the
    window lies inside rx (see uwb_correlate).
    """
    width = len(lags) + len(template.pulse) - 1
    z = np.zeros(rx.shape[:-1] + (width,), dtype=np.complex128)
    for j, chip in enumerate(template.chips):
        start = lags.start + j * template.period
        z += chip * rx[..., start:start + width]
    if blank_samples:
        z[..., _slot_heads(lags.start, width, template.period,
                           blank_samples)] = 0.0
    return z


def uwb_correlate(rx: SampleStream, template: PulseTrain,
                  lags: range | None = None,
                  blank_samples: int = 0) -> np.ndarray:
    """Sliding inner product <rx[n+k], template[k]> for each lag n in
    ``lags`` (default: every full overlap, from lag 0), with the first
    ``blank_samples`` of each ``template.period``-sample slot of rx zeroed.

    The correlator follows the train's structure: it first despreads the
    lag window over the chip lattice (despread_window), and then matches
    that window against the single pulse.  The pulse is conjugated, so a
    matched template yields the complex echo amplitude at the peak lag.
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
    if not 0 <= blank_samples < template.period:
        raise ValueError(f"blank of {blank_samples} samples must be shorter "
                         f"than the {template.period}-sample slot")
    if not lags:
        return np.zeros(0, dtype=np.complex128)
    z = despread_window(rx.samples, template, lags, blank_samples)
    return np.correlate(z, template.pulse.samples, mode="valid")


def processing_gain(pn: PnSequence, chips_per_bit: int) -> float:
    """Despreading gain in dB: 10*log10(chips per bit)."""
    if not (1 <= chips_per_bit <= pn.length):
        raise ValueError(f"chips_per_bit must lie in [1, {pn.length}]")
    return 10.0 * np.log10(chips_per_bit)
