"""Transmit waveform synthesis for both radar chains.

Everything is complex baseband: RF and IF carriers exist only as a
frequency tag on the stream plus explicit phase rotations applied in the
channel.  The narrowband chain sends one pulse of spread QPSK per
PRI; the wideband chain builds a polarity-coded train of Gaussian
monocycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .codes import PnSequence, bits_to_bipolar, check_field, read_only

SPEED_OF_LIGHT = 299_792_458.0  # m/s

NB_CARRIER_MIN_HZ = 300e6
NB_CARRIER_MAX_HZ = 3000e6

# Truncation of the Gaussian monocycle, in units of its sigma.
MONOCYCLE_TRUNC_SIGMAS = 4.0


class Mode(Enum):
    NB_DSSS = "nb"
    DS_UWB = "uwb"


def check_finite(samples: np.ndarray) -> None:
    """Raise unless both parts of every complex sample are finite.  min and
    max propagate NaN and reach +-inf, so they test every part without a
    temporary array as long as the samples."""
    parts = samples.view(np.float64)
    if parts.size and not (np.isfinite(parts.min())
                           and np.isfinite(parts.max())):
        raise ValueError("samples must be finite")


@dataclass(frozen=True)
class SampleStream:
    """Uniformly sampled complex baseband signal; the first sample is at
    time 0.  ``carrier_hz`` tags the center frequency the baseband
    represents.  The samples are read-only through the stream.
    """

    samples: np.ndarray
    sample_rate: float  # Hz
    carrier_hz: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise ValueError("samples must be 1-D")
        check_field("sample_rate", self.sample_rate, "> 0")
        check_finite(samples)
        object.__setattr__(self, "samples", read_only(samples))

    def __len__(self) -> int:
        return int(self.samples.size)

    def with_samples(self, samples: np.ndarray) -> "SampleStream":
        return SampleStream(samples, self.sample_rate, self.carrier_hz)


@dataclass(frozen=True)
class RadarParams:
    """Static radar configuration shared by both chains.

    For NB_DSSS the sample rate derives from chip_rate_hz *
    samples_per_chip; for DS_UWB it must be given, and the three NB
    fields are None.
    """

    carrier_hz: float
    chip_rate_hz: float | None
    samples_per_chip: int | None
    pulse_width_s: float | None
    pri_s: float
    mode: Mode
    monocycle_width_s: float = 0.33e-9
    sample_rate_hz: float = field(default=0.0)

    def __post_init__(self):
        if self.mode is Mode.NB_DSSS:
            if not (NB_CARRIER_MIN_HZ <= self.carrier_hz <= NB_CARRIER_MAX_HZ):
                raise ValueError(
                    f"carrier_hz: carrier outside 300-3000 MHz "
                    f"(got {self.carrier_hz:g} Hz)")
            check_field("chip_rate_hz", self.chip_rate_hz, "finite and > 0")
            # the sample rule below checks the signs of the pulse and PRI
            check_field("pulse_width_s", self.pulse_width_s, "finite")
            if self.samples_per_chip < 2:
                raise ValueError(f"samples_per_chip must be >= 2, got "
                                 f"{self.samples_per_chip}")
            fs = self.chip_rate_hz * self.samples_per_chip
            if self.sample_rate_hz and not np.isclose(self.sample_rate_hz, fs):
                raise ValueError("sample_rate_hz inconsistent with chip rate")
            object.__setattr__(self, "sample_rate_hz", fs)
        else:
            check_field("monocycle_width_s", self.monocycle_width_s,
                        "finite and > 0")
            check_field("sample_rate_hz", self.sample_rate_hz,
                        "finite and > 0")
            if self.sample_rate_hz < 10.0 / self.monocycle_width_s:
                raise ValueError(
                    f"sample_rate_hz {self.sample_rate_hz:g} undersamples a "
                    f"{self.monocycle_width_s:g} s monocycle")
        check_field("pri_s", self.pri_s, "finite")
        pulse, slot = self.pulse_samples, self.pri_samples
        if not 0 < pulse < slot:
            what = (f"pri_s {self.pri_s:g} is not longer than the truncated "
                    f"monocycle support {self.monocycle_support_s:g}"
                    if self.mode is Mode.DS_UWB else
                    f"pulse_width_s ({self.pulse_width_s:g}) must span at "
                    f"least one sample and fewer than pri_s ({self.pri_s:g})")
            raise ValueError(f"{what}: {pulse} pulse samples, {slot} per PRI")

    @property
    def wavelength_m(self) -> float:
        if self.carrier_hz <= 0:
            raise ValueError("wavelength undefined for carrier_hz <= 0")
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def monocycle_sigma_s(self) -> float:
        """Gaussian sigma: pulse width is the peak-to-peak lobe spacing 2*sigma."""
        return self.monocycle_width_s / 2.0

    @property
    def monocycle_support_s(self) -> float:
        """Truncated support of the monocycle (both sides)."""
        return 2.0 * MONOCYCLE_TRUNC_SIGMAS * self.monocycle_sigma_s

    @property
    def unambiguous_range_m(self) -> float:
        return SPEED_OF_LIGHT * self.pri_s / 2.0

    def to_samples(self, seconds: float) -> int:
        """A duration as a whole number of samples, rounded half to even."""
        return int(round(seconds * self.sample_rate_hz))

    @property
    def pri_samples(self) -> int:
        """Samples per PRI slot: pulse m is sent from sample m*pri_samples."""
        return self.to_samples(self.pri_s)

    @property
    def pulse_samples(self) -> int:
        """Samples of one transmit pulse: the +/-4 sigma monocycle or the
        NB pulse.  Every pulse rule compares it with pri_samples."""
        if self.mode is Mode.DS_UWB:
            return 2 * self.to_samples(self.monocycle_support_s / 2.0) + 1
        return self.to_samples(self.pulse_width_s)


def nb_params(carrier_hz: float = 1e9, chip_rate_hz: float = 10e6,
              samples_per_chip: int = 8, pulse_width_s: float = 10e-6,
              pri_s: float = 100e-6) -> RadarParams:
    """Default narrowband DSSS parameter set."""
    return RadarParams(carrier_hz=carrier_hz, chip_rate_hz=chip_rate_hz,
                       samples_per_chip=samples_per_chip,
                       pulse_width_s=pulse_width_s, pri_s=pri_s,
                       mode=Mode.NB_DSSS)


def uwb_params(monocycle_width_s: float = 0.33e-9, pri_s: float = 100e-9,
               sample_rate_hz: float = 100e9,
               carrier_hz: float = 0.0) -> RadarParams:
    """Default impulse-radio parameter set (carrierless)."""
    return RadarParams(carrier_hz=carrier_hz, chip_rate_hz=None,
                       samples_per_chip=None, pulse_width_s=None, pri_s=pri_s,
                       mode=Mode.DS_UWB, monocycle_width_s=monocycle_width_s,
                       sample_rate_hz=sample_rate_hz)


def spread(data_bits, pn: PnSequence, chips_per_bit: int) -> np.ndarray:
    """Spread data bits over the PN sequence.

    The code runs continuously across bits: chip j of bit m is
    bits_to_bipolar(bit_m) * pn[(m*chips_per_bit + j) mod N].
    """
    bits = np.asarray(data_bits, dtype=np.int64)
    if bits.size == 0:
        raise ValueError("data_bits must be nonempty")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("data_bits must be 0/1")
    pn.check_chips_per_bit(chips_per_bit)
    n_chips = bits.size * chips_per_bit
    code = pn.chips[np.arange(n_chips) % pn.length].astype(np.int8)
    symbols = bits_to_bipolar(bits)
    return (np.repeat(symbols, chips_per_bit) * code).astype(np.int8)


def qpsk_baseband(i_chips, q_chips, params: RadarParams) -> SampleStream:
    """Map bipolar I/Q chips to a unit-power QPSK baseband stream.

    Each chip is held for samples_per_chip samples; the constellation is
    (i + jq)/sqrt(2).
    """
    i = np.asarray(i_chips, dtype=np.float64)
    q = np.asarray(q_chips, dtype=np.float64)
    if i.shape != q.shape:
        raise ValueError(f"I/Q chip lengths differ: {i.size} vs {q.size}")
    symbols = (i + 1j * q) / np.sqrt(2.0)
    samples = np.repeat(symbols, params.samples_per_chip)
    return SampleStream(samples, params.sample_rate_hz, params.carrier_hz)


def gaussian_monocycle(params: RadarParams) -> SampleStream:
    """Single monocycle p(t) ~ -t*exp(-t^2/(2 sigma^2)), peak amplitude 1.

    The stream is real-valued, centered so the zero crossing lands on the
    middle sample, truncated at +/-4 sigma.
    """
    sigma = params.monocycle_sigma_s
    fs = params.sample_rate_hz
    half = params.pulse_samples // 2
    t = (np.arange(2 * half + 1) - half) / fs
    pulse = -t * np.exp(-t ** 2 / (2.0 * sigma ** 2))
    peak = sigma * np.exp(-0.5)  # extrema at t = +/-sigma
    samples = (pulse / peak).astype(np.complex128)
    return SampleStream(samples, fs, params.carrier_hz)


@dataclass(frozen=True)
class PulseTrain:
    """One pulse shape repeated every ``period`` samples, copy j weighted
    by the real chip ``chips[j]``: sum_j chips[j] * pulse[n - j*period],
    zero-padded to ``length`` samples.

    A single pulse is a train of one chip, and so is a dense stream s, as
    PulseTrain(s).  The pulses of a longer train do not overlap: period is
    at least len(pulse).  By default the train ends with the last pulse,
    so ``len(train)`` is (chips - 1) * period + len(pulse).
    """

    pulse: SampleStream
    chips: np.ndarray = field(default_factory=lambda: np.ones(1))
    period: int = 1
    length: int | None = None

    def __post_init__(self):
        chips = np.array(self.chips, dtype=np.float64)
        if chips.ndim != 1 or chips.size == 0:
            raise ValueError("chips must be a nonempty 1-D array")
        if not np.isfinite(chips).all():
            raise ValueError("chips must be finite")
        width = len(self.pulse)
        if width == 0:
            raise ValueError("pulse must be nonempty")
        if self.period < 1:
            raise ValueError(f"period must be >= 1 sample, got {self.period}")
        if chips.size > 1 and self.period < width:
            raise ValueError(f"pulses of {width} samples overlap at a "
                             f"period of {self.period}")
        end = (chips.size - 1) * self.period + width
        length = end if self.length is None else self.length
        if length < end:
            raise ValueError(f"{length} samples cannot hold a train of {end}")
        chips.flags.writeable = False
        object.__setattr__(self, "chips", chips)
        object.__setattr__(self, "length", int(length))

    def __len__(self) -> int:
        return self.length

    @property
    def sample_rate(self) -> float:
        return self.pulse.sample_rate

    @property
    def carrier_hz(self) -> float:
        return self.pulse.carrier_hz

    def samples(self, n: int | None = None) -> np.ndarray:
        """The train as n samples (default: len(self)), zero-padded."""
        n = len(self) if n is None else n
        if n < len(self):
            raise ValueError(f"{n} samples cannot hold a train of {len(self)}")
        pulse = self.pulse.samples
        out = np.zeros(n, dtype=np.complex128)
        for j, chip in enumerate(self.chips):
            start = j * self.period
            out[start:start + pulse.size] += chip * pulse
        return out


def uwb_pulse_train(code: PnSequence, params: RadarParams) -> PulseTrain:
    """One monocycle per PRI slot, polarity-coded: each pulse is
    multiplied by its chip sign."""
    return PulseTrain(gaussian_monocycle(params), code.chips,
                      params.pri_samples)

