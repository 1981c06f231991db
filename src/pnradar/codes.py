"""Pseudo-noise sequence generation.

m-sequences come from a Fibonacci LFSR driven by a primitive polynomial
and Gold codes from the chip-wise product of a preferred pair.  All
generators are pure functions of their arguments; sequences are bipolar
(+1/-1) with the global bit mapping 0 -> +1, 1 -> -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class CodeKind(Enum):
    MSEQUENCE = "msequence"
    GOLD = "gold"


# Preferred polynomial pairs for three-valued Gold cross-correlation.
PREFERRED_PAIRS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    5: ((5, 2, 0), (5, 4, 3, 2, 0)),
    6: ((6, 1, 0), (6, 5, 2, 1, 0)),
    7: ((7, 3, 0), (7, 3, 2, 1, 0)),
    9: ((9, 4, 0), (9, 6, 4, 3, 0)),
    10: ((10, 3, 0), (10, 8, 3, 2, 0)),
    11: ((11, 2, 0), (11, 8, 5, 2, 0)),
}

MIN_DEGREE = 2
MAX_DEGREE = 24


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` read-only without a copy, as the value types hold arrays: a
    read-only view of a writeable array, so that the caller's array stays
    writeable, or ``a`` itself when it is read-only already."""
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PnSequence:
    """Bipolar chip sequence plus the generator that produced it.

    ``chips`` is a read-only int8 array of +1/-1 values.  ``generator``
    records taps/seeds for reproducibility.
    """

    chips: np.ndarray
    kind: CodeKind
    generator: dict = field(default_factory=dict)

    def __post_init__(self):
        chips = np.asarray(self.chips, dtype=np.int8)
        if chips.ndim != 1 or chips.size == 0:
            raise ValueError("chips must be a nonempty 1-D sequence")
        if not np.all(np.abs(chips) == 1):
            raise ValueError("chips must be bipolar (+1/-1)")
        object.__setattr__(self, "chips", read_only(chips))

    def __len__(self) -> int:
        return int(self.chips.size)

    @property
    def length(self) -> int:
        return int(self.chips.size)


def _normalize_taps(taps) -> tuple[int, ...]:
    exps = sorted({int(e) for e in taps}, reverse=True)
    if len(exps) < 2 or exps[-1] != 0:
        raise ValueError(f"taps {list(taps)} must include the constant term 0 "
                         "and at least one higher exponent")
    if any(e < 0 for e in exps):
        raise ValueError("tap exponents must be non-negative")
    return tuple(exps)


def _lfsr_bits(taps: tuple[int, ...], seed: int, n_out: int) -> np.ndarray:
    """Run a Fibonacci LFSR for ``n_out`` steps.

    The register holds bits (x_t .. x_{t+n-1}); the recurrence is
    x_{t+n} = XOR of x_{t+e} over feedback exponents e < n, and the
    output is the oldest bit.  Seed bit i (LSB first) initializes x_i.
    """
    degree = taps[0]
    feedback = [e for e in taps if e < degree]
    reg = [(seed >> i) & 1 for i in range(degree)]
    out = np.empty(n_out, dtype=np.uint8)
    for i in range(n_out):
        out[i] = reg[0]
        new = 0
        for e in feedback:
            new ^= reg[e]
        reg = reg[1:] + [new]
    return out


def bits_to_bipolar(bits) -> np.ndarray:
    """Map bits to chips with the global convention 0 -> +1, 1 -> -1."""
    return (1 - 2 * np.asarray(bits, dtype=np.int64)).astype(np.int8)


def gen_mseq(taps, seed: int = 1) -> PnSequence:
    """Generate one full period (2^n - 1 chips) of an m-sequence.

    ``taps`` is an exponent list such as [3, 1, 0] for x^3 + x + 1;
    ``seed`` is the nonzero initial register state.
    """
    exps = _normalize_taps(taps)
    degree = exps[0]
    if not (MIN_DEGREE <= degree <= MAX_DEGREE):
        raise ValueError(f"degree {degree} outside supported range "
                         f"[{MIN_DEGREE}, {MAX_DEGREE}]")
    seed = int(seed)
    if not (0 < seed < 2 ** degree):
        raise ValueError(f"seed must be a nonzero {degree}-bit state, got {seed}")
    bits = _lfsr_bits(exps, seed, 2 ** degree - 1)
    return PnSequence(
        chips=bits_to_bipolar(bits),
        kind=CodeKind.MSEQUENCE,
        generator={"taps": list(exps), "seed": seed},
    )


def gen_gold(taps_a, taps_b, shift: int = 0) -> PnSequence:
    """Generate a Gold code: product of two m-sequences, the second
    circularly shifted by ``shift`` chips."""
    exps_a = _normalize_taps(taps_a)
    exps_b = _normalize_taps(taps_b)
    if exps_a[0] != exps_b[0]:
        raise ValueError(f"preferred pair degrees differ: {exps_a[0]} vs {exps_b[0]}")
    degree = exps_a[0]
    if degree % 4 == 0:
        raise ValueError(f"degree {degree} is divisible by 4; no preferred pair exists")
    n = 2 ** degree - 1
    if not (0 <= shift < n):
        raise ValueError(f"shift must lie in [0, {n}), got {shift}")
    seq_a = gen_mseq(exps_a)
    seq_b = gen_mseq(exps_b)
    chips = seq_a.chips.astype(np.int8) * np.roll(seq_b.chips, -shift).astype(np.int8)
    return PnSequence(
        chips=chips,
        kind=CodeKind.GOLD,
        generator={"taps_a": list(exps_a), "taps_b": list(exps_b), "shift": shift},
    )
