"""Sequence generator tests: hand-enumerated LFSR states, brute-force
correlation oracles, balance and determinism properties."""

import math
import re

import numpy as np
import pytest

from pnradar import CodeKind, PREFERRED_PAIRS, PnSequence, gen_gold, gen_mseq
from pnradar.codes import check_field

# One known-primitive tap set per degree for the brute-force sweeps.
TAPS_BY_DEGREE = {
    2: [2, 1, 0], 3: [3, 1, 0], 4: [4, 1, 0], 5: [5, 2, 0], 6: [6, 1, 0],
    7: [7, 1, 0], 8: [8, 4, 3, 2, 0], 9: [9, 4, 0], 10: [10, 3, 0],
}


def brute_circular_acf(chips, lag):
    n = len(chips)
    return sum(int(chips[i]) * int(chips[(i + lag) % n]) for i in range(n))


def brute_circular_ccf(a, b, lag):
    n = len(a)
    return sum(int(a[i]) * int(b[(i + lag) % n]) for i in range(n))


class TestMSequence:
    def test_hand_enumerated_degree3(self):
        # x^3 + x + 1, seed 0b001; states enumerated by hand give the
        # bit stream 1,0,0,1,0,1,1
        seq = gen_mseq([3, 1, 0], seed=0b001)
        assert list(seq.chips) == [-1, 1, 1, -1, 1, -1, -1]
        assert seq.length == 7
        assert np.sum(seq.chips == -1) == 4
        assert np.sum(seq.chips == +1) == 3

    def test_period_length(self):
        for degree, taps in TAPS_BY_DEGREE.items():
            assert gen_mseq(taps).length == 2 ** degree - 1

    def test_acf_lag0_equals_n(self):
        seq = gen_mseq([5, 2, 0])
        assert brute_circular_acf(seq.chips, 0) == seq.length

    def test_acf_nonzero_lags_minus_one_degree3(self):
        seq = gen_mseq([3, 1, 0], seed=0b001)
        for lag in range(1, 7):
            assert brute_circular_acf(seq.chips, lag) == -1

    @pytest.mark.parametrize("degree", sorted(TAPS_BY_DEGREE))
    def test_acf_two_valued_all_degrees(self, degree):
        seq = gen_mseq(TAPS_BY_DEGREE[degree])
        values = {brute_circular_acf(seq.chips, lag)
                  for lag in range(seq.length)}
        assert values == {seq.length, -1}

    @pytest.mark.parametrize("degree", sorted(TAPS_BY_DEGREE))
    def test_balance(self, degree):
        seq = gen_mseq(TAPS_BY_DEGREE[degree])
        assert np.sum(seq.chips == -1) - np.sum(seq.chips == +1) == 1

    def test_deterministic(self):
        a = gen_mseq([7, 1, 0], seed=0b1010101)
        b = gen_mseq([7, 1, 0], seed=0b1010101)
        assert np.array_equal(a.chips, b.chips)

    def test_all_zero_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            gen_mseq([3, 1, 0], seed=0)

    def test_negative_tap_rejected(self):
        # the list holds the constant term, so it must not be reported
        # missing
        for taps in ([5, 2, 0, -1], [-1]):
            with pytest.raises(ValueError, match="non-negative"):
                gen_mseq(taps)

    def test_degree_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            gen_mseq([1, 0])
        with pytest.raises(ValueError, match="degree"):
            gen_mseq([25, 3, 0])

    def test_kind_and_generator_metadata(self):
        seq = gen_mseq([5, 2, 0], seed=3)
        assert seq.kind is CodeKind.MSEQUENCE
        assert seq.generator == {"taps": [5, 2, 0], "seed": 3}


class TestGold:
    def test_length_degree5(self):
        assert gen_gold(*PREFERRED_PAIRS[5], shift=0).length == 31

    def test_cross_correlation_three_valued_n5(self):
        taps_a, taps_b = PREFERRED_PAIRS[5]
        a = gen_gold(taps_a, taps_b, shift=4)
        b = gen_gold(taps_a, taps_b, shift=11)
        values = {brute_circular_ccf(a.chips, b.chips, lag)
                  for lag in range(31)}
        assert values <= {-1, -9, 7}
        assert len(values) == 3

    def test_cross_correlation_three_valued_n7(self):
        taps_a, taps_b = PREFERRED_PAIRS[7]
        a = gen_gold(taps_a, taps_b, shift=0)
        b = gen_gold(taps_a, taps_b, shift=60)
        t = 2 ** ((7 + 2) // 2) + 1  # 17
        values = {brute_circular_ccf(a.chips, b.chips, lag)
                  for lag in range(127)}
        assert values <= {-1, -t, t - 2}

    def test_shift_changes_sequence(self):
        a = gen_gold(*PREFERRED_PAIRS[5], shift=0)
        b = gen_gold(*PREFERRED_PAIRS[5], shift=5)
        assert a.length == b.length
        assert not np.array_equal(a.chips, b.chips)

    def test_mismatched_degrees_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            gen_gold([5, 2, 0], [7, 3, 0])

    def test_degree_multiple_of_four_rejected(self):
        with pytest.raises(ValueError, match="4"):
            gen_gold([8, 4, 3, 2, 0], [8, 6, 5, 3, 0])

    def test_bad_shift_rejected(self):
        with pytest.raises(ValueError, match="shift"):
            gen_gold(*PREFERRED_PAIRS[5], shift=31)


class TestPnSequence:
    def test_non_bipolar_rejected(self):
        with pytest.raises(ValueError, match="bipolar"):
            PnSequence(chips=[1, 0, -1], kind=CodeKind.MSEQUENCE)

    @pytest.mark.parametrize("cpb", [2.5, 3.0, math.nan, np.float64(2.0),
                                     "3"])
    def test_non_integer_chips_per_bit_rejected(self, cpb):
        # a float passes the range check but cannot index the chips
        with pytest.raises(ValueError, match=re.escape(
                f"chips_per_bit must be an integer, got {cpb}")):
            gen_mseq([3, 1, 0]).check_chips_per_bit(cpb)

    def test_integer_chips_per_bit_accepted(self):
        pn = gen_mseq([3, 1, 0])
        for cpb in (1, 7, np.int64(3), np.uint8(7)):
            pn.check_chips_per_bit(cpb)


class TestCheckField:
    """Each rule's message, and the values each rule lets through."""

    @pytest.mark.parametrize("rule, good, bad", [
        ("> 0", [1e-300, 1, math.inf], [0, -1.0, -math.inf, math.nan]),
        (">= 0", [0, 0.0, 2, math.inf], [-1e-300, -1, -math.inf, math.nan]),
        ("finite", [0, -1.5, 1e308], [math.inf, -math.inf, math.nan]),
        ("finite and > 0", [1e-300, 5, 1e308],
         [0, -1.0, math.inf, -math.inf, math.nan]),
        ("finite and >= 0", [0, 0.0, 1e308],
         [-1e-300, math.inf, -math.inf, math.nan]),
    ])
    def test_rule(self, rule, good, bad):
        for value in good:
            check_field("x_m", value, rule)
        for value in bad:
            with pytest.raises(ValueError) as info:
                check_field("x_m", value, rule)
            assert str(info.value) == f"x_m must be {rule}, got {value}"
