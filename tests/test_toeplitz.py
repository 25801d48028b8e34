import random
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from odoshift import errors
from odoshift import toeplitz as tp
from oracles import partial_period_mask, partial_period_refutation
from odoshift.substitution import (
    FixedPointWindow,
    dyadic_valuation,
    grigorchuk_prefix,
    parse_prefix,
)

OMEGA = grigorchuk_prefix(1 << 14)


def word(text):
    return parse_prefix(text)


# letters off the language: periodic, the four letters in a row, and seeded random codes
_rng = random.Random(20261022)
NON_FACTORS = ["ababab", "abcd", "a" * 64, "ab" * 32,
               *("".join(_rng.choice("abcd") for _ in range(size)) for size in (16, 200, 4096))]


def heuristic_essential_periods(prefix, horizon):
    """Reference: smallest p <= horizon whose multiples agree to the end of the prefix, per position."""
    codes = np.frombuffer(prefix.codes, dtype=np.uint8)
    L = len(prefix)
    periods = set()
    for n in range(1, L - horizon + 1):
        for p in range(1, horizon + 1):
            if (codes[n - 1 + p :: p] == codes[n - 1]).all():
                periods.add(p)
                break
    return periods


class TestPartialPeriod:
    def test_odd_positions_have_period_two(self):
        assert partial_period_mask(OMEGA.codes, 0, 2)

    def test_refutation_at_two_two(self):
        assert not partial_period_mask(OMEGA.codes, 1, 2)
        assert partial_period_refutation(OMEGA, 2, 2) == 1  # position 4 already differs

    def test_certificate_at_two_four(self):
        assert partial_period_mask(OMEGA.codes, 1, 4)

    def test_rigid_needs_three_multiples(self):
        with pytest.raises(errors.InsufficientDataError) as exc:
            tp.smallest_partial_period(word("acabac"), 1)
        assert exc.value.required_length == 7
        assert tp.smallest_partial_period(word("acabaca"), 1) == 2
        # the third multiple refutes p = 2 here
        assert not partial_period_mask(word("abababb").codes, 0, 2)
        assert partial_period_refutation(word("abababb"), 1, 2) == 3

    @given(
        n=st.integers(min_value=2, max_value=512),
        p=st.integers(min_value=1, max_value=512),
    )
    def test_backward_propagation(self, n, p):
        # a certified period propagates backwards one step
        if p >= n:
            return
        if partial_period_mask(OMEGA.codes, n - 1, p):
            assert OMEGA.at(n - p) == OMEGA.at(n)

    def test_mask_agrees_with_the_certificate(self):
        rng = np.random.default_rng(3)
        n = rng.integers(1, 2048, size=500, endpoint=True)
        p = rng.integers(1, 256, size=500, endpoint=True)
        mask = partial_period_mask(OMEGA.codes, n - 1, p)
        refuted = [partial_period_refutation(OMEGA, int(a), int(b)) for a, b in zip(n, p)]
        assert mask.tolist() == [j is None for j in refuted]
        assert mask.any() and not mask.all()


class TestSmallestPartialPeriod:
    def test_examples(self):
        assert tp.smallest_partial_period(OMEGA, 1) == 2
        assert tp.smallest_partial_period(OMEGA, 4) == 8
        assert tp.smallest_partial_period(OMEGA, 6) == 4

    def test_valuation_formula(self):
        for n in range(1, len(OMEGA) // 8 + 1):
            assert tp.smallest_partial_period(OMEGA, n) == 1 << (dyadic_valuation(n) + 1)

    def test_insufficient_data(self):
        with pytest.raises(errors.InsufficientDataError) as exc:
            tp.smallest_partial_period(word("acab"), 4)
        assert exc.value.required_length == 7

    @pytest.mark.parametrize("text", NON_FACTORS, ids=range(len(NON_FACTORS)))
    def test_letters_off_the_language_are_not_in_the_subshift(self, text):
        # the position is checked first, then the language
        with pytest.raises(errors.InvalidInputError, match=f"^position 0 outside 1..{len(text)}$"):
            tp.smallest_partial_period(word(text), 0)
        for n in (1, len(text)):
            with pytest.raises(errors.NotInSubshiftError,
                               match=f"^the {len(text)} letters are not a factor of the fixed point$"):
                tp.smallest_partial_period(word(text), n)

    @pytest.mark.parametrize("n", [0, -1, 5])
    def test_a_position_outside_the_prefix_is_invalid(self, n):
        with pytest.raises(errors.InvalidInputError, match=f"^position {n} outside 1..4$"):
            tp.smallest_partial_period(word("acab"), n)

    def test_a_large_period_is_a_closed_form(self):
        # n = 2^17 has smallest period 2^18, which a search one p at a time reaches only after 2^18 tests
        prefix = grigorchuk_prefix(1 << 20)
        start = time.perf_counter()
        assert tp.smallest_partial_period(prefix, 1 << 17) == 1 << 18
        assert time.perf_counter() - start < 0.5
        with pytest.raises(errors.InsufficientDataError) as exc:
            tp.smallest_partial_period(prefix, 1 << 19)
        assert exc.value.required_length == (1 << 19) + 3 * 174763


class TestEssentialPeriods:
    def test_powers_of_two(self):
        prefix = grigorchuk_prefix(1 << 12)
        ep = tp.essential_periods(prefix, 1 << 7)
        assert ep.periods == tuple(1 << k for k in range(1, 8))

    def test_witnesses_are_minimal(self):
        prefix = grigorchuk_prefix(1 << 10)
        ep = tp.essential_periods(prefix, 32)
        for p, n in ep.witnesses.items():
            assert tp.smallest_partial_period(prefix, n) == p

    @pytest.mark.parametrize("text", NON_FACTORS, ids=range(len(NON_FACTORS)))
    def test_letters_off_the_language_are_not_in_the_subshift(self, text):
        # the horizon and the length are checked first
        with pytest.raises(errors.InsufficientDataError):
            tp.essential_periods(word(text), len(text) // 4 + 1)
        with pytest.raises(errors.NotInSubshiftError,
                           match=f"^the {len(text)} letters are not a factor of the fixed point$"):
            tp.essential_periods(word(text), max(1, len(text) // 4))

    def test_heuristic_agrees_on_fixed_point(self):
        prefix = grigorchuk_prefix(1 << 10)
        rigid = tp.essential_periods(prefix, 64)
        loose = heuristic_essential_periods(prefix, 64)
        assert set(rigid.periods) <= set(loose)

    def test_no_letter_is_made(self):
        # both answers are closed forms of a window's start: 2^26 letters are never generated
        window = FixedPointWindow(0, 1 << 26)
        ep = tp.essential_periods(window, 1 << 24)
        assert ep.periods == tuple(1 << k for k in range(1, 25))
        assert ep.witnesses == {p: p >> 1 for p in ep.periods}
        assert tp.smallest_partial_period(window, 1 << 23) == 1 << 24
        with pytest.raises(errors.InsufficientDataError) as exc:
            tp.smallest_partial_period(window, 1 << 24)  # its period 2^25 needs 7 * 2^24 letters
        assert exc.value.required_length == (1 << 24) + 3 * (((1 << 26) - (1 << 24)) // 3 + 1)
        assert window._codes is None

    @pytest.mark.parametrize("horizon", [0, -4])
    def test_a_horizon_below_one_is_invalid(self, horizon):
        with pytest.raises(errors.InvalidInputError, match=f"^horizon must be positive, got {horizon}$"):
            tp.essential_periods(OMEGA, horizon)

    def test_horizon_too_large(self):
        with pytest.raises(errors.InsufficientDataError) as exc:
            tp.essential_periods(word("abab"), 4)
        assert exc.value.required_length == 16


class TestPeriodSkeleton:
    @pytest.mark.parametrize("depth", [0, -9])
    def test_a_depth_below_one_is_invalid(self, depth):
        # on the tag and on read letters alike, before any letter is read
        for prefix in (OMEGA, word(OMEGA.text)):
            with pytest.raises(errors.InvalidInputError, match=f"^depth K must be positive, got {depth}$"):
                tp.period_skeleton(prefix, depth)

    def test_fixed_point_levels(self):
        skel = tp.period_skeleton(grigorchuk_prefix(1 << 12), 10)
        assert skel.levels == tuple(1 << k for k in range(1, 11))

    def test_fixed_point_letters(self):
        skel = tp.period_skeleton(grigorchuk_prefix(64), 4)
        assert skel.letters == ("a", "c", "b", "d")
        assert skel.classification == tp.TOEPLITZ_LIKE

    def test_letters_cycle_with_period_three(self):
        skel = tp.period_skeleton(grigorchuk_prefix(1 << 12), 10)
        assert skel.letters == ("a", "c", "b", "d", "c", "b", "d", "c", "b", "d")

    def test_shifted_fixed_point(self):
        shifted = grigorchuk_prefix((1 << 8) + 1).shifted(1)
        skel = tp.period_skeleton(shifted, 6)
        assert skel.levels == tuple((1 << k) - 1 for k in range(1, 7))

    @given(shift=st.integers(min_value=0, max_value=256))
    def test_nesting(self, shift):
        prefix = grigorchuk_prefix((1 << 9) + 256).shifted(shift)
        skel = tp.period_skeleton(prefix, 7)
        for k in range(1, len(skel.levels)):
            assert skel.levels[k] % (1 << k) == skel.levels[k - 1] % (1 << k)

    def test_window_requirement(self):
        with pytest.raises(errors.InsufficientDataError) as exc:
            tp.period_skeleton(grigorchuk_prefix(63), 4)
        assert exc.value.required_length == 64

    def test_periodic_input_rejected(self):
        with pytest.raises(errors.NotInSubshiftError):
            tp.period_skeleton(word("a" * 64), 3)

    def test_corrupted_input_rejected(self):
        text = list(grigorchuk_prefix(64).text)
        text[2] = "d"  # breaks the constant odd column
        with pytest.raises(errors.NotInSubshiftError):
            tp.period_skeleton(word("".join(text)), 3)

    def test_stabilized_column_classified(self):
        # b + fixed point: column 1 is the non-constant one at every level
        text = "b" + grigorchuk_prefix(255).text
        skel = tp.period_skeleton(word(text), 6)
        assert skel.levels == (1, 1, 1, 1, 1, 1)
        assert skel.classification == tp.EVENTUALLY_CONSTANT_MK
