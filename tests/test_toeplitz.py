import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from odoshift import errors
from odoshift import toeplitz as tp
from oracles import partial_period_mask, partial_period_refutation
from odoshift.substitution import (
    dyadic_valuation,
    grigorchuk_prefix,
    parse_prefix,
)

OMEGA = grigorchuk_prefix(1 << 14)


def word(text):
    return parse_prefix(text)


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
            tp.smallest_partial_period(word("ababab"), 1)
        assert exc.value.required_length == 7
        assert tp.smallest_partial_period(word("abababa"), 1) == 2
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
        with pytest.raises(errors.InsufficientDataError):
            tp.smallest_partial_period(word("abcd"), 4)

    @pytest.mark.parametrize("n", [0, -1, 5])
    def test_a_position_outside_the_prefix_is_invalid(self, n):
        with pytest.raises(errors.InvalidInputError, match=f"^position {n} outside 1..4$"):
            tp.smallest_partial_period(word("acab"), n)

    def test_a_large_period_is_found_in_blocks(self):
        # n = 2^17 has smallest period 2^18, which a scan one p at a time
        # reached only after 2^18 Python calls
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

    def test_constant_sequence(self):
        ep = tp.essential_periods(word("a" * 64), 4)
        assert ep.periods == (1,)

    def test_two_periodic_sequence(self):
        ep = tp.essential_periods(word("ab" * 32), 8)
        assert ep.periods == (2,)

    def test_heuristic_agrees_on_fixed_point(self):
        prefix = grigorchuk_prefix(1 << 10)
        rigid = tp.essential_periods(prefix, 64)
        loose = heuristic_essential_periods(prefix, 64)
        assert set(rigid.periods) <= set(loose)

    @pytest.mark.parametrize("log2", [18, 20])
    def test_the_scan_holds_one_slice_of_positions_at_a_time(self, log2):
        # what the scan holds does not grow with the prefix: an index of every position would be 8 bytes each
        prefix = grigorchuk_prefix(1 << log2)
        prefix.codes
        tracemalloc.start()
        try:
            ep = tp.essential_periods(prefix, 1 << 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ep.periods == tuple(1 << k for k in range(1, 14))
        assert peak <= 1 << 20, f"essential_periods peaked at {peak} bytes"

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
