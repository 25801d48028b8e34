"""Differential tests of the generator, oracle, all-shift encoder and spectral sum.

The straightforward algorithms these replaced stand in for the program here:

- ``reference_fixed_point`` grows the fixed point by joining the rule
  strings of the whole current word, one substitution step at a time.
  Under a -> ab, b -> b that takes one step per letter, so
  ``reference_self_expansion`` appends the image of one letter of
  x = sub(x) at a time, for every substitution.
- ``oracles.reference_skeleton_levels`` scans one window of a factor level
  by level, reshaping its first 4 * 2^k letters into four rows, and asserts
  one nested non-constant column per level, where ``period_skeleton``
  reads closed forms at f: a window's start, or the digits of the leaves
  of read letters, and the two routes are compared at every shift below
  2^12; ``reference_encoding`` runs the scan once per shift, where
  ``verify_equivariance`` adds each shift to f.  Off the language, where
  ``invariant_measure_cylinder`` of the letters read is 0, the skeleton's
  entry points raise instead, and on the mutated and foreign windows they
  do exactly there.
- ``desubstitution_value`` reads the dyadic digits of the factor map one
  level of the desubstitution at a time, asserting one parity per level,
  where ``language.factor_digits`` reads them off the leaves of the whole
  parity tree.
- ``reference_spectral_sum`` adds one complex exponential per occurrence,
  and ``reference_residue_sum`` counts occurrences per residue by bincount
  of their positions.  Both take the positions from
  ``oracles.occurrence_positions``, a ``bytes.find`` loop, which also checks
  the counts of the occurrence bitsets, where a word straddles the edge of
  a build pass and for seeded random words over prefixes built every way.
- ``oracles.pairwise_spectral_scan`` is the numpy kernel the bitsets
  replaced, with its pairwise sum of the phases.
- The occurrence bitsets, and ``bytes.find``, count the words of the fixed
  point that ``language.fixed_point_count`` counts by desubstitution:
  the same letters in a prefix with no fixed-point start run the bitsets.
- The comb over the occurrence bits, and ``bytes.find``, count per residue
  class the starts that ``language.fixed_point_residue_counts`` counts
  by desubstitution, and ``spectral_scan`` gives the same magnitudes, bit
  for bit, on the fixed point and on its letters in a prefix with no start.
- ``oracles.halving_fixed_point_count`` splits a word of letter sets down
  to the empty word at every level, where ``fixed_point_count`` counts a
  one-set word in closed form; ``oracles.halving_residue_counts`` carries
  each start's class mod q through that split, where
  ``fixed_point_residue_counts`` reads it off the closed form's
  progressions, one per leaf and valuation.
- ``oracles.skeleton_fiber_index`` reads the orbit index off the scanned
  skeleton, where ``classify_fiber`` reads it off f; on read letters the
  two rules agree.
- ``oracles.essential_periods_by_period`` finds the essential periods one
  period at a time, and ``oracles.smallest_partial_period_by_period`` the
  smallest partial period at one position, each reading the letters with
  the four-term test, where ``essential_periods`` and
  ``smallest_partial_period`` read closed forms at f: a window's start, or
  the digits of the leaves of read letters.  Both routes are compared at
  every position and horizon of short windows, at shifts up to 2^60, on
  one-letter mutations that stay factors, and on the 2^18 letters that
  ``verify`` reads at horizon 2^13.
- ``oracles.class_measure_by_parity`` runs the parity recursion of the
  measure of a word in a class of the factor map over Fractions on sets of
  letters, where ``class_measure`` reads the class off the leaves of the
  word's parity tree; ``oracles.left_letters_by_parity`` is that measure's
  positive letters l of l + w, where ``language.left_letters`` reads them
  off the leaves of w by the valuation of each leaf's offset.
- ``language._leaves_step``, recursing into itself, is the desubstitution
  with no cache: ``_leaves``, ``left_letters``, ``fixed_point_count`` and
  ``class_measure`` return what they return and raise what they raise, on
  a cold cache and on a full one.
- ``oracles.residue_class_measure`` and ``bytes.find`` answer the words
  that ``invariant_measure_cylinder`` and ``cylinder_frequency`` serve from
  their answer caches, cold, warm and after the caches have been filled
  past their size.

Each must agree exactly with the package, except the one-term-per-occurrence
spectral sum, whose terms are grouped differently and so agree to 1e-9, and
the numpy pairwise sum, whose rounding differs and agrees to 1e-12.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from odoshift import ergodic, errors, factormap, language, rules, substitution, toeplitz
from oracles import (
    _class_measure_of_sets,
    class_measure_by_parity,
    essential_periods_by_period,
    halving_fixed_point_count,
    halving_residue_counts,
    iterate,
    left_letters_by_parity,
    occurrence_positions,
    pairwise_spectral_scan,
    residue_class_measure,
    reconstruct_from_skeleton,
    reference_skeleton_levels,
    skeleton_fiber_index,
    smallest_partial_period_by_period,
)
from odoshift.substitution import (
    FixedPointWindow,
    Substitution,
    SymbolicPrefix,
    decode_codes,
    encode_letters,
    grigorchuk_letter,
    grigorchuk_prefix,
    parse_prefix,
)


# ---------------------------------------------------------------------------
# Generator


def reference_fixed_point(sub, seed, length, cap):
    text = seed
    while len(text) < length:
        text = text[:length]
        projected = sum(len(sub.rules[ch]) for ch in text)
        if projected > cap:
            raise errors.ResourceLimitError("step over the cap", required_bytes=projected)
        text = "".join(sub.rules[ch] for ch in text)
    return text[:length]


def reference_self_expansion(sub, seed, length):
    out = list(sub.rules[seed])
    read = 1
    while len(out) < length:
        out.extend(sub.rules[out[read]])
        read += 1
    return "".join(out[:length])


CHAIN_LETTERS = "abcdefghijklmnopqrstuvwxyz"
SUBSTITUTIONS = {
    "grigorchuk": substitution.grigorchuk_substitution(),
    "period_doubling": Substitution({"a": "ab", "b": "aa"}),
    "thue_morse": Substitution({"a": "ab", "b": "ba"}),
    "fibonacci": Substitution({"a": "ab", "b": "a"}),
    "lengths_1_to_4": Substitution({"a": "abcd", "b": "c", "c": "da", "d": "bca"}),
    "linear_growth": Substitution({"a": "ab", "b": "b"}),
    # a -> ab, b -> c, ..., y -> z, z -> zz: the seed reaches the doubling z after 25 steps
    "chain_to_doubling": Substitution({**dict(zip(CHAIN_LETTERS, CHAIN_LETTERS[1:])), "a": "ab", "z": "zz"}),
}
# the string-join step needs one step per letter of linear growth
STRING_JOIN = sorted(set(SUBSTITUTIONS) - {"linear_growth"})

CHUNK = substitution._CHUNK
# 2^18 + 3 letters: past the squared image of the seed (2^17 - 1 letters for
# grigorchuk), so images longer than a pass are split between passes
LENGTHS = (1, 2, 3, 4, 17, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 5 * CHUNK + 3, (1 << 18) + 3)


def grown(sub, length):
    """The letters of the fixed point of ``sub`` from a, as ``rules._grow`` grows them for any rules."""
    return rules._grow(sub, "a", length).decode()


@pytest.mark.parametrize("name", STRING_JOIN)
def test_generator_matches_the_string_join_step(name):
    sub = SUBSTITUTIONS[name]
    longest = reference_fixed_point(sub, "a", max(LENGTHS), cap=1 << 28)
    for length in LENGTHS:
        assert grown(sub, length) == longest[:length], length


@pytest.mark.parametrize("name", sorted(SUBSTITUTIONS))
def test_generator_matches_the_self_expansion(name):
    sub = SUBSTITUTIONS[name]
    longest = reference_self_expansion(sub, "a", max(LENGTHS))
    for length in LENGTHS:
        assert grown(sub, length) == longest[:length], length


def test_a_fixed_point_is_its_grown_letters_read_as_codes():
    # over 'abcd' the letters are the prefix's; a letter past d is the error a parsed one is
    for name in ("grigorchuk", "period_doubling", "lengths_1_to_4"):
        assert substitution.fixed_point_prefix(SUBSTITUTIONS[name], "a", 5000).text == grown(SUBSTITUTIONS[name], 5000)
    text = grown(SUBSTITUTIONS["chain_to_doubling"], 5000)
    with pytest.raises(errors.InvalidInputError) as exc:
        substitution.fixed_point_prefix(SUBSTITUTIONS["chain_to_doubling"], "a", 5000)
    with pytest.raises(errors.InvalidInputError) as parsed:
        parse_prefix(text)
    assert str(exc.value) == str(parsed.value) == f"letters {sorted(set(text) - set('abcd'))} not in alphabet 'abcd'"
    assert "z" in text


def test_linear_growth_is_generated_a_pass_at_a_time():
    start = time.perf_counter()
    prefix = substitution.fixed_point_prefix(SUBSTITUTIONS["linear_growth"], "a", 1 << 20)
    elapsed = time.perf_counter() - start
    assert prefix.text == "a" + "b" * ((1 << 20) - 1)
    assert elapsed < 1.0


@pytest.mark.parametrize("name", sorted(SUBSTITUTIONS))
def test_iterate_matches_the_string_join_step(name):
    sub = SUBSTITUTIONS[name]
    text = word = sub.letters * 3
    for steps in range(6):
        assert iterate(sub, word, steps) == text
        text = "".join(sub.rules[ch] for ch in text)


def test_generator_cap_counts_the_letters_generated(monkeypatch):
    sub = SUBSTITUTIONS["grigorchuk"]
    monkeypatch.setenv(substitution.MAX_BYTES_ENV, "64")
    for length in (65, 1000):
        with pytest.raises(errors.ResourceLimitError) as exc:
            substitution.fixed_point_prefix(sub, "a", length)
        assert exc.value.required_bytes == length
        assert "cap of 64 bytes" in str(exc.value)
    # the string-join step built 127 letters before cutting them to 64, over
    # the cap; the array holds only the 64 letters asked for
    with pytest.raises(errors.ResourceLimitError):
        reference_fixed_point(sub, "a", 64, cap=64)
    want = reference_fixed_point(sub, "a", 64, cap=1 << 28)
    assert substitution.fixed_point_prefix(sub, "a", 64).text == want


def test_generator_checks_the_cap_before_allocating():
    with pytest.raises(errors.ResourceLimitError) as exc:
        substitution.fixed_point_prefix(SUBSTITUTIONS["grigorchuk"], "a", 1 << 60)
    assert exc.value.required_bytes == 1 << 60


# ---------------------------------------------------------------------------
# Closed-form oracle


def test_oracle_matches_the_letter_formula_at_every_position():
    longest = (1 << 12) + 1
    scalar = ["abcd".index(grigorchuk_letter(m)) for m in range(1, longest + 1)]
    lengths = list(range(1, 301)) + [(1 << j) + d for j in range(1, 13) for d in (-1, 1)]
    for length in lengths:
        assert substitution.grigorchuk_codes(length).tolist() == scalar[:length], length


def test_codes_from_a_start_match_the_letter_formula():
    # a start moves each valuation's residue class, and past 2^16 letters a valuation is written in passes
    for start in (1, 2, 5, 1000, (1 << 20) - 3, 10**12 + 7):
        for length in (1, 3, 64, 4097):
            want = ["abcd".index(grigorchuk_letter(m)) for m in range(start + 1, start + length + 1)]
            assert substitution.grigorchuk_codes(length, start).tolist() == want, (start, length)
    whole = substitution.grigorchuk_codes(1 << 18)
    for start in (1, 3, CHUNK + 1, 5 * CHUNK - 1):
        assert substitution.grigorchuk_codes((1 << 18) - start, start) == whole[start:], start
    with pytest.raises(errors.InvalidInputError, match="^start must be nonnegative, got -1$"):
        substitution.grigorchuk_codes(4, -1)


def test_oracle_checks_the_cap(monkeypatch):
    monkeypatch.setenv(substitution.MAX_BYTES_ENV, "100")
    assert len(substitution.grigorchuk_codes(100)) == 100
    with pytest.raises(errors.ResourceLimitError) as exc:
        substitution.grigorchuk_codes(101)
    assert exc.value.required_bytes == 101


# ---------------------------------------------------------------------------
# Skeleton scan and the all-shift encoder


def reference_encoding(codes, k, shifts):
    """Encoded values at shifts 0..shifts of a factor, one window at a time."""
    window = 1 << (k + 2)
    return tuple((1 << k) - reference_skeleton_levels(codes[n : n + window], k)[0][-1] for n in range(shifts + 1))


def off_the_language(codes):
    """Whether the letters of ``codes`` have measure 0, so are no factor of the fixed point."""
    return language.invariant_measure_cylinder(decode_codes(codes)) == 0


def expected_encoding(codes, k, shifts):
    """What ``verify_equivariance`` gives: the language test's message off the language, else the reference."""
    read = shifts + (1 << (k + 2))
    if off_the_language(codes[:read]):
        return f"the {read} letters are not a factor of the fixed point"
    return reference_encoding(codes, k, shifts)


def program_encoding(codes, k, shifts):
    prefix = SymbolicPrefix(codes)
    try:
        values = factormap.verify_equivariance(prefix, k, shifts)
    except errors.NotInSubshiftError as exc:
        return str(exc)
    # one residue serves every window, so the values step by one
    assert all((b - a) % (1 << k) == 1 for a, b in zip(values, values[1:]))
    return values


CODES = substitution.grigorchuk_codes(1 << 15)


def mutate(codes, index, rng):
    out = bytearray(codes)
    out[index] = (out[index] + rng.randint(1, 3)) % 4
    return out


@pytest.mark.parametrize("k", range(1, 13))
def test_all_shift_encoder_matches_the_per_shift_loop(k):
    shifts = 150
    for start in (0, 1, 5, 1000):
        codes = CODES[start : start + shifts + (1 << (k + 2))]
        assert program_encoding(codes, k, shifts) == reference_encoding(codes, k, shifts)


@pytest.mark.parametrize("k", range(1, 13))
def test_a_mutated_letter_raises_exactly_off_the_language(k):
    rng = random.Random(k)
    shifts = 100
    length = shifts + (1 << (k + 2))
    raised = 0
    for _ in range(12):
        start = rng.randrange(0, 4096)
        codes = mutate(CODES[start : start + length], rng.randrange(length), rng)
        expected = expected_encoding(codes, k, shifts)
        assert program_encoding(codes, k, shifts) == expected
        raised += isinstance(expected, str)
    assert raised > 0


@pytest.mark.parametrize("k", range(1, 7))
def test_foreign_sequences_raise_exactly_off_the_language(k):
    # random words, and splices of two orbit windows, some of which are factors
    rng = random.Random(200 + k)
    shifts = 60
    length = shifts + (1 << (k + 2))
    for letters in (2, 4):
        codes = np.array([rng.randrange(letters) for _ in range(length)], dtype=np.uint8)
        assert program_encoding(codes, k, shifts) == expected_encoding(codes, k, shifts)
    for _ in range(6):
        cut = rng.randrange(1, length)
        a, b = rng.randrange(4096), rng.randrange(4096)
        codes = np.concatenate([CODES[a : a + cut], CODES[b : b + length - cut]])
        assert program_encoding(codes, k, shifts) == expected_encoding(codes, k, shifts)


# Letters 8, 13 and 16 of the fixed point changed: each level keeps exactly one
# non-constant column, but M_2 = 1 is not nested in M_1 = 2.
UNNESTED = np.frombuffer(b"acabacabacabbcab", dtype=np.uint8) - ord("a")


def test_unnested_columns_are_off_the_language():
    codes = np.concatenate([UNNESTED, CODES[16:60]])
    assert off_the_language(codes)
    assert program_encoding(codes, 2, 40) == "the 56 letters are not a factor of the fixed point"


def program_skeleton(prefix, k):
    """period_skeleton's (levels, letter codes) and encode_fG's value of the window, or the message raised."""
    try:
        skeleton = toeplitz.period_skeleton(prefix, k)
    except errors.NotInSubshiftError as exc:
        with pytest.raises(errors.NotInSubshiftError, match=f"^{exc}$"):
            factormap.encode_fG(prefix, k)
        return str(exc)
    value = factormap.encode_fG(prefix, k).value.value
    return list(skeleton.levels), ["abcd".index(letter) for letter in skeleton.letters], value


@lru_cache(maxsize=None)
def scanned(n):
    """The scan's levels and letter codes, and the desubstitution's value, at depth 10 of the window at shift n.

    Level k of the scan reads the window's first 4 * 2^k letters, and each
    digit of the desubstitution has one parity on any longer window, so
    their first k entries and digits are those of depth k.
    """
    codes = CODES[n : n + (1 << 12)]
    levels, letters = reference_skeleton_levels(codes, 10)
    return levels, letters, desubstitution_value(codes[: 1 << 11], 10)


def assert_the_routes_match_the_scan(n, k):
    """The tag at shift n and the leaves of the same 2^(k+2) + 1 letters against the scan and the desubstitution."""
    window = 1 << (k + 2)
    levels, letters, value = scanned(n)
    levels, letters, value = levels[:k], letters[:k], value % (1 << k)
    assert value == (1 << k) - levels[-1] == n % (1 << k), (n, k)
    tag, leaves = FixedPointWindow(n, window + 1), SymbolicPrefix(CODES[n : n + window + 1])
    for prefix in (leaves, tag):
        assert factormap.verify_equivariance(prefix, k, 1) == (value, (value + 1) % (1 << k)), (n, k)
        assert program_skeleton(prefix, k) == (levels, letters, value), (n, k)
    assert leaves._digits % (2 << k) == n % (2 << k), (n, k)  # the leaves fix k + 1 digits at least
    on_leaves, on_tag = (factormap.classify_fiber(prefix, k) for prefix in (leaves, tag))
    assert on_leaves.stabilization_index == skeleton_fiber_index(leaves, k, levels), (n, k)
    assert (on_tag.classification, on_tag.stabilization_index) == (
        (factormap.OMEGA_STAR_ORBIT, 0) if n == 0 else (factormap.TOEPLITZ_POINT, None)
    ), (n, k)
    assert on_tag.sigma_preimage_letters == on_leaves.sigma_preimage_letters, (n, k)


@pytest.mark.parametrize("k", range(1, 13))
def test_single_window_scan_matches_the_reference(k):
    # the closed forms at the tag's start and at the digits of the leaves of the same letters, against the scan
    # and the desubstitution at every shift below 2^12 up to depth 10; then one-letter mutations of seeded
    # windows, off the language with the language test's message at both entry points
    if k <= 10:
        for n in range(1 << 12):
            assert_the_routes_match_the_scan(n, k)
    rng = random.Random(100 + k)
    window = 1 << (k + 2)
    for trial in range(20):
        start = rng.randrange(0, 4096)
        codes = CODES[start : start + window]
        if trial:
            codes = mutate(codes, rng.randrange(window), rng)
        if off_the_language(codes):
            want = f"the {window} letters are not a factor of the fixed point"
        else:
            levels, letters = reference_skeleton_levels(codes, k)
            want = levels, letters, (1 << k) - levels[-1]
        assert program_skeleton(SymbolicPrefix(codes), k) == want


@pytest.mark.parametrize("shift", [0, (1 << 20) - (1 << 18)])
def test_deep_single_window_matches_the_reference(shift):
    tag = grigorchuk_prefix(1 << 20).shifted(shift)
    levels, letters = reference_skeleton_levels(tag.codes, 16)
    for prefix in (tag, SymbolicPrefix(tag.codes)):
        assert program_skeleton(prefix, 16) == (levels, letters, (1 << 16) - levels[-1])


def test_ten_thousand_shifts_match_the_per_shift_loop():
    shifts = 10_000
    codes = grigorchuk_prefix(1 << 20).codes[777 : 777 + shifts + (1 << 12)]
    assert program_encoding(codes, 10, shifts) == reference_encoding(codes, 10, shifts)
    broken = mutate(codes, 9000, random.Random(10))
    assert off_the_language(broken)
    assert program_encoding(broken, 10, shifts) == "the 14096 letters are not a factor of the fixed point"


def test_all_shift_encoder_short_prefix():
    # the tag and the letters alike, before any letter is read
    message = "^skeleton at depth 4 over shifts 0..40 needs prefix length 104, have 100$"
    for prefix in (grigorchuk_prefix(100), SymbolicPrefix(CODES[:100])):
        with pytest.raises(errors.InsufficientDataError, match=message) as exc:
            factormap.verify_equivariance(prefix, 4, 40)
        assert exc.value.required_length == 40 + 64


# ---------------------------------------------------------------------------
# Factor-map digits by desubstitution

NEXT = {"a": "c", "b": "d", "c": "b", "d": "c"}
BIT = {letter: 1 << i for i, letter in enumerate("abcd")}
LETTER_BITS = bytes(BIT.get(chr(i), 0) for i in range(256))
# the letters whose next lies in the set
PULLED_BACK = bytes(sum(BIT[l] for l in "abcd" if s & BIT[NEXT[l]]) for s in range(256))


def desubstitution_value(codes, k):
    """The first k digits of f(x), read from x's first 2^(k+1) letters as sets.

    An odd position holds a and the letter at 2m is next(letter at m), so
    at each level the sets of one parity class must all hold a, and the
    other class pulled back through next is the next level.  Exactly one
    parity passes: of two neighbours in the even class one is next(a) = c,
    and no set holding c holds a.  Digit i is 0 for an odd start and 1 for
    an even one, since shifting x by n starts it at position n + 1.
    """
    sets = decode_codes(codes).encode().translate(LETTER_BITS)
    value = 0
    for i in range(k):
        paths = []
        for digit in (0, 1):
            a_class, other = sets[digit::2], sets[1 - digit :: 2]
            if all(s & BIT["a"] for s in a_class):
                paths.append((digit, other.translate(PULLED_BACK)))
        assert len(paths) == 1, f"{len(paths)} feasible parities at level {i}"
        digit, sets = paths[0]
        assert 0 not in sets, f"an empty set at level {i}"
        value |= digit << i
    return value


@pytest.mark.parametrize("k", [8, 12])
def test_desubstitution_digits_match_the_skeleton_encoding(k):
    rng = random.Random(300 + k)
    shifts = [*range(200), *rng.sample(range(200, 1 << 16), 60)]
    prefix = grigorchuk_prefix((1 << 16) + (1 << (k + 2)))
    letters = SymbolicPrefix(prefix.codes)
    values = factormap.verify_equivariance(prefix, k, 1 << 16)
    assert factormap.verify_equivariance(letters, k, 1 << 16) == values
    for n in shifts:
        window = prefix.codes[n : n + (1 << (k + 1))]
        value = desubstitution_value(window, k)
        assert value == values[n] == n % (1 << k), n
        if n % 20 == 0:
            for route in (prefix, letters):
                assert factormap.encode_fG(route.shifted(n), k).value.value == value, n
    # seeded windows at shifts up to 2^60, and one-letter mutations of them: the tag, the leaves of its letters,
    # the scan and the desubstitution agree at every entry point, or each gives the language test's message.
    # A letter anywhere is most often off the language; the one letter of valuation k + 2 or more, b, c or d,
    # may be any of them, which another shift of the same class mod 2^(k+2) spells
    window, outcomes = 1 << (k + 2), {"factor": 0, "message": 0}
    for _ in range(30):
        n = rng.randrange(1 << 60)
        tag = FixedPointWindow(n, window)
        assert program_skeleton(tag, k)[2] == n % (1 << k)
        deep, j = bytearray(tag.codes), -(n + 1) % window  # n + j + 1 = 0 mod 2^(k+2)
        deep[j] = rng.choice([code for code in (1, 2, 3) if code != deep[j]])
        for codes in (tag.codes, mutate(tag.codes, rng.randrange(window), rng), deep):
            got = digits_at_every_entry_point(SymbolicPrefix(codes), k)
            if off_the_language(codes):
                assert got == f"the {window} letters are not a factor of the fixed point", n
                outcomes["message"] += 1
                continue
            levels, letter_codes = reference_skeleton_levels(codes, k)
            value = desubstitution_value(codes[: 1 << (k + 1)], k)
            assert got == (levels, letter_codes, value, skeleton_fiber_index(SymbolicPrefix(codes), k, levels)), n
            if codes is tag.codes:
                assert got[:3] == program_skeleton(tag, k) and value == n % (1 << k), n
            outcomes["factor"] += 1
    assert outcomes["message"] and outcomes["factor"] >= 60, outcomes


def digits_at_every_entry_point(prefix, k):
    """period_skeleton's levels and letter codes, the value of encode_fG and verify_equivariance, and
    classify_fiber's index, over the 2^(k+2) letters of ``prefix``; or the one message that each raises."""
    # the equivariance of shifts 0..2^(k+1) at depth k - 1 reads the same letters, and its values step by one
    got, shifts = [], 1 << (k + 1)
    for entry in (
        lambda: program_skeleton(prefix, k),
        lambda: factormap.verify_equivariance(prefix, k - 1, shifts),
        lambda: factormap.classify_fiber(prefix, k).stabilization_index,
    ):
        try:
            got.append(entry())
        except errors.NotInSubshiftError as exc:
            got.append(str(exc))
    if all(isinstance(answer, str) for answer in got) and len(set(got)) == 1:
        return got[0]
    (levels, letters, value), values, index = got
    assert values == tuple((value + j) % (1 << (k - 1)) for j in range(shifts + 1))
    return levels, letters, value, index


# ---------------------------------------------------------------------------
# Fiber classification

OMEGA_TEXT = grigorchuk_prefix(1 << 20).text


def fiber_outcome(classify, prefix, K):
    """(index, preimage letters) of ``prefix``, or the type and text of the error raised first."""
    try:
        return classify(prefix, K)
    except errors.OdoshiftError as exc:
        return type(exc), str(exc)


def program_fiber(prefix, K):
    report = factormap.classify_fiber(prefix, K)
    on_orbit = report.classification == factormap.OMEGA_STAR_ORBIT
    assert on_orbit == (report.stabilization_index is not None)
    return report.stabilization_index, report.sigma_preimage_letters


def reference_fiber(prefix, K):
    letters = factormap.sigma_preimage_letters(prefix)  # the language test first: the scan reads factors only
    return skeleton_fiber_index(prefix, K), letters


def fiber_windows(K, rng):
    """Texts of at least ``skeleton_window(K)`` letters: shifts of the fixed point, letters before it,
    one-letter mutations and reconstructed skeletons."""
    window = toeplitz.skeleton_window(K)
    shifts = [*range(300), *rng.sample(range(300, len(OMEGA_TEXT) - window), 20)]
    texts = [OMEGA_TEXT[n : n + window] for n in shifts]
    # the letters left of the fixed point in the two-sided points t.omega, t in bcd, read right to left
    befores = ["b", "c", "d", "ab", "cab", "acab"]
    for j in {1 << (K - 1), (1 << (K - 1)) + 1, max(1, (1 << (K - 1)) - 1)}:
        befores += [OMEGA_TEXT[: j - 1][::-1] + t for t in "bcd"]
    texts += [before + OMEGA_TEXT[:window] for before in befores]
    for _ in range(4):
        residues = [rng.randint(1, 2)]
        while len(residues) < K + 2:
            residues.append(residues[-1] + rng.randint(0, 1) * (1 << len(residues)))
        texts.append(reconstruct_from_skeleton(residues, window, tail_letter=rng.choice("bcd")).text)
    for _ in range(12):
        text = rng.choice(texts)
        i = rng.randrange(window)
        texts.append(text[:i] + rng.choice("abcd".replace(text[i], "")) + text[i + 1 :])
    return texts


@pytest.mark.parametrize("K", range(1, 13))
def test_fiber_matches_the_skeleton_rule_on_the_skeleton_window(K):
    window = toeplitz.skeleton_window(K)
    outcomes = {"index": 0, "error": 0}
    for text in fiber_windows(K, random.Random(700 + K)):
        prefix = parse_prefix(text[:window])
        reference = fiber_outcome(reference_fiber, prefix, K)
        assert fiber_outcome(program_fiber, prefix, K) == reference, text[:64]
        outcomes["index"] += isinstance(reference[0], int)
        outcomes["error"] += isinstance(reference[0], type)
    assert outcomes["index"] and outcomes["error"], outcomes


# ---------------------------------------------------------------------------
# Spectral sums


def reference_spectral_sum(positions, theta, window):
    positions = np.array(positions, dtype=np.float64)
    phase = -2.0 * math.pi * (theta.numerator / theta.denominator)
    return float(abs(np.exp(1j * phase * positions).sum())) / window


def reference_residue_sum(positions, theta, window):
    """The residue-class sum with the counts taken by bincount of the occurrence positions.

    Each residue r with count c adds c e(-p r / q), and the real and the
    imaginary parts are each one ``math.fsum``: the sum ``spectral_scan``
    defines, so the same integer counts give the same magnitude.
    """
    p, q = theta.numerator % theta.denominator, theta.denominator
    counts = np.bincount(np.array(positions, dtype=np.int64) % q).tolist()
    turns = [(c, math.tau * (p * r % q / q)) for r, c in enumerate(counts) if c]
    total = complex(math.fsum(c * math.cos(t) for c, t in turns), math.fsum(c * math.sin(t) for c, t in turns))
    return abs(total) / window


@pytest.mark.parametrize("window", [1000, 1 << 20])
@pytest.mark.parametrize("word", ["a", "ca"])
def test_row_sums_count_the_residues_exactly(window, word):
    prefix = grigorchuk_prefix((1 << 20) + 1)
    thetas = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), Fraction(1, window + 1)]
    samples = ergodic.spectral_scan(prefix, thetas, word, window)
    positions = occurrence_positions(prefix, word, window)
    # the same integer counts give the same floating-point sum, bit for bit
    assert [s.magnitude for s in samples] == [reference_residue_sum(positions, t, window) for t in thetas]


ROW = 1024  # the least row width of the numpy residue counts this checks against


@pytest.mark.parametrize("window", [ROW - 1, ROW, ROW + 1, 3 * ROW + 1])
@pytest.mark.parametrize("word", ["a", "ca"])
def test_residue_counts_match_at_the_row_width(window, word):
    # denominators below, at and above the row width, and the window itself
    prefix = grigorchuk_prefix(4 * ROW)
    thetas = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(7, 1000),
              Fraction(3, 1025), Fraction(1, window)]
    samples = ergodic.spectral_scan(prefix, thetas, word, window)
    positions = occurrence_positions(prefix, word, window)
    assert [s.magnitude for s in samples] == [reference_residue_sum(positions, t, window) for t in thetas]


@pytest.mark.parametrize("window", [1 << 12, 1 << 16])
@pytest.mark.parametrize("word", ["a", "ca", "acab"])
def test_residue_class_sum_matches_the_exponential_sum(window, word):
    prefix = grigorchuk_prefix((1 << 16) + 8)
    thetas = [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(3, 8),
        Fraction(-1, 5),
        Fraction(1, window + 1),
        Fraction(7, 3 * window),
    ]
    samples = ergodic.spectral_scan(prefix, thetas, word, window)
    positions = occurrence_positions(prefix, word, window)
    for theta, sample in zip(thetas, samples):
        assert sample.theta == theta
        want = reference_spectral_sum(positions, theta, window)
        assert abs(sample.magnitude - want) <= 1e-9, theta


BLOCK = ergodic._PLANE_BLOCK


def block_edge_prefix(name):
    """A prefix long enough for every block-edge window, and a word it never holds."""
    length = 2 * BLOCK + 5 + 13
    if name == "period_doubling":
        return substitution.fixed_point_prefix(SUBSTITUTIONS["period_doubling"], "a", length), "bb"
    omega = grigorchuk_prefix(length + 7)
    if name == "shifted":
        return omega.shifted(7), "aa"
    return SymbolicPrefix(omega.codes[:length]), "aa"  # no fixed-point start: the bitsets count


@pytest.mark.parametrize("name", ["shifted", "letters", "period_doubling"])
def test_counts_and_spectra_match_the_oracle_at_block_edges(name):
    prefix, non_factor = block_edge_prefix(name)
    # each factor starts before the first block edge and, from 2 letters on, ends after it
    starts = {size: BLOCK - (size + 1) // 2 for size in (1, 2, 7, 14)}
    factors = [decode_codes(prefix.codes[i : i + size]) for size, i in starts.items()]
    thetas = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2 * BLOCK + 7)]
    for window in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5):
        for word in [*factors, non_factor]:
            positions = occurrence_positions(prefix, word, window)
            assert ergodic.cylinder_frequency(prefix, word, window).count == len(positions), (word, window)
            assert (word == non_factor) == (positions == []), (word, window)
            samples = ergodic.spectral_scan(prefix, thetas, word, window)
            assert [s.magnitude for s in samples] == [reference_residue_sum(positions, t, window) for t in thetas]


KERNEL_LENGTH = BLOCK + 1000  # two build passes, the second a short one


KERNEL_PREFIXES = ["fixed_point", "shifted", "period_doubling", "bytearray"]


def kernel_prefix(name):
    """A prefix built by one of the roads to the occurrence bitsets."""
    omega = grigorchuk_prefix(KERNEL_LENGTH + 7)
    if name == "shifted":
        return omega.shifted(7)
    if name in SUBSTITUTIONS:  # the letters a and b alone
        return substitution.fixed_point_prefix(SUBSTITUTIONS[name], "a", KERNEL_LENGTH)
    if name == "bytearray":
        return SymbolicPrefix(bytearray(omega.codes[:KERNEL_LENGTH]))
    return omega


def seeded_words(prefix, count, seed):
    """Words of 1 to 14 letters with a window each: factors, factors with a letter changed, random words."""
    rng = random.Random(seed)
    letters = "abcd"
    for i in range(count):
        size = rng.randint(1, 14)
        start = rng.randrange(len(prefix) - size)
        word = list(decode_codes(prefix.codes[start : start + size]))
        if i % 3 == 1:
            word[rng.randrange(size)] = rng.choice(letters)
        elif i % 3 == 2:
            word = rng.choices(letters, k=size)
        yield "".join(word), rng.randint(1, len(prefix) - size + 1)


@pytest.mark.parametrize("name", KERNEL_PREFIXES)
def test_bitset_counts_match_bytes_find(name):
    prefix = kernel_prefix(name)
    for word, window in seeded_words(prefix, 60, seed=len(name)):
        positions = occurrence_positions(prefix, word, window)
        assert ergodic.cylinder_frequency(prefix, word, window).count == len(positions), (word, window)


@pytest.mark.parametrize("name", KERNEL_PREFIXES)
def test_magnitudes_match_the_numpy_pairwise_sum(name):
    prefix = kernel_prefix(name)
    # p stays small when q exceeds the window: the numpy turns n * (p / q) mod 1 are off by about
    # n * p / q * 2^-53, where spectral_scan takes p * n mod q exactly
    for word, window in seeded_words(prefix, 12, seed=100 + len(name)):
        thetas = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(-3, 8), Fraction(5, 16), Fraction(1, 17),
                  Fraction(7, 1000), Fraction(3, window), Fraction(1, window + 1), Fraction(2, 3 * window + 1)]
        samples = ergodic.spectral_scan(prefix, thetas, word, window)
        reference = pairwise_spectral_scan(prefix, thetas, word, window)
        for theta, sample, want in zip(thetas, samples, reference):
            assert abs(sample.magnitude - want) <= 1e-12, (word, window, theta)


@pytest.mark.parametrize("window", [1000, 4099])
@pytest.mark.parametrize("word", ["a", "ca", "bad"])
def test_comb_and_reading_each_start_count_alike(window, word, monkeypatch):
    # denominators on both sides of the comb's limit, each counted by both paths
    prefix = grigorchuk_prefix(4200)
    comb_max = ergodic._COMB_MAX
    thetas = [Fraction(1, 3), Fraction(5, comb_max - 1), Fraction(3, comb_max), Fraction(2, comb_max + 1),
              Fraction(7, 2 * comb_max + 3)]
    positions = occurrence_positions(prefix, word, window)
    want = [reference_residue_sum(positions, t, window) for t in thetas]
    assert [s.magnitude for s in ergodic.spectral_scan(prefix, thetas, word, window)] == want
    for forced in (0, 2 * comb_max + 3):
        monkeypatch.setattr(ergodic, "_COMB_MAX", forced)
        assert [s.magnitude for s in ergodic.spectral_scan(prefix, thetas, word, window)] == want, forced


# ---------------------------------------------------------------------------
# Counts on the fixed point, by desubstitution

FIXED_LENGTH = (1 << 16) + 64
# odd and even windows, 2^k - 1, 2^k and 2^k + 1 among them
FIXED_WINDOWS = (1, 2, 3, 1000, 1001, (1 << 12) - 1, 1 << 12, (1 << 12) + 1, (1 << 15) + 1)


def untagged(prefix):
    """The letters of ``prefix`` in a prefix with no fixed-point start: counts on it run the bitsets."""
    return SymbolicPrefix(prefix.codes)


def fixed_point_words(omega, count, seed):
    """aa and bc, which never occur, and factors of 1 to 40 letters, 30% of them with one letter changed."""
    rng = random.Random(seed)
    words = ["aa", "bc"]
    for _ in range(count):
        size = rng.randint(1, 40)
        start = rng.randrange(len(omega) - size)
        word = list(decode_codes(omega.codes[start : start + size]))
        if rng.random() < 0.3:
            j = rng.randrange(size)
            word[j] = rng.choice([letter for letter in "abcd" if letter != word[j]])
        words.append("".join(word))
    return words


@pytest.mark.parametrize("shift", [0, 1, 7, (1 << 12) - 1, (1 << 12) + 1])
def test_fixed_point_counts_match_the_bitsets_and_bytes_find(shift):
    omega = grigorchuk_prefix(FIXED_LENGTH)
    tagged = omega.shifted(shift) if shift else omega
    plain = untagged(tagged)
    assert (tagged.fixed_point_start, plain.fixed_point_start) == (shift, None)
    for word in fixed_point_words(omega, 40, seed=shift):
        for window in FIXED_WINDOWS:
            want = len(occurrence_positions(plain, word, window))
            assert ergodic.cylinder_frequency(plain, word, window).count == want, (word, window)
            assert ergodic.cylinder_frequency(tagged, word, window).count == want, (word, window)


def test_fixed_point_count_reads_letter_sets():
    # words of letter sets, each start checked letter by letter against the generated codes
    rng = random.Random(20261019)
    codes = grigorchuk_prefix(3000).codes
    for _ in range(300):
        sets = bytes(rng.randrange(16) for _ in range(rng.randint(0, 9)))
        n = rng.randint(0, 3000 - len(sets))
        want = sum(all(s >> codes[i + j] & 1 for j, s in enumerate(sets)) for i in range(n))
        assert language.fixed_point_count(sets, n) == want, (sets, n)


# starts around every power of two up to 2^200, 10^18 among them: the one-set count's last group of three
# halvings is cut at every bit length mod 3
HALVING_STARTS = sorted({0, 1, 10**18, *(n for k in range(201) for n in ((1 << k) - 1, 1 << k, (1 << k) + 1))})


# q for every word and window: odd, even, powers of two and the comb's limit; four more cycle through 1..128
RESIDUE_QS = (1, 2, 3, 64, 127, 128)


def test_fixed_point_count_equals_the_halving_recursion():
    # every nonempty one-set word, and seeded words of 1 to 12 sets: each holding a factor's
    # letters, or any sets, the empty one among them
    rng = random.Random(20261020)
    codes = grigorchuk_prefix(4096).codes
    words = [bytes((s,)) for s in range(1, 16)]
    for _ in range(40):
        size = rng.randint(1, 12)
        start = rng.randrange(len(codes) - size)
        words.append(bytes(1 << code | rng.randrange(16) for code in codes[start : start + size]))
        words.append(bytes(rng.randrange(16) for _ in range(size)))
    assert any(0 in sets for sets in words)
    # the residue counts at one start in eight, which falls on 2^k - 1, 2^k and 2^k + 1 in turn, each at the
    # next q of RESIDUE_QS and four seeded ones: the oracle at every start would take about 12 s more
    qs = itertools.cycle((*RESIDUE_QS, *rng.sample(range(4, 127), 4)))
    for sets in words:
        # the oracle halves n to 0 one call at a time, so longer words take the starts up to 2^62 and 10^18
        starts = HALVING_STARTS if len(sets) == 1 else [n for n in HALVING_STARTS if n.bit_length() <= 63]
        for i, n in enumerate(starts):
            assert language.fixed_point_count(sets, n) == halving_fixed_point_count(sets, n), (sets, n)
            if i % 8 == 0:
                q = next(qs)
                want = halving_residue_counts(sets, n, q)
                assert language.fixed_point_residue_counts(sets, n, q) == want, (sets, n, q)


@pytest.mark.parametrize("sets, n, q", [(b"\x04", -1, None), (b"\x01", -5, None), (b"\x01\x02", -1, None),
                                        (b"", -2, None), (b"\x04", -1, 3), (b"\x01\x02", -7, 2)])
def test_counts_over_a_negative_number_of_starts_raise(sets, n, q):
    # the one-set tail would spin on n >> k == -1, and b"\x01\x02" prunes the halves that keep n < 0
    with pytest.raises(errors.InvalidInputError, match=f"got {n}$"):
        if q is None:
            language.fixed_point_count(sets, n)
        else:
            language.fixed_point_residue_counts(sets, n, q)


def test_counting_the_as_of_10_to_the_18_letters_reads_no_letter():
    start = time.perf_counter()
    assert language.fixed_point_count(b"\x01", 10**18) == 5 * 10**17
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "word, window, length, error",
    [
        ("", 16, 64, errors.InvalidInputError),
        ("a", 0, 64, errors.InvalidInputError),
        ("a", -3, 64, errors.InvalidInputError),
        ("acab", 62, 64, errors.InsufficientDataError),
        ("ab", 64, 64, errors.InsufficientDataError),
        ("ax", 16, 64, errors.InvalidInputError),
    ],
)
def test_both_count_paths_raise_alike(word, window, length, error):
    tagged = grigorchuk_prefix(length)
    raised = []
    for prefix in (tagged, untagged(tagged), tagged.shifted(1)):
        with pytest.raises(error) as exc:
            ergodic.cylinder_frequency(prefix, word, window)
        raised.append((str(exc.value), getattr(exc.value, "required_length", None)))
    # the shifted prefix holds one letter fewer, so only a shortage reads differently
    assert raised[0] == raised[1]
    if error is errors.InsufficientDataError:
        assert raised[0][1] == window + len(word) - 1 == raised[2][1]
    else:
        assert raised[2] == raised[0]


@pytest.mark.parametrize("shift", [0, 1, 7, (1 << 12) - 1, (1 << 12) + 1])
def test_residue_counts_match_the_comb_and_a_letter_scan(shift):
    # counts per class mod q of the starts in the window, relative to its start, three ways: by
    # desubstitution from the fixed-point start, by the comb over the occurrence bits, and by bytes.find
    omega = grigorchuk_prefix(FIXED_LENGTH)
    tagged = omega.shifted(shift) if shift else omega
    plain = untagged(tagged)
    cycle = itertools.cycle(range(1, 129))
    for word in fixed_point_words(omega, 20, seed=100 + shift):
        codes = encode_letters(word)
        sets = language.letter_sets(codes)
        for window in FIXED_WINDOWS:
            positions = occurrence_positions(plain, word, window)
            bits = ergodic._occurrence_bits(plain, codes, window)
            for q in (*RESIDUE_QS, *(next(cycle) for _ in range(4))):
                want = [0] * q
                for n in positions:
                    want[n % q] += 1
                assert ergodic._comb_counts(bits, window, q) == want, (word, window, q)
                assert ergodic._fixed_point_counts(sets, shift, window, q) == want, (word, window, q)


def test_residue_counts_read_letter_sets():
    # words of letter sets, the empty one among them, each start checked letter by letter
    rng = random.Random(20261021)
    codes = grigorchuk_prefix(3000).codes
    for _ in range(300):
        sets = bytes(rng.randrange(16) for _ in range(rng.randint(0, 9)))
        n, q = rng.randint(0, 3000 - len(sets)), rng.randint(1, 128)
        want = [0] * q
        for i in range(n):
            want[i % q] += all(s >> codes[i + j] & 1 for j, s in enumerate(sets))
        assert language.fixed_point_residue_counts(sets, n, q) == want, (sets, n, q)


def test_residue_counts_sum_to_the_count():
    # over starts up to 2^62 and past it, where no letter could be read
    rng = random.Random(20261022)
    for sets in (b"\x01", b"\x04", b"\x01\x04\x01\x02", b"\x0f\x05", bytes([1, 8, 1, 4, 1, 2, 1, 4])):
        for n in rng.sample(HALVING_STARTS, 12):
            q = rng.randint(1, 128)
            counts = language.fixed_point_residue_counts(sets, n, q)
            assert len(counts) == q and sum(counts) == language.fixed_point_count(sets, n), (sets, n, q)


@pytest.mark.parametrize("shift", [0, 1, 7, (1 << 12) - 1, (1 << 12) + 1])
def test_spectra_on_the_fixed_point_equal_those_of_its_letters(shift):
    # bit for bit: a theta up to q = 128 counts by desubstitution on the tagged prefix and by the comb on
    # the letters; past it, and at q >= window, both read the occurrence bits
    omega = grigorchuk_prefix(FIXED_LENGTH)
    tagged = omega.shifted(shift) if shift else omega
    plain = untagged(tagged)
    for word in fixed_point_words(omega, 6, seed=200 + shift):
        for window in FIXED_WINDOWS:
            thetas = [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 8), Fraction(7, 127),
                      Fraction(3, 128), Fraction(2, 129), Fraction(1, 1000), Fraction(1, window + 1)]
            tagged_mags = [s.magnitude for s in ergodic.spectral_scan(tagged, thetas, word, window)]
            assert tagged_mags == [s.magnitude for s in ergodic.spectral_scan(plain, thetas, word, window)], (
                word, window)


# ---------------------------------------------------------------------------
# Partial and essential periods


def smallest_partial_period_or_need(prefix, n):
    """(p, None) from ``smallest_partial_period``, or (None, the required length) when it raises."""
    try:
        return toeplitz.smallest_partial_period(prefix, n), None
    except errors.InsufficientDataError as exc:
        return None, exc.required_length


@lru_cache(maxsize=None)
def periods_by_period(letters, positions, horizons):
    """The per-period oracles on the bytes ``letters``: at each 1-based position, and below each horizon."""
    prefix = SymbolicPrefix(letters)
    return ([smallest_partial_period_by_period(prefix, n) for n in positions],
            [essential_periods_by_period(prefix, h) for h in horizons])


def assert_periods_match(routes, positions, horizons):
    """Both answers on each route, a window and the same letters with no start, equal the oracles'."""
    want = periods_by_period(routes[-1].codes.tobytes(), tuple(positions), tuple(horizons))
    for prefix in routes:
        got = ([smallest_partial_period_or_need(prefix, n) for n in positions],
               [toeplitz.essential_periods(prefix, h) for h in horizons])
        assert got == want, (prefix, positions, horizons)


def window_routes(start, length):
    """The window of ``length`` letters at ``start``, and its letters in a prefix with no start."""
    return FixedPointWindow(start, length), SymbolicPrefix(substitution.grigorchuk_codes(length, start))


@pytest.mark.parametrize("length", range(1, 65))
def test_periods_match_the_per_period_loops_at_every_n_and_h(length):
    # at the first and last shift below 2^10 and seeded ones between, every position and every horizon
    rng = random.Random(20261044 + length)
    for start in [0, (1 << 10) - 1, *rng.sample(range(1, (1 << 10) - 1), 30)]:
        assert_periods_match(window_routes(start, length), range(1, length + 1), range(1, length // 4 + 1))


def test_periods_match_the_per_period_loops_at_shifts_up_to_2_to_the_60():
    rng = random.Random(20261045)
    for _ in range(40):
        start, length = rng.randrange(1 << rng.randint(11, 60)), rng.randint(4, 2048)
        positions = [1, length, *(rng.randint(1, length) for _ in range(3))]
        horizons = [1, length // 4, rng.randint(1, length // 4)]
        assert_periods_match(window_routes(start, length), positions, horizons)


def factor_mutations(count, seed):
    """Windows of the fixed point with one letter changed that are still factors of it, as read letters."""
    rng = random.Random(seed)
    found = {}
    while len(found) < count:
        length = rng.choice((8, 16, 32, 64, 128))
        codes = FixedPointWindow(rng.randrange(1 << 20), length).codes
        i = rng.randrange(length)
        for code in set(range(4)) - {codes[i]}:
            letters = bytes(codes[:i]) + bytes((code,)) + bytes(codes[i + 1 :])
            prefix = SymbolicPrefix(letters)
            if prefix.left_extensions:
                found[letters] = prefix
    return list(found.values())[:count]


def test_periods_match_the_per_period_loops_on_one_letter_mutations_that_stay_factors():
    for prefix in factor_mutations(30, seed=20261046):
        length = len(prefix)
        assert_periods_match((prefix,), range(1, length + 1), range(1, length // 4 + 1))


def test_essential_periods_match_the_per_period_loop_on_the_fixed_point():
    omega = grigorchuk_prefix(1 << 18)
    want = essential_periods_by_period(omega, 1 << 13)
    for prefix in (omega, SymbolicPrefix(omega.codes)):
        assert toeplitz.essential_periods(prefix, 1 << 13) == want


# ---------------------------------------------------------------------------
# The measure of a word in a class of the factor map


@pytest.mark.parametrize("j", range(7))
def test_class_measure_matches_the_fraction_recursion(j):
    # the letters, words outside the language, and factors of 2 to 40 letters at seeded shifts
    rng = random.Random(j)
    text = grigorchuk_prefix(1 << 12).text
    spans = [(rng.randrange(4000), rng.randrange(2, 41)) for _ in range(20)]
    words = [*"abcd", "aa", "bc", "acabaca", *(text[s : s + n] for s, n in spans)]
    for word in words:
        rhos = [language.class_measure(word, j, r) for r in range(1 << j)]
        assert rhos == [class_measure_by_parity(word, j, r) for r in range(1 << j)], word
        assert sum(rhos) == language.invariant_measure_cylinder(word), word


def test_one_set_masses_are_the_fraction_recursion_with_no_further_call(monkeypatch):
    # every one-set word, the empty set among them, is its own leaf in one call, and the empty word the leaf of
    # any set; a set's mass and the one-letter class masses at each depth up to 64, at seeded classes, are
    # the fraction recursion's
    calls = []
    leaves = language._leaves
    monkeypatch.setattr(language, "_leaves", lambda sets: calls.append(sets) or leaves(sets))
    for s in range(16):
        calls.clear()
        assert language._leaves(bytes((s,))) == (((0, 0, s),) if s else ()) and len(calls) == 1, s
        letters = {letter for i, letter in enumerate("abcd") if s >> i & 1}
        assert language._MASS[s] == _class_measure_of_sets([letters], 0, 0) * 14, s
    calls.clear()
    assert language._leaves(b"") == ((0, 0, 15),) and len(calls) == 1
    rng = random.Random(20261038)
    for depth in range(65):
        for j in {0, depth // 2, depth}:
            for r in {0, (1 << j) - 1, rng.randrange(1 << j), -1 - rng.randrange(1 << 70)}:
                want = tuple(_class_measure_of_sets([{letter}], j, r) * (14 << depth) for letter in "abcd")
                assert language._class_masses(depth, r, j) == want, (depth, r, j)


def test_the_words_op_mix_measures_and_counts_alike():
    # every factor of 8 to 14 letters and a seeded sample of their one-letter mutations: the measure by
    # the parity recursion, and the count over a 2^20-letter window by desubstitution and by the bitsets
    text = grigorchuk_prefix(1 << 12).text
    factors = sorted({text[i : i + n] for n in range(8, 15) for i in range(len(text) - n + 1)})
    rng = random.Random(20261024)
    mutations = sorted({word[:i] + other + word[i + 1 :] for word in factors for i in range(len(word))
                        for other in "abcd" if other != word[i]} - set(factors))
    words = factors + rng.sample(mutations, 400)
    window = 1 << 20
    tagged = grigorchuk_prefix(window + 13)
    plain = untagged(tagged)
    assert len(factors) == 200
    for i, word in enumerate(words):
        mu = language.invariant_measure_cylinder(word)
        assert mu == class_measure_by_parity(word, 0, 0), word
        count = ergodic.cylinder_frequency(tagged, word, window).count
        assert count == ergodic.cylinder_frequency(plain, word, window).count, word
        # the prefix holds every factor of up to 14 letters, so no mutation is one
        assert bool(mu) == bool(count) == (i < len(factors)), word


@pytest.mark.parametrize("j", [8, 13, 31, 64])
def test_class_measure_matches_the_fraction_recursion_past_the_word(j):
    # j past the depth of the word's leaves, so ``_class_masses`` takes r's last digits in its loop: sampled classes,
    # each a factor's own shift with random higher digits, or all zeros, all ones, or random digits
    rng = random.Random(j)
    text = grigorchuk_prefix(1 << 12).text
    spans = [(rng.randrange(4000), rng.randrange(1, 41)) for _ in range(20)]
    cases = [(text[s : s + n], (s + (rng.randrange(1 << j) << 12)) % (1 << j)) for s, n in spans]
    cases += [(word, r) for word in "abcd" for r in (0, (1 << j) - 1, rng.randrange(1 << j))]
    assert any(class_measure_by_parity(word, j, r) for word, r in cases)
    for word, r in cases:
        assert language.class_measure(word, j, r) == class_measure_by_parity(word, j, r), (word, r)


def _desubstitution_corpus():
    """Seeded calls, as (name in ``language``, args), of ``_leaves`` and of the three functions that read it."""
    rng = random.Random(20261020)
    text = grigorchuk_prefix((1 << 20) + 200).text
    words = []
    for _ in range(250):
        start, n = rng.randrange(1 << 20), rng.randint(1, 200)
        word = text[start : start + n]
        i = rng.randrange(n)
        words += [word, word[:i] + rng.choice("abcd".replace(word[i], "")) + word[i + 1 :]]
    calls = []
    for word in words:
        sets = language.word_sets(word)
        n = rng.randrange(1 << rng.randint(1, 60))
        hole = rng.randrange(len(sets) + 1)
        calls += [("class_measure", (word, 0, 0)), ("_leaves", (sets,)), ("left_letters", (sets[1:],)),
                  ("fixed_point_count", (sets, n)), ("fixed_point_count", (sets, 1 << 20)),
                  # a word that holds the empty set, and the bytes-likes that pass the cache by
                  ("left_letters", (sets[:hole] + b"\0" + sets[hole:],)),
                  ("fixed_point_count", (sets[:hole] + b"\0" + sets[hole:], n)),
                  ("left_letters", (bytearray(sets),)), ("left_letters", (memoryview(sets),)),
                  ("fixed_point_count", (bytearray(sets), n)), ("fixed_point_count", (memoryview(sets), n))]
    for word in words[:8]:
        calls += [("class_measure", (word, j, r)) for j in range(11) for r in range(1 << j)]
        # classes outside 0..2^64 - 1
        calls += [("class_measure", (word, 3, r)) for r in (-1, -6, 1 << 64, (1 << 70) + 5)]
    for word in words[:40]:
        sets = language.word_sets(word)
        calls += [("fixed_point_count", (sets, n)) for n in (0, 1, (1 << 60) - 1, 1 << 60, 1 << 64, 1 << 70)]
        calls += [("fixed_point_count", (sets, n)) for n in (-1, -(1 << 60))]
    return calls


def _outcomes(calls):
    """What each call returns, or the type and message of what it raises."""
    outcomes = []
    for name, args in calls:
        try:
            outcomes.append(getattr(language, name)(*args))
        except Exception as exc:  # an error is an outcome both sides must share
            outcomes.append((type(exc), str(exc)))
    return outcomes


def test_the_cached_desubstitution_is_the_bare_steps(monkeypatch):
    # the bare step recurses into itself and so never reaches the cache, and reads a memoryview's word as its
    # bytes; the entry points run the corpus, memoryviews as given, on a cold cache, then again after the
    # cache has been filled past its size
    calls = _desubstitution_corpus()
    as_bytes = [(name, tuple(bytes(arg) if isinstance(arg, memoryview) else arg for arg in args))
                for name, args in calls]
    monkeypatch.setattr(language, "_leaves", language._leaves_step)
    bare = _outcomes(as_bytes)
    monkeypatch.undo()
    cache = language._cached_leaves
    assert cache.cache_info().currsize == 0
    assert sum(isinstance(outcome, tuple) and outcome[:1] == (errors.InvalidInputError,) for outcome in bare) == 80
    views = [bare[i] for i, (_, args) in enumerate(calls) if isinstance(args[0], memoryview)]
    # every memoryview word is answered, by a count or a set of letters, and some answers are not empty
    assert len(views) == 1000
    assert all(isinstance(outcome, (int, frozenset)) for outcome in views)
    assert any(views)
    assert _outcomes(calls) == bare
    assert cache.cache_info().hits > 100
    for r in range(language._CACHED_CALLS + 100):
        language.fixed_point_count(bytes(1 << (r >> i & 3) for i in range(0, 14, 2)), r + 1)
    assert cache.cache_info().currsize == language._CACHED_CALLS
    assert _outcomes(calls) == bare


def _left_letter_branches(leaves):
    """Which branches of the left-letter rule ``leaves`` take: an offset t > 0, t = 0 with a set holding a,
    t = 0 with a set holding another letter, the leaf of the empty word."""
    branches = set()
    for _, t, s in leaves:
        if t:
            branches.add("t > 0")
        if not t and s & 1:
            branches.add("t = 0, a")
        if not t and s & 14:
            branches.add("t = 0, not a")
        if s == 15:
            branches.add("empty")
    return branches


def test_the_left_letter_rule_matches_the_parity_recursion():
    # seeded words of 1 to 5,000 letters at seeded shifts, a third with one or two letters changed, every
    # third read from a memoryview of its sets, and the empty word: their left letters are the letters l
    # whose l + w has positive measure by the parity recursion, and every branch of the rule is taken
    rng = random.Random(20261038)
    text = grigorchuk_prefix((1 << 16) + 5000).text
    words = [""]
    for i in range(300):
        n = rng.choice([5000, int(5000 ** rng.random())])
        word = list(text[(start := rng.randrange(1 << 16)) : start + n])
        for _ in range(rng.randint(1, 2) if i % 3 == 0 else 0):
            j = rng.randrange(n)
            word[j] = rng.choice("abcd".replace(word[j], ""))
        words.append("".join(word))
    branches = set()
    for i, word in enumerate(words):
        sets = language.word_sets(word)
        letters = language.left_letters(memoryview(sets) if i % 3 == 1 else sets)
        assert letters == left_letters_by_parity(word), word
        if word:
            assert SymbolicPrefix(encode_letters(word)).left_extensions == letters, word
        branches |= _left_letter_branches(language._leaves(sets))
    assert branches == {"t > 0", "t = 0, a", "t = 0, not a", "empty"}


def test_the_answer_caches_give_the_oracles_answers():
    # 2,000 seeded words of 1 to 64 letters, a quarter mutated, measured and counted from index 0 and from
    # one past 2^12: cold, warm (every answer a hit), and again after 4,096 other words of 6 letters,
    # asked at another window, have pushed them out of both caches
    rng = random.Random(36)
    window = 1 << 13
    omega = grigorchuk_prefix((1 << 12) + 1 + window + 63)
    prefixes = (omega, omega.shifted((1 << 12) + 1))
    text = omega.text
    words = []
    for _ in range(2000):
        n = rng.randint(1, 64)
        i = rng.randrange(len(text) - n)
        word = list(text[i : i + n])
        if rng.randrange(4) == 0:
            j = rng.randrange(n)
            word[j] = rng.choice("abcd".replace(word[j], ""))
        words.append("".join(word))
    expected = {}
    for word in set(words):
        counts = [len(occurrence_positions(prefix, word, window)) for prefix in prefixes]
        expected[word] = residue_class_measure(word), [
            ergodic.FrequencyEstimate(word, count, window, Fraction(count, window)) for count in counts]
    caches = language._word_measure, ergodic._fixed_point_frequency
    fillers = ["".join(letters) for letters in itertools.product("abcd", repeat=6)]
    for phase in ("cold", "warm", "refilled"):
        if phase == "refilled":
            for word in fillers:
                ergodic.invariant_measure_cylinder(word)
                ergodic.cylinder_frequency(omega, word, window - 1)
            assert [cache.cache_info().currsize for cache in caches] == [language._CACHED_CALLS] * 2
        misses = [cache.cache_info().misses for cache in caches]
        for word in words:
            answer = (ergodic.invariant_measure_cylinder(word),
                      [ergodic.cylinder_frequency(prefix, word, window) for prefix in prefixes])
            assert answer == expected[word], (phase, word)
        if phase == "warm":
            assert [cache.cache_info().misses for cache in caches] == misses
