"""Differential tests of the numpy generator, oracle, all-shift encoder and spectral sum.

The straightforward algorithms these replaced stand in for the program here:

- ``reference_fixed_point`` grows the fixed point by joining the rule
  strings of the whole current word, one substitution step at a time.
  Under a -> ab, b -> b that takes one step per letter, so
  ``reference_self_expansion`` appends the image of one letter of
  x = sub(x) at a time, for every substitution.
- ``reference_skeleton_levels`` scans one window level by level, reshaping
  its first 4 * 2^k letters into four rows; ``reference_encoding`` runs it
  once per shift, as ``verify_equivariance`` did.
- ``desubstitution_value`` reads the dyadic digits of the factor map from
  the other side: from the parity of the start at each level of the
  desubstitution, not from the period skeleton.
- ``reference_spectral_sum`` adds one complex exponential per occurrence.

Each must agree exactly with the package, except the spectral sum, whose
terms are grouped differently and so agree to 1e-9.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from odoshift import ergodic, errors, factormap, substitution, toeplitz
from oracles import iterate
from odoshift.substitution import (
    GRIGORCHUK_ALPHABET,
    Alphabet,
    Substitution,
    SymbolicPrefix,
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


def rules(**rules):
    return Substitution(Alphabet("".join(rules)), rules)


CHAIN_LETTERS = "abcdefghijklmnopqrstuvwxyz"
SUBSTITUTIONS = {
    "grigorchuk": substitution.grigorchuk_substitution(),
    "period_doubling": rules(a="ab", b="aa"),
    "thue_morse": rules(a="ab", b="ba"),
    "fibonacci": rules(a="ab", b="a"),
    "lengths_1_to_4": rules(a="abcd", b="c", c="da", d="bca"),
    "linear_growth": rules(a="ab", b="b"),
    # a -> ab, b -> c, ..., y -> z, z -> zz: the seed reaches the doubling z after 25 steps
    "chain_to_doubling": rules(**{**dict(zip(CHAIN_LETTERS, CHAIN_LETTERS[1:])), "a": "ab", "z": "zz"}),
}
# the string-join step needs one step per letter of linear growth
STRING_JOIN = sorted(set(SUBSTITUTIONS) - {"linear_growth"})

CHUNK = substitution._CHUNK
# 2^18 + 3 letters: past the squared image of the seed (2^17 - 1 letters for
# grigorchuk), so images longer than a pass are split between passes
LENGTHS = (1, 2, 3, 4, 17, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 5 * CHUNK + 3, (1 << 18) + 3)


@pytest.mark.parametrize("name", STRING_JOIN)
def test_generator_matches_the_string_join_step(name):
    sub = SUBSTITUTIONS[name]
    longest = reference_fixed_point(sub, "a", max(LENGTHS), cap=1 << 28)
    for length in LENGTHS:
        assert substitution.fixed_point_prefix(sub, "a", length).text == longest[:length], length


@pytest.mark.parametrize("name", sorted(SUBSTITUTIONS))
def test_generator_matches_the_self_expansion(name):
    sub = SUBSTITUTIONS[name]
    longest = reference_self_expansion(sub, "a", max(LENGTHS))
    for length in LENGTHS:
        assert substitution.fixed_point_prefix(sub, "a", length).text == longest[:length], length


def test_linear_growth_is_generated_a_pass_at_a_time():
    start = time.perf_counter()
    prefix = substitution.fixed_point_prefix(SUBSTITUTIONS["linear_growth"], "a", 1 << 20)
    elapsed = time.perf_counter() - start
    assert prefix.text == "a" + "b" * ((1 << 20) - 1)
    assert elapsed < 1.0


@pytest.mark.parametrize("name", sorted(SUBSTITUTIONS))
def test_iterate_matches_the_string_join_step(name):
    sub = SUBSTITUTIONS[name]
    word = parse_prefix(sub.alphabet.letters * 3, sub.alphabet)
    text = word.text
    for steps in range(6):
        assert iterate(sub, word, steps).text == text
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
    scalar = [GRIGORCHUK_ALPHABET.index(grigorchuk_letter(m)) for m in range(1, longest + 1)]
    lengths = list(range(1, 301)) + [(1 << j) + d for j in range(1, 13) for d in (-1, 1)]
    for length in lengths:
        assert substitution.grigorchuk_codes(length).tolist() == scalar[:length], length


def test_oracle_checks_the_cap(monkeypatch):
    monkeypatch.setenv(substitution.MAX_BYTES_ENV, "100")
    assert len(substitution.grigorchuk_codes(100)) == 100
    with pytest.raises(errors.ResourceLimitError) as exc:
        substitution.grigorchuk_codes(101)
    assert exc.value.required_bytes == 101


# ---------------------------------------------------------------------------
# Skeleton scan and the all-shift encoder


def reference_skeleton_levels(codes, K):
    window = 1 << (K + 2)
    if len(codes) < window:
        raise errors.InsufficientDataError("short window", required_length=window)
    levels = []
    letters = []
    prev_m = None
    for k in range(1, K + 1):
        cols = 1 << k
        block = codes[: 4 * cols].reshape(4, cols)
        nonconst = np.nonzero((block != block[0]).any(axis=0))[0]
        if len(nonconst) == 0:
            raise errors.NotInSubshiftError(
                f"window of length {4 * cols} is periodic with period {cols};"
                f" no level-{k} non-constant column exists"
            )
        if len(nonconst) > 1:
            raise errors.NotInSubshiftError(
                f"{len(nonconst)} non-constant columns at level {k}; a valid sequence has exactly one"
            )
        m = int(nonconst[0]) + 1
        if prev_m is None:
            newly = 1 if m == 2 else 2
        else:
            half = 1 << (k - 1)
            if m % half != prev_m % half:
                raise errors.NotInSubshiftError(
                    f"level-{k} column {m} is not nested in level-{k - 1} column {prev_m}"
                )
            newly = prev_m if m != prev_m else prev_m + half
        levels.append(m)
        letters.append(int(block[0, newly - 1]))
        prev_m = m
    return levels, letters


def reference_encoding(codes, k, shifts):
    """Encoded values at shifts 0..shifts, or the error of the first bad shift."""
    window = 1 << (k + 2)
    values = []
    for n in range(shifts + 1):
        try:
            levels, _ = reference_skeleton_levels(codes[n : n + window], k)
        except errors.NotInSubshiftError as exc:
            return f"window at shift {n}: {exc}"
        values.append((1 << k) - levels[-1])
    return tuple(values)


def program_encoding(codes, k, shifts):
    prefix = SymbolicPrefix(GRIGORCHUK_ALPHABET, codes)
    try:
        report = factormap.verify_equivariance(prefix, k, shifts)
    except errors.NotInSubshiftError as exc:
        return str(exc)
    modulus = 1 << k
    first = next(
        (n for n in range(shifts) if report.values[n + 1] != (report.values[n] + 1) % modulus), None
    )
    assert report.first_violation == first
    assert report.ok == (first is None)
    return report.values


CODES = substitution.grigorchuk_codes(1 << 15)


def mutate(codes, index, rng):
    out = codes.copy()
    out[index] = (out[index] + rng.randint(1, 3)) % 4
    return out


@pytest.mark.parametrize("k", range(1, 13))
def test_all_shift_encoder_matches_the_per_shift_loop(k):
    shifts = 150
    for start in (0, 1, 5, 1000):
        codes = CODES[start : start + shifts + (1 << (k + 2))]
        assert program_encoding(codes, k, shifts) == reference_encoding(codes, k, shifts)


@pytest.mark.parametrize("k", range(1, 13))
def test_mutation_fails_at_the_same_first_shift(k):
    rng = random.Random(k)
    shifts = 100
    length = shifts + (1 << (k + 2))
    raised = 0
    for _ in range(12):
        start = rng.randrange(0, 4096)
        codes = mutate(CODES[start : start + length], rng.randrange(length), rng)
        reference = reference_encoding(codes, k, shifts)
        assert program_encoding(codes, k, shifts) == reference
        raised += isinstance(reference, str)
    assert raised > 0


@pytest.mark.parametrize("k", range(1, 7))
def test_foreign_sequences_fail_at_the_same_first_shift(k):
    # random words break different levels at unordered shifts; splices of
    # two orbit windows pass some shifts and fail others
    rng = random.Random(200 + k)
    shifts = 60
    length = shifts + (1 << (k + 2))
    for letters in (2, 4):
        codes = np.array([rng.randrange(letters) for _ in range(length)], dtype=np.uint8)
        assert program_encoding(codes, k, shifts) == reference_encoding(codes, k, shifts)
    for _ in range(6):
        cut = rng.randrange(1, length)
        a, b = rng.randrange(4096), rng.randrange(4096)
        codes = np.concatenate([CODES[a : a + cut], CODES[b : b + length - cut]])
        assert program_encoding(codes, k, shifts) == reference_encoding(codes, k, shifts)


# Letters 8, 13 and 16 of the fixed point changed: each level keeps exactly one
# non-constant column, but M_2 = 1 is not nested in M_1 = 2.
UNNESTED = np.frombuffer(b"acabacabacabbcab", dtype=np.uint8) - ord("a")


def test_unnested_columns_fail_at_the_same_first_shift():
    codes = np.concatenate([UNNESTED, CODES[16:60]])
    reference = reference_encoding(codes, 2, 40)
    assert reference == "window at shift 0: level-2 column 1 is not nested in level-1 column 2"
    assert program_encoding(codes, 2, 40) == reference


@pytest.mark.parametrize("k", range(1, 13))
def test_single_window_scan_matches_the_reference(k):
    rng = random.Random(100 + k)
    window = 1 << (k + 2)
    for trial in range(20):
        start = rng.randrange(0, 4096)
        codes = CODES[start : start + window]
        if trial:
            codes = mutate(codes, rng.randrange(window), rng)
        try:
            want = reference_skeleton_levels(codes, k)
        except errors.NotInSubshiftError as exc:
            with pytest.raises(errors.NotInSubshiftError) as got:
                toeplitz.skeleton_levels_from_codes(codes, k)
            assert str(got.value) == str(exc)
        else:
            assert toeplitz.skeleton_levels_from_codes(codes, k) == want


def test_all_shift_encoder_short_prefix():
    with pytest.raises(errors.InsufficientDataError) as exc:
        toeplitz.deepest_columns(CODES[:100], 4, 40)
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
    sets = GRIGORCHUK_ALPHABET.decode(codes).encode().translate(LETTER_BITS)
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
    values = factormap.verify_equivariance(prefix, k, 1 << 16).values
    for n in shifts:
        window = prefix.codes[n : n + (1 << (k + 1))]
        value = desubstitution_value(window, k)
        assert value == values[n] == n % (1 << k), n
        if n % 20 == 0:
            assert factormap.encode_fG(prefix.shifted(n), k).value.value == value, n


# ---------------------------------------------------------------------------
# Spectral sums


def reference_spectral_sum(prefix, theta, word, window):
    mask = ergodic._occurrence_mask(prefix, word, window)
    positions = np.nonzero(mask)[0].astype(np.float64)
    phase = -2.0 * math.pi * (theta.numerator / theta.denominator)
    return float(abs(np.exp(1j * phase * positions).sum())) / window


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
    for theta, sample in zip(thetas, samples):
        assert sample.theta == theta
        want = reference_spectral_sum(prefix, theta, word, window)
        assert abs(sample.magnitude - want) <= 1e-9, theta
