"""Differential tests of the exact measure and of the language test built on it.

The package computes the measure by desubstitution, halving the word at
each level.  Three slow references stand in for it here:

- ``oracles.residue_class_measure`` sorts start positions by their residue
  modulo the smallest 2^D with 2^D >= 2|w|, in about |w|^2 letter lookups.
- ``reference_measure`` does the same modulo 2^(|w|+2), so its cost
  doubles with every letter.  All three must give the same exact rational.
- ``substring_letters`` decides membership by searching a 2^16-letter
  prefix of the fixed point, whose factors of length <= 256 are the whole
  language at those lengths (the fixed point is minimal).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odoshift import errors
from odoshift.ergodic import invariant_measure_cylinder
from odoshift.factormap import sigma_preimage_letters
from odoshift.substitution import (
    GRIGORCHUK_ALPHABET,
    Alphabet,
    SymbolicPrefix,
    codes_measure,
    grigorchuk_letter,
    grigorchuk_prefix,
    parse_prefix,
)
from oracles import residue_class_measure, tail_density

TEXT = grigorchuk_prefix(1 << 16).text


def reference_measure(word: str) -> Fraction:
    """The invariant measure of [word] from residues modulo 2^(|word|+2)."""
    D = len(word) + 2
    modulus = 1 << D
    total = Fraction(0)
    for r in range(1, modulus + 1):
        contribution = Fraction(1)
        for i, target in enumerate(word):
            pos = r + i
            if pos % modulus == 0:
                # valuation >= D: letter varies within the residue class
                contribution *= tail_density(target, D)
            elif grigorchuk_letter(pos) != target:
                contribution = Fraction(0)
            if contribution == 0:
                break
        total += contribution
    return total / modulus


def substring_letters(prefix: SymbolicPrefix, horizon: int) -> set:
    """Preimage letters by substring search; raises if the head is no factor."""
    head = prefix.text[: horizon - 1]
    if head not in TEXT:
        raise errors.NotInSubshiftError(head)
    return {l for l in "abcd" if l + head in TEXT}


def test_every_word_up_to_seven_letters_matches_the_reference():
    # The reference runs on every word whose one-letter-shorter prefix has
    # positive measure.  Any other word extends a word of measure 0, so its
    # reference measure is 0, and the package must say 0 too.
    factors = set()
    for length in range(1, 8):
        for letters in itertools.product("abcd", repeat=length):
            word = "".join(letters)
            mu = invariant_measure_cylinder(word)
            if length == 1 or word[:-1] in factors:
                assert mu == reference_measure(word), word
            else:
                assert mu == 0, word
            if mu > 0:
                factors.add(word)
    assert factors == {TEXT[i : i + n] for n in range(1, 8) for i in range(1 << 12)}


def mutated(word, rng):
    """``word`` with the letter at one seeded index changed."""
    j = rng.randrange(len(word))
    return word[:j] + rng.choice([c for c in "abcd" if c != word[j]]) + word[j + 1 :]


def test_every_word_up_to_seven_letters_matches_the_residue_class_oracle():
    for length in range(1, 8):
        for letters in itertools.product("abcd", repeat=length):
            word = "".join(letters)
            assert invariant_measure_cylinder(word) == residue_class_measure(word), word


def test_long_factors_and_their_mutations_match_the_residue_class_oracle():
    rng = random.Random(61)
    zeros = 0
    for _ in range(200):
        start = rng.randrange(1 << 15)
        word = TEXT[start : start + rng.randint(8, 600)]
        mu = invariant_measure_cylinder(word)
        assert mu > 0 and mu == residue_class_measure(word), word
        bad = mutated(word, rng)
        mu = invariant_measure_cylinder(bad)
        assert mu == residue_class_measure(bad), bad
        zeros += mu == 0
    assert zeros > 150  # most one-letter changes leave the language


def test_a_factor_at_the_argv_limit_is_measured_at_once():
    # 2^17 letters, about what one command-line argument holds: on a 2-vCPU
    # VM the residue-class loop took 1.5 s for the two words, the
    # desubstitution 2 ms
    rng = random.Random(62)
    start = rng.randrange(1 << 15)
    word = grigorchuk_prefix(1 << 18).text[start : start + (1 << 17)]
    bad = word[:70000] + {"b": "d", "c": "b", "d": "c"}.get(word[70000], "b") + word[70001:]
    began = time.perf_counter()
    assert invariant_measure_cylinder(word) > 0
    assert invariant_measure_cylinder(bad) == 0
    assert time.perf_counter() - began < 0.25


def test_codes_are_measured_through_their_own_alphabet():
    letters = Alphabet("xdcba")  # a is code 4, and x no letter of the fixed point
    for word in ("a", "acab", TEXT[100:400], TEXT[7:20] + "d"):
        codes = letters.encode(word)
        mu = invariant_measure_cylinder(word)
        assert codes_measure(letters, codes) == mu, word
        assert codes_measure(letters, codes[1:], first=word[0]) == mu, word
    assert codes_measure(letters, letters.encode("acxab")) == 0
    assert codes_measure(letters, letters.encode("x"), first="a") == 0


@st.composite
def seeded_words(draw):
    """A factor of length <= 12, with one letter changed half of the time."""
    length = draw(st.integers(min_value=1, max_value=12))
    start = draw(st.integers(min_value=0, max_value=(1 << 12)))
    word = list(TEXT[start : start + length])
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=length - 1))
        word[j] = draw(st.sampled_from([c for c in "abcd" if c != word[j]]))
    return "".join(word)


@settings(max_examples=40, deadline=None)
@given(word=seeded_words())
def test_measure_matches_the_reference(word):
    assert invariant_measure_cylinder(word) == reference_measure(word)


def test_a_word_has_the_measure_of_its_left_extensions():
    # shift invariance: mu[w] = sum over letters l of mu[l w], so a head is
    # outside the language exactly when no letter extends it, which is what
    # sigma_preimage_letters tests; test_ergodic.py checks the right extensions
    words = ["".join(w) for n in range(1, 7) for w in itertools.product("abcd", repeat=n)]
    rng = random.Random(60)
    for _ in range(200):
        start = rng.randrange(1 << 15)
        words.append(TEXT[start : start + rng.randint(60, 300)])
    for word in words:
        assert sum(invariant_measure_cylinder(l + word) for l in "abcd") == invariant_measure_cylinder(word), word


def test_preimage_letters_match_substring_search_along_the_orbit():
    prefix = parse_prefix(TEXT[:2048], GRIGORCHUK_ALPHABET)
    for horizon in (2, 3, 64, 256):
        for n in range(0, 101):
            shifted = prefix.shifted(n)
            assert sigma_preimage_letters(shifted, horizon) == substring_letters(shifted, horizon), (n, horizon)


@settings(max_examples=60, deadline=None)
@given(
    shift=st.integers(min_value=0, max_value=1 << 15),
    horizon=st.integers(min_value=2, max_value=256),
    mutate=st.one_of(st.none(), st.tuples(st.integers(min_value=0, max_value=255), st.sampled_from("abcd"))),
)
def test_preimage_letters_match_substring_search(shift, horizon, mutate):
    text = list(TEXT[shift : shift + 512])
    if mutate is not None:
        j, letter = mutate
        text[j] = letter
    prefix = parse_prefix("".join(text), GRIGORCHUK_ALPHABET)
    try:
        expected = substring_letters(prefix, horizon)
    except errors.NotInSubshiftError:
        with pytest.raises(errors.NotInSubshiftError):
            sigma_preimage_letters(prefix, horizon)
    else:
        assert sigma_preimage_letters(prefix, horizon) == expected
