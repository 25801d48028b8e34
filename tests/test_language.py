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

``SymbolicPrefix.left_extensions``, the left-letter rule read off the
leaves of the same desubstitution, is checked against
``residue_class_measure`` of l + w.  The language up to 256 letters is
certified against the distinct factors of a 2^18-letter prefix.
"""

import array
import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odoshift import ergodic, errors, language
from odoshift.language import invariant_measure_cylinder
from odoshift.factormap import sigma_preimage_letters
from odoshift.substitution import (
    SymbolicPrefix,
    encode_letters,
    grigorchuk_letter,
    grigorchuk_prefix,
    parse_prefix,
)
from conftest import CACHES
from oracles import head, residue_class_measure, tail_density

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


def substring_letters(prefix: SymbolicPrefix) -> set:
    """Preimage letters by substring search; raises if the prefix is no factor."""
    text = prefix.text
    if text not in TEXT:
        raise errors.NotInSubshiftError(text)
    return {l for l in "abcd" if l + text in TEXT}


def assert_left_extensions_match_the_oracle(word):
    expected = {l for l in "abcd" if residue_class_measure(l + word) > 0}
    assert SymbolicPrefix(encode_letters(word)).left_extensions == expected, word


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
            assert_left_extensions_match_the_oracle(word)


def test_long_factors_and_their_mutations_match_the_residue_class_oracle():
    rng = random.Random(61)
    zeros = 0
    for _ in range(200):
        start = rng.randrange(1 << 15)
        word = TEXT[start : start + rng.randint(8, 600)]
        mu = invariant_measure_cylinder(word)
        assert mu > 0 and mu == residue_class_measure(word), word
        assert_left_extensions_match_the_oracle(word)
        bad = mutated(word, rng)
        mu = invariant_measure_cylinder(bad)
        assert mu == residue_class_measure(bad), bad
        assert_left_extensions_match_the_oracle(bad)
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


def test_the_words_of_positive_measure_are_the_factors_of_a_long_prefix():
    # Factor complexity: the tree of words of positive measure, grown one letter at a time
    # by left extension, holds at each length n as many words as the prefix has distinct
    # factors of length n, and every factor has positive measure, so the two sets are equal.
    # A factor of length n <= N starts a factor of length N or lies in the last N - 1 letters.
    N, text = 256, grigorchuk_prefix(1 << 18).text
    longest = {text[i : i + N] for i in range(len(text) - N + 1)}
    tail = range(len(text) - N + 1, len(text))
    tree = {l for l in "abcd" if invariant_measure_cylinder(l) > 0}
    for n in range(1, N + 1):
        factors = {word[:n] for word in longest} | {text[i : i + n] for i in tail[: len(tail) - n + 1]}
        assert len(tree) == len(factors), n
        assert all(invariant_measure_cylinder(word) > 0 for word in factors), n
        tree = {
            l + word
            for word in tree
            for l in SymbolicPrefix(encode_letters(word)).left_extensions
        }


def test_the_desubstitution_caches_keep_their_bound(monkeypatch):
    # the left extensions of a 2^20-letter prefix, whose pullbacks reach the cache once they are short,
    # then the measure and the count of 10,000 distinct words: the leaves cache holds at most _CACHED_CALLS
    # entries, no key of more than _CACHED_SETS sets reaches it, and clearing it frees no more bytes than
    # the bound the module docstring states
    longest, cache = [], language._cached_leaves
    monkeypatch.setattr(language, "_cached_leaves", lambda sets: longest.append(len(sets)) or cache(sets))
    rng = random.Random(20261020)
    text = grigorchuk_prefix((1 << 20) + 100).text
    words = set()
    while len(words) < 10_000:
        start, n = rng.randrange(1 << 20), rng.randint(1, 100)
        word = list(text[start : start + n])
        if rng.randrange(4) == 0:
            i = rng.randrange(n)
            word[i] = rng.choice("abcd".replace(word[i], ""))
        words.add("".join(word))
    tracemalloc.start()
    try:
        assert grigorchuk_prefix(1 << 20).left_extensions == frozenset("bcd")
        for word in sorted(words):
            invariant_measure_cylinder(word)
            language.fixed_point_count(language.word_sets(word), 1 << 20)
        assert cache.cache_info().currsize == language._CACHED_CALLS
        held = tracemalloc.get_traced_memory()[0]
        cache.cache_clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert max(longest) == language._CACHED_SETS
    assert 0 < freed <= 1.5e6, freed


def test_the_answer_caches_keep_their_bound():
    # the measure, then the count over a 2^20-letter window, of 10,000 seeded words of 1 to 64 letters, a
    # quarter mutated, each word made while traced and held by nothing but the cache: each answer cache fills
    # to _CACHED_CALLS entries, and clearing it frees no more bytes than its docstring states
    text = grigorchuk_prefix((1 << 20) + 64).text
    prefix = grigorchuk_prefix((1 << 20) + 63)
    count = lambda word: ergodic.cylinder_frequency(prefix, word, 1 << 20)
    questions = ((language._word_measure, invariant_measure_cylinder, 1.2e6),
                 (ergodic._fixed_point_frequency, count, 1.9e6))
    for cache, ask, bound in questions:
        rng = random.Random(20261036)
        tracemalloc.start()
        try:
            for _ in range(10_000):
                n, start = rng.randint(1, 64), rng.randrange(1 << 20)
                word = list(text[start : start + n])
                if rng.randrange(4) == 0:
                    i = rng.randrange(n)
                    word[i] = rng.choice("abcd".replace(word[i], ""))
                ask("".join(word))
            assert cache.cache_info().currsize == language._CACHED_CALLS
            held = tracemalloc.get_traced_memory()[0]
            cache.cache_clear()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < freed <= bound, (cache, freed)


def test_every_bytes_like_word_reads_as_its_bytes(monkeypatch):
    # the leaves, the left letters, the count and the residue counts of a memoryview, a bytearray and an array
    # of sets, of one set and more, short enough for the cache and longer, equal those of its bytes; the cache
    # is given only bytes keys of at most _CACHED_SETS sets
    keys, cache = set(), language._cached_leaves
    monkeypatch.setattr(language, "_cached_leaves", lambda sets: keys.add((type(sets), len(sets))) or cache(sets))
    rng = random.Random(20261021)
    text = grigorchuk_prefix(1 << 12).text
    words = ["a", "acab", "acad", text[:64], text[:65], text[100:300]]
    words += [text[s : s + n] for s, n in ((rng.randrange(3000), rng.randint(2, 99)) for _ in range(40))]
    for word in words:
        sets = language.word_sets(word)
        n, q = rng.randrange(1 << 20), rng.randint(1, 64)
        padded = memoryview(b"\x0f" + sets + b"\x0f")[1:-1]  # a view into a larger buffer
        for view in (memoryview(sets), padded, bytearray(sets), array.array("B", sets)):
            assert language._leaves(view) == language._leaves(sets), word
            assert language.left_letters(view) == language.left_letters(sets), word
            assert language.fixed_point_count(view, n) == language.fixed_point_count(sets, n), word
            assert (language.fixed_point_residue_counts(view, n, q)
                    == language.fixed_point_residue_counts(sets, n, q)), word
    assert {kind for kind, _ in keys} == {bytes} and max(size for _, size in keys) == language._CACHED_SETS


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
    prefix = parse_prefix(TEXT[:2048])
    for horizon in (2, 3, 64, 256):
        for n in range(0, 101):
            shifted = prefix.shifted(n)
            tested = head(shifted, horizon)
            assert sigma_preimage_letters(tested) == substring_letters(tested), (n, horizon)


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
    prefix = head(parse_prefix("".join(text)), horizon)
    try:
        expected = substring_letters(prefix)
    except errors.NotInSubshiftError:
        with pytest.raises(errors.NotInSubshiftError):
            sigma_preimage_letters(prefix)
    else:
        assert sigma_preimage_letters(prefix) == expected


def functions_raising(name):
    """'module.function' of each function in the package whose body has a ``raise`` naming ``name``."""
    import ast
    from pathlib import Path

    import odoshift

    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, (*scope, child.name))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                named = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(child.exc)}
                if name in named:
                    found.add(".".join((module, *scope)))
            visit(child, module, scope)

    for path in sorted(Path(odoshift.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return found


def test_only_the_load_check_and_the_one_language_test_raise_not_in_subshift():
    # the skeleton and the encoder read f off the language test; every other rejection of letters goes through it
    assert functions_raising("NotInSubshiftError") == {"cli._load_input", "toeplitz.require_factor"}


@pytest.fixture(scope="module")
def filled_caches():
    """Every cache of ``language`` and ``ergodic`` filled, before the autouse fixture of the test that asks for it:
    the sizes it left, by cache."""
    prefix = grigorchuk_prefix(1 << 12)
    assert SymbolicPrefix(encode_letters("acab")).left_extensions
    invariant_measure_cylinder("acab")
    assert invariant_measure_cylinder("aa") == 0
    ergodic.cylinder_frequency(prefix, "acab", 64)
    ergodic.spectral_scan(prefix, [Fraction(1, 3)], "acab", 64)
    return {cache: cache.cache_info().currsize for cache in CACHES}


def test_every_test_starts_with_every_cache_empty(filled_caches):
    # the autouse fixture of conftest.py empties each cache the modules keep, the one desubstitution cache
    # among them: a functools.lru_cache of language or ergodic that it misses would serve a test what an
    # earlier one left
    kept = {value for module in (language, ergodic) for value in vars(module).values() if hasattr(value, "cache_clear")}
    assert kept == set(CACHES) and language._cached_leaves in kept
    assert all(filled_caches.values()), filled_caches
    sizes = [cache.cache_info().currsize for cache in CACHES]
    assert not any(sizes), sizes
