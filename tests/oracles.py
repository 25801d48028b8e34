"""Test-side builders, parsers and reference forms that the package no longer needs.

- ``iterate`` applies a substitution to a whole word through the
  generator's own chunked expansion, so tests can check that expansion on
  words other than a fixed point.
- ``reconstruct_from_skeleton`` builds a prefix with prescribed
  non-constant columns: the generic Toeplitz points that fiber tests read.
- ``parse_cf`` and ``parse_spec`` read the text forms ``cf_to_text`` and
  ``spec_to_text`` write, so the text forms can be checked by round trip.
- ``factorized_cf_contains`` is CF-set membership by factorizing n, the
  reference for ``cf_contains``.
- ``residue_class_measure`` is the exact measure by sorting start positions
  into residue classes mod 2^D, with ``tail_density`` for the one offset
  that falls on a multiple of 2^D: the reference for the desubstitution.
- ``partial_period_refutation`` is the four-term test at one position, the
  reference for ``partial_period_mask``.
"""

from fractions import Fraction

import numpy as np

from odoshift import errors, odometer, substitution
from odoshift.substitution import GRIGORCHUK_ALPHABET, SymbolicPrefix, grigorchuk_letter


def iterate(sub, word, steps):
    """Apply the substitution ``steps`` times to the prefix ``word``."""
    rules = sub._code_rules(sub.alphabet.letters)
    codes = word.codes
    for _ in range(steps):
        buf = np.concatenate([codes, np.empty(int(rules[0][codes].sum()), dtype=np.uint8)])
        end = substitution._expand(rules, buf, 0, len(codes), len(codes))
        assert end == len(buf)
        codes = buf[len(codes) :]
    return SymbolicPrefix(sub.alphabet, codes)


def grigorchuk_level_letter(k):
    """l_k of the Grigorchuk skeleton: level k is filled by the letter of valuation k-1."""
    if k < 1:
        raise errors.InvalidInputError(f"level must be positive, got {k}")
    if k == 1:
        return "a"
    return {1: "c", 2: "b", 0: "d"}[(k - 1) % 3]


def reconstruct_from_skeleton(level_residues, length, tail_letter, letters=None):
    """Build a prefix with prescribed non-constant columns M'_1, M'_2, ...

    Position m gets the fill letter of the first level whose column it leaves;
    positions that track every prescribed column get ``tail_letter`` (the
    choice is not canonical, matching the non-uniqueness of such points).
    Residues must be nested: M'_{k+1} = M'_k mod 2^k.
    """
    residues = list(level_residues)
    K = len(residues)
    if K < 1:
        raise errors.InvalidInputError("need at least one level residue")
    for k, m in enumerate(residues, start=1):
        if not 1 <= m <= 1 << k:
            raise errors.InvalidInputError(f"residue {m} at level {k} outside 1..{1 << k}")
        if k >= 2 and m % (1 << (k - 1)) != residues[k - 2] % (1 << (k - 1)):
            raise errors.InvalidInputError(f"residue {m} at level {k} is not nested in {residues[k - 2]}")
    if letters is None:
        letters = [grigorchuk_level_letter(k) for k in range(1, K + 1)]
    out = []
    for m in range(1, length + 1):
        letter = tail_letter
        for k in range(1, K + 1):
            if m % (1 << k) != residues[k - 1] % (1 << k):
                letter = letters[k - 1]
                break
        out.append(letter)
    return substitution.parse_prefix("".join(out), GRIGORCHUK_ALPHABET)


def parse_cf(text):
    """CF set from the text ``cf_to_text`` writes: '1', or p^e terms joined by '*'."""
    text = text.strip()
    if text == "1":
        return odometer.CFSet({})
    exponents = {}
    for term in text.split("*"):
        base, exp = term.split("^", 1)
        exponents[int(base)] = odometer.INFINITY if exp == "inf" else int(exp)
    return odometer.CFSet(exponents)


def parse_spec(text):
    """Odometer spec from the text ``spec_to_text`` writes; a trailing '...' repeats the last factor."""
    text = text.strip()
    if text == "1":
        return odometer.OdometerSpec()
    items = [t.strip() for t in text.split(",")]
    repeat = ()
    if items[-1] == "...":
        items.pop()
        repeat = (int(items.pop()),)
    return odometer.OdometerSpec(bases=tuple(int(t) for t in items), repeat=repeat)


def factorized_cf_contains(cf, n):
    """Reference membership: every prime power of n fits under the exponent map."""
    return all(e <= cf.exponent(p) for p, e in odometer.factorize(n).items())


def tail_density(target, D):
    """Density of valuation_letter(D + d(j)) == target over j = 1, 2, ...

    d(j) = k on a set of density 2^-(k+1); the admissible k form an
    arithmetic progression mod 3, so the series sums to a rational.
    """
    if target == "a":
        return Fraction(0)
    residue = {"c": 1, "b": 2, "d": 0}[target]
    k0 = (residue - D) % 3
    # sum over k = k0, k0+3, k0+6, ... of 2^-(k+1)
    return Fraction(1, 2 ** (k0 + 1)) * Fraction(8, 7)


def residue_class_measure(word):
    """Limiting density of the 1-based starts whose letters spell ``word``.

    Starts are sorted by their residue modulo 2^D with 2^D >= 2|word|: at
    most one offset of the word then falls on a multiple of 2^D, and it
    contributes ``tail_density``; every other letter is fixed by the
    residue.  About |word|^2 letter lookups.
    """
    t = len(word)
    D = max(1, (t - 1).bit_length()) + 1
    modulus = 1 << D
    tails = {letter: tail_density(letter, D) for letter in "abcd"}
    total = 0
    for r in range(1, modulus + 1):
        weight = 1
        for i, target in enumerate(word):
            pos = r + i
            if pos % modulus == 0:
                # valuation >= D: letter varies within the residue class
                weight = tails[target]
            elif grigorchuk_letter(pos) != target:
                weight = 0
            if not weight:
                break
        total += weight
    return Fraction(total) / modulus


def partial_period_refutation(prefix, n, p):
    """First j in 1..3 whose letter at n + j p differs from the one at n, else None."""
    for j in range(1, 4):
        if prefix.at(n + j * p) != prefix.at(n):
            return j
    return None
