"""Test-side builders, parsers and reference forms that the package no longer needs.

- ``iterate`` applies a substitution to a whole word, one join of the
  rule codes per step, so tests can check the generator's fixed point
  against sub(x) = x.
- ``head`` cuts a prefix to the h - 1 letters that a language horizon h
  reads, since ``sigma_preimage_letters`` reads every letter it is given.
- ``reconstruct_from_skeleton`` builds a prefix with prescribed
  non-constant columns: the generic Toeplitz points that fiber tests read.
- ``skeleton_fiber_index`` is the orbit index read off the period skeleton,
  with the letters checked over the skeleton's window only: the reference
  for ``classify_fiber`` on a prefix of exactly that window.
- ``residue_class_measure`` is the exact measure by sorting start positions
  into residue classes mod 2^D, with ``tail_density`` for the one offset
  that falls on a multiple of 2^D: the reference for the desubstitution.
- ``class_measure_by_parity`` is mu([w] and f = r mod 2^j) by the parity
  recursion over Fractions on sets of letters, the reference for
  ``class_measure`` and the digits of ``_class_masses``;
  ``left_letters_by_parity`` reads it at l + w, the reference for the
  left-letter rule of ``language.left_letters``.
- ``partial_period_mask`` is the four-term test at arrays of positions
  and periods, which the period oracles below are built on;
  ``partial_period_refutation``, the test at one position, is its
  reference.
- ``halving_fixed_point_count`` counts a word of letter sets on the fixed
  point by splitting it at every level down to the empty word, the
  reference for the closed-form one-set count of ``fixed_point_count``;
  ``halving_residue_counts`` carries each start's class mod q through the
  same split, the reference for ``fixed_point_residue_counts``.
- ``smallest_periods_by_period`` tests one period at a time against every
  position still unresolved, and ``essential_periods_by_period`` reads the
  first position of each period off it: the reference for
  ``essential_periods`` and for what each slice of its scan yields.
- ``smallest_partial_period_by_period`` tests one period at a time at one
  position, the reference for ``smallest_partial_period``.
- ``essential_periods_one_pass`` tests blocks of periods, each against
  every position still unresolved in one pass, where the search of
  ``essential_periods`` resolves the positions one slice of ``_BLOCK`` at
  a time.
- ``occurrence_positions`` finds the starts of a word by ``bytes.find``,
  the reference for the occurrence bitsets of ``ergodic``.
- ``occurrence_mask`` and ``pairwise_spectral_scan`` are the numpy kernel
  that ``ergodic`` used before its bitsets: a boolean mask filled in blocks
  of start positions, and the residue-class sum of ``spectral_scan`` taken
  in numpy's pairwise order, with float turns n * (p / q) mod 1 when q
  exceeds the window.  They are the reference for the magnitudes.
"""

import math
from fractions import Fraction

import numpy as np

from odoshift import errors, language, substitution, toeplitz
from odoshift.substitution import SymbolicPrefix, decode_codes, encode_letters, grigorchuk_letter


def iterate(sub, text, steps):
    """Apply the substitution ``steps`` times to the letters of ``text``, joining the images' bytes."""
    images = {ord(letter): word.encode() for letter, word in sub.rules.items()}
    letters = text.encode()
    for _ in range(steps):
        letters = b"".join(images[c] for c in letters)
    return letters.decode()


def grigorchuk_level_letter(k):
    """l_k of the Grigorchuk skeleton: level k is filled by the letter of valuation k-1."""
    if k < 1:
        raise errors.InvalidInputError(f"level must be positive, got {k}")
    if k == 1:
        return "a"
    return {1: "c", 2: "b", 0: "d"}[(k - 1) % 3]


def head(prefix, horizon):
    """The first horizon - 1 letters of ``prefix``: what a language horizon reads."""
    return SymbolicPrefix(prefix.codes[: horizon - 1])


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
    return substitution.parse_prefix("".join(out))


def skeleton_fiber_index(prefix, K):
    """The index n with shift^n(prefix) the fixed point, as the skeleton tells it; None for a Toeplitz point.

    M_k = 2^k at every level gives n = 0, and M_K = M_(K-1) gives n = M_K;
    n stands if the letters from n to the end of the skeleton's window
    decode to the fixed point's.
    """
    skeleton = toeplitz.period_skeleton(prefix, K)
    levels = skeleton.levels
    index = None
    if all(m == 1 << (k + 1) for k, m in enumerate(levels)):
        index = 0
    elif skeleton.classification == toeplitz.EVENTUALLY_CONSTANT_MK:
        index = levels[-1]
    if index is not None:
        omega = decode_codes(substitution.grigorchuk_codes(skeleton.window_used - index))
        if decode_codes(prefix.codes[index : skeleton.window_used]) != omega:
            index = None
    return index


_NEXT = {"a": "c", "b": "d", "c": "b", "d": "c"}  # letter 2m + 1 is next of letter m (0-based)
_LETTER_MEASURE = {"a": Fraction(1, 2), "b": Fraction(1, 7), "c": Fraction(2, 7), "d": Fraction(1, 14)}


def class_measure_by_parity(word, j, r):
    """mu([word] and f = r mod 2^j), f the factor map, as a Fraction.

    A start s = 2m + e of the fixed point (0-based) puts a at the letters
    i = e mod 2 of the word and next of letter m + t at letter 2t + 1 - e.
    So the word starts at s exactly when those letters may be a and the
    pullbacks of the others start at m, which is in class r >> 1 when s is
    in class r; while j > 0 the parity e is r mod 2.  Each start parity
    carries half the measure.
    """
    return _class_measure_of_sets([{letter} for letter in word], j, r)


def left_letters_by_parity(word):
    """The letters l of 'abcd' with ``class_measure_by_parity(l + word, 0, 0)`` positive."""
    return {letter for letter in "abcd" if class_measure_by_parity(letter + word, 0, 0)}


def _class_measure_of_sets(sets, j, r):
    if not all(sets):
        return Fraction(0)
    if not sets:
        return Fraction(1, 1 << j)
    if len(sets) == 1 and not j:
        return sum((_LETTER_MEASURE[letter] for letter in sets[0]), Fraction(0))
    total = Fraction(0)
    for e in (r & 1,) if j else (0, 1):
        if all("a" in s for s in sets[e::2]):
            pulled = [{letter for letter in "abcd" if _NEXT[letter] in s} for s in sets[1 - e :: 2]]
            total += _class_measure_of_sets(pulled, max(j - 1, 0), r >> 1) / 2
    return total


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


def partial_period_mask(codes, starts, p):
    """The four-term test codes[n] == codes[n + j p], j = 1..3, at 0-based ``starts``.

    ``codes`` is bytes-like; ``starts`` and ``p`` are integers or arrays that
    broadcast together."""
    codes = np.frombuffer(codes, dtype=np.uint8)
    base = codes[starts]
    ok = codes[starts + p] == base
    for j in range(2, 4):
        ok &= codes[starts + j * p] == base
    return ok


def partial_period_refutation(prefix, n, p):
    """First j in 1..3 whose letter at n + j p differs from the one at n, else None."""
    for j in range(1, 4):
        if prefix.at(n + j * p) != prefix.at(n):
            return j
    return None


def halving_fixed_point_count(sets, n):
    """The starts 0 <= i < n of the fixed point where letter i + j lies in sets[j], halved to the empty word.

    Even starts need sets[0::2] to hold a and count the pullback of
    sets[1::2] over ceil(n / 2) starts, odd starts the mirror over
    floor(n / 2); the empty word counts every start.
    """
    if not sets or not n:
        return n
    if 0 in sets:
        return 0
    count = 0
    if not sets[0::2].translate(None, language._HOLDING_A):
        count += halving_fixed_point_count(sets[1::2].translate(language._PULLBACK), (n + 1) // 2)
    if not sets[1::2].translate(None, language._HOLDING_A):
        count += halving_fixed_point_count(sets[0::2].translate(language._PULLBACK), n // 2)
    return count


def halving_residue_counts(sets, n, q):
    """counts[r]: the starts 0 <= i < n, i = r mod q, of ``halving_fixed_point_count``, the class carried.

    A start 2m + e in class r puts m in class (r - e) / 2 mod q / 2 when q
    is even, where only e = r mod 2 is possible, and in class
    (r - e) * 2^-1 mod q when q is odd.  So the two halves' counts
    interleave (q even) or land at 2t and 2t + 1 mod q (q odd); the empty
    word counts every start.
    """
    if not sets or not n:
        return [(n + q - 1 - r) // q for r in range(q)]
    if 0 in sets:
        return [0] * q
    half = q if q % 2 else q // 2
    even = odd = [0] * half
    if not sets[0::2].translate(None, language._HOLDING_A):
        even = halving_residue_counts(sets[1::2].translate(language._PULLBACK), (n + 1) // 2, half)
    if not sets[1::2].translate(None, language._HOLDING_A):
        odd = halving_residue_counts(sets[0::2].translate(language._PULLBACK), n // 2, half)
    if half < q:
        return [count for pair in zip(even, odd) for count in pair]
    inverse = (q + 1) // 2  # of 2 mod q
    return [even[r * inverse % q] + odd[(r - 1) * inverse % q] for r in range(q)]


def smallest_periods_by_period(prefix, horizon):
    """The smallest partial period up to ``horizon`` of each 0-based position below L - 3 horizon, 0 for none.

    One partial_period_mask call per p: the positions still unresolved at p
    are those whose smallest partial period exceeds p - 1, so those it
    accepts have smallest period p.
    """
    periods = np.zeros(len(prefix) - 3 * horizon, dtype=np.int64)
    unresolved = np.arange(len(periods))
    for p in range(1, horizon + 1):
        if unresolved.size == 0:
            break
        ok = partial_period_mask(prefix.codes, unresolved, p)
        periods[unresolved[ok]] = p
        unresolved = unresolved[~ok]
    return periods


def essential_periods_by_period(prefix, horizon):
    """EPSet of ``prefix`` below ``horizon`` from ``smallest_periods_by_period``: each witness is the first position."""
    found, first = np.unique(smallest_periods_by_period(prefix, horizon), return_index=True)
    witnesses = {int(p): int(n) + 1 for p, n in zip(found, first) if p}
    return toeplitz.EPSet(periods=tuple(sorted(witnesses)), witnesses=witnesses)


def smallest_partial_period_by_period(prefix, n):
    """(p, None) for the least p whose test at position n fits in the prefix and holds, one partial_period_mask call per p.

    When none does, (None, the length that testing the next p needs).
    """
    p = 1
    while n + 3 * p <= len(prefix):
        if partial_period_mask(prefix.codes, n - 1, p):
            return p, None
        p += 1
    return None, n + 3 * p


def essential_periods_one_pass(prefix, horizon):
    """EPSet of ``prefix`` below ``horizon``, each block of periods in one pass over all rows.

    A block holds as many periods as keep rows x periods within the first
    pass, which tests every position at p = 1.  A row's smallest partial
    period is the first period of the block that it accepts.
    """
    nmax = len(prefix) - 3 * horizon
    unresolved = np.arange(nmax, dtype=np.int64)
    witnesses = {}
    p = 1
    while p <= horizon and unresolved.size:
        block = np.arange(p, min(p + nmax // unresolved.size, horizon + 1))
        ok = partial_period_mask(prefix.codes, unresolved[:, None], block)
        # keep each row's first accepted period, its smallest partial period, in place
        ok[:, 1:] &= ~np.logical_or.accumulate(ok, axis=1)[:, :-1]
        heads = ok.argmax(axis=0)  # the first row whose smallest period is each p
        for j in np.flatnonzero(ok.any(axis=0)).tolist():
            witnesses[p + j] = int(unresolved[heads[j]]) + 1
        unresolved = unresolved[~ok.any(axis=1)]
        p += len(block)
    return toeplitz.EPSet(periods=tuple(sorted(witnesses)), witnesses=witnesses)


def occurrence_positions(prefix, word, window):
    """0-based starts below ``window`` of ``word`` in ``prefix``, by ``bytes.find`` from i + 1.

    The word's codes are read off "abcd", so nothing here is shared with
    ``ergodic`` or with ``encode_letters``.
    """
    target = bytes("abcd".index(letter) for letter in word)
    # a start below window ends by window + len(word) - 1
    codes = bytes(prefix.codes[: window + len(word) - 1])
    positions = []
    i = codes.find(target)
    while i != -1:
        positions.append(i)
        i = codes.find(target, i + 1)
    return positions


MASK_BLOCK = 1 << 17  # start positions compared in one pass
MASK_ROW = 1 << 10  # least start positions summed per row when counting residues


def occurrence_mask(prefix, word, window):
    """Boolean numpy mask over the 0-based starts below ``window`` of ``word``, filled in blocks."""
    codes = np.frombuffer(prefix.codes, dtype=np.uint8)
    target = encode_letters(word)
    mask = np.empty(window, dtype=bool)
    for start in range(0, window, MASK_BLOCK):
        stop = min(start + MASK_BLOCK, window)
        block = mask[start:stop]
        np.equal(codes[start:stop], target[0], out=block)
        for j in range(1, len(word)):
            block &= codes[start + j : stop + j] == target[j]
    return mask


def pairwise_spectral_scan(prefix, thetas, word, window):
    """Magnitudes of the exponential sums, the numpy way: row sums folded to q counts, pairwise sum."""
    mask = occurrence_mask(prefix, word, window)
    magnitudes = []
    for theta in map(Fraction, thetas):
        p, q = theta.numerator % theta.denominator, theta.denominator
        if q <= window:
            # rows of a multiple of q, at least MASK_ROW wide, fold to q counts; the rest of the
            # whole rows of q, and the last partial row, are added after
            width = q * -(-MASK_ROW // q)
            split, whole = window - window % width, window - window % q
            counts = mask[:split].reshape(-1, width).sum(axis=0).reshape(-1, q).sum(axis=0)
            counts += mask[split:whole].reshape(-1, q).sum(axis=0)
            counts[: window - whole] += mask[whole:]
            residues = np.flatnonzero(counts)
            weights = counts[residues]
            turns = (p * residues % q) / q
        else:
            weights = 1
            turns = np.mod(np.flatnonzero(mask) * (p / q), 1.0)
        magnitudes.append(float(abs((weights * np.exp(-2j * math.pi * turns)).sum())) / window)
    return magnitudes
