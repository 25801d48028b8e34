"""The language of the Grigorchuk fixed point, by one desubstitution per word.

Letter 2m (0-based) of the fixed point is a, and letter 2m + 1 is
next(letter m): a word starts at an even index when its letters there are
all a and the pullback of the others starts half as far in, and likewise
at an odd index.  Repeated, that split ends in one set per branch:
``_leaves`` gives the leaves (k, t, s) of the word's parity tree, and the
word starts at i = t + 2^k m exactly when letter m lies in s.  Four
questions are read off the leaves, and none reads a letter of the fixed
point:

- the count of a word's starts (``fixed_point_count``), and its count per
  class mod q (``fixed_point_residue_counts``): each leaf counts the
  letters of s among the first ceil((n - t) / 2^k), in closed form;
- the exact measure of a word in a class of the factor map
  (``class_measure``, ``invariant_measure_cylinder``): each leaf carries
  2^-k mu(s), in the class of t or spread over those of m
  (``_class_masses``).  A positive measure is the package's language test;
- the letters before a word (``left_letters``,
  ``SymbolicPrefix.left_extensions``), by the left-letter rule.  1-based
  position 2^v * odd holds F(v) (``grigorchuk_letter``): F(0) = a, and
  F(v) = d, c, b for v = 0, 1, 2 mod 3, v > 0.  The letter before start i
  is at position i, and v2(i) = v2(t) < k if t > 0: F(v2(t)).  If t = 0,
  v2(i) = k + v2(m), with m odd when its letter is not a, giving F(k), and
  m any 2^u * odd, u >= 1, when it is a, giving F(k + 1), F(k + 2),
  F(k + 3): b, c and d.  The empty word's leaf (0, 0, any) gives both;
- the factor map's digits of read letters (``factor_digits``), the low
  bits that the t of every leaf share: the same pass, ``left_extensions``.

``spells_fixed_point`` tests that letters spell the fixed point itself.

The leaves are kept: ``_leaves`` serves a bytes word of at most 64 sets
from one ``lru_cache`` of at most 4,096 entries, and a step's recursion
goes through it again, so a word's half-length pullbacks find what other
words left; any other bytes-like word is read as its bytes first.  A
word of L sets has at most L leaves; the words of letters, factors or
not, and their pullbacks had at most two, and an entry of 64 sets and two
leaves, its key and link included, took about 370 bytes under tracemalloc
on CPython 3.11, so the cache holds at most about 1.5 MB of such words (a
word of several-letter sets holds up to L leaves of 64 bytes).  The
measure of a str word of at most 64 letters, and its frequency on the
fixed point, are kept too once the checks pass (``_word_measure`` and
``ergodic._fixed_point_frequency``, 4,096 entries each, at most about
1.2 MB and 1.9 MB), so a word asked again costs one lookup; a command
that asks once gains nothing.  Over a 2^20-letter window, on a shared
2-vCPU VM, a word of 1 to 14 letters asked again is counted in about
0.6 us and measured in about 0.2 us.  Asked first after 4,096 others, a
word of 3 to 14 letters is counted in about 4 to 15 us, then measured in
1.5 to 4.5 us (6 to 20 us and 4 to 10 us when the count and the measure
each split the word); with every cache empty, in 3 to 9 us and 2 to 8 us
(3 to 8.5 us and 2 to 7 us then; in-process, see README).

A letter set is a bitmask byte, with a, b, c, d as bits 0..3: ``letter_sets``
and ``word_sets`` read codes and text into them.  ``substitution`` imports
this module when ``SymbolicPrefix.left_extensions`` is first read, so a
command that asks no such question does not compile it.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidInputError
from .substitution import _CHUNK, _outside, grigorchuk_letter

_BIT = {letter: 1 << i for i, letter in enumerate("abcd")}
# letter byte -> its set, 0 for any byte that is not a, b, c or d
_WORD_SETS = bytes(_BIT.get(chr(byte), 0) for byte in range(256))
# code -> its letter's set
_CODE_SETS = bytes(_BIT.values()).ljust(256, b"\0")
_NEXT = {"a": "c", "c": "b", "b": "d", "d": "c"}  # x_2m = next(x_m)
# Tables indexed by a set byte.  A set reads only its low four bits, so each
# table is built for the 16 sets and repeats them up to 256 entries.
# the letters whose next lies in the set
_PULLBACK = bytes(sum(_BIT[letter] for letter in "abcd" if s & _BIT[_NEXT[letter]]) for s in range(16)) * 16
_HOLDING_A = bytes(range(1, 256, 2))
# the nexts of a set's letters: on a one-letter set, the one-letter set of its next
_NEXT_SET = bytes(sum(_BIT[_NEXT[letter]] for letter in "abcd" if s & _BIT[letter]) for s in range(16)) * 16
# 14 times the measure of a set: a, b, c, d have 1/2, 1/7, 2/7 and 1/14
_MASS = bytes(sum(m for i, m in enumerate((7, 2, 4, 1)) if s >> i & 1) for s in range(16)) * 16
# The cache of ``_leaves`` (see the module docstring): the longest bytes word it serves and its entries.  The
# words one process asks about repeat, as the subshift has linear factor complexity (Grigorchuk, Lenz and
# Nagnibeda, Math. Ann. 2018), and so do the half-length pullbacks they reduce to.  The answer caches
# around it serve words of at most _CACHED_SETS letters and ints below _CACHED_INT.
_CACHED_SETS = 64
_CACHED_INT = 1 << 64
_CACHED_CALLS = 4096


def _leaves(sets) -> tuple:
    """``_leaves_step`` of the bytes of ``sets``, from ``_cached_leaves`` for at most 64 sets (see the module)."""
    if type(sets) is bytes and len(sets) <= _CACHED_SETS:
        return _cached_leaves(sets)
    if type(sets) is not bytes:
        return _leaves(bytes(sets))
    return _leaves_step(sets)


def _leaves_step(sets: bytes) -> tuple:
    """The leaves (k, t, s) of the word's parity tree: it starts at 0-based i = t + 2^k m, 0 <= t < 2^k,
    exactly when the fixed point's letter at m lies in the set s.

    A start at 2m needs sets[0::2] to hold a, and the pullback of sets[1::2]
    through next to start at m; a start at 2m + 1 needs sets[1::2] to hold
    a, and the pullback of sets[0::2] to start at m.  A split leaves each
    half a set, and one set s is the leaf (0, 0, s), none if s is empty; the
    empty word is the leaf (0, 0, any).  So a word of L sets has at most L
    leaves, found in at most 2L - 1 calls, and no two hold the same start.
    """
    if len(sets) < 2:
        s = sets[0] & 15 if sets else 15
        return ((0, 0, s),) if s else ()
    if 0 in sets:
        return ()
    even, odd = sets[0::2], sets[1::2]
    leaves = ()
    if not even.translate(None, _HOLDING_A):
        leaves = tuple([(k + 1, t << 1, s) for k, t, s in _leaves(odd.translate(_PULLBACK))])
    if not odd.translate(None, _HOLDING_A):
        leaves += tuple([(k + 1, t << 1 | 1, s) for k, t, s in _leaves(even.translate(_PULLBACK))])
    return leaves


_cached_leaves = lru_cache(maxsize=_CACHED_CALLS)(_leaves_step)


def fixed_point_count(sets, n: int) -> int:
    """The starts 0 <= i < n of the fixed point (0-based) where letter i + j lies in sets[j] for every j.

    ``sets`` is any bytes-like word of letter sets.  A leaf (k, t, s) of
    ``_leaves`` with t < n counts the letters of s among the first
    m = ceil((n - t) / 2^k), in closed form: F(v) (module docstring) is at
    floor(m / 2^v) - floor(m / 2^(v+1)) of the 1-based positions up to m.
    So each letter is one loop, a turn per three bits of m, and no letter is
    read.  A negative n is an InvalidInputError.
    """
    if n <= 0:
        if n < 0:
            raise InvalidInputError(f"need n >= 0 starts, got {n}")
        return 0
    count = 0
    for k, t, s in _leaves(sets):
        if t < n:
            m = (n - t + (1 << k) - 1) >> k
            if s & 1:
                count += (m + 1) >> 1
            for letter, v in ((4, 1), (2, 2), (8, 3)):  # c, b, d
                if s & letter:
                    p = m >> v
                    while p:
                        count += (p + 1) >> 1
                        p >>= 3
    return count


def left_letters(sets) -> frozenset:
    """The letters l of 'abcd' with mu[l + word] > 0, for any bytes-like word of letter sets: ``letters_before``."""
    return letters_before(_leaves(sets))


def letters_before(leaves) -> frozenset:
    """The letters l of 'abcd' with mu[l + word] > 0, from the leaves of the word.

    Each leaf (k, t, s) of ``_leaves`` gives F(v2(t)) if t > 0; if t = 0, F(k)
    if s holds a letter other than a, and b, c, d if s holds a: the
    left-letter rule of the module docstring.
    """
    letters = set()
    for k, t, s in leaves:
        if t or s & 14:
            letters.add(grigorchuk_letter(t or 1 << k))
        if not t and s & 1:
            letters.update("bcd")
    return frozenset(letters)


def factor_digits(leaves):
    """f mod 2^D of a word with these leaves, D the most low bits that every t shares, D <= each k; else None.

    The word starts only at i = t + 2^k m, and f is i on the fixed point
    shifted i times; a word with no leaves is no factor and has no f.  On
    L >= 2^(K+2) letters D >= K + 1 (recognizability, Mosse 1992): letters
    split only into the sets {a}, {b}, {c}, {d} and {a, d} (``_PULLBACK``).
    Each of levels 0..K has at least 4 sets, so two neighbours in the class
    that a true start does not put on a, and one of them is next(a), hence
    {c}, which lacks a: one parity passes.
    """
    if not leaves:
        return None
    t0, spread = leaves[0][1], 0
    for k, t, _ in leaves:
        spread |= t ^ t0 | 1 << k
    return t0 % (spread & -spread)  # spread & -spread is 2^D


def fixed_point_residue_counts(sets, n: int, q: int) -> list:
    """counts[r]: the starts 0 <= i < n, i = r mod q, that ``fixed_point_count`` counts, for every r at once.

    A leaf (k, t, s) with t < n and m = ceil((n - t) / 2^k) starts at
    i = t + 2^k (2^v (2z + 1) - 1) for each v with F(v) in s and
    z < Z_v = ((m >> v) + 1) >> 1, the terms that count sums.  The step
    2^(k+v+1) visits the classes mod q with period P = q / gcd(q, step), so
    each class visited holds floor(Z_v / P) or one more of these starts.  It
    takes O(leaves log n min(q, Z)) steps and reads no letter; the empty
    word's leaf counts every start.  ``sets`` is any bytes-like word, and a
    negative n is an InvalidInputError.
    """
    if n < 0:
        raise InvalidInputError(f"need n >= 0 starts, got {n}")
    counts = [0] * q
    low = q & -q  # the largest power of two that divides q
    for k, t, s in _leaves(sets):
        if t < n:
            m = (n - t + (1 << k) - 1) >> k
            for letter, first in ((1, 0), (4, 1), (2, 2), (8, 3)):  # F(v): a at v = 0, c, b, d at v = 1, 2, 3 mod 3
                if s & letter:
                    for v in range(first, m.bit_length() if first else 1, 3):
                        step = 1 << k + v + 1
                        period = q // min(step, low)
                        full, extra = divmod(((m >> v) + 1) >> 1, period)
                        r, move = (t + (step >> 1) - (1 << k)) % q, step % q
                        for z in range(period if full else extra):
                            counts[r] += full + (z < extra)
                            r = (r + move) % q
    return counts


def letter_sets(codes) -> bytes:
    """The word of letter sets that ``_leaves`` reads for ``codes``: one set per letter."""
    return bytes(codes).translate(_CODE_SETS)


def word_sets(word: str) -> bytes:
    """The letter sets of ``word``: ``letter_sets`` of its codes over 'abcd', in one translate of its text.

    A letter outside 'abcd' is the InvalidInputError ``substitution.encode_letters``
    raises, with its message; an empty word has no sets.
    """
    try:
        sets = word.encode().translate(_WORD_SETS)
    except UnicodeEncodeError:  # a lone surrogate, as in encode_letters
        sets = word.encode("utf-8", "surrogatepass").translate(_WORD_SETS)
    if 0 in sets:
        raise _outside(word.encode("utf-8", "surrogatepass"))
    return sets


def spells_fixed_point(codes) -> bool:
    """Whether the bytes-like ``codes`` spell the fixed point's first len(codes) letters.

    Letter 2m (0-based) of the fixed point is a and letter 2m + 1 is next of
    letter m, so each block of ``_CHUNK`` letters from an even i is checked
    against the block of half as many from i / 2: no copy outgrows a block.
    """
    for start in range(0, len(codes), _CHUNK):
        sets = letter_sets(codes[start : start + _CHUNK])
        half = letter_sets(codes[start // 2 : start // 2 + len(sets) // 2])
        if sets[0::2].translate(None, b"\x01") or sets[1::2] != half.translate(_NEXT_SET):
            return False
    return True


def invariant_measure_cylinder(word: str) -> Fraction:
    """Exact invariant measure of the cylinder [word] at the sequence start: ``class_measure(word, 0, 0)``.

    The subshift is minimal and uniquely ergodic, so the measure is positive
    exactly when ``word`` is a factor of the fixed point: this is the
    package's language test.
    """
    if not word:
        raise InvalidInputError("cylinder word must be nonempty")
    if type(word) is str and len(word) <= _CACHED_SETS:
        return _word_measure(word)
    return class_measure(word, 0, 0)


# the measures that invariant_measure_cylinder keeps: an entry, its word, result and link included, took at
# most about 280 bytes under tracemalloc on CPython 3.11, so the cache holds at most about 1.2 MB
_word_measure = lru_cache(maxsize=_CACHED_CALLS)(lambda word: class_measure(word, 0, 0))


def class_measure(word: str, j: int, r: int) -> Fraction:
    """rho_j(word, r) = mu([word] and f = r mod 2^j), f the factor map, at j = 0 mu[word].

    f maps the start i to i in the dyadic integers, so a leaf (k, t, s) of
    ``_leaves`` carries 2^-k mu(s), all of it in the class of t if k >= j;
    if k < j, it meets class r only if t = r mod 2^k, with its m in class
    (r - t) >> k mod 2^(j - k), where ``_class_masses`` has s's masses.
    """
    # fractions loads with the first measure: a command that builds none does not load it
    import fractions

    sets = word_sets(word)
    if not sets or j < 0:
        raise InvalidInputError(f"need a nonempty word and j >= 0, got {word!r} and {j}")
    depth = max(j, len(sets).bit_length())  # at least the leaves' k, ceil(log2 len(sets))
    mass = 0
    for k, t, s in _leaves(sets):
        if k >= j:
            if not (t - r) & ((1 << j) - 1):
                mass += _MASS[s] << depth - k
        elif not (t - r) & ((1 << k) - 1):
            masses = _class_masses(depth - k, (r - t) >> k, j - k)
            mass += sum(masses[i] for i in range(4) if s >> i & 1)
    return fractions.Fraction(mass, 14 << depth) if mass else _zero()


@lru_cache(maxsize=1)
def _zero() -> Fraction:
    """Fraction(0), built once: most words asked first have no leaves, and a Fraction costs as much as that."""
    import fractions

    return fractions.Fraction(0)


def _class_masses(depth: int, r: int, j: int) -> tuple:
    """14 * 2^depth times mu([l] and f = r mod 2^j) for each letter l of 'abcd', for depth >= j.

    A loop takes r's digits from the last one up, from the letters' masses
    where they run out (14 times 1/2, 1/7, 2/7, 1/14): a clear digit puts l
    at an even index, where it is a, and a set one at an odd index 2m + 1,
    where it is the next of the letter at m, in the class of the digits above.
    """
    a, b, c, d = 7 << depth - j, 2 << depth - j, 4 << depth - j, 1 << depth - j
    for i in reversed(range(j)):
        a, b, c, d = (0, c, a + d, b) if r >> i & 1 else (a + b + c + d, 0, 0, 0)
    return a, b, c, d
