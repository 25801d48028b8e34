"""The language of the Grigorchuk fixed point, by desubstitution.

An odd (1-based) position of the fixed point holds a, and the letter at 2m
is next(letter at m): a word splits into its letters at odd positions,
which must all be a, and those at even ones, which pull back to a word half
as long.  That one step gives the exact invariant measure of a word
(``_masses``, ``class_measure``, ``invariant_measure_cylinder``), which is
the package's language test, the count of a word's starts on the fixed
point (``fixed_point_count``, ``fixed_point_residue_counts``) and the test
that letters spell the fixed point itself (``spells_fixed_point``).  None
of them reads a letter of the fixed point.

The measure and the count keep what they compute.  ``_masses`` and
``fixed_point_count`` each serve a bytes word of at most 64 sets, with its
ints below 2^64 and a depth of at most 64, from an ``lru_cache`` of at
most 4,096 entries (at most about 2.7 MB and 1.5 MB), and a step's
recursion calls them again.  So a word asked again costs one lookup, and
a new word's half-length pullbacks find what other words left.  A longer
word goes past the cache until its pullbacks are that short, any other
bytes-like word is read as its bytes first, and a command that asks once
gains nothing.  Over a 2^20-letter window, on a shared
2-vCPU VM, a word of 1 to 14 letters asked again is counted in about
2.3 to 4.6 us and measured in about 1.6 to 3.4 us; asked first, in about
3 to 15 us and 2 to 12 us, a fifth to a third more than with no cache
(in-process, best of 25 loops over 300 words of each length, the caches
cleared before each first ask; see README).

A letter set is a bitmask byte, with a, b, c, d as bits 0..3: ``letter_sets``
and ``word_sets`` read codes and text into them.  ``substitution`` imports
this module when ``SymbolicPrefix.left_extensions`` is first read, so a
command that asks no such question does not compile it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from .errors import InvalidInputError
from .substitution import _CHUNK, _outside

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
# which of a, b, c, d a set holds, as ``compress`` selectors
_MEMBERS = [tuple(s >> i & 1 for i in range(4)) for s in range(16)] * 16
# The caches of ``_masses`` and ``fixed_point_count`` (see the module docstring): the longest bytes
# word they serve, the bits of the ints they serve (a depth up to that many), and their entries.  The
# words one process asks about repeat, as the subshift has linear factor complexity (Grigorchuk, Lenz
# and Nagnibeda, Math. Ann. 2018), and so do the half-length pullbacks they reduce to.
_CACHED_SETS = 64
_CACHED_BITS = 64
_CACHED_INT = 1 << _CACHED_BITS
_CACHED_CALLS = 4096


def _masses(rest, depth: int, r: int = 0, j: int = 0) -> tuple:
    """``_masses_step`` of the bytes of ``rest``, served from ``_cached_masses`` for a short word and small ints.

    The cache holds at most 4096 keys of at most 64 sets: 4096 * 64 bytes
    = 256 KiB of key letters.  A whole entry, its key tuple, ints, result
    and link included, took at most about 650 bytes under tracemalloc on
    CPython 3.11, so the cache holds at most about 2.7 MB.
    """
    if type(rest) is bytes and len(rest) <= _CACHED_SETS and depth <= _CACHED_BITS and 0 <= r < _CACHED_INT:
        return _cached_masses(rest, depth, r, j)
    if type(rest) is not bytes:
        return _masses(bytes(rest), depth, r, j)
    return _masses_step(rest, depth, r, j)


def _masses_step(rest: bytes, depth: int, r: int, j: int) -> tuple:
    """14 * 2^depth times mu[l + rest] for each letter l of 'abcd', for len(rest) < 2^depth.

    ``class_measure`` reads the mass of a word's first letter, and
    ``SymbolicPrefix.left_extensions`` which letters have mass.

    An odd position holds a and the letter at 2m is next(letter at m): the
    fixed point read back through the substitution (Queffelec, LNM 1294;
    Mosse 1992).  So mu[l + rest] is half the sum over the parity of l's
    position of mu[W']: the sets at odd positions must all hold a, and W'
    is the sets at even positions pulled back through next, half as long.
    At an odd position l is a and W' comes from rest alone; at an even one
    W' is l's pullback before the rest, so one pass serves all four letters.
    With j = 0 an empty rest has the letters' masses, and a rest of one set
    takes the step down to the empty W' inline: neither makes a call.

    With j > 0 the masses are of [l + rest] and f = r mod 2^j, f the factor
    map onto the dyadic integers, for depth >= j: bit 0 of r fixes l's
    position, odd (1-based) when clear, and W' is in class r >> 1 mod 2^(j-1).
    """
    if 0 in rest:
        return 0, 0, 0, 0
    if not j and len(rest) < 2:
        if not rest:
            return 7 << depth, 2 << depth, 4 << depth, 1 << depth
        # one set s: the step below, in closed form.  W' is empty one level down (depth >= 1, as
        # len(rest) < 2^depth), so a sums the masses 7, 2, 4, 1 over s's pullback, which holds a and d
        # if s holds c (7 + 1), c if b (4) and b if d (2).  At an even position W' is l's pullback
        # alone, so if s holds a, b, c and d take the masses of c, of a and d, and of b.
        s = rest[0]
        a = ((s & 6) * 2 + (s >> 2 & 2)) << depth - 1
        return (a, 4 << depth - 1, 8 << depth - 1, 2 << depth - 1) if s & 1 else (a, 0, 0, 0)
    if not rest:
        # W' stays empty, so a loop takes r's digits from the last one up, from the masses where they run
        # out (14 times 1/2, 1/7, 2/7, 1/14): a clear digit puts l at an odd position, where it is a, and
        # a set one at an even position, where it is the next of W''s one letter
        a, b, c, d = 7 << depth - j, 2 << depth - j, 4 << depth - j, 1 << depth - j
        for i in reversed(range(j)):
            a, b, c, d = (0, c, a + d, b) if r >> i & 1 else (a + b + c + d, 0, 0, 0)
        return a, b, c, d
    a = b = c = d = 0
    odd = even = True
    if j:
        odd, even, r, j = not r & 1, r & 1, r >> 1, j - 1
    # l at an odd position: rest[1::2] sit at odd ones, and W' is the pullback of rest[0::2]
    head = _PULLBACK[rest[0]]
    if odd and head and not rest[1::2].translate(None, _HOLDING_A):
        a = sum(compress(_masses(rest[2::2].translate(_PULLBACK), depth - 1, r, j), _MEMBERS[head]))
    # l at an even position: rest[0::2] sit at odd ones, and W' is the pullback of l + rest[1::2]
    if even and not rest[0::2].translate(None, _HOLDING_A):
        back_a, back_b, back_c, back_d = _masses(rest[1::2].translate(_PULLBACK), depth - 1, r, j)
        b, c, d = back_c, back_a + back_d, back_b  # next(c) = b, next(a) = next(d) = c, next(b) = d
    return a, b, c, d


_cached_masses = lru_cache(maxsize=_CACHED_CALLS)(_masses_step)


def fixed_point_count(sets, n: int) -> int:
    """``_fixed_point_count_step`` of the bytes of ``sets``, served from ``_cached_fixed_point_count`` for a short
    word and small n.

    The cache holds at most 4096 keys of at most 64 sets: 4096 * 64 bytes
    = 256 KiB of key letters.  A whole entry took at most about 360 bytes
    under tracemalloc on CPython 3.11, so the cache holds at most about
    1.5 MB.  A negative n is the step's InvalidInputError.
    """
    if type(sets) is bytes and len(sets) <= _CACHED_SETS and 0 <= n < _CACHED_INT:
        return _cached_fixed_point_count(sets, n)
    if type(sets) is not bytes:
        return fixed_point_count(bytes(sets), n)
    return _fixed_point_count_step(sets, n)


def _fixed_point_count_step(sets: bytes, n: int) -> int:
    """The starts 0 <= i < n of the fixed point (0-based) where letter i + j lies in sets[j] for every j.

    ``sets`` is a word of letter sets, read as ``_masses`` reads them.  The
    letters at even indices are all a, and the letter at 2m + 1 is next of
    the letter at m.  So a start at 2m needs sets[0::2] to hold a, and
    counts the pullback of sets[1::2] from m, over ceil(n / 2) starts; a
    start at 2m + 1 needs sets[1::2] to hold a, and counts the pullback of
    sets[0::2] from m, over floor(n / 2) starts.  A split leaves each half
    a set, and one set s is counted in closed form: the ceil(n / 2) even
    starts count if s holds a, and the odd ones count the pullback of s
    over floor(n / 2) starts.  The pullback of a set holds a exactly when
    the set holds c, and moves c to d, d to b and b to c.  So c, b and d in
    s bring a back after 1, 2 and 3 halvings of n, and every third one
    after that: one loop per letter, a turn per three bits of n.  A word
    of L sets takes at most 2L - 1 calls, and no letter is read.  A
    negative n is an InvalidInputError.
    """
    if not sets or n <= 0:
        if n < 0:
            raise InvalidInputError(f"need n >= 0 starts, got {n}")
        return n
    if 0 in sets:
        return 0
    if len(sets) == 1:
        s = sets[0]
        count = (n + 1) >> 1 if s & 1 else 0
        for letter, k in ((4, 1), (2, 2), (8, 3)):  # c, b, d
            if s & letter:
                m = n >> k
                while m:
                    count += (m + 1) >> 1
                    m >>= 3
        return count
    count = 0
    if not sets[0::2].translate(None, _HOLDING_A):
        count += fixed_point_count(sets[1::2].translate(_PULLBACK), (n + 1) // 2)
    if not sets[1::2].translate(None, _HOLDING_A):
        count += fixed_point_count(sets[0::2].translate(_PULLBACK), n // 2)
    return count


_cached_fixed_point_count = lru_cache(maxsize=_CACHED_CALLS)(_fixed_point_count_step)


def fixed_point_residue_counts(sets, n: int, q: int) -> list:
    """counts[r]: the starts 0 <= i < n, i = r mod q, that ``fixed_point_count`` counts, for every r at once.

    The same parity split carries the class: a start 2m + e in class r puts
    m in class (r - e) / 2 mod q / 2 when q is even, where only e = r mod 2
    is possible, and in class (r - e) * 2^-1 mod q when q is odd.  So the
    two halves' counts interleave (q even) or land at 2t and 2t + 1 mod q
    (q odd).  An empty word counts every start; a word of L sets over n
    starts takes O(q (L + log n)) steps, and no letter is read.  ``sets``
    is any bytes-like word, read as its bytes.  A negative n is an
    InvalidInputError.
    """
    if type(sets) is not bytes:
        sets = bytes(sets)
    if not sets or n <= 0:
        if n < 0:
            raise InvalidInputError(f"need n >= 0 starts, got {n}")
        return [(n + q - 1 - r) // q for r in range(q)]
    if 0 in sets:
        return [0] * q
    half = q if q % 2 else q // 2
    even = odd = [0] * half
    if not sets[0::2].translate(None, _HOLDING_A):
        even = fixed_point_residue_counts(sets[1::2].translate(_PULLBACK), (n + 1) // 2, half)
    if not sets[1::2].translate(None, _HOLDING_A):
        odd = fixed_point_residue_counts(sets[0::2].translate(_PULLBACK), n // 2, half)
    if half < q:
        return [count for pair in zip(even, odd) for count in pair]
    inverse = (q + 1) // 2  # of 2 mod q
    return [even[r * inverse % q] + odd[(r - 1) * inverse % q] for r in range(q)]


def letter_sets(codes) -> bytes:
    """The word of letter sets that ``_masses`` and ``fixed_point_count`` read for ``codes``: one set per letter."""
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
    return class_measure(word, 0, 0)


def class_measure(word: str, j: int, r: int) -> Fraction:
    """rho_j(word, r) = mu([word] and f = r mod 2^j), f the factor map, at j = 0 mu[word].

    It is the ``_masses`` of the word's first letter, with r's j digits fixed.
    """
    # fractions loads with the first measure: a command that builds none does not load it
    import fractions

    sets = word_sets(word)
    if not sets or j < 0:
        raise InvalidInputError(f"need a nonempty word and j >= 0, got {word!r} and {j}")
    depth = max(j, len(sets).bit_length())
    return fractions.Fraction(_masses(sets[1:], depth, r, j)[sets[0].bit_length() - 1], 14 << depth)
