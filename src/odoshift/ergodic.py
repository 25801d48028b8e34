"""Exact cylinder counting, the invariant measure, and spectral checks.

Frequency counts are exact integers over explicit windows, and run on the
standard library.  ``_count_starts`` counts a word's starts, for
``spectral_scan`` and ``cylinder_frequency`` (which keeps its answers to
short words on the fixed point, ``_fixed_point_frequency``), by one of two paths.
On a prefix of the Grigorchuk fixed point, whose ``fixed_point_start`` is
set, it reads the word's text into its letter sets in one step
(``language.word_sets``) and counts off the leaves of their one
desubstitution in closed form (``language.fixed_point_count``), as
``spectral_scan`` does per residue class mod q up to q = ``_COMB_MAX``
(``language.fixed_point_residue_counts``): neither reads a letter of
the prefix, so the prefix generates none.  On any other prefix, and for a
larger q, it reads the word as codes (``substitution.encode_letters``), and the
starts of a word are the AND of its letters' bitsets, one bit-packed int
per letter kept on the prefix, each shifted by the letter's offset in the
word; that one kernel serves both the counts and the spectral sums.  The
invariant measure of a cylinder word is an exact rational
(``language.invariant_measure_cylinder``, re-exported here), and a
word belongs to the language exactly when it is positive.  Exponential
sums are the only place floating point enters, and those assertions carry
explicit tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

from .errors import InsufficientDataError, InvalidInputError, ResourceLimitError
from .language import _CACHED_CALLS, _CACHED_INT, _CACHED_SETS, fixed_point_count, fixed_point_residue_counts
from .language import _zero, invariant_measure_cylinder, word_sets
from .substitution import SymbolicPrefix, _plane, encode_letters


def __getattr__(name):
    # factormap.encode_value, kept for the benchmark only, is loaded when read: no count runs factormap
    if name == "encode_value":
        from .factormap import encode_value

        return encode_value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


class FrequencyEstimate(NamedTuple):
    word: str
    count: int
    window: int
    frequency: Fraction


def _letter_bits(prefix: SymbolicPrefix, code: int) -> int:
    """Bitset of the letter ``code``: bit len(prefix) - 1 - i is set iff codes[i] == code.

    The first count on a prefix builds the bitsets of all four letters and
    keeps them on it.  A letter's bitset is the AND of the two bit planes of
    the codes, each taken as it is where the letter's code has that bit and
    complemented where it has not.  So the codes are read twice, not once
    per letter, and the planes are dropped once the letters are built.  The
    bitsets take four bits, half a byte, for each letter of the prefix.
    """
    cache = prefix._bitsets
    if not cache:
        low, high = _plane(prefix.codes, 0), _plane(prefix.codes, 1)
        every = (1 << len(prefix)) - 1
        not_low, not_high = low ^ every, high ^ every
        cache.update({0: not_low & not_high, 1: low & not_high, 2: not_low & high, 3: low & high})
    return cache[code]


def _occurrence_bits(prefix: SymbolicPrefix, codes: bytes, window: int) -> int:
    """Bitset of the starts of the word ``codes``: bit window - 1 - i is set iff it starts at 0-based i < window.

    Letter j of the word at start i is bit len(prefix) - 1 - i - j of its
    letter's bitset, so shifting that bitset left by j lines every letter up
    on the bit of its start.
    """
    first, *rest = codes
    bits = _letter_bits(prefix, first)
    for offset, code in enumerate(rest, 1):
        bits &= _letter_bits(prefix, code) << offset
    return bits >> (len(prefix) - window)


def _check_starts(prefix: SymbolicPrefix, word: str, window: int) -> None:
    """A count's checks, in order: a nonempty word, a positive window, and window + len(word) - 1 letters."""
    if not word:
        raise InvalidInputError("cylinder word must be nonempty")
    if window < 1:
        raise InvalidInputError(f"window must be positive, got {window}")
    need = window + len(word) - 1
    if need > len(prefix):
        raise InsufficientDataError(
            f"window {window} with word length {len(word)} needs prefix length {need},"
            f" have {len(prefix)}",
            required_length=need,
        )


def _count_starts(prefix: SymbolicPrefix, word: str, window: int) -> tuple:
    """(count, bits, sets): the starts of ``word`` in the window, counted on the path the prefix's tag picks.

    The word is checked first (``_check_starts``), its letters last.  With a
    ``fixed_point_start`` s its text is read into its letter sets in one
    step (``language.word_sets``), the count is ``fixed_point_count`` over
    s + window starts less the count over s, and bits is None: no letter of
    the prefix is read.  Otherwise the word is read as codes, the count is
    the popcount of their occurrence bits, and sets is None.
    """
    _check_starts(prefix, word, window)
    start = prefix.fixed_point_start
    if start is None:
        bits = _occurrence_bits(prefix, encode_letters(word), window)
        return bits.bit_count(), bits, None
    sets = word_sets(word)
    return fixed_point_count(sets, start + window) - fixed_point_count(sets, start), None, sets


def cylinder_frequency(prefix: SymbolicPrefix, word: str, window: int) -> FrequencyEstimate:
    """Exact count of occurrences of ``word`` starting at positions 1..window, by ``_count_starts``.

    Once checked, a str word of at most 64 letters on the fixed point from a start s, with s + window < 2^64, is
    answered by ``_fixed_point_frequency``."""
    start = prefix.fixed_point_start
    if start is None or type(word) is not str or len(word) > _CACHED_SETS or start + window >= _CACHED_INT:
        count = _count_starts(prefix, word, window)[0]
        return FrequencyEstimate(word, count, window, Fraction(count, window))
    _check_starts(prefix, word, window)
    return _fixed_point_frequency(word, start, window)


@lru_cache(maxsize=_CACHED_CALLS)
def _fixed_point_frequency(word: str, start: int, window: int) -> FrequencyEstimate:
    """The estimate of a checked word from fixed-point index ``start``, kept: an entry took at most about 450 bytes
    under tracemalloc on CPython 3.11, so the cache holds at most about 1.9 MB.  An error is not kept."""
    sets = word_sets(word)
    count = fixed_point_count(sets, start + window) - fixed_point_count(sets, start)
    return FrequencyEstimate(word, count, window, Fraction(count, window) if count else _zero())


class SpectralSample(NamedTuple):
    theta: Fraction
    word: str
    window: int
    magnitude: float


# Terms a spectral_scan request may take: the window once, for the occurrence
# bits and their text, then per distinct theta what its path reads.  A comb
# takes a term per 32 machine words its q masked popcounts read, so
# q * ceil(window / 2048); reading each start takes the window plus
# min(q, occurrences), a term per start read and per residue summed.  On a
# 2-vCPU Xeon VM a comb term took about 0.4 us, a start read 40 to 75 ns and a
# residue summed about 0.35 us, so an admitted request takes at most about
# 7 s.  For the word a over a window of 2^20, 242 thetas with q from 115 to 128
# took 6.2 s and ten thetas with q past the window 5.1 s.  A prefix of the
# fixed point is charged the same terms, so it is refused exactly where its
# letters would be, though its counts up to q = 128 take far fewer steps.
_SPECTRAL_BUDGET = 1 << 24
# The largest q whose residues are counted by q masked popcounts of the
# occurrence bits, or on the fixed point by desubstitution.  Up to 128 the
# popcounts took less time than reading each start, for dense and sparse words
# at windows of 2^12 to 2^20; past 512 they took more.
_COMB_MAX = 128


def _spectral_work(theta: Fraction, window: int, occurrences: int) -> int:
    """Terms spent on one distinct theta; see ``_SPECTRAL_BUDGET``."""
    q = theta.denominator
    if q <= _COMB_MAX:
        return q * -(-window // 2048)
    return window + min(q, occurrences)


def _comb_counts(bits: int, window: int, q: int) -> list:
    """counts[r]: the set bits of ``bits`` whose start is r mod q, by q masked popcounts."""
    comb, span = 1, q
    while span < window:
        comb |= comb << span
        span *= 2
    comb <<= (window - 1) % q  # one bit per start of residue 0 mod q, and some above the window
    return [(bits & (comb >> r)).bit_count() for r in range(q)]


def _fixed_point_counts(sets: bytes, start: int, window: int, q: int) -> list:
    """counts[r]: the starts of the word of ``sets`` in the window from fixed-point index ``start``, r mod q after it.

    The classes are relative to the window, as ``_comb_counts`` indexes
    them: class r is class (r + start) mod q of the counts up to
    start + window less those up to start.
    """
    upto = fixed_point_residue_counts(sets, start + window, q)
    before = fixed_point_residue_counts(sets, start, q)
    return [upto[(r + start) % q] - before[(r + start) % q] for r in range(q)]


def _phase_sum(counts, p: int, q: int) -> float:
    """|sum over the residues r of counts[r] e(-p r / q)|.

    Each part is a ``math.fsum`` of the terms c cos, c sin, so it is
    correctly rounded whatever their order.
    """
    def part(trig):
        residues = compress(range(len(counts)), counts)
        return math.fsum(counts[r] * trig(math.tau * (p * r % q / q)) for r in residues)

    return abs(complex(part(math.cos), part(math.sin)))


def spectral_scan(prefix: SymbolicPrefix, thetas, word: str, window: int):
    """|(1/N) sum_n exp(-2 pi i theta n) 1_word(shift^n x)| for each theta.

    Dyadic theta pick up the point-spectrum mass; non-dyadic rationals decay
    to zero.  For theta = p/q the occurrences are counted exactly per residue
    of n mod q, and floating point enters only in the sum of at most
    min(q, N) weighted phases, correctly rounded, so results do not depend
    on the order of the terms.  Up to q = ``_COMB_MAX`` the counts come,
    on a prefix with a ``fixed_point_start``, from the desubstitution of
    the fixed point (``_fixed_point_counts``), and on any other from the
    occurrence bits by q masked popcounts; the two give the same counts, so
    the same magnitudes bit for bit.  For a larger q each start's position
    is read off the bits' text and adds one to its residue, on either
    prefix: the fixed point's letters are generated then.  When q is at
    least the window no residue class holds two starts, so the text's
    bytes, one 0 or 1 per start, are the counts.

    Each distinct theta is summed once, over counts taken once per distinct
    q, and the samples follow ``thetas``.
    A request whose terms (the window, plus what each distinct theta's path
    costs; see ``_SPECTRAL_BUDGET``) exceed ``_SPECTRAL_BUDGET`` is refused
    with ResourceLimitError before any sum is taken.  The terms read the
    number of starts, from ``_count_starts``, which also reads the word once
    for every q.
    """
    occurrences, bits, sets = _count_starts(prefix, word, window)
    thetas = [Fraction(theta) for theta in thetas]
    magnitudes = dict.fromkeys(thetas)
    work = window + sum(_spectral_work(theta, window, occurrences) for theta in magnitudes)
    if work > _SPECTRAL_BUDGET:
        raise ResourceLimitError(
            f"spectrum of {len(magnitudes)} distinct thetas over window {window} takes {work} terms,"
            f" over the budget of {_SPECTRAL_BUDGET}"
        )
    by_q = {}  # the counts are taken once per distinct q
    for theta in magnitudes:
        by_q.setdefault(theta.denominator, []).append(theta)
    starts = None  # byte i is 1 if the word starts at 0-based position i, else 0
    for q, group in by_q.items():
        if q <= _COMB_MAX and sets is not None:
            counts = _fixed_point_counts(sets, prefix.fixed_point_start, window, q)
        elif q <= _COMB_MAX:
            counts = _comb_counts(bits, window, q)
        else:
            if starts is None:
                if bits is None:  # on the fixed point, the first letters read
                    bits = _occurrence_bits(prefix, encode_letters(word), window)
                starts = format(bits, f"0{window}b").encode().translate(_DIGIT_VALUES)
            counts = starts
            if q < window:
                counts = [0] * q
                for n in compress(range(window), starts):
                    counts[n % q] += 1
        for theta in group:
            magnitudes[theta] = _phase_sum(counts, theta.numerator % q, q) / window
    return [SpectralSample(theta=t, word=word, window=window, magnitude=magnitudes[t]) for t in thetas]
