"""Exact cylinder counting, the invariant measure, and spectral checks.

Frequency counts are exact integers over explicit windows, and run on the
standard library, by one of two paths.  On a prefix of the Grigorchuk
fixed point, whose ``fixed_point_start`` is set (what ``fixed_point_prefix``
grows from a under the Grigorchuk rules, and its shifts),
``cylinder_frequency`` counts by desubstitution
(``substitution.fixed_point_count``) and reads no letters.  On any other
prefix, and for every spectral sum, each letter's positions in the prefix
form one bit-packed Python int, built on first use and kept on the prefix;
the starts of a word are the AND of its letters' bitsets, each shifted by
the letter's offset in the word, and that one kernel serves both the
counts (``int.bit_count``) and the spectral sums.  The invariant measure of a
cylinder word is an exact rational, computed by desubstitution over
log2 |w| levels with no cap on the word length
(``substitution.invariant_measure_cylinder``, re-exported here).  A word
belongs to the language exactly when its measure is positive.
Exponential sums are the only place floating point enters, and those
assertions carry explicit tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import NamedTuple

from .errors import InsufficientDataError, InvalidInputError, ResourceLimitError
from .substitution import SymbolicPrefix, fixed_point_count, invariant_measure_cylinder, letter_sets


def __getattr__(name):
    # factormap.encode_value is re-exported, and loaded only when read: no count runs factormap
    if name == "encode_value":
        from .factormap import encode_value

        return encode_value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_BLOCK = 1 << 17  # letters translated to '0'/'1' text and read by int(text, 2) in one pass
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


class FrequencyEstimate(NamedTuple):
    word: str
    count: int
    window: int
    frequency: Fraction


def _plane(prefix: SymbolicPrefix, bit: int) -> int:
    """Bitset of the codes with ``bit`` set: bit len(prefix) - 1 - i is set iff codes[i] >> bit & 1.

    The first letter is the top bit, so the text of a bitset reads in the
    order of the prefix.  Built in passes of ``_BLOCK`` letters, each
    translated to '0'/'1' text and read by ``int(text, 2)`` into its bytes
    of one big-endian buffer.
    """
    digits = bytes(0x31 if c >> bit & 1 else 0x30 for c in range(256))
    size = len(prefix)
    packed = bytearray(-(-size // 8))
    for start in range(0, size, _BLOCK):
        text = prefix.codes[start : start + _BLOCK].tobytes().translate(digits)
        nbytes = -(-len(text) // 8)  # the last pass pads its text to whole bytes
        value = int(text.ljust(8 * nbytes, b"0"), 2)
        packed[start // 8 : start // 8 + nbytes] = value.to_bytes(nbytes, "big")
    return int.from_bytes(packed, "big") >> (8 * len(packed) - size)


def _letter_bits(prefix: SymbolicPrefix, code: int) -> int:
    """Bitset of the letter ``code``: bit len(prefix) - 1 - i is set iff codes[i] == code.

    The first count on a prefix builds the bitsets of all its letters and
    keeps them on it.  A letter's bitset is the AND of the bit planes of the
    codes, each taken as it is where the letter's code has that bit and
    complemented where it has not.  So the codes are read once per bit of a
    code, twice for 'abcd', not once per letter, and the planes are dropped
    once the letters are built.  The bitsets take one bit per letter of the
    alphabet for each letter of the prefix: half a byte for 'abcd'.
    """
    cache = prefix._bitsets
    if not cache:
        planes = [_plane(prefix, b) for b in range((len(prefix.alphabet) - 1).bit_length())]
        every = (1 << len(prefix)) - 1
        for letter in range(len(prefix.alphabet)):
            bits = every
            for b, plane in enumerate(planes):
                bits &= plane if letter >> b & 1 else plane ^ every
            cache[letter] = bits
    return cache[code]


def _word_codes(prefix: SymbolicPrefix, word: str, window: int) -> bytes:
    """The codes of ``word``, once ``prefix`` is checked to hold its starts at positions 1..window.

    The last start reads letters up to window + len(word) - 1, which is the
    prefix length this requires, on either count path.
    """
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
    return prefix.alphabet.encode(word)


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


def cylinder_frequency(prefix: SymbolicPrefix, word: str, window: int) -> FrequencyEstimate:
    """Exact count of occurrences of ``word`` starting at positions 1..window.

    On a prefix of the fixed point, whose ``fixed_point_start`` s is set, it
    is ``fixed_point_count`` over s + window starts less the count over s,
    and no letter is read.  On any other prefix it is the popcount of the
    occurrence bits.
    """
    codes = _word_codes(prefix, word, window)
    start = prefix.fixed_point_start
    if start is None:
        count = _occurrence_bits(prefix, codes, window).bit_count()
    else:
        sets = letter_sets(prefix.alphabet, codes)
        count = fixed_point_count(sets, start + window) - fixed_point_count(sets, start)
    return FrequencyEstimate(word=word, count=count, window=window, frequency=Fraction(count, window))


class WordDeviation(NamedTuple):
    word: str
    empirical: Fraction
    exact: Fraction
    deviation: Fraction


class DistributionReport(NamedTuple):
    depth: int
    window: int
    entries: tuple
    max_deviation: Fraction

    @property
    def worst_word(self) -> str:
        return max(self.entries, key=lambda e: e.deviation).word


def uniform_distribution_report(prefix: SymbolicPrefix, depth: int, window: int) -> DistributionReport:
    """Empirical-vs-exact cylinder frequencies for every word of the given depth."""
    if depth < 1:
        raise InvalidInputError(f"depth must be positive, got {depth}")
    need = window + depth - 1
    if need > len(prefix):
        raise InsufficientDataError(
            f"depth {depth} over window {window} needs prefix length {need}, have {len(prefix)}",
            required_length=need,
        )
    codes = prefix.codes[:need].tobytes()
    seen = {codes[i : i + depth] for i in range(window)}
    entries = []
    for word in sorted(map(prefix.alphabet.decode, seen)):
        empirical = cylinder_frequency(prefix, word, window).frequency
        exact = invariant_measure_cylinder(word)
        entries.append(WordDeviation(word, empirical, exact, deviation=abs(empirical - exact)))
    return DistributionReport(depth, window, tuple(entries), max(e.deviation for e in entries))


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
# took 6.2 s and ten thetas with q past the window 5.1 s.
_SPECTRAL_BUDGET = 1 << 24
# The largest q whose residues are counted by q masked popcounts of the
# occurrence bits.  Up to 128 that took less time than reading each start,
# for dense and sparse words at windows of 2^12 to 2^20; past 512 it took more.
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
    on the order of the terms.  The counts come from the occurrence bits:
    up to q = ``_COMB_MAX`` by q masked popcounts, and for a larger q by
    reading each start's position off the bits' text and adding one to its
    residue.

    Each distinct theta is computed once, and the samples follow ``thetas``.
    A request whose terms (the window, plus what each distinct theta's path
    costs; see ``_SPECTRAL_BUDGET``) exceed ``_SPECTRAL_BUDGET`` is refused
    with ResourceLimitError before any sum is taken.
    """
    bits = _occurrence_bits(prefix, _word_codes(prefix, word, window), window)
    occurrences = bits.bit_count()
    thetas = [Fraction(theta) for theta in thetas]
    magnitudes = dict.fromkeys(thetas)
    work = window + sum(_spectral_work(theta, window, occurrences) for theta in magnitudes)
    if work > _SPECTRAL_BUDGET:
        raise ResourceLimitError(
            f"spectrum of {len(magnitudes)} distinct thetas over window {window} takes {work} terms,"
            f" over the budget of {_SPECTRAL_BUDGET}"
        )
    starts = None  # byte i is 1 if the word starts at 0-based position i, else 0
    for theta in magnitudes:
        p, q = theta.numerator % theta.denominator, theta.denominator
        if q <= _COMB_MAX:
            counts = _comb_counts(bits, window, q)
        else:
            if starts is None:
                starts = format(bits, f"0{window}b").encode().translate(_DIGIT_VALUES)
            counts = [0] * min(q, window)  # past the window no residue class holds two starts
            for n in compress(range(window), starts):
                counts[n % q] += 1
        magnitudes[theta] = _phase_sum(counts, p, q) / window
    return [SpectralSample(theta=t, word=word, window=window, magnitude=magnitudes[t]) for t in thetas]
