"""Exact cylinder counting, the invariant measure, and spectral checks.

Frequency counts are exact integers over explicit windows: one occurrence
mask over the window, filled in cache-sized blocks of start positions and
counted with ``count_nonzero``, serves both the counts and the spectral
sums.  The invariant measure of a cylinder word is an exact rational,
computed by desubstitution over log2 |w| levels with no cap on the word
length (``substitution.invariant_measure_cylinder``, re-exported here).  A
word belongs to the language exactly when its measure is positive.
Exponential sums are the only place floating point enters, and those
assertions carry explicit tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InsufficientDataError, InvalidInputError
from .factormap import encode_value  # noqa: F401  (re-exported)
from .substitution import SymbolicPrefix, invariant_measure_cylinder

_BLOCK = 1 << 17  # start positions compared in one pass: 128 KiB of mask
_ROW = 1 << 10  # least start positions summed per row when counting residues


class FrequencyEstimate(NamedTuple):
    word: str
    count: int
    window: int
    frequency: Fraction


def _occurrence_mask(prefix: SymbolicPrefix, word: str, window: int):
    """Boolean numpy mask over start positions 1..window (0-based index).

    The last start position reads letters up to window + len(word) - 1,
    which is the prefix length this requires.  The mask is filled in blocks
    of ``_BLOCK`` start positions: each letter's compare and AND work on one
    block, which stays in cache, and no window-sized temporary is made.
    """
    import numpy as np

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
    codes = np.frombuffer(prefix.codes, dtype=np.uint8)
    target = prefix.alphabet.encode(word)
    mask = np.empty(window, dtype=bool)
    for start in range(0, window, _BLOCK):
        stop = min(start + _BLOCK, window)
        block = mask[start:stop]
        np.equal(codes[start:stop], target[0], out=block)
        for j in range(1, len(word)):
            block &= codes[start + j : stop + j] == target[j]
    return mask


def cylinder_frequency(prefix: SymbolicPrefix, word: str, window: int) -> FrequencyEstimate:
    """Exact count of occurrences of ``word`` starting at positions 1..window."""
    import numpy as np

    count = int(np.count_nonzero(_occurrence_mask(prefix, word, window)))
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


def spectral_scan(prefix: SymbolicPrefix, thetas, word: str, window: int):
    """|(1/N) sum_n exp(-2 pi i theta n) 1_word(shift^n x)| for each theta.

    Dyadic theta pick up the point-spectrum mass; non-dyadic rationals decay
    to zero.  For theta = p/q the occurrences are counted exactly per residue
    of n mod q, and floating point enters only in the sum of at most
    min(q, N) weighted phases, taken in a fixed pairwise order, so results
    are deterministic.  The counts are sums over the rows of the mask cut
    into rows of a multiple of q, at least ``_ROW`` wide, folded to q counts:
    a row of only a few positions would make the sum over rows slow at small
    q.  No array of occurrence positions is held.
    """
    import numpy as np

    mask = _occurrence_mask(prefix, word, window)
    samples = []
    for theta in thetas:
        theta = Fraction(theta)
        p, q = theta.numerator % theta.denominator, theta.denominator
        if q <= window and q < 1 << 31:  # p * residue < q^2 fits in int64
            # rows of a multiple of q, at least _ROW wide, fold to q counts; the rest of the
            # whole rows of q, and the last partial row, are added after
            width = q * -(-_ROW // q)
            split, whole = window - window % width, window - window % q
            counts = mask[:split].reshape(-1, width).sum(axis=0).reshape(-1, q).sum(axis=0)
            counts += mask[split:whole].reshape(-1, q).sum(axis=0)
            counts[: window - whole] += mask[whole:]
            residues = np.flatnonzero(counts)
            weights = counts[residues]
            turns = (p * residues % q) / q
        else:
            # no residue class holds two occurrences when q >= window: one term each
            weights = 1
            turns = np.mod(np.flatnonzero(mask) * (p / q), 1.0)
        total = (weights * np.exp(-2j * math.pi * turns)).sum()
        samples.append(
            SpectralSample(
                theta=theta,
                word=word,
                window=window,
                magnitude=float(abs(total)) / window,
            )
        )
    return samples
