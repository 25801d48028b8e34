"""Exact cylinder counting, the invariant measure, and spectral checks.

Frequency counts are exact integers over explicit windows.  The invariant
measure of a cylinder word is an exact rational, computed by desubstitution
over log2 |w| levels with no cap on the word length
(``substitution.invariant_measure_cylinder``, re-exported here).  A word
belongs to the language exactly when its measure is positive.  Exponential
sums are the only place floating point enters, and those assertions carry
explicit tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .factormap import encode_value  # noqa: F401  (re-exported)
from .substitution import SymbolicPrefix, invariant_measure_cylinder


@dataclass(frozen=True)
class FrequencyEstimate:
    word: str
    count: int
    window: int
    frequency: Fraction


def _occurrence_mask(prefix: SymbolicPrefix, word: str, window: int) -> np.ndarray:
    """Boolean mask over start positions 1..window (0-based index).

    The last start position reads letters up to window + len(word) - 1,
    which is the prefix length this requires.
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
    codes = prefix.codes
    target = prefix.alphabet.encode(word)
    mask = codes[:window] == target[0]
    for j in range(1, len(word)):
        mask &= codes[j : window + j] == target[j]
    return mask


def cylinder_frequency(prefix: SymbolicPrefix, word: str, window: int) -> FrequencyEstimate:
    """Exact count of occurrences of ``word`` starting at positions 1..window."""
    count = int(_occurrence_mask(prefix, word, window).sum())
    return FrequencyEstimate(word=word, count=count, window=window, frequency=Fraction(count, window))


@dataclass(frozen=True)
class WordDeviation:
    word: str
    empirical: Fraction
    exact: Fraction
    deviation: Fraction


@dataclass(frozen=True)
class DistributionReport:
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
    for word in sorted(prefix.alphabet.decode(np.frombuffer(w, dtype=np.uint8)) for w in seen):
        empirical = cylinder_frequency(prefix, word, window).frequency
        exact = invariant_measure_cylinder(word)
        entries.append(WordDeviation(word, empirical, exact, deviation=abs(empirical - exact)))
    return DistributionReport(depth, window, tuple(entries), max(e.deviation for e in entries))


@dataclass(frozen=True)
class SpectralSample:
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
    are deterministic.
    """
    mask = _occurrence_mask(prefix, word, window)
    positions = np.flatnonzero(mask)  # shift counts n with an occurrence
    samples = []
    for theta in thetas:
        theta = Fraction(theta)
        p, q = theta.numerator % theta.denominator, theta.denominator
        if q <= window and q < 1 << 31:  # p * residue < q^2 fits in int64
            counts = np.bincount(positions % q)
            residues = np.flatnonzero(counts)
            weights = counts[residues]
            turns = (p * residues % q) / q
        else:
            # no residue class holds two occurrences when q >= window: one term each
            weights = 1
            turns = np.mod(positions * (p / q), 1.0)
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
