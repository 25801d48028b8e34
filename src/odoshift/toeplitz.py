"""Partial periods, essential periods, and the level-k period skeleton.

A position n of a sequence has partial period p when the letters at
n, n+p, n+2p, ... all agree.  Only the first three multiples are checked:
for sequences drawn from the orbit closure of the Grigorchuk fixed point
this is already conclusive, because four equal terms force all further
terms to agree.

The period skeleton records, for each level k, the unique residue class
M_k mod 2^k whose column is not constant, together with the letter l_k
that fills the column which became constant at level k.  These per-level
data are what the dyadic encoding in ``factormap`` is built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, NotInSubshiftError
from .substitution import SymbolicPrefix

TOEPLITZ_LIKE = "toeplitz_like"
EVENTUALLY_CONSTANT_MK = "eventually_constant_Mk"

_TERMS = 3  # multiples checked beyond the base position
_BLOCK = 1 << 14  # most periods tested in one numpy pass


def partial_period_mask(codes: np.ndarray, starts, p):
    """The four-term test codes[n] == codes[n + j p], j = 1..3, at 0-based ``starts``.

    ``starts`` and ``p`` are integers or arrays that broadcast together."""
    base = codes[starts]
    ok = codes[starts + p] == base
    for j in range(2, _TERMS + 1):
        ok &= codes[starts + j * p] == base
    return ok


def smallest_partial_period(prefix: SymbolicPrefix, n: int) -> int:
    """Least p accepted at position n, testing p = 1, 2, ... in numpy blocks of doubling size."""
    if n < 1 or n > len(prefix):
        raise InvalidInputError(f"position {n} outside 1..{len(prefix)}")
    L = len(prefix)
    last = (L - n) // _TERMS  # the largest p whose test fits in the prefix
    p, size = 1, 8
    while p <= last:
        block = np.arange(p, min(p + size, last + 1))
        ok = partial_period_mask(prefix.codes, n - 1, block)
        if ok.any():
            return p + int(ok.argmax())
        p, size = p + len(block), min(2 * size, _BLOCK)
    raise InsufficientDataError(
        f"no partial period certifiable at position {n} within prefix length {L};"
        f" testing p={p} needs length {n + _TERMS * p}",
        required_length=n + _TERMS * p,
    )


@dataclass(frozen=True)
class EPSet:
    """Essential partial periods found below a horizon, with witnesses."""

    periods: tuple
    horizon: int
    witnesses: dict  # period -> a position whose smallest partial period it is

    def __contains__(self, p: int) -> bool:
        return p in self.witnesses


def essential_periods(prefix: SymbolicPrefix, horizon: int) -> EPSet:
    """Set of p <= horizon realized as the smallest partial period of some position."""
    if horizon < 1:
        raise InvalidInputError(f"horizon must be positive, got {horizon}")
    L = len(prefix)
    if (_TERMS + 1) * horizon > L:
        raise InsufficientDataError(
            f"horizon {horizon} needs prefix length {(_TERMS + 1) * horizon}, have {L}",
            required_length=(_TERMS + 1) * horizon,
        )
    codes = prefix.codes
    nmax = L - _TERMS * horizon
    # every scanned position can be tested against every p <= horizon
    unresolved = np.arange(nmax, dtype=np.int64)  # 0-based indices
    witnesses = {}
    for p in range(1, horizon + 1):
        if unresolved.size == 0:
            break
        ok = partial_period_mask(codes, unresolved, p)
        if ok.any():
            witnesses[p] = int(unresolved[ok][0]) + 1
            unresolved = unresolved[~ok]
    return EPSet(periods=tuple(sorted(witnesses)), horizon=horizon, witnesses=witnesses)


@dataclass(frozen=True)
class PeriodSkeleton:
    """Per-level non-constant column M_k and fill letter l_k, k = 1..K."""

    levels: tuple  # M_k for k = 1..K
    letters: tuple  # l_k for k = 1..K
    classification: str
    window_used: int

    @property
    def depth(self) -> int:
        return len(self.levels)


def _skeleton_scan(codes: np.ndarray, K: int, shifts: int):
    """Yield (M_k, l_k code) arrays for k = 1..K over every window start n = 0..shifts.

    The window at start n is codes[n : n + 2^(K+2)].  At level k its columns
    are the 0-based positions n .. n + 2^k - 1, and position i heads a
    constant column when codes[i] == codes[i + j 2^k] for j = 1, 2, 3.  A
    window in the subshift has exactly one non-constant column; M_k is its
    1-based residue, and it is nested: M_k = M_(k-1) mod 2^(k-1).  l_k is the
    letter of the column that became constant at level k.

    The non-constant columns are marked once per level for all starts
    together, so the cost is O(K (shifts + 2^(K+2))) rather than a scan per
    start.  After the last level, the first start whose window breaks a rule
    raises NotInSubshiftError for its first failing level, as a scan window by
    window would; values yielded for such a window are meaningless.
    """
    if K < 1:
        raise InvalidInputError(f"depth K must be positive, got {K}")
    if shifts < 0:
        raise InvalidInputError(f"shifts must be nonnegative, got {shifts}")
    need = shifts + (1 << (K + 2))
    if len(codes) < need:
        over = f" over shifts 0..{shifts}" if shifts else ""
        raise InsufficientDataError(
            f"skeleton at depth {K}{over} needs prefix length {need}, have {len(codes)}",
            required_length=need,
        )
    starts = np.arange(shifts + 1)
    ok = np.ones(shifts + 1, dtype=bool)  # no rule broken at any level so far
    error = None  # (start, message) of the first window found to break a rule
    prev = None
    for k in range(1, K + 1):
        cols = 1 << k
        span = shifts + cols
        head = codes[:span]
        marked = np.flatnonzero(
            (head != codes[cols : cols + span])
            | (head != codes[2 * cols : 2 * cols + span])
            | (head != codes[3 * cols : 3 * cols + span])
        )
        first = np.searchsorted(marked, starts)
        count = np.searchsorted(marked, starts + cols) - first
        m = np.append(marked, 0)[first] - starts + 1  # the column, where count == 1
        bad = count != 1
        if prev is None:
            newly = np.where(m == 2, 1, 2)
        else:
            half = cols >> 1
            bad |= (m - prev) % half != 0
            newly = np.where(m != prev, prev, prev + half)
        bad &= ok
        if bad.any():
            n = int(np.argmax(bad))
            if error is None or n < error[0]:
                if count[n] == 0:
                    reason = (
                        f"window of length {4 * cols} is periodic with period {cols};"
                        f" no level-{k} non-constant column exists"
                    )
                elif count[n] > 1:
                    reason = (
                        f"{count[n]} non-constant columns at level {k};"
                        " a valid sequence has exactly one"
                    )
                else:
                    reason = f"level-{k} column {m[n]} is not nested in level-{k - 1} column {prev[n]}"
                error = (n, reason)
            ok &= ~bad
        yield m, codes[starts + np.where(ok, newly, 1) - 1]
        prev = m
    if error is not None:
        n, reason = error
        raise NotInSubshiftError(f"window at shift {n}: {reason}" if shifts else reason)


def skeleton_levels_from_codes(codes: np.ndarray, K: int):
    """(M_1..M_K, l_1..l_K codes) of the window codes[: 2^(K+2)]; ``deepest_columns`` scans all shifts."""
    scan = [(int(m[0]), int(letter[0])) for m, letter in _skeleton_scan(codes, K, 0)]
    return [m for m, _ in scan], [letter for _, letter in scan]


def deepest_columns(codes: np.ndarray, K: int, shifts: int) -> np.ndarray:
    """M_K of the window codes[n : n + 2^(K+2)] for every n = 0..shifts, in one scan."""
    for m, _ in _skeleton_scan(codes, K, shifts):
        pass
    return m


def period_skeleton(prefix: SymbolicPrefix, K: int) -> PeriodSkeleton:
    """Scan all residue columns of levels 1..K over the window [1, 2^(K+2)]."""
    levels, letter_codes = skeleton_levels_from_codes(prefix.codes, K)
    letters = tuple(prefix.alphabet.letters[c] for c in letter_codes)
    if K >= 2 and levels[-1] == levels[-2]:
        classification = EVENTUALLY_CONSTANT_MK
    else:
        classification = TOEPLITZ_LIKE
    return PeriodSkeleton(
        levels=tuple(levels),
        letters=letters,
        classification=classification,
        window_used=1 << (K + 2),
    )
