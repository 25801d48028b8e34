"""Partial periods, essential periods, and the level-k period skeleton: closed forms of f.

A position n of a sequence has partial period p when the letters at
n, n+p, n+2p, ... all agree.  Only the first three multiples are checked.
At every position n of the Grigorchuk fixed point that is conclusive:
the four terms agree exactly when v2(p) > v2(n), and then all further
terms agree, as ``verification.check_four_term_rigidity`` proves for every
n.  The period skeleton records, for each level k, the unique residue
class M_k mod 2^k whose column is not constant, together with the letter
l_k that fills the column which became constant at level k.

Each answer is a closed form of f, the factor-map value (``factormap``),
and reads no letter: 1-based position j holds F(v2(i + j))
(``grigorchuk_letter``) for every start i of the letters in the fixed
point, each i = f mod 2^D.  f is what the one language test,
``require_factor``, certifies: a window's ``fixed_point_start``, exactly,
or the digits that the leaves of L read letters give, D >= floor(log2 L) - 1
(``language.factor_digits``).  So the smallest partial period of n is
2^(v2(f + n) + 1), and the essential periods are the powers of two (their
docstrings give the argument).  Only the column of f + j = 0 mod 2^k meets
valuations k and k + 1 in four terms, so M_k = 2^k - (f mod 2^k); the
column that became constant has valuation k - 1, so l_k = F(k - 1).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InsufficientDataError, InvalidInputError, NotInSubshiftError
from .substitution import SymbolicPrefix, grigorchuk_letter

TOEPLITZ_LIKE = "toeplitz_like"
EVENTUALLY_CONSTANT_MK = "eventually_constant_Mk"

_TERMS = 3  # multiples checked beyond the base position


def smallest_partial_period(prefix: SymbolicPrefix, n: int) -> int:
    """Least p accepted at position n, among the p whose test fits in the prefix: 2^(v2(f + n) + 1).

    The test at n accepts p exactly when v2(p) > v2(i + n) for every
    start i of the L letters (rigidity), and every start is f mod 2^D
    (``require_factor``).  If f + n != 0 mod 2^D, every v2(i + n) is
    v2(f + n), so the least accepted p is 2^(v2(f + n) + 1), the answer
    when its test fits, n + 3p <= L.  Otherwise every accepted p is at
    least 2^(D+1), and D >= floor(log2 L) - 1 (a window's f is exact) gives
    n + 3 * 2^(D+1) > L: no accepted p fits, as when 2^(v2(f + n) + 1) does
    not.  Then the InsufficientDataError names the least p past the last
    that fits.  Read letters off the language raise NotInSubshiftError,
    after the position is checked.
    """
    L = len(prefix)
    if n < 1 or n > L:
        raise InvalidInputError(f"position {n} outside 1..{L}")
    m = require_factor(prefix, L) + n
    p, last = 2 * (m & -m), (L - n) // _TERMS  # 2^(v2(f + n) + 1), and the largest p whose test fits
    if p <= last:
        return p
    p = last + 1
    raise InsufficientDataError(
        f"no partial period certifiable at position {n} within prefix length {L};"
        f" testing p={p} needs length {n + _TERMS * p}",
        required_length=n + _TERMS * p,
    )


class EPSet(NamedTuple):
    """Essential partial periods found below a horizon, with witnesses."""

    periods: tuple
    witnesses: dict  # period -> the first position whose smallest partial period it is


def essential_periods(prefix: SymbolicPrefix, horizon: int) -> EPSet:
    """Set of p <= horizon realized as the smallest partial period of some position: 2^1..2^floor(log2 h).

    The positions are those whose test fits for every p <= h, n = 1..L - 3h,
    and 4h <= L makes them at least h, so they meet every class mod 2^k for
    2^k <= h.  The smallest partial period of n is 2^(v2(f + n) + 1)
    (``smallest_partial_period``) wherever it is at most h, so the periods
    are 2^k for k = 1..floor(log2 h), and the witness of 2^k, the first n
    with v2(f + n) = k - 1, is the least n >= 1 with n = 2^(k-1) - f mod 2^k.
    That reads k <= log2 L - 2 < D digits of f.  The horizon and the length
    are checked first, then the language: read letters off it raise
    NotInSubshiftError.
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be positive, got {horizon}")
    L = len(prefix)
    if (_TERMS + 1) * horizon > L:
        raise InsufficientDataError(
            f"horizon {horizon} needs prefix length {(_TERMS + 1) * horizon}, have {L}",
            required_length=(_TERMS + 1) * horizon,
        )
    f = require_factor(prefix, L)
    witnesses = {p: ((p >> 1) - f - 1) % p + 1 for p in (1 << k for k in range(1, horizon.bit_length()))}
    return EPSet(periods=tuple(witnesses), witnesses=witnesses)


class PeriodSkeleton(NamedTuple):
    """Per-level non-constant column M_k and fill letter l_k, k = 1..K."""

    levels: tuple  # M_k for k = 1..K
    letters: tuple  # l_k for k = 1..K
    classification: str
    window_used: int


def skeleton_window(K: int) -> int:
    """Letters the depth-K skeleton reads from each start: 2^(K+2), four terms of each of the 2^K columns."""
    return 1 << (K + 2)


def require_factor(prefix: SymbolicPrefix, length: int) -> int:
    """f mod 2^D of ``prefix``, D the digits its first ``length`` letters fix: NotInSubshiftError unless a factor.

    The one language test: some letter extends them, ``left_extensions``,
    whose pass also gives their digits, kept on the prefix when they are
    all of it.  A window's f is its ``fixed_point_start``, exactly, and read
    letters that hold digits already are untested.
    """
    if prefix.fixed_point_start is not None:
        return prefix.fixed_point_start
    if prefix._digits is None:
        letters = prefix if length == len(prefix) else SymbolicPrefix._view(prefix.codes[:length], None)
        if not letters.left_extensions:
            raise NotInSubshiftError(f"the {length} letters are not a factor of the fixed point")
        return letters._digits
    return prefix._digits


def _skeleton_digits(prefix: SymbolicPrefix, K: int, shifts: int = 0) -> int:
    """f mod 2^K of ``prefix``, from its first shifts + 2^(K+2) letters, which ``require_factor`` certifies."""
    if K < 1:
        raise InvalidInputError(f"depth K must be positive, got {K}")
    need = shifts + skeleton_window(K)
    if len(prefix) < need:
        over = f" over shifts 0..{shifts}" if shifts else ""
        raise InsufficientDataError(
            f"skeleton at depth {K}{over} needs prefix length {need}, have {len(prefix)}",
            required_length=need,
        )
    return require_factor(prefix, need) % (1 << K)


def period_skeleton(prefix: SymbolicPrefix, K: int) -> PeriodSkeleton:
    """The skeleton of levels 1..K over the window [1, 2^(K+2)]: the closed forms at f (module docstring)."""
    f = _skeleton_digits(prefix, K)
    levels = tuple((1 << k) - f % (1 << k) for k in range(1, K + 1))
    letters = tuple(grigorchuk_letter(1 << (k - 1)) for k in range(1, K + 1))
    classification = EVENTUALLY_CONSTANT_MK if K >= 2 and levels[-1] == levels[-2] else TOEPLITZ_LIKE
    return PeriodSkeleton(levels=levels, letters=letters, classification=classification,
                          window_used=skeleton_window(K))
