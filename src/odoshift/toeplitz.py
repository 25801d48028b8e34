"""Partial periods, essential periods, and the level-k period skeleton.

A position n of a sequence has partial period p when the letters at
n, n+p, n+2p, ... all agree.  Only the first three multiples are checked.
At every position n of the Grigorchuk fixed point that is conclusive:
the four terms agree exactly when v2(p) > v2(n), and then all further
terms agree, as ``verification.check_four_term_rigidity`` proves for every
n.  So it is at every position of each shift of the fixed point; and as
each window of a point of the orbit closure is a factor of the fixed
point, there too four equal terms force all further terms to agree.  One search,
``_smallest_periods``, finds smallest partial periods for both
``smallest_partial_period`` and ``essential_periods``.  It holds one slice
of ``_BLOCK`` positions at a time, so its memory does not grow with the
prefix.

The period skeleton records, for each level k, the unique residue class
M_k mod 2^k whose column is not constant, together with the letter l_k
that fills the column which became constant at level k.  Both are closed
forms of f, the factor-map value (``factormap``): 1-based position j holds
F(v2(i + j)) (``grigorchuk_letter``) for every start i of the window in
the fixed point, all f mod 2^(K+1).  Only the column of f + j = 0 mod 2^k
meets valuations k and k + 1 in four terms, so M_k = 2^k - (f mod 2^k); the
column that became constant has valuation k - 1, so l_k = F(k - 1).  f is
what the one language test, ``require_factor``, certifies: a window's
``fixed_point_start``, or the digits that the leaves of read letters give.
The partial-period search runs on the standard library: it reads a
slice's codes as bytes and as the bit planes that ``ergodic`` counts on.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InsufficientDataError, InvalidInputError, NotInSubshiftError
from .substitution import SymbolicPrefix, _plane, grigorchuk_letter

TOEPLITZ_LIKE = "toeplitz_like"
EVENTUALLY_CONSTANT_MK = "eventually_constant_Mk"

_TERMS = 3  # multiples checked beyond the base position
_BLOCK = 1 << 16  # positions per slice
_SPARSE = 1 << 10  # live positions of a slice at most, from which each is searched on its own
# for each code, the translate to 1 where a byte is that code and 0 elsewhere
_MATCH = tuple(bytes(int(c == code) for c in range(256)) for code in range(4))


def _residues(block: bytes):
    """The bytes of ``block`` at the indices 0 and 1 mod 2, and at 0, 1 and 2 mod 3."""
    return [block[r::2] for r in range(2)], [block[r::3] for r in range(3)]


def _smallest_periods(codes, start: int, stop: int, horizon: int):
    """(p, n) for each p <= horizon that is the smallest partial period of a 0-based n in start..stop-1.

    The positions are resolved in slices of ``_BLOCK``, one slice at a time.
    Each slice yields its periods in increasing order, each with the first
    position of the slice that has it; a later slice may yield a period
    again, with a later position.  A slice reads its positions and the
    3 reach letters after them as ``block``, which covers the periods up to
    reach: at first the lesser of the horizon and the slice's size, so a
    slice reads no more than 4 times its positions before a search needs
    more.  It tests each position still live, with no partial period found
    yet, in two phases:

    - While more than ``_SPARSE`` positions are live, one p <= reach at a
      time at all of them: on the two bit planes of the block, bit i the
      code of block[i], ``ne`` marks the i where block[i + p] differs, and
      a live i accepts p when none of i, i + p and i + 2p is marked.
    - Then each live position on its own, over windows of periods that
      double in width, the block read again to at least twice the reach
      when a window passes it.  The position's terms j = 1..3 in the
      window are contiguous bytes of the block and of its residues mod 2
      and mod 3, each translated to 1 where it holds the position's
      letter; the first period where all three do is its smallest.

    The caller keeps n + 3 horizon inside the codes.
    """
    for first in range(start, stop, _BLOCK):
        size = min(_BLOCK, stop - first)
        reach = min(horizon, size)
        block = bytes(codes[first : first + size + _TERMS * reach])
        live, count, p = (1 << size) - 1, size, 1
        if count > _SPARSE:
            # the planes of the block reversed, whose top bit is its last code: bit i is block[i]
            low, high = (_plane(block[::-1], bit) for bit in (0, 1))
            while count > _SPARSE and p <= reach:
                ne = (low ^ low >> p) | (high ^ high >> p)
                t = ne >> p
                new = live & ~(ne | t | t >> p)
                if new:
                    yield p, first + (new & -new).bit_length() - 1
                    live ^= new
                    count -= new.bit_count()
                p += 1
        if p > horizon:
            continue
        halves, thirds = _residues(block)
        found = {}  # period -> the first position of the slice whose smallest partial period it is
        flags = format(live, "b")[::-1]  # character i is bit i of live
        i = flags.find("1")
        while i >= 0:
            i2, i3, match, q, end = i // 2, i // 3, _MATCH[block[i]], p, 2 * p
            while q <= horizon:
                end = min(end, horizon + 1)
                if end - 1 > reach:
                    reach = min(horizon, max(2 * reach, end - 1))
                    block = bytes(codes[first : first + size + _TERMS * reach])
                    halves, thirds = _residues(block)
                half, third = halves[i % 2], thirds[i % 3]
                # the term j = 2 first: on a Toeplitz word it most often holds nowhere in a window
                hits = int.from_bytes(half[i2 + q : i2 + end].translate(match), "little")
                if hits:
                    hits &= int.from_bytes(block[i + q : i + end].translate(match), "little")
                if hits:
                    hits &= int.from_bytes(third[i3 + q : i3 + end].translate(match), "little")
                if hits:
                    found.setdefault(q + ((hits & -hits).bit_length() - 1 >> 3), first + i)
                    break
                q, end = end, 2 * end
            i = flags.find("1", i + 1)
        for q in sorted(found):
            yield q, found[q]


def smallest_partial_period(prefix: SymbolicPrefix, n: int) -> int:
    """Least p accepted at position n, among the p whose test fits in the prefix."""
    if n < 1 or n > len(prefix):
        raise InvalidInputError(f"position {n} outside 1..{len(prefix)}")
    L = len(prefix)
    last = (L - n) // _TERMS  # the largest p whose test fits in the prefix
    for p, _ in _smallest_periods(prefix.codes, n - 1, n, last):
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
    """Set of p <= horizon realized as the smallest partial period of some position.

    Every position that can be tested against every p <= horizon is
    scanned.  The witness of p is the first position whose smallest partial
    period is p: the slices of ``_smallest_periods`` ascend, so the first
    pair of p holds it.
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be positive, got {horizon}")
    L = len(prefix)
    if (_TERMS + 1) * horizon > L:
        raise InsufficientDataError(
            f"horizon {horizon} needs prefix length {(_TERMS + 1) * horizon}, have {L}",
            required_length=(_TERMS + 1) * horizon,
        )
    witnesses = {}
    for p, n in _smallest_periods(prefix.codes, 0, L - _TERMS * horizon, horizon):
        witnesses.setdefault(p, n + 1)
    return EPSet(periods=tuple(sorted(witnesses)), witnesses=witnesses)


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
