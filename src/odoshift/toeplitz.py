"""Partial periods, essential periods, and the level-k period skeleton.

A position n of a sequence has partial period p when the letters at
n, n+p, n+2p, ... all agree.  Only the first three multiples are checked:
for sequences drawn from the orbit closure of the Grigorchuk fixed point
this is already conclusive, because four equal terms force all further
terms to agree.  One search, ``_smallest_periods``, finds smallest partial
periods for both ``smallest_partial_period`` and ``essential_periods``.  It
holds one slice of ``_BLOCK`` positions at a time, so its memory does not
grow with the prefix.

The period skeleton records, for each level k, the unique residue class
M_k mod 2^k whose column is not constant, together with the letter l_k
that fills the column which became constant at level k.  These per-level
data are what the dyadic encoding in ``factormap`` is built from.  The
skeleton scan reads the codes as Python integers, one byte per letter,
and only measures: whether the letters are a factor is the one language
test, ``require_factor``, which ``period_skeleton`` and ``factormap`` ask
of every letter they read.  numpy is imported only by the partial-period
functions, which read the codes through ``np.frombuffer``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InsufficientDataError, InvalidInputError, NotInSubshiftError
from .substitution import SymbolicPrefix

TOEPLITZ_LIKE = "toeplitz_like"
EVENTUALLY_CONSTANT_MK = "eventually_constant_Mk"

_TERMS = 3  # multiples checked beyond the base position
_BLOCK = 1 << 14  # positions per slice, and most positions x periods tested in one numpy pass


def partial_period_mask(codes, starts, p):
    """The four-term test codes[n] == codes[n + j p], j = 1..3, at 0-based ``starts``.

    ``codes`` is bytes-like; ``starts`` and ``p`` are integers or arrays that
    broadcast together."""
    import numpy as np

    codes = np.frombuffer(codes, dtype=np.uint8)
    base = codes[starts]
    ok = codes[starts + p] == base
    for j in range(2, _TERMS + 1):
        ok &= codes[starts + j * p] == base
    return ok


def _smallest_periods(codes, start: int, stop: int, horizon: int):
    """(p, n) for each p <= horizon that is the smallest partial period of a 0-based n in start..stop-1.

    The positions are resolved in slices of ``_BLOCK``, one slice at a time.
    The positions of a slice with no partial period found yet are tested
    against at most 8p periods from p, and as many as keep positions x
    periods within ``_BLOCK`` cells, so the blocks of periods widen as positions resolve.
    A position's smallest partial period is the first period of the block
    that it accepts.  Each slice yields its periods in increasing order, each
    with the first position of the slice that has it; a later slice may yield
    a period again, with a later position.  The test is
    ``partial_period_mask``'s, with its first term, codes[n + p] == codes[n],
    taken on every cell and the further terms gathered only at the cells
    where that one holds: on the fixed point about one cell in five.  The
    caller keeps n + 3 horizon inside the codes.
    """
    import numpy as np

    codes = np.frombuffer(codes, dtype=np.uint8)
    for first in range(start, stop, _BLOCK):
        live = np.arange(first, min(first + _BLOCK, stop))
        p = 1
        while p <= horizon and live.size:
            block = np.arange(p, min(p + min(_BLOCK // live.size, 8 * p), horizon + 1))
            ok = codes[live[:, None] + block] == codes[live][:, None]
            cells = np.flatnonzero(ok)
            n, q = live[cells // len(block)], block[cells % len(block)]
            base, held = codes[n], True
            n += q
            for _ in range(2, _TERMS + 1):
                n += q  # n + j q, stepped in place, so no further index array is made
                held &= codes[n] == base
            ok.ravel()[cells] = held
            accepts = ok.any(axis=1)
            # each accepting position's smallest partial period, and the first position that has each
            found, heads = np.unique(ok.argmax(axis=1)[accepts], return_index=True)
            yield from zip((p + found).tolist(), live[accepts][heads].tolist())
            live = live[~accepts]
            p += len(block)


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


def _skeleton_residues(codes, K: int, shifts: int) -> list:
    """r_k, k = 1..K: the window at every start n = 0..shifts has M_k = (r_k - n) mod 2^k + 1.

    The window at start n is codes[n : n + 2^(K+2)], and the codes must be
    a factor of the fixed point: the scan only measures.  At level k,
    c = 2^k, position i heads a constant column when codes[i] ==
    codes[i + j c] for j = 1, 2, 3.  A factor's window has exactly one
    non-constant column at each level, nested, so the positions heading
    non-constant columns are r_k, r_k + c, ..., and r_k is the first of
    them: the lowest nonzero byte of the positions i < c, read as one
    little-endian integer and XORed with the reads j c further on.  The
    shifts count only towards the length the codes must have.
    """
    if K < 1:
        raise InvalidInputError(f"depth K must be positive, got {K}")
    if shifts < 0:
        raise InvalidInputError(f"shifts must be nonnegative, got {shifts}")
    need = shifts + skeleton_window(K)
    if len(codes) < need:
        over = f" over shifts 0..{shifts}" if shifts else ""
        raise InsufficientDataError(
            f"skeleton at depth {K}{over} needs prefix length {need}, have {len(codes)}",
            required_length=need,
        )
    residues = []
    for k in range(1, K + 1):
        c = 1 << k
        head = int.from_bytes(codes[:c], "little")
        diff = 0
        for j in (1, 2, 3):
            diff |= head ^ int.from_bytes(codes[j * c : (j + 1) * c], "little")
        residues.append(((diff & -diff).bit_length() - 1) >> 3)  # the lowest nonzero byte
    return residues


def skeleton_levels_from_codes(codes, K: int):
    """(M_1..M_K, l_1..l_K codes) of the window codes[: 2^(K+2)], which must be a factor of the fixed point."""
    levels = [r + 1 for r in _skeleton_residues(codes, K, 0)]
    # l_k fills the column that became constant at level k
    newly = [1 if levels[0] == 2 else 2]
    for k, (prev, m) in enumerate(zip(levels, levels[1:]), start=1):
        newly.append(prev if m != prev else prev + (1 << k))
    return levels, [codes[i - 1] for i in newly]


def deepest_columns(codes, K: int, shifts: int) -> list:
    """M_K of the window codes[n : n + 2^(K+2)] for every n = 0..shifts, which must be a factor of the fixed point."""
    r = _skeleton_residues(codes, K, shifts)[-1]
    c = 1 << K
    return [(r - n) % c + 1 for n in range(shifts + 1)]


def require_factor(prefix: SymbolicPrefix, length: int) -> None:
    """NotInSubshiftError unless the first ``length`` letters of ``prefix`` are a factor of the fixed point.

    The one language test: some letter extends them, ``left_extensions``,
    kept on the prefix when they are all of it.  A prefix with a
    ``fixed_point_start``, or read letters with ``_factor`` set, is untested.
    """
    if prefix.fixed_point_start is not None or prefix._factor:
        return
    letters = prefix if length == len(prefix) else SymbolicPrefix._view(prefix.codes[:length], False)
    if not letters.left_extensions:
        raise NotInSubshiftError(f"the {length} letters are not a factor of the fixed point")


def period_skeleton(prefix: SymbolicPrefix, K: int) -> PeriodSkeleton:
    """Scan all residue columns of levels 1..K over the window [1, 2^(K+2)], a factor by ``require_factor``."""
    levels, letter_codes = skeleton_levels_from_codes(prefix.codes, K)
    require_factor(prefix, skeleton_window(K))
    letters = tuple("abcd"[c] for c in letter_codes)
    classification = EVENTUALLY_CONSTANT_MK if K >= 2 and levels[-1] == levels[-2] else TOEPLITZ_LIKE
    return PeriodSkeleton(levels=tuple(levels), letters=letters, classification=classification,
                          window_used=skeleton_window(K))
