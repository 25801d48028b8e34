"""The factor map onto the dyadic integers, and fiber classification.

The subshift generated by the Grigorchuk fixed point maps onto the binary
odometer: there is a unique continuous map f with f(shift x) = f(x) + 1 and
f(fixed point) = 0.  The first k dyadic digits of f(x) are computable from
the first 2^(k+2) letters of x, ``toeplitz.skeleton_window(k)``: they are
the binary expansion of 2^k - M_k, where M_k is the level-k non-constant
column of the period skeleton.  ``encode_value`` is that one formula;
``verify_equivariance`` takes the M_k of every shift from one skeleton scan.

The map is injective away from a countable exceptional set: the backward
orbit of the single point (here the fixed point itself) whose shift
preimage is not a singleton.  ``classify_fiber`` decides, from a finite
window, which side of that dichotomy a sequence appears to be on.
"""

from __future__ import annotations

from typing import NamedTuple

from . import substitution, toeplitz
from .errors import InvalidInputError, NotInSubshiftError
from .substitution import SymbolicPrefix

TOEPLITZ_POINT = "toeplitz_point"
OMEGA_STAR_ORBIT = "omega_star_orbit"


def default_language_horizon(shift: int) -> int:
    """The horizon h, h - 1 letters after the shift, that reads past the head it repeats: max(64, 2^(j+2)).

    After a shift n = 2^j m, m odd, the first 2^j - 1 letters repeat the
    fixed point's head, which b, c and d all extend, so a horizon of 2^j or
    less reports those three letters for a point with one preimage letter.
    The head stays ambiguous longer when the letters of valuation j and of
    j + v2(m + 1) agree: n = 7 * 2^j needs a horizon of 3 * 2^j + 1.  That
    is the largest needed for any n up to 2^14, so 4 * 2^j covers them all
    (``tests/test_factormap.py`` checks every n up to 2^12).
    """
    return max(64, (shift & -shift) << 2)


class EncodingResult(NamedTuple):
    """First-k-digit dyadic encoding of a sequence, with its provenance."""

    value: DyadicInt
    window_used: int  # the skeleton window, 2^(k+2) letters


def encode_value(prefix_codes, k: int) -> int:
    """Integer value of the first k dyadic digits, 2^k - M_k, straight from the skeleton."""
    levels, _ = toeplitz.skeleton_levels_from_codes(prefix_codes, k)
    return (1 << k) - levels[-1]


def encode_fG(prefix: SymbolicPrefix, k: int) -> EncodingResult:
    """First k dyadic digits of the factor-map value of ``prefix``: ``encode_value`` as a DyadicInt.

    Normalized so the unshifted fixed point encodes to 0.
    """
    from .odometer import DyadicInt

    if k < 1:
        raise InvalidInputError(f"precision k must be positive, got {k}")
    value = DyadicInt(encode_value(prefix.codes, k), k)
    return EncodingResult(value=value, window_used=toeplitz.skeleton_window(k))


class EquivarianceReport(NamedTuple):
    precision: int
    shifts_checked: int
    values: tuple  # encoded integers at shifts 0..shifts


def verify_equivariance(prefix: SymbolicPrefix, k: int, shifts: int) -> EquivarianceReport:
    """The k-digit encodings of shifts 0..shifts of ``prefix``, from one skeleton scan.

    A shifted window outside the subshift raises NotInSubshiftError naming
    the first such shift.  Otherwise one level-k residue r serves every
    window, so the values 2^k - ((r - n) mod 2^k + 1) step by one mod 2^k
    by construction; ``verification`` checks where they start.
    """
    if shifts < 1:
        raise InvalidInputError(f"shifts must be positive, got {shifts}")
    values = tuple((1 << k) - m for m in toeplitz.deepest_columns(prefix.codes, k, shifts))
    return EquivarianceReport(precision=k, shifts_checked=shifts, values=values)


def sigma_preimage_letters(prefix: SymbolicPrefix) -> frozenset:
    """Letters l such that l + prefix is in the language, from one pass over every letter of ``prefix``.

    A word is in the language exactly when its exact measure is positive
    (the subshift is minimal and uniquely ergodic), measured through the
    prefix's own alphabet, where a symbol outside 'abcd' has measure 0.
    The prefix keeps the pass as its ``left_extensions``, read at most once.
    A prefix that no letter extends has measure 0: NotInSubshiftError.
    A caller who wants a horizon h passes the first h - 1 letters.
    """
    extending = prefix.left_extensions
    if not extending:
        raise NotInSubshiftError(f"the {len(prefix)} letters are not a factor of the fixed point")
    return extending


class FiberReport(NamedTuple):
    classification: str  # TOEPLITZ_POINT or OMEGA_STAR_ORBIT
    stabilization_index: int | None  # n with shift^n(x) = the exceptional point
    sigma_preimage_letters: frozenset


def classify_fiber(prefix: SymbolicPrefix, K: int) -> FiberReport:
    """Decide whether ``prefix`` looks like a Toeplitz point or sits over the exceptional orbit.

    The encoded value N_k = 2^k - M_k stabilizing at n means shift^n of the
    sequence may be the exceptional point (n = 0: the sequence may be that
    point itself); M_k stabilizing at n means shift^n may map it there from
    behind (a non-Toeplitz sequence).  The skeleton fixes only the digits
    of f, and a Toeplitz point shares them, so the index n stands only if
    the letters from n on are the fixed point's over the rest of the
    skeleton's window.  Otherwise, or if neither column index settles
    within the window, the sequence is a Toeplitz point as far as the data
    can tell.  The preimage test reads ``prefix.left_extensions``, one pass per prefix.
    """
    skeleton = toeplitz.period_skeleton(prefix, K)
    levels = skeleton.levels
    stabilization_index = None
    if all(m == 1 << (k + 1) for k, m in enumerate(levels)):
        # M_k = 2^k throughout: the window may be the exceptional point itself
        stabilization_index = 0
    elif skeleton.classification == toeplitz.EVENTUALLY_CONSTANT_MK:
        stabilization_index = levels[-1]
    if stabilization_index is not None:
        rest = skeleton.window_used - stabilization_index
        omega = substitution.GRIGORCHUK_ALPHABET.decode(substitution.grigorchuk_codes(rest))
        if prefix.alphabet.decode(prefix.codes[stabilization_index : skeleton.window_used]) != omega:
            stabilization_index = None
    classification = TOEPLITZ_POINT if stabilization_index is None else OMEGA_STAR_ORBIT
    return FiberReport(
        classification=classification,
        stabilization_index=stabilization_index,
        sigma_preimage_letters=sigma_preimage_letters(prefix),
    )
