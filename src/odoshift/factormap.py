"""The factor map onto the dyadic integers, and fiber classification.

The subshift generated by the Grigorchuk fixed point maps onto the binary
odometer: there is a unique continuous map f with f(shift x) = f(x) + 1 and
f(fixed point) = 0.  So f of the fixed point shifted n times is n, a
window's ``fixed_point_start``.  Read letters give f mod 2^D, the low
digits that all their starts in the fixed point share, at least k + 1 in
2^(k+2) letters (``language.factor_digits``), and a shift by n adds n.
``toeplitz.require_factor``, the one language test, hands them back.
``encode_fG`` and ``classify_fiber`` read f through
``toeplitz.period_skeleton``, M_k = 2^k - (f mod 2^k); ``encode_fG``
gives the digits as a ``DyadicInt``, defined here, where the map is.
``verify_equivariance`` gives (f + n) mod 2^k at every shift n, and
``sigma_preimage_letters`` asks ``require_factor`` of every letter it reads.

The map is injective away from a countable exceptional set: the backward
orbit of the single point (here the fixed point itself) whose shift
preimage is not a singleton.  A sequence x is on that orbit exactly when
f(x) = -n for some n >= 0 and the letters of x from n on are the fixed
point's.  ``classify_fiber`` takes n from the first K digits of f and
checks every letter it holds from n on; on a prefix known to be the fixed
point shifted n times, only n = 0 is on the orbit, the fixed point being
aperiodic.
"""

from __future__ import annotations

from typing import NamedTuple

from . import toeplitz
from .errors import Immutable, InvalidInputError
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
    (``tests/test_factormap.py`` checks every n up to 2^14).
    """
    return max(64, (shift & -shift) << 2)


class DyadicInt(Immutable):
    """Residue mod 2^precision approximating a 2-adic integer."""

    _fields = ("value", "precision")

    def __init__(self, value: int, precision: int):
        if precision < 1:
            raise InvalidInputError(f"precision must be positive, got {precision}")
        if not 0 <= value < 1 << precision:
            raise InvalidInputError(f"value {value} outside 0..2^{precision} - 1")
        vars(self).update(value=value, precision=precision)

    def to_text(self) -> str:
        """Binary digits, least significant first."""
        return format(self.value, f"0{self.precision}b")[::-1]


class EncodingResult(NamedTuple):
    """First-k-digit dyadic encoding of a sequence, with its provenance."""

    value: DyadicInt
    window_used: int  # the skeleton window, 2^(k+2) letters


def encode_value(prefix_codes, k: int) -> int:
    """Integer value of the first k dyadic digits of codes that must be a factor: ``encode_fG`` of their letters.

    Kept for the benchmark's tracer, which binds this signature; no caller in the package needs it.
    """
    return encode_fG(SymbolicPrefix(prefix_codes), k).value.value


def encode_fG(prefix: SymbolicPrefix, k: int) -> EncodingResult:
    """First k dyadic digits of the factor-map value of ``prefix``, 2^k - M_k, as a DyadicInt.

    Normalized so the unshifted fixed point encodes to 0.  Window letters
    that are no factor of the fixed point raise NotInSubshiftError.
    """
    if k < 1:
        raise InvalidInputError(f"precision k must be positive, got {k}")
    skeleton = toeplitz.period_skeleton(prefix, k)
    return EncodingResult(value=DyadicInt((1 << k) - skeleton.levels[-1], k), window_used=skeleton.window_used)


def verify_equivariance(prefix: SymbolicPrefix, k: int, shifts: int) -> tuple:
    """The k-digit encodings of shifts 0..shifts of ``prefix``: (f + n) mod 2^k at shift n.

    The shifts + 2^(k+2) letters read must be a factor of the fixed point,
    else NotInSubshiftError; ``verification`` checks where the values start.
    """
    if shifts < 1:
        raise InvalidInputError(f"shifts must be positive, got {shifts}")
    f = toeplitz._skeleton_digits(prefix, k, shifts)
    return tuple((f + n) % (1 << k) for n in range(shifts + 1))


def sigma_preimage_letters(prefix: SymbolicPrefix) -> frozenset:
    """Letters l such that l + prefix is in the language, from one pass over every letter of ``prefix``.

    A word is in the language exactly when its exact measure is positive
    (the subshift is minimal and uniquely ergodic), measured on the
    prefix's codes, one letter set each, with no letter decoded.  The
    prefix keeps the pass as its ``left_extensions``, read at most once.
    A prefix that no letter extends has measure 0: ``require_factor``'s
    NotInSubshiftError.  A caller who wants a horizon h passes h - 1 letters.
    """
    toeplitz.require_factor(prefix, len(prefix))
    return prefix.left_extensions


class FiberReport(NamedTuple):
    classification: str  # TOEPLITZ_POINT or OMEGA_STAR_ORBIT
    stabilization_index: int | None  # n with shift^n(x) = the exceptional point
    sigma_preimage_letters: frozenset


def classify_fiber(prefix: SymbolicPrefix, K: int) -> FiberReport:
    """Decide whether ``prefix`` is a Toeplitz point or on the backward orbit of the exceptional point.

    x is on that orbit at index n exactly when f(x) = -n and its letters
    from n on are the fixed point's.  So n = -f mod 2^K = M_K mod 2^K is a
    candidate when n = 0, or when K >= 2 and n <= 2^(K-1) (M_K = M_(K-1)),
    and it stands only if every letter held from n on is the fixed point's:
    the digits of f do not tell such a sequence from a Toeplitz point that
    shares them.  A prefix with a ``fixed_point_start`` is on the orbit only
    at start 0, since no shift of the aperiodic fixed point is the fixed
    point.  The preimage test comes first, so it rejects letters of measure 0.
    """
    from . import language  # not loaded by encode on the fixed point, which runs no language test

    n = toeplitz.period_skeleton(prefix, K).levels[-1] % (1 << K)
    letters = sigma_preimage_letters(prefix)
    candidate = n == 0 or K >= 2 and n <= 1 << (K - 1)
    if prefix.fixed_point_start is not None:
        n = None if prefix.fixed_point_start else 0
    elif not (candidate and language.spells_fixed_point(prefix.codes[n:])):
        n = None
    return FiberReport(
        classification=TOEPLITZ_POINT if n is None else OMEGA_STAR_ORBIT,
        stabilization_index=n,
        sigma_preimage_letters=letters,
    )
