"""The CF-set algebra that decides which odometers factor through which.

A CF set is the collection of orders of cyclic permutations that arise as
continuous factors of a transformation.  Such sets are divisor-closed and
lcm-closed, so they are exactly the divisor sets of supernatural numbers:
formal products prod p^e_p with exponents in {0, 1, 2, ..., infinity}.
One odometer factors through another exactly when its CF set is a subset,
a componentwise comparison of exponent maps.  ``verification`` checks that
the CF set of the fixed point's essential periods is that of
``BINARY_ODOMETER``, the maximal equicontinuous factor, up to the horizon.
The factor map onto it and its ``DyadicInt`` values are in ``factormap``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .errors import Immutable, InvalidInputError

INFINITY = math.inf


def factorize(n: int) -> dict:
    """Prime -> exponent map of a positive integer (trial division)."""
    if n < 1:
        raise InvalidInputError(f"cannot factorize {n}; need n >= 1")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class CFSet(Immutable):
    """Divisor set of a supernatural number prod p^e_p.

    ``exponents`` maps primes to positive ints or INFINITY; absent primes
    have exponent 0, and an exponent 0 given is dropped.  Members are the
    n >= 1 all of whose prime powers fit under the exponent map.  Equal sets
    have equal exponent maps; the hash is the same for every set.
    """

    _fields = ("exponents",)
    _hash_fields = ()

    def __init__(self, exponents: Mapping[int, float]):
        clean = {}
        for p, e in dict(exponents).items():
            if p < 2 or factorize(p) != {p: 1}:
                raise InvalidInputError(f"exponent key {p} is not prime")
            if e == 0:
                continue
            if e != INFINITY and (not isinstance(e, int) or e < 0):
                raise InvalidInputError(f"exponent of {p} must be a nonnegative int or INFINITY, got {e!r}")
            clean[p] = e
        vars(self).update(exponents=clean)

    def exponent(self, p: int) -> float:
        return self.exponents.get(p, 0)


def cf_contains(cf: CFSet, n: int) -> bool:
    """True iff n divides the supernatural number.

    Each prime of the set divides n out at most its exponent times; n is a
    member iff 1 is left.  n itself is never factorized.
    """
    if n < 1:
        raise InvalidInputError(f"membership is defined for n >= 1, got {n}")
    for p, e in cf.exponents.items():
        while e > 0 and n % p == 0:
            n //= p
            e -= 1
    return n == 1


def cf_subset(a: CFSet, b: CFSet) -> bool:
    """Exponentwise a <= b; decides 'odometer of a is a factor of odometer of b'."""
    return all(e <= b.exponent(p) for p, e in a.exponents.items())


def cf_equal(a: CFSet, b: CFSet) -> bool:
    """Decides continuous conjugacy of the corresponding odometers."""
    return a == b


def cf_to_text(cf: CFSet) -> str:
    if not cf.exponents:
        return "1"
    parts = []
    for p in sorted(cf.exponents):
        e = cf.exponents[p]
        parts.append(f"{p}^inf" if e == INFINITY else f"{p}^{e}")
    return "*".join(parts)


class PowerFamily(Immutable):
    """All powers base^k, k >= 1, as an infinite generator family."""

    _fields = ("base",)

    def __init__(self, base: int):
        if base < 2:
            raise InvalidInputError(f"power family base must be >= 2, got {base}")
        vars(self).update(base=base)


def cf_closure(generators) -> CFSet:
    """Smallest divisor- and lcm-closed set containing the generators.

    Generators are positive ints, or PowerFamily markers for explicitly
    parametrized infinite families (whose primes get infinite exponent).
    """
    gens = list(generators)
    if not gens:
        raise InvalidInputError("generator set must be nonempty")
    exponents = {}
    for g in gens:
        if isinstance(g, PowerFamily):
            for p in factorize(g.base):
                exponents[p] = INFINITY
        elif isinstance(g, int) and not isinstance(g, bool):
            if g < 1:
                raise InvalidInputError(f"generators must be positive, got {g}")
            for p, e in factorize(g).items():
                if exponents.get(p, 0) != INFINITY:
                    exponents[p] = max(exponents.get(p, 0), e)
        else:
            raise InvalidInputError(f"unrecognized generator {g!r}; expected int or PowerFamily")
    return CFSet(exponents)


# ---------------------------------------------------------------------------
# Odometers.


class OdometerSpec(Immutable):
    """Odometer on Z_{n1} x Z_{n2} x ..., the factors of ``repeat`` repeated forever.

    Factors of 1 are normalized away, and at least one factor must be left.
    The binary odometer is OdometerSpec(repeat=(2,)).
    """

    _fields = ("repeat",)

    def __init__(self, repeat: tuple):
        repeat = tuple(int(n) for n in repeat if int(n) != 1)
        if not repeat or min(repeat) < 2:
            raise InvalidInputError(f"odometer factors must be >= 2, and one at least, got {repeat}")
        vars(self).update(repeat=repeat)


BINARY_ODOMETER = OdometerSpec(repeat=(2,))


def cf_of_odometer(spec: OdometerSpec) -> CFSet:
    """Orders of cyclic factors: divisors of sup_k n_1 n_2 ... n_k."""
    return cf_closure([PowerFamily(math.prod(spec.repeat))])
