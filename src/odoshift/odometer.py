"""Generalized odometers and CF-set algebra.

A CF set is the collection of orders of cyclic permutations that arise as
continuous factors of a transformation.  Such sets are divisor-closed and
lcm-closed, so they are exactly the divisor sets of supernatural numbers:
formal products prod p^e_p with exponents in {0, 1, 2, ..., infinity}.
That representation makes the factor and conjugacy questions for odometers
a componentwise comparison of exponent maps.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .errors import Immutable, InvalidInputError

INFINITY = math.inf


def __getattr__(name):
    # the truncated dyadic integers are the factor map's values, defined in factormap, and
    # re-exported here when read: encode loads no odometer, and importing odometer loads no factormap
    if name == "DyadicInt":
        from .factormap import DyadicInt

        return DyadicInt
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def cf_members(cf: CFSet, limit: int) -> list:
    """The members n < limit in ascending order.

    They are the products of prime powers p^k with k <= e_p, listed one
    prime at a time, so no n outside the set is tested.
    """
    members = [1] if limit > 1 else []
    for p, e in cf.exponents.items():
        grown = []
        for m in members:
            k = 0
            while k <= e and m < limit:
                grown.append(m)
                m *= p
                k += 1
        members = grown
    return sorted(members)


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
    """Odometer on Z_{n1} x Z_{n2} x ...

    ``bases`` is the known finite head; a nonempty ``repeat`` block continues
    forever after it.  Factors of 1 are normalized away.  The binary odometer
    is OdometerSpec(bases=(), repeat=(2,)).
    """

    _fields = ("bases", "repeat")

    def __init__(self, bases: tuple = (), repeat: tuple = ()):
        bases = tuple(int(n) for n in bases if int(n) != 1)
        repeat = tuple(int(n) for n in repeat if int(n) != 1)
        for n in bases + repeat:
            if n < 2:
                raise InvalidInputError(f"odometer factors must be >= 2, got {n}")
        vars(self).update(bases=bases, repeat=repeat)

    @property
    def is_finite(self) -> bool:
        return not self.repeat

    def radix_at(self, i: int) -> int:
        """Factor n_{i+1} (0-based i)."""
        if i < len(self.bases):
            return self.bases[i]
        if self.repeat:
            return self.repeat[(i - len(self.bases)) % len(self.repeat)]
        raise InvalidInputError(f"finite odometer spec {self.bases} has no factor at index {i}")


BINARY_ODOMETER = OdometerSpec(bases=(), repeat=(2,))


def spec_to_text(spec: OdometerSpec) -> str:
    """Comma-separated factors; a trailing ',...' repeats the last factor forever."""
    items = [str(n) for n in spec.bases + spec.repeat]
    if spec.repeat:
        if len(spec.repeat) != 1:
            raise InvalidInputError(
                f"text form only supports a single repeating factor, got block {spec.repeat}"
            )
        items.append("...")
    return ",".join(items) if items else "1"


class OdometerState(Immutable):
    """Digits m_i with 0 <= m_i < n_i, for a finite truncation of a spec."""

    _fields = ("digits",)

    def __init__(self, digits: tuple):
        vars(self).update(digits=tuple(int(d) for d in digits))


def _validate_state(state: OdometerState, spec: OdometerSpec) -> list:
    """The radices n_1, n_2, ... of the state's digits; InvalidInputError if a digit is out of range."""
    if spec.is_finite and len(state.digits) != len(spec.bases):
        raise InvalidInputError(
            f"state has {len(state.digits)} digits but the finite spec has {len(spec.bases)} factors"
        )
    radices = [spec.radix_at(i) for i in range(len(state.digits))]
    for i, (d, n) in enumerate(zip(state.digits, radices)):
        if not 0 <= d < n:
            raise InvalidInputError(f"digit {d} at index {i} outside 0..{n - 1}")
    return radices


def _add_one(digits: list, radices: list) -> None:
    """Add one with carry to ``digits`` in place; a carry past the last digit is dropped."""
    for i, n in enumerate(radices):
        digits[i] += 1
        if digits[i] < n:
            return
        digits[i] = 0


def odometer_step(state: OdometerState, spec: OdometerSpec) -> OdometerState:
    """Add one with carry in mixed radix; a carry past the last known digit is dropped.

    Dropping it wraps the all-maximal state to all zeros.
    """
    digits = list(state.digits)
    _add_one(digits, _validate_state(state, spec))
    return OdometerState(digits)


def odometer_orbit(spec: OdometerSpec, start: OdometerState, steps: int):
    """Yield start, T(start), ..., T^steps(start) on the known digits.

    The start is validated once; each step then adds one over its radices,
    since a step from a valid state reaches a valid state.
    """
    radices = _validate_state(start, spec)
    digits = list(start.digits)
    yield start
    for _ in range(steps):
        _add_one(digits, radices)
        yield OdometerState(digits)


def cf_of_odometer(spec: OdometerSpec) -> CFSet:
    """Orders of cyclic factors: divisors of sup_k n_1 n_2 ... n_k."""
    return cf_closure([math.prod(spec.bases), *([PowerFamily(math.prod(spec.repeat))] if spec.repeat else [])])


def odometer_from_cf(cf: CFSet) -> OdometerSpec:
    """An odometer realizing the CF set (inverse of cf_of_odometer up to conjugacy)."""
    finite_part = 1
    infinite_primes = []
    for p, e in cf.exponents.items():
        if e == INFINITY:
            infinite_primes.append(p)
        else:
            finite_part *= p ** int(e)
    bases = (finite_part,) if finite_part > 1 else ()
    repeat = (math.prod(sorted(infinite_primes)),) if infinite_primes else ()
    return OdometerSpec(bases=bases, repeat=repeat)
