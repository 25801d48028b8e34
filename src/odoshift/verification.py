"""End-to-end verification checks: the one definition of each headline claim.

Each check pins an exactly-stated claim at a concrete size.  ``full`` runs
the desk-scale sizes; ``quick`` shrinks them to finish in a couple of
seconds while exercising the same code paths.  The CLI ``verify``
subcommand and the acceptance gate (tests/test_acceptance.py, at ``full``)
both run ``ALL_CHECKS`` through ``run_check``, which also times each one
and reads the process's peak RSS after it.  The checks that read a whole
prefix work on it in fixed-size blocks, so their temporaries do not grow
with the sizes.
"""

from __future__ import annotations

import math
import random
import resource
import time
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import ergodic, factormap, odometer, substitution, toeplitz

# after the package: where no bytecode is cached, its modules are compiled
# before numpy's heap is built, which keeps 0.3 MB off the peak RSS of verify
import numpy as np  # noqa: E402


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float = 0.0  # elapsed time, set by run_check
    maxrss_kb: int = 0  # the process's peak RSS after the check, set by run_check


class Sizes(NamedTuple):
    prefix_log2: int
    ep_prefix_log2: int
    ep_horizon_log2: int
    rigidity_samples: int
    skeleton_depth: int
    equivariance_precision: int
    equivariance_shifts: int
    fiber_shifts: int
    measure_window_log2: int
    spectral_window_log2: int
    eigen_precision: int
    eigen_shifts: int
    cf_samples: int
    orbit_precision: int


FULL = Sizes(
    prefix_log2=20,
    ep_prefix_log2=18,
    ep_horizon_log2=13,
    rigidity_samples=100_000,
    skeleton_depth=16,
    equivariance_precision=12,
    equivariance_shifts=4096,
    fiber_shifts=100,
    measure_window_log2=20,
    spectral_window_log2=20,
    eigen_precision=10,
    eigen_shifts=10_000,
    cf_samples=1000,
    orbit_precision=12,
)

QUICK = Sizes(
    prefix_log2=14,
    ep_prefix_log2=12,
    ep_horizon_log2=7,
    rigidity_samples=2000,
    skeleton_depth=10,
    equivariance_precision=8,
    equivariance_shifts=128,
    fiber_shifts=20,
    measure_window_log2=14,
    spectral_window_log2=14,
    eigen_precision=6,
    eigen_shifts=200,
    cf_samples=100,
    orbit_precision=8,
)


_CLOSED_FORM_BLOCK = 1 << 16  # positions compared in one pass


def check_closed_form(sizes: Sizes) -> CheckResult:
    length = 1 << sizes.prefix_log2
    generated = np.frombuffer(substitution.grigorchuk_prefix(length).codes, dtype=np.uint8)
    oracle = np.frombuffer(substitution.grigorchuk_codes(length), dtype=np.uint8)
    mismatches = sum(
        int(np.count_nonzero(generated[i : i + _CLOSED_FORM_BLOCK] != oracle[i : i + _CLOSED_FORM_BLOCK]))
        for i in range(0, length, _CLOSED_FORM_BLOCK)
    )
    return CheckResult(
        name="closed_form_letter_formula",
        ok=mismatches == 0,
        detail=f"{mismatches} mismatches over {length} positions",
    )


def check_essential_periods(sizes: Sizes) -> CheckResult:
    prefix = substitution.grigorchuk_prefix(1 << sizes.ep_prefix_log2)
    horizon = 1 << sizes.ep_horizon_log2
    ep = toeplitz.essential_periods(prefix, horizon)
    expected = tuple(1 << k for k in range(1, sizes.ep_horizon_log2 + 1))
    # the smallest partial period of n is 2^(v2(n)+1), so the first position with
    # smallest period 2^k is 2^(k-1)
    witnesses_ok = ep.witnesses == {p: p >> 1 for p in expected}
    found = f"found {ep.periods[:6]}...{ep.periods[-2:]}" if ep.periods else "found nothing"
    return CheckResult(
        name="essential_periods_powers_of_two",
        ok=ep.periods == expected and witnesses_ok,
        detail=f"{found}; witnesses 2^k at 2^(k-1): {witnesses_ok}",
    )


_RIGIDITY_SEED = 20260823
_SAMPLE_BLOCK = 1 << 13  # samples drawn and tested at once


def _words63(rng: random.Random, count: int):
    """``count`` 63-bit draws: the next 64-bit little-endian words of ``rng``, shifted right once."""
    words = np.frombuffer(rng.randbytes(8 * count), dtype=np.uint64)
    return (words >> np.uint64(1)).astype(np.int64)


def rigidity_samples(length: int, samples: int):
    """Blocks of (m, p), 1 <= m <= length - 64 and 1 <= p <= (length - m) // 64.

    Two 63-bit draws per sample, reduced mod each range (bias below 2^-40):
    the m-words are the first 8 * samples bytes of one seeded stream and the
    p-words the next 8 * samples, so the blocks concatenate to the draws of
    ``randbytes(16 * samples)`` at once.  A second generator, moved past the
    m-words, reads the p-words.  Importing numpy.random would add about 6 MB
    to the peak RSS of verify.
    """
    m_rng = random.Random(_RIGIDITY_SEED)
    p_rng = random.Random(_RIGIDITY_SEED)
    p_rng.getrandbits(64 * samples)
    for start in range(0, samples, _SAMPLE_BLOCK):
        size = min(_SAMPLE_BLOCK, samples - start)
        m = 1 + _words63(m_rng, size) % (length - 64)
        p = 1 + _words63(p_rng, size) % ((length - m) // 64)
        yield m, p


def _constant(letters) -> bool:
    """Whether a possibly strided numpy view holds one letter, compared ``_CLOSED_FORM_BLOCK`` at a time."""
    first = letters[0]
    return not any(
        np.count_nonzero(letters[i : i + _CLOSED_FORM_BLOCK] != first)
        for i in range(0, len(letters), _CLOSED_FORM_BLOCK)
    )


def _varying_classes(letters) -> set:
    """Keys 2^t + r of the residue classes r mod 2^t of 0-based indices whose letters are not all equal.

    The children r and r + 2^t of a constant class are constant, so only
    the children of a varying class are read: on the fixed point one class
    per level varies, and the levels read about twice the letters in all.
    """
    varying = set()
    classes = [(1, 0)]
    while classes:
        modulus, r = classes.pop()
        if not _constant(letters[r::modulus]):
            varying.add(modulus + r)
            classes += [(2 * modulus, r), (2 * modulus, r + modulus)]
    return varying


def check_four_term_rigidity(sizes: Sizes) -> CheckResult:
    length = 1 << sizes.prefix_log2
    codes = substitution.grigorchuk_prefix(length).codes
    letters = np.frombuffer(codes, dtype=np.uint8)
    varying = np.fromiter(_varying_classes(letters), dtype=np.int64)
    accepted_count = disagreements = counterexamples = 0
    for m, p in rigidity_samples(length, sizes.rigidity_samples):
        accepted = toeplitz.partial_period_mask(codes, m - 1, p)
        accepted_count += int(np.count_nonzero(accepted))
        # exact for the infinite progression: if v2(p) > v2(m), every m + jp has valuation
        # v2(m); otherwise four consecutive terms have valuations v2(p) and v2(p) + 1
        disagreements += int(np.count_nonzero(((p & -p) > (m & -m)) != accepted))
        # a progression to the end of the prefix lies in the class of m - 1 mod 2^v2(p), so it
        # is constant when that class is; only the progressions in a varying class are read
        n, q = m[accepted], p[accepted]
        low = q & -q
        read = np.isin(low | ((n - 1) & (low - 1)), varying)
        tails = zip(n[read].tolist(), q[read].tolist())
        counterexamples += sum(not _constant(letters[start - 1 :: step]) for start, step in tails)
    return CheckResult(
        name="four_term_rigidity",
        ok=counterexamples == 0 and disagreements == 0,
        detail=f"{accepted_count} accepted samples, {counterexamples} counterexamples,"
        f" {disagreements} disagreements with v2(p) > v2(m)",
    )


def check_fixed_point_skeleton(sizes: Sizes) -> CheckResult:
    K = sizes.skeleton_depth
    prefix = substitution.grigorchuk_prefix(toeplitz.skeleton_window(K))
    skeleton = toeplitz.period_skeleton(prefix, K)
    levels_ok = all(m == 1 << (k + 1) for k, m in enumerate(skeleton.levels))
    encoding = factormap.encode_fG(prefix, K)
    return CheckResult(
        name="fixed_point_skeleton_and_zero_encoding",
        ok=levels_ok and encoding.value.value == 0,
        detail=f"M_k=2^k for k<=K: {levels_ok}; encoded value {encoding.value.value}",
    )


def _shift_values(name: str, k: int, shifts: int) -> CheckResult:
    """Encodings of shifts 0..shifts of the fixed point equal n mod 2^k; the scan steps them by one."""
    prefix = substitution.grigorchuk_prefix(shifts + toeplitz.skeleton_window(k))
    values = factormap.verify_equivariance(prefix, k, shifts).values
    values_ok = all(v == n % (1 << k) for n, v in enumerate(values))
    return CheckResult(name=name, ok=values_ok, detail=f"{shifts} shifts; values==n mod 2^{k}: {values_ok}")


def check_equivariance(sizes: Sizes) -> CheckResult:
    return _shift_values(
        "equivariance_and_shift_values", sizes.equivariance_precision, sizes.equivariance_shifts
    )


def check_fiber_structure(sizes: Sizes) -> CheckResult:
    shifts = sizes.fiber_shifts
    # the largest of the floors the cli reads after shifts 1..shifts
    horizon = max(map(factormap.default_language_horizon, range(1, shifts + 1)))
    prefix = substitution.grigorchuk_prefix(shifts + 4 * horizon)

    def preimage(n: int, h: int) -> set:  # of the h - 1 letters after shift n
        head = substitution.SymbolicPrefix(prefix.alphabet, prefix.codes[n : n + h - 1])
        return factormap.sigma_preimage_letters(head)

    roots = {h: preimage(0, h) for h in (64, horizon)}
    bad = next((n for n in range(1, shifts + 1) if preimage(n, horizon) != {prefix.at(n)}), None)
    ok = bad is None and all(root == {"b", "c", "d"} for root in roots.values())
    root_text = "; ".join(f"horizon {h}: {sorted(root)}" for h, root in roots.items())
    return CheckResult(
        name="fiber_structure",
        ok=ok,
        detail=f"root preimage at {root_text}; first bad shift: {bad}",
    )


# words of 2 to 8 letters whose counts check_letter_measure takes both ways; bc is no factor
_COUNTED_WORDS = ("ac", "bc", "dacab", "acabacad")


@lru_cache(maxsize=1)
def _untagged_prefix(length: int) -> substitution.SymbolicPrefix:
    """The letters of ``grigorchuk_prefix(length)`` in a prefix with no fixed-point start.

    Counts on it run the bitset kernel.  It is kept, so the letter-measure
    and spectrum checks build its bitsets once between them.
    """
    codes = substitution.grigorchuk_prefix(length).codes
    return substitution.SymbolicPrefix(substitution.GRIGORCHUK_ALPHABET, codes)


def check_letter_measure(sizes: Sizes) -> CheckResult:
    expected = {
        "a": Fraction(1, 2),
        "b": Fraction(1, 7),
        "c": Fraction(2, 7),
        "d": Fraction(1, 14),
    }
    exact_ok = all(ergodic.invariant_measure_cylinder(w) == v for w, v in expected.items())
    total = sum(ergodic.invariant_measure_cylinder(w) for w in "abcd")
    window = 1 << sizes.measure_window_log2
    prefix = substitution.grigorchuk_prefix(window)
    tol = Fraction(1, 64)
    deviations = {
        w: abs(ergodic.cylinder_frequency(prefix, w, window).frequency - v)
        for w, v in expected.items()
    }
    empirical_ok = all(d <= tol for d in deviations.values())
    # the counts on the fixed point, by desubstitution, against the bitset kernel's on the same letters:
    # over every start the prefix holds (the whole window for a letter), and over an odd window
    letters = _untagged_prefix(window)
    pairs = [(w, n) for w in (*expected, *_COUNTED_WORDS) for n in (window - len(w) + 1, window // 2 + 1)]
    counts_ok = all(
        ergodic.cylinder_frequency(prefix, w, n).count == ergodic.cylinder_frequency(letters, w, n).count
        for w, n in pairs
    )
    return CheckResult(
        name="letter_measure",
        ok=exact_ok and total == 1 and empirical_ok and counts_ok,
        detail=f"exact: {exact_ok}; sum=={total}; max empirical deviation {max(deviations.values())};"
        f" {len(pairs)} counts equal on both paths: {counts_ok}",
    )


def check_spectrum(sizes: Sizes) -> CheckResult:
    windows = [1 << (sizes.spectral_window_log2 - 4), 1 << (sizes.spectral_window_log2 - 2),
               1 << sizes.spectral_window_log2]
    prefix = _untagged_prefix(windows[-1] + len("a") - 1)
    ok = True
    details = []
    for theta in (Fraction(1, 3), Fraction(1, 5)):
        mags = [ergodic.spectral_scan(prefix, [theta], "a", w)[0].magnitude for w in windows]
        decays = mags[0] > mags[1] > mags[2]
        small = mags[-1] <= 1e-2
        ok = ok and decays and small
        details.append(f"theta={theta}: {mags[-1]:.2e} (decays: {decays})")
    half = ergodic.spectral_scan(prefix, [Fraction(1, 2)], "a", windows[-1])[0].magnitude
    half_ok = abs(half - 0.5) <= 2**-10
    ok = ok and half_ok
    details.append(f"theta=1/2: {half:.6f}")
    return CheckResult(name="spectral_scan", ok=ok, detail="; ".join(details))


def check_eigenfunction(sizes: Sizes) -> CheckResult:
    # phi(shift^n x) = exp(2 pi i r_n / 2^k) with r_n the k-digit encoding: the eigenvalue
    # relation r_(n+1) = r_n + 1 mod 2^k holds as r_n = n mod 2^k on the fixed point
    return _shift_values("eigenfunction_equivariance", sizes.eigen_precision, sizes.eigen_shifts)


_CF_PRIMES = (2, 3, 5, 7, 11, 13)


def _random_cf(rng: random.Random) -> odometer.CFSet:
    exponents = {}
    for p in rng.sample(_CF_PRIMES, rng.randint(0, 4)):
        exponents[p] = odometer.INFINITY if rng.random() < 0.3 else rng.randint(1, 6)
    return odometer.CFSet(exponents)


def check_cf_algebra(sizes: Sizes) -> CheckResult:
    rng = random.Random(7)
    for _ in range(sizes.cf_samples):
        cf = _random_cf(rng)
        if not odometer.cf_contains(cf, 1):
            return CheckResult("odometer_cf_algebra", False, "1 not a member")
        members = odometer.cf_members(cf, 200)
        rejected = next((n for n in members if not odometer.cf_contains(cf, n)), None)
        if rejected is not None:
            return CheckResult("odometer_cf_algebra", False, f"listed member {rejected} rejected")
        # a member times a prime of the sets is rejected when it is not listed
        listed = set(members)
        outside = (n * p for n in members for p in _CF_PRIMES if n * p < 200 and n * p not in listed)
        accepted = next((m for m in outside if odometer.cf_contains(cf, m)), None)
        if accepted is not None:
            return CheckResult("odometer_cf_algebra", False, f"non-member {accepted} accepted")
        for n in rng.sample(members, min(4, len(members))):
            for d in range(1, n + 1):
                if n % d == 0 and not odometer.cf_contains(cf, d):
                    return CheckResult("odometer_cf_algebra", False, f"divisor {d} of {n} missing")
        if len(members) >= 2:
            x, y = rng.sample(members, 2)
            lcm = x * y // math.gcd(x, y)
            if not odometer.cf_contains(cf, lcm):
                return CheckResult("odometer_cf_algebra", False, f"lcm({x},{y}) missing")
        back = odometer.cf_of_odometer(odometer.odometer_from_cf(cf))
        if not odometer.cf_equal(back, cf):
            return CheckResult("odometer_cf_algebra", False, f"round trip broke on {cf.exponents}")
    # binary odometer orbit: full cycle, exact cylinder frequencies
    K = sizes.orbit_precision
    spec = odometer.BINARY_ODOMETER
    state = odometer.OdometerState((0,) * K)
    values = np.array(
        [sum(b << i for i, b in enumerate(s.digits)) for s in odometer.odometer_orbit(spec, state, (1 << K) - 1)]
    )
    seen = set(values.tolist())
    orbit_ok = len(seen) == 1 << K and np.bincount(values).max() == 1
    # depth-k cylinder frequencies over the full cycle are exactly 2^-k:
    # each residue mod 2^k is visited 2^(K-k) times
    freq_ok = all(
        (np.bincount(values % (1 << k), minlength=1 << k) == 1 << (K - k)).all() for k in range(1, K + 1)
    )
    return CheckResult(
        name="odometer_cf_algebra",
        ok=orbit_ok and freq_ok,
        detail=f"orbit covers {len(seen)}/{1 << K} states; cylinder frequencies exact: {freq_ok}",
    )


ALL_CHECKS = (
    check_closed_form,
    check_essential_periods,
    check_four_term_rigidity,
    check_fixed_point_skeleton,
    check_equivariance,
    check_fiber_structure,
    check_letter_measure,
    check_spectrum,
    check_eigenfunction,
    check_cf_algebra,
)


def run_check(check, sizes: Sizes) -> CheckResult:
    """Run one check and record its elapsed seconds, the timer of ``verify`` and the gate.

    Also records the process's peak RSS so far, a running high-water mark
    (``ru_maxrss``, in KiB on Linux).
    """
    start = time.perf_counter()
    result = check(sizes)
    seconds = time.perf_counter() - start
    return result._replace(seconds=seconds, maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_all(level: str = "quick"):
    sizes = {"quick": QUICK, "full": FULL}.get(level)
    if sizes is None:
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    return [run_check(check, sizes) for check in ALL_CHECKS]
