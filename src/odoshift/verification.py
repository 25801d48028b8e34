"""End-to-end verification checks: the one definition of each headline claim.

Each check pins an exactly-stated claim at a concrete size, except the
four-term rigidity, which proves its claim for every position from 32
cases of residues mod 4 and reads no size.  ``full`` runs the desk-scale
sizes; ``quick`` shrinks them to finish in a couple of seconds while
exercising the same code paths; each size is read by some check.  The CLI
``verify`` subcommand and the acceptance gate (tests/test_acceptance.py, at
``full``) both run ``ALL_CHECKS`` through ``run_check``, which also times
each one and reads the process's peak RSS after it.  The checks that read
a whole prefix work on it in fixed-size blocks, so their temporaries do not
grow with the sizes, except the skeleton's, whose residue classes and
leaves are read off copies of its window.  The skeleton and equivariance
claims are each read at the fixed point's start and at the digits of the
leaves of its letters.  The checks run on the standard library.  The
closed form generates the fixed point, and its claim applies the rules
once.  The odometer claim reads the essential periods from the scan of the
periods' check, kept per ``Sizes``, and decides the CF set as the divisors
of their lcm; the eigenfunction claim reads the invariant measure's halving
with the factor map's digits fixed.
"""

from __future__ import annotations

import math
import random
import resource
import time
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import ergodic, errors, factormap, language, substitution, toeplitz


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
    skeleton_depth: int
    equivariance_precision: int
    equivariance_shifts: int
    fiber_shifts: int
    eigen_depth: int
    eigen_windows: int


FULL = Sizes(
    prefix_log2=20,
    ep_prefix_log2=18,
    ep_horizon_log2=13,
    skeleton_depth=16,
    equivariance_precision=12,
    equivariance_shifts=4096,
    fiber_shifts=100,
    eigen_depth=10,
    eigen_windows=200,
)

QUICK = Sizes(
    prefix_log2=14,
    ep_prefix_log2=12,
    ep_horizon_log2=7,
    skeleton_depth=10,
    equivariance_precision=8,
    equivariance_shifts=128,
    fiber_shifts=20,
    eigen_depth=6,
    eigen_windows=60,
)


_CLOSED_FORM_BLOCK = 1 << 16  # positions compared in one pass


def check_closed_form(sizes: Sizes) -> CheckResult:
    # y[0] = a and tau(y[:m]) = y[:|tau(y[:m])|] make y the fixed point's prefix: as tau(a) = aca, each letter
    # past y[0] lies in the image of an earlier letter, which fixes it.  Half of y's letters are a, so the image
    # of y's first half spans its L letters: a position it differs at or does not reach is a mismatch
    length = 1 << sizes.prefix_log2
    encode, rules = substitution.encode_letters, substitution.grigorchuk_substitution().rules
    # the one-letter rules as a translate: none of their images is a, so a's rule then replaces each a left
    singles = encode("".join(rules[x] if len(rules[x]) == 1 else x for x in "abcd")).ljust(256, b"\0")
    codes = substitution.grigorchuk_prefix(length).codes
    mismatches = reached = 0
    for i in range(0, length // 2, _CLOSED_FORM_BLOCK):
        image = codes[i : i + _CLOSED_FORM_BLOCK].tobytes().translate(singles).replace(encode("a"), encode(rules["a"]))
        image = image[: length - reached]
        letters = codes[reached : reached + len(image)].tobytes()
        if image != letters:
            # the letters that differ: a code has two bits, so fold each byte's high bit onto its low one
            d = int.from_bytes(image, "big") ^ int.from_bytes(letters, "big")
            mismatches += ((d | d >> 1) & int.from_bytes(b"\1" * len(image), "big")).bit_count()
        reached += len(image)
    mismatches += length - reached
    return CheckResult(
        name="closed_form_letter_formula",
        ok=mismatches == 0,
        detail=f"{mismatches} mismatches over {length} positions",
    )


@lru_cache(maxsize=1)
def _essential_periods(sizes: Sizes) -> toeplitz.EPSet:
    """The essential periods up to the horizon: one scan, which two checks read."""
    prefix = substitution.grigorchuk_prefix(1 << sizes.ep_prefix_log2)
    return toeplitz.essential_periods(prefix, 1 << sizes.ep_horizon_log2)


def check_essential_periods(sizes: Sizes) -> CheckResult:
    ep = _essential_periods(sizes)
    expected = tuple(1 << k for k in range(1, sizes.ep_horizon_log2 + 1))
    # the test at n accepts p exactly when v2(p) > v2(n), for every n (check_four_term_rigidity), so the
    # smallest partial period of n is 2^(v2(n)+1) and the first position with smallest period 2^k is 2^(k-1)
    witnesses_ok = ep.witnesses == {p: p >> 1 for p in expected}
    found = f"found {ep.periods[:6]}...{ep.periods[-2:]}" if ep.periods else "found nothing"
    return CheckResult(
        name="essential_periods_powers_of_two",
        ok=ep.periods == expected and witnesses_ok,
        detail=f"{found}; witnesses 2^k at 2^(k-1): {witnesses_ok}",
    )


def check_four_term_rigidity(sizes: Sizes) -> CheckResult:
    """For every n, p >= 1 the four-term test accepts exactly when v2(p) > v2(n), and then for ever.

    The letter at n is F(v2(n)), ``grigorchuk_letter``.  If v2(p) > v2(n),
    every n + j p has valuation v2(n), so the test accepts and the
    progression is constant for ever.  If t = v2(p) <= v2(n), then
    n + j p = 2^t (n' + j p') with p' odd, so the terms j = 0..3 meet every
    residue mod 4: an odd n' + j p' gives valuation t, one of 2 mod 4 gives
    t + 1, and as F(t) != F(t + 1) the test rejects.  F reads only [v = 0]
    and v mod 3, so t = 0..3 stands for every t.  The cases are t, n' mod 4
    and p' mod 4; a term with n' + j p' = x != 0 mod 4 has the valuation of
    x 2^t, whose letter is read.  A case survives if those letters agree.
    The sizes are not read.
    """
    cases = [(t, r, q) for t in range(4) for r in range(4) for q in (1, 3)]
    surviving = sum(
        len({substitution.grigorchuk_letter(x << t) for x in {(r + j * q) % 4 for j in range(4)} - {0}}) < 2
        for t, r, q in cases
    )
    return CheckResult(
        name="four_term_rigidity",
        ok=surviving == 0,
        detail=f"for every n, p: v2(p) > v2(n) accepts, constant for ever; v2(p) <= v2(n) rejects in"
        f" {len(cases) - surviving} of {len(cases)} cases (4 classes of v2(p), n' mod 4, p' mod 4),"
        f" {surviving} surviving",
    )


def _varying_classes(letters: bytes) -> set:
    """Keys 2^t + r of the residue classes r mod 2^t of 0-based indices whose codes are not all equal.

    The children r and r + 2^t of a constant class are constant, so only
    the children of a varying class are read: on the fixed point one class
    per level varies, and the levels read about twice the letters in all.
    A class is a slice of ``letters``, constant when its first code is
    every one of them.
    """
    varying = set()
    classes = [(1, 0)]
    while classes:
        modulus, r = classes.pop()
        column = letters[r::modulus]
        if column.count(column[:1]) != len(column):
            varying.add(modulus + r)
            classes += [(2 * modulus, r), (2 * modulus, r + modulus)]
    return varying


def check_fixed_point_skeleton(sizes: Sizes) -> CheckResult:
    K = sizes.skeleton_depth
    prefix = substitution.grigorchuk_prefix(toeplitz.skeleton_window(K))
    routes = prefix, _untagged_prefix(len(prefix))
    levels_ok = all(m == 1 << (k + 1) for p in routes for k, m in enumerate(toeplitz.period_skeleton(p, K).levels))
    values = [factormap.encode_fG(p, K).value.value for p in routes]
    # every letter, not four terms of each: mod 2^t only the class 2^t - 1 varies, nested in the last, for each
    # t up to K + 1, whose class holds two letters; so no window of the prefix has a second non-constant column
    varying = _varying_classes(prefix.codes.tobytes())
    classes_ok = varying == {(2 << t) - 1 for t in range(K + 2)}
    return CheckResult(
        name="fixed_point_skeleton_and_zero_encoding",
        ok=levels_ok and values == [0, 0] and classes_ok,
        detail=f"M_k=2^k for k<=K on the tag and the leaves: {levels_ok}; encoded values {values[0]} and"
        f" {values[1]}; varying classes 2^t - 1 mod 2^t for t<=K+1: {classes_ok}",
    )


def check_equivariance(sizes: Sizes) -> CheckResult:
    # the encodings of shifts 0..shifts equal n mod 2^k, at the tag's start and at the leaves' digits alike
    k, shifts = sizes.equivariance_precision, sizes.equivariance_shifts
    prefix = substitution.grigorchuk_prefix(shifts + toeplitz.skeleton_window(k))
    routes = [factormap.verify_equivariance(p, k, shifts) for p in (prefix, _untagged_prefix(len(prefix)))]
    values_ok = all(v == n % (1 << k) for values in routes for n, v in enumerate(values))
    return CheckResult(
        name="equivariance_and_shift_values",
        ok=values_ok,
        detail=f"{shifts} shifts; values==n mod 2^{k} on the tag and the leaves: {values_ok}",
    )


def check_fiber_structure(sizes: Sizes) -> CheckResult:
    shifts = sizes.fiber_shifts
    # the largest of the floors the cli reads after shifts 1..shifts
    horizon = max(map(factormap.default_language_horizon, range(1, shifts + 1)))
    prefix = substitution.grigorchuk_prefix(shifts + 4 * horizon)

    def preimage(n: int, h: int) -> set:  # of the h - 1 letters after shift n
        return factormap.sigma_preimage_letters(substitution.SymbolicPrefix(prefix.codes[n : n + h - 1]))

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

    The skeleton and equivariance checks read its leaves' digits, and
    counts on it run the bitset kernel.  It is kept, so the letter-measure
    and spectrum checks build its bitsets once between them.
    """
    return substitution.SymbolicPrefix(substitution.grigorchuk_prefix(length).codes)


def check_letter_measure(sizes: Sizes) -> CheckResult:
    expected = {"a": Fraction(1, 2), "b": Fraction(1, 7), "c": Fraction(2, 7), "d": Fraction(1, 14)}
    exact_ok = all(ergodic.invariant_measure_cylinder(w) == v for w, v in expected.items())
    total = sum(ergodic.invariant_measure_cylinder(w) for w in "abcd")
    window = 1 << sizes.prefix_log2
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
    windows = [1 << (sizes.prefix_log2 - 4), 1 << (sizes.prefix_log2 - 2), 1 << sizes.prefix_log2]
    # each magnitude twice: by the recursion on the fixed point, and by the bitsets of its letters
    prefixes = substitution.grigorchuk_prefix(windows[-1]), _untagged_prefix(windows[-1])
    thetas = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 2))
    pairs = {
        (theta, w): [ergodic.spectral_scan(prefix, [theta], "a", w)[0].magnitude for prefix in prefixes]
        for theta in thetas
        for w in windows
    }
    same = all(tagged == letters for tagged, letters in pairs.values())
    ok = same
    details = []
    a = language.word_sets("a")
    for theta in thetas[:2]:
        mags = [pairs[theta, w][0] for w in windows]
        decays = mags[0] > mags[1] > mags[2]
        # the sum of e(-p r / q) over the classes r is 0, so the magnitude is at most the spread D / N, where
        # D = sum_r |c_r - C / q| of the starts c_r in class r and C of them all: an exact bound
        q = theta.denominator
        counts = language.fixed_point_residue_counts(a, windows[-1], q)
        starts = sum(counts)
        spread = Fraction(sum(abs(q * c - starts) for c in counts), q * windows[-1])
        small = spread <= Fraction(1, 100)
        ok = ok and decays and small
        details.append(f"theta={theta}: {mags[-1]:.2e} (decays: {decays}), D/N {float(spread):.2e} <= 1/100: {small}")
    # at theta = 1/2 the sum is the even starts less the odd ones, exactly
    even, odd = language.fixed_point_residue_counts(a, windows[-1], 2)
    half = Fraction(even - odd, windows[-1])
    ok = ok and half == Fraction(1, 2)
    details.append(f"theta=1/2: (even - odd starts)/N = {half}")
    details.append(f"{len(pairs)} magnitudes equal on both paths: {same}")
    return CheckResult(name="spectral_scan", ok=ok, detail="; ".join(details))


_EIGEN_SEED = 20261019


def check_eigenfunction(sizes: Sizes) -> CheckResult:
    # rho_j(l, r) = mu([l] and f = r mod 2^j) at j = J, from the one-letter class masses class_measure reads:
    # f pushes mu to Haar measure, 2^-J a class, and the classes of l sum to mu[l]
    J = sizes.eigen_depth
    table = [language._class_masses(J, r, J) for r in range(1 << J)]
    haar = all(sum(masses) == 14 for masses in table)
    marginals = [sum(column) for column in zip(*table)] == [7 << J, 2 << J, 4 << J, 1 << J]
    # the 2^(j+1) letters after shift s of the fixed point have all their mass in the class of f = s
    prefix = substitution.grigorchuk_prefix(1 << sizes.prefix_log2)
    rng = random.Random(_EIGEN_SEED)
    misplaced = 0
    for i in range(sizes.eigen_windows):
        j = 1 + i % J
        s = rng.randrange(len(prefix) - (2 << j))
        word = substitution.decode_codes(prefix.codes[s : s + (2 << j)])
        mu = language.invariant_measure_cylinder(word)
        misplaced += language.class_measure(word, j, s % (1 << j)) != mu
    return CheckResult(
        name="eigenfunction_haar_classes",
        ok=haar and marginals and not misplaced,
        detail=f"classes mod 2^{J} of measure 2^-{J}: {haar}; sum to mu[l]: {marginals};"
        f" {misplaced} of {sizes.eigen_windows} windows outside the class of their shift",
    )


def check_cf_algebra(sizes: Sizes) -> CheckResult:
    # a Toeplitz flow with finitely many essential periods has as CF set the divisors of their lcm L;
    # L = 2^H below the horizon 2^H makes every divisor a power of two: the CF set of the binary
    # odometer, the maximal equicontinuous factor, up to the horizon
    H = sizes.ep_horizon_log2
    L = math.lcm(1, *_essential_periods(sizes).periods)
    exact = L == 1 << H
    factor = L & (L - 1) == 0
    agree = all((L % n == 0) == (n & (n - 1) == 0) for n in range(1, (1 << H) + 1))
    return CheckResult(
        name="odometer_of_the_periods",
        ok=exact and factor and agree,
        detail=f"lcm of the periods {L} == 2^{H}: {exact}; a power of two, so a factor of the binary odometer:"
        f" {factor}; divisors n <= 2^{H} are the powers of two: {agree}",
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
    (``ru_maxrss``, in KiB on Linux).  A check that raises an OdoshiftError
    fails, named by its function, with the error as its detail.
    """
    start = time.perf_counter()
    try:
        result = check(sizes)
    except errors.OdoshiftError as exc:
        result = CheckResult(name=check.__name__, ok=False, detail=f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return result._replace(seconds=seconds, maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_all(level: str = "quick"):
    sizes = {"quick": QUICK, "full": FULL}.get(level)
    if sizes is None:
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    return [run_check(check, sizes) for check in ALL_CHECKS]
