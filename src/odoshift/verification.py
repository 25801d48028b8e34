"""End-to-end verification checks: the one definition of each headline claim.

Each check pins an exactly-stated claim at a concrete size.  ``full`` runs
the desk-scale sizes; ``quick`` shrinks them to finish in a couple of
seconds while exercising the same code paths.  The CLI ``verify``
subcommand and the acceptance gate (tests/test_acceptance.py, at ``full``)
both run ``ALL_CHECKS`` through ``run_check``, which also times each one.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import ergodic, factormap, odometer, substitution, toeplitz


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float = 0.0  # elapsed time, set by run_check


@dataclass(frozen=True)
class Sizes:
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


def check_closed_form(sizes: Sizes) -> CheckResult:
    length = 1 << sizes.prefix_log2
    generated = substitution.grigorchuk_prefix(length).codes
    oracle = substitution.grigorchuk_codes(length)
    mismatches = int((generated != oracle).sum())
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
    return CheckResult(
        name="essential_periods_powers_of_two",
        ok=ep.periods == expected,
        detail=f"found {ep.periods[:6]}...{ep.periods[-2:]}" if ep.periods else "found nothing",
    )


def check_four_term_rigidity(sizes: Sizes) -> CheckResult:
    length = 1 << sizes.prefix_log2
    codes = substitution.grigorchuk_prefix(length).codes
    # two 63-bit draws per sample, reduced mod each range (bias below 2^-40);
    # importing numpy.random would add about 6 MB to the peak RSS of verify
    raw = random.Random(20260823).randbytes(16 * sizes.rigidity_samples)
    draws = (np.frombuffer(raw, dtype=np.uint64) >> np.uint64(1)).astype(np.int64).reshape(2, -1)
    m = 1 + draws[0] % (length - 64)  # 1..length-64
    p = 1 + draws[1] % ((length - m) // 64)  # 1..(length-m)//64
    accepted = toeplitz.partial_period_mask(codes, m - 1, p)
    counterexamples = sum(
        not (codes[n - 1 + q :: q] == codes[n - 1]).all() for n, q in zip(m[accepted], p[accepted])
    )
    return CheckResult(
        name="four_term_rigidity",
        ok=counterexamples == 0,
        detail=f"{int(accepted.sum())} accepted samples, {counterexamples} counterexamples",
    )


def check_fixed_point_skeleton(sizes: Sizes) -> CheckResult:
    K = sizes.skeleton_depth
    prefix = substitution.grigorchuk_prefix(1 << (K + 2))
    skeleton = toeplitz.period_skeleton(prefix, K)
    levels_ok = all(m == 1 << (k + 1) for k, m in enumerate(skeleton.levels))
    encoding = factormap.encode_fG(prefix, K)
    return CheckResult(
        name="fixed_point_skeleton_and_zero_encoding",
        ok=levels_ok and encoding.value.value == 0,
        detail=f"M_k=2^k for k<=K: {levels_ok}; encoded value {encoding.value.value}",
    )


def _shift_values(name: str, k: int, shifts: int) -> CheckResult:
    """Encodings of shifts 0..shifts of the fixed point step by one and equal n mod 2^k."""
    prefix = substitution.grigorchuk_prefix(shifts + (1 << (k + 2)))
    report = factormap.verify_equivariance(prefix, k, shifts)
    values_ok = all(v == n % (1 << k) for n, v in enumerate(report.values))
    return CheckResult(
        name=name,
        ok=report.ok and values_ok,
        detail=f"first violation: {report.first_violation} over {shifts} shifts;"
        f" values==n mod 2^{k}: {values_ok}",
    )


def check_equivariance(sizes: Sizes) -> CheckResult:
    return _shift_values(
        "equivariance_and_shift_values", sizes.equivariance_precision, sizes.equivariance_shifts
    )


def check_fiber_structure(sizes: Sizes) -> CheckResult:
    shifts = sizes.fiber_shifts
    # the head after shift 2^k repeats the head after shift 0 until position
    # 2^(k+1), so the horizon must look past the next power of two above n
    horizon = max(64, 1 << (shifts.bit_length() + 1))
    prefix = substitution.grigorchuk_prefix(shifts + 4 * horizon)
    roots = {h: factormap.sigma_preimage_letters(prefix, h) for h in (64, horizon)}
    ok = all(root == {"b", "c", "d"} for root in roots.values())
    bad = None
    for n in range(1, shifts + 1):
        if factormap.sigma_preimage_letters(prefix.shifted(n), horizon) != {prefix.at(n)}:
            ok, bad = False, n
            break
    root_text = "; ".join(f"horizon {h}: {sorted(root)}" for h, root in roots.items())
    return CheckResult(
        name="fiber_structure",
        ok=ok,
        detail=f"root preimage at {root_text}; first bad shift: {bad}",
    )


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
    return CheckResult(
        name="letter_measure",
        ok=exact_ok and total == 1 and empirical_ok,
        detail=f"exact: {exact_ok}; sum=={total}; max empirical deviation {max(deviations.values())}",
    )


def check_spectrum(sizes: Sizes) -> CheckResult:
    windows = [1 << (sizes.spectral_window_log2 - 4), 1 << (sizes.spectral_window_log2 - 2),
               1 << sizes.spectral_window_log2]
    prefix = substitution.grigorchuk_prefix(windows[-1] + len("a") - 1)
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
    # phi(shift^n x) = exp(2 pi i r_n / 2^k) with r_n the k-digit encoding: the
    # eigenvalue relation r_(n+1) = r_n + 1 mod 2^k is checked as integer equality
    return _shift_values("eigenfunction_equivariance", sizes.eigen_precision, sizes.eigen_shifts)


def _random_cf(rng: random.Random) -> odometer.CFSet:
    primes = [2, 3, 5, 7, 11, 13]
    exponents = {}
    for p in rng.sample(primes, rng.randint(0, 4)):
        exponents[p] = odometer.INFINITY if rng.random() < 0.3 else rng.randint(1, 6)
    return odometer.CFSet(exponents)


def check_cf_algebra(sizes: Sizes) -> CheckResult:
    rng = random.Random(7)
    for _ in range(sizes.cf_samples):
        cf = _random_cf(rng)
        if not odometer.cf_contains(cf, 1):
            return CheckResult("odometer_cf_algebra", False, "1 not a member")
        members = [n for n in range(1, 200) if odometer.cf_contains(cf, n)]
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
    seen = set()
    counts = np.zeros(1 << K, dtype=np.int64)
    for s in odometer.odometer_orbit(spec, state, (1 << K) - 1):
        value = sum(b << i for i, b in enumerate(s.digits))
        seen.add(value)
        counts[value] += 1
    orbit_ok = len(seen) == 1 << K and counts.max() == 1
    # depth-k cylinder frequencies over the full cycle are exactly 2^-k
    freq_ok = True
    for k in range(1, K + 1):
        residues = np.arange(1 << K) % (1 << k)
        freq_ok = freq_ok and all(
            Fraction(int((residues == r).sum()), 1 << K) == Fraction(1, 1 << k)
            for r in range(1 << k)
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
    """Run one check and record its elapsed seconds: the timer of ``verify`` and the gate."""
    start = time.perf_counter()
    result = check(sizes)
    return replace(result, seconds=time.perf_counter() - start)


def run_all(level: str = "quick"):
    sizes = {"quick": QUICK, "full": FULL}.get(level)
    if sizes is None:
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    return [run_check(check, sizes) for check in ALL_CHECKS]
