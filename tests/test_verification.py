"""The verification checks hold their temporaries in fixed-size blocks and fail where their claims break."""

import re
import tracemalloc

import numpy as np
import pytest

from odoshift import ergodic, errors, language, substitution, toeplitz, verification
from odoshift.verification import ALL_CHECKS, FULL, QUICK
from oracles import partial_period_mask

PEAK_BYTES = 5 << 19  # 2.5 MiB


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda check: check.__name__)
def test_check_allocates_at_most_a_fixed_peak(check):
    # the prefixes are built first, their codes generated: the bound is on what the check itself holds
    substitution.grigorchuk_prefix(1 << FULL.prefix_log2).codes
    substitution.grigorchuk_prefix(1 << FULL.ep_prefix_log2).codes
    tracemalloc.start()
    try:
        result = check(FULL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok, result.detail
    assert peak <= PEAK_BYTES, f"{check.__name__} peaked at {peak} bytes"


def test_the_four_term_test_accepts_exactly_when_v2_p_exceeds_v2_n():
    # the rigidity leg's claim on the closed form at every 1 <= n, p < 2^10, in blocks of 64 rows of n
    codes = substitution.grigorchuk_codes(1 << 12)
    p = np.arange(1, 1 << 10)
    for first in range(1, 1 << 10, 64):
        n = np.arange(first, min(first + 64, 1 << 10))[:, None]
        assert np.array_equal(partial_period_mask(codes, n - 1, p), (p & -p) > (n & -n))


RIGIDITY_DETAIL = ("for every n, p: v2(p) > v2(n) accepts, constant for ever; v2(p) <= v2(n) rejects in {} of 32"
                   " cases (4 classes of v2(p), n' mod 4, p' mod 4), {} surviving")


@pytest.mark.parametrize("sizes", [QUICK, FULL], ids=["quick", "full"])
def test_rigidity_holds_for_every_n(sizes):
    result = verification.check_four_term_rigidity(sizes)
    assert (result.ok, result.detail) == (True, RIGIDITY_DETAIL.format(32, 0))


@pytest.mark.parametrize("faults, surviving", [
    ({1: "a"}, 8),  # F(1) = F(0): the cases of v2(p) = 0
    ({2: "c"}, 8),  # F(2) = F(1): v2(p) = 1
    ({3: "b"}, 8),  # F(3) = F(2): v2(p) = 2
    ({3: "c"}, 8),  # F(3) = F(4): v2(p) = 3 mod 3
    ({1: "b", 3: "b", 4: "b"}, 24),  # every valuation from 1 to 4 reads b: only v2(p) = 0 still rejects
], ids=["v1_reads_a", "v2_reads_c", "v3_reads_b", "v3_reads_c", "v1_to_v4_read_b"])
def test_rigidity_fails_where_two_valuations_share_a_letter(faults, surviving, monkeypatch):
    # each class of v2(p) holds 8 cases (n' mod 4, odd p' mod 4), all lost when F(t) = F(t + 1)
    letter = substitution.grigorchuk_letter
    monkeypatch.setattr(substitution, "grigorchuk_letter",
                        lambda m: faults.get(substitution.dyadic_valuation(m)) or letter(m))
    result = verification.check_four_term_rigidity(QUICK)
    assert (result.ok, result.detail) == (False, RIGIDITY_DETAIL.format(32 - surviving, surviving))


def test_every_size_is_read_by_a_check(monkeypatch):
    # each field read through a recording property, so a retired leg takes its size with it
    read = set()
    for i, field in enumerate(verification.Sizes._fields):
        monkeypatch.setattr(verification.Sizes, field,
                            property(lambda sizes, i=i, field=field: read.add(field) or tuple.__getitem__(sizes, i)))
    verification._essential_periods.cache_clear()  # a cached scan would leave its sizes unread
    try:
        assert all(result.ok for result in verification.run_all("quick"))
    finally:
        verification._essential_periods.cache_clear()
    assert read == set(verification.Sizes._fields)


def string_join_mismatches(codes) -> int:
    """Positions below L where the rules' string-join image of the first L/2 letters differs from them or ends."""
    text = substitution.decode_codes(codes)
    rules = substitution.grigorchuk_substitution().rules
    image = "".join(rules[x] for x in text[: len(text) // 2])
    return sum(k >= len(image) or image[k] != x for k, x in enumerate(text))


def check_closed_form_on(codes, sizes, monkeypatch):
    prefix = substitution.SymbolicPrefix(bytes(codes))
    monkeypatch.setattr(substitution, "grigorchuk_prefix", lambda n: prefix)
    return verification.check_closed_form(sizes)


def test_closed_form_counts_a_mismatch_in_every_block(monkeypatch):
    # the image of two blocks, with a wrong letter at each end of each
    sizes = QUICK._replace(prefix_log2=18)
    length, block = 1 << sizes.prefix_log2, verification._CLOSED_FORM_BLOCK
    codes = bytearray(substitution.grigorchuk_codes(length))
    for i in [0, block - 1, block, 2 * block - 1]:
        codes[i] ^= 1
    result = check_closed_form_on(codes, sizes, monkeypatch)
    assert not result.ok
    assert result.detail == f"{string_join_mismatches(codes)} mismatches over {length} positions"


def test_closed_form_fails_on_rotated_valuation_letters(monkeypatch):
    monkeypatch.setattr(substitution, "_VALUATION_LETTER", {0: "c", 1: "b", 2: "d"})
    codes = substitution.grigorchuk_codes(1 << QUICK.prefix_log2)
    result = check_closed_form_on(codes, QUICK, monkeypatch)
    assert not result.ok
    assert result.detail == f"{string_join_mismatches(codes)} mismatches over {len(codes)} positions"


def test_closed_form_fails_on_a_wrong_last_letter(monkeypatch):
    # the last letter lies past the half the rules are applied to: only their image reaches it
    codes = bytearray(substitution.grigorchuk_codes(1 << QUICK.prefix_log2))
    codes[-1] ^= 1
    result = check_closed_form_on(codes, QUICK, monkeypatch)
    assert (result.ok, result.detail) == (False, f"1 mismatches over {len(codes)} positions")


def test_a_residue_off_by_one_fails_the_equivariance_check(monkeypatch):
    # the values still step by one; only where they start is wrong: on the leaves' digits, then on the tag's
    digits, require_factor = language.factor_digits, toeplitz.require_factor

    def leaves_off(leaves):
        return digits(leaves) + 1

    def tag_off(prefix, length):
        return require_factor(prefix, length) + (prefix.fixed_point_start is not None)

    for module, name, fault in ((language, "factor_digits", leaves_off), (toeplitz, "require_factor", tag_off)):
        verification._untagged_prefix.cache_clear()  # its leaves are read again, under the fault
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault)
            result = verification.check_equivariance(QUICK)
        assert (result.ok, result.detail) == (False, "128 shifts; values==n mod 2^8 on the tag and the leaves: False")
    verification._untagged_prefix.cache_clear()
    assert verification.check_equivariance(QUICK).ok


def flipped_prefix(index):
    """``grigorchuk_prefix`` with code ``index`` flipped, in prefixes with no fixed-point start."""
    def prefix(n):
        codes = bytearray(substitution.grigorchuk_codes(n))
        codes[index] ^= 1
        return substitution.SymbolicPrefix(bytes(codes))
    return prefix


def test_the_varying_classes_see_a_letter_the_skeleton_scan_passes(monkeypatch):
    # letter 3 * 2^K lies in the one varying class mod 2^k for every k <= K, so with the language test
    # off the levels and the encoding stand; mod 2^(K+1) it makes a second class vary
    K = QUICK.skeleton_depth
    monkeypatch.setattr(substitution, "grigorchuk_prefix", flipped_prefix(3 * (1 << K) - 1))
    with pytest.raises(errors.NotInSubshiftError, match=f"^the {4 << K} letters are not a factor"):
        verification.check_fixed_point_skeleton(QUICK)
    monkeypatch.setattr(toeplitz, "require_factor", lambda prefix, length: 0)  # the fixed point's digits
    result = verification.check_fixed_point_skeleton(QUICK)
    assert (result.ok, result.detail) == (False, "M_k=2^k for k<=K on the tag and the leaves: True; encoded values"
                                                 " 0 and 0; varying classes 2^t - 1 mod 2^t for t<=K+1: False")


def test_a_check_that_raises_fails_and_verify_gives_its_verdict(monkeypatch, capsys):
    from odoshift import cli

    monkeypatch.setattr(substitution, "grigorchuk_prefix", flipped_prefix(5))
    caches = (verification._essential_periods, verification._untagged_prefix)
    for cache in caches:
        cache.cache_clear()
    try:
        code = cli.main(["verify", "--level", "quick"])
    finally:
        for cache in caches:
            cache.cache_clear()
    lines = capsys.readouterr().out.splitlines()
    assert code == cli.EXIT_VERIFICATION_FAILED
    assert len(lines) == len(ALL_CHECKS) + 1 and lines[-1] == "verdict: FAILED"
    skeleton = lines[[check.__name__ for check in ALL_CHECKS].index("check_fixed_point_skeleton")]
    assert skeleton.startswith("FAIL check_fixed_point_skeleton ")
    assert skeleton.endswith("s: raised NotInSubshiftError: the 4096 letters are not a factor of the fixed point")


def test_an_error_outside_the_package_still_propagates():
    def check(sizes):
        raise KeyError("not an odoshift error")

    with pytest.raises(KeyError):
        verification.run_check(check, QUICK)


def test_eigenfunction_detail():
    result = verification.check_eigenfunction(FULL)
    assert (result.ok, result.detail) == (True, "classes mod 2^10 of measure 2^-10: True; sum to mu[l]: True;"
                                                " 0 of 200 windows outside the class of their shift")


def _flip_the_start_parity(monkeypatch):
    # the start's parity read off the wrong bit: each leaf's class moves, so only the windows see it
    leaves = language._leaves
    monkeypatch.setattr(language, "_leaves", lambda sets: tuple((k, t ^ 1, s) for k, t, s in leaves(sets)))


def _drop_a_digit(monkeypatch):
    # a digit dropped at the first level: each class holds the measure of two
    masses = language._class_masses
    monkeypatch.setattr(language, "_class_masses",
                        lambda depth, r, j: masses(depth, r, j - 1 if j == QUICK.eigen_depth else j))


@pytest.mark.parametrize("fault, detail", [
    (_flip_the_start_parity,
     "classes mod 2^6 of measure 2^-6: True; sum to mu[l]: True; 60 of 60 windows outside the class of their shift"),
    (_drop_a_digit,
     "classes mod 2^6 of measure 2^-6: False; sum to mu[l]: False; 0 of 60 windows outside the class of their shift"),
], ids=["flipped", "dropped"])
def test_eigenfunction_fails_where_a_digit_of_the_recursion_is_off(fault, detail, monkeypatch):
    fault(monkeypatch)
    result = verification.check_eigenfunction(QUICK)
    assert (result.ok, result.detail) == (False, detail)


def test_cf_algebra_detail():
    result = verification.check_cf_algebra(FULL)
    assert (result.ok, result.detail) == (True, "lcm of the periods 8192 == 2^13: True; a power of two, so a factor"
                                                " of the binary odometer: True; divisors n <= 2^13 are the powers"
                                                " of two: True")


def test_cf_algebra_fails_on_a_period_of_three(monkeypatch):
    ep = verification._essential_periods(QUICK)
    monkeypatch.setattr(verification, "_essential_periods", lambda sizes: ep._replace(periods=ep.periods + (3,)))
    result = verification.check_cf_algebra(QUICK)
    assert (result.ok, result.detail) == (False, "lcm of the periods 384 == 2^7: False; a power of two, so a factor"
                                                 " of the binary odometer: False; divisors n <= 2^7 are the powers"
                                                 " of two: False")


@pytest.mark.parametrize("alter, lcm, legs", [
    (lambda p: p + (5,), 640, (False, False, False)),
    (lambda p: p + (6,), 384, (False, False, False)),
    (lambda p: p + (7,), 896, (False, False, False)),
    (lambda p: p + (768,), 768, (False, False, False)),
    # past the horizon: 129 = 3 x 43 brings the divisor 3 below it, the prime 257 no divisor at all
    (lambda p: p + (129,), 128 * 129, (False, False, False)),
    (lambda p: p + (257,), 128 * 257, (False, False, True)),
    (lambda p: p + (256,), 256, (False, True, True)),
    (lambda p: p[:-1], 64, (False, True, False)),
    (lambda p: (), 1, (False, True, False)),
    (lambda p: p + (1,), 128, (True, True, True)),
    (lambda p: p + (128,), 128, (True, True, True)),
], ids=["5", "6", "7", "768", "129", "257", "256", "no 128", "none", "1", "128 twice"])
def test_cf_algebra_reads_each_leg_off_the_lcm(alter, lcm, legs, monkeypatch):
    ep = verification._essential_periods(QUICK)
    monkeypatch.setattr(verification, "_essential_periods", lambda sizes: ep._replace(periods=alter(ep.periods)))
    result = verification.check_cf_algebra(QUICK)
    exact, factor, agree = legs
    assert (result.ok, result.detail) == (all(legs), f"lcm of the periods {lcm} == 2^7: {exact}; a power of two,"
                                          f" so a factor of the binary odometer: {factor}; divisors n <= 2^7 are"
                                          f" the powers of two: {agree}")


def test_the_two_period_checks_share_one_scan(monkeypatch):
    scans = []
    essential_periods = toeplitz.essential_periods
    monkeypatch.setattr(toeplitz, "essential_periods", lambda *args: scans.append(args[1]) or essential_periods(*args))
    verification._essential_periods.cache_clear()
    assert verification.check_essential_periods(QUICK).ok and verification.check_cf_algebra(QUICK).ok
    assert scans == [1 << QUICK.ep_horizon_log2]


def test_check_spectrum_fails_where_the_two_paths_differ(monkeypatch):
    # one start too many in class 0 on the fixed point's path only
    counts = ergodic._fixed_point_counts
    monkeypatch.setattr(ergodic, "_fixed_point_counts",
                        lambda *args: [c + (r == 0) for r, c in enumerate(counts(*args))])
    result = verification.check_spectrum(QUICK)
    assert not result.ok and result.detail.endswith("9 magnitudes equal on both paths: False")


def test_check_spectrum_fails_where_the_counts_spread_past_a_hundredth(monkeypatch):
    # N / 50 starts too many in class 0 of the counts the check reads, on neither path of the magnitudes
    counts = language.fixed_point_residue_counts
    extra = (1 << QUICK.prefix_log2) // 50
    monkeypatch.setattr(language, "fixed_point_residue_counts",
                        lambda *args: [c + extra * (r == 0) for r, c in enumerate(counts(*args))])
    result = verification.check_spectrum(QUICK)
    assert not result.ok and result.detail.endswith("9 magnitudes equal on both paths: True")
    for theta in ("1/3", "1/5"):
        assert re.search(f"theta={theta}: [^;]*, D/N [^;]* <= 1/100: False;", result.detail), result.detail


@pytest.mark.parametrize("level", ["medium", "FULL", ""])
def test_an_unknown_level_runs_no_check(monkeypatch, level):
    monkeypatch.setattr(verification, "run_check", lambda check, sizes: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match=f"^level must be 'quick' or 'full', got {level!r}$"):
        verification.run_all(level)
