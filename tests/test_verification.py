"""The verification checks draw their samples and hold their temporaries in fixed-size blocks."""

import random
import tracemalloc

import numpy as np
import pytest

from odoshift import ergodic, odometer, substitution, toeplitz, verification
from odoshift.verification import ALL_CHECKS, FULL, QUICK
from oracles import strided_tail_rigidity

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


@pytest.mark.parametrize("sizes", [QUICK, FULL], ids=["quick", "full"])
def test_blocked_draws_equal_the_one_shot_draws(sizes):
    length, samples = 1 << sizes.prefix_log2, sizes.rigidity_samples
    # all 2 x samples words at once: the m-words, then the p-words
    raw = random.Random(20260823).randbytes(16 * samples)
    draws = (np.frombuffer(raw, dtype=np.uint64) >> np.uint64(1)).astype(np.int64).reshape(2, -1)
    m = 1 + draws[0] % (length - 64)
    p = 1 + draws[1] % ((length - m) // 64)
    blocks = list(verification.rigidity_samples(length, samples))
    assert max(len(block_m) for block_m, _ in blocks) <= verification._SAMPLE_BLOCK
    assert np.array_equal(np.concatenate([block_m for block_m, _ in blocks]), m)
    assert np.array_equal(np.concatenate([block_p for _, block_p in blocks]), p)


@pytest.mark.parametrize("flips, ok", [((), True), ((4095,), True), ((5000,), False), ((16381,), False),
                                       ((8191, 12288), False), ((1, 2048, 10000), False)])
def test_rigidity_reads_the_tails_the_strided_copies_read(flips, ok, monkeypatch):
    # a flipped letter varies its residue class at every level, so the tails through it are read;
    # index 4095 is 2^12 - 1 mod 2^t for every t <= 12, and QUICK's tails through it are all rejected
    length = 1 << QUICK.prefix_log2
    codes = bytearray(substitution.grigorchuk_codes(length))
    for i in flips:
        codes[i] ^= 1
    prefix = substitution.SymbolicPrefix(substitution.GRIGORCHUK_ALPHABET, bytes(codes))
    monkeypatch.setattr(substitution, "grigorchuk_prefix", lambda n: prefix)
    want = strided_tail_rigidity(prefix.codes, verification.rigidity_samples(length, QUICK.rigidity_samples))
    result = verification.check_four_term_rigidity(QUICK)
    assert result.detail == (f"{want[0]} accepted samples, {want[1]} counterexamples,"
                             f" {want[2]} disagreements with v2(p) > v2(m)")
    assert result.ok == (want[1:] == (0, 0)) == ok


def test_closed_form_counts_a_mismatch_in_every_block(monkeypatch):
    # two blocks, with a wrong letter at each end of each
    sizes = QUICK._replace(prefix_log2=17)
    length, block = 1 << sizes.prefix_log2, verification._CLOSED_FORM_BLOCK
    wrong = [0, block - 1, block, length - 1]
    exact = substitution.grigorchuk_codes

    def with_wrong_letters(n):
        codes = bytearray(exact(n))
        for i in wrong:
            codes[i] ^= 1
        return memoryview(codes).toreadonly()

    monkeypatch.setattr(substitution, "grigorchuk_codes", with_wrong_letters)
    result = verification.check_closed_form(sizes)
    assert not result.ok
    assert result.detail == f"{len(wrong)} mismatches over {length} positions"


@pytest.mark.parametrize("check", [verification.check_equivariance, verification.check_eigenfunction],
                         ids=lambda check: check.__name__)
def test_a_residue_off_by_one_fails_the_shift_value_checks(check, monkeypatch):
    # the values still step by one; only where they start is wrong
    columns = toeplitz.deepest_columns
    monkeypatch.setattr(toeplitz, "deepest_columns",
                        lambda codes, K, shifts: [m % (1 << K) + 1 for m in columns(codes, K, shifts)])
    result = check(QUICK)
    assert not result.ok
    assert result.detail.endswith(": False")


def test_cf_algebra_detail_is_unchanged():
    result = verification.check_cf_algebra(FULL)
    assert (result.ok, result.detail) == (True, "orbit covers 4096/4096 states; cylinder frequencies exact: True")


def test_cf_algebra_names_a_listed_member_that_contains_rejects(monkeypatch):
    # 199 is a prime above every prime of the random sets, so no set holds it
    listed = odometer.cf_members
    monkeypatch.setattr(odometer, "cf_members", lambda cf, limit: listed(cf, limit) + [199])
    result = verification.check_cf_algebra(QUICK)
    assert (result.ok, result.detail) == (False, "listed member 199 rejected")


def test_cf_algebra_names_a_non_member_that_contains_accepts(monkeypatch):
    contains = odometer.cf_contains
    monkeypatch.setattr(odometer, "cf_contains", lambda cf, n: n == 14 or contains(cf, n))
    result = verification.check_cf_algebra(QUICK)
    assert (result.ok, result.detail) == (False, "non-member 14 accepted")


def test_check_spectrum_fails_where_the_two_paths_differ(monkeypatch):
    # one start too many in class 0 on the fixed point's path only
    counts = ergodic._fixed_point_counts
    monkeypatch.setattr(ergodic, "_fixed_point_counts",
                        lambda *args: [c + (r == 0) for r, c in enumerate(counts(*args))])
    result = verification.check_spectrum(QUICK)
    assert not result.ok and result.detail.endswith("9 magnitudes equal on both paths: False")
