import pytest
from hypothesis import given
from hypothesis import strategies as st

from odoshift import errors
from odoshift import factormap as fm
from odoshift.substitution import (
    GRIGORCHUK_ALPHABET,
    Alphabet,
    grigorchuk_letter,
    grigorchuk_prefix,
    parse_prefix,
)
from oracles import grigorchuk_level_letter, reconstruct_from_skeleton

OMEGA = grigorchuk_prefix(1 << 14)


def _moving_residues(depth):
    """Nested M_k for an encoded value with alternating binary digits 1,0,1,0,..."""
    out = []
    for k in range(1, depth + 1):
        value = sum(1 << i for i in range(0, k, 2))
        out.append((1 << k) - value)
    return out


def word(text):
    return parse_prefix(text, GRIGORCHUK_ALPHABET)


class TestEncode:
    def test_fixed_point_encodes_to_zero(self):
        result = fm.encode_fG(OMEGA, 10)
        assert result.value.value == 0
        assert result.value.to_text() == "0" * 10
        assert result.window_used == 1 << 12

    def test_shift_five(self):
        result = fm.encode_fG(OMEGA.shifted(5), 8)
        assert result.value.to_text() == "10100000"

    def test_shift_one(self):
        result = fm.encode_fG(OMEGA.shifted(1), 3)
        assert result.value.to_text() == "100"

    def test_shift_value_formula(self):
        for n in range(200):
            assert fm.encode_fG(OMEGA.shifted(n), 6).value.value == n % 64

    def test_precision_must_be_positive(self):
        with pytest.raises(errors.InvalidInputError):
            fm.encode_fG(OMEGA, 0)

    def test_short_prefix(self):
        with pytest.raises(errors.InsufficientDataError) as exc:
            fm.encode_fG(grigorchuk_prefix(63), 4)
        assert exc.value.required_length == 64

    @given(shift=st.integers(min_value=0, max_value=512), k=st.integers(min_value=1, max_value=8))
    def test_precision_nesting(self, shift, k):
        wide = fm.encode_fG(OMEGA.shifted(shift), 10)
        narrow = fm.encode_fG(OMEGA.shifted(shift), k)
        assert wide.value.to_text()[:k] == narrow.value.to_text()

    def test_injectivity_across_residues(self):
        K = 6
        encodings = {
            fm.encode_fG(OMEGA.shifted(n), K).value.value for n in range(1 << K)
        }
        assert len(encodings) == 1 << K


class TestEquivariance:
    def test_mod_two_values(self):
        report = fm.verify_equivariance(OMEGA, 1, 2)
        assert report.ok
        assert report.values == (0, 1, 0)

    def test_long_run(self):
        report = fm.verify_equivariance(OMEGA, 8, 2000)
        assert report.ok
        assert report.first_violation is None

    def test_insufficient_data(self):
        with pytest.raises(errors.InsufficientDataError):
            fm.verify_equivariance(grigorchuk_prefix(100), 8, 50)

    def test_corrupted_prefix_detected(self):
        text = list(grigorchuk_prefix(3000).text)
        text[100] = {"a": "b"}.get(text[100], "a")
        corrupted = word("".join(text))
        try:
            report = fm.verify_equivariance(corrupted, 8, 500)
            assert not report.ok
        except errors.NotInSubshiftError:
            pass


class TestSigmaPreimage:
    def test_root_has_three_preimages(self):
        assert fm.sigma_preimage_letters(OMEGA, 64) == {"b", "c", "d"}

    def test_first_shift(self):
        assert fm.sigma_preimage_letters(OMEGA.shifted(1), 64) == {"a"}

    def test_second_shift(self):
        assert fm.sigma_preimage_letters(OMEGA.shifted(2), 64) == {"c"}

    def test_singletons_along_the_orbit(self):
        # horizon past the next power of two above n, else heads repeat
        for n in range(1, 33):
            letters = fm.sigma_preimage_letters(OMEGA.shifted(n), 128)
            assert letters == {OMEGA.at(n)}, n

    def test_horizon_validation(self):
        with pytest.raises(errors.InvalidInputError):
            fm.sigma_preimage_letters(OMEGA, 1)
        with pytest.raises(errors.InsufficientDataError) as exc:
            fm.sigma_preimage_letters(word("acabaca"), 64)
        assert exc.value.required_length == 63

    def test_head_outside_the_language(self):
        with pytest.raises(errors.NotInSubshiftError):
            fm.sigma_preimage_letters(word("acaa" + OMEGA.text[:60]), 64)
        with pytest.raises(errors.NotInSubshiftError):
            fm.sigma_preimage_letters(parse_prefix("acx" * 22, Alphabet("acx")), 64)

    def test_the_letters_not_their_codes_are_read(self):
        # over "dcba" the code of a is 3: a head read as codes would be another word
        reversed_letters = Alphabet("dcba")
        for n in (0, 1, 2, 5, 37):
            text = OMEGA.shifted(n).text[:300]
            assert fm.sigma_preimage_letters(parse_prefix(text, reversed_letters), 128) == (
                fm.sigma_preimage_letters(word(text), 128)
            ), n


class TestClassifyFiber:
    def test_fixed_point_is_the_exceptional_point(self):
        report = fm.classify_fiber(OMEGA, 12)
        assert report.classification == fm.OMEGA_STAR_ORBIT
        assert report.stabilization_index == 0
        assert report.sigma_preimage_letters == frozenset("bcd")

    def test_one_letter_extension(self):
        text = "b" + grigorchuk_prefix((1 << 14) - 1).text
        report = fm.classify_fiber(word(text), 12)
        assert report.classification == fm.OMEGA_STAR_ORBIT
        assert report.stabilization_index == 1

    def test_generic_toeplitz_point(self):
        # encoded value with binary digits 1,0,1,0,...: M_k moves at every
        # even level, never settling, so the point is Toeplitz but lies on
        # no finite shift of the fixed point
        K = 10
        residues = _moving_residues(K + 2)
        prefix = reconstruct_from_skeleton(residues, 1 << (K + 4), tail_letter="c")
        report = fm.classify_fiber(prefix, K)
        assert report.classification == fm.TOEPLITZ_POINT
        assert report.stabilization_index is None

    def test_shifted_point_is_toeplitz(self):
        report = fm.classify_fiber(OMEGA.shifted(3), 10)
        assert report.classification == fm.TOEPLITZ_POINT


class TestReconstruct:
    def test_level_letters(self):
        assert [grigorchuk_level_letter(k) for k in range(1, 8)] == list("acbdcbd")

    def test_matches_shifted_fixed_point(self):
        K = 8
        residues = [(1 << k) - 1 for k in range(1, K + 1)]
        tail = grigorchuk_letter(1 << K)  # the one position tracking every column
        rebuilt = reconstruct_from_skeleton(residues, 1 << K, tail_letter=tail)
        assert rebuilt.text == OMEGA.shifted(1).text[: 1 << K]

    def test_skeleton_round_trip(self):
        K = 6
        residues = _moving_residues(K + 2)
        prefix = reconstruct_from_skeleton(residues, 1 << (K + 4), tail_letter="b")
        from odoshift.toeplitz import period_skeleton

        skel = period_skeleton(prefix, K)
        assert list(skel.levels) == residues[:K]

    def test_rejects_unnested_residues(self):
        with pytest.raises(errors.InvalidInputError):
            reconstruct_from_skeleton([1, 4], 64, tail_letter="c")

    def test_rejects_out_of_range(self):
        with pytest.raises(errors.InvalidInputError):
            reconstruct_from_skeleton([3], 64, tail_letter="c")
