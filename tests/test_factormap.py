import pytest
from hypothesis import given
from hypothesis import strategies as st

from odoshift import errors
from odoshift import factormap as fm
from odoshift import toeplitz as tp
from odoshift.substitution import (
    FixedPointWindow,
    SymbolicPrefix,
    grigorchuk_letter,
    grigorchuk_prefix,
    parse_prefix,
)
from oracles import grigorchuk_level_letter, head, reconstruct_from_skeleton

OMEGA = grigorchuk_prefix(1 << 14)


def _moving_residues(depth):
    """Nested M_k for an encoded value with alternating binary digits 1,0,1,0,..."""
    out = []
    for k in range(1, depth + 1):
        value = sum(1 << i for i in range(0, k, 2))
        out.append((1 << k) - value)
    return out


def word(text):
    return parse_prefix(text)


class TestDyadicInt:
    def test_add_one_examples(self):
        # adding one to a truncated dyadic integer carries from the least significant digit
        for bits, after in (("000", "100"), ("111", "000"), ("110", "001")):
            x = fm.DyadicInt(int(bits[::-1], 2), len(bits))
            assert fm.DyadicInt((x.value + 1) % (1 << x.precision), x.precision).to_text() == after

    def test_text_is_lsb_first(self):
        assert fm.DyadicInt(5, 8).to_text() == "10100000"

    @given(value=st.integers(min_value=0, max_value=10_000), precision=st.integers(min_value=1, max_value=16))
    def test_from_int_round_trip(self, value, precision):
        x = fm.DyadicInt(value % (1 << precision), precision)
        assert x.precision == precision
        assert len(x.to_text()) == precision
        assert int(x.to_text()[::-1], 2) == x.value == value % (1 << precision)

    def test_rejects_non_bits(self):
        # a value needing more than ``precision`` bits, a negative value, no bits at all
        for value, precision in ((4, 2), (-1, 3), (0, 0)):
            with pytest.raises(errors.InvalidInputError):
                fm.DyadicInt(value, precision)


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

    @pytest.mark.parametrize("start", [0, 12345])
    def test_the_tag_makes_no_letters(self, start):
        # the skeleton at depth 24 reads 2^26 letters, and the tag answers with none of them made
        window = FixedPointWindow(start, 1 << 26)
        assert tp.period_skeleton(window, 24).levels[-1] == (1 << 24) - start
        assert fm.encode_fG(window, 24).value.value == start
        assert fm.verify_equivariance(window, 23, 4096)[-1] == start + 4096
        with pytest.raises(errors.InsufficientDataError):
            fm.verify_equivariance(window, 24, 1)
        assert window._codes is None

    def test_injectivity_across_residues(self):
        K = 6
        encodings = {
            fm.encode_fG(OMEGA.shifted(n), K).value.value for n in range(1 << K)
        }
        assert len(encodings) == 1 << K


class TestEquivariance:
    def test_mod_two_values(self):
        assert fm.verify_equivariance(OMEGA, 1, 2) == (0, 1, 0)

    def test_long_run(self):
        assert fm.verify_equivariance(OMEGA, 8, 2000) == tuple(n % 256 for n in range(2001))

    def test_insufficient_data(self):
        with pytest.raises(errors.InsufficientDataError):
            fm.verify_equivariance(grigorchuk_prefix(100), 8, 50)

    @pytest.mark.parametrize("shifts", [0, -2])
    def test_shifts_below_one_are_invalid(self, shifts):
        with pytest.raises(errors.InvalidInputError, match=f"^shifts must be positive, got {shifts}$"):
            fm.verify_equivariance(OMEGA, 4, shifts)

    def test_corrupted_prefix_detected(self):
        text = list(grigorchuk_prefix(3000).text)
        text[100] = {"a": "b"}.get(text[100], "a")
        corrupted = word("".join(text))
        with pytest.raises(errors.NotInSubshiftError):
            fm.verify_equivariance(corrupted, 8, 500)


# the first 256 letters of the fixed point with two letters swapped, or b turned into c: every window
# keeps the Toeplitz shape of one nested non-constant column per level, but the letters have measure 0
SWAPS = {"ab": str.maketrans("ab", "ba"), "cd": str.maketrans("cd", "dc"), "b to c": str.maketrans("b", "c")}


@pytest.mark.parametrize("swap", SWAPS)
def test_swapped_letters_raise_at_every_entry_point(swap):
    letters = grigorchuk_prefix(256).text.translate(SWAPS[swap])
    prefix = word(letters)
    message = "^the 256 letters are not a factor of the fixed point$"
    for entry_point in (lambda: tp.period_skeleton(prefix, 6), lambda: fm.encode_fG(prefix, 6),
                        lambda: fm.verify_equivariance(prefix, 5, 128), lambda: fm.classify_fiber(prefix, 6)):
        with pytest.raises(errors.NotInSubshiftError, match=message):
            entry_point()


class TestSigmaPreimage:
    def test_root_has_three_preimages(self):
        assert fm.sigma_preimage_letters(head(OMEGA, 64)) == {"b", "c", "d"}

    def test_first_shift(self):
        assert fm.sigma_preimage_letters(head(OMEGA.shifted(1), 64)) == {"a"}

    def test_second_shift(self):
        assert fm.sigma_preimage_letters(head(OMEGA.shifted(2), 64)) == {"c"}

    def test_singletons_along_the_orbit(self):
        # horizon past the next power of two above n, else heads repeat
        for n in range(1, 33):
            letters = fm.sigma_preimage_letters(head(OMEGA.shifted(n), 128))
            assert letters == {OMEGA.at(n)}, n

    def test_default_horizon_finds_one_letter_after_every_shift(self):
        # n + 4 * 2^v2(n) - 1 <= 5n letters are read after a shift n
        omega = grigorchuk_prefix(5 << 14)
        for n in range(1, (1 << 14) + 1):
            letters = fm.sigma_preimage_letters(head(omega.shifted(n), fm.default_language_horizon(n)))
            assert letters == {grigorchuk_letter(n)}, n

    def test_twice_the_two_part_is_not_horizon_enough(self):
        # after 7 * 2^5 shifts the head is extended by more than one letter up to horizon 3 * 2^5
        shifted = OMEGA.shifted(7 << 5)
        assert fm.sigma_preimage_letters(head(shifted, 2 << 5)) == {"b", "c", "d"}
        assert fm.sigma_preimage_letters(head(shifted, 3 << 5)) == {"b", "d"}
        assert fm.sigma_preimage_letters(head(shifted, (3 << 5) + 1)) == {grigorchuk_letter(7 << 5)} == {"b"}
        assert fm.default_language_horizon(7 << 5) == 128
        assert [fm.default_language_horizon(n) for n in (0, 1, 2, 16, 32, 64)] == [64, 64, 64, 64, 128, 256]

    def test_head_outside_the_language(self):
        with pytest.raises(errors.NotInSubshiftError):
            fm.sigma_preimage_letters(word("acaa" + OMEGA.text[:59]))


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

    @pytest.mark.parametrize("before", ["c", "d", "ab", "cab", "acab"])
    def test_letters_before_the_fixed_point(self, before):
        text = before + grigorchuk_prefix((1 << 14) - len(before)).text
        report = fm.classify_fiber(word(text), 12)
        assert report.classification == fm.OMEGA_STAR_ORBIT
        assert report.stabilization_index == len(before)

    @pytest.mark.parametrize("K", [2, 3, 6])
    def test_no_shift_of_the_fixed_point_but_the_first_is_on_its_orbit(self, K):
        # the skeleton settles for every shift whose digit K - 1 is 1, and is the fixed point's for the
        # multiples of 2^K, but past shift 0 the letters from the index on are not the fixed point's
        omega = grigorchuk_prefix((1 << (K + 1)) + (1 << (K + 2)))
        for shift in range(1 << (K + 1)):
            report = fm.classify_fiber(omega.shifted(shift), K)
            expected = (fm.OMEGA_STAR_ORBIT, 0) if shift == 0 else (fm.TOEPLITZ_POINT, None)
            assert (report.classification, report.stabilization_index) == expected, shift

    def test_generic_toeplitz_point(self):
        # encoded value with binary digits 1,0,1,0,...: M_k moves at every
        # even level, never settling, so the point is Toeplitz but lies on
        # no finite shift of the fixed point.  Twelve prescribed levels over
        # 2^14 letters leave a word of measure 0; thirteen spell a factor.
        K = 10
        short = reconstruct_from_skeleton(_moving_residues(K + 2), 1 << (K + 4), tail_letter="c")
        with pytest.raises(errors.NotInSubshiftError):
            fm.classify_fiber(short, K)
        prefix = reconstruct_from_skeleton(_moving_residues(K + 3), 1 << (K + 4), tail_letter="c")
        report = fm.classify_fiber(prefix, K)
        assert report.classification == fm.TOEPLITZ_POINT
        assert report.stabilization_index is None
        assert report.sigma_preimage_letters == frozenset("a")

    def test_shifted_point_is_toeplitz(self):
        report = fm.classify_fiber(OMEGA.shifted(3), 10)
        assert report.classification == fm.TOEPLITZ_POINT

    def test_f_is_read_through_the_one_encoder(self, monkeypatch):
        from odoshift import toeplitz

        calls = []

        def counting(name):
            original = getattr(toeplitz, name)

            def counted(*args):
                calls.append(name)
                return original(*args)

            return counted

        monkeypatch.setattr(toeplitz, "period_skeleton", counting("period_skeleton"))
        for prefix in (OMEGA, SymbolicPrefix(OMEGA.codes)):
            assert fm.classify_fiber(prefix, 10).stabilization_index == 0
        assert calls == ["period_skeleton"] * 2

    @pytest.mark.parametrize("K", [2, 6, 10])
    def test_the_tag_and_the_letters_agree_where_the_letters_refute_the_orbit(self, K):
        # as many letters as the fiber command holds after the shift, with no fixed-point start: they
        # cannot refute an index after which they are the fixed point's, as after 3590 at K = 10
        omega = grigorchuk_prefix(1 << 13)
        disagree = 0
        for shift in range(1, 4097):
            held = max(1 << (K + 2), fm.default_language_horizon(shift) - 1)
            tagged = fm.classify_fiber(omega.shifted(shift), K)
            letters = fm.classify_fiber(SymbolicPrefix(omega.codes[shift : shift + held]), K)
            assert (tagged.classification, tagged.stabilization_index) == (fm.TOEPLITZ_POINT, None), shift
            assert tagged.sigma_preimage_letters == letters.sigma_preimage_letters == {omega.at(shift)}, shift
            disagree += letters.stabilization_index is not None
        assert disagree > 0

    def test_the_tag_decides_with_no_letter_test(self, monkeypatch):
        from odoshift import language

        monkeypatch.setattr(language, "spells_fixed_point", None)
        for shift, expected in ((0, (fm.OMEGA_STAR_ORBIT, 0)), (3590, (fm.TOEPLITZ_POINT, None))):
            report = fm.classify_fiber(grigorchuk_prefix(shift + 4096).shifted(shift), 10)
            assert (report.classification, report.stabilization_index) == expected

    @pytest.mark.parametrize("K", range(1, 7))
    def test_an_orbit_index_holds_over_every_letter_held(self, K):
        # as many letters as the fiber command holds after the shift: past the skeleton's window they
        # refute the index that the window allows at shifts such as 64 at K = 1 and 15 at K = 2
        omega = grigorchuk_prefix(512 + (1 << 11))
        for shift in range(1, 513):
            held = max(1 << (K + 2), fm.default_language_horizon(shift) - 1)
            prefix = parse_prefix(omega.text[shift : shift + held])
            n = fm.classify_fiber(prefix, K).stabilization_index
            if n is not None:
                assert prefix.text[n:] == omega.text[: held - n], (shift, n)


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
