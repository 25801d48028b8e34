import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from odoshift import ergodic as erg
from odoshift import errors, language
from odoshift.factormap import verify_equivariance
from odoshift.language import class_measure, letter_sets, word_sets
from odoshift.substitution import (
    FixedPointWindow,
    SymbolicPrefix,
    decode_codes,
    encode_letters,
    fixed_point_prefix,
    grigorchuk_letter,
    grigorchuk_prefix,
    grigorchuk_substitution,
    parse_prefix,
)

OMEGA = grigorchuk_prefix(1 << 18)
OMEGA_TEXT = grigorchuk_prefix(1 << 12).text


def untagged(prefix):
    """The letters of ``prefix`` in a prefix with no fixed-point start: counts on it run the bitsets."""
    return SymbolicPrefix(prefix.codes)


LETTER_MEASURE = {
    "a": Fraction(1, 2),
    "b": Fraction(1, 7),
    "c": Fraction(2, 7),
    "d": Fraction(1, 14),
}


class TestCylinderFrequency:
    def test_a_is_exactly_half(self):
        est = erg.cylinder_frequency(OMEGA, "a", 1 << 16)
        assert est.count == 1 << 15
        assert est.frequency == Fraction(1, 2)

    def test_d_near_one_fourteenth(self):
        est = erg.cylinder_frequency(OMEGA, "d", 1 << 16)
        assert abs(est.frequency - Fraction(1, 14)) < Fraction(1, 1 << 10)

    def test_ac_near_two_sevenths(self):
        est = erg.cylinder_frequency(OMEGA, "ac", 1 << 16)
        assert abs(est.frequency - Fraction(2, 7)) < Fraction(1, 1 << 10)

    def test_count_matches_valuation_classes(self):
        # independent oracle: d occurs at positions with valuation 3, 6, 9, ...
        window = 1 << 14
        expected = sum(
            1 for m in range(1, window + 1) if grigorchuk_letter(m) == "d"
        )
        assert erg.cylinder_frequency(OMEGA, "d", window).count == expected

    def test_window_validation(self):
        with pytest.raises(errors.InsufficientDataError) as exc:
            erg.cylinder_frequency(grigorchuk_prefix(64), "ab", 64)
        assert exc.value.required_length == 65
        with pytest.raises(errors.InvalidInputError):
            erg.cylinder_frequency(OMEGA, "", 64)

    def test_count_holds_the_window_mask_and_one_block(self):
        # numpy reports its buffers to tracemalloc; a window-sized temporary per
        # letter, compare or AND, would double the peak
        window = 1 << 20
        prefix = untagged(grigorchuk_prefix(window + 13))
        word = decode_codes(prefix.codes[1000:1014])
        erg.cylinder_frequency(prefix, word, window)  # first-call imports stay out of the trace
        tracemalloc.start()
        try:
            count = erg.cylinder_frequency(prefix, word, window).count
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count > 0
        assert peak <= window + 2 * erg._PLANE_BLOCK + (64 << 10), peak

    def test_first_count_builds_the_bitsets_in_blocks(self):
        # the first count builds every letter's bitset from the codes: a '0'/'1'
        # text of the whole prefix at once would exceed the bound
        window = 1 << 20
        prefix = untagged(grigorchuk_prefix(window + 14).shifted(1))  # a view of its own, with no bitsets yet
        word = decode_codes(prefix.codes[:14])
        assert set(word) == set("abcd")
        erg.cylinder_frequency(untagged(grigorchuk_prefix(64)), "a", 64)  # first-call imports stay out of the trace
        tracemalloc.start()
        try:
            count = erg.cylinder_frequency(prefix, word, window).count
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count > 0
        assert peak <= window + 2 * erg._PLANE_BLOCK + (64 << 10), peak


    def test_a_count_on_the_fixed_point_builds_no_bitsets(self):
        prefix = fixed_point_prefix(grigorchuk_substitution(), "a", (1 << 16) + 18)
        for shift in (0, 5):
            view = prefix.shifted(shift)
            word = decode_codes(view.codes[1000:1014])
            assert erg.cylinder_frequency(view, word, 1 << 16).count > 0
            assert not view._bitsets
        assert not prefix._bitsets


class TestInvariantMeasure:
    def test_letter_values(self):
        for letter, value in LETTER_MEASURE.items():
            assert erg.invariant_measure_cylinder(letter) == value

    def test_letters_sum_to_one(self):
        assert sum(erg.invariant_measure_cylinder(w) for w in "abcd") == 1

    def test_aa_is_null(self):
        assert erg.invariant_measure_cylinder("aa") == 0

    def test_additivity(self):
        for word in ("a", "c", "ac", "ca", "aca", "cab"):
            total = sum(erg.invariant_measure_cylinder(word + x) for x in "abcd")
            assert total == erg.invariant_measure_cylinder(word)

    def test_brute_force_density_oracle(self):
        # letter densities over residues mod 2^16, leaving out the single
        # deep-valuation position, bracket the exact value
        modulus = 1 << 16
        counts = {w: 0 for w in "abcd"}
        for m in range(1, modulus):
            counts[grigorchuk_letter(m)] += 1
        for w in "abcd":
            low = Fraction(counts[w], modulus)
            high = Fraction(counts[w] + 1, modulus)
            assert low <= erg.invariant_measure_cylinder(w) <= high

    def test_empirical_agreement_depth_two(self):
        window = 1 << 17
        text = OMEGA.text
        words = {text[i : i + 2] for i in range(window)}
        for word in words:
            exact = erg.invariant_measure_cylinder(word)
            est = erg.cylinder_frequency(OMEGA, word, window)
            assert abs(est.frequency - exact) < Fraction(1, 1000)

    def test_validation(self):
        with pytest.raises(errors.InvalidInputError):
            erg.invariant_measure_cylinder("ax")
        with pytest.raises(errors.InvalidInputError):
            erg.invariant_measure_cylinder("")

    def test_long_word_has_no_depth_cap(self):
        # 25 letters: past the old depth cap of 24
        window = 1 << 17
        word = OMEGA.text[1000:1025]
        exact = erg.invariant_measure_cylinder(word)
        assert exact > 0
        assert sum(erg.invariant_measure_cylinder(word + x) for x in "abcd") == exact
        est = erg.cylinder_frequency(OMEGA, word, window)
        assert abs(est.frequency - exact) < Fraction(1, 1000)
        assert erg.invariant_measure_cylinder("a" * 25) == 0


class TestClassMeasure:
    """rho_j(w, r) = mu([w] and f = r mod 2^j), f the factor map onto the dyadic integers."""

    def test_validation(self):
        for word, j in (("", 2), ("a", -1), ("ax", 1)):
            with pytest.raises(errors.InvalidInputError):
                class_measure(word, j, 0)

    @given(start=st.integers(0, 4000), length=st.integers(1, 40), j=st.integers(0, 8), r=st.integers(0, 255))
    def test_a_class_splits_into_its_two_children(self, start, length, j, r):
        word = OMEGA_TEXT[start : start + length]
        r %= 1 << j
        assert class_measure(word, j, r) == class_measure(word, j + 1, r) + class_measure(word, j + 1, r + (1 << j))

    @pytest.mark.parametrize("r", [0, 1, 2, 3, (1 << 1199) + 1, (1 << 1200) - 2],
                             ids=["0", "1", "2", "3", "2^1199+1", "2^1200-2"])
    def test_a_class_past_the_recursion_limit(self, r):
        # a fills the even 0-based indices, so the even classes r mod 2^j hold 2^-j of it each, the odd none;
        # one level per digit of r would pass the interpreter's recursion limit of 1000
        j = 1200
        assert class_measure("a", j, r) == (Fraction(1, 1 << j) if r % 2 == 0 else 0)

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4, 5, 6, 599, 1198, 1199])
    def test_a_class_past_the_recursion_limit_holds_the_letter_of_its_trailing_ones(self, t):
        # the letter at s is a for even s and next of the letter at (s - 1) / 2 for odd s, so a class with
        # t < j trailing ones holds next^t(a) alone, whatever its higher digits
        j = 1200
        r = ((12345 << t + 1) | (1 << t) - 1) % (1 << j)
        letter = "a"
        for _ in range(t):
            letter = {"a": "c", "b": "d", "c": "b", "d": "c"}[letter]
        assert [class_measure(x, j, r) for x in "abcd"] == [Fraction(x == letter, 1 << j) for x in "abcd"]

    def test_the_class_of_all_ones_holds_every_letter_pushed_j_times_through_next(self):
        # s = 2^j m - 1 holds next^j of the letter at m - 1, which is l with measure mu[l]; next cycles
        # c -> b -> d -> c and takes a to c, so next^1200 fixes b, c and d and takes a to d
        j = 1200
        masses = [class_measure(x, j, (1 << j) - 1) * (1 << j) for x in "abcd"]
        assert masses == [0, LETTER_MEASURE["b"], LETTER_MEASURE["c"], LETTER_MEASURE["d"] + LETTER_MEASURE["a"]]


def frequencies_and_measures(prefix, depth, window):
    """word -> (frequency over the window, exact measure) for every word of ``depth`` letters over abcd."""
    words = map("".join, product("abcd", repeat=depth))
    return {
        w: (erg.cylinder_frequency(prefix, w, window).frequency, erg.invariant_measure_cylinder(w))
        for w in words
    }


class TestUniformDistribution:
    """Each cylinder's frequency over a window is near its exact measure; the words seen have positive measure."""

    def test_depth_one(self):
        table = frequencies_and_measures(OMEGA, 1, 1 << 16)
        assert max(abs(f - mu) for f, mu in table.values()) <= Fraction(1, 64)
        assert {w for w, (f, _) in table.items() if f} == set("abcd")

    def test_shifted_orbit_same_limits(self):
        shifted = grigorchuk_prefix((1 << 16) + 8).shifted(7)
        table = frequencies_and_measures(shifted, 1, 1 << 16)
        assert max(abs(f - mu) for f, mu in table.values()) <= Fraction(1, 64)

    def test_depth_two(self):
        table = frequencies_and_measures(OMEGA, 2, 1 << 17)
        assert max(abs(f - mu) for f, mu in table.values()) < Fraction(1, 1000)
        seen = {w for w, (f, _) in table.items() if f}
        assert seen == {w for w, (_, mu) in table.items() if mu} == {"ab", "ac", "ad", "ba", "ca", "da"}


class TestEigenfunction:
    """phi(shift^n x) = exp(2 pi i r_n / 2^k) is an eigenfunction iff r_(n+1) = r_n + 1 mod 2^k.

    r_n is the k-digit encoding of shift n, so the residues are the values
    of ``verify_equivariance``.
    """

    def test_residues_cycle_mod_eight(self):
        assert verify_equivariance(OMEGA, 3, 1000)[:9] == (0, 1, 2, 3, 4, 5, 6, 7, 0)

    def test_parity_alternates(self):
        assert verify_equivariance(OMEGA, 1, 10) == (0, 1) * 5 + (0,)

    def test_corrupted_prefix_fails(self):
        text = list(grigorchuk_prefix(4000).text)
        text[257] = "a" if text[257] != "a" else "c"
        corrupted = parse_prefix("".join(text))
        with pytest.raises(errors.NotInSubshiftError):
            verify_equivariance(corrupted, 5, 1000)

    def test_needs_window(self):
        with pytest.raises(errors.InsufficientDataError):
            verify_equivariance(grigorchuk_prefix(64), 5, 100)


class TestSpectralScan:
    def test_theta_zero_gives_the_mean(self):
        sample = erg.spectral_scan(OMEGA, [0], "a", 1 << 16)[0]
        assert abs(sample.magnitude - 0.5) <= 2**-10

    def test_dyadic_theta_keeps_mass(self):
        sample = erg.spectral_scan(OMEGA, [Fraction(1, 2)], "a", 1 << 16)[0]
        assert abs(sample.magnitude - 0.5) <= 2**-10

    def test_non_dyadic_theta_decays(self):
        for theta in (Fraction(1, 3), Fraction(1, 5)):
            mags = [
                erg.spectral_scan(OMEGA, [theta], "a", 1 << n)[0].magnitude
                for n in (12, 14, 16)
            ]
            assert mags[0] > mags[1] > mags[2]
            assert mags[-1] <= 1e-2

    def test_window_needs_window_plus_word_minus_one_letters(self):
        prefix = grigorchuk_prefix(65)
        for word in ("a", "ab"):
            samples = erg.spectral_scan(prefix, [0], word, 66 - len(word))
            count = erg.cylinder_frequency(prefix, word, 66 - len(word)).count
            assert samples[0].magnitude * samples[0].window == pytest.approx(count)
            with pytest.raises(errors.InsufficientDataError) as exc:
                erg.spectral_scan(prefix, [0], word, 67 - len(word))
            assert exc.value.required_length == 66

    def test_repeated_theta_is_computed_once(self, monkeypatch):
        sums = []
        phase_sum = erg._phase_sum
        monkeypatch.setattr(erg, "_phase_sum", lambda *args: sums.append(args[1:]) or phase_sum(*args))
        thetas = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 6), 0.5, Fraction(1, 3)]
        samples = erg.spectral_scan(OMEGA, thetas, "a", 1 << 12)
        assert sorted(sums) == [(1, 2), (1, 3)]
        assert [s.theta for s in samples] == [Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 2),
                                              Fraction(1, 3)]
        alone = {t: erg.spectral_scan(OMEGA, [t], "a", 1 << 12)[0].magnitude for t in (Fraction(1, 3), Fraction(1, 2))}
        assert [s.magnitude for s in samples] == [alone[s.theta] for s in samples]

    def test_the_word_is_read_once_per_call(self, monkeypatch):
        reads = []
        monkeypatch.setattr(erg, "word_sets", lambda word: reads.append(word) or word_sets(word))
        thetas = [Fraction(1, 3), Fraction(1, 5), Fraction(3, 128), Fraction(1, 4099)]
        erg.spectral_scan(OMEGA, thetas, "aca", 1 << 12)
        assert reads == ["aca"]

    @pytest.mark.parametrize("tagged", [True, False], ids=["fixed_point", "letters"])
    def test_counts_are_taken_once_per_distinct_q(self, monkeypatch, tagged):
        # 66 thetas over two denominators: two counts, and each magnitude is the theta's own
        name = "_fixed_point_counts" if tagged else "_comb_counts"
        counts, calls = getattr(erg, name), []
        monkeypatch.setattr(erg, name, lambda *args: calls.append(args[-1]) or counts(*args))
        prefix = OMEGA if tagged else untagged(OMEGA)
        thetas = [Fraction(k, 128) for k in range(1, 128, 2)] + [Fraction(1, 3), Fraction(2, 3)]
        samples = erg.spectral_scan(prefix, thetas, "a", 1 << 16)
        assert sorted(calls) == [3, 128]
        alone = [erg.spectral_scan(prefix, [t], "a", 1 << 16)[0].magnitude for t in thetas]
        assert [s.magnitude for s in samples] == alone

    def test_work_over_the_budget_is_refused(self, monkeypatch):
        # the window once, then q * ceil(window / 2048) for a comb theta and the window plus
        # min(q, occurrences) for one whose starts are read
        window, comb_max = 5000, erg._COMB_MAX
        word = decode_codes(OMEGA.codes[1000:1100])
        occurrences = erg.cylinder_frequency(OMEGA, word, window).count
        assert 0 < occurrences < comb_max
        thetas = [Fraction(1, 2), Fraction(3, 2), Fraction(1, comb_max), Fraction(1, comb_max + 1),
                  Fraction(1, 10**9), Fraction(1, 2)]
        work = window + (2 + 2 + comb_max) * 3 + (window + occurrences) + (window + occurrences)
        monkeypatch.setattr(erg, "_SPECTRAL_BUDGET", work)
        assert len(erg.spectral_scan(OMEGA, thetas, word, window)) == len(thetas)
        monkeypatch.setattr(erg, "_SPECTRAL_BUDGET", work - 1)
        with pytest.raises(errors.ResourceLimitError, match=f"5 distinct thetas over window {window} takes {work} terms,"
                                                            f" over the budget of {work - 1}$"):
            erg.spectral_scan(OMEGA, thetas, word, window)

    def test_a_theta_past_the_window_counts_on_the_starts_text(self):
        # for q > window no residue class holds two starts, so the starts' text, a byte per start, is the
        # counts: a list of min(q, window) counts would add 8 bytes per start
        window = 1 << 20
        prefix = untagged(grigorchuk_prefix(window))
        erg.spectral_scan(prefix, [0], "d", window)  # the bitsets and first-call imports stay out of the trace
        tracemalloc.start()
        try:
            sample = erg.spectral_scan(prefix, [Fraction(1, window + 1)], "d", window)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < sample.magnitude < 1e-6
        assert peak <= 4 * window, peak

    def test_magnitude_bounded(self):
        samples = erg.spectral_scan(OMEGA, [Fraction(1, 3), Fraction(3, 8)], "ca", 1 << 12)
        for s in samples:
            assert 0.0 <= s.magnitude <= 1.0


def outcome(call):
    """What ``call()`` returns, or the type and message of the InvalidInputError it raises."""
    try:
        return call()
    except errors.InvalidInputError as exc:
        return type(exc), str(exc)


class TestTheWordPath:
    """A word's text is read into its letter sets in one step, with the results and errors of its codes."""

    TAGGED = grigorchuk_prefix(1 << 13)
    # the words' error messages, as the codes of 'abcd' give them
    OUTSIDE = {
        "x": "letters ['x'] not in alphabet 'abcd'",
        "\u00e9": "letters ['\u00e9'] not in alphabet 'abcd'",
        "\t": "letters ['\\t'] not in alphabet 'abcd'",
        "\x00": "letters ['\\x00'] not in alphabet 'abcd'",
        "\udcff": "letters ['\\udcff'] not in alphabet 'abcd'",
        "acx": "letters ['x'] not in alphabet 'abcd'",
    }

    def test_each_byte_reads_as_its_code_does(self):
        for word in [chr(byte) for byte in range(256)] + ["ac" + chr(byte) + "a" for byte in range(256)]:
            expected = outcome(lambda: letter_sets(encode_letters(word)))
            assert outcome(lambda: word_sets(word)) == expected, repr(word)

    @pytest.mark.parametrize("tagged", [True, False], ids=["fixed_point", "letters"])
    def test_every_question_raises_the_same_error(self, tagged):
        prefix = self.TAGGED if tagged else untagged(self.TAGGED)
        questions = {
            "measure": erg.invariant_measure_cylinder,
            "class": lambda word: class_measure(word, 0, 0),
            "frequency": lambda word: erg.cylinder_frequency(prefix, word, 64),
            "spectrum": lambda word: erg.spectral_scan(prefix, [Fraction(1, 3)], word, 64),
        }
        empty = {"class": "need a nonempty word and j >= 0, got '' and 0"}
        for name, ask in questions.items():
            for word, message in self.OUTSIDE.items():
                assert outcome(lambda: ask(word)) == (errors.InvalidInputError, message), (name, word)
            message = empty.get(name, "cylinder word must be nonempty")
            assert outcome(lambda: ask("")) == (errors.InvalidInputError, message), name

    @pytest.mark.parametrize("tagged", [True, False], ids=["fixed_point", "letters"])
    def test_the_window_is_checked_before_the_letters(self, tagged):
        prefix = self.TAGGED if tagged else untagged(self.TAGGED)
        for count in (erg.cylinder_frequency, lambda *args: erg.spectral_scan(prefix, [0], *args[1:])):
            with pytest.raises(errors.InvalidInputError, match="^window must be positive, got 0$"):
                count(prefix, "x", 0)
            with pytest.raises(errors.InsufficientDataError) as exc:
                count(prefix, "ax", 1 << 13)
            assert exc.value.required_length == (1 << 13) + 1

    def test_tagged_counts_equal_the_bitsets(self):
        # 2,000 factors of 1 to 40 letters and a one-letter mutation of each, at windows 2^k and 2^k + 1,
        # from a few starts of the fixed point, shifts of its head and windows across 2^40 and 2^63: the
        # desubstitution and the bitset kernel count alike
        rng = random.Random(27)
        text = self.TAGGED.text
        near = [(self.TAGGED.shifted(s), self.TAGGED.shifted(s)) for s in (0, 1, 2, 3, 5, 1000, 4097, 6000)]
        far = [(FixedPointWindow(s, 1 << 13), FixedPointWindow(s, 1 << 13))
               for s in ((1 << 40) - 4096, (1 << 40) + 1, (1 << 63) - 4096, (1 << 63) + 7)]
        pairs = [(tagged, untagged(twin)) for tagged, twin in near + far]
        for tagged, letters in pairs:
            # the two kinds answer alike: the window from its start and length, the read letters from codes
            assert len(tagged) == len(letters)
            for position in (1, 2, 3, 100, 2048, min(4096, len(tagged)), len(tagged)):
                assert tagged.at(position) == letters.at(position), (tagged, position)
            assert tagged.shifted(11).text == letters.shifted(11).text
            assert tagged.left_extensions == letters.left_extensions
        for _ in range(2000):
            length = rng.randint(1, 40)
            i = rng.randrange(len(text) - length)
            factor = text[i : i + length]
            j = rng.randrange(length)
            mutant = factor[:j] + rng.choice("abcd".replace(factor[j], "")) + factor[j + 1 :]
            tagged, letters = rng.choice(pairs)
            k = rng.randrange((len(tagged) - 41).bit_length())
            for word in (factor, mutant):
                for window in (1 << k, (1 << k) + 1):
                    expected = erg.cylinder_frequency(letters, word, window)
                    assert erg.cylinder_frequency(tagged, word, window) == expected, (word, window)


def raised(call):
    """The type, message and required length of what ``call()`` raises."""
    with pytest.raises(errors.OdoshiftError) as exc:
        call()
    return type(exc.value), str(exc.value), getattr(exc.value, "required_length", None)


class TestTheAnswerCaches:
    """A kept measure or frequency is served only after every check has passed, and only where it is kept."""

    TAGGED = grigorchuk_prefix(1 << 13)
    CACHES = language._word_measure, erg._fixed_point_frequency

    def test_a_kept_count_does_not_spare_a_shorter_prefix_its_check(self):
        word, window = OMEGA_TEXT[1000:1014], 1 << 20
        short = grigorchuk_prefix(window)
        cold = raised(lambda: erg.cylinder_frequency(short, word, window))
        assert cold[0] is errors.InsufficientDataError and cold[2] == window + 13
        kept = erg.cylinder_frequency(grigorchuk_prefix(window + 13), word, window)
        assert erg._fixed_point_frequency.cache_info().currsize == 1 and kept.count > 0
        assert raised(lambda: erg.cylinder_frequency(short, word, window)) == cold
        assert raised(lambda: erg.cylinder_frequency(untagged(short), word, window)) == cold

    @pytest.mark.parametrize("word, window", [("", 64), ("ac", 0), ("ac", -3), ("acx", 64), ("\udcff", 64)])
    def test_a_refused_question_is_refused_alike_again_and_not_kept(self, word, window):
        # with one answer in each cache, a question the checks refuse raises on its second ask what it raised
        # on its first, and what the letters raise, and adds no answer
        erg.cylinder_frequency(self.TAGGED, "acab", 64)
        erg.invariant_measure_cylinder("acab")
        frequency = raised(lambda: erg.cylinder_frequency(self.TAGGED, word, window))
        assert frequency[0] is errors.InvalidInputError
        assert raised(lambda: erg.cylinder_frequency(self.TAGGED, word, window)) == frequency
        assert raised(lambda: erg.cylinder_frequency(untagged(self.TAGGED), word, window)) == frequency
        if window == 64:
            measure = raised(lambda: erg.invariant_measure_cylinder(word))
            assert measure[0] is errors.InvalidInputError
            assert raised(lambda: erg.invariant_measure_cylinder(word)) == measure
        assert [cache.cache_info().currsize for cache in self.CACHES] == [1, 1]

    def test_a_long_word_and_a_far_window_go_past_the_caches(self):
        # 64 letters and s + window = 2^64 - 1 are kept; 65 letters and s + window = 2^64 are not, and get the
        # answer of the uncached steps
        text = self.TAGGED.text
        for n, kept in ((64, 1), (65, 0)):
            word = text[100 : 100 + n]
            measure, count = erg.invariant_measure_cylinder(word), erg.cylinder_frequency(self.TAGGED, word, 4096)
            assert measure == class_measure(word, 0, 0) > 0
            assert count.count == erg._count_starts(self.TAGGED, word, 4096)[0] > 0
            assert [cache.cache_info().currsize for cache in self.CACHES] == [kept, kept]
            for cache in self.CACHES:
                cache.cache_clear()
        for start, kept in ((1 << 64) - 65, 1), ((1 << 64) - 64, 0):
            prefix = FixedPointWindow(start, 80)
            letters = "".join(grigorchuk_letter(start + i) for i in range(1, 80))
            for word in ("a", "ac", "cab", "dac"):
                expected = sum(letters.startswith(word, i) for i in range(64))
                assert erg.cylinder_frequency(prefix, word, 64).count == expected, (start, word)
            assert erg._fixed_point_frequency.cache_info().currsize == 4 * kept
            erg._fixed_point_frequency.cache_clear()

    def test_a_spectrum_keeps_no_frequency(self):
        erg.spectral_scan(self.TAGGED, [Fraction(1, 3)], "ac", 64)
        assert erg._fixed_point_frequency.cache_info().currsize == 0
