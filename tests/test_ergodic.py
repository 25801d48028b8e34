from fractions import Fraction

import pytest

from odoshift import ergodic as erg
from odoshift import errors
from odoshift.factormap import verify_equivariance
from odoshift.substitution import (
    GRIGORCHUK_ALPHABET,
    grigorchuk_letter,
    grigorchuk_prefix,
    parse_prefix,
)

OMEGA = grigorchuk_prefix(1 << 18)

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


class TestUniformDistribution:
    def test_depth_one(self):
        report = erg.uniform_distribution_report(OMEGA, 1, 1 << 16)
        assert report.max_deviation <= Fraction(1, 64)
        assert {e.word for e in report.entries} == set("abcd")

    def test_shifted_orbit_same_limits(self):
        shifted = grigorchuk_prefix((1 << 16) + 8).shifted(7)
        report = erg.uniform_distribution_report(shifted, 1, 1 << 16)
        assert report.max_deviation <= Fraction(1, 64)

    def test_depth_two(self):
        report = erg.uniform_distribution_report(OMEGA, 2, 1 << 17)
        assert report.max_deviation < Fraction(1, 1000)
        for entry in report.entries:
            assert entry.exact == erg.invariant_measure_cylinder(entry.word)


class TestEigenfunction:
    """phi(shift^n x) = exp(2 pi i r_n / 2^k) is an eigenfunction iff r_(n+1) = r_n + 1 mod 2^k.

    r_n is the k-digit encoding of shift n, so the residues are the values
    of ``verify_equivariance``.
    """

    def test_residues_cycle_mod_eight(self):
        report = verify_equivariance(OMEGA, 3, 1000)
        assert report.ok
        assert report.values[:9] == (0, 1, 2, 3, 4, 5, 6, 7, 0)

    def test_parity_alternates(self):
        report = verify_equivariance(OMEGA, 1, 10)
        assert report.values == (0, 1) * 5 + (0,)

    def test_corrupted_prefix_fails(self):
        text = list(grigorchuk_prefix(4000).text)
        text[257] = "a" if text[257] != "a" else "c"
        corrupted = parse_prefix("".join(text), GRIGORCHUK_ALPHABET)
        try:
            report = verify_equivariance(corrupted, 5, 1000)
            assert not report.ok
            assert report.first_violation is not None
        except errors.NotInSubshiftError:
            pass

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

    def test_magnitude_bounded(self):
        samples = erg.spectral_scan(OMEGA, [Fraction(1, 3), Fraction(3, 8)], "ca", 1 << 12)
        for s in samples:
            assert 0.0 <= s.magnitude <= 1.0
