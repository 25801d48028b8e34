"""Unique ergodicity by exact counting, and the dyadic point spectrum.

The invariant measure of every cylinder is an exact rational; Birkhoff
averages over a long prefix converge to it from any starting shift.
Exponential sums carry mass exactly at dyadic frequencies.
Run: python3 demos/03_measure_and_spectrum.py
"""

from fractions import Fraction

from odoshift import cylinder_frequency, invariant_measure_cylinder, spectral_scan
from odoshift.substitution import grigorchuk_prefix

omega = grigorchuk_prefix(1 << 18)
window = 1 << 17

print("word   exact measure   empirical (window 2^17)")
for word in ("a", "b", "c", "d", "ac", "ca", "aa"):
    mu = invariant_measure_cylinder(word)
    freq = cylinder_frequency(omega, word, window).frequency
    print(f"{word:4s}   {str(mu):13s}   {float(freq):.6f}")

# the 2-letter words of positive measure, in sorted order: max keeps the first of equal deviations
pairs = [x + y for x in "abcd" for y in "abcd" if invariant_measure_cylinder(x + y)]
deviation = {w: abs(cylinder_frequency(omega, w, window).frequency - invariant_measure_cylinder(w))
             for w in pairs}
worst = max(pairs, key=deviation.get)
print("\nworst 2-letter deviation:", float(deviation[worst]), "at word", worst)

# frequencies are orbit-independent (unique ergodicity)
shifted = grigorchuk_prefix((1 << 17) + 8).shifted(7)
print("freq of 'a' after 7 shifts:",
      float(cylinder_frequency(shifted, "a", window).frequency))

print("\ntheta    |exponential sum|/N at N = 2^17")
for theta in (Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(1, 5)):
    mag = spectral_scan(omega, [theta], "a", window)[0].magnitude
    kind = "dyadic" if (theta.denominator & (theta.denominator - 1)) == 0 else "not dyadic"
    print(f"{str(theta):6s}  {mag:.6f}  ({kind})")
