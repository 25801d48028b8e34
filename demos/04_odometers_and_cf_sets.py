"""The odometer of the Grigorchuk subshift, and the invariant measure over it.

The essential periods of the fixed point below a horizon 2^H are the
powers of two up to 2^H, so their lcm is 2^H.  The CF set of a Toeplitz
flow with finitely many periods is the divisors of their lcm, here the
powers of two up to 2^H: the CF set of the binary odometer 2^inf, the
maximal equicontinuous factor, cut at the horizon.  The factor map f onto
it pushes the invariant measure mu to Haar measure: rho_j(l, r) =
mu([l] and f = r mod 2^j) sums to 2^-j over the letters l and to mu[l]
over the classes r.
Run: python3 demos/04_odometers_and_cf_sets.py
"""

import math

from odoshift import class_measure, essential_periods, grigorchuk_prefix

omega = grigorchuk_prefix(1 << 12)
print("horizon  essential periods         CF set  factor of 2^inf")
for H in (1, 2, 4, 6):
    periods = essential_periods(omega, 1 << H).periods
    lcm = math.lcm(1, *periods)  # the CF set is its divisors
    power_of_two = lcm & (lcm - 1) == 0
    cf = f"2^{lcm.bit_length() - 1}" if power_of_two else str(lcm)
    print(f"2^{H:<5}  {str(periods):24s}  {cf:6s}  {power_of_two}")

j = 2
print(f"\nrho_{j}(l, r) = mu([l] and f = r mod 2^{j})")
print("r    " + "".join(f"{letter:8s}" for letter in "abcd") + "sum")
rows = [[class_measure(letter, j, r) for letter in "abcd"] for r in range(1 << j)]
for r, row in enumerate(rows):
    print(f"{r:<5}" + "".join(f"{str(rho):8s}" for rho in row) + str(sum(row)))
print(("sum  " + "".join(f"{str(sum(column)):8s}" for column in zip(*rows))).rstrip())

# the letters after shift s have all their mass in the class of f = s mod 2^j
s = 13
word = omega.text[s : s + 8]
print(f"\nshift {s}: {word}, mu = {class_measure(word, 0, 0)},",
      "by class:", [str(class_measure(word, j, r)) for r in range(1 << j)])
