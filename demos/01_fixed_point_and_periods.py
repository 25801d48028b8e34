"""Generate the fixed point, check the closed-form letter rule, find periods.

The substitution a -> aca, b -> d, c -> b, d -> c has a unique one-sided
fixed point starting with 'a'.  Its letters are determined by 2-adic
valuations, and its essential partial periods are exactly the powers of 2.
Run: python3 demos/01_fixed_point_and_periods.py
"""

from odoshift import (
    dyadic_valuation,
    essential_periods,
    fixed_point_prefix,
    grigorchuk_letter,
    grigorchuk_substitution,
    smallest_partial_period,
)

sub = grigorchuk_substitution()
print("rules:", dict(sub.rules))

prefix = fixed_point_prefix(sub, "a", 64)
print("first 64 letters:", prefix.text)

# the closed-form rule: letter at position m depends only on the valuation of m
print("\nposition  valuation  letter")
for m in (1, 2, 4, 8, 12, 16, 1000):
    print(f"{m:8d}  {dyadic_valuation(m):9d}  {grigorchuk_letter(m)}")

big = fixed_point_prefix(sub, "a", 1 << 18)
# the rules map the first 2^17 letters onto all 2^18: the closed form's letters are the fixed point's
assert "".join(sub.rules[x] for x in big.text[: 1 << 17]) == big.text
print("\nclosed form matches the generator on 2^18 positions")

# smallest partial period at n is 2^(valuation(n)+1)
print("\nsmallest partial periods:")
for n in (1, 4, 6, 24):
    print(f"  n={n:3d}: p = {smallest_partial_period(big, n)}")

ep = essential_periods(big, horizon=1 << 9)
print("\nessential periods up to 2^9:", ep.periods)
