"""Odometers, supernatural numbers, and factor/conjugacy decisions.

The orders of cyclic permutation factors of an odometer form a divisor-
and lcm-closed set, i.e. the divisor set of a supernatural number.  Two
odometers are continuously conjugate exactly when these sets agree, and
one factors through the other exactly on containment.
Run: python3 demos/04_odometers_and_cf_sets.py
"""

from odoshift import (
    BINARY_ODOMETER,
    CFSet,
    INFINITY,
    OdometerSpec,
    OdometerState,
    PowerFamily,
    cf_closure,
    cf_equal,
    cf_of_odometer,
    cf_subset,
    odometer_from_cf,
    odometer_step,
)
from odoshift.odometer import cf_to_text, odometer_orbit, spec_to_text

spec = OdometerSpec(bases=(2, 3))
state = OdometerState((0, 0))
print("orbit of the Z_2 x Z_3 odometer:")
for s in odometer_orbit(spec, state, 6):
    print(" ", s.digits)
print("(period 6, then the carry wraps)")

print("\nstep from the top state (the carry past the truncation is dropped):",
      odometer_step(OdometerState((1, 2)), spec).digits)

binary = cf_of_odometer(BINARY_ODOMETER)
print("\nCF of the binary odometer:", cf_to_text(binary))
print("CF of the Z_6 rotation:   ", cf_to_text(cf_of_odometer(OdometerSpec(bases=(6,)))))
print("CF of 2,3,2,3,...:        ", cf_to_text(cf_of_odometer(OdometerSpec(repeat=(2, 3)))))

powers_of_two = cf_closure([PowerFamily(2)])
print("\nclosure of {2^k : k >= 1} =", cf_to_text(powers_of_two))
print("equals CF(binary odometer):", cf_equal(powers_of_two, binary))

# factor ordering is containment of CF sets
six = cf_of_odometer(OdometerSpec(bases=(6,)))
print("Z_6 factors through 2,3,2,3,...:",
      cf_subset(six, cf_of_odometer(OdometerSpec(repeat=(2, 3)))))
print("Z_6 factors through binary:     ", cf_subset(six, binary))

rebuilt = odometer_from_cf(CFSet({2: INFINITY, 3: 2}))
print("\nodometer realizing 2^inf*3^2:", spec_to_text(rebuilt))
print("round trip:", cf_to_text(cf_of_odometer(rebuilt)))
