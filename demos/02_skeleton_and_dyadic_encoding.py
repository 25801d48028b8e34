"""The period skeleton and the factor map onto the 2-adic odometer.

At each level k exactly one residue class mod 2^k is not filled by a
periodic letter; those classes nest, and 2^k minus the class index gives
the first k binary digits of a point in the dyadic integers.  Shifting the
sequence adds one 2-adically.
Run: python3 demos/02_skeleton_and_dyadic_encoding.py
"""

from odoshift import classify_fiber, encode_fG, period_skeleton, verify_equivariance
from odoshift.substitution import grigorchuk_prefix

omega = grigorchuk_prefix(1 << 14)

skel = period_skeleton(omega, K=8)
print("level  M_k  fill letter")
for k, (m, l) in enumerate(zip(skel.levels, skel.letters), start=1):
    print(f"{k:5d}  {m:3d}  {l}")
print("classification:", skel.classification)

print("\nencoding of the fixed point:", encode_fG(omega, 8).value.to_text(), "(zero)")
for n in (1, 5, 100):
    bits = encode_fG(omega.shifted(n), 8).value.to_text()
    print(f"encoding after {n:3d} shifts:  {bits}  (= {n} in binary, LSB first)")

# the encoding of shift n is n mod 2^10, so each shift adds one
values = verify_equivariance(omega, k=10, shifts=2000)
print("\nshift acts as +1 on encodings:", values == tuple(n % 1024 for n in range(2001)))

# the fixed point is the one point with three shift preimages
fiber = classify_fiber(omega, K=10)
print("fiber of the fixed point:", fiber.classification,
      "| preimage letters:", "".join(sorted(fiber.sigma_preimage_letters)))
fiber1 = classify_fiber(omega.shifted(1), K=10)
print("fiber after one shift:   ", fiber1.classification,
      "| preimage letters:", "".join(sorted(fiber1.sigma_preimage_letters)))
