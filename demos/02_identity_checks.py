"""Exact-arithmetic verification of the perturbation identities.

Three layers, all of which must vanish identically (not just numerically):

  1. structural:  P*_n minus its explicit correction expansion,
  2. transfer:    K_m F^T(mu,nu) - S F as a polynomial matrix,
  3. spectral:    the perturbed continued fraction versus the homography
                  image of the unperturbed one, at matched truncation.

Plus the corrected-vs-flawed comparison on the reduced (W = 1) bridge,
where the discrepancy of the flawed expansion is itself a closed-form
polynomial.
"""

from fractions import Fraction

from rii import (CoefficientScheme, MobiusParams, Perturbation, cauchy_scheme,
                 corrected_vs_flawed, reduce_to_oprl, run_suite, spectral_gap,
                 spectral_residual, structural_residual, transfer_residual)

scheme = cauchy_scheme()

print("== structural residuals (exact zeros) ==")
z = Fraction(9, 4)
for k, kp in ((0, 2), (1, 4), (2, 6)):
    pert = Perturbation(k=k, mu=Fraction(3, 7), kp=kp, nu=Fraction(5, 4))
    r1, r2 = structural_residual(scheme, pert, 9, z)
    print("  k=%d kp=%d at z=9/4: first kind residual %s, second kind %s"
          % (k, kp, r1, r2))

print()
print("== transfer identity, scalar probe ==")
pert = Perturbation(k=1, mu=Fraction(1, 3), kp=3, nu=Fraction(7, 5))
res = transfer_residual(scheme, pert, 6, Fraction(9, 4))
print("  K_m F^T(mu,nu) - S F at z=9/4:", res)

print()
print("== spectral chain ==")
pert = Perturbation(k=1, mu=Fraction(1, 5), kp=2, nu=Fraction(6, 5))
for z in (Fraction(5, 2), Fraction(-7, 3)):
    r = spectral_residual(scheme, pert, 8, z)
    print("  matched truncation at z=%s: residual %s" % (z, r))
print("  unmatched truncations leave a gap that dies off the real axis:")
pert = Perturbation(k=1, mu=Fraction(1, 4))
for d in (4, 10, 18):
    g = spectral_gap(scheme, pert, d, 25, 0.7 + 0.6j)
    print("    depth %2d: gap %.3e" % (d, g))

print()
print("== randomized suites (the `check` subcommand drives these) ==")
for name in ("structural", "transfer", "spectral", "oprl"):
    print(" ", run_suite(name, seed=7, instances=20).summary())

print()
print("== corrected vs flawed on the reduced bridge ==")
pinned = CoefficientScheme.general(1, 2, 1, nodes=lambda n: (0, 0))
params = MobiusParams(alpha=0, beta=-1, gamma=1, delta=0, a=0)
reduced = reduce_to_oprl(pinned, params, 8)
rep = corrected_vs_flawed(reduced, k=2, mu=Fraction(1, 2), nu=Fraction(5, 4),
                          x=Fraction(3, 2))
print("  corrected == direct recurrence:", rep.corrected == rep.direct)
print("  flawed - direct (a closed-form polynomial):", rep.discrepancy)
