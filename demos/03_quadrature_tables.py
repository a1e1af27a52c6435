"""Quadrature rules from perturbed zeros, and the bundled reference tables.

The worked example has density 1/(pi(x^2+1)) on the real line; its n-point
rule has nodes cot(j pi/(n+1)) and uniform weights 1/(n+1).  Perturbing the
recurrence moves nodes and weights, and the estimate I*_n drifts away from
the unperturbed I_n in a controlled way.
"""

from fractions import Fraction

from rii import (BUILTINS, Perturbation, build_rule, cauchy_scheme, estimate,
                 exactness_check, order_flip_experiment, reproduce_table)

scheme = cauchy_scheme()
f = BUILTINS["example3"].evaluator

print("== the unperturbed rule ==")
rule = build_rule(scheme, None, 5)
print("  calibrated mass factor:", rule.m0)
print("  nodes  :", " ".join("%+.6f" % x for x in rule.nodes))
print("  weights:", " ".join("%.6f" % w for w in rule.weights))

print()
print("== exactness through degree 2n-1 ==")
for n in (4, 6, 8):
    worst = exactness_check(scheme, n, 2 * n - 1)
    control = exactness_check(scheme, n, 2 * n)
    print("  n=%d: worst over m<=%d: %.2e   (m=%d control: %.2e)"
          % (n, 2 * n - 1, worst, 2 * n, control))

print()
print("== perturbation sweep: I*_15 vs I_15 ==")
plain = estimate(build_rule(scheme, None, 15), f)
print("  I_15 = %.10f" % plain)
for mu in ("0.1", "0.01", "0.001"):
    pert = Perturbation.corec(0, Fraction(mu))
    star = estimate(build_rule(scheme, pert, 15), f)
    print("  mu_0=%-5s: I*_15 = %.10f   |I*-I| = %.2e"
          % (mu, star, abs(star - plain)))

print()
print("== bundled reference tables ==")
for tid in ("t1", "t2", "t3", "t4", "t5", "t6"):
    rep = reproduce_table(tid)
    print("  %s: %2d rows, max |computed - reference| = %.2e"
          % (tid, len(rep.rows), rep.max_deviation))

print()
print("== order of perturbation levels ==")
# Each (k, mu, kp, nu) pair is evaluated next to its level-swapped twin;
# the report closes with the both-at-median estimate and how far the
# family average lands from it.
rep = order_flip_experiment(scheme, [(3, Fraction("0.01"), 7, Fraction("1.004")),
                                     (4, Fraction("0.01"), 6, Fraction("1.004"))],
                            10)
for row in rep.rows:
    print("  mu at k=%d, nu at kp=%d: I* = %.10f   |I* - E| = %.2e"
          % (row["k"], row["kp"], row["I_star"], row["dev"]))
print("  both at median level %d: I* = %.10f, family average off by %.2e"
      % (rep.median_level, rep.median_row["I_star"], rep.average_gap))
