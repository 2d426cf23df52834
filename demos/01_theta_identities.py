# The four theta functions and their identity suite.
#
# Everything below is double-checkable by hand: each law is evaluated twice,
# once through the frozen transformation tables and once by direct product
# evaluation, and we print the difference.

import cmath

from ellrig import (
    TauPoint, ThetaKind, jacobi_residual, shift_factor, theta_derivative,
    theta_eval, theta_prime_zero,
)
from ellrig.theta import st_transform_residuals

tau = TauPoint(0.3 + 0.8j)
v = 0.23 + 0.11j

# Values of the four kinds at a generic point.
for kind in ThetaKind:
    print("%-7s(%s, tau) = %s" % (kind, v, theta_eval(kind, v, tau)))

# The odd kind vanishes at the origin; its derivative there is the basic
# normalizing constant of the whole calculus.
print("\ntheta(0, tau)  =", theta_eval(ThetaKind.THETA, 0.0, tau))
print("theta'(0, tau) =", theta_prime_zero(tau))

# Derivative identity: theta'(0) = pi * theta1(0) theta2(0) theta3(0).
print("derivative-identity residual:", jacobi_residual(tau))

# Quasi-periodicity. Stepping v by 1 flips signs for the integer-ladder
# kinds; stepping by tau costs an exponential factor. shift_factor composes
# the one-step laws for any lattice vector a + b*tau.
for kind in ThetaKind:
    mu = shift_factor(kind, v, tau, 0, 1)
    direct = theta_eval(kind, v + tau.value, tau) / theta_eval(kind, v, tau)
    print("%-7s v+tau multiplier %s   (defect %.2e)" % (kind, mu, abs(mu - direct)))

# Modular transformations. S swaps the first two kinds and fixes the other
# two; T swaps the half-integer ladder kinds. Residuals are the absolute
# difference of the two sides of each law.
print()
s_law = st_transform_residuals(v, tau, "S")
t_law = st_transform_residuals(v, tau, "T")
for kind in ThetaKind:
    print("%-7s S-law residual %.2e   T-law residual %.2e" % (kind, s_law[kind], t_law[kind]))

# Derivatives come from nilpotent-jet evaluation, not finite differences;
# compare against a central difference as a sanity check.
h = 1e-5
fd = (theta_eval(ThetaKind.THETA, h, tau) - theta_eval(ThetaKind.THETA, -h, tau)) / (2 * h)
print("\njet derivative  :", theta_derivative(ThetaKind.THETA, 1, 0.0, tau))
print("central diff    :", fd)
