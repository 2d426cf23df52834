# Odd characters of maps into the orthogonal group.
#
# The characters are linear combinations of odd trace generators T_{2k+1};
# the coefficient functions come from the log derivatives of the even theta
# kinds, a curvature substitution, and an exact u-integration. Their
# transformation behavior has a genuine quasi-modular subtlety at degree 3,
# which this demo makes visible.

from ellrig import (
    OddMapData, TauPoint, odd_ch_Q, odd_transform_residual, u_moment,
)

tau = TauPoint(1j)
om = OddMapData(N=8)


def show(ch):
    """An odd character {T_w: coefficient} as the sum c*T_w."""
    def number(c):
        return "%g" % c.real if c.imag == 0 else "(%g%+gj)" % (c.real, c.imag)
    return " + ".join("%s*%s" % (number(c), name) for name, c in ch.items()) or "0"


print("exact u-moments:", [str(u_moment(k)) for k in range(4)])

for j in (1, 2, 3):
    ch = odd_ch_Q(j, om, tau, cap=7)
    print("ladder %d:" % j, show(ch))

# The T-action pairs the two half-integer ladders coefficientwise.
shifted = odd_ch_Q(2, om, TauPoint(tau.value + 1.0), cap=7)
partner = odd_ch_Q(3, om, tau, cap=7)
print("\nT-action pairing defect:",
      max(abs(shifted.get(n, 0) - partner.get(n, 0)) for n in shifted.keys() | partner.keys()))

# S-action relations. The degree-7 components transform cleanly:
for pair in ((1, 2), (2, 1), (3, 3)):
    res = odd_transform_residual(pair, 2, tau, om, cap=7)
    print("degree-7 relation %s -> %s residual %.2e" % (pair[0], pair[1], res))

# The degree-3 components do not: the linear coefficient of each log
# derivative is quasi-modular, so the relation fails by a fixed amount
# unless the degree-3 trace class is declared zero (the hypothesis under
# which the relations are stated).
live = odd_transform_residual((3, 3), 1, tau, om, cap=3)
print("\ndegree-3 defect with the class alive:   %.6e" % live)
om_zero = OddMapData(N=8, c3_vanishes=True)
gone = odd_transform_residual((3, 3), 1, tau, om_zero, cap=3)
print("degree-3 residual with the class zeroed: %.6e" % gone)
