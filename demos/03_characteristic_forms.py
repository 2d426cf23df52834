# Characteristic forms over formal Chern roots: power-operation characters,
# and the twisted-ladder characters with their independent tensor-expansion
# oracle.

from ellrig import (
    FormalBundle, Generators, TwistFactor, ch_power_op, ch_theta_twist,
    ch_twist_oracle,
)

# One +-pair of roots named y; the cap bounds the form degree.
gens = Generators(("y",))
pair = FormalBundle(("y",))

# Exterior and symmetric powers are inverse to each other at opposite
# parameters; the quotient semantics implements reduced (rank-zero) bundles.
t = 0.37 + 0.21j
sym = ch_power_op(pair, "sym", t, gens, 4)
lam = ch_power_op(pair, "lambda", -t, gens, 4)
print("S_t * Lambda_{-t} =", sym * lam)

# A rank-4 real bundle with two root pairs and rotations (1, -1).
gz = Generators(("z1", "z2"))
V = FormalBundle(("z1", "z2"), (1, -1))

# The same character two ways: as a theta quotient, and by literally
# expanding the tensor ladder of exterior powers order by order in q.
quotient = ch_theta_twist(TwistFactor.Q3V, V, 0.1, gens=gz, cap=2, q_order=3)
oracle = ch_twist_oracle(TwistFactor.Q3V, V, 0.1, 3, gz, 2)

print("\nhalf-integer exterior ladder of V, theta route vs direct expansion:")
for e in sorted(set(quotient.support()) | set(oracle.support())):
    if e >= min(quotient.order, oracle.order):
        continue
    diff = quotient.coeff(e) - oracle.coeff(e)
    mag = diff.max_abs_coeff() if hasattr(diff, "max_abs_coeff") else abs(diff)
    print("   q^(%-4s) agreement defect %.2e" % (e, mag))

# The leading coefficient of each ladder is the rank scalar: 1 for the
# plain ladders, 2^l for the spinor-twisted one.
spin = ch_theta_twist(TwistFactor.Q1V, V, 0.0, gens=gz, cap=2, q_order=1)
print("\nspinor-twisted ladder at q^0:", spin.coeff(0))
