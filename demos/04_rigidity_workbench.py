# The fixed-point workbench end to end: evaluate the equivariant index
# function over fixed-point data and verify its structural laws.
#
# The star of this demo is the two-chart model of the rotation action on
# the 4-sphere: both poles are isolated fixed points, and in orientation-
# compatible charts their rotation numbers are (1, 1) and (1, -1). The two
# localized contributions cancel identically, so the function is constant
# (and zero) in the rotation parameter: the rigidity phenomenon at desk
# scale. The same document ships as demos/data/four_sphere.json for the
# command-line interface.

from ellrig import (
    FixedComponentData, FixedPointData, TauPoint, TwistFactor, TwistSpec,
    anomaly_condition_check, lefschetz_eval, modular_residual,
    periodicity_residual, pole_scan, rigidity_sweep,
    translation_anomaly_check,
)

tau = TauPoint(0.13 + 0.9j)
PHI0 = TwistSpec((TwistFactor.PHI0,))
PHI = TwistSpec((TwistFactor.PHI,))

north = FixedComponentData("north", normal=(("x1", 1), ("x2", 1)),
                           intersection={"1": "1"}, cap=0)
south = FixedComponentData("south", normal=(("x3", 1), ("x4", -1)),
                           intersection={"1": "1"}, cap=0)
sphere = FixedPointData((north, south), k=1)

grid = [0.03 * k + (0.11 + 0.02 * k) * 1j for k in range(10)]
sweep = rigidity_sweep(sphere, PHI0, tau, grid)
print("4-sphere model: mean %s, max deviation %.2e over %d points"
      % (sweep.mean, sweep.max_deviation, len(grid)))

# One chart alone is nowhere near constant; rigidity is a cancellation.
north_only = FixedPointData((north,), k=1)
alone = rigidity_sweep(north_only, PHI0, tau, grid[:5])
print("north chart alone:   max deviation %.2e" % alone.max_deviation)

# A single point with no rotations counts the three elliptic summands.
point = FixedPointData(
    (FixedComponentData("pt", intersection={"1": "1"}, cap=0),), k=1)
print("\nbare point value:", lefschetz_eval(point, PHI0, 0.07 + 0.19j, tau))

# Translation laws. Stepping t by an even integer is free; stepping by an
# even multiple of tau costs the anomaly factor, which the engine assembles
# independently from the one-step theta shift laws.
doc = FixedPointData(
    (FixedComponentData("rot", normal=(("x5", 1),), v_fibers=(("z1", 1),),
                        intersection={"1": "1"}, cap=0),), k=1)
twist = TwistSpec((TwistFactor.PHI0, TwistFactor.Q2V))
t0, tau_a = 0.11 + 0.02j, TauPoint(0.45j)
print("\nt+2 periodicity residual:",
      periodicity_residual(doc, twist, t0, tau_a, 2))
check = translation_anomaly_check(doc, twist, t0, tau_a, 2)
print("L(t + 2 tau)          :", check.shifted)
print("anomaly factor * L(t) :", check.expected,
      "  (relative defect %.2e)" % check.relative_residual)

conditions = anomaly_condition_check(doc, "p1V=0")
print("vanishing conditions pass:", conditions.passed,
      " per component:", conditions.per_component)

# Modular weights on the sphere model (fiber-free, so unconditional).
for g in ("T", "S"):
    check = modular_residual(sphere, PHI, 0.07 + 0.19j, tau, g)
    print("modular %s residual %.2e (weight %d)" % (g, check.residual, check.weight))

# Poles sit on lattice lines of the rotation parameter, t = (k/l)(c tau + d):
# each candidate is found by lattice membership, not by a magnitude threshold.
half = FixedPointData(
    (FixedComponentData("m2", normal=(("w1", 2),), intersection={"1": "1"},
                        cap=0),), k=1)
hits = pole_scan(half, PHI0, tau, range(0, 2), range(0, 3), 2)
print("\ndetected singular parameters:",
      sorted({(h.k, h.l, h.c, h.d) for h in hits}))
