"""The theta Fourier sums as they were before one pass served a lattice:
each kind sums its own weight table, signed by (-1)^n where the kind
alternates, and runs its own weight chain w omega^k/k!; at order 0 it makes
only the sin or cos it reads.  Kept as the reference ``theta._jet_sum``
(order >= 1) and the order-0 kernel ``theta._theta_values`` must match bit
for bit, overflow included.
"""

import cmath
import math

from ellrig.errors import CapacityError
from ellrig.theta import _series_terms


def _weights(kind, tau, n_terms):
    table = []
    for n in range(n_terms):
        mu = kind.a + n
        weight = cmath.exp(1j * cmath.pi * tau.value * mu * mu) * (2.0 if mu else 1.0)
        if kind.alternating and n & 1:
            weight = -weight
        table.append((weight, 2 * math.pi * mu))
    return table


def reference_jet_sum(kinds, c, tau, order):
    """(a_0, ..., a_order) at the complex centre c of kinds of one lattice,
    one tuple per kind, at a TauPoint."""
    n_terms = _series_terms(kinds[0], tau, c.imag, order)
    try:
        if order == 0:
            values = []
            for kind in kinds:
                f = cmath.sin if kind.odd else cmath.cos
                value = 0j
                for weight, omega in _weights(kind, tau, n_terms):
                    value += weight * f(omega * c)
                values.append((value,))
            return tuple(values)
        waves = [(cmath.sin(omega * c), cmath.cos(omega * c))
                 for _, omega in _weights(kinds[0], tau, n_terms)]
    except OverflowError:
        raise CapacityError("the theta series at the centre v = %s overflows at tau = %s; "
                            "|Im v| is too large" % (c, tau.value)) from None
    sums = []
    for kind in kinds:
        sine = kind.odd
        coeffs = [0j] * (order + 1)
        for (weight, omega), (s, co) in zip(_weights(kind, tau, n_terms), waves):
            cycle = (s, co, -s, -co) if sine else (co, -s, -co, s)
            for k in range(order + 1):
                coeffs[k] += weight * cycle[k & 3]
                weight *= omega / (k + 1)
        sums.append(tuple(coeffs))
    return tuple(sums)


def reference_jets(kinds, c, tau, order):
    """``theta_jets`` by the reference: one :func:`reference_jet_sum` per
    lattice, in the order ``theta_jets`` groups the kinds."""
    jets = {}
    for group in ([kind for kind in kinds if kind.a], [kind for kind in kinds if not kind.a]):
        if group:
            jets.update(zip(group, reference_jet_sum(tuple(group), c, tau, order)))
    return tuple([jets[kind] for kind in kinds])
