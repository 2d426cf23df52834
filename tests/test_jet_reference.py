"""One Fourier pass per lattice gives every theta coefficient the bits of a
pass per kind (tests/jet_reference.py), and overflows where it does.

``repr`` tells every bit of a complex coefficient, the sign of a zero part
included.  The centres cover generic, real and imaginary points, every
signed zero (centre +0 is staged on tau, per lattice) and the edge where
sin and cos of the terms overflow; tau covers pure imaginary points, whose
weights have zero parts, and S images, whose small Im(tau) asks for many
terms.  Several orders on one TauPoint reach the jets-at-0 entries staged
at the highest order asked so far.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ellrig.errors import CapacityError
from ellrig.theta import THETA_KINDS, TauPoint, theta_jets
from jet_reference import reference_jets

T, T1, T2, T3 = THETA_KINDS
KIND_SETS = [(kind,) for kind in THETA_KINDS] + [
    (T, T1), (T1, T), (T2, T3), (T3, T2), THETA_KINDS, (T3, T, T2, T1)]
SIGNED_ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]


def outcome(compute):
    try:
        return repr(compute())
    except CapacityError as exc:
        return "CapacityError: %s" % exc


@st.composite
def taus(draw):
    re = draw(st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-0.5, 0.5)))
    value = complex(re, draw(st.floats(0.4, 3.0)))
    if draw(st.booleans()):
        value = -1 / value
    return value


def overflow_edge(kinds, re, tau, order):
    """The Im c, to a few ulps, above which the reference overflows at
    centres re + i Im c."""
    lo, hi = 0.0, 200.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if outcome(lambda: reference_jets(kinds, complex(re, mid), tau, order)).startswith(
                "CapacityError"):
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def centres(draw, kinds, tau, order):
    shape = draw(st.sampled_from(("generic", "real", "imaginary", "zero", "edge")))
    x = draw(st.floats(-3, 3))
    y = draw(st.floats(-3, 3))
    zero = draw(st.sampled_from((0.0, -0.0)))
    if shape == "generic":
        return complex(x, y)
    if shape == "real":
        return complex(x, zero)
    if shape == "imaginary":
        return complex(zero, y)
    if shape == "zero":
        return draw(st.sampled_from(SIGNED_ZEROS))
    edge = overflow_edge(kinds, x, TauPoint(tau, tau.imag), order)
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        edge = math.nextafter(edge, math.copysign(math.inf, steps))
    return complex(x, draw(st.sampled_from((1.0, -1.0))) * edge)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), tau=taus(), kinds=st.sampled_from(KIND_SETS),
       orders=st.lists(st.integers(0, 8), min_size=1, max_size=3))
def test_lattice_pass_matches_the_per_kind_loop(data, tau, kinds, orders):
    point = TauPoint(tau, tau.imag)
    for order in orders:
        c = data.draw(centres(kinds, tau, order))
        for ask in (kinds, kinds[::-1]):
            assert outcome(lambda: theta_jets(ask, c, point, order)) == outcome(
                lambda: reference_jets(ask, c, TauPoint(tau, tau.imag), order))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tau=taus(), orders=st.lists(st.integers(0, 8), min_size=2, max_size=6))
def test_jets_at_zero_keep_their_bits_whatever_order_came_first(tau, orders):
    # the entry at order >= 1 is replaced by a longer one; a prefix of it
    # must read as a fresh pass at the lower order
    point = TauPoint(tau, tau.imag)
    for order in orders:
        for kind in THETA_KINDS:
            assert repr(theta_jets((kind,), 0.0, point, order)) == repr(
                reference_jets((kind,), 0j, TauPoint(tau, tau.imag), order))
    assert {key for key in point._stage if key[0] == "jet0"} <= {
        ("jet0", lattice, above) for lattice in (0.5, 0.0) for above in (False, True)}
