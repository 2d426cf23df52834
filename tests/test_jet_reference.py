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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellrig.errors import CapacityError
from ellrig.theta import THETA_KINDS, TauPoint, _theta_values, _values, theta_jets
from jet_reference import reference_jet_sum, reference_jets

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
    # one order-0 entry for the four kinds, and per lattice one entry of
    # order >= 1 and one weight table; no key holds an order
    assert set(point._stage) <= {"values0"} | {
        (name, lattice) for name in ("jet0", "weights") for lattice in (0.5, 0.0)}


# the order-0 kernel: theta, theta1, theta2, theta3 at a plain centre, one
# loop per lattice; every order-0 value is read from it, so theta_eval and
# theta_values no longer give it an independent check
LATTICES = ((T, T1), (T2, T3))


def kernel_values(compute, kinds, c, point, **lattices):
    """``compute(c, point, **lattices)`` read as reference_jet_sum gives
    the kinds: one 1-tuple per kind."""
    values = compute(c, point, **lattices)
    return tuple([(values[kind.index],) for kind in kinds])


def assert_kernel_matches(c, tau, lattice):
    half = lattice[0].a != 0
    point = TauPoint(tau, tau.imag)
    want = outcome(lambda: reference_jet_sum(lattice, c, TauPoint(tau, tau.imag), 0))
    # _values twice: at c = +0 the second call reads the entry staged on tau
    for compute in (_theta_values, _values, _values):
        assert outcome(lambda: kernel_values(compute, lattice, c, point, half=half,
                                             whole=not half)) == want
    # both lattices in one call: lattice 1/2 is summed, and overflows, first
    both = outcome(lambda: reference_jets(THETA_KINDS, c, TauPoint(tau, tau.imag), 0))
    for compute in (_theta_values, _values):
        assert outcome(lambda: kernel_values(compute, THETA_KINDS, c, point)) == both


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), tau=taus(), lattice=st.sampled_from(LATTICES))
def test_order_zero_kernel_matches_the_per_kind_loop(data, tau, lattice):
    assert_kernel_matches(data.draw(centres(lattice, tau, 0)), tau, lattice)


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("tau", (1j, complex(-0.0, 1.0), 0.3 + 0.8j, -1 / (0.2 + 0.9j)))
@pytest.mark.parametrize("c", SIGNED_ZEROS + [0.3 + 300j, complex(-0.0, -250.0), 0.1 - 1e5j])
def test_order_zero_kernel_at_signed_zeros_and_far_centres(c, tau, lattice):
    assert_kernel_matches(c, tau, lattice)
    if abs(c.imag) > 100:
        assert outcome(lambda: _theta_values(c, TauPoint(tau))).startswith(
            "CapacityError: the theta series at the centre v = ")
