from unittest import mock

import numpy as np
import pytest

from ellrig.twist import TwistFactor, TwistSpec
from ellrig.lefschetz import FixedComponentData, FixedPointData


def poly_close(a, b, tol=1e-12):
    """Max absolute coefficient difference between two ring values."""
    diff = a - b
    if hasattr(diff, "max_abs_coeff"):
        return diff.max_abs_coeff() <= tol
    return abs(diff) <= tol


def count_products(cls, compute):
    """compute() and the number of cls.__mul__ calls it made."""
    calls = []
    original = cls.__mul__

    def counting(a, b):
        calls.append(None)
        return original(a, b)

    with mock.patch.object(cls, "__mul__", counting):
        value = compute()
    return value, len(calls)


def count_fourier_passes(monkeypatch, counts, key):
    """Count in ``counts[key]`` each Fourier pass over one lattice: a
    ``theta._jet_sum`` call (order >= 1), or a lattice summed by
    ``theta._theta_values`` (order 0, one or both lattices per call)."""
    from ellrig import theta

    jet_sum, values = theta._jet_sum, theta._theta_values

    def counting_jets(*args):
        counts[key] = counts.get(key, 0) + 1
        return jet_sum(*args)

    def counting_values(c, tau, half=True, whole=True):
        counts[key] = counts.get(key, 0) + half + whole
        return values(c, tau, half, whole)

    monkeypatch.setattr(theta, "_jet_sum", counting_jets)
    monkeypatch.setattr(theta, "_theta_values", counting_values)


def series_close(a, b, tol=1e-12, up_to=None):
    """Compare stored coefficients of two q-series below the knowable order."""
    limit = min(a.order, b.order)
    if up_to is not None and up_to < limit:
        limit = up_to
    exps = {e for e in a.support() if e < limit} | {e for e in b.support() if e < limit}
    for e in exps:
        if not poly_close(a.coeff(e), b.coeff(e), tol):
            return False
    return True


def series_max_diff(a, b, up_to=None):
    limit = min(a.order, b.order)
    if up_to is not None and up_to < limit:
        limit = up_to
    worst = 0.0
    for e in {e for e in a.support() if e < limit} | {e for e in b.support() if e < limit}:
        d = a.coeff(e) - b.coeff(e)
        worst = max(worst, d.max_abs_coeff() if hasattr(d, "max_abs_coeff") else abs(d))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_tau(rng, im_low=0.5, im_high=1.1, re_span=0.35):
    return complex(rng.uniform(-re_span, re_span), rng.uniform(im_low, im_high))


def four_sphere_data():
    """Two-chart localization model of the rotation action on the 4-sphere.

    The poles are isolated fixed points whose tangent spaces are complex
    planes; in orientation-compatible charts the rotation numbers are (1, 1)
    at one pole and (1, -1) at the other, so the two contributions cancel
    and the Lefschetz function is identically zero, hence constant in t.
    """
    north = FixedComponentData("north", normal=(("x1", 1), ("x2", 1)),
                               intersection={"1": "1"}, cap=0)
    south = FixedComponentData("south", normal=(("x3", 1), ("x4", -1)),
                               intersection={"1": "1"}, cap=0)
    return FixedPointData((north, south), k=1)


def random_even_document(rng, index=0, rotations=False):
    """Synthetic mixed point / 4-dimensional document with k = 2."""
    m = lambda: int(rng.choice([-2, -1, 1, 2]))
    i = index * 10
    n_fiber = m()
    point = FixedComponentData(
        "pt%d" % index,
        normal=tuple(("p%d_%d" % (i, j), m()) for j in range(4)),
        # paired rotations on a shared symbol: the linear condition holds,
        # the quadratic one fails, the anomaly is a nontrivial scalar
        v_fibers=(("u%d" % i, n_fiber), ("u%d" % i, -n_fiber)) if rotations else (),
        intersection={"1": str(int(rng.integers(1, 5)))},
        cap=0,
    )
    frac = lambda: "%d/%d" % (int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    four = FixedComponentData(
        "c4_%d" % index,
        tangent_roots=("s%d" % i, "t%d" % i),
        normal=tuple(("q%d_%d" % (i, j), m()) for j in range(2)),
        intersection={
            "s%d^2" % i: frac(), "s%d t%d" % (i, i): frac(), "t%d^2" % i: frac(),
        },
        cap=2,
    )
    return FixedPointData((point, four), k=2)


PHI = TwistSpec((TwistFactor.PHI,))
PHI0 = TwistSpec((TwistFactor.PHI0,))
