"""The tau stage: tau-only data computed once per TauPoint.

A staged value must equal what a fresh TauPoint computes, the stage must
not grow with the number of circle parameters visited, and it must take no
part in the value semantics of TauPoint.
"""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jet_reference import theta_poly

from ellrig.errors import DomainMarginWarning
from ellrig.lefschetz import (
    lefschetz_eval,
    load_document,
    modular_residual,
    rigidity_sweep,
)
from ellrig.polynomial import ChernPoly, Generators
from ellrig.theta import THETA_KINDS, TauPoint, theta_eval, theta_jet_coefficients
from ellrig.twist import odd_ch_Q, odd_transform_residual

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
DOCUMENTS = ("demos/data/four_sphere.json", "demos/data/mixed_components.json",
             "demos/data/odd_live.json", "demos/data/odd_rigid.json",
             "tests/data/fiber_ladders.json", "tests/data/fiber_ladders_unrotated.json")
STAGE_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True)

TAUS = st.builds(complex, st.floats(-0.45, 0.45), st.floats(0.7, 1.3))
# Im t > 0 keeps every rotated normal factor off the theta zero lattice
TS = st.lists(st.builds(complex, st.floats(-0.3, 0.3), st.floats(0.05, 0.3)),
              min_size=1, max_size=3)


def load(name):
    return load_document(os.path.join(ROOT, name))


@pytest.mark.parametrize("name", DOCUMENTS)
@STAGE_SETTINGS
@given(tau=TAUS, ts=TS)
def test_warm_values_equal_fresh_ones(name, tau, ts):
    data, twist = load(name)
    warm = TauPoint(tau)
    for t in ts:
        lefschetz_eval(data, twist, t, warm)
    for t in ts:
        assert lefschetz_eval(data, twist, t, warm) == lefschetz_eval(
            data, twist, t, TauPoint(tau))
    if data.odd_map is not None:
        for j in (1, 2, 3):
            assert odd_ch_Q(j, data.odd_map, warm, cap=7) == odd_ch_Q(
                j, data.odd_map, TauPoint(tau), cap=7)
    gens = Generators(("x",))
    for kind in THETA_KINDS:
        for order in (0, 1, 4):
            assert theta_jet_coefficients(kind, 0.0, warm, order) == \
                theta_jet_coefficients(kind, 0.0, TauPoint(tau), order)
        for centre in (0.0, ts[0]):
            jet = ChernPoly.generator(gens, 4, "x", 0.5) + centre
            assert theta_poly(kind, jet, warm) == theta_poly(kind, jet, TauPoint(tau))
            assert theta_eval(kind, centre, warm) == theta_eval(kind, centre, TauPoint(tau))


@pytest.mark.parametrize("name", DOCUMENTS)
def test_stage_does_not_grow_with_the_grid(name):
    data, twist = load(name)
    grid = [0.05 + 0.004 * k + (0.1 + 0.002 * k) * 1j for k in range(50)]
    one, fifty = TauPoint(0.2 + 0.9j), TauPoint(0.2 + 0.9j)
    # the point with the largest |Im t| asks for the most Fourier terms
    rigidity_sweep(data, twist, one, grid[-1:])
    rigidity_sweep(data, twist, fifty, grid)
    assert fifty._stage.keys() == one._stage.keys()
    for key, value in one._stage.items():
        if isinstance(value, list):  # a weight table
            assert len(fifty._stage[key]) == len(value)


def test_stage_is_not_part_of_the_value():
    warm, cold = TauPoint(0.1 + 0.8j), TauPoint(0.1 + 0.8j)
    theta_eval(THETA_KINDS[1], 0.0, warm)
    assert warm._stage and not cold._stage
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold) == "TauPoint(value=(0.1+0.8j), min_im=0.3)"


# the S and T images of tau are staged on tau, keyed by the image value
ODD_DOCUMENTS = ("demos/data/odd_live.json", "demos/data/odd_rigid.json")


def shifted_keys(tau):
    return [key for key in tau._stage if key[0] == "shifted"]


@pytest.mark.parametrize("name", ODD_DOCUMENTS + ("demos/data/mixed_components.json",))
def test_modular_images_are_staged_once(name):
    data, twist = load(name)
    ts = [0.07 + 0.19j, 0.12 + 0.23j, -0.18 + 0.14j]
    warm = TauPoint(0.2 + 0.9j)
    stages = []
    for _ in range(2):
        for t in ts:
            for g in ("T", "S"):
                assert modular_residual(data, twist, t, warm, g) == modular_residual(
                    data, twist, t, TauPoint(0.2 + 0.9j), g)
        stages.append(set(warm._stage))
    # tau + 1, and -1/tau unless the document skips S
    assert 1 <= len(shifted_keys(warm)) <= 2
    assert stages[0] == stages[1]


@pytest.mark.parametrize("name", ODD_DOCUMENTS)
def test_odd_relations_build_the_image_characters_once(name):
    data, _ = load(name)
    warm = TauPoint(-0.1 + 1.1j)
    for pair in ((1, 2), (2, 1), (3, 3)):
        for i in (1, 2):
            assert odd_transform_residual(pair, i, warm, data.odd_map, cap=7) == \
                odd_transform_residual(pair, i, TauPoint(-0.1 + 1.1j), data.odd_map, cap=7)
    (key,) = shifted_keys(warm)
    image = warm._stage[key]
    assert image.value == -1.0 / warm.value
    # one odd_ch_Q per ladder at -1/tau, however many relations asked for it
    assert len([k for k in image._stage if k[0] == "odd_ch_Q"]) == 3


def test_every_call_still_warns_below_the_margin():
    tau = TauPoint(4j)
    images = []
    for _ in range(3):
        with pytest.warns(DomainMarginWarning):
            images.append(tau.shifted(-1.0 / tau.value))
    assert images[0] is images[1] is images[2]
    assert images[0] == TauPoint(0.25j, 0.25 * 0.999)


def test_the_sign_of_a_zero_real_part_is_kept():
    tau = TauPoint(1j)
    plus, minus = tau.shifted(complex(0.0, 2.0)), tau.shifted(complex(-0.0, 2.0))
    assert plus is not minus
    assert math.copysign(1.0, plus.value.real) == 1.0
    assert math.copysign(1.0, minus.value.real) == -1.0
