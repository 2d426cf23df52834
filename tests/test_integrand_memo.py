"""The integrand memo: each fixed-point integrand is built once per command.

Inside ``integrand_memo`` a repeated ``assemble_integrand`` call returns the
polynomial built before; outside it nothing is kept.  A memoised value must
equal the one computed without the memo, bit for bit.  The twist-free Phi0
kernel is built once per (component, t, tau) in the same scope and shared
by every twist.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given

from ellrig import cli, lefschetz
from ellrig.errors import SingularFactorError
from ellrig.lefschetz import (
    assemble_integrand,
    integrand_memo,
    lefschetz_eval,
    modular_residual,
)
from ellrig.theta import TauPoint
from test_stage import DOCUMENTS, ROOT, STAGE_SETTINGS, TAUS, TS, load

MIXED = os.path.join(ROOT, "demos", "data", "mixed_components.json")
ODD_RIGID = os.path.join(ROOT, "demos", "data", "odd_rigid.json")


@pytest.fixture
def builds(monkeypatch):
    """The argument tuples of every integrand actually built."""
    built = []
    build = lefschetz._build_integrand

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(lefschetz, "_build_integrand", counting)
    return built


@pytest.fixture
def kernels(monkeypatch):
    """The argument tuples of every Phi0 kernel actually built."""
    built = []
    build = lefschetz._phi0_kernel

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(lefschetz, "_phi0_kernel", counting)
    return built


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_a_command_builds_each_integrand_once(builds, monkeypatch):
    calls = []
    assemble = lefschetz.assemble_integrand

    def counting(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(lefschetz, "assemble_integrand", counting)
    argv = ["rigidity", MIXED, "--tau=0.3+0.8j"]
    run_quietly(argv)
    # two components; (t0, tau) is asked for by the periodicity, the anomaly
    # law, the T and S right-hand sides and the sweep, and built once
    assert (len(calls), len(builds)) == (26, 18)
    run_quietly(argv)
    assert (len(calls), len(builds)) == (52, 36)


def test_outside_the_scope_nothing_is_kept(builds):
    data, twist = load("demos/data/mixed_components.json")
    ctx, tau = data.contexts[0], TauPoint(0.3 + 0.8j)
    first = assemble_integrand(ctx, twist, 0.07 + 0.19j, tau)
    second = assemble_integrand(ctx, twist, 0.07 + 0.19j, tau)
    assert len(builds) == 2 and first is not second and first == second
    run_quietly(["rigidity", MIXED, "--tau=0.3+0.8j"])
    assert lefschetz._INTEGRANDS.get() is None


def test_inside_the_scope_the_polynomial_is_shared(builds):
    data, twist = load("demos/data/mixed_components.json")
    ctx = data.contexts[0]
    with integrand_memo() as memo:
        first = assemble_integrand(ctx, twist, 0.07 + 0.19j, TauPoint(0.3 + 0.8j))
        # an equal TauPoint and an equal t built elsewhere hit the same entry
        again = assemble_integrand(ctx, twist, complex("0.07+0.19j"), TauPoint(0.3 + 0.8j))
        assert again is first and len(builds) == len(memo) == 1
        with integrand_memo() as inner:
            assert not inner
            assemble_integrand(ctx, twist, 0.07 + 0.19j, TauPoint(0.3 + 0.8j))
            assert len(inner) == 1 and len(builds) == 2
        assert lefschetz._INTEGRANDS.get() is memo


def test_signed_zeros_and_types_get_entries_of_their_own(builds):
    data, twist = load("demos/data/mixed_components.json")
    ctx, tau = data.contexts[0], TauPoint(0.3 + 0.8j)
    ts = (complex(0.0, 0.19), complex(-0.0, 0.19), 0.1, complex(0.1, 0.0),
          complex(0.1, -0.0))
    with integrand_memo() as memo:
        for _ in range(2):
            for t in ts:
                assemble_integrand(ctx, twist, t, tau)
            for re in (0.0, -0.0):
                assemble_integrand(ctx, twist, ts[0], TauPoint(complex(re, 1.0)))
        assert len(builds) == len(memo) == len(ts) + 2


def test_errors_are_not_kept(builds):
    data, twist = load("demos/data/four_sphere.json")
    tau = TauPoint(1j)
    with integrand_memo() as memo:
        for _ in range(2):
            # a rotated normal factor vanishes at t = 1
            with pytest.raises(SingularFactorError):
                lefschetz_eval(data, twist, 1.0, tau)
        assert len(builds) == 2 and not memo


def outcomes(data, twist, ts, tau):
    """repr of L and of the S/T checks at each t, interleaved with the
    images of tau; repr tells every bit, the sign of a zero included."""
    out = []
    for t in ts:
        out.append(lefschetz_eval(data, twist, t, tau))
        for g in ("S", "T"):
            out.append(modular_residual(data, twist, t, tau, g))
        for image in (tau.value + 1.0, -1.0 / tau.value):
            out.append(lefschetz_eval(data, twist, t, tau.shifted(image)))
        out.append(lefschetz_eval(data, twist, t, tau))
    return [repr(v) for v in out]


@pytest.mark.parametrize("name", DOCUMENTS)
@STAGE_SETTINGS
@given(tau=TAUS, ts=TS)
def test_memoised_values_equal_unmemoised_ones(name, tau, ts):
    data, twist = load(name)
    fresh = outcomes(data, twist, ts, TauPoint(tau))
    with integrand_memo() as memo:
        point = TauPoint(tau)
        cold = outcomes(data, twist, ts, point)
        size = len(memo)
        warm = outcomes(data, twist, ts, point)
        assert len(memo) == size
    assert cold == fresh
    assert warm == fresh


def test_the_odd_ladders_share_one_kernel_per_tau(builds, kernels):
    # the T checks of Psi1, Psi2 and Psi3 and the closure ask for seven
    # integrands at tau + 1, tau and tau + 2: three kernels
    run_quietly(["odd-check", ODD_RIGID, "--tau=0.3+0.8j"])
    assert (len(builds), len(kernels)) == (7, 3)
    assert len({args[2] for args in kernels}) == 3


def test_a_single_twist_builds_one_kernel_per_integrand(builds, kernels):
    run_quietly(["rigidity", MIXED, "--tau=0.3+0.8j"])
    assert len(kernels) == len(builds) == 18


def test_failed_kernels_are_not_kept(kernels):
    data, twist = load("demos/data/four_sphere.json")
    with integrand_memo() as memo:
        for _ in range(2):
            with pytest.raises(SingularFactorError):
                lefschetz_eval(data, twist, 1.0, TauPoint(1j))
        assert len(kernels) == 2 and not memo.kernels
