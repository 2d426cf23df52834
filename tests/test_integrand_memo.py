"""The integrand memo: each fixed-point integrand is built once per command.

``integrand_memo`` yields one dict for the command.  Inside it a repeated
``assemble_integrand`` call returns the terms built before, and each
factor's series at a pair or fiber is built once and shared by every
component and twist; outside it nothing is kept.  A memoised value must
equal the one computed without the memo, bit for bit.
"""

import contextlib
import glob
import io
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellrig import cli, lefschetz
from ellrig.errors import CapacityError, EllrigError, PreconditionError, SingularFactorError
from ellrig.lefschetz import (
    ComponentContext,
    assemble_integrand,
    integrand_memo,
    lefschetz_eval,
    modular_residual,
    permuted_twist,
)
from ellrig.theta import THETA_KINDS, TauPoint, ThetaKind, theta_jets, theta_zero_location
from ellrig.twist import ROLES, TwistSpec, odd_ch_Q
from conftest import count_fourier_passes
from generated_documents import documents
from test_stage import DOCUMENTS, ROOT, STAGE_SETTINGS, TAUS, TS, load

MIXED = os.path.join(ROOT, "demos", "data", "mixed_components.json")
ODD_RIGID = os.path.join(ROOT, "demos", "data", "odd_rigid.json")


@pytest.fixture
def builds(monkeypatch):
    """The argument tuples of every integrand actually built: each build
    makes one even kernel."""
    built = []
    build = lefschetz._even_kernel

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(lefschetz, "_even_kernel", counting)
    return built


@pytest.fixture
def work(monkeypatch):
    """Counts of the Fourier passes and series builds made."""
    counts = {}

    def counting(owner, name):
        build = getattr(owner, name)

        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            return build(*args)

        monkeypatch.setattr(owner, name, call)

    counting(lefschetz, "_symbol_series")
    count_fourier_passes(monkeypatch, counts, "_jet_sum")
    return counts


def integrand_keys(memo):
    """The keys of the integrand entries of a memo table."""
    return [key for key in memo if isinstance(key[0], ComponentContext)]


def series_keys(memo):
    """The keys of the series entries of a memo table."""
    return [key for key in memo if not isinstance(key[0], ComponentContext)]


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
        assert again is first and len(builds) == len(integrand_keys(memo)) == 1
        with integrand_memo() as inner:
            assert not inner
            assemble_integrand(ctx, twist, 0.07 + 0.19j, TauPoint(0.3 + 0.8j))
            assert len(integrand_keys(inner)) == 1 and len(builds) == 2
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
        assert len(builds) == len(integrand_keys(memo)) == len(ts) + 2


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


def test_the_table_holds_integrands_and_series_only():
    data, twist = load("demos/data/odd_rigid.json")
    tau = TauPoint(0.3 + 0.8j)
    with integrand_memo() as memo:
        assert type(memo) is dict
        lefschetz_eval(data, twist, 0.07 + 0.19j, tau)
        modular_residual(data, twist, 0.07 + 0.19j, tau, "T")
        integrands = integrand_keys(memo)
        assert len(integrands) == 3 and series_keys(memo)
    for ctx, t, tau_key, spec in integrands:
        assert ctx in data.contexts and isinstance(spec, TwistSpec)
        assert t[0] is complex and tau_key[0] is complex
    for tag, centre, tau_key, positive in series_keys(memo):
        assert tag in ("phi0", "bare") or tag in ROLES.values()
        assert centre is None or centre[0] in (float, complex)
        assert tau_key[0] is complex and isinstance(positive, bool)


def test_the_odd_ladders_share_their_series(builds, work):
    # the T checks of Psi1, Psi2 and Psi3 and the closure ask for seven
    # integrands at tau + 1, tau and tau + 2; each builds its even kernel
    # from the one series of its pair per tau.  A table of kernels above
    # the series gave (23, 3), when it built three kernels; the odd
    # characters the odd relations read are now the engine's too, and one
    # Fourier pass at 0 fewer is made
    run_quietly(["odd-check", ODD_RIGID, "--tau=0.3+0.8j"])
    assert len(builds) == 7
    assert (work["_jet_sum"], work["_symbol_series"]) == (22, 3)
    assert len({args[3] for args in builds}) == 3


def test_psi_ladders_at_one_point_build_no_more(work):
    data, _ = load("demos/data/odd_rigid.json")
    tau = TauPoint(0.3 + 0.8j)
    with integrand_memo():
        seen = []
        for j in (1, 2, 3):
            lefschetz_eval(data, TwistSpec(("Psi%d" % j,)), 0.07 + 0.19j, tau)
            seen.append((work["_jet_sum"], work["_symbol_series"]))
    # Psi2 adds the theta_2 pass of its odd character; no series is rebuilt.
    # The odd character is made before the kernel, and theta'(0) reads the
    # jet at 0 of its theta pass: the counts were (6, 1), (7, 1), (7, 1)
    assert seen == [(5, 1), (6, 1), (6, 1)]


def test_errors_are_not_kept(builds, work):
    data, twist = load("demos/data/four_sphere.json")
    with integrand_memo() as memo:
        for _ in range(2):
            # a rotated normal factor vanishes at t = 1, and raises before
            # any kernel or series is built
            with pytest.raises(SingularFactorError):
                lefschetz_eval(data, twist, 1.0, TauPoint(1j))
        assert not builds and not memo
        assert "_symbol_series" not in work


def test_a_zero_odd_factor_builds_no_kernel(builds, work):
    # Q2E underflows to 0 at Im tau = 300, so odd_rigid's integrand is 0; at
    # t + 2 tau the theta series of its pairs would overflow, and no kernel
    # or series is built
    data, twist = load("demos/data/odd_rigid.json")
    tau = TauPoint(0.3 + 300j)
    assert odd_ch_Q(2, data.odd_map, tau, cap=7) == {}
    assert lefschetz_eval(data, twist, 0.07 + 0.19j + 2 * tau.value, tau) == 0
    assert not builds and "_symbol_series" not in work


@pytest.mark.parametrize("name, builds", [
    ("demos/data/mixed_components.json", 0), ("demos/data/odd_rigid.json", 0),
    ("tests/data/shared_symbols.json", 6), ("tests/data/fiber_ladders.json", 12),
])
def test_fiber_factors_only_where_there_are_fibers(monkeypatch, name, builds):
    # every document's twist has fiber factors, but the fiber character of a
    # component without fibers is exactly 1: no series of it is built, and
    # the component's integrand is that of the twist without them;
    # elsewhere one series per fiber and factor
    tags = []
    build = lefschetz._symbol_series

    def recording(tag, *args):
        tags.append(tag)
        return build(tag, *args)

    monkeypatch.setattr(lefschetz, "_symbol_series", recording)
    data, twist = load(name)
    factors = twist.expanded()
    assert any(ROLES[f][0] == "fiber" for f, _ in factors)
    lefschetz_eval(data, twist, 0.07 + 0.19j, TauPoint(0.3 + 0.8j))
    assert sum(tag[0] in ("fiber", "delta") for tag in tags if isinstance(tag, tuple)) == builds
    without = TwistSpec(*zip(*[(f, e) for f, e in factors if ROLES[f][0] != "fiber"]))
    for ctx in data.contexts:
        if not ctx.comp.v_fibers:
            args = (0.07 + 0.19j, TauPoint(0.3 + 0.8j))
            assert (repr(assemble_integrand(ctx, twist, *args))
                    == repr(assemble_integrand(ctx, without, *args)))


# ---------------------------------------------------------------------------
# the series table: each factor's series at a pair or fiber, once per command
# ---------------------------------------------------------------------------

ALL_DOCUMENTS = sorted(os.path.relpath(path, ROOT) for pattern in ("demos/data", "tests/data")
                       for path in glob.glob(os.path.join(ROOT, pattern, "*.json")))
PAIR_TAUS = (1j, 0.3 + 0.8j, -0.4 + 0.7j)
# generic, real and imaginary t with signed zeros, and poles: m t = 1 for
# every rotation m = 1, and for m = 2 at t = 1/2
PAIR_TS = (0.07 + 0.19j, 0.13, complex(0.13, -0.0), 0.21j, complex(-0.0, 0.21), 0.5, 1.0)


def pair_points(tau_value):
    """(t, TauPoint) at tau and its T and S images, at each t and at
    t + 2 tau for the generic and the imaginary t."""
    tau = TauPoint(tau_value)
    points = []
    for point in (tau, tau.shifted(tau_value + 1.0), tau.shifted(-1.0 / tau_value)):
        points += [(t, point) for t in PAIR_TS]
        points += [(t + 2 * point.value, point) for t in (PAIR_TS[0], PAIR_TS[3])]
    return points


def integrand_outcomes(data, twists, points):
    """repr of the terms of every component integrand, or the attribution
    of the error it raised."""
    out = []
    for t, tau in points:
        for twist in twists:
            for ctx in data.contexts:
                try:
                    out.append(repr(assemble_integrand(ctx, twist, t, tau)))
                except SingularFactorError as exc:
                    out.append(("pole", exc.component, exc.factor, repr(exc.t)))
                except EllrigError as exc:
                    out.append((type(exc).__name__, str(exc)))
    return out


def assert_series_table_keeps_the_bits(data, twist, points):
    twists = [twist]
    for g in ("S", "T"):
        try:
            twists.append(permuted_twist(twist, g, data)[0])
        except PreconditionError:
            pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fresh = integrand_outcomes(data, twists, points)
        with integrand_memo() as memo:
            cold = integrand_outcomes(data, twists, points)
            # rebuild every integrand from the full series table alone
            series = {key: memo[key] for key in series_keys(memo)}
            memo.clear()
            memo.update(series)
            rebuilt = integrand_outcomes(data, twists, points)
            assert {key: memo[key] for key in series_keys(memo)} == series
    assert cold == fresh
    assert rebuilt == fresh
    # a pole raises before its series is built, so none is kept
    for tag, centre, (_, tau, *_), _ in series:
        if centre is None:
            continue
        c = complex(centre[1])
        if tag == "phi0" or tag[0] == "tangent" and not (c.imag == 0 and c.real.is_integer()):
            assert theta_zero_location(ThetaKind.THETA, c, TauPoint(tau, tau.imag)) is None
        if tag == "bare":
            assert abs(c - round(c.real)) >= 1e-12
    return fresh, series


def test_failed_series_builds_are_not_kept():
    # at t + 2 tau the series of the rotation-2 pair overflows; the series
    # built before it stay, and the failed one raises again
    data, twist = load("demos/data/mixed_components.json")
    tau = TauPoint(4j)
    t = 0.07 + 0.19j + 2 * tau.value
    with integrand_memo() as memo:
        for _ in range(2):
            with pytest.raises(CapacityError):
                lefschetz_eval(data, twist, t, tau)
        assert series_keys(memo)
        for _, centre, _, positive in series_keys(memo):
            if centre is not None:
                theta_jets(THETA_KINDS, centre[1], tau, int(positive))
        with pytest.raises(CapacityError):
            theta_jets(THETA_KINDS, 2 * t, tau, 0)


@pytest.mark.parametrize("name", ALL_DOCUMENTS)
@pytest.mark.parametrize("tau", PAIR_TAUS)
def test_the_series_table_keeps_the_bits(name, tau):
    data, twist = load(name)
    fresh, series = assert_series_table_keeps_the_bits(data, twist, pair_points(tau))
    if any(ctx.comp.normal for ctx in data.contexts):
        assert series and any(isinstance(entry, tuple) and entry[0] == "pole" for entry in fresh)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(doc=documents(), tau=st.sampled_from(PAIR_TAUS))
def test_generated_documents_keep_the_bits_with_a_series_table(doc, tau):
    data, twist = doc
    tau_point = TauPoint(tau)
    points = [(t, tau_point) for t in PAIR_TS] + [(PAIR_TS[0] + 2 * tau, tau_point)]
    assert_series_table_keeps_the_bits(data, twist, points)
