"""Command-line workbench: identity suites, expansions, sweeps, reports.

Subcommands
-----------
theta-verify   run the theta identity suite over a list of moduli
expand         q-expansion of a twisted-ladder character, with oracle check
rigidity       consolidated structural checks on a fixed-point document
odd-check      odd-character transformation relations and ladder swaps

Each subcommand registers only the flags it reads, and each flag's
argparse ``type`` converts and checks its value, so the commands receive
typed values.  Documents are read by :func:`ellrig.lefschetz.load_document`.

Each command loads only the layers it runs, on first use.  This module
imports ``errors`` and ``theta`` (with ``record``), all that theta-verify
needs: no formal ring, neither ``polynomial`` nor ``series``, nor the
``fractions`` and ``decimal`` they bring in.  ``expand`` imports
``polynomial``, ``series`` and ``characters``, and ``--factor``
``twist``; ``rigidity`` and ``odd-check`` import ``lefschetz`` and
``twist``, and no ring, once per command, and build each fixed-point
integrand once inside one ``integrand_memo`` scope.  ``csv`` is imported
only for ``--format=csv``.

theta-verify evaluates each point once for all four kinds: per tau, six
points (v, v + 1, v + tau and -v at tau, the S image (v/tau, -1/tau) and v
at the T image tau + 1), each one call of the order-0 theta kernel, which
makes one Fourier pass per lattice: 12 passes.  The Jacobi identity adds
three: theta'(0) is one jet pass of order 1 over the lattice of theta, and
theta1, theta2 and theta3 at 0 are read from the entry of order-0 values at
0 that one kernel call stages on tau.  The values at (v, tau) serve as the
right-hand sides of the shift, S, T and parity laws, the 20 per-kind check
tags come from a table made once at import, and the reports are
byte-identical to those of the kind-by-kind route.

Every law check goes through ``Suite.check`` and every report through
``Suite.finish``.  A check is a skip, with its reason, at a pole (naming the
component, the factor and t), at an unmet precondition, or when its
ModularCheck skipped itself; any other error reaches :func:`main`.

A warning raised during a command is written to stderr as one line,
``warning: <category>: <message>``; it changes neither the report nor the
exit code.

Exit codes: 0 every residual within tolerance, 1 identity failure (with
--strict, also a skip or a failed condition flag), 2 usage, schema,
capacity or domain error.  Reports are deterministic: one ``json.dumps``
call writes them with sorted keys, and each float as its ``repr``, the
shortest text that parses back to the same double.  A complex number is
written as its [real, imag] pair and any other value JSON cannot hold as
its str(); ``expand`` writes its coefficients as pairs itself.
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import math
import sys
import warnings

from .errors import (
    CapacityError,
    DomainError,
    EllrigError,
    PreconditionError,
    SchemaError,
    SingularFactorError,
)
from .theta import (
    THETA_KINDS,
    TauPoint,
    ThetaKind,
    jacobi_residual,
    shift_factor,
    st_transform_residuals,
    theta_values,
)

DEFAULT_TAUS = "1j,0.3+0.8j,1.5j"
DEFAULT_T = "0.07+0.19j"
DEFAULT_T_GRID = DEFAULT_T + ",0.12+0.23j,0.18+0.14j,0.23+0.21j,0.29+0.17j"
TOL_THETA_SUITE = 1e-8
TOL_SINGLE = 1e-10


# --------------------------------------------------------------------------
# deterministic serialization
# --------------------------------------------------------------------------


def _json_default(value):
    """A complex number as its [real, imag] pair, any other value JSON
    cannot hold as its str()."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    return str(value)


def dumps_report(report):
    return json.dumps(report, sort_keys=True, default=_json_default) + "\n"


def report_to_csv(report):
    import csv  # only --format=csv writes one

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tag", "status", "residual", "tolerance", "detail"])
    for check in report["checks"]:
        writer.writerow([
            check["tag"],
            check["status"],
            "" if check.get("residual") is None else repr(check["residual"]),
            "" if check.get("tolerance") is None else repr(check["tolerance"]),
            check.get("detail", ""),
        ])
    return buf.getvalue()


def emit(report, args):
    text = report_to_csv(report) if args.format == "csv" else dumps_report(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError("cannot write %s: %s" % (args.out, exc.strerror or exc)) from None
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# check bookkeeping
# --------------------------------------------------------------------------


class Suite:
    """The checks of one command run and the report that holds them.

    :meth:`check` is the one path from a law to a report line, and
    :meth:`finish` the one path from the checks to the report.
    """

    def __init__(self, args):
        self.args = args
        self.checks = []

    def _record(self, tag, status, detail, residual=None, tolerance=None,
                gates_exit=False, **more):
        self.checks.append({"tag": tag, "status": status, "residual": residual,
                            "tolerance": tolerance, "detail": detail,
                            "gates_exit": gates_exit, **more})

    def add(self, tag, residual, tolerance, detail):
        self._record(tag, "pass" if residual <= tolerance else "fail", detail,
                     float(residual), float(tolerance), gates_exit=True)

    def add_flag(self, tag, passed, detail):
        """A verdict without a residual; it does not gate the exit code."""
        self._record(tag, "pass" if passed else "fail", detail)

    def check(self, tag, tolerance, detail, evaluate):
        """Record the residual that ``evaluate()`` returns, or a skip.

        ``evaluate()`` returns a residual or a :class:`ModularCheck`, alone or
        paired with the detail of a pass when that depends on the result.
        A pole (the reason names the component, the factor and t), an unmet
        precondition and a ModularCheck that skipped itself are skips with
        ``detail``; any other error propagates.
        """
        try:
            result = evaluate()
        except SingularFactorError as exc:
            reason = "component %r, factor %s, t = %s: %s" % (
                exc.component, exc.factor, complex(exc.t), exc)
        except PreconditionError as exc:
            reason = str(exc)
        else:
            residual, pass_detail = result if isinstance(result, tuple) else (result, detail)
            # a ModularCheck, read by its fields so the suite needs no engine import
            if not getattr(residual, "skipped", False):
                return self.add(tag, getattr(residual, "residual", residual), tolerance,
                                pass_detail)
            reason = residual.reason
        self.skip(tag, detail, reason)

    def skip(self, tag, detail, reason):
        self._record(tag, "skip", detail, reason=reason)

    def finish(self, command, config, **extra):
        """Emit the report, with each extra entry that is not None, and
        return the exit code.  A command run on an empty ``--tau`` list
        checks nothing, and its report says so."""
        summary = {status: sum(check["status"] == status for check in self.checks)
                   for status in ("pass", "fail", "skip")}
        report = {"command": command, "config": config, "checks": self.checks,
                  "summary": summary}
        report.update((key, value) for key, value in extra.items() if value is not None)
        if getattr(self.args, "tau", None) == []:
            report["warning"] = "empty tau list; vacuous pass"
        emit(report, self.args)
        strict = self.args.strict
        return int(any(check["status"] == "fail" and check["gates_exit"]
                       or strict and check["status"] != "pass" for check in self.checks))


# --------------------------------------------------------------------------
# theta-verify
# --------------------------------------------------------------------------

_SHIFT_V = 0.23 + 0.11j
# per kind, the tags of its shift (v + 1, v + tau), law (S, T) and parity checks
_KIND_TAGS = {kind: (("shift-v-plus-1/%s" % kind, "shift-v-plus-tau/%s" % kind),
                     ("s-transform/%s" % kind, "t-transform/%s" % kind), "parity/%s" % kind)
              for kind in THETA_KINDS}


def cmd_theta_verify(args):
    taus = args.tau
    suite = Suite(args)
    tol = args.tol if args.tol is not None else TOL_THETA_SUITE
    v = _SHIFT_V
    for tau_value in taus:
        tau = TauPoint(tau_value)
        detail = "tau=%s" % tau_value
        suite.add("jacobi-derivative-identity", jacobi_residual(tau),
                  min(tol, TOL_SINGLE) if args.tol is None else tol, detail)
        # each point once, for all four kinds; the values at v are also the
        # right-hand sides of the shift, S, T and parity laws
        at_v = theta_values(v, tau)
        shifts = [(a, b, theta_values(v + shift, tau))
                  for shift, a, b in ((1, 1, 0), (tau.value, 0, 1))]
        laws = [st_transform_residuals(v, tau, g, at_v) for g in ("S", "T")]
        at_minus_v = theta_values(-v, tau)
        for kind in THETA_KINDS:
            shift_tags, law_tags, parity_tag = _KIND_TAGS[kind]
            for tag, (a, b, values) in zip(shift_tags, shifts):
                lhs = values[kind]
                rhs = shift_factor(kind, v, tau, a, b) * at_v[kind]
                # relative to the value, which grows like e^(pi Im tau)
                suite.add(tag, abs(lhs - rhs) / max(1.0, abs(lhs)), tol, detail)
            for tag, residuals in zip(law_tags, laws):
                suite.add(tag, residuals[kind], tol, detail)
            parity_sign = -1.0 if kind.odd else 1.0
            res = abs(at_minus_v[kind] - parity_sign * at_v[kind])
            suite.add(parity_tag, res, tol, detail)
    return suite.finish(
        "theta-verify", {"tau": [complex(t) for t in taus], "tolerance": tol,
                         "strict": args.strict})


# --------------------------------------------------------------------------
# expand
# --------------------------------------------------------------------------

def cmd_expand(args):
    from .characters import FormalBundle, ch_theta_twist, ch_twist_oracle, theta_qseries
    from .polynomial import Generators, format_monomial
    from .series import qexp

    order = qexp(args.q_order)
    factor = args.factor
    suite = Suite(args)
    rows = []
    if isinstance(factor, ThetaKind):
        given = [flag for flag, value in (
            ("--symbols", args.symbols), ("--rotations", args.rotations), ("--t", args.t),
            ("--degree-cap", args.degree_cap), ("--tol", args.tol)) if value is not None]
        if given:
            raise SchemaError("the scalar theta %s takes no ladder flags: %s"
                              % (factor, ", ".join(given)))
        series = theta_qseries(factor, 0.0, None, order)
        for e in series.support():
            c = complex(series.coeff(e))
            rows.append({"exponent": str(e), "value": [c.real, c.imag]})
        return suite.finish("expand", {"q_order": str(order)}, factor=str(factor),
                            coefficients=rows)
    symbols, rotations = args.symbols or (), args.rotations or ()
    cap = 4 if args.degree_cap is None else args.degree_cap
    t = 0j if args.t is None else args.t
    if rotations and len(rotations) != len(symbols):
        raise SchemaError("rotations and symbols differ in length")
    bundle = FormalBundle(symbols, rotations or (0,) * len(symbols))
    gens = Generators(symbols)
    series = ch_theta_twist(factor, bundle, t, gens=gens, cap=cap, q_order=order)
    oracle = notice = None
    try:
        oracle = ch_twist_oracle(factor, bundle, t, order, gens, cap)
    except CapacityError as exc:
        notice = str(exc)
    except EllrigError as exc:
        notice = "oracle unavailable: %s" % exc
    tol = args.tol if args.tol is not None else 1e-9
    # each monomial's text is made once per expansion
    texts = {}
    for e in series.support():
        value = {}
        for mono, z in series.coeff(e).terms.items():
            text = texts.get(mono)
            if text is None:
                text = texts[mono] = format_monomial(gens, gens.exponents(mono))
            # each coefficient as its [real, imag] pair, without the writer's hook
            value[text] = [z.real, z.imag]
        rows.append({"exponent": str(e), "value": value})
    detail = "factor=%s order=%s" % (factor, order)
    if oracle is None:
        suite.skip("ladder-oracle-agreement", detail, notice)
    else:
        suite.add("ladder-oracle-agreement", _worst_difference(series, oracle, gens),
                  tol, detail)
    return suite.finish("expand", {"q_order": str(order), "degree_cap": cap, "t": t},
                        factor=str(factor), coefficients=rows, notice=notice)


def _worst_difference(series, oracle, gens):
    """max |a - b| over the coefficients a of ``series`` and b of ``oracle``
    below both orders, monomial by monomial: the largest coefficient of
    a - b, without building that polynomial.  a - b is a + (-b) bit for bit,
    and a monomial on one side only differs by its coefficient.  A
    non-finite difference is the CapacityError that a - b raises, at the
    first such monomial of a."""
    worst = 0.0
    below = min(series.order, oracle.order)
    left, right = series.terms, oracle.terms
    for e in sorted(left.keys() | right.keys()):
        if e >= below:
            continue
        a = left[e].terms if e in left else {}
        b = right[e].terms if e in right else {}
        diffs = {m: c - b[m] if m in b else c for m, c in a.items()}
        bad = next((m for m, c in diffs.items() if not cmath.isfinite(c)), None)
        if bad is not None:
            raise CapacityError("a ring operation overflowed: non-finite coefficient at %r"
                                % (gens.exponents(bad),))
        diffs.update((m, c) for m, c in b.items() if m not in a)
        worst = max(worst, max(map(abs, diffs.values()), default=0.0))
    return worst


# --------------------------------------------------------------------------
# rigidity
# --------------------------------------------------------------------------


def load_document(path):
    """:func:`ellrig.lefschetz.load_document`; the engine is imported on the
    first call, so the commands without a document never import it."""
    from .lefschetz import load_document

    return load_document(path)


def cmd_rigidity(args):
    from .lefschetz import (
        TOL_COMPOSITE,
        anomaly_condition_check,
        integrand_memo,
        modular_residual,
        periodicity_residual,
        pole_scan,
        rigidity_sweep,
        translation_anomaly_check,
    )

    data, twist = load_document(args.document)
    taus, grid = args.tau, args.t_grid
    t0 = grid[0]
    tol = args.tol if args.tol is not None else TOL_COMPOSITE
    suite = Suite(args)
    sweeps, poles = [], []
    # each fixed-point integrand is built once per command
    with integrand_memo():
        for tau_value in taus:
            tau = TauPoint(tau_value)
            detail = "tau=%s" % tau_value
            cond = anomaly_condition_check(data, "p1V=0")
            suite.add_flag("anomaly-conditions", cond.passed,
                           "%s per-component=%r" % (detail, cond.per_component))
            if data.parity == "odd":
                suite.add_flag("odd-degree3-class-zero",
                               anomaly_condition_check(data, "c3E=0").passed, detail)
            suite.check("translation-periodicity", tol, detail + " a=2",
                        lambda: periodicity_residual(data, twist, t0, tau, 2))
            suite.check("translation-anomaly-law", tol, detail, lambda: (
                translation_anomaly_check(data, twist, t0, tau, 2).relative_residual,
                detail + " a=2 (relative to the component magnitudes)"))
            for g in ("T", "S"):
                def modular():
                    check = modular_residual(data, twist, t0, tau, g)
                    return check, "%s weight=%d const=%s" % (detail, check.weight,
                                                             check.constant)
                suite.check("modular-weight-" + g, tol, detail, modular)
            # a null keeps sweeps aligned with tau when every grid point is a pole
            sweeps.append(None)

            def sweep():
                report = rigidity_sweep(data, twist, tau, grid, tolerance=args.sweep_tol)
                sweeps[-1] = report.to_dict()
                return report.max_deviation, "%s points=%d singular=%d" % (
                    detail, len(grid), len(report.singular_points))
            suite.check("rigidity-sweep", args.sweep_tol, "%s points=%d singular=%d"
                        % (detail, len(grid), len(grid)), sweep)
            hits = pole_scan(data, twist, tau, range(0, 3), range(-2, 3), 2)
            poles.append({
                "tau": complex(tau_value),
                "hits": [{"t": complex(h.t), "k": h.k, "l": h.l, "c": h.c, "d": h.d,
                          "component": h.component, "symbol": h.symbol}
                         for h in hits],
            })
    return suite.finish(
        "rigidity", {"document": args.document, "tau": [complex(t) for t in taus],
                     "t_grid": [complex(t) for t in grid], "tolerance": tol,
                     "sweep_tolerance": args.sweep_tol, "strict": args.strict},
        sweeps=sweeps or None, poles=poles or None)


# --------------------------------------------------------------------------
# odd-check
# --------------------------------------------------------------------------


def cmd_odd_check(args):
    from .twist import TwistFactor, TwistSpec, odd_transform_residual
    from .lefschetz import integrand_memo, lefschetz_eval, modular_residual

    data, twist = load_document(args.document)
    odd_map = data.odd_map
    if odd_map is None:
        raise SchemaError("document has no odd_map; the odd suite needs one")
    cap, taus, t0 = args.degree_cap, args.tau, args.t
    tol = args.tol if args.tol is not None else TOL_THETA_SUITE
    suite = Suite(args)
    with integrand_memo():
        for tau_value in taus:
            tau = TauPoint(tau_value)
            detail = "tau=%s" % tau_value
            for pair in ((1, 2), (2, 1), (3, 3)):
                suite.check("odd-s-relation-%d-%d/degree-3" % pair, tol,
                            "%s N=%d c3_zero=%s" % (detail, odd_map.N, odd_map.c3_vanishes),
                            lambda: odd_transform_residual(pair, 1, tau, odd_map, cap=cap))
                if cap >= 7:
                    suite.check("odd-s-relation-%d-%d/degree-7" % pair, tol,
                                "%s N=%d" % (detail, odd_map.N),
                                lambda: odd_transform_residual(pair, 2, tau, odd_map, cap=cap))
            for psi, partner in ((TwistFactor.PSI1, "fixed"), (TwistFactor.PSI2, "swap"),
                                 (TwistFactor.PSI3, "swap")):
                suite.check("odd-ladder-t-permutation/%s-%s" % (psi, partner), tol, detail,
                            lambda: modular_residual(data, TwistSpec((psi,)), t0, tau, "T"))
            # applying the swap twice returns the original assignment
            spec = TwistSpec((TwistFactor.PSI2,))
            tau2 = TauPoint(tau.value + 2.0, tau.min_im)
            suite.check("odd-ladder-t-permutation-closure", tol, detail, lambda: abs(
                lefschetz_eval(data, spec, t0, tau2) - lefschetz_eval(data, spec, t0, tau)))
    return suite.finish(
        "odd-check", {"document": args.document, "tau": [complex(t) for t in taus],
                      "degree_cap": cap, "tolerance": tol, "strict": args.strict})


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _finite_complex(token):
    token = token.strip()
    try:
        value = complex(token)
    except ValueError:
        raise argparse.ArgumentTypeError("cannot parse %r as a complex number" % token)
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError("%r is not a finite complex number" % token)
    return value


def _complex_list(text):
    """Comma-separated finite complex literals; empty items are skipped."""
    return [_finite_complex(token) for token in text.split(",") if token.strip()]


def _t_grid(text):
    grid = _complex_list(text)
    if not grid:
        raise argparse.ArgumentTypeError("empty t grid")
    return grid


def _integer(token):
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % token)


def _integer_at_least(low):
    def convert(text):
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
        return value
    return convert


def _integer_list(text):
    """Comma-separated integers, as a tuple; empty items are skipped."""
    return tuple(_integer(token) for token in text.split(",") if token.strip())


def _symbol_list(text):
    """Comma-separated distinct symbol names, as a tuple."""
    symbols = tuple(s for s in text.split(",") if s)
    if len(set(symbols)) != len(symbols):
        raise argparse.ArgumentTypeError("symbols must be distinct, got %r" % text)
    return symbols


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a number" % text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and >= 0, got %r" % text)
    return value


def _factor(text):
    """A ladder factor (TwistFactor) or a scalar theta (ThetaKind)."""
    from .twist import QUOTIENT_FAMILIES, ROLES

    # what expand takes: the ladders with a standalone quotient, and the scalar thetas
    factors = {str(f): f for f, (family, _) in ROLES.items() if family in QUOTIENT_FAMILIES}
    factors.update((str(kind), kind) for kind in ThetaKind)
    try:
        return factors[text]
    except KeyError:
        raise argparse.ArgumentTypeError(
            "%r is not a factor expand takes; use one of %s"
            % (text, ", ".join(factors))) from None


# argparse reads a separate token that starts with "-" as a new option
_EPILOG = ("Give a value that starts with '-' in the --flag=value form, "
           "e.g. --rotations=-1,2 or --tau=-0.3+0.8j.")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ellrig",
        description="Workbench for theta identities, twisted-ladder "
                    "q-expansions, and Lefschetz rigidity checks.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, document=False):
        p = sub.add_parser(name, help=help, epilog=_EPILOG)
        p.set_defaults(func=func)
        if document:
            p.add_argument("document", help="fixed-point document (JSON)")
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="override the residual tolerance")
        p.add_argument("--strict", action="store_true",
                       help="skipped checks count as failures")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to a file")
        return p

    def tau(p):
        p.add_argument("--tau", type=_complex_list, default=DEFAULT_TAUS,
                       help="comma-separated moduli (complex literals)")

    def t(p, default):
        p.add_argument("--t", type=_finite_complex, default=default,
                       help="circle parameter (complex literal)")

    def degree_cap(p, low, default):
        p.add_argument("--degree-cap", dest="degree_cap", type=_integer_at_least(low),
                       default=default, help="polynomial degree cap (>= %d)" % low)

    p = command("theta-verify", cmd_theta_verify, "run the theta identity suite")
    tau(p)

    p = command("expand", cmd_expand, "q-expansion of a ladder character")
    p.add_argument("--factor", required=True, type=_factor,
                   help="ladder name (Q1V, Q2V, Q3V, Theta1..3, DeltaV) or a "
                        "scalar theta (theta, theta1, theta2, theta3)")
    # the ladder flags default to None, so a scalar theta can refuse them;
    # cmd_expand fills in no symbols, t = 0 and degree cap 4
    p.add_argument("--symbols", type=_symbol_list, default=None,
                   help="comma-separated distinct root symbols")
    p.add_argument("--rotations", type=_integer_list, default=None,
                   help="comma-separated integer rotations")
    t(p, None)
    p.add_argument("--q-order", dest="q_order", type=_integer_at_least(1), default=4,
                   help="q-series truncation order (>= 1)")
    degree_cap(p, 0, None)

    p = command("rigidity", cmd_rigidity, "structural checks on a document",
                document=True)
    tau(p)
    p.add_argument("--t-grid", dest="t_grid", type=_t_grid, default=DEFAULT_T_GRID,
                   help="comma-separated parameter grid")
    p.add_argument("--sweep-tol", dest="sweep_tol", type=_tolerance, default=1e-6,
                   help="tolerance for the t-grid deviation")

    p = command("odd-check", cmd_odd_check, "odd-character relations", document=True)
    tau(p)
    t(p, DEFAULT_T)
    degree_cap(p, 3, 4)

    return parser


_parser = None


def main(argv=None):
    # the parser is built on the first call (not at import) and reused;
    # build_parser is looked up as a module global on that call
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return args.func(args)
    except EllrigError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2 if isinstance(exc, (SchemaError, CapacityError, DomainError)) else 1


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """A warning of the library as one stderr line, like an error, and
    not as a block with a source path and line."""
    sys.stderr.write("warning: %s: %s\n" % (category.__name__, message))


if __name__ == "__main__":
    sys.exit(main())
