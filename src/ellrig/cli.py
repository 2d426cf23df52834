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

Exit codes: 0 all residuals within tolerance, 1 identity failure,
2 usage or schema error.  Reports are deterministic: keys are sorted and
floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys

from .characters import (
    QUOTIENT_FAMILIES,
    ROLES,
    FormalBundle,
    TwistFactor,
    TwistSpec,
    ch_theta_twist,
    ch_twist_oracle,
    odd_transform_residual,
)
from .errors import CapacityError, DomainError, EllrigError, SchemaError
from .lefschetz import (
    TOL_COMPOSITE,
    TOL_SINGLE,
    anomaly_condition_check,
    format_monomial,
    lefschetz_eval,
    load_document,
    modular_residual,
    periodicity_residual,
    pole_scan,
    rigidity_sweep,
    translation_anomaly_check,
)
from .polynomial import Generators
from .series import qexp
from .theta import (
    TauPoint,
    ThetaKind,
    jacobi_residual,
    shift_factor,
    st_transform_residual,
    theta_eval,
    theta_qseries,
)

DEFAULT_TAUS = "1j,0.3+0.8j,1.5j"
DEFAULT_T = "0.07+0.19j"
DEFAULT_T_GRID = DEFAULT_T + ",0.12+0.23j,0.18+0.14j,0.23+0.21j,0.29+0.17j"
TOL_THETA_SUITE = 1e-8


# --------------------------------------------------------------------------
# deterministic serialization
# --------------------------------------------------------------------------


def _fmt_float(x):
    return "%.17g" % x


def _serialize(value, out):
    if value is None:
        out.write("null")
    elif value is True:
        out.write("true")
    elif value is False:
        out.write("false")
    elif isinstance(value, int):
        out.write(str(value))
    elif isinstance(value, float):
        out.write(_fmt_float(value))
    elif isinstance(value, complex):
        _serialize([value.real, value.imag], out)
    elif isinstance(value, str):
        out.write(json.dumps(value))
    elif isinstance(value, dict):
        out.write("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.write(", ")
            out.write(json.dumps(str(key)))
            out.write(": ")
            _serialize(value[key], out)
        out.write("}")
    elif isinstance(value, (list, tuple)):
        out.write("[")
        for i, item in enumerate(value):
            if i:
                out.write(", ")
            _serialize(item, out)
        out.write("]")
    else:
        out.write(json.dumps(str(value)))


def dumps_report(report):
    buf = io.StringIO()
    _serialize(report, buf)
    buf.write("\n")
    return buf.getvalue()


def report_to_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tag", "status", "residual", "tolerance", "detail"])
    for check in report["checks"]:
        writer.writerow([
            check["tag"],
            check["status"],
            "" if check.get("residual") is None else _fmt_float(check["residual"]),
            "" if check.get("tolerance") is None else _fmt_float(check["tolerance"]),
            check.get("detail", ""),
        ])
    return buf.getvalue()


def emit(report, args):
    text = report_to_csv(report) if args.format == "csv" else dumps_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# check bookkeeping
# --------------------------------------------------------------------------


class Suite:
    def __init__(self, strict=False):
        self.checks = []
        self.strict = strict

    def add(self, tag, residual, tolerance, detail="", gates_exit=True, params=None):
        status = "pass" if residual <= tolerance else "fail"
        self.checks.append({
            "tag": tag, "status": status, "residual": float(residual),
            "tolerance": float(tolerance), "detail": detail,
            "gates_exit": bool(gates_exit), "params": params or {},
        })

    def add_skip(self, tag, reason, detail="", params=None):
        self.checks.append({
            "tag": tag, "status": "skip", "residual": None, "tolerance": None,
            "detail": detail, "reason": reason, "gates_exit": False,
            "params": params or {},
        })

    def add_flag(self, tag, passed, detail="", gates_exit=False, params=None):
        self.checks.append({
            "tag": tag, "status": "pass" if passed else "fail", "residual": None,
            "tolerance": None, "detail": detail, "gates_exit": bool(gates_exit),
            "params": params or {},
        })

    def exit_code(self):
        for check in self.checks:
            if check["status"] == "fail" and (check["gates_exit"] or self.strict):
                return 1
            if check["status"] == "skip" and self.strict:
                return 1
        return 0

    def summary(self):
        out = {"pass": 0, "fail": 0, "skip": 0}
        for check in self.checks:
            out[check["status"]] += 1
        return out


# --------------------------------------------------------------------------
# theta-verify
# --------------------------------------------------------------------------

_SHIFT_V = 0.23 + 0.11j


def cmd_theta_verify(args):
    taus = args.tau
    suite = Suite(args.strict)
    tol = args.tol if args.tol is not None else TOL_THETA_SUITE
    for tau_value in taus:
        tau = TauPoint(tau_value)
        detail = "tau=%s" % tau_value
        suite.add("jacobi-derivative-identity", jacobi_residual(tau),
                  min(tol, TOL_SINGLE) if args.tol is None else tol, detail)
        v = _SHIFT_V
        for kind in ThetaKind:
            for step, shift, a, b in (("1", 1, 1, 0), ("tau", tau.value, 0, 1)):
                lhs = theta_eval(kind, v + shift, tau)
                rhs = shift_factor(kind, v, tau, a, b) * theta_eval(kind, v, tau)
                suite.add("shift-v-plus-%s/%s" % (step, kind), abs(lhs - rhs), tol, detail)
            for g in ("S", "T"):
                suite.add("%s-transform/%s" % (g.lower(), kind),
                          st_transform_residual(kind, v, tau, g), tol, detail)
            parity_sign = -1.0 if kind is ThetaKind.THETA else 1.0
            res = abs(theta_eval(kind, -v, tau) - parity_sign * theta_eval(kind, v, tau))
            suite.add("parity/%s" % kind, res, tol, detail)
    report = {
        "command": "theta-verify",
        "config": {"tau": [complex(t) for t in taus], "tolerance": tol,
                   "strict": args.strict},
        "checks": suite.checks,
        "summary": suite.summary(),
    }
    if not taus:
        report["warning"] = "empty tau list; vacuous pass"
    emit(report, args)
    return suite.exit_code()


# --------------------------------------------------------------------------
# expand
# --------------------------------------------------------------------------

def _poly_payload(poly, gens):
    return {
        format_monomial(gens, mono): [coeff.real, coeff.imag]
        for mono, coeff in sorted(poly.terms.items())
    }


def cmd_expand(args):
    order = qexp(args.q_order)
    factor = args.factor
    suite = Suite(args.strict)
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
            rows.append({"exponent": str(e), "value": complex(series.coeff(e))})
        report = {
            "command": "expand", "factor": str(factor),
            "config": {"q_order": str(order)},
            "coefficients": rows, "checks": suite.checks,
            "summary": suite.summary(),
        }
        emit(report, args)
        return 0
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
    for e in series.support():
        c = series.coeff(e)
        rows.append({"exponent": str(e), "value": _poly_payload(c, gens)
                     if hasattr(c, "terms") else complex(c)})
    if oracle is not None:
        worst = 0.0
        compare_below = min(series.order, oracle.order)
        for e in sorted(set(series.support()) | set(oracle.support())):
            if e >= compare_below:
                continue
            diff = series.coeff(e) - oracle.coeff(e)
            mag = diff.max_abs_coeff() if hasattr(diff, "max_abs_coeff") else abs(diff)
            worst = max(worst, mag)
        suite.add("ladder-oracle-agreement", worst, tol,
                  detail="factor=%s order=%s" % (factor, order))
    report = {
        "command": "expand", "factor": str(factor),
        "config": {"q_order": str(order), "degree_cap": cap, "t": t},
        "coefficients": rows,
        "checks": suite.checks, "summary": suite.summary(),
    }
    if notice:
        report["notice"] = notice
    emit(report, args)
    return suite.exit_code()


# --------------------------------------------------------------------------
# rigidity
# --------------------------------------------------------------------------


def cmd_rigidity(args):
    data, twist = load_document(args.document)
    taus, grid = args.tau, args.t_grid
    t0 = grid[0]
    tol = args.tol if args.tol is not None else TOL_COMPOSITE
    suite = Suite(args.strict)
    extra = {}
    for tau_value in taus:
        tau = TauPoint(tau_value)
        label = str(tau_value)
        cond = anomaly_condition_check(data, "p1V=0")
        suite.add_flag("anomaly-conditions", cond.passed,
                       detail="tau=%s per-component=%r" % (label, cond.per_component),
                       gates_exit=False)
        if data.parity == "odd":
            c3 = anomaly_condition_check(data, "c3E=0")
            suite.add_flag("odd-degree3-class-zero", c3.passed,
                           detail="tau=%s" % label, gates_exit=False)
        suite.add("translation-periodicity",
                  periodicity_residual(data, twist, t0, tau, 2, "t+a"),
                  tol, detail="tau=%s a=2" % label)
        try:
            check = translation_anomaly_check(data, twist, t0, tau, 2)
            suite.add("translation-anomaly-law", check.relative_residual, tol,
                      detail="tau=%s a=2 (relative to the component magnitudes)"
                      % label)
        except EllrigError as exc:
            suite.add_skip("translation-anomaly-law", str(exc), detail="tau=%s" % label)
        for g in ("T", "S"):
            check = modular_residual(data, twist, t0, tau, g)
            if check.skipped:
                suite.add_skip("modular-weight-%s" % g, check.reason,
                               detail="tau=%s" % label)
            else:
                suite.add("modular-weight-%s" % g, check.residual, tol,
                          detail="tau=%s weight=%d const=%s"
                          % (label, check.weight, check.constant))
        sweep = rigidity_sweep(data, twist, tau, grid,
                               tolerance=args.sweep_tol)
        suite.add("rigidity-sweep", sweep.max_deviation, args.sweep_tol,
                  detail="tau=%s points=%d singular=%d"
                  % (label, len(grid), len(sweep.singular_points)))
        extra.setdefault("sweeps", []).append(sweep.to_dict())
        hits = pole_scan(data, twist, tau, range(0, 3), range(-2, 3), 2,
                         sample=False)
        extra.setdefault("poles", []).append({
            "tau": complex(tau_value),
            "hits": [{"t": complex(h.t), "k": h.k, "l": h.l, "c": h.c, "d": h.d,
                      "component": h.component, "symbol": h.symbol}
                     for h in hits],
        })
    report = {
        "command": "rigidity",
        "config": {"document": args.document, "tau": [complex(t) for t in taus],
                   "t_grid": [complex(t) for t in grid], "tolerance": tol,
                   "sweep_tolerance": args.sweep_tol, "strict": args.strict},
        "checks": suite.checks,
        "summary": suite.summary(),
    }
    report.update(extra)
    emit(report, args)
    return suite.exit_code()


# --------------------------------------------------------------------------
# odd-check
# --------------------------------------------------------------------------


def cmd_odd_check(args):
    data, twist = load_document(args.document)
    if data.odd_map is None:
        raise SchemaError("document has no odd_map; the odd suite needs one")
    cap, taus, t0 = args.degree_cap, args.tau, args.t
    tol = args.tol if args.tol is not None else TOL_THETA_SUITE
    suite = Suite(args.strict)
    for tau_value in taus:
        tau = TauPoint(tau_value)
        label = str(tau_value)
        for pair in ((1, 2), (2, 1), (3, 3)):
            res = odd_transform_residual(pair, 1, tau, data.odd_map, cap=cap)
            suite.add("odd-s-relation-%d-%d/degree-3" % pair, res, tol,
                      detail="tau=%s N=%d c3_zero=%s"
                      % (label, data.odd_map.N, data.odd_map.c3_vanishes))
            if cap >= 7:
                res = odd_transform_residual(pair, 2, tau, data.odd_map, cap=cap)
                suite.add("odd-s-relation-%d-%d/degree-7" % pair, res, tol,
                          detail="tau=%s N=%d" % (label, data.odd_map.N))
        for psi, partner in ((TwistFactor.PSI1, "fixed"), (TwistFactor.PSI2, "swap"),
                             (TwistFactor.PSI3, "swap")):
            spec = TwistSpec((psi,))
            check = modular_residual(data, spec, t0, tau, "T")
            suite.add("odd-ladder-t-permutation/%s-%s" % (psi, partner),
                      check.residual, tol, detail="tau=%s" % label)
        # applying the swap twice returns the original assignment
        spec = TwistSpec((TwistFactor.PSI2,))
        tau2 = TauPoint(tau.value + 2.0, tau.min_im)
        lhs = lefschetz_eval(data, spec, t0, tau2)
        rhs = lefschetz_eval(data, spec, t0, tau)
        suite.add("odd-ladder-t-permutation-closure", abs(lhs - rhs), tol,
                  detail="tau=%s" % label)
    report = {
        "command": "odd-check",
        "config": {"document": args.document, "tau": [complex(t) for t in taus],
                   "degree_cap": cap, "tolerance": tol, "strict": args.strict},
        "checks": suite.checks,
        "summary": suite.summary(),
    }
    emit(report, args)
    return suite.exit_code()


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


# what expand takes: the ladders with a standalone quotient, and the scalar thetas
_EXPAND_FACTORS = {str(f): f for f, (family, _) in ROLES.items()
                   if family in QUOTIENT_FAMILIES}
_EXPAND_FACTORS.update((str(kind), kind) for kind in ThetaKind)


def _factor(text):
    """A ladder factor (TwistFactor) or a scalar theta (ThetaKind)."""
    try:
        return _EXPAND_FACTORS[text]
    except KeyError:
        raise argparse.ArgumentTypeError(
            "%r is not a factor expand takes; use one of %s"
            % (text, ", ".join(_EXPAND_FACTORS))) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ellrig",
        description="Workbench for theta identities, twisted-ladder "
                    "q-expansions, and Lefschetz rigidity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, document=False):
        p = sub.add_parser(name, help=help)
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


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SchemaError, CapacityError, DomainError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except EllrigError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
