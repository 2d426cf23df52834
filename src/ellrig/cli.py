"""Command-line workbench: identity suites, expansions, sweeps, reports.

Subcommands
-----------
theta-verify   run the theta identity suite over a list of moduli
expand         q-expansion of a twisted-ladder character, with oracle check
rigidity       consolidated structural checks on a fixed-point document
odd-check      odd-character transformation relations and ladder swaps

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
import re
import sys
from fractions import Fraction

from .characters import (
    FormalBundle,
    OddMapData,
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
    FixedComponentData,
    FixedPointData,
    anomaly_condition_check,
    format_monomial,
    lefschetz_eval,
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
DEFAULT_T_GRID = "0.07+0.19j,0.12+0.23j,0.18+0.14j,0.23+0.21j,0.29+0.17j"
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


def _parse_complex_list(text):
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = complex(token)
        except ValueError:
            raise SchemaError("cannot parse %r as a complex number" % token)
        if not cmath.isfinite(value):
            raise SchemaError("%r is not a finite complex number" % token)
        values.append(value)
    return values


# --------------------------------------------------------------------------
# document loading
# --------------------------------------------------------------------------

_T_NAME = re.compile(r"T(\d+)$")


def _expect(value, kind, noun, where):
    # true and false are ints to Python, never numbers in a document
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise SchemaError("%s must be %s, got %r" % (where, noun, value))
    return value


def _integer(value, where):
    """An integer field: a JSON integer or a string holding one."""
    _expect(value, (int, str), "an integer", where)
    try:
        return int(value)
    except ValueError:
        raise SchemaError("%s must be an integer, got %r" % (where, value))


def _rational(value, where):
    """A rational field: a JSON integer or a string such as "-1/5"."""
    _expect(value, (int, str), "a rational (integer or \"p/q\" string)", where)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError("%s must be a rational, got %r" % (where, value))


def _symbols(value, where):
    for i, name in enumerate(_expect(value, list, "a list", where)):
        _expect(name, str, "a symbol name", "%s[%d]" % (where, i))
    return tuple(value)


def _rotations(value, where):
    """[{"symbol": ..., "rotation": ...}, ...] as (symbol, int) pairs."""
    out = []
    for i, entry in enumerate(_expect(value, list, "a list", where)):
        at = "%s[%d]" % (where, i)
        _expect(entry, dict, "an object with symbol and rotation", at)
        for key in ("symbol", "rotation"):
            if key not in entry:
                raise SchemaError("%s is missing %r" % (at, key))
        out.append((_expect(entry["symbol"], str, "a symbol name", at + ".symbol"),
                    _integer(entry["rotation"], at + ".rotation")))
    return tuple(out)


def _key_weight(name):
    m = _T_NAME.match(name)
    return int(m.group(1)) if m else 1


def _monomial_degree(key, where):
    key = key.strip()
    if key in ("", "1"):
        return 0
    total = 0
    for token in key.split():
        name, _, power = token.partition("^")
        total += _key_weight(name) * (_integer(power, where) if power else 1)
    return total


def _load_component(c, idx):
    where = "components[%d]" % idx
    _expect(c, dict, "an object", where)
    intersection = {}
    for key, value in _expect(c.get("intersection", {}), dict, "an object",
                              where + ".intersection").items():
        intersection[key] = _rational(value, "%s.intersection[%s]" % (where, json.dumps(key)))
    cap = c.get("degree_cap")
    if cap is None:
        degrees = {_monomial_degree(key, "%s.intersection key %s" % (where, json.dumps(key)))
                   for key in intersection} or {0}
        if len(degrees) != 1:
            raise SchemaError(
                "component %d: functional keys mix degrees %s; give degree_cap"
                % (idx, sorted(degrees))
            )
        cap = degrees.pop()
    return FixedComponentData(
        name=_expect(c.get("name", "component-%d" % idx), str, "a string", where + ".name"),
        tangent_roots=_symbols(c.get("tangent_roots", []), where + ".tangent_roots"),
        normal=_rotations(c.get("normal", []), where + ".normal"),
        v_fibers=_rotations(c.get("v_fibers", []), where + ".v_fibers"),
        v_real_roots=_symbols(c.get("v_real_roots", []), where + ".v_real_roots"),
        intersection=intersection,
        cap=_integer(cap, where + ".degree_cap"),
    )


def load_document(path):
    """Parse a fixed-point document; every defect raises SchemaError naming
    the field at fault."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise SchemaError("%s is not valid JSON: %s" % (path, exc))
    _expect(raw, dict, "an object", "document root")
    for key in ("parity", "k", "components"):
        if key not in raw:
            raise SchemaError("missing top-level key %r" % key)
    parity = raw["parity"]
    k = _integer(raw["k"], "k")
    components = [_load_component(c, idx) for idx, c in
                  enumerate(_expect(raw["components"], list, "a list", "components"))]
    odd_map = None
    if raw.get("odd_map") is not None:
        om = _expect(raw["odd_map"], dict, "an object", "odd_map")
        if "N" not in om:
            raise SchemaError("odd_map is missing 'N'")
        n = _integer(om["N"], "odd_map.N")
        c3 = _expect(om.get("c3_vanishes", False), bool, "true or false",
                     "odd_map.c3_vanishes")
        try:
            odd_map = OddMapData(n, c3)
        except EllrigError as exc:
            raise SchemaError("odd_map: %s" % exc)
    twist_raw = _expect(raw.get("twist") or {"factors": ["Phi"]}, dict, "an object", "twist")
    factors = _expect(twist_raw.get("factors"), list, "a list", "twist.factors")
    exponents = [_integer(e, "twist.exponents[%d]" % i) for i, e in enumerate(
        _expect(twist_raw.get("exponents", []), list, "a list", "twist.exponents"))]
    try:
        twist = TwistSpec(tuple(factors), tuple(exponents))
    except (EllrigError, ValueError) as exc:
        raise SchemaError("twist: %s" % exc)
    try:
        data = FixedPointData(tuple(components), k=k, parity=parity, odd_map=odd_map)
    except EllrigError as exc:
        raise SchemaError(str(exc))
    return data, twist


# --------------------------------------------------------------------------
# theta-verify
# --------------------------------------------------------------------------

_SHIFT_V = 0.23 + 0.11j


def cmd_theta_verify(args):
    taus = _parse_complex_list(args.tau)
    suite = Suite(args.strict)
    tol = args.tol if args.tol is not None else TOL_THETA_SUITE
    warned_empty = not taus
    for tau_value in taus:
        tau = TauPoint(tau_value)
        label = str(tau_value)
        suite.add("jacobi-derivative-identity", jacobi_residual(tau),
                  min(tol, TOL_SINGLE) if args.tol is None else tol,
                  detail="tau=%s" % label)
        v = _SHIFT_V
        for kind in ThetaKind:
            lhs = theta_eval(kind, v + 1, tau)
            rhs = shift_factor(kind, v, tau, 1, 0) * theta_eval(kind, v, tau)
            suite.add("shift-v-plus-1/%s" % kind, abs(lhs - rhs), tol,
                      detail="tau=%s" % label)
            lhs = theta_eval(kind, v + tau.value, tau)
            rhs = shift_factor(kind, v, tau, 0, 1) * theta_eval(kind, v, tau)
            suite.add("shift-v-plus-tau/%s" % kind, abs(lhs - rhs), tol,
                      detail="tau=%s" % label)
            suite.add("s-transform/%s" % kind,
                      st_transform_residual(kind, v, tau, "S"), tol,
                      detail="tau=%s" % label)
            suite.add("t-transform/%s" % kind,
                      st_transform_residual(kind, v, tau, "T"), tol,
                      detail="tau=%s" % label)
            parity_sign = -1.0 if kind is ThetaKind.THETA else 1.0
            res = abs(theta_eval(kind, -v, tau) - parity_sign * theta_eval(kind, v, tau))
            suite.add("parity/%s" % kind, res, tol, detail="tau=%s" % label)
    report = {
        "command": "theta-verify",
        "config": {"tau": [complex(t) for t in taus], "tolerance": tol,
                   "strict": args.strict},
        "checks": suite.checks,
        "summary": suite.summary(),
    }
    if warned_empty:
        report["warning"] = "empty tau list; vacuous pass"
    emit(report, args)
    return suite.exit_code()


# --------------------------------------------------------------------------
# expand
# --------------------------------------------------------------------------

_SCALAR_THETAS = {
    "theta": ThetaKind.THETA, "theta1": ThetaKind.THETA1,
    "theta2": ThetaKind.THETA2, "theta3": ThetaKind.THETA3,
}


def _poly_payload(poly, gens):
    return {
        format_monomial(gens, mono): [coeff.real, coeff.imag]
        for mono, coeff in sorted(poly.terms.items())
    }


def cmd_expand(args):
    order = qexp(args.q_order)
    suite = Suite(args.strict)
    rows = []
    if args.factor in _SCALAR_THETAS:
        series = theta_qseries(_SCALAR_THETAS[args.factor], 0.0, None, order)
        for e in series.support():
            rows.append({"exponent": str(e), "value": complex(series.coeff(e))})
        report = {
            "command": "expand", "factor": args.factor,
            "config": {"q_order": str(order)},
            "coefficients": rows, "checks": suite.checks,
            "summary": suite.summary(),
        }
        emit(report, args)
        return 0
    try:
        factor = TwistFactor(args.factor)
    except ValueError:
        raise SchemaError(
            "unknown factor %r; use a ladder name or a scalar theta" % args.factor
        )
    symbols = tuple(s for s in (args.symbols or "").split(",") if s)
    rotations = tuple(int(r) for r in (args.rotations or "").split(",") if r != "")
    if rotations and len(rotations) != len(symbols):
        raise SchemaError("rotations and symbols differ in length")
    bundle = FormalBundle(symbols, rotations or (0,) * len(symbols))
    gens = Generators(symbols)
    cap = args.degree_cap
    t = complex(args.t)
    series = ch_theta_twist(factor, bundle, t, gens=gens, cap=cap, q_order=order)
    oracle = None
    notice = None
    try:
        oracle = ch_twist_oracle(factor, bundle, t, order, gens, cap)
    except CapacityError as exc:
        notice = str(exc)
    except EllrigError as exc:
        notice = "oracle unavailable: %s" % exc
    tol = args.tol if args.tol is not None else 1e-9
    exps = sorted(series.support())
    for e in exps:
        row = {"exponent": str(e), "value": _poly_payload(series.coeff(e), gens)
               if hasattr(series.coeff(e), "terms") else complex(series.coeff(e))}
        rows.append(row)
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
    taus = _parse_complex_list(args.tau)
    grid = _parse_complex_list(args.t_grid)
    if not grid:
        raise SchemaError("empty t grid")
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
    cap = args.degree_cap
    if cap < 3:
        raise CapacityError("odd checks need degree capacity >= 3")
    taus = _parse_complex_list(args.tau)
    tol = args.tol if args.tol is not None else TOL_THETA_SUITE
    suite = Suite(args.strict)
    t0 = _parse_complex_list(args.t_grid)[0]
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ellrig",
        description="Workbench for theta identities, twisted-ladder "
                    "q-expansions, and Lefschetz rigidity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tau", default=DEFAULT_TAUS,
                       help="comma-separated moduli (complex literals)")
        p.add_argument("--t-grid", dest="t_grid", default=DEFAULT_T_GRID,
                       help="comma-separated parameter grid")
        p.add_argument("--q-order", dest="q_order", type=int, default=4,
                       help="q-series truncation order")
        p.add_argument("--degree-cap", dest="degree_cap", type=int, default=4,
                       help="polynomial degree cap")
        p.add_argument("--tol", type=float, default=None,
                       help="override the residual tolerance")
        p.add_argument("--strict", action="store_true",
                       help="skipped checks count as failures")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("theta-verify", help="run the theta identity suite")
    common(p)
    p.set_defaults(func=cmd_theta_verify)

    p = sub.add_parser("expand", help="q-expansion of a ladder character")
    common(p)
    p.add_argument("--factor", required=True,
                   help="ladder name (Q1V, Q2V, Q3V, Theta1..3, DeltaV) or a "
                        "scalar theta (theta, theta1, theta2, theta3)")
    p.add_argument("--symbols", default="", help="comma-separated root symbols")
    p.add_argument("--rotations", default="", help="comma-separated rotations")
    p.add_argument("--t", default="0", help="circle parameter (complex literal)")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("rigidity", help="structural checks on a document")
    common(p)
    p.add_argument("document", help="fixed-point document (JSON)")
    p.add_argument("--sweep-tol", dest="sweep_tol", type=float, default=1e-6,
                   help="tolerance for the t-grid deviation")
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("odd-check", help="odd-character relations")
    common(p)
    p.add_argument("document", help="fixed-point document (JSON)")
    p.set_defaults(func=cmd_odd_check)

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
