"""Judge one operation's outcome: structure, laws, and golden values.

Structure: exit code 0 or 1, a report that parses, the command's expected
check tags.  Laws: checks that hold for any valid input must pass.  Honest
verdicts (the non-rigid ``mixed_components`` sweep, ``odd_live``'s degree-3
relations, ``odd_rigid``'s tau-dependent sweep, the CLI's absolute expand
oracle tolerance) are counted, not judged.  Golden: on the default seed,
every number of the first operations' reports matches a committed
reference within a relative tolerance.
"""

from __future__ import annotations

import json

# rigidity checks that hold for every document and tau
RIGIDITY_LAWS = ("translation-periodicity", "translation-anomaly-law", "modular-weight-T")
RIGIDITY_TAGS = frozenset(RIGIDITY_LAWS + ("anomaly-conditions", "modular-weight-S",
                                           "rigidity-sweep"))
ODD_TAGS = frozenset(
    ["odd-s-relation-%d-%d/degree-%d" % (a, b, d)
     for a, b in ((1, 2), (2, 1), (3, 3)) for d in (3, 7)]
    + ["odd-ladder-t-permutation/Psi1-fixed", "odd-ladder-t-permutation/Psi2-swap",
       "odd-ladder-t-permutation/Psi3-swap", "odd-ladder-t-permutation-closure"])
THETA_TAG_PREFIXES = ("jacobi-derivative-identity", "shift-v-plus-1/", "shift-v-plus-tau/",
                      "s-transform/", "t-transform/", "parity/")
THETA_CHECKS_PER_TAU = 21
# expand's oracle residual relative to the largest coefficient; the same
# bound as the library's single-function tolerance
EXPAND_REL_TOL = 1e-10
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-12
# a check residual may drift by this share of its own tolerance
GOLDEN_CHECK_SHARE = 1e-3


def _flag(argv, name):
    prefix = "--%s=" % name
    for arg in argv:
        if arg.startswith(prefix):
            return arg[len(prefix):]
    return None


def _magnitude(value):
    if isinstance(value, dict):  # polynomial payload: monomial -> [re, im]
        return max((abs(complex(*c)) for c in value.values()), default=0.0)
    return abs(complex(*value))


def _structure(op, report):
    tags = [c["tag"] for c in report.get("checks", ())]
    if report.get("command") != op.command:
        return ["report names command %r" % report.get("command")]
    if op.command == "theta-verify":
        n_tau = len(_flag(op.argv, "tau").split(","))
        if len(tags) != THETA_CHECKS_PER_TAU * n_tau:
            return ["%d theta checks for %d tau" % (len(tags), n_tau)]
        bad = [t for t in tags if not t.startswith(THETA_TAG_PREFIXES)]
        return ["unexpected tag %r" % t for t in bad[:1]]
    if op.command == "rigidity":
        expected = RIGIDITY_TAGS
    elif op.command == "odd-check":
        expected = ODD_TAGS
    else:
        expected = {"ladder-oracle-agreement"}
    missing = sorted(expected - set(tags))
    return ["missing tags %s" % missing] if missing else []


def _laws(op, report, c3_vanishes):
    errors = []
    judged = set()
    for check in report["checks"]:
        tag, status = check["tag"], check["status"]
        if op.command == "theta-verify":
            must = True
        elif op.command == "rigidity":
            must = tag in RIGIDITY_LAWS or (tag == "modular-weight-S" and status != "skip")
        elif op.command == "odd-check":
            must = (tag.startswith("odd-ladder-t-permutation")
                    or (tag.startswith("odd-s-relation") and c3_vanishes))
        else:
            must = False
        if must:
            judged.add(id(check))
            if status != "pass":
                errors.append("law %s: %s (residual %s)" % (tag, status, check["residual"]))
    if op.command == "expand":
        largest = max((_magnitude(row["value"]) for row in report["coefficients"]),
                      default=0.0)
        for check in report["checks"]:
            if check["tag"] == "ladder-oracle-agreement":
                judged.add(id(check))
                rel = check["residual"] / largest if largest else check["residual"]
                if not rel <= EXPAND_REL_TOL:
                    errors.append("law oracle: relative residual %.3g" % rel)
    honest = ["%s %s:%s" % (op.command, c["tag"], c["status"])
              for c in report["checks"] if id(c) not in judged]
    return errors, honest


def golden_record(op, report):
    """The reference entry for one operation (see ``golden.json``)."""
    return {"argv": list(op.argv), "values": numbers(report),
            "checks": [[c["tag"], c["residual"], c["tolerance"]] for c in report["checks"]]}


def numbers(report):
    """Numeric leaves grouped by their path of keys, checks left out.

    A dict under a ``value`` key is a polynomial payload; its monomial keys
    do not enter the group, so all coefficients of a table share one scale.
    """
    out = {}

    def walk(node, group, payload=False):
        if isinstance(node, bool) or node is None or isinstance(node, str):
            return
        if isinstance(node, (int, float)):
            out.setdefault(group, []).append(float(node))
        elif isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], group if payload else group + "/" + key, key == "value")
        else:
            for item in node:
                walk(item, group, payload)

    walk({k: v for k, v in report.items() if k != "checks"}, "")
    return out


def _golden(report, ref):
    got = numbers(report)
    if sorted(got) != sorted(ref["values"]):
        return ["golden: groups differ"]
    errors = []
    for group, want in ref["values"].items():
        have = got[group]
        if len(have) != len(want):
            errors.append("golden %s: %d values, want %d" % (group, len(have), len(want)))
            continue
        scale = max((abs(w) for w in want), default=0.0)
        for i, (h, w) in enumerate(zip(have, want)):
            if not abs(h - w) <= GOLDEN_RTOL * (abs(w) + scale) + GOLDEN_ATOL:
                errors.append("golden %s[%d]: %r, want %r" % (group, i, h, w))
                break
    checks = [[c["tag"], c["residual"]] for c in report["checks"]]
    if [c[0] for c in checks] != [c[0] for c in ref["checks"]]:
        return errors + ["golden: check tags differ"]
    for (tag, have), (_, want, tol) in zip(checks, ref["checks"]):
        if (have is None) != (want is None):
            errors.append("golden %s: residual %r, want %r" % (tag, have, want))
        elif have is not None and not abs(have - want) <= (
                GOLDEN_RTOL * abs(want) + GOLDEN_CHECK_SHARE * tol):
            errors.append("golden %s: residual %r, want %r" % (tag, have, want))
    return errors


def judge(op, code, stdout, c3_vanishes=False, golden=None):
    """Return (errors, honest verdicts, parsed report or None)."""
    if code not in (0, 1):
        return ["exit code %r" % code], [], None
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return ["report does not parse: %s" % exc], [], None
    errors = _structure(op, report)
    if errors:
        return errors, [], report
    errors, honest = _laws(op, report, c3_vanishes)
    if golden is not None:
        if list(op.argv) != golden["argv"]:
            errors.append("golden: argv differs from the reference")
        else:
            errors += _golden(report, golden)
    return errors, honest, report
