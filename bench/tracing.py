"""Per-layer tracing of ellrig, installed from outside the program.

The coarse layers (cli, lefschetz, characters, theta) get one span per call:
name, start, duration, self time, operation id and parent span id.  Spans
are kept in memory and written out when the run ends.  The ring layers
(polynomial, series) run 10^4-10^5 times per operation, so their calls are
only counted and timed, per function and per enclosing span.

Every module binding of a wrapped function is replaced: ``from .theta
import theta_eval`` binds the name again in characters, lefschetz and cli,
and ``__rmul__ = __mul__`` is a second class attribute.

Self time is a call's duration minus the calls it made into wrapped
functions.  Bookkeeping (operation counts, argument keys) runs outside the
timed interval, and its cost is also taken out of every enclosing span.
"""

from __future__ import annotations

import sys
import time

clock = time.perf_counter


def _tau_key(tau):
    return (tau.value, tau.min_im) if hasattr(tau, "min_im") else complex(tau)


def _poly_key(v):
    return (v.gens, v.cap, tuple(sorted(v.terms.items())))


class Stat:
    """Totals of one traced function; ``keys`` holds the current operation's
    argument keys until ``Tracer.begin_op`` folds them into ``distinct``."""

    __slots__ = ("calls", "s", "self_s", "pairs", "kept", "keys", "distinct", "factors")

    def __init__(self):
        self.calls = 0
        self.s = self.self_s = 0.0
        self.pairs = self.kept = self.distinct = self.factors = 0
        self.keys = set()


class Tracer:
    """Spans, counters and self times of one traced run; ``with`` installs it."""

    def __init__(self):
        self.stats = {}
        self.ring_by_span = {}  # (span name, ring function) -> [calls, self_s]
        self.spans = []  # (op, span id, parent id, name, start, duration, self)
        self._stack = []  # open frames: [start, excluded at start, child time, span name, span id]
        self._excluded = 0.0
        self._next_id = 0
        self._t0 = clock()
        self._gens_cache = {}
        self._patches = []
        self.op = None

    # ------------------------------------------------------------ operations

    def begin_op(self, op_id):
        self.op = op_id
        for stat in self.stats.values():
            stat.distinct += len(stat.keys)
            stat.keys.clear()

    def finish(self):
        self.begin_op(None)

    def stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    # ------------------------------------------------------------ timing core

    def call(self, name, span, fn, args, kwargs, after=None):
        """Run fn under a frame; ``after(stat, args, kwargs, result)`` counts work."""
        t_book = clock()
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, 0.0, 0.0, name if span else (parent[3] if parent else None), span_id]
        stack.append(frame)
        t0 = clock()
        self._excluded += t0 - t_book
        frame[0] = t0
        frame[1] = self._excluded
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            incl = (t1 - frame[0]) - (self._excluded - frame[1])
            own = incl - frame[2]
            if parent is not None:
                parent[2] += incl
            stat = self.stat(name)
            stat.calls += 1
            stat.s += incl
            stat.self_s += own
            if span:
                self.spans.append((self.op, span_id, parent[4] if parent else None, name,
                                   frame[0] - self._t0, incl, own))
            else:
                key = (frame[3], name)
                agg = self.ring_by_span.get(key)
                if agg is None:
                    agg = self.ring_by_span[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += own
            self._excluded += clock() - t1
        if after is not None:
            t2 = clock()
            after(stat, args, kwargs, result)
            self._excluded += clock() - t2
        return result

    # ------------------------------------------------------------ wrappers

    def wrap(self, name, fn, span=True, after=None, name_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name_of(args) if name_of is not None else name
            return tracer.call(label, span, fn, args, kwargs, after)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _weight_odd(self, gens, info, mono):
        wo = info.get(mono)
        if wo is None:
            wo = info[mono] = (gens.weight_of(mono), gens.odd_count(mono))
        return wo

    def count_poly_mul(self, stat, args, kwargs, result):
        a, b = args
        if result is NotImplemented:
            stat.calls -= 1
            return
        if not hasattr(b, "terms"):
            return
        gens, cap = a.gens, a.cap
        info = self._gens_cache.setdefault(gens, {})
        wb = [self._weight_odd(gens, info, m) for m in b.terms]
        stat.pairs += len(a.terms) * len(wb)
        for m in a.terms:
            w1, o1 = self._weight_odd(gens, info, m)
            for w2, o2 in wb:
                if w1 + w2 <= cap and not (o1 and o2):
                    stat.kept += 1

    @staticmethod
    def count_series_mul(stat, args, kwargs, result):
        a, b = args
        if hasattr(b, "order") and hasattr(b, "terms"):
            stat.pairs += len(a.terms) * len(b.terms)

    @staticmethod
    def count_key(key_of):
        def after(stat, args, kwargs, result):
            stat.keys.add(key_of(args, kwargs))
        return after

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap ellrig's layer functions in every module that binds them."""
        from ellrig import characters, cli, lefschetz, theta
        from ellrig.polynomial import ChernPoly
        from ellrig.series import QSeries

        def theta_name(args):
            return ("theta.theta_eval.jet" if hasattr(args[1], "terms")
                    else "theta.theta_eval.scalar")

        def after_theta(stat, args, kwargs, result):
            tau = theta.TauPoint.coerce(args[2])
            terms = args[3] if len(args) > 3 else kwargs.get("product_terms")
            factors = 2 * tau.product_terms(terms)
            self.stat("theta.theta_eval").factors += factors
            if hasattr(args[1], "terms"):
                stat.keys.add((args[0], _poly_key(args[1]), _tau_key(args[2]), terms))

        lef_key = self.count_key(lambda a, kw: (
            id(a[0]), repr(a[1]), complex(a[2]), _tau_key(a[3]), a[4:], tuple(sorted(kw.items()))))
        odd_key = self.count_key(lambda a, kw: (
            a[0], a[1], _tau_key(a[2]), tuple(sorted(kw.items()))))

        functions = [
            (theta.theta_eval, self.wrap("theta.theta_eval", theta.theta_eval,
                                         after=after_theta, name_of=theta_name)),
        ]
        for mod, prefix, names in (
                (theta, "theta", ("theta_eval_regularized", "theta_qseries",
                                  "theta_qseries_regularized")),
                (characters, "characters", ("ch_theta_twist", "ch_twist_oracle",
                                            "ch_power_op")),
                (lefschetz, "lefschetz", ("assemble_integrand", "rigidity_sweep",
                                          "modular_residual", "translation_anomaly_check",
                                          "periodicity_residual", "pole_scan")),
                (cli, "cli", ("build_parser", "load_document", "emit"))):
            for fname in names:
                fn = getattr(mod, fname)
                functions.append((fn, self.wrap("%s.%s" % (prefix, fname), fn)))
        functions.append((characters.odd_ch_Q, self.wrap(
            "characters.odd_ch_Q", characters.odd_ch_Q, after=odd_key)))
        functions.append((lefschetz.lefschetz_eval, self.wrap(
            "lefschetz.lefschetz_eval", lefschetz.lefschetz_eval, after=lef_key)))
        modules = [m for n, m in sys.modules.items()
                   if (n == "ellrig" or n.startswith("ellrig.")) and m is not None]
        for original, wrapper in functions:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

        ring = (
            (ChernPoly, "polynomial.mul", ChernPoly.__mul__, self.count_poly_mul),
            (ChernPoly, "polynomial.add", ChernPoly.__add__, None),
            (ChernPoly, "polynomial.inverse", ChernPoly.inverse, None),
            (ChernPoly, "polynomial.exp", ChernPoly.exp, None),
            (QSeries, "series.mul", QSeries.__mul__, self.count_series_mul),
            (QSeries, "series.inverse", QSeries.inverse, None),
        )
        for cls, name, original, after in ring:
            wrapper = self.wrap(name, original, span=False, after=after)
            for attr, value in list(vars(cls).items()):
                if value is original:
                    self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ output

    def write(self, path):
        """Write spans, per-function totals and ring counters as JSON lines."""
        import json

        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["op", "span", "parent", "name", "start_s",
                                            "s", "self_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name, st in sorted(self.stats.items()):
                fh.write(json.dumps({"stat": name, "calls": st.calls, "s": st.s,
                                     "self_s": st.self_s, "pairs": st.pairs, "kept": st.kept,
                                     "distinct": st.distinct, "factors": st.factors}) + "\n")
            for (parent, name), (calls, own) in sorted(
                    self.ring_by_span.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
                fh.write(json.dumps({"ring": name, "in_span": parent, "calls": calls,
                                     "self_s": own}) + "\n")
