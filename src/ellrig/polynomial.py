"""Truncated multivariate polynomials in nilpotent formal generators.

Cohomology classes are represented as polynomials in declared generators
(Chern roots, odd trace generators) with complex coefficients.  Every
monomial whose total weighted degree exceeds the cap is identically zero,
which makes the generators nilpotent by construction and keeps all
arithmetic finite.  Odd generators additionally satisfy a pairwise-product
-zero relation: any monomial containing two odd factors vanishes.

Products are the hot path of every layer above (Lefschetz integrands,
characters, q-series with polynomial coefficients).  Two things keep them
cheap:

* each :class:`Generators` declaration memoises every monomial's weighted
  degree and odd count, and the sum of every pair of monomials it has
  multiplied, so a product looks these up instead of recomputing them per
  pair of terms; the tables belong to the declaration instance and are
  filled on first use;
* results of ring operations (``+``, ``-``, ``*``, ``degree_part``,
  ``nilpotent_part``) are built by a trusted constructor that skips the cap
  and odd-rule filtering their monomials already satisfy.  It still
  rejects non-finite coefficients and drops exact zeros.  The public
  constructor ``ChernPoly(gens, cap, terms)`` validates everything.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import add

from .errors import InversionError, PreconditionError, RingMismatchError

_SCALARS = (int, float, complex, Fraction)


class _Memo(dict):
    """A dict that computes a missing entry with ``fill(key)`` and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class Generators:
    """A declared, ordered generator set with weights and parity flags.

    Two polynomials may be combined only if they were built over the same
    declaration (name, weight and parity for parity, in the same order).

    ``_meta`` maps an exponent tuple to its ``(weighted degree, odd
    count)`` and ``_sums[m1][m2]`` is ``m1 + m2``.  Both are filled on first
    lookup, so monomials of an equal but distinct declaration are simply
    new entries, and hold one entry per monomial seen and per pair of
    monomials multiplied.
    """

    __slots__ = ("names", "weights", "odd", "_pos", "_meta", "_sums")

    def __init__(self, names, weights=None, odd=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RingMismatchError("duplicate generator names: %r" % (names,))
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(int(w) for w in weights)
        if odd is None:
            odd = (False,) * len(names)
        odd = tuple(bool(f) for f in odd)
        if not (len(weights) == len(odd) == len(names)):
            raise RingMismatchError("generator declaration lists differ in length")
        if any(w <= 0 for w in weights):
            raise RingMismatchError("generator weights must be positive")
        self.names = names
        self.weights = weights
        self.odd = odd
        self._pos = {n: i for i, n in enumerate(names)}
        self._meta = _Memo(lambda m: (
            sum(e * w for e, w in zip(m, weights)),
            sum(e for e, f in zip(m, odd) if f),
        ))
        self._sums = _Memo(lambda m1: _Memo(lambda m2: tuple(map(add, m1, m2))))

    @classmethod
    def roots(cls, *names):
        """Even weight-1 generators (formal Chern roots)."""
        return cls(names)

    def index(self, name):
        try:
            return self._pos[name]
        except KeyError:
            raise RingMismatchError("unknown generator %r (declared: %r)" % (name, self.names))

    def weight_of(self, mono):
        return self._meta[mono][0]

    def odd_count(self, mono):
        return self._meta[mono][1]

    def __reduce__(self):
        # the memo tables are rebuilt, not pickled
        return Generators, (self.names, self.weights, self.odd)

    def __eq__(self, other):
        return (
            isinstance(other, Generators)
            and self.names == other.names
            and self.weights == other.weights
            and self.odd == other.odd
        )

    def __hash__(self):
        return hash((self.names, self.weights, self.odd))

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return "Generators(%s)" % ", ".join(
            "%s[w=%d%s]" % (n, w, ", odd" if f else "")
            for n, w, f in zip(self.names, self.weights, self.odd)
        )


class ChernPoly:
    """Polynomial over a :class:`Generators` declaration, truncated at ``cap``.

    ``terms`` maps exponent tuples to complex coefficients.  Normalisation
    drops monomials above the cap, monomials with two or more odd factors,
    and exact-zero coefficients.  Values are immutable by convention: no
    method mutates ``self``.
    """

    __slots__ = ("gens", "cap", "terms")

    def __init__(self, gens, cap, terms):
        self.gens = gens
        self.cap = int(cap)
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != len(gens):
                raise RingMismatchError("monomial %r does not fit %r" % (mono, gens))
            weight, odd = gens._meta[mono]
            if weight > self.cap or odd >= 2:
                continue
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise PreconditionError("non-finite coefficient at %r" % (mono,))
            if c != 0:
                clean[mono] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, gens, cap, terms):
        """Wrap a fresh dict of complex coefficients whose monomials already
        fit the ring (within the cap, at most one odd factor).

        Ring operations build their results here.  It still rejects
        non-finite coefficients and drops exact zeros, as the public
        constructor does, and takes ownership of ``terms``.
        """
        values = terms.values()
        if not all(values):
            terms = {m: c for m, c in terms.items() if c}
            values = terms.values()
        if not all(map(cmath.isfinite, values)):
            mono = next(m for m, c in terms.items() if not cmath.isfinite(c))
            raise PreconditionError("non-finite coefficient at %r" % (mono,))
        poly = object.__new__(cls)
        poly.gens = gens
        poly.cap = cap
        poly.terms = terms
        return poly

    # ------------------------------------------------------------ constructors

    @classmethod
    def scalar(cls, gens, cap, value):
        return cls(gens, cap, {(0,) * len(gens): value})

    @classmethod
    def zero(cls, gens, cap):
        return cls(gens, cap, {})

    @classmethod
    def one(cls, gens, cap):
        return cls.scalar(gens, cap, 1.0)

    @classmethod
    def generator(cls, gens, cap, name, coeff=1.0):
        mono = [0] * len(gens)
        mono[gens.index(name)] = 1
        return cls(gens, cap, {tuple(mono): coeff})

    # ------------------------------------------------------------ inspection

    def coefficient(self, mono):
        """Coefficient of a monomial given as an exponent tuple or name->power map."""
        if isinstance(mono, dict):
            vec = [0] * len(self.gens)
            for name, power in mono.items():
                vec[self.gens.index(name)] = int(power)
            mono = tuple(vec)
        return self.terms.get(tuple(mono), 0j)

    def constant(self):
        return self.terms.get((0,) * len(self.gens), 0j)

    def degree_part(self, d):
        """Monomials of total weighted degree exactly d."""
        meta = self.gens._meta
        keep = {m: c for m, c in self.terms.items() if meta[m][0] == d}
        return ChernPoly._trusted(self.gens, self.cap, keep)

    def nilpotent_part(self):
        keep = {m: c for m, c in self.terms.items() if any(m)}
        return ChernPoly._trusted(self.gens, self.cap, keep)

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = ChernPoly.scalar(self.gens, self.cap, other)
        if not isinstance(other, ChernPoly):
            return NotImplemented
        return (
            self.gens == other.gens
            and self.cap == other.cap
            and self.terms == other.terms
        )

    __hash__ = None

    # ------------------------------------------------------------ arithmetic

    def _coerce(self, other):
        if isinstance(other, _SCALARS):
            return ChernPoly.scalar(self.gens, self.cap, other)
        if isinstance(other, ChernPoly):
            if other.gens != self.gens:
                raise RingMismatchError(
                    "mismatched generator declarations: %r vs %r" % (self.gens, other.gens)
                )
            if other.cap != self.cap:
                raise RingMismatchError(
                    "mismatched degree caps: %d vs %d" % (self.cap, other.cap)
                )
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            merged[mono] = merged.get(mono, 0j) + coeff
        return ChernPoly._trusted(self.gens, self.cap, merged)

    __radd__ = __add__

    def __neg__(self):
        return ChernPoly._trusted(
            self.gens, self.cap, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = complex(other)
            return ChernPoly._trusted(
                self.gens, self.cap, {m: v * c for m, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        gens, cap = self.gens, self.cap
        meta, sums = gens._meta, gens._sums
        right = [(m2, c2) + meta[m2] for m2, c2 in other.terms.items()]
        # the right operand's terms that pair with a left monomial of a
        # given (weight, odd count), in the right operand's order
        partners = {}
        out = {}
        for m1, c1 in self.terms.items():
            wo = meta[m1]
            row = partners.get(wo)
            if row is None:
                room, odd = cap - wo[0], wo[1]
                row = partners[wo] = [
                    (m2, c2) for m2, c2, w2, o2 in right if w2 <= room and not (odd and o2)
                ]
            plus = sums[m1]
            for m2, c2 in row:
                mono = plus[m2]
                out[mono] = out.get(mono, 0j) + c1 * c2
        return ChernPoly._trusted(gens, cap, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self * (1.0 / complex(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        result = ChernPoly.one(self.gens, self.cap)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exp(self):
        """exp of a pure-nilpotent polynomial: finite sum of p^k/k! up to the cap.

        The constant term must be zero; callers split off scalars themselves.
        """
        if self.constant() != 0:
            raise PreconditionError("exp needs a zero constant term; split the scalar off first")
        result = ChernPoly.one(self.gens, self.cap)
        power = ChernPoly.one(self.gens, self.cap)
        for k in range(1, self.cap + 1):
            power = power * self
            if not power:
                break
            result = result + power * (1.0 / math.factorial(k))
        return result

    def inverse(self):
        """Multiplicative inverse; needs an invertible constant term."""
        c = self.constant()
        if c == 0:
            raise InversionError("constant term is zero; polynomial is not invertible")
        n = self.nilpotent_part() * (-1.0 / c)
        result = ChernPoly.one(self.gens, self.cap)
        power = ChernPoly.one(self.gens, self.cap)
        for _ in range(self.cap):
            power = power * n
            if not power:
                break
            result = result + power
        return result * (1.0 / c)

    # ------------------------------------------------------------ display

    def __repr__(self):
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda m: (self.gens.weight_of(m), m))
        return " + ".join(_term_str(self.gens, m, self.terms[m]) for m in ordered)


def _fmt_complex(c):
    if c.imag == 0:
        return "%g" % c.real
    return "(%g%+gj)" % (c.real, c.imag)


def _term_str(gens, mono, coeff):
    names = " ".join(
        n if e == 1 else "%s^%d" % (n, e) for n, e in zip(gens.names, mono) if e
    )
    c = _fmt_complex(coeff)
    return "%s*%s" % (c, names) if names else c
