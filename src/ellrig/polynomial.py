"""Truncated multivariate polynomials in nilpotent formal generators.

Cohomology classes are represented as polynomials in declared generators
(Chern roots, odd trace generators) with complex coefficients.  Every
monomial whose total weighted degree exceeds the cap is identically zero,
which makes the generators nilpotent by construction and keeps all
arithmetic finite.  Odd generators additionally satisfy a pairwise-product
-zero relation: any monomial containing two odd factors vanishes.

A ring keeps every monomial within its cap and the odd rule, and nothing
else (:meth:`Generators.keeps`).

Products are the hot path of every layer above (Lefschetz integrands,
characters, q-series with polynomial coefficients).  Five things keep them
cheap:

* each :class:`Generators` declaration memoises every monomial's weighted
  degree and odd count, and the sum of every pair of monomials it has
  multiplied, so a product looks these up instead of recomputing them per
  pair of terms; the tables belong to the declaration instance and are
  filled on first use;
* results of ring operations (``+``, ``-``, ``*``, ``degree_part``,
  ``nilpotent_part``) and the constants they start from are built by a
  trusted constructor that skips the filtering their monomials already
  satisfy.  It still drops exact zeros, and a non-finite coefficient
  there, which the operation made (it overflowed), is a ``CapacityError``.
  The public constructor ``ChernPoly(gens, cap, terms)`` validates
  everything, and refuses non-finite input as a ``PreconditionError``;
* operands are dispatched on their exact type: a ``ChernPoly`` operand is
  recognised by ``type(other) is ChernPoly`` and never reaches the
  ``isinstance`` test against the scalar types (``Fraction`` is an ABC, so
  that test is slow when it fails), and an operand over the very same
  declaration object skips the field-by-field ``Generators`` comparison.
  Equal-but-distinct declarations still combine; mismatched ones raise;
* ``exp`` of a one-term polynomial c m is written down directly as
  sum_k (c^k/k!) m^k, with the scalar operations the general power loop
  would do, so it is bit-identical to that loop without its ring products;
* a product keeps, on its right operand, the partner rows it builds: per
  (weighted degree, odd count) of a left monomial, the right operand's
  terms its product keeps (:meth:`Generators._partners`).  A row depends
  only on that pair and on the right operand's terms, ring and cap, and
  values are never mutated, so every later product by the same operand
  reuses it.  In a q-series Cauchy product each right coefficient meets
  every left one.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import add

from .errors import CapacityError, InversionError, PreconditionError, RingMismatchError

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
    declaration: the same names, weights and parities, in the same order.
    A ring over it at a cap keeps the monomials within the cap and the odd
    rule (:meth:`keeps`).

    ``_meta`` maps an exponent tuple to its ``(weighted degree, odd
    count)`` and ``_sums[m1][m2]`` is ``m1 + m2``.  Both are filled on first
    lookup, so monomials of an equal but distinct declaration are simply
    new entries, and hold one entry per monomial seen and per pair of
    monomials multiplied.  The partners of m in a product depend only on
    ``_meta[m]``.
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

    def index(self, name):
        try:
            return self._pos[name]
        except KeyError:
            raise RingMismatchError("unknown generator %r (declared: %r)" % (name, self.names))

    def weight_of(self, mono):
        return self._meta[mono][0]

    def odd_count(self, mono):
        return self._meta[mono][1]

    def keeps(self, mono, cap):
        """Whether a ring over this declaration at ``cap`` keeps ``mono``."""
        weight, odd = self._meta[mono]
        return weight <= cap and odd < 2

    def top_power(self, mono, cap):
        """The largest k for which the ring at ``cap`` keeps mono^k, for a
        monomial other than 1.  The ring keeps 1, mono, ..., mono^k."""
        weight, odd = self._meta[mono]
        return min(1, cap // weight) if odd else cap // weight

    def _partners(self, m1, cap, terms):
        """The (m2, c2) of ``terms`` whose product with m1 the ring at ``cap``
        keeps, in order.  This is :meth:`keeps` on m1 + m2: degrees and odd
        counts add.
        """
        meta = self._meta
        weight, odd = meta[m1]
        room = cap - weight
        return [(m2, c2) for m2, c2 in terms.items()
                if meta[m2][0] <= room and not (odd and meta[m2][1])]

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
        declared = ", ".join(
            "%s[w=%d%s]" % (n, w, ", odd" if f else "")
            for n, w, f in zip(self.names, self.weights, self.odd)
        )
        return "Generators(%s)" % declared


class ChernPoly:
    """Polynomial over a :class:`Generators` declaration, truncated at ``cap``.

    ``terms`` maps exponent tuples to complex coefficients.  Normalisation
    drops the monomials the ring does not keep (:meth:`Generators.keeps`:
    above the cap, or two or more odd factors) and exact-zero coefficients.  Values are immutable by convention: no
    method mutates ``self``.

    ``_rows`` holds the partner rows that products by this value have built
    (module docstring), or None before the first one; ``==``, ``repr`` and
    pickling ignore it.
    """

    __slots__ = ("gens", "cap", "terms", "_rows")

    def __init__(self, gens, cap, terms):
        self.gens = gens
        self.cap = int(cap)
        self._rows = None
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != len(gens):
                raise RingMismatchError("monomial %r does not fit %r" % (mono, gens))
            if not gens.keeps(mono, self.cap):
                continue
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise PreconditionError("non-finite coefficient at %r" % (mono,))
            if c != 0:
                clean[mono] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, gens, cap, terms):
        """Wrap a fresh dict of complex coefficients whose monomials the ring
        already keeps.

        Ring operations build their results here.  It still drops exact
        zeros, as the public constructor does, and takes ownership of
        ``terms``.  A non-finite coefficient here was made by the operation
        (it overflowed), so it is a CapacityError, where the public
        constructor refuses non-finite input as a PreconditionError.
        """
        values = terms.values()
        if not all(values):
            terms = {m: c for m, c in terms.items() if c}
            values = terms.values()
        if not all(map(cmath.isfinite, values)):
            mono = next(m for m, c in terms.items() if not cmath.isfinite(c))
            raise CapacityError("a ring operation overflowed: non-finite coefficient at %r"
                                % (mono,))
        poly = object.__new__(cls)
        poly.gens = gens
        poly.cap = cap
        poly.terms = terms
        poly._rows = None
        return poly

    def __reduce__(self):
        # the partner rows are rebuilt, not pickled
        return ChernPoly._trusted, (self.gens, self.cap, self.terms)

    @classmethod
    def _scalar(cls, gens, cap, value):
        """:meth:`scalar` for the ring's own constants, without validation;
        every ring of cap >= 0 keeps the monomial 1."""
        return cls._trusted(gens, cap, {(0,) * len(gens): complex(value)} if cap >= 0 else {})

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
        if type(other) is not ChernPoly and isinstance(other, _SCALARS):
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
        """other as a polynomial of this ring, or None for an operand that is
        neither a scalar nor a ChernPoly.  Operands are dispatched on their
        exact type first, and a shared declaration skips the field-by-field
        comparison."""
        if type(other) is not ChernPoly:
            if isinstance(other, _SCALARS):
                return ChernPoly._scalar(self.gens, self.cap, other)
            if not isinstance(other, ChernPoly):
                return None
        if other.gens is not self.gens and other.gens != self.gens:
            raise RingMismatchError(
                "mismatched generator declarations: %r vs %r" % (self.gens, other.gens)
            )
        if other.cap != self.cap:
            raise RingMismatchError(
                "mismatched degree caps: %d vs %d" % (self.cap, other.cap)
            )
        return other

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
        if type(other) is not ChernPoly and isinstance(other, _SCALARS):
            c = complex(other)
            if c == 1:
                # a ChernPoly is never mutated, so it is its own product by 1
                return self
            return ChernPoly._trusted(
                self.gens, self.cap, {m: v * c for m, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        gens, cap = self.gens, self.cap
        sums, meta = gens._sums, gens._meta
        # the right operand's terms whose product with a left monomial the
        # ring keeps, per (weighted degree, odd count) of that monomial, in
        # the right operand's order; stored on the right operand for its
        # later products
        rows = other._rows
        if rows is None:
            rows = other._rows = {}
        terms = other.terms
        out = {}
        for m1, c1 in self.terms.items():
            key = meta[m1]
            row = rows.get(key)
            if row is None:
                row = rows[key] = gens._partners(m1, cap, terms)
            plus = sums[m1]
            for m2, c2 in row:
                mono = plus[m2]
                out[mono] = out.get(mono, 0j) + c1 * c2
        return ChernPoly._trusted(gens, cap, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not ChernPoly and isinstance(other, _SCALARS):
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
        result = ChernPoly._scalar(self.gens, self.cap, 1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def exp(self):
        """exp of a pure-nilpotent polynomial: finite sum of p^k/k! up to the cap.

        The constant term must be zero; callers split off scalars themselves.
        """
        if self.constant() != 0:
            raise PreconditionError("exp needs a zero constant term; split the scalar off first")
        if len(self.terms) == 1:
            return self._exp_one_term()
        result = power = ChernPoly._scalar(self.gens, self.cap, 1.0)
        for k in range(1, self.cap + 1):
            power = power * self
            if not power:
                break
            result = result + power * (1.0 / math.factorial(k))
        return result

    def _exp_one_term(self):
        """exp(c m) = sum_k (c^k/k!) m^k for one term c m, without ring products.

        Each coefficient comes from the scalar operations the power loop of
        :meth:`exp` does on this input, in the same order (the ``0j +`` is
        the accumulation into an empty slot), so the result is bit-identical,
        signed zeros included.  The sum stops at the top power the ring
        keeps (:meth:`Generators.top_power`), or where c^k underflows to zero.
        """
        ((mono, c),) = self.terms.items()
        gens = self.gens
        top = gens.top_power(mono, self.cap)
        terms = {(0,) * len(gens): 1 + 0j}
        power = 1 + 0j
        for k in range(1, top + 1):
            power = 0j + power * c
            if not power:
                break
            terms[tuple(k * e for e in mono)] = 0j + power * complex(1.0 / math.factorial(k))
        return ChernPoly._trusted(gens, self.cap, terms)

    def inverse(self):
        """Multiplicative inverse; needs an invertible constant term."""
        c = self.constant()
        if c == 0:
            raise InversionError("constant term is zero; polynomial is not invertible")
        n = self.nilpotent_part() * (-1.0 / c)
        result = power = ChernPoly._scalar(self.gens, self.cap, 1.0)
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


def format_monomial(gens, mono):
    """A monomial of ``gens`` as text, 'y1^2 z1', or '1' for the empty one."""
    return " ".join(
        n if e == 1 else "%s^%d" % (n, e) for n, e in zip(gens.names, mono) if e
    ) or "1"


def _term_str(gens, mono, coeff):
    c = _fmt_complex(coeff)
    return "%s*%s" % (c, format_monomial(gens, mono)) if any(mono) else c
