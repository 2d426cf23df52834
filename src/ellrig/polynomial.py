"""Truncated multivariate polynomials in nilpotent formal generators.

Cohomology classes are represented as polynomials in declared generators
(Chern roots, odd trace generators) with complex coefficients.  Every
monomial whose total weighted degree exceeds the cap is identically zero,
which makes the generators nilpotent by construction and keeps all
arithmetic finite.  Odd generators additionally satisfy a pairwise-product
-zero relation: any monomial containing two odd factors vanishes.

Each monomial is one packed ``int`` over its :class:`Generators`
declaration (:meth:`Generators.key`).  Generator i's exponent sits in
``FIELD_BITS`` bits at bit ``FIELD_BITS * i``; above the n exponent
fields one bit holds the odd count, and everything above that the
weighted degree.  Every field of a product of two monomials the ring
keeps is the sum of their fields, and no field overflows into the next,
so m1 * m2 is ``m1 + m2``, m^k is ``k * m``, 1 is ``0``, and the degree
and odd count are shifts and masks.  This needs every exponent to fit its
field: a ring's cap is at most ``MAX_CAP``, and a larger one is a
``CapacityError``.  Exponent tuples appear only at the boundary: the
public constructor, :meth:`ChernPoly.generator`,
:meth:`ChernPoly.coefficient` and the text of a monomial
(:meth:`Generators.exponents`, :func:`format_monomial`).

Products are the hot path of every layer above (Lefschetz integrands,
characters, q-series with polynomial coefficients).  A product tests each
pair of monomials on its packed fields: the ring keeps m1 * m2 when the
degrees add up to at most the cap and at most one of them is odd.  Four
things keep products cheap besides the packed monomials:

* results of ring operations (``+``, ``-``, ``*``, ``nilpotent_part``)
  and the constants they start from are built by a trusted constructor
  that skips the filtering their monomials already satisfy.  It still
  drops exact zeros, and a non-finite coefficient there, which the
  operation made (it overflowed), is a ``CapacityError``.  The public
  constructor ``ChernPoly(gens, cap, terms)`` validates everything: it
  refuses a negative or non-integer exponent and non-finite input as a
  ``PreconditionError``;
* operands are dispatched on their exact type: a ``ChernPoly`` operand is
  recognised by ``type(other) is ChernPoly`` and never reaches the
  ``isinstance`` test against the scalar types (``Fraction`` is an ABC, so
  that test is slow when it fails), and an operand over the very same
  declaration object skips the field-by-field ``Generators`` comparison.
  Equal-but-distinct declarations still combine; mismatched ones raise;
* a product by the unit polynomial, whose one term is 1 at the monomial 1
  (1+0j, or 1-0j), runs no pair loop: it copies the other operand's terms,
  each as ``0j + c``, in their order.  The loop would store
  ``0j + c * u`` (or ``u * c``) for that unit u.  For a finite c, the
  product by u keeps each nonzero part of c, since its cross term is a
  zero; a zero part comes out as +0.0 or -0.0, and the sum with 0j makes it
  +0.0, as ``0j + c`` does.
  So the copy is bit-identical to the loop, signed zeros included.  The
  operand itself is not returned: its -0.0 parts would survive;
* ``exp`` of a one-term polynomial c m is written down directly as
  sum_k (c^k/k!) m^k, with the scalar operations the general power loop
  would do, so it is bit-identical to that loop without its ring products.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import index, mul

from .errors import CapacityError, InversionError, PreconditionError, RingMismatchError

_SCALARS = (int, float, complex, Fraction)

FIELD_BITS = 8
MAX_CAP = (1 << FIELD_BITS) - 1

# the terms of the unit polynomial 1; a dict compares equal to it when its
# one key is 0 and its value is 1+0j or 1-0j
_UNIT = {0: 1 + 0j}


def inverse_factorial(k):
    """1/k! as a float; a CapacityError past k = 170, where k! leaves a
    float's range (1/k! is then below the normal floats)."""
    try:
        return 1.0 / math.factorial(k)
    except OverflowError:
        raise CapacityError("1/%d! is out of float range; lower the degree cap" % k) from None


class Generators:
    """A declared, ordered generator set with weights and parity flags.

    Two polynomials may be combined only if they were built over the same
    declaration: the same names, weights and parities, in the same order.
    A ring over it at a cap keeps the monomials within the cap and the odd
    rule.  The packed layout of its monomials (module docstring) depends on
    the declaration only: ``_shift`` is the bit of the odd field, and
    ``_units[i]`` is the key of generator i.
    """

    __slots__ = ("names", "weights", "odd", "_pos", "_shift", "_units")

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
        shift = self._shift = FIELD_BITS * len(names)
        self._units = tuple((1 << FIELD_BITS * i) + (w << shift + 1) + (f << shift)
                            for i, (w, f) in enumerate(zip(weights, odd)))

    def index(self, name):
        try:
            return self._pos[name]
        except KeyError:
            raise RingMismatchError("unknown generator %r (declared: %r)" % (name, self.names))

    def key(self, exps, cap):
        """The packed monomial of the exponent tuple ``exps``, or None when
        the ring at ``cap`` does not keep it: above the cap, or two or more
        odd factors.  A kept monomial's exponents are at most ``cap``, so
        for a cap up to MAX_CAP every field holds its value."""
        if len(exps) != len(self.names):
            raise RingMismatchError("monomial %r does not fit %r" % (exps, self))
        try:
            exps = tuple(map(index, exps))
        except TypeError:
            raise PreconditionError("exponents must be integers: %r" % (exps,)) from None
        if any(e < 0 for e in exps):
            raise PreconditionError("exponents must be non-negative: %r" % (exps,))
        if (sum(map(mul, exps, self.weights)) > cap
                or sum(e for e, f in zip(exps, self.odd) if f) > 1):
            return None
        return sum(map(mul, exps, self._units))

    def exponents(self, mono):
        """The exponent tuple of a packed monomial."""
        return tuple(mono >> s & MAX_CAP for s in range(0, self._shift, FIELD_BITS))

    def weight_of(self, mono):
        return mono >> self._shift + 1

    def odd_count(self, mono):
        return mono >> self._shift & 1

    def top_power(self, mono, cap):
        """The largest k for which the ring at ``cap`` keeps mono^k, for a
        monomial other than 1.  The ring keeps 1, mono, ..., mono^k."""
        weight = self.weight_of(mono)
        return min(1, cap // weight) if self.odd_count(mono) else cap // weight

    def __reduce__(self):
        # the layout is rebuilt from the declaration, not pickled
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

    ``terms`` maps packed monomials (module docstring) to complex
    coefficients.  The public constructor takes exponent tuples instead,
    and drops the monomials the ring does not keep (:meth:`Generators.key`:
    above the cap, or two or more odd factors) and exact-zero coefficients.
    Values are immutable by convention: no method mutates ``self``.
    """

    __slots__ = ("gens", "cap", "terms")

    def __init__(self, gens, cap, terms):
        self.gens = gens
        self.cap = int(cap)
        if self.cap > MAX_CAP:
            raise CapacityError("degree cap %d is above %d, the largest exponent a monomial "
                                "holds" % (self.cap, MAX_CAP))
        clean = {}
        for exps, coeff in terms.items():
            mono = gens.key(exps, self.cap)
            if mono is None:
                continue
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise PreconditionError("non-finite coefficient at %r" % (tuple(exps),))
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
                                % (gens.exponents(mono),))
        poly = object.__new__(cls)
        poly.gens = gens
        poly.cap = cap
        poly.terms = terms
        return poly

    def __reduce__(self):
        # slots without __getstate__ do not pickle under protocols 0 and 1;
        # the terms are already kept, so the trusted constructor takes them
        return ChernPoly._trusted, (self.gens, self.cap, self.terms)

    @classmethod
    def _scalar(cls, gens, cap, value):
        """:meth:`scalar` for the ring's own constants, without validation;
        every ring of cap >= 0 keeps the monomial 1."""
        return cls._trusted(gens, cap, {0: complex(value)} if cap >= 0 else {})

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
                vec[self.gens.index(name)] = power
            mono = vec
        key = self.gens.key(tuple(mono), self.cap)
        return 0j if key is None else self.terms.get(key, 0j)

    def constant(self):
        return self.terms.get(0, 0j)

    def nilpotent_part(self):
        keep = {m: c for m, c in self.terms.items() if m}
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
        # a product by the unit polynomial (module docstring) is a copy of
        # the other operand, each zero part made +0.0 as the loop's 0j + c
        # makes it
        if other.terms == _UNIT:
            return ChernPoly._trusted(gens, cap, {m: 0j + c for m, c in self.terms.items()})
        if self.terms == _UNIT:
            return ChernPoly._trusted(gens, cap, {m: 0j + c for m, c in other.terms.items()})
        shift = gens._shift
        weight = shift + 1
        right = other.terms.items()
        out = {}
        get = out.get
        for m1, c1 in self.terms.items():
            # the ring keeps m1 * m2 when the degrees fit the cap and the
            # odd bits are not both set
            room = cap - (m1 >> weight)
            odd = m1 >> shift & 1
            for m2, c2 in right:
                if m2 >> weight <= room and not (odd and m2 >> shift & 1):
                    mono = m1 + m2
                    out[mono] = get(mono, 0j) + c1 * c2
        return ChernPoly._trusted(gens, cap, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not ChernPoly and isinstance(other, _SCALARS):
            if other == 0:
                raise InversionError("division by zero; a zero scalar is not invertible")
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
            result = result + power * inverse_factorial(k)
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
        terms = {0: 1 + 0j}
        power = 1 + 0j
        for k in range(1, top + 1):
            power = 0j + power * c
            if not power:
                break
            terms[k * mono] = 0j + power * complex(inverse_factorial(k))
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
        gens = self.gens
        ordered = sorted((gens.weight_of(m), gens.exponents(m), c) for m, c in self.terms.items())
        return " + ".join(_term_str(gens, exps, c) for _, exps, c in ordered)


def _fmt_complex(c):
    if c.imag == 0:
        return "%g" % c.real
    return "(%g%+gj)" % (c.real, c.imag)


def format_monomial(gens, mono):
    """A monomial of ``gens``, given by its exponent tuple, as text:
    'y1^2 z1', or '1' for the empty one."""
    return " ".join(
        n if e == 1 else "%s^%d" % (n, e) for n, e in zip(gens.names, mono) if e
    ) or "1"


def _term_str(gens, mono, coeff):
    c = _fmt_complex(coeff)
    return "%s*%s" % (c, format_monomial(gens, mono)) if any(mono) else c
