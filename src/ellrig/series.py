"""Truncated formal q-series on the eighth-integer exponent lattice.

Exponents are exact: a :class:`QExponent` stores the numerator of n/8 as an
integer, so lattice arithmetic never touches floating point.  Coefficients
live in a pluggable ring; complex numbers and :class:`~ellrig.polynomial.
ChernPoly` values are the two shipped instances and may be mixed term by
term (scalars absorb into polynomials).

A series knows only its coefficients strictly below ``order``; asking for a
coefficient at or beyond the order is an error, not zero.  Negative
exponents (Laurent tails) arise only through explicit inversion or
division and stay bounded by the operands' supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InversionError, OrderError

_SCALARS = (int, float, complex, Fraction)


@dataclass(frozen=True, order=True)
class QExponent:
    """Exponent of q as an exact multiple of 1/8."""

    eighths: int

    @classmethod
    def of(cls, value):
        """Coerce an int, Fraction or QExponent onto the lattice."""
        if isinstance(value, QExponent):
            return value
        if isinstance(value, int):
            return cls(8 * value)
        if isinstance(value, Fraction):
            num = value * 8
            if num.denominator != 1:
                raise DomainError("%s is not on the (1/8)-integer lattice" % value)
            return cls(int(num))
        raise DomainError(
            "exponents must be integers, Fractions or QExponent, got %r" % (value,)
        )

    def as_fraction(self):
        return Fraction(self.eighths, 8)

    def __add__(self, other):
        return QExponent(self.eighths + QExponent.of(other).eighths)

    def __sub__(self, other):
        return QExponent(self.eighths - QExponent.of(other).eighths)

    def __neg__(self):
        return QExponent(-self.eighths)

    def __mul__(self, n):
        return QExponent(self.eighths * int(n))

    __rmul__ = __mul__

    def __str__(self):
        f = self.as_fraction()
        return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)

    def __repr__(self):
        return "QExponent(%s)" % self


def qexp(value):
    """Shorthand coercion onto the exponent lattice."""
    return QExponent.of(value)


DEFAULT_NUMERIC_ORDER = qexp(30)


def _is_zero_coeff(c):
    # exact ring zero only: complex 0, empty polynomial
    return not c


class QSeries:
    """Formal series sum(terms[e] * q^e) known exactly for e < order."""

    __slots__ = ("terms", "order")

    def __init__(self, terms, order, _allow_laurent=False):
        order = QExponent.of(order)
        clean = {}
        for e, c in terms.items():
            e = QExponent.of(e)
            if e >= order:
                continue
            if not _allow_laurent and e.eighths < 0:
                raise DomainError(
                    "negative exponent q^(%s) in plain construction; "
                    "Laurent tails arise only via explicit inversion" % e
                )
            if _is_zero_coeff(c):
                continue
            clean[e] = c
        self.terms = clean
        self.order = order

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, order=DEFAULT_NUMERIC_ORDER):
        return cls({}, order)

    @classmethod
    def one(cls, order=DEFAULT_NUMERIC_ORDER):
        return cls({qexp(0): 1.0}, order)

    @classmethod
    def monomial(cls, exponent, coeff=1.0, order=DEFAULT_NUMERIC_ORDER):
        return cls({QExponent.of(exponent): coeff}, order)

    @classmethod
    def _raw(cls, terms, order):
        return cls(terms, order, _allow_laurent=True)

    # ------------------------------------------------------------ inspection

    def coeff(self, exponent):
        """Stored coefficient, or ring zero for absent exponents below the order."""
        e = QExponent.of(exponent)
        if e >= self.order:
            raise OrderError(
                "coefficient of q^(%s) is beyond the truncation order q^(%s); "
                "the value is unknown, not zero" % (e, self.order)
            )
        return self.terms.get(e, 0j)

    def min_exponent(self):
        """Smallest exponent in the support; the order itself for the zero series."""
        return min(self.terms) if self.terms else self.order

    def support(self):
        return sorted(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = QSeries({qexp(0): other}, self.order)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    __hash__ = None

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other):
        if isinstance(other, QSeries):
            order = min(self.order, other.order)
            merged = {}
            for e, c in self.terms.items():
                if e < order:
                    merged[e] = c
            for e, c in other.terms.items():
                if e < order:
                    merged[e] = merged.get(e, 0) + c
            return QSeries._raw(merged, order)
        # scalar: absorbed into the constant coefficient
        merged = dict(self.terms)
        z = qexp(0)
        merged[z] = merged.get(z, 0) + other
        return QSeries._raw(merged, self.order)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._raw({e: -c for e, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return QSeries._raw(
                {e: c * other for e, c in self.terms.items()}, self.order
            )
        # Cauchy product; the result order accounts for the operands'
        # minimum exponents (lower tails shift what is knowable).
        order = min(self.order + other.min_exponent(), other.order + self.min_exponent())
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e >= order:
                    continue
                prod = c1 * c2
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        return QSeries._raw(out, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return self * other.inverse()
        return self * _coeff_inverse(other)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        result = QSeries._raw({qexp(0): 1.0}, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self, allow_laurent=True):
        """Multiplicative inverse.

        The lowest-order coefficient must be invertible in the ring.  When
        the support starts above q^0 the inverse has a Laurent tail; callers
        that must stay on nonnegative exponents disable it and get an error
        instead of a silent pole.
        """
        if not self.terms:
            raise InversionError("the zero series has no inverse")
        m = self.min_exponent()
        if m.eighths > 0 and not allow_laurent:
            raise InversionError(
                "support starts at q^(%s); inverse needs a Laurent tail "
                "which is disabled here" % m
            )
        lead = self.terms[m]
        lead_inv = _coeff_inverse(lead)
        # write self = lead * q^m * (1 + u) with u supported on positive exponents
        span = self.order - m  # coefficients of (1+u) known below span
        u = {}
        for e, c in self.terms.items():
            if e == m:
                continue
            u[(e - m).eighths] = lead_inv * c
        inv = {0: 1.0}
        if u:
            step = math.gcd(*u.keys())
            for n in range(step, span.eighths, step):
                acc = None
                for f, cf in u.items():
                    if f > n:
                        continue
                    prev = inv.get(n - f)
                    if prev is None:
                        continue
                    piece = cf * prev
                    acc = piece if acc is None else acc + piece
                if acc is not None and not _is_zero_coeff(acc):
                    inv[n] = -acc
        # inverse = lead_inv * q^{-m} * sum(inv[n] q^{n/8}), known below span - m
        out = {QExponent(n) - m: inv_c * lead_inv for n, inv_c in inv.items()}
        return QSeries._raw(out, span - m)

    def truncate(self, order):
        order = QExponent.of(order)
        if order > self.order:
            raise OrderError(
                "cannot extend truncation order q^(%s) to q^(%s)" % (self.order, order)
            )
        return QSeries._raw({e: c for e, c in self.terms.items() if e < order}, order)

    def evaluate(self, q):
        """Numerically sum the truncated series at a complex q (|q| < 1)."""
        total = 0
        for e, c in self.terms.items():
            total = total + c * q ** (e.eighths / 8.0)
        return total

    # ------------------------------------------------------------ display

    def __repr__(self):
        if not self.terms:
            return "O(q^(%s))" % self.order
        bits = []
        for e in self.support():
            c = self.terms[e]
            if e.eighths == 0:
                bits.append("%r" % (c,))
            else:
                bits.append("%r*q^(%s)" % (c, e))
        return " + ".join(bits) + " + O(q^(%s))" % self.order


def _coeff_inverse(c):
    if isinstance(c, _SCALARS):
        if c == 0:
            raise InversionError("leading coefficient is zero")
        return 1.0 / c
    try:
        return c.inverse()
    except AttributeError:
        raise InversionError("coefficient %r is not invertible" % (c,))
