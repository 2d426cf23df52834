"""Truncated formal q-series on the eighth-integer exponent lattice.

Exponents are exact: q^(n/8) is stored as the integer n, so lattice
arithmetic never touches floating point.  Inside a series the keys of
``terms`` are plain ``int`` eighths, and products, sums, inverses and
truncation do plain integer arithmetic on them.  At the public surface
(``order``, :meth:`QSeries.support`, :meth:`QSeries.min_exponent`,
:meth:`QSeries.coeff`, :func:`qexp`) an exponent is a :class:`QExponent`,
an ``int`` subclass whose value is its eighths.  So it hashes and compares
as that int: ``s.terms[qexp(-1)]`` finds the key -8, and
``QExponent(8) == 8`` holds, while ``qexp(1) == 1`` is false (qexp(1) is
eight eighths).  Its own ``+``, ``-`` and ``*`` read a plain int operand as
a whole power of q, as :meth:`QExponent.of` does.

Coefficients live in a pluggable ring; complex numbers and
:class:`~ellrig.polynomial.ChernPoly` values are the two shipped instances
and may be mixed term by term (scalars absorb into polynomials).

A series knows only its coefficients strictly below ``order``; asking for a
coefficient at or beyond the order is an error, not zero.  Negative
exponents (Laurent tails) arise only through explicit inversion or
division and stay bounded by the operands' supports.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, InversionError, OrderError

_SCALARS = (int, float, complex, Fraction)
# the exact types of the plain scalars, bool among them
_PLAIN = frozenset(_SCALARS + (bool,))


class QExponent(int):
    """Exponent of q as an exact multiple of 1/8; the int value is the
    number of eighths."""

    __slots__ = ()

    @property
    def eighths(self):
        return int(self)

    @classmethod
    def of(cls, value):
        """Coerce an int, Fraction or QExponent onto the lattice; a plain int
        is a whole power of q."""
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
        return Fraction(int(self), 8)

    def __add__(self, other):
        return QExponent(int(self) + int(QExponent.of(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return QExponent(int(self) - int(QExponent.of(other)))

    def __rsub__(self, other):
        return QExponent(int(QExponent.of(other)) - int(self))

    def __neg__(self):
        return QExponent(-int(self))

    def __mul__(self, n):
        return QExponent(int(self) * int(n))

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


class QSeries:
    """Formal series sum(terms[e] * q^(e/8)) known exactly for e < order.

    ``terms`` maps int eighths to coefficients; ``order`` is a QExponent.
    """

    __slots__ = ("terms", "order")

    def __init__(self, terms, order):
        order = QExponent.of(order)
        clean = {}
        for e, c in terms.items():
            e = QExponent.of(e)
            if e >= order:
                continue
            if e < 0:
                raise DomainError(
                    "negative exponent q^(%s) in plain construction; "
                    "Laurent tails arise only via explicit inversion" % e
                )
            if not c:
                continue
            clean[int(e)] = c
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
        """A series from int-eighths keys and an int order, as the ring
        operations build them.  Keys at or beyond the order and exact-zero
        coefficients are dropped; negative keys (Laurent tails) stay."""
        series = object.__new__(cls)
        series.terms = {e: c for e, c in terms.items() if e < order and c}
        series.order = QExponent(order)
        return series

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
        return QExponent(min(self.terms)) if self.terms else self.order

    def support(self):
        return [QExponent(e) for e in sorted(self.terms)]

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
            order = min(int(self.order), int(other.order))
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
        merged[0] = merged.get(0, 0) + other
        return QSeries._raw(merged, int(self.order))

    __radd__ = __add__

    def __neg__(self):
        return QSeries._raw({e: -c for e, c in self.terms.items()}, int(self.order))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product by a series (the Cauchy product) or by a coefficient.

        In the Cauchy product, the float 1.0 times a coefficient that is not
        a plain scalar (int, float, complex, Fraction) is taken to be that
        coefficient, without the multiply.  This needs the ring property
        ``c * 1.0 is c`` and ``1.0 * c is c`` of such a coefficient, which
        :class:`~ellrig.polynomial.ChernPoly` has: its product by a scalar
        equal to 1 returns it.  A plain scalar keeps its multiply, since
        ``complex(1, -0.0) * 1.0`` is ``(1+0j)``.
        """
        if not isinstance(other, QSeries):
            return QSeries._raw(
                {e: c * other for e, c in self.terms.items()}, int(self.order)
            )
        # Cauchy product; the result order accounts for the operands'
        # minimum exponents (lower tails shift what is knowable).
        left, right = self.terms, other.terms
        self_order, other_order = int(self.order), int(other.order)
        order = min(self_order + (min(right) if right else other_order),
                    other_order + (min(left) if left else self_order))
        out = {}
        for e1, c1 in left.items():
            ring1 = type(c1) not in _PLAIN
            one1 = type(c1) is float and c1 == 1.0
            for e2, c2 in right.items():
                e = e1 + e2
                if e >= order:
                    continue
                if ring1 and type(c2) is float and c2 == 1.0:
                    prod = c1
                elif one1 and type(c2) not in _PLAIN:
                    prod = c2
                else:
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
        result = QSeries._raw({0: 1.0}, int(self.order))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self):
        """Multiplicative inverse.

        The lowest-order coefficient must be invertible in the ring.  When
        the support starts above q^0 the inverse has a Laurent tail.
        """
        if not self.terms:
            raise InversionError("the zero series has no inverse")
        m = min(self.terms)
        lead = self.terms[m]
        lead_inv = _coeff_inverse(lead)
        # write self = lead * q^m * (1 + u) with u supported on positive exponents
        span = int(self.order) - m  # coefficients of (1+u) known below span
        u = {}
        for e, c in self.terms.items():
            if e == m:
                continue
            u[e - m] = lead_inv * c
        inv = {0: 1.0}
        if u:
            step = math.gcd(*u.keys())
            for n in range(step, span, step):
                acc = None
                for f, cf in u.items():
                    if f > n:
                        continue
                    prev = inv.get(n - f)
                    if prev is None:
                        continue
                    piece = cf * prev
                    acc = piece if acc is None else acc + piece
                if acc:
                    inv[n] = -acc
        # inverse = lead_inv * q^{-m} * sum(inv[n] q^{n/8}), known below span - m
        out = {n - m: inv_c * lead_inv for n, inv_c in inv.items()}
        return QSeries._raw(out, span - m)

    # ------------------------------------------------------------ display

    def __repr__(self):
        if not self.terms:
            return "O(q^(%s))" % self.order
        bits = []
        for e in self.support():
            c = self.terms[e]
            if e == 0:
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
