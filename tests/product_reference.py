"""The ring products as they were before partner rows were kept on the
right operand: each ``ChernPoly`` product builds its own rows, and the
``QSeries`` Cauchy product multiplies its coefficients through that
product.  Kept as the reference the live products must match bit for bit.
"""

from ellrig.polynomial import ChernPoly
from ellrig.series import QSeries


def _partners(gens, m1, cap, right):
    weight, odd = gens._meta[m1]
    room = cap - weight
    return [(m2, c2) for m2, c2, w2, o2 in right if w2 <= room and not (odd and o2)]


def chern_product(a, b):
    """a * b for a ChernPoly a and a ChernPoly or scalar b of its ring."""
    if type(b) is not ChernPoly:
        c = complex(b)
        if c == 1:
            return a
        return ChernPoly._trusted(a.gens, a.cap, {m: v * c for m, v in a.terms.items()})
    gens, cap = a.gens, a.cap
    meta, sums = gens._meta, gens._sums
    right = [(m2, c2) + meta[m2] for m2, c2 in b.terms.items()]
    partners = {}
    out = {}
    for m1, c1 in a.terms.items():
        key = meta[m1]
        row = partners.get(key)
        if row is None:
            row = partners[key] = _partners(gens, m1, cap, right)
        plus = sums[m1]
        for m2, c2 in row:
            mono = plus[m2]
            out[mono] = out.get(mono, 0j) + c1 * c2
    return ChernPoly._trusted(gens, cap, out)


def coefficient_product(c1, c2):
    if type(c1) is ChernPoly:
        return chern_product(c1, c2)
    if type(c2) is ChernPoly:
        return chern_product(c2, c1)
    return c1 * c2


def series_product(a, b):
    """The Cauchy product a * b of two QSeries."""
    left, right = a.terms, b.terms
    self_order, other_order = int(a.order), int(b.order)
    order = min(self_order + (min(right) if right else other_order),
                other_order + (min(left) if left else self_order))
    out = {}
    right = [(e2, c2, type(c2) is float and c2 == 1.0) for e2, c2 in right.items()]
    for e1, c1 in left.items():
        one1 = type(c1) is float and c1 == 1.0
        for e2, c2, one2 in right:
            e = e1 + e2
            if e >= order:
                continue
            prod = c2 if one1 else c1 if one2 else coefficient_product(c1, c2)
            if e in out:
                out[e] = out[e] + prod
            else:
                out[e] = prod
    return QSeries._raw(out, order)


def bits(value):
    """Terms in order with each coefficient's repr, so signed zeros count."""
    if type(value) is ChernPoly:
        return [(m, repr(c)) for m, c in value.terms.items()]
    if type(value) is QSeries:
        return (int(value.order), [(e, bits(c)) for e, c in value.terms.items()])
    return repr(value)
