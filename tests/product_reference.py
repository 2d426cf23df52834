"""The ring products on exponent tuples, as they were before monomials were
packed into ints and partner rows were kept on the right operand: each
``ChernPoly`` product recomputes its monomials' degrees and odd counts,
adds exponent tuples and builds its own rows, and the ``QSeries`` Cauchy
product multiplies its coefficients through that product.  Kept as the
reference the live products must match bit for bit, key order included.
"""

from operator import add

from ellrig.polynomial import ChernPoly
from ellrig.series import QSeries


def exponent_terms(p):
    """The terms of p keyed by exponent tuples, in order."""
    return [(p.gens.exponents(m), c) for m, c in p.terms.items()]


def _meta(gens, m):
    return (sum(e * w for e, w in zip(m, gens.weights)),
            sum(e for e, f in zip(m, gens.odd) if f))


def _partners(gens, m1, cap, right):
    weight, odd = _meta(gens, m1)
    room = cap - weight
    return [(m2, c2) for m2, c2, w2, o2 in right if w2 <= room and not (odd and o2)]


def chern_product(a, b):
    """a * b for a ChernPoly a and a ChernPoly or scalar b of its ring."""
    if type(b) is not ChernPoly:
        c = complex(b)
        if c == 1:
            return a
        return ChernPoly(a.gens, a.cap, {m: v * c for m, v in exponent_terms(a)})
    gens, cap = a.gens, a.cap
    right = [(m2, c2) + _meta(gens, m2) for m2, c2 in exponent_terms(b)]
    partners = {}
    out = {}
    for m1, c1 in exponent_terms(a):
        key = _meta(gens, m1)
        row = partners.get(key)
        if row is None:
            row = partners[key] = _partners(gens, m1, cap, right)
        for m2, c2 in row:
            mono = tuple(map(add, m1, m2))
            out[mono] = out.get(mono, 0j) + c1 * c2
    return ChernPoly(gens, cap, out)


def chern_sum(a, b):
    """a + b for two ChernPoly values of one ring."""
    merged = dict(exponent_terms(a))
    for m, c in exponent_terms(b):
        merged[m] = merged.get(m, 0j) + c
    return ChernPoly(a.gens, a.cap, merged)


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
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = e1 + e2
            if e >= order:
                continue
            prod = coefficient_product(c1, c2)
            if e in out:
                out[e] = out[e] + prod
            else:
                out[e] = prod
    return QSeries._raw(out, order)


def bits(value):
    """Terms in order, monomials as exponent tuples, with each coefficient's
    repr, so signed zeros count."""
    if type(value) is ChernPoly:
        return [(m, repr(c)) for m, c in exponent_terms(value)]
    if type(value) is QSeries:
        return (int(value.order), [(e, bits(c)) for e, c in value.terms.items()])
    return repr(value)
