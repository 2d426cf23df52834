"""Characteristic-form calculus over formal Chern roots.

Covers the total exterior/symmetric power characters, the theta-quotient
characters of the twisted spinor-bundle ladders as formal q-expansions (for
``expand``; the fixed-point engine builds the same factors at numeric tau
from univariate series), and an independent tensor-expansion oracle for
those characters.  The twist vocabulary and the odd characters are in
:mod:`ellrig.twist`.

Theta over the ring is here too, since only this calculus and the tests
use it (:mod:`ellrig.theta` takes plain numbers): the infinite products
(DLMF 20.5) give :func:`theta_product`, the tests' independent oracle for
the Fourier series, and :func:`theta_qseries`, the formal q-expansion the
ladder characters are built from; :func:`theta_eval_regularized` is
theta(x)/x at a nilpotent x, a Taylor jet lifted into the ring without a
ring product (:func:`_jet_poly`).

Root convention: roots are stored as the plain variables fed to theta
arguments, so every equivariant exponential is e^{2 pi i (root + n t)}.
The power operations default to the unit-root normalization; callers that
work in the stored convention pass the appropriate ``root_scale``.
"""

from __future__ import annotations

import cmath

from .errors import CapacityError, PreconditionError
from .polynomial import ChernPoly, inverse_factorial, rename_generator
from .record import Record
from .series import QExponent, QSeries, qexp
from .theta import (
    THETA_KINDS,
    TWO_PI_I,
    TauPoint,
    ThetaKind,
    theta_jet_coefficients,
    theta_prime_zero,
)
# bench/tracing.py wraps the odd characters under this name
from .twist import QUOTIENT_FAMILIES, ROLES, TwistFactor, odd_ch_Q  # noqa: F401

ORACLE_MAX_ORDER = qexp(3)


class FormalBundle(Record):
    """Root data of a real bundle restricted to one fixed component.

    It lists one symbol per +-pair of Chern roots; the rotation
    integer is the exponent of the circle action on that piece (zero for
    fixed directions).  ``rank_offset`` adds trivial summands; the reduced
    bundle E - dim E carries rank_offset = -rank.
    """

    __slots__ = _fields = ("symbols", "rotations", "rank_offset")

    def __init__(self, symbols, rotations=(), rank_offset=0):
        symbols = tuple(symbols)
        rot = tuple(int(r) for r in rotations) or (0,) * len(symbols)
        if len(rot) != len(symbols):
            raise PreconditionError("one rotation per root symbol is required")
        self._set(symbols, rot, rank_offset)

    @property
    def rank_c(self):
        return 2 * len(self.symbols) + self.rank_offset

    def tilde(self):
        return FormalBundle(self.symbols, self.rotations, -2 * len(self.symbols))

    def root_list(self):
        """(symbol, sign, rotation) per individual Chern root: each symbol
        stands for the pair of roots +-z."""
        out = []
        for s, n in zip(self.symbols, self.rotations):
            out.append((s, +1, n))
            out.append((s, -1, -n))
        return out

    def fibers(self):
        return tuple(zip(self.symbols, self.rotations))


# --------------------------------------------------------------------------
# exterior / symmetric power characters
# --------------------------------------------------------------------------


def ch_power_op(bundle, op, t, gens, cap, root_scale=1.0, circle_t=0.0):
    """Character of the total exterior (op='lambda') or symmetric (op='sym')
    power at parameter t.

    t may be a complex number (result: ChernPoly) or a QSeries such as a
    q-power monomial (result: QSeries with ChernPoly coefficients).  Each
    root omega contributes (1 + t e^{scale*omega}) or its inverse with the
    minus sign; rank_offset contributes powers of (1 +- t).  Rotations enter
    as numeric phases e^{2 pi i n * circle_t}.
    """
    if op not in ("lambda", "sym"):
        raise PreconditionError("op must be 'lambda' or 'sym'")
    return _power_op(bundle, op, t, gens, cap, _signed_roots(
        op, _root_exponentials(bundle, gens, cap, root_scale, circle_t)))


def _root_exponentials(bundle, gens, cap, root_scale, circle_t):
    """e^{scale * omega} e^{2 pi i n circle_t} of each root omega of rotation
    n, in :meth:`FormalBundle.root_list` order."""
    out = []
    for name, root_sign, rot in bundle.root_list():
        root = ChernPoly.generator(gens, cap, name, root_sign * root_scale)
        phase = cmath.exp(TWO_PI_I * rot * circle_t) if rot else 1.0
        out.append(root.exp() * phase)
    return out


def _signed_roots(op, e_roots):
    """The root exponentials times the sign of ``op``: as they are for
    'lambda' (a product by 1.0 is the value itself), negated for 'sym'."""
    return e_roots if op == "lambda" else [-1.0 * e_root for e_root in e_roots]


def _power_op(bundle, op, t, gens, cap, signed_roots):
    """:func:`ch_power_op` from the signed root exponentials
    (:func:`_signed_roots`), which the oracle makes once for all its rungs."""
    sign = 1.0 if op == "lambda" else -1.0
    one = ChernPoly.one(gens, cap)
    if isinstance(t, QSeries):
        order = int(t.order)
        acc = QSeries._raw({0: one}, order)

        def binomial(x):
            # 1 + t x on int eighths: the terms, and their order, of t * x + 1.0
            terms = {}
            for e, c in t.terms.items():
                term = c * x
                if term:
                    terms[e] = term
            terms[0] = terms.get(0, 0) + 1.0
            return QSeries._raw(terms, order)
    else:
        acc = one

        def binomial(x):
            return t * x + 1.0

    inverses = []
    for x in signed_roots:
        factor = binomial(x)
        if op == "lambda":
            acc = acc * factor
        else:
            inverses.append(factor)
    # trivial summands
    unit = binomial(sign)
    m = bundle.rank_offset
    if op == "lambda":
        if m > 0:
            acc = acc * unit ** m
        elif m < 0:
            inverses.append(unit ** (-m))
    else:
        if m > 0:
            inverses.append(unit ** m)
        elif m < 0:
            acc = acc * unit ** (-m)

    for factor in inverses:
        acc = acc * (factor.inverse() if hasattr(factor, "inverse") else 1.0 / factor)
    return acc


# --------------------------------------------------------------------------
# theta at a polynomial argument, and as a formal q-series
# --------------------------------------------------------------------------


def _split_argument(v):
    """Split v into (numeric centre, nilpotent jet or None)."""
    if isinstance(v, ChernPoly):
        centre = v.constant()
        jet = v - centre
        return centre, (jet if jet else None)
    return complex(v), None


def _exp_jet(centre_value, jet, scale):
    """exp(scale*(c+x)) = exp(scale*c) * poly-exp(scale*x); complex when no jet."""
    try:
        value = cmath.exp(scale * centre_value)
    except OverflowError:
        raise CapacityError("an exponential at the argument centre v = %s "
                            "overflows; |Im v| is too large" % (centre_value,)) from None
    if jet is None:
        return value
    return (jet * scale).exp() * value


class _Argument:
    """An argument c + x of theta (x a nilpotent ChernPoly, or None) with
    the exponentials e^{s (c + x)} made for it, one per scale s: the
    q-products read s = +-2 pi i and the sin and cos prefactors s = +-pi i.
    Each is the value :func:`_exp_jet` gives, so every series, sin and cos
    at one argument can share them without changing a bit."""

    __slots__ = ("centre", "jet", "_exps")

    def __init__(self, centre, jet):
        self.centre, self.jet, self._exps = centre, jet, {}

    def exp(self, scale):
        value = self._exps.get(scale)
        if value is None:
            value = self._exps[scale] = _exp_jet(self.centre, self.jet, scale)
        return value

    def trig(self, which):
        """sin or cos of pi (c + x)."""
        if self.jet is None:
            centre = self.centre
            return cmath.sin(cmath.pi * centre) if which == "sin" else cmath.cos(cmath.pi * centre)
        plus = self.exp(1j * cmath.pi)
        minus = self.exp(-1j * cmath.pi)
        if which == "sin":
            return (plus - minus) * (1 / 2j)
        return (plus + minus) * 0.5


def _nilpotent_term(v):
    """(monomial, coefficient, top power) of the one nilpotent term of v,
    or None when v is a constant.  The top power is the largest k whose
    monomial the ring of v keeps (:meth:`Generators.top_power`): the cap and
    the odd rule.  A jet is summed only to that order.  Each coefficient
    then has the bits it has at any higher order (``theta._jet_sum``),
    provided the order stays above 0; at a generator it does, since every
    ring keeps the generators within its cap."""
    nilpotent = [(m, b) for m, b in v.terms.items() if m != 0]
    if not nilpotent:
        return None
    if len(nilpotent) > 1:
        raise PreconditionError(
            "theta jets take a centre plus one nilpotent term; got %d terms"
            % len(nilpotent)
        )
    mono, b = nilpotent[0]
    return mono, b, v.gens.top_power(mono, v.cap)


def _jet_poly(v, mono, b, coeffs):
    """sum_k coeffs[k] (b m)^k in the ring of v, for the packed monomial m,
    whose k-th power is ``k * m``.  coeffs stops at the top power of m, and
    the ring keeps every power up to it."""
    terms = {}
    power = 1.0
    for k, a in enumerate(coeffs):
        terms[k * mono] = a * power
        power *= b
    return ChernPoly._trusted(v.gens, v.cap, terms)


def theta_product(kind, v, tau, terms=None):
    """Theta from its infinite product, truncated after
    :meth:`TauPoint.product_terms` factors: at least ``terms`` and at least
    MIN_PRODUCT_TERMS, so ``terms=1`` still multiplies 25.

    This is the route that is independent of the Fourier series; the test
    suite keeps it as the oracle for :func:`ellrig.theta.theta_eval` and
    the Taylor jets.  v is a plain number or a ChernPoly with any
    nilpotent part; each exponential factor is then a polynomial exp.
    """
    if terms is not None and terms < 1:
        raise PreconditionError("terms must be >= 1")
    tau = TauPoint.coerce(tau)
    arg = _Argument(*_split_argument(v))
    q = tau.q()
    terms = tau.product_terms(terms)

    sign = kind.sign_b
    if kind.trig is not None:
        out = 2 * tau.q_eighth() * arg.trig(kind.trig)
    else:
        out = 1.0

    e_plus = arg.exp(TWO_PI_I)
    e_minus = arg.exp(-TWO_PI_I)
    qpow = tau.q_half() if kind.half else q
    for _ in range(terms):
        # qpow runs over q^j or q^{j-1/2}
        out = out * (1 + sign * e_plus * qpow)
        out = out * (1 + sign * e_minus * qpow)
        qpow *= q
    euler = 1.0
    qj = q
    for _ in range(terms):
        euler *= 1 - qj
        qj *= q
    return out * euler


def theta_qseries(kind, centre, jet, order):
    """Formal q-expansion of theta at argument centre + jet.

    centre is a complex number (e.g. a rotation times the circle parameter);
    the jet is a nilpotent ChernPoly or None.  Coefficients are ChernPoly
    values when a jet is present, plain complex numbers otherwise.
    """
    order = QExponent.of(order)
    if order.eighths <= 0:
        raise PreconditionError("q-order must be positive")
    return _theta_qseries(kind, _Argument(centre, jet), order)


def _theta_qseries(kind, arg, order):
    """:func:`theta_qseries` at an :class:`_Argument`, reading the
    exponentials it shares with the other series and prefactors there."""
    sign = kind.sign_b
    plus = sign * arg.exp(TWO_PI_I)
    minus = sign * arg.exp(-TWO_PI_I)

    # each factor 1 + c q^e on int eighths e < order; _raw drops a c that
    # underflowed to 0, as the public constructor does
    acc = QSeries._raw({0: 1.0}, order)
    for e in range(4 if kind.half else 8, order, 8):
        acc = acc * QSeries._raw({0: 1.0, e: plus}, order)
        acc = acc * QSeries._raw({0: 1.0, e: minus}, order)
    for e in range(8, order, 8):
        acc = acc * QSeries._raw({0: 1.0, e: -1.0}, order)

    if kind.trig is not None:
        pref = 2 * arg.trig(kind.trig)
        acc = acc * QSeries.monomial(QExponent(1), pref, order)
    return acc


def sinc_jet(jet):
    """sin(pi x)/(pi x) as a polynomial jet for pure-nilpotent x."""
    one = ChernPoly.one(jet.gens, jet.cap)
    sq = jet * jet * (-(cmath.pi ** 2))
    out = one
    power = one
    for k in range(1, jet.cap // 2 + 1):
        power = power * sq
        if not power:
            break
        out = out + power * inverse_factorial(2 * k + 1)
    return out


def theta_eval_regularized(jet, tau):
    """theta(x, tau)/x for a pure-nilpotent x = b m (zero or one term).

    The odd theta vanishes linearly at 0, so the quotient is the jet of
    theta at 0 shifted down by one: sum_k a_{k+1} (b m)^k.  Always returns a
    ChernPoly.  The engine shifts its series at 0 itself, so only the test
    references call this; it stays a layer the benchmark's tracer wraps.
    """
    if jet.constant() != 0:
        raise PreconditionError("regularized evaluation needs a zero-centre argument")
    term = _nilpotent_term(jet)
    if term is None:
        return ChernPoly.scalar(jet.gens, jet.cap, theta_prime_zero(tau))
    mono, b, top = term
    coeffs = theta_jet_coefficients(ThetaKind.THETA, 0.0, tau, top + 1)
    return _jet_poly(jet, mono, b, coeffs[1:])


def theta_qseries_regularized(jet, order):
    """Formal-q version of :func:`theta_eval_regularized`."""
    if jet.constant() != 0:
        raise PreconditionError("regularized evaluation needs a zero-centre argument")
    order = QExponent.of(order)
    plus = -_exp_jet(0.0, jet, TWO_PI_I)
    minus = -_exp_jet(0.0, jet, -TWO_PI_I)
    acc = QSeries._raw({0: 1.0}, order)
    for e in range(8, order, 8):
        acc = acc * QSeries._raw({0: 1.0, e: plus}, order)
        acc = acc * QSeries._raw({0: 1.0, e: minus}, order)
        acc = acc * QSeries._raw({0: 1.0, e: -1.0}, order)
    pref = 2 * cmath.pi * sinc_jet(jet)
    return acc * QSeries.monomial(QExponent(1), pref, order)


# --------------------------------------------------------------------------
# theta-quotient characters of the twisted ladders
# --------------------------------------------------------------------------


def ch_delta(fibers, t, gens, cap):
    """Spinor-bundle character: product over fibers of 2 cos(pi(z + n t))."""
    out = ChernPoly.one(gens, cap)
    for name, rot in fibers:
        jet = ChernPoly.generator(gens, cap, name)
        out = out * (2 * _Argument(rot * t, jet).trig("cos"))
    return out


def ch_theta_twist(factor, bundle, t, *, gens, cap, q_order, exponent=1):
    """Theta-quotient form of one twist factor's equivariant character, as a
    formal q-expansion to ``q_order`` (QSeries over ChernPoly).

    Fiber factors (Q1V/Q2V/Q3V) produce, per fiber, theta_j(z + n t)/theta_j(0)
    with theta_j = THETA_KINDS[j]; the Q1V case carries the spinor prefactor
    2 per fiber.  Tangent-ladder factors (Theta1/2/3) produce, per root pair,
    the symmetric-power quotient times the matching theta ratio.  DeltaV is
    the bare spinor character.  Each is raised to the power ``exponent``.
    This serves ``ellrig expand``, against :func:`ch_twist_oracle`; the
    fixed-point engine builds the same factors at a numeric tau from
    univariate series (:mod:`ellrig.lefschetz`).

    A fiber's ratio is built once per rotation: a later fiber with the same
    rotation, and a generator of the same weight and parity, takes that
    ratio with its own generator in place of the first one's
    (:func:`~ellrig.polynomial.rename_generator`).  Every ring operation
    on polynomials in one such generator does, term for term and in the
    same order, what it does on their images in the other, so the renamed
    ratio has every bit the fiber's own would have.
    """
    factor = factor if isinstance(factor, TwistFactor) else TwistFactor(factor)
    family, j = ROLES[factor]
    if family not in QUOTIENT_FAMILIES:
        raise PreconditionError(
            "%s is assembled by the fixed-point engine, not as a standalone quotient"
            % factor
        )
    q_order = QExponent.of(q_order)
    acc = QSeries({qexp(0): ChernPoly.one(gens, cap)}, q_order)
    fibers = bundle.fibers()
    if family == "delta":
        spinor = ch_delta(fibers, t, gens, cap)
        for _ in range(exponent):
            acc = acc * spinor
        return acc
    if not fibers:
        return acc

    kind = THETA_KINDS[j]
    # the values at 0 do not depend on the fiber, so each is made once, and
    # theta_k(0) inverted once: a quotient by a series is a product by its
    # inverse
    theta0_inv = theta_qseries(kind, 0.0, None, q_order).inverse()
    if family == "tangent":
        tprime = theta_qseries_regularized(ChernPoly.zero(gens, cap), q_order)

    def fiber_ratio(name, rot):
        # theta_kind, theta, sin and cos at one fiber share its exponentials
        centre = rot * t
        arg = _Argument(centre, ChernPoly.generator(gens, cap, name))
        ratio = _theta_qseries(kind, arg, q_order) * theta0_inv
        if family == "tangent":
            # symmetric-power part: sin(pi w) theta'(0) / (pi theta(w))
            centre = complex(centre)
            if centre.imag == 0 and centre.real.is_integer():
                # sin(pi w) and theta(w) both vanish linearly at w = n and
                # both change sign under w -> w + 1, so the quotient is the
                # one at 0, where each is divided by w
                s_part = tprime * sinc_jet(arg.jet) / theta_qseries_regularized(arg.jet, q_order)
            else:
                s_part = (tprime * arg.trig("sin")
                          / _theta_qseries(ThetaKind.THETA, arg, q_order) * (1.0 / cmath.pi))
            if j == 1 and centre.imag == 0 and (centre.real + 0.5).is_integer():
                # theta1(w)/cos(pi w) = theta(w + 1/2)/sin(pi(w + 1/2)), by
                # the same rule at w + 1/2
                ratio = (theta_qseries_regularized(arg.jet, q_order) * theta0_inv
                         / (cmath.pi * sinc_jet(arg.jet)))
            elif j == 1:
                # exterior ladder with +q^m needs the cosine stripped
                ratio = ratio / arg.trig("cos")
            ratio = s_part * ratio
        elif j == 1:
            # theta1 ratio carries cos(pi v); the spinor doubling restores
            # the 2cos(pi v) of Delta(V) per fiber
            ratio = ratio * 2.0
        return ratio

    # a fiber's ratio, renamed from the first fiber with its rotation and
    # its generator's weight and parity (docstring)
    made = {}
    for name, rot in fibers:
        i = gens.index(name)
        key = rot, gens.weights[i], gens.odd[i]
        if key in made:
            first, ratio = made[key]
            ratio = QSeries._raw({e: rename_generator(c, first, name) if type(c) is ChernPoly
                                  else c for e, c in ratio.terms.items()}, ratio.order)
        else:
            ratio = fiber_ratio(name, rot)
            made[key] = name, ratio
        for _ in range(exponent):
            acc = acc * ratio
    return acc


# --------------------------------------------------------------------------
# independent tensor-expansion oracle
# --------------------------------------------------------------------------


def ch_twist_oracle(factor, bundle, t, q_order, gens, cap):
    """Character of a twisted ladder by literal order-by-order expansion.

    Builds the tensor product of exterior/symmetric powers of the reduced
    bundle as a q-series with polynomial coefficients, using nothing but the
    power-operation characters.  Serves as the independent oracle for
    :func:`ch_theta_twist` (the expansion is formal in q).

    The ladder is cut off once the next rung exceeds the requested order;
    orders above q^3 are refused as a cost guard.

    :func:`_power_op` runs once per power op and sign, at the smallest rung
    exponent e0 (q^1 for the integer rungs, q^{1/2} for the half-integer
    ones); the rung at q^e is that series with q^{k e0} -> q^{k e}, cut at
    the order.  Every exponent the rung's series meet is a multiple of its
    q-monomial's, so the same ring operations run on the same coefficients
    in the same order, whatever the exponent, and the cut only drops the
    top keys, which add only into higher ones.  So each rung has every bit
    it has when built from its own monomial.
    """
    factor = factor if isinstance(factor, TwistFactor) else TwistFactor(factor)
    q_order = QExponent.of(q_order)
    if q_order > ORACLE_MAX_ORDER:
        raise CapacityError(
            "oracle expansion is limited to q^(%s); q^(%s) requested"
            % (ORACLE_MAX_ORDER, q_order)
        )
    family, j = ROLES[factor]
    if family not in QUOTIENT_FAMILIES:
        raise PreconditionError("oracle covers the Theta and Q(V) ladders, not %s" % factor)
    acc = QSeries({qexp(0): ChernPoly.one(gens, cap)}, q_order)
    if family == "delta":
        # 2 cos(pi w) = e^{-pi i w} (1 + e^{2 pi i w}) per fiber, w = z + n t,
        # from the root exponentials e^{+-pi i w}, not ch_delta's cosine jets
        halves = _root_exponentials(bundle, gens, cap, cmath.pi * 1j, t / 2)
        spinor = ChernPoly.one(gens, cap)
        for plus, minus in zip(halves[::2], halves[1::2]):
            spinor = spinor * (minus * (plus * plus + 1.0))
        return acc * spinor
    tilde = bundle.tilde()
    # every rung reads the same root exponentials, signed once per expansion
    e_roots = _root_exponentials(tilde, gens, cap, TWO_PI_I, t)

    def rungs(op, roots, exponents, sign):
        # the rungs of one power op and sign at q^e for e in ``exponents``,
        # each a multiple of the first, e0, re-keyed from the rung at q^e0
        # (docstring)
        if not exponents:
            return []
        e0 = exponents[0]
        base = _power_op(tilde, op, QSeries.monomial(e0, sign, q_order), gens, cap, roots).terms
        return [QSeries._raw({k * (e // e0): c for k, c in base.items()}, q_order)
                for e in exponents]

    whole = [qexp(n) for n in range(1, q_order.eighths // 8 + 1)]
    if family == "tangent":
        for rung in rungs("sym", _signed_roots("sym", e_roots), whole, 1.0):
            acc = acc * rung
    elif j == 1:
        acc = acc * ch_delta(bundle.fibers(), t, gens, cap)
    # ladder 1 has the integer rungs with +; ladders 2 and 3 the half-integer
    # rungs q^{n - 1/2} with - and +
    if j == 1:
        exponents, sign = whole, 1.0
    else:
        exponents = [QExponent(e) for e in range(4, q_order, 8)]
        sign = -1.0 if j == 2 else 1.0
    for rung in rungs("lambda", e_roots, exponents, sign):
        acc = acc * rung
    return acc
