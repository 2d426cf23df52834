"""The four Jacobi theta functions and their transformation machinery.

Numeric values and Taylor jets come from the Fourier series (DLMF 20.2)

    theta (v,t) = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2/2} sin((2n+1) pi v)
    theta1(v,t) = 2 sum_{n>=0}        q^{(n+1/2)^2/2} cos((2n+1) pi v)
    theta2(v,t) = 1 + 2 sum_{n>=1} (-1)^n q^{n^2/2} cos(2n pi v)
    theta3(v,t) = 1 + 2 sum_{n>=1}        q^{n^2/2} cos(2n pi v)

with q = e^{2 pi i tau}, e(v) = e^{2 pi i v}.  Fractional powers of q are
always computed from tau itself (q^{1/2} = e^{pi i tau}, q^{1/8} =
e^{pi i tau/4}); deriving them from q through a principal root would break
the tau -> tau+1 laws.  The two kinds of one lattice of frequencies share
one pass over its terms: theta and theta1 sum over mu = n + 1/2, theta2
and theta3 over mu = n.  Every value of order 0 (:func:`theta_eval`,
:func:`theta_values`, jets of order 0) comes from one lean kernel,
:func:`_theta_values`, which returns the four kinds at a plain centre with
one loop per lattice and no jet machinery.  Jets of order >= 1 come from
:func:`_jet_sum`: each term's Taylor coefficients at a centre are closed
form, so a jet of order k costs (k + 1) scalars per term.
:func:`theta_jets` returns them as plain tuples; the engine reads them as
univariate series, and ``characters.theta_poly`` lifts one into a ring.
So all four kinds at one point cost two passes (:func:`theta_values`), and
the S and T laws are checked for all four kinds at once
(:func:`st_transform_residuals`), reading the values at (v, tau) that the
caller already has.  The number of terms is fixed before summing by a tail
bound that covers Im(tau), the growth at complex centres and the
derivative order (:func:`series_terms`).  The sum runs at the centre
itself, so the sin and cos of its terms overflow when |Im v| is large
(v + tau at Im(tau) = 60, for one); that is a :class:`CapacityError`.

Every function here takes plain numbers, and the module imports no formal
ring (``polynomial``, ``series``, nor the ``fractions`` they bring in), so
theta-verify never loads one.  The routes over the ring, the infinite
products and the formal q-expansions, are in :mod:`ellrig.characters`;
:meth:`TauPoint.product_terms` fixes the length of the numeric product.
Three of its names still resolve here, for the benchmark's tracer
(:func:`__getattr__`).

Data that depend on tau alone are computed once per :class:`TauPoint` and
staged in its ``_stage`` slot, which is not part of its value
(:meth:`TauPoint.staged`): per lattice of frequencies one Fourier weight
table and one entry of jets at 0 of order >= 1 (theta'(0), the
log-derivative jets); one entry of the four order-0 values at 0, from one
kernel call (theta_k(0), which :func:`jacobi_residual` and the engine's
theta'(0)/theta_k(0) ratios read through :func:`_values_at_zero`, which
also refuses a tau where they underflow); tau-only pieces of the characters
and of the fixed-point engine; and the images of tau under the modular
transformations (:meth:`TauPoint.shifted`), each with a stage of its own.
The key rule: no stage key holds the circle parameter t or a centre.  So a
stage holds per lattice a weight table as long as the largest term count
asked for and one entry of jets at 0, one entry of values at 0, rings x
factors character pieces, one engine piece and one image per
transformation, however many t a sweep visits.  Each staged value is
computed by the same operations as an unstaged call, so results are
bit-identical.  Staged values are shared: none is mutated, except that a
weight table grows and a jets-at-0 entry is replaced by a longer one.  The
engine asks theta'(0) from a jet of the highest order its document asks
at 0, so in its commands each lattice is summed at 0 once per tau.

Each kind is theta[a, b] = sum_n q^{(n+a)^2/2} e((n + a)(v + b)) for its
characteristic (a, b) in {0, 1/2}^2 (DLMF 20.2; theta = -theta[1/2, 1/2]),
and :class:`ThetaKind` derives every per-kind fact from (a, b): Fourier
frequencies n + a with signs (-1)^{2bn}, shift signs (-1)^{2a} for v + 1 and
(-1)^{2b} for v + tau, zeros at (1/2 - b) + (1/2 - a) tau, and the modular
action (DLMF 20.7): S sends (a, b) to (b, a), T to (a, a + b + 1/2 mod 1)
with phase e^{pi i a/2}.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
import warnings

from .errors import CapacityError, DomainError, DomainMarginWarning, PreconditionError
from .record import Record

TWO_PI_I = 2j * cmath.pi
DEFAULT_MIN_IM = 0.3
HALF_PLANE_FLOOR = 1e-6
PRODUCT_TAIL = 1e-18
MIN_PRODUCT_TERMS = 25
SERIES_TAIL = 1e-18
MAX_SERIES_TERMS = 10 ** 7
# distance below which an argument counts as a lattice zero
ZERO_LATTICE_TOL = 1e-9


class ThetaKind(enum.Enum):
    """theta[a, b] by its plain name; the attributes are derived from (a, b)."""

    THETA = ("theta", 0.5, 0.5)
    THETA1 = ("theta1", 0.5, 0.0)
    THETA2 = ("theta2", 0.0, 0.5)
    THETA3 = ("theta3", 0.0, 0.0)

    def __new__(cls, value, a, b):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.a, kind.b = a, b
        kind.odd = a == b == 0.5
        kind.alternating = b != 0            # Fourier signs (-1)^n
        kind.trig = ("sin" if b else "cos") if a else None
        kind.half = a == 0                   # product q-powers q^{j-1/2}
        kind.sign_a = -1.0 if a else 1.0     # theta(v + 1) = sign_a theta(v)
        kind.sign_b = -1.0 if b else 1.0     # e(v) factors; the v + tau law
        kind.zero_offset = (0.5 - b, 0.5 - a)
        kind.t_phase = cmath.exp(1j * cmath.pi / 4) if a else 1.0
        return kind

    # members are singletons, so identity hashing agrees with ==
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


THETA_KINDS = tuple(ThetaKind)
_BY_CHARACTERISTIC = {(kind.a, kind.b): kind for kind in THETA_KINDS}
for _kind in THETA_KINDS:
    # S: theta_k(t/tau, -1/tau) = s_prefactor e^{pi i t^2/tau} theta_{s_image}(t, tau)
    # T: theta_k(t, tau + 1) = t_phase theta_{t_image}(t, tau)
    _kind.s_image = _BY_CHARACTERISTIC[_kind.b, _kind.a]
    _kind.t_image = _BY_CHARACTERISTIC[_kind.a, (_kind.a + _kind.b + 0.5) % 1]
    _kind.index = THETA_KINDS.index(_kind)   # its place in a tuple of the four kinds
del _kind


def s_prefactor(kind, tau):
    """Root-of-tau prefactor of the S law; only the odd theta carries the 1/i.

    tau/i has positive real part on the upper half-plane, so the principal
    square root never crosses its cut.
    """
    tau = TauPoint.coerce(tau).value
    root = cmath.sqrt(tau / 1j)
    return root / 1j if kind.odd else root


class TauPoint(Record):
    """A modulus ``value`` in the upper half-plane with a configured margin
    ``min_im``.  Each instance also carries its stage of tau-only data (see
    the module docstring) in the slot ``_stage``, which takes no part in ==,
    hash or repr."""

    _fields = ("value", "min_im")
    __slots__ = _fields + ("_stage",)

    def __init__(self, value, min_im=DEFAULT_MIN_IM):
        if not cmath.isfinite(value):
            raise DomainError("tau = %r is not finite" % (value,))
        if not min_im > 0:
            raise DomainError("half-plane margin must be positive")
        if value.imag < min_im:
            raise DomainError("Im(tau) = %g is below the configured margin %g"
                              % (value.imag, min_im))
        # slot by slot, not by Record._set's loop: a TauPoint is made per tau
        # and per modular image, and the loop cost theta-verify 1-2%
        init = object.__setattr__
        init(self, "_key", (value, min_im))
        init(self, "value", value)
        init(self, "min_im", min_im)
        init(self, "_stage", {})

    @classmethod
    def coerce(cls, tau, min_im=DEFAULT_MIN_IM):
        if isinstance(tau, TauPoint):
            return tau
        return cls(complex(tau), min_im)

    def staged(self, key, build):
        """The value staged under key, made by ``build()`` on first use.

        Keys must not hold t or a non-zero centre (module docstring); the
        value is shared with every later caller, who must not mutate it.
        """
        stage = self._stage
        try:
            return stage[key]
        except KeyError:
            value = stage[key] = build()
            return value

    def q(self):
        return cmath.exp(TWO_PI_I * self.value)

    def q_half(self):
        return cmath.exp(1j * cmath.pi * self.value)

    def q_eighth(self):
        return cmath.exp(1j * cmath.pi * self.value / 4)

    def product_terms(self, requested=None):
        """Number of factors ``characters.theta_product`` keeps: at least
        ``requested`` and MIN_PRODUCT_TERMS, and enough that the dropped tail
        is below PRODUCT_TAIL."""
        need = int(math.ceil(-math.log(PRODUCT_TAIL) / (2 * math.pi * self.value.imag)))
        return max(MIN_PRODUCT_TERMS, need, requested or 0)

    def shifted(self, value):
        """Same margin policy at a new location; warns rather than refuses
        when a transformation left the margin (accuracy is held by the
        series length, which grows as Im(tau) shrinks).

        The image is staged on this point, so repeated S/T checks at one
        tau share the image's own stage.  The key is the image value (and
        the sign of its real part, which == does not tell apart from -0.0);
        the warning is issued on every call.
        """
        if value.imag < HALF_PLANE_FLOOR:
            raise DomainError("tau = %r left the upper half-plane" % (value,))
        margin = self.min_im
        if value.imag < margin:
            warnings.warn(
                "transformed tau = %r is below the margin %g" % (value, margin),
                DomainMarginWarning,
                stacklevel=3,
            )
            margin = value.imag * 0.999
        key = ("shifted", value, math.copysign(1.0, value.real))
        return self.staged(key, lambda: TauPoint(value, margin))


# constants of series_terms, computed once
_LOG_4_OVER_TAIL = math.log(4.0 / SERIES_TAIL)
_LOG_2_OVER_2PI = math.log(2.0) / (2 * math.pi)


def series_terms(kind, tau, imag_centre, order):
    """Number of Fourier terms that leave a tail below SERIES_TAIL.

    Write the series of one kind as sum_{n >= 0} w_n f(2 pi mu_n v) with
    mu_n = mu_0 + n, f = sin or cos and |w_n| <= 2 exp(-pi y mu_n^2), where
    y = Im(tau).  Let h = |Im c| at the centre c and 0 <= k <= order.

    1. The k-th Taylor coefficient of f(2 pi mu (c + x)) in x is
       (2 pi mu)^k / k! times a derivative of f at 2 pi mu c, and
       |sin(a + ib)|, |cos(a + ib)| <= cosh(b) <= e^{|b|}.
    2. (2 pi mu)^k / k! is one term of the series of e^{2 pi mu}, so it is
       at most e^{2 pi mu}; for k = 0 it is 1.
    3. With s = h + (1 if order > 0 else 0), every coefficient of order
       <= order that term n contributes is at most
       g(mu_n) = 2 exp(-pi y mu_n^2 + 2 pi s mu_n).
    4. g(mu + 1)/g(mu) = exp(2 pi s - pi y (2 mu + 1)) falls with mu and is
       at most 1/2 once mu >= mu_r = (s + ln 2/(2 pi))/y - 1/2.  So for
       mu_N >= mu_r the dropped terms n >= N sum to at most 2 g(mu_N).
    5. 2 g(mu_N) <= SERIES_TAIL exp(-pi y mu_0^2) holds when
       pi y mu_N^2 - 2 pi s mu_N >= L = ln(4/SERIES_TAIL) + pi y mu_0^2,
       that is for mu_N >= mu_q = (s + sqrt(s^2 + y L/pi))/y.

    Keeping the terms n < N with mu_N >= max(mu_r, mu_q) therefore drops a
    tail below SERIES_TAIL times |q^{mu_0^2/2}|, the modulus of the leading
    q-power, in every Taylor coefficient up to ``order``.  On the lattice
    mu_n = n the term n = 0 is a constant, so a coefficient of order >= 1
    starts at n = 1: there at least two terms are kept when ``order`` > 0.
    N is computed once, before any term is summed.  Where y L or s^2 leaves
    float range (from y ~ 1e155 on, for mu_0 = 1/2), mu_q is taken in the
    form r + sqrt(r^2 + L/(pi y)) with r = s/y, which overflows only when
    the count is out of reach anyway.
    """
    return _series_terms(kind, TauPoint.coerce(tau), imag_centre, order)


def _series_terms(kind, tau, imag_centre, order):
    """:func:`series_terms` at a :class:`TauPoint`."""
    y = tau.value.imag
    h = abs(float(imag_centre))
    if not math.isfinite(h):
        raise DomainError("theta centre has a non-finite imaginary part")
    mu0 = kind.a
    s = h + (1.0 if order > 0 else 0.0)
    big_l = _LOG_4_OVER_TAIL + math.pi * y * mu0 * mu0
    mu_r = (s + _LOG_2_OVER_2PI) / y - 0.5
    mu_q = (s + math.sqrt(s * s + y * big_l / math.pi)) / y
    if mu_q == math.inf:
        # y * big_l overflows from Im(tau) ~ 1e155 on (s * s from |Im c| ~
        # 1e154): the same bound as r + sqrt(r^2 + L/(pi y)) with r = s/y
        r = s / y
        mu_q = r + math.sqrt(r * r + _LOG_4_OVER_TAIL / (math.pi * y) + mu0 * mu0)
    need = max(mu_r, mu_q) - mu0
    if not need <= MAX_SERIES_TERMS:
        raise CapacityError(
            "theta series at Im(tau) = %g, |Im v| = %g needs more than %d terms"
            % (y, h, MAX_SERIES_TERMS)
        )
    return max(2 if order > 0 and mu0 == 0 else 1, math.ceil(need))


def theta_jet_coefficients(kind, centre, tau, order):
    """Taylor coefficients (a_0, ..., a_order) of theta_kind at a numeric
    centre c: theta_kind(c + x, tau) = sum_k a_k x^k.

    Summed from the Fourier series (DLMF 20.2.1-20.2.4 at z = pi v):

        theta  = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2/2} sin((2n+1) pi v)
        theta1 = 2 sum_{n>=0}        q^{(n+1/2)^2/2} cos((2n+1) pi v)
        theta2 = 1 + 2 sum_{n>=1} (-1)^n q^{n^2/2} cos(2n pi v)
        theta3 = 1 + 2 sum_{n>=1}        q^{n^2/2} cos(2n pi v)

    A term f(omega v) contributes omega^k/k! f^{(k)}(omega c) to a_k.  The
    four derivatives of sin and cos are read off sin(omega c) and
    cos(omega c), so at c = 0 the coefficients that vanish by parity, theta(0)
    among them, come out exactly zero.  The number of terms comes from
    :func:`series_terms`.  Jets at centre 0 are staged on tau, per lattice.
    """
    return _lattice_jets((kind,), complex(centre), TauPoint.coerce(tau), order)[0]


_LATTICES = {0.5: (ThetaKind.THETA, ThetaKind.THETA1), 0.0: (ThetaKind.THETA2, ThetaKind.THETA3)}


def theta_jets(kinds, centre, tau, order):
    """:func:`theta_jet_coefficients` of several kinds at one centre, one
    coefficient tuple per kind, in the order given.

    The kinds of one lattice of Fourier frequencies share one pass over its
    terms (:func:`_jet_sum`; at order 0 :func:`_theta_values`, one call for
    the lattices of all the kinds): theta and theta1 sum over mu = n + 1/2,
    theta2 and theta3 over mu = n.  Each kind's coefficients are bit for bit
    those of :func:`theta_jet_coefficients`.
    """
    tau = TauPoint.coerce(tau)
    c = complex(centre)
    if not order:
        return _lattice_jets(kinds, c, tau, 0)
    jets = {}
    for lattice in _LATTICES.values():
        group = tuple([kind for kind in kinds if kind in lattice])
        if group:
            jets.update(zip(group, _lattice_jets(group, c, tau, order)))
    return tuple([jets[kind] for kind in kinds])


def _lattice_jets(kinds, c, tau, order):
    """:func:`_jet_sum`; at c = +0 (a -0.0 part gives other signed zeros)
    its lattice is staged at the highest order asked so far: a_k depends on
    the order only through order > 0.  At order 0 the kinds may be of both
    lattices, and :func:`_values` sums the lattices they need."""
    if not order:
        values = _values(c, tau, any(kind.a for kind in kinds),
                         not all(kind.a for kind in kinds))
        return tuple([(values[kind.index],) for kind in kinds])
    if _is_plus_zero(c):
        lattice = _LATTICES[kinds[0].a]
        key = ("jet0", kinds[0].a)
        jets = tau._stage.get(key)
        if jets is None or len(jets[lattice[0]]) <= order:
            jets = tau._stage[key] = dict(zip(lattice, _jet_sum(lattice, c, tau, order)))
        return tuple([jets[kind][:order + 1] for kind in kinds])
    return _jet_sum(kinds, c, tau, order)


def _is_plus_zero(c):
    """c is 0j with both parts +0.0, the one centre staged on tau."""
    return c == 0 and math.copysign(1.0, c.real) + math.copysign(1.0, c.imag) == 2.0


def _weights(tau, mu0, n_terms):
    """The Fourier weight table of the lattice mu0 + n, staged on tau and
    grown to at least n_terms entries (w_n, omega_n): w_n = 2 q^{mu^2/2}
    (q^0 = 1 at mu = 0) and omega_n = 2 pi mu, for mu = mu0 + n."""
    table = tau._stage.get(("weights", mu0))
    if table is None:
        table = tau._stage[("weights", mu0)] = []
    for n in range(len(table), n_terms):
        mu = mu0 + n
        table.append((cmath.exp(1j * cmath.pi * tau.value * mu * mu) * (2.0 if mu else 1.0),
                      2 * math.pi * mu))
    return table


def _overflow(c, tau):
    # the sum runs at the raw centre, so sin and cos of omega c grow like
    # e^(omega |Im c|) even where theta itself stays finite
    return CapacityError("the theta series at the centre v = %s overflows at tau = %s; "
                         "|Im v| is too large" % (c, tau.value))


def _values(c, tau, half=True, whole=True):
    """:func:`_theta_values`; at c = +0 both lattices are read from one
    entry staged on tau."""
    if _is_plus_zero(c):
        return tau.staged("values0", lambda: _theta_values(c, tau))
    return _theta_values(c, tau, half, whole)


def _theta_values(c, tau, half=True, whole=True):
    """(theta, theta1, theta2, theta3) at the plain centre c: every value
    of order 0 comes from here.

    One loop per lattice, over the weight table staged for it: mu = n + 1/2
    gives theta (sin, signed (-1)^n) and theta1 (cos), mu = n gives theta2
    (cos, signed) and theta3 (cos).  A lattice turned off by ``half`` or
    ``whole`` is not summed, and its two kinds read 0j.  Each value has the
    bits of a pass over its kind alone (``tests/jet_reference.py``): the
    sign goes on the wave, not on the weight, which changes at most the sign
    of a zero part, and a sum started at +0 absorbs that.
    """
    sin, cos = cmath.sin, cmath.cos
    odd = even1 = even2 = even3 = 0j
    try:
        if half:
            n_terms = _series_terms(ThetaKind.THETA, tau, c.imag, 0)
            table = _weights(tau, 0.5, n_terms)
            for n in range(n_terms):
                weight, omega = table[n]
                x = omega * c
                s = sin(x)
                even1 += weight * cos(x)
                odd += weight * (-s if n & 1 else s)
        if whole:
            n_terms = _series_terms(ThetaKind.THETA3, tau, c.imag, 0)
            table = _weights(tau, 0.0, n_terms)
            for n in range(n_terms):
                weight, omega = table[n]
                co = cos(omega * c)
                even3 += weight * co
                even2 += weight * (-co if n & 1 else co)
    except OverflowError:
        raise _overflow(c, tau) from None
    return odd, even1, even2, even3


def _jet_sum(kinds, c, tau, order):
    """The Taylor coefficients (a_0, ..., a_order) at c, order >= 1, of
    kinds of one lattice (one characteristic ``a``), one tuple per kind.
    One loop over the terms serves the lattice's two kinds, which share the
    term count (:func:`series_terms` depends on ``a`` alone), the weight
    table, the chain w omega^k/k! and sin and cos of omega c.  The sign
    (-1)^n of theta and theta2 goes on their wave, not on the chain, so a
    product differs from the one their own signed chain gives at most in the
    sign of a zero part, which a sum started at +0 absorbs: each coefficient
    keeps the bits of a pass over its kind alone.
    """
    mu0 = kinds[0].a
    n_terms = _series_terms(kinds[0], tau, c.imag, order)
    table = _weights(tau, mu0, n_terms)
    alternating, plain = _LATTICES[mu0]
    sine = alternating.odd
    alt_sums, plain_sums = [0j] * (order + 1), [0j] * (order + 1)
    try:
        for n in range(n_terms):
            weight, omega = table[n]
            x = omega * c
            s = cmath.sin(x)
            co = cmath.cos(x)
            plain_cycle = (co, -s, -co, s)
            if n & 1:
                s, co = -s, -co
            alt_cycle = (s, co, -s, -co) if sine else (co, -s, -co, s)
            for k in range(order + 1):
                alt_sums[k] += weight * alt_cycle[k & 3]
                plain_sums[k] += weight * plain_cycle[k & 3]
                weight *= omega / (k + 1)
    except OverflowError:
        raise _overflow(c, tau) from None
    jets = {alternating: tuple(alt_sums), plain: tuple(plain_sums)}
    return tuple([jets[kind] for kind in kinds])


def theta_eval(kind, v, tau):
    """theta_kind(v, tau) at a plain number v: the order-0 kernel."""
    tau = TauPoint.coerce(tau)
    return _lattice_jets((kind,), complex(v), tau, 0)[0][0]


def theta_derivative(kind, n, v, tau):
    """n-th derivative in v: n! times the n-th Taylor coefficient at v."""
    if n < 0:
        raise PreconditionError("derivative order must be nonnegative")
    if n == 0:
        return theta_eval(kind, v, tau)
    return theta_jet_coefficients(kind, v, tau, n)[n] * math.factorial(n)


def theta_prime_zero(tau):
    """Derivative of the odd theta at v = 0."""
    return theta_derivative(ThetaKind.THETA, 1, 0.0, tau)


def _values_at_zero(tau, order=1):
    """theta'(0) and (theta1(0), theta2(0), theta3(0)) at a TauPoint: the
    two sides of the Jacobi identity and the engine's scales.  theta'(0) is
    read from the jets at 0 of the lattice of theta summed to ``order`` >= 1,
    the highest order the caller will ask there (a shorter jet is a prefix
    of a longer one, so the order changes no bit), and the even values from
    the order-0 entry staged on tau.  theta'(0) and theta1(0) carry
    |q^{1/8}| = e^{-pi Im tau/4}, which leaves the normal doubles from
    Im(tau) ~ 900 on; a quotient by them would lose its digits and, from
    ~950 on, divide by zero, and the Jacobi identity would read 0 = 0."""
    prime = _lattice_jets((ThetaKind.THETA,), 0j, tau, order)[0][1]
    even = _values(0j, tau)[1:]
    if not min(abs(prime), abs(even[0])) >= sys.float_info.min:
        raise CapacityError("theta'(0) and theta1(0) underflow at tau = %s; Im(tau) is too large"
                            % (tau.value,))
    return prime, even


def jacobi_residual(tau):
    """Defect of the derivative identity
    theta'(0,tau) = pi * theta1(0,tau) theta2(0,tau) theta3(0,tau), relative
    to min(1, |theta'(0)|): both sides shrink like e^{-pi Im tau/4}, and
    below 1 (from Im(tau) ~ 2.3 on) an absolute defect would pass whatever
    they are.  A CapacityError where they underflow (:func:`_values_at_zero`)."""
    lhs, even = _values_at_zero(TauPoint.coerce(tau))
    rhs = cmath.pi
    for value in even:
        rhs *= value
    return abs(lhs - rhs) / min(1.0, abs(lhs))


def shift_factor(kind, v, tau, a, b):
    """Multiplier mu with theta_kind(v + a + b*tau) = mu * theta_kind(v).

    Composes the one-step laws; valid for all integers a, b, at a plain
    number v.
    """
    tau = TauPoint.coerce(tau)
    a, b = int(a), int(b)
    sign = kind.sign_a ** (a & 1) * kind.sign_b ** (b & 1)
    return sign * cmath.exp(-TWO_PI_I * b * complex(v) - 1j * cmath.pi * b * b * tau.value)


class MoebiusMatrix(Record):
    """Integer matrix (a b; c d) with determinant one."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a * d - b * c != 1:
            raise DomainError("matrix (%d %d; %d %d) has determinant != 1" % (a, b, c, d))
        self._set(a, b, c, d)


S_MATRIX = MoebiusMatrix(0, -1, 1, 0)
T_MATRIX = MoebiusMatrix(1, 1, 0, 1)


def moebius_act(g, t, tau):
    """(t, tau) -> (t/(c tau + d), (a tau + b)/(c tau + d)).

    The group acts on the parameter slot by the same denominator as on the
    modulus; S sends (t, tau) to (t/tau, -1/tau) and T to (t, tau+1).
    """
    tau = TauPoint.coerce(tau)
    denom = g.c * tau.value + g.d
    if denom == 0:
        raise DomainError("c*tau + d vanished; point is outside the domain")
    new_tau = (g.a * tau.value + g.b) / denom
    return t / denom, tau.shifted(new_tau)


def theta_values(v, tau):
    """theta_k(v, tau) of the four kinds, as a dict in THETA_KINDS order,
    from one :func:`_theta_values` pass per lattice; each value is bit for
    bit that of :func:`theta_eval` at a plain argument."""
    return dict(zip(THETA_KINDS, _values(complex(v), TauPoint.coerce(tau))))


def st_transform_residuals(v, tau, g, values=None):
    """Defects of the S or T transformation law for the four kinds, as a
    dict in THETA_KINDS order.

    The left-hand sides are one :func:`theta_values` pass at the image
    point.  The right-hand sides read ``values``, the :func:`theta_values`
    at (v, tau) (computed when not given): S reads each kind's ``s_image``
    and T its ``t_image``.
    """
    tau = TauPoint.coerce(tau)
    if isinstance(g, str):
        g = {"S": S_MATRIX, "T": T_MATRIX}[g.upper()]
    if g not in (S_MATRIX, T_MATRIX):
        raise PreconditionError("transformation law table covers only S and T")
    t_new, tau_new = moebius_act(g, v, tau)
    if values is None:
        values = theta_values(v, tau)
    if g == S_MATRIX:
        lhs = theta_values(t_new, tau_new)
        gauss = cmath.exp(1j * cmath.pi * v * v / tau.value)
        return {kind: abs(lhs[kind] - s_prefactor(kind, tau) * gauss * values[kind.s_image])
                for kind in THETA_KINDS}
    # T acts on tau alone
    lhs = theta_values(v, tau_new)
    return {kind: abs(lhs[kind] - kind.t_phase * values[kind.t_image]) for kind in THETA_KINDS}


def st_transform_residual(kind, v, tau, g):
    """Defect of the S or T transformation law for one theta kind."""
    return st_transform_residuals(v, tau, g)[kind]


def theta_zero_location(kind, v, tau):
    """Lattice coordinates (p, r) with v = offset + p + r*tau, to within
    ZERO_LATTICE_TOL, if v is a zero of the given theta kind, else None.  Offsets per kind: theta on the
    lattice itself, theta1 at 1/2, theta2 at tau/2, theta3 at 1/2 + tau/2.
    This is the attributable pole test: factor vanishing is decided by
    lattice membership, not magnitude."""
    tau = TauPoint.coerce(tau).value
    off_p, off_r = kind.zero_offset
    w = complex(v) - off_p - off_r * tau
    r_int = round(w.imag / tau.imag)
    p_int = round((w - r_int * tau).real)
    if abs(w - (p_int + r_int * tau)) < ZERO_LATTICE_TOL:
        return (p_int, r_int)
    return None


# The benchmark's tracer (bench/tracing.py) looks these formal functions up
# in this module, where they used to live.  Each lookup returns the one that
# ellrig.characters binds now, so the tracer wraps the function that is called.
_MOVED_TO_CHARACTERS = ("theta_eval_regularized", "theta_qseries", "theta_qseries_regularized")


def __getattr__(name):
    if name in _MOVED_TO_CHARACTERS:
        from . import characters
        return getattr(characters, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
