"""Associated Legendre functions on the plane cut along (-inf, 1] and the
Ferrers functions (Legendre on the cut) on the plane cut outside [-1, 1],
for complex degree nu and order mu.

The Ferrers function of the second kind is computable through every entry of
the representation table: seven series in the arguments (1 -+ x)/2 and their
Moebius images (group I), six in x^2-type arguments (group II), six in
square-root arguments with the branch i sqrt(1 - x^2) (group III, each with
an upper-sign and a lower-sign form valid on the whole domain), and one
two-sided form in u = x + i sqrt(1 - x^2) and v = 1/u.  Each entry is one
record of domain, parameter exclusions, the ``regions`` argument map of each
2F1 factor, whether the factors are regularized, sign rule and its two
terms as data: (a, b, c) and a ``Coefficient`` record (constant, gamma
numerators and denominators, powers of named x-bases, phase, cos/sin
factors), all affine in (nu, mu).  One interpreter evaluates every record,
and one every coefficient, here and in the catalogue of ``olbricht``:
``_coefficient`` takes its parameter part (the log-gamma sum, exponents,
phase and cos/sin factors), and ``_coefficients_at`` adds the power logs at
x and exponentiates once.  What depends on (nu, mu) alone is worked out once
per ``ParamPair``: the pair keeps a plan (``_plan``) of its exclusions and,
for each record tried, its 2F1 parameters and coefficient parts, so a sweep
over x at one pair repeats none of it.  One rule, ``_refusal``, decides
whether a record may be used at (p, x): ``ferrers_q`` scores only the
records it lets through, by argument modulus, runs the region test only on
the candidates it tries and hands the winner the arguments the ranking
computed.  The reasons of refused records are built only where they are
reported: ``valid_representations`` and a ``NoRepresentationError`` of
``ferrers_q`` give them, and ``ferrers_q_rep``, ``ferrers_q_rep_trig`` (the
theta-forms of group III, at x = cos(theta)) and ``ferrers_q_halfplane_cut``
raise them.  A value beyond double range raises ``DomainError`` naming its
function.  A NaN argument lies in no domain, so it raises ``DomainError``
before any series is summed; a non-finite nu or mu raises
``ParameterError``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Container, NamedTuple

from .complexmath import (
    cospi,
    gamma_quotient,
    log_gamma_quotient,
    near_int,
    principal_pow,
    sinpi,
    z2m1_pow,
)
from .errors import (
    DomainError,
    FerroxError,
    NoRepresentationError,
    ParameterError,
)
from .hyp2f1 import (
    DEFAULT_TOL,
    CutSide,
    HypParams,
    TAIL_FACTOR,
    THETA_CUT,
    SeriesResult,
    combine,
    f21,
    f21_cut,
    f21_regularized,
    route_radius,
)
from .regions import (
    DomainId,
    argument,
    in_domain,
    map_value,
    map_values,
    region_test,
    unusable_maps,
)

__all__ = [
    "EvalOutcome",
    "ParamPair",
    "RepresentationId",
    "RepValidity",
    "connection_residuals",
    "ferrers_p",
    "ferrers_q",
    "ferrers_q_halfplane_cut",
    "ferrers_q_rep",
    "ferrers_q_rep_trig",
    "ferrers_q_via_limit",
    "legendre_ode_residual",
    "legendre_p",
    "legendre_q",
    "legendre_q_bold",
    "valid_representations",
]

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class ParamPair:
    """Degree nu and order mu.  The representation table excludes the
    parameter sets named in ``_EXCL_NAMES``, which ``_exclusions`` decides
    by one near-integer test each of mu, 2 mu, 2 nu, nu + 1/2 and nu + mu:
    values within 1e-9 of an excluded integer count as excluded, since closer
    than that the two terms of a representation cancel (its gamma and
    sin/cos factors stay accurate).  Non-finite nu or mu: ``ParameterError``.

    On first use the pair keeps its plan (``_plan``): the exclusions and, for
    each record tried, its 2F1 parameters and the parameter part of its
    coefficients.  The plan is not a field, so ``==``, ``hash``, ``repr`` and
    pickles are those of (nu, mu); it holds only values computed from them,
    so no result depends on it."""

    nu: complex
    mu: complex

    def __post_init__(self):
        object.__setattr__(self, "nu", complex(self.nu))
        object.__setattr__(self, "mu", complex(self.mu))
        if not (cmath.isfinite(self.nu) and cmath.isfinite(self.mu)):
            raise ParameterError(f"nu and mu must be finite; got nu={self.nu}, mu={self.mu}")

    def __getstate__(self):
        # the plan (see ``_plan``) is rebuilt on first use, not pickled
        return {"nu": self.nu, "mu": self.mu}


class RepresentationId(Enum):
    I1 = "I1"
    I2 = "I2"
    I3 = "I3"
    I4 = "I4"
    I5 = "I5"
    I6 = "I6"
    I7 = "I7"
    II1 = "II1"
    II2 = "II2"
    II3 = "II3"
    II4 = "II4"
    II5 = "II5"
    II6 = "II6"
    III1_UPPER = "III1Upper"
    III1_LOWER = "III1Lower"
    III2_UPPER = "III2Upper"
    III2_LOWER = "III2Lower"
    III3_UPPER = "III3Upper"
    III3_LOWER = "III3Lower"
    FOURIER_UV = "FourierUV"


@dataclass(frozen=True)
class EvalOutcome:
    value: complex
    rep: RepresentationId | None
    terms_used: int
    tail_estimate: float


@dataclass(frozen=True)
class RepValidity:
    """Validity of one representation at a point.

    ``ok`` means the identity holds there (domain of x and parameter
    exclusions); ``region_ok`` additionally means the hypergeometric series
    converges at the point's argument, which is what the automatic dispatch
    keys on.  ``preference`` is the largest argument modulus (smaller sorts
    first)."""

    rep: RepresentationId
    ok: bool
    reason: str | None
    region_ok: bool
    preference: float


def _guarded(label: str, evaluate: Callable, *args):
    """``evaluate(*args)``; a non-finite value, an ``ArithmeticError`` or a
    ``ValueError`` (a cmath domain error) becomes a ``DomainError`` naming
    ``label``: some value on the way is beyond double range."""
    try:
        out = evaluate(*args)
        if cmath.isfinite(out.value):
            return out
        reason = f"value {out.value}"
    except (ArithmeticError, ValueError) as exc:
        reason = str(exc)
    raise DomainError(f"{label}: intermediate value beyond double range ({reason})")


def _guard(fn: Callable[[ParamPair, complex, float], EvalOutcome]):
    """The first-kind or cut-plane function ``fn`` under ``_guarded``; z is
    converted first, so that a malformed z still raises its own error."""
    @functools.wraps(fn)
    def guarded(p: ParamPair, z: complex, tol: float = DEFAULT_TOL) -> EvalOutcome:
        return _guarded(fn.__name__, fn, p, complex(z), tol)
    return guarded


# ---------------------------------------------------------------------------
# Legendre functions on the cut plane D2 and Ferrers P on D1
# ---------------------------------------------------------------------------

@_guard
def legendre_p(p: ParamPair, z: complex, tol: float = DEFAULT_TOL) -> EvalOutcome:
    """First-kind associated Legendre function on the plane cut along
    (-inf, 1].  Valid for all nu, mu (the regularized series removes the
    1 - mu pole)."""
    z = complex(z)
    if not in_domain(DomainId.D2, z):
        raise DomainError(f"legendre_p requires z off (-inf, 1]; got {z}")
    nu, mu = p.nu, p.mu
    pref = principal_pow((z + 1.0) / (z - 1.0), 0.5 * mu)
    r = f21_regularized(HypParams(-nu, nu + 1.0, 1.0 - mu), (1.0 - z) / 2.0, tol)
    return EvalOutcome(pref * r.value, None, r.terms_used, r.tail_estimate)


@_guard
def legendre_q(p: ParamPair, z: complex, tol: float = DEFAULT_TOL) -> EvalOutcome:
    """Second-kind associated Legendre function on the plane cut along
    (-inf, 1], e^{i pi mu} Gamma(nu + mu + 1) times ``legendre_q_bold``;
    undefined when nu + mu is a negative integer."""
    z = complex(z)
    if not in_domain(DomainId.D2, z):
        raise DomainError(f"legendre_q requires z off (-inf, 1]; got {z}")
    if "numu_neg" in _plan(p).excluded:
        raise ParameterError(f"legendre_q undefined for nu + mu = {p.nu + p.mu} in -N")
    bold = legendre_q_bold(p, z, tol)
    scale = cmath.exp(1j * math.pi * p.mu) * gamma_quotient((p.nu + p.mu + 1.0,), ())
    return EvalOutcome(scale * bold.value, None, bold.terms_used, bold.tail_estimate)


@_guard
def legendre_q_bold(p: ParamPair, z: complex, tol: float = DEFAULT_TOL) -> EvalOutcome:
    """Normalized second-kind function e^{-i pi mu} Q / Gamma(nu + mu + 1);
    entire in both parameters and even in mu."""
    z = complex(z)
    if not in_domain(DomainId.D2, z):
        raise DomainError(f"legendre_q_bold requires z off (-inf, 1]; got {z}")
    nu, mu = p.nu, p.mu
    pref = (_SQRT_PI * z2m1_pow(z, 0.5 * mu)
            / (principal_pow(2.0, nu + 1.0) * principal_pow(z, nu + mu + 1.0)))
    r = f21_regularized(
        HypParams((nu + mu + 2.0) / 2.0, (nu + mu + 1.0) / 2.0, nu + 1.5),
        1.0 / (z * z), tol)
    return EvalOutcome(pref * r.value, None, r.terms_used, r.tail_estimate)


@_guard
def ferrers_p(p: ParamPair, x: complex, tol: float = DEFAULT_TOL) -> EvalOutcome:
    """Ferrers function of the first kind on the plane cut outside [-1, 1];
    valid for all nu, mu."""
    x = complex(x)
    if not in_domain(DomainId.D1, x):
        raise DomainError(f"ferrers_p requires x off the real rays |x| >= 1; got {x}")
    nu, mu = p.nu, p.mu
    pref = principal_pow((1.0 + x) / (1.0 - x), 0.5 * mu)
    r = f21_regularized(HypParams(-nu, nu + 1.0, 1.0 - mu), (1.0 - x) / 2.0, tol)
    return EvalOutcome(pref * r.value, None, r.terms_used, r.tail_estimate)


# ---------------------------------------------------------------------------
# Coefficients as data, affine in (nu, mu); ``_coefficient`` (the parameter
# part) and ``_coefficients_at`` (the x-part) interpret them here and for the
# catalogue of ``olbricht``.
# ---------------------------------------------------------------------------

Affine = tuple[float, float, float]   # value = a0 + a_nu * nu + a_mu * mu


def _aff(t: Affine, nu: complex, mu: complex) -> complex:
    return t[0] + t[1] * nu + t[2] * mu


class Coefficient(NamedTuple):
    """const (times the record's sign g when ``signed``) * prod Gamma(gammas)
    / prod Gamma(rgammas) * prod base^exponent * e^{i pi g phase} * prod f(pi t)
    over ``trig`` (f cos, sin, 1/cos or 1/sin) * the named ``extra`` factor.
    Bases are named; their values come from the caller's vocabulary."""

    const: complex = 1.0
    signed: bool = False
    gammas: tuple[Affine, ...] = ()
    rgammas: tuple[Affine, ...] = ()
    powers: tuple[tuple[str, Affine], ...] = ()
    phase: Affine | None = None
    trig: tuple[tuple[str, Affine], ...] = ()
    extra: str | None = None


#: trig name -> (function of t giving f(pi t), divide by it)
_TRIG = {"cos": (cospi, False), "sin": (sinpi, False), "1/cos": (cospi, True),
         "1/sin": (sinpi, True)}

#: The two factors that are not products, of (nu, mu, g): the half-plane mix
#: of I5, I6, II2 and II4 and the factor of the second term of III1 and III2.
_EXTRAS = {
    "mix": lambda nu, mu, g: cospi(mu) - g * 1j * sinpi(mu - nu) / (2.0 * cospi(nu)),
    "fac": lambda nu, mu, g: (1.0 + cmath.exp(g * 1j * math.pi * (nu + mu))
                              * cospi(mu) / cospi(nu)),
}


def _log_bases(vocabulary: dict[str, Callable[..., complex]], tags, *args):
    """(logs, odd): the log of each named base ``vocabulary[tag](*args)``,
    taken once for every term that uses it, and the zero or negative real
    bases, kept as values for ``principal_pow`` and its branch rules."""
    logs, odd = {}, {}
    for tag in tags:
        v = vocabulary[tag](*args)
        if v.imag == 0.0 and v.real <= 0.0:
            odd[tag] = v
        else:
            logs[tag] = cmath.log(v)
    return logs, odd


def _coefficient(coef: Coefficient, nu: complex, mu: complex, g: int):
    """The parameter part of ``coef`` at (nu, mu) with sign g, which
    ``_coefficients_at`` completes at x: None where the gamma part is 0
    (``log_gamma_quotient`` next to a denominator pole), else (log, const,
    exponents, phase, factors): the log of the gamma part, the constant, the
    (base tag, exponent) of each power, the phase term of the log or None,
    and the (value, divide) of each cos/sin and extra factor in record order.
    ``ParameterError`` where the gamma part is beyond double range, an
    ``OverflowError`` where a factor is.  Affine values are spelled out here,
    for speed."""
    acc = log_gamma_quotient([a0 + a1 * nu + a2 * mu for a0, a1, a2 in coef.gammas],
                             [a0 + a1 * nu + a2 * mu for a0, a1, a2 in coef.rgammas])
    if acc is None:
        return None
    exponents, factors = [], []
    for tag, (a0, a1, a2) in coef.powers:
        exponents.append((tag, a0 + a1 * nu + a2 * mu))
    for name, (a0, a1, a2) in coef.trig:
        f, divide = _TRIG[name]
        factors.append((f(a0 + a1 * nu + a2 * mu), divide))
    if coef.extra is not None:
        factors.append((_EXTRAS[coef.extra](nu, mu, g), False))
    return (acc, coef.const * g if coef.signed else coef.const, exponents,
            None if coef.phase is None else 1j * math.pi * g * _aff(coef.phase, nu, mu),
            factors)


def _coefficients_at(parts, bases) -> list[complex]:
    """The value of each ``_coefficient`` part in ``parts`` at the point of
    ``bases`` (from ``_log_bases``): the power logs are added to the gamma
    log and phase and exponentiated once.  Any overflow is an
    ``OverflowError``."""
    logs, odd = bases
    out = []
    for part in parts:
        if part is None:
            out.append(0j)
            continue
        acc, value, exponents, phase, factors = part
        for tag, e in exponents:
            if tag in odd:
                value *= principal_pow(odd[tag], e)
            else:
                acc += e * logs[tag]
        if phase is not None:
            acc += phase
        for v, divide in factors:
            value = value / v if divide else value * v
        out.append(value * cmath.exp(acc))
    return out


# ---------------------------------------------------------------------------
# Representation table: one record per representation
# ---------------------------------------------------------------------------

#: Parameter exclusion key -> the label its refusal gives.
_EXCL_NAMES = {
    "mu_int": "mu in Z",
    "two_mu_int": "2 mu in Z",
    "two_nu_int": "2 nu in Z",
    "nu_half_int": "nu + 1/2 in Z",
    "numu_int": "nu + mu in Z",
    "numu_neg": "nu + mu in -N",
    "numu_nonpos": "nu + mu in -N0",
    "numu_pos": "nu + mu in N",
}


def _exclusions(p: ParamPair) -> set[str]:
    """The keys of ``_EXCL_NAMES`` that hold for p (see ``ParamPair``)."""
    nu, mu = p.nu, p.mu
    out = {key for key, z in (("mu_int", mu), ("two_mu_int", 2.0 * mu), ("two_nu_int", 2.0 * nu),
                              ("nu_half_int", nu + 0.5), ("numu_int", nu + mu))
           if near_int(z)}
    if "numu_int" in out:
        n = round((nu + mu).real)
        out.add("numu_pos" if n > 0 else "numu_nonpos")
        if n < 0:
            out.add("numu_neg")
    return out


class _Sign(Enum):
    """Sign rule of a representation: none, fixed (the upper and lower forms
    of group III), or taken from the half-plane of x (I5, I6, II2, II4)."""

    NONE = 0
    UPPER = +1
    LOWER = -1
    HALFPLANE = "halfplane"

    def at(self, x: complex) -> int:
        if self is _Sign.HALFPLANE:
            return +1 if x.imag > 0 else -1
        return self.value


class _Term(NamedTuple):
    hyp: tuple[Affine, Affine, Affine]   # (a, b, c) of the term's 2F1 factor
    coef: Coefficient


#: The power bases of the coefficients, of (x, s = sqrt(1 - x^2), sign g).
_X_BASES: dict[str, Callable[[complex, complex, int], complex]] = {
    "2": lambda x, s, g: 2.0,
    "1+x": lambda x, s, g: 1.0 + x,
    "1-x": lambda x, s, g: 1.0 - x,
    "(1+x)/(1-x)": lambda x, s, g: (1.0 + x) / (1.0 - x),
    "1-x^2": lambda x, s, g: 1.0 - x * x,
    "x": lambda x, s, g: x,
    "s": lambda x, s, g: s,
    "x+igs": lambda x, s, g: x + g * 1j * s,
    "x-igs": lambda x, s, g: x - g * 1j * s,
    "x+is": lambda x, s, g: x + 1j * s,
    "x-is": lambda x, s, g: x - 1j * s,
}


@dataclass(frozen=True, eq=False)   # by identity: a plan keys its entries by record
class _RepSpec:
    domain: str                       # "D1" | "D1+" | "half"
    exclusions: tuple[str, ...]
    #: the argument map of both 2F1 factors, or of each factor in turn
    argument_ids: tuple[int, ...]
    terms: tuple[_Term, _Term]
    sign: _Sign = _Sign.NONE
    #: the factors are 2F1(a, b; c; w) / Gamma(c)
    regularized: bool = False
    #: f21 moves the factors, which share (a, b, c), to a smaller argument
    #: first, so the route radius, not |w|, decides convergence and preference
    routed: bool = False
    #: the distinct power bases of the two terms
    bases: tuple[str, ...] = field(init=False)
    #: the distinct (a, b, c) of the two factors: one when they share it
    hyps: tuple[tuple[Affine, Affine, Affine], ...] = field(init=False)
    #: the closed-form test of |w_j| < 1 of each argument map
    region_tests: tuple[Callable[[complex], bool], ...] = field(init=False)

    def __post_init__(self):
        tags = dict.fromkeys(tag for t in self.terms for tag, _ in t.coef.powers)
        object.__setattr__(self, "bases", tuple(tags))
        object.__setattr__(self, "hyps", tuple(dict.fromkeys(t.hyp for t in self.terms)))
        object.__setattr__(self, "region_tests", tuple(map(region_test, self.argument_ids)))


def _rep_table() -> dict[RepresentationId, _RepSpec]:
    """The 20 records.  t((a, b, c), const, gamma numerators, gamma
    denominators, powers, *trig, **rest) is one term (see ``Coefficient``)."""
    def t(hyp, const, gammas, rgammas, powers, *trig, **rest):
        return _Term(hyp, Coefficient(const, gammas=gammas, rgammas=rgammas, powers=powers,
                                      trig=trig, **rest))

    R, pi, rpi = RepresentationId, math.pi, _SQRT_PI
    nu, mu, nu_mu, neg_nu, neg_mu = (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, -1, 0), (0, 0, -1)
    n1, d1, nu1 = (1, 1, 1), (1, 1, -1), (1, 1, 0)      # nu + mu + 1, nu - mu + 1, nu + 1
    c_lo, c_hi = (1, 0, -1), (1, 0, 1)                   # 1 - mu, 1 + mu
    p1, q1, h = (1.5, 1, 0), (.5, -1, 0), (0, .5, .5)    # nu + 3/2, 1/2 - nu, (nu + mu) / 2
    x2 = "1-x^2"
    up, down = (("(1+x)/(1-x)", (0, 0, .5)),), (("(1+x)/(1-x)", (0, 0, -.5)),)
    i3, i4 = (("1+x", nu), ("2", (-1, -1, 0))), (("2", nu), ("1-x", (-1, -1, 0)))
    ii3 = (("2", (-1, 0, 1)), (x2, (0, 0, -.5)))
    excl, half = ("mu_int", "numu_neg"), dict(sign=_Sign.HALFPLANE)
    rows = {
        R.I1: _RepSpec("D1", excl, (1,), (
            t((neg_nu, nu1, c_lo), pi / 2, (), (c_lo,), up, ("cos", mu), ("1/sin", mu)),
            t((neg_nu, nu1, c_hi), -pi / 2, (n1,), (c_hi, d1), down, ("1/sin", mu)))),
        R.I2: _RepSpec("D1", excl, (2,), (
            t((neg_nu, nu1, c_lo), -.5, (mu,), (), down, ("cos", nu)),
            t((neg_nu, nu1, c_hi), -.5, (neg_mu, n1), (d1,), up, ("cos", nu_mu)))),
        R.I3: _RepSpec("D1", excl, (3,), (
            t((neg_nu, (0, -1, -1), c_lo), 1.0, (mu,), (), i3 + up, ("cos", mu)),
            t((neg_nu, (0, -1, 1), c_hi), 1.0, (neg_mu, n1), (d1,), i3 + down))),
        R.I4: _RepSpec("D1", excl, (4,), (
            t((nu1, d1, c_lo), -1.0, (mu,), (), i4 + down, ("cos", nu)),
            t((nu1, n1, c_hi), -1.0, (neg_mu, n1), (d1,), i4 + up, ("cos", nu_mu)))),
        R.I5: _RepSpec("half", ("two_nu_int", "numu_nonpos"), (5,), (
            t((d1, nu1, (2, 2, 0)), 1.0, (nu1, n1), ((2, 2, 0),),
              (("2", nu), ("1+x", (-1, -1, .5)), ("1-x", (0, 0, -.5))), extra="mix"),
            t((neg_nu, (0, -1, -1), (0, -2, 0)), 1j * pi, (neg_nu,), ((0, -2, 0), d1),
              (("2", (-2, -1, 0)), ("1+x", (0, 1, .5)), ("1-x", (0, 0, -.5))), ("1/cos", nu),
              signed=True)), **half),
        R.I6: _RepSpec("half", ("two_nu_int", "numu_nonpos"), (6,), (
            t((n1, nu1, (2, 2, 0)), 1.0, (nu1, n1), ((2, 2, 0),),
              (("2", nu), ("1+x", (0, 0, .5)), ("1-x", (-1, -1, -.5))), phase=(-1, -1, 0),
              extra="mix"),
            t((neg_nu, (0, -1, 1), (0, -2, 0)), 1j * pi, (neg_nu,), ((0, -2, 0), d1),
              (("2", (-2, -1, 0)), ("1+x", (0, 0, .5)), ("1-x", (0, 1, -.5))), ("1/cos", nu),
              phase=nu, signed=True)), **half),
        # Both terms share the parameter set; the regularized series removes
        # the Gamma(1 - mu) pole, so integer mu is allowed here.
        R.I7: _RepSpec("D1", ("numu_int",), (1, 2), (
            t((neg_nu, nu1, c_lo), pi / 2, (), (), up, ("cos", nu_mu), ("1/sin", nu_mu)),
            t((neg_nu, nu1, c_lo), -pi / 2, (), (), down, ("1/sin", nu_mu))), regularized=True),
        R.II1: _RepSpec("D1+", excl, (7,), (
            t(((.5, .5, -.5), (0, -.5, -.5), c_lo), 1.0, (mu,), (), ii3, ("cos", mu)),
            t(((.5, .5, .5), (0, -.5, .5), c_hi), 1.0, (neg_mu, n1), (d1,),
              (("2", (-1, 0, -1)), (x2, (0, 0, .5)))))),
        R.II2: _RepSpec("half", ("nu_half_int", "numu_neg"), (8,), (
            t(((.5, .5, -.5), (.5, .5, .5), p1), rpi, (n1,), (p1,),
              (("2", (-1, -1, 0)), (x2, (-.5, -.5, 0))), phase=(-.5, -.5, .5), extra="mix"),
            t(((0, -.5, -.5), (0, -.5, .5), q1), pi ** 1.5, (), (d1, q1),
              (("2", (-1, 1, 0)), (x2, (0, .5, 0))), ("1/cos", nu), phase=(.5, .5, .5))), **half),
        R.II3: _RepSpec("D1", ("numu_neg",), (9,), (
            t(((0, -.5, -.5), (.5, .5, -.5), (.5, 0, 0)), -rpi, ((.5, .5, .5),), ((1, .5, -.5),),
              ii3, ("sin", h)),
            t(((.5, -.5, -.5), (1, .5, -.5), (1.5, 0, 0)), 2.0 * rpi, ((1, .5, .5),),
              ((.5, .5, -.5),), ii3 + (("x", (1, 0, 0)),), ("cos", h)))),
        R.II4: _RepSpec("half", ("nu_half_int", "numu_neg"), (10,), (
            t(((.5, .5, .5), (1, .5, .5), p1), rpi, (n1,), (p1,),
              (("2", (-1, -1, 0)), ("x", (-1, -1, -1)), (x2, (0, 0, .5))), phase=mu, extra="mix"),
            t(((0, -.5, .5), (.5, -.5, .5), q1), pi ** 1.5, (), (d1, q1),
              (("2", (-1, 1, 0)), ("x", (0, 1, -1)), (x2, (0, 0, .5))), ("1/cos", nu),
              phase=(.5, 0, 1))), **half),
        R.II5: _RepSpec("D1+", excl, (11,), (
            t(((0, -.5, -.5), (.5, -.5, -.5), c_lo), 1.0, (mu,), (), ii3 + (("x", nu_mu),),
              ("cos", mu)),
            t(((0, -.5, .5), (.5, -.5, .5), c_hi), 1.0, (n1, neg_mu), (d1,),
              (("2", (-1, 0, -1)), (x2, (0, 0, .5)), ("x", (0, 1, -1)))))),
        R.II6: _RepSpec("D1", ("numu_pos", "numu_neg"), (12,), (
            t(((.5, .5, -.5), (.5, .5, .5), (.5, 0, 0)), -rpi / 2, ((.5, .5, .5),),
              ((1, .5, -.5),), (("2", mu), (x2, (-.5, -.5, 0))), ("sin", h)),
            t(((.5, -.5, .5), (.5, -.5, -.5), (1.5, 0, 0)), rpi, ((1, .5, .5),), ((.5, .5, -.5),),
              (("2", mu), ("x", (1, 0, 0)), (x2, (-.5, .5, 0))), ("cos", h)))),
    }
    groups = {
        (R.III1_UPPER, R.III1_LOWER, "D1", "nu_half_int", 13, 17): (
            t(((.5, 0, 1), (.5, 0, -1), q1), rpi / 2.0 ** 1.5, ((.5, 1, 0),), (d1,),
              (("s", (-.5, 0, 0)), ("x+igs", (.5, 1, 0))), phase=(.25, 0, .5)),
            t(((.5, 0, 1), (.5, 0, -1), p1), rpi / 2.0 ** 1.5, (n1,), (p1,),
              (("s", (-.5, 0, 0)), ("x-igs", (.5, 1, 0))), phase=(-.25, 0, -.5), extra="fac")),
        (R.III2_UPPER, R.III2_LOWER, "D1", "nu_half_int", 14, 18): (
            t(((.5, 0, 1), (0, -1, 1), q1), rpi, ((.5, 1, 0),), (d1,),
              (("2", (-1, 0, 1)), ("s", mu), ("x+igs", (0, 1, -1))), phase=(.5, 0, 1)),
            t(((.5, 0, 1), n1, p1), rpi, (n1,), (p1,),
              (("2", (-1, 0, 1)), ("s", mu), ("x-igs", n1)), extra="fac")),
        (R.III3_UPPER, R.III3_LOWER, "D1+", "two_mu_int", 15, 16): (
            t(((.5, 0, 1), (0, -1, 1), (1, 0, 2)), 1.0, (neg_mu, n1), (d1,),
              (("2", (-1, 0, -1)), ("s", mu), ("x+igs", (0, 1, -1)))),
            t(((.5, 0, -1), (0, -1, -1), (1, 0, -2)), 1.0, (mu,), (),
              (("2", (-1, 0, 1)), ("x+igs", nu_mu), ("s", neg_mu)), ("cos", mu))),
    }
    for (upper, lower, domain, excluded, j_up, j_low), terms in groups.items():
        rows[upper] = _RepSpec(domain, (excluded, "numu_neg"), (j_up,), terms, _Sign.UPPER)
        rows[lower] = _RepSpec(domain, (excluded, "numu_neg"), (j_low,), terms, _Sign.LOWER)
    uv, pre = ((.5, 0, 1), n1, p1), (("2", (-1, 0, 1)), (x2, (0, 0, .5)))
    rows[R.FOURIER_UV] = _RepSpec("D1", ("numu_neg",), (18, 14), (
        t(uv, rpi, (n1,), (), pre + (("x+is", n1),)),
        t(uv, rpi, (n1,), (), pre + (("x-is", n1),))), regularized=True, routed=True)
    return {rep: rows[rep] for rep in R}


_REP_TABLE = _rep_table()


class _Plan:
    """The parameter-only work of the records at one (nu, mu): ``excluded``
    (``_exclusions``) and, filled as records are tried, ``hyps`` (record ->
    the ``HypParams`` of its two factors, one object when they share
    (a, b, c)) and ``parts`` ((record, sign g) -> the ``_coefficient`` of each
    term).  A part that raises is not stored, so it raises again."""

    __slots__ = ("nu", "mu", "excluded", "hyps", "parts")

    def __init__(self, p: ParamPair):
        self.nu, self.mu = p.nu, p.mu
        self.excluded = _exclusions(p)
        self.hyps = {}
        self.parts = {}


def _plan(p: ParamPair) -> _Plan:
    """The plan kept on p, built on first use.  Threads that build one at
    once each build the same values, and the last one set stays."""
    plan = getattr(p, "_plan", None)
    if plan is None:
        plan = _Plan(p)
        object.__setattr__(p, "_plan", plan)
    return plan


def _hyps(plan: _Plan, spec: _RepSpec) -> list[HypParams]:
    """The ``HypParams`` of ``spec``'s two factors at the plan's (nu, mu),
    stored in the plan: one object twice when they share (a, b, c)."""
    nu, mu = plan.nu, plan.mu
    hyps = []
    for (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) in spec.hyps:
        hyps.append(HypParams(a0 + a1 * nu + a2 * mu, b0 + b1 * nu + b2 * mu,
                              c0 + c1 * nu + c2 * mu))
    hyps = plan.hyps[spec] = hyps * (2 // len(hyps))
    return hyps


def _outside(x: complex) -> dict[str, str | None]:
    """Why x lies outside each record domain ("D1", "D1+", "half"), and
    under "x^2" that x^2 is beyond double range; None where x passes.  A
    NaN x is outside every domain."""
    if cmath.isnan(x):
        return dict.fromkeys(("D1", "D1+", "half", "x^2"), f"x = {x} is not a number")
    return {
        "D1": None if in_domain(DomainId.D1, x) else "x not in D1",
        "D1+": None if in_domain(DomainId.D1_PLUS, x) else "x not in D1 with Re x > 0",
        "half": "x on the real axis (half-plane representation)" if x.imag == 0.0 else None,
        "x^2": None if cmath.isfinite(x * x) else f"x^2 is beyond double range at x = {x}",
    }


def _refusal(spec: _RepSpec, excluded: set[str], outside: dict[str, str | None],
             unusable: dict[int, str]) -> tuple[type[FerroxError], str] | None:
    """The one rule for whether ``spec`` may be used at x, given
    ``_exclusions``, ``_outside`` and ``regions.unusable_maps`` there: None,
    or (error type, reason) for its first excluded parameter set
    (``ParameterError``), else x outside its domain, its first unusable map
    or x^2 beyond double range (``DomainError``)."""
    for key in spec.exclusions:
        if key in excluded:
            return ParameterError, _EXCL_NAMES[key]
    reason = outside[spec.domain]
    if reason is None:
        reason = next((unusable[j] for j in spec.argument_ids if j in unusable), outside["x^2"])
    return None if reason is None else (DomainError, reason)


def _check(rep: RepresentationId, plan: _Plan, x: complex, unusable: dict[int, str]) -> None:
    """Raise ``rep``'s ``_refusal`` at (plan, x), if it has one, with the
    reason its ``valid_representations`` row gives; ``unusable`` are the maps
    taken as unusable at x."""
    refusal = _refusal(_REP_TABLE[rep], plan.excluded, _outside(x), unusable)
    kind, reason = refusal or (None, None)
    if kind is ParameterError:
        raise ParameterError(f"{reason} excluded by representation {rep.value}")
    if kind is DomainError:
        raise DomainError(f"{reason} (representation {rep.value})")


def _rank(plan: _Plan, outside: dict[str, str | None], x: complex,
          y: complex) -> tuple[dict[int, complex], list[tuple]]:
    """(values, rows): the arguments w_j(x) of the maps usable at x, root
    y = i sqrt(1 - x^2), each computed once, and as (score, table index, rep,
    spec) every record that ``_refusal`` lets through, so that sorting the
    rows ranks them, ties in table order.  A record scores the largest
    modulus of its arguments (route radius for a routed record).  Refused
    records are left to ``_refusals``, and the region test to
    ``_converges``, so that ``ferrers_q`` runs it only on the candidates it
    tries."""
    excluded = plan.excluded
    unusable = unusable_maps(x)
    values = map_values(x, y, unusable)  # a map unusable at x is left out
    # Nothing excluded, no unusable map and x^2 finite leave each record
    # only its domain's reason: the common case calls no _refusal.
    checked = excluded or unusable or outside["x^2"]
    rows = []
    for i, (rep, spec) in enumerate(_REP_TABLE.items()):
        if checked:
            if _refusal(spec, excluded, outside, unusable) is not None:
                continue
        elif outside[spec.domain] is not None:
            continue
        ids = spec.argument_ids  # one map but for I7 and FourierUV
        if spec.routed:
            hp = (plan.hyps.get(spec) or _hyps(plan, spec))[0]
            score = max([route_radius(hp, values[j]) for j in ids])
        elif len(ids) == 1:
            score = abs(values[ids[0]])
        else:
            score = max([abs(values[j]) for j in ids])
        rows.append((score, i, rep, spec))
    return values, rows


def _refusals(plan: _Plan, outside: dict[str, str | None], x: complex,
              ranked: Container[int]) -> list[str | None]:
    """Per record, in table order, the reason of its ``_refusal`` at x, or
    None for the table indices in ``ranked``, the records ``_rank`` scored."""
    unusable = unusable_maps(x)
    return [None if i in ranked else _refusal(spec, plan.excluded, outside, unusable)[1]
            for i, spec in enumerate(_REP_TABLE.values())]


def _converges(spec: _RepSpec, x: complex, score: float) -> bool:
    """Whether every series of ``spec`` converges at x, given the score of
    its ``_rank`` row: each argument inside the closed-form region of its
    map, or for a routed record every route radius below ``THETA_CUT``."""
    if spec.routed:
        return score < THETA_CUT
    for test in spec.region_tests:
        if not test(x):
            return False
    return True


def valid_representations(p: ParamPair, x: complex) -> list[RepValidity]:
    """Per-representation validity at (p, x), in table order: the rows
    ``ferrers_q`` ranks, each with the reason ``ferrers_q_rep`` refuses it
    for and its argument-modulus preference score (inf when refused).  The
    region test runs on every usable row.  ``ferrers_q`` takes the first
    row by preference that is ok, converges at x and evaluates with a
    ``tail_estimate`` of at most ``TAIL_FACTOR * tol``."""
    x = complex(x)
    plan, outside = _plan(p), _outside(x)
    _, rows = _rank(plan, outside, x, 1j * cmath.sqrt(1.0 - x * x))
    usable = {i: RepValidity(rep, True, None, _converges(spec, x, score), score)
              for score, i, rep, spec in rows}
    reasons = _refusals(plan, outside, x, usable)
    return [usable[i] if reason is None else RepValidity(rep, False, reason, False, math.inf)
            for i, (rep, reason) in enumerate(zip(_REP_TABLE, reasons))]


def _interpret(spec: _RepSpec, plan: _Plan, x: complex, s: complex, tol: float,
               side: CutSide | None, ws: list[complex] | None = None) -> SeriesResult:
    """The one interpreter of the records: the argument of each 2F1 factor
    (``ws``, or from the record's maps with root y = i s), then the two
    coefficients with the record's sign at x (their parameter parts from the
    plan), then each factor by ``f21`` (``f21_regularized`` for a
    regularized record), or by its limit ``f21_cut`` on the cut from
    ``side``."""
    g = spec.sign.at(x)
    if ws is None:
        ws = [map_value(j, x, 1j * s) for j in spec.argument_ids]
    bases = _log_bases(_X_BASES, spec.bases, x, s, g)
    parts = plan.parts.get((spec, g))
    if parts is None:
        first, second = spec.terms
        parts = plan.parts[spec, g] = (_coefficient(first.coef, plan.nu, plan.mu, g),
                                       _coefficient(second.coef, plan.nu, plan.mu, g))
    coefs = _coefficients_at(parts, bases)
    out = []
    hyps = plan.hyps.get(spec) or _hyps(plan, spec)
    for coef, hp, w in zip(coefs, hyps, ws * (2 // len(ws))):  # one map: both factors
        if side is not None:
            r = f21_cut(hp, w.real, side, tol)
        elif spec.regularized:
            r = f21_regularized(hp, w, tol)
        else:
            r = f21(hp, w, tol)
        out.append((coef, r))
    return combine(out)


def _run(rep: RepresentationId, plan: _Plan, x: complex, s: complex, tol: float,
         side: CutSide | None = None, ws: list[complex] | None = None) -> EvalOutcome:
    """``rep`` at x, s = sqrt(1 - x^2), by ``_interpret`` under ``_guarded``;
    ``ws`` are the arguments of its factors, if already computed."""
    r = _guarded(f"representation {rep.value}", _interpret, _REP_TABLE[rep], plan, x, s,
                 tol, side, ws)
    return EvalOutcome(r.value, rep, r.terms_used, r.tail_estimate)


def ferrers_q_rep(rep: RepresentationId, p: ParamPair, x: complex,
                  tol: float = DEFAULT_TOL) -> EvalOutcome:
    """Ferrers function of the second kind through one chosen representation.

    Raises, with the reason ``valid_representations`` gives, ParameterError
    for excluded parameters and DomainError where x lies outside the
    representation's domain, one of its argument maps is unusable (the
    square-root maps lose their digits from |x| = 50 on, see
    ``regions.argument``) or x^2 is beyond double range; DomainError too
    where the value or an intermediate value is.  The convergence region is
    not enforced: arguments beyond the unit disk are continued internally.
    """
    x = complex(x)
    plan = _plan(p)
    _check(rep, plan, x, unusable_maps(x))
    return _run(rep, plan, x, cmath.sqrt(1.0 - x * x), tol)


def ferrers_q_rep_trig(rep: RepresentationId, p: ParamPair, theta: float,
                       tol: float = DEFAULT_TOL) -> EvalOutcome:
    """The theta-forms of the square-root-family representations, with
    x = cos(theta) and theta in (0, pi); equal to the x-forms there.

    The same record runs with s = sin(theta) in place of sqrt(1 - x^2),
    which keeps full relative accuracy of s as theta -> 0.  Parameter and
    domain checks are those of ``ferrers_q_rep`` at x = cos(theta)."""
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta must lie in (0, pi); got {theta}")
    if _REP_TABLE[rep].sign not in (_Sign.UPPER, _Sign.LOWER):
        raise ValueError(f"{rep.value} has no trigonometric form")
    x = complex(math.cos(theta))
    plan = _plan(p)
    _check(rep, plan, x, unusable_maps(x))
    return _run(rep, plan, x, complex(math.sin(theta)), tol)


def ferrers_q(p: ParamPair, x: complex, tol: float = DEFAULT_TOL) -> EvalOutcome:
    """Ferrers function of the second kind, representation chosen
    automatically: among the representations ``_refusal`` lets through whose
    series converges at x, the one with the smallest argument modulus wins
    (ties broken by table order).  ``_rank`` gives the usable rows
    ``valid_representations`` reports, and the region test runs only on the
    candidates tried, each with the arguments ``_rank`` computed.  A
    candidate that raises a ``FerroxError`` (such as a gamma ratio beyond
    double range, or any ``ArithmeticError`` or non-finite value, which
    ``_run`` maps to ``DomainError``), or whose ``tail_estimate`` exceeds
    ``TAIL_FACTOR * tol``, is skipped for the next one; when none is left,
    ``NoRepresentationError`` maps every representation to the reason it
    was not used (``DomainError`` at once where x^2 is beyond double
    range)."""
    x = complex(x)
    outside = _outside(x)
    if outside["D1"] is not None:
        raise DomainError(f"x not in D1: {x}")
    if outside["x^2"] is not None:
        raise DomainError(outside["x^2"])
    s = cmath.sqrt(1.0 - x * x)
    plan = _plan(p)
    if "numu_neg" in plan.excluded:
        raise ParameterError(
            f"Ferrers Q undefined for nu + mu = {p.nu + p.mu} in -N")
    values, rows = _rank(plan, outside, x, 1j * s)
    diverging, failed = set(), {}
    # Rows sort by (score, table index), so ties keep table order, and
    # dropping the rows whose series diverges keeps the order of the rest:
    # testing regions only as candidates are reached picks the winner and
    # the fallbacks that testing every row first would.
    for score, _, rep, spec in sorted(rows):
        if not _converges(spec, x, score):
            diverging.add(rep)
            continue
        try:
            out = _run(rep, plan, x, s, tol, ws=[values[j] for j in spec.argument_ids])
        except FerroxError as exc:
            failed[rep.value] = str(exc)
            continue
        if out.tail_estimate <= TAIL_FACTOR * tol:
            return out
        failed[rep.value] = f"tail estimate {out.tail_estimate:.3g} exceeds {TAIL_FACTOR:g} * tol"
    refused = _refusals(plan, outside, x, {i for _, i, _, _ in rows})
    reasons = {rep.value: reason or "series argument has modulus >= 1 at x"
               for rep, reason in zip(_REP_TABLE, refused)
               if reason is not None or rep in diverging}
    reasons.update(failed)
    raise NoRepresentationError(
        f"no valid representation at nu={p.nu}, mu={p.mu}, x={x}", reasons)


def ferrers_q_via_limit(p: ParamPair, x: float, eps: float = 1e-7,
                        tol: float = DEFAULT_TOL) -> EvalOutcome:
    """Independent route to the second-kind Ferrers function on (-1, 1): the
    defining two-sided limit of the second-kind Legendre function,
    (e^{-i pi mu/2} [e^{-i pi mu} Q(x + i eps)]
     + e^{+i pi mu/2} [e^{-i pi mu} Q(x - i eps)]) / 2."""
    if not (isinstance(x, (int, float)) and -1.0 < float(x) < 1.0):
        raise DomainError(f"limit definition requires real x in (-1, 1); got {x}")
    x = float(x)
    mu = p.mu
    above = legendre_q(p, complex(x, eps), tol)
    below = legendre_q(p, complex(x, -eps), tol)
    value = 0.5 * (cmath.exp(-1.5j * math.pi * mu) * above.value
                   + cmath.exp(-0.5j * math.pi * mu) * below.value)
    return EvalOutcome(value, None, above.terms_used + below.terms_used,
                       max(above.tail_estimate, below.tail_estimate))


def ferrers_q_halfplane_cut(rep: RepresentationId, p: ParamPair, x: float,
                            approach: int = +1,
                            tol: float = DEFAULT_TOL) -> EvalOutcome:
    """Boundary values of the half-plane representations I5/I6/II2/II4 at
    real x in (-1, 1).

    Their hypergeometric arguments land on [1, inf) there, so each series
    factor is replaced by its one-sided limit; ``approach`` selects which
    half-plane the formula is continued from (+1 from above, -1 from below).
    The result must agree with every on-axis representation.
    """
    spec = _REP_TABLE[rep]
    if spec.sign is not _Sign.HALFPLANE:
        raise ValueError(f"{rep.value} is not a half-plane representation")
    if not (isinstance(x, (int, float)) and -1.0 < float(x) < 1.0):
        raise DomainError(f"cut evaluation requires real x in (-1, 1); got {x}")
    if approach not in (+1, -1):
        raise ValueError("approach must be +1 or -1")
    x = float(x)
    # A subnormal imaginary part steers every prefactor power onto the branch
    # continued from the requested half-plane without perturbing its value;
    # there only excluded parameters refuse the record (its map is checked
    # on the axis).
    x_eval = complex(x, approach * 5e-324)
    plan = _plan(p)
    _check(rep, plan, x_eval, {})
    j = spec.argument_ids[0]
    w_on_axis = argument(j, x)
    if not (w_on_axis.imag == 0.0 and w_on_axis.real > 1.0):
        raise DomainError(
            f"argument w_{j}({x}) = {w_on_axis} is not on the cut (1, inf)")
    w_probe = argument(j, complex(x, approach * 1e-8))
    side = CutSide.ABOVE if w_probe.imag > 0 else CutSide.BELOW
    return _run(rep, plan, x_eval, cmath.sqrt(1.0 - x_eval * x_eval), tol, side)


# ---------------------------------------------------------------------------
# Connection relations between the second-kind Ferrers function and the
# cut-plane Legendre functions
# ---------------------------------------------------------------------------

def connection_residuals(p: ParamPair, x: complex,
                         tol: float = DEFAULT_TOL) -> list[tuple[str, float]]:
    """Normalized residuals |LHS - RHS| / (|LHS| + |RHS| + 1) of the
    connection relations linking the second-kind Ferrers function to the
    cut-plane Legendre functions.  Relations whose preconditions fail at
    (p, x) are omitted."""
    x = complex(x)
    if not in_domain(DomainId.D1, x):
        raise DomainError(f"x not in D1: {x}")
    nu, mu = p.nu, p.mu
    excluded = _plan(p).excluded
    out: list[tuple[str, float]] = []
    lhs = ferrers_q(p, x, tol).value

    def resid(rhs: complex) -> float:
        return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0)

    # On-axis relation: (2/pi) sin(pi mu) Q = cos(pi mu) P(mu) - ratio P(-mu)
    if "mu_int" not in excluded:
        csc = math.pi / (2.0 * sinpi(mu))
        ratio = gamma_quotient((nu + mu + 1.0,), (nu - mu + 1.0,))
        pmm = ferrers_p(ParamPair(nu, -mu), x, tol).value
        rhs = csc * (cospi(mu) * ferrers_p(p, x, tol).value - ratio * pmm)
        out.append(("ferrers_first_kind_pair", resid(rhs)))

    if x.imag == 0.0:
        return out
    upper = x.imag > 0.0
    tag = "upper" if upper else "lower"
    q_val = legendre_q(p, x, tol).value if "numu_neg" not in excluded else None
    p_val = legendre_p(p, x, tol).value

    if q_val is not None:
        if upper:
            rhs = (cmath.exp(-1.5j * math.pi * mu) * q_val
                   + 0.5j * math.pi * cmath.exp(0.5j * math.pi * mu) * p_val)
        else:
            rhs = (cmath.exp(-0.5j * math.pi * mu) * q_val
                   - 0.5j * math.pi * cmath.exp(-0.5j * math.pi * mu) * p_val)
        out.append((f"legendre_qp_{tag}", resid(rhs)))

    if "mu_int" not in excluded:
        pmm_val = legendre_p(ParamPair(nu, -mu), x, tol).value
        phase = cmath.exp((0.5j if upper else -0.5j) * math.pi * mu)
        rhs = csc * (cospi(mu) * phase * p_val - ratio / phase * pmm_val)
        out.append((f"legendre_pp_{tag}", resid(rhs)))

    if q_val is not None and "nu_half_int" not in excluded and not near_int(mu - nu):
        refl = ParamPair(-nu - 1.0, mu)
        if "numu_neg" not in _plan(refl).excluded:
            q2_val = legendre_q(refl, x, tol).value
            t = sinpi(mu - nu) / (2.0 * cospi(nu))
            if upper:
                rhs = (cmath.exp(-0.5j * math.pi * mu) * ((cospi(mu) - 1j * t) * q_val
                       + 1j * t * q2_val))
            else:
                rhs = (cmath.exp(-1.5j * math.pi * mu) * ((cospi(mu) + 1j * t) * q_val
                       - 1j * t * q2_val))
            out.append((f"legendre_qq_{tag}", resid(rhs)))
    return out


# ---------------------------------------------------------------------------
# Differential-equation residual
# ---------------------------------------------------------------------------

def legendre_ode_residual(f: Callable[[complex], complex], nu: complex,
                          mu: complex, x: complex, h: float = 1e-4) -> float:
    """Residual of (1-x^2) y'' - 2x y' + (nu(nu+1) - mu^2/(1-x^2)) y at x,
    with derivatives from five-point central differences of step h,
    normalized by the sum of the term magnitudes."""
    x = complex(x)
    ys = [f(x + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (ys[0] - 8.0 * ys[1] + 8.0 * ys[3] - ys[4]) / (12.0 * h)
    d2 = (-ys[0] + 16.0 * ys[1] - 30.0 * ys[2] + 16.0 * ys[3] - ys[4]) / (12.0 * h * h)
    t1 = (1.0 - x * x) * d2
    t2 = -2.0 * x * d1
    t3 = (nu * (nu + 1.0) - mu * mu / (1.0 - x * x)) * ys[2]
    scale = abs(t1) + abs(t2) + abs(t3)
    return abs(t1 + t2 + t3) / scale if scale else 0.0
