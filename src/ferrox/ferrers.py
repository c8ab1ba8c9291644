"""Associated Legendre functions on the plane cut along (-inf, 1] and the
Ferrers functions (Legendre on the cut) on the plane cut outside [-1, 1],
for complex degree nu and order mu.

Every function here is evaluated from data: 20 two-term records of the
Ferrers function of the second kind, one per entry of its representation
table (seven series in the arguments (1 -+ x)/2 and their Moebius images,
group I; six in x^2-type arguments, group II; six in square-root arguments
with the branch i sqrt(1 - x^2), group III, each in an upper-sign and a
lower-sign form; one two-sided form in u = x + i sqrt(1 - x^2) and v = 1/u),
and 3 one-term records outside that table: ``ferrers_p``, ``legendre_p`` and
``legendre_q_bold`` (DLMF 14.3.1, 14.3.6, 14.3.7), which ``legendre_q``
scales.  A record holds its domain, parameter exclusions, the ``regions``
argument map of each 2F1 factor, whether the factors are regularized, sign
rule and its terms: (a, b, c) and a ``Coefficient`` (constant, gamma
numerators and denominators, powers of named x-bases, phase, cos/sin
factors), all affine in (nu, mu).  Each record is compiled, once per
``ParamPair`` and sign of x, into an evaluator in the pair's memo
(``_evaluate``) that keeps the parameter part of each coefficient
(``_coefficient``, shared with the catalogue of ``olbricht``) and its
``HypParams``: a call forms the arguments, the coefficients at x
(``_coefficients_at``, also shared) and the 2F1 series.  One rule,
``_refusal``, decides whether a table record may be used at (p, x):
``ferrers_q`` ranks the records it lets through, from the candidates of x's
domain outcome (``_CANDIDATES``), by argument modulus and tests regions
only on the candidates it tries; ``valid_representations`` and
``NoRepresentationError`` report the reasons, and ``ferrers_q_rep``,
``ferrers_q_rep_trig`` (group III at x = cos(theta)) and
``ferrers_q_halfplane_cut`` raise them.  A value whose ``tail_estimate``
exceeds ``TAIL_FACTOR * tol`` is never returned by ``ferrers_q`` (it tries
its next candidate) or by the one-term functions (``ConvergenceError``); a
forced representation returns it (see ``ferrers_q_rep``).  A value beyond
double range raises ``DomainError`` naming its function, a NaN argument
``DomainError`` before any series is summed, and a non-finite nu or mu
``ParameterError``.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from itertools import product
from operator import itemgetter
from typing import Callable, Container, NamedTuple

from .complexmath import (
    cospi,
    gamma_quotient,
    log_gamma_quotient,
    near_int,
    principal_pow,
    sinpi,
)
from .errors import (
    BeyondRangeError,
    ConvergenceError,
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
    _Record,
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


class ParamPair(_Record):
    """Degree nu and order mu.  The representation table excludes the
    parameter sets named in ``_EXCL_NAMES``, which ``_exclusions`` decides
    by one near-integer test each of mu, 2 mu, 2 nu, nu + 1/2 and nu + mu:
    values within 1e-9 of an excluded integer count as excluded, since closer
    than that the two terms of a representation cancel (its gamma and
    sin/cos factors stay accurate).  Non-finite nu or mu: ``ParameterError``.

    Outside its fields (see ``hyp2f1._Record``) the pair keeps ``_memo``,
    one dict of its parameter-only work, made with the pair: record
    (``_RepSpec``) -> the ``HypParams`` of its factors, one object when they
    share (a, b, c); (record, sign g) -> its evaluator (``_compile``); and
    the catalogue work of ``olbricht._evaluator``.  ``_excluded``, the
    exclusions, is worked out on first read.  A value that raises is not
    kept; threads may each build a value, and the last one set stays.
    Nothing kept refers back to the pair, so a dropped pair is freed at
    once."""

    _fields = ("nu", "mu")

    def __init__(self, nu: complex, mu: complex):
        nu, mu = complex(nu), complex(mu)
        if not (cmath.isfinite(nu) and cmath.isfinite(mu)):
            raise ParameterError(f"nu and mu must be finite; got nu={nu}, mu={mu}")
        vars(self).update(nu=nu, mu=mu, _memo={})

    def __getattr__(self, name):  # only names that normal lookup misses
        if name != "_excluded":
            raise AttributeError(f"'ParamPair' object has no attribute {name!r}")
        excluded = vars(self)["_excluded"] = _exclusions(self)
        return excluded


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


class EvalOutcome(NamedTuple):
    value: complex
    rep: RepresentationId | None
    terms_used: int
    tail_estimate: float


class RepValidity(NamedTuple):
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
    """``evaluate(*args)``; a non-finite value, an ``ArithmeticError``, a
    ``ValueError`` (a cmath domain error) or a ``BeyondRangeError`` becomes a
    ``DomainError`` naming ``label``: some value on the way is beyond double
    range."""
    try:
        out = evaluate(*args)
        if cmath.isfinite(out.value):
            return out
        reason = f"value {out.value}"
    except (ArithmeticError, ValueError, BeyondRangeError) as exc:
        reason = str(exc)
    raise DomainError(f"{label}: intermediate value beyond double range ({reason})")


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


def _coefficients_at(parts, vocabulary: dict[str, Callable[..., complex]], tags,
                     *args) -> list[complex]:
    """The value of each ``_coefficient`` part in ``parts`` at the point
    ``args``: the log of each named base ``vocabulary[tag](*args)`` of
    ``tags`` is taken once for every term that uses it (a zero or negative
    real base is kept as a value, for ``principal_pow`` and its branch
    rules), and the power logs are added to the gamma log and phase and
    exponentiated once.  Any overflow is an ``OverflowError``."""
    logs, odd = {}, {}
    for tag in tags:
        v = vocabulary[tag](*args)
        if v.imag == 0.0 and v.real <= 0.0:
            odd[tag] = v
        else:
            logs[tag] = cmath.log(v)
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
        return self._value_


class _Term(NamedTuple):
    hyp: tuple[Affine, Affine, Affine]   # (a, b, c) of the term's 2F1 factor
    coef: Coefficient


#: The power bases of the coefficients, of (x, s = sqrt(1 - x^2), sign g).
_X_BASES: dict[str, Callable[[complex, complex, int], complex]] = {
    "2": lambda x, s, g: 2.0,
    "1+x": lambda x, s, g: 1.0 + x,
    "1-x": lambda x, s, g: 1.0 - x,
    "(1+x)/(1-x)": lambda x, s, g: (1.0 + x) / (1.0 - x),
    "(x+1)/(x-1)": lambda x, s, g: (x + 1.0) / (x - 1.0),
    "1-x^2": lambda x, s, g: 1.0 - x * x,
    "x": lambda x, s, g: x,
    "x-1": lambda x, s, g: x - 1.0,
    "s": lambda x, s, g: s,
    "x+igs": lambda x, s, g: x + g * 1j * s,
    "x-igs": lambda x, s, g: x - g * 1j * s,
    "x+is": lambda x, s, g: x + 1j * s,
    "x-is": lambda x, s, g: x - 1j * s,
}


class _RepSpec:
    """One record; hashed by identity, since a pair's memo keys entries by
    record.  ``domain``: "D1" | "D1+" | "half", or "D2" (one term);
    ``argument_ids``: the argument map of every 2F1 factor, or of each
    factor in turn; ``terms``: two (Ferrers Q), or one (the first-kind and
    cut-plane functions); ``regularized``: the factors are 2F1(a, b; c; w) /
    Gamma(c); ``routed``: f21 moves the factors, which share (a, b, c), to a
    smaller argument first, so the route radius, not |w|, decides
    convergence and preference.  Derived: ``bases``, the distinct power
    bases of the terms; ``hyps``, the distinct (a, b, c) of the factors (one
    when they share it); ``region_tests``, the closed-form test of |w_j| < 1
    of each argument map."""

    __slots__ = ("domain", "exclusions", "argument_ids", "terms", "sign", "regularized",
                 "routed", "bases", "hyps", "region_tests")

    def __init__(self, domain: str, exclusions: tuple[str, ...], argument_ids: tuple[int, ...],
                 terms: tuple[_Term, ...], sign: _Sign = _Sign.NONE, regularized: bool = False,
                 routed: bool = False):
        self.domain, self.exclusions, self.argument_ids, self.terms = (
            domain, exclusions, argument_ids, terms)
        self.sign, self.regularized, self.routed = sign, regularized, routed
        self.bases = tuple(dict.fromkeys(tag for t in terms for tag, _ in t.coef.powers))
        self.hyps = tuple(dict.fromkeys(t.hyp for t in terms))
        self.region_tests = tuple(map(region_test, argument_ids))


def _rep_table() -> tuple[dict[RepresentationId, _RepSpec], dict[str, _RepSpec]]:
    """The 20 records of Ferrers Q, and the one-term records of the
    functions ``ferrers_p``, ``legendre_p`` and ``legendre_q_bold`` by name.
    t((a, b, c), const, gamma numerators, gamma denominators, powers, *trig,
    **rest) is one term (see ``Coefficient``)."""
    def t(hyp, const, gammas, rgammas, powers, *trig, **rest):
        return _Term(hyp, Coefficient(const, gammas=gammas, rgammas=rgammas, powers=powers,
                                      trig=trig, **rest))

    R, pi, rpi = RepresentationId, math.pi, _SQRT_PI
    nu, mu, nu_mu, neg_nu, neg_mu = (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, -1, 0), (0, 0, -1)
    n1, d1, nu1 = (1, 1, 1), (1, 1, -1), (1, 1, 0)      # nu + mu + 1, nu - mu + 1, nu + 1
    c_lo, c_hi = (1, 0, -1), (1, 0, 1)                   # 1 - mu, 1 + mu
    p1, q1, h = (1.5, 1, 0), (.5, -1, 0), (0, .5, .5)    # nu + 3/2, 1/2 - nu, (nu + mu) / 2
    x2, mu2 = "1-x^2", (0, 0, .5)                       # mu / 2
    up, down = (("(1+x)/(1-x)", mu2),), (("(1+x)/(1-x)", (0, 0, -.5)),)
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
    # DLMF 14.3.1, 14.3.6 and 14.3.7, on D1 for Ferrers P and on D2 (z for x)
    # for the others; the regularized series removes the Gamma(1 - mu) pole.
    p_hyp = (neg_nu, nu1, c_lo)
    one_term = {
        "ferrers_p": _RepSpec("D1", (), (1,), (t(p_hyp, 1.0, (), (), up),), regularized=True),
        "legendre_p": _RepSpec("D2", (), (1,), (
            t(p_hyp, 1.0, (), (), (("(x+1)/(x-1)", mu2),)),), regularized=True),
        "legendre_q_bold": _RepSpec("D2", (), (10,), (
            t(((1, .5, .5), (.5, .5, .5), p1), rpi, (), (),
              (("1+x", mu2), ("x-1", mu2), ("2", (-1, -1, 0)), ("x", (-1, -1, -1)))),),
            regularized=True),
    }
    return {rep: rows[rep] for rep in R}, one_term


_REP_TABLE, _ONE_TERM = _rep_table()
_LABELS = {spec: f"representation {rep.value}" for rep, spec in _REP_TABLE.items()} | {
    spec: name for name, spec in _ONE_TERM.items()}  # what ``_guarded`` names in errors
#: Per domain outcome of x (in D1, in D1 with Re x > 0, off the real axis), the records
#: whose domain holds, in table order, as (table index, rep, record, j): j the one map
#: that scores the record by |w_j|, or 0 for I7 and FourierUV (``_score``).
_CANDIDATES = {key: tuple(
    (i, rep, spec, 0 if spec.routed or len(spec.argument_ids) == 2 else spec.argument_ids[0])
    for i, (rep, spec) in enumerate(_REP_TABLE.items())
    if dict(zip(("D1", "D1+", "half"), key))[spec.domain])
    for key in product((False, True), repeat=3)}


def _hyps(p: ParamPair, spec: _RepSpec) -> list[HypParams]:
    """The ``HypParams`` of ``spec``'s factors at p, stored in p's memo:
    one object, repeated, when they share (a, b, c)."""
    nu, mu = p.nu, p.mu
    hyps = []
    for (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) in spec.hyps:
        hyps.append(HypParams(a0 + a1 * nu + a2 * mu, b0 + b1 * nu + b2 * mu,
                              c0 + c1 * nu + c2 * mu))
    hyps = p._memo[spec] = hyps * (len(spec.terms) // len(hyps))
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


def _check(rep: RepresentationId, p: ParamPair, x: complex, unusable: dict[int, str]) -> None:
    """Raise ``rep``'s ``_refusal`` at (p, x), if it has one, with the
    reason its ``valid_representations`` row gives; ``unusable`` are the maps
    taken as unusable at x."""
    refusal = _refusal(_REP_TABLE[rep], p._excluded, _outside(x), unusable)
    kind, reason = refusal or (None, None)
    if kind is ParameterError:
        raise ParameterError(f"{reason} excluded by representation {rep.value}")
    if kind is DomainError:
        raise DomainError(f"{reason} (representation {rep.value})")


def _rank(p: ParamPair, outside: dict[str, str | None], x: complex,
          y: complex) -> tuple[list[complex | None], list[tuple]]:
    """(values, rows): the arguments w_j(x) at index j of the maps usable at
    x, root y = i sqrt(1 - x^2), each computed once, and as (score, table
    index, rep, spec) every record that ``_refusal`` lets through, in table
    order, so that a stable sort by score ranks them, ties in table order.
    A record scores the largest modulus of its arguments (``_score``).
    Only the ``_CANDIDATES`` of x's domain outcome are read; refused records
    are left to ``_refusals``, and the region test to ``_converges``, so
    that ``ferrers_q`` runs it only on the candidates it tries."""
    excluded = p._excluded
    unusable = unusable_maps(x)
    values = map_values(x, y, unusable)  # None for a map unusable at x
    # Nothing excluded, no unusable map and x^2 finite refuse no candidate:
    # the common case calls no _refusal.
    checked = excluded or unusable or outside["x^2"]
    candidates = _CANDIDATES[outside["D1"] is None, outside["D1+"] is None,
                             outside["half"] is None]
    return values, [(abs(values[j]) if j else _score(p, spec, values), i, rep, spec)
                    for i, rep, spec, j in candidates
                    if not checked or _refusal(spec, excluded, outside, unusable) is None]


def _score(p: ParamPair, spec: _RepSpec, values: list[complex | None]) -> float:
    """The ``_rank`` score of I7 and FourierUV, records of two maps: the
    larger modulus, or route radius (routed), of their arguments."""
    j, k = spec.argument_ids
    if spec.routed:
        hp = (p._memo.get(spec) or _hyps(p, spec))[0]
        return max(route_radius(hp, values[j]), route_radius(hp, values[k]))
    return max(abs(values[j]), abs(values[k]))


def _refusals(p: ParamPair, outside: dict[str, str | None], x: complex,
              ranked: Container[int]) -> list[str | None]:
    """Per record, in table order, the reason of its ``_refusal`` at x, or
    None for the table indices in ``ranked``, the records ``_rank`` scored."""
    unusable = unusable_maps(x)
    return [None if i in ranked else _refusal(spec, p._excluded, outside, unusable)[1]
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
    outside = _outside(x)
    _, rows = _rank(p, outside, x, 1j * cmath.sqrt(1.0 - x * x))
    usable = {i: RepValidity(rep, True, None, _converges(spec, x, score), score)
              for score, i, rep, spec in rows}
    reasons = _refusals(p, outside, x, usable)
    return [usable[i] if reason is None else RepValidity(rep, False, reason, False, math.inf)
            for i, (rep, reason) in enumerate(zip(_REP_TABLE, reasons))]


def _evaluate(spec: _RepSpec, p: ParamPair, x: complex, s: complex, tol: float,
              side: CutSide | None, values: list[complex | None] | None = None
              ) -> SeriesResult:
    """``spec`` at x, s = sqrt(1 - x^2), by the evaluator of (spec, its sign g
    at x) in p's memo, compiled on first use under ``_guarded`` too: each
    factor's argument from ``values`` (``_rank``'s) or its map with root
    y = i s, each term's coefficient at x, each factor by ``f21``
    (``f21_regularized``), or by its limit ``f21_cut`` on the cut from ``side``."""
    g = spec.sign.at(x)
    evaluate = p._memo.get((spec, g)) or _compile(spec, p, g)
    return evaluate(x, s, tol, side, values)


def _compile(spec: _RepSpec, p: ParamPair, g: int) -> Callable[..., SeriesResult]:
    """The evaluator of ``spec`` with sign g at p (see ``_evaluate``): its
    coefficient parts and ``HypParams`` formed once, and stored in p's memo
    unless forming them raises.  ``BeyondRangeError`` where every term's
    gamma part is 0: the record would read 0 with no tail to flag it.  That
    is seen only where rounding drops a gamma argument's constant
    (nu = mu = 1e17: 1 + nu/2 - mu/2 rounds to the pole 0), and the value
    there is beyond double range."""
    parts = [_coefficient(term.coef, p.nu, p.mu, g) for term in spec.terms]
    if all(part is None for part in parts):
        raise BeyondRangeError(f"the gamma part of every term is 0 at nu={p.nu}, mu={p.mu}")
    hyps = p._memo.get(spec) or _hyps(p, spec)
    ids, tags, regularized = spec.argument_ids, spec.bases, spec.regularized
    factors = list(zip(hyps, (ids[0], ids[-1])))  # one map serves both, or one each

    def evaluate(x, s, tol, side, values):
        if values is None:
            values = {j: map_value(j, x, 1j * s) for j in ids}
        out = []
        for coef, (hp, j) in zip(_coefficients_at(parts, _X_BASES, tags, x, s, g), factors):
            if side is not None:
                r = f21_cut(hp, values[j].real, side, tol)
            elif regularized:
                r = f21_regularized(hp, values[j], tol)
            else:
                r = f21(hp, values[j], tol)
            out.append((coef, r))
        return combine(out)

    p._memo[spec, g] = evaluate
    return evaluate


def _run(rep: RepresentationId, p: ParamPair, x: complex, s: complex, tol: float,
         side: CutSide | None = None, values: list[complex | None] | None = None) -> EvalOutcome:
    """``rep`` at x, s = sqrt(1 - x^2), by ``_evaluate`` under ``_guarded``;
    ``values`` are ``_rank``'s arguments, if already computed."""
    spec = _REP_TABLE[rep]
    r = _guarded(_LABELS[spec], _evaluate, spec, p, x, s, tol, side, values)
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
    The tail rule of ``ferrers_q`` does not apply either: the value is
    returned whatever its ``tail_estimate``.  Forced records within 1e-8
    carry tails up to about 1.5e-9, above ``TAIL_FACTOR * tol``, so a
    ``compare`` table keeps them; the caller weighs the tail.
    """
    x = complex(x)
    _check(rep, p, x, unusable_maps(x))
    return _run(rep, p, x, cmath.sqrt(1.0 - x * x), tol)


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
    _check(rep, p, x, unusable_maps(x))
    return _run(rep, p, x, complex(math.sin(theta)), tol)


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
    if "numu_neg" in p._excluded:
        raise ParameterError(
            f"Ferrers Q undefined for nu + mu = {p.nu + p.mu} in -N")
    values, rows = _rank(p, outside, x, 1j * s)
    diverging, failed = set(), {}
    # Rows come in table order and sort stably by score, so ties keep table
    # order, and dropping the rows whose series diverges keeps the order of
    # the rest: testing regions only as candidates are reached picks the
    # winner and the fallbacks that testing every row first would.
    for score, _, rep, spec in sorted(rows, key=itemgetter(0)):
        if not _converges(spec, x, score):
            diverging.add(rep)
            continue
        try:
            out = _run(rep, p, x, s, tol, values=values)
        except FerroxError as exc:
            failed[rep.value] = str(exc)
            continue
        if out.tail_estimate <= TAIL_FACTOR * tol:
            return out
        failed[rep.value] = f"tail estimate {out.tail_estimate:.3g} exceeds {TAIL_FACTOR:g} * tol"
    refused = _refusals(p, outside, x, {i for _, i, _, _ in rows})
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
    _check(rep, p, x_eval, {})
    j = spec.argument_ids[0]
    w_on_axis = argument(j, x)
    if not (w_on_axis.imag == 0.0 and w_on_axis.real > 1.0):
        raise DomainError(
            f"argument w_{j}({x}) = {w_on_axis} is not on the cut (1, inf)")
    w_probe = argument(j, complex(x, approach * 1e-8))
    side = CutSide.ABOVE if w_probe.imag > 0 else CutSide.BELOW
    return _run(rep, p, x_eval, cmath.sqrt(1.0 - x_eval * x_eval), tol, side)


# ---------------------------------------------------------------------------
# Ferrers P on D1 and the Legendre functions on the cut plane D2: the
# one-term records of ``_ONE_TERM``
# ---------------------------------------------------------------------------

def _one_term(name: str, p: ParamPair, z: complex, tol: float) -> EvalOutcome:
    """The function ``name`` at z by its one-term record, through
    ``_evaluate`` under ``_guarded``.  DomainError outside the record's
    domain, and ConvergenceError where the tail estimate exceeds
    ``TAIL_FACTOR * tol``: such a value is not returned."""
    spec = _ONE_TERM[name]
    z = complex(z)
    if not in_domain(DomainId(spec.domain), z):
        raise DomainError(f"{name}: z not in {spec.domain}: {z}")
    r = _guarded(name, _evaluate, spec, p, z, cmath.sqrt(1.0 - z * z), tol, None)
    if r.tail_estimate > TAIL_FACTOR * tol:
        raise ConvergenceError(
            f"{name}: tail estimate {r.tail_estimate:.3g} exceeds {TAIL_FACTOR:g} * tol")
    return EvalOutcome(r.value, None, r.terms_used, r.tail_estimate)


def ferrers_p(p: ParamPair, x: complex, tol: float = DEFAULT_TOL) -> EvalOutcome:
    """Ferrers function of the first kind on the plane cut outside [-1, 1];
    valid for all nu, mu."""
    return _one_term("ferrers_p", p, x, tol)


def legendre_p(p: ParamPair, z: complex, tol: float = DEFAULT_TOL) -> EvalOutcome:
    """First-kind associated Legendre function on the plane cut along
    (-inf, 1]; valid for all nu, mu."""
    return _one_term("legendre_p", p, z, tol)


def legendre_q_bold(p: ParamPair, z: complex, tol: float = DEFAULT_TOL) -> EvalOutcome:
    """Normalized second-kind function e^{-i pi mu} Q / Gamma(nu + mu + 1)
    on the plane cut along (-inf, 1]; entire in both parameters and even in
    mu."""
    return _one_term("legendre_q_bold", p, z, tol)


def legendre_q(p: ParamPair, z: complex, tol: float = DEFAULT_TOL) -> EvalOutcome:
    """Second-kind associated Legendre function on the plane cut along
    (-inf, 1], e^{i pi mu} Gamma(nu + mu + 1) times ``legendre_q_bold``;
    undefined when nu + mu is a negative integer."""
    z = complex(z)
    if not in_domain(DomainId.D2, z):
        raise DomainError(f"legendre_q: z not in D2: {z}")
    if "numu_neg" in p._excluded:
        raise ParameterError(f"legendre_q undefined for nu + mu = {p.nu + p.mu} in -N")
    bold = legendre_q_bold(p, z, tol)
    return _guarded("legendre_q", lambda: EvalOutcome(
        cmath.exp(1j * math.pi * p.mu) * gamma_quotient((p.nu + p.mu + 1.0,), ()) * bold.value,
        None, bold.terms_used, bold.tail_estimate))


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
    excluded = p._excluded
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
        if "numu_neg" not in refl._excluded:
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
