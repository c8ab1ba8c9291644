"""Gauss hypergeometric function 2F1 on the plane cut along [1, inf).

Provides the principal value everywhere off the cut, the regularized form
(divided by Gamma(c), entire in c), and the two one-sided limits on the cut.

Evaluation strategy: the argument is moved to small modulus, first by the
least of w, w/(w-1) (Pfaff) and 1/w, and only when that exceeds
``THETA_CUT`` by 1-w, 1-1/w or 1/(1-w).  Each two-term connection formula is
one ``_Connection`` record, shared with the cut limits, taken only when the
difference it divides by (a - b or c - a - b) is ``CONNECTION_GAP`` off the
integers.  Elsewhere (degenerate parameters, and near e^(+-i pi/3), where
every map has modulus about 1) Taylor steps on the hypergeometric equation
continue the function along a cut-avoiding path; that fallback has no
parameter restrictions, so no logarithmic connection formula is needed.

What depends on (a, b, c) alone is worked out once per ``HypParams``: where
the series terminates, the pole of c, which differences are
``CONNECTION_GAP`` off the integers and the Pfaff parameters.  The routes
read these facts instead of testing the parameters at each call, and a
terminating series longer than ``MAX_TERMS`` raises ``ConvergenceError``
before any term is summed.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .complexmath import (
    NEAR_INT_TOL,
    gamma_quotient,
    near_int,
    nonpos_index,
    pochhammer,
    principal_pow,
    rgamma,
)
from .errors import (
    BranchCutError,
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    ParameterError,
)

__all__ = [
    "CutSide",
    "DEFAULT_TOL",
    "HypParams",
    "MAX_TERMS",
    "SeriesResult",
    "combine",
    "f21",
    "f21_cut",
    "f21_cut_via",
    "f21_regularized",
    "f21_series",
    "route_radius",
]

DEFAULT_TOL = 1e-12
#: ``ferrers.ferrers_q`` refuses a candidate whose ``tail_estimate`` exceeds
#: this many times ``tol``: winning tails on the perfbench inputs stay below
#: 2e-11, while the wrong values measured near integer order and at conical
#: points carry tails of 4e-9 and more.
TAIL_FACTOR = 100.0
MAX_TERMS = 50_000

#: Largest series argument a route may use; beyond it f21 tries the next
#: routes and then the ODE continuation.
THETA_CUT = 0.9

#: Parameter differences closer to an integer than this make a connection
#: formula undefined; ``f21_cut_via`` refuses it.
DEGENERACY_TOL = 1e-8

#: Least distance from the integers of the difference a route's connection
#: formula divides by; closer in, its terms cancel (error about eps/delta^2).
CONNECTION_GAP = 1e-2


class CutSide(Enum):
    ABOVE = "above"
    BELOW = "below"


@dataclass(frozen=True, init=False)
class HypParams:
    """The parameters (a, b, c) of 2F1, as complex numbers; a non-finite one
    raises ``ParameterError`` here, so no route sees it.  Each field is set
    once, in ``__init__``.

    The parameter-only facts that every evaluation reads are worked out once
    here and kept outside the fields (so ``==``, ``hash`` and ``repr`` are
    those of (a, b, c)): ``degree``, the m at which the series
    terminates (a or b = -m, the least such m) or None, and ``c_pole``, the
    m with c = -m or None; and, on first use by a route, ``gapped``, the
    connection differences ("a-b", "c-a-b") at least ``CONNECTION_GAP`` from
    every integer, and ``pfaff``, the parameters (a, c - b, c) of the Pfaff
    transform."""

    a: complex
    b: complex
    c: complex

    def __init__(self, a: complex, b: complex, c: complex):
        a, b, c = complex(a), complex(b), complex(c)
        if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c)):
            raise ParameterError(f"2F1 parameters must be finite; got a={a}, b={b}, c={c}")
        ma, mb = nonpos_index(a), nonpos_index(b)
        # one write to the instance dict, not five object.__setattr__ calls
        vars(self).update(a=a, b=b, c=c, c_pole=nonpos_index(c),
                          degree=mb if ma is None else ma if mb is None else min(ma, mb))

    def difference(self, name: str) -> complex:
        """The difference a connection formula divides by: "a-b" or "c-a-b"."""
        return self.a - self.b if name == "a-b" else self.c - self.a - self.b

    @functools.cached_property
    def gapped(self) -> tuple[str, ...]:
        return tuple(name for name in ("a-b", "c-a-b")
                     if not near_int(self.difference(name), CONNECTION_GAP))

    @functools.cached_property
    def pfaff(self) -> HypParams:
        return HypParams(self.a, self.c - self.b, self.c)


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    tail_estimate: float


def combine(parts: list[tuple[complex, SeriesResult]]) -> SeriesResult:
    """The linear combination sum c_i F_i of (coefficient, series) pairs, with
    the term counts summed and the tail estimate taken relative to the
    combined value, so cancellation between the terms shows in it."""
    # 0j + the first product, as sum() would: a -0.0 part becomes +0.0
    value, terms, abs_tail = 0j, 0, 0.0
    for c, r in parts:
        v = c * r.value
        value += v
        terms += r.terms_used
        abs_tail += abs(v) * r.tail_estimate
    mag = abs(value)
    return SeriesResult(value, terms, abs_tail / mag if mag else abs_tail)


def _polynomial(p: HypParams, w: complex) -> SeriesResult:
    """The sum of the terminating series (a or b a nonpositive integer, so
    ``p.degree`` is set; no cut); a degree above ``MAX_TERMS`` raises
    ``ConvergenceError``."""
    m = p.degree
    if p.c_pole is not None and p.c_pole < m:
        raise ParameterError(f"2F1 undefined: c = {p.c} pole precedes termination")
    if m > MAX_TERMS:
        raise ConvergenceError(
            f"2F1 polynomial of degree {m:.6g} exceeds the {MAX_TERMS}-term budget")
    total = term = 1.0 + 0.0j
    for n in range(m):
        term *= (p.a + n) * (p.b + n) / ((p.c + n) * (n + 1)) * w
        total += term
    return SeriesResult(total, m + 1, 0.0)


def f21_series(p: HypParams, w: complex, tol: float = DEFAULT_TOL) -> SeriesResult:
    """Partial sum of the defining power series; requires |w| < 1 unless the
    series terminates (a or b a nonpositive integer).

    Stops once two consecutive terms both fall below tol relative to the
    partial sum, which guards against alternating near-cancellation.  A NaN
    w raises ``DomainError``.
    """
    w = complex(w)
    if cmath.isnan(w):
        raise DomainError(f"2F1 argument {w} is not a number")
    if p.degree is not None:
        return _polynomial(p, w)
    if p.c_pole is not None:
        raise ParameterError(f"2F1 series undefined: c = {p.c} is a nonpositive integer")
    aw = abs(w)
    if aw >= 1.0:
        raise ConvergenceError(f"2F1 series diverges for |w| = {aw:.6g} >= 1")
    return _series(p, w, aw, tol)


def _series(p: HypParams, w: complex, aw: float, tol: float) -> SeriesResult:
    """The loop of ``f21_series``, once its checks have passed; aw = |w|."""
    a, b, c = p.a, p.b, p.c
    total = term = 1.0 + 0.0j
    prev_small = False
    # A float counter adds the same value as an int one, without the
    # int-to-float conversion in every complex operation.
    n = 0.0
    try:
        for _ in range(MAX_TERMS):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * w
            total += term
            aterm = abs(term)
            atotal = abs(total)
            small = aterm <= tol * atotal
            if small and prev_small:
                tail = aterm * aw / (1.0 - aw)
                return SeriesResult(total, int(n) + 2, tail / atotal if atotal else tail)
            prev_small = small
            n += 1.0
    except OverflowError:
        raise ConvergenceError(f"2F1 series terms overflow at w={w}") from None
    raise ConvergenceError(
        f"2F1 series did not reach tol={tol:g} within {MAX_TERMS} terms at w={w}")


def _taylor_step(p: HypParams, z0: complex, f0: complex, f1: complex,
                 h: complex, tol: float) -> tuple[complex, complex, int, float]:
    """Advance (F, F') from z0 to z0 + h by the local Taylor series generated
    from the differential equation w(1-w)F'' + (c-(a+b+1)w)F' - abF = 0."""
    a, b, c = p.a, p.b, p.c
    q0 = z0 * (1.0 - z0)
    # Loop invariants of the recurrence.  c stays inside the loop, added
    # after lin * k: folding it into shift would round differently.
    lin = 1.0 - 2.0 * z0
    shift = (a + b + 1.0) * z0
    fk, fk1 = f0, f1
    s = fk + fk1 * h
    sp = fk1
    hpow = h
    last = abs(fk1 * h)
    for k in range(0, 400):
        # coefficient recurrence: q0 (k+2)(k+1) f_{k+2}
        #   = (k+a)(k+b) f_k - [ (1-2 z0) k + c - (a+b+1) z0 ] (k+1) f_{k+1}
        fk2 = ((k + a) * (k + b) * fk
               - (lin * k + c - shift) * (k + 1) * fk1) \
            / (q0 * (k + 2) * (k + 1))
        hpow *= h
        term = fk2 * hpow
        s += term
        sp += (k + 2) * fk2 * hpow / h
        fk, fk1 = fk1, fk2
        aterm = abs(term)
        bound = tol * abs(s)
        if aterm <= bound and last <= bound:
            return s, sp, k + 3, aterm
        last = aterm
    raise ConvergenceError(f"Taylor continuation step stalled at z0={z0}, h={h}")


def _continue_along(p: HypParams, waypoints: list[complex], tol: float) -> SeriesResult:
    """Taylor-step the hypergeometric ODE along the polyline through
    ``waypoints``; the first waypoint must lie inside the series disk.

    The path may terminate on the cut [1, inf): the final Taylor element is
    the analytic continuation from the side the path arrives on, which is
    exactly the one-sided boundary value there.
    """
    z = complex(waypoints[0])
    inner = f21_series(p, z, tol * 1e-2)
    f0 = inner.value
    # F'(w) = (a b / c) 2F1(a+1, b+1; c+1; w)
    shifted = f21_series(HypParams(p.a + 1, p.b + 1, p.c + 1), z, tol * 1e-2)
    f1 = p.a * p.b / p.c * shifted.value
    terms = inner.terms_used
    tail = 0.0
    for target in waypoints[1:]:
        target = complex(target)
        for _ in range(500):
            rem = target - z
            if rem == 0:
                break
            d = min(abs(z), abs(z - 1.0))
            final = abs(rem) <= 0.4 * d
            h = rem if final else 0.4 * d * rem / abs(rem)
            f0, f1, used, err = _taylor_step(p, z, f0, f1, h, tol * 1e-2)
            z = target if final else z + h
            terms += used
            tail = err
            if final:
                break
        else:
            raise ConvergenceError(f"Taylor continuation did not reach {target}")
    denom = abs(f0)
    return SeriesResult(f0, terms, tail / denom if denom else tail)


@dataclass(frozen=True)
class _Connection:
    """Two-term connection formula (DLMF 15.8.2, 15.10.21-36): 2F1(a, b; c; w)
    is sum_k G_k prod_j base_kj(w)^alpha_kj 2F1(a_k, b_k; c_k; t(w)), G_k a
    gamma quotient.  ``terms(a, b, c)`` gives per term (a_k, b_k, c_k), the
    gamma numerators and denominators, the exponents of ``bases[k]`` and the
    cut-phase exponent beta_k: at w = x +- i0 the base negative there is
    -|base| -+ i0, so its power is |base|^alpha e^(+-i pi beta)."""

    arg: Callable[[complex], complex]
    difference: str  # "a-b" or "c-a-b", the difference the terms divide by
    bases: tuple[tuple[str, ...], tuple[str, ...]]  # keys of _BASES
    terms: Callable[[complex, complex, complex], tuple]

    def usable(self, p: HypParams) -> bool:
        return self.difference in p.gapped


_BASES = {"w": lambda w: w, "-w": lambda w: -w, "1-w": lambda w: 1.0 - w}

#: By the theorem index of ``f21_cut_via``: arguments 1/w, 1-w, 1-1/w, 1/(1-w).
_CONNECTIONS = {
    1: _Connection(lambda w: 1.0 / w, "a-b", (("-w",), ("-w",)), lambda a, b, c: (
        ((a, a - c + 1.0, a - b + 1.0), (c, b - a), (b, c - a), (-a,), a),
        ((b, b - c + 1.0, b - a + 1.0), (c, a - b), (a, c - b), (-b,), b))),
    2: _Connection(lambda w: 1.0 - w, "c-a-b", (("w",), ("1-w",)), lambda a, b, c: (
        ((a - c + 1.0, b - c + 1.0, a + b - c + 1.0), (c, c - a - b), (c - a, c - b),
         (1.0 - c,), None),
        ((c - a, c - b, c - a - b + 1.0), (c, a + b - c), (a, b), (c - a - b,), a + b - c))),
    3: _Connection(lambda w: 1.0 - 1.0 / w, "c-a-b", (("w",), ("1-w", "w")), lambda a, b, c: (
        ((a, a - c + 1.0, a + b - c + 1.0), (c, c - a - b), (c - a, c - b), (-a,), None),
        ((1.0 - a, c - a, c - a - b + 1.0), (c, a + b - c), (a, b), (c - a - b, a - c),
         a + b - c))),
    4: _Connection(lambda w: 1.0 / (1.0 - w), "a-b", (("1-w",), ("1-w",)), lambda a, b, c: (
        ((a, c - b, a - b + 1.0), (c, b - a), (b, c - a), (-a,), a),
        ((b, c - a, b - a + 1.0), (c, a - b), (a, c - b), (-b,), b))),
}


def _connect(k: _Connection, p: HypParams, w: complex, tol: float,
             side: CutSide | None = None) -> SeriesResult:
    """Principal value of a record at w off the cut (``side`` None; t(w) in
    the series disk), or its limit at w = x > 1 from ``side``."""
    t = k.arg(w)
    parts = []
    for bases, (triple, num, den, alphas, beta) in zip(k.bases, k.terms(p.a, p.b, p.c)):
        coef = gamma_quotient(num, den)
        if side is None:
            for base, alpha in zip(bases, alphas):
                coef *= principal_pow(_BASES[base](w), alpha)
            parts.append((coef, f21_series(HypParams(*triple), t, tol / 4)))
            continue
        if beta is not None:
            coef *= cmath.exp((1.0 if side is CutSide.ABOVE else -1.0) * 1j * math.pi * beta)
        for base, alpha in zip(bases, alphas):
            try:
                coef *= abs(_BASES[base](w)) ** alpha
            except ArithmeticError:
                raise DomainError(
                    f"|{base}| ** {alpha} at w={w} is beyond double range") from None
        parts.append((coef, f21(HypParams(*triple), t, tol / 4)))
    return combine(parts)


def _first_route(p: HypParams, w: complex) -> tuple[float, str | _Connection]:
    """f21's first choice at w off the cut, with the modulus of its series
    argument: the least of w, w/(w-1) (Pfaff) and, when a - b is off the
    integers, 1/w."""
    r = abs(w)
    pfaff = abs(w / (w - 1.0))
    radius, route = (pfaff, "pfaff") if pfaff < r else (r, "direct")
    if r > 1.0 and 1.0 / r < radius and _CONNECTIONS[1].usable(p):
        return 1.0 / r, _CONNECTIONS[1]
    return radius, route


def route_radius(p: HypParams, w: complex) -> float:
    """Series-argument modulus of f21's first choice at w off the cut."""
    return _first_route(p, w)[0]


def f21(p: HypParams, w: complex, tol: float = DEFAULT_TOL) -> SeriesResult:
    """Principal value of 2F1(a, b; c; w) for w off the cut [1, inf).

    Terminating cases (a or b a nonpositive integer) are polynomials with no
    cut and are accepted at any w; a NaN w raises ``DomainError``.
    """
    w = complex(w)
    if cmath.isnan(w):
        raise DomainError(f"2F1 argument {w} is not a number")
    if p.degree is not None:
        return _polynomial(p, w)
    if w.imag == 0.0 and w.real >= 1.0:
        raise BranchCutError(f"2F1 argument {w} lies on the branch cut [1, inf)")
    if p.c_pole is not None:
        raise ParameterError(f"2F1 undefined for c = {p.c} in 0, -1, -2, ...")

    radius, route = _first_route(p, w)
    if radius > THETA_CUT:
        routes = [(abs(k.arg(w)), k) for k in map(_CONNECTIONS.get, (2, 3, 4)) if k.usable(p)]
        radius, route = min(routes, key=lambda t: t[0], default=(radius, route))
        if radius > THETA_CUT:  # the radial path stays off [1, inf)
            return _continue_along(p, [0.5 * w / abs(w), w], tol)
        out = _connect(route, p, w, tol)
        if out.tail_estimate > tol:  # terms cancel near |w| = 1: sum tighter
            out = _connect(route, p, w, tol * tol / out.tail_estimate)
        return out
    if route == "direct":  # f21's checks are those of f21_series
        return _series(p, w, radius, tol)
    if route == "pfaff":
        inner = f21_series(p.pfaff, w / (w - 1.0), tol / 2)
        pref = principal_pow(1.0 - w, -p.a)
        return SeriesResult(pref * inner.value, inner.terms_used, inner.tail_estimate)
    return _connect(route, p, w, tol)


def f21_regularized(p: HypParams, w: complex, tol: float = DEFAULT_TOL) -> SeriesResult:
    """2F1(a, b; c; w) / Gamma(c), entire in c.

    At c = -m the standard limit is returned: the series starts at the term
    of order m + 1.
    """
    if (mm := nonpos_index(p.c, NEAR_INT_TOL)) is not None:
        pref = (pochhammer(p.a, mm + 1) * pochhammer(p.b, mm + 1)
                / math.factorial(mm + 1)) * principal_pow(complex(w), mm + 1)
        if pref == 0:
            return SeriesResult(0.0 + 0.0j, 0, 0.0)
        inner = f21(HypParams(p.a + mm + 1, p.b + mm + 1, mm + 2), w, tol)
        return SeriesResult(pref * inner.value, inner.terms_used, inner.tail_estimate)
    inner = f21(p, w, tol)
    return SeriesResult(rgamma(p.c) * inner.value, inner.terms_used, inner.tail_estimate)


def f21_cut_via(theorem: int, p: HypParams, x: float, side: CutSide,
                tol: float = DEFAULT_TOL) -> SeriesResult:
    """One-sided limit 2F1(a, b; c; x +- i0), x > 1, by one of the four
    two-term connection formulas (1: argument 1/x, 2: 1-x, 3: 1-1/x,
    4: 1/(1-x)).  Formulas 1 and 4 need a - b off the integers; 2 and 3 need
    c - a - b off the integers."""
    if not (isinstance(x, (int, float)) and x > 1.0):
        raise DomainError(f"cut evaluation requires real x > 1; got {x}")
    if p.c_pole is not None:
        raise ParameterError(f"2F1 undefined for c = {p.c} in 0, -1, -2, ...")
    if theorem not in _CONNECTIONS:
        raise ValueError(f"theorem index must be 1..4; got {theorem}")
    k = _CONNECTIONS[theorem]
    if near_int(p.difference(k.difference), DEGENERACY_TOL):
        raise DegenerateParameterError(
            f"cut formula {theorem} needs {k.difference} off the integers")
    return _connect(k, p, float(x), tol, side)


def f21_cut(p: HypParams, x: float, side: CutSide,
            tol: float = DEFAULT_TOL) -> SeriesResult:
    """Limit of 2F1 on the cut from above or below, x > 1.

    Terminating (polynomial) cases are summed directly and carry no cut.
    Otherwise the formula with the smallest argument among those whose
    difference is ``CONNECTION_GAP`` off the integers is used (ties prefer
    1-1/x, 1-x, 1/x); with none, ODE steps reach the cut.
    """
    if not (isinstance(x, (int, float)) and x > 1.0):
        raise DomainError(f"cut evaluation requires real x > 1; got {x}")
    x = float(x)
    if p.degree is not None:
        return _polynomial(p, x)
    candidates = [(abs(_CONNECTIONS[n].arg(x)), n) for n in (3, 2, 1, 4)
                  if _CONNECTIONS[n].usable(p)]
    if candidates:
        return f21_cut_via(min(candidates, key=lambda t: t[0])[1], p, x, side, tol)
    # Continue numerically onto the cut from the requested side; the path
    # arrives vertically, so the final Taylor element is the one-sided limit.
    s = 0.7 if side is CutSide.ABOVE else -0.7
    path = [0.4 + 0.0j, complex(0.4, s), complex(x, s), complex(x, 0.0)]
    return _continue_along(p, path, tol)
