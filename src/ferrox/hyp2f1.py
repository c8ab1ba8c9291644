"""Gauss hypergeometric function 2F1 on the plane cut along [1, inf).

Provides the principal value everywhere off the cut, the regularized form
(divided by Gamma(c), entire in c), and the two one-sided limits on the cut.

Evaluation strategy: the argument is moved to small modulus with the maps
w -> w/(w-1) (a Pfaff transformation) and w -> 1/w (a two-term connection
formula, unusable when a - b is an integer).  When none of the candidate
arguments is small enough, the function is continued numerically by Taylor
steps on the hypergeometric differential equation along a cut-avoiding
radial path; that fallback has no parameter restrictions, so degenerate
integer cases never need logarithmic connection formulas.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .complexmath import (
    gamma_quotient,
    is_nonpos_int,
    near_int,
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
]

DEFAULT_TOL = 1e-12
MAX_TERMS = 50_000

#: Largest working argument handed to the direct series; beyond this the
#: ODE continuation takes over.
THETA_CUT = 0.9

#: Parameter differences closer to an integer than this disqualify a
#: connection formula.
DEGENERACY_TOL = 1e-8

#: Window around a nonpositive integer c routed through the limit form of the
#: regularized function.
NEAR_POLE_TOL = 1e-9


class CutSide(Enum):
    ABOVE = "above"
    BELOW = "below"


@dataclass(frozen=True)
class HypParams:
    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    tail_estimate: float


def combine(parts: list[tuple[complex, SeriesResult]]) -> SeriesResult:
    """The linear combination sum c_i F_i of (coefficient, series) pairs, with
    the term counts summed and the tail estimate taken relative to the
    combined value, so cancellation between the terms shows in it."""
    value = sum(c * r.value for c, r in parts)
    terms = sum(r.terms_used for _, r in parts)
    abs_tail = sum(abs(c * r.value) * r.tail_estimate for c, r in parts)
    mag = abs(value)
    return SeriesResult(value, terms, abs_tail / mag if mag else abs_tail)


def _terminating_index(p: HypParams) -> int | None:
    """Index m such that the series terminates after term m, or None."""
    candidates = []
    for u in (p.a, p.b):
        u = complex(u)
        if u.imag == 0.0 and u.real == round(u.real) and u.real <= 0.0:
            candidates.append(int(-u.real))
    if not candidates:
        return None
    return min(candidates)


def _c_pole_index(c: complex) -> int | None:
    c = complex(c)
    if c.imag == 0.0 and c.real == round(c.real) and c.real <= 0.0:
        return int(-c.real)
    return None


def _polynomial_sum(p: HypParams, w: complex, m: int) -> SeriesResult:
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(m):
        term *= (p.a + n) * (p.b + n) / ((p.c + n) * (n + 1)) * w
        total += term
    return SeriesResult(total, m + 1, 0.0)


def f21_series(p: HypParams, w: complex, tol: float = DEFAULT_TOL,
               max_terms: int = MAX_TERMS) -> SeriesResult:
    """Partial sum of the defining power series; requires |w| < 1 unless the
    series terminates (a or b a nonpositive integer).

    Stops once two consecutive terms both fall below tol relative to the
    partial sum, which guards against alternating near-cancellation.
    """
    w = complex(w)
    m = _terminating_index(p)
    cp = _c_pole_index(p.c)
    if cp is not None and (m is None or cp < m):
        raise ParameterError(f"2F1 series undefined: c = {p.c} is a nonpositive integer")
    if m is not None:
        return _polynomial_sum(p, w, m)
    aw = abs(w)
    if aw >= 1.0:
        raise ConvergenceError(f"2F1 series diverges for |w| = {aw:.6g} >= 1")
    a, b, c = p.a, p.b, p.c
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    prev_small = False
    # A float counter adds the same value as an int one, without the
    # int-to-float conversion in every complex operation.
    n = 0.0
    for _ in range(max_terms):
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
    raise ConvergenceError(
        f"2F1 series did not reach tol={tol:g} within {max_terms} terms at w={w}"
    )


def _f21_derivative_series(p: HypParams, w: complex, tol: float) -> complex:
    # F'(w) = (a b / c) 2F1(a+1, b+1; c+1; w)
    shifted = HypParams(p.a + 1, p.b + 1, p.c + 1)
    return p.a * p.b / p.c * f21_series(shifted, w, tol).value


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
    fk = f0
    fk1 = f1
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
    f1 = _f21_derivative_series(p, z, tol * 1e-2)
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


def _f21_continued(p: HypParams, w: complex, tol: float) -> SeriesResult:
    # The radial path stays off [1, inf) for every admissible w.
    return _continue_along(p, [0.5 * w / abs(w), w], tol)


def _recip_route(p: HypParams, w: complex, tol: float) -> SeriesResult:
    """Two-term connection formula in 1/w; requires a - b not an integer."""
    a, b, c = p.a, p.b, p.c
    iw = 1.0 / w
    r1 = f21_series(HypParams(a, a - c + 1.0, a - b + 1.0), iw, tol / 4)
    r2 = f21_series(HypParams(b, b - c + 1.0, b - a + 1.0), iw, tol / 4)
    p1 = gamma_quotient((c, b - a), (b, c - a)) * principal_pow(-w, -a)
    p2 = gamma_quotient((c, a - b), (a, c - b)) * principal_pow(-w, -b)
    return combine([(p1, r1), (p2, r2)])


def f21(p: HypParams, w: complex, tol: float = DEFAULT_TOL) -> SeriesResult:
    """Principal value of 2F1(a, b; c; w) for w off the cut [1, inf).

    Terminating cases (a or b a nonpositive integer) are polynomials with no
    cut and are accepted at any w.
    """
    w = complex(w)
    m = _terminating_index(p)
    if m is not None:
        cp = _c_pole_index(p.c)
        if cp is not None and cp < m:
            raise ParameterError(f"2F1 undefined: c = {p.c} pole precedes termination")
        return _polynomial_sum(p, w, m)
    if w.imag == 0.0 and w.real >= 1.0:
        raise BranchCutError(f"2F1 argument {w} lies on the branch cut [1, inf)")
    if _c_pole_index(p.c) is not None:
        raise ParameterError(f"2F1 undefined for c = {p.c} in 0, -1, -2, ...")

    r_direct = abs(w)
    r_pfaff = abs(w / (w - 1.0))
    routes = [(r_direct, "direct"), (r_pfaff, "pfaff")]
    if r_direct > 1.0 and not near_int(p.a - p.b, DEGENERACY_TOL):
        routes.append((1.0 / r_direct, "recip"))
    routes.sort(key=lambda t: t[0])
    radius, route = routes[0]
    if radius > THETA_CUT:
        return _f21_continued(p, w, tol)
    if route == "direct":
        return f21_series(p, w, tol)
    if route == "pfaff":
        inner = f21_series(HypParams(p.a, p.c - p.b, p.c), w / (w - 1.0), tol / 2)
        pref = principal_pow(1.0 - w, -p.a)
        return SeriesResult(pref * inner.value, inner.terms_used, inner.tail_estimate)
    return _recip_route(p, w, tol)


def f21_regularized(p: HypParams, w: complex, tol: float = DEFAULT_TOL) -> SeriesResult:
    """2F1(a, b; c; w) / Gamma(c), entire in c.

    At c = -m the standard limit is returned: the series starts at the term
    of order m + 1.
    """
    c = complex(p.c)
    if is_nonpos_int(c, NEAR_POLE_TOL):
        mm = int(-round(c.real))
        pref = (pochhammer(p.a, mm + 1) * pochhammer(p.b, mm + 1)
                / math.factorial(mm + 1)) * principal_pow(complex(w), mm + 1)
        if pref == 0:
            return SeriesResult(0.0 + 0.0j, 0, 0.0)
        inner = f21(HypParams(p.a + mm + 1, p.b + mm + 1, mm + 2), w, tol)
        return SeriesResult(pref * inner.value, inner.terms_used, inner.tail_estimate)
    inner = f21(p, w, tol)
    return SeriesResult(rgamma(c) * inner.value, inner.terms_used, inner.tail_estimate)


def _cut_phase(sign: CutSide, alpha: complex) -> complex:
    s = 1.0 if sign is CutSide.ABOVE else -1.0
    return cmath.exp(s * 1j * math.pi * alpha)


def f21_cut_via(theorem: int, p: HypParams, x: float, side: CutSide,
                tol: float = DEFAULT_TOL) -> SeriesResult:
    """One-sided limit 2F1(a, b; c; x +- i0), x > 1, by one of the four
    two-term connection formulas (1: argument 1/x, 2: 1-x, 3: 1-1/x,
    4: 1/(1-x)).  Formulas 1 and 4 need a - b off the integers; 2 and 3 need
    c - a - b off the integers."""
    a, b, c = p.a, p.b, p.c
    if not (isinstance(x, (int, float)) and x > 1.0):
        raise DomainError(f"cut evaluation requires real x > 1; got {x}")
    x = float(x)
    if _c_pole_index(c) is not None:
        raise ParameterError(f"2F1 undefined for c = {c} in 0, -1, -2, ...")

    if theorem == 1:
        if near_int(a - b, DEGENERACY_TOL):
            raise DegenerateParameterError("argument-1/x formula needs a - b off the integers")
        r1 = f21(HypParams(a, a - c + 1.0, a - b + 1.0), 1.0 / x, tol / 4)
        r2 = f21(HypParams(b, b - c + 1.0, b - a + 1.0), 1.0 / x, tol / 4)
        p1 = gamma_quotient((c, b - a), (b, c - a)) * _cut_phase(side, a) * x ** (-a)
        p2 = gamma_quotient((c, a - b), (a, c - b)) * _cut_phase(side, b) * x ** (-b)
    elif theorem == 2:
        if near_int(c - a - b, DEGENERACY_TOL):
            raise DegenerateParameterError("argument-(1-x) formula needs c - a - b off the integers")
        r1 = f21(HypParams(a - c + 1.0, b - c + 1.0, a + b - c + 1.0), 1.0 - x, tol / 4)
        r2 = f21(HypParams(c - a, c - b, c - a - b + 1.0), 1.0 - x, tol / 4)
        p1 = gamma_quotient((c, c - a - b), (c - a, c - b)) * x ** (1.0 - c)
        p2 = (gamma_quotient((c, a + b - c), (a, b))
              * _cut_phase(side, a + b - c) * (x - 1.0) ** (c - a - b))
    elif theorem == 3:
        if near_int(c - a - b, DEGENERACY_TOL):
            raise DegenerateParameterError("argument-(1-1/x) formula needs c - a - b off the integers")
        r1 = f21(HypParams(a, a - c + 1.0, a + b - c + 1.0), 1.0 - 1.0 / x, tol / 4)
        r2 = f21(HypParams(1.0 - a, c - a, c - a - b + 1.0), 1.0 - 1.0 / x, tol / 4)
        p1 = gamma_quotient((c, c - a - b), (c - a, c - b)) * x ** (-a)
        p2 = (gamma_quotient((c, a + b - c), (a, b)) * _cut_phase(side, a + b - c)
              * (x - 1.0) ** (c - a - b) * x ** (a - c))
    elif theorem == 4:
        if near_int(a - b, DEGENERACY_TOL):
            raise DegenerateParameterError("argument-1/(1-x) formula needs a - b off the integers")
        r1 = f21(HypParams(a, c - b, a - b + 1.0), 1.0 / (1.0 - x), tol / 4)
        r2 = f21(HypParams(b, c - a, b - a + 1.0), 1.0 / (1.0 - x), tol / 4)
        p1 = (gamma_quotient((c, b - a), (b, c - a)) * _cut_phase(side, a)
              * (x - 1.0) ** (-a))
        p2 = (gamma_quotient((c, a - b), (a, c - b)) * _cut_phase(side, b)
              * (x - 1.0) ** (-b))
    else:
        raise ValueError(f"theorem index must be 1..4; got {theorem}")
    return combine([(p1, r1), (p2, r2)])


def f21_cut(p: HypParams, x: float, side: CutSide,
            tol: float = DEFAULT_TOL) -> SeriesResult:
    """Limit of 2F1 on the cut from above or below, x > 1.

    Terminating (polynomial) cases are summed directly and carry no cut.
    Otherwise the best-conditioned non-degenerate connection formula is used;
    if every formula hits a gamma pole the error is reported rather than
    approximated.
    """
    if not (isinstance(x, (int, float)) and x > 1.0):
        raise DomainError(f"cut evaluation requires real x > 1; got {x}")
    x = float(x)
    m = _terminating_index(p)
    if m is not None:
        cp = _c_pole_index(p.c)
        if cp is not None and cp < m:
            raise ParameterError(f"2F1 undefined: c = {p.c} pole precedes termination")
        return _polynomial_sum(p, x, m)

    ab_ok = not near_int(p.a - p.b, DEGENERACY_TOL)
    cab_ok = not near_int(p.c - p.a - p.b, DEGENERACY_TOL)
    candidates: list[tuple[float, int]] = []
    if cab_ok:
        candidates.append((1.0 - 1.0 / x, 3))
        candidates.append((abs(1.0 - x), 2))
    if ab_ok:
        candidates.append((1.0 / x, 1))
        candidates.append((abs(1.0 / (1.0 - x)), 4))
    if not candidates:
        # Both parameter differences are integers, so every two-term formula
        # degenerates.  Continue numerically onto the cut from the requested
        # side instead; the path arrives vertically, so the final Taylor
        # element is the exact one-sided limit.
        s = 0.7 if side is CutSide.ABOVE else -0.7
        path = [0.4 + 0.0j, complex(0.4, s), complex(x, s), complex(x, 0.0)]
        return _continue_along(p, path, tol)
    candidates.sort(key=lambda t: t[0])
    return f21_cut_via(candidates[0][1], p, x, side, tol)
