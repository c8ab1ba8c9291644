"""Gauss hypergeometric function 2F1 on the plane cut along [1, inf).

Provides the principal value everywhere off the cut, the regularized form
(divided by Gamma(c), entire in c), and the two one-sided limits on the cut.

Evaluation strategy: the argument is moved to small modulus, first by the
least of w, w/(w-1) (Pfaff) and 1/w, and only when that exceeds
``THETA_CUT`` by 1-w, 1-1/w or 1/(1-w).  Each two-term connection formula is
one ``_Connection`` record, shared with the cut limits, usable only when the
difference it divides by (a - b or c - a - b) is ``CONNECTION_GAP`` off the
integers; ``f21`` and ``f21_cut`` take the usable one whose argument has the
least modulus (``_nearest``).  f21's first choice, ``_first_route``, reads
|w| and |w/(w-1)| only, so ``ferrers`` ranks the record whose arguments f21
moves by it from the argument moduli it has; ``route_radius`` gives it at a
complex w.  Elsewhere (degenerate parameters, and near e^(+-i pi/3), where
every map has modulus about 1) Taylor steps on the hypergeometric equation
continue the function from 0.4 up or down to Im = +-0.7, across to Re w and
on to w, the one path ``f21_cut`` takes onto the cut too; that fallback has
no parameter restrictions, so no logarithmic connection formula is needed.

What depends on (a, b, c) alone is worked out once per ``HypParams``: where
the series terminates, the pole of c, which differences are
``CONNECTION_GAP`` off the integers, the Pfaff and ODE-start parameters and
each connection term's gamma quotient and parameters, and from the second
series on the series term ratios (a+n)(b+n)/((c+n)(n+1)).  The routes read
these facts instead of working them out at each call, and a
terminating series longer than ``MAX_TERMS`` raises ``ConvergenceError``
before any term is summed.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, NamedTuple

from .complexmath import (
    NEAR_INT_TOL,
    gamma_quotient,
    near_int,
    nonpos_index,
    pochhammer,
    principal_pow,
    rgamma,
    to_complex,
)
from .errors import (
    BeyondRangeError,
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


class _Record:
    """Base of the records that keep work on their fields beside them, in
    the instance dict (``HypParams``, ``ferrers.ParamPair``): ``==``,
    ``hash``, ``repr`` and pickles are those of the fields ``_fields``
    alone, and no attribute can be assigned or deleted."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # only the fields: what is kept is worked out again
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class HypParams(_Record):
    """The parameters (a, b, c) of 2F1, as complex numbers; a non-finite one
    raises ``ParameterError`` here, so no route sees it.

    The parameter-only facts that every evaluation reads are worked out once
    here and kept outside the fields (see ``_Record``): ``degree``, the m at
    which the series terminates (a or b = -m, the least such m) or None, and
    ``c_pole``, the m with c = -m or None; and, on first read (``__getattr__``),
    ``gapped``, the connection differences ("a-b", "c-a-b") at least
    ``CONNECTION_GAP`` from every integer, ``pfaff`` and ``shifted``, the
    parameters (a, c - b, c) and (a + 1, b + 1, c + 1),
    ``connection_terms``, which ``_connect`` fills, and ``ratios``, the term
    ratios ``_series`` keeps from its second series at the object on."""

    _fields = ("a", "b", "c")
    ratios = None  # not a field: set in the instance dict by ``_series``

    def __init__(self, a: complex, b: complex, c: complex):
        a, b, c = to_complex(a), to_complex(b), to_complex(c)
        if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c)):
            raise ParameterError(f"2F1 parameters must be finite; got a={a}, b={b}, c={c}")
        ma, mb = nonpos_index(a), nonpos_index(b)
        # one write to the instance dict, past ``_Record.__setattr__``
        vars(self).update(a=a, b=b, c=c, c_pole=nonpos_index(c),
                          degree=mb if ma is None else ma if mb is None else min(ma, mb))

    def difference(self, name: str) -> complex:
        """The difference a connection formula divides by: "a-b" or "c-a-b"."""
        return self.a - self.b if name == "a-b" else self.c - self.a - self.b

    def __getattr__(self, name):  # only names that normal lookup misses
        if name == "gapped":
            value = tuple(d for d in ("a-b", "c-a-b")
                          if not near_int(self.difference(d), CONNECTION_GAP))
        elif name == "pfaff":
            value = HypParams(self.a, self.c - self.b, self.c)
        elif name == "shifted":
            value = HypParams(self.a + 1, self.b + 1, self.c + 1)
        else:
            raise AttributeError(f"'HypParams' object has no attribute {name!r}")
        vars(self)[name] = value
        return value


class SeriesResult(NamedTuple):
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
    or infinite w (an integer beyond double range too) raises ``DomainError``.
    """
    w = to_complex(w)
    if not cmath.isfinite(w):
        raise DomainError(f"2F1 argument {w} is {'not a number' if cmath.isnan(w) else 'infinite'}")
    if p.degree is not None:
        return _polynomial(p, w)
    if p.c_pole is not None:
        raise ParameterError(f"2F1 series undefined: c = {p.c} is a nonpositive integer")
    aw = abs(w)
    if aw >= 1.0:
        raise ConvergenceError(f"2F1 series diverges for |w| = {aw:.6g} >= 1")
    return _series(p, w, aw, tol)


def _series(p: HypParams, w: complex, aw: float, tol: float) -> SeriesResult:
    """The loop of ``f21_series``, once its checks have passed; aw = |w|.
    Term ratios are read from ``p.ratios`` and formed past its end; a first
    series at p keeps (), a later one publishes a new, longer tuple (never
    one extended in place), one that raises nothing new.  |total| is read
    only where |term| <= 2 tol (1 + sum |term|): elsewhere it is not small."""
    a, b, c = p.a, p.b, p.c
    kept = p.ratios
    formed = None if kept is None else []
    total = term = 1.0 + 0.0j
    bound, tol2 = 1.0, 2.0 * tol
    prev_small = False
    # A float counter adds the same value as an int one, without the
    # int-to-float conversion in every complex operation.
    n = 0.0
    # a first series forms every ratio: it skips chain's cost per term
    source = (chain(kept, repeat(None, MAX_TERMS - len(kept))) if kept
              else repeat(None, MAX_TERMS))
    try:
        if not cmath.isfinite(a * b):  # the first term ratio is beyond double range
            raise OverflowError
        for r in source:
            if r is None:
                r = (a + n) * (b + n) / ((c + n) * (n + 1.0))
                if formed is not None:
                    formed.append(r)
            term *= r * w
            total += term
            aterm = abs(term)
            bound += aterm
            if aterm <= tol2 * bound:
                atotal = abs(total)
                small = aterm <= tol * atotal
                if small and prev_small:
                    break
                prev_small = small
            elif aterm != aterm:  # a NaN term (inf * 0, inf - inf): no sum to reach
                break
            else:
                prev_small = False
            n += 1.0
        else:
            raise ConvergenceError(
                f"2F1 series did not reach tol={tol:g} within {MAX_TERMS} terms at w={w}")
        finite = cmath.isfinite(total)
    except OverflowError:  # a * b, |term| or |total| beyond double range
        finite = False
    if not finite:
        raise ConvergenceError(f"2F1 series terms overflow at w={w}")
    if formed is None:
        vars(p)["ratios"] = ()
    elif formed:
        vars(p)["ratios"] = kept + tuple(formed)
    tail = aterm * aw / (1.0 - aw)
    return SeriesResult(total, int(n) + 2, tail / atotal if atotal else tail)


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


def _continue_along(p: HypParams, w: complex, side: CutSide, tol: float) -> SeriesResult:
    """Taylor-step the hypergeometric ODE from 0.4, inside the series disk,
    to w along the module's one continuation path: up (``side`` ABOVE) or
    down to Im = +-0.7, across to Re w, then straight to w, so it stays off
    the cut [1, inf) up to its end.

    w may lie on the cut: the path then arrives vertically, and the final
    Taylor element is the analytic continuation from ``side``, which is
    exactly the one-sided boundary value there.
    """
    s = 0.7 if side is CutSide.ABOVE else -0.7
    z = 0.4 + 0.0j
    inner = f21_series(p, z, tol * 1e-2)
    f0 = inner.value
    # F'(w) = (a b / c) 2F1(a+1, b+1; c+1; w)
    shifted = f21_series(p.shifted, z, tol * 1e-2)
    f1 = p.a * p.b / p.c * shifted.value
    terms = inner.terms_used
    tail = 0.0
    for target in (complex(0.4, s), complex(w.real, s), w):
        for _ in range(500):
            rem = target - z
            if rem == 0:
                break
            d = min(abs(z), abs(z - 1.0))
            final = abs(rem) <= 0.4 * d
            h = rem if final else 0.4 * d * (rem / abs(rem))
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


class _Connection(NamedTuple):
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


def _connect(n: int, p: HypParams, w: complex, tol: float,
             side: CutSide | None = None) -> SeriesResult:
    """Principal value of record ``_CONNECTIONS[n]`` at w off the cut
    (``side`` None; t(w) in the series disk), or its limit at w = x > 1 from
    ``side``.  Per term, (n, term) -> [gamma quotient, ``HypParams``,
    exponents, phase exponent] is kept in ``p.connection_terms`` when the
    term is first reached.  The ``HypParams`` stays a triple until it is
    first formed, after the term's x-part, so errors come in the order of a
    fresh evaluation; a value that raises is not kept, so it raises again.
    A non-finite value raises ``BeyondRangeError`` (a cut limit: ``DomainError``)."""
    k = _CONNECTIONS[n]
    t = k.arg(w)
    kept = vars(p).setdefault("connection_terms", {})  # not a field: see HypParams
    parts, raw = [], None
    for j, bases in enumerate(k.bases):
        term = kept.get((n, j))
        if term is None:
            raw = raw or k.terms(p.a, p.b, p.c)
            triple, num, den, alphas, beta = raw[j]
            term = kept[n, j] = [gamma_quotient(num, den), triple, alphas, beta]
        coef, hp, alphas, beta = term
        if side is None:
            for base, alpha in zip(bases, alphas):
                coef *= principal_pow(_BASES[base](w), alpha)
        else:
            if beta is not None:
                try:
                    coef *= cmath.exp(
                        (1.0 if side is CutSide.ABOVE else -1.0) * 1j * math.pi * beta)
                except (ArithmeticError, ValueError):
                    raise DomainError(
                        f"cut phase e^(+-i pi {beta}) is beyond double range") from None
            for base, alpha in zip(bases, alphas):
                try:
                    coef *= abs(_BASES[base](w)) ** alpha
                except ArithmeticError:
                    raise DomainError(
                        f"|{base}| ** {alpha} at w={w} is beyond double range") from None
        if not isinstance(hp, HypParams):
            hp = term[1] = HypParams(*hp)
        parts.append((coef, (f21_series if side is None else f21)(hp, t, tol / 4)))
    out = combine(parts)
    if not cmath.isfinite(out.value):
        if side is None:
            raise BeyondRangeError(f"2F1 by formula {n} at w={w} is beyond double range")
        raise DomainError(f"2F1 cut limit by formula {n} at x={w} is beyond double range")
    return out


def _first_route(p: HypParams, r: float, pfaff: float) -> tuple[float, str | int]:
    """f21's first choice at w off the cut, given r = |w| and pfaff =
    |w/(w-1)|, with the modulus of its series argument: the least of w,
    w/(w-1) (Pfaff) and, when a - b is off the integers, 1/w (connection
    formula 1)."""
    radius, route = (pfaff, "pfaff") if pfaff < r else (r, "direct")
    if r > 1.0 and 1.0 / r < radius and _CONNECTIONS[1].usable(p):
        return 1.0 / r, 1
    return radius, route


def route_radius(p: HypParams, w: complex) -> float:
    """Series-argument modulus of f21's first choice at w off the cut."""
    return _first_route(p, abs(w), abs(w / (w - 1.0)))[0]


def _nearest(p: HypParams, w: complex, order: tuple[int, ...]) -> tuple[float, int] | None:
    """(|t(w)|, n) of the usable ``_CONNECTIONS`` record n in ``order`` whose
    argument t(w) has the least modulus, ties going to the first in
    ``order``; None when none is usable."""
    return min(((abs(_CONNECTIONS[n].arg(w)), n) for n in order if _CONNECTIONS[n].usable(p)),
               key=itemgetter(0), default=None)


def f21(p: HypParams, w: complex, tol: float = DEFAULT_TOL) -> SeriesResult:
    """Principal value of 2F1(a, b; c; w) for w off the cut [1, inf).

    Terminating cases (a or b a nonpositive integer) are polynomials with no
    cut and are accepted at any finite w; a NaN or infinite w raises
    ``DomainError``.  Where every series argument exceeds ``THETA_CUT``, ODE
    steps go round w = 1 on the side of Im w (-0.0: below), along the path
    of ``f21_cut``.
    """
    w = to_complex(w)
    if not cmath.isfinite(w):
        raise DomainError(f"2F1 argument {w} is {'not a number' if cmath.isnan(w) else 'infinite'}")
    if p.degree is not None:
        return _polynomial(p, w)
    if w.imag == 0.0 and w.real >= 1.0:
        raise BranchCutError(f"2F1 argument {w} lies on the branch cut [1, inf)")
    if p.c_pole is not None:
        raise ParameterError(f"2F1 undefined for c = {p.c} in 0, -1, -2, ...")

    radius, route = _first_route(p, abs(w), abs(w / (w - 1.0)))
    if radius > THETA_CUT:
        radius, route = _nearest(p, w, (2, 3, 4)) or (radius, route)
        if radius > THETA_CUT:  # go round w = 1 on the side of Im w
            side = CutSide.ABOVE if math.copysign(1.0, w.imag) > 0 else CutSide.BELOW
            return _continue_along(p, w, side, tol)
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
        if mm + 1 > MAX_TERMS:
            raise ConvergenceError(
                f"2F1 limit at c = {p.c} starts past the {MAX_TERMS}-term budget")
        pref = (pochhammer(p.a, mm + 1) * pochhammer(p.b, mm + 1)
                / math.factorial(mm + 1)) * principal_pow(to_complex(w), mm + 1)
        if pref == 0:
            return SeriesResult(0.0 + 0.0j, 0, 0.0)
        inner = f21(HypParams(p.a + mm + 1, p.b + mm + 1, mm + 2), w, tol)
        return SeriesResult(pref * inner.value, inner.terms_used, inner.tail_estimate)
    inner = f21(p, w, tol)
    return SeriesResult(rgamma(p.c) * inner.value, inner.terms_used, inner.tail_estimate)


def _cut_point(x) -> float:
    """x as a float; ``DomainError`` unless it is a real number in (1, inf)."""
    if isinstance(x, (int, float)) and 1.0 < x < math.inf:
        if (real := to_complex(x).real) < math.inf:
            return real
        x = "an integer beyond double range"
    raise DomainError(f"cut evaluation requires real x > 1; got {x}")


def f21_cut_via(theorem: int, p: HypParams, x: float, side: CutSide,
                tol: float = DEFAULT_TOL) -> SeriesResult:
    """One-sided limit 2F1(a, b; c; x +- i0), finite x > 1, by one of the four
    two-term connection formulas (1: argument 1/x, 2: 1-x, 3: 1-1/x,
    4: 1/(1-x)).  Formulas 1 and 4 need a - b off the integers; 2 and 3 need
    c - a - b off the integers."""
    x = _cut_point(x)
    if p.c_pole is not None:
        raise ParameterError(f"2F1 undefined for c = {p.c} in 0, -1, -2, ...")
    if theorem not in _CONNECTIONS:
        raise ValueError(f"theorem index must be 1..4; got {theorem}")
    k = _CONNECTIONS[theorem]
    if near_int(p.difference(k.difference), DEGENERACY_TOL):
        raise DegenerateParameterError(
            f"cut formula {theorem} needs {k.difference} off the integers")
    return _connect(theorem, p, x, tol, side)


def f21_cut(p: HypParams, x: float, side: CutSide,
            tol: float = DEFAULT_TOL) -> SeriesResult:
    """Limit of 2F1 on the cut from above or below, finite x > 1.

    Terminating (polynomial) cases are summed directly and carry no cut.
    Otherwise the formula with the smallest argument among those whose
    difference is ``CONNECTION_GAP`` off the integers is used (ties prefer
    1-1/x, 1-x, 1/x); with none, ODE steps reach the cut from ``side``.
    """
    x = _cut_point(x)
    if p.degree is not None:
        return _polynomial(p, x)
    nearest = _nearest(p, x, (3, 2, 1, 4))
    if nearest:
        return f21_cut_via(nearest[1], p, x, side, tol)
    return _continue_along(p, complex(x, 0.0), side, tol)
