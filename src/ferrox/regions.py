"""The eighteen hypergeometric argument maps w_j(x) and the geometry of the
regions |w_j| < 1 in the complex x-plane.

Arguments 1..6 are Moebius-type maps of x, 7..12 are maps of x^2, and 13..18
involve a square root of x^2 - 1 (branch Y1 by default; the starred variants
of 13 and 14 use branch Y2 and live on the plane cut along [-1, 1]).

Each map is one record of the table ``_MAPS``: its singular points, its
formula and its test of |w_j| < 1, all as data, resolved once at import.  A
formula is the ratio of two terms, or one alone, of one vocabulary
``_TERM_NAMES`` (1 -+ x, x - 1, x^2, 1 - x^2, x^2 - 1 for the maps 1..12,
2y, x +- y, y - x for 13..18), by index into the tuple that ``_terms``
forms at a point: ``map_value`` and ``map_values`` both read ``_RATIOS``
over it.  A test is a closed form (quantity, side, bound): one per-point
quantity of ``_QUANTITIES`` (|1 -+ x|, Re x, Im x, |x|, |1-x||1+x|,
Re(x^2), and for the square-root family the criteria e^{+-2 beta}
cos(2 alpha) with x = cos(alpha + i beta)) compared with a constant: disks,
half-planes, the lemniscate |1-x||1+x| = 1, the circles |x| = 1, the
hyperbola Re(x^2) = 1/2.  Boundary points classify as outside.
``region_test`` and ``in_region`` build the test of one map from its record
(``_test``); ``region_flags`` and ``classify`` form every quantity once per
point, with one acos for both criteria, and read all eighteen tests.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Container, NamedTuple

from .complexmath import RootVariant, root_y
from .errors import DomainError, SingularPointError

__all__ = [
    "ARGUMENT_COUNT",
    "CurveBranch",
    "DomainId",
    "RegionReport",
    "argument",
    "classify",
    "curve_w13",
    "in_domain",
    "in_region",
    "map_value",
    "map_values",
    "region_flags",
    "region_test",
    "unusable_maps",
]


class DomainId(Enum):
    D1 = "D1"            # plane cut along the real rays |x| >= 1
    D1_PLUS = "D1+"      # D1 restricted to Re x > 0
    D2 = "D2"            # plane cut along (-inf, 1]
    D2_PLUS = "D2+"      # D2 restricted to Re x > 0
    D3 = "D3"            # -D2: plane cut along [-1, inf)


def in_domain(dom: DomainId, x: complex) -> bool:
    """Whether x lies in ``dom``; a NaN x lies in none."""
    x = complex(x)
    if cmath.isnan(x):
        return False
    real = x.imag == 0.0
    if dom is DomainId.D1:
        return not (real and abs(x.real) >= 1.0)
    if dom is DomainId.D1_PLUS:
        return x.real > 0.0 and not (real and x.real >= 1.0)
    if dom is DomainId.D2:
        return not (real and x.real <= 1.0)
    if dom is DomainId.D2_PLUS:
        return x.real > 0.0 and not (real and x.real <= 1.0)
    if dom is DomainId.D3:
        return not (real and x.real >= -1.0)
    raise ValueError(f"unknown domain {dom!r}")


class CurveBranch(Enum):
    PLAIN = "plain"        # boundary piece of |w13| = 1 (root Y1)
    STARRED = "starred"    # boundary piece of |w13*| = 1 (root Y2)


@dataclass(frozen=True)
class RegionReport:
    x: complex
    inside: dict[int, bool]
    domains: dict[DomainId, bool]


_SINGULAR = {
    "-1": lambda x: x == -1.0,
    "1": lambda x: x == 1.0,
    "+-1": lambda x: x == 1.0 or x == -1.0,
    # Maps 10 and 11 divide by x * x, which underflows to 0 for |x| below
    # about 1e-162, so test the product and not x.
    "0": lambda x: x * x == 0.0,
}


#: The terms that the maps divide, in the order of ``_terms``: the x-terms
#: of the maps 1..12, then the y-terms of the maps 13..18.
_TERM_NAMES = ("1", "2", "1-x", "1+x", "x-1", "x^2", "1-x^2", "x^2-1", "2y", "x+y", "x-y", "y-x")


def _terms(x: complex, y: complex | None) -> tuple[complex, ...]:
    """The terms of ``_TERM_NAMES`` at x and y, the chosen root of x^2 - 1,
    in that order; only the eight x-terms when y is None."""
    x2 = x * x
    t = (1.0, 2.0, 1.0 - x, 1.0 + x, x - 1.0, x2, 1.0 - x2, x2 - 1.0)
    return t if y is None else t + (2.0 * y, x + y, x - y, y - x)


def _criterion(th: complex, k: float) -> float:
    """e^{k beta} cos(2 alpha) for x = cos(alpha + i beta), alpha in [0, pi],
    from th = acos(x) = alpha + i beta.  e^{k beta} is capped at e^709,
    below the double maximum, which leaves its comparison with 1/2
    unchanged: |cos(2 alpha)| is never below 1e-17."""
    return math.exp(min(k * th.imag, 709.0)) * math.cos(2.0 * th.real)


#: The per-point quantities that the region tests compare with a bound, by
#: name, as functions of x.  ``_quantities`` forms them all at once, the
#: two criteria (the last two) from one acos.
_QUANTITIES: dict[str, Callable[[complex], float]] = {
    "Re x": lambda x: x.real,
    "Im x": lambda x: x.imag,
    "|x|": abs,
    "|1-x|": lambda x: abs(1.0 - x),
    "|1+x|": lambda x: abs(1.0 + x),
    "|1-x||1+x|": lambda x: abs(1.0 - x) * abs(1.0 + x),
    "Re x^2": lambda x: x.real * x.real - x.imag * x.imag,
    "e^2b cos 2a": lambda x: _criterion(cmath.acos(x), 2.0),
    "e^-2b cos 2a": lambda x: _criterion(cmath.acos(x), -2.0),
}
_PLAIN_QUANTITIES = tuple(_QUANTITIES.values())[:-2]


def _quantities(x: complex) -> list[float]:
    """Every quantity of ``_QUANTITIES`` at x, in its order."""
    q = [f(x) for f in _PLAIN_QUANTITIES]
    th = cmath.acos(x)
    q += _criterion(th, 2.0), _criterion(th, -2.0)
    return q


_SIDES = {"<": operator.lt, ">": operator.gt}


class _Map(NamedTuple):
    singular: str | None  # x where w_j is singular: a _SINGULAR key
    num: str              # w_j = num / den: names of _TERM_NAMES
    den: str | None       # None: w_j is num itself
    quantity: str         # |w_j| < 1 (root Y1) iff quantity side bound,
    side: str             # with quantity a name of _QUANTITIES
    bound: float          # and side "<" or ">"


_MAPS: dict[int, _Map] = {
    1: _Map(None, "1-x", "2", "|1-x|", "<", 2.0),
    2: _Map(None, "1+x", "2", "|1+x|", "<", 2.0),
    3: _Map("-1", "x-1", "1+x", "Re x", ">", 0.0),
    4: _Map("1", "1+x", "x-1", "Re x", "<", 0.0),
    5: _Map("-1", "2", "1+x", "|1+x|", ">", 2.0),
    6: _Map("1", "2", "1-x", "|1-x|", ">", 2.0),
    7: _Map(None, "1-x^2", None, "|1-x||1+x|", "<", 1.0),
    8: _Map("+-1", "1", "1-x^2", "|1-x||1+x|", ">", 1.0),
    9: _Map(None, "x^2", None, "|x|", "<", 1.0),
    10: _Map("0", "1", "x^2", "|x|", ">", 1.0),
    11: _Map("0", "x^2-1", "x^2", "Re x^2", ">", 0.5),
    12: _Map("+-1", "x^2", "x^2-1", "Re x^2", "<", 0.5),
    13: _Map("+-1", "y-x", "2y", "e^2b cos 2a", "<", 0.5),
    14: _Map("+-1", "x-y", "x+y", "Im x", ">", 0.0),
    15: _Map("+-1", "2y", "x+y", "e^-2b cos 2a", ">", 0.5),
    16: _Map("+-1", "2y", "y-x", "e^2b cos 2a", ">", 0.5),
    17: _Map("+-1", "x+y", "2y", "e^-2b cos 2a", "<", 0.5),
    18: _Map("+-1", "x+y", "x-y", "Im x", "<", 0.0),
}
ARGUMENT_COUNT = len(_MAPS)


def _test(m: _Map) -> Callable[[complex], bool]:
    """The test of |w_j| < 1 of record m, False where w_j is singular."""
    f, compare, bound = _QUANTITIES[m.quantity], _SIDES[m.side], m.bound
    if m.singular is None:
        return lambda x: compare(f(x), bound)
    singular = _SINGULAR[m.singular]
    return lambda x: not singular(x) and compare(f(x), bound)


#: Of every map, resolved once from its record: its numerator and
#: denominator as indices into ``_terms`` (denominator None: w_j is the
#: numerator), and its test as (index into ``_quantities``, comparison,
#: bound).
_RATIOS = {j: (_TERM_NAMES.index(m.num), None if m.den is None else _TERM_NAMES.index(m.den))
           for j, m in _MAPS.items()}
_QUANTITY_INDEX = {name: i for i, name in enumerate(_QUANTITIES)}
_TESTS = tuple((_QUANTITY_INDEX[m.quantity], _SIDES[m.side], m.bound) for m in _MAPS.values())
#: The maps singular where each ``_SINGULAR`` predicate holds.
_SINGULAR_MAPS = {key: tuple(j for j, m in _MAPS.items() if m.singular == key)
                  for key in _SINGULAR}


#: The square-root maps 13..18 are refused from this |x| on (see ``argument``).
_SQRT_MAPS_FAR = 50.0
_SINGULAR_MESSAGE = "w_{j} singular at x = {key}"
_FAR_MESSAGE = "w_{j} at x = {x}: x -+ sqrt(x^2 - 1) loses its digits"


def _lookup(j: int, x: complex, root: RootVariant) -> _Map:
    """The record of map j, once j, the root and x are checked."""
    m = _MAPS.get(j)
    if m is None:
        raise ValueError(f"argument index must be 1..18; got {j}")
    if root is RootVariant.Y2 and j not in (13, 14):
        raise DomainError(f"root Y2 is only defined for arguments 13 and 14; got {j}")
    if m.singular is not None and _SINGULAR[m.singular](x):
        raise SingularPointError(_SINGULAR_MESSAGE.format(j=j, key=m.singular))
    return m


def unusable_maps(x: complex) -> dict[int, str]:
    """The maps that ``argument`` refuses at x with root Y1, each with the
    message it raises: the maps singular at x and, from |x| = 50 on, the
    square-root maps 13..18.  (On the real rays |x| > 1, where root Y1 is
    undefined, ``argument`` refuses the maps 13..18 too.)"""
    out = {j: _SINGULAR_MESSAGE.format(j=j, key=key)
           for key, singular in _SINGULAR.items() if singular(x) for j in _SINGULAR_MAPS[key]}
    if abs(x) >= _SQRT_MAPS_FAR:
        for j in range(13, ARGUMENT_COUNT + 1):
            out.setdefault(j, _FAR_MESSAGE.format(j=j, x=x))
    return out


def map_value(j: int, x: complex, y: complex | None) -> complex:
    """w_j(x) with y the chosen root of x^2 - 1 (read by maps 13..18 only),
    without the checks of ``argument``."""
    num, den = _RATIOS[j]
    t = _terms(x, y)
    return t[num] if den is None else t[num] / t[den]


def map_values(x: complex, y: complex, skip: Container[int]) -> dict[int, complex]:
    """``map_value`` of every map j not in ``skip``, from one evaluation of
    each term at x; skipping ``unusable_maps(x)`` leaves no division by
    zero."""
    t = _terms(x, y)
    return {j: t[num] if den is None else t[num] / t[den]
            for j, (num, den) in _RATIOS.items() if j not in skip}


def region_test(j: int) -> Callable[[complex], bool]:
    """The closed-form test of |w_j(x)| < 1 (root Y1) that ``in_region``
    applies, False where w_j is singular: the flag of map j that
    ``region_flags`` gives, for a caller that tests one map at many points."""
    return _test(_MAPS[j])


def region_flags(x: complex) -> list[bool]:
    """The flags |w_j(x)| < 1 (root Y1) of the maps j = 1..18, at index
    j - 1, each False where w_j is singular, from one evaluation of each
    quantity at x."""
    q = _quantities(x)
    flags = [compare(q[i], bound) for i, compare, bound in _TESTS]
    for key, singular in _SINGULAR.items():
        if singular(x):
            for j in _SINGULAR_MAPS[key]:
                flags[j - 1] = False
    return flags


def argument(j: int, x: complex, root: RootVariant = RootVariant.Y1) -> complex:
    """Evaluate the j-th hypergeometric argument map at x.

    The ``root`` choice matters only for j in 13..18; Y2 is accepted only for
    the starred variants j in {13, 14}.  Those six maps are ratios of x - y,
    x + y and 2y, where (x - y)(x + y) = 1: at large |x| the smaller of x -+ y
    cancels, to 0 from |x| of about 1e8 on.  From |x| = 50 on, where it has
    lost four of its sixteen digits, they raise ``DomainError``.
    """
    x = complex(x)
    _lookup(j, x, root)
    if j <= 12:
        return map_value(j, x, None)
    y = root_y(root, x)
    if abs(x) >= _SQRT_MAPS_FAR:
        raise DomainError(_FAR_MESSAGE.format(j=j, x=x))
    return map_value(j, x, y)


def in_region(j: int, x: complex, root: RootVariant = RootVariant.Y1) -> bool:
    """Closed-form test of |w_j(x)| < 1 (strict; boundary counts as outside)."""
    x = complex(x)
    m = _lookup(j, x, root)
    if root is RootVariant.Y2:
        y = root_y(RootVariant.Y2, x)
        if j == 13:
            # |w13*| < 1  iff  Re w14* < 1/2, with w13* = w14*/(w14* - 1)
            return ((x - y) / (x + y)).real < 0.5
        # |w14*| < 1  iff  |x - y| < |x + y|  iff  Re(x conj(y)) > 0
        return (x * y.conjugate()).real > 0.0
    return _test(m)(x)


def classify(x: complex) -> RegionReport:
    """Full membership report: |w_j| < 1 flags for j = 1..18 (root Y1 for the
    square-root family) plus domain flags.  Points where a map is undefined
    yield inside = False rather than an error."""
    x = complex(x)
    inside = dict(zip(_MAPS, region_flags(x)))
    domains = {dom: in_domain(dom, x) for dom in DomainId}
    return RegionReport(x=x, inside=inside, domains=domains)


def curve_w13(alpha: float, branch: CurveBranch) -> complex:
    """Point on the boundary curve |w13| = 1 (PLAIN, root Y1) or |w13*| = 1
    (STARRED, root Y2, upper-right quadrant piece).

    Parametrized by x = (t + 1/t)/2 cos(alpha) + i (t - 1/t)/2 sin(alpha)
    with t = sqrt(2 cos 2 alpha); alpha in (0, pi/4) for PLAIN and
    (0, pi/6) for STARRED.  The curve pieces in the remaining quadrants are
    mirror images across the axes.
    """
    hi = math.pi / 4 if branch is CurveBranch.PLAIN else math.pi / 6
    if not 0.0 < alpha < hi:
        raise DomainError(
            f"curve parameter must lie in (0, {hi:.6f}) for {branch.value}; got {alpha}"
        )
    t = math.sqrt(2.0 * math.cos(2.0 * alpha))
    return complex(0.5 * (t + 1.0 / t) * math.cos(alpha),
                   0.5 * (t - 1.0 / t) * math.sin(alpha))
