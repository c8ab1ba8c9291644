"""Catalogue of the 72 classical hypergeometric-form solutions of the
associated Legendre equation, with numeric verification of what each one
reduces to.

The catalogue is data-driven: every entry is a record holding its prefactor
powers (exponents affine in nu and mu), its hypergeometric parameter triple
(also affine), its argument map, and its domain.  Entries given classically
as x -> -x reflections of earlier ones are stored that way.  Each entry with
a series is also a one-term record of ``ferrers`` (``_RECORDS``), compiled
by ``ferrers._compile`` like the second-kind representations, on the one
base vocabulary ``ferrers._BASES`` of x and the root y; each variant is
resolved once to its domain, reflections and record (``_VARIANTS``).  Each
entry also carries exactly one identity record: either a closed-form
reduction to a Legendre or Ferrers function, or equality with another entry
(Euler/Pfaff transformations, parity).  The reductions are records too
(target function, affine degree and order, a coefficient record for the
gamma, power and phase factors, reflected terms), read by one interpreter.

A ``ParamPair`` keeps in its memo (see ``ParamPair``) each record's
evaluator and ``HypParams``, and per reduction its target pairs and scale
part, so an evaluation at x does only x-dependent work; ``verify_identity``
and ``ode_residual`` call ``eval_olbricht``.  ``verify_catalogue`` checks
many variants in one run, in which each entry value (variant, x, tol) is
evaluated once.

Square-root entries come in two branch variants (Y1 and Y2); the variants
with arguments (y+x)/(2y) and (x+y)/(x-y) admit only Y1, since with Y2 those
arguments land on [1, inf) for x > 1.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

from .complexmath import RootVariant, rgamma, root_y, to_complex
from .errors import DomainError, FerroxError, ParameterError
from .ferrers import (
    DEFAULT_TOL,
    Affine,
    Coefficient,
    EvalOutcome,
    ParamPair,
    _RepSpec,
    _Term,
    _aff,
    _coefficient,
    _coefficients_at,
    _evaluate,
    _guarded,
    ferrers_p,
    legendre_ode_residual,
    legendre_p,
    legendre_q_bold,
)
from .regions import DomainId, in_domain

__all__ = [
    "ALL_IDS",
    "CatalogueCheck",
    "CatalogueEntry",
    "IdentityOutcome",
    "IdentityReport",
    "OlbrichtId",
    "catalogue",
    "catalogue_records",
    "default_samples",
    "entry",
    "eval_olbricht",
    "identity_record",
    "ode_residual",
    "ode_samples",
    "verify_catalogue",
    "verify_identity",
]

_SQRT_PI = math.sqrt(math.pi)


class OlbrichtId(NamedTuple):
    group: str                       # "I" | "II" | "III"
    index: int                       # 1..24
    root: RootVariant | None = None  # group III only

    def label(self) -> str:
        if self.root is None:
            return f"{self.group}.{self.index}"
        return f"{self.group}.{self.index}.{self.root.value}"


class CatalogueEntry(NamedTuple):
    group: str
    index: int
    #: allowed root variants; empty for the rational-argument groups
    roots: tuple[str, ...]
    #: domain tag, or per-root mapping for the square-root group
    domain: str | dict[str, str]
    #: ((base_tag, exponent-affine), ...)
    prefactors: tuple[tuple[str, Affine], ...] = ()
    hyp: tuple[Affine, Affine, Affine] | None = None
    #: regions argument index for groups I/II, "w13".."w18" for group III
    #: (the same maps, taken with the entry's root)
    argument: int | str | None = None
    #: evaluate as the referenced entry of the same group at -x
    reflect_of: int | None = None


#: The tags that stand for a product of powers with one exponent:
#: (x^2 - 1)^a is (x + 1)^a (x - 1)^a.  Every other tag names a base of
#: ``ferrers._BASES``, of x and the entry's root y.
_PRODUCTS = {"x2m1": ("x+1", "x-1")}


def _e(group, index, roots, domain, prefactors=(), hyp=None, arg=None, reflect=None):
    return CatalogueEntry(group, index, roots, domain, tuple(prefactors),
                          hyp, arg, reflect)


def _build_catalogue() -> dict[tuple[str, int], CatalogueEntry]:
    entries: list[CatalogueEntry] = []

    # ---- rational arguments in x -----------------------------------------
    hm, hp = "half_one_minus_x", "half_one_plus_x"
    t_m, t_p = "two_over_one_minus_x", "two_over_one_plus_x"
    entries += [
        _e("I", 1, (), "D1", [(hm, (0, 0, .5)), (hp, (0, 0, .5))],
           ((0, -1, 1), (1, 1, 1), (1, 0, 1)), 1),
        _e("I", 2, (), "D1", [(hm, (0, 0, -.5)), (hp, (0, 0, .5))],
           ((0, -1, 0), (1, 1, 0), (1, 0, -1)), 1),
        _e("I", 3, (), "D1", [(hm, (0, 0, .5)), (hp, (0, 0, -.5))],
           ((0, -1, 0), (1, 1, 0), (1, 0, 1)), 1),
        _e("I", 4, (), "D1", [(hm, (0, 0, -.5)), (hp, (0, 0, -.5))],
           ((0, -1, -1), (1, 1, -1), (1, 0, -1)), 1),
        _e("I", 5, (), "D1", reflect=1),
        _e("I", 6, (), "D1", reflect=2),
        _e("I", 7, (), "D1", reflect=3),
        _e("I", 8, (), "D1", reflect=4),
        _e("I", 9, (), "D3", [(t_m, (0, -1, 0)), ("ratio_p", (0, 0, .5))],
           ((0, -1, 0), (0, -1, 1), (0, -2, 0)), 6),
        _e("I", 10, (), "D3", [(t_m, (1, 1, 0)), ("ratio_p", (0, 0, .5))],
           ((1, 1, 1), (1, 1, 0), (2, 2, 0)), 6),
        _e("I", 11, (), "D3", [(t_m, (0, -1, 0)), ("ratio_p", (0, 0, -.5))],
           ((0, -1, 0), (0, -1, -1), (0, -2, 0)), 6),
        _e("I", 12, (), "D3", [(t_m, (1, 1, 0)), ("ratio_p", (0, 0, -.5))],
           ((1, 1, 0), (1, 1, -1), (2, 2, 0)), 6),
        _e("I", 13, (), "D2", reflect=9),
        _e("I", 14, (), "D2", reflect=10),
        _e("I", 15, (), "D2", reflect=11),
        _e("I", 16, (), "D2", reflect=12),
        _e("I", 17, (), "D2", [("ratio_m", (0, 0, .5)), (t_p, (0, -1, 0))],
           ((0, -1, 0), (0, -1, 1), (1, 0, 1)), 3),
        _e("I", 18, (), "D2", [("ratio_m", (0, 0, -.5)), (t_p, (0, -1, 0))],
           ((0, -1, 0), (0, -1, -1), (1, 0, -1)), 3),
        _e("I", 19, (), "D2", [("ratio_m", (0, 0, .5)), (t_p, (1, 1, 0))],
           ((1, 1, 1), (1, 1, 0), (1, 0, 1)), 3),
        _e("I", 20, (), "D2", [("ratio_m", (0, 0, -.5)), (t_p, (1, 1, 0))],
           ((1, 1, 0), (1, 1, -1), (1, 0, -1)), 3),
        _e("I", 21, (), "D3", reflect=17),
        _e("I", 22, (), "D3", reflect=18),
        _e("I", 23, (), "D3", reflect=19),
        _e("I", 24, (), "D3", reflect=20),
    ]

    # ---- arguments in x^2 --------------------------------------------------
    ox2 = "one_minus_x2"
    # (x^2 - 1)^alpha stands for the product (x+1)^alpha (x-1)^alpha, which
    # is what keeps these entries analytic off (-inf, 1].
    entries += [
        _e("II", 1, (), "D1", [(ox2, (0, 0, .5))],
           ((0, -.5, .5), (.5, .5, .5), (.5, 0, 0)), 9),
        _e("II", 2, (), "D1", [("x", (1, 0, 0)), (ox2, (0, 0, .5))],
           ((.5, -.5, .5), (1, .5, .5), (1.5, 0, 0)), 9),
        _e("II", 3, (), "D1", [(ox2, (0, 0, -.5))],
           ((0, -.5, -.5), (.5, .5, -.5), (.5, 0, 0)), 9),
        _e("II", 4, (), "D1", [("x", (1, 0, 0)), (ox2, (0, 0, -.5))],
           ((.5, -.5, -.5), (1, .5, -.5), (1.5, 0, 0)), 9),
        _e("II", 5, (), "D1-offaxis", [(ox2, (0, 0, .5))],
           ((0, -.5, .5), (.5, .5, .5), (1, 0, 1)), 7),
        _e("II", 6, (), "D1-offaxis", [("x", (1, 0, 0)), (ox2, (0, 0, .5))],
           ((.5, -.5, .5), (1, .5, .5), (1, 0, 1)), 7),
        _e("II", 7, (), "D1-offaxis", [(ox2, (0, 0, -.5))],
           ((0, -.5, -.5), (.5, .5, -.5), (1, 0, -1)), 7),
        _e("II", 8, (), "D1-offaxis", [("x", (1, 0, 0)), (ox2, (0, 0, -.5))],
           ((1, .5, -.5), (.5, -.5, -.5), (1, 0, -1)), 7),
        _e("II", 9, (), "D2", [("x", (0, 1, -1)), ("x2m1", (0, 0, .5))],
           ((0, -.5, .5), (.5, -.5, .5), (.5, -1, 0)), 10),
        _e("II", 10, (), "D2", [("x", (-1, -1, -1)), ("x2m1", (0, 0, .5))],
           ((.5, .5, .5), (1, .5, .5), (1.5, 1, 0)), 10),
        _e("II", 11, (), "D2", [("x", (-1, -1, 1)), ("x2m1", (0, 0, -.5))],
           ((.5, .5, -.5), (1, .5, -.5), (1.5, 1, 0)), 10),
        _e("II", 12, (), "D2", [("x", (0, 1, 1)), ("x2m1", (0, 0, -.5))],
           ((0, -.5, -.5), (.5, -.5, -.5), (.5, -1, 0)), 10),
        _e("II", 13, (), "D2", [("x2m1", (0, .5, 0))],
           ((0, -.5, .5), (0, -.5, -.5), (.5, -1, 0)), 8),
        _e("II", 14, (), "D2", [("x2m1", (-.5, -.5, 0))],
           ((.5, .5, .5), (.5, .5, -.5), (1.5, 1, 0)), 8),
        _e("II", 15, (), "D2", [("x", (1, 0, 0)), ("x2m1", (-.5, .5, 0))],
           ((.5, -.5, .5), (.5, -.5, -.5), (.5, -1, 0)), 8),
        _e("II", 16, (), "D2", [("x", (1, 0, 0)), ("x2m1", (-1, -.5, 0))],
           ((1, .5, .5), (1, .5, -.5), (1.5, 1, 0)), 8),
        _e("II", 17, (), "D1", [(ox2, (0, .5, 0))],
           ((0, -.5, .5), (0, -.5, -.5), (.5, 0, 0)), 12),
        _e("II", 18, (), "D1", [(ox2, (-.5, -.5, 0))],
           ((.5, .5, .5), (.5, .5, -.5), (.5, 0, 0)), 12),
        _e("II", 19, (), "D1", [("x", (1, 0, 0)), (ox2, (-.5, .5, 0))],
           ((.5, -.5, .5), (.5, -.5, -.5), (1.5, 0, 0)), 12),
        _e("II", 20, (), "D1", [("x", (1, 0, 0)), (ox2, (-1, -.5, 0))],
           ((1, .5, .5), (1, .5, -.5), (1.5, 0, 0)), 12),
        _e("II", 21, (), "D1+", [("x", (0, 1, -1)), (ox2, (0, 0, .5))],
           ((0, -.5, .5), (.5, -.5, .5), (1, 0, 1)), 11),
        _e("II", 22, (), "D1+", [("x", (-1, -1, -1)), (ox2, (0, 0, .5))],
           ((.5, .5, .5), (1, .5, .5), (1, 0, 1)), 11),
        _e("II", 23, (), "D1+", [("x", (-1, -1, 1)), (ox2, (0, 0, -.5))],
           ((1, .5, -.5), (.5, .5, -.5), (1, 0, -1)), 11),
        _e("II", 24, (), "D1+", [("x", (0, 1, 1)), (ox2, (0, 0, -.5))],
           ((.5, -.5, -.5), (0, -.5, -.5), (1, 0, -1)), 11),
    ]

    # ---- square-root arguments --------------------------------------------
    both = ("Y1", "Y2")
    d_full = {"Y1": "D1", "Y2": "D2"}
    d_plus = {"Y1": "D1+", "Y2": "D2+"}
    entries += [
        _e("III", 1, ("Y1",), {"Y1": "D1"}, [("two_y", (0, 1, 0))],
           ((0, -1, 1), (0, -1, -1), (.5, -1, 0)), "w17"),
        _e("III", 2, ("Y1",), {"Y1": "D1"},
           [("two_y", (-.5, 0, 0)), ("y_minus_x", (.5, 1, 0))],
           ((.5, 0, -1), (.5, 0, 1), (.5, -1, 0)), "w17"),
        _e("III", 3, ("Y1",), {"Y1": "D1"},
           [("two_y", (-.5, 0, 0)), ("y_minus_x", (-.5, -1, 0))],
           ((.5, 0, -1), (.5, 0, 1), (1.5, 1, 0)), "w17"),
        _e("III", 4, ("Y1",), {"Y1": "D1"}, [("two_y", (-1, -1, 0))],
           ((1, 1, -1), (1, 1, 1), (1.5, 1, 0)), "w17"),
        _e("III", 5, both, d_full, [("two_y", (0, 1, 0))],
           ((0, -1, 1), (0, -1, -1), (.5, -1, 0)), "w13"),
        _e("III", 6, both, d_full,
           [("two_y", (-.5, 0, 0)), ("x_plus_y", (.5, 1, 0))],
           ((.5, 0, -1), (.5, 0, 1), (.5, -1, 0)), "w13"),
        _e("III", 7, both, d_full,
           [("two_y", (-.5, 0, 0)), ("x_plus_y", (-.5, -1, 0))],
           ((.5, 0, -1), (.5, 0, 1), (1.5, 1, 0)), "w13"),
        _e("III", 8, both, d_full, [("two_y", (-1, -1, 0))],
           ((1, 1, -1), (1, 1, 1), (1.5, 1, 0)), "w13"),
        _e("III", 9, both, d_plus,
           [("two_y", (0, 0, 1)), ("x_plus_y", (0, 1, -1))],
           ((0, -1, 1), (.5, 0, 1), (1, 0, 2)), "w15"),
        _e("III", 10, both, d_plus,
           [("two_y", (0, 0, -1)), ("x_plus_y", (0, 1, 1))],
           ((0, -1, -1), (.5, 0, -1), (1, 0, -2)), "w15"),
        _e("III", 11, both, d_plus,
           [("two_y", (0, 0, -1)), ("x_plus_y", (-1, -1, 1))],
           ((1, 1, -1), (.5, 0, -1), (1, 0, -2)), "w15"),
        _e("III", 12, both, d_plus,
           [("two_y", (0, 0, 1)), ("x_plus_y", (-1, -1, -1))],
           ((1, 1, 1), (.5, 0, 1), (1, 0, 2)), "w15"),
        _e("III", 13, both, d_plus,
           [("two_y", (0, 0, 1)), ("x_minus_y", (0, 1, -1))],
           ((0, -1, 1), (.5, 0, 1), (1, 0, 2)), "w16"),
        _e("III", 14, both, d_plus,
           [("two_y", (0, 0, -1)), ("x_minus_y", (0, 1, 1))],
           ((0, -1, -1), (.5, 0, -1), (1, 0, -2)), "w16"),
        _e("III", 15, both, d_plus,
           [("two_y", (0, 0, -1)), ("x_minus_y", (-1, -1, 1))],
           ((1, 1, -1), (.5, 0, -1), (1, 0, -2)), "w16"),
        _e("III", 16, both, d_plus,
           [("two_y", (0, 0, 1)), ("x_minus_y", (-1, -1, -1))],
           ((1, 1, 1), (.5, 0, 1), (1, 0, 2)), "w16"),
        _e("III", 17, ("Y1",), {"Y1": "D1"},
           [("two_y", (0, 0, 1)), ("y_minus_x", (0, 1, -1))],
           ((0, -1, 1), (.5, 0, 1), (.5, -1, 0)), "w18"),
        _e("III", 18, ("Y1",), {"Y1": "D1"},
           [("two_y", (0, 0, -1)), ("y_minus_x", (0, 1, 1))],
           ((0, -1, -1), (.5, 0, -1), (.5, -1, 0)), "w18"),
        _e("III", 19, ("Y1",), {"Y1": "D1"},
           [("two_y", (0, 0, 1)), ("y_minus_x", (-1, -1, -1))],
           ((.5, 0, 1), (1, 1, 1), (1.5, 1, 0)), "w18"),
        _e("III", 20, ("Y1",), {"Y1": "D1"},
           [("two_y", (0, 0, -1)), ("y_minus_x", (-1, -1, 1))],
           ((.5, 0, -1), (1, 1, -1), (1.5, 1, 0)), "w18"),
        _e("III", 21, both, d_full,
           [("two_y", (0, 0, 1)), ("x_plus_y", (0, 1, -1))],
           ((0, -1, 1), (.5, 0, 1), (.5, -1, 0)), "w14"),
        _e("III", 22, both, d_full,
           [("two_y", (0, 0, -1)), ("x_plus_y", (0, 1, 1))],
           ((0, -1, -1), (.5, 0, -1), (.5, -1, 0)), "w14"),
        _e("III", 23, both, d_full,
           [("two_y", (0, 0, 1)), ("x_plus_y", (-1, -1, -1))],
           ((.5, 0, 1), (1, 1, 1), (1.5, 1, 0)), "w14"),
        _e("III", 24, both, d_full,
           [("two_y", (0, 0, -1)), ("x_plus_y", (-1, -1, 1))],
           ((.5, 0, -1), (1, 1, -1), (1.5, 1, 0)), "w14"),
    ]
    return {(e.group, e.index): e for e in entries}


_CATALOGUE = _build_catalogue()


def _record(e: CatalogueEntry) -> _RepSpec:
    """Entry e, which has a series, as a one-term record: its prefactor
    powers (``_PRODUCTS`` expanded), (a, b, c) and map j ("w13" is 13)."""
    powers = tuple((b, a) for tag, a in e.prefactors for b in _PRODUCTS.get(tag, (tag,)))
    j = int(e.argument[1:]) if e.roots else e.argument
    return _RepSpec(None, (), (j,), (_Term(e.hyp, Coefficient(powers=powers)),))


#: The record of each entry that has a series, built once.
_RECORDS = {key: _record(e) for key, e in _CATALOGUE.items() if e.hyp is not None}


def catalogue() -> tuple[CatalogueEntry, ...]:
    return tuple(_CATALOGUE.values())


def entry(group: str, index: int) -> CatalogueEntry:
    try:
        return _CATALOGUE[(group, index)]
    except KeyError:
        raise KeyError(f"no catalogue entry {group}.{index}") from None


ALL_IDS: tuple[OlbrichtId, ...] = tuple(
    OlbrichtId(e.group, e.index, RootVariant(r) if e.roots else None)
    for e in _CATALOGUE.values()
    for r in (e.roots or (None,))
)


def _entry_domain(e: CatalogueEntry, root: RootVariant | None) -> str:
    if isinstance(e.domain, dict) and root is None:
        raise ParameterError(f"entry {e.group}.{e.index} needs a root variant")
    return e.domain[root.value] if isinstance(e.domain, dict) else e.domain


class _Variant(NamedTuple):
    """What a variant's value needs that depends on its id alone."""
    tag: str              # the domain tag
    dom: DomainId
    offaxis: bool         # D1-offaxis: D1 without the imaginary axis
    flip: bool            # evaluated at -x: an odd number of reflections
    root: RootVariant | None
    record: _RepSpec      # of the entry the reflections lead to
    label: str            # that entry's, with the variant's root, for errors


def _variant(oid: OlbrichtId) -> _Variant:
    """oid resolved: its root checked (``ParameterError``), its domain and
    its reflections followed to the entry that has a series."""
    e = entry(oid.group, oid.index)
    if (oid.root and oid.root.value) not in (e.roots or (None,)):
        raise ParameterError(f"entry {e.group}.{e.index} admits roots {e.roots}; got {oid.root}")
    tag, flip = _entry_domain(e, oid.root), False
    while e.reflect_of is not None:
        e, flip = entry(e.group, e.reflect_of), not flip
    return _Variant(tag, DomainId(tag.removesuffix("-offaxis")), tag == "D1-offaxis", flip,
                    oid.root, _RECORDS[e.group, e.index],
                    f"entry {OlbrichtId(e.group, e.index, oid.root).label()}")


#: Every variant resolved, once.
_VARIANTS = {oid: _variant(oid) for oid in ALL_IDS}


def eval_olbricht(oid: OlbrichtId, p: ParamPair, x: complex,
                  tol: float = DEFAULT_TOL) -> complex:
    """Evaluate one catalogue entry, prefactor powers times the 2F1 factor:
    x tested against the variant's domain and reflected as its entry is, then
    the record (``_VARIANTS``) at x and root y = ``root_y(root, x)`` through
    ``ferrers._evaluate``; beyond double range, ``DomainError``."""
    v = _VARIANTS.get(oid) or _variant(oid)
    x = to_complex(x)
    if not in_domain(v.dom, x) or v.offaxis and x.real == 0.0:
        raise DomainError(f"x = {x} outside domain {v.tag} of entry {oid.label()}")
    if v.flip:
        x = -x
    y = root_y(v.root, x) if v.root else None
    return _guarded(v.label, _evaluate, v.record, p, x, y, tol, None).value


# ---------------------------------------------------------------------------
# Identity records
# ---------------------------------------------------------------------------

class Reduction(NamedTuple):
    """Closed-form reduction of a catalogue entry, interpreted as

        scale * sum_k sign_k * target(degree, order; +-x)

    where scale is a coefficient record (gamma numerators, a power of 2, a
    constant and a phase e^(i pi a)), every exponent and parameter affine in
    (nu, mu).

    ``monodromy`` holds the rgamma argument c of the root-Y1 forms whose
    equality with the Y2 form holds only in the upper half-plane: crossing to
    the lower half-plane picks up a first-kind term from the monodromy of the
    normalized second-kind function around z = 1, so there the sum T becomes
    e^(-i pi mu) T - i pi rgamma(c) LegendreP(nu, -mu; x).
    """

    target: Callable[[ParamPair, complex, float], EvalOutcome]
    degree: Affine
    order: Affine
    scale: Coefficient
    #: (sign, evaluate at -x) per summand
    terms: tuple[tuple[int, bool], ...] = ((1, False),)
    monodromy: Affine | None = None

    def __call__(self, p: ParamPair, x: complex, tol: float) -> complex:
        nu, mu, kept = p.nu, p.mu, p._memo
        q, mono = kept.get(self) or kept.setdefault(self, (
            ParamPair(_aff(self.degree, nu, mu), _aff(self.order, nu, mu)),
            None if self.monodromy is None else ParamPair(nu, -mu)))
        value = sum(sign * self.target(q, -x if reflect else x, tol).value
                    for sign, reflect in self.terms)
        if mono is not None and complex(x).imag <= 0:
            pv = legendre_p(mono, x, tol).value
            value = (cmath.exp(-1j * math.pi * mu) * value
                     - 1j * math.pi * rgamma(_aff(self.monodromy, nu, mu)) * pv)
        try:
            part = kept.get(self.scale) or kept.setdefault(
                self.scale, (_coefficient(self.scale, nu, mu, 1),))
            scale = _coefficients_at(part, [t for t, _ in self.scale.powers], x, None, 1)[0]
        except (ArithmeticError, ValueError) as exc:  # ValueError: a cmath domain error
            raise DomainError(f"reduction scale: beyond double range ({exc})") from None
        return scale * value


class IdentityRecord(NamedTuple):
    """What one catalogue variant is verified against: a closed-form
    reduction record, or another entry of the same group."""

    description: str
    #: closed-form reduction, or None when the record is entry-equality
    reduction: Reduction | None = None
    #: (group, index, reflect) target for equality records
    equals: tuple[str, int, bool] | None = None


def _identity_table() -> dict[tuple[str, int, str | None], IdentityRecord]:
    t: dict[tuple[str, int, str | None], IdentityRecord] = {}

    def named(g, i, root, desc, target, degree, order, gammas, two=None, const=1.0,
              phase=None, **fields):
        # scale = const * prod Gamma(gammas) * 2^two * e^(i pi phase); a
        # power 4^a of a description is given as two = 2a
        scale = Coefficient(const, gammas=gammas, powers=(("2", two),) if two else (),
                            phase=phase)
        t[(g, i, root)] = IdentityRecord(
            desc, reduction=Reduction(target, degree, order, scale, **fields))

    def dup(g, i, root, j, desc, reflect=False):
        t[(g, i, root)] = IdentityRecord(desc, equals=(g, j, reflect))

    fp, lp, qb = ferrers_p, legendre_p, legendre_q_bold
    nu, mu, neg_mu = (0, 1, 0), (0, 0, 1), (0, 0, -1)
    at_minus_x = ((1, True),)
    # Gamma(1+mu) F(nu, -mu) and Gamma(1-mu) F(nu, mu)
    up = dict(degree=nu, order=neg_mu, gammas=((1, 0, 1),))
    down = dict(degree=nu, order=mu, gammas=((1, 0, -1),))
    # Gamma(1/2-nu) QBold(-nu-1, mu) / sqrt(pi) and Gamma(nu+3/2) QBold(nu, mu) / sqrt(pi)
    q_low = dict(degree=(-1, -1, 0), order=mu, gammas=((.5, -1, 0),), const=1.0 / _SQRT_PI)
    q_high = dict(degree=nu, order=mu, gammas=((1.5, 1, 0),), const=1.0 / _SQRT_PI)

    named("I", 1, None, "Gamma(1+mu) * FerrersP(nu, -mu; x)", fp, **up)
    named("I", 2, None, "Gamma(1-mu) * FerrersP(nu, mu; x)", fp, **down)
    dup("I", 3, None, 1, "equal to I.1 (Euler transformation)")
    dup("I", 4, None, 2, "equal to I.2 (Euler transformation)")
    named("I", 5, None, "Gamma(1+mu) * FerrersP(nu, -mu; -x)", fp, **up, terms=at_minus_x)
    named("I", 6, None, "Gamma(1-mu) * FerrersP(nu, mu; -x)", fp, **down, terms=at_minus_x)
    dup("I", 7, None, 5, "equal to I.5 (Euler transformation)")
    dup("I", 8, None, 6, "equal to I.6 (Euler transformation)")
    named("I", 9, None, "4^-nu Gamma(1/2-nu) QBold(-nu-1, mu; -x) / sqrt(pi)", qb, **q_low,
          two=(0, -2, 0), terms=at_minus_x)
    named("I", 10, None, "4^(nu+1) Gamma(nu+3/2) QBold(nu, mu; -x) / sqrt(pi)", qb, **q_high,
          two=(2, 2, 0), terms=at_minus_x)
    dup("I", 11, None, 9, "equal to I.9 (mu -> -mu symmetry)")
    dup("I", 12, None, 10, "equal to I.10 (mu -> -mu symmetry)")
    named("I", 13, None, "4^-nu Gamma(1/2-nu) QBold(-nu-1, mu; x) / sqrt(pi)", qb, **q_low,
          two=(0, -2, 0))
    named("I", 14, None, "4^(nu+1) Gamma(nu+3/2) QBold(nu, mu; x) / sqrt(pi)", qb, **q_high,
          two=(2, 2, 0))
    dup("I", 15, None, 13, "equal to I.13 (mu -> -mu symmetry)")
    dup("I", 16, None, 14, "equal to I.14 (mu -> -mu symmetry)")
    named("I", 17, None, "Gamma(1+mu) * LegendreP(nu, -mu; x)", lp, **up)
    named("I", 18, None, "Gamma(1-mu) * LegendreP(nu, mu; x)", lp, **down)
    dup("I", 19, None, 17, "equal to I.17 (Euler transformation)")
    dup("I", 20, None, 18, "equal to I.18 (Euler transformation)")
    named("I", 21, None, "Gamma(1+mu) * LegendreP(nu, -mu; -x)", lp, **up, terms=at_minus_x)
    named("I", 22, None, "Gamma(1-mu) * LegendreP(nu, mu; -x)", lp, **down, terms=at_minus_x)
    dup("I", 23, None, 21, "equal to I.21 (Euler transformation)")
    dup("I", 24, None, 22, "equal to I.22 (Euler transformation)")

    named("II", 1, None,
          "even solution: c * (FerrersP(x) + FerrersP(-x)), y(0)=1, y'(0)=0", fp,
          degree=nu, order=mu, gammas=((1, .5, -.5), (.5, -.5, -.5)),
          two=(-1, 0, -1), const=1.0 / _SQRT_PI, terms=((1, False), (1, True)))
    named("II", 2, None,
          "odd solution: c * (FerrersP(-x) - FerrersP(x)), y(0)=0, y'(0)=1", fp,
          degree=nu, order=mu, gammas=((.5, .5, -.5), (0, -.5, -.5)),
          two=(-2, 0, -1), const=1.0 / _SQRT_PI, terms=((1, True), (-1, False)))
    dup("II", 3, None, 1, "equal to II.1 (Euler transformation)")
    dup("II", 4, None, 2, "equal to II.2 (Euler transformation)")
    named("II", 5, None, "2^mu Gamma(1+mu) FerrersP(nu, -mu; x) on Re x > 0", fp, **up,
          two=mu)
    dup("II", 6, None, 5, "equal to II.5 on Re x > 0 (Euler transformation)")
    named("II", 7, None, "2^-mu Gamma(1-mu) FerrersP(nu, mu; x) on Re x > 0", fp, **down,
          two=neg_mu)
    dup("II", 8, None, 7, "equal to II.7 on Re x > 0 (Euler transformation)")
    named("II", 9, None, "2^-nu Gamma(1/2-nu) QBold(-nu-1, mu; x) / sqrt(pi)", qb, **q_low,
          two=(0, -1, 0))
    named("II", 10, None, "2^(nu+1) Gamma(nu+3/2) QBold(nu, mu; x) / sqrt(pi)", qb, **q_high,
          two=(1, 1, 0))
    dup("II", 11, None, 10, "equal to II.10 (mu -> -mu symmetry)")
    dup("II", 12, None, 9, "equal to II.9 (mu -> -mu symmetry)")
    dup("II", 13, None, 9, "equal to II.9 (Pfaff transformation)")
    dup("II", 14, None, 10, "equal to II.10 (Pfaff transformation)")
    dup("II", 15, None, 12, "equal to II.12 (Pfaff transformation)")
    dup("II", 16, None, 11, "equal to II.11 (Pfaff transformation)")
    dup("II", 17, None, 1, "equal to II.1 (Pfaff transformation)")
    dup("II", 18, None, 3, "equal to II.3 (Pfaff transformation)")
    dup("II", 19, None, 2, "equal to II.2 (Pfaff transformation)")
    dup("II", 20, None, 4, "equal to II.4 (Pfaff transformation)")
    dup("II", 21, None, 5, "equal to II.5 (Pfaff transformation)")
    dup("II", 22, None, 6, "equal to II.6 (Pfaff transformation)")
    dup("II", 23, None, 7, "equal to II.7 (Pfaff transformation)")
    dup("II", 24, None, 8, "equal to II.8 (Pfaff transformation)")

    dup("III", 1, "Y1", 5, "equal to III.5 (Y1) at -x", reflect=True)
    dup("III", 2, "Y1", 1, "equal to III.1 (Euler transformation)")
    dup("III", 3, "Y1", 7, "equal to III.7 (Y1) at -x", reflect=True)
    dup("III", 4, "Y1", 3, "equal to III.3 (Euler transformation)")
    named("III", 5, "Y1",
          "Gamma(1/2-nu) QBold(-nu-1, mu; x) / sqrt(pi) for Im x > 0; "
          "two-term monodromy-corrected form for Im x < 0", qb, **q_low,
          monodromy=(0, -1, -1))
    named("III", 5, "Y2", "Gamma(1/2-nu) QBold(-nu-1, mu; x) / sqrt(pi)", qb, **q_low)
    dup("III", 6, "Y1", 5, "equal to III.5 (Euler transformation)")
    dup("III", 6, "Y2", 5, "equal to III.5 (Euler transformation)")
    named("III", 7, "Y1",
          "Gamma(nu+3/2) QBold(nu, mu; x) / sqrt(pi) for Im x > 0; "
          "two-term monodromy-corrected form for Im x < 0", qb, **q_high,
          monodromy=(1, 1, -1))
    named("III", 7, "Y2", "Gamma(nu+3/2) QBold(nu, mu; x) / sqrt(pi)", qb, **q_high)
    dup("III", 8, "Y1", 7, "equal to III.7 (Euler transformation)")
    dup("III", 8, "Y2", 7, "equal to III.7 (Euler transformation)")
    named("III", 9, "Y1",
          "e^(i pi mu/2) 4^mu Gamma(1+mu) FerrersP(nu, -mu; x) on D1+", fp, **up,
          two=(0, 0, 2), phase=(0, 0, .5))
    named("III", 9, "Y2", "4^mu Gamma(1+mu) LegendreP(nu, -mu; x) on D2+", lp, **up,
          two=(0, 0, 2))
    named("III", 10, "Y1",
          "e^(-i pi mu/2) 4^-mu Gamma(1-mu) FerrersP(nu, mu; x) on D1+", fp, **down,
          two=(0, 0, -2), phase=(0, 0, -.5))
    named("III", 10, "Y2", "4^-mu Gamma(1-mu) LegendreP(nu, mu; x) on D2+", lp, **down,
          two=(0, 0, -2))
    for root in ("Y1", "Y2"):
        dup("III", 11, root, 10, "equal to III.10 (Euler transformation)")
        dup("III", 12, root, 9, "equal to III.9 (Euler transformation)")
        dup("III", 13, root, 9, "equal to III.9 (Pfaff transformation)")
        dup("III", 14, root, 10, "equal to III.10 (Pfaff transformation)")
        dup("III", 15, root, 11, "equal to III.11 (Pfaff transformation)")
        dup("III", 16, root, 12, "equal to III.12 (Pfaff transformation)")
        dup("III", 21, root, 5, "equal to III.5 (Pfaff transformation)")
        dup("III", 22, root, 6, "equal to III.6 (Pfaff transformation)")
        dup("III", 23, root, 7, "equal to III.7 (Pfaff transformation)")
        dup("III", 24, root, 8, "equal to III.8 (Pfaff transformation)")
    for i in range(17, 21):
        dup("III", i, "Y1", i - 16, f"equal to III.{i - 16} (Pfaff transformation)")
    return t


_IDENTITIES = _identity_table()


class IdentityOutcome(NamedTuple):
    x: complex
    residual: float
    error: str | None = None


class IdentityReport(NamedTuple):
    id: OlbrichtId
    description: str
    outcomes: tuple[IdentityOutcome, ...]

    @property
    def max_residual(self) -> float:
        vals = [o.residual for o in self.outcomes if o.error is None]
        if len(vals) < len(self.outcomes) or not vals:
            return math.inf
        return max(vals)


def identity_record(oid: OlbrichtId) -> IdentityRecord:
    key = (oid.group, oid.index, oid.root.value if oid.root else None)
    return _IDENTITIES[key]


class CatalogueCheck(NamedTuple):
    """A variant's identity report, largest ``ode_residual`` and last ODE error."""
    identity: IdentityReport
    ode_residual_max: float
    ode_error: str | None


def _value(values: dict, oid: OlbrichtId, p: ParamPair, x: complex, tol: float) -> complex:
    """``eval_olbricht(oid, p, x, tol)``, kept in ``values``, which serves
    one pair, by oid, x, the signs of x's parts (-x of a real sample is
    ...-0j) and tol.  A value that raises is not kept."""
    key = (oid, x, math.copysign(1.0, x.real), math.copysign(1.0, x.imag), tol)
    v = values.get(key)
    if v is None:
        v = values[key] = eval_olbricht(oid, p, x, tol)
    return v


def verify_identity(oid: OlbrichtId, p: ParamPair, x_samples,
                    tol: float = DEFAULT_TOL, values: dict | None = None) -> IdentityReport:
    """Relative residual between the entry and its recorded identity at each
    sample.  Failures are reported in the outcome list, never raised.  Entry
    values are kept in ``values`` (None: a dict for this call), which
    serves p alone."""
    values = {} if values is None else values
    rec = identity_record(oid)
    if rec.reduction is None:
        g, j, reflect = rec.equals
        rhs = OlbrichtId(g, j, oid.root)
    outcomes = []
    for x in x_samples:
        x = to_complex(x)
        try:
            a = _value(values, oid, p, x, tol)
            b = (rec.reduction(p, x, tol) if rec.reduction is not None
                 else _value(values, rhs, p, -x if reflect else x, tol))
            denom = abs(a) + abs(b)
            res = abs(a - b) / denom if denom else 0.0
            outcomes.append(IdentityOutcome(x, res))
        except FerroxError as exc:
            outcomes.append(IdentityOutcome(x, math.inf, f"{type(exc).__name__}: {exc}"))
    return IdentityReport(oid, rec.description, tuple(outcomes))


def ode_residual(oid: OlbrichtId, p: ParamPair, x: complex,
                 h: float = 1e-4) -> float:
    """Five-point finite-difference residual of the associated Legendre
    equation for this entry, normalized by the local term scale.

    The stencil divides by h^2, so the entry is evaluated well below the
    default tolerance to keep truncation wobble out of the residual.
    """
    x = to_complex(x)
    if min(abs(x - 1.0), abs(x + 1.0)) <= 0.01:
        raise DomainError(f"sample {x} too close to the singular points +-1")
    return legendre_ode_residual(lambda z: eval_olbricht(oid, p, z, 1e-14), p.nu, p.mu, x, h)


def verify_catalogue(p: ParamPair, ids=ALL_IDS, tol: float = DEFAULT_TOL,
                     samples: int | None = None) -> list[CatalogueCheck]:
    """Per id, ``verify_identity`` at the first ``samples`` (all when None)
    of its ``default_samples`` and ``ode_residual`` at its ``ode_samples``.
    The identity checks share one dict of entry values, kept for this run
    only, so a value that an equality record reads again is evaluated once."""
    values = {}
    out = []
    for oid in ids:
        report = verify_identity(oid, p, default_samples(oid)[:samples], tol, values)
        ode_max, ode_err = 0.0, None
        for x in ode_samples(oid):
            try:
                ode_max = max(ode_max, ode_residual(oid, p, x))
            except FerroxError as exc:
                ode_err = str(exc)
        out.append(CatalogueCheck(report, ode_max, ode_err))
    return out


_D1_SAMPLES = (0.37, -0.42, 0.18 + 0.31j, -0.25 - 0.33j, 0.52 + 0.17j)
_D1_OFFAXIS = (0.37, 0.52 + 0.17j, 0.44 - 0.28j, 0.61, 0.23 + 0.41j)
_D1_COMPLEX = (0.18 + 0.31j, -0.25 - 0.33j, 0.52 + 0.17j, -0.4 + 0.6j, 0.3 - 0.5j)
_D2_SAMPLES = (1.9, 2.6 + 0.8j, 1.4 - 1.1j, 3.2, 0.8 + 1.5j)
_D2P_SAMPLES = (1.9, 2.6 + 0.8j, 1.4 - 1.1j, 3.2, 0.9 + 1.2j)
_D3_SAMPLES = tuple(-z for z in _D2_SAMPLES)


def default_samples(oid: OlbrichtId) -> tuple[complex, ...]:
    """Five domain-appropriate sample points for identity checks."""
    e = entry(oid.group, oid.index)
    dom = _entry_domain(e, oid.root)
    if oid.group == "III" and oid.root is RootVariant.Y1 and oid.index not in range(9, 17):
        # The named reductions of this family split by half-plane, so keep
        # the samples off the real axis.
        return _D1_COMPLEX
    return {
        "D1": _D1_SAMPLES,
        "D1+": _D1_OFFAXIS,
        "D1-offaxis": _D1_OFFAXIS,
        "D2": _D2_SAMPLES,
        "D2+": _D2P_SAMPLES,
        "D3": _D3_SAMPLES,
    }[dom]


def ode_samples(oid: OlbrichtId) -> tuple[complex, ...]:
    """Three interior sample points for the differential-equation check."""
    return default_samples(oid)[:3]


def catalogue_records() -> list[dict]:
    """Machine-readable dump of the catalogue (used by the CLI)."""
    out = []
    for oid in ALL_IDS:
        e = entry(oid.group, oid.index)
        out.append({
            "group": e.group,
            "index": e.index,
            "root": oid.root.value if oid.root else None,
            "domain": _entry_domain(e, oid.root),
            "reflected_of": e.reflect_of,
            "prefactors": [
                {"base": tag, "exponent": list(expo)} for tag, expo in e.prefactors
            ],
            "hyp_params": [list(t) for t in e.hyp] if e.hyp else None,
            "argument": e.argument,
            "identity": identity_record(oid).description,
        })
    return out
