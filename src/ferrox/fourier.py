"""Single-sum cosine expansion of the second-kind Ferrers function at
x = cos(theta), and its convergence trichotomy in the order mu.

The k-th term is

    sqrt(pi) 2^mu (sin theta)^mu
        * Gamma(nu+mu+k+1) / Gamma(nu+k+3/2)
        * (mu+1/2)_k / k!
        * cos((nu + mu + 2k + 1) theta).

The coefficient magnitudes behave like k^{2 Re mu - 1} / |Gamma(mu + 1/2)|,
so the sum converges absolutely for Re mu < 0, conditionally (but not
absolutely away from theta = pi/2) for 0 <= Re mu < 1/2, and diverges for
Re mu >= 1/2 away from theta = pi/2.  Partial sums are plain: no
acceleration is applied, so the observed behaviour is the real one.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from enum import Enum
from typing import NamedTuple

from .complexmath import gamma_quotient, near_int, principal_pow
from .errors import DomainError, ParameterError

__all__ = [
    "ConvergenceClass",
    "ConvergenceReport",
    "FourierTermStream",
    "LemmaReport",
    "convergence_class",
    "fourier_coefficient",
    "fourier_partial_sum",
    "fourier_term",
    "lemma_checks",
]

_SQRT_PI = math.sqrt(math.pi)


class FourierTermStream(namedtuple("FourierTermStream", "nu mu theta")):
    """Parameters of one expansion: complex degree nu and order mu, float
    angle theta; checked on construction."""

    __slots__ = ()

    def __new__(cls, nu: complex, mu: complex, theta: float):
        nu, mu, theta = complex(nu), complex(mu), float(theta)
        if not 0.0 < theta < math.pi:
            raise DomainError(f"theta must lie in (0, pi); got {theta}")
        if near_int(nu + mu) and round((nu + mu).real) <= -1:
            raise ParameterError(f"expansion undefined for nu + mu = {nu + mu} in -N")
        return super().__new__(cls, nu, mu, theta)


class ConvergenceClass(Enum):
    ABSOLUTE = "Absolute"
    CONDITIONAL = "Conditional"
    DIVERGENT = "Divergent"
    UNCLASSIFIED = "Unclassified"


class ConvergenceReport(NamedTuple):
    kind: ConvergenceClass
    #: True when theta = pi/2 exempts the series from the non-absolute /
    #: divergence statements that hold elsewhere.
    absolute_at_half_pi: bool = False
    note: str | None = None


def fourier_coefficient(nu: complex, mu: complex, k: int) -> complex:
    """Gamma(nu+mu+k+1)/Gamma(nu+k+3/2) * (mu+1/2)_k / k!  (no angle factor)."""
    if k < 0:
        raise ValueError("term index must be nonnegative")
    coeff = gamma_quotient((nu + mu + 1.0,), (nu + 1.5,))
    for j in range(k):
        coeff *= (nu + mu + 1.0 + j) / (nu + 1.5 + j) * (mu + 0.5 + j) / (j + 1.0)
    return coeff


def _prefactor(s: FourierTermStream) -> complex:
    return (_SQRT_PI * principal_pow(2.0, s.mu)
            * principal_pow(math.sin(s.theta), s.mu))


def fourier_term(s: FourierTermStream, k: int) -> complex:
    """The k-th term of the expansion, angle factor included."""
    return (_prefactor(s) * fourier_coefficient(s.nu, s.mu, k)
            * cmath.cos((s.nu + s.mu + 2.0 * k + 1.0) * s.theta))


def fourier_partial_sum(s: FourierTermStream, n_terms: int) -> complex:
    """Plain partial sum of terms 0 .. n_terms - 1."""
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    nu, mu, theta = s.nu, s.mu, s.theta
    # The loop's left operands, formed once: each sum rounds as written out.
    numu, half_mu = nu + mu, mu + 0.5
    numu1, nu_3half = numu + 1.0, nu + 1.5
    coeff = gamma_quotient((numu1,), (nu_3half,))
    total = 0.0 + 0.0j
    for k in range(n_terms):
        total += coeff * cmath.cos((numu + 2.0 * k + 1.0) * theta)
        coeff *= (numu1 + k) / (nu_3half + k) * (half_mu + k) / (k + 1.0)
    return _prefactor(s) * total


def convergence_class(mu: complex, theta: float) -> ConvergenceReport:
    """Convergence class of the expansion as a function of Re mu and theta.

    Absolute for Re mu < 0; convergent but not absolutely (away from
    theta = pi/2) for 0 <= Re mu < 1/2; divergent for Re mu >= 1/2 and
    theta != pi/2.  At theta = pi/2 with Re mu >= 1/2 no statement is
    available, which is reported as UNCLASSIFIED.
    """
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta must lie in (0, pi); got {theta}")
    re_mu = complex(mu).real
    at_half_pi = math.isclose(theta, math.pi / 2.0, rel_tol=0.0, abs_tol=1e-15)
    if re_mu < 0.0:
        return ConvergenceReport(ConvergenceClass.ABSOLUTE)
    if re_mu < 0.5:
        return ConvergenceReport(ConvergenceClass.CONDITIONAL,
                                 absolute_at_half_pi=at_half_pi)
    if at_half_pi:
        return ConvergenceReport(ConvergenceClass.UNCLASSIFIED,
                                 note="no statement at theta = pi/2 for Re mu >= 1/2")
    return ConvergenceReport(ConvergenceClass.DIVERGENT)


class LemmaReport(NamedTuple):
    """Empirical witnesses for the two trigonometric-sum facts behind the
    trichotomy."""

    harmonic_cos_sum: float       # sum_{k<=n} |cos(a + 2 k theta)| / k
    harmonic_threshold: float     # 0.2 * ln(n): the divergence floor
    harmonic_diverges: bool
    harmonic_degenerate: bool     # identically zero (cos a = 0, theta = pi/2)
    window_min_of_max: float      # min over windows of max |cos(a + b n)|
    window_floor: float
    window_stays_positive: bool


def lemma_checks(a: complex, b: complex, theta: float, n_max: int,
                 window: int = 5) -> LemmaReport:
    """Witness that sum |cos(a + 2 k theta)| / k grows like log n away from
    the degenerate case (cos a = 0 with theta = pi/2), and that |cos(a + b n)|
    cannot tend to 0 when sin b != 0."""
    if n_max < 100:
        raise ValueError("n_max must be at least 100")
    a = complex(a)
    b = complex(b)
    total = 0.0
    for k in range(1, n_max + 1):
        total += abs(cmath.cos(a + 2.0 * k * theta)) / k
    threshold = 0.2 * math.log(n_max)
    degenerate = (abs(cmath.cos(a)) < 1e-14
                  and math.isclose(theta, math.pi / 2.0, rel_tol=0.0, abs_tol=1e-15))

    floor = 0.4
    worst = math.inf
    vals = [abs(cmath.cos(a + b * n)) for n in range(n_max - 200, n_max + 1)]
    for i in range(len(vals) - window):
        worst = min(worst, max(vals[i:i + window]))
    stays_positive = abs(cmath.sin(b)) > 1e-14 and worst >= floor
    return LemmaReport(
        harmonic_cos_sum=total,
        harmonic_threshold=threshold,
        harmonic_diverges=total > threshold,
        harmonic_degenerate=degenerate,
        window_min_of_max=worst,
        window_floor=floor,
        window_stays_positive=stays_positive,
    )
