"""Complex gamma-family functions, sin and cos of pi z, principal powers,
and the two square-root conventions used by the Legendre/Ferrers machinery.

Everything here is a pure function of scalars.  The principal branch
(argument in (-pi, pi]) is used throughout; ``ln_gamma`` is the analytic
continuation from the positive real axis, continuous on the plane cut along
(-inf, 0].

Every near-integer rule lives here: ``ln_gamma`` and ``sinpi``/``cospi``
work at the exact distance to the nearest integer (or half-integer), so
Gamma, 1/Gamma and sin/cos(pi z) stay accurate right up to their poles and
zeros, and ``log_gamma_quotient`` holds the 1e-12 denominator-pole rule.

The one shared state is the ``ln_gamma`` memo: a bounded, thread-safe
``functools.lru_cache`` of the 256 most recent arguments.  The
connection formulas of one evaluation point share most of their gamma
arguments, so the memo saves most of the gamma work there.  A cached value
is the value the function computes, so no result depends on what the memo
holds.
"""

from __future__ import annotations

import cmath
import functools
import math
from enum import Enum

from .errors import BranchCutError, DomainError, ParameterError, PoleError, SingularPointError

__all__ = [
    "RootVariant",
    "cospi",
    "gamma",
    "gamma_quotient",
    "ln_gamma",
    "log_gamma_quotient",
    "near_int",
    "nonpos_index",
    "pochhammer",
    "principal_pow",
    "rgamma",
    "root_y",
    "sinpi",
    "to_complex",
]

# Rational-approximation weights for the shifted gamma sum, g = 607/128.
# Accurate to ~1e-15 relative for Re z >= 0.5 in double precision.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

#: (coefficient, offset) pairs of the shifted sum: _LANCZOS_C[k] / (z + k - 1).
_LANCZOS_TERMS = tuple((c, float(k - 1)) for k, c in enumerate(_LANCZOS_C) if k)

_LN_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)
_LN_HALF_I = complex(math.log(0.5), 0.5 * math.pi)

#: Entries kept by the ``ln_gamma`` memo.  One evaluation point of every
#: valid representation uses about 30 distinct gamma arguments, a sweep of
#: ``ferrers_q`` over x at fixed (nu, mu) a handful per parameter pair.
_LN_GAMMA_MEMO_SIZE = 256

#: Default tolerance for "is effectively an integer" predicates, such as the
#: parameter exclusions of the representations (see ``ferrers.ParamPair``).
NEAR_INT_TOL = 1e-9


def to_complex(z) -> complex:
    """``complex(z)``, but a number beyond double range (a large integer)
    becomes the infinity of its sign, for the caller's non-finite check."""
    try:
        return complex(z)
    except OverflowError:
        return complex(math.inf if z > 0 else -math.inf)


def near_int(z: complex, tol: float = NEAR_INT_TOL) -> bool:
    """True when ``z`` lies within ``tol`` of a (real) integer; False for a
    non-finite ``z``, which no integer is near."""
    z = complex(z)
    return (abs(z.imag) <= tol and math.isfinite(z.real)
            and abs(z.real - round(z.real)) <= tol)


def nonpos_index(z: complex, tol: float = 0.0) -> int | None:
    """m when ``z`` lies within ``tol`` of -m, m = 0, 1, 2, ... (exactly -m
    for the default tol 0); else None."""
    if abs(z.imag) <= tol:
        n = round(z.real)
        if n <= 0 and abs(z.real - n) <= tol:
            return -n
    return None


#: sin(pi (k/2 + d)) for k mod 4 = 0, 1, 2, 3: (function of pi d, sign).
#: ``sinpi`` and ``cospi`` take d = z - k/2 exactly, k/2 the half-integer
#: nearest z, so they keep their relative accuracy next to their zeros.
_QUADRANTS = ((cmath.sin, 1.0), (cmath.cos, 1.0), (cmath.sin, -1.0), (cmath.cos, -1.0))


def sinpi(z: complex) -> complex:
    """sin(pi z), exactly 0 at the integers and accurate next to them."""
    k = round(2.0 * z.real)
    f, sign = _QUADRANTS[k & 3]
    return sign * f(math.pi * (z - 0.5 * k))


def cospi(z: complex) -> complex:
    """cos(pi z) = sin(pi (z + 1/2)), exactly 0 at the half-integers and
    accurate next to them."""
    k = round(2.0 * z.real)
    f, sign = _QUADRANTS[(k + 1) & 3]
    return sign * f(math.pi * (z - 0.5 * k))


class RootVariant(Enum):
    """The two branches of sqrt(x^2 - 1) used on either side of [-1, 1].

    ``Y1 = i*sqrt(1 - x^2)`` is analytic on the plane cut outside [-1, 1];
    ``Y2 = x*sqrt(1 - x^-2)`` is analytic on the plane cut along [-1, 1].
    They agree for Im x > 0 and differ by a sign for Im x < 0.
    """

    Y1 = "Y1"
    Y2 = "Y2"


def _lanczos_sum(z: complex) -> complex:
    s = _LANCZOS_C[0]
    for c, offset in _LANCZOS_TERMS:
        s += c / (z + offset)
    return s


def _log_sin_pi_upper(z: complex) -> complex:
    # log(sin(pi z)) unwound so the reflection formula stays on the principal
    # branch of ln_gamma; valid for Im z >= 0.  With d = pi (Re z - round(Re z)),
    # the difference exact, and x = -2 pi Im z <= 0, 1 - e^{2 pi i z} is
    # (2 e^x sin^2 d - expm1(x)) - 2i e^x sin d cos d: no digits cancel at a pole.
    d = math.pi * (z.real - round(z.real))
    em1 = math.expm1(-2.0 * math.pi * z.imag)
    s, two_ex = math.sin(d), 2.0 * (1.0 + em1)
    one_minus = complex(two_ex * s * s - em1, -two_ex * s * math.cos(d))
    return _LN_HALF_I - 1j * math.pi * z + cmath.log(one_minus)


def _ln_gamma(z: complex) -> complex:
    # No pole has Re z > 0, so most arguments skip the predicate.
    if z.real <= 0.0 and nonpos_index(z, 1e-300) is not None:
        raise PoleError(f"ln_gamma pole at z = {z}")
    if z.imag < 0.0:
        return _ln_gamma(z.conjugate()).conjugate()
    if z.real >= 0.5:
        t = z + (_LANCZOS_G - 0.5)
        return _LN_SQRT_TWO_PI + (z - 0.5) * cmath.log(t) - t + cmath.log(_lanczos_sum(z))
    return _LN_PI - _log_sin_pi_upper(z) - _ln_gamma(1.0 - z)


@functools.lru_cache(maxsize=_LN_GAMMA_MEMO_SIZE)
def ln_gamma(z: complex) -> complex:
    """Principal branch of log Gamma, continuous on C cut along (-inf, 0].

    Raises PoleError at the poles 0, -1, -2, ...  On the rest of the negative
    real axis the limit from the lower half-plane is returned, matching the
    usual software convention.

    Memoized on ``z`` (see the module docstring).  Arguments that compare
    equal, such as 2, 2.0 and 2+0j or imaginary parts +0.0 and -0.0, share
    an entry; their values are bit-identical.  Errors are not cached.
    """
    z = to_complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"ln_gamma needs a finite argument; got {z}")
    return _ln_gamma(z)


def gamma(z: complex) -> complex:
    """Gamma function; raises PoleError on the nonpositive integers and
    ParameterError where the value is beyond double range."""
    try:
        return cmath.exp(ln_gamma(z))
    except OverflowError:
        raise ParameterError(f"gamma({z}) is beyond double range") from None


def rgamma(z: complex) -> complex:
    """Entire reciprocal gamma, exactly 0 at the poles of ``ln_gamma`` and
    accurate right up to them; raises ParameterError where the value is
    beyond double range."""
    try:
        return cmath.exp(-ln_gamma(z))
    except PoleError:
        return 0.0 + 0.0j
    except OverflowError:
        raise ParameterError(f"1/gamma({z}) is beyond double range") from None


def log_gamma_quotient(numerators=(), denominators=()) -> complex | None:
    """log prod Gamma(numerators) / prod Gamma(denominators), a sum of
    ``ln_gamma`` values; None (the quotient is 0) when a denominator lies
    within 1e-12 of a pole.  ParameterError beyond double range; PoleError
    at a numerator pole (callers exclude those parameter sets)."""
    acc = 0.0 + 0.0j
    for d in denominators:
        if d.real < 0.5 and nonpos_index(d, 1e-12) is not None:
            return None
        acc -= ln_gamma(d)
    for n in numerators:
        acc += ln_gamma(n)
    if acc.real > 709.0:  # cmath.exp(acc) may overflow
        try:
            cmath.exp(acc)
        except OverflowError:
            raise ParameterError(
                f"gamma quotient beyond double range: log modulus {acc.real:.6g}") from None
    return acc


def gamma_quotient(numerators=(), denominators=()) -> complex:
    """prod Gamma(numerators) / prod Gamma(denominators), overflow-safe (see
    ``log_gamma_quotient``)."""
    acc = log_gamma_quotient(numerators, denominators)
    return 0.0 + 0.0j if acc is None else cmath.exp(acc)


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial a (a+1) ... (a+n-1); (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    out = 1.0 + 0.0j
    a = complex(a)
    for k in range(n):
        out *= a + k
    return out


def principal_pow(base: complex, exponent: complex) -> complex:
    """Principal-branch power exp(exponent * Log base).

    Negative real bases are allowed only for integer exponents (the real
    power is returned); otherwise they sit on the log branch cut and raise
    BranchCutError.
    """
    base = complex(base)
    exponent = complex(exponent)
    if exponent == 0:
        return 1.0 + 0.0j
    if base == 0:
        if exponent.real > 0 and exponent.imag == 0:
            return 0.0 + 0.0j
        raise DomainError(f"0 cannot be raised to the power {exponent}")
    try:
        if base.imag == 0.0 and base.real < 0.0:
            if exponent.imag == 0.0 and exponent.real == round(exponent.real):
                n = int(exponent.real)
                if abs(n) <= 4096:
                    return complex(base) ** n
                return cmath.exp(n * cmath.log(base))
            raise BranchCutError(
                f"non-integer power {exponent} of negative real base {base}"
            )
        return cmath.exp(exponent * cmath.log(base))
    except ArithmeticError:
        raise DomainError(f"{base} ** {exponent} is beyond double range") from None


def root_y(variant: RootVariant, x: complex) -> complex:
    """One of the two square roots of x^2 - 1.

    Y1 = i sqrt(1 - x^2), analytic off the real rays |x| >= 1;
    Y2 = x sqrt(1 - x^-2), analytic off the segment [-1, 1].
    Y1 is even in x, Y2 is odd, and Y1 = sign(Im x) * Y2 off the real axis.
    """
    x = complex(x)
    if variant is RootVariant.Y1:
        if x.imag == 0.0 and abs(x.real) >= 1.0:
            raise DomainError(f"Y1 root undefined on the real rays |x| >= 1; got {x}")
        return 1j * cmath.sqrt(1.0 - x * x)
    if variant is RootVariant.Y2:
        if x.imag == 0.0 and abs(x.real) <= 1.0:
            raise DomainError(f"Y2 root undefined on the segment [-1, 1]; got {x}")
        # x * x underflows to 0 for |x| below about 1e-162, so test the product.
        if x * x == 0.0:
            raise SingularPointError(f"Y2 root singular at x = 0; got {x}")
        return x * cmath.sqrt(1.0 - 1.0 / (x * x))
    raise ValueError(f"unknown root variant {variant!r}")
