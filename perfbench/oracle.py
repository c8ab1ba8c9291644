"""Reference values, computed with mpmath at raised precision.

Runs in the harness process, before the workload process starts, so no
reference work falls inside a timed region or inside ``setup_s``.  ``checks``
gives one check record per operation: a reference value for numeric
operations, a fixed expectation (plus references, for fourier and cut) for
CLI runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath

#: Working precision of every mpmath reference (decimal digits).
DPS = 30
#: One-sided limits on the cut are taken at this imaginary offset.
CUT_OFFSET = mpmath.mpf("1e-30")
#: Fraction bits of the fixed-point loop of the Fourier partial sums.
FIX_BITS = 128

#: Catalogue size the olbricht report must cover.
OLBRICHT_TOTAL = 88

#: SHA-256 of the bytes each fixed region run prints, keyed by its argv.
#: Region output is pure geometry (closed-form |w_j| < 1 tests on a fixed
#: grid), so any change to it is a change of behaviour.
REGION_SHA256 = json.loads((Path(__file__).parent / "region_sha256.json").read_text())


def ferrers_q(nu: complex, mu: complex, x: complex) -> complex:
    """Second-kind Ferrers function on D1 (mpmath's type-2 Legendre Q)."""
    with mpmath.workdps(DPS):
        return complex(mpmath.legenq(nu, mu, x, type=2))


def f21_cut(a: complex, b: complex, c: complex, x: float, side: str) -> complex:
    """2F1(a, b; c; x +- i0) for x > 1, as a limit at a tiny offset."""
    with mpmath.workdps(DPS + 10):
        z = mpmath.mpc(x, CUT_OFFSET if side == "above" else -CUT_OFFSET)
        return complex(mpmath.hyp2f1(a, b, c, z))


def fourier_partial_sums(nu: complex, mu: complex, theta: float,
                         counts: set[int]) -> dict[int, complex]:
    """Partial sums of the cosine expansion after each term count in
    ``counts``, from one loop in 128-bit fixed-point integer arithmetic.

    mpmath supplies the gamma ratio, prefactor and angles; the loop itself
    runs on Python integers, because mpmath would take seconds per 1e5
    terms.  Term k is coeff_k cos((s + 2k) theta) with s = nu + mu + 1 and
    coeff_{k+1} = coeff_k (s + k)(mu + 1/2 + k) / ((nu + 3/2 + k)(k + 1)).
    """
    one = mpmath.mpf(2) ** FIX_BITS
    with mpmath.workdps(DPS + 20):
        nu_m, mu_m, th = mpmath.mpc(nu), mpmath.mpc(mu), mpmath.mpf(theta)
        s = nu_m + mu_m + 1
        coeff = mpmath.gamma(s) / mpmath.gamma(nu_m + mpmath.mpf(1.5))
        pref = (mpmath.sqrt(mpmath.pi) * mpmath.power(2, mu_m)
                * mpmath.power(mpmath.sin(th), mu_m))
        b = s.imag * th
        cos_a, sin_a, c2, s2, ch, sh, cr, ci, sr, si, mr, mi, nr, ni = (
            int(mpmath.nint(v * one)) for v in (
                mpmath.cos(s.real * th), mpmath.sin(s.real * th),
                mpmath.cos(2 * th), mpmath.sin(2 * th), mpmath.cosh(b), mpmath.sinh(b),
                coeff.real, coeff.imag, s.real, s.imag,
                mu_m.real + mpmath.mpf(0.5), mu_m.imag, nu_m.real + mpmath.mpf(1.5), nu_m.imag))
    f = FIX_BITS
    tr = ti = 0  # sums carry 2f fraction bits
    raw = {}
    for k in range(max(counts)):
        # term = coeff * cos(A + iB) = coeff * (cos A cosh B - i sin A sinh B)
        ur, ui = (cos_a * ch) >> f, -((sin_a * sh) >> f)
        tr += cr * ur - ci * ui
        ti += cr * ui + ci * ur
        if k + 1 in counts:
            raw[k + 1] = (tr, ti)
        kk = k << f
        a1, a2, d1 = sr + kk, mr + kk, nr + kk
        pr, pi = a1 * a2 - si * mi, a1 * mi + si * a2
        dd = (d1 * d1 + ni * ni) * (k + 1)
        qr, qi = (pr * d1 + pi * ni) // dd, (pi * d1 - pr * ni) // dd
        cr, ci = (cr * qr - ci * qi) >> f, (cr * qi + ci * qr) >> f
        cos_a, sin_a = (cos_a * c2 - sin_a * s2) >> f, (sin_a * c2 + cos_a * s2) >> f
    with mpmath.workdps(DPS + 20):
        return {n: complex(pref * mpmath.mpc(mpmath.mpf(r) / one ** 2, mpmath.mpf(i) / one ** 2))
                for n, (r, i) in raw.items()}


def fourier_class(mu: complex, theta: float) -> str:
    """The convergence trichotomy in Re mu, stated independently."""
    if mu.real < 0.0:
        return "Absolute"
    if mu.real < 0.5:
        return "Conditional"
    return "Unclassified" if theta == math.pi / 2 else "Divergent"


def checks(ops: list[tuple], pairs: list) -> list[dict]:
    """The check record of every operation."""
    wanted: dict[tuple, set[int]] = {}
    for op in ops:
        if op[0] == "cli" and op[1] == "fourier":
            nu, mu, theta, n_terms = op[3]
            wanted.setdefault((nu, mu, theta), set()).add(n_terms)
    sums = {key: fourier_partial_sums(*key, counts) for key, counts in wanted.items()}
    return [_check(op, pairs, sums) for op in ops]


def _check(op: tuple, pairs: list, sums: dict) -> dict:
    kind = op[0]
    if kind in ("q", "reps"):
        return {"ref": ferrers_q(*op[1:4])}
    if kind == "qp":
        nu, mu = pairs[op[1]]
        return {"ref": ferrers_q(nu, mu, op[2])}
    if kind == "cut":
        return {"ref": f21_cut(*op[1:6])}
    sub, argv, params = op[1], op[2], op[3]
    if sub == "olbricht":
        return {"total": OLBRICHT_TOTAL}
    if sub == "region":
        return {"sha256": REGION_SHA256[" ".join(argv)]}
    if sub == "fourier":
        nu, mu, theta, n_terms = params
        return {"partial_sum": sums[(nu, mu, theta)][n_terms],
                "reference_value": ferrers_q(nu, mu, math.cos(theta)),
                "class": fourier_class(mu, theta), "n_terms": n_terms}
    if sub == "cut":
        return {"value": f21_cut(*params), "side": params[4]}
    raise ValueError(f"no check for operation {op!r}")
