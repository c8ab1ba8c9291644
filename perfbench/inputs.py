"""Seeded input generators for the four workloads.

Every generator draws from a shifted R_d low-discrepancy sequence: the
sequence is fixed, the seed picks the shift (a Cranley-Patterson rotation).
Different seeds give different inputs, but each input set covers its ranges
as evenly as a grid would, so medians and failure shares move little from
one seed to the next.  Nothing here imports ferrox or mpmath.

Values are plain Python numbers; ``encode`` turns complex numbers into
``[re, im]`` pairs for the JSON hand-off to the workload process.
"""

from __future__ import annotations

import random

#: Distinct points per q_mixed pass.  The timed loop repeats the pass, so a
#: cache holding more parameter pairs than this would start to hit.
Q_MIXED_POINTS = 1200
#: Every tenth q_mixed point is in the large-degree slice.
LARGE_EVERY = 10
#: q_grid: parameter pairs, and x points per pair (real sweep + complex grid).
GRID_PAIRS = 6
GRID_REAL = 60
GRID_NX, GRID_NY = 12, 10
#: rep_compare: points per pass; each point is followed by one degenerate
#: and one non-degenerate f21_cut probe.
COMPARE_POINTS = 150
#: Warm-up operations run before timing; drawn from a separate stream.
WARMUP_OPS = 30

#: Fixed region grids (all 61 x 61).  Region output is pure geometry, so
#: each run is checked against the SHA-256 of its bytes (region_sha256.json).
REGION_GRIDS = (
    ("--re-min=-3", "--re-max=3", "--im-min=-3", "--im-max=3"),
    ("--re-min=-1.5", "--re-max=1.5", "--im-min=-1.5", "--im-max=1.5"),
    ("--re-min=-1.2", "--re-max=1.2", "--im-min=-0.6", "--im-max=0.6"),
    ("--re-min=0.5", "--re-max=2.5", "--im-min=-1", "--im-max=1"),
)


def region_runs() -> tuple[list[list[str]], list[list[str]]]:
    """(PGM runs, CSV runs): PGM for every j on the first two grids, CSV on
    all four."""
    pgm = [["region", "--format=pgm", "--nx=61", "--ny=61", *grid, f"--j={j}"]
           for grid in REGION_GRIDS[:2] for j in range(1, 19)]
    csv = [["region", "--format=csv", "--nx=61", "--ny=61", *grid] for grid in REGION_GRIDS]
    return pgm, csv


def _phi(d: int) -> float:
    """Positive root of t**(d+1) = t + 1 (the R_d sequence's generator)."""
    t = 2.0
    for _ in range(60):
        t -= (t ** (d + 1) - t - 1.0) / ((d + 1) * t ** d - 1.0)
    return t


def ld_points(n: int, dim: int, rng: random.Random) -> list[list[float]]:
    """n points of the R_d sequence in [0, 1)^dim, shifted by the seed."""
    g = _phi(dim)
    alpha = [(1.0 / g) ** (i + 1) for i in range(dim)]
    shift = [rng.random() for _ in range(dim)]
    return [[(shift[i] + (k + 1) * alpha[i]) % 1.0 for i in range(dim)]
            for k in range(n)]


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _x_in_d1(u_kind: float, u1: float, u2: float) -> complex:
    """x in D1: 45% complex, 45% real in (-0.95, 0.95), 10% real within
    0.05 of +-1."""
    if u_kind < 0.45:
        sign = 1.0 if u2 < 0.5 else -1.0
        return complex(_lerp(-1.2, 1.2, u1), sign * _lerp(0.05, 1.0, (2.0 * u2) % 1.0))
    if u_kind < 0.9:
        return complex(_lerp(-0.95, 0.95, u1), 0.0)
    sign = 1.0 if u2 < 0.5 else -1.0
    return complex(sign * (0.95 + 0.0499 * u1), 0.0)


def _ferrers_point(u: list[float], nu_lo: float, nu_hi: float,
                   mu_lo: float, mu_hi: float) -> tuple[complex, complex, complex]:
    nu = complex(_lerp(nu_lo, nu_hi, u[0]), _lerp(-0.25, 0.25, u[1]))
    mu = complex(_lerp(mu_lo, mu_hi, u[2]), _lerp(-0.25, 0.25, u[3]))
    return nu, mu, _x_in_d1(u[4], u[5], u[6])


def q_mixed(rng: random.Random, n: int = Q_MIXED_POINTS) -> list[tuple]:
    """One ferrers_q call per point; every point has its own (nu, mu, x)."""
    n_large = n // LARGE_EVERY
    moderate = iter(ld_points(n - n_large, 7, rng))
    large = iter(ld_points(n_large, 7, rng))
    ops = []
    for k in range(n):
        if k % LARGE_EVERY == LARGE_EVERY - 1:
            ops.append(("q",) + _ferrers_point(next(large), 50.0, 300.0, -2.5, 2.5))
        else:
            ops.append(("q",) + _ferrers_point(next(moderate), -0.9, 30.0, -2.5, 2.5))
    return ops


def q_grid(rng: random.Random) -> tuple[list[tuple[complex, complex]], list[tuple]]:
    """A few (nu, mu) pairs, each swept over a real x sweep and a complex
    grid, in order, as a tabulation would.  Half the pairs are real."""
    pairs = []
    for k, u in enumerate(ld_points(GRID_PAIRS, 4, rng)):
        im = 1.0 if k % 2 else 0.0
        pairs.append((complex(_lerp(-0.5, 10.0, u[0]), im * _lerp(-0.2, 0.2, u[1])),
                      complex(_lerp(-2.0, 2.0, u[2]), im * _lerp(-0.2, 0.2, u[3]))))
    ops = []
    for k in range(GRID_PAIRS):
        off_re, off_im = rng.random(), rng.random()
        for i in range(GRID_REAL):
            ops.append(("qp", k, complex(_lerp(-0.98, 0.98, (i + off_re) / GRID_REAL), 0.0)))
        for iy in range(GRID_NY):
            im = _lerp(-0.9, 0.9, (iy + off_im) / GRID_NY)
            for ix in range(GRID_NX):
                ops.append(("qp", k, complex(_lerp(-1.3, 1.3, (ix + off_re) / GRID_NX), im)))
    return pairs, ops


def _degenerate_probe(u: list[float]) -> tuple:
    """a - b and c - a - b both integers: every two-term cut formula
    degenerates and f21_cut continues by ODE steps."""
    a = complex(_lerp(0.1, 0.9, u[0]), _lerp(-0.2, 0.2, u[1]))
    b = a + 1.0 + int(3 * u[2])
    c = a + b + int(3 * u[3])
    return ("cut", a, b, c, _lerp(1.05, 4.0, u[4]), "above" if u[5] < 0.5 else "below")


def _regular_probe(u: list[float]) -> tuple:
    a = complex(_lerp(-1.4, 2.4, u[0]), _lerp(-0.2, 0.2, u[1]))
    b = complex(_lerp(-1.4, 2.4, u[2]), 0.0)
    c = complex(_lerp(0.6, 3.4, u[3]), 0.0)
    return ("cut", a, b, c, _lerp(1.05, 4.0, u[4]), "above" if u[5] < 0.5 else "below")


def rep_compare(rng: random.Random, n: int = COMPARE_POINTS) -> list[tuple]:
    """Per point: every valid representation; then two f21_cut probes."""
    points = ld_points(n, 7, rng)
    degenerate = ld_points(n, 6, rng)
    regular = ld_points(n, 6, rng)
    ops = []
    for k in range(n):
        ops.append(("reps",) + _ferrers_point(points[k], -0.9, 4.0, -2.0, 2.0))
        ops.append(_degenerate_probe(degenerate[k]))
        ops.append(_regular_probe(regular[k]))
    return ops


def _c(z: complex) -> str:
    """Complex literal in the CLI's a+bi syntax, round-trip exact.  Passed
    as --opt=value, because argparse takes "-0.3+0.1i" for an option."""
    return f"{z.real!r}{z.imag:+.17g}i"


def cli_verify(rng: random.Random, cycles: int = 4) -> list[tuple]:
    """One pass of in-process CLI runs: ``cycles`` cycles of 25 runs, each
    4 olbricht, 2 fourier, 9 region PGM, 1 region CSV and 9 cut.

    The mix is fixed so that, sorted by time, the median lands among the
    PGM runs and p90 among the olbricht runs, not on a boundary between
    two kinds of run.  The fourier term counts come in antithetic pairs
    (n, 1.1e5 - n), so the pass's total work does not depend on the seed.
    """
    pgm, csv = region_runs()
    olbricht = ld_points(4 * cycles, 4, rng)
    fourier = ld_points(cycles, 6, rng)
    cut = ld_points(9 * cycles, 6, rng)
    ops = []
    for c in range(cycles):
        for u in olbricht[4 * c:4 * c + 4]:
            nu = complex(_lerp(0.1, 1.6, u[0]), _lerp(-0.2, 0.2, u[1]))
            mu = complex(_lerp(-0.45, 0.45, u[2]), _lerp(-0.1, 0.1, u[3]))
            ops.append(("cli", "olbricht", ["olbricht", f"--nu={_c(nu)}", f"--mu={_c(mu)}"], None))
        u = fourier[c]
        nu = complex(_lerp(-0.5, 2.0, u[0]), _lerp(-0.2, 0.2, u[1]))
        mu = complex(_lerp(-0.9, 0.4, u[2]), _lerp(-0.1, 0.1, u[3]))
        theta = _lerp(0.3, 2.8, u[4])
        n1 = int(_lerp(1e4, 1e5, u[5]))
        for n_terms in (n1, 110_000 - n1):
            argv = ["fourier", f"--nu={_c(nu)}", f"--mu={_c(mu)}", f"--theta={theta!r}",
                    f"--n-terms={n_terms}"]
            ops.append(("cli", "fourier", argv, (nu, mu, theta, n_terms)))
        ops += [("cli", "region", argv, None) for argv in pgm[9 * c:9 * c + 9]]
        ops.append(("cli", "region", csv[c % len(csv)], None))
        for u in cut[9 * c:9 * c + 9]:
            _, a, b, cc, x, side = _regular_probe(u)
            argv = ["cut", f"--a={_c(a)}", f"--b={_c(b)}", f"--c={_c(cc)}", f"--x={x!r}",
                    f"--side={side}"]
            ops.append(("cli", "cut", argv, (a, b, cc, x, side)))
    return ops


def generate(workload: str, seed: int) -> dict:
    """Inputs of one run: the operations of one pass, parameter pairs (for
    q_grid), and warm-up operations from a separate stream."""
    rng = random.Random(f"{workload}:{seed}")
    warm_rng = random.Random(f"{workload}:{seed}:warm-up")
    if workload == "q_mixed":
        return {"ops": q_mixed(rng), "warm": q_mixed(warm_rng, WARMUP_OPS)}
    if workload == "q_grid":
        pairs, ops = q_grid(rng)
        return {"ops": ops, "pairs": pairs, "warm": q_mixed(warm_rng, WARMUP_OPS)}
    if workload == "rep_compare":
        return {"ops": rep_compare(rng), "warm": rep_compare(warm_rng, WARMUP_OPS // 3)}
    if workload == "cli_verify":
        return {"ops": cli_verify(rng), "warm": cli_verify(warm_rng, 1)[-12:]}
    raise ValueError(f"unknown workload {workload!r}")


def encode(obj):
    """JSON-ready copy: complex -> [re, im], tuples -> lists."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    return obj
