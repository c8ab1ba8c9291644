import cmath
import math
import pickle
import random
import sys
import threading
import time
from collections import Counter

import mpmath as mp
import pytest

from conftest import kronecker_points, rel_diff
from ferrox import ferrers, hyp2f1, olbricht
from ferrox.complexmath import gamma_quotient, ln_gamma, principal_pow
from ferrox.errors import (
    BeyondRangeError,
    BranchCutError,
    ConvergenceError,
    DomainError,
    FerroxError,
    NoRepresentationError,
    ParameterError,
)
from ferrox.ferrers import (
    ParamPair,
    RepresentationId as R,
    connection_residuals,
    ferrers_p,
    ferrers_q,
    ferrers_q_halfplane_cut,
    ferrers_q_rep,
    ferrers_q_rep_trig,
    ferrers_q_via_limit,
    legendre_ode_residual,
    legendre_p,
    legendre_q,
    legendre_q_bold,
    valid_representations,
)
from ferrox.hyp2f1 import DEFAULT_TOL, TAIL_FACTOR, HypParams, f21
from ferrox.regions import DomainId, argument, in_domain, unusable_maps

mp.mp.dps = 30

ATANH_HALF = 0.5493061443340549  # atanh(1/2)
Q1_HALF = -0.7253469278329726    # 0.5 atanh(1/2) - 1

GRID_NU = (0.3, 1.7, -0.4 + 0.2j)
GRID_MU = (0.25, -0.6, 0.1 + 0.1j)
GRID_X = (0.9, -0.9, 0.5, -0.5, 0.1, -0.1, 0.3 + 0.4j, 0.3 - 0.4j)
# Dispatch points: the acceptance grid, large degrees, integer mu, nu + 1/2
# an integer, nu + mu a positive integer, gamma ratios beyond double range;
# x near +-1 (within 1e-3 on the real axis), one more complex x, |x| >= 50
# (no square-root maps) and 1e-200i (x * x == 0: no maps 10 and 11).
DISPATCH_P = ([(nu, mu) for nu in GRID_NU for mu in GRID_MU]
              + [(40.3, 0.25), (120.7, -0.6), (300.3, 0.4), (0.3, 1.0), (1.5, 0.25),
                 (1.7, 0.3), (0.3, 0.4 + 300j)])
DISPATCH_X = GRID_X + (0.99, -0.99, 0.9995, -0.9995, -0.7 + 0.2j, 60.0 + 80.0j, 1e-200j)
THETA_REPS = (R.III1_UPPER, R.III1_LOWER, R.III2_UPPER,
              R.III2_LOWER, R.III3_UPPER, R.III3_LOWER)
HALFPLANE_REPS = (R.I5, R.I6, R.II2, R.II4)


def mp_series_oracle(a, b, c, w, n=200):
    """Plain high-precision partial sum of the hypergeometric series."""
    with mp.workdps(40):
        total = mp.mpf(0)
        term = mp.mpc(1)
        for k in range(n):
            total += term
            term *= (mp.mpc(a) + k) * (mp.mpc(b) + k) / ((mp.mpc(c) + k) * (k + 1)) * mp.mpc(w)
        return complex(total)


class TestLegendreP:
    def test_degree_zero(self):
        assert legendre_p(ParamPair(0, 0), 3.0).value == pytest.approx(1.0)

    def test_degree_one(self):
        assert legendre_p(ParamPair(1, 0), 3.0).value == pytest.approx(3.0)

    def test_against_direct_series(self):
        nu, mu, z = 0.5, 0.25, 2.0
        pref = complex(mp.power((z + 1) / (z - 1), mu / 2) / mp.gamma(1 - mu))
        want = pref * mp_series_oracle(-nu, nu + 1, 1 - mu, (1 - z) / 2)
        got = legendre_p(ParamPair(nu, mu), z).value
        assert rel_diff(got, want) < 1e-12

    def test_integer_order_allowed(self):
        # the regularized series removes the Gamma(1 - mu) pole
        got = legendre_p(ParamPair(1.0, 2.0), 3.0).value
        want = complex(mp.legenp(1, 2, 3, type=3))
        assert rel_diff(got, want) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            legendre_p(ParamPair(0.3, 0.4), 0.5)


class TestLegendreQ:
    def test_degree_zero_closed_form(self):
        assert legendre_q(ParamPair(0, 0), 2.0).value == pytest.approx(ATANH_HALF, abs=1e-12)

    def test_degree_one_closed_form(self):
        want = 2.0 * math.atanh(0.5) - 1.0
        assert legendre_q(ParamPair(1, 0), 2.0).value == pytest.approx(want, abs=1e-12)

    def test_against_direct_series(self):
        nu, mu, z = 0.5, 0.25, 1.0 + 2.0j
        with mp.workdps(40):
            pref = (mp.sqrt(mp.pi) * mp.expjpi(mu) * mp.gamma(nu + mu + 1)
                    * mp.power(z + 1, mu / 2) * mp.power(z - 1, mu / 2)
                    / (mp.power(2, nu + 1) * mp.gamma(nu + 1.5)
                       * mp.power(z, nu + mu + 1)))
        want = complex(pref) * mp_series_oracle(
            (nu + mu + 2) / 2, (nu + mu + 1) / 2, nu + 1.5, 1.0 / (z * z))
        got = legendre_q(ParamPair(nu, mu), z).value
        assert rel_diff(got, want) < 1e-12

    def test_parameter_error(self):
        with pytest.raises(ParameterError):
            legendre_q(ParamPair(-2.3, 0.3), 2.0)

    def test_bold_variant_even_in_order(self):
        a = legendre_q_bold(ParamPair(0.3, 0.4), 1.7).value
        b = legendre_q_bold(ParamPair(0.3, -0.4), 1.7).value
        assert rel_diff(a, b) < 1e-12


class TestFerrersP:
    def test_degree_one(self):
        assert ferrers_p(ParamPair(1, 0), 0.5).value == pytest.approx(0.5)

    def test_degree_two_polynomial(self):
        assert ferrers_p(ParamPair(2, 0), 0.5).value == pytest.approx(-0.125)

    def test_against_direct_series(self):
        nu, mu, x = 0.3, -0.2, 0.1
        pref = complex(mp.power((1 + x) / (1 - x), mu / 2) / mp.gamma(1 - mu))
        want = pref * mp_series_oracle(-nu, nu + 1, 1 - mu, (1 - x) / 2)
        assert rel_diff(ferrers_p(ParamPair(nu, mu), x).value, want) < 1e-12

    def test_limit_of_cut_plane_function(self):
        # first-kind function on the cut = e^{i pi mu/2} * (value from above)
        nu, mu, x = 0.3, 0.4, 0.2
        eps = 1e-7
        above = legendre_p(ParamPair(nu, mu), complex(x, eps)).value
        want = cmath.exp(0.5j * math.pi * mu) * above
        assert rel_diff(ferrers_p(ParamPair(nu, mu), x).value, want) < 1e-5


def _written_out(name, p, z, tol=DEFAULT_TOL):
    """``ferrers_p`` or ``legendre_p`` as a hand-written prefactor times a
    regularized series (DLMF 14.3.1, 14.3.6), under the domain check,
    overflow guard and tail rule of the one-term step; it raises the
    exception class that the step raises."""
    z = complex(z)
    if not in_domain(DomainId.D1 if name == "ferrers_p" else DomainId.D2, z):
        raise DomainError(name)
    nu, mu = p.nu, p.mu
    try:
        base = (1.0 + z) / (1.0 - z) if name == "ferrers_p" else (z + 1.0) / (z - 1.0)
        pref = principal_pow(base, 0.5 * mu)
        r = hyp2f1.f21_regularized(HypParams(-nu, nu + 1.0, 1.0 - mu), (1.0 - z) / 2.0, tol)
        value = pref * r.value
    except (ArithmeticError, ValueError, BeyondRangeError):
        raise DomainError(name) from None
    if not cmath.isfinite(value):
        raise DomainError(name)
    if r.tail_estimate > TAIL_FACTOR * tol:
        raise ConvergenceError(name)
    return value


def _sweep(seed, n, real_z):
    """n random (nu, mu, z): moderate to large degree and order, some
    integer ones, and z from 1e-6 to 1e6 in modulus, with a share on the
    real interval ``real_z``."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        nu = complex(rng.uniform(-1, 1) * 10 ** rng.uniform(-1, 2.3),
                     rng.choice([0.0, rng.uniform(-1, 1) * 10 ** rng.uniform(-1, 2)]))
        mu = complex(rng.choice([rng.uniform(-8, 8), float(rng.randint(-4, 4))]),
                     rng.choice([0.0, rng.uniform(-1, 1) * 10 ** rng.uniform(-1, 2.3)]))
        if rng.random() < 0.2:
            z = complex(rng.uniform(*real_z))
        else:
            z = 10 ** rng.uniform(-6, 6) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        out.append((nu, mu, z))
    return out


#: Points where the 2F1 series of legendre_q_bold stops with a tail estimate
#: of 13.6, 9.5 and 3.3e-8; the values it returned were off by 3.4e10, 4.0e8
#: and 1.4e-8 relative.
TAIL_PROBES = [
    (39.56240771471827 + 1.9588851645570098j, 4.490182109893276 + 0.025859238092219794j,
     -0.5227724418423177 - 0.6629959637454492j),
    (38.721939234655366 + 1.568564769540957j, -3.5933742797374633 + 0.4070892925621501j,
     -0.016046386425497005 + 0.7360641885609113j),
    (16.111292723244894 + 0.15955728109940104j, 0.9575005993084993 + 1.085871895549528j,
     -0.39955153921780273 - 0.41582866052072004j),
]


class TestOneTermRecords:
    # ferrers_p and legendre_p are records read by the interpreter that
    # evaluates the representation table; they equal the written-out
    # formulas to the last bit, and raise where those raise
    @pytest.mark.parametrize("name,call,seed,real_z", [
        ("ferrers_p", ferrers_p, 1, (-1.0, 1.0)), ("legendre_p", legendre_p, 2, (1.0, 50.0))],
        ids=["ferrers_p", "legendre_p"])
    def test_first_kind_equals_written_out_formula(self, name, call, seed, real_z):
        kinds = Counter()
        for nu, mu, z in _sweep(seed, 400, real_z):
            p = ParamPair(nu, mu)
            try:
                want = _written_out(name, p, z)
            except FerroxError as exc:
                with pytest.raises(type(exc)):
                    call(p, z)
                kinds[type(exc).__name__] += 1
            else:
                assert repr(call(p, z).value) == repr(want), (nu, mu, z)
                kinds["value"] += 1
        assert kinds["value"] > 300 and kinds["DomainError"] > 0, kinds

    @pytest.mark.parametrize("nu,mu,z", [
        (0.3, 0.4, 1e200), (0.3, 0.4, 1.7), (1.2 + 0.3j, -0.7, 2 + 1j),
        (-0.4 + 0.2j, 0.1 + 0.1j, -3 + 0.5j), (5.5, 2.5, 1.05), (0.3, 0.4, 3e5j),
        (2.7 - 0.4j, 1.3 + 0.2j, 0.2 - 0.6j), (0.3, 0.4, -1e30 + 1e25j),
        (12.3, -3.1, 1.5 + 0.2j)])
    def test_q_bold_against_mpmath(self, nu, mu, z):
        # at z = 1e200 the powers z^(nu + mu + 1) and (z^2 - 1)^(mu/2), taken
        # apart, are beyond double range; the record adds their logs
        with mp.workdps(40):
            n, m = mp.mpc(nu), mp.mpc(mu)
            want = complex(mp.exp(-1j * mp.pi * m) * mp.legenq(n, m, mp.mpc(z), type=3)
                           / mp.gamma(n + m + 1))
        assert rel_diff(legendre_q_bold(ParamPair(nu, mu), z).value, want) < 1e-12

    @pytest.mark.parametrize("nu,mu,z", TAIL_PROBES)
    def test_tail_beyond_bound_raises(self, nu, mu, z):
        for call in (legendre_q_bold, legendre_q):
            with pytest.raises(ConvergenceError, match="legendre_q_bold: tail estimate"):
                call(ParamPair(nu, mu), z)

    # tails 0.31 and 1.1e-10; the values were off by 4.2e23 and 4.3e-8
    @pytest.mark.parametrize("call,nu,mu,z", [
        (ferrers_p, 0.198663423201107 - 0.5333398416430357j,
         -0.03768774542091287 + 155.76310192633514j, 0.7260943486909408 - 3.4952408088088545j),
        (legendre_p, -0.0012227615007425246 - 0.07307057732762849j,
         0.6840560757325022 + 42.38622420138408j, 4.414979369205831 - 1.8734459144230526j)],
        ids=["ferrers_p", "legendre_p"])
    def test_first_kind_tail_beyond_bound_raises(self, call, nu, mu, z):
        with pytest.raises(ConvergenceError, match=f"{call.__name__}: tail estimate"):
            call(ParamPair(nu, mu), z)


class TestSecondKindRepresentations:
    def test_closed_form_degree_zero(self):
        got = ferrers_q_rep(R.II3, ParamPair(0, 0), 0.5)
        assert got.value.real == pytest.approx(ATANH_HALF, abs=1e-12)

    def test_closed_form_degree_one(self):
        got = ferrers_q_rep(R.II3, ParamPair(1, 0), 0.5)
        assert got.value.real == pytest.approx(Q1_HALF, abs=1e-12)

    def test_degree_one_at_origin(self):
        got = ferrers_q_rep(R.II3, ParamPair(1, 0), 0.0)
        assert got.value.real == pytest.approx(-1.0, abs=1e-13)

    def test_cross_representation(self):
        p = ParamPair(0.3, 0.4)
        a = ferrers_q_rep(R.I1, p, 0.2).value
        b = ferrers_q_rep(R.FOURIER_UV, p, 0.2).value
        assert rel_diff(a, b) < 1e-10

    @pytest.mark.parametrize("rep", [R.I2, R.II1])
    @pytest.mark.parametrize("mu", [1.0 + 2e-9, 2.0 - 3e-9, 1.0 - 5e-9 + 1e-10j])
    def test_just_outside_integer_order_window(self, rep, mu):
        # their 1/Gamma and 1/sin(pi mu) factors sit next to poles here
        p = ParamPair(0.3, mu)
        for x in (0.5, 0.9, 0.3 + 0.2j):
            want = complex(mp.legenq(0.3, mp.mpc(mu), mp.mpc(x), type=2))
            assert rel_diff(ferrers_q_rep(rep, p, x).value, want) < 1e-3, x

    def test_tail_estimate_flags_cancellation(self):
        # just outside the 1e-9 exclusion window the two series terms nearly
        # cancel; the diagnostics must carry the precision loss
        sick = ferrers_q_rep(R.I1, ParamPair(0.3, 1.0 + 3e-9), 0.2)
        healthy = ferrers_q_rep(R.I1, ParamPair(0.3, 0.4), 0.2)
        assert sick.tail_estimate > 1e-7
        assert healthy.tail_estimate < 1e-11

    def test_parameter_exclusion_message(self):
        with pytest.raises(ParameterError, match="mu in Z"):
            ferrers_q_rep(R.I1, ParamPair(0.3, 1.0), 0.2)
        with pytest.raises(ParameterError, match="nu \\+ 1/2 in Z"):
            ferrers_q_rep(R.III1_UPPER, ParamPair(0.5, 0.3), 0.2)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            ferrers_q_rep(R.II1, ParamPair(0.3, 0.4), -0.5)
        with pytest.raises(DomainError):
            ferrers_q_rep(R.I5, ParamPair(0.3, 0.4), 0.5)

    def test_cross_representation_agreement_grid(self):
        for nu in GRID_NU:
            for mu in GRID_MU:
                p = ParamPair(nu, mu)
                for x in GRID_X:
                    vals = []
                    for v in valid_representations(p, x):
                        if v.ok:
                            vals.append(ferrers_q_rep(v.rep, p, x).value)
                    assert len(vals) >= 2
                    for i in range(len(vals)):
                        for j in range(i + 1, len(vals)):
                            assert rel_diff(vals[i], vals[j]) < 1e-8

    def test_euler_rewritten_series_form(self):
        # the even/odd-split representation rewritten by the Euler
        # transformation: same value, parameters moved to the other slots
        p = ParamPair(0.3, 0.4)
        nu, mu = p.nu, p.mu
        for x in (0.2, -0.45, 0.3 + 0.2j):
            pref = (math.sqrt(math.pi) * 2.0 ** (mu - 1.0)
                    * complex(1.0 - x * x) ** (mu / 2.0))
            g1 = complex(mp.gamma((nu + mu + 1) / 2) / mp.gamma((nu - mu + 2) / 2))
            g2 = complex(mp.gamma((nu + mu + 2) / 2) / mp.gamma((nu - mu + 1) / 2))
            t1 = (-cmath.sin(math.pi * (nu + mu) / 2.0) * g1
                  * f21(HypParams((nu + mu + 1) / 2, (mu - nu) / 2, 0.5), x * x).value)
            t2 = (2.0 * cmath.cos(math.pi * (nu + mu) / 2.0) * g2 * x
                  * f21(HypParams((nu + mu + 2) / 2, (mu - nu + 1) / 2, 1.5), x * x).value)
            rewritten = pref * (t1 + t2)
            direct = ferrers_q_rep(R.II3, p, x).value
            assert rel_diff(rewritten, direct) < 1e-9

    @pytest.mark.parametrize("rep", THETA_REPS)
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3, 2 * math.pi / 5])
    def test_trig_forms_match_x_forms(self, rep, theta):
        p = ParamPair(0.3, 0.4)
        a = ferrers_q_rep_trig(rep, p, theta).value
        b = ferrers_q_rep(rep, p, math.cos(theta)).value
        assert abs(a - b) <= 1e-9 * (1.0 + abs(b))

    @pytest.mark.parametrize("rep", THETA_REPS)
    def test_trig_forms_accurate_near_theta_zero(self, rep):
        # s = sin(theta) keeps its relative accuracy as theta -> 0, where
        # sqrt(1 - cos^2 theta) would lose digits
        theta = 1e-3
        got = ferrers_q_rep_trig(rep, ParamPair(0.3, 0.4), theta).value
        want = complex(mp.legenq(0.3, 0.4, mp.cos(mp.mpf(theta)), type=2))
        assert rel_diff(got, want) < 2e-12

    @pytest.mark.parametrize("rep,p,theta,exc,match", [
        # x = cos(theta) < 0 lies outside the III3 domain D1+
        (R.III3_UPPER, ParamPair(0.3, 0.4), 2 * math.pi / 3, DomainError, "D1"),
        (R.III3_UPPER, ParamPair(0.3, 0.4), 3 * math.pi / 4, DomainError, "D1"),
        (R.III3_LOWER, ParamPair(0.3, 0.4), 2 * math.pi / 3, DomainError, "D1"),
        (R.III3_LOWER, ParamPair(0.3, 0.4), 3 * math.pi / 4, DomainError, "D1"),
        (R.III3_UPPER, ParamPair(0.3, 0.5), math.pi / 3, ParameterError, "2 mu in Z"),
        (R.I1, ParamPair(0.3, 0.4), math.pi / 3, ValueError, "no trigonometric form"),
        (R.FOURIER_UV, ParamPair(0.3, 0.4), math.pi / 3, ValueError, "no trigonometric form"),
    ])
    def test_trig_forms_share_x_form_checks(self, rep, p, theta, exc, match):
        with pytest.raises(exc, match=match):
            ferrers_q_rep_trig(rep, p, theta)

    def test_series_overflow_is_ferrox_error(self):
        # the 2F1 terms of I4 overflow at this degree
        with pytest.raises(FerroxError):
            ferrers_q_rep(R.I4, ParamPair(300.3, 0.4), 0.3 + 0.4j)

    # a coefficient beyond double range: a prefactor power that alone
    # underflows to 0 is divided by, so the coefficient's one exponential
    # overflows
    @pytest.mark.parametrize("rep,p,x", [
        (R.I4, ParamPair(300.3, 0.4), 0.99), (R.I4, ParamPair(300.3, 0.4), 0.999),
        (R.II6, ParamPair(300.3, 0.4), 0.999), (R.I4, ParamPair(150.2, 60.3), 0.999)])
    def test_underflow_is_domain_error(self, rep, p, x):
        with pytest.raises(DomainError, match=f"{rep.value}: .*beyond double range"):
            ferrers_q_rep(rep, p, x)

    @pytest.mark.parametrize("rep", list(R))
    def test_evaluator_arguments_match_table(self, rep, monkeypatch):
        # each 2F1 factor is evaluated at an argument map the record names:
        # both factors at its one map, or one factor at each of its two maps
        spec = ferrers._REP_TABLE[rep]
        seen = []

        def recording(f):
            def evaluate(hp, w, tol):
                seen.append(w)
                return f(hp, w, tol)
            return evaluate

        monkeypatch.setattr(ferrers, "f21", recording(ferrers.f21))
        monkeypatch.setattr(ferrers, "f21_regularized", recording(ferrers.f21_regularized))
        p = ParamPair(0.3, 0.4)
        points = [x for x in (0.3, -0.45, 0.62, 0.85, 0.3 + 0.4j, -0.5 - 0.2j,
                              0.7 - 0.3j, 1.2 + 0.5j)
                  if next(v.ok for v in valid_representations(p, x) if v.rep is rep)]
        assert points
        ids = spec.argument_ids * (2 // len(spec.argument_ids))
        for x in points:
            seen.clear()
            ferrers_q_rep(rep, p, x)
            want = [argument(j, x) for j in ids]
            assert Counter(seen) == Counter(want), (x, seen, want)

    def test_upper_and_lower_signs_agree(self):
        p = ParamPair(0.3, 0.4)
        pairs = [(R.III1_UPPER, R.III1_LOWER), (R.III2_UPPER, R.III2_LOWER),
                 (R.III3_UPPER, R.III3_LOWER)]
        for up, lo in pairs:
            for x in (0.3, 0.62, 0.45 + 0.2j, 0.45 - 0.2j):
                a = ferrers_q_rep(up, p, x).value
                b = ferrers_q_rep(lo, p, x).value
                assert rel_diff(a, b) < 1e-8


class TestDispatch:
    def test_simple_value(self):
        out = ferrers_q(ParamPair(0, 0), 0.5)
        assert out.value.real == pytest.approx(ATANH_HALF, abs=1e-10)
        assert out.rep in (R.II3, R.I7, R.FOURIER_UV)

    def test_near_endpoint(self):
        out = ferrers_q(ParamPair(0.3, 0.4), 0.99)
        lim = ferrers_q_via_limit(ParamPair(0.3, 0.4), 0.99)
        assert abs(out.value - lim.value) < 1e-5 * (1.0 + abs(out.value))
        # the chosen representation's series argument is tiny near x = 1
        assert out.rep == R.I1

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            ferrers_q(ParamPair(0, 0), 1.5)

    def test_undefined_parameters(self):
        with pytest.raises(ParameterError):
            ferrers_q(ParamPair(-2.3, 0.3), 0.5)

    def test_forced_rep_reported(self):
        out = ferrers_q_rep(R.I2, ParamPair(0.3, 0.4), 0.2)
        assert out.rep is R.I2

    def test_integer_order_falls_back(self):
        out = ferrers_q(ParamPair(0.3, 1.0), 0.2)
        want = complex(mp.legenq(0.3, 1.0, 0.2, type=2))
        assert rel_diff(out.value, want) < 1e-10

    def test_tail_estimate_reported(self):
        out = ferrers_q(ParamPair(0.3, 0.4), 0.2, tol=1e-12)
        assert out.tail_estimate <= 1e-12
        assert out.terms_used > 0

    # Conical points nu = -1/2 + i tau, where II3 ranks first but returns
    # tails of 0.2-2 and errors up to 1.8e66, and mu just outside the 1e-9
    # integer window, where I1's two terms cancel (errors 1e-8 to 1e-6 with
    # tails of the same size): the candidates beyond TAIL_FACTOR * tol are
    # passed over for one within 1e-12 (3e-12 near integer mu).
    @pytest.mark.parametrize("nu,mu,x,want_rep,bound", [
        (-0.5 + 50j, 0.4, 0.3, R.I1, 1e-12),
        (-0.5 + 100j, 0.4, 0.3, R.I1, 1e-12),
        (-0.5 + 300j, 0.4, 0.3, R.I1, 1e-12),
        (0.3, 1 + 2e-9, 0.5, R.II3, 3e-12),
        (0.3, 1 + 2e-9, 0.9, R.II3, 3e-12),
        (0.3, 1 + 1e-7, 0.5, R.II3, 3e-12),
        (0.3, 2 - 3e-9, 0.5, R.II3, 3e-12),
    ])
    def test_candidate_beyond_its_tail_bound_is_passed_over(self, nu, mu, x, want_rep, bound):
        p = ParamPair(nu, mu)
        first = self._ranked(p, x)[0].rep
        assert first is not want_rep
        assert ferrers_q_rep(first, p, x).tail_estimate > TAIL_FACTOR * DEFAULT_TOL
        out = ferrers_q(p, x)
        assert out.rep is want_rep
        assert out.tail_estimate <= TAIL_FACTOR * DEFAULT_TOL
        with mp.workdps(40):
            want = complex(mp.legenq(nu, mu, x, type=2))
        assert abs(out.value - want) / abs(want) < bound

    def test_no_candidate_within_its_tail_bound_raises(self):
        # II6 ranks first with a tail of 4.9e-8 and a value off by 2.9e100;
        # every other candidate raises
        p, x = ParamPair(0.3, 0.4 + 300j), 0.3 + 0.4j
        with pytest.raises(NoRepresentationError) as info:
            ferrers_q(p, x)
        assert "tail estimate" in info.value.reasons[R.II6.value]

    def test_fourier_uv_ranked_by_its_route_radius(self):
        # f21 moves FourierUV's factors to 1/w or Pfaff's w/(w-1) first: by
        # that route radius it ranks first here and is within 1e-11, while
        # max(|w18|, |w14|) >= 1 would never let it be tried, and every
        # other candidate raises
        p, x = ParamPair(-0.5, 0.4 + 300j), 0.3 + 0.4j
        out = ferrers_q(p, x)
        assert out.rep is R.FOURIER_UV
        with mp.workdps(30):
            want = complex(mp.legenq(p.nu, p.mu, x, type=2))
        assert rel_diff(out.value, want) < 1e-11

    # At these magnitudes 1 + nu/2 - mu/2 (II3) and its like in II6 round to
    # the pole 0 of 1/Gamma, so both terms would read 0 with tail 0 while
    # |Q| is beyond double range; nu + mu = inf makes FourierUV's 2F1
    # parameters non-finite first at 1e308.
    @pytest.mark.parametrize("nu,mu,x,error", [
        (1e308, 1e308, 0.3, ParameterError),
        (1e17, 1e17, 0.3, NoRepresentationError),
        (1e17, 1e17, 0.3 + 0.4j, NoRepresentationError),
        (-1e300, 1e300, 0.3 + 0.4j, NoRepresentationError),
    ])
    def test_vanishing_gamma_parts_raise(self, nu, mu, x, error):
        p = ParamPair(nu, mu)
        with pytest.raises(error) as info:
            ferrers_q(p, x)
        if error is NoRepresentationError:
            assert "gamma part of every term is 0" in info.value.reasons[R.II3.value]
        with pytest.raises(DomainError, match="gamma part of every term is 0"):
            ferrers_q_rep(R.II3, p, x)

    @staticmethod
    def _ranked(p, x):
        # The documented rule: valid and convergent entries, stable-sorted
        # by preference (table order breaks ties).
        return sorted((v for v in valid_representations(p, x) if v.ok and v.region_ok),
                      key=lambda v: v.preference)

    @pytest.mark.parametrize("x", DISPATCH_X)
    @pytest.mark.parametrize("nu,mu", DISPATCH_P)
    def test_winner_follows_valid_representations(self, nu, mu, x):
        # the winner is the first candidate in that order that evaluates
        # within its tail bound, TAIL_FACTOR * tol; when none does,
        # ferrers_q raises NoRepresentationError
        p = ParamPair(nu, mu)
        for v in self._ranked(p, x):
            try:
                want = ferrers_q_rep(v.rep, p, x)
            except FerroxError:
                continue
            if want.tail_estimate > TAIL_FACTOR * DEFAULT_TOL:
                continue
            assert ferrers_q(p, x) == want
            return
        with pytest.raises(NoRepresentationError):
            ferrers_q(p, x)

    def test_raising_first_candidate_falls_to_next(self):
        # Im mu = 300 puts I1's gamma ratios beyond double range; the next
        # candidate in valid_representations order wins
        p, x = ParamPair(0.3, 0.4 + 300j), 0.5
        first, second = (v.rep for v in self._ranked(p, x)[:2])
        assert first is R.I1
        with pytest.raises(DomainError, match="I1: .*beyond double range"):
            ferrers_q_rep(first, p, x)
        out = ferrers_q(p, x)
        assert out.rep is second
        assert out == ferrers_q_rep(second, p, x)

    def test_arithmetic_error_moves_to_next_candidate(self, monkeypatch):
        p, x = ParamPair(0.3, 0.4), 0.3 + 0.4j
        winner, runner_up = (v.rep for v in self._ranked(p, x)[:2])

        winner_terms = [t.coef for t in ferrers._REP_TABLE[winner].terms]
        coefficient = ferrers._coefficient

        def overflow(coef, *args):
            if any(coef is c for c in winner_terms):
                raise OverflowError("math range error")
            return coefficient(coef, *args)

        monkeypatch.setattr(ferrers, "_coefficient", overflow)
        out = ferrers_q(p, x)
        assert out.rep is runner_up
        assert out == ferrers_q_rep(runner_up, p, x)

    def test_failure_reasons_name_every_representation(self, monkeypatch):
        def fail(*args):
            raise ConvergenceError("forced failure")

        monkeypatch.setattr(ferrers, "_coefficient", fail)
        p, x = ParamPair(0.3, 1.0), 0.5
        with pytest.raises(NoRepresentationError) as info:
            ferrers_q(p, x)
        want = {}
        for v in valid_representations(p, x):
            if not v.ok:
                want[v.rep.value] = v.reason
            elif not v.region_ok:
                want[v.rep.value] = "series argument has modulus >= 1 at x"
            else:
                want[v.rep.value] = "forced failure"
        assert info.value.reasons == want
        assert len(want) == len(R)
        # every kind of reason occurs at this point
        assert want["I1"] == "mu in Z"
        assert want["III3Upper"] == "2 mu in Z"
        assert want["I5"] == "x on the real axis (half-plane representation)"
        assert want["III2Upper"] == "series argument has modulus >= 1 at x"
        assert want["I7"] == "forced failure"

    def test_failure_reasons_at_large_x(self):
        # every candidate overflows at this degree, and the square-root
        # maps are not used from |x| = 50 on
        p, x = ParamPair(300.3, 0.4), 60.0 + 80.0j
        with pytest.raises(NoRepresentationError) as info:
            ferrers_q(p, x)
        reasons = info.value.reasons
        assert len(reasons) == len(R)
        for v in valid_representations(p, x):
            if not v.ok:
                assert reasons[v.rep.value] == v.reason
            elif not v.region_ok:
                assert reasons[v.rep.value] == "series argument has modulus >= 1 at x"
            else:
                with pytest.raises(FerroxError) as failure:
                    ferrers_q_rep(v.rep, p, x)
                assert reasons[v.rep.value] == str(failure.value)
        for rep, j in [(R.III1_UPPER, 13), (R.III1_LOWER, 17), (R.III2_UPPER, 14),
                       (R.III2_LOWER, 18), (R.III3_UPPER, 15), (R.III3_LOWER, 16),
                       (R.FOURIER_UV, 18)]:
            assert reasons[rep.value] == (
                f"w_{j} at x = (60+80j): x -+ sqrt(x^2 - 1) loses its digits")

    # FourierUV's route radii come from |w18| and |w17| = |w18 / (w18 - 1)|
    # and from |w14| and |w13|, the floats that score III1 and III2: here
    # its preference ties III2's exactly, and table order gives III2.
    @pytest.mark.parametrize("x,rep,want", [
        (0.9733865790434939 - 0.5502674138978345j, R.III2_LOWER,
         complex("7.29192522010312338988407934978+3.20782066271749460971063260646j")),
        (-1.1932800876231728 + 0.8897325861021655j, R.III2_UPPER,
         complex("-166.388400063699965410210209280+31.9029408037577889517053696858j")),
    ])
    def test_fourier_uv_tie_goes_to_table_order(self, x, rep, want):
        p = ParamPair(9.538402571041548, -1.6294666653609529)
        rows = {v.rep: v for v in valid_representations(p, x)}
        assert rows[R.FOURIER_UV].preference == rows[rep].preference
        out = ferrers_q(p, x)
        assert out.rep is rep
        assert rel_diff(out.value, want) < 1e-10

    @pytest.mark.parametrize("nu", [-0.5, 0.5, 2.5])
    def test_fourier_uv_ranked_by_route_taken(self, nu, monkeypatch):
        # a - b = -(nu + 1/2) is an integer, so f21 does not take the 1/w
        # route for FourierUV's factors; ranked as if it did, FourierUV would
        # win most of this grid and reach its value by ODE continuation
        continued, continue_along = [], hyp2f1._continue_along

        def recording(*args):
            continued.append(args)
            return continue_along(*args)

        monkeypatch.setattr(hyp2f1, "_continue_along", recording)
        p = ParamPair(nu, 0.25)
        grid = [k / 10 for k in range(-12, 13)]
        points = [complex(re, im) for re in grid for im in grid if im or abs(re) < 1.0]
        assert len(points) == 619
        with mp.workdps(20):
            for x in points:
                got = ferrers_q(p, x).value
                want = complex(mp.legenq(nu, 0.25, x, type=2))
                assert rel_diff(got, want) < 2e-12, (x, got, want)
        assert not continued

    @pytest.mark.parametrize("x", [2 + 1e-30j, 13.93 + 1e-12j, 1.005 + 1e-9j, 2 + 1e-6j,
                                   13.93 + 1e-2j])
    @pytest.mark.parametrize("rep,nu,mu", [(R.FOURIER_UV, -0.5, 0.25), (R.FOURIER_UV, 0.5, 0.25),
                                           (R.FOURIER_UV, 2.5, 0.25),
                                           (R.III1_LOWER, 0.49, 0.1 + 0.005j),
                                           (R.II6, 2.5, 1.0), (R.II6, 0.5, 0.25)])
    def test_forced_record_next_to_the_cut(self, rep, nu, mu, x):
        # a factor's argument lies just off [1, inf) where no connection
        # route is usable; its ODE continuation goes round w = 1
        got = ferrers_q_rep(rep, ParamPair(nu, mu), x).value
        with mp.workdps(30):
            want = complex(mp.legenq(nu, mu, mp.mpc(x.real, x.imag), type=2))
        assert rel_diff(got, want) < 1e-8

    @pytest.mark.parametrize("x", [1e-300j, 1e-170j])
    def test_tiny_imaginary_x_matches_origin(self, x):
        # x * x underflows to 0 here, so maps 10 and 11 are singular as at 0
        p = ParamPair(0.3, 0.4)
        got, want = ferrers_q(p, x), ferrers_q(p, 0.0)
        assert got.rep is want.rep
        assert rel_diff(got.value, want.value) < 1e-15


class TestBeyondDoubleRange:
    # |x| from 1e2 to 1e300 in both half-planes.  Beyond about 1.3e154, x^2
    # is not a double; from about 50 on, the square-root maps lose digits to
    # cancellation and the scan takes group II instead.
    LARGE_X = [cmath.rect(10.0 ** e, t) for e in (2, 4, 6, 8, 10, 30, 100, 153, 155, 200, 300)
               for t in (0.5, 1.0, math.pi / 2, 2.9, -0.3, -2.0, -math.pi / 2)]

    @pytest.mark.parametrize("nu,mu", [(0.3, 0.4), (1.7, -0.6), (-0.4 + 0.2j, 0.1 + 0.1j)])
    def test_large_x_accurate_or_ferrox_error(self, nu, mu):
        p = ParamPair(nu, mu)
        returned = 0
        for x in self.LARGE_X:
            try:
                got = ferrers_q(p, x).value
            except FerroxError:
                assert abs(x) > 1e154, x
                continue
            want = complex(mp.legenq(nu, mu, x, type=2))
            assert rel_diff(got, want) < 1e-10, (x, got, want)
            returned += 1
        assert returned == 8 * 7

    @pytest.mark.parametrize("rep", THETA_REPS + (R.FOURIER_UV,))
    def test_forced_square_root_maps_refused(self, rep):
        # forced, these records raise the reason valid_representations
        # gives: their maps lose digits at every |x| >= 50 in their domain
        p = ParamPair(-0.4 + 0.2j, 0.1 + 0.1j)
        lost = 0
        for x in self.LARGE_X:
            reason = next(v.reason for v in valid_representations(p, x) if v.rep is rep)
            with pytest.raises(DomainError) as info:
                ferrers_q_rep(rep, p, x)
            assert str(info.value) == f"{reason} (representation {rep.value})"
            lost += reason.endswith("loses its digits")
        domain = DomainId.D1_PLUS if rep in (R.III3_UPPER, R.III3_LOWER) else DomainId.D1
        in_rep_domain = sum(in_domain(domain, x) for x in self.LARGE_X)
        assert lost == in_rep_domain >= 5 * 11

    @pytest.mark.parametrize("call", [ferrers_q, lambda p, x: ferrers_q_rep(R.II3, p, x)],
                             ids=["ferrers_q", "ferrers_q_rep"])
    def test_x_squared_beyond_double_range(self, call):
        with pytest.raises(DomainError, match="x\\^2 is beyond double range"):
            call(ParamPair(0.3, 0.4 + 300j), 1e155j)

    @pytest.mark.parametrize("x", [1e200j, 3e160 + 1e160j])
    def test_rows_invalid_where_x_squared_is_beyond_double_range(self, x):
        # each row gives the reason ferrers_q_rep refuses it for; the records
        # whose maps are usable give the x^2 reason
        p = ParamPair(0.3, 0.4)
        rows = valid_representations(p, x)
        assert not any(v.ok or v.region_ok for v in rows)
        assert all(v.preference == math.inf for v in rows)
        beyond = [v for v in rows if v.reason == f"x^2 is beyond double range at x = {x}"]
        assert {v.rep for v in beyond} >= {R.I1, R.I7, R.II3, R.II6}
        for v in rows:
            with pytest.raises(DomainError) as info:
                ferrers_q_rep(v.rep, p, x)
            assert str(info.value) == f"{v.reason} (representation {v.rep.value})"
        with pytest.raises(DomainError, match="x\\^2 is beyond double range"):
            ferrers_q(p, x)

    # each call used to raise a bare ZeroDivisionError or return NaN or inf
    @pytest.mark.parametrize("call,label", [
        (lambda: legendre_q_bold(ParamPair(300.3, 0.4), 0.01j), "legendre_q_bold"),
        (lambda: legendre_q_bold(ParamPair(300.3, 0.4), 1e-3 + 1e-3j), "legendre_q_bold"),
        (lambda: legendre_q(ParamPair(300.3, 0.4), 0.01j), "legendre_q_bold"),
        (lambda: ferrers_p(ParamPair(400.5 + 1j, -0.3), 3 + 4j), "ferrers_p"),
        (lambda: legendre_p(ParamPair(0.3, 0.4 + 300j), 0.01j), "legendre_p"),
        (lambda: ferrers_q_rep(R.I5, ParamPair(300.3, 0.4), 0.5 + 0.5j), "I5"),
    ], ids=["q_bold_0.01i", "q_bold_1e-3(1+i)", "q", "ferrers_p", "p", "I5"])
    def test_non_finite_is_domain_error(self, call, label):
        with pytest.raises(DomainError, match=f"{label}: .*beyond double range"):
            call()

    # 2 nu or nu + mu overflows, or a 2F1 terminates only after 2e307 terms:
    # each used to raise a bare OverflowError or never return
    @pytest.mark.parametrize("nu,mu", [(1e308, 0.3), (0.3, 1e308), (2e307, 0.3)])
    @pytest.mark.parametrize("call,x", [(ferrers_q, 0.3), (ferrers_p, 0.3), (legendre_p, 2.0),
                                        (legendre_q, 2.0)],
                             ids=["ferrers_q", "ferrers_p", "legendre_p", "legendre_q"])
    def test_huge_parameters_raise_ferrox_error(self, nu, mu, call, x):
        with pytest.raises(FerroxError):
            call(ParamPair(nu, mu), x)

    def test_regularized_limit_past_the_term_budget_returns_at_once(self):
        # c = -m with m about 1e12: the limit's prefactor would take m + 1 products
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="50000-term budget"):
            ferrers_p(ParamPair(1e12, 1e12), -0.37)
        assert time.perf_counter() - start < 1.0

    def test_huge_terminating_degree(self):
        with pytest.raises(NoRepresentationError) as info:
            ferrers_q(ParamPair(2e307, 0.3), 0.3)
        assert any("exceeds the 50000-term budget" in r for r in info.value.reasons.values())

    def test_dispatch_skips_non_finite_candidate(self):
        # II6 wins the scan and returns NaN there; every other candidate
        # overflows too, although the value (about 3e20) is a double
        with pytest.raises(NoRepresentationError) as info:
            ferrers_q(ParamPair(0.3, 0.4 + 300j), 3 + 4j)
        assert "II6: intermediate value beyond double range" in info.value.reasons["II6"]


class TestRefusal:
    # Excluded parameter sets: integer mu, 2 mu, 2 nu and nu + 1/2, and
    # nu + mu in -N, in N and 0; then a pair with nothing excluded.
    PARAMS = [(0.3, 1.0), (0.3, 0.5), (1.0, 0.3), (0.5, 0.25), (-2.3, 0.3), (1.7, 0.3),
              (-0.3, 0.3), (0.3, 0.4)]
    # The real axis inside and outside [-1, 1], Re x <= 0, |x| >= 50, x * x
    # underflowing or beyond double range, and x within 1e-3 of +-1.
    POINTS = [0.3, -0.6, 0.0, 1.5, -3.0, -0.5 + 0.3j, -0.2 - 0.4j, 0.3j, 60.0 + 80.0j,
              -40.0 + 40.0j, 1e-170j, 1e200j, 1 + 5e-4j, -1 - 8e-4j, 0.9995, -0.9995]

    #: The row reasons that name an excluded parameter set.
    PARAMETER_REASONS = {"mu in Z", "2 mu in Z", "2 nu in Z", "nu + 1/2 in Z", "nu + mu in Z",
                         "nu + mu in -N", "nu + mu in -N0", "nu + mu in N"}

    @pytest.mark.parametrize("nu,mu", PARAMS)
    def test_rows_and_forced_calls_agree(self, nu, mu, monkeypatch):
        # a row's reason is what ferrers_q_rep raises; an ok row is never
        # refused: its call reaches the coefficient interpreter, which here
        # raises Reached
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(ferrers, "_coefficient", reached)
        p = ParamPair(nu, mu)
        for x in self.POINTS:
            for v in valid_representations(p, x):
                if v.reason in self.PARAMETER_REASONS:
                    with pytest.raises(ParameterError) as info:
                        ferrers_q_rep(v.rep, p, x)
                    assert str(info.value) == (
                        f"{v.reason} excluded by representation {v.rep.value}")
                elif v.reason is not None:
                    with pytest.raises(DomainError) as info:
                        ferrers_q_rep(v.rep, p, x)
                    assert str(info.value) == f"{v.reason} (representation {v.rep.value})"
                else:
                    with pytest.raises(Reached):
                        ferrers_q_rep(v.rep, p, x)

    @pytest.mark.parametrize("nu,mu", PARAMS)
    def test_ranked_rows_are_those_not_refused(self, nu, mu):
        # _rank ranks exactly the records _refusal lets through, each by
        # the score at its slot
        p = ParamPair(nu, mu)
        for x in self.POINTS:
            x = complex(x)
            outside = ferrers._outside(x)
            scores, slots = ferrers._rank(p, outside, x, 1j * cmath.sqrt(1.0 - x * x))
            assert [scores[k] for k in slots] == sorted(scores[k] for k in slots), x
            ranked = {ferrers._BY_SLOT[k][0] for k in slots}
            unusable = unusable_maps(x)
            for rep, spec in ferrers._REP_TABLE.items():
                refusal = ferrers._refusal(spec, p._excluded, outside, unusable)
                assert (refusal is None) == (rep in ranked), (x, rep)

    @pytest.mark.parametrize("nu,mu", PARAMS)
    @pytest.mark.parametrize("rep", HALFPLANE_REPS)
    def test_halfplane_cut_refuses_as_rows_do(self, rep, nu, mu):
        # on the cut the record's parameter refusal is that of its rows
        p = ParamPair(nu, mu)
        reason = next(v.reason for v in valid_representations(p, 0.3 + 0.2j) if v.rep is rep)
        if reason is None:
            assert cmath.isfinite(ferrers_q_halfplane_cut(rep, p, 0.3).value)
        else:
            with pytest.raises(ParameterError) as info:
                ferrers_q_halfplane_cut(rep, p, 0.3)
            assert str(info.value) == f"{reason} excluded by representation {rep.value}"


class TestLimitOracle:
    @pytest.mark.parametrize("nu,mu,x,want", [
        (0, 0, 0.5, ATANH_HALF),
        (1, 0, 0.5, Q1_HALF),
    ])
    def test_closed_forms(self, nu, mu, x, want):
        got = ferrers_q_via_limit(ParamPair(nu, mu), x, eps=1e-7).value
        assert abs(got - want) < 1e-5

    def test_matches_direct(self):
        p = ParamPair(0.3, 0.4)
        lim = ferrers_q_via_limit(p, 0.2, eps=1e-7).value
        assert abs(lim - ferrers_q(p, 0.2).value) < 1e-5

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ferrers_q_via_limit(ParamPair(0, 0), 1.2)


class TestConnectionRelations:
    @pytest.mark.parametrize("x", [0.2 + 0.3j, 0.2 - 0.3j])
    def test_residuals_small(self, x):
        rs = connection_residuals(ParamPair(0.3, 0.4), x)
        assert len(rs) >= 4
        for name, r in rs:
            assert r < 1e-9, name

    def test_half_order(self):
        rs = dict(connection_residuals(ParamPair(0.25, 0.5), 0.1 + 0.1j))
        assert rs["legendre_pp_upper"] < 1e-9

    def test_on_axis_only_first_kind_pair(self):
        rs = dict(connection_residuals(ParamPair(0.3, 0.4), 0.2))
        assert set(rs) == {"ferrers_first_kind_pair"}
        assert rs["ferrers_first_kind_pair"] < 1e-9


class TestHalfplaneOnCut:
    @pytest.mark.parametrize("rep", HALFPLANE_REPS)
    @pytest.mark.parametrize("approach", [+1, -1])
    def test_boundary_values_reduce_to_on_axis_reps(self, rep, approach):
        p = ParamPair(0.3, 0.4)
        for x in (0.3, 0.62):
            got = ferrers_q_halfplane_cut(rep, p, x, approach).value
            want = ferrers_q(p, x).value
            assert rel_diff(got, want) < 1e-8

    @pytest.mark.parametrize("rep", [r for r in R if r not in HALFPLANE_REPS])
    def test_rejects_on_axis_reps(self, rep):
        with pytest.raises(ValueError):
            ferrers_q_halfplane_cut(rep, ParamPair(0.3, 0.4), 0.3)


class TestOdeResidual:
    @pytest.mark.parametrize("rep,x", [
        (R.I1, 0.3), (R.II3, -0.4), (R.III1_UPPER, 0.25),
        (R.FOURIER_UV, 0.4), (R.II6, 0.2 + 0.3j),
    ])
    def test_representations_solve_the_equation(self, rep, x):
        p = ParamPair(0.3, 0.4)
        res = legendre_ode_residual(
            lambda z: ferrers_q_rep(rep, p, z).value, p.nu, p.mu, x)
        assert res < 1e-4


def _rep_outcome(rep, p, x):
    try:
        return ferrers_q_rep(rep, p, x)
    except FerroxError as exc:
        return type(exc), str(exc)


class TestThreadSafety:
    def test_shared_ln_gamma_memo(self):
        # The ln_gamma memo is shared by every thread.  Four threads (more
        # than the cores of a small machine) evaluate the same inputs in
        # different orders, with a short switch interval, while the memo
        # evicts; each must see exactly the single-threaded results.
        inputs = []
        points = zip(kronecker_points(20, -0.9, 3.0), kronecker_points(20, -0.95, 0.95))
        for k, (u, v) in enumerate(points):
            p = ParamPair(u, complex(-u.imag, 0.3 * u.real - 0.5))
            x = v if k % 2 else complex(v.real, 0.0)
            inputs += [(rv.rep, p, x) for rv in valid_representations(p, x) if rv.ok]
        inputs = inputs[:200]
        assert len(inputs) == 200
        ln_gamma.cache_clear()
        want = [_rep_outcome(*args) for args in inputs]
        # more distinct gamma arguments than the memo holds, so it evicts
        assert ln_gamma.cache_info().misses > ln_gamma.cache_info().maxsize
        results = [None] * 4
        barrier = threading.Barrier(4)

        def work(k):
            order = [(i + 50 * k) % 200 for i in range(200)][::1 if k % 2 else -1]
            barrier.wait()
            got = {}
            for i in order * 3:
                got.setdefault(i, []).append(_rep_outcome(*inputs[i]))
            results[k] = [got[i] for i in range(200)]

        ln_gamma.cache_clear()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert got == [[w] * 3 for w in want]

    def test_shared_unplanned_pairs(self):
        # Four threads share pairs that no call has used yet and sweep x
        # over the real axis and both half-planes in different orders, so
        # they build and fill the same memos at once; each must see exactly
        # the single-threaded results of a fresh pair per call.
        pairs = [(0.3, 0.4), (1.7 - 0.2j, -0.6), (2.5, 1.0), (0.6 + 0.1j, -2.3)]
        xs = [complex(re, im) for re in (-0.7, -0.2, 0.4, 0.8) for im in (-0.5, 0.0, 0.3)]
        jobs = [(k, x) for k in range(len(pairs)) for x in xs]

        def evaluate(p, x):
            return ([_outcome(ferrers_q, p, x)]
                    + [_outcome(ferrers_q_rep, rep, p, x) for rep in PLAN_REPS])

        want = [evaluate(ParamPair(*pairs[k]), x) for k, x in jobs]
        shared = [ParamPair(*pq) for pq in pairs]
        results = [None] * 4
        barrier = threading.Barrier(4)

        def work(t):
            order = list(range(len(jobs)))
            order = order[12 * t:] + order[:12 * t]
            barrier.wait()
            got = {}
            for i in order[::1 if t % 2 else -1]:
                k, x = jobs[i]
                got[i] = evaluate(shared[k], x)
            results[t] = [got[i] for i in range(len(jobs))]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert got == want


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the ``FerroxError`` it
    raises."""
    try:
        return fn(*args)
    except FerroxError as exc:
        return type(exc), str(exc)


# The plan tests: a real pair, a complex one and one with excluded parameter
# sets (mu an integer); x on the real axis and in both half-planes (both
# signs of the half-plane records), and beyond Re x = 1.
PLAN_P = [(0.3, 0.4), (1.3 + 0.5j, -1.7 - 0.3j), (2.5, 1.0)]
PLAN_X = [0.3, -0.6, 0.0, 0.3 + 0.4j, -0.5 + 0.2j, 0.3 - 0.4j, -0.7 - 0.3j, 1.2 + 0.5j]
# One record of each kind: plain, half-plane, regularized with a shared
# factor, fixed sign, and routed.
PLAN_REPS = (R.I1, R.I5, R.II2, R.I7, R.III1_UPPER, R.FOURIER_UV)


class TestPlan:
    """The memo a ``ParamPair`` keeps (``ParamPair._memo``) changes no
    result: one pair reused for every call gives what a fresh pair per call
    gives."""

    @staticmethod
    def calls():
        """Every call of the plan tests, as functions of the pair: for each
        x the automatic choice, all 20 records forced and the validity
        rows, then the theta-forms and both approaches of the cut values."""
        out = []
        for x in PLAN_X:
            out.append(lambda p, x=x: ferrers_q(p, x))
            out += [lambda p, x=x, rep=rep: ferrers_q_rep(rep, p, x) for rep in R]
            out.append(lambda p, x=x: valid_representations(p, x))
        for theta in (0.3, 1.2, 2.5):
            out += [lambda p, t=theta, rep=rep: ferrers_q_rep_trig(rep, p, t) for rep in THETA_REPS]
        for x in (0.3, -0.4):
            for approach in (+1, -1):
                out += [lambda p, x=x, a=approach, rep=rep: ferrers_q_halfplane_cut(rep, p, x, a)
                        for rep in HALFPLANE_REPS]
        return out

    @pytest.mark.parametrize("nu,mu", PLAN_P)
    def test_warm_equals_cold(self, nu, mu):
        calls = self.calls()
        cold = [_outcome(call, ParamPair(nu, mu)) for call in calls]
        p = ParamPair(nu, mu)
        # the first pass fills the memo as x moves; the second is all warm
        warm = [_outcome(call, p) for call in calls]
        again = [_outcome(call, p) for call in reversed(calls)][::-1]
        assert warm == cold
        assert again == cold
        # records -> HypParams, (record, sign g) -> the evaluator compiled
        # for them
        assert {type(key) for key in p._memo} == {ferrers._RepSpec, tuple}
        for key, value in p._memo.items():
            if type(key) is tuple:
                spec, g = key
                assert spec in ferrers._REP_TABLE.values() and g in (-1, 0, 1)
                assert callable(value)
            else:
                assert value and all(isinstance(h, HypParams) for h in value)

    @pytest.mark.parametrize("nu,mu", [(2.3, 0.6), (4.1 + 0.15j, -1.2 - 0.1j)])
    def test_grid_sweep_warm_equals_cold(self, nu, mu):
        # a tabulation: one pair over a real x sweep and a complex grid, in
        # order; a fresh pair per call gives the same values, digit for digit,
        # and the same rows
        xs = ([complex(-0.98 + 1.96 * (i + 0.5) / 60, 0.0) for i in range(60)]
              + [complex(-1.3 + 2.6 * (ix + 0.5) / 12, -0.9 + 1.8 * (iy + 0.5) / 10)
                 for iy in range(10) for ix in range(12)])
        calls = [call for x in xs for call in (lambda p, x=x: ferrers_q(p, x),
                                               lambda p, x=x: valid_representations(p, x))]
        cold = [repr(_outcome(call, ParamPair(nu, mu))) for call in calls]
        p = ParamPair(nu, mu)
        assert [repr(_outcome(call, p)) for call in calls] == cold

    @pytest.mark.parametrize("nu,mu", PLAN_P)
    def test_each_evaluator_compiled_once(self, nu, mu, monkeypatch):
        # every (record, sign) that evaluates is compiled on its first call
        # and never again, whichever function reaches it
        compiled = Counter()

        def counted(spec, p, g):
            compiled[spec, g] += 1
            return compile_(spec, p, g)

        compile_ = ferrers._compile
        monkeypatch.setattr(ferrers, "_compile", counted)
        p = ParamPair(nu, mu)
        calls = self.calls() + [lambda p, f=f, z=z: f(p, z) for f in (ferrers_p, legendre_p,
                                                                     legendre_q_bold)
                                for z in (0.3 + 0.2j, 1.5 + 0.2j, -1.4 - 0.3j)]
        for _ in range(2):
            for call in calls:
                _outcome(call, p)
        assert compiled and set(compiled.values()) == {1}
        assert set(compiled) == {key for key in p._memo if type(key) is tuple}
        # both signs of a half-plane record that evaluates (x lies in both
        # half-planes), the one sign of the others
        for spec, g in compiled:
            if spec.sign is ferrers._Sign.HALFPLANE:
                assert (spec, -g) in compiled
            else:
                assert g == spec.sign.value

    def test_shared_factor_is_one_object(self):
        p, x = ParamPair(0.3, 0.4), 0.2 + 0.3j
        rows = {v.rep: v for v in valid_representations(p, x)}
        memo = p._memo
        fourier = memo[ferrers._REP_TABLE[R.FOURIER_UV]]
        # FourierUV was scored with its factor's route radius
        assert rows[R.FOURIER_UV].preference == hyp2f1.route_radius(
            fourier[0], argument(18, x))
        ferrers_q_rep(R.FOURIER_UV, p, x)
        ferrers_q_rep(R.I7, p, x)
        ferrers_q_rep(R.I1, p, x)
        assert memo[ferrers._REP_TABLE[R.FOURIER_UV]] is fourier
        assert fourier[0] is fourier[1]
        i7 = memo[ferrers._REP_TABLE[R.I7]]
        assert i7[0] is i7[1]
        i1 = memo[ferrers._REP_TABLE[R.I1]]
        assert i1[0] != i1[1]

    def test_errors_are_not_stored(self):
        # Gamma(nu + mu + 1) is beyond double range at this degree
        p = ParamPair(300.3, 0.4)
        for _ in range(2):
            with pytest.raises(ParameterError, match="gamma quotient beyond double range"):
                ferrers_q_rep(R.FOURIER_UV, p, 0.3)
        fourier = ferrers._REP_TABLE[R.FOURIER_UV]
        assert not any(isinstance(key, tuple) and key[0] is fourier for key in p._memo)
        assert ferrers_q_rep(R.I1, p, 0.3) == ferrers_q_rep(R.I1, ParamPair(300.3, 0.4), 0.3)

    def test_pair_keeps_equality_hash_repr_and_pickle(self):
        p, fresh = ParamPair(0.3 + 0.1j, 0.4), ParamPair(0.3 + 0.1j, 0.4)
        before = hash(p), repr(p)
        ferrers_q(p, 0.5)
        valid_representations(p, 0.3j)
        assert p._memo is p._memo and p._memo
        assert p == fresh
        assert (hash(p), repr(p)) == before == (hash(fresh), repr(fresh))
        # the memo is not pickled: the bytes are those of an unused pair
        assert pickle.dumps(p) == pickle.dumps(fresh)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
        assert ferrers_q(q, 0.5) == ferrers_q(p, 0.5)

    def test_one_term_records_test_no_exclusion(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return exclusions(p)

        exclusions = ferrers._exclusions
        monkeypatch.setattr(ferrers, "_exclusions", counted)
        p = ParamPair(0.3, 0.4)
        ferrers_p(p, 0.5)
        legendre_p(p, 1.5 + 0.2j)
        legendre_q_bold(p, 1.5 + 0.2j)
        assert calls == []
        ferrers_q(p, 0.5)
        ferrers_q(p, 0.7)
        assert len(calls) == 1

    def test_second_pass_does_no_parameter_work(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            return counted

        for name in ("log_gamma_quotient", "sinpi", "cospi", "_exclusions"):
            monkeypatch.setattr(ferrers, name, counting(name, getattr(ferrers, name)))
        monkeypatch.setattr(ferrers, "_TRIG", {
            key: (counting(f.__name__, f), divide) for key, (f, divide) in ferrers._TRIG.items()})
        p = ParamPair(2.3 + 0.1j, 0.6)
        xs = ([complex(k / 10, 0.0) for k in range(-9, 10)]
              + [complex(re / 5, im / 5) for re in range(-5, 6) for im in (-3, -1, 1, 3)])
        first = [ferrers_q(p, x) for x in xs]
        assert counts["_exclusions"] == 1
        assert counts["log_gamma_quotient"] and counts["sinpi"] + counts["cospi"]
        counts.clear()
        assert [ferrers_q(p, x) for x in xs] == first
        assert not counts


# Records checked one by one against mpmath: real and complex degree and
# order, |mu| up to 2.3, none of them excluded by any record.
ORACLE_P = [(0.3, 0.4), (1.7, -0.6), (-0.4 + 0.2j, 0.1 + 0.1j), (0.6, -2.3),
            (1.3 + 0.5j, -1.7 - 0.3j), (2.2 - 0.3j, 2.3 + 0.2j)]
# The real axis inside (-1, 1) and both half-planes, with points in the
# regions of I5, I6 (|1 -+ x| > 2) and III3 (near x = 1, and Re x > 1).
ORACLE_X = [0.3, -0.45, 0.62, 0.85, 0.93, -0.8, 0.3 + 0.4j, -0.5 + 0.2j, 0.7 + 0.3j,
            1.1 + 0.2j, 1.6 + 0.5j, -1.6 + 0.5j, 0.3 - 0.4j, -0.5 - 0.2j, 0.7 - 0.3j,
            1.1 - 0.2j, 1.4 - 0.8j, -1.4 - 0.8j, 1.2 + 0.5j, -0.9 - 0.6j]


def _legenq(p, x):
    return complex(mp.legenq(p.nu, p.mu, x, type=2))


class TestRecordOracle:
    """Each of the 20 records against mpmath.legenq (type 2) to 1e-10,
    wherever its series converge (``region_ok``); FourierUV, whose factors
    f21 moves to a smaller argument first, wherever it is ``ok``."""

    @pytest.mark.parametrize("rep", list(R))
    def test_x_forms(self, rep):
        checked = 0
        for nu, mu in ORACLE_P:
            p = ParamPair(nu, mu)
            for x in ORACLE_X:
                v = next(v for v in valid_representations(p, x) if v.rep is rep)
                if not (v.region_ok or v.ok and rep is R.FOURIER_UV):
                    continue
                got = ferrers_q_rep(rep, p, x).value
                assert rel_diff(got, _legenq(p, x)) < 1e-10, (nu, mu, x)
                checked += 1
        assert checked >= 10

    # the maps 14 and 18 of III2 converge only off the real axis
    @pytest.mark.parametrize("rep", [R.III1_UPPER, R.III1_LOWER, R.III3_UPPER, R.III3_LOWER])
    def test_theta_forms(self, rep):
        checked = 0
        for nu, mu in ORACLE_P:
            p = ParamPair(nu, mu)
            for theta in (0.2, 0.3, 0.5, 0.7, 1.1, 1.5, 1.9, 2.4, 2.8):
                x = math.cos(theta)
                v = next(v for v in valid_representations(p, x) if v.rep is rep)
                if not v.region_ok:
                    continue
                got = ferrers_q_rep_trig(rep, p, theta).value
                assert rel_diff(got, _legenq(p, x)) < 1e-10, (nu, mu, theta)
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("approach", [+1, -1])
    @pytest.mark.parametrize("rep", HALFPLANE_REPS)
    def test_halfplane_cut_forms(self, rep, approach):
        # the argument lies on its cut (1, inf) at every real x in (-1, 1),
        # where each factor is its one-sided limit
        for nu, mu in ORACLE_P:
            p = ParamPair(nu, mu)
            for x in (-0.8, -0.45, -0.1, 0.3, 0.62, 0.85):
                got = ferrers_q_halfplane_cut(rep, p, x, approach).value
                assert rel_diff(got, _legenq(p, x)) < 1e-10, (nu, mu, x)


NAN_X = [complex(math.nan, 0.0), complex(0.3, math.nan), complex(math.nan, 0.2)]


class TestNonFiniteArguments:
    @pytest.fixture(autouse=True)
    def no_series(self, monkeypatch):
        # a NaN argument must be refused before any 2F1 factor is summed
        def summed(*args):
            raise AssertionError("a series was summed")

        for name in ("f21", "f21_regularized", "f21_cut"):
            monkeypatch.setattr(ferrers, name, summed)
        monkeypatch.setattr(hyp2f1, "f21_series", summed)
        monkeypatch.setattr(hyp2f1, "_series", summed)

    @pytest.mark.parametrize("x", NAN_X, ids=["nan", "0.3+nan_i", "nan+0.2i"])
    def test_nan_x_is_domain_error(self, x):
        p = ParamPair(0.3, 0.4)
        calls = ([ferrers_p, legendre_p, legendre_q, legendre_q_bold, ferrers_q,
                  connection_residuals]
                 + [lambda p, x, rep=rep: ferrers_q_rep(rep, p, x) for rep in R]
                 + [lambda p, x, oid=oid: olbricht.eval_olbricht(oid, p, x)
                    for oid in olbricht.ALL_IDS])
        for call in calls:
            with pytest.raises(DomainError):
                call(p, x)

    @pytest.mark.parametrize("call", [
        ferrers_q_via_limit, lambda p, x: ferrers_q_rep_trig(R.III1_UPPER, p, x),
    ] + [lambda p, x, rep=rep: ferrers_q_halfplane_cut(rep, p, x) for rep in HALFPLANE_REPS])
    def test_nan_real_argument_is_domain_error(self, call):
        # x, or theta for the theta-forms
        with pytest.raises(DomainError):
            call(ParamPair(0.3, 0.4), math.nan)

    @pytest.mark.parametrize("x", NAN_X, ids=["nan", "0.3+nan_i", "nan+0.2i"])
    def test_nan_x_rows_are_invalid(self, x):
        rows = valid_representations(ParamPair(0.3, 0.4), x)
        assert len(rows) == len(R)
        for v in rows:
            assert not v.ok and not v.region_ok
            assert v.reason == f"x = {x} is not a number"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                                     complex(0.3, math.nan)],
                             ids=["nan", "inf", "-inf", "i_inf", "0.3+nan_i"])
    @pytest.mark.parametrize("slot", ["nu", "mu"])
    def test_non_finite_parameters(self, bad, slot):
        args = {"nu": 0.3, "mu": 0.4, slot: bad}
        with pytest.raises(ParameterError, match="must be finite"):
            ParamPair(**args)

    # complex() of an integer beyond double range raises a bare
    # OverflowError; it is refused as non-finite instead
    @pytest.mark.parametrize("huge", [10 ** 400, -10 ** 400], ids=["1e400", "-1e400"])
    @pytest.mark.parametrize("slot", ["nu", "mu"])
    def test_huge_integer_parameters(self, huge, slot):
        with pytest.raises(ParameterError, match="must be finite"):
            ParamPair(**{"nu": 0.3, "mu": 0.4, slot: huge})

    @pytest.mark.parametrize("call", [ferrers_q, lambda p, x: ferrers_q_rep(R.II3, p, x)],
                             ids=["ferrers_q", "ferrers_q_rep"])
    @pytest.mark.parametrize("x", [10 ** 400, -10 ** 400], ids=["1e400", "-1e400"])
    def test_huge_integer_x_is_domain_error(self, call, x):
        with pytest.raises(DomainError, match="x not in D1"):
            call(ParamPair(0.3, 0.4), x)


class TestCoefficient:
    """The rules of ``_coefficient`` and ``_coefficients_at``, the one
    interpreter of coefficient records (parameter part, then x-part): those
    of ``gamma_quotient`` for its gammas and those of ``principal_pow`` for
    its powers."""

    @staticmethod
    def value(coef, x=0.3 + 0.2j, nu=0.3, mu=0.4):
        tags = [tag for tag, _ in coef.powers]
        part = ferrers._coefficient(coef, complex(nu), complex(mu), 1)
        return ferrers._coefficients_at([part], tags, complex(x), 0.5j, 1)[0]

    def test_matches_gamma_quotient_and_powers(self):
        coef = ferrers.Coefficient(0.5, gammas=((1, 1, 1),), rgammas=((1, 1, -1),),
                                   powers=(("x+1", (0, 1, 0)), ("2", (0, 0, -1))),
                                   phase=(0, 0, 1), trig=(("1/cos", (0, 1, 0)),))
        nu, mu, x = 0.3, 0.4, 0.3 + 0.2j
        want = (0.5 * gamma_quotient((nu + mu + 1,), (nu - mu + 1,))
                * principal_pow(1 + x, nu) * principal_pow(2.0, -mu)
                * cmath.exp(1j * math.pi * mu) / cmath.cos(math.pi * nu))
        assert rel_diff(self.value(coef), want) < 1e-14

    def test_denominator_pole_gives_zero(self):
        assert self.value(ferrers.Coefficient(rgammas=((-2, 0, 0),))) == 0

    @pytest.mark.parametrize("z", [3e-9, -1.0 - 2e-9, -3.0 + 5e-9 + 4e-10j])
    def test_denominator_near_pole(self, z):
        # ln_gamma takes its reflection at the exact distance to the pole
        got = self.value(ferrers.Coefficient(rgammas=((0, 0, 1),)), mu=z)
        want = complex(mp.rgamma(mp.mpc(z)))
        assert rel_diff(got, want) < 1e-13

    def test_gamma_part_beyond_double_range(self):
        with pytest.raises(ParameterError, match="gamma quotient beyond double range"):
            self.value(ferrers.Coefficient(gammas=((300, 0, 0),)))

    def test_other_overflow_is_arithmetic_error(self):
        # a power beyond double range; _guarded makes it a DomainError
        with pytest.raises(OverflowError):
            self.value(ferrers.Coefficient(powers=(("2", (2000, 0, 0)),)))

    @pytest.mark.parametrize("x,expo,want", [(0.0, (2, 0, 0), 0.0), (-0.5, (3, 0, 0), -0.125)])
    def test_zero_and_negative_bases(self, x, expo, want):
        assert self.value(ferrers.Coefficient(powers=(("x", expo),)), x=x) == want

    @pytest.mark.parametrize("x,expo,exc", [(0.0, (-1, 0, 0), DomainError),
                                            (-0.5, (0.5, 0, 0), BranchCutError)])
    def test_branch_rules(self, x, expo, exc):
        with pytest.raises(exc):
            self.value(ferrers.Coefficient(powers=(("x", expo),)), x=x)
