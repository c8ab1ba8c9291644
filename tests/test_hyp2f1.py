import cmath
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kronecker_reals, rel_diff
from ferrox import hyp2f1
from ferrox.errors import (
    BeyondRangeError,
    BranchCutError,
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    ParameterError,
)
from ferrox.hyp2f1 import (
    CutSide,
    HypParams,
    f21,
    f21_cut,
    f21_cut_via,
    f21_regularized,
    f21_series,
    route_radius,
)


def poly_2f1_oracle(a: int, b: float, c: float, w: complex) -> complex:
    """Independent terminating-series oracle: explicit rising-factorial
    products, no shared code with the implementation."""
    total = 0.0 + 0.0j
    for n in range(-a + 1):
        num = den = 1.0
        for k in range(n):
            num *= (a + k) * (b + k)
            den *= (c + k) * (k + 1)
        total += num / den * w ** n
    return total


class TestSeries:
    def test_empty_argument(self):
        r = f21_series(HypParams(0.7, -1.3, 2.2), 0.0)
        assert r.value == 1.0
        assert r.tail_estimate == 0.0

    def test_log_closed_form(self):
        # 2F1(1,1;2;w) = -log(1-w)/w
        r = f21_series(HypParams(1, 1, 2), 0.5, tol=1e-14)
        assert abs(r.value - 2.0 * math.log(2.0)) < 1e-12

    def test_terminating_polynomial(self):
        r = f21_series(HypParams(-2, 5, 1), 0.3)
        assert r.value == pytest.approx(poly_2f1_oracle(-2, 5.0, 1.0, 0.3))
        assert r.value.real == pytest.approx(-0.65)
        assert r.tail_estimate == 0.0

    def test_c_pole_rejected(self):
        with pytest.raises(ParameterError):
            f21_series(HypParams(0.5, 0.5, -2.0), 0.3)

    def test_termination_before_c_pole_allowed(self):
        # a = -2 terminates at n = 2 before the c = -3 pole at n = 4
        r = f21_series(HypParams(-2, 1.5, -3.0), 0.4)
        assert r.value == pytest.approx(poly_2f1_oracle(-2, 1.5, -3.0, 0.4))

    def test_divergent_argument_rejected(self):
        with pytest.raises(ConvergenceError):
            f21_series(HypParams(0.5, 0.5, 1.5), 1.2)

    def test_tail_estimate_below_tol(self):
        r = f21_series(HypParams(0.3, 1.7, 2.9), 0.6, tol=1e-10)
        assert r.tail_estimate <= 1e-10

    @pytest.mark.parametrize("fn", [f21, f21_series, f21_regularized])
    def test_polynomial_beyond_term_budget(self, fn):
        # -2e307 is an exact integer as a double: the series terminates, but
        # only after far more than MAX_TERMS terms
        with pytest.raises(ConvergenceError, match="exceeds the 50000-term budget"):
            fn(HypParams(-2e307, 1.0, 1.5), 0.3)


class TestF21:
    def test_log_form_left_of_disk(self):
        r = f21(HypParams(1, 1, 2), -3.0)
        assert abs(r.value - math.log(4.0) / 3.0) < 1e-12

    def test_unit_at_origin(self):
        assert f21(HypParams(0.5, 0.7, 1.3), 0.0).value == 1.0

    def test_log_form_far_field(self):
        w = 0.5 + 10.0j
        want = -cmath.log(1.0 - w) / w
        assert abs(f21(HypParams(1, 1, 2), w).value - want) < 1e-11 * abs(want)

    def test_triple_point(self):
        # all candidate arguments have modulus 1 here; continuation covers it
        w = cmath.exp(1j * math.pi / 3.0)
        got = f21(HypParams(1, 1, 2), w).value
        want = -cmath.log(1.0 - w) / w
        assert abs(got - want) < 1e-11

    def test_cut_rejected(self):
        with pytest.raises(BranchCutError):
            f21(HypParams(0.5, 0.5, 1.5), 1.7)
        with pytest.raises(BranchCutError):
            f21(HypParams(0.5, 0.5, 1.5), 1.0)

    def test_polynomial_any_argument(self):
        want = poly_2f1_oracle(-3, 2.2, 0.7, 5.5)
        assert f21(HypParams(-3, 2.2, 0.7), 5.5).value == pytest.approx(want)

    @pytest.mark.parametrize("w", [0.3 + 0.4j, -0.8, 0.7j, 2.5j, -4.0 + 1.0j,
                                   0.95, 1.0 + 1.0j, -20.0])
    def test_route_consistency_log_form(self, w):
        want = -cmath.log(1.0 - w) / w
        got = f21(HypParams(1, 1, 2), w).value
        assert abs(got - want) <= 1e-11 * (1.0 + abs(want))

    @pytest.mark.parametrize("a,b,c,w", [
        (0.75, 1.75, 2.0, 13.93 + 1e-12j), (0.75, 1.75, 2.0, 13.93 - 1e-12j),
        (-0.25, -1.25, 1.5, 13.93 + 0.01j), (-0.25, -1.25, 1.5, 2 + 1e-6j),
        (-0.25, -1.25, 1.5, 13.93 + 1e-12j), (0.3, 1.3, 0.9, 13.93 + 1e-6j)])
    def test_ode_goes_round_w_1_next_to_the_cut(self, ode_targets, a, b, c, w):
        # no connection route is usable: the one ODE path, f21_cut's, goes
        # round w = 1 on the side of Im w (a path along w/|w| runs by w = 1
        # and stalls or loses digits here)
        p = HypParams(a, b, c)
        assert mp_rel_err(f21(p, w).value, p, w) < 1e-10
        assert ode_targets == [w]

    def test_ode_step_stays_finite_far_out(self):
        # 0.4 * d * rem would overflow once |rem| * d passes 1e308: the step
        # is scaled from the unit direction rem / |rem|, so a stall names a
        # finite one
        with pytest.raises(ConvergenceError, match="stalled") as err:
            f21(HypParams(0.75, 1.75, 2.0), 1e300 + 1j)
        h = complex(str(err.value).rpartition("h=")[2])
        assert cmath.isfinite(h) and h != 0


def mp_rel_err(got: complex, p: HypParams, w: complex) -> float:
    """Relative error of ``got`` against mpmath's 2F1 at 30 digits."""
    with mp.workdps(30):
        want = complex(mp.hyp2f1(p.a, p.b, p.c, w))
    return abs(got - want) / abs(want)


@pytest.fixture
def ode_targets(monkeypatch):
    """End points of every ODE continuation path taken during the test."""
    targets = []
    inner = hyp2f1._continue_along

    def counting(p, w, side, tol):
        targets.append(w)
        return inner(p, w, side, tol)

    monkeypatch.setattr(hyp2f1, "_continue_along", counting)
    return targets


#: a - b = -1 - delta (a two-term formula in 1/w or 1/(1-w) divides by it),
#: and c - a - b = 1 + delta (the same for 1-w and 1-1/w).
NEAR_DEGENERATE = {
    "a-b": lambda d: HypParams(0.3, 1.3 + d, 0.9),
    "c-a-b": lambda d: HypParams(0.3, 0.45, 1.75 + d),
}
NEAR_DEGENERATE_W = [2 + 0.5j, -3.0, -1.5 + 1j, 5j] + [
    0.999 * cmath.exp(1j * t) for t in (0.3, 0.8, 1.4, 2.0, 2.8)]


@pytest.mark.parametrize("delta", [2e-8, 1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("family", sorted(NEAR_DEGENERATE))
class TestNearIntegerDifferences:
    """Two-term formulas near an integer parameter difference cancel; the
    routes must avoid them there instead of returning their error."""

    def test_principal_values(self, family, delta):
        p = NEAR_DEGENERATE[family](delta)
        for w in NEAR_DEGENERATE_W:
            assert mp_rel_err(f21(p, w).value, p, w) <= 1e-12, w

    @pytest.mark.parametrize("side,eps", [(CutSide.ABOVE, 1e-30), (CutSide.BELOW, -1e-30)],
                             ids=["above", "below"])
    def test_cut_values(self, family, delta, side, eps):
        p = NEAR_DEGENERATE[family](delta)
        got = f21_cut(p, 2.5, side).value
        assert mp_rel_err(got, p, mp.mpc(2.5, eps)) <= 1e-12


ROUTE_PARAMS = [HypParams(0.3, 0.7, 1.9), HypParams(0.3 + 0.2j, -1.7, 0.55)]


class TestConnectionRoutes:
    @pytest.mark.parametrize("r", [0.999, 1.0])
    @pytest.mark.parametrize("theta", [0.3, 0.8, 1.4, 2.0, 2.8, -0.3, -1.4, -2.8])
    def test_near_unit_circle_without_ode(self, ode_targets, r, theta):
        w = r * cmath.exp(1j * theta)
        for p in ROUTE_PARAMS:
            assert mp_rel_err(f21(p, w).value, p, w) <= 1e-12
        assert ode_targets == []

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("offset", [0.0, 0.049, -0.049, 0.049j, -0.049j, 0.035 + 0.035j])
    def test_near_triple_point_by_ode(self, ode_targets, sign, offset):
        w = cmath.exp(sign * 1j * math.pi / 3.0) + offset
        for p in ROUTE_PARAMS:
            assert mp_rel_err(f21(p, w).value, p, w) <= 1e-12
        assert ode_targets == [w] * len(ROUTE_PARAMS)

    @pytest.mark.parametrize("a,radius", [(1.1, 1.0 / 3.0), (1.25, 0.75), (1.255, 0.75)])
    def test_route_radius_is_first_choice(self, a, radius):
        # at w = -3 the first choice is 1/w when a - b is CONNECTION_GAP off
        # the integers, else Pfaff's w/(w-1)
        assert route_radius(HypParams(a, 0.25, 1.4), -3.0) == pytest.approx(radius)


EULER_SAMPLES = [
    (0.3, 0.7, 1.9, 0.5 + 0.4j),
    (-1.2, 2.1, 0.8, -0.6 + 0.2j),
    (1.4 + 0.3j, 0.2 - 0.5j, 2.5 + 0.1j, 0.3 - 0.6j),
    (2.2, -0.4, 1.1, -0.75),
    (0.9, 1.8, 3.3, 0.78j),
]


class TestTransformIdentities:
    @pytest.mark.parametrize("a,b,c,w", EULER_SAMPLES)
    def test_euler(self, a, b, c, w):
        lhs = f21(HypParams(a, b, c), w).value
        pref = (1.0 - w) ** complex(c - a - b)
        rhs = pref * f21(HypParams(c - a, c - b, c), w).value
        assert rel_diff(lhs, rhs) < 1e-9

    @pytest.mark.parametrize("a,b,c,w", EULER_SAMPLES)
    def test_pfaff_a(self, a, b, c, w):
        lhs = f21(HypParams(a, b, c), w).value
        rhs = (1.0 - w) ** complex(-a) * f21(HypParams(a, c - b, c), w / (w - 1.0)).value
        assert rel_diff(lhs, rhs) < 1e-9

    @pytest.mark.parametrize("a,b,c,w", EULER_SAMPLES)
    def test_pfaff_b(self, a, b, c, w):
        lhs = f21(HypParams(a, b, c), w).value
        rhs = (1.0 - w) ** complex(-b) * f21(HypParams(b, c - a, c), w / (w - 1.0)).value
        assert rel_diff(lhs, rhs) < 1e-9


class TestRegularized:
    def test_scaling(self):
        r = f21_regularized(HypParams(1, 1, 2), 0.5)
        assert abs(r.value - 2.0 * math.log(2.0)) < 1e-12

    def test_unit(self):
        assert f21_regularized(HypParams(2.3, -0.7, 1.0), 0.0).value == pytest.approx(1.0)

    def test_nonpositive_c_limit(self):
        # limit value matches the perturbed ratio at c = 1e-6
        got = f21_regularized(HypParams(1, 1, 0), 0.5).value
        eps = 1e-6
        approx = f21_regularized(HypParams(1, 1, eps), 0.5).value
        assert abs(got - approx) < 1e-4
        got2 = f21_regularized(HypParams(0.7, -1.9, -2.0), 0.3).value
        approx2 = f21_regularized(HypParams(0.7, -1.9, -2.0 + eps), 0.3).value
        assert abs(got2 - approx2) < 1e-4

    def test_limit_past_the_term_budget(self):
        # the limit's prefactor (a)_(m+1) (b)_(m+1) would take m + 1 products
        with pytest.raises(ConvergenceError, match="50000-term budget"):
            f21_regularized(HypParams(0.3, 0.4, -50_000.0), 0.5)


def _cut_param_sets(n):
    out = []
    reals = kronecker_reals(3 * n, -2.5, 3.5)
    i = 0
    while len(out) < n:
        a, b, c = reals[3 * i % len(reals)], reals[(3 * i + 1) % len(reals)], \
            reals[(3 * i + 2) % len(reals)] + 1.3
        i += 1
        if min(abs(a - b - round(a - b)), abs(c - a - b - round(c - a - b))) < 0.05:
            continue
        if abs(c - round(c)) < 0.05 and round(c) <= 0:
            continue
        if min(abs(a - round(a)), abs(b - round(b))) < 0.02:
            continue
        out.append((a, b, c))
    return out


class TestCutValues:
    def test_log_case_above_below(self):
        # 2F1(1,1;2;2 +- i0) = -log(-1 -+ i0)/2 = +- i pi / 2
        above = f21_cut(HypParams(1, 1, 2), 2.0, CutSide.ABOVE).value
        below = f21_cut(HypParams(1, 1, 2), 2.0, CutSide.BELOW).value
        assert abs(above - 0.5j * math.pi) < 1e-10
        assert abs(below + 0.5j * math.pi) < 1e-10

    def test_polynomial_has_no_cut(self):
        want = poly_2f1_oracle(-2, 5.0, 1.0, 3.0)
        above = f21_cut(HypParams(-2, 5, 1), 3.0, CutSide.ABOVE).value
        below = f21_cut(HypParams(-2, 5, 1), 3.0, CutSide.BELOW).value
        plain = f21(HypParams(-2, 5, 1), 3.0).value
        assert above == below == pytest.approx(want)
        assert want.real == pytest.approx(106.0)
        assert plain == pytest.approx(want)

    def test_four_formulas_agree(self):
        for a, b, c in _cut_param_sets(25):
            for x in (1.17, 2.4, 4.6):
                vals = [f21_cut_via(k, HypParams(a, b, c), x, CutSide.ABOVE).value
                        for k in (1, 2, 3, 4)]
                for i in range(4):
                    for j in range(i + 1, 4):
                        assert rel_diff(vals[i], vals[j]) < 1e-8

    def test_matches_off_axis_limit(self):
        for a, b, c in _cut_param_sets(10):
            x = 2.3
            cut = f21_cut(HypParams(a, b, c), x, CutSide.ABOVE).value
            near = f21(HypParams(a, b, c), complex(x, 1e-7)).value
            assert rel_diff(cut, near) < 1e-5

    def test_schwarz_reflection(self):
        for a, b, c in _cut_param_sets(10):
            above = f21_cut(HypParams(a, b, c), 1.8, CutSide.ABOVE).value
            below = f21_cut(HypParams(a, b, c), 1.8, CutSide.BELOW).value
            assert abs(above - below.conjugate()) <= 1e-12 * (1.0 + abs(above))

    def test_degenerate_formula_raises_per_theorem(self):
        with pytest.raises(DegenerateParameterError):
            f21_cut_via(1, HypParams(1.0, 2.0, 0.7), 2.0, CutSide.ABOVE)
        with pytest.raises(DegenerateParameterError):
            f21_cut_via(2, HypParams(0.4, 0.6, 2.0), 2.0, CutSide.ABOVE)

    def test_x_inside_disk_rejected(self):
        from ferrox.errors import DomainError
        with pytest.raises(DomainError):
            f21_cut(HypParams(0.5, 0.5, 1.5), 0.5, CutSide.ABOVE)


class TestParameterFacts:
    """``HypParams`` works out its parameter-only facts once: they are not
    fields, so ``==``, ``hash`` and ``repr`` are those of (a, b, c), and a
    second ``f21`` on the same parameters tests none of them again."""

    @pytest.mark.parametrize("params,degree,c_pole,gapped", [
        ((0.3, 0.7, 1.9), None, None, ("a-b", "c-a-b")),
        ((-3, 2.2, 0.7), 3, None, ("a-b", "c-a-b")),
        ((2.2, -4, -6.0), 4, 6, ("a-b", "c-a-b")),
        ((0.3, 1.3, 0.9), None, None, ("c-a-b",)),
        ((0.3, 0.45, 1.75), None, None, ("a-b",)),
        ((1, 1, 0), None, 0, ()),
    ])
    def test_facts(self, params, degree, c_pole, gapped):
        p = HypParams(*params)
        assert (p.degree, p.c_pole, p.gapped) == (degree, c_pole, gapped)
        a, b, c = params
        assert p.pfaff == HypParams(a, c - b, c) and p.pfaff is p.pfaff

    @pytest.mark.parametrize("params", [(0.3, 0.7, 1.9), (-3, 2.2, 0.7), (0.3 + 0.2j, -1.7, 0.55)])
    def test_facts_are_not_fields(self, params):
        used, fresh = HypParams(*params), HypParams(*params)
        for w in (0.3, -0.95 + 0.1j, -3.0, 0.5 + 0.8j, 1.5 + 1e-3j):
            f21(used, w)
        used.pfaff, used.gapped  # each kept on first use
        assert {"degree", "c_pole", "pfaff", "gapped"} <= set(vars(used))
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        # the fields are (a, b, c) alone: a pickle carries them and nothing kept
        assert used._fields == ("a", "b", "c")
        assert used.__reduce__() == (HypParams, (used.a, used.b, used.c))

    # a direct, a Pfaff and a terminating point
    @pytest.mark.parametrize("params,w", [((0.3, 0.7, 1.9), 0.3 + 0.2j),
                                          ((0.3, 0.7, 1.9), -0.95 + 0.1j),
                                          ((-3, 2.2, 0.7), 5.5)])
    def test_second_call_tests_no_parameter(self, monkeypatch, params, w):
        p = HypParams(*params)
        first = f21(p, w)
        calls = []

        def counted(fn):
            def call(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return call

        for name in ("nonpos_index", "near_int"):
            monkeypatch.setattr(hyp2f1, name, counted(getattr(hyp2f1, name)))
        assert f21(p, w) == first
        assert calls == []


class TestConnectionFacts:
    """Each ``HypParams`` keeps, per connection record, each term's gamma
    quotient and parameters, and the shifted parameters of the ODE start:
    a second call on the same object forms none of them again."""

    ROUTES = {-3.0: (1, 0), 0.95: (2, 0), 0.5 + 0.85j: "shifted"}  # 1/w, 1 - w, ODE

    @pytest.mark.parametrize("w", list(ROUTES))
    def test_second_call_forms_no_term(self, monkeypatch, w):
        p = HypParams(0.3, 0.7, 1.9)
        first = f21(p, w)
        kept = self.ROUTES[w]
        assert kept in (vars(p) if kept == "shifted" else p.connection_terms)
        calls = []

        def counted(fn):
            def call(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return call

        for name in ("gamma_quotient", "nonpos_index", "near_int"):
            monkeypatch.setattr(hyp2f1, name, counted(getattr(hyp2f1, name)))
        assert f21(p, w) == first
        assert calls == []

    def test_kept_terms_give_the_values_of_fresh_ones(self):
        used = HypParams(0.3 + 0.1j, -1.7, 0.55)
        for w in (-3.0, 0.95, -0.6 + 1.4j, 0.5 + 0.85j, 4.0 + 1e-3j):
            assert f21(used, w) == f21(used, w) == f21(HypParams(0.3 + 0.1j, -1.7, 0.55), w)
        for n in (1, 2, 3, 4):
            for side in CutSide:
                assert (f21_cut_via(n, used, 1.7, side)
                        == f21_cut_via(n, HypParams(0.3 + 0.1j, -1.7, 0.55), 1.7, side))

    def test_term_that_raises_is_not_kept(self):
        # the second term's Gamma(c) Gamma(a + b - c) / (Gamma(a) Gamma(b)) is
        # beyond double range, the first term's is not
        p = HypParams(600.1, 600.1, 1.9)
        raised = []
        for _ in range(2):
            with pytest.raises(ParameterError, match="gamma quotient beyond double range") as info:
                f21_cut_via(2, p, 1.7, CutSide.ABOVE)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert sorted(p.connection_terms) == [(2, 0)]

    def test_term_params_are_formed_after_its_powers(self):
        # the first term's a - b + 1 is inf, but its |1 - w| ** -a leaves double
        # range first, and that is the error raised, on a fresh and a used object
        p = HypParams(5e307, -1.7e308, 0.3)
        for _ in range(2):
            with pytest.raises(DomainError) as info:
                f21_cut_via(4, p, 1.7, CutSide.ABOVE)
            assert str(info.value) == "|1-w| ** (-5e+307-0j) at w=1.7 is beyond double range"

    def test_used_params_keep_equality_hash_repr_and_pickle(self):
        used, fresh = HypParams(0.3, 0.7, 1.9), HypParams(0.3, 0.7, 1.9)
        before = hash(used), repr(used)
        values = [f21(used, w) for w in self.ROUTES]
        assert [f21(used, w) for w in self.ROUTES] == values
        assert {"connection_terms", "shifted", "gapped"} <= set(vars(used))
        assert used.shifted.ratios and used.connection_terms[2, 0][1].ratios
        assert used == fresh
        assert (hash(used), repr(used)) == before == (hash(fresh), repr(fresh))
        # the kept facts are not pickled: the bytes are those of an unused object
        assert pickle.dumps(used) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert back == used and hash(back) == hash(used) and repr(back) == repr(used)
        assert (back.degree, back.c_pole) == (used.degree, used.c_pole)
        assert [f21(back, w) for w in self.ROUTES] == values


class TestKeptRatios:
    """Each ``HypParams`` keeps its series term ratios from its second series
    on; a warm evaluation gives the bits of a cold one."""

    # direct, Pfaff, 1/w, 1 - w, 1 - 1/w, 1/(1 - w), ODE by way of 0.4 + 0.7i
    POINTS = [0.3 + 0.2j, -0.8 + 0.1j, -3.0, 0.95, 0.9 + 0.6j, 0.41 + 1.02j, 0.5 + 0.85j]
    TOLS = [1e-12, 1e-9, 1e-15]

    @staticmethod
    def _params(rng):
        return tuple(complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(2)) + (
            complex(rng.uniform(0.5, 4), rng.uniform(-1, 1)),)

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_results_equal_cold_ones(self, seed):
        rng = random.Random(seed)
        abc = self._params(rng)
        used = HypParams(*abc)
        for _ in range(3):
            for w in self.POINTS:
                for tol in self.TOLS:
                    assert f21(used, w, tol) == f21(HypParams(*abc), w, tol)
            for side in CutSide:
                x = rng.uniform(1.1, 4.0)
                assert f21_cut(used, x, side) == f21_cut(HypParams(*abc), x, side)
        # every route ran, and the objects under the routes keep ratios
        assert used.ratios and used.pfaff.ratios and used.shifted.ratios
        assert {n for n, _ in used.connection_terms} == {1, 2, 3, 4}
        assert all(term[1].ratios for term in used.connection_terms.values())

    def test_first_series_keeps_a_marker_second_the_ratios_used(self):
        a, b, c = 0.3 + 0.2j, -1.7, 1.9 - 0.4j
        p = HypParams(a, b, c)
        first = f21_series(p, 0.6j)
        assert p.ratios == ()
        second = f21_series(p, 0.6j)
        assert second == first
        expected = [(a + n) * (b + n) / ((c + n) * (n + 1.0)) for n in range(200)]
        assert list(p.ratios) == expected[:second.terms_used - 1]
        # a longer series publishes a new tuple; a shorter one keeps it
        kept = p.ratios
        longer = f21_series(p, 0.6j, 1e-15)
        assert p.ratios is not kept and list(p.ratios) == expected[:longer.terms_used - 1]
        kept = p.ratios
        assert f21_series(p, 0.1) == f21_series(HypParams(a, b, c), 0.1)
        assert p.ratios is kept

    def test_series_that_raises_keeps_nothing_new(self):
        p = HypParams(400.1, 400.3, 1.9)
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="terms overflow"):
                f21_series(p, 0.59)
            assert "ratios" not in vars(p)
        f21_series(p, 1e-3)
        f21_series(p, 1e-3)
        kept = p.ratios
        assert kept
        with pytest.raises(ConvergenceError, match="terms overflow"):
            f21_series(p, 0.59)
        assert p.ratios is kept
        q = HypParams(0.5, 0.5, 1.5)  # at |w| = 0.9999 the tail outlasts MAX_TERMS
        f21_series(q, 0.5)
        with pytest.raises(ConvergenceError, match="within 50000 terms"):
            f21_series(q, 0.9999, 1e-16)
        assert q.ratios == ()

    def test_threads_sharing_params_give_the_serial_results(self):
        a, b, c = 0.3 + 0.1j, 0.7 - 0.2j, 1.9
        rng = random.Random(7)
        ws = [cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(-3.1, 3.1)) for _ in range(200)]
        serial = [f21_series(HypParams(a, b, c), w) for w in ws]
        shared = HypParams(a, b, c)
        starts = (0, 50, 100, 150)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-series
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(lambda k: [f21_series(shared, w) for w in ws[k:] + ws[:k]],
                                       k) for k in starts]
                runs = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, run in zip(starts, runs):
            assert run == serial[k:] + serial[:k]
        # whatever tuple was published last is a whole prefix of the ratios
        assert shared.ratios == tuple((a + n) * (b + n) / ((c + n) * (n + 1.0))
                                      for n in range(len(shared.ratios)))


class TestBeyondDoubleRange:
    def test_series_terms_overflow(self):
        # the terms reach inf before they fall; the sum used to be nan
        with pytest.raises(ConvergenceError, match="2F1 series terms overflow"):
            f21(HypParams(400.1, 400.3, 1.9), 1.7 + 1e-9j)

    # a * b is beyond double range, or a term becomes nan (inf * 0, inf -
    # inf): the sum cannot converge, which the series reports at once
    # rather than after its whole term budget ("did not reach tol")
    @pytest.mark.parametrize("abc", [(1e308, 1e308, 1.5), (1e308, 0.9, 1.8),
                                     (0.1, 1e308, 1e308)])
    def test_series_that_cannot_converge(self, abc):
        with pytest.raises(ConvergenceError, match="terms overflow"):
            f21_series(HypParams(*abc), 0.5)

    def test_cut_limit_beyond_double_range(self):
        # the value is about 5.5e408; the limit used to be nan
        with pytest.raises(DomainError, match="cut limit by formula 3 at x=1.7 is beyond double"):
            f21_cut(HypParams(400.1, 400.3, 1.9), 1.7, CutSide.ABOVE)

    def test_principal_value_beyond_double_range(self):
        # formula 1's first coefficient, the gamma quotient times (-w)^(-a),
        # is nan - inf i; f21 used to return nan with tail_estimate nan
        p = HypParams(-400.5 - 1j, 401.5 + 1j, 1.3)
        for _ in range(2):  # and again once the connection terms are kept
            with pytest.raises(BeyondRangeError, match="2F1 by formula 1 at w=.* beyond double"):
                f21(p, -1 - 2j)
        assert issubclass(BeyondRangeError, DomainError)

    # e^(i pi beta) overflows (|Im beta| > 226), or pi beta does (a cmath domain error)
    @pytest.mark.parametrize("call", [
        lambda: f21_cut(HypParams(0.3, 0.45, -0.5 + 300j), 1.7, CutSide.ABOVE),
        lambda: f21_cut_via(1, HypParams(1e308, -1e308, 0.3), 1.7, CutSide.ABOVE),
        lambda: f21_cut_via(4, HypParams(1e308, -1e308, 0.3), 1.7, CutSide.BELOW),
    ], ids=["Im_beta_300", "theorem_1_pi_beta", "theorem_4_pi_beta"])
    def test_cut_phase(self, call):
        with pytest.raises(DomainError, match="cut phase .* is beyond double range"):
            call()


class TestNonFinite:
    """A non-finite parameter raises ``ParameterError`` where ``HypParams``
    is built, so no entry point sees one; a NaN or infinite argument raises
    ``DomainError`` before any term is summed."""

    BAD = [math.nan, math.inf, complex(0.3, -math.inf)]
    ENTRY_POINTS = {
        "f21": lambda p: f21(p, 0.5),
        "f21_series": lambda p: f21_series(p, 0.5),
        "f21_regularized": lambda p: f21_regularized(p, 0.5),
        "f21_cut": lambda p: f21_cut(p, 2.0, CutSide.ABOVE),
        "f21_cut_via": lambda p: f21_cut_via(3, p, 2.0, CutSide.BELOW),
        "route_radius": lambda p: route_radius(p, 2.0 + 1.0j),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "0.3-inf_i"])
    def test_non_finite_parameter(self, entry, slot, bad):
        args = [0.3, 0.4, 1.2]
        args[slot] = bad
        with pytest.raises(ParameterError, match="must be finite"):
            self.ENTRY_POINTS[entry](HypParams(*args))

    def test_keywords_and_values(self):
        p = HypParams(a=1, b=0.5, c=2 + 1j)
        assert (p.a, p.b, p.c) == (1 + 0j, 0.5 + 0j, 2 + 1j)
        assert all(isinstance(v, complex) for v in (p.a, p.b, p.c))
        assert p == HypParams(1.0, 0.5, 2 + 1j) and hash(p) == hash(HypParams(1.0, 0.5, 2 + 1j))

    # general and terminating parameter sets, and c = -2 (the regularized limit)
    @pytest.mark.parametrize("fn,params", [
        (fn, params) for fn in (f21, f21_regularized, f21_series)
        for params in ((0.3, 0.4, 1.2), (-2, 0.4, 1.2))] + [(f21_regularized, (0.3, 0.4, -2.0))])
    def test_nan_argument(self, fn, params):
        with pytest.raises(DomainError, match="not a number"):
            fn(HypParams(*params), complex(math.nan, 0.0))

    @pytest.mark.parametrize("w", [complex(math.inf, 1.0), math.inf, complex(0.3, -math.inf)],
                             ids=["inf+1i", "inf", "0.3-inf_i"])
    @pytest.mark.parametrize("fn,params", [
        (fn, params) for fn in (f21, f21_regularized, f21_series)
        for params in ((0.3, 0.4, 1.2), (-2, 0.4, 1.2))] + [(f21_regularized, (0.3, 0.4, -2.0))])
    def test_infinite_argument(self, fn, params, w):
        # summed at inf, a terminating series would give nan with tail 0
        with pytest.raises(DomainError, match="infinite"):
            fn(HypParams(*params), w)

    # complex() and float() of an integer beyond double range raise a bare
    # OverflowError; it is refused as non-finite instead
    @pytest.mark.parametrize("call", [
        lambda p, w: f21(p, w), lambda p, w: f21_series(p, w), lambda p, w: f21_regularized(p, w),
        lambda p, w: f21_regularized(HypParams(p.a, p.b, -2.0), w),
        lambda p, w: f21_cut(p, w, CutSide.ABOVE), lambda p, w: f21_cut_via(3, p, w, CutSide.BELOW),
    ], ids=["f21", "f21_series", "f21_regularized", "f21_regularized_c_pole", "f21_cut",
            "f21_cut_via"])
    @pytest.mark.parametrize("w", [10 ** 400, -10 ** 400], ids=["1e400", "-1e400"])
    def test_huge_integer_argument(self, call, w):
        with pytest.raises(DomainError, match="infinite|beyond double range|requires real x > 1"):
            call(HypParams(0.3, 1.1, 2.2), w)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("huge", [10 ** 400, -10 ** 400], ids=["1e400", "-1e400"])
    def test_huge_integer_parameter(self, slot, huge):
        args = [0.3, 1.1, 2.2]
        args[slot] = huge
        with pytest.raises(ParameterError, match="must be finite"):
            HypParams(*args)

    @pytest.mark.parametrize("cut", [
        lambda p: f21_cut(p, math.inf, CutSide.ABOVE),
        lambda p: f21_cut_via(3, p, math.inf, CutSide.ABOVE)], ids=["f21_cut", "f21_cut_via"])
    @pytest.mark.parametrize("params", [(-2, 1.3, 2.6), (0.3, 1.1, 2.7)])
    def test_infinite_cut_point(self, cut, params):
        # inf > 1, but no formula or ODE path reaches it: nan, a stalled step
        # or a BranchCutError about w = 1 would follow
        with pytest.raises(DomainError, match="requires real x > 1"):
            cut(HypParams(*params))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
    st.floats(0.3, 3.0), st.floats(0.05, 0.8), st.floats(-3.1, 3.1),
)
def test_euler_identity_fuzz(a, b, c, r, phi):
    w = r * cmath.exp(1j * phi)
    if abs(c - round(c)) < 1e-2 and round(c) <= 0:
        return
    lhs = f21(HypParams(a, b, c), w).value
    rhs = (1.0 - w) ** complex(c - a - b) * f21(HypParams(c - a, c - b, c), w).value
    assert rel_diff(lhs, rhs) < 1e-9
