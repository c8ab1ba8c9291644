import cmath
import math

import mpmath as mp
import pytest

from conftest import kronecker_points
from ferrox import regions
from ferrox.complexmath import RootVariant, ln_gamma, root_y
from ferrox.errors import DomainError, SingularPointError
from ferrox.ferrers import ParamPair
from ferrox.olbricht import OlbrichtId, eval_olbricht
from ferrox.regions import (
    ARGUMENT_COUNT,
    CurveBranch,
    DomainId,
    argument,
    classify,
    curve_w13,
    in_domain,
    in_region,
    map_moduli,
    map_value,
    region_flags,
    region_test,
    unusable_maps,
)


#: The eighteen maps written out one by one, in the operation order of the
#: terms that ``regions`` divides, as the reference for ``map_value`` and
#: ``argument``; y is the chosen root of x^2 - 1.
REFERENCE_MAPS = {
    1: lambda x, y: (1.0 - x) / 2.0,
    2: lambda x, y: (1.0 + x) / 2.0,
    3: lambda x, y: (x - 1.0) / (1.0 + x),
    4: lambda x, y: (1.0 + x) / (x - 1.0),
    5: lambda x, y: 2.0 / (1.0 + x),
    6: lambda x, y: 2.0 / (1.0 - x),
    7: lambda x, y: 1.0 - x * x,
    8: lambda x, y: 1.0 / (1.0 - x * x),
    9: lambda x, y: x * x,
    10: lambda x, y: 1.0 / (x * x),
    11: lambda x, y: (x * x - 1.0) / (x * x),
    12: lambda x, y: (x * x) / (x * x - 1.0),
    13: lambda x, y: (y - x) / (2.0 * y),
    14: lambda x, y: (x - y) / (x + y),
    15: lambda x, y: (2.0 * y) / (x + y),
    16: lambda x, y: (2.0 * y) / (y - x),
    17: lambda x, y: (x + y) / (2.0 * y),
    18: lambda x, y: (x + y) / (x - y),
}


class TestArgumentMaps:
    def test_linear_map(self):
        assert argument(1, 0.0) == pytest.approx(0.5)

    def test_square_map(self):
        assert argument(9, 0.5) == pytest.approx(0.25)

    def test_ratio_map_on_angle(self):
        # x = cos(theta) sends the ratio argument to e^{-2 i theta}
        theta = math.pi / 3.0
        got = argument(14, math.cos(theta))
        assert abs(got - cmath.exp(-2j * theta)) < 1e-14

    def test_mutual_relations(self):
        x = 0.37 + 0.21j
        w13 = argument(13, x)
        w14 = argument(14, x)
        assert abs(w13 - w14 / (w14 - 1.0)) < 1e-14
        assert abs(argument(16, x) - 1.0 / w13) < 1e-14
        assert abs(argument(15, x) - 1.0 / argument(17, x)) < 1e-14
        assert abs(argument(18, x) - 1.0 / w14) < 1e-14

    def test_singular_points(self):
        singular = {(j, x) for js, xs in [((3, 5), (-1.0,)), ((4, 6), (1.0,)),
                                          ((8, 12, 13, 14, 15, 16, 17, 18), (1.0, -1.0)),
                                          ((10, 11), (0.0, 1e-300j))]
                    for j in js for x in xs}
        for func in (argument, in_region):
            for j in range(1, ARGUMENT_COUNT + 1):
                for x in (-1.0, 1.0, 0.0, 1e-300j):
                    if (j, x) in singular:
                        with pytest.raises(SingularPointError, match=f"w_{j} singular"):
                            func(j, x)
                    else:
                        func(j, x)

    def test_root_restriction(self):
        with pytest.raises(DomainError):
            argument(15, 2.0, RootVariant.Y2)
        # starred variants are fine
        assert abs(argument(14, 2.0, RootVariant.Y2)) < 1.0

    def test_square_root_maps_refuse_cancellation(self):
        # (x - y)(x + y) = 1: at |x| = 40 the smaller factor keeps about 12
        # digits; from about 50 on the maps raise, and at 1e8i x - y is 0
        x = 40.0 + 10.0j
        with mp.workdps(40):
            y = 1j * mp.sqrt(1 - mp.mpc(x) ** 2)
            want = {13: (-x + y) / (2 * y), 14: (x - y) / (x + y), 15: 2 * y / (x + y),
                    16: 2 * y / (-x + y), 17: (x + y) / (2 * y), 18: (x + y) / (x - y)}
            for j, w in want.items():
                assert abs(argument(j, x) - w) / abs(w) < 1e-11, j
        for x in (60.0 + 10.0j, -1e3j, 1e8j, 1e200 + 1e200j):
            for j in range(13, 19):
                with pytest.raises(DomainError, match=f"w_{j} at x = .* loses its digits"):
                    argument(j, x)

    # signed zeros, next to +-1 and to |x| = 50, and x * x underflowing
    @pytest.mark.parametrize("x", [1.0, -1.0, 0.0, 1e-300j, 0.3 + 0.4j, -0.5,
                                   40.0 + 10.0j, 60.0 + 10.0j, -1e3j, 1e200 + 1e200j,
                                   -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), 0.999999,
                                   -1 + 1e-12j, 49.9 + 1j, 1e-170j])
    def test_unusable_maps_are_those_argument_refuses(self, x):
        # map_moduli leaves exactly these maps out, and divides by no zero
        x = complex(x)
        unusable = unusable_maps(x)
        moduli = map_moduli(x, 1j * cmath.sqrt(1.0 - x * x), unusable)
        assert len(moduli) == ARGUMENT_COUNT + 1 and moduli[0] is None
        for j in range(1, ARGUMENT_COUNT + 1):
            if j in unusable:
                assert moduli[j] is None
                with pytest.raises(DomainError) as info:
                    argument(j, x)
                assert str(info.value) == unusable[j]
            else:
                assert type(moduli[j]) is float
                argument(j, x)

    def test_maps_match_reference(self):
        # map_value and argument against the formulas written out by hand,
        # bit for bit (repr: NaN parts compare equal too), for every map
        # usable at x; the square-root maps with root Y1 off the real rays
        # |x| >= 1, and the starred 13 and 14 with root Y2 off [-1, 1]
        points = _edge_points() + kronecker_points(2000, -3.0, 3.0)
        for x in points + kronecker_points(300, -80.0, 80.0):
            unusable = unusable_maps(x)
            y = 1j * cmath.sqrt(1.0 - x * x)
            for j, ref in REFERENCE_MAPS.items():
                if j in unusable:
                    continue
                want = repr(ref(x, y))
                assert repr(map_value(j, x, y)) == want, (j, x)
                if j <= 12:
                    assert repr(map_value(j, x, None)) == want, (j, x)
                    assert repr(argument(j, x)) == want, (j, x)
                elif x.imag != 0.0 or abs(x.real) < 1.0:
                    assert repr(argument(j, x)) == want, (j, x)
            if (x.imag != 0.0 or abs(x.real) > 1.0) and x * x != 0.0 and 13 not in unusable:
                y2 = root_y(RootVariant.Y2, x)
                for j in (13, 14):
                    want = repr(REFERENCE_MAPS[j](x, y2))
                    assert repr(argument(j, x, RootVariant.Y2)) == want, (j, x)
                    assert repr(map_value(j, x, y2)) == want, (j, x)

    def test_map_moduli_are_moduli_of_map_value(self):
        # |num| / |den| rounds apart from |num / den|, by a few units in the
        # last place; test_maps_match_reference holds map_value to formulas
        # written out independently
        points = (_edge_points() + kronecker_points(500, -3.0, 3.0)
                  + kronecker_points(300, -80.0, 80.0))
        for x in points:
            y = 1j * cmath.sqrt(1.0 - x * x)
            unusable = unusable_maps(x)
            moduli = map_moduli(x, y, unusable)
            assert [j for j, m in enumerate(moduli) if m is None] == [0, *sorted(unusable)]
            if not cmath.isfinite(x * x):
                continue
            for j in set(range(1, ARGUMENT_COUNT + 1)) - set(unusable):
                want = abs(map_value(j, x, y))
                assert math.isclose(moduli[j], want, rel_tol=1e-15), (j, x, moduli[j], want)


class TestInRegion:
    def test_disk(self):
        assert in_region(1, 0.0) is True

    def test_half_plane(self):
        assert in_region(3, -0.5) is False
        assert in_region(3, 0.5) is True

    def test_lemniscate(self):
        assert in_region(7, 0.5) is True
        assert in_region(7, 1.2j) is False

    def test_hyperbola(self):
        assert in_region(11, 1.0) is True
        assert in_region(11, 0.5) is False

    def test_predicates_match_brute_force(self):
        pts = kronecker_points(10_000, -3.0, 3.0)
        for j in range(1, ARGUMENT_COUNT + 1):
            mismatches = 0
            for x in pts:
                if min(abs(x - 1.0), abs(x + 1.0), abs(x)) < 1e-6:
                    continue
                try:
                    w = argument(j, x)
                except DomainError:
                    continue
                if abs(abs(w) - 1.0) < 1e-6:
                    continue
                if in_region(j, x) != (abs(w) < 1.0):
                    mismatches += 1
            assert mismatches == 0, f"argument {j}"

    def test_starred_predicates_match_brute_force(self):
        pts = kronecker_points(10_000, -3.0, 3.0)
        for j in (13, 14):
            for x in pts:
                if min(abs(x - 1.0), abs(x + 1.0)) < 1e-6 or x.imag == 0.0:
                    continue
                w = argument(j, x, RootVariant.Y2)
                if abs(abs(w) - 1.0) < 1e-6:
                    continue
                assert in_region(j, x, RootVariant.Y2) == (abs(w) < 1.0)

    def test_starred_14_inside_everywhere_on_d2(self):
        count = 0
        for x in kronecker_points(2000, -4.0, 4.0):
            if not in_domain(DomainId.D2, x):
                continue
            count += 1
            assert in_region(14, x, RootVariant.Y2) is True
            if count >= 1000:
                break
        assert count >= 1000

    def test_criterion_beyond_exp_range(self):
        # e^{2 beta} overflows from |x| of about 1e154 on; the tests of maps
        # 13, 15, 16 and 17 still agree with |w_j| < 1 (root Y1) computed
        # with enough digits to survive the cancellation in x -+ y
        for e in (100, 154, 155, 200, 300):
            for t in (0.3, 1.2, 2.0, 2.9, -0.4, -1.6, -2.7):
                x = cmath.rect(10.0 ** e, t)
                with mp.workdps(2 * e + 30):
                    xm = mp.mpc(x)
                    y = 1j * mp.sqrt(1 - xm ** 2)
                    w = {13: (y - xm) / (2 * y), 15: 2 * y / (xm + y),
                         16: 2 * y / (y - xm), 17: (xm + y) / (2 * y)}
                    for j, wj in w.items():
                        assert in_region(j, x) == (abs(wj) < 1), (j, x)
                assert classify(x).inside[13] == in_region(13, x)


def _reference_criterion(x: complex, k: float) -> float:
    th = cmath.acos(x)
    return math.exp(min(k * th.imag, 709.0)) * math.cos(2.0 * th.real)


#: The closed forms of |w_j| < 1 (root Y1) written out one by one, as the
#: reference for the tests that ``regions`` reads from its table.
REFERENCE_TESTS = {
    1: lambda x: abs(1.0 - x) < 2.0,
    2: lambda x: abs(1.0 + x) < 2.0,
    3: lambda x: x.real > 0.0,
    4: lambda x: x.real < 0.0,
    5: lambda x: abs(1.0 + x) > 2.0,
    6: lambda x: abs(1.0 - x) > 2.0,
    7: lambda x: abs(1.0 - x) * abs(1.0 + x) < 1.0,
    8: lambda x: abs(1.0 - x) * abs(1.0 + x) > 1.0,
    9: lambda x: abs(x) < 1.0,
    10: lambda x: abs(x) > 1.0,
    11: lambda x: x.real * x.real - x.imag * x.imag > 0.5,
    12: lambda x: x.real * x.real - x.imag * x.imag < 0.5,
    13: lambda x: _reference_criterion(x, 2.0) < 0.5,
    14: lambda x: x.imag > 0.0,
    15: lambda x: _reference_criterion(x, -2.0) > 0.5,
    16: lambda x: _reference_criterion(x, 2.0) > 0.5,
    17: lambda x: _reference_criterion(x, -2.0) < 0.5,
    18: lambda x: x.imag < 0.0,
}
#: The real poles of each map; maps 10 and 11 are singular where x * x is 0.
REFERENCE_POLES = {3: (-1.0,), 4: (1.0,), 5: (-1.0,), 6: (1.0,),
                   **{j: (1.0, -1.0) for j in (8, 12, 13, 14, 15, 16, 17, 18)}}


def _reference_flag(j: int, x: complex) -> bool:
    singular = x * x == 0.0 if j in (10, 11) else x in REFERENCE_POLES.get(j, ())
    return not singular and REFERENCE_TESTS[j](x)


def _mirrored(points):
    return [complex(sr * x.real, si * x.imag) for x in points for sr in (1, -1) for si in (1, -1)]


def _edge_points() -> list[complex]:
    ts = [k * math.pi / 12.0 for k in range(24)]
    pts = [1.0, -1.0, 0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), 1e-170, 1e-170j,
           -1e-170 + 1e-170j, 1e-300j, 1e-320, 1j, -1j]
    # the real rays |x| > 1 (Im x = +-0), |x| from 50 on, and beyond the range of x^2
    for r in (1.0000000000000002, 1.5, 3.0, 49.99, 50.0, 1e3, 1e8, 1e154, 1e300):
        pts += [complex(r, 0.0), complex(-r, 0.0), complex(r, -0.0), complex(-r, -0.0)]
    pts += [50j, 60 + 10j, -1e3j, 1e8j, 1e300j, 1e300 + 1e300j, 1e200 - 1e200j]
    # on the boundary curves: |w13| = 1 and |w13*| = 1, |1 -+ x| = 2, |x| = 1,
    # Re x^2 = 1/2, and points of the lemniscate |1 - x||1 + x| = 1
    pts += _mirrored([curve_w13(a, CurveBranch.PLAIN) for a in (0.05, 0.2, 0.4, 0.7, 0.78)])
    pts += _mirrored([curve_w13(a, CurveBranch.STARRED) for a in (0.05, 0.3, 0.5)])
    pts += [3.0, -3.0, 1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j]
    pts += [c + 2.0 * cmath.exp(1j * t) for c in (1.0, -1.0) for t in ts]
    pts += [cmath.exp(1j * t) for t in ts]
    pts += _mirrored([complex(math.sqrt(0.5 + t * t), t) for t in (0.0, 0.25, 0.5, 1.0, 2.0)])
    pts += [cmath.sqrt(1.0 + cmath.exp(1j * t)) for t in ts[1:]]
    return [complex(x) for x in pts]


class TestRegionTable:
    """The region tests as data (quantity, side, bound) against the closed
    forms written out by hand, at grid points and edge points."""

    POINTS = (kronecker_points(4000, -3.0, 3.0)
              + [complex(-3.0 + 0.05 * i, -3.0 + 0.05 * k) for i in range(121) for k in range(121)]
              + _edge_points())

    def test_flags_match_reference(self):
        for x in self.POINTS:
            want = [_reference_flag(j, x) for j in range(1, ARGUMENT_COUNT + 1)]
            assert region_flags(x) == want, x
            assert list(classify(x).inside.values()) == want, x

    def test_single_map_forms_match_reference(self):
        tests = {j: region_test(j) for j in range(1, ARGUMENT_COUNT + 1)}
        for x in self.POINTS:
            for j in range(1, ARGUMENT_COUNT + 1):
                want = _reference_flag(j, x)
                assert tests[j](x) is want, (j, x)
                try:
                    got = in_region(j, x)
                except SingularPointError:
                    assert not want and j in unusable_maps(x), (j, x)
                    continue
                assert got is want, (j, x)

    def test_single_map_tests_are_built_once(self, monkeypatch):
        # each map's test is made from its record at import; region_test
        # hands out that one function, and in_region applies it
        tests = [region_test(j) for j in range(1, ARGUMENT_COUNT + 1)]

        def build(m):
            raise AssertionError("a region test was built after import")

        monkeypatch.setattr(regions, "_test", build)
        for j in range(1, ARGUMENT_COUNT + 1):
            assert region_test(j) is tests[j - 1]
            assert in_region(j, 0.3 + 0.4j) is tests[j - 1](0.3 + 0.4j)


class TestConformalRanges:
    def test_w13_avoids_both_cuts(self):
        # the map sends the doubly-cut x-plane onto the doubly-cut w-plane
        for x in kronecker_points(2000, -3.0, 3.0):
            if not in_domain(DomainId.D1, x) or min(abs(x - 1), abs(x + 1)) < 1e-6:
                continue
            w = argument(13, x)
            if abs(w.imag) < 1e-12:
                assert 0.0 < w.real < 1.0

    def test_w14_avoids_positive_ray(self):
        for x in kronecker_points(2000, -3.0, 3.0):
            if not in_domain(DomainId.D1, x) or min(abs(x - 1), abs(x + 1)) < 1e-6:
                continue
            w = argument(14, x)
            if abs(w.imag) < 1e-12:
                assert w.real < 0.0


class TestClassify:
    def test_origin(self):
        rep = classify(0.0)
        for j in (1, 2, 9):
            assert rep.inside[j] is True
        for j in (5, 6, 10):
            assert rep.inside[j] is False

    def test_far_field(self):
        rep = classify(10.0)
        for j in (5, 6, 10):
            assert rep.inside[j] is True
        assert rep.domains[DomainId.D2] is True
        assert rep.domains[DomainId.D1] is False

    def test_domains_interior(self):
        rep = classify(0.5)
        assert rep.domains[DomainId.D1] is True
        assert rep.domains[DomainId.D1_PLUS] is True
        assert rep.domains[DomainId.D3] is False

    def test_singular_points_inside_false(self):
        rep = classify(1.0)
        assert rep.inside[13] is False
        assert rep.inside[8] is False

    def test_d3_is_reflected_d2(self):
        for x in (-2.0, -1.0, -0.5 + 0.1j, 3.0, 2j):
            assert in_domain(DomainId.D3, x) == in_domain(DomainId.D2, -x)


def golden_section(f, lo, hi, tol=1e-10):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestBoundaryCurve:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6])
    def test_plain_parametrizes_unit_modulus(self, alpha):
        x = curve_w13(alpha, CurveBranch.PLAIN)
        assert abs(abs(argument(13, x)) - 1.0) < 1e-10

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5])
    def test_starred_parametrizes_unit_modulus(self, alpha):
        x = curve_w13(alpha, CurveBranch.STARRED)
        assert abs(abs(argument(13, x, RootVariant.Y2)) - 1.0) < 1e-10

    def test_range_errors(self):
        with pytest.raises(DomainError):
            curve_w13(0.0, CurveBranch.PLAIN)
        with pytest.raises(DomainError):
            curve_w13(0.6, CurveBranch.STARRED)

    def test_starred_extremal_points(self):
        lo, hi = 1e-9, math.pi / 6.0 - 1e-9
        a_in = golden_section(lambda a: curve_w13(a, CurveBranch.STARRED).real, lo, hi)
        a_out = golden_section(lambda a: -curve_w13(a, CurveBranch.STARRED).real, lo, hi)
        a_im = golden_section(lambda a: -curve_w13(a, CurveBranch.STARRED).imag, lo, hi)
        innermost = curve_w13(a_in, CurveBranch.STARRED).real
        outermost = curve_w13(a_out, CurveBranch.STARRED).real
        peak = curve_w13(a_im, CurveBranch.STARRED)
        assert innermost == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-4)
        assert outermost == pytest.approx(3.0 * math.sqrt(2.0) / 4.0, abs=1e-4)
        assert peak.real == pytest.approx(
            math.sqrt(15.0 / 32.0 + 7.0 * math.sqrt(5.0) / 32.0), abs=1e-4)
        assert peak.imag == pytest.approx(
            math.sqrt(-11.0 / 32.0 + 5.0 * math.sqrt(5.0) / 32.0), abs=1e-4)


@pytest.mark.parametrize("call", [
    lambda x: in_domain(DomainId.D2, x),
    lambda x: argument(1, x),
    lambda x: in_region(1, x),
    classify,
    ln_gamma,
    lambda x: eval_olbricht(OlbrichtId("I", 17), ParamPair(0.3, 0.4), x),
], ids=["in_domain", "argument", "in_region", "classify", "ln_gamma", "eval_olbricht"])
@pytest.mark.parametrize("sign", [1, -1])
def test_integer_beyond_double_range_is_infinity(call, sign):
    # 10**400 does not convert to a float: it is taken as the infinity of its
    # sign, value or error, never a bare OverflowError
    def outcome(x):
        try:
            return repr(call(x))
        except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
            return type(exc).__name__, str(exc)

    assert outcome(sign * 10 ** 400) == outcome(sign * math.inf)
