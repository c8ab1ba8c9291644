import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kronecker_points
from ferrox.complexmath import (
    RootVariant,
    cospi,
    gamma,
    gamma_quotient,
    ln_gamma,
    near_int,
    nonpos_index,
    pochhammer,
    principal_pow,
    rgamma,
    root_y,
    sinpi,
)
from ferrox.errors import (
    BranchCutError,
    DomainError,
    ParameterError,
    PoleError,
    SingularPointError,
)

SQRT_PI = math.sqrt(math.pi)


class TestLnGamma:
    def test_at_one(self):
        assert abs(ln_gamma(1.0)) < 1e-15

    def test_at_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert ln_gamma(0.5).real == pytest.approx(0.5723649429247001, abs=1e-13)
        assert abs(ln_gamma(0.5).imag) < 1e-15

    def test_factorial(self):
        assert ln_gamma(5.0).real == pytest.approx(math.log(24.0), abs=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, complex(-5.0, -0.0)])
    def test_poles_raise(self, z):
        # on every call: the memo keeps no entry for an error
        ln_gamma.cache_clear()
        for _ in range(3):
            with pytest.raises(PoleError):
                ln_gamma(z)
        assert ln_gamma.cache_info().currsize == 0

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(math.nan, 1.0)])
    def test_non_finite_argument_rejected(self, z):
        with pytest.raises(DomainError):
            ln_gamma(z)

    def test_conjugate_symmetry(self):
        z = 1.7 - 2.3j
        assert ln_gamma(z) == ln_gamma(z.conjugate()).conjugate()

    def test_reflection_formula_on_sample(self):
        # Gamma(z) Gamma(1-z) sin(pi z) / pi = 1 away from the integers
        worst = 0.0
        for z in kronecker_points(1000, -10.0, 10.0):
            if abs(z.real - round(z.real)) < 1e-3 and abs(z.imag) < 1e-3:
                continue
            val = gamma(z) * gamma(1.0 - z) * cmath.sin(math.pi * z) / math.pi
            worst = max(worst, abs(val - 1.0))
        assert worst < 1e-10

    def test_duplication_formula_on_sample(self):
        # Gamma(2z) sqrt(pi) = 2^(2z-1) Gamma(z) Gamma(z+1/2)
        worst = 0.0
        for z in kronecker_points(1000, -10.0, 10.0):
            if abs(2 * z.real - round(2 * z.real)) < 1e-3 and abs(z.imag) < 1e-3:
                continue
            lhs = ln_gamma(2 * z)
            rhs = ((2 * z - 1) * math.log(2.0) - 0.5 * math.log(math.pi)
                   + ln_gamma(z) + ln_gamma(z + 0.5))
            val = cmath.exp(lhs - rhs)
            worst = max(worst, abs(val - 1.0))
        assert worst < 1e-10


def _memo_grid():
    """About 300 (z, twin) pairs, where twin is a key equal to z: both
    half-planes, the reflection region Re z < 1/2 and, on the two axes,
    arguments whose real or imaginary part is +0.0 paired with -0.0."""
    pairs = [(z, z) for z in kronecker_points(100, -10.0, 10.0)]
    pairs += [(z, z) for z in kronecker_points(80, -10.0, 0.5)]
    for k in range(40):
        x = -9.75 + 0.5 * k
        pairs += [(complex(x, 0.0), complex(x, -0.0)), (complex(x, -0.0), complex(x, 0.0))]
    for k in range(10):
        y = 0.25 + 0.5 * k
        for im in (y, -y):
            pairs += [(complex(0.0, im), complex(-0.0, im)), (complex(-0.0, im), complex(0.0, im))]
    return pairs


class TestLnGammaMemo:
    """ln_gamma is memoized on z; a cached value must be the value the
    function computes for that very argument."""

    def test_warm_values_equal_cold_values(self):
        pairs = _memo_grid()
        assert len(pairs) >= 300
        cold = []
        for z, _ in pairs:
            ln_gamma.cache_clear()
            cold.append(repr(ln_gamma(z)))
        ln_gamma.cache_clear()
        for (z, twin), want in zip(pairs, cold):
            ln_gamma(twin)
            hits = ln_gamma.cache_info().hits
            assert repr(ln_gamma(z)) == want, (z, twin)
            assert ln_gamma.cache_info().hits == hits + 1

    def test_size_is_bounded(self):
        ln_gamma.cache_clear()
        for k in range(1000):
            ln_gamma(complex(1.5, 0.01 * k))
        assert ln_gamma.cache_info().currsize <= 256


class TestRgamma:
    def test_zeros_at_poles(self):
        assert rgamma(-1.0) == 0.0
        assert rgamma(0.0) == 0.0
        assert rgamma(-12.0) == 0.0

    def test_simple_values(self):
        assert rgamma(1.0) == pytest.approx(1.0, abs=1e-14)
        assert rgamma(0.5).real == pytest.approx(0.5641895835477563, abs=1e-13)

    def test_inverse_of_gamma(self):
        for z in (0.3 + 0.7j, 2.5, -1.3 + 0.2j, 4.0 - 3.0j):
            assert abs(rgamma(z) * gamma(z) - 1.0) < 1e-12

    def test_continuous_through_poles(self):
        # tiny values just off the nonpositive integers
        assert abs(rgamma(-3.0 + 1e-10)) < 1e-8
        assert abs(rgamma(-3.0 + 1e-10j)) < 1e-8

    @pytest.mark.parametrize("func,z", [
        (gamma, 200.0), (gamma, 180 + 0j), (rgamma, -200.5), (rgamma, -200.0 + 1e-10)])
    def test_beyond_double_range(self, func, z):
        with pytest.raises(ParameterError, match="range"):
            func(z)

    def test_quotient_beyond_double_range(self):
        with pytest.raises(ParameterError, match="range"):
            gamma_quotient((400.5,), (0.3,))

    def test_quotient_zero_on_denominator_pole(self):
        assert gamma_quotient((1.3,), (-2.0,)) == 0.0


def _near_poles():
    """Points 1e-14 to 1e-3 from each pole 0, -1, ..., -60, on both sides of
    it along the real axis and off it in four complex directions."""
    dirs = (1.0, -1.0, 1j, -1j, cmath.exp(1j * math.pi / 3), cmath.exp(-2j * math.pi / 3))
    return [-n + e * u for n in range(61) for e in (1e-14, 1e-11, 1e-8, 1e-5, 1e-3)
            for u in dirs]


class TestNearPoles:
    """Gamma from each of its functions keeps its relative accuracy right up
    to the poles.  Values of Gamma, not of its log, are compared, so that no
    multiple of 2 pi i enters."""

    @pytest.mark.parametrize("func", [
        lambda z: cmath.exp(ln_gamma(z)),
        lambda z: 1.0 / rgamma(z),
        lambda z: gamma_quotient((z, 2.5), (1.5,)) / 1.5,
    ], ids=["ln_gamma", "rgamma", "gamma_quotient"])
    def test_gamma_matches_mpmath(self, func):
        worst = (0.0, None)
        with mp.workdps(30):
            for z in _near_poles():
                want = complex(mp.gamma(mp.mpc(z)))
                err = abs(func(z) - want) / abs(want)
                worst = max(worst, (err, z), key=lambda t: t[0])
        assert worst[0] < 1e-13, worst

    def test_quotient_denominator(self):
        # exactly 0 within 1e-12 of the pole, the reciprocal beyond
        with mp.workdps(30):
            for z in _near_poles():
                inside = abs(z + round(-z.real)) <= 1e-12
                want = 0.0 if inside else complex(mp.rgamma(mp.mpc(z)))
                assert abs(gamma_quotient((), (z,)) - want) <= 1e-13 * abs(want), z


class TestSinCosPi:
    @staticmethod
    def points():
        offsets = [e * u for e in (1e-14, 1e-10, 1e-6, 1e-3, 0.1)
                   for u in (1.0, -1.0, 1j, 0.6 + 0.8j)]
        return [k + h + off for k in range(-40, 41) for h in (0.0, 0.5) for off in offsets]

    @pytest.mark.parametrize("func,ref", [(sinpi, mp.sinpi), (cospi, mp.cospi)])
    def test_matches_mpmath(self, func, ref):
        with mp.workdps(30):
            for z in self.points():
                want = complex(ref(mp.mpc(z)))
                assert abs(func(z) - want) <= 1e-15 * abs(want), z

    def test_exact_zeros_and_signs(self):
        assert sinpi(-3.0) == 0.0 and cospi(2.5) == 0.0
        assert sinpi(2.5) == 1.0 and sinpi(-0.5) == -1.0
        assert cospi(3.0) == -1.0 and cospi(-4.0) == 1.0


class TestNonposIndex:
    def test_exact(self):
        assert nonpos_index(0.0) == 0 and nonpos_index(-3.0 + 0j) == 3
        assert nonpos_index(1.0) is None and nonpos_index(-3.0 + 1e-300j) is None
        assert nonpos_index(-2.5) is None

    def test_window(self):
        assert nonpos_index(-4.0 + 1e-10 - 1e-10j, 1e-9) == 4
        assert nonpos_index(-4.0 + 2e-9, 1e-9) is None
        assert nonpos_index(1e-10, 1e-9) == 0


class TestNearInt:
    def test_window(self):
        assert near_int(3.0) and near_int(-2.0 + 1e-10 + 1e-10j)
        assert not near_int(2.5) and not near_int(3.0 + 2e-9j)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(math.inf, 0.0),
                                   complex(math.nan, 0.0), complex(3.0, math.inf)])
    def test_non_finite_is_near_no_integer(self, z):
        # 2 nu of a finite nu can overflow; no integer is near inf
        assert near_int(z) is False
        assert near_int(z, 1.0) is False


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(4.2 + 1j, 0) == 1.0

    def test_rising_factorial(self):
        assert pochhammer(3.0, 4) == pytest.approx(360.0)

    def test_hits_zero(self):
        assert pochhammer(-2.0, 4) == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)


class TestPrincipalPow:
    def test_real_root(self):
        assert principal_pow(4.0, 0.5) == pytest.approx(2.0)

    def test_imaginary_square(self):
        assert principal_pow(1j, 2) == pytest.approx(-1.0)

    def test_continuity_above_negative_axis(self):
        # sqrt just above -1 approaches +i
        got = principal_pow(-1.0 + 1e-12j, 0.5)
        assert abs(got - 1j) < 1e-6

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchCutError):
            principal_pow(-1.0, 0.5)

    def test_integer_power_of_negative_base_is_real(self):
        assert principal_pow(-2.0, 3) == pytest.approx(-8.0)
        assert principal_pow(-2.0, 2) == pytest.approx(4.0)

    def test_zero_base(self):
        assert principal_pow(0.0, 2.5) == 0.0
        assert principal_pow(0.0, 0.0) == 1.0
        with pytest.raises(DomainError):
            principal_pow(0.0, -1.0)

    @pytest.mark.parametrize("base,exponent", [
        (1e-300j, -2.7), (-10.0, 400), (-10.0, 5000), (-1e-200, -4)])
    def test_beyond_double_range(self, base, exponent):
        with pytest.raises(DomainError, match="beyond double range"):
            principal_pow(base, exponent)


class TestRootY:
    def test_values(self):
        assert root_y(RootVariant.Y1, 0.0) == pytest.approx(1j)
        assert root_y(RootVariant.Y2, 2.0) == pytest.approx(math.sqrt(3.0))

    def test_branches_agree_upper_half_plane(self):
        x = 0.5 + 0.5j
        assert abs(root_y(RootVariant.Y1, x) - root_y(RootVariant.Y2, x)) < 1e-14

    def test_sign_relation_lower_half_plane(self):
        x = 0.5 - 0.5j
        assert abs(root_y(RootVariant.Y1, x) + root_y(RootVariant.Y2, x)) < 1e-14

    def test_parity(self):
        x = 0.3 + 1.1j
        assert root_y(RootVariant.Y1, -x) == pytest.approx(root_y(RootVariant.Y1, x))
        assert root_y(RootVariant.Y2, -x) == pytest.approx(-root_y(RootVariant.Y2, x))

    def test_square_is_x2_minus_1(self):
        for x in (0.2 + 0.9j, -0.7 + 0.1j, 1.5 - 2.0j):
            for variant in RootVariant:
                y = root_y(variant, x)
                assert abs(y * y - (x * x - 1.0)) <= 1e-12 * abs(x * x - 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            root_y(RootVariant.Y1, 1.5)
        with pytest.raises(DomainError):
            root_y(RootVariant.Y2, 0.5)
        # x * x underflows to 0 here
        for x in (1e-300j, 1e-200 + 1e-200j):
            with pytest.raises(SingularPointError):
                root_y(RootVariant.Y2, x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.complex_numbers(min_magnitude=0.01, max_magnitude=8.0,
                          allow_nan=False, allow_infinity=False))
def test_reflection_identity_fuzz(z):
    if abs(z.real - round(z.real)) < 1e-3 and abs(z.imag) < 1e-3:
        return
    val = gamma(z) * gamma(1.0 - z) * cmath.sin(math.pi * z) / math.pi
    assert abs(val - 1.0) < 1e-9
