import cmath
import math

import mpmath as mp
import pytest

from ferrox import fourier
from ferrox.complexmath import gamma_quotient
from ferrox.errors import DomainError, ParameterError
from ferrox.ferrers import ParamPair, RepresentationId, ferrers_q, ferrers_q_rep
from ferrox.fourier import (
    ConvergenceClass,
    FourierTermStream,
    convergence_class,
    fourier_coefficient,
    fourier_partial_sum,
    fourier_term,
    lemma_checks,
)

mp.mp.dps = 25


class TestTerms:
    def test_vanishing_cosine(self):
        s = FourierTermStream(0, 0, math.pi / 2)
        assert abs(fourier_term(s, 0)) < 1e-15

    def test_leading_term_value(self):
        # sqrt(pi)/Gamma(3/2) * cos(pi/3) = 2 * 1/2 = 1
        s = FourierTermStream(0, 0, math.pi / 3)
        assert fourier_term(s, 0).real == pytest.approx(1.0, abs=1e-14)

    def test_term_ratio_tends_to_one(self):
        s = FourierTermStream(0.4, 0, math.pi / 3)
        ratios = []
        for k in (500, 2000, 8000):
            c1 = fourier_coefficient(s.nu, s.mu, k)
            c2 = fourier_coefficient(s.nu, s.mu, k + 1)
            ratios.append(abs(c2 / c1))
        assert abs(ratios[-1] - 1.0) < 1e-3
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_excluded_parameters(self):
        with pytest.raises(ParameterError):
            FourierTermStream(-2.0, 0.0, math.pi / 3)
        with pytest.raises(DomainError):
            FourierTermStream(0.3, 0.4, 3.5)


class TestPartialSums:
    def test_absolute_convergence_fast(self):
        s = FourierTermStream(0, -0.5, math.pi / 3)
        got = fourier_partial_sum(s, 200)
        want = ferrers_q(ParamPair(0, -0.5), 0.5).value
        assert abs(got - want) < 1e-6

    def test_conditional_convergence_slow(self):
        s = FourierTermStream(1, 0, math.pi / 3)
        got = fourier_partial_sum(s, 10_000)
        assert abs(got - (0.5 * math.atanh(0.5) - 1.0)) < 1e-3

    def test_identically_zero_at_right_angle(self):
        s = FourierTermStream(0, 0, math.pi / 2)
        assert abs(fourier_partial_sum(s, 500)) < 1e-12

    def test_two_sided_form_equivalence(self):
        # the partial sums approach the u/v representation for Re mu < 0;
        # the tail scales like N^(2 Re mu - 1), so mu is kept at or below
        # -1/2 for the 1e-6 budget at N = 2000
        for nu, mu in ((0.3, -0.5), (1.1, -0.6 + 0.1j)):
            p = ParamPair(nu, mu)
            for theta in (math.pi / 6, math.pi / 3, 2 * math.pi / 5):
                s = FourierTermStream(nu, mu, theta)
                partial = fourier_partial_sum(s, 2000)
                rep = ferrers_q_rep(RepresentationId.FOURIER_UV, p, math.cos(theta)).value
                auto = ferrers_q(p, math.cos(theta)).value
                assert abs(partial - rep) < 1e-6
                assert abs(partial - auto) < 1e-6


    # the sum as written before its loop invariants were hoisted
    @pytest.mark.parametrize("nu,mu,theta", [(0.3, -0.5, math.pi / 3),
                                             (1.1 - 0.2j, 0.4 + 0.1j, 0.7),
                                             (-0.45, -1.3 + 0.5j, 2.9)])
    def test_hoisted_sum_has_the_bits_of_the_written_out_one(self, nu, mu, theta):
        s = FourierTermStream(nu, mu, theta)
        nu, mu = s.nu, s.mu
        coeff = gamma_quotient((nu + mu + 1.0,), (nu + 1.5,))
        total = 0.0 + 0.0j
        for k in range(3000):
            total += coeff * cmath.cos((nu + mu + 2.0 * k + 1.0) * theta)
            coeff *= (nu + mu + 1.0 + k) / (nu + 1.5 + k) * (mu + 0.5 + k) / (k + 1.0)
        assert fourier_partial_sum(s, 3000) == fourier._prefactor(s) * total


class TestTrichotomy:
    @pytest.mark.parametrize("mu,want", [
        (-0.5, ConvergenceClass.ABSOLUTE),
        (0.0, ConvergenceClass.CONDITIONAL),
        (0.25, ConvergenceClass.CONDITIONAL),
        (0.5, ConvergenceClass.DIVERGENT),
        (1.0, ConvergenceClass.DIVERGENT),
    ])
    def test_classes_off_right_angle(self, mu, want):
        assert convergence_class(mu, math.pi / 3).kind is want

    def test_imaginary_part_irrelevant(self):
        assert convergence_class(-0.5 + 2j, 1.0).kind is ConvergenceClass.ABSOLUTE
        assert convergence_class(0.25 - 1j, 1.0).kind is ConvergenceClass.CONDITIONAL

    def test_right_angle_caveats(self):
        rep = convergence_class(0.25, math.pi / 2)
        assert rep.kind is ConvergenceClass.CONDITIONAL
        assert rep.absolute_at_half_pi is True
        rep2 = convergence_class(1.0, math.pi / 2)
        assert rep2.kind is ConvergenceClass.UNCLASSIFIED
        assert rep2.note

    def test_theta_range(self):
        with pytest.raises(DomainError):
            convergence_class(0.2, 0.0)


class TestAsymptotics:
    @pytest.mark.parametrize("mu", [0.25, -0.3, 0.1 + 0.1j])
    def test_coefficient_decay_rate(self, mu):
        k = 10_000
        c = fourier_coefficient(0.3, mu, k)
        normalized = abs(c) * k ** (1.0 - 2.0 * complex(mu).real)
        want = abs(complex(mp.rgamma(mu + 0.5)))
        assert abs(normalized / want - 1.0) < 0.05

    def test_divergence_witness(self):
        # for Re mu >= 1/2 the term magnitudes stay bounded away from 0
        s = FourierTermStream(0.3, 1.0, math.pi / 3)
        floors = []
        for n in (200, 800, 3200):
            floors.append(max(abs(fourier_term(s, k))
                              for k in range(n, 2 * n, max(1, n // 40))))
        assert min(floors) > 1.0
        assert floors[-1] >= floors[0]


class TestLemmaChecks:
    def test_harmonic_sum_diverges(self):
        rep = lemma_checks(0.3, 1.0, math.pi / 3, 100_000)
        assert rep.harmonic_cos_sum > 0.2 * math.log(100_000)
        assert rep.harmonic_diverges
        assert not rep.harmonic_degenerate

    def test_window_floor(self):
        rep = lemma_checks(0.0, 1.0, math.pi / 3, 1000)
        assert rep.window_min_of_max >= 0.4
        assert rep.window_stays_positive

    def test_degenerate_case_identically_zero(self):
        rep = lemma_checks(math.pi / 2, 1.0, math.pi / 2, 1000)
        assert rep.harmonic_cos_sum < 1e-10
        assert rep.harmonic_degenerate

    def test_small_budget_rejected(self):
        with pytest.raises(ValueError):
            lemma_checks(0.1, 1.0, 1.0, 50)
