import pytest

from conftest import rel_diff
from ferrox.complexmath import RootVariant, gamma
from ferrox.errors import DomainError, FerroxError, ParameterError
from ferrox.ferrers import ParamPair, ferrers_p
from ferrox.olbricht import (
    ALL_IDS,
    OlbrichtId,
    catalogue,
    catalogue_records,
    default_samples,
    entry,
    eval_olbricht,
    identity_record,
    ode_residual,
    ode_samples,
    verify_identity,
)

P = ParamPair(0.3, 0.4)


class TestCatalogueShape:
    def test_72_entries(self):
        assert len(catalogue()) == 72
        assert {e.group for e in catalogue()} == {"I", "II", "III"}

    def test_root_admissibility(self):
        for e in catalogue():
            if e.group != "III":
                assert e.roots == ()
            elif e.index in (1, 2, 3, 4, 17, 18, 19, 20):
                assert e.roots == ("Y1",)
            else:
                assert e.roots == ("Y1", "Y2")

    def test_every_variant_has_identity_record(self):
        for oid in ALL_IDS:
            assert identity_record(oid).description

    def test_variant_count(self):
        # 24 + 24 rational entries, 8 single-root + 16 dual-root entries
        assert len(ALL_IDS) == 24 + 24 + 8 + 32

    def test_records_export(self):
        recs = catalogue_records()
        assert len(recs) == len(ALL_IDS)
        assert all("identity" in r and "domain" in r for r in recs)

    def test_disallowed_root_rejected(self):
        with pytest.raises(ParameterError):
            eval_olbricht(OlbrichtId("III", 1, RootVariant.Y2), P, 0.3)
        with pytest.raises(ParameterError):
            eval_olbricht(OlbrichtId("I", 1, RootVariant.Y1), P, 0.3)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            eval_olbricht(OlbrichtId("I", 17), P, 0.5)  # needs the right cut plane


class TestPointValues:
    def test_first_entry_reduces_to_first_kind(self):
        got = eval_olbricht(OlbrichtId("I", 1), P, 0.2)
        want = gamma(1.4) * ferrers_p(ParamPair(0.3, -0.4), 0.2).value
        assert rel_diff(got, want) < 1e-12

    def test_even_solution_initial_values(self):
        assert eval_olbricht(OlbrichtId("II", 1), P, 0.0) == pytest.approx(1.0)
        h = 1e-6
        deriv = (eval_olbricht(OlbrichtId("II", 1), P, h)
                 - eval_olbricht(OlbrichtId("II", 1), P, -h)) / (2 * h)
        assert abs(deriv) < 1e-8

    def test_odd_solution_initial_values(self):
        assert abs(eval_olbricht(OlbrichtId("II", 2), P, 0.0)) < 1e-15
        h = 1e-6
        deriv = (eval_olbricht(OlbrichtId("II", 2), P, h)
                 - eval_olbricht(OlbrichtId("II", 2), P, -h)) / (2 * h)
        assert deriv.real == pytest.approx(1.0, abs=1e-9)


class TestIdentities:
    @pytest.mark.parametrize("p", [
        P,
        ParamPair(1.6, -0.7),
        ParamPair(-0.4 + 0.2j, 0.1 + 0.1j),
        ParamPair(2.3, 1.3),
        ParamPair(0.7 - 0.3j, -0.6 + 0.2j),
    ])
    def test_all_variants_verify(self, p):
        for oid in ALL_IDS:
            rep = verify_identity(oid, p, default_samples(oid))
            assert rep.max_residual < 1e-8, f"{oid.label()}: {rep}"

    @pytest.mark.parametrize("x", [1e-300j, 1e-200 + 1e-200j])
    def test_tiny_x_gives_value_or_ferrox_error(self, x):
        # x * x underflows and x^(-1-nu-mu) overflows here; neither may
        # escape as a bare ZeroDivisionError or OverflowError.
        for oid in ALL_IDS:
            try:
                eval_olbricht(oid, P, x)
            except FerroxError:
                pass

    def test_euler_duplicate_is_tight(self):
        rep = verify_identity(OlbrichtId("I", 3), P, default_samples(OlbrichtId("I", 3)),
                              tol=1e-13)
        assert rep.max_residual < 1e-12

    def test_root_variants_agree_upper_half_plane(self):
        for idx in (5, 7, 9, 10, 21, 23):
            x = 0.52 + 0.17j if idx in (9, 10) else 0.18 + 0.31j
            a = eval_olbricht(OlbrichtId("III", idx, RootVariant.Y1), P, x)
            b = eval_olbricht(OlbrichtId("III", idx, RootVariant.Y2), P, x)
            assert rel_diff(a, b) < 1e-10, idx

    def test_root_variants_differ_lower_half_plane(self):
        x = 0.3 - 0.5j
        a = eval_olbricht(OlbrichtId("III", 5, RootVariant.Y1), P, x)
        b = eval_olbricht(OlbrichtId("III", 5, RootVariant.Y2), P, x)
        assert rel_diff(a, b) > 1e-3
        # and the monodromy-corrected reduction accounts for the difference
        rep = verify_identity(OlbrichtId("III", 5, RootVariant.Y1), P, [x])
        assert rep.max_residual < 1e-8


class TestOde:
    def test_all_variants_solve_the_equation(self):
        for oid in ALL_IDS:
            for x in ode_samples(oid):
                assert ode_residual(oid, P, x) < 1e-4, f"{oid.label()} at {x}"

    def test_near_singular_sample_rejected(self):
        with pytest.raises(DomainError):
            ode_residual(OlbrichtId("I", 1), P, 0.995)

    @pytest.mark.parametrize("oid,x", [
        (OlbrichtId("I", 1), 0.2),
        (OlbrichtId("II", 9), 2.0),
        (OlbrichtId("III", 9, RootVariant.Y2), 2.0),
    ])
    def test_spot_checks(self, oid, x):
        assert ode_residual(oid, P, x) < 1e-4

    def test_entry_lookup(self):
        e = entry("II", 16)
        assert e.argument == 8
        with pytest.raises(KeyError):
            entry("IV", 1)
