import gc
import math
import pickle
import weakref

import pytest

from conftest import rel_diff
from ferrox import olbricht
from ferrox.complexmath import RootVariant, gamma, root_y
from ferrox.errors import DomainError, FerroxError, ParameterError
from ferrox.ferrers import (
    DEFAULT_TOL,
    Coefficient,
    ParamPair,
    _RepSpec,
    _coefficient,
    _coefficients_at,
    ferrers_p,
    ferrers_q,
    legendre_q,
)
from ferrox.hyp2f1 import HypParams, f21
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
    verify_catalogue,
    verify_identity,
)

from ferrox.regions import DomainId, argument, in_domain, map_value

P = ParamPair(0.3, 0.4)


def reference(oid, p, x, tol):
    """The catalogue records read one call at a time, apart from the
    evaluators: the domain test, a reflected entry by recursion at -x, the
    prefactor from its powers, the argument map and f21 on a fresh
    ``HypParams``."""
    e = entry(oid.group, oid.index)
    dom = olbricht._entry_domain(e, oid.root)
    if dom == "D1-offaxis":
        inside = in_domain(DomainId.D1, x) and x.real != 0.0
    else:
        inside = in_domain(DomainId(dom), x)
    if not inside:
        raise DomainError(f"x = {x} outside domain {dom} of entry {oid.label()}")
    if e.reflect_of is not None:
        return reference(OlbrichtId(e.group, e.reflect_of, oid.root), p, -x, tol)
    y = root_y(oid.root, x) if e.roots else None
    powers = tuple((b, a) for tag, a in e.prefactors
                   for b in (("x+1", "x-1") if tag == "x2m1" else (tag,)))
    try:
        part = _coefficient(Coefficient(powers=powers), p.nu, p.mu, 1)
        pref = _coefficients_at([part], olbricht._BASES, [b for b, _ in powers], x, y)[0]
    except (ArithmeticError, ValueError) as exc:
        what = f"prefactor of entry {oid.label()}"
        raise DomainError(f"{what}: beyond double range ({exc})") from None
    w = map_value(int(e.argument[1:]), x, y) if e.roots else argument(e.argument, x)
    hp = HypParams(*[a0 + a1 * p.nu + a2 * p.mu for a0, a1, a2 in e.hyp])
    return pref * f21(hp, w, tol).value


def outcome(evaluate, *args):
    try:
        return repr(evaluate(*args))
    except FerroxError as exc:
        return type(exc).__name__, str(exc)


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


class TestCatalogueRun:
    """``verify_catalogue`` keeps each pair's parameter work in its memo
    and evaluates each entry value once per run; neither changes a
    result."""

    @pytest.mark.parametrize("nu,mu", [(0.3, 0.4), (1.3 - 0.1j, -0.3 + 0.02j)])
    def test_run_equals_fresh_calls(self, nu, mu):
        checks = verify_catalogue(ParamPair(nu, mu))
        assert [c.identity.id for c in checks] == list(ALL_IDS)
        for oid, (report, ode_max, ode_error) in zip(ALL_IDS, checks):
            fresh = verify_identity(oid, ParamPair(nu, mu), default_samples(oid))
            assert repr(report) == repr(fresh)
            odes = [ode_residual(oid, ParamPair(nu, mu), x) for x in ode_samples(oid)]
            assert repr((ode_max, ode_error)) == repr((max(odes), None))

    def test_each_value_once(self, monkeypatch):
        seen, counting = [], {}

        def counted(oid, p):
            # one counting wrapper per evaluator, as the run keeps values per evaluator
            evaluate = compiled(oid, p)

            def value(x, tol):
                seen.append((oid, repr(x), tol))
                return evaluate(x, tol)
            return counting.setdefault(evaluate, value)

        compiled = olbricht._evaluator
        monkeypatch.setattr(olbricht, "_evaluator", counted)
        checks = verify_catalogue(P)
        assert all(c.identity.max_residual < 1e-8 for c in checks)
        assert len(seen) == len(set(seen))
        # III.1 (Y1) is III.5 (Y1) at -x: its right-hand sides are III.5's values
        assert (OlbrichtId("III", 5, RootVariant.Y1), repr(-(0.18 + 0.31j)), 1e-12) in seen

    def test_values_keep_the_sign_of_zero(self):
        values = {}
        oid = OlbrichtId("I", 9)
        evaluate = olbricht._evaluator(oid, P)
        above = olbricht._value(values, evaluate, complex(-1.9, 0.0), 1e-12)
        below = olbricht._value(values, evaluate, complex(-1.9, -0.0), 1e-12)
        assert len(values) == 2
        assert above == eval_olbricht(oid, P, complex(-1.9, 0.0))
        assert below == eval_olbricht(oid, P, complex(-1.9, -0.0))

    @pytest.mark.parametrize("nu,mu", [(0.3, 0.4), (1.3 - 0.1j, -0.3 + 0.02j),
                                       (1e308, 0.4), (-1e308, 0.4)])
    def test_evaluators_match_the_records(self, nu, mu):
        # every variant at its identity samples and at its ODE stencil points
        # up to the first that raises, as a run takes them: the first point
        # compiles its evaluator, the others reuse what it kept; at the two
        # small pairs, again on a pair a run has used
        p = ParamPair(nu, mu)
        used = None if abs(nu) > 1e300 else ParamPair(nu, mu)
        if used is not None:
            verify_catalogue(used)

        def check(oid, x, tol):
            want = outcome(reference, oid, ParamPair(nu, mu), complex(x), tol)
            assert outcome(eval_olbricht, oid, p, x, tol) == want, (oid, x)
            if used is not None:
                assert outcome(eval_olbricht, oid, used, x, tol) == want, (oid, x)
            return isinstance(want, str)

        for oid in ALL_IDS:
            for x in default_samples(oid):
                check(oid, x, DEFAULT_TOL)
            for x in ode_samples(oid):
                all(check(oid, x + k * 1e-4, 1e-14) for k in (-2, -1, 0, 1, 2))
        assert pickle.dumps(p) == pickle.dumps(used or p) == pickle.dumps(ParamPair(nu, mu))

    def test_a_dropped_pair_is_freed_at_once(self):
        # the memo holds no reference back to its pair: a pair used in a
        # run, or by ferrers and a run, which fill one memo, is freed when
        # dropped, without waiting for the cycle collector
        def ferrers_and_run(p):
            ferrers_q(p, 0.5), ferrers_p(p, 0.5), legendre_q(p, 1.5 + 0.2j)
            verify_catalogue(p, samples=1)
            assert {type(key) for key in p._memo} >= {_RepSpec, OlbrichtId}

        gc.disable()
        try:
            for use in (lambda p: verify_catalogue(p, samples=1), ferrers_and_run):
                p = ParamPair(0.3, 0.4)
                use(p)
                ref = weakref.ref(p)
                del p
                assert ref() is None
        finally:
            gc.enable()

    def test_huge_degree_raises_the_error_of_a_fresh_pair(self):
        # I.9's c = -2 nu is -inf, but its prefactor power leaves double range
        # first; the memo forms the HypParams after the prefactor, so that is
        # the error raised, on a fresh pair and on a used one
        p = ParamPair(1e308, 0.4)
        message = "prefactor of entry I.9: beyond double range (math range error)"
        for _ in range(2):
            with pytest.raises(DomainError) as info:
                eval_olbricht(OlbrichtId("I", 9), p, -1.9)
            assert str(info.value) == message
        report = verify_catalogue(p, [OlbrichtId("I", 9)], samples=1)[0].identity
        assert report.outcomes[0].error == f"DomainError: {message}"

    @pytest.mark.parametrize("nu,mu", [(1e308, 0.4), (-1e308, 0.4), (0.3, 1e308)])
    def test_series_that_cannot_converge_are_refused_at_once(self, nu, mu):
        # at a huge pair many entry series overflow in their first terms; each
        # is refused as such, none runs its whole term budget first
        checks = verify_catalogue(ParamPair(nu, mu))
        errors = [o.error for c in checks for o in c.identity.outcomes if o.error]
        errors += [c.ode_error for c in checks if c.ode_error]
        assert any("2F1 series terms overflow" in e for e in errors)
        assert not any("did not reach tol" in e for e in errors)

    def test_cmath_domain_error_is_reported(self):
        # e^(i pi nu) at nu = 1e308 is a cmath domain error (ValueError), not
        # an ArithmeticError; the report names it and the run does not raise
        oid = OlbrichtId("III", 2, RootVariant.Y1)
        report = verify_identity(oid, ParamPair(1e308, 0.4), default_samples(oid))
        errors = [o.error for o in report.outcomes]
        assert all(o.residual == math.inf for o in report.outcomes)
        assert ("DomainError: prefactor of entry III.2.Y1: beyond double range "
                "(math domain error)") in errors

    def test_samples_and_selection(self):
        ids = [oid for oid in ALL_IDS if oid.group == "III"][:6]
        checks = verify_catalogue(P, ids, samples=2)
        assert [c.identity.id for c in checks] == ids
        assert all(len(c.identity.outcomes) == 2 for c in checks)

    def test_pair_keeps_equality_hash_repr_and_pickle(self):
        p, fresh = ParamPair(0.3, 0.4), ParamPair(0.3, 0.4)
        before = hash(p), repr(p)
        verify_catalogue(p)
        assert p._memo is p._memo and OlbrichtId("I", 1) in p._memo
        assert p == fresh
        assert (hash(p), repr(p)) == before == (hash(fresh), repr(fresh))
        # the memo is not pickled: the bytes are those of an unused pair
        assert pickle.dumps(p) == pickle.dumps(fresh)
        q = pickle.loads(pickle.dumps(p))
        oid = OlbrichtId("III", 7, RootVariant.Y1)
        assert verify_identity(oid, q, [0.3 - 0.5j]) == verify_identity(oid, p, [0.3 - 0.5j])
