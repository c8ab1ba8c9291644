"""The record types of ferrox: plain records are named tuples, and the two
records that keep work beside their fields (``ParamPair``, ``HypParams``)
compare, hash, print and pickle by their fields alone.  ``import ferrox``
and ``import ferrox.cli`` load neither ``dataclasses`` nor ``inspect``, and
``ferrox.cli`` loads ``ferrox.olbricht`` and ``ferrox.fourier`` only when their
commands run."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ferrox import cli, ferrers, fourier, hyp2f1, olbricht, regions
from ferrox.errors import DomainError, ParameterError
from ferrox.ferrers import ParamPair, ferrers_p, ferrers_q, legendre_q, valid_representations
from ferrox.hyp2f1 import HypParams, f21
from ferrox.olbricht import OlbrichtId, Reduction, verify_catalogue

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter: pytest itself imports dataclasses
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ferrox, ferrox.cli; "
            "assert ferrox.__file__.startswith(sys.argv[1]), ferrox.__file__; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_loads_olbricht_and_fourier_when_they_run():
    # only `ferrox olbricht` and `ferrox fourier` read these modules
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ferrox.cli; "
            "lazy = lambda: sorted({'ferrox.olbricht', 'ferrox.fourier'} & set(sys.modules)); "
            "print(lazy(), file=sys.stderr); "
            "codes = [ferrox.cli.main(['olbricht', '--group=I', '--index=1']), "
            "ferrox.cli.main(['fourier', '--nu=0.3', '--mu=0.4', '--theta=1', '--n-terms=10'])]; "
            "print(codes, lazy(), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True)
    assert out.stderr.splitlines() == [
        "[]", "[0, 0] ['ferrox.fourier', 'ferrox.olbricht']"]
    assert '"passed": 1, "total": 1}' in out.stdout and '"class": ' in out.stdout


RECORD_FIELDS = {
    ferrers.EvalOutcome: ("value", "rep", "terms_used", "tail_estimate"),
    ferrers.RepValidity: ("rep", "ok", "reason", "region_ok", "preference"),
    hyp2f1.SeriesResult: ("value", "terms_used", "tail_estimate"),
    hyp2f1._Connection: ("arg", "difference", "bases", "terms"),
    regions.RegionReport: ("x", "inside", "domains"),
    fourier.FourierTermStream: ("nu", "mu", "theta"),
    fourier.ConvergenceReport: ("kind", "absolute_at_half_pi", "note"),
    fourier.LemmaReport: ("harmonic_cos_sum", "harmonic_threshold", "harmonic_diverges",
                          "harmonic_degenerate", "window_min_of_max", "window_floor",
                          "window_stays_positive"),
    olbricht.OlbrichtId: ("group", "index", "root"),
    olbricht.CatalogueEntry: ("group", "index", "roots", "domain", "prefactors", "hyp",
                              "argument", "reflect_of"),
    olbricht.Reduction: ("target", "degree", "order", "scale", "terms", "monodromy"),
    olbricht.IdentityRecord: ("description", "reduction", "equals"),
    olbricht.IdentityOutcome: ("x", "residual", "error"),
    olbricht.IdentityReport: ("id", "description", "outcomes"),
    olbricht.CatalogueCheck: ("identity", "ode_residual_max", "ode_error"),
    ferrers.Coefficient: ("const", "signed", "gammas", "rgammas", "powers", "phase", "trig",
                          "extra"),
    cli.GridSpec: ("re_min", "re_max", "im_min", "im_max", "nx", "ny"),
}


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda r: r.__name__)
def test_record_fields(record):
    assert issubclass(record, tuple)
    assert record._fields == RECORD_FIELDS[record]


def test_records_are_tuples_of_their_fields():
    oid = OlbrichtId("III", 7)
    assert oid == ("III", 7, None) and tuple(oid) == ("III", 7, None) and oid[1] == 7
    assert repr(oid) == "OlbrichtId(group='III', index=7, root=None)"
    s = fourier.FourierTermStream(0.3, 0.4, 1)
    assert s == (0.3 + 0j, 0.4 + 0j, 1.0) and type(s.theta) is float
    assert pickle.loads(pickle.dumps(s)) == s


def test_validating_records_raise_on_construction():
    with pytest.raises(DomainError, match=r"theta must lie in \(0, pi\); got 4.0"):
        fourier.FourierTermStream(0.3, 0.4, 4)
    with pytest.raises(ParameterError, match="nu \\+ mu = \\(-2\\+0j\\) in -N"):
        fourier.FourierTermStream(-1.5, -0.5, 1)
    # the first failed check is the one reported
    with pytest.raises(cli._CliError, match="grid needs nx, ny >= 2"):
        cli.GridSpec(1.0, 0.0, float("nan"), 0.0, 1, 5)
    with pytest.raises(cli._CliError, match="grid bounds must be finite numbers"):
        cli.GridSpec(1.0, 0.0, float("nan"), 0.0, 2, 5)
    with pytest.raises(cli._CliError, match="re_min < re_max"):
        cli.GridSpec(1.0, 0.0, 0.0, 1.0, 2, 5)
    with pytest.raises(cli._CliError, match="grid nodes beyond double range"):
        cli.GridSpec(-1e308, 1e308, 0.0, 1.0, 2, 5)


def _use_pair(p):
    ferrers_q(p, 0.5), ferrers_p(p, 0.5), legendre_q(p, 1.5 + 0.2j)
    valid_representations(p, 0.3j)


def _use_params(h):
    for w in (0.3, -0.95 + 0.1j, -3.0, 0.5 + 0.8j, 1.5 + 1e-3j, 0.95):
        f21(h, w)
    h.pfaff, h.gapped


@pytest.mark.parametrize("make,use,text,kept", [
    (lambda: ParamPair(0.3, 0.4), _use_pair, "ParamPair(nu=(0.3+0j), mu=(0.4+0j))",
     {"_excluded"}),
    (lambda: HypParams(0.3, 0.7, 1.9), _use_params,
     "HypParams(a=(0.3+0j), b=(0.7+0j), c=(1.9+0j))",
     {"pfaff", "gapped", "shifted", "connection_terms", "ratios"}),
])
def test_kept_work_is_not_part_of_the_record(make, use, text, kept):
    used, fresh = make(), make()
    use(used)
    assert kept <= set(vars(used)) and not kept & set(vars(fresh))
    assert repr(used) == repr(fresh) == text
    assert used == fresh and hash(used) == hash(fresh) and not used != fresh
    assert used != tuple(used._values()) and not isinstance(used, tuple)
    # a pickle carries the fields alone: its bytes are those of a fresh record
    assert pickle.dumps(used) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(used))
    assert back == used and vars(back) == vars(make())
    for name in (*used._fields, "_memo", "new"):
        with pytest.raises(AttributeError):
            setattr(used, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(used, name)
    assert repr(used) == text


def test_pair_makes_its_memo_and_works_out_exclusions_on_first_read():
    p = ParamPair(0.3, 0.4)
    assert vars(p) == {"nu": 0.3 + 0j, "mu": 0.4 + 0j, "_memo": {}}
    assert p._excluded == set() and vars(p)["_excluded"] is p._excluded
    assert ParamPair(0.5, 0.5)._excluded == {"two_mu_int", "two_nu_int", "nu_half_int",
                                              "numu_int", "numu_pos"}
    with pytest.raises(AttributeError, match="'ParamPair' object has no attribute 'plan'"):
        p.plan


def test_params_work_out_their_route_facts_on_first_read():
    h = HypParams(0.3, 0.7, 1.9)
    assert set(vars(h)) == {"a", "b", "c", "c_pole", "degree"}
    assert h.pfaff == HypParams(0.3, 1.2, 1.9) and h.pfaff is vars(h)["pfaff"]
    assert h.shifted == HypParams(1.3, 1.7, 2.9) and h.shifted is h.shifted
    assert h.gapped == ("a-b", "c-a-b") and vars(h)["gapped"] is h.gapped
    assert HypParams(0.3, 1.3, 1.9).gapped == ("c-a-b",)
    with pytest.raises(AttributeError, match="'HypParams' object has no attribute 'plan'"):
        h.plan


def test_memo_keys_do_not_collide():
    # every kind of key that ferrers and olbricht put in one pair's memo,
    # after a catalogue run: each key is of one kind, and its value is the
    # kind of value that kind keeps
    p = ParamPair(0.3, 0.4)
    _use_pair(p)
    verify_catalogue(p)
    kinds = {}
    for key, value in p._memo.items():
        if isinstance(key, ferrers._RepSpec):
            kind = "record"
            assert all(isinstance(h, HypParams) for h in value)
        elif type(key) is Reduction:
            kind = "reduction"
            assert isinstance(value[0], ParamPair)
        elif type(key) is ferrers.Coefficient:
            kind = "scale"
        elif isinstance(key[0], ferrers._RepSpec):
            kind = "record evaluator"
            # (record, sign g): g is the record's own sign, or either sign
            # of a half-plane record; the evaluator is compiled for it
            spec, g = key
            signs = (1, -1) if spec.sign is ferrers._Sign.HALFPLANE else (spec.sign.value,)
            assert g in signs and callable(value)
        else:
            raise AssertionError(f"unknown memo key {key!r}")
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"record", "reduction", "scale", "record evaluator"}
    # the catalogue's records are records too, each compiled for its one sign 0
    catalogue = set(olbricht._RECORDS.values())
    assert catalogue <= set(p._memo)
    assert {(spec, 0) for spec in catalogue} <= set(p._memo)
