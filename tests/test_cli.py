import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import ferrox
from ferrox import cli
from ferrox.cli import emit_json, main, parse_complex
from ferrox.errors import SingularPointError
from ferrox.regions import ARGUMENT_COUNT, in_region

ROOT = Path(__file__).parent.parent
SCHEMA = json.loads((ROOT / "docs" / "cli_schema.json").read_text())


def check_schema(obj, spec, schema=SCHEMA):
    """Minimal structural validator for the checked-in schema document."""
    if isinstance(spec, str):
        if spec.startswith("$"):
            name = spec[1:]
            if name == "compare_row":
                if "error" in obj:
                    key = "compare_row_error"
                else:
                    key = "compare_row_valid" if obj.get("valid") else "compare_row_invalid"
                return check_schema(obj, schema[key], schema)
            return check_schema(obj, schema[name], schema)
        if spec == "number":
            assert isinstance(obj, (int, float)) and not isinstance(obj, bool), obj
        elif spec == "float":  # a number, or a non-finite one as cli._fmt_float writes it
            assert obj in ("inf", "-inf", "nan") or (
                isinstance(obj, (int, float)) and not isinstance(obj, bool)), obj
        elif spec == "integer":
            assert isinstance(obj, int) and not isinstance(obj, bool), obj
        elif spec == "string":
            assert isinstance(obj, str), obj
        elif spec == "string_or_null":
            assert obj is None or isinstance(obj, str), obj
        elif spec == "boolean":
            assert isinstance(obj, bool), obj
        elif spec == "array":
            assert isinstance(obj, list), obj
        else:
            raise AssertionError(f"unknown schema atom {spec}")
        return
    if spec["type"] == "array":
        assert isinstance(obj, list)
        for item in obj:
            check_schema(item, spec["items"], schema)
        return
    assert spec["type"] == "object" and isinstance(obj, dict)
    for key, sub in spec["fields"].items():
        assert key in obj, f"missing field {key} in {obj}"
        check_schema(obj[key], sub, schema)
    allowed = set(spec["fields"]) | set(spec.get("optional", {}))
    for key in obj:
        assert key in allowed, f"unexpected field {key}"
    for key, sub in spec.get("optional", {}).items():
        if key in obj:
            check_schema(obj[key], sub, schema)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_cli_bytes(*argv):
    """Run ``main`` with stdout captured as bytes, through a text layer with
    a binary ``.buffer`` as the PGM writer needs."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(list(argv))
        out.flush()
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def run_cli_json(*argv):
    code, out = run_cli(*argv)
    return code, json.loads(out)


def run_cli_process(*argv, **kwargs):
    """Run ``python -m ferrox.cli`` in a child process that imports the same
    ferrox package as these tests."""
    src = str(Path(ferrox.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ferrox.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, **kwargs)


class TestComplexLiterals:
    @pytest.mark.parametrize("text,want", [
        ("0.5", 0.5 + 0j),
        ("-2", -2 + 0j),
        ("0.4i", 0.4j),
        ("-1.5i", -1.5j),
        ("0.2+0.3i", 0.2 + 0.3j),
        ("0.2-0.3i", 0.2 - 0.3j),
        ("1e-3+2e1i", 0.001 + 20j),
    ])
    def test_accepted_forms(self, text, want):
        assert parse_complex(text) == want

    @pytest.mark.parametrize("text", ["", "i", "1+i", "1 + 2i", "abc", "1+2j"])
    def test_rejected_forms(self, text):
        from ferrox.cli import _CliError
        with pytest.raises(_CliError):
            parse_complex(text)


class TestNegativeRealLiterals:
    """A complex literal with a negative real part may follow its option as
    a separate argument; it gives what the joined ``--opt=value`` gives."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--nu", "0.3", "--mu", "0.4", "--x", "-0.5-0.2i"),
        ("compare", "--nu", "-0.3-0.1i", "--mu", "0.4", "--x", "-0.5-0.2i"),
        ("fourier", "--nu", "-0.3+0.1i", "--mu", "-0.2-0.1i", "--theta", "1.0",
         "--n-terms", "50"),
        ("cut", "--a", "-0.3-0.1i", "--b", "1.1", "--c", "2.2", "--x", "3",
         "--side", "above"),
    ])
    def test_space_separated(self, argv):
        code, out = run_cli(*argv)
        assert code == 0
        joined = re.sub(r"(--(?:nu|mu|x|a)) (-)", r"\1=\2", " ".join(argv)).split()
        assert joined != list(argv)
        assert run_cli(*joined) == (0, out)


class TestJsonEmission:
    def test_seventeen_significant_digits(self):
        out = emit_json({"v": 1.0 / 3.0})
        assert out == '{"v": 0.33333333333333331}'

    def test_complex_encoding(self):
        assert emit_json(1 + 2j) == '{"re": 1, "im": 2}'

    def test_nested(self):
        assert emit_json([True, None, "a\"b"]) == '[true, null, "a\\"b"]'

    def test_string_escapes(self):
        # a quote and a backslash take a backslash, each of the 32 control
        # characters becomes \u00xx (lower-case hex), all else is kept
        text = "".join(chr(c) for c in range(0x80)) + "é \U0001f600"
        want = "".join('\\"' if ch == '"' else "\\\\" if ch == "\\"
                       else f"\\u{ord(ch):04x}" if ord(ch) < 0x20 else ch for ch in text)
        assert emit_json(text) == f'"{want}"'
        assert emit_json({text: 1}) == f'{{"{want}": 1}}'
        assert json.loads(emit_json(text)) == text
        assert [emit_json(chr(c)) for c in range(0x20)] == [f'"\\u00{c:02x}"' for c in range(0x20)]


class TestEval:
    def test_basic_value(self):
        code, obj = run_cli_json("eval", "--nu", "0", "--mu", "0", "--x", "0.5")
        assert code == 0
        check_schema(obj, SCHEMA["eval"])
        assert abs(obj["value"]["re"] - math.atanh(0.5)) < 1e-10

    @pytest.mark.parametrize("argv,error_type,message", [
        (("--nu", "0", "--mu", "0", "--x", "1.5"), "DomainError", "D1"),
        # gamma_quotient overflows at this degree
        (("--nu", "300.3", "--mu", "0.4", "--x", "0.3", "--rep", "FourierUV"),
         "ParameterError", "range"),
    ])
    def test_domain_error_exit_2(self, argv, error_type, message):
        code, obj = run_cli_json("eval", *argv)
        assert code == 2
        check_schema(obj, SCHEMA["error"])
        assert obj["error"]["type"] == error_type
        assert message in obj["error"]["message"]

    def test_parse_error_exit_1(self):
        code, _ = run_cli("eval", "--nu", "0", "--mu", "0", "--x", "zebra")
        assert code == 1

    def test_unknown_rep_exit_1(self):
        code, _ = run_cli("eval", "--nu", "0", "--mu", "0", "--x", "0.5",
                          "--rep", "IX9")
        assert code == 1

    def test_usage_error_exit_1(self):
        proc = run_cli_process("eval", "--nu", "0", text=True)
        assert proc.returncode == 1

    def test_forced_reps_agree(self):
        code1, a = run_cli_json("eval", "--nu", "0.3", "--mu", "0.4",
                                "--x", "0.2+0.3i", "--rep", "I1")
        code2, b = run_cli_json("eval", "--nu", "0.3", "--mu", "0.4",
                                "--x", "0.2+0.3i", "--rep", "II3")
        assert code1 == code2 == 0
        diff = abs(complex(a["value"]["re"], a["value"]["im"])
                   - complex(b["value"]["re"], b["value"]["im"]))
        assert diff < 1e-8

    def test_round_trip_with_compare(self):
        _, ev = run_cli("eval", "--nu", "0.3", "--mu", "0.4", "--x", "0.2",
                        "--rep", "II3")
        _, cp = run_cli("compare", "--nu", "0.3", "--mu", "0.4", "--x", "0.2")
        ev_obj = json.loads(ev)
        row = next(r for r in json.loads(cp)["rows"] if r["rep"] == "II3")
        # bit-for-bit identical serialized value
        assert emit_json(ev_obj["value"]) == emit_json(row["value"])


class TestCompare:
    def test_spread_small(self):
        code, obj = run_cli_json("compare", "--nu", "0.3", "--mu", "0.4", "--x", "0.2")
        assert code == 0
        check_schema(obj, SCHEMA["compare"])
        assert obj["rel_spread"] < 1e-8

    # the I4 row's 2F1 terms overflow at this degree; at x = 0.99 its
    # prefactor power underflows to 0 and is divided by.  The failing rows
    # carry their error and the rest of the table still prints.
    @pytest.mark.parametrize("x,error", [("0.3+0.4i", "ConvergenceError"),
                                         ("0.99", "DomainError")])
    def test_failing_row_keeps_table(self, x, error):
        code, obj = run_cli_json("compare", "--nu", "300.3", "--mu", "0.4", "--x", x)
        assert code == 0
        check_schema(obj, SCHEMA["compare"])
        rows = {r["rep"]: r for r in obj["rows"]}
        assert [r["rep"] for r in obj["rows"]] == [rep.value for rep in ferrox.RepresentationId]
        assert rows["I4"]["valid"] is True
        assert rows["I4"]["error"]["type"] == error
        failed = [r for r in obj["rows"] if "error" in r]
        values = [complex(r["value"]["re"], r["value"]["im"])
                  for r in obj["rows"] if "value" in r]
        assert len(values) >= 10
        assert all(r["valid"] for r in failed)
        assert sum(r["valid"] for r in obj["rows"]) == len(values) + len(failed)
        # the spread is taken over the rows with values
        want = max(2.0 * abs(a - b) / (abs(a) + abs(b))
                   for i, a in enumerate(values) for b in values[i + 1:])
        assert obj["rel_spread"] == want

    def test_integer_order_reasons(self):
        _, obj = run_cli_json("compare", "--nu", "0.3", "--mu", "1", "--x", "0.2")
        rows = {r["rep"]: r for r in obj["rows"]}
        for rep in ("I1", "I2", "I3", "I4", "II1", "II5"):
            assert rows[rep]["valid"] is False
            assert rows[rep]["reason"] == "mu in Z"

    def test_halfplane_reps_valid_off_axis(self):
        _, obj = run_cli_json("compare", "--nu", "0.3", "--mu", "0.4",
                              "--x", "0.2+0.1i")
        rows = {r["rep"]: r for r in obj["rows"]}
        for rep in ("I5", "II2", "II4"):
            assert rows[rep]["valid"] is True
        assert obj["rel_spread"] < 1e-8


class TestRegion:
    def test_csv_spot_values(self):
        code, out = run_cli("region", "--j", "7", "--re-min", "-2", "--re-max", "2",
                            "--im-min", "-2", "--im-max", "2", "--nx", "9", "--ny", "9")
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "re,im,inside_7"
        table = {}
        for line in lines[1:]:
            re_s, im_s, flag = line.split(",")
            table[(float(re_s), float(im_s))] = flag
        assert table[(0.5, 0.0)] == "1"
        assert table[(0.0, 1.0)] == "0"

    def test_hyperbola_contains_one(self):
        code, out = run_cli("region", "--j", "11", "--re-min", "0.5", "--re-max", "1.5",
                            "--im-min", "-0.5", "--im-max", "0.5", "--nx", "3", "--ny", "3")
        rows = out.strip().split("\r\n")[1:]
        middle = [r for r in rows if r.startswith("1,0,") or r.startswith("1,-0,")]
        assert middle and middle[0].endswith("1")

    def test_pgm_output(self, tmp_path):
        proc = run_cli_process(
            "region", "--j", "1", "--re-min", "-3", "--re-max", "3",
            "--im-min", "-3", "--im-max", "3", "--nx", "41", "--ny", "41",
            "--format", "pgm")
        assert proc.returncode == 0
        data = proc.stdout
        assert data.startswith(b"P5\n41 41\n255\n")
        pixels = data[len(b"P5\n41 41\n255\n"):]
        assert len(pixels) == 41 * 41
        # center pixel (x = 0) is inside the disk |1 - x| < 2
        assert pixels[20 * 41 + 20] == 255
        # far corner (x = -3 + 3i) is outside
        assert pixels[0] == 0

    def test_disk_area_fraction(self):
        # fraction of inside points over [-3,3]^2 approximates the area of
        # the disk |1 - x| < 2 clipped to the square, i.e. the disk part with
        # Re x <= 3 (the full disk: center 1, radius 2 fits horizontally)
        code, out = run_cli("region", "--j", "1", "--nx", "121", "--ny", "121")
        rows = out.strip().split("\r\n")[1:]
        inside = sum(1 for r in rows if r.endswith(",1"))
        frac = inside / len(rows)
        want = math.pi * 4.0 / 36.0
        assert abs(frac - want) < 0.02

    def test_far_grid(self):
        # |x| = 1.4e200 at the corners, beyond the range of e^{2 beta}
        code, out = run_cli("region", "--re-min=-1e200", "--re-max=1e200", "--im-min=-1e200",
                            "--im-max=1e200", "--nx", "2", "--ny", "2")
        assert code == 0
        rows = out.strip().split("\r\n")
        assert len(rows) == 5 and all(len(r.split(",")) == 20 for r in rows)

    def test_pgm_requires_single_j(self):
        code, _ = run_cli("region", "--format", "pgm")
        assert code == 1

    def test_bad_grid_exit_1(self):
        code, _ = run_cli("region", "--j", "1", "--nx", "1")
        assert code == 1

    # an infinite or NaN bound, a span beyond double range, and a last node
    # that the rounded step carries past the largest double
    @pytest.mark.parametrize("bounds", [
        ("--re-min=-inf",), ("--re-max=inf",), ("--im-min=nan",), ("--im-max=-inf",),
        ("--re-min=-1e308", "--re-max=1.7e308"), ("--im-min=-1e308", "--im-max=1.7e308"),
        ("--re-min=0", "--re-max=1.7976931348623157e308", "--nx=4"),
    ])
    @pytest.mark.parametrize("form", [("--format=csv",), ("--format=pgm", "--j=1")])
    def test_non_finite_grid_exit_1(self, capsys, bounds, form):
        code, out = run_cli_bytes("region", "--nx=3", "--ny=3", *form, *bounds)
        assert (code, out) == (1, b"")
        assert "grid" in capsys.readouterr().err

    def test_recorded_outputs(self):
        # the runs of the benchmark's region check, against its SHA-256 record
        recorded = json.loads((ROOT / "perfbench" / "region_sha256.json").read_text())
        assert len(recorded) == 40
        for argv, want in recorded.items():
            code, data = run_cli_bytes(*argv.split())
            assert code == 0 and hashlib.sha256(data).hexdigest() == want, argv

    def test_nodes_on_singular_points(self):
        # nodes fall exactly on -1, 0, 1 and +-i: each flag is in_region's
        # at that node, False where the map is singular
        grid = ("--re-min=-2", "--re-max=2", "--im-min=-1", "--im-max=1", "--nx=5", "--ny=3")

        def want(j, x):
            try:
                return in_region(j, x)
            except SingularPointError:
                return False

        code, out = run_cli_bytes("region", *grid)
        assert code == 0
        rows = out.decode().split("\r\n")[1:-1]
        assert len(rows) == 15
        xs = []
        for row in rows:
            fields = row.split(",")
            x = complex(float(fields[0]), float(fields[1]))
            xs.append(x)
            assert fields[2:] == ["1" if want(j, x) else "0"
                                  for j in range(1, ARGUMENT_COUNT + 1)], x
        assert {-1.0, 0.0, 1.0, 1j, -1j} <= set(xs)
        for j in range(1, ARGUMENT_COUNT + 1):
            code, data = run_cli_bytes("region", *grid, "--format=pgm", f"--j={j}")
            assert code == 0
            assert data == b"P5\n5 3\n255\n" + bytes(255 if want(j, x) else 0 for x in xs)


class TestFourierCommand:
    def test_conditional_series(self):
        code, obj = run_cli_json("fourier", "--nu", "1", "--mu", "0",
                                 "--theta", str(math.pi / 3), "--n-terms", "10000")
        assert code == 0
        check_schema(obj, SCHEMA["fourier"])
        assert obj["class"] == "Conditional"
        assert abs(obj["partial_sum"]["re"] - (0.5 * math.atanh(0.5) - 1.0)) < 1e-3
        assert obj["discrepancy"] < 1e-3

    def test_divergent_warns(self):
        code, obj = run_cli_json("fourier", "--nu", "0.3", "--mu", "1",
                                 "--theta", str(math.pi / 3), "--n-terms", "50")
        assert code == 0
        assert obj["class"] == "Divergent"
        assert "warning" in obj

    def test_absolute_matches_reference(self):
        code, obj = run_cli_json("fourier", "--nu", "0", "--mu", "-0.5",
                                 "--theta", str(math.pi / 3), "--n-terms", "2000")
        assert obj["class"] == "Absolute"
        assert obj["discrepancy"] < 1e-6

    # below 1 term fourier_partial_sum has no sum to form: a usage error, not
    # a traceback
    @pytest.mark.parametrize("n_terms", ["0", "-3"])
    def test_n_terms_below_1_exit_1(self, capsys, n_terms):
        code, out = run_cli("fourier", "--nu=0.3", "--mu=0.4", "--theta=1.0",
                            f"--n-terms={n_terms}")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "ferrox: --n-terms must be at least 1\n"


class TestOlbrichtCommand:
    def test_single_entry(self):
        code, obj = run_cli_json("olbricht", "--group", "I", "--index", "3")
        assert code == 0
        check_schema(obj, SCHEMA["olbricht"])
        assert obj["total"] == 1
        e = obj["entries"][0]
        assert "I.1" in e["identity"]
        assert e["identity_residual_max"] < 1e-10

    def test_group_selection(self):
        code, obj = run_cli_json("olbricht", "--group", "III", "--index", "5")
        assert code == 0
        assert obj["total"] == 2  # both root variants
        assert {e["root"] for e in obj["entries"]} == {"Y1", "Y2"}

    def test_catalogue_dump(self):
        code, obj = run_cli_json("olbricht", "--group", "II", "--index", "1",
                                 "--catalogue")
        assert code == 0
        assert len(obj["catalogue"]) == 88

    def test_bad_selection_exit_1(self):
        code, _ = run_cli("olbricht", "--group", "I", "--index", "99")
        assert code == 1

    # --samples=-2 used to drop the last two samples and pass, --samples=0
    # to fail every entry with "inf"; both are usage errors
    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_1_exit_1(self, capsys, samples):
        code, out = run_cli("olbricht", "--group=I", "--index=3", f"--samples={samples}")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "ferrox: --samples must be at least 1\n"

    def test_cmath_domain_error_exit_3(self):
        # e^(i pi nu) at nu = 1e308 is a cmath domain error: it used to end
        # the run on a traceback (exit 1); now the entry fails its check
        code, obj = run_cli_json("olbricht", "--nu=1e308", "--mu=0.4", "--group=III",
                                 "--index=2")
        assert code == 3
        check_schema(obj, SCHEMA["olbricht"])
        assert obj["entries"][0]["identity_residual_max"] == "inf"
        assert obj["passed"] == 0 and obj["entries"][0]["status"] == "fail"

    def test_verification_failure_exit_3(self):
        # nu = 0.5 makes this entry's lower parameter a gamma pole, so the
        # verification cannot pass and the run must report failure
        code, obj = run_cli_json("olbricht", "--group", "I", "--index", "9",
                                 "--nu", "0.5", "--mu", "0.5")
        assert code == 3
        check_schema(obj, SCHEMA["olbricht"])
        assert obj["entries"][0]["identity_residual_max"] == "inf"
        assert obj["entries"][0]["status"] == "fail"


class TestCutCommand:
    def test_log_case(self):
        code, obj = run_cli_json("cut", "--a", "1", "--b", "1", "--c", "2",
                                 "--x", "2", "--side", "above")
        assert code == 0
        check_schema(obj, SCHEMA["cut"])
        assert abs(obj["value"]["im"] - math.pi / 2) < 1e-10
        assert abs(obj["value"]["re"]) < 1e-10

    def test_sides_conjugate(self):
        _, above = run_cli_json("cut", "--a", "0.3", "--b", "1.1", "--c", "2.2",
                                "--x", "3", "--side", "above")
        _, below = run_cli_json("cut", "--a", "0.3", "--b", "1.1", "--c", "2.2",
                                "--x", "3", "--side", "below")
        assert above["value"]["re"] == pytest.approx(below["value"]["re"], abs=1e-12)
        assert above["value"]["im"] == pytest.approx(-below["value"]["im"], abs=1e-12)

    # x off the cut; a power |w| ** -a beyond double range; x = inf, where a
    # polynomial case would print nan
    @pytest.mark.parametrize("a,x", [("0.3", "0.5"), ("-400.3", "1e6"), ("-2", "inf"),
                                     ("0.3", "inf")])
    def test_domain_error_exit_2(self, a, x):
        code, obj = run_cli_json("cut", "--a", a, "--b", "1.1", "--c", "2.2",
                                 "--x", x, "--side", "above")
        assert code == 2
        check_schema(obj, SCHEMA["error"])
        assert obj["error"]["type"] == "DomainError"

    def test_cut_phase_beyond_double_range_exit_2(self):
        # e^(i pi beta) with |Im beta| = 300 used to exit 2 as an OverflowError
        code, obj = run_cli_json("cut", "--a=0.3", "--b=0.45", "--c=-0.5+300i", "--x=1.7",
                                 "--side=above")
        assert code == 2
        check_schema(obj, SCHEMA["error"])
        assert obj["error"]["type"] == "DomainError"
        assert "cut phase" in obj["error"]["message"]

    # 1e400 reads as inf, which no 2F1 parameter may be
    @pytest.mark.parametrize("slot", ["--a", "--b", "--c"])
    def test_non_finite_parameter_exit_2(self, slot):
        args = {"--a": "0.3", "--b": "0.4", "--c": "1.2", slot: "1e400"}
        code, obj = run_cli_json("cut", *[f"{k}={v}" for k, v in args.items()],
                                 "--x=2", "--side=above")
        assert code == 2
        check_schema(obj, SCHEMA["error"])
        assert obj["error"]["type"] == "ParameterError"
        assert "must be finite" in obj["error"]["message"]


class TestTolEnvVar:
    def test_override(self, monkeypatch):
        monkeypatch.setenv("FERROX_TOL", "1e-6")
        code, obj = run_cli_json("eval", "--nu", "0.3", "--mu", "0.4", "--x", "0.2")
        assert code == 0
        loose_terms = obj["terms_used"]
        monkeypatch.delenv("FERROX_TOL")
        _, tight = run_cli_json("eval", "--nu", "0.3", "--mu", "0.4", "--x", "0.2")
        assert tight["terms_used"] > loose_terms

    def test_invalid_value(self, monkeypatch):
        monkeypatch.setenv("FERROX_TOL", "soup")
        code, _ = run_cli("eval", "--nu", "0.3", "--mu", "0.4", "--x", "0.2")
        assert code == 1

    @pytest.mark.parametrize("raw", ["inf", "-1", "nan", "1", "-inf"])
    def test_out_of_range_value(self, monkeypatch, raw):
        monkeypatch.setenv("FERROX_TOL", raw)
        for argv in (("eval", "--nu", "0.3", "--mu", "0.4", "--x", "0.2"),
                     ("fourier", "--nu", "1", "--mu", "0", "--theta", "1.0")):
            code, out = run_cli(*argv)
            assert (code, out) == (1, "")


class TestTolOption:
    @pytest.mark.parametrize("raw", ["inf", "-1", "nan", "1", "1e300"])
    @pytest.mark.parametrize("command", [
        ("eval", "--nu", "0.3", "--mu", "0.4", "--x", "0.2"),
        ("compare", "--nu", "0.3", "--mu", "0.4", "--x", "0.2"),
        ("cut", "--a", "0.3", "--b", "1.1", "--c", "2.2", "--x", "3", "--side", "above"),
    ])
    def test_out_of_range_value(self, capsys, command, raw):
        code, out = run_cli(*command, "--tol", raw)
        assert (code, out) == (1, "")
        assert "--tol must be a finite number in [0, 1)" in capsys.readouterr().err

    def test_zero_is_accepted(self):
        code, _ = run_cli("eval", "--nu", "0.3", "--mu", "0.4", "--x", "0.2", "--tol", "0")
        assert code == 0


class TestParserReuse:
    """``main`` parses every call with one parser per process; no option of
    one call may leak into the next."""

    CUT = ("cut", "--a", "0.3", "--b", "1.1", "--c", "2.2", "--x", "3", "--side", "above")

    def test_built_once(self):
        run_cli(*self.CUT)
        run_cli(*self.CUT)
        assert cli._parser.cache_info().misses == 1

    def test_region_columns_after_single_j(self):
        code, _ = run_cli_bytes("region", "--j=5", "--format=pgm", "--nx=3", "--ny=3")
        assert code == 0
        code, out = run_cli("region", "--format=csv", "--nx=3", "--ny=3")
        assert code == 0
        rows = out.split("\r\n")[:-1]
        assert rows[0] == "re,im," + ",".join(f"inside_{j}" for j in range(1, 19))
        assert len(rows) == 10 and all(len(r.split(",")) == 20 for r in rows)

    def test_tol_after_explicit_tol(self, monkeypatch):
        monkeypatch.delenv("FERROX_TOL", raising=False)
        _, default = run_cli_json(*self.CUT)
        _, loose = run_cli_json(*self.CUT, "--tol=1e-6")
        assert loose["terms_used"] < default["terms_used"]
        assert run_cli_json(*self.CUT) == (0, default)
        run_cli_json(*self.CUT, "--tol=1e-15")
        monkeypatch.setenv("FERROX_TOL", "1e-6")
        assert run_cli_json(*self.CUT) == (0, loose)

    def test_rep_after_forced_rep(self):
        argv = ("eval", "--nu", "0.3", "--mu", "0.4", "--x", "0.2+0.3i")
        _, forced = run_cli_json(*argv, "--rep=I1")
        assert forced["rep"] == "I1"
        _, auto = run_cli_json(*argv)
        want = ferrox.ferrers_q(ferrox.ParamPair(0.3, 0.4), 0.2 + 0.3j)
        assert auto["rep"] == want.rep.value != "I1"

    def test_usage_error_then_next_call(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["region", "--format=bmp"])
        assert info.value.code == 1
        with pytest.raises(SystemExit) as info:
            main(["eval", "--nu", "0.3"])
        assert info.value.code == 1
        capsys.readouterr()
        code, obj = run_cli_json(*self.CUT)
        assert code == 0 and obj["side"] == "above"
