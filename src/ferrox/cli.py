"""Command-line interface.

Subcommands:

- ``eval``     evaluate the second-kind Ferrers function (JSON)
- ``compare``  evaluate every valid representation and report the spread
               (a row that raises carries its error instead of a value)
- ``region``   sample convergence regions on a grid (CSV or PGM raster)
- ``fourier``  partial sums of the cosine expansion plus convergence class
- ``olbricht`` verify the catalogue of classical solutions (JSON report)
- ``cut``      one-sided hypergeometric values on the cut [1, inf)

Exit codes: 0 success, 1 usage or parse error, 2 mathematical domain,
parameter or arithmetic (overflow) error, 3 verification failure.  All
numeric JSON fields are printed with 17 significant digits so outputs diff
cleanly.  The default tolerance 1e-12 can be overridden with ``--tol`` or
the FERROX_TOL environment variable, by a finite number in [0, 1).
``fourier`` and ``olbricht`` import their modules when they run, so no
other command loads them.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from collections import namedtuple

from .errors import FerroxError
from .ferrers import (
    ParamPair,
    RepresentationId,
    ferrers_q,
    ferrers_q_rep,
    valid_representations,
)
from .hyp2f1 import DEFAULT_TOL, CutSide, HypParams, f21_cut
from .regions import ARGUMENT_COUNT, region_flags, region_test

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_VERIFY = 3

IDENTITY_TOL = 1e-8
ODE_TOL = 1e-4


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_REAL = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^(?:(?P<re>{_REAL})(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?"
    rf"|(?P<imonly>{_REAL})i)$"
)


def parse_complex(text: str) -> complex:
    """Parse the literal forms a, ai, a+bi, a-bi (no whitespace)."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise _CliError(f"cannot parse complex literal {text!r}", EXIT_USAGE)
    if m.group("imonly") is not None:
        return complex(0.0, float(m.group("imonly")))
    re_part = float(m.group("re"))
    im_part = float(m.group("im")) if m.group("im") else 0.0
    return complex(re_part, im_part)


# ---------------------------------------------------------------------------
# Deterministic JSON emission with fixed float formatting
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


#: JSON string escapes: quote, backslash and the control characters.
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


def emit_json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return emit_json({"re": obj.real, "im": obj.imag})
    if isinstance(obj, dict):
        inner = ", ".join(f'"{_escape(str(k))}": {emit_json(v)}' for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _print_json(obj) -> None:
    sys.stdout.write(emit_json(obj) + "\n")


def _error_json(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _tol(option: float | None = None) -> float:
    """``--tol`` when given, else FERROX_TOL when set, else the default; it
    must be a finite number in [0, 1)."""
    source, raw = "--tol", option
    if option is None:
        source, raw = "FERROX_TOL", os.environ.get("FERROX_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise _CliError(f"{source} is not a number: {raw!r}", EXIT_USAGE)
    if not 0.0 <= value < 1.0:  # also refuses nan
        raise _CliError(f"{source} must be a finite number in [0, 1); got {raw!r}", EXIT_USAGE)
    return value


def _rep_from_name(name: str) -> RepresentationId:
    for rep in RepresentationId:
        if rep.value == name:
            return rep
    valid = ", ".join(r.value for r in RepresentationId)
    raise _CliError(f"unknown representation {name!r}; choose from {valid}", EXIT_USAGE)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    tol = _tol(args.tol)
    p = ParamPair(parse_complex(args.nu), parse_complex(args.mu))
    x = parse_complex(args.x)
    if args.rep is not None:
        out = ferrers_q_rep(_rep_from_name(args.rep), p, x, tol)
    else:
        out = ferrers_q(p, x, tol)
    _print_json({
        "value": out.value,
        "rep": out.rep.value if out.rep else None,
        "terms_used": out.terms_used,
        "tail_estimate": out.tail_estimate,
    })
    return EXIT_OK


def _cmd_compare(args) -> int:
    tol = _tol(args.tol)
    p = ParamPair(parse_complex(args.nu), parse_complex(args.mu))
    x = parse_complex(args.x)
    rows = []
    values = []
    for v in valid_representations(p, x):
        row = {"rep": v.rep.value, "valid": v.ok}
        if not v.ok:
            row["reason"] = v.reason
        else:
            try:
                out = ferrers_q_rep(v.rep, p, x, tol)
            except FerroxError as exc:
                # one failing representation leaves the rest of the table
                row.update(_error_json(exc))
            else:
                row["value"] = out.value
                row["terms_used"] = out.terms_used
                row["tail_estimate"] = out.tail_estimate
                values.append(out.value)
        rows.append(row)
    spread = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            denom = abs(values[i]) + abs(values[j])
            if denom:
                spread = max(spread, 2.0 * abs(values[i] - values[j]) / denom)
    _print_json({"rows": rows, "rel_spread": spread})
    return EXIT_OK


class GridSpec(namedtuple("GridSpec", "re_min re_max im_min im_max nx ny")):
    """A region grid: float bounds and int node counts, checked on
    construction."""

    __slots__ = ()

    def __new__(cls, re_min: float, re_max: float, im_min: float, im_max: float,
                nx: int, ny: int):
        self = super().__new__(cls, re_min, re_max, im_min, im_max, nx, ny)
        if nx < 2 or ny < 2:
            raise _CliError("grid needs nx, ny >= 2", EXIT_USAGE)
        if not all(map(math.isfinite, (re_min, re_max, im_min, im_max))):
            raise _CliError("grid bounds must be finite numbers", EXIT_USAGE)
        if not (re_min < re_max and im_min < im_max):
            raise _CliError("grid needs re_min < re_max and im_min < im_max",
                            EXIT_USAGE)
        # The nodes run monotonically from the bounds, so the last ones are
        # the largest; they overflow when a span or a rounded step does.
        res, ims = self.axes()
        if not (math.isfinite(res[-1]) and math.isfinite(ims[-1])):
            raise _CliError("grid nodes beyond double range: re_max - re_min or "
                            "im_max - im_min is too large", EXIT_USAGE)
        return self

    def axes(self) -> tuple[list[float], list[float]]:
        """The real parts of the grid's columns, left to right, and the
        imaginary parts of its rows, top (largest) first."""
        dre = (self.re_max - self.re_min) / (self.nx - 1)
        dim = (self.im_max - self.im_min) / (self.ny - 1)
        return ([self.re_min + ix * dre for ix in range(self.nx)],
                [self.im_max - iy * dim for iy in range(self.ny)])


def _cmd_region(args) -> int:
    if args.format == "pgm" and args.j is None:
        raise _CliError("PGM output needs a single --j", EXIT_USAGE)
    # Output is written row by row: memory holds one row, not the grid.
    res, ims = GridSpec(args.re_min, args.re_max, args.im_min, args.im_max,
                        args.nx, args.ny).axes()
    if args.format == "pgm":
        inside = region_test(args.j)
        out = sys.stdout.buffer
        out.write(f"P5\n{args.nx} {args.ny}\n255\n".encode("ascii"))
        for im in ims:
            out.write(bytes([255 if inside(complex(re, im)) else 0 for re in res]))
        out.flush()
        return EXIT_OK
    js = [args.j] if args.j is not None else list(range(1, ARGUMENT_COUNT + 1))
    write = sys.stdout.write
    write("re,im," + ",".join(f"inside_{j}" for j in js) + "\r\n")
    re_texts = [f"{re:.17g}" for re in res]
    for im in ims:
        im_text = f"{im:.17g}"
        row = []
        for re, re_text in zip(res, re_texts):
            flags = region_flags(complex(re, im))
            row.append(f"{re_text},{im_text},"
                       + ",".join(["1" if flags[j - 1] else "0" for j in js]) + "\r\n")
        write("".join(row))
    return EXIT_OK


def _cmd_fourier(args) -> int:
    from .fourier import FourierTermStream, convergence_class, fourier_partial_sum
    if args.n_terms < 1:
        raise _CliError("--n-terms must be at least 1", EXIT_USAGE)
    tol = _tol()
    nu = parse_complex(args.nu)
    mu = parse_complex(args.mu)
    stream = FourierTermStream(nu, mu, args.theta)
    partial = fourier_partial_sum(stream, args.n_terms)
    report = convergence_class(mu, args.theta)
    out = {
        "partial_sum": partial,
        "n_terms": args.n_terms,
        "class": report.kind.value,
        "absolute_at_half_pi": report.absolute_at_half_pi,
    }
    if report.note:
        out["note"] = report.note
    if report.kind.value == "Divergent":
        out["warning"] = "series diverges; the partial sum is not an approximation"
    try:
        ref = ferrers_q(ParamPair(nu, mu), math.cos(args.theta), tol)
        out["reference_value"] = ref.value
        out["reference_rep"] = ref.rep.value
        out["discrepancy"] = abs(partial - ref.value)
    except FerroxError:
        pass
    _print_json(out)
    return EXIT_OK


def _cmd_olbricht(args) -> int:
    from .olbricht import ALL_IDS, catalogue_records, verify_catalogue
    if args.samples is not None and args.samples < 1:
        raise _CliError("--samples must be at least 1", EXIT_USAGE)
    tol = _tol()
    p = ParamPair(parse_complex(args.nu), parse_complex(args.mu))
    ids = [oid for oid in ALL_IDS
           if (args.group is None or oid.group == args.group)
           and (args.index is None or oid.index == args.index)]
    if not ids:
        raise _CliError("no catalogue entries match the selection", EXIT_USAGE)
    entries = []
    all_pass = True
    for check in verify_catalogue(p, ids, tol, args.samples):
        rep = check.identity
        ok = (rep.max_residual < IDENTITY_TOL and check.ode_residual_max < ODE_TOL
              and check.ode_error is None)
        all_pass = all_pass and ok
        entries.append({
            "group": rep.id.group,
            "index": rep.id.index,
            "root": rep.id.root.value if rep.id.root else None,
            "identity": rep.description,
            "identity_residual_max": rep.max_residual,
            "ode_residual_max": check.ode_residual_max,
            "status": "pass" if ok else "fail",
        })
    out = {
        "nu": p.nu,
        "mu": p.mu,
        "entries": entries,
        "passed": sum(1 for e in entries if e["status"] == "pass"),
        "total": len(entries),
    }
    if args.catalogue:
        out["catalogue"] = catalogue_records()
    _print_json(out)
    return EXIT_OK if all_pass else EXIT_VERIFY


def _cmd_cut(args) -> int:
    tol = _tol(args.tol)
    params = HypParams(parse_complex(args.a), parse_complex(args.b),
                       parse_complex(args.c))
    side = CutSide.ABOVE if args.side == "above" else CutSide.BELOW
    r = f21_cut(params, args.x, side, tol)
    _print_json({
        "value": r.value,
        "side": args.side,
        "terms_used": r.terms_used,
        "tail_estimate": r.tail_estimate,
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="ferrox", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate the second-kind Ferrers function")
    ev.add_argument("--nu", required=True)
    ev.add_argument("--mu", required=True)
    ev.add_argument("--x", required=True)
    ev.add_argument("--rep", default=None,
                    help="force one representation (e.g. I1, II3, FourierUV)")
    ev.add_argument("--tol", type=float, default=None)
    ev.set_defaults(func=_cmd_eval)

    cp = sub.add_parser("compare", help="evaluate all valid representations")
    cp.add_argument("--nu", required=True)
    cp.add_argument("--mu", required=True)
    cp.add_argument("--x", required=True)
    cp.add_argument("--tol", type=float, default=None)
    cp.set_defaults(func=_cmd_compare)

    rg = sub.add_parser("region", help="sample |w_j| < 1 regions on a grid")
    rg.add_argument("--j", type=int, default=None, choices=range(1, ARGUMENT_COUNT + 1),
                    metavar="J", help="argument index 1..18 (all for CSV if omitted)")
    rg.add_argument("--re-min", dest="re_min", type=float, default=-3.0)
    rg.add_argument("--re-max", dest="re_max", type=float, default=3.0)
    rg.add_argument("--im-min", dest="im_min", type=float, default=-3.0)
    rg.add_argument("--im-max", dest="im_max", type=float, default=3.0)
    rg.add_argument("--nx", type=int, default=121)
    rg.add_argument("--ny", type=int, default=121)
    rg.add_argument("--format", choices=("csv", "pgm"), default="csv")
    rg.set_defaults(func=_cmd_region)

    fr = sub.add_parser("fourier", help="cosine-expansion partial sums")
    fr.add_argument("--nu", required=True)
    fr.add_argument("--mu", required=True)
    fr.add_argument("--theta", type=float, required=True)
    fr.add_argument("--n-terms", dest="n_terms", type=int, default=1000)
    fr.set_defaults(func=_cmd_fourier)

    ol = sub.add_parser("olbricht", help="verify the classical solution catalogue")
    ol.add_argument("--group", choices=("I", "II", "III"), default=None)
    ol.add_argument("--index", type=int, default=None)
    ol.add_argument("--samples", type=int, default=None)
    ol.add_argument("--nu", default="0.3")
    ol.add_argument("--mu", default="0.4")
    ol.add_argument("--catalogue", action="store_true",
                    help="include the machine-readable catalogue in the output")
    ol.set_defaults(func=_cmd_olbricht)

    ct = sub.add_parser("cut", help="2F1 boundary values on [1, inf)")
    ct.add_argument("--a", required=True)
    ct.add_argument("--b", required=True)
    ct.add_argument("--c", required=True)
    ct.add_argument("--x", type=float, required=True)
    ct.add_argument("--side", choices=("above", "below"), required=True)
    ct.add_argument("--tol", type=float, default=None)
    ct.set_defaults(func=_cmd_cut)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call: building it costs
    more than a short run, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    # argparse takes a literal such as -0.5-0.2i, not a plain negative number,
    # for an option: join it to its complex-valued option as --x=-0.5-0.2i.
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if (argv[i - 1] in ("--nu", "--mu", "--x", "--a", "--b", "--c")
                and _COMPLEX_RE.match(argv[i])):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        sys.stderr.write(f"ferrox: {exc}\n")
        return exc.code
    except (FerroxError, ArithmeticError) as exc:
        # ArithmeticError: safety net for an overflow or division by zero
        # that no library check maps to a FerroxError.
        _print_json(_error_json(exc))
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
