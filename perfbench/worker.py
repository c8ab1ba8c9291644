"""Workload process: one caller running operations in a closed loop.

Reads the job (inputs and check records) as JSON on stdin and writes one
JSON result on stdout.  It imports ferrox from the checkout's ``src`` and
nothing from mpmath, so its peak resident memory is the library's plus the
inputs.  Each operation is timed alone; its check runs after the clock
stops.  An operation that raises, returns a non-finite value, misses its
reference by more than ``REL_TOL`` or misses its expected CLI output counts
as failed, and the run goes on.

Usage: python worker.py <src-dir>  (job on stdin)
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from calib import REF_KERNEL_S, kernel_seconds  # noqa: E402

#: Relative error above which a value counts as wrong; the same gate as the
#: cross-representation check of the acceptance tests.
REL_TOL = 1e-8
#: Cap of the digits score; a double carries about 16 digits.
MAX_DIGITS = 16.0
#: Wall time between two runs of the calibration kernel.
CALIB_EVERY_S = 0.02
#: Ferrers operations with |nu| up to this lie inside the envelope the
#: repository's acceptance tests verify (|nu| <= 1.7).  A failure there makes
#: the run incorrect; failures beyond it are the known large-degree defect
#: and are measured (ok_frac, digits_mean), not gated.
GATED_NU = 2.0


def _import_ferrox(src: Path):
    sys.path.insert(0, str(src))
    from ferrox import cli, ferrers, hyp2f1
    if Path(cli.__file__).resolve().parent != (src / "ferrox").resolve():
        raise ImportError(f"ferrox imported from {cli.__file__}, not from {src}")
    return cli, ferrers, hyp2f1


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


def _digits(value: complex, ref: complex) -> float:
    err = abs(value - ref) / abs(ref) if ref else abs(value)
    return MAX_DIGITS if err == 0 else min(MAX_DIGITS, -math.log10(err))


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


class Failure(Exception):
    """A check that did not pass; the (fixed) message says which."""


class Workload:
    """Turns the job's operations into timed calls and checks."""

    def __init__(self, job: dict, src: Path):
        self.cli, self.ferrers, self.hyp2f1 = _import_ferrox(src)
        self.pairs = [self.ferrers.ParamPair(_cx(nu), _cx(mu)) for nu, mu in job.get("pairs", [])]

    def call(self, op: list):
        """Run one operation; return what its check needs."""
        kind = op[0]
        if kind == "q":
            p = self.ferrers.ParamPair(_cx(op[1]), _cx(op[2]))
            return self.ferrers.ferrers_q(p, _cx(op[3])).value
        if kind == "qp":
            return self.ferrers.ferrers_q(self.pairs[op[1]], _cx(op[2])).value
        if kind == "reps":
            ferrers = self.ferrers
            p, x = ferrers.ParamPair(_cx(op[1]), _cx(op[2])), _cx(op[3])
            return [ferrers.ferrers_q_rep(v.rep, p, x).value
                    for v in ferrers.valid_representations(p, x) if v.ok]
        if kind == "cut":
            side = self.hyp2f1.CutSide.ABOVE if op[5] == "above" else self.hyp2f1.CutSide.BELOW
            params = self.hyp2f1.HypParams(_cx(op[1]), _cx(op[2]), _cx(op[3]))
            return self.hyp2f1.f21_cut(params, op[4], side).value
        return self._run_cli(op[2])

    def _run_cli(self, argv: list[str]):
        """In-process CLI run with stdout captured as bytes; the text layer
        has a binary ``.buffer`` for the PGM writer."""
        buf = io.BytesIO()
        out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
        old_out, old_err = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, io.StringIO()
        try:
            code = self.cli.main(argv)
            out.flush()
        finally:
            sys.stdout, sys.stderr = old_out, old_err
        return code, buf.getvalue()

    def gated(self, op: list) -> bool:
        """Whether a failure of this operation makes the run incorrect."""
        if op[0] in ("q", "reps"):
            return abs(_cx(op[1])) <= GATED_NU
        if op[0] == "qp":
            return abs(self.pairs[op[1]].nu) <= GATED_NU
        return True

    def check(self, op: list, result, chk: dict) -> float | None:
        """Raise Failure when the result is wrong; return the digits score
        of a reference-checked operation, None for the rest."""
        kind = op[0]
        if kind in ("q", "qp", "cut"):
            return self._against(result, _cx(chk["ref"]))
        if kind == "reps":
            if not result:
                raise Failure("no valid representation")
            return min(self._against(v, _cx(chk["ref"])) for v in result)
        code, data = result
        sub = op[1]
        if sub == "region":
            if code != 0 or hashlib.sha256(data).hexdigest() != chk["sha256"]:
                raise Failure("region output differs")
            return None
        if code != 0:
            raise Failure("nonzero exit code")
        doc = json.loads(data)
        if sub == "olbricht":
            if not doc["passed"] == doc["total"] == chk["total"]:
                raise Failure("not every catalogue entry passed")
            return None
        if sub == "fourier":
            if doc["class"] != chk["class"] or doc["n_terms"] != chk["n_terms"]:
                raise Failure("fourier class or term count differs")
            return min(self._against(_json_cx(doc["partial_sum"]), _cx(chk["partial_sum"])),
                       self._against(_json_cx(doc["reference_value"]), _cx(chk["reference_value"])))
        if doc["side"] != chk["side"]:
            raise Failure("cut side differs")
        return self._against(_json_cx(doc["value"]), _cx(chk["value"]))

    @staticmethod
    def _against(value: complex, ref: complex) -> float:
        if not _finite(value):
            raise Failure("non-finite value")
        digits = _digits(value, ref)
        if digits < -math.log10(REL_TOL):
            raise Failure("relative error above 1e-8")
        return digits


def _json_cx(field) -> complex:
    return complex(float(field["re"]), float(field["im"]))


class Tally:
    """Operation times in reference seconds (see calib.py), and the verdict
    of each distinct operation of the pass.

    The timed loop repeats the pass as often as the window allows, so the
    number of timed calls depends on the machine's speed.  The counts
    (attempted, failed, failures by type, digits) are over the distinct
    operations instead, and so depend only on the seed: an operation fails
    if it failed on any pass, and scores its lowest digits over the passes.
    """

    def __init__(self, n_ops: int):
        self.errors: list[str | None] = [None] * n_ops
        self.digits: list[float | None] = [None] * n_ops
        self.has_ref = [False] * n_ops
        self.gated = [False] * n_ops
        self.latencies: list[float] = []
        self.raw_s = 0.0
        self._pending: list[float] = []

    def record(self, i: int, seconds: float, digits: float | None, error: str | None,
               has_ref: bool, gated: bool) -> None:
        self.raw_s += seconds
        self._pending.append(seconds)
        self.has_ref[i], self.gated[i] = has_ref, gated
        if error is not None:
            self.errors[i] = self.errors[i] or error
        elif digits is not None:
            old = self.digits[i]
            self.digits[i] = digits if old is None else min(old, digits)

    def scale_pending(self, factor: float) -> None:
        """Convert the times recorded since the last call to reference time."""
        self.latencies += [t * factor for t in self._pending]
        self._pending.clear()

    def summary(self) -> dict:
        failures: dict[str, int] = {}
        for error in self.errors:
            if error is not None:
                failures[error] = failures.get(error, 0) + 1
        scored = [0.0 if e is not None else d
                  for e, d, r in zip(self.errors, self.digits, self.has_ref) if r]
        return {"attempted": len(self.errors), "failed": sum(failures.values()),
                "gated_failed": sum(e is not None and g for e, g in zip(self.errors, self.gated)),
                "failures": failures, "digits_sum": sum(scored), "digits_n": len(scored),
                "calls": len(self.latencies), "raw_s": self.raw_s,
                "latencies": self.latencies}


def has_reference(op: list) -> bool:
    """Whether the operation is checked against an mpmath reference (the
    rest are judged by a fixed expectation)."""
    return op[0] != "cli" or op[1] in ("fourier", "cut")


def run_ops(wl: Workload, ops: list, checks: list, tally: Tally | None,
            on_op=None) -> None:
    clock = time.perf_counter
    if tally is not None:
        cal_before = kernel_seconds()
        next_cal = clock() + CALIB_EVERY_S
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        error = None
        t0 = clock()
        try:
            result = wl.call(op)
            elapsed = clock() - t0
        except (Exception, SystemExit) as exc:  # counted; none aborts the run
            # (SystemExit: argparse rejecting a CLI run's arguments)
            elapsed = clock() - t0
            error = type(exc).__name__
        if tally is None:
            continue
        chk = checks[i]
        digits = None
        if error is None:
            try:
                digits = wl.check(op, result, chk)
            except Failure as exc:
                error = f"WrongResult: {exc}"
            except Exception as exc:  # a malformed result is a failure too
                error = f"Check{type(exc).__name__}"
        tally.record(i, elapsed, digits, error, has_reference(op), wl.gated(op))
        if clock() >= next_cal or i == len(ops) - 1:
            cal_after = kernel_seconds()
            tally.scale_pending(2.0 * REF_KERNEL_S / (cal_before + cal_after))
            cal_before = cal_after
            next_cal = clock() + CALIB_EVERY_S


def main() -> int:
    src = Path(sys.argv[1])
    job = json.load(sys.stdin)
    wl = Workload(job, src)
    ops, checks = job["ops"], job["checks"]
    run_ops(wl, job["warm"], [], None)

    window = Tally(len(ops))
    deadline = time.perf_counter() + job["seconds"]
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        run_ops(wl, ops, checks, window)
        passes += 1
    result = {"window": window.summary(), "passes": passes}

    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        traced = Tally(len(ops))

        def set_op(i):
            tracer.op_id = i
        run_ops(wl, ops, checks, traced, on_op=set_op)
        overhead = 1.0 - (len(traced.latencies) / sum(traced.latencies)) / (
            len(window.latencies) / sum(window.latencies))
        result["traced"] = traced.summary()
        result["per_layer"] = tracer.metrics(overhead, sum(traced.latencies) / traced.raw_s)
        out_dir = Path(job["span_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{job['workload']}.csv")
        result["span_count"] = tracer.span_count()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
