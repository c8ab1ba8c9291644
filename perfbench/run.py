"""Layered benchmark for ferrox.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload q_mixed --seed 1 --seconds 20 --trace 0

Workloads (one caller, closed loop: each operation starts when the previous
one has returned):

- q_mixed      one ferrers_q call per op, each with its own (nu, mu, x);
               every tenth op has Re nu in [50, 300].
- q_grid       ferrers_q over dense x sweeps at a few fixed (nu, mu).
- rep_compare  every valid representation at a point, plus f21_cut probes.
- cli_verify   in-process ``ferrox`` CLI runs: olbricht, fourier, region, cut.

The harness makes the inputs from the seed, computes mpmath references,
times ``setup_s`` in fresh interpreters, then starts one workload process
that runs the timed loop for ``--seconds``.  With ``--trace 1`` that process
then installs the tracer and runs one traced pass over the same inputs.
The last line of stdout is the JSON result; the lines before it are a
readable report and the run's metadata.  Exit code 0 on a completed run,
1 when ferrox, mpmath or the inputs cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("q_mixed", "q_grid", "rep_compare", "cli_verify")
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 15
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
CHILD_TIMEOUT_S = 150

#: Interpreter code timed for setup_s: import ferrox and ferrox.cli (which
#: builds the catalogue and identity tables) and make one warm-up call,
#: between two calibration-kernel runs.  Prints measured and reference time.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
from calib import REF_KERNEL_S, kernel_seconds
before = kernel_seconds()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ferrox, ferrox.cli
from ferrox.ferrers import ParamPair, ferrers_q
ferrers_q(ParamPair(0.3, 0.4), 0.2 + 0.3j)
elapsed = time.perf_counter() - t0
after = kernel_seconds()
if not ferrox.__file__.startswith(sys.argv[1]):
    sys.exit("ferrox imported from " + ferrox.__file__)
print(elapsed, elapsed * 2.0 * REF_KERNEL_S / (before + after))
"""


def _run_child(args: list[str], stdin: str | None = None) -> str:
    proc = subprocess.run([sys.executable, "-I", *args], input=stdin, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds() -> tuple[float, float]:
    """Medians of measured and of reference set-up time."""
    runs = [_run_child(["-c", SETUP_CODE, str(SRC), str(HERE)]).split()
            for _ in range(SETUP_RUNS)]
    return (statistics.median(float(r[0]) for r in runs),
            statistics.median(float(r[1]) for r in runs))


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile that leaves at
    least TAIL_MIN_BEYOND samples above it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "ferrox").glob("*.py")))


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def end_to_end(w: dict, ops_per_pass: int, setup_s: float,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics of the timed loop.  The tail is taken over the
    distinct operations of a pass, each timed by its median over the passes:
    repeats of one input are not independent samples."""
    lat = w["latencies"]
    per_op = [statistics.median(lat[i::ops_per_pass]) for i in range(ops_per_pass)]
    pct, tail = tail_latency(per_op)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (w["calls"] / sum(lat), "1/s"),
        "latency_p50_us": (statistics.median(lat) * 1e6, "us"),
        "latency_tail_us": (tail * 1e6, "us"),
        "ok_frac": (1.0 - w["failed"] / w["attempted"], "fraction"),
        "digits_mean": (w["digits_sum"] / w["digits_n"], "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, {"tail_percentile": pct, "tail_samples": len(per_op), "samples": len(lat)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ferrox" / "__init__.py").is_file():
        print(f"perfbench: no ferrox sources under {SRC}", file=sys.stderr)
        return 1
    try:
        import oracle  # needs mpmath
        setup_raw_s, setup_s = setup_seconds()
        data = inputs.generate(args.workload, args.seed)
        pairs = data.get("pairs", [])
        checks = oracle.checks(data["ops"], pairs)
        job = inputs.encode({**data, "checks": checks, "workload": args.workload,
                             "seconds": args.seconds, "trace": args.trace,
                             "span_dir": str(ROOT / ".perfbench-out")})
        result = json.loads(_run_child([str(HERE / "worker.py"), str(SRC)], json.dumps(job)))
    except (ImportError, RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    window = result["window"]
    metrics, tail_info = end_to_end(window, len(data["ops"]), setup_s, result["peak_rss_mb"])
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "ops_per_pass": len(data["ops"]), "passes": result["passes"],
        "attempted": window["attempted"], "failures": window["failures"], **tail_info,
        "src_lines": src_line_count(), **machine(),
        "measured_setup_s": setup_raw_s,
        "measured_ops_per_s": window["calls"] / window["raw_s"],
    }
    runs, report = [window], metrics
    if args.trace:
        traced = result["traced"]
        runs.append(traced)
        meta.update(traced_attempted=traced["attempted"],
                    traced_failures=traced["failures"], span_count=result["span_count"])
        report = {name: (result["per_layer"][name], unit)
                  for name, unit in metric_units().items()}

    for name, (value, unit) in metrics.items():
        print(f"{name:>18} {value:14.6g} {unit}")
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": all(r["gated_failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
