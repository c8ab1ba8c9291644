"""Per-layer tracing, applied from outside the library.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every module-level name in every loaded ``ferrox.*`` module that is
bound to one of them.  Bindings are matched by identity, because modules
import functions by name (``from .hyp2f1 import f21``).  Private helpers are
never wrapped, so refactors inside a module do not break the benchmark.

Each call of a wrapped function records a span: id, parent span id,
operation id, function, start and end.  Spans stay in memory, packed in one
integer array (a CLI pass makes about a million), until ``write_spans``.
Calls, inclusive and self time are summed as spans close.  Functions in
``COUNTED`` are counted without spans; they are called too often for a span
each.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from array import array

#: Layer (module of ferrox) -> traced public functions.
TRACED = {
    "complexmath": ("ln_gamma", "gamma_quotient", "rgamma", "principal_pow"),
    "hyp2f1": ("f21", "f21_series", "f21_regularized", "f21_cut", "f21_cut_via"),
    "regions": ("argument", "in_region", "in_domain", "classify"),
    "ferrers": ("ferrers_q", "ferrers_q_rep", "valid_representations",
                "ferrers_p", "legendre_p", "legendre_q_bold"),
    "fourier": ("fourier_partial_sum", "convergence_class"),
    "olbricht": ("eval_olbricht", "verify_identity", "ode_residual"),
    "cli": ("main",),
}
COUNTED = {"complexmath": ("near_int",)}
#: Integers per span record in ``Tracer.spans``.
SPAN_FIELDS = 6


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for module, functions in TRACED.items():
        for fn in functions:
            units.update({f"{module}.{fn}.calls": "count", f"{module}.{fn}.time_s": "s",
                          f"{module}.{fn}.self_s": "s"})
    for module, functions in COUNTED.items():
        units.update({f"{module}.{fn}.calls": "count" for fn in functions})
    units["hyp2f1.f21_series.terms"] = "count"
    for name in ("ferrers.dispatch_ratio", "ferrers.rep_attempts_per_q", "trace.overhead_frac"):
        units[name] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{fn}" for m, fns in TRACED.items() for fn in fns]
        n = len(self.names)
        #: Per traced function: calls, inclusive ns (outermost spans only,
        #: so recursion is not counted twice), self ns (span minus children).
        self.calls, self.incl_ns, self.self_ns = [0] * n, [0] * n, [0] * n
        self.counts: dict[str, int] = {}
        self.series_terms = 0
        #: ferrers_q_rep spans whose parent is a ferrers_q span: ns, calls.
        self.inner = [0, 0]
        self.op_id = 0
        #: Flat records of SPAN_FIELDS integers each: span id, parent id,
        #: op id, function index, start ns, end ns.
        self.spans = array("q")
        self._stack = [[0, -1, 0]]  # open spans: [span id, function index, child ns]
        self._depth = [0] * n
        self._ids = itertools.count(1)

    def _wrap(self, fn, name: str):
        idx = self.names.index(name)
        q_idx = self.names.index("ferrers.ferrers_q")
        is_rep = name == "ferrers.ferrers_q_rep"
        is_series = name == "hyp2f1.f21_series"
        spans, stack, depth, ids = self.spans, self._stack, self._depth, self._ids
        calls, incl_ns, self_ns, inner = self.calls, self.incl_ns, self.self_ns, self.inner
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), idx, 0]
            stack.append(frame)
            depth[idx] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if is_series:
                    self.series_terms += out.terms_used
                return out
            finally:
                t1 = clock()
                stack.pop()
                depth[idx] -= 1
                dur = t1 - t0
                parent[2] += dur
                calls[idx] += 1
                self_ns[idx] += dur - frame[2]
                if depth[idx] == 0:
                    incl_ns[idx] += dur
                if is_rep and parent[1] == q_idx:
                    inner[0] += dur
                    inner[1] += 1
                spans.extend((frame[0], parent[0], self.op_id, idx, t0, t1))
        return traced

    def _counter(self, fn, name: str):
        self.counts[name] = 0
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Rebind every traced function in every loaded ferrox module."""
        replace = {}
        for table, make in ((TRACED, self._wrap), (COUNTED, self._counter)):
            for module, functions in table.items():
                mod = importlib.import_module(f"ferrox.{module}")
                for fn in functions:
                    orig = getattr(mod, fn)
                    replace[id(orig)] = (orig, make(orig, f"{module}.{fn}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "ferrox" and not modname.startswith("ferrox."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def metrics(self, overhead_frac: float, time_scale: float) -> dict[str, float]:
        """Every per-layer metric.  Times are multiplied by ``time_scale``,
        the traced pass's reference-to-measured time ratio."""
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.time_s"] = self.incl_ns[idx] * 1e-9 * time_scale
            out[f"{name}.self_s"] = self.self_ns[idx] * 1e-9 * time_scale
        for name, count in self.counts.items():
            out[f"{name}.calls"] = count
        out["hyp2f1.f21_series.terms"] = self.series_terms
        q = self.names.index("ferrers.ferrers_q")
        inner_ns, inner_calls = self.inner
        out["ferrers.dispatch_ratio"] = self.incl_ns[q] / inner_ns if inner_ns else 0.0
        out["ferrers.rep_attempts_per_q"] = inner_calls / self.calls[q] if self.calls[q] else 0.0
        out["trace.overhead_frac"] = overhead_frac
        return out

    def span_count(self) -> int:
        return len(self.spans) // SPAN_FIELDS

    def write_spans(self, path) -> None:
        """Write the spans as CSV, in the order they ended."""
        it = iter(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,op_id,function,start_ns,end_ns\n")
            for sid, parent, op, idx, t0, t1 in zip(*[it] * SPAN_FIELDS):
                fh.write(f"{sid},{parent},{op},{self.names[idx]},{t0},{t1}\n")
