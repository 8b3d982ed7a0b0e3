"""Outside-in tracing of symdiff2's layers.

:class:`Tracer` wraps the public functions of each layer from outside the
package: methods are replaced on their class, module functions in every
loaded ``symdiff2`` module that holds them (``local_forms.reverse_map`` as
well as ``series.reverse_map``).  ``uninstall`` puts the originals back, so
``src/`` is never edited and untraced runs execute the original code.

Each wrapped call becomes a span (name, start, end, parent, job).  Spans stay
in memory and :meth:`Tracer.write_spans` saves them when the run ends.  Self
time is a span's duration minus the time covered by its child spans;
inclusive time counts only the outermost span of a name, so recursion is not
counted twice.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# layer -> public names traced in it; "Series2.x" names a method
LAYERS = {
    "series": ("Series2.__mul__", "Series2.invert_unit", "Series2.exp", "Series2.log",
               "Series2.pow_scalar", "Series2.sqrt", "Series2.substitute", "reverse_map"),
    "expressions": ("eval_ast", "eval_normalized"),
    "differentials": ("discriminant", "split", "try_divide", "multiplicity",
                      "perfect_square_root", "classify_component", "core_discriminant"),
    "closedness": ("brioschi_numerator", "is_closed", "first_kind_decompose"),
    "local_forms": ("analyze_product_form", "leaf_chart", "solve_singular_decomposition",
                    "classify_leaf"),
    "cli": ("run",),
}
# span names use the operation vocabulary (mul, eval) where code names differ
_SPAN_NAMES = {
    "Series2.__mul__": "mul",
    "eval_ast": "eval",
    "eval_normalized": "eval",
}
TRANSCENDENTAL = ("invert_unit", "exp", "log", "pow_scalar", "sqrt")


def span_name(layer: str, code_name: str) -> str:
    short = _SPAN_NAMES.get(code_name, code_name.split(".")[-1])
    return f"{layer}.{short}"


def _coeff_bits(series) -> int:
    """Largest numerator or denominator bit length among exact coefficients."""
    acc = 0  # OR keeps the highest bit of every number
    for c in series.coeffs.values():
        acc |= abs(c.re.numerator) | c.re.denominator | abs(c.im.numerator) | c.im.denominator
    return acc.bit_length()


def _content_key(w):
    return tuple((frozenset(s.coeffs.items()), s.order) for s in (w.a, w.b, w.c))


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "mul_calls", "depth")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.mul_calls = self.depth = 0


class Tracer:
    """Spans and per-layer counters for the jobs run while installed."""

    def __init__(self):
        self.names = []
        self.stats = {}
        self.spans = array("q")  # id, parent, name, job, start_ns, end_ns per span
        self.job_ids = []
        self._stack = []
        self._next_id = 0
        self._job = -1
        self._patches = []
        self._mul_count = 0
        self._trans_depth = 0
        self._trans_start = 0
        self.trans_ns = 0
        self.mul_pairs = 0
        self.mul_useful_pairs = 0
        self.mul_terms_out = 0
        self.max_coeff_bits = 0
        self.report_bytes = 0
        self.eval_calls = 0
        self.eval_dups = 0
        self.disc_calls = 0
        self.disc_dups = 0
        self._seen_eval = set()
        self._seen_disc = set()

    # -- installation -------------------------------------------------------

    def install(self):
        from symdiff2 import series

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "symdiff2" or n.startswith("symdiff2."))]
        for layer, code_names in LAYERS.items():
            home = sys.modules[f"symdiff2.{layer}"]
            for code_name in code_names:
                name = span_name(layer, code_name)
                if code_name.startswith("Series2."):
                    attr = code_name.split(".")[1]
                    original = vars(series.Series2)[attr]
                    self._patch(series.Series2, attr, self._wrap(name, original))
                    continue
                original = getattr(home, code_name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if vars(module).get(code_name) is original:
                        self._patch(module, code_name, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- per job ------------------------------------------------------------

    def begin_job(self, job_id: str):
        self.job_ids.append(job_id)
        self._job = len(self.job_ids) - 1
        self._seen_eval.clear()
        self._seen_disc.clear()

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name, fn):
        if name not in self.stats:
            self.stats[name] = _Stat()
            self.names.append(name)
        stat = self.stats[name]
        name_idx = self.names.index(name)
        op = name.split(".", 1)[1]
        is_mul = name == "series.mul"
        is_trans = name.startswith("series.") and op in TRANSCENDENTAL
        before = {"expressions.eval": self._note_eval,
                  "differentials.discriminant": self._note_disc}.get(name)
        after = None
        if is_mul:
            after = self._after_mul
        elif name.startswith("series."):
            after = self._after_series
        elif name == "cli.run":
            after = self._after_cli
        tracer = self

        def wrapper(*args, **kwargs):
            if is_mul and not hasattr(args[1], "coeffs"):
                return fn(*args, **kwargs)  # scalar scaling, not a product
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if before is not None:
                h0 = perf_counter_ns()
                before(fn, args)
                if parent is not None:
                    parent[1] += perf_counter_ns() - h0
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0, tracer._mul_count]  # id, child time, muls so far
            if is_mul:
                tracer._mul_count += 1
            stat.depth += 1
            stack.append(frame)
            t0 = perf_counter_ns()
            if is_trans:
                if tracer._trans_depth == 0:
                    tracer._trans_start = t0
                tracer._trans_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.self_ns += dur - frame[1]
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_ns += dur
                    stat.mul_calls += tracer._mul_count - frame[2]
                if parent is not None:
                    parent[1] += dur
                if is_trans:
                    tracer._trans_depth -= 1
                    if tracer._trans_depth == 0:
                        tracer.trans_ns += t1 - tracer._trans_start
                tracer.spans.extend((span_id, -1 if parent is None else parent[0],
                                     name_idx, tracer._job, t0, t1))
            if after is not None:
                # bookkeeping time is charged to no layer's self time
                h0 = perf_counter_ns()
                after(args, result)
                if parent is not None:
                    parent[1] += perf_counter_ns() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters at the boundaries ------------------------------------------

    def _note_eval(self, fn, args):
        node = args[0]
        if fn.__name__ == "eval_ast":
            order, ctx = args[1], args[2]
        else:
            ctx, order = args[1], args[2]
        key = (node, order, ctx.name)
        self.eval_calls += 1
        if key in self._seen_eval:
            self.eval_dups += 1
        self._seen_eval.add(key)

    def _note_disc(self, fn, args):
        key = _content_key(args[0])
        self.disc_calls += 1
        if key in self._seen_disc:
            self.disc_dups += 1
        self._seen_disc.add(key)

    def _after_series(self, args, result):
        parts = (result.comp1, result.comp2) if hasattr(result, "comp1") else (result,)
        if parts[0].ctx.name == "exact":
            for s in parts:
                self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(s))

    def _after_mul(self, args, result):
        a, b = args
        self.mul_pairs += len(a.coeffs) * len(b.coeffs)
        self.mul_terms_out += len(result.coeffs)
        order = result.order
        if order == math.inf or not b.coeffs:
            self.mul_useful_pairs += len(a.coeffs) * len(b.coeffs)
        else:
            # within[d - lo]: terms of b with degree <= d
            degrees = Counter(i + j for (i, j) in b.coeffs)
            lo, hi = min(degrees), max(degrees)
            within, running = [], 0
            for d in range(lo, hi + 1):
                running += degrees.get(d, 0)
                within.append(running)
            for (i, j) in a.coeffs:
                room = order - i - j
                if room >= hi:
                    self.mul_useful_pairs += running
                elif room >= lo:
                    self.mul_useful_pairs += within[room - lo]
        self._after_series(args, result)

    def _after_cli(self, args, result):
        self.report_bytes += len(result[1])

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the jobs traced so far, as {name: (value, unit)}."""
        out = {}
        for layer, code_names in LAYERS.items():
            for code_name in code_names:
                name = span_name(layer, code_name)
                stat = self.stats.get(name, _Stat())
                if name != "cli.run":
                    out[f"{name}.calls"] = (stat.calls, "count")
                out[f"{name}.total_s"] = (stat.total_ns / 1e9, "s")
                if name not in ("expressions.eval",):
                    out[f"{name}.self_s"] = (stat.self_ns / 1e9, "s")
                if layer == "series":
                    out[f"{name}.mul_calls"] = (stat.mul_calls, "count")
        run_ns = self.stats.get("cli.run", _Stat()).total_ns
        visited = self.mul_pairs
        out.update({
            "series.mul.pairs": (self.mul_pairs, "count"),
            "series.mul.useful_share": (self.mul_useful_pairs / visited if visited else 1.0, "ratio"),
            "series.mul.terms_out": (self.mul_terms_out, "count"),
            "series.transcendental.share": (self.trans_ns / run_ns if run_ns else 0.0, "ratio"),
            "scalars.mul_ops": (self.mul_useful_pairs, "count"),
            "scalars.max_coeff_bits": (self.max_coeff_bits, "bits"),
            "expressions.eval.dup_share": (
                self.eval_dups / self.eval_calls if self.eval_calls else 0.0, "ratio"),
            "differentials.discriminant.dup_share": (
                self.disc_dups / self.disc_calls if self.disc_calls else 0.0, "ratio"),
            "cli.report_bytes": (self.report_bytes, "bytes"),
        })
        return out

    def write_spans(self, path):
        """Save every span as JSON: one row of ``fields`` per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "job", "start_ns", "end_ns"],
                "names": self.names,
                "jobs": self.job_ids,
                "spans": [self.spans[k:k + 6].tolist() for k in range(0, len(self.spans), 6)],
            }, fh)
