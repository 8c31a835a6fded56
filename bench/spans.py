"""Spans around the public functions of each layer, recorded from outside.

A Tracer replaces every listed function, at every lmgroups module that
binds its name, with a wrapper that records one span per call: name,
trace id (one per benchmark item), span id, parent span id, start and
end.  Calls nested inside another listed function become its child
spans, so a layer's self time is its span time minus its children's.
Observers read arguments and results after the span has ended and bump
exact counters (letters, cells, simplices, Smith entries, ...).
Untraced runs never construct a Tracer, so they run the library as is.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _rewrite(tracer, args, kwargs, result, exc):
    tracer.counters["group.rewrite_standard_form.unit_letters_in"] += len(args[0].unit_letters())
    if exc is not None:
        if type(exc).__name__ == "RewriteBudgetExceeded":
            tracer.counters["group.rewrite_standard_form.budget_exceeded"] += 1
        return
    tail = sum(abs(e) for _, e in result.tail)
    tracer.counters["group.rewrite_standard_form.tail_letters_out"] += tail


def _equal(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["action.equal_at_depth.witnesses"] += 1


def _verdicts(name):
    def observe(tracer, args, kwargs, result, exc):
        if result is not None:
            tracer.counters[f"{name}.verdict.{result.result}"] += 1
    return observe


def _coset(tracer, args, kwargs, result, exc):
    g = args[0]
    key = (g.letters, g.tag, args[1] if len(args) > 1 else kwargs.get("depth"))
    if key in tracer.coset_args:
        tracer.counters["group.canonical_coset.repeats"] += 1
    tracer.coset_args.add(key)


def _cells(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["arrangements.enumerate_cells.cells"] += len(result.complex.dims)


def _assemble(tracer, args, kwargs, result, exc):
    if exc is not None:
        tracer.counters["xcomplex.assemble.rejected"] += 1


def _simplices(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["topology.order_complex.simplices"] += len(result)


def _entries(tracer, args, kwargs, result, exc):
    rows = args[0]
    tracer.counters["topology.smith_diagonal.entries"] += len(rows) * (len(rows[0]) if rows else 0)


# (defining module, function, observer); the span name is "module.function"
LAYER_FUNCTIONS = (
    ("action", "equal_at_depth", _equal),
    ("action", "act_prefix", None),
    ("action", "fixes_endpoints", None),
    ("group", "rewrite_standard_form", _rewrite),
    ("group", "word_problem", _verdicts("group.word_problem")),
    ("group", "in_F", _verdicts("group.in_F")),
    ("group", "decide_T_identity", None),
    ("group", "canonical_coset", _coset),
    ("arrangements", "enumerate_cells", _cells),
    ("arrangements", "cell_counts", None),
    ("xcomplex", "build_x_cluster", None),
    ("xcomplex", "assemble", _assemble),
    ("xcomplex", "find_cone_vertex", None),
    ("xcomplex", "verify_morse", None),
    ("xcomplex", "ascending_link", None),
    ("topology", "reduced_homology", None),
    ("topology", "order_complex", _simplices),
    ("topology", "smith_diagonal", _entries),
)

LAYER_NAMES = tuple(f"{m}.{f}" for m, f, _ in LAYER_FUNCTIONS)

# the observers' exact counters that are reported as they are
COUNTERS = (
    "group.rewrite_standard_form.unit_letters_in",
    "group.rewrite_standard_form.tail_letters_out",
    "group.rewrite_standard_form.budget_exceeded",
    "arrangements.enumerate_cells.cells",
    "xcomplex.assemble.rejected",
    "topology.order_complex.simplices",
    "topology.smith_diagonal.entries",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [trace id, span id, parent id, name, start, end]
        self.counters = Counter()
        self.coset_args = set()
        self.trace_id = None
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [tracer.trace_id, len(tracer.spans),
                    tracer._stack[-1] if tracer._stack else None, name, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span[1])
            result = exc = None
            span[4] = time.perf_counter() - tracer._t0
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[5] = time.perf_counter() - tracer._t0
                tracer._stack.pop()
                if observe is not None:
                    observe(tracer, args, kwargs, result, exc)

        return wrapper

    def install(self):
        """Wrap each listed function at every lmgroups module binding it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lmgroups" or n.startswith("lmgroups."))]
        for mod_name, fn_name, observe in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"lmgroups.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, observe)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patches.append((mod, fn_name, original))

    def uninstall(self):
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()

    def layer_totals(self):
        """Per function: calls and self seconds, plus the exact counters
        and the count of assemble calls made under find_cone_vertex."""
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {f"{name}.calls": 0 for name in LAYER_NAMES}
        out.update({f"{name}.self_s": 0.0 for name in LAYER_NAMES})
        names = {}
        for _, sid, parent, name, start, end in self.spans:
            names[sid] = (name, parent)
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[sid]
        nested = 0
        for _, sid, parent, name, _, _ in self.spans:
            if name != "xcomplex.assemble":
                continue
            while parent is not None:
                pname, parent = names[parent]
                if pname == "xcomplex.find_cone_vertex":
                    nested += 1
                    break
        out["xcomplex.find_cone_vertex.nested_assemble"] = nested
        out.update(self.counters)
        return out

    def write(self, path):
        with open(path, "a", encoding="utf-8") as fh:
            for trace, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": trace, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
