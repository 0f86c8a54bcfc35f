"""In-memory span tracing of whitewhale, applied from outside the package.

``Tracer.install`` replaces the public functions of each whitewhale module
with thin wrappers that record one span per call: name, start and end
(``perf_counter_ns``), the index of the enclosing span, and an operation
id shared by every span under one outermost call (one ``cli.main`` call).
The wrappers are attribute patches on the module objects, so every caller
that looks a function up through its module (``lp.vertex_feasible``, or a
bare global inside the same module) goes through them, and no program
code changes.

What the wrappers cannot see, because it happens inside one function:
the per-filter rejections inside ``engine._expand_chunk`` (only the
sorted-extension filter is a separate call) and the simplex pivots inside
``lp._phase_one``.  ``core.point_increment`` is deliberately left
unwrapped: it runs about 10^5 times per d=6 run and a wrapper would swamp
it.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# (module, function) pairs that get one span per call.
SPANNED = (
    ("cli", "main"),
    ("engine", "expand_layer"),
    ("lp", "vertex_feasible"),
    ("lp", "signed_rows"),
    ("lp", "feasibility"),
    ("comb", "canonicalize"),
    ("core", "point_of"),
    ("analytics", "degree_below"),
    ("analytics", "degree_above"),
    ("analytics", "count_edges"),
    ("analytics", "layer_degrees"),
    ("layerfile", "write_layer"),
    ("layerfile", "read_layer"),
)

# Span fields. TAG holds the LP verdict, the file size or the new layer's k.
NAME, START, END, PARENT, OP, TAG = range(6)


class Tracer:
    """Records spans for calls into whitewhale while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.op = -1
        self.sorted_ext_calls = 0
        self.sorted_ext_rejects = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, attr in SPANNED:
            module = getattr(self.package, mod_name)
            tag = _TAGGERS.get((mod_name, attr))
            self._patch(module, attr, self._spanned(f"{mod_name}.{attr}", getattr(module, attr), tag))
        self._patch(self.package.comb, "filter_sorted_extension",
                    self._counted(self.package.comb.filter_sorted_extension))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, name, fn, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not stack:
                self.op += 1
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if tag is not None:
                rec[TAG] = tag(args, result)
            return result

        return wrapper

    def _counted(self, fn):
        def wrapper(*args):
            self.sorted_ext_calls += 1
            ok = fn(*args)
            if not ok:
                self.sorted_ext_rejects += 1
            return ok

        return wrapper

    def write_spans(self, path: str) -> None:
        """One CSV line per span: index, name, start_ns, end_ns, parent, op, tag."""
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op,tag\n")
            for i, (name, start, end, parent, op, tag) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{op},{'' if tag is None else tag}\n")


_TAGGERS = {
    ("engine", "expand_layer"): lambda args, result: result.k,
    ("lp", "vertex_feasible"): lambda args, result: int(result.feasible),
    ("layerfile", "write_layer"): lambda args, result: os.path.getsize(args[0]),
    ("layerfile", "read_layer"): lambda args, result: os.path.getsize(args[0]),
}


class Analysis:
    """Busy and self time per span name, computed from a tracer's spans."""

    def __init__(self, spans):
        self.spans = spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        self.self_ns = [s[END] - s[START] - c for s, c in zip(spans, child_ns)]
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.self_by_name = defaultdict(int)
        self.max_ns = defaultdict(int)
        for s, own in zip(spans, self.self_ns):
            dur = s[END] - s[START]
            self.calls[s[NAME]] += 1
            self.busy_ns[s[NAME]] += dur
            self.self_by_name[s[NAME]] += own
            self.max_ns[s[NAME]] = max(self.max_ns[s[NAME]], dur)

    def busy_s(self, name) -> float:
        return self.busy_ns[name] / 1e9

    def self_s(self, name) -> float:
        return self.self_by_name[name] / 1e9

    def module_self_s(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, ns in self.self_by_name.items():
            out[name.split(".")[0]] += ns / 1e9
        return dict(out)

    def lp_verdicts(self, parent_names=None, op=None):
        """LP calls and busy seconds by verdict, optionally restricted to
        calls made directly from spans with the given names, or to one op."""
        calls = {True: 0, False: 0}
        busy = {True: 0, False: 0}
        for s in self.spans:
            if s[NAME] != "lp.vertex_feasible":
                continue
            if op is not None and s[OP] != op:
                continue
            if parent_names is not None and (
                s[PARENT] < 0 or self.spans[s[PARENT]][NAME] not in parent_names
            ):
                continue
            verdict = bool(s[TAG])
            calls[verdict] += 1
            busy[verdict] += s[END] - s[START]
        return calls, {k: v / 1e9 for k, v in busy.items()}

    def tag_sum(self, name) -> int:
        return sum(s[TAG] for s in self.spans if s[NAME] == name)

    def expand_rows(self):
        """Per expand_layer span: [k of the new layer, wall_s, self_s, LP feasible, LP infeasible]."""
        rows = {}
        for i, s in enumerate(self.spans):
            if s[NAME] == "engine.expand_layer":
                rows[i] = [s[TAG], (s[END] - s[START]) / 1e9, self.self_ns[i] / 1e9, 0, 0]
        for s in self.spans:
            if s[NAME] == "lp.vertex_feasible" and s[PARENT] in rows:
                rows[s[PARENT]][3 if s[TAG] else 4] += 1
        return list(rows.values())
