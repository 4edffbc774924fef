"""Span tracer for the traced benchmark run.

The tracer wraps public functions of qcover at their module attributes: every
attribute of a `qcover` module that holds a traced function is replaced by a
wrapper for the duration of `Tracer.patched()` and put back afterwards, so the
code under `src/` is never edited and the untraced run patches nothing.

Spans (name, parent, start, end) are kept in flat arrays in memory and written
out when the run ends.  A generator function gets one span per resumption, so
its time is only the time spent producing items.  Field arithmetic is only
counted, in a pass without spans: a wrapper costs more than the operation, so
timing it would be noise and would inflate its callers' self time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

_now = time.perf_counter_ns

# (module, function) pairs wrapped in a span.  `rref` and `contains_vector`
# are left out on purpose: their time belongs to `span` and
# `contains_subspace`, the calls a faster kernel would replace.
SPAN_TARGETS = (
    ("subspaces", ("span", "orthogonal_complement", "contains_subspace",
                   "subspaces_of", "superspaces_containing",
                   "enumerate_grassmannian", "enumerate_vectors", "intersect",
                   "sum_subspaces", "cosets")),
    ("designs", ("verify_covering", "verify_turan", "verify_steiner",
                 "verify_steiner_system", "dualize", "to_point_set_system",
                 "design_to_text", "design_from_text", "save_design",
                 "load_design")),
    ("constructions", ("trivial_steiner", "full_space_steiner", "spread",
                       "lift_covering", "partial_spread",
                       "optimal_line_covering", "turan_point_design",
                       "turan_dual_covering", "recursive_covering",
                       "gf64_covering_design", "expand_to_steiner_system",
                       "derive_steiner", "greedy_covering")),
    ("bounds", ("bound_table",)),
    ("cli", ("main",)),
)
FIELD_METHODS = ("add", "sub", "neg", "mul", "inv")
VECTOR_FUNCTIONS = ("vec_add", "vec_scale")
CENSUS_FUNCTIONS = ("verify_covering", "verify_turan")
TEXT_FUNCTIONS = ("design_to_text", "design_from_text", "save_design",
                  "load_design")


def self_times(spans):
    """Self time per span name: duration minus the time of its child spans.

    `spans` is a sequence of (id, parent_id, name, start, end) with ids
    0..len-1 and parent_id -1 for a root.  Children of one span never
    overlap, because the benchmark runs one caller on one thread.
    """
    child = [0] * len(spans)
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for sid, _parent, name, start, end in spans:
        out[name] += end - start - child[sid]
    return out


class Tracer:
    """Records spans and counters while `patched()` is active."""

    def __init__(self):
        self.missing = set()  # traced names this version of qcover lacks
        self.reset()

    def reset(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self.counts = Counter()
        self.census_keys = set()

    # span records -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(_now())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = _now()
        self._stack.pop()

    def spans(self):
        return [(sid, self.parent[sid], self.names[self.name_of[sid]],
                 self.start[sid], self.end[sid]) for sid in range(len(self.start))]

    def write(self, path, meta: dict) -> None:
        """Write the spans as gzip'd tab-separated lines after a JSON header."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, start, end in self.spans():
                fh.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\n")

    # wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, on_return=None):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapper

    def _generator_wrapper(self, name, fn):
        open_, close, counts = self._open, self._close, self.counts
        yielded = name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    sid = open_(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(sid)
                    counts[yielded] += 1
                    yield item
            finally:
                it.close()
        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # per-call bookkeeping ---------------------------------------------------

    def _census_hook(self, fn):
        signature = inspect.signature(fn)
        name = fn.__name__

        def hook(args, kwargs, report):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            design, dim, strategy = list(bound.arguments.values())[:3]
            self.census_keys.add(hash((name, dim, strategy, design.q, design.n,
                                       design.k, design.blocks)))
            self.counts["designs.censuses"] += 1
            self.counts["designs.incidences"] += sum(
                m * c for m, c in report.histogram.items())
            self.counts["designs.witnesses"] += len(report.witnesses)
        return hook

    def _contains_hook(self, args, kwargs, result):
        self.counts["subspaces.contains_subspace.hits"] += bool(result)

    def _text_hook(self, fn):
        if fn.__name__ == "design_to_text":
            return lambda args, kwargs, text: self._add_bytes(text)
        if fn.__name__ == "design_from_text":
            return lambda args, kwargs, result: self._add_bytes(
                args[0] if args else kwargs["text"])
        return None

    def _add_bytes(self, text: str) -> None:
        self.counts["designs.text.bytes"] += len(text.encode("utf-8"))

    def _blocks_hook(self, args, kwargs, result):
        blocks = getattr(result, "blocks", None)
        if blocks is not None:
            self.counts["constructions.blocks"] += len(blocks)

    def _wrap(self, module: str, fn):
        name = f"{module}.{fn.__name__}"
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(name, fn)
        hook = None
        if fn.__name__ in CENSUS_FUNCTIONS:
            hook = self._census_hook(fn)
        elif fn.__name__ == "contains_subspace":
            hook = self._contains_hook
        elif fn.__name__ in TEXT_FUNCTIONS:
            hook = self._text_hook(fn)
        elif module == "constructions":
            hook = self._blocks_hook
        return self._span_wrapper(name, fn, hook)

    @contextlib.contextmanager
    def patched(self, field_counts: bool = False):
        """Replace traced functions at every qcover module attribute.

        With field_counts only field and vector arithmetic is wrapped, with
        counters; otherwise the span targets are.  The two passes are kept
        apart so that counting field calls does not inflate any self time.
        """
        from qcover import fields
        wrappers = {}  # id(original) -> (original, wrapper)
        if field_counts:
            targets = (("fields", VECTOR_FUNCTIONS),)
        else:
            targets = SPAN_TARGETS
        for module_name, functions in targets:
            module = importlib.import_module(f"qcover.{module_name}")
            for attr in functions:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.add(f"{module_name}.{attr}")
                elif field_counts:
                    wrappers[id(fn)] = (fn, self._count_wrapper("fields.vec_calls", fn))
                else:
                    wrappers[id(fn)] = (fn, self._wrap(module_name, fn))
        patches = []  # (owner, attribute, original, wrapper)
        for key, module in sorted(sys.modules.items()):
            if module is None or not (key == "qcover" or key.startswith("qcover.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value, hit[1]))
        if field_counts:
            for method in FIELD_METHODS:
                original = fields.Field.__dict__.get(method)
                if original is None:
                    self.missing.add(f"fields.Field.{method}")
                    continue
                patches.append((fields.Field, method, original,
                                self._count_wrapper("fields.calls", original)))
        try:
            for owner, attr, _original, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _wrapper in reversed(patches):
                setattr(owner, attr, original)

    def field_counts(self, run) -> dict:
        """Field and vector arithmetic calls made by run(), in a pass of their own."""
        self.reset()
        with self.patched(field_counts=True):
            run()
        return {"fields.calls": (self.counts["fields.calls"], "count"),
                "fields.vec_calls": (self.counts["fields.vec_calls"], "count")}

    # per-layer metrics ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        self_ns = self_times(self.spans())
        calls = Counter(self.names[nid] for nid in self.name_of)
        counts = self.counts

        def self_s(*names):
            return sum(self_ns[n] for n in names) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        constructions = [n for n in self_ns if n.startswith("constructions.")]
        census = [f"designs.{f}" for f in ("verify_covering", "verify_turan",
                                           "verify_steiner",
                                           "verify_steiner_system")]
        text = [f"designs.{f}" for f in TEXT_FUNCTIONS]
        tests = calls["subspaces.contains_subspace"]
        return {
            "subspaces.span.calls": (calls["subspaces.span"], "count"),
            "subspaces.span.self_s": (self_s("subspaces.span"), "s"),
            "subspaces.subspaces_of.yielded":
                (counts["subspaces.subspaces_of.yielded"], "count"),
            "subspaces.subspaces_of.self_s": (self_s("subspaces.subspaces_of"), "s"),
            "subspaces.superspaces_containing.yielded":
                (counts["subspaces.superspaces_containing.yielded"], "count"),
            "subspaces.superspaces_containing.self_s":
                (self_s("subspaces.superspaces_containing"), "s"),
            "subspaces.orthogonal_complement.calls":
                (calls["subspaces.orthogonal_complement"], "count"),
            "subspaces.orthogonal_complement.self_s":
                (self_s("subspaces.orthogonal_complement"), "s"),
            "subspaces.enumerate_grassmannian.yielded":
                (counts["subspaces.enumerate_grassmannian.yielded"], "count"),
            "subspaces.enumerate_grassmannian.self_s":
                (self_s("subspaces.enumerate_grassmannian"), "s"),
            "subspaces.contains_subspace.calls": (tests, "count"),
            "subspaces.contains_subspace.self_s":
                (self_s("subspaces.contains_subspace"), "s"),
            "designs.scan_hit_ratio":
                (ratio(counts["subspaces.contains_subspace.hits"], tests), "ratio"),
            "designs.verify.calls": (sum(calls[n] for n in census), "count"),
            "designs.verify.self_s": (self_s(*census), "s"),
            "designs.incidences": (counts["designs.incidences"], "count"),
            "designs.census_reuse_ratio":
                (ratio(len(self.census_keys), counts["designs.censuses"]), "ratio"),
            "designs.text.self_s": (self_s(*text), "s"),
            "designs.text.bytes": (counts["designs.text.bytes"], "B"),
            "designs.witnesses": (counts["designs.witnesses"], "count"),
            "constructions.self_s": (self_s(*constructions), "s"),
            "constructions.blocks": (counts["constructions.blocks"], "count"),
            "bounds.bound_table.self_s": (self_s("bounds.bound_table"), "s"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
        }
