"""Spans and counters for each soslift layer, recorded from outside the package.

``Tracer.install`` replaces the public functions of each module with timing
wrappers, everywhere they are bound: ``cli`` and ``trees`` import functions
by name, so the wrapper must replace the name in every soslift module that
holds the original.  ``PermClass.members`` is wrapped at its property getter
and ``Permutation.__init__`` only counts.  ``Tracer.uninstall`` puts every
original back.

A span is ``[name, start, end, parent, op]``; ``parent`` is the index of the
enclosing span in the same list (-1 for none).  A layer's self time is its
span time minus the time of its direct child spans.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _lift_counts(tracer, result, args, kwargs):
    children, parent_index, tags = result
    branching = int((tags == 0).sum())
    c = tracer.counters
    c["lifting.lift_fibers.rows_out"] += children.shape[0]
    c["lifting.lift_fibers.bytes_out"] += children.nbytes + parent_index.nbytes + tags.nbytes
    c["lifting.lift_fibers.branching"] += branching
    tracer.levels.append((tracer.op, children.shape[1], children.shape[0], branching))


def _held_bytes(tracer, result, args, kwargs):
    tracer.counters["lifting.generate_up_to.bytes_held"] += sum(
        level.as_array().nbytes for level in result
    )


def _enumerate_method(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method", "brute")
    return f"perm_sets.enumerate_class.{method}"


def _enumerate_rows(tracer, result, args, kwargs):
    tracer.counters[_enumerate_method(args, kwargs) + ".rows"] += len(result)


def _counter(key, measure):
    def count(tracer, result, args, kwargs):
        tracer.counters[key] += measure(result)
    return count


def _failed(records):
    return sum(1 for r in records if not r["passed"])


def _nodes(tree):
    return sum(len(level) for level in tree.levels)


# (module, function, span name, counter update after the call); lift_fibers
# comes first, see Tracer.install
LAYERS = (
    ("lifting", "lift_fibers", "lifting.lift_fibers", _lift_counts),
    ("lifting", "generate_up_to", "lifting.generate_up_to", _held_bytes),
    ("farey", "farey_intervals", "farey.farey_intervals",
     _counter("farey.farey_intervals.intervals", len)),
    ("sos", "suranyi_table", "sos.suranyi_table",
     _counter("sos.suranyi_table.entries", lambda t: len(t.entries))),
    ("sos", "tau_from_alpha", "sos.tau_from_alpha", None),
    ("sos", "verify_invariants", "sos.verify_invariants",
     _counter("sos.verify_invariants.failed", _failed)),
    ("perm_sets", "enumerate_class", _enumerate_method, _enumerate_rows),
    ("perm_sets", "verify_theorems", "perm_sets.verify_theorems",
     _counter("perm_sets.verify_theorems.failed", _failed)),
    ("trees", "build_gen_tree", "trees.build_gen_tree",
     _counter("trees.build_gen_tree.nodes", _nodes)),
    ("trees", "build_farey_tree", "trees.build_farey_tree",
     _counter("trees.build_farey_tree.nodes", _nodes)),
    ("trees", "check_isomorphism", "trees.check_isomorphism",
     _counter("trees.check_isomorphism.failed", _failed)),
    ("trees", "export_tree", "trees.export_tree",
     _counter("trees.export_tree.bytes", lambda doc: len(doc.encode()))),
)

class Tracer:
    """In-memory spans and counters of one pass, plus the patches that feed them."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.levels: list[tuple] = []  # (op, degree, rows, branching) per lift_fibers call
        self.op: str | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _traced(self, name, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            result = tracer.call(span, fn, *args, **kwargs)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result
        return wrapper

    def _set(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "soslift" and not modname.startswith("soslift."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self, levels_only: bool = False) -> None:
        """Wrap every layer of the imported soslift package.

        With ``levels_only`` only ``lift_fibers`` is wrapped: enough to
        record the lifted levels for the correctness checks, at the cost of
        one span per level.
        """
        import soslift
        from soslift import perm_core, perm_sets

        for modname, fname, span, on_result in LAYERS[:1] if levels_only else LAYERS:
            original = getattr(getattr(soslift, modname), fname)
            self._rebind(original, self._traced(span, original, on_result))
        if levels_only:
            return

        tracer = self
        members = perm_core.PermClass.__dict__["members"]

        def members_getter(cls_obj):
            # rows counts Permutation objects built from the array, which
            # happens on the first access only
            materializing = cls_obj._members is None
            result = tracer.call("perm_core.PermClass.members", members.fget, cls_obj)
            if materializing:
                tracer.counters["perm_core.PermClass.members.rows"] += len(result)
            return result
        self._set(perm_core.PermClass, "members", property(members_getter, doc=members.__doc__))

        init = perm_core.Permutation.__init__

        @functools.wraps(init)
        def counting_init(perm, values):
            tracer.counters["perm_core.Permutation.created"] += 1
            init(perm, values)
        self._set(perm_core.Permutation, "__init__", counting_init)

        # brute force walks S_m through the private generator _sym and keeps
        # the accepted members in _brute; their ratio is the useful-work yield
        sym = perm_sets._sym

        def counting_sym(m):
            visited = 0
            try:
                for perm in sym(m):
                    visited += 1
                    yield perm
            finally:
                tracer.counters["perm_sets.brute.visited"] += visited
        self._set(perm_sets, "_sym", counting_sym)
        self._set(perm_sets, "_brute", self._traced_count(
            perm_sets._brute, "perm_sets.brute.accepted"))

    def _traced_count(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counters[key] += len(result)
            return result
        return wrapper

    def uninstall(self) -> None:
        """Put back every original, last patch first."""
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Metrics of the spans and counters recorded since reset.

        Every span name gives "<name>.seconds" (self time) and
        "<name>.calls"; every counter is reported under its own name.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.seconds"] += end - start - child[i]
            out[f"{name}.calls"] += 1
        out.update(self.counters)
        out["cli.main.self_seconds"] = out["cli.main.seconds"]
        visited = self.counters.get("perm_sets.brute.visited", 0)
        accepted = self.counters.get("perm_sets.brute.accepted", 0)
        out["perm_sets.brute.yield"] = accepted / visited if visited else 0.0
        return dict(out)
