"""Span tracer that wraps coxsub's public functions from outside the package.

Each module of the package is a layer.  ``Tracer.install`` replaces every
public function and public method of the layers with a wrapper that records
a span (name, parent span, operation, start, end), and rebinds every place
that imported the original by name: ``braid.build``, ``rhoposet.build``,
``rhoposet.classify``, ``rhoposet.is_isomorphic_constrained`` and so on.
The kernels are reached through ``backend.active``, the one namespace that
``coxeter`` and ``simplicial`` share, so their wrappers go there.
``uninstall`` puts every original back.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("coxeter", "subword", "simplicial", "braid", "rhoposet", "cli")
KERNELS = ("reduced_subword_masks", "fill_submasks", "popcounts")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one tuple per span: (name id, parent index, op, start, end, outermost)
        self.spans: list = []
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._built: set = set()
        self.distinct_builds: dict[int, int] = {}
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording a span named ``name``; ``note(tracer, args,
        result)`` runs after each call that returns."""
        nid = self._name_id(name)
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(k)
            outer = depth[nid] == 0
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[nid] -= 1
                stack.pop()
                spans[k] = (nid, parent, self.op, t0, t1, outer)
            if note is not None:
                note(self, args, result)
            return result

        return traced

    def begin_op(self, op: int) -> None:
        self.op = op
        self._built = set()

    def end_op(self) -> None:
        self.distinct_builds[self.op] = len(self._built)
        self.op = -1

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra=()) -> "Tracer":
        """Wrap every layer; ``extra`` lists (owner, attribute, span name)
        for callables outside the package that should record spans too."""
        from coxsub import backend

        modules = {name: importlib.import_module(f"coxsub.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    new = self.wrap(obj, f"{layer}.{attr}", NOTES.get(f"{layer}.{attr}"))
                    wrapped[id(obj)] = new
                    self._set(mod, attr, new)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, f"{layer}.{attr}")
        for name in KERNELS:
            fn = getattr(backend.active, name)
            self._set(backend.active, name,
                      self.wrap(fn, f"kernels.{name}", NOTES.get(f"kernels.{name}")))
        # import sites: every other module that bound an original by name
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None:
                    self._set(mod, attr, new)
        for owner, attr, name in extra:
            self._set(owner, attr, self.wrap(getattr(owner, attr), name))
        return self

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(raw.__func__, name, NOTES.get(name))))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(raw, name, NOTES.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans only, so
        recursion is not counted twice) and self seconds."""
        child = [0.0] * len(self.spans)
        for nid, parent, op, t0, t1, outer in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for k, (nid, parent, op, t0, t1, outer) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            if outer:
                row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[k]
        return out

    def op_summary(self, op: int) -> dict:
        """Calls and inclusive seconds per span name inside one operation."""
        out: dict = {}
        for nid, parent, o, t0, t1, outer in self.spans:
            if o != op:
                continue
            row = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0})
            row["calls"] += 1
            if outer:
                row["s"] += t1 - t0
        return out

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` made directly from a ``parent_name`` span."""
        nid, pid = self._ids.get(name), self._ids.get(parent_name)
        if nid is None or pid is None:
            return 0
        spans = self.spans
        return sum(1 for s in spans if s[0] == nid and s[1] >= 0 and spans[s[1]][0] == pid)

    def write(self, path) -> None:
        """Every span, column by column, times relative to the first span."""
        base = self.spans[0][3] if self.spans else 0.0
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": list(cols[0]),
                "parent": list(cols[1]),
                "op": list(cols[2]),
                "start_us": [round((t - base) * 1e6, 1) for t in cols[3]],
                "end_us": [round((t - base) * 1e6, 1) for t in cols[4]],
            }, fh, separators=(",", ":"))


# -- counts taken from results at the layer boundary ------------------------


def _note_enumerate(tr: Tracer, args, result) -> None:
    tr.counts["coxeter.enumerate.masks"] += len(result)


def _note_contains(tr: Tracer, args, result) -> None:
    if not result:
        tr.counts["coxeter.contains.void"] += 1


def _note_fill(tr: Tracer, args, result) -> None:
    tr.counts["simplicial.faces.count"] += int(result)


def _note_build(tr: Tracer, args, result) -> None:
    d = args[0]
    tr._built.add((id(d.system), d.word, d.pi))


def _note_iso(tr: Tracer, args, result) -> None:
    if result is not None:
        tr.counts["rhoposet.iso.found"] += 1


def _note_classify(tr: Tracer, args, result) -> None:
    tr.counts[f"braid.case.{'none' if result.case is None else result.case}"] += 1


NOTES = {
    "coxeter.CoxeterSystem.reduced_subword_masks": _note_enumerate,
    "coxeter.CoxeterSystem.contains_reduced": _note_contains,
    "kernels.fill_submasks": _note_fill,
    "subword.build": _note_build,
    "simplicial.is_isomorphic_constrained": _note_iso,
    "braid.classify": _note_classify,
}
