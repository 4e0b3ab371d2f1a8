"""Span tracing of jitflow from outside the program.

`Tracer.install` replaces every public function of every jitflow module with
a wrapper that records a span, at each module attribute that refers to the
function.  A module that did `from .interp import lift` holds its own
binding, so `lift` is patched as `jitflow.interp.lift`,
`jitflow.sampler.lift` and `jitflow.transition.lift` alike.  Methods are
patched on their class.  `uninstall` puts every original back.

Spans (name, start, end, parent, run id) are kept in memory and written out
once, at the end.  A span's self time is its duration minus the durations of
its child spans; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    run_id: int
    attrs: dict | None = None


@dataclass
class RunSpans:
    """One run's spans summed by name; `nested_*` are keyed (parent, child)."""

    total_ns: dict = field(default_factory=lambda: defaultdict(int))
    self_ns: dict = field(default_factory=lambda: defaultdict(int))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    attrs: dict = field(default_factory=lambda: defaultdict(list))
    nested_ns: dict = field(default_factory=lambda: defaultdict(int))
    nested_calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note=None):
        """Span-recording wrapper; `note(bound_arguments)` adds span attrs."""
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                attrs = note(signature.bind(*args, **kwargs).arguments) if note else None
                spans[idx] = Span(name, start, end, parent, self.run_id, attrs)

        return traced

    def _count(self, name: str, fn):
        """Wrapper for `fn(self, n)` that adds n to a per-run counter."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(obj, n):
            counts[(self.run_id, name)] += n
            return fn(obj, n)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package: str, notes: dict, methods, counters) -> None:
        """Wrap public functions of `package.*` plus the given methods.

        notes: span name -> note function for that span.
        methods: (class, attribute, span name) triples.
        counters: (class, attribute, counter name) triples for `fn(self, n)`.
        """
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, notes.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for cls, attr, name in methods:
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr], notes.get(name)))
        for cls, attr, name in counters:
            self._patch(cls, attr, self._count(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def per_run(self) -> dict[int, "RunSpans"]:
        """Aggregate the spans of each run id by span name."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        runs: dict[int, RunSpans] = defaultdict(RunSpans)
        for idx, span in enumerate(self.spans):
            run = runs[span.run_id]
            dur = span.end_ns - span.start_ns
            run.total_ns[span.name] += dur
            run.self_ns[span.name] += dur - child_ns[idx]
            run.calls[span.name] += 1
            if span.attrs is not None:
                run.attrs[span.name].append(span.attrs)
            if span.parent >= 0:
                pair = (self.spans[span.parent].name, span.name)
                run.nested_ns[pair] += dur
                run.nested_calls[pair] += 1
        for (run_id, name), n in self.counts.items():
            runs[run_id].counts[name] += n
        return runs

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), sort_keys=True) + "\n")
