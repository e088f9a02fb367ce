"""Per-layer tracing of mawlab from outside: spans around its public callables.

``Tracer.install`` wraps each target where callers look it up: every module
global of a ``mawlab`` module that holds the function, every value of a
module-level dict that holds it (such as ``mawlab.slide._ENUMERATORS``), and
the class attribute for methods.  ``uninstall`` puts the originals back, so
``src/`` is never edited.  A target the program no longer has is skipped and
its metrics read 0.

A span records its name, op, parent span, start and end.  Spans stay in
memory until ``write`` dumps them.  A span's self time is its duration minus
the time its child spans cover; every op runs inside a ``cli.main`` span, so
the self times of all layers add up to the traced op time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (span name, module, attribute); "Class.method" wraps a class attribute.
TARGETS = (
    ("cli.main", "mawlab.cli", "main"),
    ("verify.task_loop", "mawlab.verify", "run_random"),
    ("slide.slide_totals", "mawlab.slide", "slide_totals"),
    ("slide.append_delta", "mawlab.slide", "append_delta"),
    ("slide.delete_delta", "mawlab.slide", "delete_delta"),
    ("slide.engine_words", "mawlab.slide", "MawEngine.words"),
    ("automaton.enumerate", "mawlab.automaton", "enumerate_maws_fast"),
    ("automaton.build", "mawlab.automaton", "SuffixAutomaton.__init__"),
    ("oracle.enumerate", "mawlab.oracle", "enumerate_maws_naive"),
    ("oracle.maw_set_check", "mawlab.oracle", "MawSet.__post_init__"),
    ("core.window_stats", "mawlab.core", "window_stats"),
    ("core.canonical_words", "mawlab.core", "canonical_words"),
    ("bounds.check_step", "mawlab.bounds", "check_step"),
    ("bounds.check_totals", "mawlab.bounds", "check_totals"),
)
LAYERS = ("automaton", "slide", "core", "oracle", "bounds", "verify", "cli")
_ENUMERATE = ("automaton.enumerate", "oracle.enumerate")

# Every per-layer metric a traced run prints, in order, with its unit.
LAYER_METRICS = (
    ("automaton.build.calls", "count"),
    ("automaton.build.self_s", "s"),
    ("automaton.build.states", "count"),
    ("automaton.enumerate.calls", "count"),
    ("automaton.enumerate.self_s", "s"),
    ("slide.engine_words.calls", "count"),
    ("slide.engine_words.misses", "count"),
    ("slide.engine_words.hit_ratio", "ratio"),
    ("slide.append_delta.self_s", "s"),
    ("slide.delete_delta.self_s", "s"),
    ("slide.slide_totals.self_s", "s"),
    ("core.window_stats.calls", "count"),
    ("core.window_stats.self_s", "s"),
    ("core.canonical_words.calls", "count"),
    ("core.canonical_words.words", "count"),
    ("core.canonical_words.self_s", "s"),
    ("oracle.enumerate.calls", "count"),
    ("oracle.enumerate.self_s", "s"),
    ("oracle.maw_set_check.self_s", "s"),
    ("bounds.check_step.calls", "count"),
    ("bounds.check_step.verdicts", "count"),
    ("bounds.check_step.self_s", "s"),
    ("bounds.check_totals.self_s", "s"),
    ("verify.tasks", "count"),
    ("verify.steps", "count"),
    ("verify.task_loop.self_s", "s"),
    ("cli.main.self_s", "s"),
) + tuple((f"{layer}.share", "ratio") for layer in LAYERS) + (
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _count_states(counts: Counter, args: tuple, result) -> None:
    counts["automaton.build.states"] += len(getattr(args[0], "states", ()))


def _count_words(counts: Counter, args: tuple, result) -> None:
    counts["core.canonical_words.words"] += len(result)


def _count_verdicts(counts: Counter, args: tuple, result) -> None:
    counts["bounds.check_step.verdicts"] += len(result)


def _count_campaign(counts: Counter, args: tuple, result) -> None:
    counts["verify.tasks"] += getattr(result, "instances", 0)
    counts["verify.steps"] += getattr(result, "steps", 0)


_AFTER = {
    "automaton.build": _count_states,
    "core.canonical_words": _count_words,
    "bounds.check_step": _count_verdicts,
    "verify.task_loop": _count_campaign,
}


class Tracer:
    def __init__(self) -> None:
        self.names = [name for name, _, _ in TARGETS]
        self.op = -1  # identifier shared by the spans of one op
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []  # [span index, ns covered by children]
        self._restore: list = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        after = _AFTER.get(name)
        stack, clock = self._stack, time.perf_counter_ns
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self.span_name.append(name_id)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1][0] if stack else -1)
            ends.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                self.self_ns[name] += t1 - t0 - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(name)
                    continue
                orig = vars(cls)[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._restore.append((setattr, cls, meth, orig))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("mawlab"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((setattr, mod, key, orig))
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is orig:
                                value[k] = wrapped
                                self._restore.append((dict.__setitem__, value, k, orig))

    def uninstall(self) -> None:
        while self._restore:
            put, owner, key, orig = self._restore.pop()
            put(owner, key, orig)

    def _enumerating_lookups(self) -> int:
        """``MawEngine.words`` spans that ran an enumerator, i.e. cache misses."""
        words = self.names.index("slide.engine_words")
        enumerate_ids = {self.names.index(n) for n in _ENUMERATE}
        parents = {
            self.span_parent[i] for i, nid in enumerate(self.span_name) if nid in enumerate_ids
        }
        return sum(1 for p in parents if p >= 0 and self.span_name[p] == words)

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS``, aggregated over all traced ops."""
        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        out.update(self.counts)
        calls = self.calls["slide.engine_words"]
        misses = self._enumerating_lookups()
        out["slide.engine_words.misses"] = misses
        out["slide.engine_words.hit_ratio"] = (calls - misses) / calls if calls else 0.0
        root = [i for i, p in enumerate(self.span_parent) if p < 0]
        total_ns = sum(self.span_end[i] - self.span_start[i] for i in root)
        for layer in LAYERS:
            layer_ns = sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == layer)
            out[f"{layer}.share"] = layer_ns / total_ns if total_ns else 0.0
        out["trace.spans"] = len(self.span_start)
        out["trace.overhead_s"] = overhead_s
        return {name: out.get(name, 0) for name, _ in LAYER_METRICS}

    def write(self, path: Path, header: dict) -> None:
        """Dump every span as columns; ``name`` indexes ``names``, ``parent`` is a row or -1."""
        doc = {
            **header,
            "names": self.names,
            "missing_targets": self.missing,
            "spans": {
                "name": self.span_name.tolist(),
                "op": self.span_op.tolist(),
                "parent": self.span_parent.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
            },
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
