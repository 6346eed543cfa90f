"""Timing spans recorded around module attributes, without editing them.

A ``Tracer`` replaces each target attribute (a module function or a
class method) with a wrapper for as long as it is entered, and puts the
original back on exit. Every call becomes one ``Span`` in memory with
its wall time and its thread's CPU time; where the two differ, the call
waited (for the interpreter lock, or for a core). Spans nest per
thread: a span's self time is its time minus the time spent in wrapped
calls made from it on the same thread, so it is never negative. The
wrappers' own cost is charged to neither: a parent is charged for the
whole of each wrapped child call, a child only for its inner call.
"""
from __future__ import annotations

import functools
import threading
import types
from statistics import median
from time import perf_counter, thread_time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    parent: str | None  # name of the enclosing span on the same thread
    start: float        # perf_counter at entry
    dur_s: float        # wall time
    self_s: float       # wall time outside wrapped child calls
    cpu_s: float        # thread CPU time
    self_cpu_s: float   # thread CPU time outside wrapped child calls
    work: float         # target-specific work count, 0 on failure
    ok: bool            # False when the call raised


class Target(NamedTuple):
    owner: object
    attr: str
    name: str
    work: Callable | None = None  # (args, result) -> work count


class Tracer:
    """Records a span for every call of each target while entered."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = {t.name: [] for t in self.targets}
        self._local = threading.local()
        self._saved = []

    def __enter__(self):
        try:
            for t in self.targets:
                original = getattr(t.owner, t.attr)
                self._saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(original, t))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, original, target: Target):
        name, work = target.name, target.work
        out_list = self.spans[name]
        local = self._local

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0.0]  # [span name, child wall, child CPU]
            stack.append(frame)
            ok = False
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                dur, cpu = t1 - t0, c1 - c0
                out_list.append(Span(
                    parent[0] if parent is not None else None, t0, dur, dur - frame[1],
                    cpu, cpu - frame[2], work(args, result) if ok and work is not None else 0, ok,
                ))
                if parent is not None:
                    # charge the parent for this wrapper's bookkeeping too,
                    # so the parent's self time leaves out the tracing cost
                    parent[1] += perf_counter() - t0
                    parent[2] += thread_time() - c0

        return wrapper


class TracingCost(NamedTuple):
    child_cpu_s: float   # CPU a wrapped no-op records as its own
    parent_cpu_s: float  # CPU left in the caller's self time per wrapped call


def _noop():
    return None


def measure_tracing_cost(calls: int = 2000, rounds: int = 7) -> TracingCost:
    """Median per-call tracing cost, from a wrapped loop around a wrapped no-op.

    Subtracting it per wrapped call keeps the tracing cost out of short
    leaf spans and out of their caller's self time.
    """
    ns = types.SimpleNamespace(child=_noop)

    def parent():
        child = ns.child
        for _ in range(calls):
            child()

    ns.parent = parent
    tracer = Tracer([Target(ns, "child", "child"), Target(ns, "parent", "parent")])
    with tracer:
        for _ in range(rounds):
            ns.parent()
    child = tracer.spans["child"]
    per_round = [
        (sum(s.cpu_s for s in child[i * calls:(i + 1) * calls]) / calls, p.self_cpu_s / calls)
        for i, p in enumerate(tracer.spans["parent"])
    ]
    return TracingCost(median(c for c, _ in per_round), median(p for _, p in per_round))
