"""Span recording around the public entry points of each layer.

The program is left untouched: :meth:`SpanRecorder.install` replaces
each entry point with a timing wrapper in its defining module *and* in
every already imported ``repro`` module that bound the same function
object by name (``from .x import f``), and
:meth:`SpanRecorder.uninstall` puts the originals back.  Modules imported later pick the wrapper up from the
defining module.

A span is ``(id, name, start, end, parent)``.  The parent is the span
open in the same thread or asyncio task when the call began, carried in
a :class:`contextvars.ContextVar`; work handed to another thread starts
a new root.  Spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time

#: (span name, defining module, attribute) of every traced function.
FUNCTIONS = (
    ("sass.assemble", "repro.sass.assembler", "assemble"),
    ("sass.lint", "repro.sass.analysis", "lint_kernel"),
    ("kernels.build", "repro.kernels.cache", "build_fused_kernel"),
    ("gpusim.decode", "repro.gpusim.decode", "decode_program"),
    ("gpusim.sim", "repro.gpusim.fastsim", "fast_run"),
    ("sched.search", "repro.sched.search", "successive_halving"),
    ("perfmodel.rank", "repro.perfmodel.selection", "rank_algorithms"),
    ("convolution.dispatch", "repro.convolution.api", "conv2d"),
)

#: (span name, defining module, class, method) of every traced method.
METHODS = (
    ("runtime.session.compile", "repro.runtime.session", "InferenceSession", "compile"),
    ("runtime.session.run", "repro.runtime.session", "InferenceSession", "run"),
    ("serving.submit", "repro.serving.frontend", "ServingFrontend", "submit"),
)

_current = contextvars.ContextVar("perfbench_span", default=None)


class SpanRecorder:
    """In-memory span list plus per-span result hooks."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []
        #: span name -> callable(result, args, seconds) run after each call.
        self.on_result: dict = {}

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        """*fn* timed as span *name*; its hook sees (result, args, seconds)."""
        record = self.spans.append
        ids = self._ids
        hooks = self.on_result

        def enter():
            parent = _current.get()
            sid = next(ids)
            return sid, parent, _current.set(sid), time.perf_counter()

        def leave(sid, parent, token, start):
            end = time.perf_counter()
            record((sid, name, start, end, parent))
            _current.reset(token)
            return end - start

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                frame = enter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    seconds = leave(*frame)
                hook = hooks.get(name)
                if hook is not None:
                    hook(result, args, seconds)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = leave(*frame)
            hook = hooks.get(name)
            if hook is not None:
                hook(result, args, seconds)
            return result
        return traced

    def install(self) -> None:
        """Wrap every entry point and rebind every module that imported it."""
        for name, modname, attr in FUNCTIONS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _sid, _name, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        return {
            sid: (end - start) - covered_seconds(children.get(sid, ()))
            for sid, _name, start, end, _parent in self.spans
        }

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self seconds)."""
        selfs = self.self_times()
        out: dict[str, tuple[int, float]] = {}
        for sid, name, *_ in self.spans:
            calls, seconds = out.get(name, (0, 0.0))
            out[name] = (calls + 1, seconds + selfs[sid])
        return out

    def write(self, path) -> None:
        selfs = self.self_times()
        rows = [
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "self_s": selfs[sid]}
            for sid, name, start, end, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


def covered_seconds(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def per_call_overhead_s(calls: int = 20000) -> float:
    """Measured cost one traced call adds over an untraced one."""
    recorder = SpanRecorder()

    def noop():
        return None

    traced = recorder.wrap("calibration", noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - t0 - bare) / calls)
        recorder.spans.clear()
    return max(best, 0.0)
