"""The benchmark's own span recorder.

The program under test is not touched: in a ``--trace`` run this module
wraps the public entry points of each layer (``repro.core.build.
trace2index``, ``StageRunner.attach``, ``ResultCache.lookup`` …) from
the outside and records one span per call — name, start, end, the span
that caused it, and the workload unit it belongs to. Spans are kept in
memory and written as JSON lines when the run ends. Untraced runs never
import this module's targets, so end-to-end numbers carry no tracing
cost at all; inside a traced run :attr:`Tracer.on` switches recording
per unit, which is how the tracing overhead is measured (alternating
traced and untraced units of the same workload).

A span's name is ``<layer>:<function>``; the layer is one of this
repository's modules (``core.build``, ``store``, ``core.engine`` …).
A wrap whose target no longer exists is skipped and listed in
:attr:`Tracer.missing` — a later change may delete a layer without
breaking the benchmark.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import threading
import time
from pathlib import Path

_current: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_span", default=0
)


class Tracer:
    """In-memory span store. One per process."""

    def __init__(self) -> None:
        self.on = False
        #: ``(id, parent, name, start, end, thread, unit)``
        self.spans: list[tuple] = []
        self.unit = ""
        self._ids = itertools.count(1)
        self.missing: list[str] = []
        self.installed = False

    # -- recording ------------------------------------------------------
    def span(self, name: str):
        """Context manager recording one span (no-op when off)."""
        return _Span(self, name)

    def wrap_fn(self, fn, name: str):
        """``fn`` wrapped so each call records a span called ``name``."""
        tracer = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        ident = threading.get_ident

        if inspect.iscoroutinefunction(fn):

            async def awrapper(*args, **kwargs):
                if not tracer.on:
                    return await fn(*args, **kwargs)
                parent = _current.get()
                sid = next(ids)
                tok = _current.set(sid)
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    _current.reset(tok)
                    spans.append(
                        (sid, parent, name, t0, t1, ident(), tracer.unit)
                    )

            awrapper.__wrapped__ = fn
            return awrapper

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = _current.get()
            sid = next(ids)
            tok = _current.set(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                _current.reset(tok)
                spans.append((sid, parent, name, t0, t1, ident(), tracer.unit))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------
    def patch(self, module: str, attr: str, name: str, make=None) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``)
        with a span-recording wrapper. ``make(orig)`` builds a custom
        wrapper; the default is :meth:`wrap_fn`."""
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, leaf)
        except (ImportError, AttributeError) as exc:
            self.missing.append(f"{module}.{attr}: {type(exc).__name__}")
            return
        # static and class methods are re-wrapped in their descriptor
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        orig = raw.__func__ if kind else raw
        if getattr(orig, "_e2e_wrapper", False):
            # ``from x import f`` ran after ``x.f`` was wrapped: this
            # binding already records the span
            return
        wrapped = make(orig) if make is not None else self.wrap_fn(orig, name)
        wrapped._e2e_wrapper = True
        setattr(owner, leaf, kind(wrapped) if kind else wrapped)

    def install(self) -> None:
        """Wrap every target of :data:`TARGETS` (idempotent)."""
        if self.installed:
            return
        self.installed = True
        for module, attr, name in TARGETS:
            self.patch(module, attr, name)
        self.patch(
            "repro.scan.walker", "ParallelTreeWalker.walk", "scan.walker:walk",
            make=self._make_walk,
        )
        self.patch(
            "repro.core.build", "read_trace", "scan.trace:read_trace",
            make=self._make_read_trace,
        )
        # span context follows work into executor threads (what
        # asyncio.to_thread does; loop.run_in_executor does not)
        self.patch(
            "asyncio.base_events", "BaseEventLoop.run_in_executor", "",
            make=_make_run_in_executor,
        )

    def _make_walk(self, orig):
        """The walker fans work out to fresh threads: each item's span
        is parented to the walk, and named after the layer whose
        callback processes the item."""
        tracer = self

        def walk(self_, roots, expand, **kwargs):
            if not tracer.on:
                return orig(self_, roots, expand, **kwargs)
            item = tracer.wrap_fn(expand, _item_name(expand))
            with tracer.span("scan.walker:walk") as sid:

                def adopted(unit):
                    _current.set(sid)
                    return item(unit)

                return orig(self_, roots, adopted, **kwargs)

        walk.__wrapped__ = orig
        return walk

    def _make_read_trace(self, orig):
        """``read_trace`` is a generator; its only caller materialises
        it at once, so the wrapper does the same inside one span."""
        tracer = self

        def read_trace(src):
            if not tracer.on:
                return orig(src)
            with tracer.span("scan.trace:read_trace"):
                return iter(list(orig(src)))

        read_trace.__wrapped__ = orig
        return read_trace


def write_spans(path: Path, spans: list[tuple], extra: dict) -> int:
    """Append ``spans`` to ``path`` as JSON lines; returns how many."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for sid, parent, name, t0, t1, thread, unit in spans:
            fh.write(json.dumps({
                "id": sid, "parent": parent, "name": name, "start": t0,
                "end": t1, "thread": thread, "unit": unit, **extra,
            }) + "\n")
    return len(spans)


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "tok", "t0")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.sid = 0

    def __enter__(self) -> int:
        if self.tracer.on:
            self.parent = _current.get()
            self.sid = next(self.tracer._ids)
            self.tok = _current.set(self.sid)
            self.t0 = time.perf_counter()
        return self.sid

    def __exit__(self, *exc) -> None:
        if self.sid:
            t1 = time.perf_counter()
            _current.reset(self.tok)
            self.tracer.spans.append(
                (self.sid, self.parent, self.name, self.t0, t1,
                 threading.get_ident(), self.tracer.unit)
            )


def _item_name(expand) -> str:
    """``repro.core.engine.engine`` + ``…process_dir`` ->
    ``core.engine:process_dir``."""
    module = getattr(expand, "__module__", "") or ""
    parts = module.split(".")
    if parts[:1] == ["repro"]:
        parts = parts[1:]
    if parts[:2] == ["core", "engine"]:
        parts = parts[:2]
    elif parts and parts[0] in ("core", "scan", "fs", "serve"):
        parts = parts[:2]
    else:
        parts = parts[:1]
    leaf = getattr(expand, "__qualname__", "item").rsplit(".", 1)[-1]
    return f"{'.'.join(parts) or 'item'}:{leaf}"


def _make_run_in_executor(orig):
    def run_in_executor(self, executor, func, *args):
        ctx = contextvars.copy_context()
        return orig(self, executor, ctx.run, func, *args)

    run_in_executor.__wrapped__ = orig
    return run_in_executor


#: ``(module, attribute, span name)`` — the layer boundaries. A name is
#: bound in more than one module when ``from x import f`` copied it.
#: Entry points called once per row batch or per cache probe
#: (``DirMetaCache.get_meta``, the sinks' ``emit``) are left out: 20,000
#: spans a sweep that held 0.1% of its time and cost 2% of it.
TARGETS: list[tuple[str, str, str]] = [
    # core.build + store (the ingest side)
    ("repro.core.build", "trace2index", "core.build:trace2index"),
    ("repro.cli", "trace2index", "core.build:trace2index"),
    ("repro.core.build", "build_dir_db", "core.build:build_dir_db"),
    ("repro.core.changefeed", "build_dir_db", "core.build:build_dir_db"),
    ("repro.store.layout", "DirStore.stage_primary", "store:stage_primary"),
    ("repro.store.layout", "DirStore.publish", "store:publish"),
    ("repro.core.rollup", "rollup", "core.rollup:rollup"),
    ("repro.cli", "rollup", "core.rollup:rollup"),
    ("repro.core.rollup", "rollup_dir", "core.rollup:rollup_dir"),
    ("repro.core.tsummary", "build_tsummary", "core.tsummary:build_tsummary"),
    ("repro.cli", "build_tsummary", "core.tsummary:build_tsummary"),
    ("repro.core.changefeed", "build_tsummary",
     "core.tsummary:build_tsummary"),
    # core.index
    ("repro.core.index", "GUFIIndex.open", "core.index:open"),
    ("repro.core.index", "GUFIIndex.cached_subdir_names",
     "core.index:cached_subdir_names"),
    # core.engine (traversal, stages, sinks) and what it enters
    ("repro.core.engine.engine", "QueryEngine.run", "core.engine:run"),
    ("repro.core.engine.engine", "QueryEngine.run_single",
     "core.engine:run_single"),
    ("repro.core.engine.stages", "StageRunner.attach", "store:attach_ro"),
    ("repro.core.engine.stages", "StageRunner.detach", "store:detach"),
    ("repro.core.engine.stages", "StageRunner.read_meta",
     "core.index:read_dir_meta"),
    ("repro.core.engine.stages", "StageRunner.t_stage",
     "core.engine:t_stage"),
    ("repro.core.engine.stages", "StageRunner.s_e_stages",
     "core.engine:s_e_stages"),
    ("repro.core.engine.stages", "MergeRunner.run", "core.engine:merge"),
    ("repro.core.session", "ThreadStatePool.acquire",
     "core.session:acquire"),
    ("repro.core.plan", "plan_for", "core.plan:plan_for"),
    ("repro.core.tools", "plan_for", "core.plan:plan_for"),
    # core.engine.resultcache
    ("repro.core.engine.resultcache", "ResultCache.lookup",
     "core.engine.resultcache:lookup"),
    ("repro.core.engine.resultcache", "ResultCache.store",
     "core.engine.resultcache:store"),
    # core.tools / core.server / serve
    ("repro.core.tools", "GUFITools.find", "core.tools:find"),
    ("repro.core.tools", "GUFITools.ls", "core.tools:ls"),
    ("repro.core.tools", "GUFITools.du", "core.tools:du"),
    ("repro.core.tools", "GUFITools.dir_sizes", "core.tools:dir_sizes"),
    ("repro.core.tools", "GUFITools.largest_files",
     "core.tools:largest_files"),
    ("repro.core.tools", "GUFITools.space_by_user",
     "core.tools:space_by_user"),
    ("repro.core.server", "GUFIServer.invoke", "core.server:invoke"),
    ("repro.serve.http", "_respond", "serve.http:respond"),
    ("repro.serve.app", "GUFIApp.__call__", "serve.app:call"),
    ("repro.serve.qos", "AdmissionController.acquire", "serve.qos:acquire"),
    ("repro.serve.app", "jsonable", "serve.codec:jsonable"),
    ("repro.serve.app", "GUFIApp._json", "serve.codec:json_dumps"),
    # fs.changelog / core.changefeed (the write side)
    ("repro.fs.changelog", "ChangeJournal.emit", "fs.changelog:emit"),
    ("repro.fs.changelog", "ChangeJournal.drain", "fs.changelog:drain"),
    ("repro.core.changefeed", "changefeed2index",
     "core.changefeed:changefeed2index"),
    ("repro.core.changefeed", "reduce_events",
     "core.changefeed:reduce_events"),
    ("repro.core.changefeed", "unroll_path_to", "core.rollup:unroll_path_to"),
    ("repro.core.changefeed", "scan_single_dir", "scan:scan_single_dir"),
]

#: the process-wide recorder the workloads and the launcher share
TRACER = Tracer()
