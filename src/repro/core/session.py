"""Persistent query sessions: the per-thread state pool.

A cold ``QueryEngine.run()`` historically paid large fixed costs that
have nothing to do with the data the caller can see: one new SQLite
connection per worker thread, re-registering every SQL helper
function, re-running the ``I`` init script, and tearing it all down
again — per query. A long-lived service (the
``core.server`` portal) issues thousands of queries against the same
warm index between refreshes, so those costs dominate exactly the
small repeated queries the paper says should be cheapest.

This module keeps that state alive across queries:

* :class:`_ThreadState` — one worker thread's connection to a private
  *in-memory* scratch database (the paper's per-thread intermediate
  result database, kept where ``gufi_query`` keeps it), registered SQL
  functions, per-run counters/row buffer, and (optional)
  streamed-output file;
* :class:`ThreadStatePool` — a free-list of thread states owned by a
  :class:`~repro.core.engine.QueryEngine`. Worker threads check states
  out at the start of a run and the engine returns them at the end,
  so the *connections* survive even though the walker's *threads* do
  not. Scratch tables created by an ``I`` script are cleared (same
  script) or dropped and recreated (script changed) between runs —
  never the whole connection — and only for a run that executes
  stages: a result-cache replay checks a state out untouched.

The pool owns connections and nothing on disk: no temp directory, no
scratch file, no journal. What an ``INSERT`` stage deposits is held in
memory until ``J`` folds it into the run's aggregate (also in memory,
see :class:`~repro.core.engine.stages.MergeRunner`); a result too
large to hold is what ``-o`` streams to files.

Security note: nothing permission-relevant is cached here. Thread
states hold only *scratch* result tables; every per-directory
permission decision still reads the index's (mtime-validated,
explicitly invalidated) DirMeta — see :mod:`repro.core.index`.
"""

from __future__ import annotations

import sqlite3
import threading
import weakref

from repro import obs

from .sqlfuncs import QueryContext, register


class _ThreadState:
    """Per-worker-thread connection + context + per-run accounting.

    The counters and row buffer are written by exactly one thread
    during a walk (the thread that checked the state out), so the hot
    path needs no locks; the engine sums them after the walk ends.
    """

    __slots__ = (
        "conn",
        "ctx",
        "out",
        "out_path",
        "rows",
        "visited",
        "denied",
        "opened",
        "errored",
        "pruned",
        "elided",
        "t_time",
        "s_time",
        "e_time",
        "touched",
        "ran",
        "_init_sql",
        "_used",
    )

    def __init__(self, conn: sqlite3.Connection, ctx: QueryContext):
        self.conn = conn
        self.ctx = ctx
        self.out = None  # lazily opened per-thread output file
        self.out_path: str | None = None
        self.rows: list[tuple] = []
        self.visited = 0
        self.denied = 0
        self.opened = 0
        self.errored = 0
        self.pruned = 0
        self.elided = 0
        # per-stage wall-clock accumulators (seconds), filled only
        # when the process metrics recorder is enabled
        self.t_time = 0.0
        self.s_time = 0.0
        self.e_time = 0.0
        # source paths this thread's walk touched, collected only when
        # the engine needs a result-cache validity token
        self.touched: list[str] = []
        # ... and those whose stages ran to completion (see
        # QueryResult.ran_paths)
        self.ran: list[str] = []
        self._init_sql: str | None = None
        # has a run executed stages on this connection yet
        self._used = False

    # ------------------------------------------------------------------
    def prepare(self, init_sql: str | None, out_path: str | None, stages: bool) -> None:
        """Make the state ready for a new run: reset counters, clear or
        rebuild the scratch schema, and (re)point the output file.
        ``stages=False`` (a result-cache replay: rows go to a sink, no
        stage executes) skips the scratch half — no statement runs, and
        schema, stale rows and ``_init_sql`` stay as the last real run
        left them for the next one to prepare in full."""
        self.rows = []
        self.visited = self.denied = self.opened = self.errored = 0
        self.pruned = self.elided = 0
        self.t_time = self.s_time = self.e_time = 0.0
        self.touched = []
        self.ran = []
        if stages:
            self._prepare_scratch(init_sql)
        self._set_output(out_path)

    def _prepare_scratch(self, init_sql: str | None) -> None:
        # A previous run that died mid-directory (or mid-merge) may
        # have left a database attached; a stale attach would shadow
        # this run's. Ask what is attached (a healthy connection lists
        # ``main`` alone) and detach only that; a connection no run
        # has used has nothing attached.
        if self._used:
            for _seq, alias, _file in self.conn.execute(
                "PRAGMA database_list"
            ).fetchall():
                if alias in ("gufi", "aggregate"):
                    self.conn.execute(f"DETACH DATABASE {alias}")
        self._used = True
        if init_sql != self._init_sql:
            self._drop_scratch()
            if init_sql:
                self.conn.executescript(init_sql)
            self._init_sql = init_sql
        elif init_sql:
            # Same scratch schema as last run: emptying the tables is
            # much cheaper than dropping and re-running the DDL.
            for (name,) in self.conn.execute(
                "SELECT name FROM main.sqlite_master "
                "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
            ).fetchall():
                self.conn.execute(f'DELETE FROM "{name}"')

    def _drop_scratch(self) -> None:
        objects = self.conn.execute(
            "SELECT type, name FROM main.sqlite_master "
            "WHERE name NOT LIKE 'sqlite_%'"
        ).fetchall()
        # views may depend on tables; drop them first
        for typ, name in sorted(objects, key=lambda o: o[0] != "view"):
            if typ in ("table", "view"):
                self.conn.execute(f'DROP {typ.upper()} IF EXISTS "{name}"')

    def _set_output(self, out_path: str | None) -> None:
        if out_path == self.out_path and self.out is not None:
            # same destination as the previous run: reuse the open
            # handle, truncating the old contents
            self.out.seek(0)
            self.out.truncate()
            return
        if self.out is not None:
            self.out.close()
            self.out = None
        self.out_path = out_path
        if out_path is not None:
            self.out = open(out_path, "w", encoding="utf-8")

    def finish_output(self) -> str | None:
        """Flush the streamed-output file at the end of a run so
        readers see complete contents; the handle stays open for reuse.
        Returns the path when one was written."""
        if self.out is None:
            return None
        try:
            self.out.flush()
        except OSError:
            pass
        return self.out_path

    def dispose(self) -> None:
        try:
            self.conn.close()
        except sqlite3.Error:
            pass
        if self.out is not None:
            try:
                self.out.close()
            except OSError:
                pass
            self.out = None


def _dispose_pool(states: list[_ThreadState]) -> None:
    """Finalizer body — module-level so the pool itself can be GC'd."""
    for st in states:
        st.dispose()
    states.clear()


class ThreadStatePool:
    """Free-list of :class:`_ThreadState` shared across a query's runs.

    Walker threads are created per walk, so states are keyed by
    *checkout*, not by thread ident: ``acquire`` hands out a prepared
    state (reusing a parked one when available) and ``release`` parks
    them again. Every state's scratch database is in memory: the pool
    owns connections and no file.
    """

    def __init__(
        self,
        users: dict[int, str] | None = None,
        groups: dict[int, str] | None = None,
    ):
        self.users = users if users is not None else {}
        self.groups = groups if groups is not None else {}
        self._lock = threading.Lock()
        self._free: list[_ThreadState] = []
        self._all: list[_ThreadState] = []
        self._closed = False
        #: states ever created / checkouts served from the free list —
        #: the session layer's effectiveness counters
        self.created = 0
        self.reused = 0
        self._finalizer = weakref.finalize(self, _dispose_pool, self._all)

    # ------------------------------------------------------------------
    def acquire(
        self, init_sql: str | None, out_path: str | None, stages: bool = True
    ) -> _ThreadState:
        """Check a prepared state out of the pool (creating one if all
        are busy). Pass ``stages=False`` when no stage will execute on
        the state (see :meth:`_ThreadState.prepare`)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("query session is closed")
            if self._free:
                st = self._free.pop()
                self.reused += 1
                fresh = False
            else:
                st = self._create_locked()
                self.created += 1
                fresh = True
        rec = obs.metrics()
        if rec.enabled:
            rec.counter(
                "gufi_session_states_created_total"
                if fresh
                else "gufi_session_states_reused_total"
            )
        st.prepare(init_sql, out_path, stages)
        return st

    def _create_locked(self) -> _ThreadState:
        # A private in-memory database. uri=True so read-only ATTACH
        # URIs (and the aggregate's shared-cache one) are honoured on
        # this connection: SQLITE_OPEN_URI is per-connection.
        conn = sqlite3.connect(
            "file::memory:",
            uri=True,
            check_same_thread=False,
            isolation_level=None,
        )
        ctx = QueryContext(users=self.users, groups=self.groups)
        register(conn, ctx)
        st = _ThreadState(conn, ctx)
        self._all.append(st)
        return st

    def release(self, states: list[_ThreadState]) -> None:
        with self._lock:
            if self._closed:
                for st in states:
                    st.dispose()
            else:
                self._free.extend(states)

    def close(self) -> None:
        """Close every pooled connection (which frees its scratch
        database). Idempotent; checked-out states are disposed on
        release."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._finalizer()
