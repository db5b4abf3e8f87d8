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
  functions and the run's counters. Rows are not kept here: the run's
  sink owns them, and any file it writes;
* :class:`ThreadStatePool` — a free-list of thread states owned by a
  :class:`~repro.core.engine.QueryEngine`. Worker threads check states
  out at the start of a run and the engine returns them at the end,
  so the *connections* survive even though the walker's *threads* do
  not. Between one principal's runs, scratch tables created by an
  ``I`` script are cleared (same script) or dropped and recreated
  (script changed); a state changing hands gets a fresh connection.
  Only a run that walks checks a state out: a result-cache replay and
  a scatter gather hand their rows straight to the sink.

The pool owns connections and nothing on disk: no temp directory, no
scratch file, no journal, no output file. What an ``INSERT`` stage
deposits is held in memory until ``J`` folds it into the run's
aggregate (also in memory, see
:class:`~repro.core.engine.stages.MergeRunner`); a result too large to
hold is what ``-o`` streams to files, through the run's sink.

Security note: nothing permission-relevant is cached here, and a
checkout is principal-clean (one pool may serve every principal).
Caller SQL opens no file: it runs through :func:`run_sql` and
:func:`user_script`. Thread states hold only *scratch* result tables;
every per-directory permission decision still reads the index's
(mtime-validated, explicitly invalidated) DirMeta — see
:mod:`repro.core.index`.
"""

from __future__ import annotations

import sqlite3
import threading
import weakref
from typing import TYPE_CHECKING

from repro import obs

from .sqlfuncs import QueryContext, register

if TYPE_CHECKING:
    from .engine.types import Token

_ATTACHED = sqlite3.SQLITE_LIMIT_ATTACHED


def run_sql(conn: sqlite3.Connection, sql: str, attached: int) -> list[tuple]:
    """Execute one caller stage statement; SELECT rows come back, DML
    does its work against the scratch database. Caller SQL opens no
    file: the engine attaches what a run may read (``attached``
    databases besides main and temp), and the attach limit pinned to
    that refuses ``ATTACH`` and ``VACUUM … INTO``."""
    limit = conn.setlimit(_ATTACHED, attached)
    try:
        cur = conn.execute(sql)
        if cur.description is not None:
            return cur.fetchall()
        return []
    finally:
        conn.setlimit(_ATTACHED, limit)


def _no_attach(action: int, *_args: object) -> int:
    if action in (sqlite3.SQLITE_ATTACH, sqlite3.SQLITE_DETACH):
        return sqlite3.SQLITE_DENY
    return sqlite3.SQLITE_OK


def user_script(conn: sqlite3.Connection, sql: str, attached: int = 0) -> None:
    """Run a caller's ``I``/``J`` script. A script could also ``DETACH``
    one alias and ``ATTACH`` another in its place, so besides the
    pinned limit an authorizer refuses both verbs for its duration."""
    limit = conn.setlimit(_ATTACHED, attached)
    conn.set_authorizer(_no_attach)
    try:
        conn.executescript(sql)
    finally:
        conn.set_authorizer(None)
        conn.setlimit(_ATTACHED, limit)


def _connect(ctx: QueryContext) -> sqlite3.Connection:
    """A private in-memory database with the SQL helpers bound to
    ``ctx``. uri=True so read-only ATTACH URIs (and the aggregate's
    shared-cache one) are honoured on this connection:
    SQLITE_OPEN_URI is per-connection."""
    conn = sqlite3.connect(
        "file::memory:",
        uri=True,
        check_same_thread=False,
        isolation_level=None,
    )
    register(conn, ctx)
    return conn


#: whose a state is before its first run and while its scratch is
#: being prepared: no run's
_NOBODY = object()


class _ThreadState:
    """Per-worker-thread connection + context + per-run accounting.

    The counters are written by exactly one thread during a walk (the
    thread that checked the state out), so the hot path needs no
    locks; the engine sums them after the walk ends.
    """

    __slots__ = (
        "conn",
        "ctx",
        "visited",
        "denied",
        "opened",
        "errored",
        "pruned",
        "elided",
        "t_time",
        "s_time",
        "e_time",
        "token",
        "outcomes",
        "_init_sql",
        "_principal",
        "_used",
    )

    def __init__(self, ctx: QueryContext):
        self.conn = _connect(ctx)
        self.ctx = ctx
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
        # source path -> (db stamp, listing stamp) for every directory
        # this thread's walk touched, collected only when the engine
        # needs a result-cache validity token
        self.token: Token = {}
        # ... and what it decided in each (see QueryResult.outcomes)
        self.outcomes: dict[str, int] = {}
        self._init_sql: str | None = None
        # whose run last executed stages on this connection
        self._principal: object = _NOBODY
        # has a run executed stages on this connection yet
        self._used = False

    # ------------------------------------------------------------------
    def prepare(self, init_sql: str | None, principal: object = None) -> None:
        """Make the state ready for ``principal``'s run: reset the
        counters, then clear or rebuild the scratch schema. A checkout
        carries over nothing but ``main``'s scratch tables, and those
        only to the same principal's next run. A state changing hands,
        or one whose last run left a database attached (it died
        mid-directory or mid-merge) or ``temp`` objects behind, gets a
        fresh connection: tables, triggers, aliases and PRAGMAs are
        gone by construction. A healthy connection lists ``main``
        alone."""
        self.visited = self.denied = self.opened = self.errored = 0
        self.pruned = self.elided = 0
        self.t_time = self.s_time = self.e_time = 0.0
        self.token = {}
        self.outcomes = {}
        if self._used and (
            principal != self._principal
            or len(self.conn.execute("PRAGMA database_list").fetchall()) > 1
        ):
            self.conn.close()
            self.conn = _connect(self.ctx)
            self._init_sql = None
        # Until its scratch is ready the state is nobody's: a prepare
        # that raises (a caller's failing ``I``, a PRAGMA the last run
        # left) leaves it to a fresh connection at its next checkout.
        self._used, self._principal = True, _NOBODY
        if init_sql != self._init_sql:
            self._drop_scratch()
            if init_sql:
                user_script(self.conn, init_sql)
            self._init_sql = init_sql
        elif init_sql:
            # Same scratch schema as last run: emptying the tables is
            # much cheaper than dropping and re-running the DDL.
            for (name,) in self.conn.execute(
                "SELECT name FROM main.sqlite_master "
                "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
            ).fetchall():
                self.conn.execute(f'DELETE FROM "{name}"')
        self._principal = principal

    def _drop_scratch(self) -> None:
        objects = self.conn.execute(
            "SELECT type, name FROM main.sqlite_master "
            "WHERE name NOT LIKE 'sqlite_%'"
        ).fetchall()
        # views may depend on tables; drop them first
        for typ, name in sorted(objects, key=lambda o: o[0] != "view"):
            if typ in ("table", "view"):
                self.conn.execute(f'DROP {typ.upper()} IF EXISTS "{name}"')

    def dispose(self) -> None:
        try:
            self.conn.close()
        except sqlite3.Error:
            pass


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

    def __init__(self, users: dict[int, str] | None = None):
        #: uid -> name for ``uidtouser()``: update in place, every
        #: pooled context aliases it
        self.users = users if users is not None else {}
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
        self, init_sql: str | None, principal: object = None
    ) -> _ThreadState:
        """Check a prepared state out of the pool (creating one if all
        are busy) for ``principal``'s run (see
        :meth:`_ThreadState.prepare`)."""
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
        try:
            st.prepare(init_sql, principal)
        except BaseException:
            # parked as nobody's: its next checkout reconnects
            self.release([st])
            raise
        return st

    def _create_locked(self) -> _ThreadState:
        st = _ThreadState(QueryContext(users=self.users))
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
