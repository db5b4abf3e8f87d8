"""Layer 2 — stages: SQL execution against directory databases.

Everything that needs a SQLite connection lives here: attaching a
directory's ``db.db`` read-only, reading its summary record on the
cold path, the per-directory ``T``/``S``/``E`` stages (with the
per-user xattr views and per-stage wall-clock timings), traced-I/O
accounting, and the ``J``/``G`` merge phase that owns the run's
aggregate database lifecycle — an in-memory database, like the
per-thread scratch databases it merges: a single-process query writes
no intermediate file.

The stage layer is policy-free: it never decides *whether* a stage
runs (that is :mod:`repro.core.engine.traversal`'s job, expressed as a
:class:`~repro.core.engine.traversal.StageGates`) nor where rows go
(:mod:`repro.core.engine.sinks`). It just executes.
"""

from __future__ import annotations

import itertools
import sqlite3
import time
from typing import Any

from repro.sim.blktrace import IOTracer
from repro.store import connect, layout
from repro.store.attach import AttachSession
from repro.store.layout import DirStore

from ..index import DirMeta, GUFIIndex
from ..session import _ThreadState, run_sql, user_script
from ..sqlfuncs import QueryContext, register
from .types import DbStamp, QuerySpec


class StageRunner:
    """One run's per-directory stage executor.

    ``timing`` and ``tracing`` are resolved once per run (both flags
    are attribute checks on the process observability singletons) so
    the per-directory path tests plain booleans.
    """

    def __init__(
        self,
        index: GUFIIndex,
        spec: QuerySpec,
        tracer: IOTracer | None,
        otr: Any,
        timing: bool,
        tracing: bool,
    ) -> None:
        self.index = index
        self.spec = spec
        self.tracer = tracer
        self.otr = otr
        self.timing = timing
        self.tracing = tracing

    # ------------------------------------------------------------------
    # Attach / metadata
    # ------------------------------------------------------------------
    def attach(self, st: _ThreadState, db_path: str) -> None:
        """Attach a directory database read-only as ``gufi``. Raises
        ``sqlite3.DatabaseError`` for corrupt/unreadable files."""
        if self.tracing:
            with self.otr.span("query.attach", path=db_path):
                connect.attach_ro(st.conn, db_path, "gufi", tracer=None)
        else:
            connect.attach_ro(st.conn, db_path, "gufi", tracer=None)

    @staticmethod
    def detach(st: _ThreadState) -> None:
        st.conn.commit()
        connect.detach(st.conn, "gufi")

    @staticmethod
    def read_meta(
        st: _ThreadState, lean: bool = False, stamp: DbStamp = None
    ) -> DirMeta:
        """The directory's summary record, via the already-attached
        database (the cold path's combined permission read) — the
        lean shape of it when the run reads no bounds and no
        tree-summary bit (the engine decides, once per run) — carrying
        ``stamp``, the database's stamp taken before the attach."""
        return GUFIIndex.read_dir_meta(st.conn, "gufi", lean, stamp)

    def account_io(self, st: _ThreadState, db_path: str) -> None:
        """Charge the traced-I/O model: entry-level queries read the
        whole database; summary/tsummary-only queries read just those
        tables' pages (the schema's headline win)."""
        if self.tracer is None:
            return
        spec = self.spec
        if spec.E or not (spec.S or spec.T):
            nbytes = layout.artifact_bytes(db_path)
        else:
            tables = set()
            if spec.S:
                tables.add("summary")
            if spec.T:
                tables.add("tsummary")
            nbytes = connect.table_bytes(st.conn, "gufi", tables)
        self.tracer.record(db_path, nbytes)

    # ------------------------------------------------------------------
    # Per-directory stages
    # ------------------------------------------------------------------
    def t_stage(self, st: _ThreadState, rows: list[tuple]) -> None:
        """Run ``T`` against the attached directory's tsummary rows —
        the caller asks only where ``DirMeta.tsummary`` says there are
        some. Whether that prunes is the traversal's call
        (:meth:`~repro.core.engine.traversal.Traversal.t_prunes`)."""
        assert self.spec.T is not None
        self._timed_stage(st, "T", self.spec.T, rows)

    def s_e_stages(
        self,
        st: _ThreadState,
        index_dir: str,
        creds: Any,
        run_s: bool,
        run_e: bool,
        rows: list[tuple],
    ) -> None:
        """Run ``S`` and/or ``E`` (with the per-user xattr views built
        around ``E`` when the spec asks for them). The views go through
        an :class:`~repro.store.attach.AttachSession` — the main attach
        belongs to the walk unit — so the "only readable shards
        attach" gate is the store layer's, not ours."""
        spec = self.spec
        session: AttachSession | None = None
        try:
            if spec.xattrs and run_e:
                session = AttachSession(
                    st.conn, DirStore(index_dir), self.tracer
                )
                session.xattr_views(creds)
            if run_s:
                assert spec.S is not None
                self._timed_stage(st, "S", spec.S, rows)
            if run_e:
                assert spec.E is not None
                xa = 0 if session is None else session.attached
                self._timed_stage(st, "E", spec.E, rows, 1 + xa)
        finally:
            if session is not None:
                session.drop_xattr_views()

    def _timed_stage(
        self, st: _ThreadState, stage: str, sql: str, rows: list[tuple],
        attached: int = 1,
    ) -> None:
        tb = time.perf_counter() if self.timing else 0.0
        sp = (
            self.otr.start("query.sql", stage=stage) if self.tracing else None
        )
        try:
            rows.extend(run_sql(st.conn, sql, attached))
        finally:
            if sp is not None:
                self.otr.end(sp)
            if self.timing:
                elapsed = time.perf_counter() - tb
                if stage == "T":
                    st.t_time += elapsed
                elif stage == "S":
                    st.s_time += elapsed
                else:
                    st.e_time += elapsed


def _unjournaled(conn: sqlite3.Connection, alias: str) -> None:
    """No rollback journal and no fsync for ``alias``: what a database
    handed to another process and then deleted needs of neither."""
    conn.execute(f"PRAGMA {alias}.journal_mode = OFF")
    conn.execute(f"PRAGMA {alias}.synchronous = OFF")


#: names the process's shared-cache aggregate databases apart: the
#: shared-cache namespace is per process, whatever engine or pool asks
_agg_names = itertools.count()


class MergeRunner:
    """The run's merge phase: ``J`` once per thread database into a
    shared aggregate database, then ``G`` once against the aggregate.

    Owns the aggregate database's lifecycle. It lives in memory, as
    ``gufi_query`` keeps it: a shared-cache in-memory database under a
    process-unique name (two runs in flight on one pool never meet),
    held open by one autocommit *owner* connection from the ``I``
    script through ``G``. Shared-cache is what lets each thread
    connection ``ATTACH`` the same in-memory database by URI for ``J``;
    ``G`` runs on the owner with the SQL helper functions registered,
    and closing the owner frees the database — nothing to unlink, no
    journal, no fsync — also when a stage raises.

    ``agg_path`` is the one exception: a scatter-gather worker hands
    its aggregate to the parent *process*, so it is a file, left behind
    for the parent's fold and opened (owner and ``aggregate`` alias)
    with the rollback journal and sync off — a hand-off, not a durable
    store."""

    def __init__(
        self,
        spec: QuerySpec,
        users: dict[int, str],
        otr: Any,
        timing: bool,
        tracing: bool,
        agg_path: str | None = None,
    ) -> None:
        self.spec = spec
        self.users = users
        self.otr = otr
        self.timing = timing
        self.tracing = tracing
        self.j_time = 0.0
        self.g_time = 0.0
        self._agg_path = agg_path

    def run(self, states: list[_ThreadState]) -> list[tuple]:
        """Execute J/G if the spec has them; returns the G rows."""
        spec = self.spec
        if not (spec.J or spec.G):
            return []
        # a plain path is a file even on a ``uri=True`` connection
        name = self._agg_path or (
            f"file:gufi_agg_{next(_agg_names)}?mode=memory&cache=shared"
        )
        owner = sqlite3.connect(name, uri=True, isolation_level=None)
        try:
            if self._agg_path is not None:
                _unjournaled(owner, "main")
            if spec.I:
                user_script(owner, spec.I)
            if spec.J:
                self._j_stage(states, name)
            if spec.G:
                return self._g_stage(owner)
            return []
        finally:
            owner.close()

    def _j_stage(self, states: list[_ThreadState], name: str) -> None:
        spec = self.spec
        jb = time.perf_counter() if self.timing else 0.0
        sp = self.otr.start("query.sql", stage="J") if self.tracing else None
        try:
            for st in states:
                st.conn.execute("ATTACH DATABASE ? AS aggregate", (name,))
                try:
                    if self._agg_path is not None:
                        _unjournaled(st.conn, "aggregate")
                    assert spec.J is not None
                    user_script(st.conn, spec.J, 1)
                    st.conn.commit()
                finally:
                    st.conn.execute("DETACH DATABASE aggregate")
        finally:
            if sp is not None:
                self.otr.end(sp)
            if self.timing:
                self.j_time = time.perf_counter() - jb

    def _g_stage(self, owner: sqlite3.Connection) -> list[tuple]:
        spec = self.spec
        gb = time.perf_counter() if self.timing else 0.0
        sp = self.otr.start("query.sql", stage="G") if self.tracing else None
        try:
            register(owner, QueryContext(users=self.users))
            assert spec.G is not None
            return run_sql(owner, spec.G, 0)
        finally:
            if sp is not None:
                self.otr.end(sp)
            if self.timing:
                self.g_time = time.perf_counter() - gb
