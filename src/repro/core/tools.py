"""User-facing query tools built on the layered query engine.

These reproduce the paper's parallel reimplementations of the classic
utilities (``gufi_find``, ``gufi_ls``, ``gufi_du``, ``gufi_stats``):
thin layers that compose SQL for the engine and format results. All
of them open databases read-only and inherit the engine's permission
gating, so an unprivileged caller sees exactly what the source file
system would show them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.permissions import ROOT, Credentials, format_mode
from repro.sim.blktrace import IOTracer

from .engine import CancelToken, QueryEngine, ResultSink
from .index import GUFIIndex
from .plan import plan_for
from .query import QueryResult, QuerySpec
from .sqltext import quote_literal


@dataclass
class FindFilters:
    """``find``-style predicates compiled into the entries query."""

    name_like: str | None = None  # SQL LIKE pattern on the entry name
    ftype: str | None = None  # 'f' | 'l'
    min_size: int | None = None
    max_size: int | None = None
    uid: int | None = None
    gid: int | None = None
    #: entries not modified since this timestamp (purge-policy scans)
    mtime_before: int | None = None
    mtime_after: int | None = None
    #: match against packed xattr name list in entries
    xattr_name_like: str | None = None
    #: depth window relative to the query start (gufi_query -y/-z):
    #: directories outside it are traversed but not processed; nothing
    #: below max_level is visited. Enforced by the planner, not SQL.
    min_level: int | None = None
    max_level: int | None = None

    def where_clause(self) -> str:
        conds = []
        if self.name_like is not None:
            # ESCAPE lets glob-translated patterns match literal %/_
            conds.append(f"name LIKE {quote_literal(self.name_like)} ESCAPE '\\'")
        if self.ftype is not None:
            conds.append(f"type = {quote_literal(self.ftype)}")
        if self.min_size is not None:
            conds.append(f"size >= {int(self.min_size)}")
        if self.max_size is not None:
            conds.append(f"size <= {int(self.max_size)}")
        if self.uid is not None:
            conds.append(f"uid = {int(self.uid)}")
        if self.gid is not None:
            conds.append(f"gid = {int(self.gid)}")
        if self.mtime_before is not None:
            conds.append(f"mtime < {int(self.mtime_before)}")
        if self.mtime_after is not None:
            conds.append(f"mtime > {int(self.mtime_after)}")
        if self.xattr_name_like is not None:
            conds.append(f"xattr_names LIKE {quote_literal(self.xattr_name_like)}")
        return (" WHERE " + " AND ".join(conds)) if conds else ""


class GUFITools:
    """One handle bundling the common tools for an (index, user).

    The handle is a warm *query session*: the underlying
    :class:`~repro.core.engine.QueryEngine` keeps its scratch
    connections and the index's DirMeta cache alive across calls, so
    repeated invocations (the portal's canned reports, polling
    dashboards) skip per-query setup. Call :meth:`close` — or use the
    handle as a context manager — for deterministic cleanup.
    """

    def __init__(
        self,
        index: GUFIIndex,
        creds: Credentials = ROOT,
        nthreads: int = 8,
        tracer: IOTracer | None = None,
        users: dict[int, str] | None = None,
        groups: dict[int, str] | None = None,
        processes: int = 1,
        result_cache=None,
    ) -> None:
        self.engine = QueryEngine(
            index, creds=creds, nthreads=nthreads, tracer=tracer,
            users=users, groups=groups, processes=processes,
            result_cache=result_cache,
        )

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "GUFITools":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def find(
        self,
        start: str = "/",
        filters: FindFilters | None = None,
        planned: bool = True,
        sink: ResultSink | None = None,
        cancel: CancelToken | None = None,
    ) -> QueryResult:
        """``gufi_find``: paths of matching entries (and directories
        when no type filter excludes them).

        By default the filters are also compiled into a
        :class:`~repro.core.plan.QueryPlan` so directories whose
        summary statistics prove them unmatchable are skipped without
        attaching their database; ``planned=False`` disables that
        (results are identical either way — the plan is conservative)."""
        filters = filters or FindFilters()
        where = filters.where_clause()
        spec = QuerySpec(
            E="SELECT rpath(dname, d_isroot, name), type, size "
            f"FROM vrpentries{where}"
        )
        plan = plan_for(filters, planned=planned)
        return self.engine.run(spec, start, plan=plan, sink=sink,
                               cancel=cancel)

    def ls(self, path: str = "/", long_format: bool = False,
           cancel: CancelToken | None = None) -> list[str]:
        """``gufi_ls``: one directory's listing (non-recursive)."""
        spec = QuerySpec(
            E="SELECT name, type, mode, uid, gid, size, mtime FROM entries "
            "ORDER BY name"
        )
        result = self.engine.run_single(spec, path, cancel=cancel)
        out = []
        for name, ftype, mode, uid, gid, size, mtime in result.rows:
            if long_format:
                out.append(
                    f"{format_mode(ftype, mode)} {uid:>6} {gid:>6} "
                    f"{size:>12} {mtime:>10} {name}"
                )
            else:
                out.append(name)
        return out

    def stat(self, path: str) -> dict | None:
        """``gufi_stat``: one entry's indexed metadata by exact path.

        Resolves the parent directory in the index (ancestor search
        bits enforced) and looks the name up in its entries table.
        Returns a column dict, or None if the name is not indexed
        there. Directories are answered from their own summary record.
        """
        path = "/" + "/".join(p for p in path.split("/") if p)
        index = self.engine.index
        if index.db_path(path).exists():
            spec = QuerySpec(
                S="SELECT name, mode, uid, gid, size, mtime, totfiles, "
                "totsubdirs FROM summary WHERE isroot = 1 AND rectype = 0"
            )
            rows = self.engine.run_single(spec, path).rows
            if not rows:
                return None
            name, mode, uid, gid, size, mtime, totfiles, totsubdirs = rows[0]
            return {
                "name": name, "type": "d", "mode": mode, "uid": uid,
                "gid": gid, "size": size, "mtime": mtime,
                "totfiles": totfiles, "totsubdirs": totsubdirs,
            }
        parent, _, name = path.rpartition("/")
        spec = QuerySpec(
            E="SELECT name, type, mode, uid, gid, size, mtime, linkname "
            f"FROM entries WHERE name = {quote_literal(name)}"
        )
        rows = self.engine.run_single(spec, parent or "/").rows
        if not rows:
            return None
        name, ftype, mode, uid, gid, size, mtime, linkname = rows[0]
        return {
            "name": name, "type": ftype, "mode": mode, "uid": uid,
            "gid": gid, "size": size, "mtime": mtime, "linkname": linkname,
        }

    def du(self, start: str = "/", use_tsummary: bool = False,
           cancel: CancelToken | None = None) -> int:
        """``gufi_du``: bytes under ``start`` (entries + directories).

        ``use_tsummary=True`` additionally consults tree-summary
        tables: subtrees with a tsummary are answered from one row and
        pruned (the paper's query 4); the rest are aggregated the
        summaries way. The two contributions sum."""
        spec = QuerySpec(
            I="CREATE TABLE sizes (total_size INTEGER)",
            T="SELECT totsize FROM tsummary WHERE rectype = 0"
            if use_tsummary
            else None,
            S="INSERT INTO sizes SELECT TOTAL(size) FROM summary",
            E="INSERT INTO sizes SELECT TOTAL(size) FROM pentries",
            J="INSERT INTO aggregate.sizes SELECT TOTAL(total_size) FROM sizes",
            G="SELECT TOTAL(total_size) FROM sizes",
        )
        result = self.engine.run(spec, start, cancel=cancel)
        return sum(int(r[0] or 0) for r in result.rows)

    def dir_sizes(self, start: str = "/",
                  cancel: CancelToken | None = None) -> list[tuple[str, int]]:
        """Size+name of every accessible directory (paper query 2)."""
        spec = QuerySpec(S="SELECT spath(name, isroot), totsize FROM summary")
        result = self.engine.run(spec, start, cancel=cancel)
        return [(r[0], r[1]) for r in result.rows]

    def largest_files(self, start: str = "/", limit: int = 10,
                      cancel: CancelToken | None = None) -> list[tuple]:
        """Top-N files by size — one of the paper's pre-generated web
        queries. Uses per-thread collection plus a final merge sort."""
        spec = QuerySpec(
            I="CREATE TABLE top (p TEXT, size INTEGER)",
            E=(
                "INSERT INTO top SELECT rpath(dname, d_isroot, name), size FROM vrpentries "
                f"WHERE type = 'f' ORDER BY size DESC LIMIT {int(limit)}"
            ),
            J=(
                "INSERT INTO aggregate.top SELECT p, size FROM top "
                f"ORDER BY size DESC LIMIT {int(limit)}"
            ),
            G=f"SELECT p, size FROM top ORDER BY size DESC LIMIT {int(limit)}",
        )
        return self.engine.run(spec, start, cancel=cancel).rows

    def recently_modified(
        self, start: str = "/", since: int = 0, limit: int = 20,
        cancel: CancelToken | None = None,
    ) -> list[tuple]:
        """Most recently modified accessible files (web-portal query)."""
        spec = QuerySpec(
            I="CREATE TABLE recent (p TEXT, mtime INTEGER)",
            E=(
                "INSERT INTO recent SELECT rpath(dname, d_isroot, name), mtime FROM vrpentries "
                f"WHERE mtime >= {int(since)} "
                f"ORDER BY mtime DESC LIMIT {int(limit)}"
            ),
            J=(
                "INSERT INTO aggregate.recent SELECT p, mtime FROM recent "
                f"ORDER BY mtime DESC LIMIT {int(limit)}"
            ),
            G=f"SELECT p, mtime FROM recent ORDER BY mtime DESC LIMIT {int(limit)}",
        )
        return self.engine.run(spec, start, cancel=cancel).rows

    def space_by_user(self, start: str = "/",
                      cancel: CancelToken | None = None) -> dict[int, int]:
        """Bytes per uid across the accessible tree (quota reporting)."""
        spec = QuerySpec(
            I="CREATE TABLE usage (uid INTEGER, bytes INTEGER)",
            E=(
                "INSERT INTO usage SELECT uid, TOTAL(size) FROM pentries "
                "GROUP BY uid"
            ),
            J=(
                "INSERT INTO aggregate.usage "
                "SELECT uid, TOTAL(bytes) FROM usage GROUP BY uid"
            ),
            G="SELECT uid, TOTAL(bytes) FROM usage GROUP BY uid",
        )
        rows = self.engine.run(spec, start, cancel=cancel).rows
        return {int(u): int(b) for u, b in rows}

    def xattr_search(
        self, needle: str, start: str = "/", sink: ResultSink | None = None,
        cancel: CancelToken | None = None,
    ) -> QueryResult:
        """Find entries whose (accessible) xattr values match —
        Fig 9's scan/stab query shape."""
        spec = QuerySpec(
            E=(
                "SELECT rpath(dname, d_isroot, name), exattrs FROM xpentries "
                f"WHERE exattrs LIKE {quote_literal('%' + needle + '%')}"
            ),
            xattrs=True,
        )
        return self.engine.run(spec, start, sink=sink, cancel=cancel)
