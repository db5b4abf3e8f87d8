"""The deployment access layer (paper §III-A5, Fig 4).

In production, users never log into the GUFI server: client-side tools
(or the web portal) send remote invocations through a **restricted
shell** that (a) authenticates the caller against the site identity
service (LDAP) on *every* query, so permission changes take effect
immediately, (b) allows only the GUFI tools to run, and (c) hands the
query engine the caller's uid/gid/groups so index traversal is
permission-gated.

This module reproduces that layer: an :class:`IdentityProvider` is the
LDAP stand-in, :class:`GUFIServer` the restricted entry point, and
:class:`QueryPortal` the web portal's pre-generated query set ("the
user's largest files and their most recently accessed files").
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro import obs
from repro.fs.permissions import Credentials

from .engine import CancelToken, PaginatedSink, ResultCache, ResultSink
from .index import GUFIIndex
from .plan import plan_for
from .query import QueryResult, QuerySpec
from .tools import FindFilters, GUFITools


class AuthenticationError(PermissionError):
    """Unknown or disabled principal."""


class ToolNotAllowed(PermissionError):
    """The restricted shell rejects anything but the GUFI tools."""


@dataclass
class IdentityProvider:
    """LDAP-like directory: username → (uid, gid, groups, enabled).

    Queries resolve the caller *at call time* (no session caching), so
    revoking a user or changing their groups is effective on their
    next query — the property §III-A5 calls out.
    """

    _users: dict[str, dict] = field(default_factory=dict)

    def add_user(
        self,
        username: str,
        uid: int,
        gid: int,
        groups: frozenset[int] = frozenset(),
        enabled: bool = True,
    ) -> None:
        self._users[username] = {
            "uid": uid, "gid": gid, "groups": frozenset(groups),
            "enabled": enabled,
        }

    def disable(self, username: str) -> None:
        try:
            self._users[username]["enabled"] = False
        except KeyError:
            raise AuthenticationError(f"unknown user {username!r}") from None

    def enable(self, username: str) -> None:
        try:
            self._users[username]["enabled"] = True
        except KeyError:
            raise AuthenticationError(f"unknown user {username!r}") from None

    def set_groups(self, username: str, groups: frozenset[int]) -> None:
        try:
            self._users[username]["groups"] = frozenset(groups)
        except KeyError:
            raise AuthenticationError(f"unknown user {username!r}") from None

    def authenticate(self, username: str) -> Credentials:
        rec = self._users.get(username)
        if rec is None or not rec["enabled"]:
            raise AuthenticationError(f"authentication failed for {username!r}")
        return Credentials(uid=rec["uid"], gid=rec["gid"], groups=rec["groups"])

    @classmethod
    def from_passwd(
        cls, passwd_text: str, group_text: str = ""
    ) -> "IdentityProvider":
        """Load users from ``/etc/passwd``-format text and (optionally)
        supplementary memberships from ``/etc/group``-format text —
        how a site bootstraps the directory from its existing NSS data.

        passwd: ``name:x:uid:gid:gecos:home:shell`` (first 4 fields used)
        group:  ``name:x:gid:member1,member2``
        """
        idp = cls()
        memberships: dict[str, set[int]] = {}
        for line in group_text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":")
            if len(parts) < 4:
                continue
            try:
                gid = int(parts[2])
            except ValueError:
                continue
            for member in parts[3].split(","):
                member = member.strip()
                if member:
                    memberships.setdefault(member, set()).add(gid)
        for line in passwd_text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":")
            if len(parts) < 4:
                continue
            name = parts[0]
            try:
                uid, gid = int(parts[2]), int(parts[3])
            except ValueError:
                continue
            idp.add_user(
                name, uid=uid, gid=gid,
                groups=frozenset(memberships.get(name, set())),
            )
        return idp

    def uid_map(self) -> dict[int, str]:
        """uid → username, for uidtouser() in query output."""
        return {rec["uid"]: name for name, rec in self._users.items()}


#: tools a remote invocation may name — the restricted shell's whitelist
ALLOWED_TOOLS = frozenset({"query", "find", "ls", "du", "dir_sizes",
                           "largest_files", "recently_modified",
                           "space_by_user", "xattr_search"})


@dataclass
class InvocationLog:
    """One audited remote invocation."""

    username: str
    tool: str
    start: str
    at: float
    ok: bool
    #: wall-clock seconds the invocation took (including failures)
    elapsed: float = 0.0
    #: ``"ExcType: message"`` when the invocation raised, else None
    error: str | None = None
    #: True when the response row cap dropped rows (see
    #: ``GUFIServer.max_rows``)
    truncated: bool = False


class GUFIServer:
    """The index host's restricted entry point.

    Every invocation re-authenticates, is checked against the tool
    whitelist, runs with the caller's credentials, and is audited.
    All database opens happen read-only (enforced downstream).

    Query *sessions* are reused: the server keeps a small LRU of warm
    :class:`GUFITools` handles keyed by the caller's **resolved
    credentials** — not the username — so repeated portal queries skip
    per-query setup (scratch connections, SQL function registration,
    DirMeta reads) while preserving §III-A5's immediacy guarantees:
    authentication still happens on every invocation, and a group or
    uid change yields a different key, hence a fresh session with the
    new credentials. All sessions share the index handle's
    mtime-validated DirMeta cache.
    """

    #: warm sessions kept per server (one per distinct credential set)
    SESSION_CACHE_SIZE = 32
    #: default bound on the in-memory audit log; oldest entries are
    #: dropped (and counted in ``audit_dropped``) past it
    AUDIT_LOG_CAP = 10_000
    #: default response row cap: a remote invocation never materialises
    #: more rows than this (the surplus is counted, the response is
    #: marked truncated). Pass ``max_rows`` to change it; ``<= 0``
    #: disables the cap.
    DEFAULT_MAX_ROWS = 100_000
    #: page size of the response sink (the portal serves result pages)
    RESPONSE_PAGE_SIZE = 1_000

    def __init__(
        self,
        index: GUFIIndex,
        identity: IdentityProvider,
        nthreads: int = 8,
        audit_cap: int | None = None,
        max_rows: int | None = None,
        processes: int = 1,
        result_cache_mb: float | None = None,
    ) -> None:
        self.index = index
        self.identity = identity
        self.nthreads = nthreads
        #: worker processes per query session (scatter-gather when > 1)
        self.processes = max(1, int(processes))
        #: one materialized-result cache shared by every warm session.
        #: Entries are keyed by resolved credentials (the same key as
        #: the session LRU), so tenants can never see each other's
        #: rows; the per-scope budget (a quarter of the total) keeps
        #: one tenant's hot queries from evicting everyone else's.
        self.result_cache: ResultCache | None = None
        if result_cache_mb is not None and result_cache_mb > 0:
            total = int(result_cache_mb * 1024 * 1024)
            self.result_cache = ResultCache(
                max_bytes=total,
                max_scope_bytes=max(1, total // 4),
            )
        if max_rows is None:
            max_rows = self.DEFAULT_MAX_ROWS
        #: effective response row cap (None when disabled)
        self.max_rows: int | None = max_rows if max_rows > 0 else None
        cap = audit_cap if audit_cap is not None else self.AUDIT_LOG_CAP
        # Bounded and lock-guarded: concurrent invoke() calls append
        # from many threads, and an unbounded list would grow without
        # limit on a long-lived server.
        self.audit_log: deque[InvocationLog] = deque(maxlen=cap)
        #: entries evicted from the (full) audit log
        self.audit_dropped = 0
        self._audit_lock = threading.Lock()
        self._sessions: OrderedDict[tuple, GUFITools] = OrderedDict()
        self._sessions_lock = threading.Lock()

    def _tools_for(self, username: str) -> GUFITools:
        creds = self.identity.authenticate(username)
        key = (creds.uid, creds.gid, creds.groups)
        with self._sessions_lock:
            tools = self._sessions.get(key)
            if tools is not None:
                self._sessions.move_to_end(key)
                # keep name translation current without discarding the
                # warm session (the pooled QueryContexts alias this
                # exact dict, so an in-place update reaches them). A
                # request running under the same credentials reads it
                # meanwhile: look the new map up first, add before
                # removing, so a uid in both is never absent.
                users = tools.engine.users
                fresh = self.identity.uid_map()
                users.update(fresh)
                for uid in users.keys() - fresh.keys():
                    del users[uid]
                return tools
            tools = GUFITools(
                self.index, creds=creds, nthreads=self.nthreads,
                users=self.identity.uid_map(), processes=self.processes,
                result_cache=self.result_cache,
            )
            self._sessions[key] = tools
            while len(self._sessions) > self.SESSION_CACHE_SIZE:
                _, evicted = self._sessions.popitem(last=False)
                evicted.close()
            return tools

    def close(self) -> None:
        """Dispose every warm session (scratch dirs, connections) and
        detach the shared result cache from the index's invalidation
        hooks — without the detach, a closed server would leave live
        listener callbacks bound to the :class:`DirMetaCache`, firing
        into (and pinning) a cache nobody serves from anymore."""
        with self._sessions_lock:
            for tools in self._sessions.values():
                tools.close()
            self._sessions.clear()
        if self.result_cache is not None:
            self.result_cache.close()

    def __enter__(self) -> "GUFIServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def invoke(
        self,
        username: str,
        tool: str,
        start: str = "/",
        **kwargs,
    ):
        """A remote invocation: ``ssh gufi-server <tool> <args>``.

        Raises :class:`ToolNotAllowed` for anything off the whitelist
        and :class:`AuthenticationError` for unknown/disabled users —
        *before* touching the index either way.
        """
        t0 = time.perf_counter()
        error: str | None = None
        truncated = False
        try:
            with obs.tracer().span("server.invoke", user=username, tool=tool):
                result = self._dispatch(username, tool, start, kwargs)
                if isinstance(result, QueryResult):
                    truncated = result.truncated
                return result
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self._audit(
                username, tool, start, time.perf_counter() - t0, error,
                truncated,
            )

    def _dispatch(self, username: str, tool: str, start: str, kwargs: dict) -> object:
        if tool not in ALLOWED_TOOLS:
            raise ToolNotAllowed(
                f"{tool!r} is not available through the restricted shell"
            )
        tools = self._tools_for(username)
        if tool == "query":
            spec = kwargs.pop("spec")
            if not isinstance(spec, QuerySpec):
                raise TypeError("query requires a QuerySpec")
            plan = kwargs.pop("plan", None)
            result: QueryResult = tools.engine.run(
                spec, start, plan=plan,
                sink=kwargs.pop("sink", None) or self._response_sink(),
                cancel=kwargs.pop("cancel", None),
            )
            return result
        method = getattr(tools, tool)
        if tool == "find":
            return method(
                start,
                kwargs.pop("filters", None),
                planned=kwargs.pop("planned", True),
                sink=kwargs.pop("sink", None) or self._response_sink(),
                cancel=kwargs.pop("cancel", None),
            )
        if tool == "xattr_search":
            # ``start`` is the query root, like every other tool
            if "needle" not in kwargs:
                raise TypeError("xattr_search requires needle=<value>")
            kwargs.setdefault("sink", self._response_sink())
            return method(kwargs.pop("needle"), start=start, **kwargs)
        return method(start, **kwargs)

    def _response_sink(self) -> ResultSink | None:
        """A fresh paginated, row-capped sink for one invocation (None
        when the cap is disabled — the engine then defaults to plain
        in-memory collection)."""
        if self.max_rows is None:
            return None
        return PaginatedSink(
            min(self.RESPONSE_PAGE_SIZE, self.max_rows),
            max_rows=self.max_rows,
        )

    def _audit(
        self,
        username: str,
        tool: str,
        start: str,
        elapsed: float,
        error: str | None,
        truncated: bool = False,
    ) -> None:
        entry = InvocationLog(
            username=username, tool=tool, start=start,
            at=time.time(), ok=error is None,
            elapsed=elapsed, error=error, truncated=truncated,
        )
        with self._audit_lock:
            dropped = (
                self.audit_log.maxlen is not None
                and len(self.audit_log) == self.audit_log.maxlen
            )
            if dropped:
                self.audit_dropped += 1
            self.audit_log.append(entry)
        rec = obs.metrics()
        if rec.enabled:
            rec.counter("gufi_server_invocations_total", tool=tool)
            if error is not None:
                rec.counter("gufi_server_invoke_failures_total", tool=tool)
            if dropped:
                rec.counter("gufi_server_audit_dropped_total")
            if truncated:
                rec.counter("gufi_server_rows_truncated_total", tool=tool)
            rec.observe("gufi_server_invoke_seconds", elapsed, user=username)
        slow = obs.slow_log()
        if slow.enabled:
            slow.record(
                elapsed,
                kind="server.invoke",
                detail=tool,
                start=start,
                user=username,
            )


class QueryPortal:
    """The web portal's pre-generated query set (§III-A5): canned,
    parameter-free reports a browser button triggers. Each call
    re-authenticates through the server."""

    def __init__(self, server: GUFIServer) -> None:
        self.server = server

    def my_largest_files(self, username: str, limit: int = 10) -> list[tuple]:
        return self.server.invoke(
            username, "largest_files", "/", limit=limit
        )

    def my_recent_files(self, username: str, limit: int = 20) -> list[tuple]:
        return self.server.invoke(
            username, "recently_modified", "/", limit=limit
        )

    def my_space_usage(self, username: str) -> int:
        creds = self.server.identity.authenticate(username)
        usage = self.server.invoke(username, "space_by_user", "/")
        return usage.get(creds.uid, 0)

    def my_stale_data(
        self, username: str, older_than: int, min_size: int = 0
    ) -> QueryResult:
        creds = self.server.identity.authenticate(username)
        return self.server.invoke(
            username, "find", "/",
            filters=FindFilters(
                uid=creds.uid, mtime_before=older_than, min_size=min_size,
                ftype="f",
            ),
        )

    def search(self, username: str, query: str, start: str = "/",
               now: int | None = None, planned: bool = True) -> QueryResult:
        """The search bar: parse the portal query language and run it
        with the caller's credentials (see :mod:`repro.core.search`).
        The parsed terms also compile to a summary-statistics query
        plan, so selective searches skip most directories' databases;
        ``planned=False`` runs unplanned (identical results)."""
        from .search import parse

        parsed = parse(query, now=now)
        plan = plan_for(parsed.filters, planned=planned)
        return self.server.invoke(
            username, "query", start, spec=parsed.to_spec(), plan=plan
        )
