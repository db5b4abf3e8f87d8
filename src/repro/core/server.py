"""The deployment access layer (paper §III-A5, Fig 4).

In production, users never log into the GUFI server: client-side tools
(or the web portal) send remote invocations through a **restricted
shell** that (a) authenticates the caller against the site identity
service (LDAP) on *every* query, so permission changes take effect
immediately, (b) allows only the GUFI tools to run, and (c) hands the
query engine the caller's uid/gid/groups so index traversal is
permission-gated.

This module reproduces that layer: an :class:`IdentityProvider` is the
LDAP stand-in and :class:`GUFIServer` the restricted entry point, whose
tool table (:data:`ALLOWED_TOOLS`) names :class:`GUFITools` methods.
The web portal is a client of it: its pre-generated queries ("the
user's largest files and their most recently accessed files") are
``largest_files``/``recently_modified`` invocations, and its search bar
is the ``search`` tool.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro import obs
from repro.fs.permissions import Credentials

from .engine import NotCached, PaginatedSink, ResultCache
from .index import GUFIIndex
from .session import ThreadStatePool
from .tools import GUFITools


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
    #: username -> (the record values, the Credentials built from them)
    _built: dict[str, tuple] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: uid -> username, kept current by the writers below and changed
    #: only in place (a server's pooled query contexts alias it): a
    #: name is set before the one it replaces is dropped, so a uid
    #: named before and after a write is never absent to a reader
    names: dict[int, str] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name, rec in self._users.items():
            self.names[rec["uid"]] = name

    def add_user(
        self,
        username: str,
        uid: int,
        gid: int,
        groups: frozenset[int] = frozenset(),
        enabled: bool = True,
    ) -> None:
        old = self._users.get(username)
        self._users[username] = {
            "uid": uid, "gid": gid, "groups": frozenset(groups),
            "enabled": enabled,
        }
        self.names[uid] = username
        if old is not None and old["uid"] != uid:
            self._unname(username, old["uid"])

    def remove_user(self, username: str) -> None:
        rec = self._record(username)
        del self._users[username]
        self._built.pop(username, None)
        self._unname(username, rec["uid"])

    def _unname(self, username: str, uid: int) -> None:
        """``username`` no longer holds ``uid``: the uid keeps a name
        while another user holds it."""
        if self.names.get(uid) != username:
            return
        heir = next(
            (n for n, rec in self._users.items() if rec["uid"] == uid), None
        )
        if heir is None:
            del self.names[uid]
        else:
            self.names[uid] = heir

    def _record(self, username: str) -> dict:
        try:
            return self._users[username]
        except KeyError:
            raise AuthenticationError(f"unknown user {username!r}") from None

    def disable(self, username: str) -> None:
        self._record(username)["enabled"] = False

    def enable(self, username: str) -> None:
        self._record(username)["enabled"] = True

    def set_groups(self, username: str, groups: frozenset[int]) -> None:
        self._record(username)["groups"] = frozenset(groups)

    def authenticate(self, username: str) -> Credentials:
        rec = self._users.get(username)
        if rec is None or not rec["enabled"]:
            raise AuthenticationError(f"authentication failed for {username!r}")
        # the record is read on every call; the Credentials built from
        # it are kept until one of its three values changes
        values = (rec["uid"], rec["gid"], rec["groups"])
        built = self._built.get(username)
        if built is None or built[0] != values:
            uid, gid, groups = values
            built = self._built[username] = (
                values, Credentials(uid=uid, gid=gid, groups=groups)
            )
        return built[1]

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
        """A copy of uid → username (:attr:`names`), for uidtouser()
        in query output."""
        return dict(self.names)


#: the restricted shell's tool table: each tool a remote invocation may
#: name (a :class:`GUFITools` method) → whether it returns a pageable
#: :class:`QueryResult`, and so takes the response ``sink``
ALLOWED_TOOLS: Mapping[str, bool] = MappingProxyType({
    "query": True, "find": True, "search": True, "xattr_search": True,
    "ls": False, "du": False, "dir_sizes": False, "largest_files": False,
    "recently_modified": False, "space_by_user": False,
})


@dataclass(slots=True)
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
    """The index host's restricted entry point — the one core between a
    transport (:mod:`repro.serve`, or a direct call) and the tools.

    Every invocation re-authenticates, is checked against the tool
    table, runs with the caller's credentials, and is audited. All
    database opens happen read-only (enforced downstream).

    Every principal runs on the one warm :class:`ThreadStatePool` the
    server owns: an invocation runs on the :class:`GUFITools` handle of
    the credentials it has just resolved, over that pool (one handle per
    identity, built on its first call and kept). Repeated queries
    skip per-query setup (scratch connections, SQL function
    registration), a uid or group change takes effect on the next call
    (§III-A5), and a checkout is principal-clean (see
    :mod:`repro.core.session`). All handles share the index handle's
    mtime-validated DirMeta cache.
    """

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
    #: tool handles kept, one per resolved identity; past this many the
    #: memo starts over (a handle holds no connection of its own)
    TOOLS_MEMO = 256

    def __init__(
        self,
        index: GUFIIndex,
        identity: IdentityProvider,
        nthreads: int = 8,
        audit_cap: int | None = None,
        max_rows: int | None = None,
        result_cache_mb: float | None = None,
    ) -> None:
        self.index = index
        self.identity = identity
        self.nthreads = nthreads
        #: one materialized-result cache shared by every invocation.
        #: Entries are keyed by resolved credentials, so tenants can
        #: never see each other's rows; the per-scope budget (a quarter
        #: of the total) keeps one tenant's hot queries from evicting
        #: everyone else's.
        self.result_cache: ResultCache | None = None
        if result_cache_mb is not None and result_cache_mb > 0:
            total = int(result_cache_mb * 1024 * 1024)
            self.result_cache = ResultCache(
                max_bytes=total,
                max_scope_bytes=max(1, total // 4),
            )
            # bound (and the index's watch armed) now, before a request
            # could pay the walk over the tree
            self.result_cache.bind_index(index)
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
        #: the warm thread states every invocation runs on; their name
        #: map is the directory's own, which its writers keep current
        self.pool = ThreadStatePool(users=identity.names)
        #: guards the handle memo's growth
        self._lock = threading.Lock()
        #: a GUFITools handle per resolved identity
        self._tools: dict[Credentials, GUFITools] = {}

    def _tools_for(self, username: str) -> GUFITools:
        creds = self.identity.authenticate(username)
        # One handle per resolved identity: the credentials just
        # resolved are the key, so a uid or group change gets its own.
        tools = self._tools.get(creds)
        if tools is None:
            tools = GUFITools(
                self.index, creds=creds, nthreads=self.nthreads,
                pool=self.pool, result_cache=self.result_cache,
            )
            with self._lock:
                if len(self._tools) >= self.TOOLS_MEMO:
                    self._tools.clear()
                tools = self._tools.setdefault(creds, tools)
        return tools

    def close(self) -> None:
        """Close the warm pool (its connections and scratch databases)
        and detach the shared result cache from the index's
        invalidation hooks — without the detach, a closed server would
        leave live listener callbacks bound to the
        :class:`DirMetaCache`, firing into (and pinning) a cache nobody
        serves from anymore."""
        self.pool.close()
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
        """A remote invocation: ``ssh gufi-server <tool> <args>``, i.e.
        ``GUFITools.<tool>(start=start, **kwargs)`` as ``username``.

        Raises :class:`ToolNotAllowed` for anything off the tool table
        and :class:`AuthenticationError` for unknown/disabled users —
        *before* touching the index either way; a row tool's rows go to
        :meth:`response_sink` unless a ``sink`` is passed.
        """
        t0 = time.perf_counter()
        error: str | None = None
        truncated = False
        declined = False
        otr = obs.tracer()
        span = (
            otr.start("server.invoke", user=username, tool=tool)
            if otr.enabled
            else None
        )
        try:
            pageable = ALLOWED_TOOLS.get(tool)
            if pageable is None:
                raise ToolNotAllowed(
                    f"{tool!r} is not available through the restricted shell"
                )
            tools = self._tools_for(username)
            if pageable and kwargs.get("sink") is None:
                kwargs["sink"] = self.response_sink()
            result = getattr(tools, tool)(start=start, **kwargs)
            if pageable:
                truncated = result.truncated
            return result
        except NotCached:
            declined = True
            raise
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            if declined:
                # a replay-only attempt declined before any work: no
                # invocation happened, the caller retries it off the loop
                otr.discard(span)
            else:
                otr.end(span)
                self._audit(
                    username, tool, start, time.perf_counter() - t0, error,
                    truncated,
                )

    def response_sink(self) -> PaginatedSink:
        """A fresh sink for one invocation's rows: capped at
        ``max_rows`` (the surplus counted, the result marked
        truncated) and served in pages of ``RESPONSE_PAGE_SIZE``
        rows."""
        return PaginatedSink(self.RESPONSE_PAGE_SIZE, max_rows=self.max_rows)

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

