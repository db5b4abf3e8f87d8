"""`GUFIApp` — the HTTP application over the synchronous server.

Request lifecycle (one ``POST /v1/invoke``):

1. **authenticate** — the ``x-gufi-user`` header names the tenant;
   the :class:`~repro.core.server.IdentityProvider` resolves it (and
   :class:`~repro.core.server.GUFIServer` re-resolves per §III-A5 at
   dispatch, so the two can never disagree for long);
2. **QoS rings** (cheapest first, see :mod:`repro.serve.qos`):
   per-tenant token bucket → per-tenant concurrency quota; every
   rejection is a structured JSON error with ``retry_after``;
3. **execute** — the tool call first runs on the event loop in
   replay-only mode (:func:`~repro.core.engine.replay_only`): a
   result-cache hit the write clock alone vouches for, of a bounded
   size, is answered there without yielding, holding its tenant slot.
   Steps 1–3 up to here are the app's one entry, the plain method
   :meth:`GUFIApp.attempt`: the HTTP bridge calls it straight from the
   socket's receive callback, the in-process client from a coroutine.
   Anything else declines before any work and goes — once, never
   attempted again — through global admission control (bounded wait
   queue, shed past it) to a bounded worker-thread executor (as many
   workers as admission slots, so the executor never queues) — so
   admission bounds executor work, and a hit neither waits for a slot
   nor is shed. The call carries a
   :class:`~repro.core.engine.CancelToken` armed with the request
   deadline: traversal observes it once per directory and a late
   query dies mid-walk with a structured ``deadline_exceeded`` error
   instead of finishing late; ``gufi_serve_replies_total{on}`` counts
   where each answer came from (``loop`` or ``executor``);
4. **page** — the tools :data:`~repro.core.server.ALLOWED_TOOLS`
   marks pageable collect into the server's
   :meth:`~repro.core.server.GUFIServer.response_sink` and, when the
   client asked for pages, the response carries an opaque resumption
   cursor (:mod:`repro.serve.cursors`). A cursor replay re-runs the
   query and serves the next page only if the full row digest still
   matches; otherwise the cursor has expired and the client restarts,
   never seeing rows that shifted underneath it. Against the
   materialized :class:`~repro.core.engine.ResultCache` a page costs a
   page: the digest is taken once per cached result and kept with its
   entry, the page is a slice of the entry's rows
   (:class:`~repro.core.engine.PageSink`), and the loop answers it
   whatever the entry's size. Without a result cache every page
   re-runs the query and digests its rows, O(rows).

``GET /metrics`` serves the process metrics in Prometheus text
(:func:`repro.obs.export.to_prometheus`); ``GET /healthz`` is the
load-balancer probe. The app is stdlib-only and has one entry,
:meth:`GUFIApp.attempt`, which the in-process client
(:class:`repro.serve.client.ASGIClient`) and the socket bridge
(:func:`repro.serve.http.serve`) both call.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import sqlite3
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Awaitable

from repro import obs
from repro.obs.export import to_prometheus

from repro.core.engine import (
    CacheEntry,
    CancelToken,
    NotCached,
    PageSink,
    PaginatedSink,
    QueryCancelled,
    QueryPermissionError,
    QuerySpec,
    replay_only,
    small_entry,
)
from repro.core.server import (
    ALLOWED_TOOLS,
    AuthenticationError,
    GUFIServer,
    ToolNotAllowed,
)
from repro.core.tools import FindFilters

from .codec import canonical_json, dumps, rows_digest
from .cursors import (
    CursorError,
    CursorExpired,
    decode_cursor,
    encode_cursor,
)
from .http import Reply
from .qos import (
    AdmissionController,
    LoadShed,
    QuotaExceeded,
    TenantQuota,
    TokenBucket,
)

#: ``CacheEntry.memo`` key prefix of the digest of an entry's first
#: ``n`` rows, a cursor's freshness proof
_DIGEST = "rows_digest"

#: QuerySpec fields a remote caller may set. Where rows go is the
#: server's choice of sink, never a spec field: no request writes a file.
_SPEC_FIELDS = frozenset(
    {"I", "T", "S", "E", "J", "G", "xattrs", "t_no_prune"}
)


class _HTTPError(Exception):
    """Internal: mapped straight to a structured JSON error response."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after


class _Answering:
    """``with _Answering(tool, deadline):`` times one answer into
    ``gufi_serve_request_seconds`` and maps what the tool call raised
    to its structured HTTP error. A replay-only attempt that declined
    answered nothing: it passes through untimed."""

    __slots__ = ("tool", "deadline", "t0")

    def __init__(self, tool: str, deadline: float) -> None:
        self.tool = tool
        self.deadline = deadline

    def __enter__(self) -> None:
        self.t0 = time.perf_counter()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is NotCached:
            return
        rec = obs.metrics()
        if rec.enabled:
            rec.observe(
                "gufi_serve_request_seconds",
                time.perf_counter() - self.t0,
                tool=self.tool,
            )
        if isinstance(exc, Exception):
            mapped = _http_error(exc, self.tool, self.deadline)
            if mapped is not None:
                raise mapped from exc


def _http_error(
    exc: Exception, tool: str, deadline: float
) -> _HTTPError | None:
    """The structured error a tool call's exception answers as, or None
    for one that is not the caller's doing (a 500)."""
    if isinstance(exc, QueryCancelled):
        rec = obs.metrics()
        if rec.enabled:
            rec.counter("gufi_serve_timeouts_total", tool=tool)
        return _HTTPError(
            504, "deadline_exceeded",
            f"query exceeded its {deadline * 1000:.0f}ms deadline ({exc})",
        )
    if isinstance(exc, CursorExpired):
        return _HTTPError(410, "cursor_expired", str(exc))
    if isinstance(exc, AuthenticationError):
        GUFIApp._reject("auth")
        return _HTTPError(401, "auth_failed", str(exc))
    if isinstance(exc, (QueryPermissionError, ToolNotAllowed)):
        return _HTTPError(403, "permission_denied", str(exc))
    if isinstance(exc, FileNotFoundError):
        return _HTTPError(404, "not_found", str(exc))
    if isinstance(exc, (TypeError, ValueError, KeyError)):
        return _HTTPError(400, "bad_request", f"{type(exc).__name__}: {exc}")
    # the caller's own SQL failed, directly or inside the walk
    cause = exc if isinstance(exc, sqlite3.Error) else exc.__cause__
    if isinstance(exc, (sqlite3.Error, RuntimeError)) and isinstance(
        cause, sqlite3.Error
    ):
        return _HTTPError(400, "bad_query", str(cause))
    return None


class GUFIApp:
    """The serving layer's application (see module docstring).

    One instance fronts one :class:`~repro.core.server.GUFIServer`.
    QoS knobs:

    ``max_inflight``
        executor slots — queries running concurrently on worker
        threads (and the worker thread count); a result-cache hit
        answered on the event loop takes none;
    ``queue_limit``
        admission wait-queue bound; executor-bound arrivals past it
        are shed;
    ``tenant_qps`` / ``tenant_burst``
        per-tenant token-bucket rate (None disables rate limiting);
    ``tenant_concurrency``
        per-tenant in-flight cap (None disables);
    ``deadline_s``
        default per-request deadline; a request may *lower* it via
        ``deadline_ms`` but never raise it past this cap;
    ``cursor_secret``
        the key paging cursors are signed with (a deployment
        credential; a random one per app by default).
    """

    def __init__(
        self,
        server: GUFIServer,
        max_inflight: int = 4,
        queue_limit: int = 16,
        tenant_qps: float | None = None,
        tenant_burst: float | None = None,
        tenant_concurrency: int | None = None,
        deadline_s: float = 30.0,
        cursor_secret: bytes | None = None,
    ) -> None:
        self.server = server
        self.deadline_s = deadline_s
        self.admission = AdmissionController(max_inflight, queue_limit)
        self.quota = TenantQuota(tenant_concurrency)
        self.tenant_qps = tenant_qps
        self.tenant_burst = tenant_burst
        self._buckets: dict[str, TokenBucket] = {}
        self._secret = cursor_secret or secrets.token_bytes(32)
        self.executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="gufi-serve"
        )

    def close(self) -> None:
        """Stop the executor (in-flight requests finish first)."""
        self.executor.shutdown(wait=True)

    def __enter__(self) -> "GUFIApp":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The one entry
    # ------------------------------------------------------------------
    def attempt(
        self,
        method: str,
        path: str,
        headers: list[tuple[bytes, bytes]],
        body: bytes,
    ) -> Reply | Awaitable[Reply]:
        """The app's one entry: answer one HTTP request on the event
        loop, without yielding — its ``(status, headers, body)``, or,
        when only the executor can answer it, the awaitable that will.
        An invocation is authenticated, parsed and passed through QoS
        rings 1–2 here, and with a result cache its tool call runs in
        replay-only mode; a decline hands the request on, its tenant
        slot still held, to admission and the executor — once, never
        attempted again. The socket bridge
        (:func:`repro.serve.http.serve`) and the in-process
        :class:`~repro.serve.client.ASGIClient` both call it."""
        if method == "POST" and path == "/v1/invoke":
            try:
                outcome = self._begin(headers, body)
                if isinstance(outcome, dict):
                    return self._json(200, outcome)
            except Exception as exc:  # noqa: BLE001 - HTTP boundary
                return self._failed(exc)
            return self._executed(*outcome)
        if method == "GET" and path == "/healthz":
            return self._json(200, {"ok": True})
        if method == "GET" and path == "/metrics":
            # the watch may have given up since it armed
            obs.metrics().gauge(
                "gufi_index_watch_armed", self.server.index.watched
            )
            text = to_prometheus(obs.snapshot())
            return self._reply(
                200, b"text/plain; version=0.0.4", text.encode("utf-8")
            )
        return self._json(
            404,
            {
                "ok": False,
                "error": {
                    "code": "not_found",
                    "message": f"no route {method} {path}",
                },
            },
        )

    @staticmethod
    def _reply(status: int, content_type: bytes, body: bytes) -> Reply:
        return status, [
            (b"content-type", content_type),
            (b"content-length", b"%d" % len(body)),
        ], body

    @classmethod
    def _json(cls, status: int, payload: dict) -> Reply:
        return cls._reply(
            status, b"application/json", dumps(payload).encode("utf-8")
        )

    @classmethod
    def _failed(cls, exc: Exception) -> Reply:
        """The structured JSON error an exception maps to (anything
        but an :class:`_HTTPError` is a 500)."""
        if not isinstance(exc, _HTTPError):
            exc = _HTTPError(500, "internal", f"{type(exc).__name__}: {exc}")
        err: dict[str, Any] = {
            "ok": False,
            "error": {"code": exc.code, "message": exc.message},
        }
        if exc.retry_after is not None:
            err["retry_after"] = round(exc.retry_after, 3)
        return cls._json(exc.status, err)

    # ------------------------------------------------------------------
    # The invoke pipeline
    # ------------------------------------------------------------------
    def _begin(
        self, headers: list[tuple[bytes, bytes]], body: bytes
    ) -> dict | tuple:
        """The loop's part of one invocation: the payload of a hit
        answered here, or the arguments of :meth:`_executed`."""
        # One identity per request: a proxy that checks the first value
        # and an app that trusted the last would disagree about who is
        # asking, so two differing values are refused before anything
        # is authenticated (identical repeats are one identity).
        users = {
            value for name, value in headers if name.lower() == b"x-gufi-user"
        }
        if len(users) > 1:
            self._reject("auth")
            raise _HTTPError(
                401, "auth_failed", "conflicting x-gufi-user headers"
            )
        user = users.pop().decode("latin-1") if users else None
        if not user:
            raise _HTTPError(
                401, "auth_required", "missing x-gufi-user header"
            )
        try:
            self.server.identity.authenticate(user)
        except AuthenticationError as exc:
            self._reject("auth")
            raise _HTTPError(401, "auth_failed", str(exc)) from exc
        try:
            req = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(
                400, "bad_request", f"invalid JSON body: {exc}"
            ) from exc
        if not isinstance(req, dict):
            raise _HTTPError(400, "bad_request", "body must be an object")

        cursor_payload = None
        if req.get("cursor") is not None:
            cursor_payload = self._open_cursor(user, req["cursor"])
            tool = cursor_payload["t"]
        else:
            tool = req.get("tool")
            if not isinstance(tool, str) or not tool:
                raise _HTTPError(400, "bad_request", "missing tool name")
        rec = obs.metrics()
        if rec.enabled:
            rec.counter("gufi_serve_requests_total", tool=tool)

        # QoS ring 1: per-tenant rate
        wait = self._bucket(user)
        if wait > 0:
            self._reject("rate_limit")
            raise _HTTPError(
                429, "rate_limited",
                f"per-tenant rate limit exceeded for {user!r}",
                retry_after=wait,
            )
        # QoS ring 2: per-tenant concurrency
        try:
            self.quota.acquire(user)
        except QuotaExceeded as exc:
            self._reject("concurrency")
            raise _HTTPError(
                429, "quota_exceeded", str(exc),
                retry_after=self.admission.retry_after,
            ) from exc
        handed_on = False
        try:
            deadline = self.deadline_s
            if req.get("deadline_ms") is not None:
                try:
                    deadline = min(
                        deadline, float(req["deadline_ms"]) / 1000.0
                    )
                except (TypeError, ValueError) as exc:
                    raise _HTTPError(
                        400, "bad_request", "deadline_ms must be a number"
                    ) from exc
            token = CancelToken.after(deadline)
            call = partial(
                self._invoke_sync, user, tool, req, cursor_payload, token
            )
            # A hit the write clock vouches for is answered here, on the
            # loop; anything else declines before it does any work.
            # Without a result cache every request walks, and a futile
            # attempt per request cost bench_serving's controlled mode
            # ≈7 % of its throughput.
            if self.server.result_cache is not None:
                paged = (
                    cursor_payload is not None
                    or req.get("page_size") is not None
                )
                admits = self._pages_cheaply if paged else small_entry
                try:
                    with replay_only(admits), _Answering(tool, deadline):
                        return self._replied("loop", call())
                except NotCached:
                    pass
            handed_on = True
            return user, tool, deadline, token, call
        finally:
            if not handed_on:
                self.quota.release(user)

    async def _executed(
        self,
        user: str,
        tool: str,
        deadline: float,
        token: CancelToken,
        call: partial,
    ) -> Reply:
        """The rest of a request the loop declined: QoS ring 3, global
        admission, which bounds executor work (bounded queue, shed past
        it; the queue wait burns the request's own deadline), then the
        tool call on a worker thread. Releases the tenant slot
        :meth:`_begin` took."""
        try:
            try:
                await self.admission.acquire(timeout=token.remaining())
            except LoadShed as exc:
                raise _HTTPError(
                    503, "overloaded", str(exc), retry_after=exc.retry_after
                ) from exc
            try:
                with _Answering(tool, deadline):
                    reply = await asyncio.get_running_loop().run_in_executor(
                        self.executor, call
                    )
            finally:
                self.admission.release()
            return self._json(200, self._replied("executor", reply))
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            return self._failed(exc)
        finally:
            self.quota.release(user)

    @staticmethod
    def _replied(on: str, reply: dict) -> dict:
        rec = obs.metrics()
        if rec.enabled:
            rec.counter("gufi_serve_replies_total", on=on)
        return reply

    # ------------------------------------------------------------------
    # The tool call: on the loop (replay-only), else on a worker thread
    # ------------------------------------------------------------------
    def _invoke_sync(
        self,
        user: str,
        tool: str,
        req: dict,
        cursor_payload: dict | None,
        token: CancelToken,
    ) -> dict:
        if cursor_payload is not None:
            start = cursor_payload["s"]
            args = json.loads(cursor_payload["a"])
            page = int(cursor_payload["p"]) + 1
            page_size: int | None = int(cursor_payload["n"])
        else:
            start = req.get("start", "/")
            args = req.get("args") or {}
            if not isinstance(args, dict):
                raise ValueError("args must be an object")
            page = 0
            page_size = req.get("page_size")
            if page_size is not None:
                page_size = int(page_size)
                if page_size <= 0:
                    raise ValueError("page_size must be > 0")
        kwargs = self._build_kwargs(tool, dict(args))
        kwargs["cancel"] = token
        sink: PaginatedSink | None = None
        if ALLOWED_TOOLS.get(tool):
            # a page of a replay is a slice of the cache entry's rows
            sink = kwargs["sink"] = (
                self.server.response_sink()
                if page_size is None
                else PageSink(page_size, max_rows=self.server.max_rows)
            )
        result = self.server.invoke(user, tool, start, **kwargs)
        if sink is None:
            return {"ok": True, "tool": tool, "result": result}
        meta = {
            "elapsed": result.elapsed,
            "dirs_visited": result.dirs_visited,
            "dirs_denied": result.dirs_denied,
            "truncated": result.truncated,
            "cached": result.cached,
            "total_rows": len(result.rows),
        }
        if page_size is None:
            return {
                "ok": True, "tool": tool,
                "rows": result.rows, "meta": meta,
            }
        # The digest of a result the cache holds is taken once, by the
        # first paged call that meets the entry — a miss, as it stores
        # it, or a replay — and kept with it, keyed by how many of its
        # rows the response cap kept.
        memo = result.memo
        memo_key = (_DIGEST, len(result.rows))
        digest = None if memo is None else memo.get(memo_key)
        if digest is None:
            digest = rows_digest(result.rows)
            if memo is not None:
                memo[memo_key] = digest
        if cursor_payload is not None and digest != cursor_payload["d"]:
            raise CursorExpired(
                "the result set changed since this cursor was issued; "
                "restart from the first page"
            )
        next_cursor = None
        if page + 1 < sink.num_pages:
            next_cursor = encode_cursor(
                self._secret,
                {
                    "u": user, "t": tool, "s": start,
                    "a": canonical_json(args),
                    "p": page, "n": page_size, "d": digest,
                },
            )
        return {
            "ok": True, "tool": tool,
            "rows": sink.page(page),
            "meta": meta,
            "page": page,
            "num_pages": sink.num_pages,
            "next_cursor": next_cursor,
        }

    def _pages_cheaply(self, entry: CacheEntry) -> bool:
        """The loop's rule for a paged request: a small entry, or one
        whose replay a :class:`PageSink` keeps whole and whose digest
        it already keeps — then a page costs a page."""
        n = len(entry.rows) + len(entry.final_rows)
        cap = self.server.max_rows
        return small_entry(entry) or (
            (cap is None or n <= cap) and (_DIGEST, n) in entry.memo
        )

    @staticmethod
    def _build_kwargs(tool: str, args: dict) -> dict:
        """Lift wire-shaped args into the server's calling convention.

        Scalar args pass through; ``query``'s spec dict becomes a
        :class:`QuerySpec` (wire-settable fields only) and ``find``'s
        filters dict a :class:`FindFilters` — both raise ``TypeError``
        on unknown keys, which the app maps to 400."""
        if tool == "query":
            spec = args.pop("spec", None)
            if not isinstance(spec, dict):
                raise ValueError("query requires an args.spec object")
            if args:
                raise ValueError(
                    f"unsupported query args: {sorted(args)}"
                )
            bad = set(spec) - _SPEC_FIELDS
            if bad:
                raise ValueError(
                    f"spec fields not settable remotely: {sorted(bad)}"
                )
            args["spec"] = QuerySpec(**spec)
        elif tool == "find":
            extra = set(args) - {"filters", "planned"}
            if extra:
                raise ValueError(f"unsupported find args: {sorted(extra)}")
            filters = args.pop("filters", None)
            if filters is not None:
                if not isinstance(filters, dict):
                    raise ValueError("args.filters must be an object")
                args["filters"] = FindFilters(**filters)
        elif "sink" in args or "cancel" in args:
            # the serving layer owns these; a wire value could smuggle
            # arbitrary objects into the dispatch path
            raise ValueError("sink/cancel are not wire-settable")
        return args

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _bucket(self, user: str) -> float:
        """Per-tenant rate check: 0.0 or the retry-after hint."""
        if self.tenant_qps is None:
            return 0.0
        bucket = self._buckets.get(user)
        if bucket is None:
            bucket = self._buckets.setdefault(
                user, TokenBucket(self.tenant_qps, self.tenant_burst)
            )
        return bucket.acquire()

    def _open_cursor(self, user: str, token: Any) -> dict:
        if not isinstance(token, str):
            raise _HTTPError(400, "invalid_cursor", "cursor must be a string")
        try:
            payload = decode_cursor(self._secret, token)
        except CursorError as exc:
            raise _HTTPError(400, "invalid_cursor", str(exc)) from exc
        try:
            issued_to = payload["u"]
            for field in ("t", "s", "a", "p", "n", "d"):
                payload[field]
        except KeyError as exc:
            raise _HTTPError(
                400, "invalid_cursor", "cursor payload incomplete"
            ) from exc
        if issued_to != user:
            # tenant-bound: a cursor never crosses principals
            raise _HTTPError(
                403, "invalid_cursor",
                "cursor was issued to a different tenant",
            )
        return payload

    @staticmethod
    def _reject(reason: str) -> None:
        rec = obs.metrics()
        if rec.enabled:
            rec.counter("gufi_serve_rejected_total", reason=reason)
