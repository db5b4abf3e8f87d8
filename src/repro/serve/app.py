"""`GUFIApp` — the ASGI application over the synchronous server.

Request lifecycle (one ``POST /v1/invoke``):

1. **authenticate** — the ``x-gufi-user`` header names the tenant;
   the :class:`~repro.core.server.IdentityProvider` resolves it (and
   :class:`~repro.core.server.GUFIServer` re-resolves per §III-A5 at
   dispatch, so the two can never disagree for long);
2. **QoS rings** (cheapest first, see :mod:`repro.serve.qos`):
   per-tenant token bucket → per-tenant concurrency quota → global
   admission control with its bounded wait queue; every rejection is
   a structured JSON error with ``retry_after``;
3. **execute** — the tool call runs on a bounded worker-thread
   executor (as many workers as admission slots, so the executor
   never queues), carrying a :class:`~repro.core.engine.CancelToken`
   armed with the request deadline: traversal observes it once per
   directory and a late query dies mid-walk with a structured
   ``deadline_exceeded`` error instead of finishing late;
4. **page** — the tools :data:`~repro.core.server.ALLOWED_TOOLS`
   marks pageable collect into the server's
   :meth:`~repro.core.server.GUFIServer.response_sink` and, when the
   client asked for pages, the response carries an opaque resumption
   cursor (:mod:`repro.serve.cursors`). A cursor replay re-runs the query —
   O(rows) against the materialized
   :class:`~repro.core.engine.ResultCache` — and serves the next
   page only if the full row digest still matches; otherwise the
   cursor has expired and the client restarts, never seeing rows
   that shifted underneath it.

``GET /metrics`` serves the process metrics in Prometheus text
(:func:`repro.obs.export.to_prometheus`); ``GET /healthz`` is the
load-balancer probe. The app is stdlib-only and callable in-process
(:class:`repro.serve.client.ASGIClient`) or over sockets
(:func:`repro.serve.http.serve`).
"""

from __future__ import annotations

import asyncio
import json
import secrets
import sqlite3
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any

from repro import obs
from repro.obs.export import to_prometheus

from repro.core.engine import (
    CancelToken,
    PaginatedSink,
    QueryCancelled,
    QueryPermissionError,
    QuerySpec,
)
from repro.core.server import (
    ALLOWED_TOOLS,
    AuthenticationError,
    GUFIServer,
    ToolNotAllowed,
)
from repro.core.tools import FindFilters

from .codec import canonical_json, jsonable, rows_digest
from .cursors import (
    CursorError,
    CursorExpired,
    decode_cursor,
    encode_cursor,
)
from .qos import (
    AdmissionController,
    LoadShed,
    QuotaExceeded,
    TenantQuota,
    TokenBucket,
)

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


class GUFIApp:
    """The serving layer's ASGI application (see module docstring).

    One instance fronts one :class:`~repro.core.server.GUFIServer`.
    QoS knobs:

    ``max_inflight``
        executor slots — queries running concurrently (and the worker
        thread count);
    ``queue_limit``
        admission wait-queue bound; arrivals past it are shed;
    ``tenant_qps`` / ``tenant_burst``
        per-tenant token-bucket rate (None disables rate limiting);
    ``tenant_concurrency``
        per-tenant in-flight cap (None disables);
    ``deadline_s``
        default per-request deadline; a request may *lower* it via
        ``deadline_ms`` but never raise it past this cap.
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
        retry_after: float = 0.5,
    ) -> None:
        self.server = server
        self.deadline_s = deadline_s
        self.admission = AdmissionController(
            max_inflight, queue_limit, retry_after=retry_after
        )
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
    # ASGI surface
    # ------------------------------------------------------------------
    async def __call__(self, scope: dict, receive: Any, send: Any) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise RuntimeError(f"unsupported scope {scope['type']!r}")
        status, content_type, body = await self._handle(scope, receive)
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (b"content-type", content_type),
                    (b"content-length", str(len(body)).encode("ascii")),
                ],
            }
        )
        await send({"type": "http.response.body", "body": body})

    @staticmethod
    async def _lifespan(receive: Any, send: Any) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def _handle(
        self, scope: dict, receive: Any
    ) -> tuple[int, bytes, bytes]:
        method = scope.get("method", "GET")
        path = scope.get("path", "/")
        if method == "GET" and path == "/healthz":
            return self._json(200, {"ok": True})
        if method == "GET" and path == "/metrics":
            text = to_prometheus(obs.snapshot())
            return 200, b"text/plain; version=0.0.4", text.encode("utf-8")
        if method == "POST" and path == "/v1/invoke":
            body = await self._read_body(receive)
            headers = {
                k.decode("latin-1").lower(): v.decode("latin-1")
                for k, v in scope.get("headers", [])
            }
            try:
                payload = await self._invoke(headers, body)
            except _HTTPError as exc:
                return self._error_response(exc)
            except Exception as exc:  # noqa: BLE001 - ASGI boundary
                return self._error_response(
                    _HTTPError(
                        500, "internal", f"{type(exc).__name__}: {exc}"
                    )
                )
            return self._json(200, payload)
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
    async def _read_body(receive: Any) -> bytes:
        chunks: list[bytes] = []
        while True:
            message = await receive()
            if message["type"] != "http.request":  # pragma: no cover
                break
            chunks.append(message.get("body", b""))
            if not message.get("more_body", False):
                break
        return b"".join(chunks)

    @staticmethod
    def _json(status: int, payload: dict) -> tuple[int, bytes, bytes]:
        body = json.dumps(payload).encode("utf-8")
        return status, b"application/json", body

    @classmethod
    def _error_response(cls, exc: _HTTPError) -> tuple[int, bytes, bytes]:
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
    async def _invoke(self, headers: dict, body: bytes) -> dict:
        user = headers.get("x-gufi-user")
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
        try:
            return await self._admitted(user, tool, req, cursor_payload)
        finally:
            self.quota.release(user)

    async def _admitted(
        self,
        user: str,
        tool: str,
        req: dict,
        cursor_payload: dict | None,
    ) -> dict:
        deadline = self.deadline_s
        if req.get("deadline_ms") is not None:
            try:
                deadline = min(deadline, float(req["deadline_ms"]) / 1000.0)
            except (TypeError, ValueError) as exc:
                raise _HTTPError(
                    400, "bad_request", "deadline_ms must be a number"
                ) from exc
        token = CancelToken.after(deadline)
        # QoS ring 3: global admission (bounded queue, shed past it;
        # the queue wait burns the request's own deadline)
        try:
            await self.admission.acquire(timeout=token.remaining())
        except LoadShed as exc:
            raise _HTTPError(
                503, "overloaded", str(exc), retry_after=exc.retry_after
            ) from exc
        t0 = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self.executor,
                partial(
                    self._invoke_sync, user, tool, req, cursor_payload, token
                ),
            )
        except QueryCancelled as exc:
            rec = obs.metrics()
            if rec.enabled:
                rec.counter("gufi_serve_timeouts_total", tool=tool)
            raise _HTTPError(
                504, "deadline_exceeded",
                f"query exceeded its {deadline * 1000:.0f}ms deadline "
                f"({exc})",
            ) from exc
        except CursorExpired as exc:
            raise _HTTPError(410, "cursor_expired", str(exc)) from exc
        except AuthenticationError as exc:
            self._reject("auth")
            raise _HTTPError(401, "auth_failed", str(exc)) from exc
        except (QueryPermissionError, ToolNotAllowed) as exc:
            raise _HTTPError(403, "permission_denied", str(exc)) from exc
        except FileNotFoundError as exc:
            raise _HTTPError(404, "not_found", str(exc)) from exc
        except (TypeError, ValueError, KeyError) as exc:
            raise _HTTPError(
                400, "bad_request", f"{type(exc).__name__}: {exc}"
            ) from exc
        except (sqlite3.Error, RuntimeError) as exc:
            # the caller's own SQL failed, directly or inside the walk
            cause = exc if isinstance(exc, sqlite3.Error) else exc.__cause__
            if not isinstance(cause, sqlite3.Error):
                raise
            raise _HTTPError(400, "bad_query", str(cause)) from exc
        finally:
            self.admission.release()
            rec = obs.metrics()
            if rec.enabled:
                rec.observe(
                    "gufi_serve_request_seconds",
                    time.perf_counter() - t0,
                    tool=tool,
                )

    # ------------------------------------------------------------------
    # Worker-thread half
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
            sink = kwargs["sink"] = self.server.response_sink(page_size)
        result = self.server.invoke(user, tool, start, **kwargs)
        if sink is None:
            return {"ok": True, "tool": tool, "result": jsonable(result)}
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
                "rows": jsonable(result.rows), "meta": meta,
            }
        digest = rows_digest(result.rows)
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
            "rows": jsonable(sink.page(page)),
            "meta": meta,
            "page": page,
            "num_pages": sink.num_pages,
            "next_cursor": next_cursor,
        }

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
