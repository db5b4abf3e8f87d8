"""An in-process client: drive the app without sockets.

Tests and benchmarks need hundreds of concurrent requests through
the *full* request path — auth, QoS rings, executor, cursors — but
none of that requires a TCP connection. :class:`ASGIClient` calls the
app's one entry, :meth:`~repro.serve.app.GUFIApp.attempt`, exactly as
the socket bridge does, and awaits the rest when the app hands back an
awaitable, so a stress test is ``asyncio.gather`` over plain
coroutines and measures the serving layer rather than loopback socket
throughput. (The name is historical: the app no longer speaks ASGI.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .app import GUFIApp


@dataclass
class ClientResponse:
    """One collected response."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")


class ASGIClient:
    """Minimal in-process client for a :class:`~repro.serve.app.GUFIApp`."""

    def __init__(self, app: "GUFIApp") -> None:
        self.app = app

    async def request(
        self,
        method: str,
        path: str,
        user: str | None = None,
        json_body: Any | None = None,
        headers: dict[str, str] | None = None,
    ) -> ClientResponse:
        body = b""
        hdrs: list[tuple[bytes, bytes]] = []
        if user is not None:
            hdrs.append((b"x-gufi-user", user.encode("latin-1")))
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
            hdrs.append((b"content-type", b"application/json"))
        for name, value in (headers or {}).items():
            hdrs.append(
                (name.lower().encode("latin-1"), value.encode("latin-1"))
            )
        reply = self.app.attempt(method, path, hdrs, body)
        if not isinstance(reply, tuple):
            reply = await reply
        status, headers_out, body_out = reply
        return ClientResponse(
            status,
            {k.decode("latin-1"): v.decode("latin-1") for k, v in headers_out},
            body_out,
        )

    async def invoke(
        self,
        user: str,
        tool: str | None = None,
        start: str = "/",
        args: dict | None = None,
        page_size: int | None = None,
        cursor: str | None = None,
        deadline_ms: float | None = None,
    ) -> ClientResponse:
        """Shorthand for ``POST /v1/invoke``."""
        req: dict[str, Any] = {"start": start}
        if tool is not None:
            req["tool"] = tool
        if args is not None:
            req["args"] = args
        if page_size is not None:
            req["page_size"] = page_size
        if cursor is not None:
            req["cursor"] = cursor
        if deadline_ms is not None:
            req["deadline_ms"] = deadline_ms
        return await self.request(
            "POST", "/v1/invoke", user=user, json_body=req
        )
