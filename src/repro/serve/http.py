"""A minimal asyncio HTTP/1.1 bridge for the ASGI app.

The serving subsystem must be runnable without any third-party
server, so this module speaks just enough HTTP/1.1 to put
:class:`~repro.serve.app.GUFIApp` on a socket: request-line +
headers, a ``Content-Length`` body (no chunked uploads — the JSON
invoke bodies are small), keep-alive by default, and a
``Content-Length``-framed response. Anything fancier (TLS, HTTP/2,
chunked streaming) belongs to a real ASGI server in front; the app
itself is standard ASGI, so ``uvicorn repro...:app`` works unchanged
where one is available.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

#: request body bytes we will buffer (invoke bodies are small JSON)
MAX_BODY = 8 * 1024 * 1024
#: header-section bound (one line or 100 of them, this is plenty)
MAX_HEADER_BYTES = 64 * 1024

ASGIApp = Callable[[dict, Any, Any], Awaitable[None]]


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, list[tuple[bytes, bytes]], bytes] | None:
    """One parsed request ``(method, path, headers, body)``, or None
    on EOF / malformed input (the connection is then closed)."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line or len(line) > MAX_HEADER_BYTES:
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        return None
    headers: list[tuple[bytes, bytes]] = []
    total = 0
    while True:
        hline = await reader.readline()
        total += len(hline)
        if total > MAX_HEADER_BYTES:
            return None
        if hline in (b"\r\n", b"\n", b""):
            break
        name, _, value = hline.partition(b":")
        headers.append((name.strip().lower(), value.strip()))
    length = 0
    for name, value in headers:
        if name == b"content-length":
            try:
                length = int(value)
            except ValueError:
                return None
    if length < 0 or length > MAX_BODY:
        return None
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method, path, headers, body


async def _respond(
    app: ASGIApp,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    headers: list[tuple[bytes, bytes]],
    body: bytes,
    keep_alive: bool,
) -> None:
    scope = {
        "type": "http",
        "asgi": {"version": "3.0"},
        "http_version": "1.1",
        "method": method,
        "path": path,
        "raw_path": path.encode("latin-1"),
        "query_string": b"",
        "headers": headers,
    }
    received = False

    async def receive() -> dict:
        nonlocal received
        if received:
            return {"type": "http.disconnect"}
        received = True
        return {"type": "http.request", "body": body, "more_body": False}

    pending: list[bytes] = []

    async def send(message: dict) -> None:
        # The status line and headers wait for the body and leave with
        # it in one write: the socket has TCP_NODELAY set, so each write
        # would be a segment of its own.
        if message["type"] == "http.response.start":
            pending.append(f"HTTP/1.1 {message['status']} \r\n".encode("latin-1"))
            for name, value in message.get("headers", []):
                pending.append(name + b": " + value + b"\r\n")
            pending.append(
                b"connection: keep-alive\r\n\r\n"
                if keep_alive
                else b"connection: close\r\n\r\n"
            )
        elif message["type"] == "http.response.body":
            pending.append(message.get("body", b""))
            writer.write(b"".join(pending))
            pending.clear()

    await app(scope, receive, send)
    await writer.drain()


async def _handle_connection(
    app: ASGIApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            request = await _read_request(reader)
            if request is None:
                break
            method, path, headers, body = request
            keep_alive = not any(
                n == b"connection" and v.lower() == b"close"
                for n, v in headers
            )
            await _respond(
                app, writer, method, path, headers, body, keep_alive
            )
            if not keep_alive:
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def serve(
    app: ASGIApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    ready: "asyncio.Event | None" = None,
) -> None:
    """Serve ``app`` forever on ``host:port`` (cancel to stop).

    ``ready`` is set once the listening socket is bound (tests and
    the CLI use it to sequence client startup); the actual bound port
    is stashed on it as ``ready.port``, so ``port=0`` (ephemeral) is
    usable from tests.

    Cancelled, it stops listening, then cancels every open connection
    and waits for each to close. Each connection runs as a task of its
    own, not as the coroutine ``start_server`` would wrap: the stream
    protocol asks that task for its exception, which a task cancelled
    at shutdown (a keep-alive connection still open on SIGINT) answers
    by raising, and the loop prints the traceback. Nor does it wait in
    ``Server.serve_forever``: cancelled, that awaits
    ``Server.wait_closed``, which from Python 3.12.1 waits for every
    connection to close — one left open would hang the shutdown."""
    connections: set[asyncio.Task] = set()

    def accept(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            _handle_connection(app, reader, writer)
        )
        connections.add(task)
        task.add_done_callback(connections.discard)

    server = await asyncio.start_server(accept, host, port)
    if ready is not None:
        ready.port = server.sockets[0].getsockname()[1]
        ready.set()
    try:
        await asyncio.get_running_loop().create_future()  # until cancelled
    finally:
        server.close()
        # a connection accepted just before the close may add its task
        # while the first ones wind down
        while connections:
            for task in connections:
                task.cancel()
            await asyncio.gather(*connections, return_exceptions=True)
        await server.wait_closed()
