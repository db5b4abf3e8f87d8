"""A minimal asyncio HTTP/1.1 bridge that puts
:class:`~repro.serve.app.GUFIApp` on a socket.

The serving subsystem must be runnable without any third-party
server, so this module speaks just enough HTTP/1.1: request-line +
headers, a ``Content-Length`` body (no chunked uploads — the JSON
invoke bodies are small), keep-alive by default, and a
``Content-Length``-framed response. TLS, HTTP/2 and chunked streaming
belong to a proxy in front.

Each connection is an :class:`asyncio.Protocol` (:class:`_Connection`)
that frames requests straight from its receive buffer, in one pass
over each request's head, and answers them one at a time, in order,
through the app's one entry, ``attempt(method, path, headers, body)``,
called from the ``data_received`` callback itself. A reply it returns
leaves at once, without a task or an ``await``; an awaitable it
returns instead is the rest of the request, run as a task while the
connection frames nothing further.

Every reply leaves in one ``transport.write`` — status line, headers
and body together (the socket has ``TCP_NODELAY`` set, so each write
would be a segment of its own). While the transport's write buffer is
above its high-water mark the connection answers nothing more, and
while it cannot answer, a receive buffer past :data:`READ_HIGH_WATER`
pauses reading.
Malformed input — a bad request line, a head over
:data:`MAX_HEADER_BYTES`, a bad or oversize ``Content-Length``, two
``Content-Length`` values that differ, any ``Transfer-Encoding`` —
closes the connection without a reply, so no body is ever read as a
request of its own; ``Connection: close`` closes it after its reply,
dropping whatever the client sent behind it.
"""

from __future__ import annotations

import asyncio
import re
from typing import TYPE_CHECKING, Awaitable, cast

if TYPE_CHECKING:
    from .app import GUFIApp

#: request body bytes we will buffer (invoke bodies are small JSON)
MAX_BODY = 8 * 1024 * 1024
#: bound on a request's head: its request line and headers together
MAX_HEADER_BYTES = 64 * 1024
#: receive-buffer bytes a connection holds while it cannot answer (a
#: reply is pending or its writes are paused) before it stops reading
READ_HIGH_WATER = 64 * 1024

#: ``(status, headers, body)``: one whole response
Reply = tuple[int, list[tuple[bytes, bytes]], bytes]
#: one framed request: ``(method, path, headers, body, keep_alive,
#: bytes consumed)``
Request = tuple[str, str, list[tuple[bytes, bytes]], bytes, bool, int]

#: the blank line that ends a head (each line ends ``\n``, most ``\r\n``)
_HEAD_END = re.compile(rb"\n\r?\n")


class _Malformed(Exception):
    """The buffer does not start with a request this bridge accepts."""


def _frame(buf: bytearray, scan_from: int = 0) -> Request | int:
    """The request at the start of ``buf``; while its head or body is
    still arriving, the offset the search for the head's end resumes
    from next time (it starts at ``scan_from``). Raises
    :class:`_Malformed` on input that closes the connection."""
    m = _HEAD_END.search(buf, scan_from)
    if m is None:
        if len(buf) > MAX_HEADER_BYTES:
            raise _Malformed("head too large")
        # a terminator may straddle what arrives next
        return max(0, len(buf) - 2)
    head_len = m.end()
    if head_len > MAX_HEADER_BYTES:
        raise _Malformed("head too large")
    lines = bytes(buf[: m.start()]).split(b"\n")
    try:
        method, target, _version = lines[0].decode("latin-1").split(None, 2)
    except ValueError:
        raise _Malformed("bad request line") from None
    headers: list[tuple[bytes, bytes]] = []
    length: int | None = None
    keep_alive = True
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        value = value.strip()
        headers.append((name, value))
        if name == b"content-length":
            # digits only (no more than MAX_BODY has), and one value: a
            # second that differs would let a body be framed as a
            # request of its own
            if (
                not value.isdigit()
                or len(value) > 9
                or length not in (None, int(value))
            ):
                raise _Malformed("bad Content-Length")
            length = int(value)
        elif name == b"transfer-encoding":
            raise _Malformed("Transfer-Encoding is not supported")
        elif name == b"connection" and value.lower() == b"close":
            keep_alive = False
    length = length or 0
    if length > MAX_BODY:
        raise _Malformed("bad Content-Length")
    end = head_len + length
    if len(buf) < end:
        return 0
    body = bytes(buf[head_len:end]) if length else b""
    path = target.split("?", 1)[0]
    return method, path, headers, body, keep_alive, end


def _head(
    status: int, headers: list[tuple[bytes, bytes]], keep_alive: bool
) -> bytes:
    """The status line and headers of one response."""
    parts = [b"HTTP/1.1 %d \r\n" % status]
    for name, value in headers:
        parts.append(name + b": " + value + b"\r\n")
    parts.append(
        b"connection: keep-alive\r\n\r\n"
        if keep_alive
        else b"connection: close\r\n\r\n"
    )
    return b"".join(parts)


def _respond(
    app: "GUFIApp",
    conn: "_Connection",
    method: str,
    path: str,
    headers: list[tuple[bytes, bytes]],
    body: bytes,
    keep_alive: bool,
) -> Awaitable[None] | None:
    """Answer one request: None once its reply has left, else the
    awaitable that sends it. The app's ``attempt`` runs here, on the
    loop, without yielding."""
    reply = app.attempt(method, path, headers, body)
    if isinstance(reply, tuple):
        conn.reply(reply, keep_alive)
        return None
    return _later(conn, reply, keep_alive)


async def _later(
    conn: "_Connection", pending: Awaitable[Reply], keep_alive: bool
) -> None:
    conn.reply(await pending, keep_alive)


class _Connection(asyncio.Protocol):
    """One client connection (see the module docstring)."""

    def __init__(self, app: "GUFIApp", live: set["_Connection"]) -> None:
        self.app = app
        self.live = live
        live.add(self)
        self.transport: asyncio.Transport | None = None
        self.buf = bytearray()
        #: where the search for the next head's end resumes
        self.scanned = 0
        #: the request being answered off the loop, if any
        self.task: asyncio.Task | None = None
        self.write_paused = False
        self.read_paused = False
        self.eof = False
        self.closed = False

    # -- asyncio callbacks ------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        if self.closed:  # shut down while it was being accepted
            self.transport.abort()

    def data_received(self, data: bytes) -> None:
        self.buf += data
        self._advance()

    def eof_received(self) -> bool:
        self.eof = True
        self._advance()
        return True  # the transport stays open for the replies due

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed = True
        self.live.discard(self)

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._advance()

    # -- framing ----------------------------------------------------------
    def _advance(self) -> None:
        """Answer the buffered requests in order, until one is still
        arriving or has to wait (a pending reply, paused writes)."""
        while not self.closed and self.task is None and not self.write_paused:
            try:
                request = _frame(self.buf, self.scanned) if self.buf else 0
            except _Malformed:
                self.close()
                return
            if isinstance(request, int):
                # the rest is still arriving, or nothing is
                self.scanned = request
                if self.eof:
                    self.close()
                    return
                break
            method, path, headers, body, keep_alive, consumed = request
            del self.buf[:consumed]
            self.scanned = 0
            pending = _respond(
                self.app, self, method, path, headers, body, keep_alive
            )
            if pending is not None:
                self.task = asyncio.get_running_loop().create_task(
                    self._finish(pending)
                )
        waiting = self.task is not None or self.write_paused
        transport = self.transport
        if transport is None or self.closed:
            return
        if waiting and not self.read_paused and len(self.buf) > READ_HIGH_WATER:
            self.read_paused = True
            transport.pause_reading()
        elif not waiting and self.read_paused:
            self.read_paused = False
            transport.resume_reading()

    async def _finish(self, pending: Awaitable[None]) -> None:
        try:
            await pending
        except Exception as exc:  # the app failed: no reply, close
            self.close()
            asyncio.get_running_loop().call_exception_handler({
                "message": "the app raised answering a request",
                "exception": exc,
                "protocol": self,
            })
        except BaseException:
            self.close()
            raise
        finally:
            self.task = None
        self._advance()

    # -- output -----------------------------------------------------------
    def reply(self, reply: Reply, keep_alive: bool) -> None:
        """Send one whole response in one write; after a ``Connection:
        close`` request's, close."""
        status, headers, body = reply
        if not self.closed and self.transport is not None:
            self.transport.write(_head(status, headers, keep_alive) + body)
        if not keep_alive:
            self.close()

    def close(self) -> None:
        """Close after the replies already written have left."""
        self.closed = True
        if self.transport is not None:
            self.transport.close()

    def abort(self) -> asyncio.Task | None:
        """Shutdown: drop the connection at once and cancel its pending
        reply, which is returned for the caller to wait on."""
        self.closed = True
        self.live.discard(self)
        if self.transport is not None:
            self.transport.abort()
        task = self.task
        if task is not None:
            task.cancel()
        return task


async def serve(
    app: "GUFIApp",
    host: str = "127.0.0.1",
    port: int = 8080,
    ready: "asyncio.Event | None" = None,
) -> None:
    """Serve ``app`` forever on ``host:port`` (cancel to stop).

    ``ready`` is set once the listening socket is bound (tests and
    the CLI use it to sequence client startup); the actual bound port
    is stashed on it as ``ready.port``, so ``port=0`` (ephemeral) is
    usable from tests.

    Cancelled, it stops listening, then aborts every open connection,
    cancels the replies they still owe and waits for those to end,
    before ``Server.wait_closed``: from Python 3.12.1 that waits for
    every connection to close, so one left open would hang the
    shutdown. Nor does it wait in ``Server.serve_forever``, which
    awaits ``wait_closed`` when cancelled."""
    connections: set[_Connection] = set()
    loop = asyncio.get_running_loop()
    server = await loop.create_server(
        lambda: _Connection(app, connections), host, port
    )
    if ready is not None:
        ready.port = server.sockets[0].getsockname()[1]
        ready.set()
    try:
        await loop.create_future()  # until cancelled
    finally:
        server.close()
        # a connection accepted just before the close may join the set
        # while the first ones wind down
        while connections:
            tasks = [conn.abort() for conn in list(connections)]
            await asyncio.gather(
                *(t for t in tasks if t is not None), return_exceptions=True
            )
        await server.wait_closed()
