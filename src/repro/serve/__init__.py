"""The asyncio serving layer: GUFI as a multi-tenant service.

The paper's access model is "ssh to the server and run a tool"
(§III-A5's web portal is a thin wrapper over the same synchronous
calls). :class:`~repro.core.server.GUFIServer` reproduces that model
and stays the one synchronous core — authentication, the tool table,
dispatch over its one warm thread-state pool, audit; this package is
a transport over it, adding the *service* shape a production
deployment needs:

* :mod:`repro.serve.app` — :class:`GUFIApp`, a stdlib-only HTTP
  application with one entry, :meth:`GUFIApp.attempt`: authenticates via
  :class:`~repro.core.server.IdentityProvider`, hands each tool call
  to :meth:`~repro.core.server.GUFIServer.invoke` — on the event loop
  for a result-cache hit the write clock vouches for, else on a
  bounded worker-thread executor (row tools into the server's
  :meth:`~repro.core.server.GUFIServer.response_sink`) — returns JSON;
* :mod:`repro.serve.qos` — the QoS machinery: per-tenant token-bucket
  rate limits (:class:`TokenBucket`), per-tenant concurrency quotas
  (:class:`TenantQuota`), and global admission control with a bounded
  wait queue and load shedding (:class:`AdmissionController`);
* :mod:`repro.serve.cursors` — opaque HMAC-signed resumption cursors
  for cross-request result paging (tenant-bound, staleness-proof);
* :mod:`repro.serve.codec` — JSON-safe row/result encoding and the
  canonical row digest cursors validate against;
* :mod:`repro.serve.http` — a minimal asyncio HTTP/1.1 bridge so the
  app serves real sockets without any third-party server;
* :mod:`repro.serve.client` — an in-process client (tests and
  benchmarks drive the full request path without sockets).

The bridge and the in-process client reach the app the same way, by
``attempt(method, path, headers, body)``, so a request runs the same
app code on either.

Deadlines are *enforced*, not just observed: each request carries a
:class:`~repro.core.engine.CancelToken` threaded through the engine's
traversal loop, so a query past its deadline stops walking the tree
within one directory instead of finishing late (the missing piece
that turns :class:`~repro.obs.slowlog.SlowQueryLog` thresholds into
policy).

Serving metrics (the ``gufi_serve_*`` series, exported at
``/metrics`` in Prometheus text): ``gufi_serve_requests_total``,
``gufi_serve_rejected_total``, ``gufi_serve_shed_total``,
``gufi_serve_timeouts_total``, ``gufi_serve_queue_depth``,
``gufi_serve_request_seconds``, ``gufi_serve_replies_total{on}``.
"""

from .app import GUFIApp
from .client import ASGIClient, ClientResponse
from .codec import canonical_json, dumps, jsonable, rows_digest
from .cursors import CursorError, CursorExpired, decode_cursor, encode_cursor
from .http import serve
from .qos import (
    AdmissionController,
    LoadShed,
    QuotaExceeded,
    TenantQuota,
    TokenBucket,
)

__all__ = [
    "ASGIClient",
    "AdmissionController",
    "ClientResponse",
    "CursorError",
    "CursorExpired",
    "GUFIApp",
    "LoadShed",
    "QuotaExceeded",
    "TenantQuota",
    "TokenBucket",
    "canonical_json",
    "decode_cursor",
    "dumps",
    "encode_cursor",
    "jsonable",
    "rows_digest",
    "serve",
]
