"""Opaque, tenant-bound resumption cursors.

A tenant paging a 100k-row result must not hold server-side session
state between requests (any instance behind a balancer must be able
to serve page N+1), so the cursor *is* the state: a base64 envelope
of the canonical-JSON payload plus a truncated HMAC-SHA256 tag keyed
by the app's secret. The payload names the query (tool, start,
canonical args), the paging position (page index, page size), the
issuing tenant, and the digest of the full row set the cursor was
cut against.

Three properties fall out:

* **opaque** — clients cannot mint or modify cursors (the tag covers
  the whole payload); a tampered or truncated token fails
  :func:`decode_cursor` with :class:`CursorError`, never a crash;
* **tenant-bound** — the authenticated caller must match the
  payload's tenant; a cursor replayed by (or leaked to) another
  tenant is invalid *before* any query runs, and the query itself
  would re-run under the thief's own credentials anyway;
* **staleness-proof** — the serving layer re-derives the row digest
  on every page request (cheap: the materialized
  :class:`~repro.core.engine.ResultCache` replays the run) and
  compares it to the payload's; an index change between pages flips
  the digest and the cursor expires (:class:`CursorExpired`) instead
  of silently serving rows that shifted under the client.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import hmac
import json
from typing import Any

from .codec import canonical_json

#: bytes of the HMAC-SHA256 tag kept in the token (128-bit tags are
#: ample for a non-bearer, per-process-secret credential)
_TAG_LEN = 16


class CursorError(Exception):
    """Malformed, forged, or foreign-tenant cursor."""


class CursorExpired(CursorError):
    """The result set changed since the cursor was issued; the client
    must restart from page 0."""


def encode_cursor(secret: bytes, payload: dict[str, Any]) -> str:
    """Sign ``payload`` into an opaque URL-safe token."""
    body = canonical_json(payload).encode("utf-8")
    tag = hmac.new(secret, body, hashlib.sha256).digest()[:_TAG_LEN]
    return _b64(body) + "." + _b64(tag)


def _b64(raw: bytes) -> str:
    """One part of a token: URL-safe base64, unpadded."""
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")


def _unb64(text: str) -> bytes:
    """The bytes of one part, decoded strictly: a character outside
    the URL-safe alphabet, padding, or any text :func:`_b64` would not
    write for these bytes is a ``ValueError`` — a cursor has exactly
    one spelling."""
    pad = "=" * (-len(text) % 4)
    raw = base64.b64decode(text + pad, altchars=b"-_", validate=True)
    if _b64(raw) != text:
        raise ValueError("not a canonical cursor part")
    return raw


def decode_cursor(secret: bytes, token: str) -> dict[str, Any]:
    """Verify and decode a token; :class:`CursorError` on anything
    that is not a tag-valid cursor minted with ``secret``."""
    try:
        body_b64, tag_b64 = token.split(".", 1)
        body = _unb64(body_b64)
        tag = _unb64(tag_b64)
    except (ValueError, binascii.Error) as exc:
        raise CursorError("malformed cursor") from exc
    want = hmac.new(secret, body, hashlib.sha256).digest()[:_TAG_LEN]
    if not hmac.compare_digest(tag, want):
        raise CursorError("cursor signature mismatch")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CursorError("malformed cursor payload") from exc
    if not isinstance(payload, dict):
        raise CursorError("malformed cursor payload")
    return payload
