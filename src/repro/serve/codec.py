"""JSON codecs for the serving layer.

The engine's rows are tuples of whatever SQLite produced — ints,
floats, text, ``None``, and occasionally ``bytes`` (xattr blobs).
:func:`dumps` writes them with :func:`json.dumps` as they are: tuples
become arrays and int dict keys strings (``space_by_user`` returns
``dict[int, int]``) without help, and the :func:`_default` hook maps
only what JSON has no type for — ``bytes`` through a tagged base64
envelope (``{"__bytes__": "<b64>"}``) instead of guessing an encoding,
sets to sorted arrays, anything else to its ``str()``. No value is
rebuilt before the encode.

:func:`canonical_json` is the *stable* serialization (sorted keys,
no whitespace) that cursor payloads and the row digest are built
from: two equal values must serialize to the same bytes or cursor
validation would produce false expiries.

:func:`jsonable` is the same mapping as a value walk (a JSON-shaped
copy of ``obj``), for callers that want the structure rather than the
text; the app encodes without it.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any


def _default(obj: Any) -> Any:
    """:func:`json.dumps` hook: what JSON has no type for."""
    if isinstance(obj, bytes):
        return {"__bytes__": base64.b64encode(obj).decode("ascii")}
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    # last resort: the repr is at least stable for simple value types
    return str(obj)


def dumps(obj: Any) -> str:
    """JSON text of ``obj``: what ``json.dumps(jsonable(obj))`` writes,
    in one encode."""
    return json.dumps(obj, default=_default)


def jsonable(obj: Any) -> Any:
    """``obj`` converted to JSON-representable types, recursively."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return _default(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    return str(obj)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of ``obj`` (sorted keys, compact)."""
    return json.dumps(
        obj, default=_default, sort_keys=True, separators=(",", ":")
    )


def rows_digest(rows: list[tuple]) -> str:
    """A short stable digest of a full result row set: SHA-256 of its
    :func:`canonical_json`, one encode of the whole list.

    Cursors carry it so a replayed page request can prove the result
    it is paging is byte-identical to the one the cursor was issued
    against — any index change between pages flips the digest and the
    cursor expires cleanly instead of serving stale (or shifted)
    rows."""
    return hashlib.sha256(
        canonical_json(rows).encode("utf-8")
    ).hexdigest()[:32]
