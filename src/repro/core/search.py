"""The web portal's search-bar query language (paper §III-A5, Fig 4).

The deployed system's web interface offers "a search prompt": users
type compact queries instead of SQL. This module defines that small
language and compiles it to the engine's :class:`FindFilters` /
:class:`QuerySpec`, so the portal, the CLI, and scripts share one
parser.

Grammar (whitespace-separated terms, all AND-ed)::

    name:<glob>          entry name matches the glob (* and ? wildcards)
    type:f | type:l      regular files / symlinks only
    size><N[k|m|g|t]     size greater than N (binary units)
    size<<N[k|m|g|t]     size less than N
    user:<uid>           owned by uid
    group:<gid>          group gid
    older:<N>d           mtime older than N days (relative to `now`)
    newer:<N>d           mtime within the last N days
    xattr:<name>         carries an xattr with this name
    tag:<substring>      an accessible xattr value contains substring
    minlevel:<N>         only directories >= N levels below the start
    maxlevel:<N>         only directories <= N levels below the start
                         (the depth window, gufi_query's -y/-z; also
                         stops descent below N)
    <bare word>          shorthand for name:*word*

Examples::

    "*.h5 size>>100m older:90d"       stale large HDF5 files
    "type:f user:1001 tag:exp-001"    my files labelled exp-001
    "size>>1g maxlevel:2"             big files near the project roots

A parsed query also compiles (``to_plan``) to a
:class:`~repro.core.plan.QueryPlan`: size/mtime/uid/gid/type terms are
pushed down as summary-statistics gates and the level terms as the
depth window, so the engine can skip directories that provably cannot
match. name/xattr/tag terms contribute no gate (conservative).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .plan import QueryPlan, plan_for
from .query import QuerySpec
from .sqlfuncs import RPATH_SQL
from .sqltext import quote_literal
from .tools import FindFilters


class SearchSyntaxError(ValueError):
    """The search string does not parse."""


_UNITS = {"": 1, "k": 2**10, "m": 2**20, "g": 2**30, "t": 2**40}

_TERM = re.compile(
    r"^(?:(?P<key>[a-z]+)(?P<op>:|>>|<<)(?P<value>.+)|(?P<bare>[^:<>]+))$"
)


def _glob_to_like(glob: str) -> str:
    """Translate * / ? globs to SQL LIKE patterns, escaping % and _."""
    out = []
    for ch in glob:
        if ch == "*":
            out.append("%")
        elif ch == "?":
            out.append("_")
        elif ch in ("%", "_"):
            out.append("\\" + ch)
        else:
            out.append(ch)
    return "".join(out)


def _parse_size(text: str) -> int:
    m = re.fullmatch(r"(\d+(?:\.\d+)?)([kmgt]?)", text.lower())
    if not m:
        raise SearchSyntaxError(f"bad size {text!r}")
    return int(float(m.group(1)) * _UNITS[m.group(2)])


def _parse_days(text: str) -> int:
    m = re.fullmatch(r"(\d+)d?", text.lower())
    if not m:
        raise SearchSyntaxError(f"bad age {text!r} (use e.g. 90d)")
    return int(m.group(1)) * 86400


@dataclass
class SearchQuery:
    """A parsed search-bar query."""

    filters: FindFilters
    #: substring to match against accessible xattr values (tag:)
    tag_substring: str | None = None
    #: LIKE-escaped name pattern carried for display
    text: str = ""

    @property
    def needs_xattr_values(self) -> bool:
        return self.tag_substring is not None

    def to_spec(self) -> QuerySpec:
        """Compile to the engine's per-directory SQL."""
        where = self.filters.where_clause()
        if self.tag_substring is not None:
            tag = quote_literal(f"%{self.tag_substring}%")
            cond = f"exattrs LIKE {tag}"
            where = (
                f"{where} AND {cond}" if where else f" WHERE {cond}"
            )
            return QuerySpec(
                E=f"SELECT {RPATH_SQL}, type, size, mtime FROM xpentries{where}",
                xattrs=True,
            )
        return QuerySpec(
            E=f"SELECT {RPATH_SQL}, type, size, mtime FROM vrpentries{where}"
        )

    def to_plan(self) -> QueryPlan:
        """Compile the prunable terms to a :class:`QueryPlan`.

        The tag: E query reads ``xpentries`` — still entries-shaped
        (one row per entries row), so the stats gates remain sound."""
        return plan_for(self.filters)


def parse(query: str, now: int | None = None) -> SearchQuery:
    """Parse a search-bar string. ``now`` anchors older:/newer: terms
    (required if either is used)."""
    filters = FindFilters()
    tag: str | None = None
    if not query.strip():
        raise SearchSyntaxError("empty query")
    for raw in query.split():
        m = _TERM.match(raw)
        if not m:
            raise SearchSyntaxError(f"cannot parse term {raw!r}")
        if m.group("bare") is not None:
            pat = _glob_to_like(m.group("bare"))
            if "%" not in pat and "_" not in pat:
                pat = f"%{pat}%"
            filters.name_like = pat
            continue
        key, op, value = m.group("key"), m.group("op"), m.group("value")
        if key == "name" and op == ":":
            filters.name_like = _glob_to_like(value)
        elif key == "type" and op == ":":
            if value not in ("f", "l"):
                raise SearchSyntaxError(f"type must be f or l, not {value!r}")
            filters.ftype = value
        elif key == "size" and op == ">>":
            filters.min_size = _parse_size(value)
        elif key == "size" and op == "<<":
            filters.max_size = _parse_size(value)
        elif key == "user" and op == ":":
            filters.uid = int(value)
        elif key == "group" and op == ":":
            filters.gid = int(value)
        elif key == "older" and op == ":":
            if now is None:
                raise SearchSyntaxError("older: requires a reference time")
            filters.mtime_before = now - _parse_days(value)
        elif key == "newer" and op == ":":
            if now is None:
                raise SearchSyntaxError("newer: requires a reference time")
            filters.mtime_after = now - _parse_days(value)
        elif key == "xattr" and op == ":":
            filters.xattr_name_like = f"%{value}%"
        elif key == "tag" and op == ":":
            tag = value
        elif key == "minlevel" and op == ":":
            if not value.isdigit():
                raise SearchSyntaxError(f"minlevel wants an integer, not {value!r}")
            filters.min_level = int(value)
        elif key == "maxlevel" and op == ":":
            if not value.isdigit():
                raise SearchSyntaxError(f"maxlevel wants an integer, not {value!r}")
            filters.max_level = int(value)
        else:
            raise SearchSyntaxError(f"unknown term {raw!r}")
    return SearchQuery(filters=filters, tag_substring=tag, text=query)
