"""Layer 3 — result sinks: where a query's rows go.

The engine never decides what to do with rows; it hands them to a
:class:`ResultSink`. Worker threads emit per-directory row batches
(``emit``), the merge phase emits the final ``G``-stage rows once
(``emit_final``), and the engine collects the sink's summary at the
end (``finish``). This is the seam that lets one query path serve a
library caller (in-memory rows), a bulk export (per-thread files, the
real tool's ``-o``), and a web server that must cap and page its
responses — without forking the engine per consumer.

Concurrency contract: ``emit`` is called by walker threads, at most
once per directory *that produced rows* (plan-pruned and denied
directories never reach the sink), with the directory's source path —
or ``None`` for rows no walk of this process produced (a result-cache
replay, a scatter gather). Sinks own what they write: nothing of a
sink lives on the engine's pooled thread states, so a state carries no
file handle or row buffer from one run to the next. A sink's shared
state is touched once per *batch*, never per row (a lock, or one
``list.extend``, atomic under the GIL), so the lock-free
per-directory hot path is preserved for the common case of
directories that emit nothing.

A sink instance serves **one** run. Reusing one across runs is not
supported (the engine raises); create a fresh sink per call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TextIO

#: a row as the engine produces it
Row = tuple


@dataclass
class SinkSummary:
    """What a sink hands back to the engine at the end of a run."""

    #: rows to expose on ``QueryResult.rows`` (may be empty for
    #: streaming sinks whose rows went elsewhere)
    rows: list[Row]
    #: True when the sink dropped rows to honour a cap
    truncated: bool = False
    #: the files the rows were written to (``QueryResult.output_files``)
    files: list[str] | None = None


class ResultSink:
    """Protocol/base class for result sinks.

    Subclasses override the methods they care about; the defaults
    describe a sink that ignores everything (useful for counting-only
    queries).
    """

    _consumed: bool = False

    def _claim(self) -> None:
        """Engine-internal: mark this sink as used by a run."""
        if self._consumed:
            raise RuntimeError(
                "a ResultSink instance serves exactly one run; "
                "create a fresh sink per query"
            )
        self._consumed = True

    def emit(self, path: str | None, rows: list[Row]) -> None:
        """Absorb one directory's SELECT rows (worker thread)."""

    def emit_final(self, rows: list[Row]) -> None:
        """Absorb the ``G``-stage rows (engine thread, once)."""

    def finish(self) -> SinkSummary:
        """Summarise the run. Called once, after the walk and merge —
        and on every path out of a failed run too, so a sink holding
        resources releases them."""
        return SinkSummary(rows=[])


class MemorySink(ResultSink):
    """The default: rows accumulate in memory, one batch at a time.

    Per-directory batches land in one list in arrival order, then the
    ``G`` rows. With one thread that is the walk's order; between
    several threads the interleaving is whichever finished a directory
    first, and never was defined — compare row multisets."""

    def __init__(self) -> None:
        self._rows: list[Row] = []

    def emit(self, path: str | None, rows: list[Row]) -> None:
        self._rows.extend(rows)

    def emit_final(self, rows: list[Row]) -> None:
        self._rows.extend(rows)

    def finish(self) -> SinkSummary:
        return SinkSummary(rows=self._rows)


class ThreadFileSink(ResultSink):
    """Stream rows to per-thread files ``<prefix>.<n>`` — the real
    ``gufi_query -o``, for result sets too large to hold.

    A thread's first batch opens (truncating) the next file, numbered
    in first-batch order; each batch is one write, tab-separated, one
    row per line. ``finish`` closes every file, and a run that emitted
    nothing still leaves an empty ``<prefix>.0``. ``G``-stage rows
    still come back in memory, matching the monolith: the merge phase
    is a reduction, so its output is small by construction."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._final: list[Row] = []
        #: thread ident -> its open file, and every path opened in order
        self._files: dict[int, TextIO] = {}
        self._paths: list[str] = []
        self._lock = threading.Lock()

    def _open_next(self) -> TextIO:
        with self._lock:
            path = f"{self.prefix}.{len(self._paths)}"
            out = open(path, "w", encoding="utf-8")
            self._paths.append(path)
        return out

    def emit(self, path: str | None, rows: list[Row]) -> None:
        tid = threading.get_ident()
        out = self._files.get(tid)
        if out is None:
            out = self._files[tid] = self._open_next()
        out.write(
            "".join(
                "\t".join("" if v is None else str(v) for v in row) + "\n"
                for row in rows
            )
        )

    def emit_final(self, rows: list[Row]) -> None:
        self._final.extend(rows)

    def finish(self) -> SinkSummary:
        if not self._paths:
            self._open_next().close()
        for out in self._files.values():
            out.close()
        return SinkSummary(rows=list(self._final), files=list(self._paths))


class BoundedSink(ResultSink):
    """Cap the result at ``max_rows``; surplus rows are counted, not
    kept. The server threads its response cap through this sink so a
    runaway query cannot materialise an unbounded row list.

    Row order is arrival order, as :class:`MemorySink`'s; the lock is
    taken once per emitted batch."""

    def __init__(self, max_rows: int) -> None:
        if max_rows < 0:
            raise ValueError("max_rows must be >= 0")
        self.max_rows = max_rows
        self.dropped = 0
        self._rows: list[Row] = []
        self._lock = threading.Lock()

    def _absorb(self, rows: list[Row]) -> None:
        with self._lock:
            room = self.max_rows - len(self._rows)
            if room >= len(rows):
                self._rows.extend(rows)
            else:
                if room > 0:
                    self._rows.extend(rows[:room])
                self.dropped += len(rows) - max(room, 0)

    def emit(self, path: str | None, rows: list[Row]) -> None:
        self._absorb(rows)

    def emit_final(self, rows: list[Row]) -> None:
        self._absorb(rows)

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def finish(self) -> SinkSummary:
        return SinkSummary(rows=self._rows, truncated=self.truncated)


class PaginatedSink(BoundedSink):
    """A bounded sink whose kept rows are served in fixed-size pages —
    the server's streamable response shape: collect at most
    ``page_size * max_pages`` rows, then hand out one page at a time.

    ``finish`` exposes every kept row (so ``QueryResult.rows`` still
    works for library callers); ``page(n)``/``num_pages`` are for the
    serving layer. The cap is ``page_size * max_pages`` unless an
    exact ``max_rows`` is given (for caps that are not a whole number
    of pages — the last page is then short)."""

    def __init__(
        self,
        page_size: int,
        max_pages: int | None = None,
        max_rows: int | None = None,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be > 0")
        if max_rows is not None:
            cap = max_rows
        elif max_pages is not None:
            cap = page_size * max_pages
        else:
            cap = 2**63 - 1
        super().__init__(cap)
        self.page_size = page_size

    @property
    def num_pages(self) -> int:
        with self._lock:
            n = len(self._rows)
        return (n + self.page_size - 1) // self.page_size

    def page(self, number: int) -> list[Row]:
        """Rows of zero-based page ``number`` (empty past the end)."""
        if number < 0:
            raise ValueError("page number must be >= 0")
        lo = number * self.page_size
        with self._lock:
            return list(self._rows[lo : lo + self.page_size])
