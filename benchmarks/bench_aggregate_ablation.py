"""Ablation — per-thread result databases versus a single shared one.

§III-C2: "per-directory results are written to per-thread in-memory
databases to avoid contention resulting from multiple threads
inserting into a single database." This bench quantifies that design
choice by running the same aggregation both ways:

* engine path: per-thread result DBs + J-merge (the GUFI design);
* contended path: every worker inserts into one shared SQLite
  connection guarded by a lock (what the design avoids).
"""

from __future__ import annotations

import sqlite3
import threading

from repro.core.engine import QueryEngine
from repro.core.query import QuerySpec
from repro.scan.walker import ParallelTreeWalker
from repro.store import connect

from _bench_helpers import NTHREADS, save_table
from repro.harness.results import ResultTable

AGG_SPEC = QuerySpec(
    I="CREATE TABLE usage (uid INTEGER, bytes INTEGER)",
    E="INSERT INTO usage SELECT uid, TOTAL(size) FROM pentries GROUP BY uid",
    J="INSERT INTO aggregate.usage SELECT uid, TOTAL(bytes) FROM usage "
      "GROUP BY uid",
    G="SELECT uid, TOTAL(bytes) FROM usage GROUP BY uid",
)


def shared_db_aggregate(index, nthreads: int) -> dict[int, float]:
    """The contended alternative: one shared result DB, one big lock."""
    shared = sqlite3.connect(":memory:", check_same_thread=False)
    shared.execute("CREATE TABLE usage (uid INTEGER, bytes REAL)")
    lock = threading.Lock()

    def expand(source_path: str) -> list[str]:
        db_path = index.db_path(source_path)
        if not db_path.exists():
            return []
        conn = connect.open_ro(db_path)
        try:
            rows = conn.execute(
                "SELECT uid, TOTAL(size) FROM pentries GROUP BY uid"
            ).fetchall()
        finally:
            conn.close()
        with lock:  # the contention the GUFI design avoids
            shared.executemany("INSERT INTO usage VALUES (?,?)", rows)
        prefix = "" if source_path == "/" else source_path
        return [f"{prefix}/{n}" for n in index.subdir_names(source_path)]

    ParallelTreeWalker(nthreads).walk(["/"], expand)
    out = dict(
        shared.execute("SELECT uid, TOTAL(bytes) FROM usage GROUP BY uid")
    )
    shared.close()
    return out


def bench_aggregate_per_thread_dbs(benchmark, ds2_index):
    """The engine's per-thread-DB + merge design."""
    q = QueryEngine(ds2_index.index, nthreads=NTHREADS)
    result = benchmark(lambda: q.run(AGG_SPEC))
    assert result.rows


def bench_aggregate_shared_db(benchmark, ds2_index):
    """The contended single-shared-DB alternative; results must agree
    with the engine's."""
    got = benchmark(lambda: shared_db_aggregate(ds2_index.index, NTHREADS))
    q = QueryEngine(ds2_index.index, nthreads=NTHREADS)
    engine = {int(u): b for u, b in q.run(AGG_SPEC).rows}
    assert {int(u): round(b) for u, b in got.items()} == {
        u: round(b) for u, b in engine.items()
    }
    table = ResultTable(
        title="Aggregation ablation: per-user byte totals agree",
        columns=["uids", "total bytes"],
    )
    table.add(len(engine), sum(engine.values()))
    save_table("aggregate_ablation", table)
