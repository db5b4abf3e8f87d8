"""Ablation — per-user/per-group summary records (§III-B).

"Both summary and tsummary tables can have overall, per-user, and
per-group records thus making per-user or per-group summary queries
extremely efficient." This bench quantifies the claim: per-user space
usage computed three ways —

* from per-user ``summary`` records (rectype=1): one small row per
  (directory, user);
* from ``pentries`` with a GROUP BY: touches every entry row;
* from a per-user ``tsummary`` record: a single row at the root.
"""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, build_from_stanzas
from repro.core.engine import QueryEngine
from repro.core.query import QuerySpec
from repro.core.tsummary import build_tsummary

from _bench_helpers import NTHREADS, save_table
from repro.harness.results import ResultTable

BY_SUMMARY = QuerySpec(
    I="CREATE TABLE usage (uid INTEGER, bytes INTEGER)",
    S="INSERT INTO usage SELECT uid, totsize FROM summary WHERE rectype = 1",
    J="INSERT INTO aggregate.usage SELECT uid, TOTAL(bytes) FROM usage "
      "GROUP BY uid",
    G="SELECT uid, TOTAL(bytes) FROM usage GROUP BY uid",
)

BY_ENTRIES = QuerySpec(
    I="CREATE TABLE usage (uid INTEGER, bytes INTEGER)",
    E="INSERT INTO usage SELECT uid, TOTAL(size) FROM pentries GROUP BY uid",
    J="INSERT INTO aggregate.usage SELECT uid, TOTAL(bytes) FROM usage "
      "GROUP BY uid",
    G="SELECT uid, TOTAL(bytes) FROM usage GROUP BY uid",
)

BY_TSUMMARY = QuerySpec(
    T="SELECT uid, totsize FROM tsummary WHERE rectype = 1"
)


@pytest.fixture(scope="module")
def pug_index(ds2_stanzas, tmp_path_factory):
    """Index built WITH per-user/per-group summary records."""
    _, stanzas = ds2_stanzas
    root = tmp_path_factory.mktemp("pugidx")
    built = build_from_stanzas(
        stanzas, root / "idx",
        BuildOptions(nthreads=NTHREADS, per_user_group_summaries=True),
    )
    build_tsummary(built.index, "/")
    return built.index


def _usage(index, spec):
    rows = QueryEngine(index, nthreads=NTHREADS).run(spec).rows
    return {int(u): int(b or 0) for u, b in rows}


def bench_per_user_via_summary_records(benchmark, pug_index):
    usage = benchmark(lambda: _usage(pug_index, BY_SUMMARY))
    assert usage


def bench_per_user_via_entries_groupby(benchmark, pug_index):
    usage = benchmark(lambda: _usage(pug_index, BY_ENTRIES))
    # all three methods must agree (cross-checked here once)
    assert usage == _usage(pug_index, BY_SUMMARY)
    table = ResultTable(
        title="Per-user usage agreement across methods",
        columns=["method", "users", "total bytes"],
    )
    for name, u in (
        ("summary rectype=1", _usage(pug_index, BY_SUMMARY)),
        ("pentries GROUP BY", usage),
        ("tsummary rectype=1", _usage(pug_index, BY_TSUMMARY)),
    ):
        table.add(name, len(u), sum(u.values()))
    save_table("summary_ablation", table)


def bench_per_user_via_tsummary(benchmark, pug_index):
    """One database read answers per-user usage for the whole tree."""
    result = benchmark(
        lambda: QueryEngine(pug_index, nthreads=NTHREADS).run(BY_TSUMMARY)
    )
    assert result.dirs_visited == 1
