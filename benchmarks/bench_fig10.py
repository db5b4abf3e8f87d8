"""Figure 10 — GUFI versus Brindexer on the four macro queries.

10a (root): list names / dir sizes / du via summaries / du via
tsummary, on a rolled-up GUFI index with a tree summary versus a
hash-partitioned Brindexer. Paper speedups: 1.5×, 8.2×, 6.3×, 230×.
10b (users): the same queries as unprivileged users — GUFI's cost
shrinks to the accessible subtree, Brindexer still scans everything.
"""

from __future__ import annotations

import pytest

from repro.baselines.brindexer import BrindexerIndex
from repro.core.build import BuildOptions, build_from_stanzas
from repro.core.engine import QueryEngine
from repro.core.query import (
    Q1_LIST_NAMES,
    Q2_DIR_SIZES,
    Q3_DU_SUMMARIES,
    QuerySpec,
)
from repro.core.rollup import rollup
from repro.core.tsummary import build_tsummary
from repro.fs.permissions import Credentials
from repro.harness import fig10

from _bench_helpers import DS2_SCALE, NTHREADS, save_table

N_SHARDS = 64
Q4 = QuerySpec(T="SELECT totsize FROM tsummary WHERE rectype = 0")


def bench_fig10_tables(benchmark):
    def run():
        return fig10(scale=DS2_SCALE, nthreads=NTHREADS,
                     n_shards=N_SHARDS, n_users=8,
                     rollup_fraction=1 / 50)

    table_a, table_b = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("fig10", table_a, table_b)
    speedups = table_a.column("modelled speedup")
    assert speedups[3] == max(speedups)  # tsummary dominates (230x-style)
    assert all(s > 0.4 for s in speedups[:3])  # near-parity at this scale


@pytest.fixture(scope="module")
def systems(ds2_stanzas, tmp_path_factory):
    ns, stanzas = ds2_stanzas
    n_entries = sum(len(s.entries) for s in stanzas)
    groot = tmp_path_factory.mktemp("f10g")
    built = build_from_stanzas(stanzas, groot / "idx",
                               BuildOptions(nthreads=NTHREADS))
    rollup(built.index, limit=max(4, n_entries // 259), nthreads=NTHREADS)
    build_tsummary(built.index, "/")
    broot = tmp_path_factory.mktemp("f10b")
    brin, _ = BrindexerIndex.build(stanzas, broot / "idx", n_shards=N_SHARDS)
    return ns, built.index, brin


def bench_fig10_q1_gufi(benchmark, systems):
    _, gufi, _ = systems
    q = QueryEngine(gufi, nthreads=NTHREADS)
    assert benchmark(lambda: q.run(Q1_LIST_NAMES)).rows


def bench_fig10_q1_brindexer(benchmark, systems):
    _, _, brin = systems
    assert benchmark(lambda: brin.list_names(nthreads=NTHREADS)).rows


def bench_fig10_q2_gufi(benchmark, systems):
    _, gufi, _ = systems
    q = QueryEngine(gufi, nthreads=NTHREADS)
    assert benchmark(lambda: q.run(Q2_DIR_SIZES)).rows


def bench_fig10_q2_brindexer(benchmark, systems):
    _, _, brin = systems
    assert benchmark(lambda: brin.dir_sizes(nthreads=NTHREADS)).rows


def bench_fig10_q3_gufi(benchmark, systems):
    _, gufi, _ = systems
    q = QueryEngine(gufi, nthreads=NTHREADS)
    assert benchmark(lambda: q.run(Q3_DU_SUMMARIES)).rows[-1][0] > 0


def bench_fig10_q4_gufi_tsummary(benchmark, systems):
    """The 230× query: one tsummary row answers du for the tree."""
    _, gufi, _ = systems
    q = QueryEngine(gufi, nthreads=NTHREADS)
    result = benchmark(lambda: q.run(Q4))
    assert result.dirs_visited == 1


def bench_fig10_q4_brindexer(benchmark, systems):
    """Brindexer has no tree summary: query 4 costs a full scan."""
    _, _, brin = systems
    assert benchmark(lambda: brin.du(nthreads=NTHREADS)).rows[0][0] > 0


def bench_fig10_user_q1_gufi(benchmark, systems):
    ns, gufi, _ = systems
    uid = ns.spec.population.uids[0]
    q = QueryEngine(gufi, creds=Credentials(uid=uid, gid=uid),
                  nthreads=NTHREADS)
    result = benchmark(lambda: q.run(Q1_LIST_NAMES))
    assert result.dirs_denied >= 0


def bench_fig10_user_q1_brindexer(benchmark, systems):
    ns, _, brin = systems
    uid = ns.spec.population.uids[0]
    result = benchmark(lambda: brin.list_names(uid=uid, nthreads=NTHREADS))
    assert result.shards_read == N_SHARDS  # always a full scan
