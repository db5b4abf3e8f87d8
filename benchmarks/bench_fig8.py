"""Figure 8 — rollup-limit tradeoffs.

8a: rollup time and simple-query time per rollup limit (NONE … MAX);
8b: visible database count and bytes/entry, with Brindexer reference;
8c: per-thread completion times (effective concurrency).

Expected shapes: NONE has the slowest query (most fixed overhead to
read); a moderate limit minimises query time; bytes/entry falls with
the limit; MAX's completion profile is tail-dominated by one large
database while Brindexer's shards are imbalanced by large directories.
"""

from __future__ import annotations

from repro.core.build import BuildOptions, build_from_stanzas
from repro.core.engine import QueryEngine
from repro.core.query import QuerySpec
from repro.core.rollup import rollup
from repro.harness import fig8
from repro.harness.results import ResultTable

from _bench_helpers import DS2_SCALE, NTHREADS, save_table

SIMPLE_QUERY = QuerySpec(
    S="SELECT uid FROM summary", E="SELECT uid FROM pentries"
)


def bench_fig8_sweep(benchmark):
    def run():
        return fig8(scale=DS2_SCALE, nthreads=NTHREADS, n_shards=64)

    table, fig8c, completions = benchmark.pedantic(run, rounds=1, iterations=1)
    # render the 8c completion series the paper plots
    series = ResultTable(
        title="Fig 8c: thread completion offsets (s)",
        columns=["config", "completions"],
    )
    for label, times in completions.items():
        series.add(label, " ".join(f"{t:.2f}" for t in times))
    save_table("fig8", table, fig8c, series)
    from repro.harness.results import ascii_chart
    from _bench_helpers import RESULTS_DIR

    chart = ascii_chart(
        "Fig 8c: per-thread completion offsets (s)",
        {
            label: list(enumerate(times))
            for label, times in completions.items()
        },
    )
    (RESULTS_DIR / "fig8c_chart.txt").write_text(chart + "\n")
    print(); print(chart)
    q = dict(zip(table.column("config"), table.column("query (s)")))
    assert q["MAX"] < q["NONE"]  # rollup pays off on this workload


def bench_fig8_rollup_process(benchmark, ds2_stanzas, tmp_path_factory):
    """The rollup process itself at the sweet-spot limit (Fig 8a's
    367-485 s band at paper scale)."""
    _, stanzas = ds2_stanzas
    n_entries = sum(len(s.entries) for s in stanzas)
    counter = [0]

    def build_and_roll():
        counter[0] += 1
        root = tmp_path_factory.mktemp(f"f8roll{counter[0]}")
        built = build_from_stanzas(stanzas, root / "idx",
                                   BuildOptions(nthreads=NTHREADS))
        return rollup(built.index, limit=max(4, n_entries // 259),
                      nthreads=NTHREADS)

    stats = benchmark.pedantic(build_and_roll, rounds=2, iterations=1)
    assert stats.rolled > 0


def bench_fig8_query_nonrolled(benchmark, ds2_index):
    """The Fig 8a simple query on the NONE (un-rolled) index."""
    q = QueryEngine(ds2_index.index, nthreads=NTHREADS)
    result = benchmark(lambda: q.run(SIMPLE_QUERY))
    assert len(result.rows) > 0


def bench_fig8_query_rolled(benchmark, ds2_stanzas, tmp_path_factory):
    """The same query on a sweet-spot-rolled index — must beat NONE."""
    _, stanzas = ds2_stanzas
    n_entries = sum(len(s.entries) for s in stanzas)
    root = tmp_path_factory.mktemp("f8rolled")
    built = build_from_stanzas(stanzas, root / "idx",
                               BuildOptions(nthreads=NTHREADS))
    rollup(built.index, limit=max(4, n_entries // 259), nthreads=NTHREADS)
    q = QueryEngine(built.index, nthreads=NTHREADS)
    result = benchmark(lambda: q.run(SIMPLE_QUERY))
    assert len(result.rows) > 0
