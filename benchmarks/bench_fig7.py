"""Figure 7 — SSD utilisation versus GUFI thread count.

The query engine's traced read volume is pushed through the paper's
SSD/host throughput models at every thread count, reproducing the
saturation curve (one SSD saturates near 112 threads; two SSDs reach
the ~80-95% band; four SSDs stay host-limited).
"""

from __future__ import annotations

from repro.core.engine import QueryEngine
from repro.core.query import QuerySpec
from repro.harness import fig7
from repro.sim.blktrace import IOTracer

from _bench_helpers import NTHREADS, save_table


def bench_fig7_table(benchmark):
    table = benchmark.pedantic(
        lambda: fig7(scale=0.002), rounds=1, iterations=1
    )
    save_table("fig7", table)
    # render the figure itself (throughput curves per host config)
    from repro.harness.results import ascii_chart
    from _bench_helpers import RESULTS_DIR

    threads = table.column("threads")
    series = {
        label: list(zip(threads, table.column(f"GB/s ({n} SSD)")))
        for n, label in ((1, "1 SSD"), (2, "2 SSD"), (4, "4 SSD"))
    }
    chart = ascii_chart(
        "Fig 7: modelled read bandwidth vs thread count (GB/s)",
        series, logx=True,
    )
    (RESULTS_DIR / "fig7_chart.txt").write_text(chart + "\n")
    print(); print(chart)
    util1 = dict(zip(table.column("threads"), table.column("util% (1 SSD)")))
    util4 = dict(zip(table.column("threads"), table.column("util% (4 SSD)")))
    assert util1[112] > 95  # saturation at ~112 threads (paper Fig 7a)
    assert util4[896] < 60  # host bottleneck with 4 SSDs (paper Fig 7b)


def bench_fig7_traced_scan_query(benchmark, ds2_index):
    """The traced full-touch query Fig 7 drives (``gufi_query -E
    "SELECT uid FROM entries"``) — wall-clock of the real engine."""
    tracer = IOTracer()
    q = QueryEngine(ds2_index.index, nthreads=NTHREADS, tracer=tracer)

    def run():
        tracer.reset()
        return q.run(QuerySpec(E="SELECT uid FROM entries"))

    result = benchmark(run)
    assert result.dirs_visited == ds2_index.dirs_created
    assert tracer.total_bytes > 0
