"""Serving-layer benchmark: admission control vs queue collapse.

Drives the full in-process serving stack (auth → QoS rings →
executor → warm sessions) with an **open-loop** arrival process at 4x
the measured service capacity — the regime where a queue either
stays bounded or collapses. The server has no result cache: a hit is
answered on the event loop and never queues, so admission control
bounds executor work, and here every request is a walk on the
executor. Two modes over identical traffic:

* **no_control** — an effectively unbounded admission queue: every
  request is accepted and waits. Arrivals outpace service, the queue
  grows linearly, and tail latency grows with it (queue collapse:
  p99 is dominated by position-in-queue, not service time).
* **admission_control** — the bounded queue: overflow is shed
  immediately with 503 + retry-after. Tail latency stays within a
  small multiple of the median because no admitted request ever
  waits behind more than ``queue_limit`` others.

The report records p50/p95/p99 latency, throughput, and shed rate
for both modes, plus the honest context (cpu count, worker count,
client count, oversubscription factor). The full run asserts the
paper-shaped outcome: controlled p99 <= 5x p50 while the
uncontrolled tail is far worse. ``--smoke`` replays a scaled-down
run without the latency assertions (CI machines are noisy) and
prints a Prometheus dump carrying every ``gufi_serve_*`` series CI
greps for.

Run standalone:  PYTHONPATH=src python benchmarks/bench_serving.py
Smoke (CI):      PYTHONPATH=src python benchmarks/bench_serving.py --smoke
"""

from __future__ import annotations

import asyncio
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_helpers import (
    NTHREADS,
    load_bench_baseline,
    save_bench_report,
)

from repro import obs
from repro.core.build import BuildOptions, dir2index
from repro.core.server import GUFIServer, IdentityProvider
from repro.serve import ASGIClient, GUFIApp

#: executor slots in both modes (the serving capacity under test)
WORKERS = 2
#: open-loop arrival rate as a multiple of measured capacity
OVERSUBSCRIPTION = 4.0
#: requests per mode (full run / --smoke)
N_REQUESTS = 1200
N_SMOKE = 120
#: the acceptance bound: controlled p99 within this multiple of p50
P99_OVER_P50_LIMIT = 5.0
#: closed-loop capacity measurements; the median is the capacity
CAPACITY_SAMPLES = 3


def build_identity() -> IdentityProvider:
    idp = IdentityProvider()
    idp.add_user("root", uid=0, gid=0)
    idp.add_user("alice", uid=1001, gid=1001)
    idp.add_user("bob", uid=1002, gid=1002)
    return idp


def build_bench_index(tmp_root: Path):
    sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
    from conftest import build_demo_tree

    tree = build_demo_tree()
    return dir2index(
        tree, tmp_root / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index


def measure_capacity(server: GUFIServer, n: int = 60) -> float:
    """Closed-loop service rate (requests/s) at full worker
    concurrency — the denominator for the oversubscription factor: the
    median of :data:`CAPACITY_SAMPLES` measurements (one alone read
    83-110 req/s from run to run), their spread printed."""
    samples = sorted(
        _capacity_once(server, n) for _ in range(CAPACITY_SAMPLES)
    )
    capacity = statistics.median(samples)
    print(f"capacity samples {', '.join(f'{c:.1f}' for c in samples)} "
          f"req/s (spread {(samples[-1] - samples[0]) / capacity:.1%})")
    return capacity


def _capacity_once(server: GUFIServer, n: int) -> float:
    """One closed-loop measurement of the service rate."""

    async def scenario(app) -> float:
        client = ASGIClient(app)
        await client.invoke("root", "du")  # warm the session
        t0 = time.monotonic()
        sem = asyncio.Semaphore(WORKERS)

        async def one() -> None:
            async with sem:
                resp = await client.invoke("root", "du")
                assert resp.status == 200
        await asyncio.gather(*(one() for _ in range(n)))
        return n / (time.monotonic() - t0)

    with GUFIApp(
        server, max_inflight=WORKERS, queue_limit=n + WORKERS,
        deadline_s=300.0,
    ) as app:
        return asyncio.run(scenario(app))


async def open_loop(app, rate: float, n: int) -> list[dict]:
    """Fire ``n`` requests at ``rate``/s regardless of completions
    (open loop — arrivals do not slow down when the server does).
    Latency is measured from the *scheduled* arrival instant, so
    queue wait is part of it."""
    client = ASGIClient(app)
    await client.invoke("root", "du")  # warm outside the window
    loop = asyncio.get_running_loop()
    t0 = loop.time()

    async def one(i: int) -> dict:
        due = t0 + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        start = loop.time()
        resp = await client.invoke("root", "du")
        return {"status": resp.status, "latency": loop.time() - start}

    return list(await asyncio.gather(*(one(i) for i in range(n))))


def summarize(samples: list[dict], elapsed: float) -> dict:
    ok = sorted(s["latency"] for s in samples if s["status"] == 200)
    shed = sum(1 for s in samples if s["status"] == 503)
    statuses: dict[str, int] = {}
    for s in samples:
        statuses[str(s["status"])] = statuses.get(str(s["status"]), 0) + 1
    assert ok, "no request succeeded"

    def pct(p: float) -> float:
        return ok[min(len(ok) - 1, int(p * len(ok)))]

    return {
        "n": len(samples),
        "ok": len(ok),
        "shed": shed,
        "shed_rate": shed / len(samples),
        "statuses": statuses,
        "p50_ms": statistics.median(ok) * 1e3,
        "p95_ms": pct(0.95) * 1e3,
        "p99_ms": pct(0.99) * 1e3,
        "max_ms": ok[-1] * 1e3,
        "throughput_rps": len(ok) / elapsed,
    }


def run_mode(server, rate: float, n: int, controlled: bool) -> dict:
    if controlled:
        app_kwargs = {"queue_limit": 2 * WORKERS}
    else:
        # "unbounded": larger than any queue this run can build
        app_kwargs = {"queue_limit": 10 * n}
    with GUFIApp(
        server, max_inflight=WORKERS, deadline_s=300.0, **app_kwargs
    ) as app:
        t0 = time.monotonic()
        samples = asyncio.run(open_loop(app, rate, n))
        result = summarize(samples, time.monotonic() - t0)
    result["queue_limit"] = app_kwargs["queue_limit"]
    return result


def run_serving_bench(index, n: int) -> dict:
    with GUFIServer(index, build_identity(), nthreads=NTHREADS) as server:
        capacity = measure_capacity(server)
        rate = capacity * OVERSUBSCRIPTION
        print(f"capacity {capacity:8.1f} req/s  "
              f"-> open-loop rate {rate:8.1f} req/s (x{OVERSUBSCRIPTION})")
        modes = {}
        for name, controlled in (
            ("no_control", False), ("admission_control", True),
        ):
            modes[name] = run_mode(server, rate, n, controlled)
            m = modes[name]
            print(f"{name:18s} p50 {m['p50_ms']:7.1f}ms  "
                  f"p95 {m['p95_ms']:7.1f}ms  p99 {m['p99_ms']:7.1f}ms  "
                  f"{m['throughput_rps']:7.1f} req/s  "
                  f"shed {m['shed_rate']:5.1%}")
    ctl = modes["admission_control"]
    return {
        "cpus": os.cpu_count(),
        "nthreads": NTHREADS,
        "workers": WORKERS,
        "clients": n,
        "oversubscription": OVERSUBSCRIPTION,
        "capacity_rps": capacity,
        "open_loop_rate_rps": rate,
        "modes": modes,
        "p99_over_p50_controlled": ctl["p99_ms"] / ctl["p50_ms"],
    }


def check_targets(report: dict) -> None:
    ctl = report["modes"]["admission_control"]
    raw = report["modes"]["no_control"]
    # bounded tail: no admitted request waits behind an unbounded queue
    assert report["p99_over_p50_controlled"] <= P99_OVER_P50_LIMIT, (
        f"controlled p99 {ctl['p99_ms']:.1f}ms is "
        f"{report['p99_over_p50_controlled']:.1f}x p50 "
        f"(limit {P99_OVER_P50_LIMIT}x)"
    )
    # queue collapse is real: the uncontrolled tail grows with the
    # backlog and dwarfs the controlled one
    assert raw["p99_ms"] > 2 * ctl["p99_ms"], (
        f"no_control p99 {raw['p99_ms']:.1f}ms did not collapse vs "
        f"controlled {ctl['p99_ms']:.1f}ms"
    )
    # the controlled mode actually shed (it was oversubscribed) and
    # the uncontrolled mode accepted everything
    assert ctl["shed_rate"] > 0.05, "admission control never shed"
    assert raw["shed"] == 0, "the 'unbounded' queue shed requests"


def prometheus_dump(index) -> str:
    """Deterministic traffic exercising every ``gufi_serve_*`` series,
    returned as Prometheus text (CI greps the names)."""
    from repro.obs.export import to_prometheus

    async def traffic() -> None:
        with GUFIServer(
            index, build_identity(), nthreads=NTHREADS
        ) as server:
            # success + request_seconds + queue_depth
            with GUFIApp(server, max_inflight=2, queue_limit=4) as app:
                client = ASGIClient(app)
                assert (await client.invoke("root", "du")).status == 200
                # rejected{auth}
                assert (await client.invoke("ghost", "du")).status == 401
                # timeouts_total: a sub-millisecond deadline expires
                # while the walk is underway (retry the race away)
                for _ in range(50):
                    resp = await client.invoke(
                        "root", "du", deadline_ms=0.2
                    )
                    if resp.status == 504:
                        break
                else:
                    raise AssertionError("deadline never tripped")
            # rejected{rate_limit}
            with GUFIApp(
                server, max_inflight=2, queue_limit=4,
                tenant_qps=1.0, tenant_burst=1.0,
            ) as app:
                client = ASGIClient(app)
                statuses = {
                    (await client.invoke("alice", "du")).status
                    for _ in range(3)
                }
                assert 429 in statuses
            # shed_total{queue_full}
            with GUFIApp(server, max_inflight=1, queue_limit=0) as app:
                client = ASGIClient(app)
                results = await asyncio.gather(
                    *(client.invoke("root", "du") for _ in range(4))
                )
                assert 503 in {r.status for r in results}
        # replies_total{on}: a miss crosses to the executor, and its
        # repeat is answered on the loop
        with GUFIServer(
            index, build_identity(), nthreads=NTHREADS, result_cache_mb=8.0
        ) as server, GUFIApp(server, max_inflight=2, queue_limit=4) as app:
            client = ASGIClient(app)
            for _ in range(2):
                assert (await client.invoke("root", "du")).status == 200

    with obs.enabled(metrics=True):
        asyncio.run(traffic())
        text = to_prometheus(obs.snapshot())
    for metric in (
        "gufi_serve_requests_total",
        "gufi_serve_rejected_total",
        "gufi_serve_shed_total",
        "gufi_serve_timeouts_total",
        "gufi_serve_queue_depth",
        "gufi_serve_request_seconds",
        "gufi_serve_replies_total",
    ):
        assert metric in text, f"missing metric: {metric}"
    return text


def save_report(report: dict) -> Path:
    return save_bench_report("serving", report)


def bench_serving(tmp_path_factory):
    """pytest entry point (collected by the bench_* convention)."""
    index = build_bench_index(tmp_path_factory.mktemp("serving"))
    report = run_serving_bench(index, N_REQUESTS)
    print(f"saved {save_report(report)}")
    check_targets(report)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down run without the latency assertions (CI "
        "machines are noisy); verifies the recorded BENCH_serving.json "
        "exists and prints the Prometheus dump CI greps",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="gufi_serving_") as td:
        index = build_bench_index(Path(td))
        if args.smoke:
            baseline = load_bench_baseline("serving")
            assert baseline is not None, "no recorded BENCH_serving.json"
            report = run_serving_bench(index, N_SMOKE)
            # structural sanity only: oversubscription really shed,
            # the unbounded queue really accepted everything
            assert report["modes"]["admission_control"]["shed"] > 0
            assert report["modes"]["no_control"]["shed"] == 0
            print(prometheus_dump(index))
            print("smoke ok: serving stack + metric names intact",
                  file=sys.stderr)
        else:
            report = run_serving_bench(index, N_REQUESTS)
            check_targets(report)
            print(f"saved {save_report(report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
