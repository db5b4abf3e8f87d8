#!/usr/bin/env python3
"""End-to-end benchmark runner.

    python3 benchmarks/e2e/run.py --workload <name> [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke]

Prints every metric by name with its unit, checks the program's outputs,
and prints as the last line of standard output one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Exits
non-zero when an operation failed or an output was wrong.

``--trace 0`` (the default) reports the end-to-end metrics, measured
with no tracing code loaded. ``--trace 1`` reports the per-layer
metrics: the workload runs again with the benchmark's own spans around
each layer's public entry points (every other unit, so the overhead of
tracing is measured in the same run), then the layer probes run.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

import common

common.bootstrap()

import catalog  # noqa: E402 - needs bootstrap()'s sys.path
import harness  # noqa: E402
import report  # noqa: E402
from spans import TRACER  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=catalog.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                   help="length of the timed region")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1),
                   help="1: record spans and report the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="tiny namespace, two units: correctness only")
    return p.parse_args(argv)


def per_layer(args, ctx, work, measured: dict, detail: dict):
    """The per-layer values of a traced run and why any is missing: the
    span budget of the workload that just ran, what the run says about
    its own measurement, and the layer probes."""
    import probes

    server_spans = []
    if "server_spans_file" in measured:
        # perf_counter is CLOCK_MONOTONIC, shared by both processes:
        # keep what the server did for the traced segments, not for the
        # warm-up before them
        since = measured["traced_since"]
        server_spans = [
            s for s in report.load_spans(
                measured["server_spans_file"]).get("server", [])
            if s[report.START] >= since
        ]
    budget = report.budget(
        TRACER.spans, server_spans,
        wall_s=measured.get("traced_wall_s"),
        units=measured.get("traced_units"),
    )
    values, reasons = probes.run_all(ctx, work)
    detail["probe_seconds"] = values.pop("_probe_seconds")
    values.update(report.budget_metrics(budget))
    values.update(measured["bench"])
    report.print_budget(budget, args.workload)
    detail["spans_written"] = report.dump_spans(
        args.workload, args.seed, server_spans
    )
    detail["spans_not_installed"] = TRACER.missing
    return values, reasons


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    common.pin_to_one_cpu()
    with common.workdir() as work:
        ctx = harness.Ctx(
            workload=args.workload, work=work, seed=args.seed,
            seconds=args.seconds, trace=bool(args.trace), smoke=args.smoke,
            scale=common.SMOKE_SCALE if args.smoke else common.SCALE,
        )
        if ctx.trace:
            TRACER.install()
        measured = importlib.import_module(f"wl_{args.workload}").run(ctx)
        detail = measured["detail"]
        reasons = {}
        if ctx.trace:
            values, reasons = per_layer(args, ctx, work, measured, detail)
            metrics = catalog.render(catalog.PER_LAYER, values)
        else:
            measured["setup_s"] = ctx.setup_s
            detail.update(measured["bench"])
            metrics = catalog.render(catalog.END_TO_END, measured)
    result = {
        "correct": ctx.check.correct,
        "attempted": ctx.check.attempted,
        "failed": ctx.check.failed,
        "metrics": metrics,
    }
    report.print_metrics(args, metrics, detail, ctx.check, reasons)
    report.append_trajectory(
        args, result, detail, wall_s=time.perf_counter() - t_start
    )
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if ctx.check.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
