"""Reporting: the per-workload time budget from the spans, the metric
table, and the run trajectory.

Every run appends one JSON line to ``results/trajectory.jsonl`` (never
overwritten, no copy at the repository root); README.md "Comparing two
commits" says how to read two commits' lines against each other.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"
TRAJECTORY = RESULTS / "trajectory.jsonl"

#: a span is ``(id, parent, name, start, end, thread, unit)``
ID, PARENT, NAME, START, END, UNIT = 0, 1, 2, 3, 4, 6


# ----------------------------------------------------------------------
# Budget: who had the clock
# ----------------------------------------------------------------------
def attribute(spans: list[tuple]) -> dict[str, list[float]]:
    """Wall-clock attribution: ``{span name: [calls, seconds]}``.

    A span's self time is its duration minus the part of that interval
    its children cover. Children may overlap (worker threads): an
    instant covered by *k* children is split equally between them, so
    the attributed seconds of a tree of spans sum to the duration of its
    root — a budget along the blocking path, not thread-seconds."""
    by_id = {s[ID]: s for s in spans}
    children: dict[int, list[tuple]] = defaultdict(list)
    roots = []
    for s in spans:
        if s[PARENT] in by_id:
            children[s[PARENT]].append(s)
        else:
            roots.append(s)
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    stack = [(r, [(r[START], r[END], 1.0)]) for r in roots]
    while stack:
        span, segs = stack.pop()
        acc = out[span[NAME]]
        acc[0] += 1
        kids = children.get(span[ID])
        if not kids:
            acc[1] += sum((b - a) * w for a, b, w in segs)
            continue
        events = []
        for k in kids:
            a, b = max(k[START], span[START]), min(k[END], span[END])
            if b > a:
                events.append((a, 1, k[ID]))
                events.append((b, 0, k[ID]))
        for a, b, w in segs:
            events.append((a, 3, w))
            events.append((b, 2, 0.0))
        events.sort()
        given: dict[int, list] = defaultdict(list)
        active: dict[int, None] = {}
        weight = 0.0
        last = events[0][0]
        for t, kind, x in events:
            if t > last and weight > 0.0:
                if active:
                    share = weight / len(active)
                    for kid in active:
                        given[kid].append((last, t, share))
                else:
                    acc[1] += (t - last) * weight
            last = t
            if kind == 1:
                active[x] = None
            elif kind == 0:
                active.pop(x, None)
            elif kind == 3:
                weight = x
            else:
                weight = 0.0
        for k in kids:
            stack.append((k, given.get(k[ID], [])))
    return out


def layer_of(name: str, layers: list[str]) -> str | None:
    """The budget layer a span name belongs to (longest dotted prefix)."""
    layer = name.split(":", 1)[0]
    best = None
    for cand in layers:
        if layer == cand or layer.startswith(cand + "."):
            if best is None or len(cand) > len(best):
                best = cand
    return best


def budget(spans: list[tuple], server_spans: list[tuple] = (),
           wall_s: float | None = None, units: int | None = None) -> dict:
    """The time budget of one traced run.

    In-process workloads: every timed part of a traced unit is a
    ``bench:timed`` root span, the wall clock is the sum of their
    durations and whatever ran under no layer span is the root's own
    self time. ``serve_mix`` passes the server's spans and the
    client-observed ``wall_s`` / ``units``."""
    from catalog import BUDGET_LAYERS

    by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for forest in (spans, server_spans):
        for name, (calls, secs) in attribute(list(forest)).items():
            by_name[name][0] += calls
            by_name[name][1] += secs
    timed = [s for s in spans if s[NAME] == "bench:timed"]
    if wall_s is None:
        wall_s = sum(s[END] - s[START] for s in timed)
    if units is None:
        units = len({s[UNIT] for s in timed})
    layers = {layer: 0.0 for layer in BUDGET_LAYERS}
    for name, (_calls, secs) in by_name.items():
        layer = layer_of(name, BUDGET_LAYERS)
        if layer is not None:
            layers[layer] += secs
    attributed = sum(layers.values())
    return {
        "wall_s": wall_s,
        "units": units,
        "layers": layers,
        "by_name": {k: tuple(v) for k, v in by_name.items()},
        "unattributed_ratio": (
            max(0.0, 1.0 - attributed / wall_s) if wall_s > 0 else 0.0
        ),
    }


def budget_metrics(b: dict) -> dict:
    """``budget.*`` per-layer metrics: attributed seconds per unit."""
    units = max(1, b["units"])
    out = {f"budget.{k}_s": v / units for k, v in b["layers"].items()}
    out["budget.unattributed_ratio"] = b["unattributed_ratio"]
    return out


def print_budget(b: dict, workload: str, file=None) -> None:
    from catalog import BUDGET_LAYERS

    file = file or sys.stdout
    wall, units = b["wall_s"], max(1, b["units"])
    print(f"\n== time budget: {workload} ({b['units']} traced units, "
          f"{wall:.3f}s wall) ==", file=file)
    print(f"{'layer / span':44s} {'calls':>8s} {'self s':>9s} {'share':>7s}",
          file=file)
    for layer, secs in sorted(b["layers"].items(), key=lambda kv: -kv[1]):
        if secs <= 0:
            continue
        share = secs / wall if wall else 0.0
        print(f"{layer:44s} {'':>8s} {secs:9.4f} {share:7.1%}", file=file)
        for name, (calls, s) in sorted(
            b["by_name"].items(), key=lambda kv: -kv[1][1]
        ):
            if layer_of(name, BUDGET_LAYERS) == layer and s > 0:
                print(f"  {name:42s} {calls:8d} {s:9.4f} "
                      f"{(s / wall if wall else 0):7.1%}", file=file)
    print(f"{'unattributed (under no layer span)':44s} {'':>8s} "
          f"{b['unattributed_ratio'] * wall:9.4f} "
          f"{b['unattributed_ratio']:7.1%}", file=file)
    print(f"per unit: {wall / units:.4f}s", file=file)


# ----------------------------------------------------------------------
# Span file
# ----------------------------------------------------------------------
def dump_spans(workload: str, seed: int, server_spans: list[tuple] = ()) -> int:
    """Write this run's spans (replacing the workload's previous file:
    one traced sweep is tens of thousands of spans)."""
    from spans import TRACER, write_spans

    path = RESULTS / f"spans-{workload}.jsonl"
    path.unlink(missing_ok=True)
    tag = {"workload": workload, "seed": seed}
    return (write_spans(path, TRACER.spans, {**tag, "proc": "bench"})
            + write_spans(path, server_spans, {**tag, "proc": "server"}))


def load_spans(path: Path) -> dict[str, list[tuple]]:
    """Spans of a file, per recording process."""
    out: dict[str, list[tuple]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            out[r.get("proc", "bench")].append(
                (r["id"], r["parent"], r["name"], r["start"], r["end"],
                 r["thread"], r["unit"])
            )
    return out


# ----------------------------------------------------------------------
# Metric table and trajectory
# ----------------------------------------------------------------------
def print_metrics(args, metrics: dict, detail: dict, check, reasons: dict) -> None:
    from catalog import notes

    note = notes(args.workload)
    kind = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"\n== {args.workload}: {kind} metrics, seed {args.seed} ==")
    for name, m in metrics.items():
        if math.isnan(m["value"]):
            value, why = "null", reasons.get(name, "not measured")
        else:
            value, why = f"{m['value']:.6g}", note.get(name, "")
        print(f"{name:38s} {value:>12s} {m['unit']:6s} {why}".rstrip())
    for key, value in sorted(detail.items()):
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"# {key} = {value}")
    print(f"# operations attempted {check.attempted}, failed {check.failed}")
    for problem in check.problems:
        print(f"# FAILED: {problem}")


def append_trajectory(args, result: dict, detail: dict, wall_s: float) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    line = {
        "at": time.time(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": bool(args.smoke),
        "wall_s": wall_s,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "detail": detail,
    }
    with open(TRAJECTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")
