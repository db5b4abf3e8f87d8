"""Workload ``ingest``: trace file → finished index, through the CLI.

Set-up generates the namespace, scans it and writes one trace file.
A unit is one pass of ``trace2index`` → ``rollup`` → ``bfti`` into a
fresh index directory. The build side (``scan.trace``, ``core.build``,
``store``, ``core.rollup``, ``core.tsummary``, ``scan.walker``) does all
the work; the query engine and every cache do none.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import common
import oracle
from common import NTHREADS, cli, cli_ok

#: set-up repetitions per run (the median is ``setup_s``)
SETUPS = 3
#: passes a run always makes, however slow the host
MIN_UNITS = 3
STAGES = ["trace2index", "rollup", "bfti"]


def setup(ctx) -> common.Source:
    def once(i: int) -> common.Source:
        sub = ctx.work / f"setup{i}"
        sub.mkdir()
        return common.make_source(sub, ctx.scale, ctx.seed)

    return ctx.setup(once, SETUPS)


def one_pass(ctx, src: common.Source, index_root: Path) -> dict | None:
    """One unit: each stage's :class:`~common.Timing`, or None on failure."""
    stages = {}
    for stage, argv in (
        ("trace2index", ["trace2index", src.trace, index_root, "-n", NTHREADS]),
        ("rollup", ["rollup", index_root, "-n", NTHREADS]),
        ("bfti", ["bfti", index_root]),
    ):
        run, stages[stage] = ctx.timed(lambda: cli(argv))
        if not ctx.check.expect(run.rc == 0, f"ingest {stage} rc={run.rc}"):
            return None
    return stages


def run(ctx) -> dict:
    src = setup(ctx)
    index_root = ctx.work / "idx"
    for traced in ctx.units(MIN_UNITS):
        shutil.rmtree(index_root, ignore_errors=True)  # outside the unit
        with ctx.unit(traced) as unit:
            stages = one_pass(ctx, src, index_root)
        if stages is not None:
            unit.keep(stages)
    rss = common.peak_rss_mb()  # before the oracle walks the tree
    unit_s = ctx.total(STAGES)

    flat_bytes = check(ctx, src, index_root)
    return {
        "unit_ms": unit_s * 1e3,
        "part_ms": ctx.part("trace2index") * 1e3,
        "work_per_s": src.entries / unit_s,
        "index_bytes_per_entry": flat_bytes / src.entries,
        "peak_rss_mb": rss,
        "bench": ctx.bench_metrics(STAGES),
        "detail": {
            "units": ctx.unit_count(),
            "entries": src.entries,
            "rollup_ms": ctx.part("rollup") * 1e3,
            "bfti_ms": ctx.part("bfti") * 1e3,
            **src.stages,
        },
    }


def check(ctx, src: common.Source, rolled_root: Path) -> int:
    """Root sees every file; a user sees what POSIX shows them; rolling
    up changes no row. Returns the unrolled index's bytes."""
    posix = oracle.PosixOracle(src.ns.tree)
    flat_root = ctx.work / "idx_flat"
    cli_ok(["trace2index", src.trace, flat_root, "-n", NTHREADS])
    flat_bytes = common.index_bytes(flat_root)
    _root, uid, gid, _n = common.area_owners(src.ns)[0]

    def q(index_root: Path, sql: str, ident: list[str]) -> list[str]:
        run = cli(["query", index_root, "-n", NTHREADS, "-E", sql] + ident)
        ctx.check.expect(run.rc == 0, f"check query rc={run.rc}")
        return sorted(run.out.splitlines())

    root_names = q(rolled_root, common.Q1_SQL, [])
    ctx.check.equal(len(root_names), src.n_files, "root Q1 row count")
    ctx.check.equal(
        oracle.digest(root_names),
        oracle.expected_digest(oracle.digest(posix.file_names(0, 0))),
        "root Q1 names vs find",
    )
    user = common.ident_args(uid, gid)
    ctx.check.equal(
        q(rolled_root, common.Q1_SQL, user), posix.file_names(uid, gid),
        f"uid {uid} Q1 names vs find",
    )
    for who, ident in (("root", []), (f"uid {uid}", user)):
        ctx.check.equal(
            oracle.digest(q(rolled_root, common.Q1_PATHS_SQL, ident)),
            oracle.digest(q(flat_root, common.Q1_PATHS_SQL, ident)),
            f"{who} rolled == unrolled paths",
        )
    ctx.check.equal(
        q(flat_root, common.Q1_PATHS_SQL, user), posix.file_paths(uid, gid),
        f"uid {uid} Q1 paths vs find",
    )
    return flat_bytes
