"""Workload ``cli_scan``: what a shell user pays for a one-shot query.

Set-up builds an unrolled index with a root tsummary. A unit is one
sweep: Q1, Q2, Q3 as root, then the same three as the owner of the
largest area — every query a fresh ``repro.cli.main(["query", ...])``
call with the result cache off. The per-directory path (``core.index``
cold DirMeta reads, ``core.engine`` traversal/stages/sinks,
``store.attach``, CLI row formatting) does all the work; sessions, plan
gates and the result cache do none.
"""

from __future__ import annotations

import re

import common
import oracle
from common import NTHREADS, cli

SETUPS = 2
MIN_UNITS = 3

QUERIES = [
    ("q1", ["-E", common.Q1_SQL]),
    ("q2", ["-S", common.Q2_SQL]),
    ("q3", common.Q3_ARGS),
]
_VISITED = re.compile(r"# (\d+) dirs visited")


def setup(ctx):
    def once(i: int):
        sub = ctx.work / f"setup{i}"
        sub.mkdir()
        src = common.make_source(sub, ctx.scale, ctx.seed)
        index_root = sub / "idx"
        nbytes = common.build_index(src.trace, index_root, rolled=False)
        return src, index_root, nbytes

    return ctx.setup(once, SETUPS)


def sweep(ctx, index_root, users) -> tuple[dict, dict] | None:
    """One unit: per-query timings and outputs, or None on failure."""
    timings, outs = {}, {}
    for who, ident in users:
        for qname, qargs in QUERIES:
            argv = ["query", index_root, "-n", NTHREADS] + qargs + ident
            run, timings[f"{who}_{qname}"] = ctx.timed(lambda: cli(argv))
            if not ctx.check.expect(run.rc == 0, f"{who} {qname} rc={run.rc}"):
                return None
            outs[who, qname] = run
    return timings, outs


def run(ctx) -> dict:
    src, index_root, index_bytes = setup(ctx)
    _area, uid, gid, _n = common.area_owners(src.ns)[0]
    users = [("root", []), ("user", common.ident_args(uid, gid))]

    digests: dict[tuple, str] = {}
    last_outs: dict = {}
    for traced in ctx.units(MIN_UNITS):
        with ctx.unit(traced) as unit:
            res = sweep(ctx, index_root, users)
        if res is None:
            continue
        timings, outs = res
        unit.keep(timings)
        # outside the unit: every sweep must print the same rows
        for key, r in outs.items():
            d = oracle.digest_text(r.out)
            ctx.check.equal(d, digests.setdefault(key, d),
                            f"{key[0]} {key[1]} digest across sweeps")
        last_outs = outs
    rss = common.peak_rss_mb()  # before the oracle walks the tree

    keys = [f"{who}_{q}" for who, _ in users for q, _ in QUERIES]
    unit_s = ctx.total(keys)
    dirs = sum(
        int(m.group(1))
        for r in last_outs.values()
        if (m := _VISITED.search(r.err))
    )
    check(ctx, src, uid, gid, last_outs)
    return {
        "unit_ms": unit_s * 1e3,
        "part_ms": ctx.total([k for k in keys if k.startswith("user_")]) * 1e3,
        "work_per_s": dirs / unit_s,
        "index_bytes_per_entry": index_bytes / src.entries,
        "peak_rss_mb": rss,
        "bench": ctx.bench_metrics(keys),
        "detail": {
            "units": ctx.unit_count(),
            "dirs_visited_per_sweep": dirs,
            **{f"{k}_ms": ctx.part(k) * 1e3 for k in keys},
        },
    }


def check(ctx, src, uid: int, gid: int, outs: dict) -> None:
    """Q1 names are what ``find`` lists for each user; Q3 is ``du``."""
    posix = oracle.PosixOracle(src.ns.tree)
    for who, u, g in (("root", 0, 0), ("user", uid, gid)):
        names = sorted(outs[who, "q1"].out.splitlines())
        ctx.check.equal(
            oracle.digest(names),
            oracle.expected_digest(oracle.digest(posix.file_names(u, g))),
            f"{who} Q1 names vs find",
        )
        q2 = [line.rsplit("\t", 1) for line in outs[who, "q2"].out.splitlines()]
        q3 = int(float(outs[who, "q3"].out.strip() or 0))
        dirs, files = posix.walk(u, g)
        listed_dirs = {p for p, _ in dirs}
        ctx.check.expect(
            {p for p, _ in q2} <= listed_dirs,
            f"{who} Q2 lists a directory find does not",
        )
        # du as the multi-database query computes it: every file the
        # user can stat plus every directory the user can read
        want = sum(s for _, s in files) + sum(int(s) for _, s in q2)
        ctx.check.equal(q3, want, f"{who} Q3 vs du")
    ctx.check.equal(
        int(float(outs["root", "q3"].out.strip() or 0)),
        posix.du_bytes(0, 0), "root Q3 vs du -s",
    )
    ctx.check.equal(
        len(outs["root", "q1"].out.splitlines()) + len(
            outs["root", "q2"].out.splitlines()),
        posix.find_count(0, 0), "root Q1+Q2 rows vs find count",
    )
