"""Workload ``churn``: reads beside writes.

In-process, because the source tree lives in memory: one ``GUFIIndex``
handle (unrolled, root tsummary), a ``ChangeJournal`` on the tree, one
``ResultCache`` attached to the journal, ``GUFITools`` for root and one
user — the constructors ``repro.cli`` itself uses. A unit is one cycle:
``NamespaceMutator.mutate(40)`` → ``changefeed2index`` → a fixed read
set of four tool calls run twice (the first pass pays invalidation and
re-capture, the second replays). It uses the same result cache,
``DirMetaCache`` and ``core.tsummary`` that make ``serve_mix`` fast, but
from the write side: a read-path gain bought with costlier invalidation
or apply shows here.
"""

from __future__ import annotations

import common
import oracle
from common import NTHREADS, cli

SETUPS = 2
MIN_UNITS = 5
MUTATIONS = 40
CACHE_MB = 16
#: cycles between the out-of-band "cached read == fresh uncached read"
#: checks
CHECK_EVERY = 3
PARTS = ["mutate", "apply", "first", "replay"]


class State:
    """Everything a cycle touches."""

    def __init__(self, ctx, sub) -> None:
        from repro.core.build import BuildOptions
        from repro.core.engine import ResultCache
        from repro.core.index import GUFIIndex
        from repro.core.tools import GUFITools
        from repro.fs.changelog import ChangeJournal
        from repro.fs.permissions import Credentials
        from repro.gen.namespace import NamespaceMutator

        sub.mkdir()
        self.src = common.make_source(sub, ctx.scale, ctx.seed)
        self.index_root = sub / "idx"
        self.bytes_per_entry = common.build_index(
            self.src.trace, self.index_root, rolled=False
        ) / self.src.entries
        ns = self.src.ns
        _area, uid, gid, _n = common.area_owners(ns)[0]
        self.uid, self.gid = uid, gid
        self.user_creds = Credentials(uid=uid, gid=gid)
        self.index = GUFIIndex.open(self.index_root)
        self.journal = ChangeJournal()
        ns.tree.set_changelog(self.journal)
        self.cache = ResultCache(max_bytes=CACHE_MB * 1024 * 1024)
        # this process's changefeed is the index's only writer
        self.cache.attach_journal(self.journal, exclusive=True)
        self.opts = BuildOptions(nthreads=NTHREADS)
        self.root_tools = GUFITools(
            self.index, nthreads=NTHREADS, result_cache=self.cache
        )
        self.user_tools = GUFITools(
            self.index, creds=self.user_creds, nthreads=NTHREADS,
            result_cache=self.cache,
        )
        self.mutator = NamespaceMutator(ns, seed=ctx.seed + 1)

    def close(self) -> None:
        self.root_tools.close()
        self.user_tools.close()
        self.cache.close()
        self.src.ns.tree.set_changelog(None)


def read_set(root_tools, user_tools) -> list:
    """The fixed read set: four tool calls, results normalised."""
    from repro.core.tools import FindFilters

    return [
        root_tools.du("/", use_tsummary=True),
        sorted(root_tools.find("/", FindFilters(min_size=1 << 22)).rows),
        sorted(user_tools.find("/").rows),
        sorted(user_tools.dir_sizes("/")),
    ]


def cycle(ctx, st: State) -> tuple[dict, list, object] | None:
    """One unit: its parts' timings, the first pass's rows and the
    apply's result; None when a step failed."""
    from repro.core import changefeed

    _, mutate = ctx.timed(lambda: st.mutator.mutate(MUTATIONS))
    applied, apply = ctx.timed(lambda: changefeed.changefeed2index(
        st.index, st.src.ns.tree, st.journal, opts=st.opts
    ))
    first, first_t = ctx.timed(lambda: read_set(st.root_tools, st.user_tools))
    second, replay = ctx.timed(lambda: read_set(st.root_tools, st.user_tools))
    ok = ctx.check.expect(
        applied.events_applied > 0, "changefeed applied no event"
    )
    ok &= ctx.check.equal(
        oracle.digest_rows(second), oracle.digest_rows(first),
        "replayed read set differs from the pass before it",
    )
    if not ok:
        return None
    parts = {"mutate": mutate, "apply": apply, "first": first_t,
             "replay": replay}
    return parts, first, applied


def check_fresh(ctx, st: State, reads: list) -> None:
    """Each cached read equals a fresh-handle, uncached read."""
    from repro.core.index import GUFIIndex
    from repro.core.tools import GUFITools

    fresh = GUFIIndex.open(st.index_root)
    with GUFITools(fresh, nthreads=NTHREADS) as rt, GUFITools(
        fresh, creds=st.user_creds, nthreads=NTHREADS
    ) as ut:
        want = read_set(rt, ut)
    for i, (got, exp) in enumerate(zip(reads, want)):
        ctx.check.equal(
            oracle.digest_rows(got if isinstance(got, list) else [got]),
            oracle.expected_digest(
                oracle.digest_rows(exp if isinstance(exp, list) else [exp])
            ),
            f"read {i} after apply vs a fresh uncached handle",
        )


def check_rebuild(ctx, st: State) -> None:
    """After the last cycle: root and user Q1 rows of the incrementally
    maintained index equal a from-scratch rebuild of the mutated tree,
    and the user's are what ``find`` shows them."""
    from repro.scan import TreeWalkScanner, write_trace

    tree = st.src.ns.tree
    scan = TreeWalkScanner(tree, nthreads=NTHREADS).scan("/")
    trace = ctx.work / "rebuilt.trace"
    with open(trace, "w", encoding="utf-8") as fh:
        write_trace(scan.stanzas, fh)
    rebuilt = ctx.work / "idx_rebuilt"
    common.cli_ok(["trace2index", trace, rebuilt, "-n", NTHREADS])
    posix = oracle.PosixOracle(tree)
    for who, ident, uid, gid in (
        ("root", [], 0, 0),
        ("user", common.ident_args(st.uid, st.gid), st.uid, st.gid),
    ):
        rows = []
        for index_root in (st.index_root, rebuilt):
            run = cli(["query", index_root, "-n", NTHREADS,
                       "-E", common.Q1_PATHS_SQL] + ident)
            ctx.check.expect(run.rc == 0, f"check query rc={run.rc}")
            rows.append(sorted(run.out.splitlines()))
        ctx.check.equal(oracle.digest(rows[0]), oracle.digest(rows[1]),
                        f"{who} Q1: incremental == rebuild")
        ctx.check.equal(rows[0], posix.file_paths(uid, gid),
                        f"{who} Q1 paths vs find on the mutated tree")


def run(ctx) -> dict:
    state: State | None = None

    def once(i: int) -> State:
        nonlocal state
        if state is not None:
            state.close()
        state = State(ctx, ctx.work / f"setup{i}")
        return state

    st = ctx.setup(once, SETUPS)
    applies = []
    cycles = 0
    try:
        # the first reads of a fresh handle are cold for reasons that
        # have nothing to do with churn; take them before timing
        read_set(st.root_tools, st.user_tools)
        for traced in ctx.units(MIN_UNITS):
            with ctx.unit(traced) as unit:
                res = cycle(ctx, st)
            if res is None:
                continue
            parts, reads, applied = res
            unit.keep(parts)
            cycles += 1
            if not traced:
                applies.append((applied, parts["apply"].seconds))
            if cycles % CHECK_EVERY == 0:
                check_fresh(ctx, st, reads)
        rss = common.peak_rss_mb()  # before the rebuild and the oracle
        stats = st.cache.stats()
        check_rebuild(ctx, st)
    finally:
        st.close()

    return {
        "unit_ms": ctx.total(PARTS) * 1e3,
        "part_ms": ctx.part("first") * 1e3,
        "work_per_s": common.median(
            [a.events_applied / seconds for a, seconds in applies]
        ),
        "index_bytes_per_entry": st.bytes_per_entry,
        "peak_rss_mb": rss,
        "bench": ctx.bench_metrics(PARTS),
        "detail": {
            "units": ctx.unit_count(),
            "mutate_ms": ctx.part("mutate") * 1e3,
            "apply_ms": ctx.part("apply") * 1e3,
            "replay_ms": ctx.part("replay") * 1e3,
            "events_per_apply": common.median(
                [a.events_applied for a, _ in applies]),
            "dirs_rebuilt_per_apply": common.median(
                [a.dirs_rebuilt for a, _ in applies]),
            "cache_hits": stats["hits"],
            "cache_misses": stats["misses"],
            "cache_invalidations": stats["invalidations"],
        },
    }
