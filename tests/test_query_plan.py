"""Query-planning tests: stats-gate soundness, depth windows, attach
elision, and the ``run_single`` alignment fix.

The planner's contract is the rollup security theorem's discipline
applied to performance: a planned run must return *exactly* the rows
an unplanned run returns, for every credential — pruning may only skip
work, never change answers or widen visibility. The property tests
here drive random search strings over random namespaces for root and
unprivileged users to check that end to end.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.build import BuildOptions, dir2index
from repro.core.index import DirMeta, DirStats
from repro.core.plan import QueryPlan, plan_for
from repro.core.engine import QueryEngine
from repro.core.query import QuerySpec
from repro.core.rollup import rollup
from repro.core.search import parse
from repro.core.tools import FindFilters, GUFITools
from repro.core.tsummary import build_tsummary
from repro.fs.permissions import Credentials
from repro.fs.tree import VFSTree

from tests.conftest import ALICE, NTHREADS
from tests.test_properties import CREDS, materialize, tree_descriptions

NOW = 1_700_000_000
DAY = 86400


def _meta(stats: DirStats | None) -> DirMeta:
    return DirMeta(
        inode=1, mode=0o755, uid=0, gid=0,
        rolledup=False, rollup_entries=0, stats=stats,
    )


def _stats(**over) -> DirStats:
    base = dict(
        totfiles=3, totlinks=0,
        minsize=10, maxsize=1000,
        minmtime=NOW - 30 * DAY, maxmtime=NOW - 10 * DAY,
        minuid=1001, maxuid=1002, mingid=1001, maxgid=1002,
        maxdepth=None,
    )
    base.update(over)
    return DirStats(**base)


class TestDirCanMatch:
    def test_no_stats_never_gates(self):
        plan = QueryPlan(min_size=10**9, ftype="f")
        assert plan.dir_can_match(_meta(None))

    def test_no_predicates_gates_only_empty_dirs(self):
        plan = QueryPlan()
        assert plan.dir_can_match(_meta(_stats()))
        assert not plan.dir_can_match(
            _meta(_stats(totfiles=0, totlinks=0,
                         minsize=None, maxsize=None,
                         minmtime=None, maxmtime=None,
                         minuid=None, maxuid=None,
                         mingid=None, maxgid=None))
        )

    def test_size_gate_prunes(self):
        plan = QueryPlan(min_size=5000)
        assert not plan.dir_can_match(_meta(_stats(maxsize=1000)))
        assert plan.dir_can_match(_meta(_stats(maxsize=5001)))
        plan = QueryPlan(max_size=5)
        assert not plan.dir_can_match(_meta(_stats(minsize=10)))

    def test_size_gate_unsound_with_links_present(self):
        # minsize/maxsize bound files only; a directory holding links
        # must not be size-gated unless type:f excludes the links
        stats = _stats(maxsize=1000, totlinks=2)
        assert QueryPlan(min_size=5000).dir_can_match(_meta(stats))
        assert not QueryPlan(min_size=5000, ftype="f").dir_can_match(
            _meta(stats)
        )
        # and a type:l query never size-gates
        assert QueryPlan(min_size=5000, ftype="l").dir_can_match(_meta(stats))

    def test_count_gates(self):
        assert not QueryPlan(ftype="f").dir_can_match(
            _meta(_stats(totfiles=0, totlinks=2, minsize=None, maxsize=None))
        )
        assert not QueryPlan(ftype="l").dir_can_match(
            _meta(_stats(totlinks=0))
        )
        assert QueryPlan(ftype="l").dir_can_match(
            _meta(_stats(totlinks=1))
        )

    def test_mtime_window_gates(self):
        assert not QueryPlan(mtime_before=NOW - 40 * DAY).dir_can_match(
            _meta(_stats())  # everything newer than the cutoff
        )
        assert not QueryPlan(mtime_after=NOW - 5 * DAY).dir_can_match(
            _meta(_stats())  # everything older than the cutoff
        )
        assert QueryPlan(
            mtime_before=NOW, mtime_after=NOW - 40 * DAY
        ).dir_can_match(_meta(_stats()))

    def test_uid_gid_gates(self):
        assert not QueryPlan(uid=2000).dir_can_match(_meta(_stats()))
        assert QueryPlan(uid=1001).dir_can_match(_meta(_stats()))
        assert not QueryPlan(gid=7).dir_can_match(_meta(_stats()))

    def test_null_bound_disables_gate(self):
        assert QueryPlan(min_size=10**9).dir_can_match(
            _meta(_stats(maxsize=None))
        )
        assert QueryPlan(mtime_after=NOW).dir_can_match(
            _meta(_stats(maxmtime=None))
        )
        assert QueryPlan(uid=2000).dir_can_match(
            _meta(_stats(minuid=None))
        )

    def test_not_entries_shaped_never_gates(self):
        plan = QueryPlan(min_size=10**9, entries_shaped=False)
        assert plan.dir_can_match(_meta(_stats(maxsize=1)))


class TestDepthWindow:
    def test_wants_level(self):
        plan = QueryPlan(min_level=1, max_level=2)
        assert [plan.wants_level(d) for d in range(4)] == [
            False, True, True, False,
        ]

    def test_descend_stops_at_max_level(self):
        plan = QueryPlan(max_level=2)
        assert plan.descend_allowed(1)
        assert not plan.descend_allowed(2)

    def test_min_level_with_shallow_subtree_cuts_descent(self):
        plan = QueryPlan(min_level=5)
        assert plan.descend_allowed(1, subtree_rel_maxdepth=None)
        assert plan.descend_allowed(1, subtree_rel_maxdepth=5)
        assert not plan.descend_allowed(1, subtree_rel_maxdepth=4)


class TestPlanFor:
    def test_maps_prunable_fields(self):
        f = FindFilters(
            name_like="%x%", ftype="f", min_size=1, max_size=2,
            uid=3, gid=4, mtime_before=5, mtime_after=6,
            min_level=1, max_level=2,
        )
        p = plan_for(f)
        assert (p.min_size, p.max_size) == (1, 2)
        assert (p.uid, p.gid) == (3, 4)
        assert (p.mtime_before, p.mtime_after) == (5, 6)
        assert (p.min_level, p.max_level) == (1, 2)
        assert p.ftype == "f"
        assert p.entries_shaped


    def test_unplanned_keeps_only_the_window(self):
        f = FindFilters(ftype="f", min_size=1, uid=3, min_level=1, max_level=2)
        assert plan_for(f, planned=False) == QueryPlan(
            min_level=1, max_level=2, entries_shaped=False
        )
        assert plan_for(FindFilters(max_level=0), planned=False) == QueryPlan(
            max_level=0, entries_shaped=False
        )
        assert plan_for(FindFilters(ftype="f", min_size=1), planned=False) is None

    @pytest.mark.parametrize("window", [False, True], ids=["no-window", "window"])
    @pytest.mark.parametrize("site", ["find", "portal", "cli"])
    def test_unplanned_call_sites_share_the_rule(
        self, site, window, demo_index, monkeypatch, capsys
    ):
        """``planned=False`` / ``--no-plan`` at each of its three
        callers: the engine gets the window-only plan (or none) and
        returns that run's rows, byte for byte."""
        from repro.cli import main
        from repro.core.server import GUFIServer, IdentityProvider

        query = "size>>200" + (" minlevel:2 maxlevel:2" if window else "")
        plan = (
            QueryPlan(min_level=2, max_level=2, entries_shaped=False)
            if window
            else None
        )
        parsed = parse(query)
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            expected = sorted(q.run(parsed.to_spec(), plan=plan).rows)
            unwindowed = sorted(q.run(parsed.to_spec()).rows)
        # the window is semantic: dropping it would change the answer
        assert expected and (expected != unwindowed) == window

        plans = []
        real_run = QueryEngine.run

        def spy(self, spec, start="/", plan=None, **kwargs):
            plans.append(plan)
            return real_run(self, spec, start, plan=plan, **kwargs)

        monkeypatch.setattr(QueryEngine, "run", spy)
        if site == "find":
            with GUFITools(demo_index, nthreads=NTHREADS) as tools:
                got = tools.find("/", parsed.filters, planned=False).rows
            assert sorted(got) == [row[:3] for row in expected]
        elif site == "portal":
            identity = IdentityProvider()
            identity.add_user("root", uid=0, gid=0)
            with GUFIServer(demo_index, identity, nthreads=NTHREADS) as server:
                got = server.invoke("root", "search", query=query, planned=False)
            assert sorted(got.rows) == expected
        else:
            argv = ["search", str(demo_index.root), query, "--no-plan", "-n", "2"]
            assert main(argv) == 0
            assert capsys.readouterr().out == "".join(
                "\t".join(str(v) for v in row) + "\n" for row in expected
            )
        assert plans == [plan]


class TestStatsReading:
    def test_warm_cache_carries_stats(self, demo_index):
        meta = demo_index.dir_meta("/home/alice")
        stats = meta.stats
        assert stats is not None
        assert stats.totfiles == 1
        assert stats.minsize == stats.maxsize == 100

    def test_rolled_up_stats_cover_subtree(self, demo_tree, tmp_path):
        idx = dir2index(
            demo_tree, tmp_path / "i", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        rollup(idx, nthreads=NTHREADS)
        meta = idx.dir_meta("/home/alice")
        assert meta.rolledup
        stats = meta.stats
        # bounds cover a.txt (100) and sub/deep.dat (250)
        assert stats.totfiles == 2
        assert stats.minsize == 100
        assert stats.maxsize == 250

    def test_maxdepth_from_tsummary(self, demo_index):
        build_tsummary(demo_index, "/")
        demo_index.invalidate_cache()
        stats = demo_index.dir_meta("/").stats
        assert stats.maxdepth is not None
        assert stats.maxdepth >= 2  # /home/alice/sub et al.


class TestEnginePruning:
    def test_selective_query_elides_warm_attaches(self, demo_index):
        filters = FindFilters(min_size=10**9)
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        cold = tools.find("/", filters)  # warms the cache
        warm = tools.find("/", filters)
        off = tools.find("/", filters, planned=False)
        assert warm.rows == off.rows == cold.rows == []
        assert warm.dirs_pruned_by_plan > 0
        assert warm.attaches_elided > 0
        assert warm.dbs_opened < off.dbs_opened

    def test_pruned_run_matches_unplanned(self, demo_index):
        tools = GUFITools(demo_index, creds=ALICE, nthreads=NTHREADS)
        filters = FindFilters(min_size=200, ftype="f")
        on = tools.find("/", filters)
        off = tools.find("/", filters, planned=False)
        assert sorted(on.rows) == sorted(off.rows)
        assert on.rows  # deep.dat (250), b.txt (300), p.c, d.h5

    def test_depth_window_limits_levels(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        all_rows = tools.find("/").rows
        # only entries whose parent dir is at level <= 1 below /
        shallow = tools.find("/", FindFilters(max_level=1)).rows
        assert set(shallow) < set(all_rows)
        paths = {r[0] for r in shallow}
        # /public is level 1 — its entries are in the window
        assert "/public/readme" in paths
        # /home/bob is level 2 — its entries are not
        assert "/home/bob/b.txt" not in paths

    def test_depth_window_exact_partition(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        full = sorted(tools.find("/").rows)
        by_level = []
        for lv in range(0, 5):
            r = tools.find(
                "/", FindFilters(min_level=lv, max_level=lv)
            )
            by_level.extend(r.rows)
        assert sorted(by_level) == full

    def test_max_level_stops_descent(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        r = tools.find("/", FindFilters(max_level=1))
        # /, /home, /proj, /public + their direct children are visited;
        # nothing at level 2+ (e.g. /home/alice/sub) is walked
        unplanned = tools.find("/")
        assert r.dirs_visited < unplanned.dirs_visited

    def test_min_level_skips_shallow_processing(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        r = tools.find("/", FindFilters(min_level=2))
        paths = {row[0] for row in r.rows}
        assert "/public/readme" not in paths  # level-1 dir's entry
        assert "/home/bob/b.txt" in paths

    def test_tsummary_maxdepth_cuts_subtree_for_min_level(self, demo_index):
        build_tsummary(demo_index, "/")
        demo_index.invalidate_cache()
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        tools.find("/")  # warm
        deep = tools.find("/", FindFilters(min_level=10))
        assert deep.rows == []
        # the tree is only ~3 levels deep: the root's tsummary proves
        # min_level=10 unreachable, so descent is cut immediately
        assert deep.dirs_visited <= 1

    def test_search_terms_compile_to_plan(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        parsed = parse("size>>1g", now=NOW)
        q.run(parsed.to_spec())  # warm the cache
        on = q.run(parsed.to_spec(), plan=parsed.to_plan())
        off = q.run(parsed.to_spec())
        assert on.rows == off.rows == []
        assert on.dirs_pruned_by_plan > 0

    def test_level_terms_parse(self):
        f = parse("size>>1m minlevel:1 maxlevel:3", now=NOW).filters
        assert (f.min_level, f.max_level) == (1, 3)
        with pytest.raises(Exception):
            parse("minlevel:x")

    def test_plan_ignored_without_stages(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        r = q.run(QuerySpec(), plan=QueryPlan(min_size=10**9))
        assert r.dirs_pruned_by_plan == 0


class TestRunSingleAlignment:
    def test_missing_dir_raises(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        with pytest.raises(FileNotFoundError):
            q.run_single(QuerySpec(E="SELECT name FROM pentries"), "/nope")

    def test_corrupt_db_counts_instead_of_raising(self, demo_index):
        db = demo_index.db_path("/public")
        db.write_bytes(b"this is not a sqlite database, not even close")
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        r = q.run_single(QuerySpec(E="SELECT name FROM pentries"), "/public")
        assert r.dirs_errored == 1
        assert r.dbs_opened == 0
        assert r.rows == []

    def test_corrupt_db_matches_walk_semantics(self, demo_index):
        db = demo_index.db_path("/public")
        db.write_bytes(b"garbage" * 100)
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        walk = q.run(QuerySpec(E="SELECT name FROM pentries"), "/")
        single = q.run_single(
            QuerySpec(E="SELECT name FROM pentries"), "/public"
        )
        assert walk.dirs_errored == 1
        assert single.dirs_errored == 1

    def test_t_skipped_without_tsummary_rows(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        spec = QuerySpec(
            T="SELECT totsize FROM tsummary WHERE rectype = 0",
            E="SELECT name FROM pentries",
        )
        r = q.run_single(spec, "/home/alice")
        # no tsummary rows: T contributes nothing, E still runs
        assert r.rows == [("a.txt",)]

    def test_t_prunes_s_and_e_like_walk(self, demo_index):
        build_tsummary(demo_index, "/home/alice")
        demo_index.invalidate_cache()
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        spec = QuerySpec(
            T="SELECT totsize FROM tsummary WHERE rectype = 0",
            E="SELECT name FROM pentries",
        )
        single = q.run_single(spec, "/home/alice")
        walk = q.run(spec, "/home/alice")
        assert single.rows == walk.rows  # T rows only, E pruned
        assert len(single.rows) == 1
        no_prune = q.run_single(
            QuerySpec(
                T="SELECT totsize FROM tsummary WHERE rectype = 0",
                E="SELECT name FROM pentries",
                t_no_prune=True,
            ),
            "/home/alice",
        )
        assert len(no_prune.rows) == 2

    def test_plan_applies_to_single_dir(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        spec = QuerySpec(E="SELECT name FROM pentries")
        plan = QueryPlan(min_size=10**9)
        # warm the meta cache — with the plan: a plan-less run reads
        # (and caches) no bounds for the next one to elide on
        assert q.run_single(spec, "/home/alice", plan=plan).dbs_opened == 1
        r = q.run_single(spec, "/home/alice", plan=plan)
        assert r.rows == []
        assert r.dirs_pruned_by_plan == 1
        assert r.attaches_elided == 1
        assert r.dbs_opened == 0


# ----------------------------------------------------------------------
# Property tests: planned == unplanned for every credential
# ----------------------------------------------------------------------

_SEARCH_TERMS = [
    None,
    "size>>500k",
    "size<<100",
    "user:1001",
    "group:100",
    "older:90d",
    "newer:30d",
    "type:f",
    "type:l",
    "name:f1*",
    "maxlevel:1",
    "minlevel:2",
    "minlevel:1 maxlevel:2",
]


@st.composite
def search_strings(draw):
    terms = draw(
        st.lists(
            st.sampled_from([t for t in _SEARCH_TERMS if t]),
            min_size=1, max_size=3, unique=True,
        )
    )
    return " ".join(terms)


common = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPlannedEqualsUnplanned:
    @common
    @given(desc=tree_descriptions(), query=search_strings(),
           rolled=st.booleans())
    def test_identical_rows_for_every_user(
        self, desc, query, rolled, tmp_path_factory
    ):
        tree = materialize(desc)
        root = tmp_path_factory.mktemp("plan")
        idx = dir2index(tree, root / "i", opts=BuildOptions(nthreads=2)).index
        build_tsummary(idx, "/")
        if rolled:
            rollup(idx, nthreads=2)
        idx.invalidate_cache()
        parsed = parse(query, now=NOW)
        spec = parsed.to_spec()
        plan = parsed.to_plan()
        # The baseline keeps the (semantic) depth window but switches
        # every stats gate off: exactly what the full plan must be
        # observationally identical to.
        baseline = QueryPlan(
            min_level=plan.min_level,
            max_level=plan.max_level,
            entries_shaped=False,
        )
        for creds in CREDS:
            q = QueryEngine(idx, creds=creds, nthreads=2)
            cold_on = q.run(spec, plan=plan)
            off = q.run(spec, plan=baseline)
            warm_on = q.run(spec, plan=plan)
            assert sorted(cold_on.rows) == sorted(off.rows), (creds, query)
            assert sorted(warm_on.rows) == sorted(off.rows), (creds, query)
            # pruning only ever skips work
            assert warm_on.dbs_opened <= off.dbs_opened

    @common
    @given(desc=tree_descriptions(), query=search_strings())
    def test_find_planned_flag_is_invisible(
        self, desc, query, tmp_path_factory
    ):
        tree = materialize(desc)
        root = tmp_path_factory.mktemp("plan")
        idx = dir2index(tree, root / "i", opts=BuildOptions(nthreads=2)).index
        filters = parse(query, now=NOW).filters
        for creds in (Credentials(uid=0, gid=0), CREDS[1]):
            tools = GUFITools(idx, creds=creds, nthreads=2)
            on = tools.find("/", filters, planned=True)
            off = tools.find("/", filters, planned=False)
            assert sorted(on.rows) == sorted(off.rows), (creds, query)


class TestPlanningNeverWidensVisibility:
    def test_unreadable_dir_stays_invisible_with_plan(self):
        # A denied directory's stats must not leak into results even
        # when the plan could prove it matches: permission checks run
        # before any plan logic.
        tree = VFSTree()
        tree.mkdir("/secret", mode=0o700, uid=1002, gid=1002)
        tree.create_file(
            "/secret/big", size=10**10, mode=0o644, uid=1002, gid=1002
        )
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            idx = dir2index(
                tree, d + "/i", opts=BuildOptions(nthreads=2)
            ).index
            tools = GUFITools(idx, creds=ALICE, nthreads=2)
            filters = FindFilters(min_size=10**9)
            on = tools.find("/", filters)
            off = tools.find("/", filters, planned=False)
            assert on.rows == off.rows == []
            assert on.dirs_denied == off.dirs_denied == 1


class TestNullStatsConservative:
    def test_nulled_summary_disables_gating(self, demo_index):
        # Corrupt the stats columns (NULL them out) in one shard: the
        # planner must fall back to processing that directory.
        db = demo_index.db_path("/home/bob")
        conn = sqlite3.connect(db)
        conn.execute(
            "UPDATE summary SET minsize = NULL, maxsize = NULL "
            "WHERE rectype = 0"
        )
        conn.commit()
        conn.close()
        demo_index.invalidate_cache()
        assert demo_index.dir_meta("/home/bob").stats is None
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        filters = FindFilters(min_size=10**9)
        on = tools.find("/", filters)
        off = tools.find("/", filters, planned=False)
        assert on.rows == off.rows == []
