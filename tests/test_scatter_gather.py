"""Scatter-gather (``processes > 1``) equivalence and crash semantics.

The multi-process engine must be indistinguishable from a
single-process run — identical rows AND identical counters — across
the behavior matrix: privileged/unprivileged credentials × rollup
on/off × plan on/off × streamed vs in-memory sinks; plus the J/G
aggregate fold, merged stage timings and metrics, a hypothesis
property over randomly generated namespaces, and the crash contract
(a killed worker surfaces as ``dirs_errored``, never a hang).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import signal
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.build import BuildOptions, dir2index
from repro.core.engine import (
    CancelToken,
    QueryCancelled,
    QueryEngine,
    QuerySpec,
    ThreadFileSink,
    Traversal,
    plan_shards,
)
from repro.core.plan import plan_for
from repro.core.query import Q1_LIST_PATHS, Q3_DU_SUMMARIES, Q4_DU_TSUMMARY
from repro.core.rollup import rollup
from repro.core.tools import FindFilters, GUFITools
from repro.core.tsummary import build_tsummary
from repro.fs.permissions import ROOT
from repro.fs.tree import VFSTree

from .conftest import ALICE, CAROL_IN_PROJ, NTHREADS, build_demo_tree

PROCESSES = 3
#: fork children inherit the parent's warm DirMeta cache; spawn
#: children open the index cold, so cache-dependent counters
#: (attaches_elided, dbs_opened) legitimately diverge there
FORK = mp.get_context().get_start_method() == "fork"

FILTERS = FindFilters(min_size=600)
SPEC = QuerySpec(
    E="SELECT rpath(dname, d_isroot, name), type, size "
    f"FROM vrpentries{FILTERS.where_clause()}"
)

CREDS_CASES = [("root", ROOT), ("alice", ALICE), ("carol", CAROL_IN_PROJ)]
COUNTERS = (
    "dirs_visited",
    "dirs_denied",
    "dbs_opened",
    "dirs_errored",
    "dirs_pruned_by_plan",
    "attaches_elided",
)
#: counters whose equality does not depend on cache temperature
COLD_SAFE = ("dirs_visited", "dirs_denied", "dirs_errored",
             "dirs_pruned_by_plan")


@pytest.fixture(scope="module")
def plain_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("sg_plain")
    return dir2index(
        build_demo_tree(), root / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index


@pytest.fixture(scope="module")
def rolled_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("sg_rolled")
    idx = dir2index(
        build_demo_tree(), root / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index
    rollup(idx, nthreads=NTHREADS)
    return idx


def _index_for(request, rolled: bool):
    return request.getfixturevalue("rolled_index" if rolled else "plain_index")


def _counters(result, names=COUNTERS) -> dict:
    return {name: getattr(result, name) for name in names}


def _streamed_rows(result) -> list[str]:
    lines: list[str] = []
    for path in result.output_files or []:
        with open(path) as fh:
            lines.extend(ln.rstrip("\n") for ln in fh)
    return sorted(lines)


# ----------------------------------------------------------------------
# Shard planner
# ----------------------------------------------------------------------

def test_planner_shards_demo_tree(plain_index):
    """The demo tree is small enough that planning exhausts it: the
    complete spine enumeration is sharded, covering every directory
    exactly once."""
    trav = Traversal(plain_index, ROOT, Q1_LIST_PATHS, None, 1)
    shards = plan_shards(trav, "/", PROCESSES)
    assert shards is not None
    assert 2 <= len(shards) <= PROCESSES
    all_units = [u for shard in shards for u in shard.units]
    paths = [p for p, _ in all_units]
    assert len(paths) == len(set(paths))  # no unit dispatched twice
    assert "/" in paths
    assert all(w >= 0 for w in (s.weight for s in shards))


def test_planner_respects_permissions(plain_index):
    """An unprivileged planner never expands below a directory the
    caller cannot search — those units go to workers no-descend or as
    opaque recursive roots, exactly like the single-process walk."""
    trav = Traversal(plain_index, ALICE, Q1_LIST_PATHS, None, 1)
    shards = plan_shards(trav, "/", PROCESSES)
    if shards is None:
        pytest.skip("tree too narrow for this planner shape")
    paths = [p for shard in shards for p, _ in shard.units]
    # alice cannot search /home/bob/secret: nothing below it planned
    assert not any(p.startswith("/home/bob/secret/") for p in paths)


def test_planner_narrow_tree_returns_none(tmp_path):
    t = VFSTree()
    t.create_file("/only.txt", size=10, mode=0o644, uid=0, gid=0)
    index = dir2index(
        t, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index
    trav = Traversal(index, ROOT, Q1_LIST_PATHS, None, 1)
    assert plan_shards(trav, "/", PROCESSES) is None


def test_planner_stops_where_a_tsummary_answers(tmp_path):
    """The planner asks the traversal's own T-prune rule: with a ``T``
    spec, nothing below a directory holding tsummary rows is planned."""
    index = dir2index(
        build_demo_tree(), tmp_path / "idx",
        opts=BuildOptions(nthreads=NTHREADS),
    ).index
    build_tsummary(index, "/home")
    trav = Traversal(index, ROOT, Q4_DU_TSUMMARY, None, 0)
    shards = plan_shards(trav, "/", PROCESSES)
    assert shards is not None
    paths = [p for shard in shards for p, _ in shard.units]
    assert "/home" in paths
    assert not any(p.startswith("/home/") for p in paths)


# ----------------------------------------------------------------------
# Equivalence matrix
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "who,rolled,planned,streamed",
    [
        pytest.param(
            who, rolled, planned, streamed,
            id=f"{who}-{'rollup' if rolled else 'plain'}"
            f"-{'plan' if planned else 'noplan'}"
            f"-{'stream' if streamed else 'memory'}",
        )
        for (who, _), rolled, planned, streamed in itertools.product(
            CREDS_CASES, (False, True), (False, True), (False, True)
        )
    ],
)
def test_run_matrix(request, tmp_path, who, rolled, planned, streamed):
    """Same rows, same counters, one process or many."""
    index = _index_for(request, rolled)
    creds = dict(CREDS_CASES)[who]
    plan = plan_for(FILTERS) if planned else None

    with QueryEngine(index, creds=creds, nthreads=NTHREADS) as warm:
        # one warm-up pass so the single-process run and the forked
        # workers (which inherit the cache) see the same cache state
        warm.run(SPEC, plan=plan)

    with QueryEngine(index, creds=creds, nthreads=NTHREADS) as single, \
            QueryEngine(
                index, creds=creds, nthreads=NTHREADS, processes=PROCESSES
            ) as multi:
        assert multi.processes == PROCESSES
        if streamed:
            sp = single.run(
                SPEC, plan=plan, sink=ThreadFileSink(str(tmp_path / "sp"))
            )
            mp_ = multi.run(
                SPEC, plan=plan, sink=ThreadFileSink(str(tmp_path / "mp"))
            )
            assert _streamed_rows(sp) == _streamed_rows(mp_)
            assert sp.rows == mp_.rows == []
        else:
            sp = single.run(SPEC, plan=plan)
            mp_ = multi.run(SPEC, plan=plan)
            assert sorted(sp.rows) == sorted(mp_.rows)
        if FORK:
            assert _counters(sp) == _counters(mp_)
        else:
            assert _counters(sp, COLD_SAFE) == _counters(mp_, COLD_SAFE)
        assert not sp.truncated and not mp_.truncated
        if who == "root":
            assert mp_.dirs_denied == 0
        if not planned:
            assert mp_.dirs_pruned_by_plan == 0
            assert mp_.attaches_elided == 0


def test_aggregate_join_final_fold(plain_index):
    """J/G specs: per-worker aggregates row-union into one parent
    aggregate, G runs exactly once — the du total is identical."""
    for creds in (ROOT, CAROL_IN_PROJ):
        with QueryEngine(plain_index, creds=creds, nthreads=NTHREADS) as single, \
                QueryEngine(
                    plain_index, creds=creds,
                    nthreads=NTHREADS, processes=PROCESSES,
                ) as multi:
            sp = single.run(Q3_DU_SUMMARIES)
            mp_ = multi.run(Q3_DU_SUMMARIES)
            assert sp.scalar() == mp_.scalar()
            assert len(mp_.rows) == 1


@pytest.mark.parametrize("at", ["/home", "/"])
@pytest.mark.parametrize("who", [w for w, _ in CREDS_CASES])
def test_tsummary_stage_matches_single_process(tmp_path, at, who):
    """A ``T`` stage prunes the same subtrees, and answers the same,
    one process or many."""
    index = dir2index(
        build_demo_tree(), tmp_path / "idx",
        opts=BuildOptions(nthreads=NTHREADS),
    ).index
    build_tsummary(index, at)
    creds = dict(CREDS_CASES)[who]
    with GUFITools(index, creds=creds, nthreads=NTHREADS) as single, \
            GUFITools(
                index, creds=creds, nthreads=NTHREADS, processes=PROCESSES
            ) as multi:
        assert single.du("/", use_tsummary=True) == multi.du(
            "/", use_tsummary=True
        )
    with QueryEngine(index, creds=creds, nthreads=NTHREADS) as single, \
            QueryEngine(
                index, creds=creds, nthreads=NTHREADS, processes=PROCESSES
            ) as multi:
        single.run(Q4_DU_TSUMMARY)  # warm-up: both see one cache state
        sp = single.run(Q4_DU_TSUMMARY)
        mp_ = multi.run(Q4_DU_TSUMMARY)
    assert sorted(sp.rows) == sorted(mp_.rows)
    if FORK:
        assert _counters(sp) == _counters(mp_)
    else:
        assert _counters(sp, COLD_SAFE) == _counters(mp_, COLD_SAFE)


def test_tools_thread_processes_through(plain_index):
    """GUFITools(processes=N) routes every canned query through the
    scatter path with unchanged answers."""
    with GUFITools(plain_index, nthreads=NTHREADS) as single, \
            GUFITools(
                plain_index, nthreads=NTHREADS, processes=PROCESSES
            ) as multi:
        assert single.du("/") == multi.du("/")
        assert sorted(single.find("/", FILTERS).rows) == sorted(
            multi.find("/", FILTERS).rows
        )
        assert single.engine.processes == 1
        assert multi.engine.processes == PROCESSES


def test_stage_seconds_and_merged_metrics(plain_index):
    """With metrics on: stage timings cover all five stages (T/S/E/J
    summed across workers, G timed in the parent), the scatter counters
    record the fan-out, and worker snapshots fold into the parent
    registry."""
    with obs.enabled(metrics=True):
        with QueryEngine(
            plain_index, nthreads=NTHREADS, processes=PROCESSES
        ) as multi:
            result = multi.run(Q3_DU_SUMMARIES)
        snap = obs.snapshot()
    assert result.stage_seconds is not None
    assert set(result.stage_seconds) == {"T", "S", "E", "J", "G"}
    assert all(v >= 0.0 for v in result.stage_seconds.values())
    assert snap.counter("gufi_scatter_runs_total") == 1
    assert snap.counter("gufi_scatter_shards_total") >= 2
    assert snap.counter("gufi_scatter_worker_crashes_total") == 0
    # worker-side walker/session tallies arrived via snapshot merge
    assert snap.counter_total("gufi_walker_items_total") > 0
    # the parent's whole-query span is the only query.run recorded
    assert snap.counter("gufi_query_runs_total", kind="query.run") == 1


def test_walk_stats_account_for_all_workers(plain_index):
    with QueryEngine(
        plain_index, nthreads=NTHREADS, processes=PROCESSES
    ) as multi:
        result = multi.run(Q1_LIST_PATHS)
    walk = result.walk_stats
    assert walk is not None
    assert walk.items_processed == result.dirs_visited
    assert sum(walk.items_per_thread.values()) >= result.dirs_visited
    assert len(walk.thread_completion_times) >= 2


def test_narrow_tree_falls_back_to_single_process(tmp_path):
    """A tree too narrow to shard runs single-process through the same
    sink — correct rows, no error, no deadlock."""
    t = VFSTree()
    t.create_file("/only.txt", size=10, mode=0o644, uid=0, gid=0)
    index = dir2index(
        t, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index
    with QueryEngine(index, nthreads=NTHREADS, processes=PROCESSES) as q:
        result = q.run(Q1_LIST_PATHS)
    assert [r[0] for r in result.rows] == ["/only.txt"]


# ----------------------------------------------------------------------
# Crash semantics
# ----------------------------------------------------------------------

def _kill_worker_zero(worker_id: int) -> None:
    """Module-level (hence picklable) crash hook: worker 0 dies before
    doing any work, exactly like an OOM kill."""
    if worker_id == 0:
        os.kill(os.getpid(), signal.SIGKILL)


def _fail_worker_zero(worker_id: int) -> None:
    if worker_id == 0:
        raise ValueError("injected worker failure")


def test_killed_worker_counts_errored_not_hang(plain_index):
    with QueryEngine(
        plain_index, nthreads=NTHREADS, processes=PROCESSES
    ) as single_ref:
        full = sorted(single_ref.run(Q1_LIST_PATHS).rows)

    with obs.enabled(metrics=True):
        with QueryEngine(
            plain_index, nthreads=NTHREADS, processes=PROCESSES
        ) as multi:
            multi._scatter().worker_init = _kill_worker_zero
            result = multi.run(Q1_LIST_PATHS)
        snap = obs.snapshot()
    # the dead worker's whole shard is accounted as errored…
    assert result.dirs_errored > 0
    assert snap.counter("gufi_scatter_worker_crashes_total") == 1
    # …and the surviving workers' rows still came through
    assert set(result.rows) < set(full)
    assert (
        result.dirs_visited + result.dirs_errored
        >= len({r[0] for r in full})  # every unit is visited or errored
    )


def test_worker_exception_reraises_in_parent(plain_index):
    with QueryEngine(
        plain_index, nthreads=NTHREADS, processes=PROCESSES
    ) as multi:
        multi._scatter().worker_init = _fail_worker_zero
        with pytest.raises(RuntimeError, match="scatter worker"):
            multi.run(Q1_LIST_PATHS)
        # the engine (and its sinks) survive a failed run
        multi._scatter().worker_init = None
        ok = multi.run(Q1_LIST_PATHS)
        assert ok.dirs_errored == 0 and ok.rows


def _sleep_half_second(worker_id: int) -> None:
    time.sleep(0.5)


def test_deadline_crosses_into_the_workers(plain_index):
    """The run's deadline is the workers' deadline: shards that start
    after it has passed stop at their first directory and the run
    raises instead of returning late rows."""
    with QueryEngine(
        plain_index, nthreads=NTHREADS, processes=PROCESSES
    ) as multi:
        multi._scatter().worker_init = _sleep_half_second
        with pytest.raises(QueryCancelled):
            multi.run(Q1_LIST_PATHS, cancel=CancelToken.after(0.2))
        ok = multi.run(Q1_LIST_PATHS, cancel=CancelToken.after(60))
        assert ok.rows and ok.dirs_errored == 0


# ----------------------------------------------------------------------
# Property: random namespaces
# ----------------------------------------------------------------------

_IDENTITIES = [(0, 0), (1001, 1001), (1003, 100)]
_DIR_MODES = [0o755, 0o700, 0o770, 0o711, 0o644]


@st.composite
def namespaces(draw) -> VFSTree:
    """Small random trees with adversarial permission shapes: private,
    group-shared, search-only, and list-only directories at both
    levels."""
    t = VFSTree()
    for i in range(draw(st.integers(2, 5))):
        uid, gid = draw(st.sampled_from(_IDENTITIES))
        t.mkdir(f"/d{i}", mode=draw(st.sampled_from(_DIR_MODES)),
                uid=uid, gid=gid)
        for j in range(draw(st.integers(0, 2))):
            t.create_file(
                f"/d{i}/f{j}", size=draw(st.integers(0, 2000)),
                mode=0o644, uid=uid, gid=gid,
            )
        for k in range(draw(st.integers(0, 2))):
            uid2, gid2 = draw(st.sampled_from(_IDENTITIES))
            t.mkdir(f"/d{i}/s{k}", mode=draw(st.sampled_from(_DIR_MODES)),
                    uid=uid2, gid=gid2)
            for j in range(draw(st.integers(0, 2))):
                t.create_file(
                    f"/d{i}/s{k}/g{j}", size=draw(st.integers(0, 2000)),
                    mode=0o640, uid=uid2, gid=gid2,
                )
    return t


@settings(max_examples=6, deadline=None)
@given(tree=namespaces(), who=st.sampled_from([w for w, _ in CREDS_CASES]))
def test_property_random_namespaces(tree, who):
    """For any generated namespace and any caller, scatter-gather
    returns the single-process rows and counters."""
    creds = dict(CREDS_CASES)[who]
    with tempfile.TemporaryDirectory() as td:
        index = dir2index(
            tree, Path(td) / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        with QueryEngine(index, creds=creds, nthreads=NTHREADS) as single, \
                QueryEngine(
                    index, creds=creds,
                    nthreads=NTHREADS, processes=PROCESSES,
                ) as multi:
            sp = single.run(Q1_LIST_PATHS)
            mp_ = multi.run(Q1_LIST_PATHS)
            assert sorted(sp.rows) == sorted(mp_.rows)
            # no plan, no cache-dependence: all six counters must agree
            assert _counters(sp) == _counters(mp_)


# ----------------------------------------------------------------------
# Fork-inherited cache staleness (ISSUE 8 satellite)
# ----------------------------------------------------------------------
# Workers forked for a run inherit the parent engine's warm index —
# DirMeta cache included — through ``_FORK_INDEX``. A run issued after
# an incremental refresh must therefore never let a child serve the
# parent's pre-refresh cache state: every inherited DirMeta is
# re-validated against the rebuilt database's stamp.


@pytest.mark.skipif(not FORK, reason="inheritance requires fork start")
class TestForkInheritedStaleness:
    def _fresh(self, tmp_path):
        from repro.fs.changelog import ChangeJournal

        tree = build_demo_tree()
        index = dir2index(
            tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        journal = ChangeJournal()
        tree.set_changelog(journal)
        return tree, index, journal

    def _cold_rows(self, index, creds=ROOT):
        with QueryEngine(index, creds=creds, nthreads=NTHREADS) as eng:
            return sorted(eng.run(Q1_LIST_PATHS).rows)

    def test_workers_see_incremental_refresh(self, tmp_path):
        from repro.core.changefeed import changefeed2index

        tree, index, journal = self._fresh(tmp_path)
        with QueryEngine(
            index, nthreads=NTHREADS, processes=PROCESSES
        ) as multi:
            before = sorted(multi.run(Q1_LIST_PATHS).rows)
            tree.create_file("/public/after-refresh.txt", size=9,
                             uid=0, gid=0)
            tree.unlink("/public/readme")
            changefeed2index(index, tree, journal,
                             opts=BuildOptions(nthreads=NTHREADS))
            after = sorted(multi.run(Q1_LIST_PATHS).rows)
            assert after != before
            assert after == self._cold_rows(index)
            flat = [str(r[0]) for r in after]
            assert any("after-refresh.txt" in p for p in flat)
            assert not any(p.endswith("/readme") for p in flat)

    def test_warm_parent_cache_not_inherited_stale(self, tmp_path):
        """Deliberately warm the parent's DirMeta cache single-process
        first, then refresh, then fork: the children inherit the warm
        (now stale) cache and must still answer post-refresh."""
        from repro.core.changefeed import changefeed2index

        tree, index, journal = self._fresh(tmp_path)
        with QueryEngine(index, nthreads=NTHREADS) as warmer:
            warmer.run(Q1_LIST_PATHS)  # fills index.cache
        tree.create_file("/proj/shared/new.dat", size=1234,
                         uid=1001, gid=100)
        changefeed2index(index, tree, journal,
                         opts=BuildOptions(nthreads=NTHREADS))
        with QueryEngine(
            index, nthreads=NTHREADS, processes=PROCESSES
        ) as multi:
            rows = sorted(multi.run(Q1_LIST_PATHS).rows)
        assert rows == self._cold_rows(index)
        assert any("new.dat" in str(r[0]) for r in rows)

    def test_foreign_handle_apply_not_masked_by_inherited_cache(
        self, tmp_path
    ):
        """The refresh lands through a *different* index handle, so no
        invalidation hook reaches the querying engine; the inherited
        DirMeta entries are stale and only stamp validation stands
        between the workers and wrong answers."""
        from repro.core.changefeed import changefeed2index
        from repro.core.index import GUFIIndex

        tree, index, journal = self._fresh(tmp_path)
        with QueryEngine(
            index, nthreads=NTHREADS, processes=PROCESSES
        ) as multi:
            multi.run(Q1_LIST_PATHS)  # warm parent + verify plumbing
            tree.create_file("/home/bob/fresh.log", size=77,
                             uid=1002, gid=1002)
            other = GUFIIndex.open(index.root)
            changefeed2index(other, tree, journal,
                             opts=BuildOptions(nthreads=NTHREADS))
            rows = sorted(multi.run(Q1_LIST_PATHS).rows)
            assert any("fresh.log" in str(r[0]) for r in rows)
            assert rows == self._cold_rows(index)
