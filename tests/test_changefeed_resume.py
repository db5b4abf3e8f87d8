"""Crash/resume for the changefeed consumer (ISSUE satellite 2).

The consumer commits its cursor only after a batch is fully applied,
and every per-directory apply goes through the atomic
``.partial``+rename publish path — so a consumer killed mid-apply
(at any fault site it reaches, ``publish`` included) restarts from
the last checkpoint, re-drains the same events, and converges to
exactly the state an uninterrupted apply produces: exactly-once
effects, no half-published databases, no lost events.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import sys
from collections import Counter

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.changefeed import changefeed2index
from repro.core.checkpoint import CURSOR_NAME, ChangefeedCheckpoint
from repro.core.index import GUFIIndex
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS, Q4_DU_TSUMMARY
from repro.core.rollup import rollup
from repro.core.tsummary import build_tsummary
from repro.fs.changelog import ChangeJournal
from repro.scan.faults import BuildCrash, FaultPlan
from repro.store import watch
from repro.store.doctor import doctor
from repro.store.layout import DB_NAME, PARTIAL_SUFFIX, is_side_artifact
from tests.conftest import (
    NTHREADS,
    build_demo_tree,
    fresh_tsummary_rows,
    tsummary_rows,
)

OPTS = BuildOptions(nthreads=NTHREADS)


def query_rows(index, start: str = "/") -> list:
    q = QueryEngine(index, nthreads=NTHREADS)
    try:
        return sorted(q.run(Q1_LIST_PATHS, start).rows)
    finally:
        q.close()


def partials_under(root) -> list[str]:
    return [
        os.path.join(d, f)
        for d, _, files in os.walk(root)
        for f in files
        if f.endswith(PARTIAL_SUFFIX)
    ]


def mutate_batch(tree) -> None:
    """A batch dirtying several directories, including a pre-existing
    subtree move (so replay exercises the idempotent-move path)."""
    tree.create_file("/home/alice/n1.dat", size=10, mode=0o600,
                     uid=1001, gid=1001)
    tree.create_file("/home/bob/n2.dat", size=20, uid=1002, gid=1002)
    tree.create_file("/proj/shared/n3.c", size=30, mode=0o660,
                     uid=1001, gid=100)
    tree.create_file("/public/n4.txt", size=40, uid=0, gid=0)
    tree.chmod("/public/xonly", 0o700)
    tree.rename("/public/ronly", "/proj/ronly")


def setup(tmp_path, name="idx"):
    tree = build_demo_tree()
    index = dir2index(tree, tmp_path / name, opts=OPTS).index
    journal = ChangeJournal()
    tree.set_changelog(journal)
    return tree, index, journal


def mutate_matrix_batch(tree) -> None:
    """:func:`mutate_batch` plus what makes an apply reach every kind of
    publish: a cross-depth move (``_fix_depths`` rewrites the moved
    database) and an xattr that lands in a side shard."""
    mutate_batch(tree)
    tree.rename("/home/bob/secret", "/proj/secret")
    tree.setxattr("/proj/shared/data/d.h5", "user.tag", b"v")


def summary_depths(index) -> dict[str, int]:
    """Each directory's own ``summary.depth``."""
    out = {}
    for sp, _names in index.iter_tree():
        conn = index.store(sp).open_ro()
        try:
            (out[sp],) = conn.execute(
                "SELECT depth FROM summary WHERE isroot = 1 AND rectype = 0"
            ).fetchone()
        finally:
            conn.close()
    return out


def index_state(index) -> tuple:
    """What a resumed apply must agree on with a fresh build: Q1 rows
    for the root and alice, the root's tree-summary rows and every
    directory's depth."""
    return (
        query_rows(index),
        query_rows(index, "/home/alice"),
        tsummary_rows(index.root),
        summary_depths(index),
    )


def _caller_names() -> set[str]:
    frame, names = sys._getframe(), set()
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return names


def publish_kind(key: str) -> str:
    """What a ``publish`` fault key names: the cursor, a side shard, a
    moved index directory, or a ``db.db`` — told apart by its writer."""
    name = os.path.basename(key)
    if name == CURSOR_NAME:
        return "cursor"
    if is_side_artifact(name):
        return "side artifact"
    if name != DB_NAME:
        return "moved directory"
    callers = _caller_names()
    for writer, kind in (
        ("_fix_depths", "depth fix"),
        ("build_tsummary", "tree summary"),
        ("unrollup_dir", "unroll"),
        ("_build_dir_db", "rebuild"),
    ):
        if writer in callers:
            return kind
    raise AssertionError(f"publish of {key} by an unknown writer")


class Census(FaultPlan):
    """An empty plan that counts each site's invocations and records
    the kind of every published path."""

    def __init__(self) -> None:
        super().__init__()
        self.counts: Counter[str] = Counter()
        self.kinds: set[str] = set()

    def fire(self, site: str, key: str | None = None) -> None:
        self.counts[site] += 1
        if site == "publish":
            self.kinds.add(publish_kind(key))
        super().fire(site, key)


class CrashMatrix:
    """One apply of :func:`mutate_matrix_batch` to an index with a root
    tree summary (flat or rolled), and what to kill it at: every
    (site, invocation) an uninterrupted run reaches."""

    def __init__(self, root, rolled: bool) -> None:
        self.root = root
        tree, index, _journal = setup(root, "template")
        if rolled:
            rollup(index, nthreads=NTHREADS)
        build_tsummary(index, "/", per_user_group=True)
        self.template = index.root
        tree, index, journal = self.case("census")
        census = Census()
        changefeed2index(index, tree, journal, opts=OPTS, faults=census)
        self.kinds = census.kinds
        self.counts = dict(census.counts)
        fresh = dir2index(tree, root / "fresh", opts=OPTS).index
        build_tsummary(fresh, "/", per_user_group=True)
        self.expected = index_state(fresh)
        assert index_state(index) == self.expected
        self.emitted = journal.head
        self.cases = 0

    def case(self, name: str):
        """A copy of the template index and a live tree whose journal
        holds the batch."""
        dest = self.root / name
        shutil.copytree(self.template, dest, symlinks=True)
        tree = build_demo_tree()
        journal = ChangeJournal()
        tree.set_changelog(journal)
        mutate_matrix_batch(tree)
        return tree, GUFIIndex.open(dest), journal

    def kill_and_resume(self, site: str, n: int):
        """Kill the apply at the ``n``-th ``site``, resume it on the same
        handle, and check it against the fresh build."""
        self.cases += 1
        tree, index, journal = self.case(f"{self.cases}-{site}-{n}")
        with pytest.raises(BuildCrash):
            changefeed2index(
                index, tree, journal, opts=OPTS,
                faults=FaultPlan.crash_at(site, n),
            )
        crashed = ChangefeedCheckpoint(index.root).load_state()
        assert len(journal) == self.emitted  # nothing acknowledged
        resumed = changefeed2index(index, tree, journal, opts=OPTS)
        assert resumed.events_applied == resumed.cursor == self.emitted
        assert ChangefeedCheckpoint(index.root).load_state() == (
            self.emitted, []
        ), (site, n)
        assert len(journal) == 0
        assert index_state(index) == self.expected, (site, n)
        assert partials_under(index.root) == [], (site, n)
        assert doctor(index).healthy, (site, n)
        return index, tree, journal, crashed, resumed


@pytest.fixture(scope="module")
def matrices(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrix")
    return {
        rolled: CrashMatrix(root / ("rolled" if rolled else "flat"), rolled)
        for rolled in (False, True)
    }


class TestCrashMidApply:
    """Kill one apply at every fault site and invocation it reaches,
    then resume: the result is a fresh build's."""

    @pytest.mark.parametrize("rolled", [False, True], ids=["flat", "rolled"])
    def test_publish_reaches_every_path_kind(self, matrices, rolled):
        kinds = {
            "side artifact", "rebuild", "tree summary", "depth fix",
            "moved directory", "cursor",
        }
        if rolled:
            kinds.add("unroll")
        assert matrices[rolled].kinds == kinds

    @pytest.mark.parametrize("rolled", [False, True], ids=["flat", "rolled"])
    def test_every_site_and_invocation(self, matrices, rolled):
        matrix = matrices[rolled]
        sites = {"build_dir_db", "build_dir_db.commit", "xattr_shards", "publish"}
        if rolled:
            sites.add("unrollup_dir")
        assert set(matrix.counts) == sites
        before = matrix.cases
        for site, count in sorted(matrix.counts.items()):
            for n in range(1, count + 1):
                matrix.kill_and_resume(site, n)
        assert matrix.cases - before == sum(matrix.counts.values())

    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_kill_resume_exactly_once(self, matrices, frac):
        """The matrix's cases at 25/50/75 % of the rebuilds, with what
        the crashed apply leaves and a third, no-op run."""
        matrix = matrices[False]
        n_rebuilds = matrix.counts["build_dir_db"]
        assert n_rebuilds >= 4  # the fractions below must differ
        index, tree, journal, crashed, resumed = matrix.kill_and_resume(
            "build_dir_db", max(1, int(n_rebuilds * frac))
        )
        # nothing acknowledged: cursor still at 0, the root's refresh owed
        assert crashed == (0, ["/"])
        assert resumed.tsummary_refreshed == 1
        assert tsummary_rows(index.root) == fresh_tsummary_rows(index.root)
        assert changefeed2index(index, tree, journal, opts=OPTS).events_applied == 0

    def test_crash_at_commit_publishes_nothing_half(self, tmp_path):
        """Worst case: the rebuild dies with the staging file fully
        written but not yet renamed — the victim directory must still
        answer from its pre-crash database, subtree included (a missing
        ``db.db`` would hide both until the batch is replayed), never
        from a torn write; resume converges anyway."""
        tree, index, journal = setup(tmp_path)
        before = {
            d: query_rows(index, d) for d in ("/home/alice", "/home/alice/sub")
        }
        assert all(before.values())
        mutate_batch(tree)
        with pytest.raises(BuildCrash):
            changefeed2index(
                index, tree, journal,
                opts=BuildOptions(nthreads=1),
                faults=FaultPlan.crash_at("build_dir_db.commit", 1),
            )
        # the victim — first of the sorted dirty set — was staged only
        victims = {os.path.dirname(p) for p in partials_under(index.root)}
        assert victims == {index.index_path("/home/alice")}
        for d, rows in before.items():
            assert query_rows(index, d) == rows
        assert set(before["/home/alice/sub"]) <= set(query_rows(index, "/"))
        resumed = changefeed2index(index, tree, journal, opts=OPTS)
        assert resumed.events_applied == journal.head
        assert partials_under(index.root) == []
        assert doctor(index).healthy
        fresh = dir2index(tree, tmp_path / "fresh", opts=OPTS).index
        assert query_rows(index) == query_rows(fresh)

    def test_repeated_crashes_still_converge(self, tmp_path):
        """Crash on every single rebuild attempt in turn; each restart
        makes progress-free replays safe until a clean run lands."""
        tree, index, journal = setup(tmp_path)
        mutate_batch(tree)
        for kill_at in (1, 1, 2):
            with pytest.raises(BuildCrash):
                changefeed2index(
                    index, tree, journal, opts=OPTS,
                    faults=FaultPlan.crash_at("build_dir_db", kill_at),
                )
        resumed = changefeed2index(index, tree, journal, opts=OPTS)
        assert resumed.cursor == journal.head == resumed.events_applied
        fresh = dir2index(tree, tmp_path / "fresh", opts=OPTS).index
        assert query_rows(index) == query_rows(fresh)


class TestPendingTsummary:
    def test_tsummary_owed_after_crash_is_refreshed_on_resume(
        self, tmp_path
    ):
        """A rebuild destroys the tsummary rows used to detect roots;
        the checkpoint records them *before* the rebuild phase, so a
        crashed apply still owes — and a resumed one delivers — the
        refresh."""
        tree, index, journal = setup(tmp_path)
        build_tsummary(index, "/", per_user_group=True)
        mutate_batch(tree)
        with pytest.raises(BuildCrash):
            changefeed2index(
                index, tree, journal, opts=OPTS,
                faults=FaultPlan.crash_at("build_dir_db", 2),
            )
        cursor, pending = ChangefeedCheckpoint(index.root).load_state()
        assert cursor == 0
        assert "/" in pending

        resumed = changefeed2index(index, tree, journal, opts=OPTS)
        assert resumed.tsummary_refreshed >= 1
        cursor, pending = ChangefeedCheckpoint(index.root).load_state()
        assert cursor == journal.head
        assert pending == []
        assert tsummary_rows(index.root) == fresh_tsummary_rows(index.root)
        fresh = dir2index(tree, tmp_path / "fresh", opts=OPTS).index
        build_tsummary(fresh, "/", per_user_group=True)
        assert tsummary_rows(index.root) == tsummary_rows(fresh.root)
        q_inc = QueryEngine(index, nthreads=NTHREADS)
        q_new = QueryEngine(fresh, nthreads=NTHREADS)
        assert sorted(q_inc.run(Q4_DU_TSUMMARY).rows) == sorted(
            q_new.run(Q4_DU_TSUMMARY).rows
        )
        q_inc.close()
        q_new.close()


class TestAncestorReads:
    """An apply reads each dirty directory's ancestors through the
    handle's cache after one drain: a missing database is skipped, an
    unreadable one raises — it is never taken for un-rolled."""

    @pytest.mark.parametrize("armed", [False, True], ids=["cold", "armed"])
    def test_corrupt_ancestor_raises(self, tmp_path, monkeypatch, armed):
        tree, index, journal = setup(tmp_path)
        if armed:  # every record cached clean before the corruption
            monkeypatch.setattr(watch, "fs_supported", lambda path: True)
            index.arm_watch()
            assert index.watched
            query_rows(index)
        index.db_path("/home").write_bytes(b"not a database" * 8)
        tree.create_file("/home/alice/n.dat", size=1, mode=0o600,
                         uid=1001, gid=1001)
        with pytest.raises(sqlite3.DatabaseError):
            changefeed2index(index, tree, journal, opts=OPTS)


class TestCheckpointUnit:
    def test_missing_reads_as_zero(self, tmp_path):
        assert ChangefeedCheckpoint(tmp_path).load() == 0

    def test_corrupt_reads_as_zero(self, tmp_path):
        ckpt = ChangefeedCheckpoint(tmp_path)
        ckpt.cursor_path.write_text("{not json", encoding="utf-8")
        assert ckpt.load_state() == (0, [])

    def test_commit_roundtrip(self, tmp_path):
        ckpt = ChangefeedCheckpoint(tmp_path)
        ckpt.commit(42, pending_tsummary=["/b", "/a"])
        assert ckpt.load_state() == (42, ["/a", "/b"])
        ckpt.commit(43)
        assert ckpt.load_state() == (43, [])
        ckpt.clear()
        assert ckpt.load() == 0
        ckpt.clear()  # idempotent
