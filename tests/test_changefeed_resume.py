"""Crash/resume for the changefeed consumer (ISSUE satellite 2).

The consumer commits its cursor only after a batch is fully applied,
and every per-directory apply goes through the atomic
``.partial``+rename publish path — so a consumer killed mid-apply
(fault sites ``build_dir_db`` / ``build_dir_db.commit``) restarts from
the last checkpoint, re-drains the same events, and converges to
exactly the state an uninterrupted apply produces: exactly-once
effects, no half-published databases, no lost events.
"""

from __future__ import annotations

import os

import pytest

from repro.core.build import PARTIAL_SUFFIX, BuildOptions, dir2index
from repro.core.changefeed import changefeed2index
from repro.core.checkpoint import ChangefeedCheckpoint
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS, Q4_DU_TSUMMARY
from repro.core.tsummary import build_tsummary
from repro.fs.changelog import ChangeJournal
from repro.scan.faults import BuildCrash, FaultPlan
from repro.store.doctor import doctor
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


class TestCrashMidApply:
    """Kill the apply at 25/50/75% of its directory rebuilds."""

    def _reference_dirs_rebuilt(self, tmp_path) -> int:
        tree, index, journal = setup(tmp_path, "ref")
        mutate_batch(tree)
        return changefeed2index(index, tree, journal, opts=OPTS).dirs_rebuilt

    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_kill_resume_exactly_once(self, tmp_path, frac):
        n_rebuilds = self._reference_dirs_rebuilt(tmp_path)
        assert n_rebuilds >= 4  # the fractions below must differ
        tree, index, journal = setup(tmp_path)
        # a root tsummary, built on the handle the crashed and the
        # resumed apply share: the resume folds what this memoised
        build_tsummary(index, "/", per_user_group=True)
        mutate_batch(tree)
        emitted = journal.head

        kill_at = max(1, int(n_rebuilds * frac))
        with pytest.raises(BuildCrash):
            changefeed2index(
                index, tree, journal, opts=OPTS,
                faults=FaultPlan.crash_at("build_dir_db", kill_at),
            )
        # nothing acknowledged: cursor still at 0, every event retained
        # (and the root's refresh owed)
        assert ChangefeedCheckpoint(index.root).load_state() == (0, ["/"])
        assert len(journal) == emitted

        resumed = changefeed2index(index, tree, journal, opts=OPTS)
        assert resumed.tsummary_refreshed == 1
        assert tsummary_rows(index.root) == fresh_tsummary_rows(index.root)
        # the whole batch was re-drained and applied once, effectively
        assert resumed.events_applied == emitted
        assert resumed.cursor == emitted
        assert ChangefeedCheckpoint(index.root).load() == emitted
        assert len(journal) == 0  # acknowledged after commit
        assert partials_under(index.root) == []
        fresh = dir2index(tree, tmp_path / "fresh", opts=OPTS).index
        assert query_rows(index) == query_rows(fresh)

        # and a third run is a clean no-op
        again = changefeed2index(index, tree, journal, opts=OPTS)
        assert again.events_applied == 0

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
