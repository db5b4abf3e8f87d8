"""Crash-safe resumable builds: the acceptance suite.

The contract under test (ISSUE tentpole): a seeded fault plan that
kills the build at 25%/50%/75% of directories, followed by a
``resume=True`` run, yields query results identical to an
uninterrupted build — deterministically — and leaves no ``.partial``
staging files or journal behind.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build import (
    PARTIAL_SUFFIX,
    BuildOptions,
    build_from_stanzas,
    dir2index,
)
from repro.core.checkpoint import JOURNAL_NAME, BuildJournal
from repro.core.index import GUFIIndex
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS
from repro.gen.datasets import dataset2
from repro.scan.faults import BuildCrash, FaultPlan, InjectedFault
from repro.scan.scanners import TreeWalkScanner
from repro.scan.walker import RetryPolicy
from repro.store import layout
from tests.conftest import NTHREADS, build_demo_tree


def query_rows(index) -> list:
    """Sorted full-tree path listing — the identity oracle."""
    return sorted(QueryEngine(index, nthreads=NTHREADS).run(Q1_LIST_PATHS).rows)


def partials_under(root) -> list[str]:
    return [
        os.path.join(d, f)
        for d, _, files in os.walk(root)
        for f in files
        if f.endswith(PARTIAL_SUFFIX)
    ]


def demo_stanzas():
    return TreeWalkScanner(build_demo_tree(), nthreads=1).scan("/").stanzas


class TestCrashResumeAcceptance:
    """The headline guarantee, from trace-shaped stanzas."""

    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_kill_and_resume_identical(self, tmp_path, frac):
        stanzas = demo_stanzas()
        baseline = build_from_stanzas(
            stanzas, tmp_path / "full", BuildOptions(nthreads=NTHREADS)
        )
        want = query_rows(baseline.index)

        kill_at = max(1, int(len(stanzas) * frac))
        root = tmp_path / "killed"
        with pytest.raises(BuildCrash):
            build_from_stanzas(
                stanzas, root,
                BuildOptions(
                    nthreads=NTHREADS,
                    faults=FaultPlan.crash_at("build_dir_db", kill_at),
                ),
            )
        # the crash left a journal behind (that is the resume signal)
        assert (root / JOURNAL_NAME).exists()

        resumed = build_from_stanzas(
            stanzas, root, BuildOptions(nthreads=NTHREADS, resume=True)
        )
        assert resumed.ok
        assert query_rows(resumed.index) == want
        # every stanza is accounted for: skipped (journaled) + rebuilt
        assert resumed.dirs_skipped + resumed.dirs_created == len(stanzas)
        assert resumed.dirs_skipped >= kill_at - 1
        # clean finish: no staging residue, no journal
        assert partials_under(root) == []
        assert not (root / JOURNAL_NAME).exists()

    def test_crash_point_deterministic_across_runs(self, tmp_path):
        """Two runs with the same seeded plan die at the same
        invocation and resume to the same result."""
        stanzas = demo_stanzas()
        fired = []
        rows = []
        for run in ("a", "b"):
            root = tmp_path / run
            plan = FaultPlan.crash_at("build_dir_db", 6)
            with pytest.raises(BuildCrash):
                build_from_stanzas(
                    stanzas, root, BuildOptions(nthreads=NTHREADS, faults=plan)
                )
            fired.append([(f.site, f.invocation) for f in plan.fired])
            resumed = build_from_stanzas(
                stanzas, root, BuildOptions(nthreads=NTHREADS, resume=True)
            )
            rows.append(query_rows(resumed.index))
        assert fired[0] == fired[1] == [("build_dir_db", 6)]
        assert rows[0] == rows[1]

    def test_crash_at_commit_point_publishes_nothing(self, tmp_path):
        """The worst crash point — all temp files written, renames not
        yet performed — leaves no visible db.db for that directory."""
        stanzas = demo_stanzas()
        root = tmp_path / "idx"
        plan = FaultPlan.crash_at("build_dir_db.commit", 3)
        # single-threaded so "exactly 2 commits completed" is exact:
        # in-flight work on other threads is allowed to finish
        with pytest.raises(BuildCrash):
            build_from_stanzas(
                stanzas, root, BuildOptions(nthreads=1, faults=plan)
            )
        # exactly the commits that ran to completion are visible
        visible = sum(
            1 for d, _, files in os.walk(root) if "db.db" in files
        )
        assert visible == 2  # commit #3 died before its rename
        resumed = build_from_stanzas(
            stanzas, root, BuildOptions(nthreads=NTHREADS, resume=True)
        )
        assert resumed.dirs_skipped == 2
        assert resumed.dirs_created == len(stanzas) - 2
        assert partials_under(root) == []

    def test_dir2index_crash_and_resume(self, tmp_path):
        """Same guarantee on the in-situ scan path."""
        tree = build_demo_tree()
        full = dir2index(
            tree, tmp_path / "full", opts=BuildOptions(nthreads=NTHREADS)
        )
        want = query_rows(full.index)
        root = tmp_path / "killed"
        with pytest.raises(BuildCrash):
            dir2index(
                tree, root,
                opts=BuildOptions(
                    nthreads=NTHREADS,
                    faults=FaultPlan.crash_at("build_dir_db", 5),
                ),
            )
        resumed = dir2index(
            tree, root, opts=BuildOptions(nthreads=NTHREADS, resume=True)
        )
        assert resumed.ok
        # at least the 4 dirs published before the 5th entry crashed
        # are skipped (threads may have finished in-flight extras)
        assert resumed.dirs_skipped >= 4
        assert resumed.dirs_skipped + resumed.dirs_created == tree.num_dirs
        assert query_rows(resumed.index) == want
        assert partials_under(root) == []
        assert not (root / JOURNAL_NAME).exists()

    def test_resume_on_fresh_root_builds_everything(self, tmp_path):
        """resume=True with no journal is just a normal build."""
        stanzas = demo_stanzas()
        result = build_from_stanzas(
            stanzas, tmp_path / "idx", BuildOptions(nthreads=NTHREADS, resume=True)
        )
        assert result.ok
        assert result.dirs_skipped == 0
        assert result.dirs_created == len(stanzas)


class TestStructuredErrorsAndResume:
    def test_permanent_error_then_resume_finishes(self, tmp_path):
        """A directory that exhausts its retries lands in errors; the
        journal survives, and a later resume (fault healed) skips all
        the finished work and completes the index."""
        stanzas = demo_stanzas()
        victim = stanzas[4].directory.path
        root = tmp_path / "idx"
        result = build_from_stanzas(
            stanzas, root,
            BuildOptions(
                nthreads=NTHREADS,
                retry=RetryPolicy(retries=1, sleep=lambda s: None),
                faults=FaultPlan.flaky_paths("build_dir_db", [victim], times=10),
            ),
        )
        assert not result.ok
        assert [p for p, _ in result.errors] == [victim]
        assert isinstance(result.errors[0][1], InjectedFault)
        assert result.dirs_created == len(stanzas) - 1
        assert (root / JOURNAL_NAME).exists()

        resumed = build_from_stanzas(
            stanzas, root, BuildOptions(nthreads=NTHREADS, resume=True)
        )
        assert resumed.ok
        assert resumed.dirs_skipped == len(stanzas) - 1
        assert resumed.dirs_created == 1
        want = query_rows(
            build_from_stanzas(
                stanzas, tmp_path / "full", BuildOptions(nthreads=NTHREADS)
            ).index
        )
        assert query_rows(resumed.index) == want
        assert not (root / JOURNAL_NAME).exists()

    def test_transient_error_retried_in_place(self, tmp_path):
        """A fault that heals within the retry budget never surfaces:
        the build is clean, only the retry counter betrays it."""
        stanzas = demo_stanzas()
        victim = stanzas[2].directory.path
        result = build_from_stanzas(
            stanzas, tmp_path / "idx",
            BuildOptions(
                nthreads=NTHREADS,
                retry=RetryPolicy(retries=2, sleep=lambda s: None),
                faults=FaultPlan.flaky_paths("build_dir_db", [victim], times=2),
            ),
        )
        assert result.ok
        assert result.dirs_retried == 2
        assert result.dirs_created == len(stanzas)


class TestXattrShardFault:
    """Satellite: a failure while writing xattr side databases must not
    publish a half-committed directory (db.db renames last)."""

    def _xattr_tree(self):
        """Demo tree with xattrs that *must* shard into side databases:
        values on files whose owner/group differ from the parent
        directory (placement rules 3 and 4, not rule-2 main rows)."""
        t = build_demo_tree()
        # /proj/shared/data is owned by 1001; d.h5 by 1003 -> per-user db
        t.setxattr("/proj/shared/data/d.h5", "user.tag", b"v1")
        # different owner AND group -> per-user + per-group-readable dbs
        t.create_file("/proj/shared/q.log", size=10, mode=0o640, uid=1002, gid=1002)
        t.setxattr("/proj/shared/q.log", "user.tag", b"v2")
        return t

    def test_shard_fault_leaves_no_visible_db(self, tmp_path):
        tree = self._xattr_tree()
        root = tmp_path / "idx"
        result = dir2index(
            tree, root,
            opts=BuildOptions(
                nthreads=1,
                retry=None,
                faults=FaultPlan.io_at("xattr_shards", 1),
            ),
        )
        assert len(result.errors) == 1
        bad_path, exc = result.errors[0]
        assert isinstance(exc, InjectedFault)
        # the failed directory has NO visible database: neither db.db
        # nor any published side shard — queries see pure absence
        bad_dir = result.index.index_dir(bad_path)
        visible = [
            f for f in os.listdir(bad_dir)
            if not f.endswith(PARTIAL_SUFFIX) and f.endswith(".db")
        ]
        assert visible == []

    def test_shard_fault_resume_completes_identically(self, tmp_path):
        tree = self._xattr_tree()
        full = dir2index(
            tree, tmp_path / "full", opts=BuildOptions(nthreads=NTHREADS)
        )
        want = query_rows(full.index)
        root = tmp_path / "idx"
        dir2index(
            tree, root,
            opts=BuildOptions(
                nthreads=1,
                retry=None,
                faults=FaultPlan.io_at("xattr_shards", 1),
            ),
        )
        resumed = dir2index(
            tree, root, opts=BuildOptions(nthreads=NTHREADS, resume=True)
        )
        assert resumed.ok
        assert query_rows(resumed.index) == want
        assert partials_under(root) == []
        # side databases were published for the xattr-bearing dirs
        assert resumed.side_dbs_created >= 1

    def test_shard_fault_healed_by_retry(self, tmp_path):
        tree = self._xattr_tree()
        result = dir2index(
            tree, tmp_path / "idx",
            opts=BuildOptions(
                nthreads=1,
                retry=RetryPolicy(retries=2, sleep=lambda s: None),
                faults=FaultPlan.io_at("xattr_shards", 1),
            ),
        )
        assert result.ok
        assert result.dirs_retried == 1


class TestJournal:
    def test_truncated_trailing_line_skipped(self, tmp_path):
        j = BuildJournal.open(tmp_path, source="t")
        j.record("/a", (1, 2, 3), 5, 0)
        j.record("/b", (4, 5, 6), 7, 1)
        j.close()
        # simulate a crash landing mid-append
        with open(tmp_path / JOURNAL_NAME, "a", encoding="utf-8") as fh:
            fh.write('{"path": "/c", "stamp": [9')
        loaded = BuildJournal.load(tmp_path)
        assert set(loaded) == {"/a", "/b"}
        assert loaded["/a"].stamp == (1, 2, 3)
        assert loaded["/b"].side_dbs == 1

    def test_later_records_win(self, tmp_path):
        j = BuildJournal.open(tmp_path, source="t")
        j.record("/a", (1, 1, 1), 1, 0)
        j.record("/a", (2, 2, 2), 9, 0)
        j.close()
        assert BuildJournal.load(tmp_path)["/a"].stamp == (2, 2, 2)

    def test_is_complete_requires_matching_stamp(self, tmp_path):
        db = tmp_path / "db.db"
        db.write_bytes(b"x" * 64)
        j = BuildJournal.open(tmp_path, source="t")
        j.record("/a", layout.file_stamp(db), 1, 0)
        assert j.is_complete("/a", db)
        assert not j.is_complete("/missing", db)
        db.write_bytes(b"y" * 128)  # rewritten out-of-band
        assert not j.is_complete("/a", db)
        j.close()

    def test_fresh_build_truncates_stale_journal(self, tmp_path):
        j = BuildJournal.open(tmp_path, source="old")
        j.record("/stale", (1, 1, 1), 1, 0)
        j.close()
        j2 = BuildJournal.open(tmp_path, resume=False, source="new")
        j2.close()
        assert BuildJournal.load(tmp_path) == {}

    def test_resume_rebuilds_tampered_database(self, tmp_path):
        """A journaled directory whose db.db was rewritten out-of-band
        fails stamp validation and is rebuilt on resume."""
        stanzas = demo_stanzas()
        root = tmp_path / "idx"
        with pytest.raises(BuildCrash):
            build_from_stanzas(
                stanzas, root,
                BuildOptions(
                    nthreads=NTHREADS,
                    faults=FaultPlan.crash_at("build_dir_db", 8),
                ),
            )
        journaled = list(BuildJournal.load(root))
        victim = journaled[0]
        victim_db = GUFIIndex.open(root).db_path(victim)
        victim_db.write_bytes(b"corrupted")
        resumed = build_from_stanzas(
            stanzas, root, BuildOptions(nthreads=NTHREADS, resume=True)
        )
        assert resumed.ok
        assert resumed.dirs_skipped == len(journaled) - 1
        want = query_rows(
            build_from_stanzas(
                stanzas, tmp_path / "full", BuildOptions(nthreads=NTHREADS)
            ).index
        )
        assert query_rows(resumed.index) == want


class TestCrashResumeProperty:
    """Satellite: for random namespaces and a random (seeded) crash
    point, crash + resume is indistinguishable from never crashing."""

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_resume_identical_to_uninterrupted(self, seed):
        rng = random.Random(seed)
        ns = dataset2(scale=0.00003, seed=seed)
        stanzas = TreeWalkScanner(ns.tree, nthreads=1).scan("/").stanzas
        kill_at = rng.randint(1, len(stanzas))
        base = tempfile.mkdtemp(prefix="resume_prop_")
        try:
            baseline = build_from_stanzas(
                stanzas, f"{base}/full", BuildOptions(nthreads=NTHREADS)
            )
            want = query_rows(baseline.index)
            root = f"{base}/killed"
            with pytest.raises(BuildCrash):
                build_from_stanzas(
                    stanzas, root,
                    BuildOptions(
                        nthreads=NTHREADS,
                        faults=FaultPlan.crash_at("build_dir_db", kill_at),
                    ),
                )
            resumed = build_from_stanzas(
                stanzas, root, BuildOptions(nthreads=NTHREADS, resume=True)
            )
            assert resumed.ok
            assert query_rows(resumed.index) == want
            assert resumed.dirs_skipped + resumed.dirs_created == len(stanzas)
            assert partials_under(root) == []
            assert not os.path.exists(os.path.join(root, JOURNAL_NAME))
        finally:
            shutil.rmtree(base, ignore_errors=True)
