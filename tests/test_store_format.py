"""Store format v2 beside v1: one matrix.

{fresh v2, v1 (built from the frozen v1 templates), v1 → ``index
migrate``, mixed (v1 + ``changefeed2index``, which publishes v2
databases among the v1 ones)} × {flat, rolled} × {root, two users}
must be indistinguishable to every reader: Q1–Q3, the xattr search,
``du --tsummary`` at ``/`` and at a subtree, where the ``T`` stage
prunes, and the traversal counters. Then what only migration and the
templates themselves can get wrong.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.changefeed import changefeed2index
from repro.core.engine import QueryEngine
from repro.core.index import GUFIIndex
from repro.core.query import (
    Q1_LIST_PATHS,
    Q2_DIR_SIZES,
    Q3_DU_SUMMARIES,
    Q4_DU_TSUMMARY,
    QuerySpec,
)
from repro.core.rollup import rollup
from repro.core.tools import GUFITools
from repro.core.tsummary import build_tsummary
from repro.fs.changelog import ChangeJournal
from repro.fs.permissions import ROOT
from repro.scan.faults import BuildCrash, FaultPlan
from repro.store import connect, schema
from repro.store.doctor import doctor
from repro.store.layout import DirStore
from repro.store.migrate import FAULT_SITE, migrate_index
from tests.conftest import ALICE, BOB, NTHREADS, build_demo_tree, tsummary_rows
from tests.v1_format import V1_TEMPLATES, writing_v1

OPTS = BuildOptions(nthreads=NTHREADS)
XATTR_SEARCH = QuerySpec(E="SELECT name, exattrs FROM xpentries", xattrs=True)
SPECS = {
    "q1": Q1_LIST_PATHS,
    "q2": Q2_DIR_SIZES,
    "q3": Q3_DU_SUMMARIES,
    "xattr": XATTR_SEARCH,
    "q4": Q4_DU_TSUMMARY,
}
CREDS = {"root": ROOT, "alice": ALICE, "bob": BOB}
FORMATS = ("v2", "v1", "migrated", "mixed")
#: where ``bfti`` is asked: the root and one subtree
TS_ROOTS = ("/", "/home")


def tree_before():
    """The demo tree with xattrs that shard (a foreign-owned file in a
    group area) and ones that do not."""
    t = build_demo_tree()
    t.setxattr("/home/alice/a.txt", "user.tag", b"mine")
    t.setxattr("/proj/shared/data/d.h5", "user.run", b"r17")  # carol's, sharded
    t.setxattr("/home/bob/b.txt", "user.note", b"bobs")
    return t


def mutate(t) -> None:
    """What the mixed index sees through the changefeed and the other
    three see in the scan: file and directory events, a cross-depth
    directory move, an xattr change."""
    t.create_file("/home/bob/new.txt", size=999, mode=0o644, uid=1002, gid=1002)
    t.unlink("/public/readme")
    t.mkdir("/proj/shared/runs", mode=0o770, uid=1001, gid=100)
    t.create_file("/proj/shared/runs/r1", size=11, mode=0o660, uid=1003, gid=100)
    t.setxattr("/proj/shared/runs/r1", "user.run", b"r18")
    t.rename("/home/alice/sub", "/public/sub")
    t.chmod("/public/sub", 0o755)
    t.setxattr("/home/alice/a.txt", "user.tag", b"still mine")


def finish(index: GUFIIndex, rolled: bool) -> GUFIIndex:
    if rolled:
        rollup(index, nthreads=NTHREADS)
    for start in TS_ROOTS:
        build_tsummary(index, start)
    return index


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """``{(format, rolled): index root}``, every index describing the
    same (mutated) tree."""
    base = tmp_path_factory.mktemp("formats")
    roots: dict[tuple[str, bool], Path] = {}
    for rolled in (False, True):
        tag = "rolled" if rolled else "flat"
        tree = tree_before()
        journal = ChangeJournal()
        tree.set_changelog(journal)
        # mixed: a finished v1 index, then the changefeed
        with writing_v1():
            mixed = finish(
                dir2index(tree, base / f"mixed-{tag}", opts=OPTS).index, rolled
            )
        mutate(tree)
        applied = changefeed2index(mixed, tree, journal, opts=OPTS)
        assert applied.dirs_rebuilt and applied.dirs_moved
        assert applied.tsummary_refreshed == len(TS_ROOTS)
        roots["mixed", rolled] = finish(mixed, rolled).root
        assert set(doctor(mixed).versions) == {1, 2}
        # the other three scan the mutated tree
        roots["v2", rolled] = finish(
            dir2index(tree, base / f"v2-{tag}", opts=OPTS).index, rolled
        ).root
        with writing_v1():
            v1 = finish(dir2index(tree, base / f"v1-{tag}", opts=OPTS).index, rolled)
        roots["v1", rolled] = v1.root
        assert doctor(v1).versions == {1: v1.count_dbs()}
        migrated = base / f"migrated-{tag}"
        shutil.copytree(v1.root, migrated)
        result = migrate_index(migrated)
        assert result.ok and result.dirs_migrated == result.dirs_seen
        roots["migrated", rolled] = migrated
    return roots


def read(root: Path, creds, spec, start="/"):
    with QueryEngine(GUFIIndex.open(root), creds=creds, nthreads=NTHREADS) as q:
        r = q.run(spec, start)
    return sorted(r.rows), (r.dirs_visited, r.dirs_denied, r.dbs_opened)


@pytest.mark.parametrize("rolled", (False, True), ids=("flat", "rolled"))
@pytest.mark.parametrize("who", CREDS)
class TestFormatsReadAlike:
    def test_rows_and_counters(self, matrix, rolled, who):
        for name, spec in SPECS.items():
            for start in ("/", "/home"):
                got = {
                    fmt: read(matrix[fmt, rolled], CREDS[who], spec, start)
                    for fmt in FORMATS
                }
                assert all(g == got["v2"] for g in got.values()), (name, start)
        rows, _ = read(matrix["v2", rolled], CREDS[who], Q1_LIST_PATHS)
        # the created file and the moved, now world-readable, directory
        assert {("/home/bob/new.txt",), ("/public/sub/deep.dat",)} <= set(rows)

    def test_du_with_tsummary(self, matrix, rolled, who):
        for start in ("/", "/home", "/proj"):
            got = set()
            for fmt in FORMATS:
                index = GUFIIndex.open(matrix[fmt, rolled])
                with GUFITools(index, CREDS[who], nthreads=NTHREADS) as tools:
                    got.add((tools.du(start, use_tsummary=True), tools.du(start)))
            assert len(got) == 1, (start, got)

    def test_t_stage_prunes_where_bfti_was_asked(self, matrix, rolled, who):
        """``T`` answers at the tree-summary roots and stops there; a
        start with no tree summary above its directories descends."""
        keep_going = QuerySpec(T=Q4_DU_TSUMMARY.T, t_no_prune=True)
        for fmt in FORMATS:
            root = matrix[fmt, rolled]
            rows, (visited, _denied, opened) = read(root, CREDS[who], Q4_DU_TSUMMARY)
            assert len(rows) == 1 and visited == opened == 1, fmt
            rows, (visited, _denied, _opened) = read(root, CREDS[who], keep_going)
            assert len(rows) == 2 and visited > 2, fmt  # "/" and "/home"
            rows, counters = read(root, CREDS[who], Q4_DU_TSUMMARY, "/public")
            assert rows == [] and counters[0] >= 1, fmt


class TestFormatsOnDisk:
    def test_templates(self, tmp_path):
        assert len(connect._template("full")) == 4096  # one block
        assert len(connect._template("side")) == 1024
        assert len(V1_TEMPLATES["full"]) == 8192  # what it was
        for name, create in (("p.db", connect.create_db),
                             ("s.db", connect.create_side_db)):
            conn = create(tmp_path / name, fresh=True)
            try:
                assert conn.execute("PRAGMA page_size").fetchone() == (512,)
                assert conn.execute("PRAGMA user_version").fetchone() == (2,)
                assert schema.PAGE_SIZE == 512 and schema.SCHEMA_VERSION == 2
                stored = "".join(
                    sql for (sql,) in conn.execute("SELECT sql FROM sqlite_master")
                )
                assert "INTEGER" not in stored and "tsummary" not in stored
            finally:
                conn.close()

    @pytest.mark.parametrize("rolled", (False, True), ids=("flat", "rolled"))
    def test_tsummary_only_where_asked(self, matrix, rolled):
        """v2 and migrated indexes hold a tsummary table at the
        tree-summary roots and nowhere else; the v1 rows survived."""
        for fmt in ("v2", "migrated"):
            index = GUFIIndex.open(matrix[fmt, rolled])
            having = {
                index.source_path(d)
                for d in index.iter_index_dirs()
                if index.dir_meta(index.source_path(d)).tsummary
            }
            assert having == set(TS_ROOTS), fmt
            for d in index.iter_index_dirs():
                conn = connect.open_ro(DirStore(d).db_path)
                try:
                    (n,) = conn.execute(
                        "SELECT COUNT(*) FROM sqlite_master WHERE name = 'tsummary'"
                    ).fetchone()
                    assert conn.execute("PRAGMA page_size").fetchone() == (512,)
                finally:
                    conn.close()
                assert bool(n) == (index.source_path(d) in TS_ROOTS), (fmt, d)
        for start in TS_ROOTS:
            rows = tsummary_rows(matrix["v1", rolled], start)
            assert rows and rows == tsummary_rows(matrix["migrated", rolled], start)

    @pytest.mark.parametrize("rolled", (False, True), ids=("flat", "rolled"))
    def test_migrated_index_is_healthy_and_the_size_of_a_fresh_one(
        self, matrix, rolled
    ):
        report = doctor(matrix["migrated", rolled])
        assert report.healthy and set(report.versions) == {2}
        assert not doctor(matrix["v1", rolled]).healthy  # wants migrating
        v1, v2, migrated = (
            GUFIIndex.open(matrix[fmt, rolled]).total_db_bytes()
            for fmt in ("v1", "v2", "migrated")
        )
        assert v2 < 0.7 * v1
        # a migrated database keeps its v1 DDL text (``INTEGER``)
        assert v2 <= migrated <= 1.15 * v2


def file_digests(root: Path) -> dict[str, str]:
    index = GUFIIndex.open(root)
    out = {}
    for d in index.iter_index_dirs():
        store = DirStore(d)
        for name, _kind in store.artifacts():
            out[f"{index.source_path(d)}:{name}"] = hashlib.sha256(
                store.artifact_path(name).read_bytes()
            ).hexdigest()
    return out


class TestMigrateV1:
    @pytest.mark.parametrize("rolled", (False, True), ids=("flat", "rolled"))
    def test_killed_mid_tree_resumes_to_the_same_bytes(
        self, matrix, rolled, tmp_path
    ):
        killed = tmp_path / "killed"
        shutil.copytree(matrix["v1", rolled], killed)
        n_dirs = GUFIIndex.open(killed).count_dbs()
        with pytest.raises(BuildCrash):
            migrate_index(killed, faults=FaultPlan.crash_at(FAULT_SITE, n_dirs // 2))
        assert set(doctor(killed).versions) == {1, 2}
        # a half-migrated index is a mixed one: it reads
        assert read(killed, ALICE, Q1_LIST_PATHS) == read(
            matrix["v2", rolled], ALICE, Q1_LIST_PATHS
        )
        resumed = migrate_index(killed, resume=True)
        assert resumed.ok and resumed.dirs_skipped == n_dirs // 2 - 1
        assert file_digests(killed) == file_digests(matrix["migrated", rolled])
        again = migrate_index(killed)
        assert again.ok and again.steps_applied == again.dirs_migrated == 0
        assert file_digests(killed) == file_digests(matrix["migrated", rolled])

    def test_killed_inside_a_directory_leaves_it_v1(self, matrix, tmp_path, monkeypatch):
        """The rewrite is staged: dying after the copy is written and
        before it is published leaves the old database in place and a
        staging file the next run sweeps."""
        killed = tmp_path / "killed"
        shutil.copytree(matrix["v1", False], killed)

        def die(self, staged_names):
            raise BuildCrash("killed before the renames")

        monkeypatch.setattr(DirStore, "publish", die)
        with pytest.raises(BuildCrash):
            migrate_index(killed)
        monkeypatch.undo()
        report = doctor(killed)
        assert report.versions == {1: report.dirs_seen}
        assert report.stale_partials
        assert read(killed, ROOT, Q1_LIST_PATHS) == read(
            matrix["v1", False], ROOT, Q1_LIST_PATHS
        )
        assert migrate_index(killed, resume=True).ok
        assert doctor(killed).healthy
        assert file_digests(killed) == file_digests(matrix["migrated", False])
