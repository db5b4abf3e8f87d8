"""Store format v3 beside v2 and v1: one matrix.

{fresh v3, v2 and v1 (built from the frozen templates), each →
``index migrate``, mixed (v2 + ``changefeed2index``, which publishes
v3 databases among the v2 ones)} × {flat, rolled, rolled → unrolled} ×
{root, two users} must be indistinguishable to every reader: Q1–Q4,
``find``, ``largest_files``, the xattr search, ``du --tsummary`` at
``/`` and at a subtree, where the ``T`` stage prunes — the same rows in
the same order — and the traversal counters. Then what only migration
and the templates themselves can get wrong, and the views on their
own: the v3 text against the v2 text over random directories.
"""

from __future__ import annotations

import hashlib
import shutil
import sqlite3
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build import BuildOptions, dir2index
from repro.core.changefeed import changefeed2index
from repro.core.engine import QueryEngine
from repro.core.index import GUFIIndex
from repro.core.query import (
    Q1_LIST_NAMES,
    Q1_LIST_PATHS,
    Q2_DIR_SIZES,
    Q3_DU_SUMMARIES,
    Q4_DU_TSUMMARY,
    QuerySpec,
)
from repro.core.rollup import rollup, unrollup_dir
from repro.core.tools import FindFilters, GUFITools
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
from tests.v2_format import V2_TEMPLATES, writing_v2

OPTS = BuildOptions(nthreads=NTHREADS)
XATTR_SEARCH = QuerySpec(E="SELECT name, exattrs FROM xpentries", xattrs=True)
SPECS = {
    "q1": Q1_LIST_PATHS,
    "q1-names": Q1_LIST_NAMES,
    "q2": Q2_DIR_SIZES,
    "q3": Q3_DU_SUMMARIES,
    "xattr": XATTR_SEARCH,
    "q4": Q4_DU_TSUMMARY,
}
CREDS = {"root": ROOT, "alice": ALICE, "bob": BOB}
#: ``migrated`` and ``mixed`` start from v2, ``migrated-v1`` from v1
FORMATS = ("v3", "v2", "migrated", "mixed", "v1", "migrated-v1")
STATES = ("flat", "rolled", "unrolled")
#: where ``bfti`` is asked: the root and one subtree
TS_ROOTS = ("/", "/home")

per_state = pytest.mark.parametrize("state", STATES)


def tree_before():
    """The demo tree with xattrs that shard (a foreign-owned file in a
    group area) and ones that do not."""
    t = build_demo_tree()
    t.setxattr("/home/alice/a.txt", "user.tag", b"mine")
    t.setxattr("/proj/shared/data/d.h5", "user.run", b"r17")  # carol's, sharded
    t.setxattr("/home/bob/b.txt", "user.note", b"bobs")
    return t


def mutate(t) -> None:
    """What the mixed index sees through the changefeed and the others
    see in the scan: file and directory events, a cross-depth
    directory move, an xattr change."""
    t.create_file("/home/bob/new.txt", size=999, mode=0o644, uid=1002, gid=1002)
    t.unlink("/public/readme")
    t.mkdir("/proj/shared/runs", mode=0o770, uid=1001, gid=100)
    t.create_file("/proj/shared/runs/r1", size=11, mode=0o660, uid=1003, gid=100)
    t.setxattr("/proj/shared/runs/r1", "user.run", b"r18")
    t.rename("/home/alice/sub", "/public/sub")
    t.chmod("/public/sub", 0o755)
    t.setxattr("/home/alice/a.txt", "user.tag", b"still mine")


def rolled_dirs(index: GUFIIndex) -> list[str]:
    paths = (index.source_path(d) for d in index.iter_index_dirs())
    return [sp for sp in paths if index.dir_meta(sp).rolledup]


def finish(index: GUFIIndex, state: str) -> GUFIIndex:
    if state != "flat":
        rollup(index, nthreads=NTHREADS)
        assert rolled_dirs(index)
    if state == "unrolled":
        for sp in rolled_dirs(index):
            unrollup_dir(index, sp)
    for start in TS_ROOTS:
        build_tsummary(index, start)
    return index


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """``{(format, state): index root}``, every index describing the
    same (mutated) tree."""
    base = tmp_path_factory.mktemp("formats")
    roots: dict[tuple[str, str], Path] = {}
    for state in STATES:
        tree = tree_before()
        journal = ChangeJournal()
        tree.set_changelog(journal)
        # mixed: a finished v2 index, then the changefeed
        with writing_v2():
            mixed = finish(
                dir2index(tree, base / f"mixed-{state}", opts=OPTS).index, state
            )
        mutate(tree)
        applied = changefeed2index(mixed, tree, journal, opts=OPTS)
        assert applied.dirs_rebuilt and applied.dirs_moved
        assert applied.tsummary_refreshed == len(TS_ROOTS)
        roots["mixed", state] = finish(mixed, state).root
        assert set(doctor(mixed).versions) == {2, 3}
        # the others scan the mutated tree
        roots["v3", state] = finish(
            dir2index(tree, base / f"v3-{state}", opts=OPTS).index, state
        ).root
        for writing_old, old, migrated in (
            (writing_v2, "v2", "migrated"), (writing_v1, "v1", "migrated-v1")
        ):
            with writing_old():
                index = finish(
                    dir2index(tree, base / f"{old}-{state}", opts=OPTS).index, state
                )
            roots[old, state] = index.root
            assert doctor(index).versions == {int(old[1:]): index.count_dbs()}
            roots[migrated, state] = base / f"{migrated}-{state}"
            shutil.copytree(index.root, roots[migrated, state])
            result = migrate_index(roots[migrated, state])
            assert result.ok and result.dirs_migrated == result.dirs_seen
    return roots


def counters(r) -> tuple[int, int, int]:
    return r.dirs_visited, r.dirs_denied, r.dbs_opened


def read(root: Path, creds, spec, start="/"):
    """Rows in emission order — one thread, so the order is the
    walk's — and the traversal counters."""
    with QueryEngine(GUFIIndex.open(root), creds=creds, nthreads=1) as q:
        r = q.run(spec, start)
    return r.rows, counters(r)


def tool_answers(root: Path, creds) -> list:
    """The shipped tools that read the views: planned and unplanned
    ``find``, ``largest_files``, the xattr search."""
    big = FindFilters(min_size=100)
    with GUFITools(GUFIIndex.open(root), creds, nthreads=1) as tools:
        finds = [
            tools.find("/"),
            tools.find("/", big),
            tools.find("/", big, planned=False),
            tools.xattr_search("r1"),
        ]
        return [(r.rows, counters(r)) for r in finds] + [
            tools.largest_files("/", limit=5)
        ]


@per_state
@pytest.mark.parametrize("who", CREDS)
class TestFormatsReadAlike:
    def test_rows_and_counters(self, matrix, state, who):
        for name, spec in SPECS.items():
            for start in ("/", "/home"):
                got = {
                    fmt: read(matrix[fmt, state], CREDS[who], spec, start)
                    for fmt in FORMATS
                }
                assert all(g == got["v3"] for g in got.values()), (name, start)
        rows, _ = read(matrix["v3", state], CREDS[who], Q1_LIST_PATHS)
        # the created file and the moved, now world-readable, directory
        assert {("/home/bob/new.txt",), ("/public/sub/deep.dat",)} <= set(rows)

    def test_tools(self, matrix, state, who):
        expected = tool_answers(matrix["v3", state], CREDS[who])
        assert expected[0][0] and (who != "root" or expected[3][0])
        for fmt in FORMATS:
            assert tool_answers(matrix[fmt, state], CREDS[who]) == expected, fmt

    def test_du_with_tsummary(self, matrix, state, who):
        for start in ("/", "/home", "/proj"):
            got = set()
            for fmt in FORMATS:
                index = GUFIIndex.open(matrix[fmt, state])
                with GUFITools(index, CREDS[who], nthreads=NTHREADS) as tools:
                    got.add((tools.du(start, use_tsummary=True), tools.du(start)))
            assert len(got) == 1, (start, got)

    def test_lean_record_is_the_full_records_own_fields(self, matrix, state, who):
        """What a plan-less walk reads of a directory — one statement
        naming only columns every format has — is what the full
        statement reads of it, less the bounds and the tree-summary
        bit; denied directories are read (and denied) the same way."""
        own = ("inode", "mode", "uid", "gid", "rolledup", "rollup_entries")
        for fmt in FORMATS:
            index = GUFIIndex.open(matrix[fmt, state])
            with QueryEngine(index, creds=CREDS[who], nthreads=1) as q:
                r = q.run(Q1_LIST_PATHS)
            left = {p: m for p, (_stamp, m) in index.cache._meta.items()}
            assert len(left) == r.dirs_visited + r.dirs_denied, fmt
            full = GUFIIndex.open(matrix[fmt, state])
            for path, lean in left.items():
                want = full.dir_meta(path)
                assert lean.lean and not want.lean and want.stats is not None
                assert (lean.stats, lean.tsummary) == (None, None)
                assert [getattr(lean, f) for f in own] == [
                    getattr(want, f) for f in own
                ], (fmt, path)
                assert want.tsummary == (path in TS_ROOTS), (fmt, path)

    def test_t_stage_prunes_where_bfti_was_asked(self, matrix, state, who):
        """``T`` answers at the tree-summary roots and stops there; a
        start with no tree summary above its directories descends."""
        keep_going = QuerySpec(T=Q4_DU_TSUMMARY.T, t_no_prune=True)
        for fmt in FORMATS:
            root = matrix[fmt, state]
            rows, (visited, _denied, opened) = read(root, CREDS[who], Q4_DU_TSUMMARY)
            assert len(rows) == 1 and visited == opened == 1, fmt
            rows, (visited, _denied, _opened) = read(root, CREDS[who], keep_going)
            assert len(rows) == 2 and visited > 2, fmt  # "/" and "/home"
            rows, counts = read(root, CREDS[who], Q4_DU_TSUMMARY, "/public")
            assert rows == [] and counts[0] >= 1, fmt


def stored_ddl(conn: sqlite3.Connection) -> dict[str, str]:
    return dict(conn.execute("SELECT name, sql FROM sqlite_master"))


class TestFormatsOnDisk:
    def test_templates(self, tmp_path):
        assert len(connect._template("full")) == 4096  # one block
        assert len(connect._template("side")) == 1024
        assert len(V2_TEMPLATES["full"]) == 4096 and len(V2_TEMPLATES["side"]) == 1024
        assert len(V1_TEMPLATES["full"]) == 8192  # what it was
        assert schema.PAGE_SIZE == 512 and schema.SCHEMA_VERSION == 3
        for name, create in (("s.db", connect.create_side_db),
                             ("p.db", connect.create_db)):
            conn = create(tmp_path / name, fresh=True)
            try:
                assert conn.execute("PRAGMA page_size").fetchone() == (512,)
                assert conn.execute("PRAGMA user_version").fetchone() == (3,)
                stored = stored_ddl(conn)
            finally:
                conn.close()
            assert "INTEGER" not in "".join(stored.values())
            assert "tsummary" not in stored
        views = (stored["pentries"], stored["vrpentries"])
        assert views == schema.view_ddl(rolled=False)
        # the v2 template's views were longer
        (tmp_path / "v2.db").write_bytes(V2_TEMPLATES["full"])
        conn = connect.open_ro(tmp_path / "v2.db")
        try:
            v2 = stored_ddl(conn)
        finally:
            conn.close()
        assert sum(map(len, views)) <= len(v2["pentries"]) + len(v2["vrpentries"])
        assert v2["vrpentries"] == schema.view_ddl(rolled=True)[-1]

    @per_state
    def test_tsummary_only_where_asked(self, matrix, state):
        """v3 and migrated indexes hold a tsummary table at the
        tree-summary roots and nowhere else; the old rows survived."""
        for fmt in ("v3", "migrated", "migrated-v1"):
            index = GUFIIndex.open(matrix[fmt, state])
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
        for old, migrated in (("v2", "migrated"), ("v1", "migrated-v1")):
            for start in TS_ROOTS:
                rows = tsummary_rows(matrix[old, state], start)
                assert rows and rows == tsummary_rows(matrix[migrated, state], start)

    @per_state
    def test_migrated_index_is_healthy_and_the_size_of_a_fresh_one(
        self, matrix, state
    ):
        for fmt in ("v3", "migrated", "migrated-v1"):
            report = doctor(matrix[fmt, state])
            assert report.healthy and set(report.versions) == {3}, fmt
            # every database carries the views of what it is
            index = GUFIIndex.open(matrix[fmt, state])
            for d in index.iter_index_dirs():
                rolled = index.dir_meta(index.source_path(d)).rolledup
                conn = connect.open_ro(DirStore(d).db_path)
                try:
                    stored = stored_ddl(conn)
                    assert schema.is_rolled(conn) == rolled
                finally:
                    conn.close()
                views = tuple(stored[n] for n in ("pentries", "vrpentries"))
                assert views[1 if rolled else 0:] == schema.view_ddl(rolled), (fmt, d)
        for old in ("v2", "v1", "mixed"):
            assert not doctor(matrix[old, state]).healthy  # wants migrating
        v1, v3, migrated, migrated_v1 = (
            GUFIIndex.open(matrix[fmt, state]).total_db_bytes()
            for fmt in ("v1", "v3", "migrated", "migrated-v1")
        )
        assert v3 < 0.7 * v1
        # a migrated v1 database keeps its v1 DDL text (``INTEGER``)
        assert v3 <= migrated <= migrated_v1 <= 1.15 * v3


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


def killed_mid_tree(matrix, old: str, migrated: str, state: str, tmp_path) -> None:
    killed = tmp_path / "killed"
    shutil.copytree(matrix[old, state], killed)
    n_dirs = GUFIIndex.open(killed).count_dbs()
    with pytest.raises(BuildCrash):
        migrate_index(killed, faults=FaultPlan.crash_at(FAULT_SITE, n_dirs // 2))
    assert set(doctor(killed).versions) == {int(old[1:]), 3}
    # a half-migrated index is a mixed one: it reads
    assert read(killed, ALICE, Q1_LIST_PATHS) == read(
        matrix["v3", state], ALICE, Q1_LIST_PATHS
    )
    resumed = migrate_index(killed, resume=True)
    assert resumed.ok and resumed.dirs_skipped == n_dirs // 2 - 1
    assert file_digests(killed) == file_digests(matrix[migrated, state])
    again = migrate_index(killed)
    assert again.ok and again.steps_applied == again.dirs_migrated == 0
    assert file_digests(killed) == file_digests(matrix[migrated, state])


def killed_inside_a_directory(
    matrix, old: str, migrated: str, tmp_path, monkeypatch
) -> None:
    """The rewrite is staged: dying after the copy is written and
    before it is published leaves the old database in place and a
    staging file the next run sweeps."""
    killed = tmp_path / "killed"
    shutil.copytree(matrix[old, "rolled"], killed)

    def die(self, staged_names):
        raise BuildCrash("killed before the renames")

    monkeypatch.setattr(DirStore, "publish", die)
    with pytest.raises(BuildCrash):
        migrate_index(killed)
    monkeypatch.undo()
    report = doctor(killed)
    assert report.versions == {int(old[1:]): report.dirs_seen}
    assert report.stale_partials
    assert read(killed, ROOT, Q1_LIST_PATHS) == read(
        matrix[old, "rolled"], ROOT, Q1_LIST_PATHS
    )
    assert migrate_index(killed, resume=True).ok
    assert doctor(killed).healthy
    assert file_digests(killed) == file_digests(matrix[migrated, "rolled"])


class TestMigrateV1:
    @per_state
    def test_killed_mid_tree_resumes_to_the_same_bytes(self, matrix, state, tmp_path):
        killed_mid_tree(matrix, "v1", "migrated-v1", state, tmp_path)

    def test_killed_inside_a_directory_leaves_it_v1(self, matrix, tmp_path, monkeypatch):
        killed_inside_a_directory(matrix, "v1", "migrated-v1", tmp_path, monkeypatch)


class TestMigrateV2:
    @per_state
    def test_killed_mid_tree_resumes_to_the_same_bytes(self, matrix, state, tmp_path):
        killed_mid_tree(matrix, "v2", "migrated", state, tmp_path)

    def test_killed_inside_a_directory_leaves_it_v2(self, matrix, tmp_path, monkeypatch):
        killed_inside_a_directory(matrix, "v2", "migrated", tmp_path, monkeypatch)


# ----------------------------------------------------------------------
# The views on their own: v3 text against v2 text
# ----------------------------------------------------------------------

def v2_view_ddl() -> tuple[str, str]:
    """``pentries`` and ``vrpentries`` as the frozen v2 template stores
    them: the join forms every format before v3 carried."""
    conn = sqlite3.connect(":memory:")
    try:
        conn.deserialize(V2_TEMPLATES["full"])
        stored = stored_ddl(conn)
    finally:
        conn.close()
    return stored["pentries"], stored["vrpentries"]


V2_VIEWS = v2_view_ddl()

_int = st.one_of(st.none(), st.integers(0, 2**40))
_name = st.text("abc/ é'", min_size=1, max_size=6)
_entry = st.tuples(
    _name, st.sampled_from("fl"), st.integers(1, 999), _int, _int, _int, _int,
    _int, _int, _int, _int, _int, _int, st.one_of(st.none(), _name),
    st.one_of(st.none(), st.just("user.a\x1fuser.b")),
)
#: a rolled-in sub-directory: its relative path, inode and entries
_child = st.tuples(_name, st.integers(1000, 1999), st.lists(_entry, max_size=3))
_directory = st.tuples(
    st.lists(_entry, max_size=5),
    st.lists(st.tuples(st.sampled_from((1, 2)), st.integers(1, 999)), max_size=3),
    st.lists(_child, max_size=3, unique_by=lambda c: c[1]),
)


def directory_db(entries, breakdown) -> sqlite3.Connection:
    """One un-rolled directory, no views yet: its entries, its overall
    summary record (inode 7) and per-user / per-group records."""
    conn = sqlite3.connect(":memory:", isolation_level=None)
    for ddl in (schema.CREATE_ENTRIES, schema.CREATE_SUMMARY):
        conn.execute(schema.compact_ddl(ddl))
    conn.executemany(
        f"INSERT INTO entries VALUES ({','.join('?' * 15)})", entries
    )
    conn.execute(
        "INSERT INTO summary (name, rectype, isroot, inode) VALUES ('d', 0, 1, 7)"
    )
    conn.executemany(
        "INSERT INTO summary (name, rectype, isroot, inode, uid) "
        "VALUES ('d', ?, 1, 7, ?)",
        breakdown,
    )
    return conn


def set_views(conn: sqlite3.Connection, views: tuple[str, ...]) -> None:
    conn.execute("DROP VIEW IF EXISTS vrpentries")
    if len(views) == 2:
        conn.execute("DROP VIEW IF EXISTS pentries")
    for ddl in views:
        conn.execute(ddl)


def view_answers(conn: sqlite3.Connection) -> list:
    """Everything a reader can observe of the two views: the rows in
    order, the column names, and each value's storage class."""
    out = []
    for view, columns in (
        ("pentries", schema.PENTRIES_COLUMNS),
        ("vrpentries", schema.PENTRIES_COLUMNS + ("dname", "d_isroot")),
    ):
        cur = conn.execute(f"SELECT * FROM {view}")
        assert tuple(d[0] for d in cur.description) == columns
        types = ", ".join(f"typeof({c})" for c in columns)
        out.append((cur.fetchall(), conn.execute(f"SELECT {types} FROM {view}").fetchall()))
    return out


class TestViewTexts:
    @settings(max_examples=60, deadline=None)
    @given(_directory)
    def test_v3_views_answer_as_the_v2_views_did(self, directory):
        entries, breakdown, children = directory
        conn = directory_db(entries, breakdown)
        try:
            set_views(conn, V2_VIEWS)
            flat = view_answers(conn)
            set_views(conn, schema.view_ddl(rolled=False))
            assert view_answers(conn) == flat
            # rolled up, as ``rollup_dir`` does it
            conn.execute("DROP VIEW pentries")
            conn.execute(schema.compact_ddl(schema.CREATE_PENTRIES_TABLE))
            conn.execute("INSERT INTO pentries SELECT *, 7 FROM entries")
            for path, inode, rows in children:
                conn.execute(
                    "INSERT INTO summary (name, rectype, isroot, inode) "
                    "VALUES (?, 0, 0, ?)", (path, inode),
                )
                conn.executemany(
                    f"INSERT INTO pentries VALUES ({','.join('?' * 15)}, {inode})",
                    rows,
                )
            set_views(conn, V2_VIEWS[1:])
            rolled = view_answers(conn)
            assert len(rolled[1][0]) == len(entries) + sum(
                len(rows) for _p, _i, rows in children
            )
            set_views(conn, schema.view_ddl(rolled=True))
            assert view_answers(conn) == rolled
            # and un-rolled again, as ``unrollup_dir`` does it
            conn.execute("DROP TABLE pentries")
            conn.execute("DELETE FROM summary WHERE isroot = 0")
            set_views(conn, schema.view_ddl(rolled=False))
            assert view_answers(conn) == flat
        finally:
            conn.close()

    def plan(self, index, sp) -> list[tuple[int, int, str]]:
        conn = connect.open_ro(index.db_path(sp))
        try:
            return [
                (row[0], row[1], row[3])
                for row in conn.execute("EXPLAIN QUERY PLAN SELECT * FROM vrpentries")
            ]
        finally:
            conn.close()

    def test_plans(self, matrix):
        """A plan pin, not a timing. Un-rolled: one scan of ``entries``,
        ``summary`` read only inside the scalar sub-queries, no index
        built per directory. Rolled-up: the join goes through an index
        (SQLite builds one for the query) — a rolled directory with
        thousands of ``summary`` rows must not go quadratic."""
        index = GUFIIndex.open(matrix["v3", "rolled"])
        rolled = rolled_dirs(index)
        flat = next(
            sp for d in index.iter_index_dirs()
            if (sp := index.source_path(d)) not in rolled
        )
        plan = self.plan(index, flat)
        details = {node: detail for node, _parent, detail in plan}
        assert not any("AUTOMATIC" in d for d in details.values()), plan
        scans = [(p, d) for _n, p, d in plan if d.startswith(("SCAN", "SEARCH"))]
        assert scans[0] == (0, "SCAN entries")
        assert len(scans) == 3 and all(
            "summary" in d and details[p].startswith("SCALAR SUBQUERY")
            for p, d in scans[1:]
        ), plan
        plan = self.plan(index, rolled[0])
        scans = [d for _n, _p, d in plan if d.startswith(("SCAN", "SEARCH"))]
        assert len(scans) == 2 and scans[0].startswith("SCAN"), plan
        assert scans[1].startswith("SEARCH") and "INDEX" in scans[1], plan
