"""Property-based tests (hypothesis) for the system's core invariants.

The central security claim of the paper — a user's query over the
index returns exactly what a POSIX-checked walk of the source file
system would show them, before and after rollup — is checked here on
randomly generated trees with adversarial permission shapes, along
with aggregate-correctness and serialisation round-trips.
"""

from __future__ import annotations

import random as random_mod
import sqlite3

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.index import DirStats, GUFIIndex
from repro.core.query import Q1_LIST_PATHS, QuerySpec
from repro.core.rollup import rollup, unrollup_dir
from repro.store import schema
from repro.store.schema import pack_xattrs, unpack_xattrs
from repro.core.tsummary import build_tsummary
from repro.fs.permissions import (
    Credentials,
    can_read_dir,
    can_read_entry,
    can_search_dir,
    mode_bits_for,
)
from repro.fs.tree import VFSTree
from repro.scan.trace import TraceRecord

UIDS = [1001, 1002, 1003]
GIDS = [1001, 1002, 1003, 100]
DIR_MODES = [0o700, 0o750, 0o755, 0o711, 0o770, 0o600, 0o775]
FILE_MODES = [0o600, 0o640, 0o644, 0o660, 0o664, 0o000]

CREDS = [
    Credentials(uid=0, gid=0),
    Credentials(uid=1001, gid=1001),
    Credentials(uid=1002, gid=1002),
    Credentials(uid=1003, gid=1003, groups=frozenset({100})),
]


@st.composite
def tree_descriptions(draw):
    """A compact random tree: directories with random parents, modes,
    and owners; files with random attributes and optional xattrs."""
    n_dirs = draw(st.integers(min_value=1, max_value=10))
    dirs = []
    for i in range(n_dirs):
        parent = draw(st.integers(min_value=-1, max_value=i - 1))
        dirs.append(
            (
                parent,
                draw(st.sampled_from(DIR_MODES)),
                draw(st.sampled_from(UIDS)),
                draw(st.sampled_from(GIDS)),
            )
        )
    n_files = draw(st.integers(min_value=0, max_value=15))
    files = []
    for _ in range(n_files):
        files.append(
            (
                draw(st.integers(min_value=-1, max_value=n_dirs - 1)),
                draw(st.sampled_from(FILE_MODES)),
                draw(st.sampled_from(UIDS)),
                draw(st.sampled_from(GIDS)),
                draw(st.integers(min_value=0, max_value=10**6)),
                draw(st.booleans()),  # has xattr
            )
        )
    return dirs, files


def materialize(desc) -> VFSTree:
    dirs, files = desc
    tree = VFSTree()
    paths = []
    for i, (parent, mode, uid, gid) in enumerate(dirs):
        base = "/" if parent == -1 else paths[parent]
        path = f"{base.rstrip('/')}/d{i}"
        tree.mkdir(path, mode=mode, uid=uid, gid=gid)
        paths.append(path)
    for j, (parent, mode, uid, gid, size, has_x) in enumerate(files):
        base = "/" if parent == -1 else paths[parent]
        path = f"{base.rstrip('/')}/f{j}"
        tree.create_file(path, size=size, mode=mode, uid=uid, gid=gid)
        if has_x:
            tree.setxattr(path, "user.tag", f"v{j}".encode())
    return tree


def ground_truth_entries(tree: VFSTree, creds: Credentials) -> list[str]:
    """Entries a POSIX-correct search shows: dir reachable via x on all
    ancestors, dir itself r+x."""
    out = []
    stack = ["/"]
    while stack:
        d = stack.pop()
        ino = tree.get_inode(d)
        if not (
            can_search_dir(ino.mode, ino.uid, ino.gid, creds)
            and can_read_dir(ino.mode, ino.uid, ino.gid, creds)
        ):
            continue
        for e in tree.readdir(d):
            child = f"{d.rstrip('/')}/{e.name}"
            if e.ftype.value == "d":
                stack.append(child)
            else:
                out.append(child)
    return sorted(out)


def ground_truth_xattrs(tree: VFSTree, creds: Credentials) -> set[str]:
    """Paths whose xattr *values* the index should reveal to ``creds``
    under the paper's §III-A2 sharding rules."""
    visible = set()
    stack = ["/"]
    while stack:
        d = stack.pop()
        dino = tree.get_inode(d)
        if not (
            can_search_dir(dino.mode, dino.uid, dino.gid, creds)
            and can_read_dir(dino.mode, dino.uid, dino.gid, creds)
        ):
            continue
        for e in tree.readdir(d):
            child = f"{d.rstrip('/')}/{e.name}"
            if e.ftype.value == "d":
                stack.append(child)
                continue
            ino = tree.get_inode(child)
            if not ino.xattrs:
                continue
            matches_parent = (
                ino.uid == dino.uid
                and ino.gid == dino.gid
                and (ino.mode & 0o444) == (dino.mode & 0o444)
            )
            if matches_parent:
                visible.add(child)  # stored in the (readable) main db
            elif creds.is_root or creds.uid == ino.uid:
                visible.add(child)  # per-user side db
            elif (
                ino.gid != dino.gid
                and ino.mode & 0o040
                and creds.in_group(ino.gid)
            ):
                visible.add(child)  # group-readable side db
    return visible


common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestQueryEqualsGroundTruth:
    @common
    @given(desc=tree_descriptions())
    def test_every_user_sees_exactly_posix(self, desc, tmp_path_factory):
        tree = materialize(desc)
        root = tmp_path_factory.mktemp("prop")
        idx = dir2index(tree, root / "i", opts=BuildOptions(nthreads=2)).index
        for creds in CREDS:
            q = QueryEngine(idx, creds=creds, nthreads=2)
            got = sorted(r[0] for r in q.run(Q1_LIST_PATHS).rows)
            assert got == ground_truth_entries(tree, creds), creds

    @common
    @given(desc=tree_descriptions())
    def test_rollup_preserves_every_view(self, desc, tmp_path_factory):
        tree = materialize(desc)
        root = tmp_path_factory.mktemp("prop")
        idx = dir2index(tree, root / "i", opts=BuildOptions(nthreads=2)).index
        rollup(idx, nthreads=2)
        for creds in CREDS:
            q = QueryEngine(idx, creds=creds, nthreads=2)
            got = sorted(r[0] for r in q.run(Q1_LIST_PATHS).rows)
            assert got == ground_truth_entries(tree, creds), creds

    @common
    @given(
        desc=tree_descriptions(),
        limit=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
    )
    def test_rollup_limit_never_changes_results(
        self, desc, limit, tmp_path_factory
    ):
        tree = materialize(desc)
        root = tmp_path_factory.mktemp("prop")
        idx = dir2index(tree, root / "i", opts=BuildOptions(nthreads=2)).index
        q = QueryEngine(idx, nthreads=2)
        before = sorted(q.run(Q1_LIST_PATHS).rows)
        rollup(idx, limit=limit, nthreads=2)
        assert sorted(q.run(Q1_LIST_PATHS).rows) == before

    @common
    @given(desc=tree_descriptions(), seed=st.integers(0, 2**16))
    def test_unrollup_any_dir_preserves_results(
        self, desc, seed, tmp_path_factory
    ):
        tree = materialize(desc)
        root = tmp_path_factory.mktemp("prop")
        idx = dir2index(tree, root / "i", opts=BuildOptions(nthreads=2)).index
        q = QueryEngine(idx, nthreads=2)
        before = sorted(q.run(Q1_LIST_PATHS).rows)
        rollup(idx, nthreads=2)
        rolled = [
            idx.source_path(d)
            for d in idx.iter_index_dirs()
            if idx.dir_meta(idx.source_path(d)).rolledup
        ]
        if rolled:
            pick = random_mod.Random(seed).choice(rolled)
            unrollup_dir(idx, pick)
        assert sorted(q.run(Q1_LIST_PATHS).rows) == before


class TestXattrVisibility:
    @common
    @given(desc=tree_descriptions())
    def test_xattr_values_match_sharding_rules(self, desc, tmp_path_factory):
        tree = materialize(desc)
        root = tmp_path_factory.mktemp("prop")
        idx = dir2index(tree, root / "i", opts=BuildOptions(nthreads=2)).index
        spec = QuerySpec(
            E="SELECT rpath(dname, d_isroot, name) FROM xpentries",
            xattrs=True,
        )
        for creds in CREDS:
            q = QueryEngine(idx, creds=creds, nthreads=2)
            got = {r[0] for r in q.run(spec).rows}
            assert got == ground_truth_xattrs(tree, creds), creds

    @common
    @given(desc=tree_descriptions())
    def test_xattr_visibility_stable_under_rollup(self, desc, tmp_path_factory):
        tree = materialize(desc)
        root = tmp_path_factory.mktemp("prop")
        idx = dir2index(tree, root / "i", opts=BuildOptions(nthreads=2)).index
        spec = QuerySpec(
            E="SELECT rpath(dname, d_isroot, name) FROM xpentries",
            xattrs=True,
        )
        before = {}
        for creds in CREDS:
            q = QueryEngine(idx, creds=creds, nthreads=2)
            before[creds.uid] = sorted(q.run(spec).rows)
        rollup(idx, nthreads=2)
        for creds in CREDS:
            q = QueryEngine(idx, creds=creds, nthreads=2)
            assert sorted(q.run(spec).rows) == before[creds.uid], creds


class TestAggregates:
    @common
    @given(desc=tree_descriptions())
    def test_du_equals_brute_force(self, desc, tmp_path_factory):
        tree = materialize(desc)
        root = tmp_path_factory.mktemp("prop")
        idx = dir2index(tree, root / "i", opts=BuildOptions(nthreads=2)).index
        from repro.core.query import Q3_DU_SUMMARIES

        result = QueryEngine(idx, nthreads=2).run(Q3_DU_SUMMARIES)
        expected = sum(
            i.size for _, i in tree.iter_inodes() if i.ftype.value != "d"
        )
        assert result.rows[-1][0] == pytest.approx(expected)

    @common
    @given(desc=tree_descriptions())
    def test_tsummary_equals_du(self, desc, tmp_path_factory):
        tree = materialize(desc)
        root = tmp_path_factory.mktemp("prop")
        idx = dir2index(tree, root / "i", opts=BuildOptions(nthreads=2)).index
        from repro.core.query import Q3_DU_SUMMARIES, Q4_DU_TSUMMARY

        r3 = QueryEngine(idx, nthreads=2).run(Q3_DU_SUMMARIES)
        build_tsummary(idx, "/")
        r4 = QueryEngine(idx, nthreads=2).run(Q4_DU_TSUMMARY)
        assert r4.rows[0][0] == pytest.approx(r3.rows[-1][0])


class TestSerialization:
    @given(
        name=st.text(
            alphabet=st.characters(blacklist_characters="\x1e\x1f\n/",
                                   blacklist_categories=("Cs",)),
            min_size=1, max_size=30,
        ),
        ino=st.integers(min_value=1, max_value=2**48),
        mode=st.integers(min_value=0, max_value=0o7777),
        size=st.integers(min_value=0, max_value=2**50),
        times=st.tuples(*[st.integers(0, 2**32)] * 3),
        xattrs=st.dictionaries(
            st.text(alphabet="abcdefuser.", min_size=1, max_size=12),
            st.binary(max_size=20),
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_trace_record_roundtrip(self, name, ino, mode, size, times, xattrs):
        rec = TraceRecord(
            path=f"/p/{name}", ftype="f", ino=ino, mode=mode, nlink=1,
            uid=1, gid=2, size=size, blksize=4096, blocks=size // 512,
            atime=times[0], mtime=times[1], ctime=times[2], xattrs=xattrs,
        )
        assert TraceRecord.decode(rec.encode()) == rec

    @given(
        xattrs=st.dictionaries(
            st.text(alphabet="abcdef.", min_size=1, max_size=10),
            st.binary(max_size=16),
            max_size=5,
        )
    )
    @settings(max_examples=200)
    def test_pack_unpack_names_preserved(self, xattrs):
        unpacked = unpack_xattrs(pack_xattrs(xattrs))
        assert set(unpacked) == set(xattrs)


class TestPermissionOracle:
    @given(
        mode=st.integers(min_value=0, max_value=0o777),
        uid=st.sampled_from(UIDS),
        gid=st.sampled_from(GIDS),
        cred=st.sampled_from(CREDS[1:]),  # non-root
    )
    @settings(max_examples=300)
    def test_class_selection(self, mode, uid, gid, cred):
        bits = mode_bits_for(mode, uid, gid, cred)
        if cred.uid == uid:
            assert bits == (mode >> 6) & 7
        elif cred.in_group(gid):
            assert bits == (mode >> 3) & 7
        else:
            assert bits == mode & 7

    @given(
        mode=st.integers(min_value=0, max_value=0o777),
        uid=st.sampled_from(UIDS),
        gid=st.sampled_from(GIDS),
        cred=st.sampled_from(CREDS[1:]),
    )
    @settings(max_examples=300)
    def test_read_entry_consistent_with_bits(self, mode, uid, gid, cred):
        assert can_read_entry(mode, uid, gid, cred) == bool(
            mode_bits_for(mode, uid, gid, cred) & 4
        )


# ----------------------------------------------------------------------
# DirStats: the Python fold equals the SQL aggregate it replaced
# ----------------------------------------------------------------------

_BOUND_COLUMNS = (
    "minsize", "maxsize", "minmtime", "maxmtime",
    "minuid", "maxuid", "mingid", "maxgid",
)


def sql_dir_stats(conn):
    """The oracle: ``read_dir_stats`` as it was when SQLite did the
    aggregation (two statements, kept here verbatim)."""
    row = conn.execute(
        "SELECT COUNT(*), TOTAL(totfiles), TOTAL(totlinks), "
        "MIN(minsize), MAX(maxsize), MIN(minmtime), MAX(maxmtime), "
        "MIN(minuid), MAX(maxuid), MIN(mingid), MAX(maxgid), "
        "SUM(CASE WHEN totfiles IS NULL OR totlinks IS NULL "
        "  OR (totfiles > 0 AND (minsize IS NULL OR maxsize IS NULL)) "
        "  OR (totfiles + totlinks > 0 AND ("
        "      minmtime IS NULL OR maxmtime IS NULL "
        "      OR minuid IS NULL OR maxuid IS NULL "
        "      OR mingid IS NULL OR maxgid IS NULL)) "
        "THEN 1 ELSE 0 END) "
        "FROM summary WHERE rectype = 0"
    ).fetchone()
    if row is None or not row[0] or row[11]:
        return None
    maxdepth = None
    try:
        ts = conn.execute(
            "SELECT MAX(maxdepth) FROM tsummary WHERE rectype = 0"
        ).fetchone()
        if ts is not None and ts[0] is not None:
            maxdepth = int(ts[0])
    except sqlite3.Error:
        maxdepth = None
    return DirStats(
        int(row[1]), int(row[2]), *row[3:11], maxdepth=maxdepth
    )


_maybe_small = st.one_of(st.none(), st.integers(min_value=0, max_value=50))
_count = st.one_of(st.none(), st.just(0), st.integers(min_value=0, max_value=9))
_summary_row = st.tuples(_count, _count, *[_maybe_small] * len(_BOUND_COLUMNS))


class TestStatsFoldEqualsSqlAggregate:
    @given(
        own=_summary_row,
        # rolled-in copies (isroot = 0): none for an unrolled database
        rolled_in=st.lists(_summary_row, max_size=5),
        # per-user records (rectype 1) are outside the bounds
        per_user=st.lists(_summary_row, max_size=2),
        # tsummary: (rectype, maxdepth) rows, or no such table at all
        tsummary=st.one_of(
            st.none(),
            st.lists(st.tuples(st.sampled_from([0, 1]), _maybe_small), max_size=3),
        ),
    )
    @settings(max_examples=300, deadline=None)
    # TestNullStatsConservative's shard: files claimed, size bounds NULLed
    @example(own=(3, 0, None, None, 1, 9, 7, 7, 7, 7), rolled_in=[],
             per_user=[], tsummary=[])
    # a zero-entry directory bounds nothing and disables nothing
    @example(own=(0, 0) + (None,) * 8,
             rolled_in=[(2, 1, 5, 9, 1, 2, 3, 4, 5, 6)], per_user=[],
             tsummary=[(0, 4), (0, None), (1, 40)])
    def test_fold_equals_aggregate(self, own, rolled_in, per_user, tsummary):
        conn = sqlite3.connect(":memory:")
        try:
            for ddl in (schema.CREATE_SUMMARY, schema.CREATE_TSUMMARY):
                conn.execute(ddl)
            columns = ", ".join(("totfiles", "totlinks") + _BOUND_COLUMNS)
            insert = (
                "INSERT INTO summary (rectype, isroot, inode, mode, uid, gid, "
                f"{columns}) VALUES (?, ?, 7, 493, 1, 1, ?,?,?,?,?,?,?,?,?,?)"
            )
            # the own record need not be the first row of the table
            rows = [(0, 0, *r) for r in rolled_in[:2]] + [(0, 1, *own)]
            rows += [(0, 0, *r) for r in rolled_in[2:]]
            rows += [(1, 1, *r) for r in per_user]
            conn.executemany(insert, rows)
            if tsummary is None:
                conn.execute("DROP TABLE tsummary")
            else:
                conn.executemany(
                    "INSERT INTO tsummary (rectype, maxdepth) VALUES (?, ?)",
                    tsummary,
                )
            meta = GUFIIndex.read_dir_meta(conn)
            assert (meta.inode, meta.mode) == (7, 493)
            assert meta.stats == sql_dir_stats(conn)
        finally:
            conn.close()
