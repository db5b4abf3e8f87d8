"""Shared fixtures: hand-built trees with interesting permission
structure, plus session-scoped generated namespaces and built indexes
(building an index costs real file I/O, so expensive artifacts are
shared across tests that only read them)."""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.index import GUFIIndex
from repro.core.tsummary import build_tsummary
from repro.fs.permissions import Credentials
from repro.fs.tree import VFSTree
from repro.gen.datasets import dataset2
from repro.gen.namespace import apply_xattrs

#: identities used across permission tests
ALICE = Credentials(uid=1001, gid=1001)
BOB = Credentials(uid=1002, gid=1002)
CAROL_IN_PROJ = Credentials(uid=1003, gid=1003, groups=frozenset({100}))
NTHREADS = 2  # this sandbox serialises syscalls; keep pools small


def build_demo_tree() -> VFSTree:
    """A compact tree exercising every permission shape the engine and
    rollup must respect::

        /home/alice        0700 alice   (private home)
        /home/alice/sub    0700 alice
        /home/bob          0755 bob     (world-readable home)
        /home/bob/secret   0700 bob
        /proj/shared       0770 alice:100 (group area; carol in group)
        /proj/shared/data  0770 alice:100
        /public            0755 root
        /public/xonly      0711 root    (searchable, not listable)
        /public/ronly      0644 root    (listable name, not searchable)
    """
    t = VFSTree()
    t.mkdir("/home", mode=0o755, uid=0, gid=0)
    t.mkdir("/home/alice", mode=0o700, uid=1001, gid=1001)
    t.mkdir("/home/alice/sub", mode=0o700, uid=1001, gid=1001)
    t.create_file("/home/alice/a.txt", size=100, mode=0o600, uid=1001, gid=1001)
    t.create_file("/home/alice/sub/deep.dat", size=250, mode=0o600, uid=1001, gid=1001)
    t.mkdir("/home/bob", mode=0o755, uid=1002, gid=1002)
    t.create_file("/home/bob/b.txt", size=300, mode=0o644, uid=1002, gid=1002)
    t.mkdir("/home/bob/secret", mode=0o700, uid=1002, gid=1002)
    t.create_file("/home/bob/secret/s.key", size=50, mode=0o600, uid=1002, gid=1002)
    t.mkdir("/proj", mode=0o755, uid=0, gid=0)
    t.mkdir("/proj/shared", mode=0o770, uid=1001, gid=100)
    t.mkdir("/proj/shared/data", mode=0o770, uid=1001, gid=100)
    t.create_file("/proj/shared/p.c", size=700, mode=0o660, uid=1001, gid=100)
    t.create_file("/proj/shared/data/d.h5", size=900, mode=0o660, uid=1003, gid=100)
    t.mkdir("/public", mode=0o755, uid=0, gid=0)
    t.mkdir("/public/xonly", mode=0o711, uid=0, gid=0)
    t.create_file("/public/xonly/hidden.txt", size=10, mode=0o644, uid=0, gid=0)
    t.mkdir("/public/ronly", mode=0o644, uid=0, gid=0)
    t.create_file("/public/readme", size=42, mode=0o644, uid=0, gid=0)
    t.symlink("/public/link", "/home/bob/b.txt", uid=0, gid=0)
    return t


@pytest.fixture
def demo_tree() -> VFSTree:
    return build_demo_tree()


@pytest.fixture
def demo_index(demo_tree, tmp_path):
    """A fresh (non-rolled) index of the demo tree."""
    result = dir2index(
        demo_tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
    )
    return result.index


@pytest.fixture(scope="session")
def dataset2_small():
    """A generated dataset-2-shaped namespace, shared read-only."""
    return dataset2(scale=0.0002, seed=22)


@pytest.fixture(scope="session")
def dataset2_index(dataset2_small, tmp_path_factory):
    """A built (non-rolled) index of the shared namespace."""
    root = tmp_path_factory.mktemp("ds2idx")
    result = dir2index(
        dataset2_small.tree, root / "idx", opts=BuildOptions(nthreads=NTHREADS)
    )
    return result


@pytest.fixture(scope="session")
def xattr_namespace(tmp_path_factory):
    """Namespace with xattrs on ~40% of files plus a unique needle,
    and its index (xattr sharding enabled)."""
    ns = dataset2(scale=0.0002, seed=77)
    tagged, needle = apply_xattrs(ns, 0.4)
    root = tmp_path_factory.mktemp("xattridx")
    result = dir2index(
        ns.tree, root / "idx", opts=BuildOptions(nthreads=NTHREADS)
    )
    return ns, tagged, needle, result.index


def tsummary_rows(index_root, start: str = "/") -> list[tuple]:
    """Every tsummary row stored at ``start``, all columns, sorted."""
    conn = GUFIIndex(index_root).store(start).open_ro()
    try:
        return sorted(conn.execute("SELECT * FROM tsummary"))
    finally:
        conn.close()


def fresh_tsummary_rows(
    index_root, start: str = "/", per_user_group: bool = True
) -> list[tuple]:
    """The tree-summary oracle: rebuild ``start`` through a brand-new
    index handle (nothing memoised, every database read) and return
    the rows it wrote."""
    build_tsummary(GUFIIndex(index_root), start, per_user_group=per_user_group)
    return tsummary_rows(index_root, start)
