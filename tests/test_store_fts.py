"""The FTS5 name-search sidecar: the artifact registry's proof of
extension. Built behind ``BuildOptions.optional_artifacts``, staged
and published by the shared commit protocol, queried through the same
permission gate as the primary database."""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.fs.permissions import Credentials
from repro.scan.faults import FaultPlan, InjectedFault
from repro.store import fts
from repro.store.layout import DirStore, classify_artifact

from .conftest import ALICE, BOB, NTHREADS, build_demo_tree

ROOT = Credentials(uid=0, gid=0)

pytestmark = pytest.mark.skipif(
    not fts.fts5_available(), reason="SQLite built without FTS5"
)


@pytest.fixture
def fts_index(tmp_path):
    result = dir2index(
        build_demo_tree(),
        tmp_path / "idx",
        opts=BuildOptions(
            nthreads=NTHREADS, optional_artifacts=(fts.FTS_KIND,)
        ),
    )
    return result.index


class TestSidecarBuild:
    def test_sidecar_built_everywhere(self, fts_index):
        for d in fts_index.iter_index_dirs():
            store = DirStore(d)
            assert fts.has_sidecar(store)
            kinds = {k for _n, k in store.artifacts()}
            assert fts.FTS_KIND in kinds
            assert store.list_partials() == []  # published, not staged

    def test_default_build_has_no_sidecar(self, demo_index):
        for d in demo_index.iter_index_dirs():
            assert not fts.has_sidecar(DirStore(d))

    def test_sidecar_is_a_registered_side_artifact(self, fts_index):
        store = fts_index.store("/public")
        names = store.side_artifacts()
        fts_names = [n for n in names if classify_artifact(n) == fts.FTS_KIND]
        assert len(fts_names) == 1

    def test_rebuild_removes_sidecar_with_the_rest(self, fts_index):
        """A rebuild that stages no sidecar publishes over the old
        database and drops the old sidecar with the rest of its set."""
        store = fts_index.store("/public")
        assert fts.has_sidecar(store)
        store.stage_primary().close()
        store.publish([])
        assert not fts.has_sidecar(store)
        assert store.db_path.exists() and store.side_artifacts() == []

    def test_unknown_optional_kind_fails_build(self, demo_tree, tmp_path):
        result = dir2index(
            demo_tree,
            tmp_path / "idx",
            opts=BuildOptions(
                nthreads=1, optional_artifacts=("no_such_kind",)
            ),
        )
        # every directory reports the unknown kind; nothing commits
        assert result.errors
        assert "no_such_kind" in str(result.errors[0][1])
        assert result.dirs_created == 0

    def test_fault_site_fires_per_sidecar(self, demo_tree, tmp_path):
        plan = FaultPlan.io_at(fts.FAULT_SITE, at=2)
        result = dir2index(
            demo_tree,
            tmp_path / "idx",
            opts=BuildOptions(
                nthreads=1,
                optional_artifacts=(fts.FTS_KIND,),
                faults=plan,
                retry=None,
            ),
        )
        fired = [f for f in plan.fired if f.site == fts.FAULT_SITE]
        assert len(fired) == 1
        assert result.errors or result.dirs_retried  # the fault surfaced


class TestSearch:
    def test_search_dir_hits(self, fts_index):
        store = fts_index.store("/public")
        hits = fts.search_dir(store, "readme")
        assert [n for n, _ino in hits] == ["readme"]

    def test_search_dir_without_sidecar_is_empty(self, demo_index):
        assert fts.search_dir(demo_index.store("/public"), "readme") == []

    def test_search_dir_limit(self, fts_index):
        store = fts_index.store("/public")
        assert len(fts.search_dir(store, "readme OR link", limit=1)) == 1

    def test_search_names_root_sees_everything(self, fts_index):
        hits = fts.search_names(fts_index, "txt", ROOT)
        assert ("/home/alice", "a.txt") in hits
        assert ("/home/bob", "b.txt") in hits
        assert ("/public/xonly", "hidden.txt") in hits

    def test_search_names_permission_gated(self, fts_index):
        # bob cannot read alice's 0700 home, and /public/xonly is
        # searchable-not-readable: names there stay invisible
        hits = fts.search_names(fts_index, "txt", BOB)
        assert ("/home/bob", "b.txt") in hits
        assert all(sp != "/home/alice" for sp, _n in hits)
        assert all(sp != "/public/xonly" for sp, _n in hits)

    def test_search_names_owner_sees_own(self, fts_index):
        hits = fts.search_names(fts_index, "txt", ALICE)
        assert ("/home/alice", "a.txt") in hits
        # alice cannot see bob's secret subtree
        assert all("secret" not in sp for sp, _n in hits)
