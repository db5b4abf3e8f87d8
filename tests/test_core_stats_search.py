"""Tests for the index statistics tool (gufi_stats) and the portal
search-bar query language."""

from __future__ import annotations

import pytest

from repro.core.search import SearchSyntaxError, parse
from repro.core.server import GUFIServer, IdentityProvider, QueryPortal
from repro.core.stats import _bucket, collect_stats, render_stats
from repro.core.engine import QueryEngine
from repro.core.rollup import rollup
from tests.conftest import ALICE, BOB, NTHREADS

HORIZON = 10**6  # a "now" safely past all demo-tree timestamps


class TestBucket:
    @pytest.mark.parametrize(
        "n,expect", [(0, 0), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8),
                     (1000, 1024), (1024, 1024), (1025, 2048)],
    )
    def test_power_of_two(self, n, expect):
        assert _bucket(n) == expect


class TestCollectStats:
    def test_counts_match_tree(self, demo_tree, demo_index):
        stats = collect_stats(demo_index, nthreads=NTHREADS)
        assert stats.total_dirs == demo_tree.num_dirs
        assert stats.total_files == demo_tree.num_files
        assert stats.total_links == demo_tree.num_symlinks
        expected_bytes = sum(
            i.size for _, i in demo_tree.iter_inodes() if i.ftype.value != "d"
        )
        assert stats.total_bytes == expected_bytes

    def test_per_level(self, demo_index):
        stats = collect_stats(demo_index, nthreads=NTHREADS)
        assert stats.dirs_per_level[0] == 1  # the root
        assert stats.dirs_per_level[1] == 3  # /home /proj /public
        assert stats.max_depth == 3

    def test_bytes_by_uid(self, demo_index):
        stats = collect_stats(demo_index, nthreads=NTHREADS)
        assert stats.bytes_by_uid[1001] == 100 + 250 + 700
        assert stats.entries_by_uid[1002] == 2

    def test_size_histogram_total(self, demo_tree, demo_index):
        stats = collect_stats(demo_index, nthreads=NTHREADS)
        assert sum(stats.size_histogram.values()) == demo_tree.num_files

    def test_permission_scoped(self, demo_index):
        root_stats = collect_stats(demo_index, nthreads=NTHREADS)
        bob_stats = collect_stats(demo_index, creds=BOB, nthreads=NTHREADS)
        assert bob_stats.total_dirs < root_stats.total_dirs
        assert bob_stats.total_bytes < root_stats.total_bytes
        assert 1001 not in bob_stats.bytes_by_uid or (
            bob_stats.bytes_by_uid[1001] < root_stats.bytes_by_uid[1001]
        )

    def test_stable_under_rollup(self, demo_index):
        before = collect_stats(demo_index, nthreads=NTHREADS)
        rollup(demo_index, nthreads=NTHREADS)
        after = collect_stats(demo_index, nthreads=NTHREADS)
        assert after.total_dirs == before.total_dirs
        assert after.total_bytes == before.total_bytes
        assert after.dirs_per_level == before.dirs_per_level

    def test_render(self, demo_index):
        stats = collect_stats(demo_index, nthreads=NTHREADS)
        text = render_stats(stats, users={1001: "alice"})
        assert "directories :" in text
        assert "alice" in text

    def test_top_users(self, demo_index):
        stats = collect_stats(demo_index, nthreads=NTHREADS)
        top = stats.top_users(2)
        assert top[0][1] >= top[1][1]

    def test_mean_entries(self, demo_tree, demo_index):
        stats = collect_stats(demo_index, nthreads=NTHREADS)
        expected = (demo_tree.num_files + demo_tree.num_symlinks) / demo_tree.num_dirs
        assert stats.mean_entries_per_dir == pytest.approx(expected)


class TestSearchParser:
    def test_bare_word(self):
        q = parse("report")
        assert q.filters.name_like == "%report%"

    def test_glob_name(self):
        q = parse("name:*.h5")
        assert q.filters.name_like == "%.h5"
        q2 = parse("*.txt")
        assert q2.filters.name_like == "%.txt"

    def test_question_mark_glob(self):
        assert parse("name:data?").filters.name_like == "data_"

    def test_literal_percent_escaped(self):
        q = parse("name:100%*")
        assert q.filters.name_like == "100\\%%"

    def test_sizes(self):
        q = parse("size>>100m size<<2g")
        assert q.filters.min_size == 100 * 2**20
        assert q.filters.max_size == 2 * 2**30

    def test_type_user_group(self):
        q = parse("type:f user:1001 group:100")
        assert (q.filters.ftype, q.filters.uid, q.filters.gid) == ("f", 1001, 100)

    def test_ages(self):
        q = parse("older:90d newer:365d", now=1000 * 86400)
        assert q.filters.mtime_before == (1000 - 90) * 86400
        assert q.filters.mtime_after == (1000 - 365) * 86400

    def test_age_requires_now(self):
        with pytest.raises(SearchSyntaxError):
            parse("older:90d")

    def test_xattr_and_tag(self):
        q = parse("xattr:user.experiment tag:exp-001")
        assert q.filters.xattr_name_like == "%user.experiment%"
        assert q.tag_substring == "exp-001"
        assert q.needs_xattr_values

    def test_spec_compiles(self):
        spec = parse("*.h5 size>>1k").to_spec()
        assert "vrpentries" in spec.E
        assert not spec.xattrs
        spec2 = parse("tag:exp").to_spec()
        assert spec2.xattrs and "xpentries" in spec2.E

    @pytest.mark.parametrize("bad", ["", "  ", "size>>abc", "type:x",
                                     "frob:1", "older:soon"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(SearchSyntaxError):
            parse(bad, now=0)


class TestSearchExecution:
    def test_name_search(self, demo_index):
        spec = parse("*.txt").to_spec()
        result = QueryEngine(demo_index, nthreads=NTHREADS).run(spec)
        assert {r[0] for r in result.rows} == {
            "/home/alice/a.txt", "/home/bob/b.txt", "/public/xonly/hidden.txt",
        }

    def test_search_respects_permissions(self, demo_index):
        spec = parse("*.txt").to_spec()
        result = QueryEngine(demo_index, creds=ALICE, nthreads=NTHREADS).run(spec)
        assert {r[0] for r in result.rows} == {
            "/home/alice/a.txt", "/home/bob/b.txt",
        }

    def test_size_and_type(self, demo_index):
        spec = parse("type:f size>>600").to_spec()
        rows = QueryEngine(demo_index, nthreads=NTHREADS).run(spec).rows
        assert {r[0] for r in rows} == {
            "/proj/shared/p.c", "/proj/shared/data/d.h5",
        }

    def test_tag_search(self, xattr_namespace):
        ns, tagged, needle, index = xattr_namespace
        spec = parse("tag:found-me").to_spec()
        rows = QueryEngine(index, nthreads=NTHREADS).run(spec).rows
        assert [r[0] for r in rows] == [needle]

    def test_portal_search(self, demo_index):
        idp = IdentityProvider()
        idp.add_user("alice", uid=1001, gid=1001)
        portal = QueryPortal(GUFIServer(demo_index, idp, nthreads=NTHREADS))
        result = portal.search("alice", "*.txt")
        assert len(result.rows) == 2


class TestFromPasswd:
    PASSWD = """\
# comment
root:x:0:0:root:/root:/bin/bash
alice:x:1001:1001:Alice:/home/alice:/bin/bash
bob:x:1002:1002::/home/bob:/bin/bash
broken line
"""
    GROUP = """\
proj:x:100:alice,bob
empty:x:101:
"""

    def test_load(self):
        idp = IdentityProvider.from_passwd(self.PASSWD, self.GROUP)
        alice = idp.authenticate("alice")
        assert alice.uid == 1001 and alice.in_group(100)
        bob = idp.authenticate("bob")
        assert bob.in_group(100)
        assert idp.authenticate("root").is_root

    def test_groupless(self):
        idp = IdentityProvider.from_passwd(self.PASSWD)
        assert not idp.authenticate("alice").in_group(100)
