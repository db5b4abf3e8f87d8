"""Pickle round-trips for the payload types scatter-gather ships to
worker processes.

Every object that crosses the process boundary (``QuerySpec``,
``QueryPlan``, ``FindFilters``, ``Credentials``) must survive
``pickle.dumps``/``loads`` with full fidelity — including under
protocol 2, the floor any spawn-method start can negotiate — because a
silently lossy round-trip would make multi-process results diverge
from single-process ones in ways the equivalence suite might not
exercise.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.engine import QuerySpec
from repro.core.plan import QueryPlan, plan_for
from repro.core.tools import FindFilters
from repro.fs.permissions import ROOT, Credentials

PROTOCOLS = [2, pickle.HIGHEST_PROTOCOL]


def round_trip(obj, protocol):
    return pickle.loads(pickle.dumps(obj, protocol=protocol))


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestPicklable:
    def test_query_spec_defaults(self, protocol):
        spec = QuerySpec(E="SELECT name FROM pentries")
        assert round_trip(spec, protocol) == spec

    def test_query_spec_all_stages(self, protocol):
        spec = QuerySpec(
            I="CREATE TABLE t (v INTEGER)",
            T="SELECT totsize FROM tsummary WHERE rectype = 0",
            S="INSERT INTO t SELECT TOTAL(size) FROM summary",
            E="INSERT INTO t SELECT TOTAL(size) FROM pentries",
            J="INSERT INTO aggregate.t SELECT TOTAL(v) FROM t",
            G="SELECT TOTAL(v) FROM t",
            xattrs=True,
            t_no_prune=True,
        )
        clone = round_trip(spec, protocol)
        assert clone == spec
        # Field-by-field, so a future non-comparing field still fails.
        for name in spec.__dataclass_fields__:
            assert getattr(clone, name) == getattr(spec, name), name

    def test_query_plan(self, protocol):
        plan = QueryPlan(min_level=1, max_level=3, entries_shaped=False)
        clone = round_trip(plan, protocol)
        assert clone == plan
        assert clone.wants_level(2) and not clone.wants_level(0)
        assert clone.descend_allowed(3) == plan.descend_allowed(3)

    def test_query_plan_from_filters(self, protocol):
        plan = plan_for(
            FindFilters(min_size=600, ftype="f", name_like="%.h5")
        )
        clone = round_trip(plan, protocol)
        assert clone == plan

    def test_find_filters(self, protocol):
        filters = FindFilters(
            name_like="%.c", ftype="f", min_size=1, max_size=10**9,
            uid=1001, gid=100, mtime_before=2_000_000_000, mtime_after=1,
            xattr_name_like="%user.%", min_level=0, max_level=4,
        )
        clone = round_trip(filters, protocol)
        assert clone == filters
        # The behavior the worker relies on, not just the fields.
        assert clone.where_clause() == filters.where_clause()

    def test_credentials(self, protocol):
        creds = Credentials(uid=1003, gid=1003, groups=frozenset({100, 200}))
        clone = round_trip(creds, protocol)
        assert clone == creds
        assert isinstance(clone.groups, frozenset)
        # __post_init__ folds the gid into groups at construction; the
        # round-trip must preserve that normalized set, not re-derive it.
        assert clone.groups == frozenset({100, 200, 1003})
        assert clone.in_group(100) and clone.in_group(1003)

    def test_credentials_root(self, protocol):
        clone = round_trip(ROOT, protocol)
        assert clone == ROOT
        assert clone.uid == 0
