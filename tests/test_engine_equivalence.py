"""One engine, one answer: a query's rows do not depend on how
:class:`repro.core.engine.QueryEngine` is driven — plan on/off,
in-memory vs streamed sink, rolled-up vs plain index, ``run_single``
vs one directory of ``run`` — for privileged and unprivileged callers
alike, and the counters obey the golden invariants on the demo tree.
Plus a hypothesis property over generated predicates."""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine, QueryPermissionError, ThreadFileSink
from repro.core.plan import QueryPlan, plan_for
from repro.core.query import Q1_LIST_PATHS, Q3_DU_SUMMARIES, QuerySpec
from repro.core.rollup import rollup
from repro.core.tools import FindFilters
from repro.fs.permissions import ROOT

from .conftest import ALICE, CAROL_IN_PROJ, NTHREADS, build_demo_tree

#: the find-shaped query the plan cases gate on (size >= 600 keeps
#: p.c (700) and d.h5 (900) and prunes most directories)
FILTERS = FindFilters(min_size=600)
SPEC = QuerySpec(
    E="SELECT rpath(dname, d_isroot, name), type, size "
    f"FROM vrpentries{FILTERS.where_clause()}"
)

CREDS_CASES = [("root", ROOT), ("alice", ALICE), ("carol", CAROL_IN_PROJ)]
COUNTERS = (
    "dirs_visited",
    "dirs_denied",
    "dbs_opened",
    "dirs_errored",
    "dirs_pruned_by_plan",
    "attaches_elided",
)


def _build(tmp_path_factory, name: str):
    root = tmp_path_factory.mktemp(name)
    return dir2index(
        build_demo_tree(), root / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index


@pytest.fixture(scope="module")
def plain_index(tmp_path_factory):
    return _build(tmp_path_factory, "eq_plain")


@pytest.fixture(scope="module")
def rolled_index(tmp_path_factory):
    idx = _build(tmp_path_factory, "eq_rolled")
    rollup(idx, nthreads=NTHREADS)
    return idx


@pytest.fixture(scope="module")
def damaged_index(tmp_path_factory):
    """The demo index with one directory database overwritten."""
    idx = _build(tmp_path_factory, "eq_damaged")
    idx.db_path("/home/bob/secret").write_bytes(b"not a database" * 64)
    return idx


def _counters(result) -> dict:
    return {name: getattr(result, name) for name in COUNTERS}


def _streamed_rows(result) -> list[str]:
    lines: list[str] = []
    for path in result.output_files or []:
        with open(path) as fh:
            lines.extend(ln.rstrip("\n") for ln in fh)
    return sorted(lines)


@pytest.mark.parametrize(
    "who,rolled,planned,streamed",
    [
        pytest.param(
            who, rolled, planned, streamed,
            id=f"{who}-{'rollup' if rolled else 'plain'}"
            f"-{'plan' if planned else 'noplan'}"
            f"-{'stream' if streamed else 'memory'}",
        )
        for (who, _), rolled, planned, streamed in itertools.product(
            CREDS_CASES, (False, True), (False, True), (False, True)
        )
    ],
)
def test_run_matrix(request, tmp_path, who, rolled, planned, streamed):
    """Same rows as the unplanned in-memory run, whichever plan and
    sink; counters obey the golden invariants."""
    index = request.getfixturevalue("rolled_index" if rolled else "plain_index")
    creds = dict(CREDS_CASES)[who]
    plan = plan_for(FILTERS) if planned else None

    with QueryEngine(index, creds=creds, nthreads=NTHREADS) as engine:
        reference = sorted(engine.run(SPEC).rows)
        # Attach elision fires on cached *bounds*, and a plan-less run
        # caches none (it reads the lean record): the planned run warms
        # itself.
        engine.run(SPEC, plan=plan)
        if streamed:
            r = engine.run(
                SPEC, plan=plan, sink=ThreadFileSink(str(tmp_path / "out"))
            )
            assert r.rows == []
            assert _streamed_rows(r) == sorted(
                "\t".join(str(v) for v in row) for row in reference
            )
        else:
            r = engine.run(SPEC, plan=plan)
            assert sorted(r.rows) == reference
        assert not r.truncated

    assert r.dirs_visited >= 1
    assert r.dbs_opened + r.attaches_elided <= r.dirs_visited + 1
    if who == "root":
        assert r.dirs_denied == 0
    if not planned:
        assert r.dirs_pruned_by_plan == 0
        assert r.attaches_elided == 0
        assert r.dbs_opened == r.dirs_visited
    else:
        # warm cache + selective predicate: elision must fire
        assert r.attaches_elided > 0
        assert r.dirs_pruned_by_plan >= r.attaches_elided


#: no plan, a depth window that excludes level 0, unmatchable stats
SINGLE_PLANS = (None, QueryPlan(min_level=1), QueryPlan(min_size=10**9))


@pytest.mark.parametrize("who", [w for w, _ in CREDS_CASES])
@pytest.mark.parametrize(
    "path",
    [
        "/",
        "/home/bob",
        "/proj/shared",
        "/public/xonly",  # 0711: searchable, not readable
        "/home/bob/secret",  # corrupt db.db
        "/nope",  # not in the index
    ],
)
def test_run_single_matrix(damaged_index, who, path):
    """``run_single`` is one directory of ``run``: same rows, same six
    counters as ``run`` bounded to level 0 under the same gates, cold
    and warm — except that denial raises instead of being counted."""
    index = damaged_index
    creds = dict(CREDS_CASES)[who]
    with QueryEngine(index, creds=creds, nthreads=NTHREADS) as engine:
        if path == "/nope":
            for call in (engine.run, engine.run_single):
                with pytest.raises(FileNotFoundError):
                    call(SPEC, path)
            return
        for plan in SINGLE_PLANS:
            level0 = (
                QueryPlan(max_level=0, entries_shaped=False)
                if plan is None
                else dataclasses.replace(plan, max_level=0)
            )
            for warm in (False, True):
                if not warm:
                    index.invalidate_cache()
                walked = engine.run(SPEC, path, plan=level0)
                if not warm:
                    index.invalidate_cache()
                if walked.dirs_denied:
                    assert _counters(walked) == dict.fromkeys(COUNTERS, 0) | {
                        "dirs_denied": 1
                    }
                    with pytest.raises(QueryPermissionError):
                        engine.run_single(SPEC, path, plan=plan)
                    continue
                single = engine.run_single(SPEC, path, plan=plan)
                assert sorted(single.rows) == sorted(walked.rows)
                assert _counters(single) == _counters(walked)
                # the overwritten database is counted, never raised
                assert single.dirs_errored == (path == "/home/bob/secret")


def test_rollup_preserves_rows_across_apis(plain_index, rolled_index):
    """Rollup changes *where* rows come from, never which rows come
    back — for the walk and for the merged (``J``/``G``) total."""
    for creds in (ROOT, ALICE, CAROL_IN_PROJ):
        results = []
        for index in (plain_index, rolled_index):
            with QueryEngine(index, creds=creds, nthreads=NTHREADS) as q:
                results.append(
                    (sorted(q.run(Q1_LIST_PATHS).rows), q.run(Q3_DU_SUMMARIES).rows)
                )
        assert results[0] == results[1]


def test_stage_timings_populated_identically(plain_index):
    """With metrics on, ``run`` and ``run_single`` both fill
    stage_seconds for all five stages (J/G real work included via an
    aggregated spec)."""
    with obs.enabled(metrics=True):
        with QueryEngine(plain_index, nthreads=NTHREADS) as q:
            for result in (
                q.run(Q3_DU_SUMMARIES),
                q.run_single(Q3_DU_SUMMARIES, "/home/bob"),
            ):
                assert result.stage_seconds is not None
                assert set(result.stage_seconds) == {"T", "S", "E", "J", "G"}
                assert all(v >= 0.0 for v in result.stage_seconds.values())
                assert result.scalar() is not None
            assert result.dbs_opened == 1


def test_stage_timings_absent_when_disabled(plain_index):
    with QueryEngine(plain_index, nthreads=NTHREADS) as q:
        assert q.run(SPEC).stage_seconds is None
        assert q.run_single(SPEC, "/home/bob").stage_seconds is None


@settings(max_examples=12, deadline=None)
@given(
    min_size=st.integers(min_value=0, max_value=1200),
    who=st.sampled_from([w for w, _ in CREDS_CASES]),
)
def test_property_rows_and_counters_agree(plain_index, min_size, who):
    """For any size predicate and any caller, the planned and the
    unplanned run return the same rows and visit the same directories;
    the plan only ever trades opens for prunes."""
    creds = dict(CREDS_CASES)[who]
    filters = FindFilters(min_size=min_size)
    spec = QuerySpec(
        E="SELECT rpath(dname, d_isroot, name), size "
        f"FROM vrpentries{filters.where_clause()}"
    )
    with QueryEngine(plain_index, creds=creds, nthreads=NTHREADS) as engine:
        plain = engine.run(spec)
        planned = engine.run(spec, plan=plan_for(filters))
    assert sorted(planned.rows) == sorted(plain.rows)
    for name in ("dirs_visited", "dirs_denied", "dirs_errored"):
        assert getattr(planned, name) == getattr(plain, name)
    assert planned.dbs_opened + planned.attaches_elided == plain.dbs_opened
    assert plain.dirs_pruned_by_plan == plain.attaches_elided == 0
