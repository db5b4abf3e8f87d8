"""Row paths built in SQL.

The tools' own SQL writes each row's path with
:data:`~repro.core.sqlfuncs.RPATH_SQL` over ``gufi_dirprefix()``, a
value SQLite computes once per execution of a directory's statement,
instead of calling the Python ``rpath()`` once per row. The fragment
must equal ``rpath`` on every row an index can hold, and every tool
that uses it must return the rows, in the order, that ``rpath`` built.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import search as search_module
from repro.core import tools as tools_module
from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS, QuerySpec
from repro.core.rollup import rollup
from repro.core.sqlfuncs import RPATH_SQL, QueryContext, register
from repro.core.tools import GUFITools
from repro.fs.permissions import ROOT, Credentials
from repro.gen.datasets import dataset2

RPATH_CALL = "rpath(dname, d_isroot, name)"

segment = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x00"),
    min_size=1, max_size=6,
)
relpath = st.lists(segment, min_size=1, max_size=3).map("/".join)
directory = st.lists(segment, max_size=4).map(lambda s: "/" + "/".join(s))
blank = st.sampled_from([None, ""])


@st.composite
def rows(draw):
    """A ``vrpentries`` row: a directory's own (``d_isroot`` 1, any
    ``dname``, empty or missing included) or a rolled-in one (the
    sub-directory's relative path, which is never empty); any name,
    empty or missing included."""
    d_isroot = draw(st.sampled_from([1, 0, None]))
    if d_isroot:
        dname = draw(st.one_of(blank, segment))
    else:
        dname = draw(relpath)
    return dname, d_isroot, draw(st.one_of(blank, segment))


@pytest.fixture(scope="module")
def helpers():
    ctx = QueryContext()
    conn = sqlite3.connect(":memory:")
    register(conn, ctx)
    yield ctx, conn
    conn.close()


@settings(max_examples=200, deadline=None)
@given(current=directory, row=rows())
def test_fragment_equals_rpath(helpers, current, row):
    ctx, conn = helpers
    ctx.current_path = current
    # the same statement text every example: the cached statement,
    # re-run for another directory, must see the new prefix
    got, want = conn.execute(
        f"SELECT {RPATH_SQL}, {RPATH_CALL} "
        "FROM (SELECT ? AS dname, ? AS d_isroot, ? AS name)",
        row,
    ).fetchone()
    assert got == want


def test_dirprefix_once_per_execution(helpers):
    ctx, conn = helpers
    calls = []
    conn.create_function(
        "gufi_dirprefix", 0,
        lambda: calls.append(1) or ctx.current_path.rstrip("/"),
        deterministic=True,
    )
    try:
        ctx.current_path = "/a"
        sql = f"SELECT {RPATH_SQL} FROM (SELECT 'd' AS dname, " \
              "1 AS d_isroot, value AS name FROM json_each('[\"x\",\"y\",\"z\"]'))"
        assert [r[0] for r in conn.execute(sql)] == ["/a/x", "/a/y", "/a/z"]
        assert 0 < len(calls) < 3
        ctx.current_path = "/b/c"
        assert [r[0] for r in conn.execute(sql)] == ["/b/c/x", "/b/c/y", "/b/c/z"]
    finally:
        register(conn, ctx)


@pytest.fixture(scope="module")
def namespace():
    return dataset2(scale=0.00005, seed=22)


@pytest.fixture(scope="module", params=["unrolled", "rolled"])
def index(request, namespace, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param) / "idx"
    built = dir2index(namespace.tree, root, opts=BuildOptions(nthreads=2)).index
    if request.param == "rolled":
        assert rollup(built, nthreads=2).rolled > 0
    return built


def calls():
    """The tools whose SQL builds paths, each as a function of a
    ``GUFITools``: its rows."""
    return {
        "find": lambda t: t.find("/").rows,
        "largest_files": lambda t: t.largest_files("/", limit=50),
        "recently_modified": lambda t: t.recently_modified("/", limit=50),
        "search": lambda t: t.search("type:f size>>100").rows,
        "Q1_LIST_PATHS": lambda t: t.engine.run(Q1_LIST_PATHS).rows,
    }


@pytest.mark.parametrize("creds", [ROOT, Credentials(uid=1001, gid=1001)],
                         ids=["root", "user"])
@pytest.mark.parametrize("tool", sorted(calls()))
def test_tool_rows_equal_rpath_built(index, creds, tool, monkeypatch):
    call = calls()[tool]
    with GUFITools(index, creds, nthreads=1) as t:
        got = call(t)
    monkeypatch.setattr(tools_module, "RPATH_SQL", RPATH_CALL)
    monkeypatch.setattr(search_module, "RPATH_SQL", RPATH_CALL)
    if tool == "Q1_LIST_PATHS":
        want = QueryEngine(index, creds, nthreads=1).run(
            QuerySpec(E=f"SELECT {RPATH_CALL} FROM vrpentries")
        ).rows
    else:
        with GUFITools(index, creds, nthreads=1) as t:
            want = call(t)
    assert got == want and got


def test_xattr_search_rows_equal_rpath_built(xattr_namespace, monkeypatch):
    _ns, tagged, _needle, index = xattr_namespace
    with GUFITools(index, nthreads=1) as t:
        got = t.xattr_search("user.").rows
    monkeypatch.setattr(tools_module, "RPATH_SQL", RPATH_CALL)
    with GUFITools(index, nthreads=1) as t:
        want = t.xattr_search("user.").rows
    assert got == want
    assert {p for p, _ in got} == set(tagged)
