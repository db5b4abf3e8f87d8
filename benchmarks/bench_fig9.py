"""Figure 9 — extended-attribute query performance.

9a: sentinel-xattr search on trees with 25/50/100% xattr coverage —
GUFI's sharded xattr views versus XFS ``find | xargs getfattr`` and
the pre-generated-file-list variant (cost ∝ total files either way,
because POSIX cannot filter by attribute presence).
9b: scan (sentinel in every tagged file) versus stab (unique needle).
"""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.query import QuerySpec
from repro.gen.datasets import dataset2
from repro.gen.namespace import apply_xattrs
from repro.harness import fig9

from _bench_helpers import DS2_SCALE, NTHREADS, save_table

SCAN_SPEC = QuerySpec(
    E="SELECT rpath(dname, d_isroot, name), exattrs FROM xpentries "
    "WHERE exattrs LIKE '%user.ext%'",
    xattrs=True,
)
STAB_SPEC = QuerySpec(
    E="SELECT rpath(dname, d_isroot, name), exattrs FROM xpentries "
    "WHERE exattrs LIKE '%needle%'",
    xattrs=True,
)


def bench_fig9_table(benchmark):
    table = benchmark.pedantic(
        lambda: fig9(scale=DS2_SCALE, coverages=(0.25, 0.5, 1.0),
                     nthreads=NTHREADS),
        rounds=1, iterations=1,
    )
    save_table("fig9", table)
    xfs = table.column("xfs find+getfattr (s)")
    gufi = table.column("gufi scan modelled (s)")
    assert all(g < x for g, x in zip(gufi, xfs))


@pytest.fixture(scope="module")
def tagged_index(tmp_path_factory):
    """Tree-1-style namespace (25% coverage) with xattr side dbs."""
    ns = dataset2(scale=DS2_SCALE, seed=22)
    tagged, needle = apply_xattrs(ns, 0.25)
    root = tmp_path_factory.mktemp("f9idx")
    built = dir2index(ns.tree, root / "idx",
                      opts=BuildOptions(nthreads=NTHREADS))
    return built.index, tagged, needle


def bench_fig9_gufi_scan(benchmark, tagged_index):
    index, tagged, _ = tagged_index
    q = QueryEngine(index, nthreads=NTHREADS)
    result = benchmark(lambda: q.run(SCAN_SPEC))
    assert len(result.rows) == len(tagged)


def bench_fig9_gufi_stab(benchmark, tagged_index):
    index, _, needle = tagged_index
    q = QueryEngine(index, nthreads=NTHREADS)
    result = benchmark(lambda: q.run(STAB_SPEC))
    assert [r[0] for r in result.rows] == [needle]
