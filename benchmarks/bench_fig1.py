"""Figure 1 — metadata query time across file-system technologies.

Regenerates the paper's opening comparison: ``find -ls`` / ``du -s``
over a Linux-kernel-shaped source tree on GPFS, Lustre, NFS, and a
local file system (per-operation latency models) versus GUFI (the real
index, measured, plus the same I/O through the paper's SSD model).

Expected shape: GPFS/Lustre ≫ NFS ≫ local ≳ GUFI.
"""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.query import Q3_DU_SUMMARIES, QuerySpec
from repro.gen.datasets import linux_kernel_tree
from repro.harness import fig1

from _bench_helpers import NTHREADS, save_table

SCALE = 0.15


def bench_fig1_table(benchmark):
    """Produce the full Fig 1 table (the benchmark times one run of
    the whole comparison)."""
    table = benchmark.pedantic(
        lambda: fig1(scale=SCALE, nthreads=NTHREADS), rounds=1, iterations=1
    )
    save_table("fig1", table)
    times = dict(zip(table.column("system"), table.column("find -ls (s)")))
    assert times["gpfs"] > times["nfs"] > times["gufi (modelled)"]


@pytest.fixture(scope="module")
def kernel_index(tmp_path_factory):
    ns = linux_kernel_tree(scale=SCALE)
    root = tmp_path_factory.mktemp("fig1_idx")
    return dir2index(ns.tree, root / "idx",
                     opts=BuildOptions(nthreads=NTHREADS))


def bench_fig1_gufi_find_ls(benchmark, kernel_index):
    """GUFI's find-ls equivalent, wall-clock (the repeatable kernel of
    Fig 1's GUFI bar)."""
    q = QueryEngine(kernel_index.index, nthreads=NTHREADS)
    spec = QuerySpec(
        S="SELECT spath(name, isroot), mode, uid, gid, size FROM summary",
        E="SELECT rpath(dname, d_isroot, name), mode, uid, gid, size, mtime "
        "FROM vrpentries",
    )
    result = benchmark(lambda: q.run(spec))
    assert result.rows


def bench_fig1_gufi_du(benchmark, kernel_index):
    """GUFI's du -s equivalent, wall-clock."""
    q = QueryEngine(kernel_index.index, nthreads=NTHREADS)
    result = benchmark(lambda: q.run(Q3_DU_SUMMARIES))
    assert result.rows[-1][0] > 0
