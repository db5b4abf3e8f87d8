"""Tests for streamed per-thread query output (the tool's -o flag)."""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.query import QuerySpec
from tests.conftest import BOB, NTHREADS, build_demo_tree


@pytest.fixture
def idx(tmp_path):
    return dir2index(
        build_demo_tree(), tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index


class TestOutputFiles:
    def test_rows_streamed_not_accumulated(self, idx, tmp_path):
        spec = QuerySpec(
            E="SELECT rpath(dname, d_isroot, name), size FROM vrpentries",
            output_prefix=str(tmp_path / "out"),
        )
        result = QueryEngine(idx, nthreads=NTHREADS).run(spec)
        assert result.rows == []
        assert result.output_files
        lines = []
        for path in result.output_files:
            with open(path) as fh:
                lines.extend(ln.rstrip("\n") for ln in fh)
        # same content the in-memory variant returns
        in_mem = QueryEngine(idx, nthreads=NTHREADS).run(
            QuerySpec(E="SELECT rpath(dname, d_isroot, name), size "
                        "FROM vrpentries")
        )
        expected = sorted(f"{p}\t{s}" for p, s in in_mem.rows)
        assert sorted(lines) == expected

    def test_one_file_per_worker_thread(self, idx, tmp_path):
        spec = QuerySpec(
            E="SELECT name FROM pentries",
            output_prefix=str(tmp_path / "o"),
        )
        result = QueryEngine(idx, nthreads=NTHREADS).run(spec)
        assert 1 <= len(result.output_files) <= NTHREADS
        assert all(p.startswith(str(tmp_path / "o") + ".") for p in result.output_files)

    def test_permission_gating_applies(self, idx, tmp_path):
        spec = QuerySpec(
            E="SELECT rpath(dname, d_isroot, name) FROM vrpentries",
            output_prefix=str(tmp_path / "bob"),
        )
        result = QueryEngine(idx, creds=BOB, nthreads=NTHREADS).run(spec)
        content = "".join(
            open(p).read() for p in result.output_files
        )
        assert "alice" not in content

    def test_aggregation_still_returns_rows(self, idx, tmp_path):
        """-o only streams per-directory SELECTs; the G stage's merged
        result still comes back in rows."""
        spec = QuerySpec(
            I="CREATE TABLE n (c INTEGER)",
            E="INSERT INTO n SELECT COUNT(*) FROM pentries",
            J="INSERT INTO aggregate.n SELECT TOTAL(c) FROM n",
            G="SELECT TOTAL(c) FROM n",
            output_prefix=str(tmp_path / "agg"),
        )
        result = QueryEngine(idx, nthreads=NTHREADS).run(spec)
        assert result.rows[-1][0] == 9  # all demo entries

    def test_none_values_serialised_empty(self, idx, tmp_path):
        spec = QuerySpec(
            S="SELECT spath(name, isroot), minsize FROM summary",
            output_prefix=str(tmp_path / "s"),
        )
        result = QueryEngine(idx, nthreads=NTHREADS).run(spec)
        lines = [
            ln for p in result.output_files for ln in open(p).read().splitlines()
        ]
        # dirs without files have NULL minsize -> empty field, line intact
        assert any(ln.endswith("\t") for ln in lines)
