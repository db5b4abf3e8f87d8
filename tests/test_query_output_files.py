"""Tests for streamed per-thread query output (the tool's -o flag)."""

from __future__ import annotations

import os

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine, ThreadFileSink
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
        )
        result = QueryEngine(idx, nthreads=NTHREADS).run(
            spec, sink=ThreadFileSink(str(tmp_path / "out"))
        )
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
        spec = QuerySpec(E="SELECT name FROM pentries")
        result = QueryEngine(idx, nthreads=NTHREADS).run(
            spec, sink=ThreadFileSink(str(tmp_path / "o"))
        )
        assert 1 <= len(result.output_files) <= NTHREADS
        assert all(p.startswith(str(tmp_path / "o") + ".") for p in result.output_files)

    def test_permission_gating_applies(self, idx, tmp_path):
        spec = QuerySpec(
            E="SELECT rpath(dname, d_isroot, name) FROM vrpentries",
        )
        result = QueryEngine(idx, creds=BOB, nthreads=NTHREADS).run(
            spec, sink=ThreadFileSink(str(tmp_path / "bob"))
        )
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
        )
        result = QueryEngine(idx, nthreads=NTHREADS).run(
            spec, sink=ThreadFileSink(str(tmp_path / "agg"))
        )
        assert result.rows[-1][0] == 9  # all demo entries

    def test_none_values_serialised_empty(self, idx, tmp_path):
        spec = QuerySpec(S="SELECT spath(name, isroot), minsize FROM summary")
        result = QueryEngine(idx, nthreads=NTHREADS).run(
            spec, sink=ThreadFileSink(str(tmp_path / "s"))
        )
        lines = [
            ln for p in result.output_files for ln in open(p).read().splitlines()
        ]
        # dirs without files have NULL minsize -> empty field, line intact
        assert any(ln.endswith("\t") for ln in lines)


class TestFilesAcrossRuns:
    """A run's file sink opens its own files: nothing of the last run's
    output is held open on the engine's pooled states."""

    FIRST = QuerySpec(E="SELECT name FROM pentries")
    SECOND = QuerySpec(E="SELECT name, size FROM pentries")

    @staticmethod
    def _lines(q, spec):
        return "".join(
            "\t".join(str(v) for v in row) + "\n" for row in q.run(spec).rows
        ).encode()

    def _second_run(self, idx, tmp_path, between):
        """Run FIRST then SECOND on one single-thread engine, both to
        ``out``, with ``between`` done to the first run's file."""
        out = str(tmp_path / "out")
        with QueryEngine(idx, nthreads=1) as q:
            first = q.run(self.FIRST, sink=ThreadFileSink(out))
            assert first.output_files == [out + ".0"]
            between(out + ".0")
            second = q.run(self.SECOND, sink=ThreadFileSink(out))
            want = self._lines(q, self.SECOND)
        assert second.output_files == [out + ".0"]
        # one thread: that run's rows, in walk order
        assert (tmp_path / "out.0").read_bytes() == want

    def test_renamed_file_is_left_alone(self, idx, tmp_path):
        kept = tmp_path / "kept.0"
        before = []

        def rename(path):
            os.rename(path, kept)
            before.append(kept.read_bytes())

        self._second_run(idx, tmp_path, rename)
        assert before[0].count(b"\n") == 9
        assert kept.read_bytes() == before[0]

    def test_deleted_file_does_not_swallow_the_next_run(self, idx, tmp_path):
        self._second_run(idx, tmp_path, os.unlink)

    def test_run_without_rows_leaves_an_empty_first_file(self, idx, tmp_path):
        spec = QuerySpec(E="SELECT name FROM pentries WHERE 0")
        with QueryEngine(idx, nthreads=NTHREADS) as q:
            result = q.run(spec, sink=ThreadFileSink(str(tmp_path / "e")))
        assert result.output_files == [str(tmp_path / "e.0")]
        assert (tmp_path / "e.0").read_bytes() == b""
