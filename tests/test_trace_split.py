"""Tests for trace splitting/merging (distributed ingest support)."""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, build_from_stanzas, trace2index
from repro.core.index import GUFIIndex
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS
from repro.scan.scanners import TreeWalkScanner
from repro.scan.trace import merge_traces, read_trace, split_trace, write_trace
from tests.conftest import NTHREADS, build_demo_tree


@pytest.fixture
def trace_file(tmp_path):
    stanzas = TreeWalkScanner(build_demo_tree(), nthreads=1).scan("/").stanzas
    path = tmp_path / "fs.trace"
    write_trace(stanzas, path)
    return path, stanzas


class TestSplit:
    def test_stanza_alignment(self, trace_file, tmp_path):
        path, stanzas = trace_file
        parts = split_trace(path, tmp_path / "parts", 3)
        assert len(parts) == 3
        total = 0
        for part in parts:
            for stanza in read_trace(part):  # parses => aligned
                total += 1
        assert total == len(stanzas)

    def test_no_records_lost(self, trace_file, tmp_path):
        path, stanzas = trace_file
        parts = split_trace(path, tmp_path / "parts", 4)
        got = []
        for part in parts:
            got.extend(s.directory.path for s in read_trace(part))
        assert sorted(got) == sorted(s.directory.path for s in stanzas)

    def test_single_part(self, trace_file, tmp_path):
        path, stanzas = trace_file
        (part,) = split_trace(path, tmp_path / "parts", 1)
        assert len(list(read_trace(part))) == len(stanzas)

    def test_more_parts_than_stanzas(self, trace_file, tmp_path):
        path, stanzas = trace_file
        parts = split_trace(path, tmp_path / "parts", 50)
        assert len(parts) <= 50
        total = sum(len(list(read_trace(p))) for p in parts)
        assert total == len(stanzas)

    def test_invalid_parts(self, trace_file, tmp_path):
        path, _ = trace_file
        with pytest.raises(ValueError):
            split_trace(path, tmp_path / "parts", 0)


class TestMerge:
    def test_roundtrip(self, trace_file, tmp_path):
        path, stanzas = trace_file
        parts = split_trace(path, tmp_path / "parts", 3)
        merged = tmp_path / "merged.trace"
        n = merge_traces(parts, merged)
        assert n == sum(1 + len(s.entries) for s in stanzas)
        back = list(read_trace(merged))
        assert sorted(s.directory.path for s in back) == sorted(
            s.directory.path for s in stanzas
        )


class TestDistributedIngest:
    def test_parallel_part_ingest_composes(self, trace_file, tmp_path):
        """Each part ingested by an independent worker into the same
        index root must compose into the same index a single ingest
        produces."""
        path, stanzas = trace_file
        parts = split_trace(path, tmp_path / "parts", 3)
        shared_root = tmp_path / "sharded_idx"
        for part in parts:  # each is an independent trace2index run
            part_stanzas = list(read_trace(part))
            if not shared_root.exists():
                build_from_stanzas(
                    part_stanzas, shared_root, BuildOptions(nthreads=NTHREADS)
                )
            else:
                idx = GUFIIndex.open(shared_root)
                from repro.core.build import build_dir_db

                for stanza in part_stanzas:
                    build_dir_db(idx, stanza, BuildOptions(nthreads=NTHREADS))
        single = trace2index(
            path, tmp_path / "single_idx", BuildOptions(nthreads=NTHREADS)
        )
        q_sharded = QueryEngine(GUFIIndex.open(shared_root), nthreads=NTHREADS)
        q_single = QueryEngine(single.index, nthreads=NTHREADS)
        assert sorted(q_sharded.run(Q1_LIST_PATHS).rows) == sorted(
            q_single.run(Q1_LIST_PATHS).rows
        )
