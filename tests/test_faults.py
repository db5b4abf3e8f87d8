"""Deterministic fault-injection layer: plan semantics, parsing, and
the VFSTree read hooks."""

from __future__ import annotations

import threading

import pytest

from repro.fs.tree import VFSTree
from repro.scan.faults import (
    BuildCrash,
    Fault,
    FaultPlan,
    InjectedFault,
)
from repro.scan.walker import FatalWalkError


class TestFaultSemantics:
    def test_io_at_fires_exactly_once(self):
        plan = FaultPlan.io_at("s", 3)
        plan.fire("s")
        plan.fire("s")
        with pytest.raises(InjectedFault):
            plan.fire("s")
        for _ in range(5):
            plan.fire("s")  # healed
        assert plan.count("s") == 8
        assert [f.invocation for f in plan.fired] == [3]

    def test_io_times_window(self):
        plan = FaultPlan.io_at("s", 2, times=3)
        plan.fire("s")
        for _ in range(3):
            with pytest.raises(InjectedFault):
                plan.fire("s")
        plan.fire("s")  # invocation 5: healed
        assert len(plan.fired) == 3

    def test_crash_is_fatal_and_single_shot(self):
        plan = FaultPlan.crash_at("s", 1)
        with pytest.raises(BuildCrash):
            plan.fire("s")
        # BuildCrash must abort walks, so it is a FatalWalkError
        assert issubclass(BuildCrash, FatalWalkError)
        plan.fire("s")  # a crash plan never re-fires

    def test_path_keyed_faults(self):
        plan = FaultPlan.flaky_paths("s", ["/a", "/b"], times=2)
        plan.fire("s", "/c")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire("s", "/a")
        plan.fire("s", "/a")  # /a healed after 2 failures
        with pytest.raises(InjectedFault):
            plan.fire("s", "/b")

    def test_sites_count_independently(self):
        plan = FaultPlan.io_at("a", 2)
        plan.fire("b")
        plan.fire("b")
        plan.fire("a")  # site a is only at invocation 1
        with pytest.raises(InjectedFault):
            plan.fire("a")

    def test_sample_flaky_deterministic(self):
        paths = [f"/d{i}" for i in range(100)]
        p1 = FaultPlan.sample_flaky("s", paths, 0.2, seed=7)
        p2 = FaultPlan.sample_flaky("s", paths, 0.2, seed=7)
        chosen1 = sorted(f.path for f in p1.faults)
        chosen2 = sorted(f.path for f in p2.faults)
        assert chosen1 == chosen2
        assert len(chosen1) == 20
        p3 = FaultPlan.sample_flaky("s", paths, 0.2, seed=8)
        assert sorted(f.path for f in p3.faults) != chosen1

    def test_reset_rearms(self):
        plan = FaultPlan.crash_at("s", 1)
        with pytest.raises(BuildCrash):
            plan.fire("s")
        plan.reset()
        with pytest.raises(BuildCrash):
            plan.fire("s")

    def test_thread_safety_exactly_one_firing(self):
        """Concurrent firing: the at=N trigger fires exactly once no
        matter how many threads race the counter."""
        plan = FaultPlan.io_at("s", 50)
        hits = []
        lock = threading.Lock()

        def hammer():
            for _ in range(25):
                try:
                    plan.fire("s")
                except InjectedFault:
                    with lock:
                        hits.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(hits) == 1
        assert plan.count("s") == 100

    def test_invalid_faults_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="nope", site="s", at=1)
        with pytest.raises(ValueError):
            Fault(kind="io", site="s")  # neither at nor path
        with pytest.raises(ValueError):
            Fault(kind="io", site="s", at=1, path="/x")  # both
        with pytest.raises(ValueError):
            Fault(kind="io", site="s", at=0)
        with pytest.raises(ValueError):
            Fault(kind="io", site="s", at=1, times=0)


class TestParse:
    def test_parse_crash(self):
        plan = FaultPlan.parse("crash:build_dir_db:12")
        (f,) = plan.faults
        assert (f.kind, f.site, f.at, f.times) == ("crash", "build_dir_db", 12, 1)

    def test_parse_multi_with_times(self):
        plan = FaultPlan.parse("io:vfs.readdir:3x2; crash:walker.expand:9")
        assert len(plan.faults) == 2
        assert plan.faults[0].times == 2
        assert plan.faults[1].kind == "crash"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus")
        with pytest.raises(ValueError):
            FaultPlan.parse("")
        with pytest.raises(ValueError):
            FaultPlan.parse("io:site:notanumber")


class TestVFSTreeHooks:
    def test_readdir_fault_fires_and_heals(self):
        t = VFSTree()
        t.mkdir("/d")
        t.create_file("/d/f")
        t.set_fault_plan(FaultPlan.flaky_paths("vfs.readdir", ["/d"], times=1))
        with pytest.raises(InjectedFault):
            t.readdir("/d")
        assert [e.name for e in t.readdir("/d")] == ["f"]

    def test_get_inode_fault(self):
        t = VFSTree()
        t.mkdir("/d")
        t.set_fault_plan(FaultPlan.io_at("vfs.get_inode", 1))
        with pytest.raises(InjectedFault):
            t.get_inode("/d")
        assert t.get_inode("/d").ftype.value == "d"

    def test_readdir_plus_returns_name_inode_pairs(self):
        t = VFSTree()
        t.mkdir("/d")
        t.create_file("/d/b", size=3)
        t.symlink("/d/a", "/d/b")
        t.mkdir("/d/c")
        got = t.readdir_plus("/d")
        assert [n for n, _ in got] == ["a", "b", "c"]
        for name, inode in got:
            assert inode is t.get_inode(f"/d/{name}")  # symlink not followed
        with pytest.raises(Exception):
            t.readdir_plus("/d/b")  # not a directory

    def test_readdir_plus_fires_what_readdir_and_get_inode_fire(self):
        """Same sites, same keys, same order as the per-entry calls it
        replaces, so seeded plans replay identically."""

        class Recorder:
            def __init__(self):
                self.calls = []

            def fire(self, site, key=None):
                self.calls.append((site, key))

        t = VFSTree()
        t.mkdir("/d")
        t.create_file("/d/b")
        t.mkdir("/d/c")
        t.symlink("/d/a", "/d/b")

        old, new = Recorder(), Recorder()
        t.set_fault_plan(old)
        for e in t.readdir("/d"):
            if e.ftype.value != "d":
                t.get_inode(f"/d/{e.name}")
        t.set_fault_plan(new)
        t.readdir_plus("/d")
        assert new.calls == old.calls == [
            ("vfs.readdir", "/d"),
            ("vfs.get_inode", "/d/a"),
            ("vfs.get_inode", "/d/b"),
        ]

    def test_scanners_replay_a_seeded_plan(self):
        """The Nth ``vfs.get_inode`` is the same entry for the
        single-directory rescan and the tree walk as before."""
        from repro.core.update import scan_single_dir
        from repro.scan.scanners import TreeWalkScanner

        t = VFSTree()
        t.mkdir("/d")
        for name in ("a", "b", "c"):
            t.create_file(f"/d/{name}")
        t.mkdir("/d/sub")
        # invocation 1 is /d itself, then a, b, c in name order
        t.set_fault_plan(FaultPlan.io_at("vfs.get_inode", 3))
        with pytest.raises(InjectedFault, match=r"\(/d/b\)"):
            scan_single_dir(t, "/d")
        assert [row[0] for row in scan_single_dir(t, "/d").rows] == [
            "a", "b", "c"
        ]
        plan = FaultPlan.io_at("vfs.get_inode", 3)
        t.set_fault_plan(plan)
        TreeWalkScanner(t, nthreads=1).scan("/d")
        assert [(f.site, f.key) for f in plan.fired] == [
            ("vfs.get_inode", "/d/b")
        ]

    def test_detach(self):
        t = VFSTree()
        t.mkdir("/d")
        t.set_fault_plan(FaultPlan.io_at("vfs.readdir", 1))
        t.set_fault_plan(None)
        t.readdir("/d")  # no fault

    def test_snapshot_does_not_inherit_plan(self):
        from repro.fs.snapshot import snapshot

        t = VFSTree()
        t.mkdir("/d")
        t.set_fault_plan(FaultPlan.io_at("vfs.readdir", 1))
        frozen = snapshot(t)
        frozen.readdir("/d")  # clone reads clean
        with pytest.raises(InjectedFault):
            t.readdir("/d")  # live tree still faulted
