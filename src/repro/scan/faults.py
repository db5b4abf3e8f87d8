"""Deterministic fault injection for build and scan paths.

Index builds at the paper's scale (§III-A3, §III-C1) run for hours
against file systems that fail routinely: a directory read times out,
a node dies mid-scan, a disk fills while a database is half-written.
Reproducing those failures deterministically is what makes the
crash-safe build path (:mod:`repro.core.checkpoint`,
``BuildOptions(resume=True)``) *testable*: a seeded :class:`FaultPlan`
fires the same faults at the same points on every run, so a test can
kill a build at exactly the Nth directory, resume it, and assert the
result is byte-identical to an uninterrupted build.

Fault sites are plain strings fired by instrumented code — every one:

* ``"walker.expand"`` — :class:`~repro.scan.walker.ParallelTreeWalker`
  fires before each ``expand()`` call (key = the work item);
* ``"build_dir_db"`` — entry of one directory's database build
  (key = source path);
* ``"build_dir_db.commit"`` — after all temp files are written, before
  the publishing renames;
* ``"xattr_shards"`` — before each xattr side-database bucket write
  (key = side database file name), for mid-shard failures;
* ``"rollup_dir"`` / ``"unrollup_dir"`` — each boundary of one
  directory's rollup or unrollup (key = source path);
* ``"migrate_dir"`` — before one directory migrates (key = source path);
* ``"publish"`` — before each rename that makes index state visible,
  :func:`repro.store.layout.publish` (key = the final path);
* ``"vfs.readdir"`` / ``"vfs.get_inode"`` — source-tree reads, via
  :meth:`~repro.fs.tree.VFSTree.set_fault_plan`.

Two fault kinds model the two real-world failure classes:

* ``io`` — a transient :class:`InjectedFault` (an ``IOError``), the
  kind a :class:`~repro.scan.walker.RetryPolicy` retries with backoff;
* ``crash`` — a :class:`BuildCrash` (a
  :class:`~repro.scan.walker.FatalWalkError`), which aborts the whole
  walk the way a killed process would, leaving partial on-disk state
  for the resume path to repair.

Plans are thread-safe and sleep-free; paired with a
:class:`RetryPolicy` whose ``sleep`` is a virtual clock's ``charge``,
backoff behaviour is testable in microseconds.
"""

from __future__ import annotations

import random
import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .walker import FatalWalkError


class InjectedFault(IOError):
    """A planned transient I/O failure (retryable)."""


class BuildCrash(FatalWalkError):
    """A planned hard failure: simulates the process dying here.

    Unlike :class:`InjectedFault` this is never retried and never
    recorded as a per-item error — it propagates out of the walk,
    abandoning in-flight work exactly as ``kill -9`` would (minus the
    partial files already on disk, which the resume path must handle).
    """


@dataclass(frozen=True)
class Fault:
    """One planned failure at a named site.

    ``at`` triggers on the Nth invocation of the site (1-based, counted
    across all threads); ``path`` triggers whenever the fired key
    matches. ``times`` bounds how often the fault fires — a transient
    fault with ``times=2`` fails twice and then heals, which is what a
    bounded retry policy must survive.
    """

    kind: str  # "io" | "crash"
    site: str
    at: int | None = None
    path: str | None = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("io", "crash"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if (self.at is None) == (self.path is None):
            raise ValueError("exactly one of at/path must be set")
        if self.at is not None and self.at < 1:
            raise ValueError("at is 1-based")
        if self.times < 1:
            raise ValueError("times must be >= 1")


@dataclass
class FiredFault:
    """Log entry: one fault actually raised (for test assertions)."""

    site: str
    invocation: int
    key: str | None
    kind: str


class FaultPlan:
    """A deterministic schedule of failures.

    The plan owns per-site invocation counters; instrumented code calls
    :meth:`fire` at each site and the plan raises when a planned fault
    matches. All state is guarded by one lock, so concurrent walker
    threads observe a single global invocation order per site — which
    is what makes "kill the build at directory 12" well-defined even
    under an 8-thread build (12 directories will have *entered* the
    build when the crash fires, regardless of interleaving).
    """

    def __init__(self, faults: Iterable[Fault] = (), seed: int = 0):
        self.faults = list(faults)
        self.seed = seed
        self.fired: list[FiredFault] = []
        self._counts: dict[str, int] = {}
        self._spent: dict[int, int] = {}  # fault index -> times fired
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def crash_at(cls, site: str, at: int) -> "FaultPlan":
        """Kill the process at the ``at``-th invocation of ``site``."""
        return cls([Fault(kind="crash", site=site, at=at)])

    @classmethod
    def io_at(cls, site: str, at: int, times: int = 1) -> "FaultPlan":
        """Transient I/O errors for invocations ``at .. at+times-1``."""
        return cls([Fault(kind="io", site=site, at=at, times=times)])

    @classmethod
    def flaky_paths(
        cls, site: str, paths: Iterable[str], times: int = 1
    ) -> "FaultPlan":
        """Each named key fails ``times`` times at ``site``, then heals."""
        return cls(
            [Fault(kind="io", site=site, path=p, times=times) for p in paths]
        )

    @classmethod
    def sample_flaky(
        cls,
        site: str,
        paths: Sequence[str],
        fraction: float,
        seed: int,
        times: int = 1,
    ) -> "FaultPlan":
        """A seeded random subset of ``paths`` becomes flaky — the
        deterministic stand-in for "some directories time out"."""
        rng = random.Random(seed)
        k = max(1, int(len(paths) * fraction)) if paths else 0
        chosen = rng.sample(list(paths), k) if k else []
        plan = cls.flaky_paths(site, chosen, times=times)
        plan.seed = seed
        return plan

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI fault spec: ``kind:site:at[xTIMES]`` clauses
        joined by ``;`` — e.g. ``crash:build_dir_db:12`` or
        ``io:vfs.readdir:3x2;io:build_dir_db:7``."""
        faults = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            parts = clause.split(":")
            if len(parts) != 3:
                raise ValueError(
                    f"bad fault clause {clause!r} (want kind:site:at[xTIMES])"
                )
            kind, site, trigger = parts
            times = 1
            if "x" in trigger:
                trigger, _, times_s = trigger.partition("x")
                times = int(times_s)
            faults.append(
                Fault(kind=kind, site=site, at=int(trigger), times=times)
            )
        if not faults:
            raise ValueError(f"empty fault spec {spec!r}")
        return cls(faults)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def fire(self, site: str, key: str | None = None) -> None:
        """Record one invocation of ``site`` and raise if a planned
        fault matches. Called by instrumented code; a no-op when
        nothing matches."""
        with self._lock:
            n = self._counts.get(site, 0) + 1
            self._counts[site] = n
            for i, f in enumerate(self.faults):
                if f.site != site:
                    continue
                spent = self._spent.get(i, 0)
                if spent >= f.times:
                    continue
                if f.at is not None:
                    if not (f.at <= n < f.at + f.times):
                        continue
                elif f.path != key:
                    continue
                self._spent[i] = spent + 1
                self.fired.append(FiredFault(site, n, key, f.kind))
                if f.kind == "crash":
                    raise BuildCrash(
                        f"injected crash at {site} invocation {n}"
                        + (f" ({key})" if key else "")
                    )
                raise InjectedFault(
                    f"injected I/O error at {site} invocation {n}"
                    + (f" ({key})" if key else "")
                )

    def count(self, site: str) -> int:
        """Invocations of ``site`` so far."""
        with self._lock:
            return self._counts.get(site, 0)

    def reset(self) -> None:
        """Rearm the plan (counters, spent faults, firing log)."""
        with self._lock:
            self._counts.clear()
            self._spent.clear()
            self.fired.clear()
