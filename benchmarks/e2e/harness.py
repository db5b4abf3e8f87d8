"""Per-run context: set-up repetitions, the units of a timed region and
their timed parts, and the traced/untraced alternation of a ``--trace``
run."""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

import common
import oracle
from spans import TRACER


class Unit:
    """One repetition of a workload's unit of work."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        #: ``{part: Timing}``; empty until :meth:`keep`
        self.parts: dict[str, common.Timing] = {}

    def keep(self, parts: dict[str, common.Timing]) -> None:
        """Record the unit's timed parts (a failed unit keeps none)."""
        self.parts = parts


class Ctx:
    def __init__(
        self, workload: str, work: Path, seed: int, seconds: float,
        trace: bool, smoke: bool, scale: float,
    ) -> None:
        self.workload = workload
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.scale = scale
        self.check = oracle.Checker()
        self.meter = common.Meter(work)
        self.timed = self.meter.timed
        self.setup_s = 0.0
        self._units: list[Unit] = []

    # -- set-up ---------------------------------------------------------
    def setup(self, fn, times: int):
        """Run a workload's set-up ``fn(i)`` ``times`` times (once in a
        traced or smoke run, which report no ``setup_s``), each in its
        own sub-directory so none reuses another's files. Returns the
        last set-up's product; the median set-up time is ``setup_s``."""
        if self.trace or self.smoke:
            times = 1
        samples = []
        product = None
        for i in range(times):
            product, t = self.timed(lambda: fn(i))
            samples.append(t.seconds)
        self.setup_s = common.median(samples)
        return product

    # -- the timed region -------------------------------------------------
    def units(self, at_least: int):
        """Yield once per unit until ``--seconds`` are spent (and at
        least ``at_least`` units ran, so a slow host still reports a
        median of several). The value yielded says whether this unit
        records spans: never in an untraced run, every other unit in a
        traced one."""
        seconds = self.seconds
        if self.smoke:
            at_least, seconds = 2, 0.0
        elif self.trace:
            at_least = max(at_least, 4)
        t0 = time.perf_counter()
        done = 0
        while done < at_least or time.perf_counter() - t0 < seconds:
            yield self.trace and done % 2 == 0
            done += 1

    @contextlib.contextmanager
    def unit(self, traced: bool):
        unit = Unit(traced)
        TRACER.unit = f"{self.workload}#{len(self._units)}"
        TRACER.on = traced
        try:
            yield unit
        finally:
            TRACER.on = False
            self._units.append(unit)

    def _kept(self, traced: bool) -> list[Unit]:
        return [u for u in self._units if u.parts and u.traced == traced]

    def unit_count(self) -> int:
        return len(self._kept(False))

    def part(self, key: str, attr: str = "seconds", traced: bool = False) -> float:
        """Median of one part over the units kept. The numbers a run
        reports come from the units that recorded no spans."""
        kept = self._kept(traced)
        if not kept:
            raise RuntimeError(f"{self.workload}: no unit completed")
        return common.median([getattr(u.parts[key], attr) for u in kept])

    def total(self, keys: list[str], attr: str = "seconds",
              traced: bool = False) -> float:
        """The unit's time as the sum of its parts' medians — steadier
        than the median of the sums when one part of one repetition is
        disturbed."""
        return sum(self.part(k, attr, traced) for k in keys)

    def bench_metrics(self, keys: list[str]) -> dict[str, float]:
        """What a run says about the measurement itself: the unit as the
        host delivered it (the reported time is scaled), how fast the
        host ran and, in a traced run, what recording spans costs."""
        out = {
            "bench.unit_wall_ms": self.total(keys, "wall_s") * 1e3,
            "bench.unit_cpu_ms": self.total(keys, "cpu_s") * 1e3,
            "bench.host_speed": self.meter.host_speed(),
        }
        if self.trace:
            out["trace.overhead_ratio"] = (
                self.total(keys, traced=True) / self.total(keys, traced=False)
            )
        return out
