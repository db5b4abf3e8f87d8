"""Per-layer probes: one small measurement per layer entry point.

Run only in a ``--trace`` run, after the traced workload. Each probe
imports its entry points lazily and calls the layer's public functions
on a fixture built from the run's seed (one namespace, its trace, a flat
index and a rolled index with a tsummary). Every per-layer metric other
than the span budget has exactly one producer, here, and means the same
procedure whichever workload was traced before it: the driver wants a
measured number for every per-layer metric from each traced run, so the
probes cannot be divided between the four workloads.

A probe whose entry point is missing — a later change deleted or renamed
the layer — reports ``null`` (NaN in the JSON line) with the reason and
does not fail the run. A probe that fails for any other reason counts as
a failed operation: the run exits non-zero.

The end-to-end metric each probe's numbers should move is recorded next
to the metric in :mod:`catalog`. Timings here are plain wall clock, as
the host delivered them; they carry no bound.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import itertools
import json
import math
import random
import shutil
import time
from pathlib import Path

import common
from common import NTHREADS, median

#: namespaces of the scaling probes, as multiples of the run's scale;
#: the run's own fixture is the point between them
SCALE_FACTORS = (0.5, 2.0)
#: changefeed applies timed with and without a tsummary to refresh
APPLIES = 2
#: the serving session of :meth:`Probes.serve_wire`: a closed loop long
#: enough for ten samples beyond its p99, then an open loop at the fixed
#: rate with two dozen beyond its p95
CLOSED_REQUESTS = 1000
OPEN_REQUESTS = 480


def timed(fn, reps: int = 3) -> float:
    """Median wall time of ``fn()`` over ``reps`` calls."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


class Probes:
    """Collects ``{metric: value}`` and ``{metric: why it is null}``."""

    def __init__(self, ctx, work: Path) -> None:
        self.ctx = ctx
        self.work = work / "probes"
        self.work.mkdir(parents=True)
        self.values: dict[str, float | None] = {}
        self.reasons: dict[str, str] = {}
        self.fx: dict = {}

    def guard(self, probe: str, names: list[str], fn) -> None:
        """Run one probe. A missing entry point makes its metrics
        ``null``; any other failure is a failed operation of the run."""
        try:
            got = fn()
        except (ImportError, AttributeError) as exc:
            got = {}
            reason = f"{type(exc).__name__}: {exc}"[:160]
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            got = {}
            reason = f"{type(exc).__name__}: {exc}"[:160]
            self.ctx.check.expect(False, f"probe {probe}: {reason}")
        else:
            reason = "probe did not produce it"
        for name in names:
            if got.get(name) is not None:
                self.values[name] = got[name]
            else:
                self.values.setdefault(name, None)
                self.reasons.setdefault(name, reason)

    # ------------------------------------------------------------------
    # scan
    # ------------------------------------------------------------------
    def scan(self) -> dict:
        from repro.scan import TreeWalkScanner, read_trace, write_trace

        ns = common.make_namespace(self.ctx.scale, self.ctx.seed)
        scans = []

        def walk():
            scans.append(TreeWalkScanner(ns.tree, nthreads=NTHREADS).scan("/"))

        treewalk_s = timed(walk, reps=2)
        scan = scans[-1]
        trace = self.work / "probe.trace"

        def write():
            with open(trace, "w", encoding="utf-8") as fh:
                write_trace(scan.stanzas, fh)

        write_s = timed(write)
        read_s = timed(lambda: list(read_trace(trace)))
        entries = scan.num_dirs + len(ns.files)
        self.fx.update(ns=ns, trace=trace, stanzas=scan.stanzas,
                       entries=entries, n_dirs=scan.num_dirs)
        return {
            "scan.treewalk_s": treewalk_s,
            "scan.trace_write_s": write_s,
            "scan.trace_read_s": read_s,
            "scan.trace_bytes_per_entry": trace.stat().st_size / entries,
        }

    def walker(self) -> dict:
        from repro.scan import ParallelTreeWalker

        fan = 100

        def expand(item):
            return [1] * fan if item == 0 else []

        def walk():
            stats = ParallelTreeWalker(NTHREADS).walk([0] * fan, expand)
            assert stats.items_processed == fan + fan * fan

        return {"walker.handoff_us_per_item":
                timed(walk) / (fan + fan * fan) * 1e6}

    # ------------------------------------------------------------------
    # core.build, store, core.rollup, core.tsummary
    # ------------------------------------------------------------------
    def build(self) -> dict:
        from repro.core.build import BuildOptions, build_dir_db, trace2index
        from repro.core.index import GUFIIndex

        opts = BuildOptions(nthreads=NTHREADS)
        flat = self.work / "flat"
        res = trace2index(self.fx["trace"], flat, opts)
        self.fx["flat"] = flat
        self.fx["build_s"] = res.seconds
        # one thread, one directory at a time: the per-entry cost with
        # no hand-off in it
        single = GUFIIndex.create(self.work / "single")
        stanzas = [s for s in self.fx["stanzas"] if s.entries][:150]
        t0 = time.perf_counter()
        n = sum(build_dir_db(single, s, opts)[0] for s in stanzas)
        per_entry = (time.perf_counter() - t0) / max(1, n)
        return {
            "build.trace2index_s": res.seconds,
            "build.dirs_per_s": res.dirs_created / res.seconds,
            "build.errors": len(res.errors),
            "build.dir_db_us_per_entry": per_entry * 1e6,
        }

    def store(self) -> dict:
        from repro.core.index import GUFIIndex
        from repro.store import DirStore
        from repro.store.connect import attach_ro, detach

        import sqlite3

        index = GUFIIndex.open(self.fx["flat"])
        commits = []
        base = self.work / "commit"
        for i in range(100):
            d = base / f"d{i}"
            d.mkdir(parents=True)
            store = DirStore.open(d)
            store.stage_primary().close()
            t0 = time.perf_counter()
            store.publish([])
            commits.append(time.perf_counter() - t0)
        dbs = [index.db_path(p) for p in self.fx["ns"].dirs[:300]]
        conn = sqlite3.connect(":memory:")
        attaches = []
        try:
            for db in dbs:
                t0 = time.perf_counter()
                attach_ro(conn, db, "gufi")
                detach(conn, "gufi")
                attaches.append(time.perf_counter() - t0)
        finally:
            conn.close()
        return {
            "store.commit_us_per_dir": median(commits) * 1e6,
            "store.index_bytes": index.total_db_bytes(),
            "store.attach_us": median(attaches) * 1e6,
        }

    def rollup(self) -> dict:
        from repro.core.build import BuildOptions, trace2index
        from repro.core.index import GUFIIndex
        from repro.core.rollup import rollup, visible_db_count
        from repro.core.tsummary import build_tsummary

        rolled = self.work / "rolled"
        trace2index(self.fx["trace"], rolled, BuildOptions(nthreads=NTHREADS))
        index = GUFIIndex.open(rolled)
        stats = rollup(index, nthreads=NTHREADS)
        ts = build_tsummary(index, "/")
        self.fx["rolled"] = rolled
        self.fx["ingest_s"] = self.fx["build_s"] + stats.elapsed + ts.seconds
        return {
            "rollup.s": stats.elapsed,
            "rollup.rolled_ratio": stats.rolled / max(1, stats.total_dirs),
            "rollup.visible_db_count": visible_db_count(index),
        }

    # ------------------------------------------------------------------
    # core.index
    # ------------------------------------------------------------------
    def index(self) -> dict:
        from repro.core.engine import QueryEngine, QuerySpec
        from repro.core.index import GUFIIndex

        index = GUFIIndex.open(self.fx["flat"])
        dirs = self.fx["ns"].dirs
        t0 = time.perf_counter()
        for d in dirs:
            index.cached_dir_meta(d)
        cold = (time.perf_counter() - t0) / len(dirs)
        t0 = time.perf_counter()
        for d in dirs:
            index.cached_dir_meta(d)
        warm = (time.perf_counter() - t0) / len(dirs)
        with QueryEngine(index, nthreads=NTHREADS) as q:
            q.run(QuerySpec(S=common.Q2_SQL))
        stats = index.cache.stats()
        hits, misses = stats["meta_hits"], stats["meta_misses"]
        return {
            "index.dirmeta_cold_us_per_dir": cold * 1e6,
            "index.dirmeta_warm_us_per_dir": warm * 1e6,
            "index.cache_hit_ratio": hits / max(1, hits + misses),
        }

    # ------------------------------------------------------------------
    # core.engine
    # ------------------------------------------------------------------
    def _specs(self):
        from repro.core.engine import QuerySpec

        q3 = dict(zip(("I", "S", "E", "J", "G"), common.Q3_ARGS[1::2]))
        return (QuerySpec(E=common.Q1_SQL), QuerySpec(S=common.Q2_SQL),
                QuerySpec(**q3))

    def _user(self):
        from repro.fs.permissions import Credentials

        _area, uid, gid, _n = common.area_owners(self.fx["ns"])[0]
        return Credentials(uid=uid, gid=gid), uid, gid

    def engine(self) -> dict:
        from repro import obs
        from repro.core.engine import QueryEngine, QuerySpec
        from repro.core.index import GUFIIndex

        q1, q2, q3 = self._specs()
        index = GUFIIndex.open(self.fx["flat"])
        creds, _uid, _gid = self._user()
        out = {}
        with QueryEngine(index, nthreads=NTHREADS) as q:
            results = {}
            for name, spec in (("q1", q1), ("q2", q2), ("q3", q3)):
                q.run(spec)  # warm the DirMeta cache and the pool
                out[f"engine.{name}_root_warm_s"] = timed(
                    lambda: results.__setitem__(name, q.run(spec)), reps=2
                )
            r1, r2 = results["q1"], results["q2"]
            out["engine.us_per_dir"] = (
                out["engine.q2_root_warm_s"] / max(1, r2.dirs_visited) * 1e6
            )
            out["engine.us_per_row"] = (
                (out["engine.q1_root_warm_s"] - out["engine.q2_root_warm_s"])
                / max(1, len(r1.rows)) * 1e6
            )
            out["engine.dirs_visited"] = r1.dirs_visited
            out["engine.dbs_opened"] = r1.dbs_opened
            # stage timings are populated only while metrics record
            with obs.enabled(metrics=True):
                stages = q.run(q3).stage_seconds or {}
            for stage in "SEJG":
                out[f"engine.stage_s.{stage}"] = stages.get(stage)
            ls = QuerySpec(E="SELECT name, type, size FROM entries")
            dirs = self.fx["ns"].dirs[:200]
            t0 = time.perf_counter()
            for d in dirs:
                q.run_single(ls, d)
            out["engine.run_single_us"] = (
                (time.perf_counter() - t0) / len(dirs) * 1e6
            )
        with QueryEngine(index, creds=creds, nthreads=NTHREADS) as q:
            q.run(q1)
            results = []
            out["engine.q1_user_warm_s"] = timed(
                lambda: results.append(q.run(q1)), reps=2
            )
            out["engine.dirs_denied"] = results[-1].dirs_denied
        # T runs where a tsummary exists: the rolled index's root
        rolled = GUFIIndex.open(self.fx["rolled"])
        with QueryEngine(rolled, nthreads=NTHREADS) as q, obs.enabled(
            metrics=True
        ):
            t = q.run(QuerySpec(
                T="SELECT totsize FROM tsummary WHERE rectype = 0"))
            out["engine.stage_s.T"] = (t.stage_seconds or {}).get("T")
        return out

    def sinks(self) -> dict:
        from repro.core.engine import BoundedSink

        rows = [(f"/some/path/file{i}", "f", i) for i in range(1000)]
        sink = BoundedSink(10**9)
        t0 = time.perf_counter()
        for _ in range(200):
            sink.emit(None, rows)
        return {"sinks.emit_us_per_krow":
                (time.perf_counter() - t0) / 200 * 1e6}

    def scatter(self) -> dict:
        args = ["query", self.fx["flat"], "-n", NTHREADS, "-E", common.Q1_SQL]
        p1 = timed(lambda: common.cli_ok(args), reps=2)
        p2 = timed(lambda: common.cli_ok(args + ["--processes", 2]), reps=2)
        return {"scatter.q1_root_p2_s": p2, "scatter.speedup_p2": p1 / p2}

    # ------------------------------------------------------------------
    # core.plan
    # ------------------------------------------------------------------
    def plan(self) -> dict:
        from repro.core.index import GUFIIndex
        from repro.core.plan import plan_for
        from repro.core.tools import FindFilters, GUFITools

        filters = FindFilters(min_size=1 << 28, ftype="f")
        t0 = time.perf_counter()
        for _ in range(2000):
            plan_for(filters)
        compile_us = (time.perf_counter() - t0) / 2000 * 1e6
        index = GUFIIndex.open(self.fx["flat"])
        with GUFITools(index, nthreads=NTHREADS) as tools:
            tools.find("/", filters)  # warm: elision needs cached DirMeta
            r = tools.find("/", filters)
        return {
            "plan.compile_us": compile_us,
            "plan.pruned_ratio":
                r.dirs_pruned_by_plan / max(1, r.dirs_visited),
            "plan.attaches_elided": r.attaches_elided,
        }

    # ------------------------------------------------------------------
    # core.session, core.tools, core.server
    # ------------------------------------------------------------------
    def _identity(self):
        from repro.core.server import IdentityProvider

        idp = IdentityProvider()
        idp.add_user("root", uid=0, gid=0)
        for _area, uid, gid, _n in common.area_owners(self.fx["ns"])[:3]:
            idp.add_user(f"u{uid}", uid=uid, gid=gid)
        return idp

    def session(self) -> dict:
        from repro.core.engine import QueryEngine, QuerySpec
        from repro.core.index import GUFIIndex

        tiny = QuerySpec(E="SELECT name FROM entries")

        def cold():
            with QueryEngine(
                GUFIIndex.open(self.fx["flat"]), nthreads=NTHREADS
            ) as q:
                q.run_single(tiny, "/")

        index = GUFIIndex.open(self.fx["flat"])
        with QueryEngine(index, nthreads=NTHREADS) as q:
            q.run_single(tiny, "/")
            warm = timed(lambda: q.run_single(tiny, "/"), reps=50)
        return {"session.cold_open_ms": timed(cold, reps=5) * 1e3,
                "session.warm_tiny_ms": warm * 1e3}

    def server(self) -> dict:
        import repro.core.server as server_mod
        from repro.core.index import GUFIIndex
        from repro.core.tools import GUFITools

        index = GUFIIndex.open(self.fx["rolled"])
        idp = self._identity()
        users = list(idp.uid_map().values())
        created = [0]
        real = server_mod.GUFITools

        class Counting(real):
            def __init__(self, *a, **k):
                created[0] += 1
                super().__init__(*a, **k)

        server_mod.GUFITools = Counting
        try:
            with server_mod.GUFIServer(index, idp, nthreads=NTHREADS) as srv:
                rounds = 25
                for _ in range(rounds):
                    for user in users:
                        srv.invoke(user, "du", "/", use_tsummary=True)
                invoke = timed(
                    lambda: srv.invoke("root", "du", "/", use_tsummary=True),
                    reps=50,
                )
        finally:
            server_mod.GUFITools = real
        with GUFITools(index, nthreads=NTHREADS) as tools:
            tools.du("/", use_tsummary=True)
            bare = timed(lambda: tools.du("/", use_tsummary=True), reps=50)
        n = rounds * len(users)
        return {
            "server.invoke_overhead_us": (invoke - bare) * 1e6,
            "server.session_lru_hit_ratio": (n - created[0]) / n,
        }

    # ------------------------------------------------------------------
    # core.engine.resultcache
    # ------------------------------------------------------------------
    def resultcache(self) -> dict:
        from repro.core.engine import QueryEngine, ResultCache
        from repro.core.engine.resultcache import make_key
        from repro.core.index import GUFIIndex
        from repro.fs.permissions import ROOT

        q1 = self._specs()[0]
        index = GUFIIndex.open(self.fx["flat"])
        cache = ResultCache(max_bytes=64 << 20)
        with QueryEngine(index, nthreads=NTHREADS) as plain:
            plain.run(q1)
            uncached = timed(lambda: plain.run(q1))
        with QueryEngine(index, nthreads=NTHREADS, result_cache=cache) as q:

            def capture():
                cache.clear()
                q.run(q1)

            captured = timed(capture)
            replay = timed(lambda: q.run(q1), reps=5)
            key = make_key(ROOT, q1, None, "/")
            cache.stamp_ttl = 0.0  # every lookup pays the stamp pass
            validate = timed(lambda: cache.lookup(key, index), reps=5)
            nbytes = cache.stats()["bytes"]
        cache.close()
        return {
            "resultcache.replay_ms": replay * 1e3,
            "resultcache.validate_ms": validate * 1e3,
            "resultcache.capture_overhead_ratio": captured / uncached,
            "resultcache.bytes": nbytes,
        }

    # ------------------------------------------------------------------
    # serve
    # ------------------------------------------------------------------
    def serve_inproc(self) -> dict:
        from repro.core.index import GUFIIndex
        from repro.core.server import GUFIServer
        from repro.serve import ASGIClient, GUFIApp
        from repro.serve.codec import jsonable

        index = GUFIIndex.open(self.fx["rolled"])
        du_args = {"use_tsummary": True}

        async def scenario(app) -> tuple[float, float]:
            client = ASGIClient(app)
            resp = await client.invoke("root", "du", args=du_args)
            assert resp.status == 200, resp.text
            lat = []
            for _ in range(100):
                t0 = time.perf_counter()
                await client.invoke("root", "du", args=du_args)
                lat.append(time.perf_counter() - t0)
            first = await client.invoke("root", "find", page_size=100)
            cursor = first.json()["next_cursor"]
            pages = []
            for _ in range(5):
                t0 = time.perf_counter()
                page = await client.invoke("root", cursor=cursor)
                pages.append(time.perf_counter() - t0)
                assert page.status == 200, page.text
                cursor = page.json()["next_cursor"]
            return median(lat), median(pages)

        with GUFIServer(
            index, self._identity(), nthreads=NTHREADS, result_cache_mb=16
        ) as srv, GUFIApp(srv) as app:
            asgi, page = asyncio.run(scenario(app))
            bare = timed(
                lambda: srv.invoke("root", "du", "/", use_tsummary=True),
                reps=100,
            )
        rows = [(f"/scratch/u1000/dir/file{i}", "f", i) for i in range(10000)]
        encode = timed(lambda: json.dumps({"rows": jsonable(rows)}))
        return {
            "serve.asgi_overhead_us": (asgi - bare) * 1e6,
            "serve.cursor_page_ms": page * 1e3,
            "serve.encode_ms_per_krow": encode / 10 * 1e3,
        }

    def serve_wire(self) -> dict:
        """A serving session against a real subprocess, in wall clock:
        the closed loop's latency percentiles, an open loop at the fixed
        rate (each request timed from when it was due), the server's own
        QoS and result-cache counters, and the bare wire round trip."""
        import http.client

        import oracle
        import wl_serve_mix as sm
        from catalog import OPEN_RATE_RPS

        ns = self.fx["ns"]
        sub = self.work / "serve"
        sub.mkdir()
        tenants = sm.pick_tenants(ns)
        sm.write_passwd(sub / "passwd", tenants)
        pool = sm.build_pool(ns, tenants, oracle.PosixOracle(ns.tree))
        n_closed, n_open = (
            (40, 20) if self.ctx.smoke else (CLOSED_REQUESTS, OPEN_REQUESTS)
        )
        rng = random.Random(self.ctx.seed)
        seq_a = sm.build_sequence(pool, rng, n_closed, "varying_a")
        seq_b = sm.build_sequence(pool, rng, n_open, "varying_b")
        server = sm.Server(sub, self.fx["rolled"], sub / "passwd")
        try:
            sm.warm_up(server.port, pool)
            clients = [sm.Client(server.port) for _ in range(sm.CONNECTIONS)]
            try:
                closed = sm.closed_loop(clients, seq_a)
                opened = open_loop(clients, seq_b, OPEN_RATE_RPS)
            finally:
                for c in clients:
                    c.close()
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            trips = []
            for _ in range(200):
                t0 = time.perf_counter()
                conn.request("GET", "/healthz")
                conn.getresponse().read()
                trips.append(time.perf_counter() - t0)
            conn.close()
            prom = server.metrics()
        finally:
            server.stop()
        bad = [s for s in closed + opened if s.status != 200]
        if bad:
            raise RuntimeError(f"{len(bad)} requests failed, first: "
                               f"{bad[0].req.label}: HTTP {bad[0].status}")
        a = sorted(s.latency for s in closed)
        b = sorted(s.latency for s in opened)
        late = sorted(s.late for s in opened)
        requests = max(1.0, prom.get("gufi_serve_requests_total", 0.0))
        hits = prom.get("gufi_result_cache_hits_total", 0.0)
        misses = prom.get("gufi_result_cache_misses_total", 0.0)
        pct = common.percentile
        return {
            "serve.closed_p50_ms": pct(a, 0.50) * 1e3,
            "serve.closed_p95_ms": pct(a, 0.95) * 1e3,
            "serve.p99_ms": pct(a, 0.99) * 1e3,
            "serve.open_p50_ms": pct(b, 0.50) * 1e3,
            "serve.open_p95_ms": pct(b, 0.95) * 1e3,
            "serve.generator_late_ms_p95": pct(late, 0.95) * 1e3,
            "serve.http_roundtrip_us": median(trips) * 1e6,
            "serve.shed_ratio":
                prom.get("gufi_serve_shed_total", 0.0) / requests,
            "serve.timeout_ratio":
                prom.get("gufi_serve_timeouts_total", 0.0) / requests,
            "serve.queue_depth_max": prom.get("gufi_serve_queue_depth", 0.0),
            "resultcache.hit_ratio": hits / max(1.0, hits + misses),
            "resultcache.evictions":
                prom.get("gufi_result_cache_evictions_total", 0.0),
        }

    # ------------------------------------------------------------------
    # cli
    # ------------------------------------------------------------------
    def cli(self) -> dict:
        from repro.core.engine import QueryEngine
        from repro.core.index import GUFIIndex

        _creds, uid, gid = self._user()
        flat = self.fx["flat"]
        out = {}
        rows = 0
        for who, ident in (("root", []), ("user", common.ident_args(uid, gid))):
            for name, qargs in (("q1", ["-E", common.Q1_SQL]),
                                ("q2", ["-S", common.Q2_SQL]),
                                ("q3", common.Q3_ARGS)):
                argv = ["query", flat, "-n", NTHREADS] + qargs + ident
                run = common.cli_ok(argv)
                out[f"cli.{name}_{who}_cold_s"] = run.seconds
                if (who, name) == ("root", "q1"):
                    rows = len(run.out.splitlines())

        def engine_cold():
            with QueryEngine(
                GUFIIndex.open(flat), nthreads=NTHREADS
            ) as q:
                q.run(self._specs()[0])

        # what the CLI adds to the same cold query: parsing, printing
        out["cli.format_us_per_row"] = (
            (out["cli.q1_root_cold_s"] - timed(engine_cold, reps=1))
            / max(1, rows) * 1e6
        )
        return out

    # ------------------------------------------------------------------
    # scaling
    # ------------------------------------------------------------------
    def scaling(self) -> dict:
        from repro.core.build import BuildOptions, trace2index
        from repro.core.engine import QueryEngine
        from repro.core.index import GUFIIndex
        from repro.core.rollup import rollup
        from repro.core.tsummary import build_tsummary
        from repro.scan import TreeWalkScanner, write_trace

        q1, q2, _ = self._specs()
        points = []  # (entries, ingest_s, q1_s, q2_s)
        for factor in SCALE_FACTORS:
            ns = common.make_namespace(self.ctx.scale * factor, self.ctx.seed)
            scan = TreeWalkScanner(ns.tree, nthreads=NTHREADS).scan("/")
            sub = self.work / f"scale{factor}"
            sub.mkdir()
            trace = sub / "t.trace"
            with open(trace, "w", encoding="utf-8") as fh:
                write_trace(scan.stanzas, fh)
            opts = BuildOptions(nthreads=NTHREADS)
            res = trace2index(trace, sub / "idx", opts)
            with QueryEngine(res.index, nthreads=NTHREADS) as q:
                q.run(q1)
                q.run(q2)
                q1_s = timed(lambda: q.run(q1), reps=2)
                q2_s = timed(lambda: q.run(q2), reps=2)
            # the queries ran on the flat index; now finish the ingest
            index = GUFIIndex.open(sub / "idx")
            ingest = (res.seconds + rollup(index, nthreads=NTHREADS).elapsed
                      + build_tsummary(index, "/").seconds)
            points.append((scan.num_dirs + len(ns.files), ingest, q1_s, q2_s))
        v = self.values
        points.append((self.fx["entries"], self.fx["ingest_s"],
                       v["engine.q1_root_warm_s"], v["engine.q2_root_warm_s"]))
        xs = [math.log(p[0]) for p in points]
        return {
            "scale.ingest_exponent": _slope(xs, [math.log(p[1]) for p in points]),
            "scale.q1_root_exponent": _slope(xs, [math.log(p[2]) for p in points]),
            "scale.q2_root_exponent": _slope(xs, [math.log(p[3]) for p in points]),
        }

    # ------------------------------------------------------------------
    # fs.changelog, core.changefeed (last: it mutates the namespace)
    # ------------------------------------------------------------------
    def changefeed(self) -> dict:
        from repro.core import changefeed
        from repro.core.build import BuildOptions
        from repro.core.engine import QueryEngine, ResultCache
        from repro.core.index import GUFIIndex
        from repro.core.tsummary import build_tsummary
        from repro.fs.changelog import ChangeJournal
        from repro.gen.namespace import NamespaceMutator

        ns = self.fx["ns"]
        index = GUFIIndex.open(self.fx["flat"])
        scratch = ChangeJournal()
        t0 = time.perf_counter()
        for i in range(5000):
            scratch.emit("create", f"/probe/f{i}", i + 1, None)
        emit_us = (time.perf_counter() - t0) / 5000 * 1e6

        journal = ChangeJournal()
        ns.tree.set_changelog(journal)
        cache = ResultCache(max_bytes=16 << 20)
        cache.attach_journal(journal, exclusive=True)
        mutator = NamespaceMutator(ns, seed=self.ctx.seed)
        opts = BuildOptions(nthreads=NTHREADS)
        q1 = self._specs()[0]
        applies = {False: [], True: []}
        raw = coalesced = events = rebuilt = 0
        tsummary_s = None
        try:
            with QueryEngine(index, nthreads=NTHREADS, result_cache=cache) as q:
                for with_ts in (False, True):
                    if with_ts:
                        tsummary_s = build_tsummary(index, "/").seconds
                    for _ in range(APPLIES):
                        q.run(q1)  # an entry for the apply to invalidate
                        mutator.mutate(40)
                        r = changefeed.changefeed2index(
                            index, ns.tree, journal, opts=opts)
                        applies[with_ts].append(r.seconds)
                        raw += r.events_raw
                        coalesced += r.events_coalesced
                        events += r.events_applied
                        rebuilt += r.dirs_rebuilt
                invalidations = cache.stats()["invalidations"]
        finally:
            ns.tree.set_changelog(None)
            cache.close()
        return {
            "changelog.emit_us_per_mutation": emit_us,
            "changelog.coalesced_ratio": coalesced / max(1, raw),
            "changefeed.apply_no_tsummary_s": median(applies[False]),
            "changefeed.apply_s": median(applies[True]),
            "changefeed.dirs_rebuilt_per_event": rebuilt / max(1, events),
            "resultcache.invalidations_per_apply":
                invalidations / (2 * APPLIES),
            "tsummary.build_s": tsummary_s,
        }


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ``ys`` on ``xs`` (log-log exponent)."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def open_loop(clients, seq, rate: float) -> list:
    """Request *i* is due at ``i / rate``; whichever connection is free
    sends it then (or late, if none was), and its latency counts from
    the due time."""
    import wl_serve_mix as sm

    samples: list = []
    counter = itertools.count()
    t_start = time.perf_counter() + 0.05

    def caller(client) -> None:
        while (i := next(counter)) < len(seq):
            due = t_start + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, body = client.invoke(seq[i])
            samples.append(sm.Sample(seq[i], status, body,
                                     time.perf_counter() - due,
                                     max(0.0, sent - due)))

    sm.run_threads([lambda c=c: caller(c) for c in clients])
    return samples


#: probes in run order, with the metrics each one owns
PLAN = [
    ("scan", ["scan.treewalk_s", "scan.trace_write_s", "scan.trace_read_s",
              "scan.trace_bytes_per_entry"]),
    ("walker", ["walker.handoff_us_per_item"]),
    ("build", ["build.trace2index_s", "build.dirs_per_s", "build.errors",
               "build.dir_db_us_per_entry"]),
    ("store", ["store.commit_us_per_dir", "store.index_bytes",
               "store.attach_us"]),
    ("rollup", ["rollup.s", "rollup.rolled_ratio", "rollup.visible_db_count"]),
    ("index", ["index.dirmeta_cold_us_per_dir",
               "index.dirmeta_warm_us_per_dir", "index.cache_hit_ratio"]),
    ("engine", ["engine.q1_root_warm_s", "engine.q2_root_warm_s",
                "engine.q3_root_warm_s", "engine.q1_user_warm_s",
                "engine.us_per_dir", "engine.us_per_row", "engine.stage_s.T",
                "engine.stage_s.S", "engine.stage_s.E", "engine.stage_s.J",
                "engine.stage_s.G", "engine.dirs_visited",
                "engine.dirs_denied", "engine.dbs_opened",
                "engine.run_single_us"]),
    ("sinks", ["sinks.emit_us_per_krow"]),
    ("scatter", ["scatter.q1_root_p2_s", "scatter.speedup_p2"]),
    ("plan", ["plan.compile_us", "plan.pruned_ratio", "plan.attaches_elided"]),
    ("session", ["session.cold_open_ms", "session.warm_tiny_ms"]),
    ("server", ["server.invoke_overhead_us", "server.session_lru_hit_ratio"]),
    ("resultcache", ["resultcache.replay_ms", "resultcache.validate_ms",
                     "resultcache.capture_overhead_ratio",
                     "resultcache.bytes"]),
    ("serve_inproc", ["serve.asgi_overhead_us", "serve.cursor_page_ms",
                      "serve.encode_ms_per_krow"]),
    ("serve_wire", ["serve.http_roundtrip_us", "serve.shed_ratio",
                    "serve.timeout_ratio", "serve.queue_depth_max",
                    "serve.closed_p50_ms", "serve.closed_p95_ms",
                    "serve.p99_ms", "serve.open_p50_ms", "serve.open_p95_ms",
                    "serve.generator_late_ms_p95",
                    "resultcache.hit_ratio", "resultcache.evictions"]),
    ("cli", ["cli.format_us_per_row", "cli.q1_root_cold_s",
             "cli.q2_root_cold_s", "cli.q3_root_cold_s", "cli.q1_user_cold_s",
             "cli.q2_user_cold_s", "cli.q3_user_cold_s"]),
    ("scaling", ["scale.ingest_exponent", "scale.q1_root_exponent",
                 "scale.q2_root_exponent"]),
    ("changefeed", ["changelog.emit_us_per_mutation",
                    "changelog.coalesced_ratio", "changefeed.apply_s",
                    "changefeed.apply_no_tsummary_s",
                    "changefeed.dirs_rebuilt_per_event",
                    "resultcache.invalidations_per_apply",
                    "tsummary.build_s"]),
]


def run_all(ctx, work: Path) -> tuple[dict, dict]:
    """Every probe, in order. Returns ``(values, reasons)``; a value of
    None is a metric whose entry point is gone, with the reason."""
    probes = Probes(ctx, work)
    timings = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, metrics in PLAN:
            t0 = time.perf_counter()
            probes.guard(name, metrics, getattr(probes, name))
            timings[name] = time.perf_counter() - t0
    shutil.rmtree(probes.work, ignore_errors=True)
    probes.values["_probe_seconds"] = timings
    return probes.values, probes.reasons
