"""Workload ``serve_mix``: a seeded request mix over the HTTP wire.

Set-up builds a rolled index with a tsummary, starts
``python -m repro.cli serve --passwd … -n 2 --result-cache-mb …`` on a
free port and sends every distinct request of the pool once: the
uncached answers are the reference every repeat is compared with. Root
plus three
unprivileged tenants then send a fixed seeded sequence of
``POST /v1/invoke`` requests over two keep-alive connections, a closed
loop (two callers that each wait for a reply):

* ~60% small — tsummary ``du``, ``ls``, leaf-subtree ``find``, planned
  ``find`` with a size gate that prunes everything;
* ~30% medium — drawn Zipf from a pool of per-subtree ``find`` /
  ``dir_sizes`` / ``du`` (subtrees of 8-60 directories, so no single
  request is expensive); the hot head fits the result cache and the
  pool outgrows a principal's share of it, so replay and eviction both
  occur (the sizes are reported);
* ~10% full-tree — ``find /``, ``largest_files``, ``space_by_user``,
  one in fifty with a literal the server has not seen, so it misses.

The loop runs in segments of :data:`SEGMENT` requests, each timed in CPU
seconds of the server and the client together; ``unit_ms`` is a
segment's cost per request and ``work_per_s`` its inverse, the requests
one core serves per second. Every segment holds exactly one full-tree
``find`` the cache cannot answer; ``part_ms`` is what one of those costs
alone, the miss path that the tail of the latencies is made of. Request
latencies are wall clock, which this
host does not repeat: the closed loop's percentiles, and an open loop at
the fixed rate :data:`catalog.OPEN_RATE_RPS`, are per-layer metrics
(``probes.serve_wire``). ``serve.*``, the ``core.server`` session LRU,
``core.session``, ``core.plan`` and the result cache do most of the work
and the full walk little — the mirror image of ``cli_scan``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import common
import oracle
from catalog import HOST_NPROC
from common import NTHREADS, cli

SETUPS = 2
#: result-cache budget of the server under test, MiB. The ISSUE's 16 is
#: for whole-area reports on a namespace 2.5x this size. What evicts is
#: the per-principal budget, a quarter of this: root's share of the pool
#: (three full-tree answers at ~0.12 MB of directory stamps each, the
#: literals that vary, its small and medium reports) outgrows 0.625 MiB
#: during a run, the hot head (``hot_head_cached_bytes``) fits, and a run
#: sees evictions beside a 0.9 hit ratio. At 2 MiB the three full-tree
#: answers evict each other in turn and every one of them becomes a
#: 0.5 s miss; at 4 MiB nothing is ever evicted.
CACHE_MB = 2.5
#: client connections = this host's cores
CONNECTIONS = HOST_NPROC
MIX = (("small", 0.60), ("medium", 0.30), ("full", 0.10))
ZIPF_S = 1.1
#: requests per block of the sequence (each block holds MIX exactly)
BLOCK = 20
#: one full-tree request in this many blocks has a literal that varies;
#: a phase cycles through VARYING_LITERALS of them. Six of their answers
#: outgrow root's share of the cache, so each has been evicted by the
#: time its turn comes again: the request misses every time
VARYING_EVERY = 5
VARYING_LITERALS = 6
#: requests per timed segment of the closed loop: one varying literal each
SEGMENT = VARYING_EVERY * BLOCK
#: full-tree finds with literals no phase uses, timed one at a time
MISSES = 8
#: the medium reports' subtrees: directories at or under the start
SUBTREE_DIRS = (8, 60)
ROOT_SUBTREES = 4
TENANT_SUBTREES = 30


@dataclass(frozen=True)
class Request:
    key: int
    klass: str
    user: str
    tool: str
    start: str
    args: str  # canonical JSON
    body: bytes
    #: directories at or under ``start`` (bounds the answer's stamps)
    dirs: int

    @property
    def label(self) -> str:
        return f"{self.user} {self.tool} {self.start} {self.args}"


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.cli serve`` on an ephemeral port.

    ``spans_out`` starts it through :mod:`serve_launch` instead, which
    records the benchmark's spans inside the server process."""

    def __init__(self, work: Path, index_root: Path, passwd: Path,
                 spans_out: Path | None = None) -> None:
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            self.port = s.getsockname()[1]
        serve = [
            "serve", str(index_root), "--port", str(self.port),
            "--passwd", str(passwd), "-n", str(NTHREADS),
            "--result-cache-mb", str(CACHE_MB),
        ]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro.cli"] + serve
        else:
            argv = [sys.executable, str(common.HERE / "serve_launch.py"),
                    str(spans_out)] + serve
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.SRC)
        self.log = open(work / f"serve-{self.port}.log", "wb")
        self.proc = subprocess.Popen(
            argv, env=env, stdout=self.log, stderr=subprocess.STDOUT,
            cwd=str(work),
        )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited rc={self.proc.returncode} before ready"
                )
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                time.sleep(0.02)
        raise RuntimeError("serve did not answer /healthz in time")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        """``/metrics`` summed over label sets (gauges: their maximum)."""
        _, text = self.get("/metrics")
        out: dict[str, float] = {}
        for line in text.decode("utf-8").splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            name = name.split("{", 1)[0]
            try:
                v = float(value)
            except ValueError:
                continue
            if name.endswith("_depth") or name.endswith("_max"):
                out[name] = max(out.get(name, 0.0), v)
            else:
                out[name] = out.get(name, 0.0) + v
        return out

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), wait, kill as a last
        resort; always reaps the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def invoke(self, req: Request) -> tuple[int, bytes]:
        self.conn.request(
            "POST", "/v1/invoke", body=req.body,
            headers={"x-gufi-user": req.user,
                     "content-type": "application/json"},
        )
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def close(self) -> None:
        self.conn.close()


# ----------------------------------------------------------------------
# The request pool and the seeded sequence
# ----------------------------------------------------------------------
def write_passwd(path: Path, tenants) -> None:
    lines = ["root:x:0:0:root:/root:/bin/sh"]
    lines += [f"{name}:x:{uid}:{gid}::/:/bin/sh" for name, uid, gid, _ in tenants]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def pick_tenants(ns) -> list[tuple[str, int, int, str]]:
    """``(username, uid, gid, area)`` of the three largest areas' owners."""
    return [
        (f"u{uid}", uid, gid, area)
        for area, uid, gid, _n in common.area_owners(ns)[:3]
    ]


def build_pool(ns, tenants, posix) -> dict[str, list[Request]]:
    """The distinct requests of the mix, by class. ``varying_a`` (the
    workload's closed loop) and ``varying_b`` (the probe's open loop)
    are full-tree requests whose literal is new to the server in that
    phase, and ``miss`` ones no phase uses: they are not warmed, so they
    miss.

    No single request is expensive: the medium reports cover subtrees of
    :data:`SUBTREE_DIRS` directories, so that a run of a few seconds
    sees hundreds of hits *and* hundreds of misses and evictions, not a
    handful of slow outliers whose count decides the result."""
    pool: dict[str, list[Request]] = {
        "small": [], "medium": [], "full": [], "varying_a": [], "varying_b": [],
        "miss": [],
    }
    counter = itertools.count()

    def add(klass, user, tool, start="/", **args):
        wire = {"tool": tool, "start": start, "args": args}
        pool[klass].append(Request(
            key=next(counter), klass=klass, user=user, tool=tool, start=start,
            args=json.dumps(args, sort_keys=True),
            body=json.dumps(wire).encode("utf-8"),
            dirs=weight.get(start, len(dirs)),
        ))

    dirs = ns.dirs
    weight: dict[str, int] = {}  # directories at or under each directory
    for d in dirs:
        p = d
        while True:
            weight[p] = weight.get(p, 0) + 1
            if p.count("/") <= 1:
                break
            p = p.rsplit("/", 1)[0]
    leaves = [d for d in dirs if weight[d] == 1]
    huge = 1 << 50  # larger than any file: the plan prunes every directory
    lo, hi = SUBTREE_DIRS

    def spaced(cands: list[str], k: int) -> list[str]:
        """``k`` of ``cands``, chosen by a hash of the path: a choice
        that the seed's perturbations (a few dozen directories made or
        removed) leave almost unchanged, unlike positions in a list."""
        return sorted(cands, key=lambda d: (zlib.crc32(d.encode()), d))[:k]

    # small: answered from one database, or pruned by the plan
    add("small", "root", "du", "/", use_tsummary=True)
    for d in spaced(dirs, 6):
        add("small", "root", "ls", d)
    for d in spaced(leaves, 4):
        add("small", "root", "find", d)
    add("small", "root", "find", "/", filters={"min_size": huge})
    per_user: list[list[tuple[str, str]]] = [[
        ("root", d)
        for d in spaced([d for d in dirs if lo <= weight[d] <= hi], ROOT_SUBTREES)
    ]]
    for name, uid, gid, area in tenants:
        # directories the tenant may list: those find shows files of
        mine = sorted({p.rsplit("/", 1)[0] for p in posix.file_paths(uid, gid)})
        mine_leaves = [d for d in mine if weight.get(d) == 1] or mine
        for d in spaced(mine, 3):
            add("small", name, "ls", d)
        for d in spaced(mine_leaves, 2):
            add("small", name, "find", d)
        add("small", name, "find", area, filters={"min_size": huge})
        own = [d for d in mine
               if (d == area or d.startswith(area + "/"))
               and lo // 2 <= weight.get(d, 0) <= hi]
        per_user.append([(name, d) for d in spaced(own, TENANT_SUBTREES)])

    # medium: per-subtree reports; Zipf rank = position, the principals
    # taking turns. (The pool is a function of the namespace alone: the
    # seed decides which request is sent when, not what the requests
    # cost — a pool sampled per seed moved capacity by a fifth.)
    medium = [
        pair
        for turn in itertools.zip_longest(*per_user)
        for pair in turn if pair is not None
    ]
    for user, start in medium:
        for tool in ("du", "dir_sizes", "find"):
            add("medium", user, tool, start)

    # full-tree: fixed requests that replay ...
    add("full", "root", "space_by_user", "/")
    add("full", "root", "largest_files", "/", limit=10)
    add("full", "root", "find", "/", filters={"ftype": "l"})
    for name, _uid, _gid, _area in tenants:
        add("full", name, "find", "/", filters={"min_size": 1 << 30})
    # ... and literals the server has not seen, which miss
    for i in range(VARYING_LITERALS):
        add("varying_a", "root", "find", "/",
            filters={"min_size": (1 << 33) + i})
        add("varying_b", "root", "find", "/",
            filters={"min_size": (1 << 33) + 100 + i})
    for i in range(MISSES):
        add("miss", "root", "find", "/", filters={"min_size": (1 << 33) + 200 + i})
    return pool


def build_sequence(pool, rng: random.Random, n: int, varying: str) -> list[Request]:
    """``n`` requests in blocks of :data:`BLOCK`: every block holds the
    class shares of :data:`MIX` exactly (in seeded order), so two
    sequences of one length differ in *which* requests they draw, never
    in how many of each class. One full-tree request in
    :data:`VARYING_EVERY` blocks uses a literal from ``pool[varying]``."""
    medium = pool["medium"]
    zipf = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(medium))]
    out: list[Request] = []
    block = 0
    while len(out) < n:
        reqs = []
        for klass, share in MIX:
            for i in range(round(share * BLOCK)):
                if klass == "medium":
                    reqs.append(rng.choices(medium, zipf)[0])
                elif klass == "full" and i == 0 and block % VARYING_EVERY == 0:
                    lits = pool[varying]
                    reqs.append(lits[(block // VARYING_EVERY) % len(lits)])
                else:
                    reqs.append(rng.choice(pool[klass]))
        rng.shuffle(reqs)
        out.extend(reqs)
        block += 1
    return out[:n]


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class Sample:
    req: Request
    status: int
    body: bytes
    latency: float  # closed loop: send->reply; open loop: due->reply
    late: float = 0.0  # open loop: how late the request was sent


def closed_loop(clients: list[Client], reqs: list[Request]) -> list[Sample]:
    """Every request of ``reqs``, once: each of the callers (one per
    connection) sends its next request when the previous reply arrived."""
    samples: list[Sample] = []
    counter = itertools.count()

    def caller(client: Client) -> None:
        while (i := next(counter)) < len(reqs):
            t0 = time.perf_counter()
            status, body = client.invoke(reqs[i])
            samples.append(Sample(reqs[i], status, body,
                                  time.perf_counter() - t0))

    run_threads([lambda c=c: caller(c) for c in clients])
    return samples


def run_threads(targets) -> None:
    """One thread per target; re-raises the first error of any."""
    errors: list[BaseException] = []

    def guarded(target) -> None:
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def warm_up(port: int, pool) -> dict[int, Sample]:
    """Every distinct request once: the uncached reference answers."""
    client = Client(port)
    refs = {}
    try:
        for klass in ("small", "medium", "full"):
            for req in pool[klass]:
                t0 = time.perf_counter()
                status, body = client.invoke(req)
                refs[req.key] = Sample(req, status, body,
                                       time.perf_counter() - t0)
    finally:
        client.close()
    return refs


# ----------------------------------------------------------------------
# Verification (after the timed phases)
# ----------------------------------------------------------------------
def payload_rows(body: bytes):
    payload = json.loads(body)
    return payload.get("rows", payload.get("result"))


def response_digest(body: bytes) -> str:
    data = payload_rows(body)
    items = data if isinstance(data, list) else [data]
    return oracle.digest(json.dumps(x, sort_keys=True) for x in items)


def cached_bytes(body: bytes, dirs: int) -> int:
    """An estimate of what the result cache charges for this answer,
    after ``ResultCache.store``: 64 per row, 16 per number, the length
    of each string, and 128 per directory stamp of the validity token
    (``dirs`` = directories at or under the request's start)."""
    data = payload_rows(body)
    n = 128 * dirs
    if not isinstance(data, list):
        return n + 80
    for row in data:
        n += 64
        for v in row if isinstance(row, list) else [row]:
            n += len(v) if isinstance(v, str) else 16
    return n


def verify(ctx, refs: dict[int, Sample], samples: list[Sample]) -> None:
    """Every answer equals the reference for its (user, tool, args):
    the warm-up's uncached answer, or — for the literals the server was
    never warmed with — the first answer of the run."""
    ref_digest: dict[int, str] = {}
    for key, ref in refs.items():
        if ctx.check.expect(ref.status == 200,
                            f"warm-up {ref.req.label}: HTTP {ref.status}"):
            ref_digest[key] = response_digest(ref.body)
    seen: dict[tuple[int, bytes], bool] = {}
    for s in samples:
        if s.status != 200:
            ctx.check.expect(False, f"{s.req.label}: HTTP {s.status}")
            continue
        if s.req.key not in ref_digest:
            ref_digest[s.req.key] = response_digest(s.body)
        # identical bodies (replays) need digesting once
        memo = (s.req.key, s.body)
        if memo not in seen:
            want = oracle.expected_digest(ref_digest.get(s.req.key, ""))
            seen[memo] = response_digest(s.body) == want
        ctx.check.expect(seen[memo], f"{s.req.label}: rows differ from reference")


def verify_against_cli(ctx, index_root, posix, tenants, refs) -> None:
    """An uncached in-process reference through the other surface, and
    the security definition: a tenant's ``find`` rows are a subset of
    what ``find`` shows them on the source tree."""
    ident = {"root": []}
    allowed = {}
    for name, uid, gid, _area in tenants:
        ident[name] = common.ident_args(uid, gid)
        allowed[name] = set(posix.file_paths(uid, gid))
    checked_cli = 0
    for ref in refs.values():
        req = ref.req
        if ref.status != 200 or req.tool not in ("find", "du"):
            continue
        args = json.loads(req.args)
        if req.tool == "find":
            rows = {(r[0], r[1], r[2]) for r in payload_rows(ref.body)}
            if req.user in allowed:
                ctx.check.expect(
                    {r[0] for r in rows} <= allowed[req.user],
                    f"{req.label}: rows POSIX would not show",
                )
            if req.klass == "small" or checked_cli >= 12:
                continue
            filters = args.get("filters", {})
            argv = ["find", index_root, "--start", req.start, "-n", NTHREADS]
            if "min_size" in filters:
                argv += ["--min-size", filters["min_size"]]
            if "ftype" in filters:
                argv += ["--type", filters["ftype"]]
            run = cli(argv + ident[req.user])
            want = set()
            for line in run.out.splitlines():
                ftype, size, path = line.split("\t", 2)
                want.add((path, ftype, int(size)))
            ctx.check.equal(rows, want, f"{req.label}: HTTP rows vs CLI find")
            checked_cli += 1
        else:
            argv = ["du", index_root, "--start", req.start, "-n", NTHREADS]
            if args.get("use_tsummary"):
                argv.append("--tsummary")
            run = cli(argv + ident[req.user])
            ctx.check.equal(payload_rows(ref.body), int(run.out.strip() or 0),
                            f"{req.label}: HTTP du vs CLI du")


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
@dataclass
class State:
    """One complete set-up."""

    src: common.Source
    index_root: Path
    index_bytes: int
    tenants: list
    pool: dict
    posix: oracle.PosixOracle
    server: Server
    refs: dict[int, Sample]


def start_server(ctx, st_dir: Path, index_root: Path, pool,
                 spans_out: Path | None = None):
    """A server whose CPU time the meter counts, warmed: ``(server,
    refs)``."""
    server = Server(st_dir, index_root, st_dir / "passwd", spans_out)
    ctx.meter.watch(server.proc.pid)
    try:
        refs = warm_up(server.port, pool)
    except BaseException:
        stop_server(ctx, server)
        raise
    return server, refs


def stop_server(ctx, server: Server) -> None:
    ctx.meter.unwatch(server.proc.pid)
    server.stop()


def prepare(ctx, sub: Path) -> State:
    sub.mkdir()
    src = common.make_source(sub, ctx.scale, ctx.seed)
    index_root = sub / "idx"
    index_bytes = common.build_index(src.trace, index_root, rolled=True)
    tenants = pick_tenants(src.ns)
    write_passwd(sub / "passwd", tenants)
    posix = oracle.PosixOracle(src.ns.tree)
    pool = build_pool(src.ns, tenants, posix)
    server, refs = start_server(ctx, sub, index_root, pool)
    return State(src, index_root, index_bytes, tenants, pool, posix, server,
                 refs)


def segments(ctx, port: int, seq: list[Request], seconds: float):
    """The closed loop, for ``seconds``: ``[(samples, Timing)]``, one
    per segment of the sequence."""
    clients = [Client(port) for _ in range(CONNECTIONS)]
    out = []
    at_least = 2 if ctx.smoke else 4
    t0 = time.perf_counter()
    try:
        while len(out) < at_least or time.perf_counter() - t0 < seconds:
            reqs = seq[len(out) * SEGMENT:(len(out) + 1) * SEGMENT]
            out.append(ctx.timed(lambda: closed_loop(clients, reqs)))
    finally:
        for c in clients:
            c.close()
    return out


def misses(ctx, port: int, reqs: list[Request]):
    """Each request alone on one connection: ``[(samples, Timing)]``."""
    client = Client(port)
    try:
        return [ctx.timed(lambda: closed_loop([client], [req]))
                for req in reqs]
    finally:
        client.close()


def per_request(segs, attr: str = "seconds") -> float:
    """Median over segments of a segment's time per request."""
    return common.median([getattr(t, attr) / len(samples)
                          for samples, t in segs])


def run(ctx) -> dict:
    state: State | None = None

    def once(i: int) -> State:
        nonlocal state
        if state is not None:
            stop_server(ctx, state.server)
        state = prepare(ctx, ctx.work / f"setup{i}")
        return state

    st = ctx.setup(once, SETUPS)
    server = st.server
    seq = build_sequence(st.pool, random.Random(ctx.seed + 1), 20000,
                         "varying_a")
    seconds = 0.0 if ctx.smoke else ctx.seconds
    traced = []
    try:
        if ctx.trace:
            # half the time against this server, half against one that
            # records spans: the ratio of the two is the tracing overhead
            segs = segments(ctx, server.port, seq, seconds / 2)
            missed = misses(ctx, server.port, st.pool["miss"])
            stop_server(ctx, server)
            spans_file = ctx.work / "server-spans.jsonl"
            server, _ = start_server(
                ctx, st.index_root.parent, st.index_root, st.pool, spans_file
            )
            traced_since = time.perf_counter()
            traced = segments(ctx, server.port, seq, seconds / 2)
        else:
            segs = segments(ctx, server.port, seq, seconds)
            missed = misses(ctx, server.port, st.pool["miss"])
        prom = server.metrics()
    finally:
        stop_server(ctx, server)
    rss = common.peak_rss_mb(children=True)

    samples = [s for seg, _ in segs + traced + missed for s in seg]
    verify(ctx, st.refs, samples)
    verify_against_cli(ctx, st.index_root, st.posix, st.tenants, st.refs)

    def est(req: Request) -> int:
        return cached_bytes(st.refs[req.key].body, req.dirs)

    medium = st.pool["medium"]
    lat = sorted(s.latency for seg, _ in segs for s in seg)
    hits = prom.get("gufi_result_cache_hits_total", 0.0)
    missed_total = prom.get("gufi_result_cache_misses_total", 0.0)
    unit_s = per_request(segs)
    bench = {
        "bench.unit_wall_ms": per_request(segs, "wall_s") * 1e3,
        "bench.unit_cpu_ms": per_request(segs, "cpu_s") * 1e3,
        "bench.host_speed": ctx.meter.host_speed(),
    }
    out = {
        "unit_ms": unit_s * 1e3,
        "part_ms": per_request(missed) * 1e3,
        "work_per_s": 1.0 / unit_s,
        "index_bytes_per_entry": st.index_bytes / st.src.entries,
        "peak_rss_mb": rss,
        "bench": bench,
        "detail": {
            "segments": len(segs),
            "requests": len(lat),
            "wall_p50_ms": common.percentile(lat, 0.50) * 1e3,
            "wall_p95_ms": common.percentile(lat, 0.95) * 1e3,
            "pool_requests": len(st.refs),
            "pool_cached_bytes": sum(est(r.req) for r in st.refs.values()),
            "hot_head_cached_bytes":
                sum(est(r) for r in medium[: max(1, len(medium) // 4)]),
            "cache_bytes": CACHE_MB * 1024 * 1024,
            "cache_scope_bytes": CACHE_MB * 1024 * 1024 // 4,
            "cache_hit_ratio": hits / max(1.0, hits + missed_total),
            "cache_evictions":
                prom.get("gufi_result_cache_evictions_total", 0.0),
        },
    }
    if ctx.trace:
        bench["trace.overhead_ratio"] = per_request(traced) / unit_s
        out["server_spans_file"] = spans_file
        out["traced_since"] = traced_since
        out["traced_wall_s"] = sum(s.latency for seg, _ in traced for s in seg)
        out["traced_units"] = sum(len(seg) for seg, _ in traced)
    return out
