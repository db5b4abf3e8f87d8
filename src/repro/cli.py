"""Command-line interface mirroring the GUFI tool family.

Subcommands map one-to-one onto the paper's executables::

    repro-gufi dir2index   <namespace.trace|--demo> <index_root>
    repro-gufi trace2index <trace_file> <index_root>
    repro-gufi query       <index_root> [-I/-T/-S/-E/-J/-G SQL] [-n N]
    repro-gufi find        <index_root> [--name LIKE] [--type f|l] ...
    repro-gufi du          <index_root> [--start PATH] [--tsummary]
    repro-gufi rollup      <index_root> [-L limit]
    repro-gufi unrollup    <index_root> <dir>
    repro-gufi bfti        <index_root> [--start PATH]
    repro-gufi stats       <index_root>
    repro-gufi experiments [fig1|table1|fig7|fig8|fig9|fig10|rollup|ingest|all]

Credentials for query tools come from ``--uid/--gid/--groups``
(default root), standing in for the authenticated identity the
deployed system gets from LDAP via its restricted shell (§III-A5).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.core.build import BuildOptions, BuildResult, trace2index
from repro.core.index import GUFIIndex, IndexError_
from repro.core.plan import QueryPlan, plan_for
from repro.core.engine import QueryEngine, QueryPermissionError
from repro.core.query import QuerySpec
from repro.core.rollup import rollup, unrollup_dir, visible_db_count
from repro.core.tools import FindFilters, GUFITools
from repro.core.tsummary import build_tsummary
from repro.fs.permissions import Credentials
from repro.scan.faults import BuildCrash, FaultPlan
from repro.scan.walker import RetryPolicy


def _creds(args: argparse.Namespace) -> Credentials:
    groups = frozenset(int(g) for g in (args.groups or "").split(",") if g)
    return Credentials(uid=args.uid, gid=args.gid, groups=groups)


def _add_identity(p: argparse.ArgumentParser) -> None:
    p.add_argument("--uid", type=int, default=0, help="querying uid (default root)")
    p.add_argument("--gid", type=int, default=0)
    p.add_argument("--groups", default="", help="comma-separated supplementary gids")


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", "--nthreads", type=int, default=4,
                   help="worker threads (the paper's -n flag)")


def _add_processes(p: argparse.ArgumentParser) -> None:
    p.add_argument("--processes", type=int, default=1,
                   help="worker processes for scatter-gather execution "
                        "(1 = single-process)")


def _add_result_cache(p: argparse.ArgumentParser) -> None:
    p.add_argument("--result-cache", action="store_true",
                   help="materialize query results and replay them while "
                        "the visited directories' stamps (and the "
                        "changefeed cursor) prove them current")
    p.add_argument("--result-cache-mb", type=float, default=64.0,
                   metavar="MB",
                   help="result-cache byte budget (default 64)")


def _result_cache(args: argparse.Namespace):
    """A ResultCache per the CLI flags, or None when disabled."""
    if not getattr(args, "result_cache", False):
        return None
    from repro.core.engine import ResultCache

    return ResultCache(
        max_bytes=max(1, int(args.result_cache_mb * 1024 * 1024))
    )


def _add_obs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics", action="store_true",
                   help="record process metrics and print the table on exit")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write Prometheus-format metrics to FILE on exit")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record spans; write a JSON-lines trace to FILE")
    p.add_argument("--slow-query-ms", type=float, default=None, metavar="MS",
                   help="log operations slower than MS milliseconds")


def _obs_begin(args: argparse.Namespace) -> bool:
    """Enable the requested observability components (if any)."""
    from repro import obs

    want_metrics = bool(
        getattr(args, "metrics", False) or getattr(args, "metrics_out", None)
    )
    tracing = getattr(args, "trace_out", None) is not None
    slow_ms = getattr(args, "slow_query_ms", None)
    if not (want_metrics or tracing or slow_ms is not None):
        return False
    obs.enable(metrics=want_metrics, tracing=tracing, slow_query_ms=slow_ms)
    return True


def _obs_end(args: argparse.Namespace) -> None:
    """Export whatever was recorded, then disable."""
    from pathlib import Path

    from repro import obs
    from repro.obs.export import (
        render_metrics,
        render_slow_log,
        to_prometheus,
        write_trace_jsonl,
    )

    try:
        if getattr(args, "metrics", False):
            print(render_metrics(obs.snapshot()), file=sys.stderr)
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out:
            Path(metrics_out).write_text(
                to_prometheus(obs.snapshot()), encoding="utf-8"
            )
            print(f"# wrote metrics to {metrics_out}", file=sys.stderr)
        trace_out = getattr(args, "trace_out", None)
        if trace_out:
            n = write_trace_jsonl(trace_out, obs.tracer().spans())
            print(f"# wrote {n} spans to {trace_out}", file=sys.stderr)
        if getattr(args, "slow_query_ms", None) is not None:
            print(render_slow_log(obs.slow_log()), file=sys.stderr)
    finally:
        obs.disable()


def _build_opts(args: argparse.Namespace) -> BuildOptions:
    faults = FaultPlan.parse(args.fault_plan) if args.fault_plan else None
    return BuildOptions(
        nthreads=args.nthreads,
        resume=args.resume,
        retry=RetryPolicy(retries=args.retries),
        faults=faults,
    )


def _report_build(result: BuildResult) -> int:
    extra = ""
    if result.dirs_skipped:
        extra += f", {result.dirs_skipped} resumed-over"
    if result.dirs_retried:
        extra += f", {result.dirs_retried} retries"
    print(
        f"indexed {result.dirs_created} dirs / {result.entries_inserted} "
        f"entries in {result.seconds:.2f}s "
        f"({result.rows_per_second:.0f} rows/s){extra}"
    )
    if result.errors:
        for path, exc in result.errors:
            print(f"# failed {path}: {exc}", file=sys.stderr)
        print(
            f"# {len(result.errors)} dirs failed; journal kept — "
            "rerun with --resume to finish",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_trace2index(args: argparse.Namespace) -> int:
    try:
        result = trace2index(args.trace, args.index_root, _build_opts(args))
    except BuildCrash as exc:
        print(f"# build crashed: {exc}", file=sys.stderr)
        print("# rerun with --resume to continue from the journal",
              file=sys.stderr)
        return 1
    return _report_build(result)


def cmd_demo_index(args: argparse.Namespace) -> int:
    from repro.core.build import dir2index
    from repro.gen import dataset2

    ns = dataset2(scale=args.scale)
    result = dir2index(
        ns.tree, args.index_root, opts=BuildOptions(nthreads=args.nthreads)
    )
    print(
        f"demo namespace: {result.dirs_created} dirs / "
        f"{result.entries_inserted} entries indexed in {result.seconds:.2f}s"
    )
    return 0


def _write_lines(lines: list[str]) -> None:
    """A query's rows in one write: a ``print`` per row is a sixth of
    a cold full-tree Q1."""
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def cmd_query(args: argparse.Namespace) -> int:
    index = GUFIIndex.open(args.index_root)
    spec = QuerySpec(
        I=args.init, T=args.tsum, S=args.sum, E=args.entries,
        J=args.join, G=args.final, xattrs=args.xattrs,
        output_prefix=args.output,
    )
    plan = None
    if args.min_level is not None or args.max_level is not None:
        # Raw user SQL may read any table, so only the *depth window*
        # is planned (entries_shaped=False disables the stats gates).
        plan = QueryPlan(
            min_level=args.min_level,
            max_level=args.max_level,
            entries_shaped=False,
        )
    with QueryEngine(index, creds=_creds(args), nthreads=args.nthreads,
                     processes=args.processes,
                     result_cache=_result_cache(args)) as q:
        result = q.run(spec, args.start, plan=plan)
    _write_lines(
        [
            "\t".join(["" if v is None else str(v) for v in row])
            for row in result.rows
        ]
    )
    if result.output_files:
        for path in result.output_files:
            print(f"# wrote {path}", file=sys.stderr)
    print(
        f"# {result.dirs_visited} dirs visited, {result.dirs_denied} denied, "
        f"{result.dirs_pruned_by_plan} plan-pruned, "
        f"{result.elapsed:.3f}s",
        file=sys.stderr,
    )
    return 0


def cmd_find(args: argparse.Namespace) -> int:
    index = GUFIIndex.open(args.index_root)
    filters = FindFilters(
        name_like=args.name, ftype=args.type,
        min_size=args.min_size, max_size=args.max_size,
        min_level=args.min_level, max_level=args.max_level,
    )
    with GUFITools(index, creds=_creds(args), nthreads=args.nthreads,
                   processes=args.processes,
                   result_cache=_result_cache(args)) as tools:
        result = tools.find(args.start, filters, planned=not args.no_plan)
    _write_lines(
        [f"{ftype}\t{size}\t{path}" for path, ftype, size in sorted(result.rows)]
    )
    print(
        f"# {result.dirs_visited} dirs visited, "
        f"{result.dbs_opened} dbs opened, "
        f"{result.dirs_pruned_by_plan} plan-pruned, "
        f"{result.attaches_elided} attaches elided",
        file=sys.stderr,
    )
    return 0


def cmd_du(args: argparse.Namespace) -> int:
    index = GUFIIndex.open(args.index_root)
    with GUFITools(index, creds=_creds(args), nthreads=args.nthreads) as tools:
        print(tools.du(args.start, use_tsummary=args.tsummary))
    return 0


def cmd_rollup(args: argparse.Namespace) -> int:
    index = GUFIIndex.open(args.index_root)
    stats = rollup(index, limit=args.limit, nthreads=args.nthreads)
    print(
        f"rolled {stats.rolled}/{stats.total_dirs} dirs in "
        f"{stats.elapsed:.2f}s (blocked: {stats.blocked_perms} perms, "
        f"{stats.blocked_limit} limit, {stats.blocked_child} child); "
        f"visible DBs now {stats.visible_dbs}"
    )
    return 0


def cmd_unrollup(args: argparse.Namespace) -> int:
    index = GUFIIndex.open(args.index_root)
    unrollup_dir(index, args.dir)
    print(f"unrolled {args.dir}")
    return 0


def cmd_bfti(args: argparse.Namespace) -> int:
    index = GUFIIndex.open(args.index_root)
    result = build_tsummary(index, args.start)
    print(
        f"tsummary at {args.start}: {result.rows_written} rows from "
        f"{result.dirs_scanned} dirs ({result.dbs_opened} dbs opened) "
        f"in {result.seconds:.2f}s"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    index = GUFIIndex.open(args.index_root)
    if args.full:
        from repro.core.stats import collect_stats, render_stats

        stats = collect_stats(
            index, start=args.start, creds=_creds(args), nthreads=args.nthreads
        )
        print(render_stats(stats))
        return 0
    n_dbs = index.count_dbs()
    print(f"databases:   {n_dbs}")
    print(f"visible DBs: {visible_db_count(index)}")
    print(f"entries:     {index.total_entries()}")
    print(f"index bytes: {index.total_db_bytes()}")
    return 0


def cmd_index_migrate(args: argparse.Namespace) -> int:
    from repro.store.migrate import migrate_index

    result = migrate_index(args.index_root, resume=args.resume)
    print(
        f"migrated {result.dirs_migrated}/{result.dirs_seen} dirs "
        f"({result.dirs_skipped} already current, "
        f"{result.steps_applied} schema steps, "
        f"{result.side_dbs_migrated} side dbs)"
    )
    if result.errors:
        for path, msg in result.errors:
            print(f"# failed {path}: {msg}", file=sys.stderr)
        print(
            f"# {len(result.errors)} dirs failed; journal kept — "
            "rerun with --resume to finish",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_index_doctor(args: argparse.Namespace) -> int:
    from repro.store.doctor import doctor

    report = doctor(args.index_root)
    versions = ", ".join(
        f"v{v}: {n}" for v, n in sorted(report.versions.items())
    ) or "none"
    print(f"dirs:            {report.dirs_seen}")
    print(f"schema versions: {versions}")
    print(f"xattr side dbs:  {report.side_dbs}")
    if report.dirs_outdated:
        print(f"outdated dirs:   {report.dirs_outdated} (run `index migrate`)")
    if report.dirs_newer:
        print(f"newer-schema dirs: {report.dirs_newer} (upgrade this tool)")
    for sp, shard in report.missing_shards:
        print(f"# {sp}: tracked xattr shard {shard} missing", file=sys.stderr)
    for sp, what in report.view_mismatches:
        print(f"# {sp}: {what}", file=sys.stderr)
    for sp, name in report.stale_partials:
        print(f"# {sp}: stale staging file {name}", file=sys.stderr)
    for sp, msg in report.errors:
        print(f"# {sp}: {msg}", file=sys.stderr)
    if report.healthy:
        print("index is healthy")
        return 0
    print("# index has problems", file=sys.stderr)
    return 1


def cmd_search(args: argparse.Namespace) -> int:
    """The portal search bar from the command line."""
    from repro.core.search import parse

    index = GUFIIndex.open(args.index_root)
    parsed = parse(args.query, now=args.now)
    plan = plan_for(parsed.filters, planned=not args.no_plan)
    with QueryEngine(index, creds=_creds(args), nthreads=args.nthreads) as q:
        result = q.run(parsed.to_spec(), args.start, plan=plan)
    _write_lines(["\t".join(str(v) for v in row) for row in sorted(result.rows)])
    print(
        f"# {len(result.rows)} matches from {result.dirs_visited} dirs "
        f"({result.dirs_pruned_by_plan} plan-pruned, "
        f"{result.attaches_elided} attaches elided)",
        file=sys.stderr,
    )
    return 0


def cmd_changefeed(args: argparse.Namespace) -> int:
    """In-process incremental-indexing demo driver.

    The source namespaces here are simulated in memory, so this
    subcommand owns the whole loop a deployed site would split across
    processes: it generates a namespace, builds its index, attaches a
    change journal, then alternates seeded random mutation bursts with
    ``changefeed2index`` applies. ``--watch`` keeps cycling (bounded by
    ``--cycles``), printing one line per apply — the shape of a real
    changelog-tailing daemon."""
    import time as _time

    from repro.core.build import dir2index
    from repro.core.changefeed import changefeed2index
    from repro.fs.changelog import ChangeJournal, ChangelogOverflow
    from repro.gen import dataset2
    from repro.gen.namespace import NamespaceMutator

    ns = dataset2(scale=args.scale)
    opts = BuildOptions(nthreads=args.nthreads)
    result = dir2index(ns.tree, args.index_root, opts=opts)
    index = GUFIIndex.open(args.index_root)
    journal = ChangeJournal(capacity=args.journal_capacity)
    ns.tree.set_changelog(journal)
    mutator = NamespaceMutator(ns, seed=args.seed)
    print(
        f"demo namespace: {result.dirs_created} dirs / "
        f"{result.entries_inserted} entries indexed; journal attached"
    )

    cycles = args.cycles if args.watch else 1
    for cycle in range(cycles):
        mutator.mutate(args.mutations)
        try:
            r = changefeed2index(index, ns.tree, journal, opts=opts)
        except ChangelogOverflow:
            print(
                "# journal overflowed — falling back to full rebuild",
                file=sys.stderr,
            )
            result = dir2index(ns.tree, args.index_root, opts=opts)
            index = GUFIIndex.open(args.index_root)
            continue
        print(
            f"cycle {cycle}: {r.events_raw} events "
            f"({r.events_coalesced} coalesced) -> {r.dirs_rebuilt} dirs "
            f"rebuilt, {r.dirs_moved} moved, {r.dirs_removed} removed "
            f"in {r.seconds * 1000:.1f}ms (cursor {r.cursor})"
        )
        if args.watch and args.interval > 0 and cycle + 1 < cycles:
            _time.sleep(args.interval)
    return 0


def cmd_split_trace(args: argparse.Namespace) -> int:
    from repro.scan.trace import split_trace

    parts = split_trace(args.trace, args.dest_dir, args.parts)
    for p in parts:
        print(p)
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro import harness

    which = args.which
    runners = {
        "fig1": lambda: print(harness.fig1().render()),
        "table1": lambda: print(harness.table1().render()),
        "fig7": lambda: print(harness.fig7().render()),
        "fig8": lambda: _print_fig8(),
        "fig9": lambda: print(harness.fig9().render()),
        "fig10": lambda: _print_fig10(),
        "rollup": lambda: print(harness.rollup_reduction().render()),
        "ingest": lambda: print(harness.ingest_rate().render()),
        "resilience": lambda: print(harness.build_resilience().render()),
        "planning": lambda: print(harness.planning_ablation().render()),
    }

    def _print_fig8():
        a, c, _ = harness.fig8()
        print(a.render())
        print()
        print(c.render())

    def _print_fig10():
        a, b = harness.fig10()
        print(a.render())
        print()
        print(b.render())

    targets = list(runners) if which == "all" else [which]
    for t in targets:
        runners[t]()
        print()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro import obs
    from repro.core.server import GUFIServer, IdentityProvider
    from repro.serve import GUFIApp
    from repro.serve.http import serve

    # fail before anything is switched on or announced
    index = GUFIIndex.open(args.index_root)

    # /metrics is part of the serving contract: record even without
    # an explicit --metrics flag
    metrics_enabled_here = not obs.metrics().enabled
    if metrics_enabled_here:
        obs.enable(metrics=True)

    if args.passwd:
        with open(args.passwd, encoding="utf-8") as fh:
            passwd_text = fh.read()
        group_text = ""
        if args.group:
            with open(args.group, encoding="utf-8") as fh:
                group_text = fh.read()
        identity = IdentityProvider.from_passwd(passwd_text, group_text)
    else:
        # demo principals matching the generated demo namespace
        identity = IdentityProvider()
        identity.add_user("root", uid=0, gid=0)
        identity.add_user("alice", uid=1001, gid=1001)
        identity.add_user("bob", uid=1002, gid=1002)
        identity.add_user("carol", uid=1003, gid=1003,
                          groups=frozenset({100}))

    with GUFIServer(
        index, identity, nthreads=args.nthreads,
        result_cache_mb=args.result_cache_mb,
    ) as server, GUFIApp(
        server,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        tenant_qps=args.tenant_qps,
        tenant_burst=args.tenant_burst,
        tenant_concurrency=args.tenant_concurrency,
        deadline_s=args.deadline_ms / 1000.0,
    ) as app:
        print(f"serving {args.index_root} on "
              f"http://{args.host}:{args.port} "
              f"(inflight={args.max_inflight} queue={args.queue_limit})")
        try:
            asyncio.run(serve(app, host=args.host, port=args.port))
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            if metrics_enabled_here:
                obs.disable()
    return 0


def _args_trace2index(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace")
    p.add_argument("index_root")
    p.add_argument("--resume", action="store_true",
                   help="skip directories the build journal proves done")
    p.add_argument("--fault-plan", default=None,
                   help="inject faults: 'kind:site:at[xTIMES];...' "
                        "e.g. 'crash:build_dir_db:12' or 'io:walker.expand:3x2'")
    p.add_argument("--retries", type=int, default=2,
                   help="retries per directory on transient errors")
    _add_threads(p)
    _add_obs(p)


def _args_demo_index(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("--scale", type=float, default=0.0005)
    _add_threads(p)


def _args_query(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("--start", default="/")
    p.add_argument("-I", dest="init", default=None)
    p.add_argument("-T", dest="tsum", default=None)
    p.add_argument("-S", dest="sum", default=None)
    p.add_argument("-E", dest="entries", default=None)
    p.add_argument("-J", dest="join", default=None)
    p.add_argument("-G", dest="final", default=None)
    p.add_argument("--xattrs", action="store_true")
    p.add_argument("-o", "--output", default=None,
                   help="stream rows to per-thread files <prefix>.<n>")
    p.add_argument("-y", "--min-level", type=int, default=None,
                   help="process only dirs >= this level below start")
    p.add_argument("-z", "--max-level", type=int, default=None,
                   help="process only dirs <= this level below start "
                        "(descent stops there too)")
    _add_threads(p)
    _add_processes(p)
    _add_result_cache(p)
    _add_identity(p)
    _add_obs(p)


def _args_find(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("--start", default="/")
    p.add_argument("--name", default=None, help="SQL LIKE pattern")
    p.add_argument("--type", default=None, choices=["f", "l"])
    p.add_argument("--min-size", type=int, default=None)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--min-level", type=int, default=None,
                   help="depth window lower bound (gufi_query -y)")
    p.add_argument("--max-level", type=int, default=None,
                   help="depth window upper bound (gufi_query -z)")
    p.add_argument("--no-plan", action="store_true",
                   help="disable summary-statistics pruning "
                        "(results are identical; for comparison)")
    _add_threads(p)
    _add_processes(p)
    _add_result_cache(p)
    _add_identity(p)
    _add_obs(p)


def _args_du(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("--start", default="/")
    p.add_argument("--tsummary", action="store_true")
    _add_threads(p)
    _add_identity(p)
    _add_obs(p)


def _args_rollup(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("-L", "--limit", type=int, default=None)
    _add_threads(p)
    _add_obs(p)


def _args_unrollup(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("dir")


def _args_bfti(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("--start", default="/")


def _args_stats(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("--full", action="store_true",
                   help="full gufi_stats-style characterisation")
    p.add_argument("--start", default="/")
    _add_threads(p)
    _add_identity(p)
    _add_obs(p)


def _args_index(p: argparse.ArgumentParser) -> None:
    isub = p.add_subparsers(dest="index_command", required=True)
    ip = isub.add_parser(
        "migrate",
        help="upgrade every directory database to the current schema "
             "version (per-directory, resumable)",
    )
    ip.add_argument("index_root")
    ip.add_argument("--resume", action="store_true",
                    help="skip directories the migrate journal proves done")
    ip.set_defaults(func=cmd_index_migrate)
    ip = isub.add_parser(
        "doctor",
        help="read-only health report: schema versions, missing xattr "
             "shards, view-form mismatches, stale staging files",
    )
    ip.add_argument("index_root")
    ip.set_defaults(func=cmd_index_doctor)


def _args_search(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("query", help="e.g. '*.h5 size>>100m older:90d'")
    p.add_argument("--start", default="/")
    p.add_argument("--now", type=int, default=None,
                   help="reference timestamp for older:/newer:")
    p.add_argument("--no-plan", action="store_true",
                   help="disable summary-statistics pruning "
                        "(results are identical; for comparison)")
    _add_threads(p)
    _add_identity(p)
    _add_obs(p)


def _args_changefeed2index(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("--scale", type=float, default=0.0005,
                   help="demo namespace scale (as demo-index)")
    p.add_argument("--seed", type=int, default=0,
                   help="mutation sequence seed")
    p.add_argument("--mutations", type=int, default=50,
                   help="mutations per cycle")
    p.add_argument("--journal-capacity", type=int, default=65536,
                   help="journal bound; overflow forces a full rebuild")
    p.add_argument("--watch", action="store_true",
                   help="keep cycling mutate/apply instead of one batch")
    p.add_argument("--cycles", type=int, default=5,
                   help="cycles to run with --watch")
    p.add_argument("--interval", type=float, default=0.0,
                   help="seconds to sleep between --watch cycles")
    _add_threads(p)
    _add_obs(p)


def _args_serve(p: argparse.ArgumentParser) -> None:
    p.add_argument("index_root")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--max-inflight", type=int, default=4,
                   help="global execution slots (worker threads)")
    p.add_argument("--queue-limit", type=int, default=16,
                   help="bounded admission queue; overflow is shed (503)")
    p.add_argument("--tenant-qps", type=float, default=None,
                   help="per-tenant sustained request rate (default: off)")
    p.add_argument("--tenant-burst", type=float, default=None,
                   help="per-tenant burst allowance (default: max(1, qps))")
    p.add_argument("--tenant-concurrency", type=int, default=None,
                   help="per-tenant in-flight request cap (default: off)")
    p.add_argument("--deadline-ms", type=float, default=30_000.0,
                   help="default per-request deadline; clients may only "
                        "shorten it")
    p.add_argument("--passwd", default=None,
                   help="passwd-format file of principals "
                        "(default: demo users)")
    p.add_argument("--group", default=None,
                   help="group-format file of supplementary memberships")
    p.add_argument("--result-cache-mb", type=float, default=64.0,
                   metavar="MB",
                   help="shared result-cache byte budget (default 64)")
    _add_threads(p)
    _add_obs(p)


def _args_split_trace(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace")
    p.add_argument("dest_dir")
    p.add_argument("-p", "--parts", type=int, default=4)


def _args_experiments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "which",
        choices=["fig1", "table1", "fig7", "fig8", "fig9", "fig10",
                 "rollup", "ingest", "resilience", "planning", "all"],
    )


#: every sub-command: (name, help, add_arguments, handler). ``index``
#: has no handler of its own: its nested sub-commands set theirs.
COMMANDS: list[tuple[str, str, Callable, Callable | None]] = [
    ("trace2index", "ingest a trace file into an index",
     _args_trace2index, cmd_trace2index),
    ("demo-index", "generate a demo namespace and index it",
     _args_demo_index, cmd_demo_index),
    ("query", "run raw gufi_query-style SQL", _args_query, cmd_query),
    ("find", "gufi_find", _args_find, cmd_find),
    ("du", "gufi_du", _args_du, cmd_du),
    ("rollup", "roll up an index (admin)", _args_rollup, cmd_rollup),
    ("unrollup", "undo one directory's rollup (admin)",
     _args_unrollup, cmd_unrollup),
    ("bfti", "build tree summary (admin)", _args_bfti, cmd_bfti),
    ("stats", "index statistics", _args_stats, cmd_stats),
    ("index", "index maintenance: schema migrate, health doctor",
     _args_index, None),
    ("search", "portal search-bar query language", _args_search, cmd_search),
    ("changefeed2index",
     "incremental indexing demo: mutate a namespace and apply "
     "the change journal to its index",
     _args_changefeed2index, cmd_changefeed),
    ("serve", "multi-tenant HTTP serving over the restricted server",
     _args_serve, cmd_serve),
    ("split-trace", "split a trace for distributed ingest",
     _args_split_trace, cmd_split_trace),
    ("experiments", "regenerate paper tables/figures",
     _args_experiments, cmd_experiments),
]


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser — of every sub-command, or of ``only`` alone:
    registering all of them costs more than a one-directory query, and
    a call runs one (what a sub-parser parses, prints for ``-h`` and
    reports as an error does not depend on its siblings)."""
    parser = argparse.ArgumentParser(
        prog="repro-gufi",
        description="GUFI reproduction: index, query, and benchmark tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, add_arguments, handler in COMMANDS:
        if only is None or name == only:
            p = sub.add_parser(name, help=help_)
            add_arguments(p)
            if handler is not None:
                p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # help and the "invalid choice" error list every sub-command
    only = None
    if argv and not {"-h", "--help"}.intersection(argv):
        only = next((c[0] for c in COMMANDS if c[0] == argv[0]), None)
    args, extras = build_parser(only).parse_known_args(argv)
    if extras:
        # "unrecognized arguments" is the top-level parser's error,
        # under its usage line
        args = build_parser().parse_args(argv)
    obs_on = _obs_begin(args)
    try:
        return args.func(args)
    except (IndexError_, FileNotFoundError, QueryPermissionError) as exc:
        # not an index (or a structurally broken one), a start that is
        # not in it, a start the caller may not reach: one line, not a
        # traceback, with argparse's usage-error exit code
        print(f"repro-gufi: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if obs_on:
            _obs_end(args)


if __name__ == "__main__":
    raise SystemExit(main())
