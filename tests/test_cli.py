"""CLI tests: every subcommand through the argparse entry point."""

from __future__ import annotations

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.core.build import BuildOptions, dir2index
from repro.scan.scanners import TreeWalkScanner
from repro.scan.trace import write_trace
from tests.conftest import NTHREADS, build_demo_tree


@pytest.fixture
def index_root(tmp_path):
    tree = build_demo_tree()
    dir2index(tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS))
    return str(tmp_path / "idx")


def run_cli(*args) -> int:
    return main(list(args))


class TestCLI:
    def test_trace2index(self, tmp_path, capsys):
        tree = build_demo_tree()
        stanzas = TreeWalkScanner(tree, nthreads=1).scan("/").stanzas
        write_trace(stanzas, tmp_path / "t.trace")
        rc = run_cli("trace2index", str(tmp_path / "t.trace"),
                     str(tmp_path / "idx"), "-n", "2")
        assert rc == 0
        out = capsys.readouterr().out
        assert "12 dirs" in out

    def test_trace2index_fault_plan_then_resume(self, tmp_path, capsys):
        """--fault-plan kills the build (exit 1, resume hint); a rerun
        with --resume finishes it and the index answers queries."""
        tree = build_demo_tree()
        stanzas = TreeWalkScanner(tree, nthreads=1).scan("/").stanzas
        write_trace(stanzas, tmp_path / "t.trace")
        idx = str(tmp_path / "idx")
        rc = run_cli("trace2index", str(tmp_path / "t.trace"), idx,
                     "-n", "2", "--fault-plan", "crash:build_dir_db:5")
        captured = capsys.readouterr()
        assert rc == 1
        assert "build crashed" in captured.err
        assert "--resume" in captured.err
        assert (tmp_path / "idx" / "gufi_build.journal").exists()

        rc = run_cli("trace2index", str(tmp_path / "t.trace"), idx,
                     "-n", "2", "--resume")
        captured = capsys.readouterr()
        assert rc == 0
        assert "resumed-over" in captured.out
        assert not (tmp_path / "idx" / "gufi_build.journal").exists()
        rc = run_cli("query", idx, "-E", "SELECT name FROM pentries", "-n", "2")
        assert rc == 0
        assert "b.txt" in capsys.readouterr().out

    def test_demo_index_and_stats(self, tmp_path, capsys):
        rc = run_cli("demo-index", str(tmp_path / "idx"),
                     "--scale", "0.00003", "-n", "2")
        assert rc == 0
        rc = run_cli("stats", str(tmp_path / "idx"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "databases:" in out

    def test_query(self, index_root, capsys):
        rc = run_cli("query", index_root, "-E", "SELECT name FROM pentries",
                     "-n", "2")
        assert rc == 0
        out = capsys.readouterr().out
        assert "b.txt" in out

    def test_query_as_user(self, index_root, capsys):
        rc = run_cli("query", index_root, "-E", "SELECT name FROM pentries",
                     "--uid", "1002", "--gid", "1002", "-n", "2")
        assert rc == 0
        out = capsys.readouterr().out
        assert "a.txt" not in out  # alice's private file
        assert "b.txt" in out

    def test_query_aggregation_flags(self, index_root, capsys):
        rc = run_cli(
            "query", index_root,
            "-I", "CREATE TABLE sizes (s INTEGER)",
            "-E", "INSERT INTO sizes SELECT TOTAL(size) FROM pentries",
            "-J", "INSERT INTO aggregate.sizes SELECT TOTAL(s) FROM sizes",
            "-G", "SELECT TOTAL(s) FROM sizes",
            "-n", "2",
        )
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert float(out.splitlines()[-1]) > 0

    def test_find(self, index_root, capsys):
        rc = run_cli("find", index_root, "--name", "%.txt", "-n", "2")
        assert rc == 0
        out = capsys.readouterr().out
        assert "/home/bob/b.txt" in out

    def test_du_and_tsummary_flow(self, index_root, capsys):
        rc = run_cli("du", index_root, "-n", "2")
        assert rc == 0
        du_plain = int(capsys.readouterr().out.strip())
        assert run_cli("bfti", index_root) == 0
        # a one-shot process has nothing memoised: every db is opened
        assert "dirs (12 dbs opened)" in capsys.readouterr().out
        assert run_cli("du", index_root, "--tsummary", "-n", "2") == 0
        du_ts = int(capsys.readouterr().out.strip())
        assert du_ts == du_plain

    def test_rollup_unrollup(self, index_root, capsys):
        assert run_cli("rollup", index_root, "-n", "2") == 0
        out = capsys.readouterr().out
        assert "rolled" in out
        assert run_cli("unrollup", index_root, "/home/alice") == 0

    def test_rollup_with_limit(self, index_root, capsys):
        assert run_cli("rollup", index_root, "-L", "2", "-n", "2") == 0
        assert "limit" in capsys.readouterr().out

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            run_cli()

    @pytest.mark.parametrize("argv", [
        ("query", "idx", "--result-cache"),
        ("find", "idx", "--result-cache-mb", "8"),
    ], ids=" ".join)
    def test_one_shot_commands_take_no_result_cache(self, argv, capsys):
        """A process that exits after one run has no second call to
        serve from a cache; only ``serve`` sizes one."""
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --result-cache" in (
            capsys.readouterr().err
        )

    def test_unknown_index(self, tmp_path, capsys):
        assert run_cli("stats", str(tmp_path)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"repro-gufi: error: {tmp_path} is not a GUFI index "
            "(missing gufi_index.json)\n"
        )

    @pytest.mark.parametrize("command", [
        ("serve",), ("query", "-E", "SELECT name FROM pentries"),
        ("rollup",), ("find",),
    ])
    def test_not_an_index_is_one_error_line(self, tmp_path, capsys, command):
        """No traceback, and ``serve`` never announces itself on a
        directory whose every request would fail."""
        from repro import obs

        assert run_cli(command[0], str(tmp_path), *command[1:]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro-gufi: error: ") and err.count("\n") == 1
        assert not obs.metrics().enabled

    @pytest.mark.parametrize("command", [
        ("query", "-E", "SELECT name FROM pentries"), ("find",), ("du",),
        ("search", "*.txt"), ("stats", "--full"),
    ])
    def test_bad_start_is_one_error_line(self, index_root, capsys, command):
        """A start that is not in the index, or one the caller may not
        reach, reads like a usage error (the HTTP layer's 404 / 403)."""
        rc = run_cli(command[0], index_root, *command[1:],
                     "--start", "/nonexistent", "-n", "2")
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == (
            "repro-gufi: error: no index directory for '/nonexistent'\n"
        )
        # bob may not search /home/alice, so nothing below it exists for him
        rc = run_cli(command[0], index_root, *command[1:], "-n", "2",
                     "--start", "/home/alice/sub", "--uid", "1002",
                     "--gid", "1002")
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == (
            "repro-gufi: error: permission denied traversing '/home/alice'\n"
        )

    def test_rows_are_written_as_print_wrote_them(self, index_root, capsys):
        """``query`` and ``find`` write their rows in one call: NULL is
        the empty field, every row ends in a newline, no rows is no
        output."""
        assert run_cli("query", index_root, "-n", "1", "--start", "/home/bob",
                       "-E", "SELECT name, NULL, size FROM entries "
                             "ORDER BY name") == 0
        assert capsys.readouterr().out == "b.txt\t\t300\ns.key\t\t50\n"
        assert run_cli("query", index_root, "-n", "2",
                       "-E", "SELECT name FROM entries WHERE 0") == 0
        assert capsys.readouterr().out == ""
        assert run_cli("find", index_root, "-n", "2", "--name", "%.txt",
                       "--start", "/home") == 0
        assert capsys.readouterr().out == (
            "f\t100\t/home/alice/a.txt\nf\t300\t/home/bob/b.txt\n"
        )
        assert run_cli("find", index_root, "-n", "2", "--name", "nope") == 0
        assert capsys.readouterr().out == ""
        assert run_cli("search", index_root, "*.txt", "--start", "/home",
                       "-n", "2") == 0
        assert capsys.readouterr().out == (
            "/home/alice/a.txt\tf\t100\t4\n/home/bob/b.txt\tf\t300\t7\n"
        )
        assert run_cli("search", index_root, "nope", "-n", "2") == 0
        assert capsys.readouterr().out == ""


#: one example call per sub-command (the nested ``index`` ones each)
EXAMPLE_ARGV = [
    ["trace2index", "t.trace", "idx", "--resume", "--retries", "3", "-n", "2",
     "--metrics"],
    ["demo-index", "idx", "--scale", "0.001"],
    ["query", "idx", "-I", "CREATE TABLE t (n)", "-S", "s", "-E", "e", "-J", "j",
     "-G", "g", "-o", "out", "-y", "1", "-z", "3", "--uid", "7", "--groups",
     "1,2", "--processes", "2", "--slow-query-ms", "5"],
    ["find", "idx", "--name", "%.c", "--type", "f", "--min-size", "1",
     "--no-plan", "--gid", "9", "--trace-out", "spans.jsonl"],
    ["du", "idx", "--start", "/home", "--tsummary", "--uid", "1001"],
    ["rollup", "idx", "-L", "100", "-n", "1"],
    ["unrollup", "idx", "/home/alice"],
    ["bfti", "idx", "--start", "/proj"],
    ["stats", "idx", "--full", "--metrics-out", "m.prom"],
    ["index", "migrate", "idx", "--resume"],
    ["index", "doctor", "idx"],
    ["search", "idx", "*.h5 size>>100m", "--now", "100", "--no-plan"],
    ["changefeed2index", "idx", "--watch", "--cycles", "2", "--seed", "4"],
    ["serve", "idx", "--port", "0", "--tenant-qps", "2.5", "--passwd", "pw"],
    ["split-trace", "t.trace", "parts", "-p", "3"],
    ["experiments", "fig7"],
]


class TestOneCommandParser:
    """``main`` registers only the sub-command it runs; what it parses,
    prints and rejects is what the parser of all of them does."""

    def test_every_command_has_an_example(self):
        assert {argv[0] for argv in EXAMPLE_ARGV} == {c[0] for c in COMMANDS}

    @pytest.mark.parametrize("argv", EXAMPLE_ARGV, ids=" ".join)
    def test_namespace_is_the_full_parser_s(self, argv, monkeypatch):
        full = build_parser().parse_args(argv)
        assert callable(full.func)
        assert vars(build_parser(argv[0]).parse_args(argv)) == vars(full)

        class Built(Exception):
            pass

        def spy(only=None):
            raise Built(only)

        monkeypatch.setattr("repro.cli.build_parser", spy)
        for args, only in [(argv, argv[0]), (argv + ["--help"], None)]:
            with pytest.raises(Built) as built:
                main(args)
            assert built.value.args == (only,)

    @pytest.mark.parametrize(
        "argv",
        [["-h"], [], ["bogus", "idx"], ["query"], ["find", "idx", "--type", "x"],
         ["index"], ["index", "bogus"], ["query", "idx", "--bogus"],
         ["du", "idx", "extra"]]
        + [[c[0], "-h"] for c in COMMANDS]
        + [["index", "migrate", "--help"], ["query", "idx", "-E", "x", "-h"]],
        ids=" ".join,
    )
    def test_help_and_usage_errors_are_the_full_parser_s(self, argv, capsys):
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as lazy:
            main(argv)
        assert lazy.value.code == full.value.code
        assert capsys.readouterr() == want
