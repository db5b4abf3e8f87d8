"""Smoke test of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not collected by the tier-1 run (``testpaths = ["tests"]``). Every
workload runs ``--smoke`` (tiny namespace, two units, all correctness
checks on, no timing claim) untraced and traced.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=170,
        env={**os.environ, **(env or {})},
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def serve_processes() -> list[str]:
    out = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True)
    return [
        line for line in out.stdout.splitlines()
        if "repro.cli serve" in line or "serve_launch.py" in line
    ]


def test_benchmark_json_matches_the_catalogue():
    on_disk = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    names += [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert "setup_s" in {m["name"] for m in on_disk["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in on_disk["workloads"])
    assert len(on_disk["per_layer"]) <= 128


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_smoke_untraced(workload):
    result = result_of(run_bench("--workload", workload, "--smoke"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in catalog.END_TO_END}
    units = {m.name: m.unit for m in catalog.END_TO_END}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]
        assert m["value"] > 0, name
    assert not serve_processes()
    assert not (REPO_ROOT / ".bench_e2e").exists()


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_smoke_traced(workload):
    proc = run_bench("--workload", workload, "--smoke", "--trace", "1")
    result = result_of(proc)
    assert result["correct"]
    assert set(result["metrics"]) == {m.name for m in catalog.PER_LAYER}
    for m in catalog.PER_LAYER:
        assert re.search(rf"^{re.escape(m.name)}\s", proc.stdout, re.M), m.name
        assert result["metrics"][m.name]["unit"] == m.unit
        # every layer exists at this commit: every probe measured
        assert math.isfinite(result["metrics"][m.name]["value"]), m.name
    assert not serve_processes()
    assert not (REPO_ROOT / ".bench_e2e").exists()


def test_wrong_digest_fails_the_run():
    proc = run_bench("--workload", "cli_scan", "--smoke",
                     env={"E2E_CORRUPT_EXPECTED": "1"})
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_missing_entry_point_is_null_and_a_crash_is_a_failure(tmp_path):
    import common

    common.bootstrap()
    import harness
    import probes

    ctx = harness.Ctx("ingest", tmp_path, 22, 0.0, True, True,
                      common.SMOKE_SCALE)
    p = probes.Probes(ctx, tmp_path)

    def gone():
        from repro.core.engine import no_such_entry_point  # noqa: F401

    p.guard("plan", ["plan.compile_us"], gone)
    assert p.values["plan.compile_us"] is None
    assert "ImportError" in p.reasons["plan.compile_us"]
    assert ctx.check.failed == 0
    rendered = catalog.render(catalog.PER_LAYER, p.values)
    assert math.isnan(rendered["plan.compile_us"]["value"])

    # a probe that breaks for any other reason is not "the best value
    # ever seen": it is a failed operation and the run exits non-zero
    p.guard("sinks", ["sinks.emit_us_per_krow"], lambda: 1 / 0)
    assert p.values["sinks.emit_us_per_krow"] is None
    assert ctx.check.failed == 1 and not ctx.check.correct
    assert "probe sinks: ZeroDivisionError" in ctx.check.problems[0]

    p.guard("walker", ["walker.handoff_us_per_item"], p.walker)
    assert p.values["walker.handoff_us_per_item"] > 0


def test_a_directory_with_only_the_benchmark_fails(tmp_path):
    import shutil

    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
