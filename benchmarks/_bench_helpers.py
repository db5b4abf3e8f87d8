"""Shared constants and result capture for the benchmarks."""

from __future__ import annotations

import json
from pathlib import Path

#: human-readable tables (txt/csv) land here
RESULTS_DIR = Path(__file__).parent / "results"

#: the one home of the ``BENCH_*.json`` artifacts — CI fails a smoke
#: run that leaves one missing
REPO_ROOT = Path(__file__).parent.parent

#: this sandbox serialises syscalls across threads, so wall-clock
#: benches use small pools; the modelled-device figures are pool-size
#: independent (see DESIGN.md).
NTHREADS = 2

#: dataset-2-shaped namespace scale for the macro benches (Figs 8-10).
DS2_SCALE = 0.0003


def save_bench_report(name: str, report: dict) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root; returns its path."""
    out = REPO_ROOT / f"BENCH_{name}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out


def load_bench_baseline(name: str) -> dict | None:
    """The recorded ``BENCH_<name>.json``, or None when there is none."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    return json.loads(path.read_text()) if path.exists() else None


def save_table(name: str, *tables) -> None:
    """Persist rendered tables (txt for humans, csv for plotting) and
    echo them to the terminal."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n\n".join(t.render() for t in tables)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    for i, t in enumerate(tables):
        suffix = "" if len(tables) == 1 else f"_{i}"
        (RESULTS_DIR / f"{name}{suffix}.csv").write_text(t.to_csv())
    print()
    print(text)
