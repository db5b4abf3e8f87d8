"""Store format v1, frozen: the two template databases the builders
copied into place before format v2 (``fixtures/v1_primary.db``: 8 192
bytes, 1 024-byte pages, DDL stored with ``INTEGER``, an empty
``tsummary`` table; ``fixtures/v1_side.db``: 2 048 bytes), byte for
byte as the last v1 commit built them.

Nothing under ``src/`` can write a v1 database any more; tests that
need a v1 index build one with the builders' templates swapped for
these. ``python -m tests.v1_format DIR`` builds the demo tree's v1
index at ``DIR`` (the CI index smoke migrates it).
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.store import connect

_FIXTURES = Path(__file__).parent / "fixtures"

V1_TEMPLATES = {
    "full": (_FIXTURES / "v1_primary.db").read_bytes(),
    "side": (_FIXTURES / "v1_side.db").read_bytes(),
}


@contextmanager
def writing_v1() -> Iterator[None]:
    """Every database the builders create inside the block is a v1
    database."""
    for kind in V1_TEMPLATES:
        connect._template(kind)  # build the real ones, to put back
    with connect._template_lock:
        saved = dict(connect._templates)
        connect._templates.update(V1_TEMPLATES)
    try:
        yield
    finally:
        with connect._template_lock:
            connect._templates.update(saved)


def main(argv: list[str]) -> int:
    from repro.core.build import BuildOptions, dir2index
    from tests.conftest import build_demo_tree

    with writing_v1():
        dir2index(build_demo_tree(), argv[0], opts=BuildOptions(nthreads=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
