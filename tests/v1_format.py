"""Store format v1, frozen: the two template databases the builders
copied into place before format v2 (``fixtures/v1_primary.db``: 8 192
bytes, 1 024-byte pages, DDL stored with ``INTEGER``, an empty
``tsummary`` table; ``fixtures/v1_side.db``: 2 048 bytes), byte for
byte as the last v1 commit built them.

Nothing under ``src/`` can write a v1 database any more; tests that
need a v1 index build one with the builders' templates swapped for
these (:mod:`tests.v2_format` does the same for format v2). Rollup
and unrollup are *not* frozen: they write today's views into whatever
database they are given, as they would on a real old index.
``python -m tests.v1_format DIR`` builds the demo tree's v1 index at
``DIR``.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.store import connect

_FIXTURES = Path(__file__).parent / "fixtures"


def frozen_templates(version: int) -> dict[str, bytes]:
    """Template kind → bytes, as format ``version``'s builders had them."""
    return {
        "full": (_FIXTURES / f"v{version}_primary.db").read_bytes(),
        "side": (_FIXTURES / f"v{version}_side.db").read_bytes(),
    }


V1_TEMPLATES = frozen_templates(1)


@contextmanager
def writing(templates: dict[str, bytes]) -> Iterator[None]:
    """Every database the builders create inside the block is a copy
    of one of ``templates``."""
    for kind in templates:
        connect._template(kind)  # build the real ones, to put back
    with connect._template_lock:
        saved = dict(connect._templates)
        connect._templates.update(templates)
    try:
        yield
    finally:
        with connect._template_lock:
            connect._templates.update(saved)


def writing_v1():
    """Every database the builders create inside the block is a v1
    database."""
    return writing(V1_TEMPLATES)


def build_demo_index(templates: dict[str, bytes], argv: list[str]) -> int:
    from repro.core.build import BuildOptions, dir2index
    from tests.conftest import build_demo_tree

    with writing(templates):
        dir2index(build_demo_tree(), argv[0], opts=BuildOptions(nthreads=2))
    return 0


if __name__ == "__main__":
    sys.exit(build_demo_index(V1_TEMPLATES, sys.argv[1:]))
