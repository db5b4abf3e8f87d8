"""Store format v2, frozen: the two template databases the builders
copied into place before format v3 (``fixtures/v2_primary.db``: 4 096
bytes, 512-byte pages, DDL stored with ``INT``, no ``tsummary``, and
the views every format before v3 carried — ``pentries`` and
``vrpentries`` as joins with ``summary``; ``fixtures/v2_side.db``:
1 024 bytes), byte for byte as the last v2 commit built them.

``python -m tests.v2_format DIR`` builds the demo tree's v2 index at
``DIR`` (the CI index smoke migrates it).
"""

from __future__ import annotations

import sys

from tests.v1_format import build_demo_index, frozen_templates, writing

V2_TEMPLATES = frozen_templates(2)


def writing_v2():
    """Every database the builders create inside the block is a v2
    database."""
    return writing(V2_TEMPLATES)


if __name__ == "__main__":
    sys.exit(build_demo_index(V2_TEMPLATES, sys.argv[1:]))
