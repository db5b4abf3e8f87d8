"""Correctness checks shared by all workloads.

Every check runs outside a timed region. A mismatch is counted in
``failed`` (the numerator of the run's fail ratio) next to operations
that were refused or errored, and makes the run exit non-zero.

The reference for "what may this user see" is the paper's security
definition: exactly what POSIX tools running as that user would list on
the source tree — :mod:`repro.baselines.posix_tools` walking the
in-memory tree the index was built from.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable


class Checker:
    """Tally of operations attempted / failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        """Count one operation or check; ``what`` names it on failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return bool(ok)

    def equal(self, got, want, what: str) -> bool:
        ok = got == want
        if not ok:
            what = f"{what}: got {_brief(got)}, want {_brief(want)}"
        return self.expect(ok, what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _brief(v) -> str:
    s = repr(v)
    return s if len(s) <= 80 else s[:77] + "..."


def digest(lines: Iterable[str]) -> str:
    """Order-independent digest of a row set (worker threads emit rows
    in whatever order they finish directories)."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode("utf-8", "surrogatepass"))
        h.update(b"\n")
    return h.hexdigest()[:32]


def digest_text(text: str) -> str:
    return digest(text.splitlines())


def digest_rows(rows: Iterable) -> str:
    return digest(repr(_plain(r)) for r in rows)


def _plain(v):
    """Tuples and lists compare equal (JSON has only lists)."""
    if isinstance(v, (list, tuple)):
        return tuple(_plain(x) for x in v)
    return v


def expected_digest(real: str) -> str:
    """The digest a check compares against. ``E2E_CORRUPT_EXPECTED=1``
    deliberately corrupts it: the acceptance test that a wrong row makes
    the run exit non-zero."""
    if os.environ.get("E2E_CORRUPT_EXPECTED") == "1":
        return "corrupt-" + real[8:]
    return real


class PosixOracle:
    """What ``find``/``du`` running as a user list on the source tree."""

    def __init__(self, tree) -> None:
        from repro.fs.mounts import MountedFS
        from repro.sim.netfs import TMPFS_LOCAL

        self.mount = MountedFS(tree, TMPFS_LOCAL)
        self._cache: dict[tuple, tuple[list, list]] = {}

    @staticmethod
    def _creds(uid: int, gid: int):
        from repro.fs.permissions import ROOT, Credentials

        return ROOT if uid == 0 else Credentials(uid=uid, gid=gid)

    def walk(self, uid: int, gid: int, top: str = "/"):
        """``(directories, files)`` the user's ``find`` lists under
        ``top``, each a list of ``(path, size)``."""
        from repro.baselines import posix_tools

        key = (uid, gid, top)
        if key not in self._cache:
            creds = self._creds(uid, gid)
            # the walk behind find_ls/du_s/find_names; those public
            # wrappers return only counts and the checks need the names
            listed, _denied = posix_tools._walk(self.mount, top, creds)
            dirs, files = [], []
            for path, st in listed:
                is_dir = (st.st_mode & 0o170000) == 0o040000
                (dirs if is_dir else files).append((path, st.st_size))
            self._cache[key] = (dirs, files)
        return self._cache[key]

    def file_paths(self, uid: int, gid: int, top: str = "/") -> list[str]:
        """Every non-directory path the user's ``find`` prints."""
        return sorted(p for p, _ in self.walk(uid, gid, top)[1])

    def file_names(self, uid: int, gid: int, top: str = "/") -> list[str]:
        return sorted(p.rsplit("/", 1)[1] for p in self.file_paths(uid, gid, top))

    def find_count(self, uid: int, gid: int, top: str = "/") -> int:
        """``find_names(...).matches`` — the public tool, as a
        cross-check that the private walk above is the same walk."""
        from repro.baselines.posix_tools import find_names

        return find_names(
            self.mount, top, creds=self._creds(uid, gid)
        ).matches

    def du_bytes(self, uid: int, gid: int, top: str = "/") -> int:
        """``du_s(...).bytes_total`` for the user."""
        from repro.baselines.posix_tools import du_s

        return du_s(self.mount, top, self._creds(uid, gid)).bytes_total
