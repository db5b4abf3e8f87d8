"""The store layer's layout authority: artifact registry, commit
protocol, orphan GC, stamps, doctor, and the encapsulation lint that
keeps layout literals from leaking back out of ``repro.store``."""

from __future__ import annotations

import ast
import sqlite3
from pathlib import Path

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.store import schema
from repro.store.doctor import doctor
from repro.store.connect import open_ro, open_rw, table_bytes
from repro.store.layout import (
    DB_NAME,
    PARTIAL_SUFFIX,
    DirStore,
    StampBracket,
    artifact_bytes,
    artifact_kind,
    artifact_kinds,
    classify_artifact,
    file_stamp,
    is_side_artifact,
    side_db_name,
    stamp_matches,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


# ----------------------------------------------------------------------
# Encapsulation lint
# ----------------------------------------------------------------------

#: substrings that may only appear in string literals under repro.store
_LAYOUT_LITERALS = ("db.db", "xattrs.db", PARTIAL_SUFFIX)


def _docstring_nodes(tree: ast.AST) -> set[int]:
    """ids of Constant nodes that are docstrings (allowed to mention
    file names — they document, they don't construct paths)."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


def _layout_literals_in(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = _docstring_nodes(tree)
    hits: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            if any(lit in node.value for lit in _LAYOUT_LITERALS):
                hits.append((node.lineno, node.value))
    return hits


#: the compat re-export shims left behind when the store layer was
#: extracted (``repro.core.db`` / ``repro.core.schema``)
_SHIMS = ("db", "schema")

#: modules already migrated off the shims — they import from
#: ``repro.store`` directly and must not slide back. Extend as modules
#: migrate; when every importer is listed, the shims can be deleted.
_SHIM_FREE = ("core/tsummary.py", "core/changefeed.py")


def _shim_imports_in(path: Path, package: str = "repro.core") -> list[int]:
    """Line numbers of imports of a compat shim, however spelled:
    ``from . import db``, ``from .schema import X``, ``from repro.core
    import db``, ``import repro.core.schema``."""
    hits: list[int] = []
    shim_modules = {f"{package}.{name}" for name in _SHIMS}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            if any(alias.name in shim_modules for alias in node.names):
                hits.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:  # the linted modules sit in repro.core
                module = f"{package}.{module}".rstrip(".")
            elif node.level:
                continue
            if module in shim_modules or (
                module == package
                and any(alias.name in _SHIMS for alias in node.names)
            ):
                hits.append(node.lineno)
    return hits


class TestEncapsulationLint:
    @pytest.mark.parametrize("module", _SHIM_FREE)
    def test_migrated_modules_do_not_import_the_shims(self, module):
        assert not _shim_imports_in(SRC_ROOT / module), (
            f"{module} imports repro.core.db / repro.core.schema again; "
            "import from repro.store"
        )

    def test_shim_lint_actually_detects(self, tmp_path):
        bad = tmp_path / "bad.py"
        for line in (
            "from . import db as dbmod",
            "from . import schema",
            "from .schema import RECTYPE_OVERALL",
            "from repro.core import db",
            "import repro.core.schema",
        ):
            bad.write_text(line + "\n", encoding="utf-8")
            assert _shim_imports_in(bad), line
        bad.write_text(
            "from repro.store import schema\nfrom .index import GUFIIndex\n",
            encoding="utf-8",
        )
        assert not _shim_imports_in(bad)

    def test_no_layout_literals_outside_store(self):
        """No module outside repro.store may hard-code the primary db
        name, the xattr shard prefix, or the staging suffix — the
        whole point of the layer is that layout facts live once."""
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if (SRC_ROOT / "store") in path.parents:
                continue
            for lineno, value in _layout_literals_in(path):
                offenders.append(f"{path}:{lineno}: {value!r}")
        assert not offenders, (
            "layout literals leaked outside repro.store:\n"
            + "\n".join(offenders)
        )

    def test_lint_actually_detects(self, tmp_path):
        """The lint is alive: a planted literal is found."""
        bad = tmp_path / "bad.py"
        bad.write_text('p = root / "db.db"\n', encoding="utf-8")
        assert _layout_literals_in(bad)
        # ...and docstrings stay exempt
        ok = tmp_path / "ok.py"
        ok.write_text('"""Talks about db.db harmlessly."""\n')
        assert not _layout_literals_in(ok)


# ----------------------------------------------------------------------
# Artifact registry
# ----------------------------------------------------------------------

class TestArtifactRegistry:
    def test_builtin_kinds_registered(self):
        keys = {k.key for k in artifact_kinds()}
        assert {
            "primary",
            "xattr_user",
            "xattr_group_r",
            "xattr_group_nr",
            "names_fts",
        } <= keys

    def test_classify(self):
        assert classify_artifact(DB_NAME) == "primary"
        assert classify_artifact(side_db_name("user", 1001)) == "xattr_user"
        assert classify_artifact(side_db_name("group_r", 100)) == "xattr_group_r"
        assert classify_artifact(side_db_name("group_nr", 100)) == "xattr_group_nr"
        # staged names classify as their final kind
        assert classify_artifact(DB_NAME + PARTIAL_SUFFIX) == "primary"
        assert classify_artifact("gufi_index.json") is None
        assert classify_artifact("stray.txt") is None

    def test_is_side_artifact(self):
        assert not is_side_artifact(DB_NAME)
        assert is_side_artifact(side_db_name("user", 1))
        assert not is_side_artifact("random.file")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            artifact_kind("no-such-kind")
        with pytest.raises(ValueError):
            side_db_name("bogus", 1)


# ----------------------------------------------------------------------
# Commit protocol + orphan GC
# ----------------------------------------------------------------------

class TestCommitProtocol:
    def test_stage_publish_roundtrip(self, tmp_path):
        store = DirStore.open(tmp_path / "d")
        conn = store.stage_primary()
        conn.execute(
            "INSERT INTO entries (name, type, inode) VALUES ('x', 'f', 1)"
        )
        conn.commit()
        conn.close()
        assert not store.db_path.exists()  # not yet committed
        assert store.list_partials() == [DB_NAME + PARTIAL_SUFFIX]
        store.publish([])
        assert store.db_path.exists()
        assert store.list_partials() == []
        ro = store.open_ro()
        try:
            (n,) = ro.execute("SELECT COUNT(*) FROM entries").fetchone()
        finally:
            ro.close()
        assert n == 1

    def test_open_sweeps_orphan_partials(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        orphan = d / (DB_NAME + PARTIAL_SUFFIX)
        orphan.write_bytes(b"crashed build residue")
        (d / ("stray.bin" + PARTIAL_SUFFIX)).write_bytes(b"x")
        store = DirStore.open(d)  # default sweep=True
        assert store.list_partials() == []
        assert not orphan.exists()

    def test_open_can_skip_sweep(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / ("a" + PARTIAL_SUFFIX)).write_bytes(b"x")
        store = DirStore.open(d, sweep=False)
        assert store.list_partials() == ["a" + PARTIAL_SUFFIX]

    def test_remove_artifacts_only_ours(self, tmp_path):
        store = DirStore.open(tmp_path / "d")
        conn = store.stage_primary()
        conn.close()
        store.publish([])
        (store.index_dir / side_db_name("user", 7)).write_bytes(b"shard")
        keep = store.index_dir / "gufi_index.json"
        keep.write_text("{}")
        store.remove_artifacts()
        assert not store.db_path.exists()
        assert store.side_artifacts() == []
        assert keep.exists()  # not a layout artifact: untouched


# ----------------------------------------------------------------------
# Stamps
# ----------------------------------------------------------------------

class TestStamps:
    def test_file_stamp_missing_is_none(self, tmp_path):
        assert file_stamp(tmp_path / "nope") is None
        assert not stamp_matches(tmp_path / "nope", None)

    def test_stamp_matches_roundtrip(self, tmp_path):
        f = tmp_path / "f"
        f.write_bytes(b"abc")
        st = file_stamp(f)
        assert stamp_matches(f, st)
        f.write_bytes(b"abcd")  # size change flips the stamp
        assert not stamp_matches(f, st)

    def test_bracket(self, tmp_path):
        missing = StampBracket(tmp_path / "nope")
        assert missing.missing and not missing.unchanged()
        f = tmp_path / "f"
        f.write_bytes(b"abc")
        b = StampBracket(f)
        assert not b.missing and b.unchanged()
        f.write_bytes(b"wxyz")
        assert not b.unchanged()


# ----------------------------------------------------------------------
# Sizing consistency (the old db_file_bytes/table_bytes split)
# ----------------------------------------------------------------------

class TestSizing:
    def test_artifact_bytes_missing_is_zero(self, tmp_path):
        assert artifact_bytes(tmp_path / "nope") == 0

    def test_table_bytes_missing_backing_is_zero(self, tmp_path):
        """table_bytes and artifact_bytes agree on missing files: both
        report 0 instead of one raising and one guessing."""
        store = DirStore.open(tmp_path / "d")
        conn = store.create_primary()
        conn.close()
        main = sqlite3.connect(":memory:")
        try:
            main.execute(
                "ATTACH DATABASE ? AS gufi", (str(store.db_path),)
            )
            present = table_bytes(main, "gufi", {"summary"})
            assert present > 0
            main.execute("DETACH DATABASE gufi")
            store.db_path.unlink()
            empty = tmp_path / "d" / "empty.db"
            empty.touch()
            main.execute("ATTACH DATABASE ? AS gone", (str(empty),))
            assert table_bytes(main, "gone", {"summary"}) == 0
            assert table_bytes(main, "no_such_alias", {"summary"}) == 0
        finally:
            main.close()


# ----------------------------------------------------------------------
# Version stamping + doctor
# ----------------------------------------------------------------------

class TestVersionStamp:
    def test_new_dbs_carry_schema_version(self, tmp_path):
        store = DirStore.open(tmp_path / "d")
        conn = store.create_primary()
        try:
            assert schema.db_schema_version(conn) == schema.SCHEMA_VERSION
            assert schema.SCHEMA_VERSION > 0
        finally:
            conn.close()

    def test_every_built_dir_is_stamped(self, demo_tree, tmp_path):
        result = dir2index(
            demo_tree, tmp_path / "idx", opts=BuildOptions(nthreads=2)
        )
        index = result.index
        checked = 0
        for d in index.iter_index_dirs():
            conn = open_ro(Path(d) / DB_NAME)
            try:
                assert schema.db_schema_version(conn) == schema.SCHEMA_VERSION
            finally:
                conn.close()
            checked += 1
        assert checked == result.dirs_created


class TestDoctor:
    def test_healthy_index(self, demo_index):
        report = doctor(demo_index)
        assert report.healthy
        assert report.dirs_seen > 0
        assert report.versions == {schema.SCHEMA_VERSION: report.dirs_seen}
        assert report.dirs_outdated == 0
        assert report.missing_shards == []
        assert report.stale_partials == []

    def test_reports_stale_partials_and_missing_shards(self, demo_index):
        victim = demo_index.index_dir("/home/bob")
        (victim / (DB_NAME + PARTIAL_SUFFIX)).write_bytes(b"residue")
        conn = open_rw(victim / DB_NAME)
        try:
            conn.execute(
                "INSERT INTO xattrs_avail (filename, uid, gid, mode) "
                "VALUES (?, 4242, 4242, 384)",
                (side_db_name("user", 4242),),
            )
            conn.commit()
        finally:
            conn.close()
        report = doctor(demo_index)
        assert not report.healthy
        assert ("/home/bob", DB_NAME + PARTIAL_SUFFIX) in report.stale_partials
        assert ("/home/bob", side_db_name("user", 4242)) in report.missing_shards

    def test_reports_outdated_versions(self, demo_index):
        conn = open_rw(demo_index.db_path("/public"))
        try:
            conn.execute("PRAGMA user_version = 0")
            conn.commit()
        finally:
            conn.close()
        report = doctor(demo_index)
        assert report.dirs_outdated == 1
        assert report.versions.get(0) == 1
