"""The store layer's layout authority: the closed artifact set, commit
protocol, orphan GC, stamps, doctor, and the encapsulation lint that
keeps layout literals from leaking back out of ``repro.store``."""

from __future__ import annotations

import ast
import os
import re
import sqlite3
from pathlib import Path

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.store import connect, schema
from repro.store.doctor import doctor
from repro.store.connect import open_ro, open_rw, table_bytes
from repro.store.layout import (
    DB_NAME,
    PARTIAL_SUFFIX,
    DirStore,
    StampBracket,
    artifact_bytes,
    classify_artifact,
    file_stamp,
    is_side_artifact,
    side_db_name,
    stamp_matches,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


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


#: modules deleted when the store layer's importers finished moving
#: to ``repro.store``, and the sidecar that left when the artifact set
#: closed — nothing may import them again, however spelled
_DELETED_MODULES = ("repro.core.db", "repro.core.schema", "repro.store.fts")

#: query handles folded into ``QueryEngine``, the artifact registry
#: replaced by ``layout``'s constants, and a sink nothing used — not
#: to be re-created
_DELETED_NAMES = (
    "GUFIQuery",
    "QuerySession",
    "ArtifactKind",
    "register_artifact_kind",
    "AggregateDBSink",
)


def _linted_files() -> list[Path]:
    """Everything the bans cover: the package, the tests, the
    micro-benchmarks and the examples."""
    return sorted(
        [
            *SRC_ROOT.rglob("*.py"),
            *(REPO_ROOT / "tests").glob("*.py"),
            *(REPO_ROOT / "benchmarks").glob("bench_*.py"),
            *(REPO_ROOT / "examples").glob("*.py"),
        ]
    )


def _lint_id(path: Path) -> str:
    base = SRC_ROOT if SRC_ROOT in path.parents else REPO_ROOT
    return path.relative_to(base).as_posix()


def _deleted_imports_in(path: Path, package: str = "") -> list[int]:
    """Line numbers of imports of a deleted module, however spelled:
    ``from . import db``, ``from .schema import X``, ``from repro.core
    import db``, ``import repro.core.schema``. ``package`` is the
    importing file's package, for resolving relative imports."""
    hits: list[int] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            if any(alias.name in _DELETED_MODULES for alias in node.names):
                hits.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - (node.level - 1)]
                module = ".".join([*base, module]).rstrip(".")
            if module in _DELETED_MODULES or any(
                f"{module}.{alias.name}" in _DELETED_MODULES
                for alias in node.names
            ):
                hits.append(node.lineno)
    return hits


def _deleted_names_in(path: Path) -> list[int]:
    """Line numbers where a deleted handle's name is imported, bound,
    referenced or defined (strings and comments may still mention it)."""
    hits: list[int] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names: list[str] = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for a in node.names for n in (a.name, a.asname) if n]
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names = [node.name]
        if any(name in _DELETED_NAMES for name in names):
            hits.append(node.lineno)
    return hits


#: the per-directory step of every walk — strings only (five ``Path``
#: objects per directory once cost more than listing the directory)
#: — and of every result-cache hit and capture, whose validity token
#: is two stats per recorded directory and nothing else (a method is
#: named ``Class.method`` where the bare name is not unique)
_HOT_FUNCTIONS = (
    "process_dir",
    "cached_subdir_names",
    "ResultCache._validate",
    "ResultCache.store",
)

#: calls that build a ``Path``/``DirStore``: the constructor itself and
#: the ``GUFIIndex`` helpers that return one
_PATH_BUILDERS = ("Path", "index_dir", "store", "db_path")


def _hot_functions(path: Path) -> list[ast.FunctionDef]:
    found: list[ast.FunctionDef] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and node.name in _HOT_FUNCTIONS:
            found.append(node)
        elif isinstance(node, ast.ClassDef):
            found += [
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and f"{node.name}.{item.name}" in _HOT_FUNCTIONS
            ]
    return found


def _path_calls_on_hot_path(path: Path) -> list[tuple[int, str]]:
    hits: list[tuple[int, str]] = []
    for func in _hot_functions(path):
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "attr", getattr(callee, "id", None))
                if name in _PATH_BUILDERS:
                    hits.append((node.lineno, name))
    return hits


#: the only modules that may set a database's page size — the
#: template builder and the migration's staging — and the baseline
#: that is not a GUFI index
_PAGE_SIZE_SETTERS = ("store/connect.py", "store/migrate.py")
_PAGE_SIZE_EXEMPT = ("baselines/brindexer.py",)
_SETS_PAGE_SIZE = re.compile(r"pragma\s+page_size\s*=", re.IGNORECASE)


def _page_size_settings(path: Path) -> list[tuple[int, bool]]:
    """``(line, from schema.PAGE_SIZE?)`` for every string in the file
    that sets ``PRAGMA page_size``: the one accepted spelling is an
    f-string whose value is ``schema.PAGE_SIZE``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = _docstring_nodes(tree)
    hits: list[tuple[int, bool]] = []
    in_fstring: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.JoinedStr):
            continue
        in_fstring.update(id(part) for part in node.values)
        for part, value in zip(node.values, [*node.values[1:], None]):
            if isinstance(part, ast.Constant) and _SETS_PAGE_SIZE.search(
                str(part.value)
            ):
                expr = getattr(value, "value", None)
                hits.append((
                    node.lineno,
                    str(part.value).rstrip().endswith("=")
                    and isinstance(expr, ast.Attribute)
                    and expr.attr == "PAGE_SIZE"
                    and getattr(expr.value, "id", None) == "schema",
                ))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in in_fstring
            and id(node) not in docstrings
            and _SETS_PAGE_SIZE.search(node.value)
        ):
            hits.append((node.lineno, False))
    return hits


#: view text lives in one function: a second copy would be a second
#: answer to "which views does a rolled-up database carry"
_VIEW_DDL_HOME = ("store/schema.py", "view_ddl")
_CREATES_VIEW = re.compile(
    r"create\s+(?:temp(?:orary)?\s+)?view\s+(?:if\s+not\s+exists\s+)?"
    r"(?:\w+\.)?(?:vr)?pentries\b",
    re.IGNORECASE,
)


def _view_ddl_sites(path: Path) -> list[tuple[int, str | None]]:
    """``(line, enclosing function)`` of every string outside a
    docstring that creates a ``pentries`` / ``vrpentries`` view."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = _docstring_nodes(tree)
    owner: dict[int, str] = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                owner.setdefault(id(node), func.name)
    return [
        (node.lineno, owner.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
        and _CREATES_VIEW.search(node.value)
    ]


class TestEncapsulationLint:
    def test_view_text_has_one_home(self, tmp_path):
        home, func = _VIEW_DDL_HOME
        for path in sorted(SRC_ROOT.rglob("*.py")):
            sites = _view_ddl_sites(path)
            if path.relative_to(SRC_ROOT).as_posix() == home:
                assert sites and {f for _line, f in sites} == {func}, sites
            else:
                assert not sites, (path, sites)
        bad = tmp_path / "bad.py"
        for line, found in (
            ('c.execute("CREATE VIEW pentries AS SELECT 1")', True),
            ('c.execute("create view if not exists vrpentries as select 1")', True),
            ('c.execute("CREATE VIEW main.vrpentries AS " "SELECT 1")', True),
            ('c.execute("CREATE TEMP VIEW xpentries AS SELECT 1")', False),
            ('c.execute("DROP VIEW IF EXISTS pentries")', False),
        ):
            bad.write_text(line + "\n", encoding="utf-8")
            assert bool(_view_ddl_sites(bad)) == found, line

    def test_page_size_is_set_from_the_schema_constant(self, tmp_path):
        setters = 0
        for path in sorted(SRC_ROOT.rglob("*.py")):
            rel = path.relative_to(SRC_ROOT).as_posix()
            if rel in _PAGE_SIZE_EXEMPT:
                continue
            found = _page_size_settings(path)
            if rel in _PAGE_SIZE_SETTERS:
                assert found and all(ok for _line, ok in found), (rel, found)
                setters += 1
            else:
                assert not found, (rel, found)
        assert setters == len(_PAGE_SIZE_SETTERS)
        bad = tmp_path / "bad.py"
        for line, ok in (
            ('c.execute("PRAGMA page_size = 1024")', False),
            ('c.execute(f"PRAGMA page_size = {n}")', False),
            ('c.execute(f"pragma page_size={other.PAGE_SIZE}")', False),
            ('c.execute(f"PRAGMA page_size = {schema.PAGE_SIZE}")', True),
        ):
            bad.write_text(line + "\n", encoding="utf-8")
            assert [hit[1] for hit in _page_size_settings(bad)] == [ok], line
        bad.write_text('n = c.execute("PRAGMA page_size").fetchone()\n')
        assert not _page_size_settings(bad)  # reading it is anyone's

    def test_no_path_objects_on_the_per_directory_step(self, tmp_path):
        seen = 0
        for path in sorted(SRC_ROOT.rglob("*.py")):
            seen += len(_hot_functions(path))
            assert not _path_calls_on_hot_path(path), path
        assert seen == len(_HOT_FUNCTIONS)  # the lint found its targets
        bad = tmp_path / "bad.py"
        for line in (
            "d = Path(root) / source_path",
            "d = index.index_dir(source_path)",
            "db = index.store(source_path).db_path",
            "db = self.db_path(source_path)",
        ):
            bad.write_text(
                f"def run():\n    def process_dir(unit):\n        {line}\n",
                encoding="utf-8",
            )
            assert _path_calls_on_hot_path(bad), line
            bad.write_text(
                f"class ResultCache:\n    def store(self):\n        {line}\n",
                encoding="utf-8",
            )
            assert _path_calls_on_hot_path(bad), line
        # the same method name on another class is not the hot one
        bad.write_text(
            "def elsewhere():\n    return Path('x')\n"
            "class GUFIIndex:\n    def store(self):\n        return Path('x')\n"
        )
        assert not _path_calls_on_hot_path(bad)

    @pytest.mark.parametrize("path", _linted_files(), ids=_lint_id)
    def test_migrated_modules_do_not_import_the_shims(self, path):
        package = ""
        if SRC_ROOT in path.parents:
            package = ".".join(path.relative_to(SRC_ROOT.parent).parent.parts)
        assert not _deleted_imports_in(path, package), (
            f"{path} imports a deleted module: {_DELETED_MODULES}"
        )
        assert not _deleted_names_in(path), (
            f"{path} names a deleted class or function: {_DELETED_NAMES}"
        )

    def test_shims_are_gone(self):
        for module in _DELETED_MODULES:
            assert not (SRC_ROOT.parent / (module.replace(".", "/") + ".py")).exists()

    def test_shim_lint_actually_detects(self, tmp_path):
        bad = tmp_path / "bad.py"
        for package, line in (
            ("repro.core", "from . import db as dbmod"),
            ("repro.core", "from . import schema"),
            ("repro.core", "from .schema import RECTYPE_OVERALL"),
            ("repro.core.engine", "from .. import db as dbmod"),
            ("repro.core.engine", "from ..schema import DB_NAME"),
            ("", "from repro.core import db"),
            ("", "import repro.core.schema"),
            ("repro.store", "from .fts import FTS_KIND"),
            ("", "from repro.store import fts"),
        ):
            bad.write_text(line + "\n", encoding="utf-8")
            assert _deleted_imports_in(bad, package), line
        bad.write_text(
            "from repro.store import schema\nfrom .index import GUFIIndex\n",
            encoding="utf-8",
        )
        assert not _deleted_imports_in(bad, "repro.core")
        for line in (
            "from repro.core import GUFIQuery",
            "from repro.core.engine import QueryEngine as GUFIQuery",
            "q = core.QuerySession(index)",
            "class QuerySession: pass",
            "from repro.store.layout import ArtifactKind",
            "layout.register_artifact_kind(kind)",
            "sink = engine.AggregateDBSink(path)",
        ):
            bad.write_text(line + "\n", encoding="utf-8")
            assert _deleted_names_in(bad), line
        bad.write_text('"""Was GUFIQuery once."""\n', encoding="utf-8")
        assert not _deleted_names_in(bad)

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
# Stored DDL: compact in new databases, verbatim in old ones
# ----------------------------------------------------------------------

def _verbatim_template(tmp_path: Path) -> bytes:
    """An empty primary database as the first v1 builds wrote it,
    before the DDL was stored compact: the DDL executed verbatim,
    comments and all, an empty ``tsummary`` included."""
    path = tmp_path / "verbatim_template.db"
    conn = sqlite3.connect(path, isolation_level=None)
    conn.execute("PRAGMA page_size = 1024")
    conn.execute("PRAGMA journal_mode = MEMORY")
    conn.executescript(";".join((*schema.ALL_DDL, schema.CREATE_TSUMMARY)))
    schema.stamp_schema_version(conn, 1)
    conn.close()
    return path.read_bytes()


def _stored_ddl(db_path: Path) -> list[str]:
    conn = open_ro(db_path)
    try:
        return [sql for (sql,) in conn.execute("SELECT sql FROM sqlite_master")]
    finally:
        conn.close()


class TestStoredDdl:
    def test_template_stores_no_comments_or_layout_whitespace(self, tmp_path):
        for create in (connect.create_db, connect.create_side_db):
            create(tmp_path / "t.db", fresh=True).close()
            for sql in _stored_ddl(tmp_path / "t.db"):
                assert "--" not in sql and sql == " ".join(sql.split())

    def test_compaction_keeps_the_schema(self, tmp_path):
        """Same tables, columns and views as the source DDL — all but
        ``tsummary``, which ``bfti`` creates — with every ``INTEGER``
        stored as ``INT`` (the same affinity)."""
        def shape(path):
            conn = open_ro(path)
            try:
                objects = conn.execute(
                    "SELECT type, name FROM sqlite_master "
                    "WHERE name <> 'tsummary' ORDER BY name"
                ).fetchall()
                columns = {
                    name: [
                        (*col[:2], col[2].replace("INTEGER", "INT"), *col[3:])
                        for col in conn.execute(f"PRAGMA table_xinfo({name})")
                    ]
                    for _type, name in objects
                }
                return objects, columns
            finally:
                conn.close()

        (tmp_path / "old.db").write_bytes(_verbatim_template(tmp_path))
        connect.create_db(tmp_path / "new.db", fresh=True).close()
        assert shape(tmp_path / "new.db") == shape(tmp_path / "old.db")
        assert "INTEGER" not in "".join(_stored_ddl(tmp_path / "new.db"))
        assert ("table", "tsummary") not in shape(tmp_path / "new.db")[0]

    def test_pre_compaction_index_answers_identically(self, tmp_path, monkeypatch):
        """An index built before the DDL was stored compact (verbatim
        DDL on disk, format v1) answers every query with the same rows;
        all ``index doctor`` has to say is that it wants migrating."""
        from repro.core.engine import QueryEngine
        from repro.core.query import Q1_LIST_PATHS, Q2_DIR_SIZES, Q3_DU_SUMMARIES
        from repro.core.rollup import rollup
        from repro.fs.permissions import ROOT
        from tests.conftest import ALICE, NTHREADS, build_demo_tree

        opts = BuildOptions(nthreads=NTHREADS)
        new = dir2index(build_demo_tree(), tmp_path / "new", opts=opts).index
        monkeypatch.setitem(
            connect._templates, "full", _verbatim_template(tmp_path)
        )
        old = dir2index(build_demo_tree(), tmp_path / "old", opts=opts).index
        monkeypatch.undo()
        assert "-- 0 overall" in "".join(_stored_ddl(old.db_path("/home")))
        assert "--" not in "".join(_stored_ddl(new.db_path("/home")))
        assert old.total_db_bytes() > new.total_db_bytes()

        for rolled in (False, True):
            if rolled:
                rollup(old, nthreads=NTHREADS)
                rollup(new, nthreads=NTHREADS)
            for creds in (ROOT, ALICE):
                for spec in (Q1_LIST_PATHS, Q2_DIR_SIZES, Q3_DU_SUMMARIES):
                    rows = [
                        sorted(QueryEngine(i, creds=creds, nthreads=NTHREADS)
                               .run(spec).rows)
                        for i in (old, new)
                    ]
                    assert rows[0] == rows[1] and rows[0], (rolled, creds)
            assert doctor(new).healthy
            report = doctor(old)
            assert report.versions == {1: report.dirs_seen}
            assert report.dirs_outdated == report.dirs_seen
            assert not (
                report.missing_shards or report.stale_partials or report.errors
            )


# ----------------------------------------------------------------------
# The closed artifact set
# ----------------------------------------------------------------------

#: file name → kind, for everything a directory may hold and a few
#: things it may not
_CLASSIFICATION = (
    (DB_NAME, "primary"),
    (side_db_name("user", 1001), "xattr_user"),
    (side_db_name("group_r", 100), "xattr_group_r"),
    (side_db_name("group_nr", 100), "xattr_group_nr"),
    ("gufi_index.json", None),
    ("stray.txt", None),
    # what ``trace2index --fts-names`` once left beside the database
    ("names.fts", None),
    # near misses: a pattern must match the whole name
    ("xattrs.db.u12x", None),
    ("x" + DB_NAME, None),
    (side_db_name("group_r", 100) + "r", None),
)


class TestArtifactRegistry:
    def test_classify(self):
        for name, kind in _CLASSIFICATION:
            assert classify_artifact(name) == kind, name
            # staged names classify as their final kind
            assert classify_artifact(name + PARTIAL_SUFFIX) == kind, name

    def test_is_side_artifact(self):
        for name, kind in _CLASSIFICATION:
            expected = kind is not None and kind != "primary"
            assert is_side_artifact(name) == expected, name

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            side_db_name("bogus", 1)


class TestLeftoverSidecar:
    def test_index_with_stray_names_fts_is_an_ordinary_index(self, tmp_path):
        """An index ``trace2index --fts-names`` built before the sidecar
        left holds a ``names.fts`` beside every ``db.db``. It is a
        stray file now: same rows, healthy doctor, nothing to migrate,
        not counted, and a rebuild of its directory publishes as ever.
        (The bytes are not a database: any reader that opened the file
        would fail.)"""
        from repro.core.engine import QueryEngine
        from repro.core.query import Q1_LIST_PATHS, Q2_DIR_SIZES, Q3_DU_SUMMARIES
        from repro.core.update import update_directory
        from repro.fs.permissions import ROOT
        from repro.store.migrate import migrate_index
        from tests.conftest import ALICE, NTHREADS, build_demo_tree

        opts = BuildOptions(nthreads=NTHREADS)
        tree = build_demo_tree()
        clean = dir2index(build_demo_tree(), tmp_path / "clean", opts=opts).index
        index = dir2index(tree, tmp_path / "idx", opts=opts).index
        strays = [Path(d) / "names.fts" for d in index.iter_index_dirs()]
        for stray in strays:
            stray.write_bytes(b"not a database: a leftover sidecar")

        def rows(i):
            return [
                sorted(QueryEngine(i, creds=creds, nthreads=NTHREADS)
                       .run(spec).rows)
                for creds in (ROOT, ALICE)
                for spec in (Q1_LIST_PATHS, Q2_DIR_SIZES, Q3_DU_SUMMARIES)
            ]

        expected = rows(clean)
        assert rows(index) == expected and all(expected)
        report = doctor(index)
        assert report.healthy and report.side_dbs == doctor(clean).side_dbs
        migrated = migrate_index(index)
        assert migrated.ok and migrated.dirs_migrated == 0
        assert migrated.steps_applied == migrated.side_dbs_migrated == 0
        assert index.total_db_bytes() == clean.total_db_bytes()

        tree.create_file("/home/bob/new.txt", size=7, mode=0o644, uid=1002, gid=1002)
        inode = os.stat(index.db_path("/home/bob")).st_ino
        update_directory(index, tree, "/home/bob", opts=opts)
        assert os.stat(index.db_path("/home/bob")).st_ino != inode
        assert DirStore(index.index_dir("/home/bob")).list_partials() == []
        with QueryEngine(index, creds=ROOT, nthreads=NTHREADS) as q:
            assert ("/home/bob/new.txt",) in q.run(Q1_LIST_PATHS).rows
        # no publish removes what it cannot classify
        assert all(stray.exists() for stray in strays)


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

    def test_republish_replaces_in_place_and_drops_the_old_set(self, tmp_path):
        """A rebuild publishes over the previous database — at no point
        is there none — and only then unlinks what the new set does not
        name: old shards, old staging residue; nothing that is not a
        layout artifact."""
        store = DirStore.open(tmp_path / "d")
        old_shard, new_shard = side_db_name("user", 7), side_db_name("user", 8)
        store.stage_primary().close()
        store.partial_path(old_shard).write_bytes(b"old shard")
        store.publish([old_shard])
        assert store.side_artifacts() == [old_shard]
        inode = os.stat(store.db_path).st_ino
        (store.index_dir / "sub").mkdir()
        keep = store.index_dir / "gufi_index.json"
        keep.write_text("{}")
        store.stage_primary().close()
        store.partial_path(new_shard).write_bytes(b"new shard")
        store.partial_path("stray.bin").write_bytes(b"residue")
        assert os.stat(store.db_path).st_ino == inode  # still the old one
        store.publish([new_shard])
        assert os.stat(store.db_path).st_ino != inode  # every stamp moves
        assert store.side_artifacts() == [new_shard]
        assert store.list_partials() == []
        assert keep.exists() and (store.index_dir / "sub").is_dir()

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

    def test_reports_view_form_mismatches(self, demo_index):
        """A database must carry the views of what it is: planted, each
        wrong pairing is named; a pre-v3 un-rolled database with the
        join view is only outdated."""
        from repro.core.rollup import rollup

        rollup(demo_index, nthreads=2)
        assert doctor(demo_index).healthy
        rolled = [
            demo_index.source_path(d)
            for d in demo_index.iter_index_dirs()
            if demo_index.dir_meta(demo_index.source_path(d)).rolledup
        ]
        flat = next(
            demo_index.source_path(d)
            for d in demo_index.iter_index_dirs()
            if demo_index.source_path(d) not in rolled
        )
        assert len(rolled) >= 2

        def edit(sp, *statements):
            conn = open_rw(demo_index.db_path(sp))
            try:
                for sql in statements:
                    conn.execute(sql)
            finally:
                conn.close()

        single, join = schema.view_ddl(False)[-1], schema.view_ddl(True)[-1]
        edit(rolled[0], "DROP VIEW vrpentries", single)
        edit(flat, "DROP VIEW vrpentries", join)
        edit(rolled[1], "UPDATE summary SET rolledup = 0 WHERE isroot = 1")
        report = doctor(demo_index)
        assert not report.healthy
        assert dict(report.view_mismatches) == {
            rolled[0]: "rolled-up database carries the single-directory vrpentries",
            flat: "un-rolled database carries the join-form vrpentries",
            rolled[1]: "rolledup = 0 but pentries is a table",
        }
        # before v3 the join form was every database's
        edit(flat, "PRAGMA user_version = 2")
        report = doctor(demo_index)
        assert flat not in dict(report.view_mismatches)
        assert report.dirs_outdated == 1

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
