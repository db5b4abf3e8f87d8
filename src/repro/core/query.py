"""The paper's macro-benchmark queries as ready-made specs.

A query descends the index breadth-first with a thread pool — each
directory's database processed by one thread — executing user SQL at
up to six points, mirroring ``gufi_query``'s flags (paper §III-C2):

* ``I`` — run once per worker thread against its private result
  database (create scratch tables);
* ``T`` — run against a directory's ``tsummary`` table; when tsummary
  rows exist the whole subtree is already summarised, so descent is
  pruned (this is Fig 10's 230× query 4);
* ``S`` — run against the directory's ``summary`` table;
* ``E`` — run against ``entries``/``pentries`` (and the xattr views
  when enabled);
* ``J`` — run once per thread database to merge its results into the
  shared aggregate database;
* ``G`` — run once against the aggregate database to produce the
  final rows.

Execution — permission gating, planning, sessions, sinks — is
:class:`repro.core.engine.QueryEngine`; the spec and result types are
re-exported here for the tools built on it.
"""

from __future__ import annotations

from .engine import QueryPermissionError, QueryResult, QuerySpec, spec_label
from .sqlfuncs import RPATH_SQL

__all__ = [
    "QueryPermissionError",
    "QueryResult",
    "QuerySpec",
    "spec_label",
    "Q1_LIST_NAMES",
    "Q1_LIST_PATHS",
    "Q2_DIR_SIZES",
    "Q3_DU_SUMMARIES",
    "Q4_DU_TSUMMARY",
]

# ----------------------------------------------------------------------
# The paper's four macro-benchmark queries (§IV-D / appendix), as specs.
# ----------------------------------------------------------------------

#: Query 1: list all file names accessible by the user (the paper's
#: exact SQL; names only).
Q1_LIST_NAMES = QuerySpec(E="SELECT name FROM pentries")

#: Query 1 variant returning full paths, rollup-invariant thanks to
#: the vrpentries summary join (GUFI's rpath machinery, built in SQL:
#: :data:`~repro.core.sqlfuncs.RPATH_SQL`).
Q1_LIST_PATHS = QuerySpec(E=f"SELECT {RPATH_SQL} FROM vrpentries")

#: Query 2: print size and name of every accessible directory.
#: spath() reconstructs each directory's path whether the row is the
#: database's own record or one rolled in from a sub-directory.
Q2_DIR_SIZES = QuerySpec(S="SELECT spath(name, isroot), size FROM summary")

#: Query 3: space used, computed by aggregating per-directory
#: summaries and entries across the traversal (the multi-database way).
Q3_DU_SUMMARIES = QuerySpec(
    I="CREATE TABLE sizes (total_size INTEGER)",
    S="INSERT INTO sizes SELECT TOTAL(size) FROM summary",
    E="INSERT INTO sizes SELECT TOTAL(size) FROM pentries",
    J="INSERT INTO aggregate.sizes SELECT TOTAL(total_size) FROM sizes",
    G="SELECT TOTAL(total_size) FROM sizes",
)

#: Query 4: space used, answered from the tree-summary table — a
#: single row read when a tsummary exists at the query root.
Q4_DU_TSUMMARY = QuerySpec(T="SELECT totsize FROM tsummary WHERE rectype = 0")
