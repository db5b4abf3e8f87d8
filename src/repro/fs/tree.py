"""In-memory POSIX file-system tree (the "source file system").

This is the substrate standing in for the NFS/Lustre/HPSS namespaces
GUFI scans in the paper. It models exactly what metadata indexing
consumes: a hierarchical namespace of directories, files, and
symlinks, each with full POSIX ownership/mode/timestamps and extended
attributes, with permission checks applied per-credential on every
operation.

The tree is thread-safe (a single reader-friendly lock; operations are
short) so the parallel breadth-first scanners in :mod:`repro.scan` can
walk it concurrently, as GUFI's threaded walkers do against real file
systems.
"""

from __future__ import annotations

import posixpath
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .errors import (
    AlreadyExists,
    InvalidArgument,
    IsADirectory,
    NoSuchAttr,
    NoSuchEntry,
    NotADirectory,
    NotEmpty,
    PermissionDenied,
    TooManyLinks,
)
from .inode import FileType, Inode, InodeAllocator, StatResult
from .permissions import (
    ROOT,
    Credentials,
    can_read_dir,
    can_read_entry,
    can_search_dir,
    can_write_entry,
)

MAX_SYMLINK_DEPTH = 40  # Linux's ELOOP limit


@dataclass
class DirEntry:
    """A (name, inode) pair as returned by :meth:`VFSTree.readdir`."""

    name: str
    ino: int
    ftype: FileType


class _Node:
    """Internal tree node: an inode plus (for directories) children."""

    __slots__ = ("inode", "children", "parent")

    def __init__(self, inode: Inode, parent: "_Node | None"):
        self.inode = inode
        self.parent = parent
        self.children: dict[str, _Node] | None = (
            {} if inode.ftype is FileType.DIRECTORY else None
        )


class VFSTree:
    """A simulated POSIX namespace rooted at ``/``.

    All mutating and credential-checked operations take a
    :class:`Credentials`; the privileged scanner interface
    (:meth:`walk`, :meth:`stat_ino`) uses root credentials, matching
    the paper's privileged source-tree scans.
    """

    def __init__(self, root_mode: int = 0o755, root_uid: int = 0, root_gid: int = 0):
        self._alloc = InodeAllocator()
        self._clock = 0
        self._lock = threading.RLock()
        root_inode = Inode(
            ino=self._alloc.allocate(),
            ftype=FileType.DIRECTORY,
            mode=root_mode,
            uid=root_uid,
            gid=root_gid,
        )
        self._root = _Node(root_inode, parent=None)
        self._nfiles = 0
        self._ndirs = 1
        self._nsymlinks = 0
        #: optional FaultPlan-shaped object (see repro.scan.faults)
        #: firing "vfs.readdir"/"vfs.get_inode" — lets tests make
        #: source-tree reads fail deterministically, like a flaky NFS
        self._faults = None
        #: optional ChangeJournal (see repro.fs.changelog) receiving
        #: one event per successful namespace mutation, emitted under
        #: the tree lock so journal order == mutation order
        self._changelog = None

    def set_fault_plan(self, plan) -> None:
        """Attach a deterministic fault plan to this tree's read
        operations (``None`` detaches). Duck-typed: anything with
        ``fire(site, key)`` works."""
        self._faults = plan

    def set_changelog(self, journal) -> None:
        """Attach a change journal recording every namespace mutation
        (``None`` detaches). Duck-typed: anything with
        ``emit(op, path, ino, ftype, dst_path=None)`` works."""
        self._changelog = journal

    def _node_path(self, node: _Node) -> str:
        """Canonical (symlink-free) absolute path of an attached node,
        reconstructed through parent pointers. Called under the lock."""
        parts: list[str] = []
        while node.parent is not None:
            parent = node.parent
            assert parent.children is not None
            for name, child in parent.children.items():
                if child is node:
                    parts.append(name)
                    break
            else:  # pragma: no cover - would mean a corrupted tree
                raise RuntimeError("node detached from tree")
            node = parent
        return "/" + "/".join(reversed(parts))

    def _emit(
        self,
        op: str,
        path: str,
        inode: Inode,
        dst_path: str | None = None,
    ) -> None:
        if self._changelog is not None:
            self._changelog.emit(
                op, path, inode.ino, inode.ftype.value, dst_path=dst_path
            )

    # ------------------------------------------------------------------
    # Counters / time
    # ------------------------------------------------------------------
    @property
    def num_dirs(self) -> int:
        return self._ndirs

    @property
    def num_files(self) -> int:
        return self._nfiles

    @property
    def num_symlinks(self) -> int:
        return self._nsymlinks

    def _now(self) -> int:
        """Logical timestamp: a monotone counter, so generated trees
        are deterministic regardless of wall-clock."""
        self._clock += 1
        return self._clock

    def set_time(self, value: int) -> None:
        """Advance the logical clock (e.g. to age entries for purge-
        policy examples). Only moves forward."""
        with self._lock:
            self._clock = max(self._clock, value)

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------
    @staticmethod
    def _split(path: str) -> list[str]:
        norm = posixpath.normpath(path)
        if not norm.startswith("/"):
            raise InvalidArgument(path, "paths must be absolute")
        return [p for p in norm.split("/") if p]

    def _resolve(
        self,
        path: str,
        creds: Credentials,
        *,
        follow: bool = True,
        _depth: int = 0,
    ) -> _Node:
        """Walk ``path`` from the root, enforcing search permission on
        every directory component, following symlinks if ``follow``."""
        if _depth > MAX_SYMLINK_DEPTH:
            raise TooManyLinks(path)
        node = self._root
        parts = self._split(path)
        for i, part in enumerate(parts):
            inode = node.inode
            if inode.ftype is not FileType.DIRECTORY:
                raise NotADirectory("/" + "/".join(parts[:i]))
            if not can_search_dir(inode.mode, inode.uid, inode.gid, creds):
                raise PermissionDenied("/" + "/".join(parts[:i]))
            assert node.children is not None
            child = node.children.get(part)
            if child is None:
                raise NoSuchEntry("/" + "/".join(parts[: i + 1]))
            if child.inode.ftype is FileType.SYMLINK:
                is_last = i == len(parts) - 1
                if is_last and not follow:
                    return child
                target = child.inode.symlink_target
                assert target is not None
                rest = "/".join(parts[i + 1 :])
                if not target.startswith("/"):
                    target = "/" + "/".join(parts[:i] + [target])
                full = target if not rest else posixpath.join(target, rest)
                return self._resolve(full, creds, follow=follow, _depth=_depth + 1)
            node = child
        return node

    def _resolve_parent(
        self, path: str, creds: Credentials
    ) -> tuple[_Node, str]:
        parts = self._split(path)
        if not parts:
            raise InvalidArgument(path, "cannot operate on /")
        parent_path = "/" + "/".join(parts[:-1])
        parent = self._resolve(parent_path, creds, follow=True)
        if parent.inode.ftype is not FileType.DIRECTORY:
            raise NotADirectory(parent_path)
        return parent, parts[-1]

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    def _insert(
        self,
        path: str,
        creds: Credentials,
        inode_factory: Callable[[int, int], Inode],
    ) -> Inode:
        with self._lock:
            parent, name = self._resolve_parent(path, creds)
            p_inode = parent.inode
            if not can_search_dir(p_inode.mode, p_inode.uid, p_inode.gid, creds):
                raise PermissionDenied(path)
            if not can_write_entry(p_inode.mode, p_inode.uid, p_inode.gid, creds):
                raise PermissionDenied(path)
            assert parent.children is not None
            if name in parent.children:
                raise AlreadyExists(path)
            now = self._now()
            inode = inode_factory(self._alloc.allocate(), now)
            node = _Node(inode, parent)
            parent.children[name] = node
            p_inode.mtime = p_inode.ctime = now
            if inode.ftype is FileType.DIRECTORY:
                p_inode.nlink += 1
                self._ndirs += 1
            elif inode.ftype is FileType.FILE:
                self._nfiles += 1
            else:
                self._nsymlinks += 1
            self._emit(
                "create", posixpath.join(self._node_path(parent), name), inode
            )
            return inode

    def mkdir(
        self,
        path: str,
        mode: int = 0o755,
        creds: Credentials = ROOT,
        uid: int | None = None,
        gid: int | None = None,
    ) -> Inode:
        """Create a directory. ``uid``/``gid`` override the creating
        credentials (privileged restore semantics, like tar as root)."""
        return self._insert(
            path,
            creds,
            lambda ino, now: Inode(
                ino=ino,
                ftype=FileType.DIRECTORY,
                mode=mode,
                uid=creds.uid if uid is None else uid,
                gid=creds.gid if gid is None else gid,
                atime=now,
                mtime=now,
                ctime=now,
            ),
        )

    def makedirs(
        self,
        path: str,
        mode: int = 0o755,
        creds: Credentials = ROOT,
        uid: int | None = None,
        gid: int | None = None,
    ) -> None:
        """``mkdir -p``: create all missing components."""
        parts = self._split(path)
        cur = ""
        for part in parts:
            cur = f"{cur}/{part}"
            try:
                self.mkdir(cur, mode=mode, creds=creds, uid=uid, gid=gid)
            except AlreadyExists:
                continue

    def create_file(
        self,
        path: str,
        size: int = 0,
        mode: int = 0o644,
        creds: Credentials = ROOT,
        uid: int | None = None,
        gid: int | None = None,
        mtime: int | None = None,
    ) -> Inode:
        """Create a regular file of ``size`` logical bytes. Content is
        never stored — metadata indexing needs only the size."""

        def factory(ino: int, now: int) -> Inode:
            ts = now if mtime is None else mtime
            return Inode(
                ino=ino,
                ftype=FileType.FILE,
                mode=mode,
                uid=creds.uid if uid is None else uid,
                gid=creds.gid if gid is None else gid,
                size=size,
                atime=ts,
                mtime=ts,
                ctime=ts,
            )

        return self._insert(path, creds, factory)

    def symlink(
        self,
        path: str,
        target: str,
        creds: Credentials = ROOT,
        uid: int | None = None,
        gid: int | None = None,
    ) -> Inode:
        """Create a symbolic link at ``path`` pointing to ``target``."""
        return self._insert(
            path,
            creds,
            lambda ino, now: Inode(
                ino=ino,
                ftype=FileType.SYMLINK,
                mode=0o777,
                uid=creds.uid if uid is None else uid,
                gid=creds.gid if gid is None else gid,
                symlink_target=target,
                atime=now,
                mtime=now,
                ctime=now,
            ),
        )

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------
    def unlink(self, path: str, creds: Credentials = ROOT) -> None:
        """Remove a file or symlink."""
        with self._lock:
            parent, name = self._resolve_parent(path, creds)
            p = parent.inode
            if not (
                can_search_dir(p.mode, p.uid, p.gid, creds)
                and can_write_entry(p.mode, p.uid, p.gid, creds)
            ):
                raise PermissionDenied(path)
            assert parent.children is not None
            node = parent.children.get(name)
            if node is None:
                raise NoSuchEntry(path)
            if node.inode.ftype is FileType.DIRECTORY:
                raise IsADirectory(path)
            canon = posixpath.join(self._node_path(parent), name)
            del parent.children[name]
            p.mtime = p.ctime = self._now()
            if node.inode.ftype is FileType.FILE:
                self._nfiles -= 1
            else:
                self._nsymlinks -= 1
            self._emit("unlink", canon, node.inode)

    def rmdir(self, path: str, creds: Credentials = ROOT) -> None:
        """Remove an empty directory."""
        with self._lock:
            parent, name = self._resolve_parent(path, creds)
            p = parent.inode
            if not (
                can_search_dir(p.mode, p.uid, p.gid, creds)
                and can_write_entry(p.mode, p.uid, p.gid, creds)
            ):
                raise PermissionDenied(path)
            assert parent.children is not None
            node = parent.children.get(name)
            if node is None:
                raise NoSuchEntry(path)
            if node.inode.ftype is not FileType.DIRECTORY:
                raise NotADirectory(path)
            assert node.children is not None
            if node.children:
                raise NotEmpty(path)
            canon = posixpath.join(self._node_path(parent), name)
            del parent.children[name]
            p.nlink -= 1
            p.mtime = p.ctime = self._now()
            self._ndirs -= 1
            self._emit("rmdir", canon, node.inode)

    def rename(
        self, old: str, new: str, creds: Credentials = ROOT
    ) -> None:
        """``rename(2)``: move an entry (file, symlink, or directory
        subtree) to a new path. Requires write+search on both parent
        directories; refuses to replace an existing destination (the
        overwrite flavours are not needed by the indexing workloads)."""
        with self._lock:
            src_parent, src_name = self._resolve_parent(old, creds)
            dst_parent, dst_name = self._resolve_parent(new, creds)
            for parent, path in ((src_parent, old), (dst_parent, new)):
                p = parent.inode
                if not (
                    can_search_dir(p.mode, p.uid, p.gid, creds)
                    and can_write_entry(p.mode, p.uid, p.gid, creds)
                ):
                    raise PermissionDenied(path)
            assert src_parent.children is not None
            assert dst_parent.children is not None
            node = src_parent.children.get(src_name)
            if node is None:
                raise NoSuchEntry(old)
            if dst_name in dst_parent.children:
                raise AlreadyExists(new)
            # moving a directory into its own subtree would orphan it
            if node.inode.ftype is FileType.DIRECTORY:
                probe = dst_parent
                while probe is not None:
                    if probe is node:
                        raise InvalidArgument(new, "destination inside source")
                    probe = probe.parent
            canon_old = posixpath.join(self._node_path(src_parent), src_name)
            del src_parent.children[src_name]
            dst_parent.children[dst_name] = node
            node.parent = dst_parent
            now = self._now()
            if node.inode.ftype is FileType.DIRECTORY:
                src_parent.inode.nlink -= 1
                dst_parent.inode.nlink += 1
            src_parent.inode.mtime = src_parent.inode.ctime = now
            dst_parent.inode.mtime = dst_parent.inode.ctime = now
            node.inode.ctime = now
            canon_new = posixpath.join(self._node_path(dst_parent), dst_name)
            self._emit("rename", canon_old, node.inode, dst_path=canon_new)

    # ------------------------------------------------------------------
    # Metadata access
    # ------------------------------------------------------------------
    def stat(self, path: str, creds: Credentials = ROOT) -> StatResult:
        """``stat(2)``: requires search on all ancestors only (§III-A1:
        there is no requirement that the entry itself be readable)."""
        with self._lock:
            return self._resolve(path, creds, follow=True).inode.stat()

    def lstat(self, path: str, creds: Credentials = ROOT) -> StatResult:
        with self._lock:
            return self._resolve(path, creds, follow=False).inode.stat()

    def readlink(self, path: str, creds: Credentials = ROOT) -> str:
        with self._lock:
            node = self._resolve(path, creds, follow=False)
            if node.inode.ftype is not FileType.SYMLINK:
                raise InvalidArgument(path, "not a symlink")
            assert node.inode.symlink_target is not None
            return node.inode.symlink_target

    def _list(self, path: str, creds: Credentials) -> list[tuple[str, _Node]]:
        """A readable directory's ``(name, node)`` children in name
        order, bumping its atime. Called under the lock."""
        node = self._resolve(path, creds, follow=True)
        inode = node.inode
        if inode.ftype is not FileType.DIRECTORY:
            raise NotADirectory(path)
        if not can_read_dir(inode.mode, inode.uid, inode.gid, creds):
            raise PermissionDenied(path)
        inode.atime = self._now()
        assert node.children is not None
        return sorted(node.children.items())

    def readdir(self, path: str, creds: Credentials = ROOT) -> list[DirEntry]:
        """``readdir``: requires the directory's read bit."""
        if self._faults is not None:
            self._faults.fire("vfs.readdir", path)
        with self._lock:
            return [
                DirEntry(name=n, ino=c.inode.ino, ftype=c.inode.ftype)
                for n, c in self._list(path, creds)
            ]

    def chmod(self, path: str, mode: int, creds: Credentials = ROOT) -> None:
        with self._lock:
            node = self._resolve(path, creds, follow=True)
            inode = node.inode
            if not creds.is_root and creds.uid != inode.uid:
                raise PermissionDenied(path)
            inode.mode = mode & 0o7777
            inode.ctime = self._now()
            self._emit("chmod", self._node_path(node), inode)

    def chown(
        self, path: str, uid: int, gid: int, creds: Credentials = ROOT
    ) -> None:
        with self._lock:
            if not creds.is_root:
                raise PermissionDenied(path, "chown requires privilege")
            node = self._resolve(path, creds, follow=True)
            node.inode.uid = uid
            node.inode.gid = gid
            node.inode.ctime = self._now()
            self._emit("chown", self._node_path(node), node.inode)

    def utime(
        self, path: str, atime: int, mtime: int, creds: Credentials = ROOT
    ) -> None:
        with self._lock:
            node = self._resolve(path, creds, follow=True)
            inode = node.inode
            if not creds.is_root and creds.uid != inode.uid:
                raise PermissionDenied(path)
            inode.atime = atime
            inode.mtime = mtime
            inode.ctime = self._now()
            self._emit("utime", self._node_path(node), inode)

    # ------------------------------------------------------------------
    # Extended attributes (§III-A2 protection rules)
    # ------------------------------------------------------------------
    def setxattr(
        self, path: str, name: str, value: bytes, creds: Credentials = ROOT
    ) -> None:
        """Setting an xattr requires write permission on the entry."""
        with self._lock:
            node = self._resolve(path, creds, follow=True)
            inode = node.inode
            if not can_write_entry(inode.mode, inode.uid, inode.gid, creds):
                raise PermissionDenied(path)
            inode.xattrs[name] = bytes(value)
            inode.ctime = self._now()
            self._emit("setxattr", self._node_path(node), inode)

    def getxattr(
        self,
        path: str,
        name: str,
        creds: Credentials = ROOT,
        follow: bool = True,
    ) -> bytes:
        """Xattr *values* are protected like file data: read bit needed.

        ``follow=False`` is ``lgetxattr``/``getfattr -h``: the symlink
        itself is examined, and (like Linux) symlinks carry no user
        xattrs, so the attribute is reported absent.
        """
        with self._lock:
            node = self._resolve(path, creds, follow=follow)
            inode = node.inode
            if inode.ftype is FileType.SYMLINK:
                raise NoSuchAttr(path, f"no xattr {name!r} (symlink)")
            if not can_read_entry(inode.mode, inode.uid, inode.gid, creds):
                raise PermissionDenied(path)
            try:
                return inode.xattrs[name]
            except KeyError:
                raise NoSuchAttr(path, f"no xattr {name!r}") from None

    def listxattr(self, path: str, creds: Credentials = ROOT) -> list[str]:
        """Xattr *names* are metadata: only ancestor search bits gate
        access (enforced by path resolution), not the entry's read bit."""
        with self._lock:
            node = self._resolve(path, creds, follow=True)
            return sorted(node.inode.xattrs)

    def removexattr(
        self, path: str, name: str, creds: Credentials = ROOT
    ) -> None:
        with self._lock:
            node = self._resolve(path, creds, follow=True)
            inode = node.inode
            if not can_write_entry(inode.mode, inode.uid, inode.gid, creds):
                raise PermissionDenied(path)
            if name not in inode.xattrs:
                raise NoSuchAttr(path, f"no xattr {name!r}")
            del inode.xattrs[name]
            inode.ctime = self._now()
            self._emit("removexattr", self._node_path(node), inode)

    # ------------------------------------------------------------------
    # Privileged scanner interface
    # ------------------------------------------------------------------
    def walk(
        self, top: str = "/", creds: Credentials = ROOT
    ) -> Iterator[tuple[str, list[str], list[str]]]:
        """``os.walk``-style breadth-first iterator (dirpath, dirnames,
        filenames+symlinks). Entries the credentials cannot list are
        silently skipped, as ``find`` does (with a warning on stderr in
        the real tool)."""
        queue = [posixpath.normpath(top)]
        while queue:
            dirpath = queue.pop(0)
            try:
                entries = self.readdir(dirpath, creds)
            except (PermissionDenied, NoSuchEntry, NotADirectory):
                continue
            dirnames = [e.name for e in entries if e.ftype is FileType.DIRECTORY]
            others = [e.name for e in entries if e.ftype is not FileType.DIRECTORY]
            yield dirpath, dirnames, others
            queue.extend(posixpath.join(dirpath, d) for d in dirnames)

    def iter_inodes(self) -> Iterator[tuple[str, Inode]]:
        """Inode-order-ish iterator over (path, inode) pairs without
        permission checks — the substrate for 'fast inode scan' tools
        (Lester / Spectrum Scale ILM) that read metadata tables
        directly on the server, bypassing the namespace."""
        stack: list[tuple[str, _Node]] = [("/", self._root)]
        while stack:
            path, node = stack.pop()
            yield path, node.inode
            if node.children is not None:
                for name, child in node.children.items():
                    stack.append((posixpath.join(path, name), child))

    def get_inode(self, path: str, creds: Credentials = ROOT) -> Inode:
        """Privileged direct inode access (scanners, snapshot tooling)."""
        if self._faults is not None:
            self._faults.fire("vfs.get_inode", path)
        with self._lock:
            return self._resolve(path, creds, follow=False).inode

    def readdir_plus(self, path: str) -> list[tuple[str, Inode]]:
        """READDIRPLUS for the privileged scanners: a directory's
        ``(name, Inode)`` children in name order, as root, under one
        resolve and one lock hold (:meth:`readdir` followed by a
        :meth:`get_inode` per entry re-resolves every child from ``/``).

        Fires the fault sites that pair fires, with the same keys in
        the same order (``vfs.readdir`` for the directory, then
        ``vfs.get_inode`` per non-directory child: scanners fetch a
        sub-directory's attributes when they descend into it), so a
        :class:`~repro.scan.faults.FaultPlan` replays identically."""
        faults = self._faults
        if faults is not None:
            faults.fire("vfs.readdir", path)
        with self._lock:
            children = [(n, c.inode) for n, c in self._list(path, ROOT)]
        if faults is not None:
            for name, child in children:
                if child.ftype is not FileType.DIRECTORY:
                    faults.fire("vfs.get_inode", posixpath.join(path, name))
        return children

    def exists(self, path: str, creds: Credentials = ROOT) -> bool:
        try:
            self._resolve(path, creds, follow=False)
            return True
        except (NoSuchEntry, NotADirectory, PermissionDenied):
            return False
