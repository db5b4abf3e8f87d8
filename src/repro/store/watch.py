"""The kernel's half of an index handle's change signal.

A cache that must not serve anything older than the index it was asked
of can re-stat every file it read, or it can let the kernel tell it
when something changed. This module does the second on Linux: a
:class:`Watch` opens a non-blocking inotify instance of its own through
``ctypes`` (no dependency) and watches every directory of an index tree
for creation, deletion, moves, writes, close-after-write and attribute
changes — whoever the writer is, this process or another one.

:meth:`Watch.sync` drains the event queue (one ``stat`` of the root and
one ``FIONREAD`` that, on nearly every call, finds it empty) and hands
each batch to the watch's ``on_change(paths, subtrees)``: the source
paths (index-relative, ``/`` for the root) of the directories the events
named, and the directories whose whole subtree may have changed — one
created, deleted or moved, in or out. ``subtrees`` is ``None`` when
anything may have changed: an overflow, a re-arm, a disarm. The index
handle that owns the watch passes
:meth:`repro.core.index.DirMetaCache.mark_dirty`, which advances the
handle's one change counter; what that counter means for each cache is
described once, in ``docs/ARCHITECTURE.md`` ("One change signal per
index handle").

The tree's shape is followed as it changes: a directory created or
moved in gets watched with its whole subtree. One moved inside the
tree keeps its watch descriptors (they follow the inode) and is walked
again at its new place, which rewrites its and its descendants' paths
and picks up any directory created under it before the move was seen.
One moved out is forgotten, and a deleted one's watch goes when the
kernel says so (``IN_IGNORED``).

A watch is *armed* only where its events are complete for local
writers, and :meth:`Watch.sync` returns ``False`` — "ask the files" —
everywhere else:

* the root's file system is not on :data:`LOCAL_FS_MAGIC` (by
  ``statfs`` ``f_type``): network and cluster file systems (NFS,
  Lustre), FUSE and overlay report only what the local kernel did;
* inotify is missing, or an instance or watch limit is hit (arming
  fails, or the tree disarms when growth hits the limit). A tree
  takes at most :data:`BUDGET_SHARE` of the user's watch budget
  (``fs.inotify.max_user_watches``, shared by all of the user's
  processes), so a larger tree never arms and leaves the rest to
  others;
* the event queue overflowed (``IN_Q_OVERFLOW``) and a rescan of the
  tree could not re-arm it;
* the root path no longer resolves to the directory that was armed (a
  publisher re-pointed a ``current`` symlink);
* the process is a forked child: the instance belongs to the parent,
  and a child that drained it would steal the parent's events.

Closing a watch's descriptor (:meth:`Watch.release`) drops every
kernel watch it holds.

The boundary, even when armed: inotify reports what goes through the
watched directories. A write through a hard link from outside the
tree, a write through a shared memory mapping, or a file system
mounted over an index directory raises no event.
"""

from __future__ import annotations

import ctypes
import errno
import fcntl
import os
import struct
import sys
import termios
import threading
from typing import Callable, Iterator

#: ``on_change(paths, subtrees)``: one batch's directories, and the
#: ones whose subtree changed (``None``: anything may have changed)
OnChange = Callable[[set[str], list[str] | None], None]

#: ``statfs`` ``f_type`` of the local file systems a watch arms on:
#: ext2/3/4, xfs, btrfs, tmpfs, f2fs
LOCAL_FS_MAGIC = frozenset({
    0xEF53,
    0x58465342,
    0x9123683E,
    0x01021994,
    0xF2F52010,
})

IN_MODIFY = 0x00000002
IN_ATTRIB = 0x00000004
IN_CLOSE_WRITE = 0x00000008
IN_MOVED_FROM = 0x00000040
IN_MOVED_TO = 0x00000080
IN_CREATE = 0x00000100
IN_DELETE = 0x00000200
IN_DELETE_SELF = 0x00000400
IN_MOVE_SELF = 0x00000800
IN_Q_OVERFLOW = 0x00004000
IN_IGNORED = 0x00008000
IN_ONLYDIR = 0x01000000
IN_DONT_FOLLOW = 0x02000000
IN_ISDIR = 0x40000000

#: what every directory of a tree is watched for
WATCH_MASK = (
    IN_MODIFY | IN_ATTRIB | IN_CLOSE_WRITE | IN_MOVED_FROM | IN_MOVED_TO
    | IN_CREATE | IN_DELETE | IN_DELETE_SELF | IN_MOVE_SELF
    | IN_ONLYDIR | IN_DONT_FOLLOW
)

#: ``struct inotify_event`` without its name: wd, mask, cookie, len
EVENT = struct.Struct("iIII")

#: a directory that vanished or stopped being one while being walked
_GONE = (errno.ENOENT, errno.ENOTDIR)
#: the root's own watch reporting that the root went away
_ROOT_GONE = IN_DELETE_SELF | IN_MOVE_SELF | IN_IGNORED

#: the share of the user's inotify watch budget one tree may take
BUDGET_SHARE = 0.25
#: the budget where ``/proc`` does not say (the kernel's old default)
DEFAULT_MAX_USER_WATCHES = 8192


def _load_libc() -> ctypes.CDLL | None:
    """libc with the inotify and ``statfs`` calls declared, or None."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return None
    if not all(hasattr(libc, f) for f in (
        "inotify_init1", "inotify_add_watch", "inotify_rm_watch", "statfs"
    )):
        return None
    libc.inotify_init1.argtypes = [ctypes.c_int]
    libc.inotify_add_watch.argtypes = [
        ctypes.c_int, ctypes.c_char_p, ctypes.c_uint32
    ]
    libc.inotify_rm_watch.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    for fn in ("inotify_init1", "inotify_add_watch", "inotify_rm_watch",
               "statfs"):
        getattr(libc, fn).restype = ctypes.c_int
    return libc


_libc = _load_libc()


def fs_supported(path: str) -> bool:
    """Does ``path`` live on a file system whose inotify events cover
    every writer (:data:`LOCAL_FS_MAGIC`)?"""
    if _libc is None:
        return False
    # struct statfs opens with f_type on every Linux ABI; 256 bytes
    # covers the whole struct
    buf = ctypes.create_string_buffer(256)
    if _libc.statfs(os.fsencode(path), buf) != 0:
        return False
    f_type = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return f_type in LOCAL_FS_MAGIC


def parse(buf: bytes) -> Iterator[tuple[int, int, int, str]]:
    """``(wd, mask, cookie, name)`` for each event in a read of an
    inotify descriptor."""
    off, end = 0, len(buf)
    while off + EVENT.size <= end:
        wd, mask, cookie, n = EVENT.unpack_from(buf, off)
        off += EVENT.size
        name = os.fsdecode(buf[off : off + n].rstrip(b"\0"))
        off += n
        yield wd, mask, cookie, name


def watch_budget() -> int:
    """How many directories one tree may watch: :data:`BUDGET_SHARE`
    of ``fs.inotify.max_user_watches``."""
    try:
        with open("/proc/sys/fs/inotify/max_user_watches") as f:
            limit = int(f.read())
    except (OSError, ValueError):
        limit = DEFAULT_MAX_USER_WATCHES
    return int(limit * BUDGET_SHARE)


class Watch:
    """An inotify instance of its own over one index tree: the root
    path it was armed through, the directory that path resolved to
    then, and every watched directory's path by descriptor. All state
    is guarded by :attr:`lock`."""

    def __init__(self, libc: ctypes.CDLL, fd: int, root: str, real: str,
                 ident: tuple, budget: int, on_change: OnChange) -> None:
        self.libc = libc
        self.fd = fd
        self.root = root
        self.real = real
        self.ident = ident
        self.budget = budget
        #: the process that armed it: a forked child reads nothing
        self.pid = os.getpid()
        self.lock = threading.Lock()
        #: watch descriptor -> directory path
        self.paths: dict[int, str] = {}
        self.armed = True
        self.on_change = on_change
        #: FIONREAD's answer: bytes of events queued on ``fd``
        self._queued = bytearray(4)

    def add(self, path: str) -> int:
        wd = self.libc.inotify_add_watch(self.fd, os.fsencode(path), WATCH_MASK)
        if wd < 0:
            err = ctypes.get_errno()
            raise OSError(err, os.strerror(err), path)
        return wd

    def remove(self, wd: int) -> None:
        if self.paths.pop(wd, None) is not None:
            # fails harmlessly when the kernel already dropped it
            self.libc.inotify_rm_watch(self.fd, wd)

    def walk(self, top: str) -> None:
        """Watch ``top`` and every directory under it, recording each
        one's path (a directory watched already keeps its descriptor).
        A directory that vanishes mid-walk is skipped: its parent is
        watched before it is listed, so whatever moved or deleted it
        raised an event; any other failure (a watch limit, the tree's
        budget) raises ``OSError``."""
        stack = [top]
        while stack:
            path = stack.pop()
            try:
                wd = self.add(path)
            except OSError as exc:
                if exc.errno in _GONE and path != self.real:
                    continue
                raise
            if wd not in self.paths and len(self.paths) >= self.budget:
                raise OSError(errno.ENOSPC, "tree over its watch budget", path)
            self.paths[wd] = path
            try:
                with os.scandir(path) as it:
                    stack.extend(
                        e.path for e in it if e.is_dir(follow_symlinks=False)
                    )
            except OSError as exc:
                if exc.errno not in _GONE:
                    raise

    def forget(self, top: str) -> None:
        """A directory moved out of the tree: stop watching its subtree."""
        prefix = top + "/"
        for wd in [
            wd for wd, p in self.paths.items()
            if p == top or p.startswith(prefix)
        ]:
            self.remove(wd)

    def rescan(self) -> None:
        """Re-arm from scratch after lost events: walk the whole tree
        again and drop every descriptor the walk did not reach."""
        old, self.paths = self.paths, {}
        self.walk(self.real)
        for wd in old.keys() - self.paths.keys():
            self.libc.inotify_rm_watch(self.fd, wd)

    def disarm(self) -> None:
        """Fall back for good: closing the descriptor drops every
        kernel watch (caller holds the lock)."""
        if not self.armed:
            return
        self.armed = False
        self.paths = {}
        os.close(self.fd)
        self.on_change(set(), None)

    def drain(self) -> None:
        """Read every queued event and apply it (caller holds the lock).
        ``FIONREAD`` first says whether any is queued: an empty queue,
        what nearly every hit finds, costs one ``ioctl`` and raises
        nothing."""
        fcntl.ioctl(self.fd, termios.FIONREAD, self._queued)
        if not int.from_bytes(self._queued, sys.byteorder):
            return
        chunks = []
        while True:
            try:
                chunks.append(os.read(self.fd, 65536))
            except BlockingIOError:
                break
        if chunks:
            self.dispatch(b"".join(chunks))

    def dispatch(self, buf: bytes) -> None:
        """Apply one batch of events: follow the tree's new shape,
        rescan the tree after an overflow, and tell ``on_change`` where
        the batch wrote (caller holds the lock)."""
        #: cookie -> path of a directory moved away
        moved: dict[int, str] = {}
        overflow = False
        #: the directories the events named, and the subtrees they
        #: created, removed or moved
        changed: set[str] = set()
        subtrees: list[str] = []
        try:
            for wd, mask, cookie, name in parse(buf):
                if mask & IN_Q_OVERFLOW:
                    overflow = True
                    continue
                path = self.paths.get(wd)
                if path is None:  # a descriptor already removed
                    continue
                if mask & _ROOT_GONE and path == self.real:
                    # nothing watches a root put back in its place, even
                    # one that reuses the inode number the check compares
                    self.disarm()
                    return
                if mask & IN_IGNORED:
                    del self.paths[wd]
                    continue
                if not name:  # the directory itself
                    changed.add(path)
                    if mask & (IN_DELETE_SELF | IN_MOVE_SELF):
                        subtrees.append(path)
                    continue
                if not mask & IN_ISDIR:  # a file in it
                    changed.add(path)
                    continue
                child = f"{path}/{name}"
                if mask & IN_ATTRIB:  # a sub-directory's own bits
                    changed.add(child)
                    continue
                changed.add(path)  # its listing
                subtrees.append(child)
                path = child
                if mask & IN_CREATE:
                    self._guarded(self.walk, path)
                elif mask & IN_MOVED_FROM:
                    moved[cookie] = path
                elif mask & IN_MOVED_TO:
                    # moved inside the tree: the walk re-paths it
                    moved.pop(cookie, None)
                    self._guarded(self.walk, path)
            for path in moved.values():
                self.forget(path)
            if overflow:
                self._guarded(self.rescan)
        finally:
            if self.armed:
                if overflow:
                    self.on_change(set(), None)
                elif changed:
                    self.on_change(
                        {self.source(p) for p in changed},
                        [self.source(p) for p in subtrees],
                    )

    def source(self, path: str) -> str:
        """The source path a watched directory mirrors."""
        return path[len(self.real):] or "/"

    def _guarded(self, step: Callable[..., None], *args: str) -> None:
        """Run one re-arming step; a tree that cannot follow its own
        shape (a watch limit, its budget) falls back: disarmed."""
        if not self.armed:
            return
        try:
            step(*args)
        except OSError:
            self.disarm()

    def sync(self) -> bool:
        """Drain the queue into ``on_change``: True when the watch
        vouches that every write before the call has been reported,
        False where it cannot (see the module docstring). One ``stat``
        of the root, then the drain."""
        if not self.armed or os.getpid() != self.pid:
            return False
        try:
            st = os.stat(self.root)
            same = (st.st_dev, st.st_ino) == self.ident
        except OSError:
            same = False
        with self.lock:
            if not same:
                self.disarm()
            if self.armed:
                self.drain()
            return self.armed

    def release(self) -> None:
        """Unwatch the tree. A forked child only closes its copy of the
        descriptor, which leaves the parent's watches alone, and takes
        no lock: a thread that did not fork may have held it."""
        if os.getpid() != self.pid:
            self.disarm()
            return
        with self.lock:
            self.disarm()


def arm(root: str, on_change: OnChange) -> Watch | None:
    """A watch over the index tree at ``root`` that reports each
    drained batch to ``on_change``, or ``None`` where one cannot be
    armed (see the module docstring); :meth:`Watch.release` unwatches
    it."""
    if _libc is None:
        return None
    try:
        st = os.stat(root)
    except OSError:
        return None
    real = os.path.realpath(root)
    if not fs_supported(real):
        return None
    fd = _libc.inotify_init1(os.O_NONBLOCK | os.O_CLOEXEC)
    if fd < 0:
        return None
    w = Watch(
        _libc, fd, root, real, (st.st_dev, st.st_ino), watch_budget(),
        on_change,
    )
    with w.lock:
        try:
            w.walk(real)
        except OSError:
            w.disarm()
            return None
    return w
