"""Simulated POSIX file-system substrate.

Stands in for the production source file systems (NFS, Lustre, HPSS,
local XFS) the paper scans and queries: an in-memory namespace with
full POSIX ownership, permission, timestamp, symlink, and extended-
attribute semantics, plus consistent snapshots and mount-point cost
models for remote-access latency.
"""

from .errors import (
    AlreadyExists,
    FSError,
    InvalidArgument,
    IsADirectory,
    NoSuchAttr,
    NoSuchEntry,
    NotADirectory,
    NotEmpty,
    PermissionDenied,
    TooManyLinks,
)
from .changelog import (
    METADATA_OPS,
    ChangeBatch,
    ChangeEvent,
    ChangeJournal,
    ChangelogOverflow,
)
from .inode import BLKSIZE, FileType, Inode, StatResult
from .mounts import MountedFS
from .permissions import (
    ROOT,
    Credentials,
    can_read_dir,
    can_read_entry,
    can_search_dir,
    can_write_entry,
    check_access,
    format_mode,
    mode_bits_for,
)
from .snapshot import SnapshotDiff, diff_snapshots, snapshot
from .tree import DirEntry, VFSTree

__all__ = [
    "AlreadyExists",
    "BLKSIZE",
    "ChangeBatch",
    "ChangeEvent",
    "ChangeJournal",
    "ChangelogOverflow",
    "Credentials",
    "DirEntry",
    "METADATA_OPS",
    "FSError",
    "FileType",
    "Inode",
    "InvalidArgument",
    "IsADirectory",
    "MountedFS",
    "NoSuchAttr",
    "NoSuchEntry",
    "NotADirectory",
    "NotEmpty",
    "PermissionDenied",
    "ROOT",
    "SnapshotDiff",
    "StatResult",
    "TooManyLinks",
    "VFSTree",
    "can_read_dir",
    "can_read_entry",
    "can_search_dir",
    "can_write_entry",
    "check_access",
    "diff_snapshots",
    "format_mode",
    "mode_bits_for",
    "snapshot",
]
