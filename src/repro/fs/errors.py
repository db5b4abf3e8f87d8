"""POSIX-style error hierarchy for the simulated file system.

Each exception mirrors an errno the real syscall interface would
return, so scanner and index code can be written against the same
failure modes a kernel-backed walk would see.
"""

from __future__ import annotations

import errno


class FSError(OSError):
    """Base class for all simulated file-system errors.

    Subclasses set :attr:`ERRNO`; the message always includes the path
    that triggered the failure so walkers can log actionable errors.
    """

    ERRNO: int = errno.EIO

    def __init__(self, path: str, message: str | None = None):
        self.path = path
        msg = message or self.__class__.__doc__ or self.__class__.__name__
        super().__init__(self.ERRNO, f"{msg.splitlines()[0]}: {path!r}")


class NoSuchEntry(FSError):
    """No such file or directory (ENOENT)."""

    ERRNO = errno.ENOENT


class PermissionDenied(FSError):
    """Permission denied (EACCES)."""

    ERRNO = errno.EACCES


class AlreadyExists(FSError):
    """File exists (EEXIST)."""

    ERRNO = errno.EEXIST


class NotADirectory(FSError):
    """Not a directory (ENOTDIR)."""

    ERRNO = errno.ENOTDIR


class IsADirectory(FSError):
    """Is a directory (EISDIR)."""

    ERRNO = errno.EISDIR


class NotEmpty(FSError):
    """Directory not empty (ENOTEMPTY)."""

    ERRNO = errno.ENOTEMPTY


class NoSuchAttr(FSError):
    """No such extended attribute (ENODATA)."""

    ERRNO = errno.ENODATA


class TooManyLinks(FSError):
    """Too many levels of symbolic links (ELOOP)."""

    ERRNO = errno.ELOOP


class InvalidArgument(FSError):
    """Invalid argument (EINVAL)."""

    ERRNO = errno.EINVAL
