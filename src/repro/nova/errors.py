"""The filesystem's error classes.

They sit below every other ``repro.nova`` module, so the media layer
(layout, journal, persist), the tenant layer and the filesystem raise one
family.  :mod:`repro.nova.fs` imports them, so ``from repro.nova.fs
import FSError`` names the same classes.
"""

from __future__ import annotations

__all__ = ["FSError", "FileNotFound", "FileExists", "NoSpace",
           "NotADirectory", "IsADirectory", "DirectoryNotEmpty",
           "ReadOnlyFile", "CorruptImage"]


class FSError(Exception):
    """Base class for filesystem errors."""


class FileNotFound(FSError):
    pass


class FileExists(FSError):
    pass


class NoSpace(FSError):
    pass


class NotADirectory(FSError):
    pass


class IsADirectory(FSError):
    pass


class DirectoryNotEmpty(FSError):
    pass


class ReadOnlyFile(FSError):
    """Write/truncate attempted on an immutable (snapshot) file."""


class CorruptImage(FSError):
    """Persisted state fails a sanity bound no crash can violate."""
