"""Exception hierarchy shared across the pipeline.

CLI exit-code mapping: usage errors exit 1, DataError exits 2,
VerificationError (including checksum failures) exits 3, WorkerError exits 4.
"""


class AsrError(Exception):
    """Base class for all errors raised by this package."""


class DataError(AsrError):
    """Malformed or unusable input data (audio, manifests, config files)."""


class VerificationError(AsrError):
    """A numeric or integrity check failed."""


class ChecksumError(VerificationError):
    """Checkpoint payload does not match its recorded CRC."""


class WorkerError(AsrError):
    """A training process ran out of memory or exited without answering (killed)."""


def unknown_keys(keys) -> str:
    """Name the count of an input object's unknown keys and the first, shortened.

    The keys come from an input file, so the text stays short whatever
    their number or length.
    """
    first = min(map(str, keys))
    shown = repr(first) if len(first) <= 40 else f"{first[:40]!r}... ({len(first)} characters)"
    return f"unknown keys ({len(keys)}), the first {shown}"
