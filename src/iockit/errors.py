"""Exception types shared across the package, and the one reader of its
line-based input files."""
from __future__ import annotations

from pathlib import Path
from typing import Iterator

#: The directory of the built-in data files.
DATA = Path(__file__).parent / "data"


class IockitError(Exception):
    """Base class for all iockit errors."""


class UnknownTypeError(IockitError):
    """An indicator type name (or alias) is not in the supported set."""


class InapplicableRuleError(IockitError):
    """A defang rule was requested for a type it does not apply to."""


class MissingFileError(IockitError):
    """A required input file does not exist."""

    def __init__(self, path):
        super().__init__(f"{path}: missing file")
        self.path = str(path)


class OutputFileError(IockitError):
    """An output file cannot be opened for writing."""

    def __init__(self, path, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = str(path)


class HashMismatchError(IockitError):
    """A manifest entry's file content does not hash to its doc_id."""

    def __init__(self, doc_id: str, path: str):
        super().__init__(f"content of {path} does not hash to {doc_id}")
        self.doc_id = doc_id
        self.path = path


class MalformedLineError(IockitError):
    """A line of an input file cannot be used; prints as ``path:line: message``."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line_no, line)`` for each line of a UTF-8 file that is neither
    blank nor a ``#`` comment, numbered from 1 as ``str.splitlines`` splits
    them; the line is not stripped. Raises MissingFileError when ``path``
    is not a file and MalformedLineError on the first line that is not
    UTF-8."""
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(path)
    with open(path, "rb") as stream:
        data = stream.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        raise MalformedLineError(path, len((before + "x").splitlines()), "not UTF-8") from None
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith("#"):
            yield line_no, line


class UnknownToolError(IockitError):
    """A tool output references a tool that has no profile."""


class DuplicateOutputError(IockitError):
    """Two output records exist for the same (tool, document) pair."""

    def __init__(self, tool: str, doc_id: str):
        super().__init__(f"duplicate output for tool {tool!r} on document {doc_id}")
        self.tool = tool
        self.doc_id = doc_id
