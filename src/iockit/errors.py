"""Exception types shared across the package."""


class IockitError(Exception):
    """Base class for all iockit errors."""


class UnknownTypeError(IockitError):
    """An indicator type name (or alias) is not in the supported set."""


class InapplicableRuleError(IockitError):
    """A defang rule was requested for a type it does not apply to."""


class MissingFileError(IockitError):
    """A required input file does not exist."""

    def __init__(self, path):
        super().__init__(f"missing file: {path}")
        self.path = str(path)


class OutputFileError(IockitError):
    """An output file cannot be opened for writing."""

    def __init__(self, path, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = str(path)


class CatalogParseError(IockitError):
    """A pattern catalog line is malformed or does not compile."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class HashMismatchError(IockitError):
    """A manifest entry's file content does not hash to its doc_id."""

    def __init__(self, doc_id: str, path: str):
        super().__init__(f"content of {path} does not hash to {doc_id}")
        self.doc_id = doc_id
        self.path = path


class MalformedLineError(IockitError):
    """A manifest line does not have the expected fields."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedTrancoError(IockitError):
    """A popularity-list line is not of the form 'rank,domain'."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownToolError(IockitError):
    """A tool output references a tool that has no profile."""


class DuplicateOutputError(IockitError):
    """Two output records exist for the same (tool, document) pair."""

    def __init__(self, tool: str, doc_id: str):
        super().__init__(f"duplicate output for tool {tool!r} on document {doc_id}")
        self.tool = tool
        self.doc_id = doc_id
