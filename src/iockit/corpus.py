"""Local-corpus ingestion: document manifests and HTML-to-text extraction.

HTML documents within a strict subset are tokenized by one regular
expression; ``html.parser`` is imported, and the parser class built on
it, only the first time a document falls outside that subset. A run over
text documents alone imports neither ``html`` nor ``html.parser``.
"""
from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import NamedTuple

from .errors import HashMismatchError, IockitError, MalformedLineError, MissingFileError, read_lines

FORMATS = ("text", "html")

#: Elements whose content is not visible text.
_SUPPRESSED = frozenset({"script", "style", "template", "title"})
#: Elements that separate blocks of text with a newline.
_BLOCK = frozenset(
    {
        "address", "article", "aside", "blockquote", "br", "caption", "dd",
        "div", "dl", "dt", "fieldset", "figure", "footer", "form", "h1",
        "h2", "h3", "h4", "h5", "h6", "header", "hr", "li", "main", "nav",
        "ol", "p", "pre", "section", "table", "td", "th", "tr", "ul",
    }
)


class DocumentRecord(NamedTuple):
    """One corpus document; ``doc_id`` is the SHA256 hex of the file bytes.

    Duplicate documents collected through several channels are collapsed
    to one record carrying every ``source:origin`` string.
    """

    doc_id: str
    path: Path
    origins: tuple[str, ...]
    format: str

    def read_text(self) -> str:
        """The document decoded as UTF-8 (lossy on invalid bytes), read once;
        HashMismatchError when the bytes read do not hash to ``doc_id``."""
        # Imported here: filter and compare read no document.
        import hashlib

        data = self.path.read_bytes()
        if hashlib.sha256(data).hexdigest() != self.doc_id:
            raise HashMismatchError(self.doc_id, str(self.path))
        return data.decode("utf-8", errors="replace")


def load_manifest(path: str | Path, strict: bool = True):
    """Read a manifest of ``doc_id<TAB>path<TAB>origin<TAB>format`` lines.

    Records come back in file order, with duplicate doc_ids collapsed into
    one record with merged origins; a doc_id listed with two paths keeps
    the first. No document is opened: a missing file is found with
    ``stat``, and a document's hash is checked only when ``read_text``
    reads it. Each bad line's error, a document path the OS rejects
    included, is raised (strict mode) or returned in the error list
    (``strict=False`` returns ``(records, errors)``).
    """
    path = Path(path)
    base = path.parent
    by_id: dict[str, DocumentRecord] = {}
    errors: list[IockitError] = []
    for line_no, line in read_lines(path):
        try:
            fields = line.split("\t")
            if len(fields) != 4:
                message = f"expected 4 tab-separated fields, got {len(fields)}"
                raise MalformedLineError(path, line_no, message)
            doc_id, rel_path, origin, fmt = (f.strip() for f in fields)
            doc_id = doc_id.lower()
            if fmt not in FORMATS:
                raise MalformedLineError(path, line_no, f"unknown format {fmt!r}")
            if "\0" in rel_path:
                raise MalformedLineError(path, line_no, "document path holds a NUL character")
            if doc_id in by_id:
                existing = by_id[doc_id]
                if origin not in existing.origins:
                    by_id[doc_id] = existing._replace(origins=existing.origins + (origin,))
                continue
            # pathlib keeps an absolute path as it is; nothing is resolved, so
            # messages name the path as the manifest gives it.
            doc_path = base / rel_path
            try:
                found = doc_path.is_file()
            except OSError as exc:
                raise MalformedLineError(path, line_no, f"document path: {exc.strerror}") from None
            if not found:
                raise MissingFileError(doc_path)
            by_id[doc_id] = DocumentRecord(doc_id, doc_path, (origin,), fmt)
        except IockitError as exc:
            if strict:
                raise
            errors.append(exc)

    records = list(by_id.values())
    if strict:
        return records
    return records, errors


class _TextCollector:
    """Collects visible text from parser callbacks; block boundaries become
    single newlines, emitted lazily so the output never gains
    leading/trailing separators."""

    def __init__(self):
        self._chunks: list[str] = []
        self._suppress = 0
        self._pending_break = False

    def handle_starttag(self, tag, attrs):
        if tag in _SUPPRESSED:
            self._suppress += 1
        elif tag in _BLOCK:
            self._pending_break = True

    def handle_endtag(self, tag):
        if tag in _SUPPRESSED:
            self._suppress = max(0, self._suppress - 1)
        elif tag in _BLOCK:
            self._pending_break = True

    def handle_data(self, data):
        if self._suppress or not data:
            return
        if self._pending_break:
            if self._chunks and not self._chunks[-1].endswith("\n"):
                self._chunks.append("\n")
            self._pending_break = False
        self._chunks.append(data)

    def text(self) -> str:
        return "".join(self._chunks)


@functools.cache
def _html_parser_class() -> type:
    """A ``_TextCollector`` fed by ``HTMLParser``, built on first need."""
    from html.parser import HTMLParser

    class _HTMLTextParser(_TextCollector, HTMLParser):
        def __init__(self):
            _TextCollector.__init__(self)
            HTMLParser.__init__(self, convert_charrefs=True)

        def parse_marked_section(self, i, report=1):
            # The stdlib raises AssertionError on a marked section it cannot
            # parse (`<![ x`, `<![foo[`). Reported as unterminated instead,
            # the section is passed on as text by close() and parsing
            # resumes after it.
            try:
                return super().parse_marked_section(i, report)
            except AssertionError:
                return -1

    return _HTMLTextParser


# The strict subset of HTML that ``_feed_subset`` tokenizes. Whitespace
# inside tags is these five ASCII characters only: HTMLParser's tag name
# runs on through any other whitespace, while a bare attribute value ends
# at any ``\s``.
_WS = r"[\t\n\r\f ]"
_NAME = r"[a-zA-Z][-.a-zA-Z0-9:_]*+"
_ATTR = rf"""{_WS}++[^\s"'<>/=]++(?:{_WS}*+={_WS}*+(?:"[^"]*+"|'[^']*+'|[^\s"'<>=`]++))?+"""
#: A run of text (group 1) and the markup token after it: a start tag
#: (name in group 2, ``/`` of a self-closing tag in group 3), an end tag
#: (name in group 4), a comment with no ``--`` inside, a doctype, or the
#: end of the document. A bare attribute value takes a ``/`` before the
#: ``>``, as in HTMLParser: ``<script src=x/>`` is a start tag.
_TOKEN = re.compile(
    r"([^<]*+)(?:"
    rf"<({_NAME})(?:{_ATTR})*+{_WS}*+(/?)>"
    rf"|</({_NAME}){_WS}*+>"
    r"|<!--(?:[^-]++|-(?!-))*+-->"
    r"|<![Dd][Oo][Cc][Tt][Yy][Pp][Ee][^>]*+>"
    r"|\Z)"
)
#: HTMLParser's own end of a script or style element's raw content, for
#: each of its ``CDATA_CONTENT_ELEMENTS``.
_RAW_TEXT_END = {tag: re.compile(rf"</\s*{tag}\s*>", re.I) for tag in ("script", "style")}


def _feed_subset(parser: _TextCollector, html: str) -> bool:
    """Drive ``parser``'s callbacks over ``html`` as ``HTMLParser.feed``
    and ``close`` would, or return False on markup outside ``_TOKEN``'s
    subset; the parser must then be discarded. A self-closing tag is a
    start tag then an end tag, as ``HTMLParser`` makes it. The raw text of
    a script or style element, which the collector suppresses, is
    skipped. Attributes are not parsed: the callbacks get none."""
    # Imported here: only HTML documents need it, and they come this way.
    from html import unescape

    pos, end = 0, len(html)
    while pos < end:
        m = _TOKEN.match(html, pos)
        if m is None:
            return False
        text, start, slash, end_tag = m.groups()
        if text:
            parser.handle_data(unescape(text))
        pos = m.end()
        if start:
            tag = start.lower()
            parser.handle_starttag(tag, [])
            raw_end = None if slash else _RAW_TEXT_END.get(tag)
            if raw_end is not None:
                close = raw_end.search(html, pos)
                # HTMLParser takes a non-ASCII match (`</ſcript>`) as text.
                if close is None or not close.group().isascii():
                    return False
                pos = close.end()
            if slash or raw_end is not None:
                parser.handle_endtag(tag)
        elif end_tag:
            parser.handle_endtag(end_tag.lower())
    return True


def extract_text(html: str) -> str:
    """Visible text of an HTML document, best-effort.

    Script/style contents are dropped, tags removed, entities decoded, and
    block elements separated by newlines. Text node content is emitted
    verbatim so indicators contiguous in the source are never split;
    markup-free input passes through unchanged.

    Documents within a strict subset of HTML are tokenized by one regular
    expression; any other document is parsed by ``HTMLParser``. The text
    is the same either way.
    """
    parser = _TextCollector()
    if not _feed_subset(parser, html):
        parser = _html_parser_class()()
        parser.feed(html)
        parser.close()
    return parser.text()
