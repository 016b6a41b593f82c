import hashlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from iockit.corpus import (
    DocumentRecord,
    _feed_subset,
    _TextExtractor,
    extract_text,
    load_manifest,
)
from iockit.errors import HashMismatchError, MalformedLineError, MissingFileError


def write_doc(directory, name, content: str):
    path = directory / name
    path.write_text(content, encoding="utf-8")
    return hashlib.sha256(content.encode()).hexdigest(), name


class TestManifest:
    def test_three_rows_three_records(self, tmp_path):
        rows = []
        for i in range(3):
            doc_id, name = write_doc(tmp_path, f"d{i}.txt", f"doc {i} 1.2.3.{i}")
            rows.append(f"{doc_id}\t{name}\trss:feed{i}\ttext")
        (tmp_path / "manifest.tsv").write_text("\n".join(rows))
        records = load_manifest(tmp_path / "manifest.tsv")
        assert len(records) == 3
        assert [r.origins for r in records] == [("rss:feed0",), ("rss:feed1",), ("rss:feed2",)]

    def test_duplicate_hash_merges_origins(self, tmp_path):
        doc_id, name = write_doc(tmp_path, "same.txt", "identical body")
        (tmp_path / "manifest.tsv").write_text(
            f"{doc_id}\t{name}\trss:a\ttext\n{doc_id}\t{name}\ttwitter:b\ttext\n"
        )
        records = load_manifest(tmp_path / "manifest.tsv")
        assert len(records) == 1
        assert records[0].origins == ("rss:a", "twitter:b")

    def test_hash_mismatch(self, tmp_path):
        _, name = write_doc(tmp_path, "doc.txt", "actual content")
        fake = "0" * 64
        (tmp_path / "manifest.tsv").write_text(f"{fake}\t{name}\trss:a\ttext\n")
        [record] = load_manifest(tmp_path / "manifest.tsv")
        with pytest.raises(HashMismatchError) as err:
            record.read_text()
        assert err.value.doc_id == fake
        assert err.value.path == str(record.path)

    def test_unverified_load_reads_no_document(self, tmp_path, monkeypatch):
        doc_id, name = write_doc(tmp_path, "doc.txt", "original content")
        (tmp_path / name).write_text("edited content")
        (tmp_path / "manifest.tsv").write_text(
            f"{doc_id}\t{name}\trss:a\ttext\n{'0' * 64}\tgone.txt\trss:b\ttext\n"
        )

        def no_read(self):
            raise AssertionError(f"read {self}")

        monkeypatch.setattr(Path, "read_bytes", no_read)
        records, errors = load_manifest(tmp_path / "manifest.tsv", False)
        assert [(r.doc_id, r.origins) for r in records] == [(doc_id, ("rss:a",))]
        assert [type(e) for e in errors] == [MissingFileError]

    def test_malformed_line(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text("only\ttwo fields\n")
        with pytest.raises(MalformedLineError) as err:
            load_manifest(tmp_path / "manifest.tsv")
        assert err.value.line_no == 1
        assert err.value.path == str(tmp_path / "manifest.tsv")

    def test_nul_in_document_path_is_a_malformed_line(self, tmp_path):
        doc_id, name = write_doc(tmp_path, "doc.txt", "x")
        (tmp_path / "manifest.tsv").write_text(
            f"{'0' * 64}\tdo\0c.txt\trss:a\ttext\n{doc_id}\t{name}\trss:a\ttext\n"
        )
        records, errors = load_manifest(tmp_path / "manifest.tsv", strict=False)
        assert [r.doc_id for r in records] == [doc_id]
        assert [str(e) for e in errors] == [
            f"{tmp_path / 'manifest.tsv'}:1: document path holds a NUL character"
        ]

    def test_unknown_format(self, tmp_path):
        doc_id, name = write_doc(tmp_path, "doc.pdf", "x")
        (tmp_path / "manifest.tsv").write_text(f"{doc_id}\t{name}\trss:a\tpdf\n")
        with pytest.raises(MalformedLineError):
            load_manifest(tmp_path / "manifest.tsv")

    def test_missing_manifest_and_document(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_manifest(tmp_path / "absent.tsv")
        (tmp_path / "manifest.tsv").write_text(f"{'0' * 64}\tgone.txt\trss:a\ttext\n")
        with pytest.raises(MissingFileError):
            load_manifest(tmp_path / "manifest.tsv")

    def test_lenient_mode_collects_errors(self, tmp_path):
        good_id, good = write_doc(tmp_path, "good.txt", "fine")
        (tmp_path / "manifest.tsv").write_text(
            f"bad line\n{'0' * 64}\tgone.txt\trss:a\ttext\n{good_id}\t{good}\trss:b\ttext\n"
        )
        records, errors = load_manifest(tmp_path / "manifest.tsv", strict=False)
        assert [r.doc_id for r in records] == [good_id]
        assert len(errors) == 2

    def test_comments_and_blanks_skipped(self, tmp_path):
        doc_id, name = write_doc(tmp_path, "d.txt", "body")
        (tmp_path / "manifest.tsv").write_text(f"# header\n\n{doc_id}\t{name}\trss:a\ttext\n")
        assert len(load_manifest(tmp_path / "manifest.tsv")) == 1

    def test_read_text_lossy_decode(self, tmp_path):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"ok \xff\xfe bytes")
        doc_id = hashlib.sha256(path.read_bytes()).hexdigest()
        record = DocumentRecord(doc_id, path, ("rss:a",), "text")
        assert "ok" in record.read_text()


class TestExtractText:
    def test_tag_stripping(self):
        assert extract_text("<p>IP 1.2.3.4</p>") == "IP 1.2.3.4"

    def test_script_dropped(self):
        # Manual DOM walk: the only visible text node is "ok" inside <b>.
        assert extract_text("<script>x='9.9.9.9'</script><b>ok</b>") == "ok"

    def test_style_dropped(self):
        assert extract_text("<style>.a{color:red}</style>visible") == "visible"

    def test_entity_decoding(self):
        assert extract_text("a&amp;b") == "a&b"

    def test_block_elements_newline_separated(self):
        assert extract_text("<p>one</p><p>two</p>") == "one\ntwo"
        assert extract_text("<div>a</div><div>b</div>") == "a\nb"
        assert extract_text("x<br/>y") == "x\ny"

    def test_inline_tags_do_not_split_indicators(self):
        assert extract_text("<b>exa</b>mple.com") == "example.com"
        assert extract_text("<span>1.2.</span><span>3.4</span>") == "1.2.3.4"

    def test_plain_text_passthrough(self):
        plain = "no markup here\njust 1.2.3.4 and text\n"
        assert extract_text(plain) == plain

    def test_idempotent_on_own_output(self):
        html = (
            "<html><head><title>t</title><style>b{}</style></head><body>"
            "<h1>Report</h1><p>C2 at <b>bad</b>.example.com &amp; 1.2.3.4</p>"
            "<script>var x = 'hxxp://skip.me';</script>"
            "<ul><li>hash abc</li><li>more</li></ul></body></html>"
        )
        once = extract_text(html)
        assert extract_text(once) == once
        assert "skip.me" not in once
        assert "bad.example.com & 1.2.3.4" in once

    def test_malformed_html_best_effort(self):
        assert "text" in extract_text("<p>text")
        assert extract_text("<<<>>weird") != ""

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=400))
    @example("see 1.2.3.4 <![ x")
    @example("<![foo[ x ]]>")
    def test_never_raises(self, text):
        extract_text(text)

    def test_unparseable_marked_section_is_text(self):
        assert extract_text("see 1.2.3.4 <![ x") == "see 1.2.3.4 <![ x"
        text = extract_text("<p>a</p><![foo[ x ]]><p>evil.example.com</p>")
        assert text == "a\n<![foo[ x ]]>\nevil.example.com"

    # Idempotence holds for single-encoded input; exclude '&' and '<',
    # whose re-interpretation on a second pass is inherent to entity and
    # tag decoding.
    @settings(max_examples=100, deadline=None)
    @given(
        st.text(
            alphabet=st.characters(
                min_codepoint=32, max_codepoint=620, exclude_characters="&<"
            ),
            max_size=300,
        )
    )
    def test_idempotent_without_markup_chars(self, text):
        once = extract_text(text)
        assert extract_text(once) == once


def parsed_by_html_parser(html: str) -> str:
    parser = _TextExtractor()
    parser.feed(html)
    parser.close()
    return parser.text()


def fast_path_text(html: str):
    """The tokenizer's text, or None when it gives the document up."""
    parser = _TextExtractor()
    return parser.text() if _feed_subset(parser, html) else None


_TAG_NAMES = ("p", "P", "a", "x:y", "title", "script", "SCRIPT", "style")
#: Attributes the fast path takes: quoted, unquoted, and bare values that
#: end in ``/`` (HTMLParser reads ``<script src=x/>`` as a start tag).
_ATTRS = (" b", " b=c", " b = c", " b='c d'", ' b="c>d"', " src=x/", " b=c/")
#: Script and style content: text, markup, and end tags that do not end it
#: (``</scriptx>``) or that HTMLParser's end pattern finds but its end tag
#: rejects (``</\u017fcript>``).
_RAW_TEXT = ("x", "&amp;", "<p>", "</scriptx>", "</SCRIPT >", "</\u017fcript>", "</ style>")
_accepted_piece = (
    st.builds(
        lambda name, attrs, end: f"<{name}{''.join(attrs)}{end}",
        st.sampled_from(_TAG_NAMES),
        st.lists(st.sampled_from(_ATTRS), max_size=3),
        st.sampled_from((">", "/>", " />", " >")),
    )
    | st.builds(
        lambda name, space: f"</{name}{space}>",
        st.sampled_from(_TAG_NAMES + ("scriptx",)),
        st.sampled_from(("", " ")),
    )
    | st.builds(
        lambda name, content, end: f"<{name}>{''.join(content)}{end}",
        st.sampled_from(("script", "SCRIPT", "style")),
        st.lists(st.sampled_from(_RAW_TEXT), max_size=3),
        st.sampled_from(("</script>", "</style >", "")),
    )
    | st.sampled_from((
        "<script src=x/>", "</SCRIPT >", "</scriptx>", "<!-- c -->", "<!---->",
        "<!-->", "<!--->", "<!DOCTYPE html>", "<!doctype>", "&amp;", "&amp", "&lt;",
        "&#49;", "&#x31", "&nbsp;", "&", ">", "-", " ", "\n", "see ", "1.2.3.4",
        "evil.example.com", "http://a.example/x",
    ))
)
#: Markup outside the subset, and near misses of it: stray ``<``, marked
#: sections, whitespace HTMLParser treats apart, and end tags of script
#: content that HTMLParser's end pattern finds but its end tag rejects.
_NEAR_MISSES = (
    "<", "</", "<!--", "<p", "<script", "<!x>", "<![CDATA[x]]>", "<![ x", "<?pi?>",
    "<!-- a -- b -->", "<!-- a -- > b -->", "</\u017fcript>", "</script\xa0>",
    "</ script>", "</p x>", "<a b=>", "<a b==c>", '<a b="c"d>', "<a b=c<d>", "<a\x0b>",
    "<p\xa0b>", "<p\x0b>", "<a/b>",
)


@st.composite
def html_documents(draw):
    """Accepted pieces with up to two near misses put in anywhere."""
    pieces = draw(st.lists(_accepted_piece, max_size=15))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(pieces)))
        pieces.insert(at, draw(st.sampled_from(_NEAR_MISSES)))
    return "".join(pieces)


@settings(max_examples=500, deadline=None)
@given(html_documents())
def test_fast_path_text_equals_html_parser(html):
    fast = fast_path_text(html)
    if fast is not None:
        assert fast == parsed_by_html_parser(html)
    assert extract_text(html) == parsed_by_html_parser(html)


@pytest.mark.parametrize(
    "html",
    [
        "<script src=x/>hidden",
        "<a href=x/>shown",
        "<script>a</\u017fcript>b</script>c",
        "<script></SCRIPT >y</script>z",
        "a<p\x0b>b",
        "a<p\xa0b>c",
        "<!-->a-->b",
        "<!--->a-->b",
        "<!-- a -- > b -->c",
    ],
)
def test_fast_path_traps(html):
    # Where a plausible tokenizer parts from HTMLParser: a bare value takes
    # the ``/``; IGNORECASE equates U+017F with ``s`` in the script end
    # pattern but not in the end tag; a tag name ends at no whitespace
    # but five ASCII characters; a comment ends at the first ``--\s*>``
    # after ``<!--``.
    assert extract_text(html) == parsed_by_html_parser(html)


def test_fast_path_accepts_feed_items():
    # Shaped like the items of an RSS/blog feed: attributes of every
    # quoting, nested inline tags, entities, head elements and a footer.
    item = (
        '<!DOCTYPE html><html lang="en"><head><meta charset="utf-8">'
        "<title>Weekly update 7</title><style>.entry-p{margin:0}</style>"
        "<script>window.dataLayer=window.dataLayer||[];</script></head><body>"
        '<div class="feed"><article class="item" id="i3fa2">'
        "<h2>Weekly update 7</h2><!-- entry -->"
        '<div class="entry"><p class="entry-p">C2 at <span class="c7" data-k="9f">'
        "hxxp[:]//evil[.]example.com/gate</span> &amp; 203.0.113.7<br/>"
        "hash d41d8cd98f00b204e9800998ecf8427e &lt;dropped&gt;</p>\n"
        "<p class=entry-p>Tracker UA-4422107-1</P></div></article></div>"
        '<footer><nav><ul><li><a href="/">Home</a></li>'
        "<li><a href=/feed>Feed</a></li></ul></nav></footer></body></html>\n"
    )
    text = fast_path_text(item)
    assert text is not None
    assert text == parsed_by_html_parser(item)
    assert "hxxp[:]//evil[.]example.com/gate & 203.0.113.7" in text
