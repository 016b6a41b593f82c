import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from iockit.defang import DEFAULT_RULES, rearm
from iockit.errors import MalformedLineError, MissingFileError
from iockit.extractor import (
    Extractor,
    _trim_trailing,
    default_catalog_path,
    default_tld_path,
    extract,
    extract_raw,
    load_catalog,
)
from iockit.normalize import normalize
from iockit.patterns import _URL_PATH_CHAR, ANCHORS, RUN_BODIES, default_entries
from iockit.types import Indicator, IndicatorType, RawMatch
from iockit.validators import load_tlds, validate

from conftest import plan_shaped, plant_text, render

T = IndicatorType

#: The shipped catalog line of each type: its built-in defang-broadened expression.
BUILT_IN_LINE = {e.type: f"{e.type.value}\t{e.expression}" for e in default_entries()}


def types_of(matches):
    return [(m.type, m.rearmed) for m in matches]


class TestExtractRaw:
    def test_duplicate_defanged_ips_kept_with_offsets(self):
        text = "ping 9[.]9[.]9[.]9 twice, then 9[.]9[.]9[.]9"
        matches = extract_raw(text)
        assert types_of(matches) == [(T.IP4, "9.9.9.9"), (T.IP4, "9.9.9.9")]
        assert matches[0].start != matches[1].start
        for m in matches:
            assert text[m.start : m.end] == m.raw

    def test_empty_text(self):
        assert extract_raw("") == []
        assert extract("") == []

    def test_bitcoin_address_extracted(self):
        # Address checksum confirmed by the independent oracle in conftest.
        matches = extract_raw("hash 1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa")
        assert types_of(matches) == [(T.BITCOIN, "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa")]

    def test_bitcoin_bad_checksum_not_extracted(self):
        assert extract_raw("hash 1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNb") == []

    def test_ordering_by_start_then_type(self):
        text = "a.com 1.2.3.4 b.net"
        starts = [m.start for m in extract_raw(text)]
        assert starts == sorted(starts)


class TestExtractDedup:
    def test_cve_case_insensitive_dedup(self):
        out = extract("see CVE-2021-44228 and cve-2021-44228")
        assert out == [Indicator(T.CVE, "CVE-2021-44228")]

    def test_dedup_is_idempotent_projection(self):
        text = "9[.]9[.]9[.]9 then 9.9.9.9 and x@y.com x@Y.COM"
        once = extract(text)
        keys = [(i.type, i.value) for i in once]
        assert len(keys) == len(set(keys))

    def test_containment_matches_raw_projection(self, rng, forge):
        planted = [(t, render(rng, t, forge.value(t))) for t in T for _ in range(2)]
        text = plant_text(rng, planted)
        ex = Extractor.default()
        dedup = {(i.type, i.value) for i in ex.extract(text)}
        projected = {
            (m.type, normalize(m.type, m.rearmed)) for m in ex.extract_raw(text)
        }
        assert dedup == projected


class TestPerType:
    @pytest.mark.parametrize(
        "text,ind_type,value",
        [
            ("conn to 8.8.8.8 seen", T.IP4, "8.8.8.8"),
            ("block 10.0.0.0/8 now", T.IP4CIDR, "10.0.0.0/8"),
            ("v6 2001:db8:85a3::8a2e:370:7334 here", T.IP6, "2001:db8:85a3::8a2e:370:7334"),
            ("c2 at panel.evil-domain.biz.", T.FQDN, "panel.evil-domain.biz"),
            ("get hxxps://bad[.]site[.]io/drop.bin now", T.URL, "https://bad.site.io/drop.bin"),
            ("mail ops_at_crew[.]net asap", T.EMAIL, "ops@crew.net"),
            ("md5 d41d8cd98f00b204e9800998ecf8427e!", T.MD5, "d41d8cd98f00b204e9800998ecf8427e"),
            ("sha1 " + "ab" * 20, T.SHA1, "ab" * 20),
            ("sha256 " + "cd" * 32, T.SHA256, "cd" * 32),
            ("sha512 " + "ef" * 64, T.SHA512, "ef" * 64),
            ("fuzzy 3072:AXGBicFlgVNhBGcL6wCrFQEv:AXGHsNhxLsr2C end", T.SSDEEP,
             "3072:AXGBicFlgVNhBGcL6wCrFQEv:AXGHsNhxLsr2C"),
            ("patched cve-2017-0144 today", T.CVE, "cve-2017-0144"),
            ("routed via AS13335,", T.ASN, "AS13335"),
            ("eth 0x52908400098527886E0F7030069857D2E4169EE7 ok", T.ETHEREUM,
             "0x52908400098527886E0F7030069857D2E4169EE7"),
            ("hidden svc expyuzz4wqqyqhjn.onion seen", T.ONION_ADDRESS,
             "expyuzz4wqqyqhjn.onion"),
            ("acct GB82WEST12345698765432 drained", T.IBAN, "GB82WEST12345698765432"),
            ("nic 00:1A:2B:3C:4D:5E on lan", T.MAC_ADDRESS, "00:1A:2B:3C:4D:5E"),
            ("persists at HKLM\\Software\\Microsoft\\Windows\\CurrentVersion\\Run.",
             T.REGKEY, "HKLM\\Software\\Microsoft\\Windows\\CurrentVersion\\Run"),
            ("monetized pub-1234567890123456 and", T.GOOGLE_ADSENSE, "pub-1234567890123456"),
            ("tracker UA-4422107-1 reused", T.GOOGLE_ANALYTICS, "UA-4422107-1"),
            ("c2 at http://evil.example.com/x\u3002 now", T.URL, "http://evil.example.com/x"),
        ],
    )
    def test_single_indicator(self, text, ind_type, value):
        hits = [(m.type, m.rearmed) for m in extract_raw(text) if m.type is ind_type]
        assert hits == [(ind_type, value)]

    def test_monero_structural(self, forge):
        addr = forge.monero()
        assert types_of(extract_raw(f"xmr {addr} paid")) == [(T.MONERO, addr)]

    @pytest.mark.parametrize(
        "text,absent_type",
        [
            ("version 1.2.3.4.5 released", T.IP4),
            ("octets 999.1.2.3 invalid", T.IP4),
            ("domain foo.invalidtldzz here", T.FQDN),
            ("timestamp 12:34:56 logged", T.SSDEEP),
            ("AS99999999999 out of range", T.ASN),
            ("word administratively here", T.ONION_ADDRESS),
            ("serial DE12ABCDEFGHIJKLMNOP failed", T.IBAN),
            ("just 0xdeadbeef here", T.ETHEREUM),
        ],
    )
    def test_invalid_candidates_dropped(self, text, absent_type):
        assert [m for m in extract_raw(text) if m.type is absent_type] == []


class TestOverlaps:
    def test_url_and_embedded_fqdn_both_reported(self):
        got = types_of(extract_raw("see http://evil.example.com/x?y=1 there"))
        assert (T.URL, "http://evil.example.com/x?y=1") in got
        assert (T.FQDN, "evil.example.com") in got

    def test_cidr_and_embedded_ip_both_reported(self):
        got = types_of(extract_raw("scan 192.0.2.0/24 fully"))
        assert (T.IP4CIDR, "192.0.2.0/24") in got
        assert (T.IP4, "192.0.2.0") in got

    def test_sha256_not_reported_as_embedded_md5_or_sha1(self):
        digest = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        got = types_of(extract_raw(f"sum {digest} ok"))
        assert got == [(T.SHA256, digest)]

    def test_hex_run_inside_word_not_matched(self):
        assert extract_raw("prefix" + "a" * 32 + "suffix") == []

    def test_email_reports_embedded_domain_too(self):
        got = types_of(extract_raw("contact abuse@corp.example.org now"))
        assert (T.EMAIL, "abuse@corp.example.org") in got
        assert (T.FQDN, "corp.example.org") in got


class TestUrlTrimming:
    def test_trailing_sentence_punctuation_stripped(self):
        matches = [m for m in extract_raw("visit http://a.com/path.") if m.type is T.URL]
        assert matches[0].raw == "http://a.com/path"

    def test_balanced_parens_kept(self):
        text = "wiki (http://en.example.org/wiki/X_(y)) has it"
        matches = [m for m in extract_raw(text) if m.type is T.URL]
        assert matches[0].rearmed == "http://en.example.org/wiki/X_(y)"

    def test_offset_still_correct_after_trim(self):
        text = "see http://a.com/x), done"
        for m in extract_raw(text):
            assert text[m.start : m.end] == m.raw


class TestCatalogLoading:
    def test_default_files_load_all_types(self):
        ex = load_catalog(default_catalog_path(), default_tld_path())
        assert ex.types == frozenset(T)

    def test_shipped_catalog_matches_builder(self):
        shipped = load_catalog(default_catalog_path(), default_tld_path())
        built = {(e.type, e.expression) for e in default_entries(defanged=True)}
        shipped_pairs = {(e.type, e.expression) for e in shipped.entries}
        # On a mismatch, list each differing type as the line the builder
        # would write, ready to paste into data/patterns.tsv.
        differing = sorted({t for t, _ in shipped_pairs ^ built}, key=lambda t: t.value)
        assert shipped_pairs == built, "data/patterns.tsv differs from default_entries():\n" + (
            "\n".join(BUILT_IN_LINE[t] for t in differing)
        )

    @pytest.mark.parametrize(
        "expression",
        ["[0-9a-f]{32}", BUILT_IN_LINE[T.SHA1].split("\t")[1]],
        ids=["custom", "another-type"],
    )
    def test_non_built_in_expression_rejected_with_line(self, tmp_path, expression):
        path = tmp_path / "patterns.tsv"
        path.write_text(f"# header\n{BUILT_IN_LINE[T.SHA1]}\nmd5\t{expression}\n")
        with pytest.raises(MalformedLineError) as err:
            load_catalog(path, default_tld_path())
        assert (err.value.path, err.value.line_no) == (str(path), 3)
        assert str(err.value) == f"{path}:3: not the built-in md5 expression"

    def test_bad_regex_reports_line_number(self, tmp_path):
        # A bad regex is not a built-in expression; it is reported at its
        # line without being compiled.
        built_in = [BUILT_IN_LINE[t] for t in (T.MD5, T.SHA1, T.SHA256, T.SHA512, T.CVE)]
        lines = ["# header"] + built_in
        path = tmp_path / "patterns.tsv"
        path.write_text("\n".join(lines + ["url\t(unclosed"]))
        with pytest.raises(MalformedLineError) as err:
            load_catalog(path, default_tld_path())
        assert err.value.line_no == 7
        assert err.value.path == str(path)
        assert str(err.value) == f"{path}:7: not the built-in url expression"

    @pytest.mark.parametrize(
        "expression", ["a{99999999999}", "(" * 1000 + ")" * 1000], ids=["overflow", "recursion"]
    )
    def test_uncompilable_expression_reported_with_line(self, tmp_path, expression):
        path = tmp_path / "patterns.tsv"
        path.write_text(f"{BUILT_IN_LINE[T.MD5]}\nsha1\t{expression}\n")
        with pytest.raises(MalformedLineError) as err:
            load_catalog(path, default_tld_path())
        assert (err.value.path, err.value.line_no) == (str(path), 2)
        assert str(err.value) == f"{path}:2: not the built-in sha1 expression"

    def test_not_utf8_rejected_with_line(self, tmp_path):
        path = tmp_path / "patterns.tsv"
        path.write_bytes(BUILT_IN_LINE[T.MD5].encode() + b"\r\n\xe9\n")
        with pytest.raises(MalformedLineError) as err:
            load_catalog(path, default_tld_path())
        assert str(err.value) == f"{path}:2: not UTF-8"

    def test_unknown_type_rejected_with_line(self, tmp_path):
        path = tmp_path / "patterns.tsv"
        path.write_text(f"{BUILT_IN_LINE[T.MD5]}\nyara\trule .*")
        with pytest.raises(MalformedLineError) as err:
            load_catalog(path, default_tld_path())
        assert err.value.line_no == 2
        assert err.value.path == str(path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_catalog(tmp_path / "nope.tsv", default_tld_path())
        with pytest.raises(MissingFileError):
            load_catalog(default_catalog_path(), tmp_path / "nope.txt")

    def test_subset_catalog(self, tmp_path):
        path = tmp_path / "subset.tsv"
        path.write_text(f"{BUILT_IN_LINE[T.MD5]}\n{BUILT_IN_LINE[T.SHA256]}\n")
        ex = load_catalog(path, default_tld_path())
        assert ex.types == {T.MD5, T.SHA256}
        text = "ip 1.2.3.4 md5 " + "ab" * 16
        assert types_of(ex.extract_raw(text)) == [(T.MD5, "ab" * 16)]

    def test_restrict(self):
        ex = Extractor.default().restrict([T.IP4])
        assert types_of(ex.extract_raw("1.2.3.4 a.com")) == [(T.IP4, "1.2.3.4")]

    def test_pickled_handle_extracts_the_same(self, tmp_path):
        # A handle is pickled as the arguments that build it, as the class
        # promises: a caller's own process pool can send it. The CLI's
        # forked workers inherit theirs and pickle nothing.
        import pickle

        (tmp_path / "tlds.txt").write_text("test\n")
        text = "see host.test and host[.]com, 1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"
        for ex in (
            Extractor([T.FQDN], load_tlds(tmp_path / "tlds.txt")),
            Extractor.default(defanged=False, validation=False),
        ):
            assert pickle.loads(pickle.dumps(ex)).extract_raw(text) == ex.extract_raw(text)

    def test_custom_tld_file_drives_validation(self, tmp_path):
        tlds = tmp_path / "tlds.txt"
        tlds.write_text("test\n")
        ex = Extractor([T.FQDN], load_tlds(tlds))
        got = types_of(ex.extract_raw("see host.test and host.com"))
        assert got == [(T.FQDN, "host.test")]


class TestModes:
    def test_validation_disabled_reports_bad_checksums(self):
        loose = Extractor.default(validation=False)
        text = "addr 1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNb domain foo.invalidtldzz"
        got = types_of(loose.extract_raw(text))
        assert (T.BITCOIN, "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNb") in got
        assert (T.FQDN, "foo.invalidtldzz") in got

    def test_validation_disabled_emits_no_non_ascii_iban(self):
        # The check digits are ASCII, as the run pass and the validator
        # need: with validation off, a run of other digits is no iban.
        loose = Extractor.default(validation=False)
        assert loose.extract("pay GB\u0668\u0662WEST12345698765432 now") == []
        assert loose.extract("pay GB\uff18\uff12WEST12345698765432 now") == []
        assert types_of(loose.extract_raw("pay GB82WEST12345698765432 now")) == [
            (T.IBAN, "GB82WEST12345698765432")
        ]

    def test_defang_disabled_misses_defanged(self):
        plain = Extractor.default(defanged=False)
        assert plain.extract_raw("ping 9[.]9[.]9[.]9") == []
        assert types_of(plain.extract_raw("ping 9.9.9.9")) == [(T.IP4, "9.9.9.9")]


class TestPlantedRoundTrip:
    def test_planted_indicators_recovered(self, rng, forge):
        for _ in range(30):
            planted = []
            for _ in range(rng.randint(3, 8)):
                ind_type = rng.choice(list(T))
                value = forge.value(ind_type)
                planted.append((ind_type, value, render(rng, ind_type, value)))
            text = plant_text(rng, [(t, r) for t, _, r in planted])
            found = {(i.type, i.value) for i in extract(text)}
            for ind_type, value, _ in planted:
                assert (ind_type, normalize(ind_type, value)) in found, (ind_type, value, text)

    def test_offsets_always_correct(self, rng, forge):
        for _ in range(20):
            planted = [
                (t, render(rng, t, forge.value(t)))
                for t in rng.choices(list(T), k=6)
            ]
            text = plant_text(rng, planted)
            for m in extract_raw(text):
                assert text[m.start : m.end] == m.raw


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=400))
def test_invariants_hold_on_arbitrary_text(text):
    # Offset correctness and dedup containment are unconditional.
    raw = extract_raw(text)
    for m in raw:
        assert text[m.start : m.start + len(m.raw)] == m.raw
    dedup = {(i.type, i.value) for i in extract(text)}
    assert dedup == {(m.type, normalize(m.type, m.rearmed)) for m in raw}


@settings(max_examples=100, deadline=None)
@given(
    st.text(
        alphabet=st.sampled_from("abc019.:/@[]()-_ \n\\x备份サ"),
        max_size=300,
    )
)
def test_indicator_shaped_noise_never_crashes(text):
    for m in extract_raw(text):
        assert m.end <= len(text)


@pytest.mark.parametrize(
    "value,ind_type",
    [
        ("٩.٩.٩.٩", T.IP4),
        ("９.９.９.９", T.IP4),
        ("AS١٢٣", T.ASN),
        ("CVE-٢٠٢١-٤٤٢٢٨", T.CVE),
        ("UA-１２３４５-1", T.GOOGLE_ANALYTICS),
    ],
)
def test_non_ascii_digits_rejected(value, ind_type):
    from iockit.validators import validate

    assert not validate(ind_type, value)
    assert extract(f"seen {value} here") == []


_DIGITS = "0123456789" "٠١٢٣٤٥٦٧٨٩" "０１２３４５６７８９"
_DIGIT_SHAPES = ("#.#.#.#", "AS###", "CVE-####-####", "UA-#####-#", "pub-################")


@st.composite
def digit_shaped(draw):
    """An indicator shape whose digits mix ASCII and other Unicode digits."""
    shape = draw(st.sampled_from(_DIGIT_SHAPES))
    digits = iter(draw(st.lists(st.sampled_from(_DIGITS), min_size=shape.count("#"),
                                max_size=shape.count("#"))))
    return "".join(next(digits) if ch == "#" else ch for ch in shape)


@settings(max_examples=200, deadline=None)
@given(st.lists(digit_shaped() | st.text(max_size=20), max_size=8).map(" ".join))
def test_emitted_values_are_ascii_normalization_fixpoints(text):
    for ind in extract(text):
        assert ind.value.isascii(), ind
        assert normalize(ind.type, ind.value) == ind.value, ind


def test_extracted_indicators_satisfy_own_contract(rng, forge):
    # Every deduplicated indicator validates and is a normalization fixpoint.
    from iockit.validators import validate

    planted = [(t, render(rng, t, forge.value(t))) for t in T for _ in range(2)]
    text = plant_text(rng, planted)
    for ind in extract(text):
        assert validate(ind.type, ind.value), ind
        assert normalize(ind.type, ind.value) == ind.value, ind


def test_deterministic_across_runs(rng, forge):
    planted = [(t, forge.value(t)) for t in T]
    text = plant_text(rng, planted)
    first = extract_raw(text)
    second = extract_raw(text)
    assert first == second
    assert extract(text) == extract(text)


def reference_extract_raw(extractor, text, validation=True):
    """extract_raw as one finditer pass per entry, with no anchor and no
    run pass: the scan the planned one must reproduce."""
    per_type = {}
    for entry in extractor.entries:
        for m in re.finditer(entry.expression, text):
            raw = m.group(0)
            if entry.type in (T.URL, T.REGKEY):
                raw = _trim_trailing(raw)
                if not raw:
                    continue
            rearmed = rearm(raw, entry.type)
            if validation and not validate(entry.type, rearmed, extractor.tlds):
                continue
            per_type.setdefault(entry.type, []).append(
                RawMatch(entry.type, m.start(), raw, rearmed)
            )
    results = [m for matches in per_type.values() for m in reference_drop(matches)]
    return sorted(results, key=lambda r: (r.start, r.type.value))


def reference_drop(matches):
    """Keep leftmost-longest RawMatches of one type."""
    kept, last_end = [], -1
    for m in sorted(matches, key=lambda r: (r.start, -len(r.raw))):
        if m.start >= last_end:
            kept.append(m)
            last_end = m.end
    return kept


def reference_extract(extractor, text, validation=True):
    """extract as the deduplicated projection of reference_extract_raw by
    (type, normalized value), ordered by type name then value."""
    seen, out = set(), []
    for m in reference_extract_raw(extractor, text, validation):
        found = Indicator(m.type, normalize(m.type, m.rearmed))
        if found not in seen:
            seen.add(found)
            out.append(found)
    return sorted(out, key=Indicator.sort_key)


def scan_spans(extractor, text):
    """Every match of the planned scan, as sorted (type, start, string)."""
    return sorted(
        (kind.type, start, string)
        for kind, matches in extractor._scan(text)
        for start, string in matches
    )


def reference_spans(extractor, text):
    """Every match of one finditer pass per entry, as sorted (type, start, string)."""
    return sorted(
        (e.type.value, m.start(), m.group())
        for e in extractor.entries
        for m in re.finditer(e.expression, text)
    )


#: Extractors whose planned scan is checked: name -> (factory, validation).
PLANNED = {
    "default": (Extractor.default, True),
    "plain": (lambda: Extractor.default(defanged=False), True),
    "no-validation": (lambda: Extractor.default(validation=False), False),
    "shipped": (lambda: load_catalog(default_catalog_path(), default_tld_path()), True),
    "md5": (lambda: Extractor.default().restrict([T.MD5]), True),
    "ethereum": (lambda: Extractor.default().restrict([T.ETHEREUM]), True),
    "sha1+ethereum": (lambda: Extractor.default().restrict([T.SHA1, T.ETHEREUM]), True),
    "md5+sha512": (lambda: Extractor.default().restrict([T.MD5, T.SHA512]), True),
    # A type named twice runs as one pass: run types sharing the run pass, and
    # an anchored type.
    "hex-twice": (
        lambda: Extractor([T.MD5, T.SHA1, T.MD5, T.ETHEREUM], validation=False), False),
    "email": (lambda: Extractor.default(validation=False).restrict([T.EMAIL]), False),
    "fqdn": (lambda: Extractor.default(validation=False).restrict([T.FQDN]), False),
    "plain-email+fqdn": (
        lambda: Extractor.default(validation=False, defanged=False).restrict([T.EMAIL, T.FQDN]),
        False,
    ),
    "fqdn-twice": (lambda: Extractor([T.FQDN, T.FQDN]), True),
    # Run types whose bodies overlap (a run can be md5, bitcoin and iban at
    # once), beside an anchored pass.
    "runs+asn": (lambda: Extractor([T.MD5, T.BITCOIN, T.IBAN, T.ASN], validation=False), False),
}

#: Texts at the edges of the anchor windows (see patterns.ANCHORS) and of
#: the run pass. For email and fqdn: an anchor exactly its reach after a
#: possible start and one character further; a local part too long from its first character
#: but not from one after a dot form; overlapping at-forms and at-forms
#: inside a local part; anchors inside the previous match; anchors with no
#: match.
ANCHOR_EDGES = [
    " " + "[dot]" * 64 + "@crew.net",
    "(" + "(dot)" * 64 + "[at]crew.net",
    " " + "a" * 64 + "@crew.net",
    " " + "[dot]" * 64 + "a@crew.net",
    " " + "a" * 65 + "@crew.net",
    " " + "a" * 10 + "[dot]" + "a" * 60 + "@crew.net",
    " " + "a" * 63 + ".com",
    " " + "a" * 63 + "[.]com",
    "(" + "a" * 63 + "(dot)com",
    " " + "a" * 64 + ".com",
    "_at_at_evil.com",
    "x_at_at_evil.com",
    "a_at_at_at_b.org",
    "first_at_last@evil.com",
    "first_at_last[at]evil.com",
    "a_at_b_at_c_at_d@evil.com",
    "a_at_b_at_c(at)evil.com",
    "www.example.co.uk",
    "ops@mail.example.com@x.org",
    "x@y.com_at_z.org",
    "x@y.io@z.io " * 3,
    "one.example.com.two.example.org",
    "@@@@ [at] (at) _at_ x@ _at_",
    "end. Next .x [.]y (dot)z 1.2.3.4 a. @.",
    # The other anchors: each exactly its reach after a match start and one
    # character further, overlapping, inside the previous match, and with
    # no match.
    " 123.4.5.6 1234.5.6.7 1[.]2[.]3[.]4 1(dot)22(.)3.4 1.2.3.4.5 9..9.9.9",
    " 123.123.123.123/24 1234.123.123.123/24 10.0.0.0/8/9 1.2.3.4/5 1.2.3.4/5",
    " abcd:abcd::1 abcde:abcd::1 :abcd:1 fe80::1::2 ::1 ::2 1:2:3:4:5:6:7:8 ::: a:b",
    "hxxps[:]//a.io xhxxps[:]//a.io https://b.io http:///x ftp://a//b http://c//d",
    " 123456789012345678:abcdef:ghijkl 1234567890123456789:abcdef:ghijkl",
    "1:abcdef:abcdef:abcdef 3:abcdef:ghijkl:3:abcdef:ghijkl",
    "CVE-2021-1234 xCVE-2021-1234 CVE-CVE-2021-1234-2021-1234 cVe-2021-12345678",
    "UA-1234-1 UA-1234-12345 UA-UA-1234-1-1234 ua-12345678901",
    "ca-pub-1234567890123456 pub-1234567890123456 xca-pub-1234567890123456 "
    "CA-PUB-pub-1234567890123456",
    " " + "a" * 16 + ".onion " + "b" * 56 + ".onion " + "c" * 57 + ".onion "
    + "d" * 16 + ".onion.onion",
    "0a:1b:2c:3d:4e:5f 0a-1b-2c-3d-4e-5f- 0a:1b:2c:3d:4e:5f:0a 0a:1b-2c:3d-4e:5f --0a--",
    "HKEY_PERFORMANCE_DATA\\x HKEY_LOCAL_MACHINE\\a\\b hkcu\\\\x HKCC\\a HKU\\b",
    "H\u212aLM\\Run HKEY_CLA\u017f\u017fES_ROOT\\x a\u017f12 AS\u0661\u0662 as\u0661",
    "\u0130 CVE-2021-1234 \u0130\u0130 x@y.com \u0130 1.2.3.4 \u0130::1",
    # Runs: at the shortest and longest lengths, one past the longest, of
    # several types at once, and beside other digits.
    "AB12CCCCCCCCCCC " + "0" * 128 + " " + "0" * 129 + " 0x" + "ab" * 20,
    "1" + "abcdef123" * 3 + "abcd AB12" + "ABCDEF0123456789ABCDEF012345",
    "GB\u0668\u0662WEST12345698765432 d41d8cd98f00b204e9800998ecf8427e\u0661",
    # Runs that start and end the text, that follow a non-ASCII letter or
    # digit, and that follow each defanged separator form.
    "d41d8cd98f00b204e9800998ecf8427e 0x" + "ab" * 20,
    "\u00e9d41d8cd98f00b204e9800998ecf8427e \u0663" + "ab" * 20
    + " \uff12GB82WEST12345698765432",
    "".join(rule.pattern + "d41d8cd98f00b204e9800998ecf8427e" for rule in DEFAULT_RULES),
]


@pytest.mark.parametrize("name", PLANNED)
def test_run_pass_holds_every_run_type(name):
    # One run pass whenever the extractor holds a run type, however many;
    # every other type is an anchored pass of its own.
    extractor = PLANNED[name][0]()
    run_types = extractor.types & RUN_BODIES.keys()
    assert (extractor._run is not None) is bool(run_types)
    assert {kind.type for kinds in extractor._run_kinds.values() for _, kind in kinds} == run_types
    anchors = ANCHORS[extractor._defanged]
    passes = sorted(
        (kind.type, tuple(anchor.pattern for anchor in compiled))
        for _, compiled, _, _, kind in extractor._passes
    )
    assert passes == sorted((t, anchors[t].expressions) for t in extractor.types - run_types)


@pytest.mark.parametrize("name", PLANNED)
def test_planned_scan_matches_reference_on_corpus(name, planted_corpus):
    factory, validation = PLANNED[name]
    extractor = factory()
    for text in planted_corpus:
        assert scan_spans(extractor, text) == reference_spans(extractor, text)
        assert extractor.extract_raw(text) == reference_extract_raw(extractor, text, validation)
        assert extractor.extract(text) == reference_extract(extractor, text, validation)


@pytest.mark.parametrize("name", PLANNED)
@settings(max_examples=100, deadline=None)
@given(text=plan_shaped)
def test_planned_scan_matches_reference_on_gate_shaped_text(name, text):
    factory, validation = PLANNED[name]
    extractor = factory()
    assert scan_spans(extractor, text) == reference_spans(extractor, text)
    assert extractor.extract_raw(text) == reference_extract_raw(extractor, text, validation)
    assert extractor.extract(text) == reference_extract(extractor, text, validation)


@pytest.mark.parametrize("name", PLANNED)
@pytest.mark.parametrize("edge", range(len(ANCHOR_EDGES)))
def test_planned_scan_matches_reference_on_anchor_edges(name, edge):
    factory, validation = PLANNED[name]
    extractor = factory()
    text = ANCHOR_EDGES[edge]
    assert scan_spans(extractor, text) == reference_spans(extractor, text)
    assert extractor.extract_raw(text) == reference_extract_raw(extractor, text, validation)
    assert extractor.extract(text) == reference_extract(extractor, text, validation)


#: Matches of each anchored and run type, defanged ones included, to
#: mutate one character at a time.
PLAN_SAMPLES = {
    T.IP4: ("192.168.10.1", "9[.]9(dot)9(.)9"),
    T.IP4CIDR: ("10.20.30.40/24",),
    T.IP6: ("fe80::1:2", "::ffff:1.2.3.4", "1234:5678::9"),
    T.FQDN: ("mail.example.com", "bad[.]example(dot)org"),
    T.URL: ("https://a.io:80/x", "hxxps[:]//b[.]io/y", "ftp://c.io"),
    T.EMAIL: ("ops@crew.net", "a.b_at_c[.]io"),
    T.SSDEEP: ("3072:AXGBicFlgVNh:AXGHsN",),
    T.CVE: ("CVE-2021-44228",),
    T.GOOGLE_ANALYTICS: ("UA-4422107-12",),
    T.GOOGLE_ADSENSE: ("ca-pub-1234567890123456", "pub-1234567890123456"),
    T.ONION_ADDRESS: ("expyuzz4wqqyqhjn.onion",),
    T.MAC_ADDRESS: ("0a:1b:2c:3d:4e:5f", "0A-1B-2C-3D-4E-5F"),
    T.REGKEY: ("HKLM\\Run", "HKEY_CLASSES_ROOT\\x"),
    T.ASN: ("AS13335", "asn64512"),
    T.MD5: ("d41d8cd98f00b204e9800998ecf8427e",),
    T.ETHEREUM: ("0x" + "ab" * 20,),
    T.BITCOIN: ("1BoatSLRHtKNngkdXEeobR76b53LETtpyT",),
    T.IBAN: ("GB82WEST12345698765432",),
}


def _code_point_classes():
    """ASCII, every code point past it that \\d or a case-insensitive ASCII
    letter accepts, and one of each kind of the rest: a \\w character, a
    space and neither. Past ASCII, the built-in expressions tell code points
    apart only by \\d, \\w, \\s and case folding, so any other code point
    acts as one of the last three."""
    wider = re.compile(r"\d|(?i:[a-z])")
    every = (chr(i) for i in range(128, sys.maxunicode + 1))
    return [chr(i) for i in range(128)] + [c for c in every if wider.match(c)] + ["é", "\u3000", "€"]


def test_plan_accepts_every_code_point_its_expression_does():
    # Each character of a match in turn is replaced by each code point: the
    # planned scan must find what the type's expression finds. So at each
    # position an anchor, a start or a run body accepts the code points the
    # expression accepts there (\d's other digits, U+017F for (?i:S),
    # U+212A for (?i:K)), and no lowered copy of the text shifts offsets.
    code_points = _code_point_classes()
    assert {"\u0663", "\uff19", "\u017f", "\u212a", "\u0131", "\u0130"} <= set(code_points)
    assert PLAN_SAMPLES.keys() == ANCHORS[True].keys() | {T.MD5, T.ETHEREUM, T.BITCOIN, T.IBAN}
    for ind_type, samples in PLAN_SAMPLES.items():
        for defanged in (True, False):
            extractor = Extractor([ind_type], validation=False, defanged=defanged)
            for sample in samples:
                for i in range(len(sample)):
                    text = "\n".join(f"{sample[:i]}{c}{sample[i + 1:]}" for c in code_points)
                    assert scan_spans(extractor, text) == reference_spans(extractor, text), (
                        ind_type, defanged, sample, i)


def test_url_path_is_ascii_without_whitespace_or_delimiters():
    every_code_point = "".join(map(chr, range(sys.maxunicode + 1)))
    matched = set(re.findall(_URL_PATH_CHAR, every_code_point))
    ascii_chars = map(chr, range(128))
    assert matched == {ch for ch in ascii_chars if not ch.isspace() and ch not in "<>\"'`"}
