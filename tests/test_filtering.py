import operator
from collections import Counter
from fractions import Fraction
from importlib.resources import files

import pytest
from hypothesis import given, strategies as st

from iockit.errors import MalformedLineError, MissingFileError
from iockit.filtering import (
    DEFAULT_DOC_FREQ_THRESHOLD,
    DEFAULT_MIN_ORIGIN_DOCS,
    PRIVATE_IPV4_NETWORKS,
    CorpusStats,
    DynamicBlocklist,
    apply_filter,
    blocking_rule,
    build_blocklist,
    load_tranco,
)
from iockit.types import Indicator, IndicatorType

T = IndicatorType

SHIPPED_TRANCO = str(files("iockit").joinpath("data", "tranco_snapshot.csv"))


def ind(type_, value):
    return Indicator(type_, value)


def empty_blocklist(**overrides) -> DynamicBlocklist:
    base = dict(
        origin_domains=frozenset(),
        frequent_per_origin=frozenset(),
        popular_domains=frozenset(),
        ubiquitous=frozenset(),
    )
    base.update(overrides)
    return DynamicBlocklist(**base)


def make_tranco(tmp_path, domains):
    path = tmp_path / "tranco.csv"
    path.write_text("".join(f"{i},{d}\n" for i, d in enumerate(domains, 1)))
    return path


class TestBuildBlocklist:
    def test_per_origin_threshold_boundary(self, tmp_path):
        tranco = make_tranco(tmp_path, ["google.com"])
        stats = CorpusStats()
        frequent = ind(T.FQDN, "footer.vendor.com")
        rare = ind(T.FQDN, "rare.vendor.com")
        for i in range(20):
            stats.add_document(["rss:a"], [frequent] + ([rare] if i < 19 else []))
        blocklist = build_blocklist(stats, tranco)
        assert (T.FQDN, "footer.vendor.com") in blocklist.frequent_per_origin
        assert (T.FQDN, "rare.vendor.com") not in blocklist.frequent_per_origin

    def test_per_origin_counts_distinct_docs_not_occurrences(self, tmp_path):
        tranco = make_tranco(tmp_path, ["google.com"])
        stats = CorpusStats()
        # The same indicator many times within one document counts once.
        stats.add_document(["rss:a"], [ind(T.FQDN, "x.com")] * 50)
        blocklist = build_blocklist(stats, tranco, min_origin_docs=20)
        assert (T.FQDN, "x.com") not in blocklist.frequent_per_origin

    def test_threshold_spans_origins_independently(self, tmp_path):
        tranco = make_tranco(tmp_path, ["google.com"])
        stats = CorpusStats()
        spread = ind(T.IP4, "203.0.113.9")
        # 10 docs from each of two origins: no single origin reaches 20.
        for origin in ("rss:a", "rss:b"):
            for _ in range(10):
                stats.add_document([origin], [spread])
        blocklist = build_blocklist(stats, tranco)
        assert (T.IP4, "203.0.113.9") not in blocklist.frequent_per_origin

    def test_doc_frequency_boundary_exclusive(self, tmp_path):
        tranco = make_tranco(tmp_path, ["google.com"])
        at_limit = ind(T.IP4, "198.51.100.1")
        above = ind(T.IP4, "198.51.100.2")
        stats = CorpusStats()
        for i in range(1000):
            present = [above] if i < 901 else []
            if i < 900:
                present.append(at_limit)
            stats.add_document(["rss:a"], present)
        blocklist = build_blocklist(stats, tranco, min_origin_docs=10_000)
        # 900/1000 is exactly 90.0%: not blocked. 901/1000 is 90.1%: blocked.
        assert (T.IP4, "198.51.100.1") not in blocklist.ubiquitous
        assert (T.IP4, "198.51.100.2") in blocklist.ubiquitous

    def test_origin_domains_derived_from_domain_shaped_origins(self, tmp_path):
        tranco = make_tranco(tmp_path, ["google.com"])
        stats = CorpusStats()
        stats.add_document(["rss:krebsonsecurity.com"], [])
        stats.add_document(["twitter:briankrebs"], [])
        blocklist = build_blocklist(stats, tranco)
        assert blocklist.origin_domains == frozenset({"krebsonsecurity.com"})


class TestTranco:
    def test_shipped_snapshot_loads(self):
        domains = load_tranco(SHIPPED_TRANCO)
        assert "google.com" in domains

    def test_rank_cap(self, tmp_path):
        path = tmp_path / "tranco.csv"
        path.write_text("".join(f"{rank},site{rank}.com\n" for rank in range(99_999, 100_002)))
        assert load_tranco(path) == frozenset({"site99999.com", "site100000.com"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,good.com\nnot-a-rank,x.com\n")
        with pytest.raises(MalformedLineError) as err:
            load_tranco(path)
        assert err.value.line_no == 2
        assert err.value.path == str(path)

    @pytest.mark.parametrize("rank", ["\u00b2", "\u0661", "\uff11"])
    def test_rank_is_ascii_digits(self, tmp_path, rank):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,good.com\n{rank},example.com\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as err:
            load_tranco(path)
        assert (err.value.path, err.value.line_no) == (str(path), 2)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "top.csv"
        path.write_text("# rank,domain\n\n1,a.com\n  # 2,b.com\n3,c.com\n")
        assert load_tranco(path) == frozenset({"a.com", "c.com"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_tranco(tmp_path / "absent.csv")


class TestApplyFilter:
    def test_private_ip_generic(self):
        iocs, generic = apply_filter([ind(T.IP4, "192.168.1.1")], empty_blocklist())
        assert iocs == [] and generic == [ind(T.IP4, "192.168.1.1")]

    @pytest.mark.parametrize(
        "address", ["10.1.2.3", "172.16.0.1", "172.31.255.255", "127.0.0.1", "169.254.9.9"]
    )
    def test_all_private_ranges(self, address):
        assert blocking_rule(ind(T.IP4, address), empty_blocklist()) == "private_ip"

    @pytest.mark.parametrize("address", ["8.8.8.8", "172.32.0.1", "192.169.0.1"])
    def test_public_ips_kept(self, address):
        assert blocking_rule(ind(T.IP4, address), empty_blocklist()) is None

    def test_tranco_domain_generic_www_stripped(self):
        blocklist = empty_blocklist(popular_domains=load_tranco(SHIPPED_TRANCO))
        assert blocking_rule(ind(T.FQDN, "www.google.com"), blocklist) == "popular_domain"
        assert blocking_rule(ind(T.FQDN, "google.com"), blocklist) == "popular_domain"
        assert (
            blocking_rule(ind(T.URL, "http://drive.google.com/x"), blocklist)
            == "popular_domain"
        )

    def test_unlisted_fqdn_is_ioc(self):
        blocklist = empty_blocklist(popular_domains=load_tranco(SHIPPED_TRANCO))
        assert blocking_rule(ind(T.FQDN, "xk7-c2-panel.example-rare.biz"), blocklist) is None

    def test_popularity_rule_skips_email(self):
        # Rule 3 covers fqdn and url only: a mail address on a popular
        # domain can still be an IOC.
        blocklist = empty_blocklist(popular_domains=frozenset({"gmail.com"}))
        assert blocking_rule(ind(T.EMAIL, "ransom-op@gmail.com"), blocklist) is None
        assert blocking_rule(ind(T.FQDN, "gmail.com"), blocklist) == "popular_domain"

    def test_origin_domain_rule_covers_email(self):
        blocklist = empty_blocklist(origin_domains=frozenset({"trendmicro.com"}))
        assert blocking_rule(ind(T.EMAIL, "contact@trendmicro.com"), blocklist) == "origin_domain"
        assert blocking_rule(ind(T.FQDN, "blog.trendmicro.com"), blocklist) == "origin_domain"
        assert (
            blocking_rule(ind(T.URL, "https://www.trendmicro.com/research"), blocklist)
            == "origin_domain"
        )

    def test_frequent_and_ubiquitous_membership(self):
        key = (T.SHA256, "ab" * 32)
        blocklist = empty_blocklist(frequent_per_origin=frozenset({key}))
        assert blocking_rule(ind(*key), blocklist) == "frequent_per_origin"
        blocklist = empty_blocklist(ubiquitous=frozenset({key}))
        assert blocking_rule(ind(*key), blocklist) == "ubiquitous"

    def test_rule_attribution_order(self):
        # origin_domain (rule 1) wins over popular_domain (rule 3).
        blocklist = empty_blocklist(
            origin_domains=frozenset({"example.com"}),
            popular_domains=frozenset({"example.com"}),
        )
        assert blocking_rule(ind(T.FQDN, "example.com"), blocklist) == "origin_domain"

    def test_partition_total_and_disjoint(self, rng, forge):
        blocklist = empty_blocklist(popular_domains=load_tranco(SHIPPED_TRANCO))
        indicators = [ind(t, forge.value(t)) for t in T for _ in range(3)]
        iocs, generic = apply_filter(indicators, blocklist)
        assert len(iocs) + len(generic) == len(indicators)
        assert set(iocs).isdisjoint(set(generic))

    def test_monotonicity(self, rng, forge):
        small = empty_blocklist()
        indicators = [ind(t, forge.value(t)) for t in T for _ in range(2)]
        big = empty_blocklist(
            popular_domains=load_tranco(SHIPPED_TRANCO),
            ubiquitous=frozenset((i.type, i.value) for i in indicators[:5]),
        )
        _, generic_small = apply_filter(indicators, small)
        _, generic_big = apply_filter(indicators, big)
        assert set(generic_small) <= set(generic_big)


class TestStatsMerge:
    def test_doc_frequency_fractions(self):
        # In one document of two: above a threshold of 0.49, not above 0.5.
        stats = CorpusStats()
        stats.add_document(["rss:a"], [ind(T.IP4, "1.1.1.1")])
        stats.add_document(["rss:a"], [])
        assert stats.ubiquitous(0.49) == {(T.IP4, "1.1.1.1")}
        assert stats.ubiquitous(0.5) == frozenset()

    @pytest.mark.parametrize("threshold", [
        0.9, 0.0, 1.0, -0.5, 1e-05, 5e-324, 1.5e+16, 1.7976931348623157e+308,
        0.30000000000000004, 2 / 3,
    ])
    def test_doc_frequency_is_the_printed_decimal(self, threshold):
        self.check_doc_frequency(threshold)

    @given(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.builds(operator.truediv, st.integers(0, 1000), st.integers(1, 1000)),
    ))
    def test_doc_frequency_of_any_float_is_the_printed_decimal(self, threshold):
        self.check_doc_frequency(threshold)

    @staticmethod
    def check_doc_frequency(threshold):
        # Rule 4 against the exact decimal the threshold prints as, on every
        # document count up to each corpus size.
        limit = Fraction(str(threshold))
        for total in (0, 1, 2, 3, 7, 10, 100, 999, 1000):
            stats = CorpusStats()
            stats.total_docs = total
            stats.doc_counts = Counter({count: count for count in range(total + 1)})
            expected = {count for count in range(total + 1) if count > limit * total}
            assert stats.ubiquitous(threshold) == expected

    def test_counter_bounds(self, rng, forge):
        stats = CorpusStats()
        for i in range(25):
            origins = [f"rss:o{i % 3}"]
            stats.add_document(origins, [ind(t, forge.value(t)) for t in (T.IP4, T.FQDN)])
        assert all(0 <= c <= stats.total_docs for c in stats.doc_counts.values())
        assert all(c <= stats.total_docs for c in stats.per_origin_doc_counts.values())


def test_private_networks_constant():
    rendered = {str(net) for net in PRIVATE_IPV4_NETWORKS}
    assert rendered == {
        "10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16", "127.0.0.0/8",
        "169.254.0.0/16",
    }
    assert DEFAULT_MIN_ORIGIN_DOCS == 20
    assert DEFAULT_DOC_FREQ_THRESHOLD == 0.90
