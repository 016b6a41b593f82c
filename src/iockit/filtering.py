"""Dynamic blocklist built from corpus statistics; splits indicators into
IOCs and generic indicators.

An indicator is generic when at least one rule fires:
  1. fqdn/url/email whose domain belongs to a monitored origin;
  2. extracted from at least ``min_origin_docs`` documents of one origin;
  3. fqdn/url whose domain (minus a "www." prefix) is in the popularity
     snapshot (top-100k);
  4. present in more than ``doc_freq_threshold`` of all documents;
  5. a private/loopback/link-local IPv4 address.
"""
from __future__ import annotations

import ipaddress
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .domains import SuffixRules, registrable_domain
from .errors import MalformedLineError, read_lines
from .types import Indicator, IndicatorType

_T = IndicatorType

DEFAULT_MIN_ORIGIN_DOCS = 20
DEFAULT_DOC_FREQ_THRESHOLD = 0.90
TRANCO_TOP_N = 100_000

PRIVATE_IPV4_NETWORKS: tuple[ipaddress.IPv4Network, ...] = (
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
    ipaddress.ip_network("127.0.0.0/8"),
    ipaddress.ip_network("169.254.0.0/16"),
)

_DOMAIN_RULE_TYPES = frozenset({_T.FQDN, _T.URL, _T.EMAIL})
_POPULARITY_RULE_TYPES = frozenset({_T.FQDN, _T.URL})
_URL_HOST = re.compile(r"\A[A-Za-z][A-Za-z0-9+.-]*://(?:[^/?#@\s]*@)?(?P<host>\[[^\]]*\]|[^/?#:\s]*)")

RULE_NAMES = (
    "origin_domain",
    "frequent_per_origin",
    "popular_domain",
    "ubiquitous",
    "private_ip",
)


def indicator_host(indicator: Indicator) -> str | None:
    """The hostname embedded in a fqdn/url/email indicator, lowercased."""
    if indicator.type is _T.FQDN:
        return indicator.value.lower()
    if indicator.type is _T.EMAIL:
        _, _, domain = indicator.value.rpartition("@")
        return domain.lower() or None
    if indicator.type is _T.URL:
        m = _URL_HOST.match(indicator.value)
        if m and m.group("host") and not m.group("host").startswith("["):
            return m.group("host").lower().rstrip(".")
        return None
    return None


def _domain_candidates(
    indicator: Indicator, suffix_rules: SuffixRules | None
) -> set[str]:
    """Lookup keys for the domain rules: the www-stripped host plus its
    registrable (public-suffix aware) domain."""
    host = indicator_host(indicator)
    if not host:
        return set()
    stripped = host[4:] if host.startswith("www.") else host
    candidates = {stripped}
    reg = registrable_domain(stripped, suffix_rules)
    if reg:
        candidates.add(reg)
    return candidates


class CorpusStats:
    """Accumulates per-origin and per-corpus indicator counts, one document
    at a time."""

    def __init__(self, suffix_rules: SuffixRules | None = None):
        self.suffix_rules = suffix_rules
        self.origin_domains: set[str] = set()
        self.per_origin_doc_counts: Counter = Counter()
        self.doc_counts: Counter = Counter()
        self.total_docs = 0

    def add_document(self, origins: Sequence[str], indicators: Iterable[Indicator]) -> None:
        """Record one document's deduplicated indicators. Call once per doc."""
        unique = set(indicators)
        self.total_docs += 1
        for origin in origins:
            self.add_origin(origin)
            for ind in unique:
                self.per_origin_doc_counts[(origin, (ind.type, ind.value))] += 1
        for ind in unique:
            self.doc_counts[(ind.type, ind.value)] += 1

    def add_origin(self, origin: str) -> None:
        """Register a monitored origin; domain-shaped origin names feed rule 1."""
        _, _, name = origin.partition(":")
        name = (name or origin).strip().lower()
        if "." in name:
            reg = registrable_domain(name, self.suffix_rules)
            if reg:
                self.origin_domains.add(reg)

    @property
    def doc_frequency(self) -> dict[tuple[IndicatorType, str], Fraction]:
        """Fraction of all documents containing each indicator."""
        if not self.total_docs:
            return {}
        return {
            key: Fraction(count, self.total_docs)
            for key, count in self.doc_counts.items()
        }


@dataclass(frozen=True)
class DynamicBlocklist:
    """Compiled filter state; immutable and shared read-only by workers."""

    origin_domains: frozenset[str]
    frequent_per_origin: frozenset[tuple[IndicatorType, str]]
    popular_domains: frozenset[str]
    ubiquitous: frozenset[tuple[IndicatorType, str]]
    private_networks: tuple[ipaddress.IPv4Network, ...] = PRIVATE_IPV4_NETWORKS
    suffix_rules: SuffixRules | None = field(default=None, compare=False)


def load_tranco(path: str | Path, top_n: int = TRANCO_TOP_N) -> frozenset[str]:
    """Load a ``rank,domain`` popularity snapshot, keeping the first
    ``top_n`` ranks; '#' comments allowed. A rank is ASCII digits."""
    domains: set[str] = set()
    for line_no, line in read_lines(path):
        rank, sep, domain = line.partition(",")
        rank, domain = rank.strip(), domain.strip()
        if not sep or not (rank.isascii() and rank.isdigit()) or not domain:
            message = f"expected 'rank,domain', got {line.strip()!r}"
            raise MalformedLineError(path, line_no, message)
        if int(rank) <= top_n:
            domains.add(domain.lower().rstrip("."))
    return frozenset(domains)


def build_blocklist(
    stats: CorpusStats,
    tranco_file: str | Path,
    min_origin_docs: int = DEFAULT_MIN_ORIGIN_DOCS,
    doc_freq_threshold: float = DEFAULT_DOC_FREQ_THRESHOLD,
) -> DynamicBlocklist:
    """Compile the five filtering rules from corpus statistics.

    Rule 2 counts distinct documents per origin and fires at
    ``>= min_origin_docs``; rule 4 fires strictly above
    ``doc_freq_threshold`` (a document frequency of exactly 90% does not
    block under the default threshold).
    """
    frequent = frozenset(
        key
        for (_origin, key), count in stats.per_origin_doc_counts.items()
        if count >= min_origin_docs
    )
    threshold = Fraction(str(doc_freq_threshold))
    ubiquitous = frozenset(
        key for key, frequency in stats.doc_frequency.items() if frequency > threshold
    )
    return DynamicBlocklist(
        origin_domains=frozenset(stats.origin_domains),
        frequent_per_origin=frequent,
        popular_domains=load_tranco(tranco_file),
        ubiquitous=ubiquitous,
        suffix_rules=stats.suffix_rules,
    )


def blocking_rule(indicator: Indicator, blocklist: DynamicBlocklist) -> str | None:
    """Name of the first rule (in rule order 1..5) that marks the indicator
    generic, or None when the indicator is an IOC."""
    key = (indicator.type, indicator.value)
    candidates: set[str] | None = None
    if indicator.type in _DOMAIN_RULE_TYPES:
        candidates = _domain_candidates(indicator, blocklist.suffix_rules)
        if candidates & blocklist.origin_domains:
            return "origin_domain"
    if key in blocklist.frequent_per_origin:
        return "frequent_per_origin"
    if indicator.type in _POPULARITY_RULE_TYPES:
        assert candidates is not None
        if candidates & blocklist.popular_domains:
            return "popular_domain"
    if key in blocklist.ubiquitous:
        return "ubiquitous"
    if indicator.type is _T.IP4:
        try:
            address = ipaddress.IPv4Address(indicator.value)
        except ValueError:
            return None
        if any(address in net for net in blocklist.private_networks):
            return "private_ip"
    return None


def apply_filter(
    indicators: Sequence[Indicator], blocklist: DynamicBlocklist
) -> tuple[list[Indicator], list[Indicator]]:
    """Partition normalized indicators into (iocs, generic).

    The blocklist is global: rule-2 entries qualify through any origin at
    build time, so the document's own origin does not change membership.
    """
    iocs: list[Indicator] = []
    generic: list[Indicator] = []
    for indicator in indicators:
        if blocking_rule(indicator, blocklist) is None:
            iocs.append(indicator)
        else:
            generic.append(indicator)
    return iocs, generic
