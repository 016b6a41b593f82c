"""Dynamic blocklist built from corpus statistics; splits indicators into
IOCs and generic indicators.

An indicator is generic when at least one rule fires:
  1. fqdn/url/email whose domain belongs to a monitored origin;
  2. extracted from at least ``min_origin_docs`` documents of one origin;
  3. fqdn/url whose domain (minus a "www." prefix) is in the popularity
     snapshot (top-100k);
  4. present in more than ``doc_freq_threshold`` of all documents;
  5. a private/loopback/link-local IPv4 address.

Rules 1 and 3 also compare a host's registrable domain, its public suffix
plus one label; the suffix is the longest matching rule of the pinned
snapshot ``data/public_suffixes.dat`` (``*.`` wildcards included), else the
last label, unless an ``!`` exception rule matches: the longest one prevails,
counting one label shorter. To use the full Public Suffix List, replace that
file, whose line format is the same.
"""
from __future__ import annotations

import ipaddress
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import DATA, MalformedLineError, read_lines
from .normalize import URL_HOST, URL_SCHEME
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
_URL_HOST = re.compile(rf"{URL_SCHEME}(?:[^/?#@\s]*@)?(?P<host>{URL_HOST})")

RULE_NAMES = (
    "origin_domain",
    "frequent_per_origin",
    "popular_domain",
    "ubiquitous",
    "private_ip",
)


def _suffix_rules(path: str | Path) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """The plain, wildcard (without "*.") and exception (without "!") rules
    of a public-suffix file: one rule per line; '//' and '#' comments
    allowed."""
    plain, wildcard, exception = set(), set(), set()
    for _, line in read_lines(path):
        line = line.strip().lower()
        if line.startswith("//"):
            continue
        if line.startswith("!"):
            exception.add(line[1:])
        elif line.startswith("*."):
            wildcard.add(line[2:])
        else:
            plain.add(line)
    return frozenset(plain), frozenset(wildcard), frozenset(exception)


_PLAIN_SUFFIXES, _WILDCARD_SUFFIXES, _EXCEPTION_SUFFIXES = _suffix_rules(
    DATA / "public_suffixes.dat"
)


def registrable_domain(host: str) -> str | None:
    """The registered (public suffix + 1 label) domain of ``host``, or None
    when ``host`` is empty, has no dot or an empty label, or is itself a
    public suffix."""
    host = host.strip().strip(".").lower()
    if not host or "." not in host:
        return None
    labels = host.split(".")
    if any(not lbl for lbl in labels):
        return None
    suffix = 1  # labels in the public suffix; 1 is the implicit "*" rule
    exception = None
    for take in range(1, len(labels) + 1):
        candidate = ".".join(labels[-take:])
        if candidate in _EXCEPTION_SUFFIXES:
            # An exception rule makes the matched name registrable itself.
            exception = take - 1
        elif candidate in _PLAIN_SUFFIXES:
            suffix = take
        elif take >= 2 and ".".join(labels[-take + 1 :]) in _WILDCARD_SUFFIXES:
            suffix = take
    if exception is not None:
        # The longest matching exception prevails over every other rule.
        suffix = exception
    if suffix >= len(labels):
        return None
    return ".".join(labels[-(suffix + 1) :])


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


def _domain_candidates(indicator: Indicator) -> set[str]:
    """Lookup keys for the domain rules: the www-stripped host plus its
    registrable (public-suffix aware) domain."""
    host = indicator_host(indicator)
    if not host:
        return set()
    stripped = host[4:] if host.startswith("www.") else host
    candidates = {stripped}
    reg = registrable_domain(stripped)
    if reg:
        candidates.add(reg)
    return candidates


class CorpusStats:
    """Accumulates per-origin and per-corpus indicator counts, one document
    at a time."""

    def __init__(self):
        self.origin_domains: set[str] = set()
        self.per_origin_doc_counts: Counter = Counter()
        self.doc_counts: Counter = Counter()
        self.total_docs = 0

    def add_document(self, origins: Sequence[str], indicators: Iterable[Indicator]) -> None:
        """Record one document's deduplicated indicators. Call once per doc.
        Each origin is a monitored origin; a domain-shaped origin name (the
        part after any ``kind:`` prefix) feeds rule 1."""
        unique = set(indicators)
        self.total_docs += 1
        for origin in origins:
            _, _, name = origin.partition(":")
            name = (name or origin).strip().lower()
            if reg := registrable_domain(name):
                self.origin_domains.add(reg)
            for ind in unique:
                self.per_origin_doc_counts[(origin, ind)] += 1
        self.doc_counts.update(unique)

    def ubiquitous(self, threshold: float) -> frozenset[tuple[IndicatorType, str]]:
        """Rule 4: the indicators in strictly more than ``threshold`` of all
        documents, compared exactly (as the decimal the threshold prints as)
        in integers."""
        limit = Fraction(str(threshold))
        denominator, bound = limit.denominator, limit.numerator * self.total_docs
        return frozenset(
            key for key, count in self.doc_counts.items() if count * denominator > bound
        )


class DynamicBlocklist(NamedTuple):
    """Compiled filter state; immutable and shared read-only by workers."""

    origin_domains: frozenset[str]
    frequent_per_origin: frozenset[tuple[IndicatorType, str]]
    popular_domains: frozenset[str]
    ubiquitous: frozenset[tuple[IndicatorType, str]]


def load_tranco(path: str | Path) -> frozenset[str]:
    """Load a ``rank,domain`` popularity snapshot, keeping the first
    ``TRANCO_TOP_N`` ranks; '#' comments allowed. A rank is ASCII digits."""
    domains: set[str] = set()
    for line_no, line in read_lines(path):
        rank, sep, domain = line.partition(",")
        rank, domain = rank.strip(), domain.strip()
        if not sep or not (rank.isascii() and rank.isdigit()) or not domain:
            message = f"expected 'rank,domain', got {line.strip()!r}"
            raise MalformedLineError(path, line_no, message)
        if int(rank) <= TRANCO_TOP_N:
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
    return DynamicBlocklist(
        origin_domains=frozenset(stats.origin_domains),
        frequent_per_origin=frequent,
        popular_domains=load_tranco(tranco_file),
        ubiquitous=stats.ubiquitous(doc_freq_threshold),
    )


def blocking_rule(indicator: Indicator, blocklist: DynamicBlocklist) -> str | None:
    """Name of the first rule (in rule order 1..5) that marks the indicator
    generic, or None when the indicator is an IOC."""
    # An Indicator equals, and hashes as, the tuple of its (type, value):
    # the rule 2 and 4 sets can hold either.
    candidates: set[str] | None = None
    if indicator.type in _DOMAIN_RULE_TYPES:
        candidates = _domain_candidates(indicator)
        if candidates & blocklist.origin_domains:
            return "origin_domain"
    if indicator in blocklist.frequent_per_origin:
        return "frequent_per_origin"
    if indicator.type in _POPULARITY_RULE_TYPES:
        assert candidates is not None
        if candidates & blocklist.popular_domains:
            return "popular_domain"
    if indicator in blocklist.ubiquitous:
        return "ubiquitous"
    if indicator.type is _T.IP4:
        try:
            address = ipaddress.IPv4Address(indicator.value)
        except ValueError:
            return None
        if any(address in net for net in PRIVATE_IPV4_NETWORKS):
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
