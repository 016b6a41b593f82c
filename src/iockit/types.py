"""Indicator taxonomy and the value types shared by every other module."""
from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import UnknownTypeError


class IndicatorType(str, enum.Enum):
    """The closed set of supported indicator types.

    The enum value is the canonical name and appears verbatim in all
    JSON/CSV outputs.
    """

    IP4 = "ip4"
    IP4CIDR = "ip4cidr"
    IP6 = "ip6"
    FQDN = "fqdn"
    URL = "url"
    EMAIL = "email"
    MD5 = "md5"
    SHA1 = "sha1"
    SHA256 = "sha256"
    SHA512 = "sha512"
    SSDEEP = "ssdeep"
    CVE = "cve"
    ASN = "asn"
    BITCOIN = "bitcoin"
    ETHEREUM = "ethereum"
    MONERO = "monero"
    ONION_ADDRESS = "onionAddress"
    IBAN = "iban"
    MAC_ADDRESS = "macAddress"
    REGKEY = "regkey"
    GOOGLE_ADSENSE = "googleAdsense"
    GOOGLE_ANALYTICS = "googleAnalytics"

    def __str__(self) -> str:
        return self.value


#: Alternate spellings used by third-party tools, keyed lowercase.
#: Canonical names map to themselves (added programmatically below).
_ALIASES: dict[str, IndicatorType] = {
    "ip": IndicatorType.IP4,
    "ipv4": IndicatorType.IP4,
    "ipv4addr": IndicatorType.IP4,
    "ipv4address": IndicatorType.IP4,
    "ip_address": IndicatorType.IP4,
    "ipaddress": IndicatorType.IP4,
    "ipv4cidr": IndicatorType.IP4CIDR,
    "cidr": IndicatorType.IP4CIDR,
    "ipv4_cidr": IndicatorType.IP4CIDR,
    "ipv6": IndicatorType.IP6,
    "ipv6addr": IndicatorType.IP6,
    "ipv6address": IndicatorType.IP6,
    "domain": IndicatorType.FQDN,
    "domains": IndicatorType.FQDN,
    "hostname": IndicatorType.FQDN,
    "host": IndicatorType.FQDN,
    "domainname": IndicatorType.FQDN,
    "uri": IndicatorType.URL,
    "urls": IndicatorType.URL,
    "link": IndicatorType.URL,
    "emailaddr": IndicatorType.EMAIL,
    "emailaddress": IndicatorType.EMAIL,
    "email_address": IndicatorType.EMAIL,
    "emails": IndicatorType.EMAIL,
    "md5s": IndicatorType.MD5,
    "md5_hash": IndicatorType.MD5,
    "sha-1": IndicatorType.SHA1,
    "sha1_hash": IndicatorType.SHA1,
    "sha-256": IndicatorType.SHA256,
    "sha256_hash": IndicatorType.SHA256,
    "sha-512": IndicatorType.SHA512,
    "sha512_hash": IndicatorType.SHA512,
    "fuzzyhash": IndicatorType.SSDEEP,
    "fuzzy_hash": IndicatorType.SSDEEP,
    "cves": IndicatorType.CVE,
    "vulnerability": IndicatorType.CVE,
    "as": IndicatorType.ASN,
    "asnum": IndicatorType.ASN,
    "autonomous_system": IndicatorType.ASN,
    "btc": IndicatorType.BITCOIN,
    "bitcoinaddress": IndicatorType.BITCOIN,
    "bitcoin_address": IndicatorType.BITCOIN,
    "eth": IndicatorType.ETHEREUM,
    "ethereumaddress": IndicatorType.ETHEREUM,
    "xmr": IndicatorType.MONERO,
    "onion": IndicatorType.ONION_ADDRESS,
    "onion_address": IndicatorType.ONION_ADDRESS,
    "toraddress": IndicatorType.ONION_ADDRESS,
    "ibans": IndicatorType.IBAN,
    "bankaccount": IndicatorType.IBAN,
    "mac": IndicatorType.MAC_ADDRESS,
    "macaddr": IndicatorType.MAC_ADDRESS,
    "mac_address": IndicatorType.MAC_ADDRESS,
    "regkeys": IndicatorType.REGKEY,
    "registrykey": IndicatorType.REGKEY,
    "registry_key": IndicatorType.REGKEY,
    "registry": IndicatorType.REGKEY,
    "regkeypath": IndicatorType.REGKEY,
    "adsense": IndicatorType.GOOGLE_ADSENSE,
    "google_adsense": IndicatorType.GOOGLE_ADSENSE,
    "analytics": IndicatorType.GOOGLE_ANALYTICS,
    "google_analytics": IndicatorType.GOOGLE_ANALYTICS,
    "ga_tracking_id": IndicatorType.GOOGLE_ANALYTICS,
}
_ALIASES.update({t.value.lower(): t for t in IndicatorType})


def normalize_type_name(alias: str) -> IndicatorType:
    """Map a type name or third-party alias to the canonical IndicatorType.

    Lookup is case-insensitive; canonical names map to themselves.
    Raises UnknownTypeError for names outside the supported set.
    """
    if not alias:
        raise UnknownTypeError("empty type name")
    try:
        return _ALIASES[alias.strip().lower()]
    except KeyError:
        raise UnknownTypeError(f"unsupported indicator type: {alias!r}") from None


class RawMatch(NamedTuple):
    """A single validated regex hit, prior to deduplication.

    ``start`` is a character offset into the source text, so
    ``text[start : start + len(raw)] == raw`` always holds. ``rearmed``
    equals ``raw`` when the match contains no defang transformation.
    """

    type: IndicatorType
    start: int
    raw: str
    rearmed: str

    @property
    def end(self) -> int:
        return self.start + len(self.raw)


class Indicator(NamedTuple):
    """A deduplicated, rearmed, normalized (type, value) pair."""

    type: IndicatorType
    value: str

    def sort_key(self) -> tuple[str, str]:
        return (self.type.value, self.value)
