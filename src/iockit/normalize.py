"""Value canonicalization so outputs from different tools compare equal."""
from __future__ import annotations

import re

from .types import IndicatorType

_T = IndicatorType

#: Case-insensitive types whose values are folded to lowercase.
LOWERCASED_TYPES = frozenset(
    {_T.MD5, _T.SHA1, _T.SHA256, _T.SHA512, _T.SSDEEP, _T.REGKEY, _T.IP6, _T.FQDN, _T.EMAIL}
)

_ASN_VALUE = re.compile(r"(?i)\A(?:asn?)?\s?(\d{1,10})\Z")
#: URL syntax for validators and the filter: a scheme with its ``://``, a host.
URL_SCHEME = "[A-Za-z][A-Za-z0-9+.-]*://"
URL_HOST = r"(?:\[[^\]]*\]|[^/?#:\s]*)"
_URL_SCHEME = re.compile(URL_SCHEME)
_CVE_PREFIX = re.compile(r"(?i)\Acve-")


def normalize(type: IndicatorType, value: str) -> str:
    """Canonical form of an armed indicator value. Total and idempotent.

    Lowercases case-insensitive types, rewrites AS numbers to ``AS1234``,
    prepends ``http://`` to scheme-less URLs, and uppercases the CVE
    prefix. Case-significant values (bitcoin, ethereum) pass through
    untouched because their case carries checksum information.
    """
    if type in LOWERCASED_TYPES:
        return value.lower()
    if type is _T.ASN:
        m = _ASN_VALUE.match(value)
        return f"AS{m.group(1)}" if m else value
    if type is _T.URL:
        if not _URL_SCHEME.match(value):
            return "http://" + value
        return value
    if type is _T.CVE:
        return _CVE_PREFIX.sub("CVE-", value)
    return value
