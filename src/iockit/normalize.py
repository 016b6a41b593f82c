"""Value canonicalization so outputs from different tools compare equal."""
from __future__ import annotations

import re
from typing import Callable

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


def _asn(value: str) -> str:
    m = _ASN_VALUE.match(value)
    return f"AS{m.group(1)}" if m else value


def _url(value: str) -> str:
    return value if _URL_SCHEME.match(value) else "http://" + value


def _cve(value: str) -> str:
    return _CVE_PREFIX.sub("CVE-", value)


#: Type -> its canonicalization, None where a value is its own canonical form.
NORMALIZERS: dict[IndicatorType, Callable[[str], str] | None] = {
    t: str.lower if t in LOWERCASED_TYPES else None for t in IndicatorType
} | {_T.ASN: _asn, _T.URL: _url, _T.CVE: _cve}


def normalize(type: IndicatorType, value: str) -> str:
    """Canonical form of an armed indicator value. Total and idempotent.

    Lowercases case-insensitive types, rewrites AS numbers to ``AS1234``,
    prepends ``http://`` to scheme-less URLs, and uppercases the CVE
    prefix. Case-significant values (bitcoin, ethereum) pass through
    untouched because their case carries checksum information.
    """
    canonical = NORMALIZERS.get(type)
    return value if canonical is None else canonical(value)
