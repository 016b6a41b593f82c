import enum
import json

import pytest
from hypothesis import given, strategies as st

from iockit.cli import _quote
from iockit.errors import UnknownTypeError
from iockit.types import Indicator, IndicatorType, RawMatch, normalize_type_name


@pytest.mark.parametrize(
    "alias,expected",
    [
        ("ipv4addr", IndicatorType.IP4),
        ("ip", IndicatorType.IP4),
        ("ipv4", IndicatorType.IP4),
        ("fqdn", IndicatorType.FQDN),
        ("FQDN", IndicatorType.FQDN),
        ("domain", IndicatorType.FQDN),
        ("hostname", IndicatorType.FQDN),
        ("Registry_Key", IndicatorType.REGKEY),
        ("onionaddress", IndicatorType.ONION_ADDRESS),
        ("MACADDRESS", IndicatorType.MAC_ADDRESS),
        ("btc", IndicatorType.BITCOIN),
    ],
)
def test_normalize_type_name(alias, expected):
    assert normalize_type_name(alias) is expected


def test_canonical_set_is_closed():
    names = {t.value for t in IndicatorType}
    assert len(names) == 22
    assert names == {
        "ip4", "ip4cidr", "ip6", "fqdn", "url", "email", "md5", "sha1",
        "sha256", "sha512", "ssdeep", "cve", "asn", "bitcoin", "ethereum",
        "monero", "onionAddress", "iban", "macAddress", "regkey",
        "googleAdsense", "googleAnalytics",
    }


def test_normalize_type_name_idempotent_on_canonical():
    for ind_type in IndicatorType:
        assert normalize_type_name(ind_type.value) is ind_type


@pytest.mark.parametrize("bad", ["", "yara", "filename", "ip5", "what"])
def test_unknown_aliases_rejected(bad):
    with pytest.raises(UnknownTypeError):
        normalize_type_name(bad)


def test_raw_match_offsets():
    text = "see 1.2.3.4 here"
    m = RawMatch(IndicatorType.IP4, 4, "1.2.3.4", "1.2.3.4")
    assert text[m.start : m.end] == m.raw
    assert m.rearmed == m.raw


def test_indicator_equality_and_order():
    a = Indicator(IndicatorType.FQDN, "a.com")
    b = Indicator(IndicatorType.FQDN, "a.com")
    c = Indicator(IndicatorType.IP4, "1.1.1.1")
    assert a == b and hash(a) == hash(b)
    assert sorted([c, a], key=Indicator.sort_key) == [a, c]


def test_a_type_is_its_canonical_name():
    assert issubclass(IndicatorType, enum.StrEnum)
    assert [t.value for t in sorted(IndicatorType)] == sorted(t.value for t in IndicatorType)
    for t in IndicatorType:
        assert t == t.value and hash(t) == hash(t.value)
        assert str(t) == f"{t}" == t.value
        assert json.dumps([t, {t: 0}]) == json.dumps([t.value, {t.value: 0}])
        assert _quote(t) == json.dumps(t.value)


@given(st.lists(st.builds(Indicator, st.sampled_from(IndicatorType), st.text(max_size=4))))
def test_indicators_sort_by_type_name_then_value(indicators):
    assert sorted(indicators) == sorted(indicators, key=Indicator.sort_key)
