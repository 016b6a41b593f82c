import random

import pytest
from hypothesis import given, strategies as st

from iockit.defang import DEFAULT_RULES, defang, rearm
from iockit.errors import InapplicableRuleError
from iockit.extractor import Extractor
from iockit.normalize import normalize
from iockit.types import Indicator, IndicatorType

from conftest import PLANT_RULES, ValueForge, plant_text

T = IndicatorType


@pytest.mark.parametrize(
    "raw,ind_type,expected",
    [
        ("9[.]9[.]9[.]9", T.IP4, "9.9.9.9"),
        ("hxxp://example(.)com/badfile", T.URL, "http://example.com/badfile"),
        ("example.com", T.FQDN, "example.com"),
        ("evil[dot]example[dot]com", T.FQDN, "evil.example.com"),
        ("user[at]host(.)net", T.EMAIL, "user@host.net"),
        ("hxxps[:]//a.b/c", T.URL, "https://a.b/c"),
        ("hxxp[:]//a.b", T.URL, "http://a.b"),
        ("h_at_b", T.EMAIL, "h@b"),
        ("1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa", T.BITCOIN, "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"),
    ],
)
def test_rearm(raw, ind_type, expected):
    assert rearm(raw, ind_type) == expected


def test_rearm_ignores_rules_for_other_types():
    # '[at]' only applies to email values.
    assert rearm("x[at]y.com", T.FQDN) == "x[at]y.com"


@pytest.mark.parametrize(
    "value,ind_type,rules,expected",
    [
        ("9.9.9.9", T.IP4, ["bracket_dot"], "9[.]9[.]9[.]9"),
        ("http://a.b/c", T.URL, ["hxxp_scheme"], "hxxp://a.b/c"),
        ("user@a.com", T.EMAIL, ["at_brackets"], "user[at]a.com"),
        ("http://a.b/c", T.URL, ["hxxp_scheme", "bracket_colon_slashes"], "hxxp[:]//a.b/c"),
    ],
)
def test_defang(value, ind_type, rules, expected):
    assert defang(value, ind_type, rules) == expected


def test_defang_inapplicable_rule():
    with pytest.raises(InapplicableRuleError):
        defang("9.9.9.9", T.IP4, ["at_brackets"])
    with pytest.raises(InapplicableRuleError):
        defang("9.9.9.9", T.IP4, ["no_such_rule"])


def test_round_trip_over_catalog():
    rng = random.Random(7)
    forge = ValueForge(rng)
    for ind_type, rule_ids in PLANT_RULES.items():
        for rule_id in rule_ids:
            for _ in range(25):
                value = forge.value(ind_type)
                assert rearm(defang(value, ind_type, [rule_id]), ind_type) == value


def test_round_trip_rule_combinations():
    rng = random.Random(11)
    forge = ValueForge(rng)
    for _ in range(50):
        value = forge.email()
        rules = rng.sample(PLANT_RULES[T.EMAIL], rng.randint(1, 3))
        assert rearm(defang(value, T.EMAIL, list(rules)), T.EMAIL) == value


@given(st.text(max_size=120), st.sampled_from(list(IndicatorType)))
def test_rearm_idempotent_on_arbitrary_text(text, ind_type):
    once = rearm(text, ind_type)
    assert rearm(once, ind_type) == once


def test_rearm_nested_obfuscation_reaches_fixpoint():
    assert rearm("9([.])9[.]9[.]9", T.IP4) == rearm(rearm("9([.])9[.]9[.]9", T.IP4), T.IP4)


def test_rule_table_strictly_removes_obfuscation():
    for rule in DEFAULT_RULES:
        assert len(rule.replacement) <= len(rule.pattern)
        assert rule.types


def test_every_rule_is_extracted():
    # Each rule, for each type it applies to, on values defanged with that
    # rule alone and placed in prose: the extractor finds the armed value,
    # so the expressions match every form the table rearms.
    rng = random.Random(5)
    forge = ValueForge(rng)
    extractor = Extractor.default()
    missed = []
    for rule in DEFAULT_RULES:
        for ind_type in sorted(rule.types, key=lambda t: t.value):
            for _ in range(200):
                if rule.id.startswith("hxxps"):
                    value = forge.url(scheme="https")
                elif rule.id.startswith("hxxp"):
                    value = forge.url(scheme="http")
                else:
                    value = forge.value(ind_type)
                defanged = defang(value, ind_type, [rule.id])
                assert defanged != value
                text = plant_text(rng, [(ind_type, defanged)])
                if Indicator(ind_type, normalize(ind_type, value)) not in extractor.extract(text):
                    missed.append((rule.id, defanged))
    assert not missed, missed[:5]
