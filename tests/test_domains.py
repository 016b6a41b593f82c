import random

import pytest

from iockit import filtering
from iockit.errors import DATA, MissingFileError
from iockit.filtering import _suffix_rules, registrable_domain


@pytest.mark.parametrize(
    "host,expected",
    [
        ("example.com", "example.com"),
        ("www.example.com", "example.com"),
        ("a.b.c.example.com", "example.com"),
        ("bbc.co.uk", "bbc.co.uk"),
        ("news.bbc.co.uk", "bbc.co.uk"),
        ("user.github.io", "user.github.io"),
        ("deep.user.github.io", "user.github.io"),
        ("myblog.blogspot.com", "myblog.blogspot.com"),
        ("Example.COM.", "example.com"),
        ("com", None),
        ("co.uk", None),
        ("", None),
        ("nodots", None),
    ],
)
def test_registrable_domain(host, expected):
    assert registrable_domain(host) == expected


def test_wildcard_and_exception_rules():
    # "*.ck" makes every second-level label a suffix, except "!www.ck".
    assert registrable_domain("foo.bar.ck") == "foo.bar.ck"
    assert registrable_domain("bar.ck") is None
    assert registrable_domain("www.ck") == "www.ck"
    assert registrable_domain("sub.www.ck") == "www.ck"


def _use_rule_file(path, monkeypatch):
    """Swap the shipped suffix tables for those of the rule file ``path``."""
    tables = ("_PLAIN_SUFFIXES", "_WILDCARD_SUFFIXES", "_EXCEPTION_SUFFIXES")
    for name, table in zip(tables, _suffix_rules(path)):
        monkeypatch.setattr(filtering, name, table)


def test_custom_rules_and_file_loading(tmp_path, monkeypatch):
    path = tmp_path / "psl.dat"
    path.write_text("// comment\ncom\nco.test\n*.wild\n!ok.wild\n")
    _use_rule_file(path, monkeypatch)
    assert registrable_domain("a.b.co.test") == "b.co.test"
    assert registrable_domain("x.y.wild") == "x.y.wild"
    assert registrable_domain("ok.wild") == "ok.wild"
    assert registrable_domain("sub.ok.wild") == "ok.wild"
    with pytest.raises(MissingFileError):
        _suffix_rules(tmp_path / "absent.dat")


def test_exception_rule_prevails_over_a_rule_nested_under_it(tmp_path, monkeypatch):
    # publicsuffix.org: a matching exception rule decides the suffix, even
    # where a longer plain rule matches too.
    path = tmp_path / "psl.dat"
    path.write_text("b\nx.a.b\n*.b\n!a.b\n")
    _use_rule_file(path, monkeypatch)
    assert registrable_domain("y.x.a.b") == "a.b"
    assert registrable_domain("x.a.b") == "a.b"
    assert registrable_domain("y.c.b") == "y.c.b"


def test_invalid_hosts_rejected():
    assert registrable_domain("a..b.com") is None
    assert registrable_domain(".") is None


def _reference_registrable(host, rules):
    """The publicsuffix.org algorithm, spelled plainly over the rule lines:
    a rule matches when its labels equal the host's last labels, ``*``
    matching any one; an exception rule prevails and its suffix drops its
    first label, else the longest matching rule is the suffix, else ``*``."""
    labels = host.split(".")

    def matches(rule):
        parts = rule.split(".")
        return len(parts) <= len(labels) and all(
            p in ("*", lbl) for p, lbl in zip(parts, labels[-len(parts):])
        )

    exceptions = [r[1:] for r in rules if r.startswith("!") and matches(r[1:])]
    if exceptions:
        suffix = max(r.count(".") + 1 for r in exceptions) - 1
    else:
        suffix = max((r.count(".") + 1 for r in rules if matches(r)), default=1)
    return ".".join(labels[-suffix - 1:]) if len(labels) > suffix else None


def _agrees_with_reference(rules):
    """Check ``registrable_domain`` on hosts built from every rule and each
    of its tails, ``*`` filled in, with 0-2 labels prepended; also in mixed
    case, with a trailing dot, and with an empty label (never a domain).
    Returns how many hosts were checked."""
    rng = random.Random(0)
    words = ("www", "a", "co", "uk", "ck", "city", "xn--p1ai", "mail-1")
    checked = 0
    for rule in rules:
        parts = rule.lstrip("!").split(".")
        for tail in range(len(parts)):
            for extra in range(3):
                labels = [rng.choice(words) for _ in range(extra)]
                labels += [rng.choice(words) if p == "*" else p for p in parts[tail:]]
                host = ".".join(labels)
                expected = _reference_registrable(host, rules)
                mixed = "".join(c.upper() if rng.random() < 0.5 else c for c in host)
                assert registrable_domain(host) == expected, host
                assert registrable_domain(mixed) == expected, mixed
                assert registrable_domain(host + ".") == expected, host
                if len(labels) > 1:
                    at = rng.randrange(1, len(labels))
                    holed = ".".join(labels[:at] + [""] + labels[at:])
                    assert registrable_domain(holed) is None, holed
                checked += 1
    return checked


def test_registrable_domain_matches_reference_on_every_shipped_rule():
    lines = (DATA / "public_suffixes.dat").read_text(encoding="utf-8").splitlines()
    rules = [
        line.strip().lower() for line in lines
        if line.strip() and not line.strip().startswith(("//", "#"))
    ]
    assert _agrees_with_reference(rules) > 3 * len(rules)


def test_registrable_domain_matches_reference_on_nested_rules(tmp_path, monkeypatch):
    # The snapshot nests no plain rule in another, nor any rule under an
    # exception; these do, so the longest matching rule must win unless an
    # exception matches.
    rules = [
        "jp", "kawasaki.jp", "*.kawasaki.jp", "!city.kawasaki.jp", "www.city.kawasaki.jp",
        "uk", "co.uk", "ltd.co.uk", "*.sch.uk",
    ]
    path = tmp_path / "psl.dat"
    path.write_text("".join(rule + "\n" for rule in rules))
    _use_rule_file(path, monkeypatch)
    assert _agrees_with_reference(rules) > 3 * len(rules)
