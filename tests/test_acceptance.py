"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Expected values are produced by the independent oracles
in conftest (base58check encoder, streaming mod-97), never by the code
under test.
"""
from __future__ import annotations

import random
import re
import time
from contextlib import contextmanager

from iockit.corpus import _feed_subset, _TextCollector
from iockit.defang import DEFAULT_RULES, defang, rearm
from iockit.extractor import Extractor
from iockit.filtering import CorpusStats, apply_filter, blocking_rule, build_blocklist
from iockit.harness import (
    AccuracyCounters,
    Counts,
    ToolOutput,
    ToolProfile,
    compare,
    metrics,
)
from iockit.normalize import normalize
from iockit.patterns import RUN_BODIES
from iockit.types import Indicator, IndicatorType
from iockit.validators import is_valid_bitcoin, is_valid_iban, validate

from conftest import (
    B58_ALPHABET,
    PLANT_RULES,
    ValueForge,
    brute_force_vote,
    plant_text,
    random_vote_instance,
    render,
)

T = IndicatorType


@contextmanager
def criterion(name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        assert elapsed < budget_seconds, f"{name} took {elapsed:.1f}s"
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)", flush=True)


def test_1_metric_arithmetic():
    with criterion("1 metric-arithmetic", budget_seconds=1):
        cases = [
            ((29, 6, 0, 71), (0.83, 1.00, 0.91)),
            ((29, 66, 0, 11), (0.31, 1.00, 0.47)),
            ((29, 69, 0, 8), (0.30, 1.00, 0.46)),
        ]
        for (tp, fp, fn, tn), (precision, recall, f1) in cases:
            counters = AccuracyCounters()
            counters.cells[("tool", T.FQDN)] = Counts(tp=tp, fp=fp, fn=fn, tn=tn)
            cell = metrics(counters)["tool"]["overall"]
            assert round(cell["precision"], 2) == precision
            assert round(cell["recall"], 2) == recall
            assert round(cell["f1"], 2) == f1


def test_2_vote_oracle_equivalence():
    with criterion("2 vote-oracle-equivalence", budget_seconds=30):
        rng = random.Random(424242)
        mismatches = 0
        for _ in range(1000):
            profiles, outputs, docs = random_vote_instance(rng)
            counters = compare(profiles, outputs, docs)
            expected_cells, expected_positives = brute_force_vote(profiles, outputs, docs)
            got = {k: (c.tp, c.fp, c.fn, c.tn) for k, c in counters.cells.items()}
            expected = {k: tuple(v) for k, v in expected_cells.items()}
            if got != expected or dict(counters.positives) != expected_positives:
                mismatches += 1
        assert mismatches == 0


def test_3_defang_round_trip():
    with criterion("3 defang-round-trip", budget_seconds=5):
        rng = random.Random(33)
        forge = ValueForge(rng)
        # Every rule in the default table, 100 random armed values per
        # applicable type, each fitted so the rule has material to rewrite.
        for rule in DEFAULT_RULES:
            for ind_type in sorted(rule.types, key=lambda t: t.value):
                for _ in range(100):
                    if rule.id.startswith("hxxps"):
                        value = forge.url(scheme="https")
                    elif rule.id.startswith("hxxp"):
                        value = forge.url(scheme="http")
                    else:
                        value = forge.value(ind_type)
                    assert rearm(defang(value, ind_type, [rule.id]), ind_type) == value


def test_4_checksum_validators():
    with criterion("4 checksum-validators", budget_seconds=5):
        address = "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"
        iban = "GB82WEST12345698765432"
        assert validate(T.BITCOIN, address)
        assert validate(T.IBAN, iban)

        rng = random.Random(44)
        surviving = 0
        for _ in range(1000):
            pos = rng.randrange(len(address))
            repl = rng.choice(B58_ALPHABET.replace(address[pos], ""))
            surviving += is_valid_bitcoin(address[:pos] + repl + address[pos + 1 :])
        assert surviving <= 1  # >= 99.9% of mutations rejected

        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        surviving = 0
        for _ in range(1000):
            pos = rng.randrange(len(iban))
            repl = rng.choice(alphabet.replace(iban[pos], ""))
            surviving += is_valid_iban(iban[:pos] + repl + iban[pos + 1 :])
        assert surviving <= 1


def _synthetic_corpus(seed: int, n_docs: int):
    """Documents with planted indicators covering all 22 types."""
    rng = random.Random(seed)
    forge = ValueForge(rng)
    all_types = list(T)
    docs = []
    for i in range(n_docs):
        planted = []
        # Cycle types so each appears throughout the corpus.
        forced = all_types[(3 * i) % len(all_types) : (3 * i) % len(all_types) + 3]
        wanted = forced + rng.choices(all_types, k=rng.randint(2, 6))
        for ind_type in wanted:
            value = forge.value(ind_type)
            planted.append((ind_type, value, render(rng, ind_type, value)))
        text = plant_text(rng, [(t, r) for t, _, r in planted])
        docs.append((text, planted))
    return docs


def test_5_offset_correctness_and_dedup():
    with criterion("5 offset-and-dedup", budget_seconds=60):
        extractor = Extractor.default()
        docs = _synthetic_corpus(55, 500)
        seen_types = set()
        for text, planted in docs:
            raw_matches = extractor.extract_raw(text)
            for m in raw_matches:
                assert text[m.start : m.start + len(m.raw)] == m.raw
            deduped = extractor.extract(text)
            keys = [(i.type, i.value) for i in deduped]
            assert len(keys) == len(set(keys))
            assert set(keys) == {
                (m.type, normalize(m.type, m.rearmed)) for m in raw_matches
            }
            found = set(keys)
            for ind_type, value, _ in planted:
                seen_types.add(ind_type)
                assert (ind_type, normalize(ind_type, value)) in found
        assert seen_types == set(T)


def test_6_filter_rule_isolation():
    with criterion("6 filter-rule-isolation", budget_seconds=10):
        from importlib.resources import files

        tranco = str(files("iockit").joinpath("data", "tranco_snapshot.csv"))
        targets = {
            "origin_domain": Indicator(T.FQDN, "blog.vendor-origin.com"),
            "frequent_per_origin": Indicator(T.SHA256, "aa" * 32),
            "popular_domain": Indicator(T.FQDN, "www.google.com"),
            "ubiquitous": Indicator(T.IP4, "198.51.100.9"),
            "private_ip": Indicator(T.IP4, "10.1.2.3"),
        }
        boundary_pass = [
            Indicator(T.SHA256, "bb" * 32),  # 19 docs from one origin
            Indicator(T.IP4, "198.51.100.8"),  # exactly 90.0% of docs
        ]
        controls = [
            Indicator(T.FQDN, "c2-panel.rare-example.biz"),
            Indicator(T.IP4, "203.0.113.77"),
            Indicator(T.EMAIL, "boss@google.com"),  # popularity rule skips email
            Indicator(T.URL, "http://drop.rare-example.biz/x"),
        ]

        stats = CorpusStats()
        total = 1000
        for i in range(total):
            present: list[Indicator] = []
            if i < 20:
                origins = ["rss:feed-a"]
                present.append(targets["frequent_per_origin"])
                if i < 19:
                    present.append(boundary_pass[0])
            elif i < 25:
                origins = ["rss:vendor-origin.com"]
                present.append(targets["origin_domain"])
            else:
                origins = [f"rss:feed-{i % 60}"]
            if 25 <= i < 926:  # 901 docs: 90.1% of the corpus
                present.append(targets["ubiquitous"])
            if 25 <= i < 925:  # 900 docs: exactly 90.0%
                present.append(boundary_pass[1])
            if 30 <= i < 35:
                present.append(targets["popular_domain"])
            if i == 40:
                present.append(targets["private_ip"])
            if i == 50:
                present.extend(controls)
            stats.add_document(origins, present)

        blocklist = build_blocklist(stats, tranco)
        for rule_name, indicator in targets.items():
            assert blocking_rule(indicator, blocklist) == rule_name, rule_name

        universe = list(targets.values()) + boundary_pass + controls
        iocs, generic = apply_filter(universe, blocklist)
        expected_generic = set(targets.values())
        assert set(generic) == expected_generic  # precision = recall = 1.0
        assert set(iocs) == set(boundary_pass) | set(controls)
        assert len(iocs) + len(generic) == len(universe)


# Empirically the most expensive near-miss input per pattern (highest
# per-character cost in a sweep over candidate stressors).
ADVERSARIAL_SEEDS = {
    T.IP4: "9[.]9[.]9[.]",
    T.IP4CIDR: "10.0.0.0/",
    T.IP6: "1234:",
    T.FQDN: "a.",
    T.URL: "a[.]",
    T.EMAIL: "x[.]x[at]",
    T.MD5: "0" * 31 + "!",
    T.SHA1: "0" * 39 + "!",
    T.SHA256: "0" * 63 + "!",
    T.SHA512: "0" * 127 + "!",
    T.SSDEEP: "12:" + "A" * 50 + ":" + "B" * 50 + ":",
    T.CVE: "CVE-2021-",
    T.ASN: "AS",
    T.BITCOIN: "1",
    T.ETHEREUM: "0x",
    T.MONERO: "4",
    T.ONION_ADDRESS: "a",
    T.IBAN: "GB82",
    T.MAC_ADDRESS: "ff-ff-",
    T.REGKEY: "HKLM",
    T.GOOGLE_ADSENSE: "pub-",
    T.GOOGLE_ANALYTICS: "UA-",
}


# Text for the run pass of all eight run types: runs one character past
# the longest body, at the longest body, at the shortest run it takes, of
# several types at once (md5, bitcoin and iban), and alphanumeric runs too
# long for any type. Then text for its fold to ASCII: an md5 right after a
# non-ASCII letter, a non-ASCII letter after every ASCII one, and no ASCII
# character at all.
RUN_STRESSORS = (
    "0" * 129 + "!", "0" * 128 + "!", "A" * 15 + " ", "AB12" + "1" * 28 + " ", "a" * 200 + " ",
    "\u00e9" + "0" * 32 + " ", "a\u00e9", "\u65e5\u672c",
)


# Text for the anchored passes: anchors as dense as they come, and anchors a
# window apart, each window full of positions where a match could start.
ANCHOR_STRESSORS = {
    T.EMAIL: ("a" * 64 + "@", "[dot]a" * 53 + "@", "a[dot]" * 53 + "[at]"),
    T.FQDN: ("x.y", "a " * 150 + "a."),
    T.IP4: ("1[.]", "999(dot)9 "),
    T.IP4CIDR: ("1/2", "123.123.123.123/1 "),
    T.IP6: ("::", "abcd:abcd:"),
    T.URL: ("/", "hxxps[:]//"),
    T.SSDEEP: ("1:aaaaaa:", "9" * 18 + ":aaaaaa "),
    T.CVE: ("-1234-1", "CVE-1234-1"),
    T.ASN: ("s1", "aS1 "),
    T.GOOGLE_ANALYTICS: ("-1234", "UA-1234-"),
    T.GOOGLE_ADSENSE: ("-" + "1" * 16, "ca-pub-" + "1" * 16 + "-"),
    T.ONION_ADDRESS: (".onion", "a" * 56 + ".onion"),
    T.MAC_ADDRESS: ("-0a-", "0a:1b:2c:3d:4e:5f:"),
    T.REGKEY: ("\\a", "HKEY_PERFORMANCE_DATA\\"),
}


# Markup the HTML tokenizer must give up on: a tag with no ``>``, an
# unterminated comment, and script content with no end tag.
TOKENIZER_STRESSORS = (
    ("<a", ' b=c d="e"'),
    ("<!--", "- a "),
    ("<script>", "</ scrip"),
)


def _repeat(seed: str, size: int) -> str:
    return (seed * (size // len(seed) + 1))[:size]


def _adversarial_input(ind_type: IndicatorType, size: int) -> str:
    body = _repeat(ADVERSARIAL_SEEDS[ind_type], size)
    if ind_type is T.URL:
        return "http://" + body[: size - 7]
    return body


def _finditer(pattern: re.Pattern):
    def scan(text):
        for _ in pattern.finditer(text):
            pass
    return scan


def _planned_scan(extractor: Extractor):
    def scan(text):
        for _kind, matches in extractor._scan(text):
            for _ in matches:
                pass
    return scan


def _tokenize(text: str) -> None:
    assert not _feed_subset(_TextCollector(), text)


def _scan_time(scan, text: str) -> float:
    """Seconds for one ``scan(text)``: best of 4 trials, each averaging
    enough repetitions to rise above timer noise."""
    def once():
        start = time.perf_counter()
        scan(text)
        return time.perf_counter() - start

    estimate = min(once(), once())
    reps = max(1, int(0.05 / max(estimate, 1e-6)))
    best = float("inf")
    for _ in range(4):
        start = time.perf_counter()
        for _ in range(reps):
            scan(text)
        best = min(best, (time.perf_counter() - start) / reps)
    return best


def test_7_matching_time_budget():
    with criterion("7 matching-time-budget", budget_seconds=120):
        sizes = (1 << 16, 1 << 17, 1 << 18)
        cases = [
            (entry.type, _finditer(re.compile(entry.expression)),
             [_adversarial_input(entry.type, size) for size in sizes])
            for entry in Extractor.default().entries
        ]
        cases += [
            (("run", seed), _planned_scan(Extractor(RUN_BODIES, validation=False)),
             [_repeat(seed, size) for size in sizes])
            for seed in RUN_STRESSORS
        ]
        cases += [
            (("windowed", ind_type, seed), _planned_scan(Extractor.default().restrict([ind_type])),
             [_repeat(seed, size) for size in sizes])
            for ind_type, seeds in ANCHOR_STRESSORS.items()
            for seed in seeds
        ]
        # Up to 1 MB: the tokenizer gives up on the whole document at once.
        cases += [
            (("tokenizer", head), _tokenize,
             [head + _repeat(seed, size) for size in (1 << 18, 1 << 19, 1 << 20)])
            for head, seed in TOKENIZER_STRESSORS
        ]
        for label, scan, inputs in cases:
            # Re-measure on a failed ratio before declaring superlinearity:
            # minute absolute times make single trials jitter-prone.
            for attempt in range(3):
                times = [_scan_time(scan, text) for text in inputs]
                ratios = [b / max(a, 1e-9) for a, b in zip(times, times[1:])]
                if all(r <= 3.0 for r in ratios):
                    break
            for text, elapsed in zip(inputs, times):
                assert elapsed < 1.0, (label, len(text), elapsed)
            for ratio in ratios:
                assert ratio <= 3.0, (label, times)


def test_8_degradation_ranking():
    with criterion("8 degradation-ranking", budget_seconds=60):
        rng = random.Random(88)
        forge = ValueForge(rng)
        defangable = list(PLANT_RULES)
        email_rules = ("at_brackets", "at_parens", "bracket_dot", "paren_dot")
        decoy_texts = [
            "bad.invalidtldzz",
            "http://drop.invalidtldzz/x",
            "crew@mail.invalidtldzz",
            "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNb",
            "GB82WEST12345698765433",
            "1.2.3.300",
            "1.2.3.0/33",
            "00:11-22:33:44:55",
            "12:34:56",
        ]

        variants = {
            "full": Extractor.default(),
            "no-validation": Extractor.default(validation=False),
            "no-defang": Extractor.default(defanged=False),
        }
        profiles = [ToolProfile(name, frozenset(T)) for name in variants]

        outputs, docs = [], []
        for i in range(60):
            doc_id = f"doc{i:03d}"
            docs.append(doc_id)
            rendered = []
            for _ in range(rng.randint(3, 6)):
                ind_type = rng.choice(list(T))
                rendered.append(forge.value(ind_type))
            # A defanged indicator and a decoy in every document.
            ind_type = rng.choice(defangable)
            value = forge.value(ind_type)
            rules = email_rules if ind_type is T.EMAIL else PLANT_RULES[ind_type]
            rendered.append(defang(value, ind_type, [rng.choice(rules)]))
            rendered.append(rng.choice(decoy_texts))
            rng.shuffle(rendered)
            text = plant_text(rng, [(None, r) for r in rendered])
            for name, extractor in variants.items():
                outputs.append(
                    ToolOutput(name, doc_id, frozenset(extractor.extract(text)))
                )

        counters = compare(profiles, outputs, docs)
        scores = {
            name: cells["overall"]["f1"]
            for name, cells in metrics(counters, profiles).items()
        }
        assert scores["full"] > scores["no-validation"], scores
        assert scores["full"] > scores["no-defang"], scores


def test_9_out_of_scope_figures_not_reproduced():
    # Corpus-scale accuracy figures (overall precision/F1 across a fleet of
    # third-party tools, collection volumes, significance tests) require
    # running those tools over thousands of live reports; criteria 1-8 are
    # the desk-scale substitutes. The method behind the figures is checked
    # at desk scale in test_harness.py::TestVoteAgainstPlantedTruth: with
    # independent errors over planted indicators, the vote ranks five tools
    # by true F1 and estimates each precision, recall and F1 within 0.03;
    # two tools that share a false positive outvote a correct third.
    print(
        "ACCEPTANCE 9 corpus-scale-figures: SKIPPED (out of scope; the vote is"
        " checked against planted truth in test_harness.py)",
        flush=True,
    )
