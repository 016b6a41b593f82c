import hashlib
import random

import pytest

from iockit.errors import DuplicateOutputError, UnknownToolError
from iockit.harness import (
    AccuracyCounters,
    Counts,
    ToolOutput,
    ToolProfile,
    build_report,
    compare,
    metrics,
    render_csv,
)
from iockit.types import Indicator, IndicatorType

T = IndicatorType


def profile(name, *types):
    return ToolProfile(name, frozenset(types))


def output(tool, doc, *pairs, error=False):
    return ToolOutput(tool, doc, frozenset(Indicator(t, v) for t, v in pairs), error=error)


IP = (T.IP4, "9.9.9.9")


class TestVote:
    def test_found_majority_three_of_five(self):
        profiles = [profile(f"t{i}", T.IP4) for i in range(5)]
        outputs = [output(f"t{i}", "d1", IP) for i in range(3)]
        counters = compare(profiles, outputs, ["d1"])
        for i in range(3):
            assert counters.cell(f"t{i}", T.IP4).tp == 1
        for i in range(3, 5):
            assert counters.cell(f"t{i}", T.IP4).fn == 1
        assert counters.total_increments() == 5

    def test_missed_majority_one_of_four(self):
        profiles = [profile(f"t{i}", T.IP4) for i in range(4)]
        outputs = [output("t0", "d1", IP)]
        counters = compare(profiles, outputs, ["d1"])
        assert counters.cell("t0", T.IP4).fp == 1
        for i in range(1, 4):
            assert counters.cell(f"t{i}", T.IP4).tn == 1

    def test_exact_tie_skipped(self):
        profiles = [profile(f"t{i}", T.IP4) for i in range(4)]
        outputs = [output("t0", "d1", IP), output("t1", "d1", IP)]
        counters = compare(profiles, outputs, ["d1"])
        assert counters.total_increments() == 0
        assert counters.positives[T.IP4] == 0

    def test_single_supporting_tool_is_majority(self):
        # found=1 vs missed=0 counts as a majority for the lone tool.
        profiles = [profile("only", T.IBAN), profile("other", T.IP4)]
        outputs = [output("only", "d1", (T.IBAN, "GB82WEST12345698765432"))]
        counters = compare(profiles, outputs, ["d1"])
        assert counters.cell("only", T.IBAN).tp == 1
        assert counters.total_increments() == 1

    def test_unsupported_tools_not_in_vote(self):
        profiles = [profile("a", T.IP4), profile("b", T.IP4), profile("c", T.FQDN)]
        outputs = [output("a", "d1", IP), output("b", "d1", IP)]
        counters = compare(profiles, outputs, ["d1"])
        # c neither gains nor loses: the ip4 vote never mentions it.
        assert ("c", T.IP4) not in counters.cells
        assert counters.cell("a", T.IP4).tp == 1

    def test_reporting_tool_votes_whatever_its_profile(self):
        # c's profile lacks ip4, yet its report of one is in the found set:
        # it turns a tie into a majority, and its ip4 cell is reported per
        # type but left out of its overall row.
        profiles = [profile("a", T.IP4), profile("b", T.IP4), profile("c", T.FQDN)]
        outputs = [output("a", "d1", IP), output("c", "d1", IP)]
        counters = compare(profiles, outputs, ["d1"])
        assert counters.cell("a", T.IP4) == Counts(tp=1)
        assert counters.cell("c", T.IP4) == Counts(tp=1)
        assert counters.cell("b", T.IP4) == Counts(fn=1)
        assert compare(profiles, outputs[:1], ["d1"]).total_increments() == 0
        report = build_report(counters, profiles)["tools"]["c"]
        assert report["types"]["ip4"]["tp"] == 1
        assert report["overall"]["tp"] == 0

    def test_crashed_tool_in_missed_for_all_indicators(self):
        profiles = [profile(name, T.IP4, T.FQDN) for name in ("a", "b", "c")]
        outputs = [
            output("a", "d1", IP, (T.FQDN, "x.com")),
            output("b", "d1", IP, (T.FQDN, "x.com")),
            output("c", "d1", error=True),
        ]
        counters = compare(profiles, outputs, ["d1"])
        assert counters.cell("c", T.IP4).fn == 1
        assert counters.cell("c", T.FQDN).fn == 1

    def test_votes_are_per_document(self):
        profiles = [profile(name, T.IP4) for name in ("a", "b", "c")]
        outputs = [
            output("a", "d1", IP), output("b", "d1", IP),
            output("a", "d2", IP), output("b", "d2", IP),
        ]
        counters = compare(profiles, outputs, ["d1", "d2"])
        assert counters.cell("a", T.IP4).tp == 2
        assert counters.cell("c", T.IP4).fn == 2
        assert counters.positives[T.IP4] == 2

    def test_order_independence(self, rng):
        profiles = [profile(f"t{i}", T.IP4, T.FQDN, T.MD5) for i in range(4)]
        outputs = []
        for doc in ("d1", "d2", "d3"):
            for i in range(4):
                pairs = []
                if rng.random() < 0.7:
                    pairs.append(IP)
                if rng.random() < 0.5:
                    pairs.append((T.FQDN, "x.com"))
                outputs.append(output(f"t{i}", doc, *pairs))
        docs = ["d1", "d2", "d3"]
        base = compare(profiles, outputs, docs)
        # Each profile's bit in the vote's tool masks follows profile order.
        for _ in range(5):
            shuffled = [list(x) for x in (profiles, outputs, docs)]
            for items in shuffled:
                rng.shuffle(items)
            again = compare(*shuffled)
            assert dict(base.cells) == dict(again.cells)
            assert base.positives == again.positives

    def test_monotone_sanity_agreeing_tool_never_hurts(self):
        profiles = [profile(name, T.IP4) for name in ("a", "b", "c")]
        outputs = [output("a", "d1", IP), output("b", "d1", IP)]
        before = compare(profiles, outputs, ["d1"])
        # Add a new tool that reports exactly the current majority set.
        profiles.append(profile("echo", T.IP4))
        outputs.append(output("echo", "d1", IP))
        after = compare(profiles, outputs, ["d1"])
        assert after.cell("a", T.IP4).tp >= before.cell("a", T.IP4).tp
        assert after.cell("a", T.IP4).fp <= before.cell("a", T.IP4).fp

    def test_unknown_tool_rejected(self):
        with pytest.raises(UnknownToolError):
            compare([profile("a", T.IP4)], [output("ghost", "d1", IP)], ["d1"])

    def test_duplicate_profile_names_rejected(self):
        profiles = [profile("a", T.IP4), profile("a", T.FQDN)]
        with pytest.raises(ValueError, match="duplicate tool profile names"):
            compare(profiles, [output("a", "d1", IP)], ["d1"])

    def test_duplicate_output_rejected(self):
        profiles = [profile("a", T.IP4), profile("b", T.IP4)]
        with pytest.raises(DuplicateOutputError):
            compare(profiles, [output("a", "d1", IP), output("a", "d1")], ["d1"])

    def test_conservation_per_vote(self):
        profiles = [profile(f"t{i}", T.IP4) for i in range(5)]
        outputs = [output(f"t{i}", "d1", IP) for i in range(4)]
        counters = compare(profiles, outputs, ["d1"])
        # 4 found + 1 missed = 5 increments for the single indicator.
        assert counters.total_increments() == 5


class TestMetrics:
    @pytest.mark.parametrize(
        "tp,fp,fn,tn,precision,recall,f1",
        [
            (29, 6, 0, 71, 0.83, 1.00, 0.91),
            (29, 66, 0, 11, 0.31, 1.00, 0.47),
            (29, 69, 0, 8, 0.30, 1.00, 0.46),
        ],
    )
    def test_known_counter_triples(self, tp, fp, fn, tn, precision, recall, f1):
        counters = AccuracyCounters()
        counters.cells[("tool", T.FQDN)] = Counts(tp=tp, fp=fp, fn=fn, tn=tn)
        cell = metrics(counters)["tool"]["overall"]
        assert round(cell["precision"], 2) == precision
        assert round(cell["recall"], 2) == recall
        assert round(cell["f1"], 2) == f1

    def test_undefined_ratios_reported_as_none(self):
        counters = AccuracyCounters()
        counters.cells[("tool", T.IP4)] = Counts(tp=0, fp=0, fn=0, tn=5)
        cell = metrics(counters)["tool"]["types"]["ip4"]
        assert cell["precision"] is None
        assert cell["recall"] is None
        assert cell["f1"] is None

    def test_partial_none(self):
        counters = AccuracyCounters()
        counters.cells[("tool", T.IP4)] = Counts(tp=0, fp=3, fn=0, tn=0)
        cell = metrics(counters)["tool"]["types"]["ip4"]
        assert cell["precision"] == 0.0
        assert cell["recall"] is None
        assert cell["f1"] is None

    def test_overall_sums_supported_types_only(self):
        counters = AccuracyCounters()
        counters.cells[("tool", T.IP4)] = Counts(tp=5)
        counters.cells[("tool", T.FQDN)] = Counts(fp=5)
        profiles = [profile("tool", T.IP4)]
        overall = metrics(counters, profiles)["tool"]["overall"]
        assert overall["tp"] == 5 and overall["fp"] == 0


class TestReports:
    def _counters(self):
        profiles = [profile("a", T.IP4, T.IBAN), profile("b", T.IP4)]
        outputs = [output("a", "d1", IP, (T.IBAN, "GB82WEST12345698765432")),
                   output("b", "d1", IP)]
        return profiles, compare(profiles, outputs, ["d1"])

    def test_min_tool_support_hides_single_tool_types(self):
        profiles, counters = self._counters()
        full = build_report(counters, profiles, min_tool_support=1)
        assert "iban" in full["type_counts"]
        trimmed = build_report(counters, profiles, min_tool_support=2)
        assert "iban" not in trimmed["type_counts"]
        assert "ip4" in trimmed["type_counts"]
        assert "iban" not in trimmed["tools"]["a"]["types"]

    def test_type_counts_are_majority_positives(self):
        profiles, counters = self._counters()
        report = build_report(counters, profiles)
        assert report["type_counts"] == {"iban": 1, "ip4": 1}

    def test_csv_shape(self):
        profiles, counters = self._counters()
        report = build_report(counters, profiles)
        lines = render_csv(report).splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["indicator", "count"]
        assert "a_precision" in header and "b_f1" in header
        assert lines[-1].startswith("ALL,")
        assert any(line.startswith("ip4,") for line in lines)


class TestOracleEquivalence:
    def test_small_instances_match_brute_force(self):
        from conftest import brute_force_vote, random_vote_instance

        rng = random.Random(2024)
        for _ in range(200):
            profiles, outputs, docs = random_vote_instance(rng)
            counters = compare(profiles, outputs, docs)
            expected_cells, expected_positives = brute_force_vote(profiles, outputs, docs)
            got = {
                key: (c.tp, c.fp, c.fn, c.tn) for key, c in counters.cells.items()
            }
            expected = {key: tuple(v) for key, v in expected_cells.items()}
            assert got == expected
            assert dict(counters.positives) == dict(expected_positives)
            # No cell is created that no vote incremented.
            assert all(any(counts) for counts in got.values())


def _planted(kind, tag):
    """A distinct value of ``kind`` for each ``tag`` pair."""
    if kind is T.IP4:
        return Indicator(kind, f"10.0.{tag[0]}.{tag[1]}")
    if kind is T.FQDN:
        return Indicator(kind, f"h{tag[0]}-{tag[1]}.example.com")
    return Indicator(kind, hashlib.md5(repr(tag).encode()).hexdigest())


def _f1(precision, recall):
    return 2 * precision * recall / (precision + recall)


class TestVoteAgainstPlantedTruth:
    """The vote has no ground truth: it takes the majority of the tools that
    support a type to be right. Tools with known error rates over planted
    indicators show how close that comes to the truth, and where it fails."""

    #: Tool -> (chance to miss each planted value, chance to add a value of
    #: its own in each of 8 slots per document).
    RATES = {
        "a": (0.05, 0.02), "b": (0.15, 0.05), "c": (0.30, 0.10),
        "d": (0.10, 0.20), "e": (0.20, 0.01),
    }
    KINDS = (T.IP4, T.FQDN, T.MD5)

    def test_independent_errors_vote_ranks_and_estimates_true_scores(self):
        rng = random.Random(0)
        docs = [f"d{i}" for i in range(300)]
        outputs, exact = [], {tool: [0, 0, 0] for tool in self.RATES}  # tp, fp, fn
        for doc in docs:
            kinds = rng.choices(self.KINDS, k=8)
            planted = [_planted(kind, (0, slot)) for slot, kind in enumerate(kinds)]
            for i, (tool, (miss, add)) in enumerate(self.RATES.items(), 1):
                found = {ind for ind in planted if rng.random() >= miss}
                own = {
                    _planted(rng.choice(self.KINDS), (i, slot))
                    for slot in range(8) if rng.random() < add
                }
                outputs.append(ToolOutput(tool, doc, frozenset(found | own)))
                exact[tool][0] += len(found)
                exact[tool][1] += len(own)
                exact[tool][2] += len(planted) - len(found)
        profiles = [profile(tool, *self.KINDS) for tool in self.RATES]
        report = metrics(compare(profiles, outputs, docs), profiles)
        true_f1 = {}
        for tool, (tp, fp, fn) in exact.items():
            precision, recall = tp / (tp + fp), tp / (tp + fn)
            true_f1[tool] = _f1(precision, recall)
            voted = report[tool]["overall"]
            assert voted["precision"] == pytest.approx(precision, abs=0.03), tool
            assert voted["recall"] == pytest.approx(recall, abs=0.03), tool
            assert voted["f1"] == pytest.approx(true_f1[tool], abs=0.03), tool
        by_vote = sorted(self.RATES, key=lambda tool: report[tool]["overall"]["f1"])
        assert by_vote == sorted(self.RATES, key=true_f1.get)

    def test_shared_errors_outvote_the_correct_tool(self):
        # a and b report the same junk value beside the truth; c reports the
        # truth only. Two of three is a majority, so the junk is "found".
        profiles = [profile(tool, T.FQDN) for tool in "abc"]
        docs = [f"d{i}" for i in range(20)]
        outputs = []
        for i, doc in enumerate(docs):
            truth, junk = (T.FQDN, f"real{i}.example.com"), (T.FQDN, f"junk{i}.example.net")
            outputs += [output("a", doc, truth, junk), output("b", doc, truth, junk)]
            outputs.append(output("c", doc, truth))
        report = metrics(compare(profiles, outputs, docs), profiles)
        scores = {
            tool: (cell["overall"]["precision"], cell["overall"]["recall"])
            for tool, cell in report.items()
        }
        # The truth is (0.5, 1.0) for a and b and (1.0, 1.0) for c.
        assert scores == {"a": (1.0, 1.0), "b": (1.0, 1.0), "c": (1.0, 0.5)}
