"""Defang transformation catalog: rearm (refang) matched values, defang armed ones.

The catalog is data-driven so new transformations seen in the wild can be
added without touching the engine: each rule is (obfuscated pattern,
armed replacement, applicable types). The default table is
``DEFAULT_RULES`` below; ``load_rules`` reads a custom one from a file.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import InapplicableRuleError, MalformedLineError, read_lines
from .types import IndicatorType

_T = IndicatorType
_DOTTED = frozenset({_T.IP4, _T.FQDN, _T.URL, _T.EMAIL})


@dataclass(frozen=True)
class DefangRule:
    """One obfuscation: ``pattern`` is the defanged text, ``replacement`` the armed text."""

    id: str
    pattern: str
    replacement: str
    types: frozenset[IndicatorType]

    def applies_to(self, type: IndicatorType) -> bool:
        return type in self.types


DEFAULT_RULES: tuple[DefangRule, ...] = (
    DefangRule("hxxp_bracket_colon", "hxxp[:]//", "http://", frozenset({_T.URL})),
    DefangRule("hxxps_bracket_colon", "hxxps[:]//", "https://", frozenset({_T.URL})),
    DefangRule("hxxps_scheme", "hxxps://", "https://", frozenset({_T.URL})),
    DefangRule("hxxp_scheme", "hxxp://", "http://", frozenset({_T.URL})),
    DefangRule("bracket_colon_slashes", "[:]//", "://", frozenset({_T.URL})),
    DefangRule("bracket_dot", "[.]", ".", _DOTTED),
    DefangRule("paren_dot", "(.)", ".", _DOTTED),
    DefangRule("bracket_dot_word", "[dot]", ".", _DOTTED),
    DefangRule("paren_dot_word", "(dot)", ".", _DOTTED),
    DefangRule("at_brackets", "[at]", "@", frozenset({_T.EMAIL})),
    DefangRule("at_parens", "(at)", "@", frozenset({_T.EMAIL})),
    DefangRule("at_underscores", "_at_", "@", frozenset({_T.EMAIL})),
)


class DefangCatalog:
    """Immutable rule table with per-type rearm/defang operations."""

    def __init__(self, rules: Iterable[DefangRule] = DEFAULT_RULES):
        self.rules: tuple[DefangRule, ...] = tuple(rules)
        self._by_id = {r.id: r for r in self.rules}
        self._rearm_re: dict[IndicatorType, re.Pattern[str] | None] = {}
        self._armed_of: dict[IndicatorType, dict[str, str]] = {}
        for t in IndicatorType:
            applicable = [r for r in self.rules if r.applies_to(t)]
            if not applicable:
                self._rearm_re[t] = None
                self._armed_of[t] = {}
                continue
            # Longest pattern first so e.g. "hxxp[:]//" wins over "[:]//".
            applicable.sort(key=lambda r: len(r.pattern), reverse=True)
            self._rearm_re[t] = re.compile(
                "|".join(re.escape(r.pattern) for r in applicable)
            )
            self._armed_of[t] = {r.pattern: r.replacement for r in applicable}

    def __iter__(self):
        return iter(self.rules)

    def rule(self, rule_id: str) -> DefangRule:
        try:
            return self._by_id[rule_id]
        except KeyError:
            raise InapplicableRuleError(f"unknown defang rule: {rule_id!r}") from None

    def rearm(self, raw: str, type: IndicatorType) -> str:
        """Undo every applicable defang transformation in ``raw``.

        Runs single simultaneous passes to a fixpoint, which makes the
        operation idempotent even on nested obfuscations like "([.])".
        Total: values with no applicable obfuscation pass through unchanged.
        """
        return self.rearmer(type)(raw)

    def rearmer(self, type: IndicatorType) -> Callable[[str], str]:
        """``rearm`` for one type, as a function of the raw value."""
        pattern = self._rearm_re[type]
        if pattern is None:
            return str
        table = self._armed_of[type]

        def armed(m: re.Match[str]) -> str:
            return table[m.group(0)]

        def rearm(raw: str) -> str:
            current = raw
            while True:
                replaced = pattern.sub(armed, current)
                if replaced == current:
                    return replaced
                current = replaced

        return rearm

    def defang(self, value: str, type: IndicatorType, rule_ids: Sequence[str]) -> str:
        """Apply the named rules left-to-right to an armed value.

        Raises InapplicableRuleError when a rule does not apply to ``type``.
        """
        out = value
        for rule_id in rule_ids:
            rule = self.rule(rule_id)
            if not rule.applies_to(type):
                raise InapplicableRuleError(
                    f"rule {rule.id!r} does not apply to type {type.value!r}"
                )
            out = out.replace(rule.replacement, rule.pattern)
        return out


def load_rules(path: str | Path) -> DefangCatalog:
    """Load a rule table: one rule per line, tab-separated
    ``id<TAB>pattern<TAB>replacement<TAB>type,type,...``; '#' comments allowed.
    """
    rules = []
    for line_no, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != 4:
            message = f"expected 4 tab-separated fields, got {len(fields)}"
            raise MalformedLineError(path, line_no, message)
        rule_id, pattern, replacement, type_list = fields
        try:
            types = frozenset(
                IndicatorType(name.strip()) for name in type_list.split(",") if name.strip()
            )
        except ValueError:
            message = f"unknown indicator type in {type_list!r}"
            raise MalformedLineError(path, line_no, message) from None
        rules.append(DefangRule(rule_id, pattern, replacement, types))
    return DefangCatalog(rules)


DEFAULT_CATALOG = DefangCatalog()


def rearm(raw: str, type: IndicatorType) -> str:
    """Rearm ``raw`` using the default rule catalog."""
    return DEFAULT_CATALOG.rearm(raw, type)


def defang(value: str, type: IndicatorType, rule_ids: Sequence[str]) -> str:
    """Defang ``value`` using the default rule catalog."""
    return DEFAULT_CATALOG.defang(value, type, rule_ids)
