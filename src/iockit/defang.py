"""Defang table: rearm (refang) matched values, defang armed ones.

``DEFAULT_RULES`` is the one table of defang forms. Each rule is (id,
defanged pattern, armed replacement, applicable types). ``rearm`` undoes
the rules, ``defang`` applies them, and the regex catalog in ``patterns``
takes its dot and at forms from the same table.
"""
from __future__ import annotations

import re
from typing import Callable, NamedTuple, Sequence

from .errors import InapplicableRuleError
from .types import IndicatorType

_T = IndicatorType
_DOTTED = frozenset({_T.IP4, _T.FQDN, _T.URL, _T.EMAIL})


class DefangRule(NamedTuple):
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


def _rearmer(type: IndicatorType) -> Callable[[str], str]:
    """``rearm`` for one type: single simultaneous passes of its rules, run
    to a fixpoint, which makes it idempotent even on nested obfuscations
    like "([.])"."""
    # Longest pattern first so e.g. "hxxp[:]//" wins over "[:]//".
    rules = sorted(
        (r for r in DEFAULT_RULES if r.applies_to(type)),
        key=lambda r: len(r.pattern), reverse=True,
    )
    if not rules:
        return str
    pattern = re.compile("|".join(re.escape(r.pattern) for r in rules))
    table = {r.pattern: r.replacement for r in rules}

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


#: Type -> its rearm function.
REARMERS: dict[IndicatorType, Callable[[str], str]] = {t: _rearmer(t) for t in IndicatorType}


def rearm(raw: str, type: IndicatorType) -> str:
    """Undo every defang rule that applies to ``type`` in ``raw``.

    Total: values with no applicable obfuscation pass through unchanged.
    """
    return REARMERS[type](raw)


def defang(value: str, type: IndicatorType, rule_ids: Sequence[str]) -> str:
    """Apply the named rules left-to-right to an armed value.

    Raises InapplicableRuleError for an unknown rule or one that does not
    apply to ``type``.
    """
    out = value
    for rule_id in rule_ids:
        rule = next((r for r in DEFAULT_RULES if r.id == rule_id), None)
        if rule is None:
            raise InapplicableRuleError(f"unknown defang rule: {rule_id!r}")
        if not rule.applies_to(type):
            raise InapplicableRuleError(
                f"rule {rule.id!r} does not apply to type {type.value!r}"
            )
        out = out.replace(rule.replacement, rule.pattern)
    return out
