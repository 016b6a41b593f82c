"""Registrable-domain extraction backed by a pinned public-suffix snapshot.

Follows the publicsuffix.org matching algorithm (longest rule wins,
``*.`` wildcards, ``!`` exceptions, implicit ``*`` default) over the
subset shipped in ``data/public_suffixes.dat``. That snapshot,
``DEFAULT_RULES``, is the only table; to use a full Public Suffix List,
replace the file (the line format is the same).
"""
from __future__ import annotations

from pathlib import Path

from .errors import DATA, read_lines


class SuffixRules:
    """Parsed suffix rules: plain, wildcard, and exception entries."""

    def __init__(self, plain: set[str], wildcard: set[str], exception: set[str]):
        self.plain = frozenset(plain)
        self.wildcard = frozenset(wildcard)  # stored without the "*." prefix
        self.exception = frozenset(exception)

    @classmethod
    def load(cls, path: str | Path) -> "SuffixRules":
        """Rules from a public-suffix file: one rule per line; '//' and '#'
        comments allowed."""
        plain, wildcard, exception = set(), set(), set()
        for _, line in read_lines(path):
            line = line.strip().lower()
            if line.startswith("//"):
                continue
            if line.startswith("!"):
                exception.add(line[1:])
            elif line.startswith("*."):
                wildcard.add(line[2:])
            else:
                plain.add(line)
        return cls(plain, wildcard, exception)

    def suffix_length(self, labels: list[str]) -> int:
        """Number of trailing labels that form the public suffix."""
        best = 1  # implicit "*" default rule
        for take in range(1, len(labels) + 1):
            candidate = ".".join(labels[-take:])
            if candidate in self.exception:
                # An exception rule makes the matched name registrable itself.
                best = max(best, take - 1)
            elif candidate in self.plain:
                best = max(best, take)
            elif take >= 2 and ".".join(labels[-take + 1 :]) in self.wildcard:
                best = max(best, take)
        return best

    def registrable_domain(self, host: str) -> str | None:
        """The registered (public-suffix + 1 label) domain of ``host``.

        Returns None when ``host`` is empty, has no dot, or is itself a
        public suffix.
        """
        host = host.strip().strip(".").lower()
        if not host or "." not in host:
            return None
        labels = host.split(".")
        if any(not lbl for lbl in labels):
            return None
        n = self.suffix_length(labels)
        if n >= len(labels):
            return None
        return ".".join(labels[-(n + 1) :])


DEFAULT_RULES = SuffixRules.load(DATA / "public_suffixes.dat")

#: The registrable domain of a host under the pinned snapshot.
registrable_domain = DEFAULT_RULES.registrable_domain
