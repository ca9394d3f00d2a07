"""The checked-in suppression file, ``lint-baseline.toml``.

Some findings are *intentional*: a lock-free fast path whose unlocked
read is a sanctioned GIL-atomic probe, say.  Rather than weakening the
analyses, each such finding is recorded here with a one-line
justification:

.. code-block:: toml

    [[suppression]]
    id = "race:MetricFamily._children"
    reason = "double-checked locking: the unlocked probe is GIL-atomic"

``id`` may use ``fnmatch`` wildcards so a suppression survives
line-number and path churn.  Python 3.11+ parses the file with
:mod:`tomllib`; on 3.10 a minimal reader for exactly this shape
(``[[suppression]]`` tables of string keys) takes over, so the plane
has zero dependencies beyond the standard library.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional

__all__ = ["Baseline", "Suppression", "find_baseline", "load_baseline"]

#: filename looked up from the repository root
BASELINE_NAME = "lint-baseline.toml"


@dataclass(frozen=True)
class Suppression:
    """One justified, intentionally tolerated finding."""

    ident: str
    reason: str

    def matches(self, ident: str) -> bool:
        """True when this entry covers ``ident`` (fnmatch semantics)."""
        return fnmatchcase(ident, self.ident)


@dataclass
class Baseline:
    """The parsed suppression set; matching is first-entry-wins."""

    suppressions: List[Suppression] = field(default_factory=list)
    path: Optional[str] = None

    def suppressed(self, ident: str) -> bool:
        """True when any checked-in entry covers the finding id."""
        return any(s.matches(ident) for s in self.suppressions)

    def reason_for(self, ident: str) -> Optional[str]:
        """The justification attached to the first covering entry."""
        for s in self.suppressions:
            if s.matches(ident):
                return s.reason
        return None


def _parse_minimal_toml(text: str) -> List[Dict[str, str]]:
    """Parse the ``[[suppression]]`` subset of TOML used by the baseline.

    Supports array-of-tables headers, ``key = "value"`` string pairs,
    comments and blank lines — nothing else, by design: the fallback
    only ever reads the file this module documents.
    """
    tables: List[Dict[str, str]] = []
    current: Optional[Dict[str, str]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[[suppression]]":
            current = {}
            tables.append(current)
            continue
        if line.startswith("["):
            raise ValueError(f"unsupported baseline section: {line}")
        if "=" not in line:
            raise ValueError(f"unparseable baseline line: {line}")
        if current is None:
            raise ValueError(f"key outside [[suppression]] table: {line}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if len(value) < 2 or value[0] not in "\"'" or value[-1] != value[0]:
            raise ValueError(f"baseline values must be quoted strings: {line}")
        current[key] = value[1:-1]
    return tables


def load_baseline(path: str) -> Baseline:
    """Read and validate a baseline file; every entry needs a reason."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        import tomllib
        tables = tomllib.loads(text).get("suppression", [])
    except ModuleNotFoundError:  # Python 3.10: no tomllib in the stdlib
        tables = _parse_minimal_toml(text)
    suppressions = []
    for table in tables:
        ident = str(table.get("id", "")).strip()
        reason = str(table.get("reason", "")).strip()
        if not ident:
            raise ValueError(f"{path}: suppression without an id")
        if not reason:
            raise ValueError(
                f"{path}: suppression {ident!r} has no justification")
        suppressions.append(Suppression(ident=ident, reason=reason))
    return Baseline(suppressions=suppressions, path=path)


def find_baseline(start: Optional[str] = None,
                  name: str = BASELINE_NAME) -> Optional[Baseline]:
    """Locate and load a baseline file (default ``lint-baseline.toml``)
    by walking up from ``start`` (default: this package's repository
    checkout); ``None`` when no file is found — all findings then count
    as live.  Other planes reuse the walk with their own ``name``
    (the conformance checker passes ``conform-baseline.toml``)."""
    here = os.path.abspath(start or os.path.dirname(__file__))
    while True:
        candidate = os.path.join(here, name)
        if os.path.isfile(candidate):
            return load_baseline(candidate)
        parent = os.path.dirname(here)
        if parent == here:
            return None
        here = parent
