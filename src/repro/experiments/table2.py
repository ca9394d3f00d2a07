"""Table 2: the option x class crosscut matrix, computed empirically.

The experiment: generate the framework at a base option setting, toggle
every option through each alternative legal value, and diff the
per-class generated sources.  The resulting matrix is compared against
the paper's published Table 2 — the reproduction asserts an exact match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.co2p3s.crosscut import (
    CrosscutMatrix,
    declared_matrix,
    empirical_matrix,
    format_matrix,
)
from repro.co2p3s.nserver import (
    ALL_FEATURES_ON,
    DEPLOYMENT_TOGGLE_BASE,
    EXPECTED_TABLE2,
    NSERVER,
    NSERVER_OPTION_SPECS,
    PAPER_TABLE2,
    POOL_TOGGLE_BASE,
    TABLE2_CLASS_ORDER,
)

__all__ = ["Table2Result", "run_table2", "format_table2", "paper_matrix",
           "expected_matrix"]


def _matrix_from(table, option_keys) -> CrosscutMatrix:
    keys = list(option_keys)
    m = CrosscutMatrix(class_names=list(TABLE2_CLASS_ORDER),
                       option_keys=keys)
    for name in TABLE2_CLASS_ORDER:
        m.cells[name] = {key: table.get(name, {}).get(key, "")
                         for key in keys}
    return m


def paper_matrix() -> CrosscutMatrix:
    """The paper's published Table 2 (12 options, no extension rows)."""
    return _matrix_from(PAPER_TABLE2, [f"O{i}" for i in range(1, 13)])


def expected_matrix() -> CrosscutMatrix:
    """Paper Table 2 plus this reproduction's observability (O11),
    resilience (O13), deployment (O16) and degradation (O17)
    extensions."""
    return _matrix_from(EXPECTED_TABLE2,
                        [spec.key for spec in NSERVER_OPTION_SPECS])


@dataclass
class Table2Result:
    empirical: CrosscutMatrix
    declared: CrosscutMatrix
    paper: CrosscutMatrix
    expected: CrosscutMatrix
    vs_expected: List[Tuple[str, str, str, str]]
    vs_declared: List[Tuple[str, str, str, str]]

    @property
    def matches_paper(self) -> bool:
        """Empirical matrix equals the paper's table plus the declared
        observability and resilience extensions — nothing more, nothing
        less."""
        return not self.vs_expected


def run_table2() -> Table2Result:
    emp = empirical_matrix(NSERVER, ALL_FEATURES_ON,
                           extra_bases=(POOL_TOGGLE_BASE,
                                        DEPLOYMENT_TOGGLE_BASE))
    dec = declared_matrix(NSERVER, ALL_FEATURES_ON)
    return Table2Result(
        empirical=emp,
        declared=dec,
        paper=paper_matrix(),
        expected=expected_matrix(),
        vs_expected=emp.differences(expected_matrix()),
        vs_declared=emp.differences(dec),
    )


def format_table2(result: Table2Result) -> str:
    lines = [format_matrix(
        result.empirical,
        title="TABLE 2 — EMPIRICAL CROSSCUT MATRIX "
              "(O = option controls existence, + = option alters code)")]
    if result.matches_paper:
        lines.append("")
        lines.append("Exact match with the paper's Table 2 plus the "
                     "Observability and Resilience extension rows "
                     f"({len(result.empirical.class_names)} classes x "
                     f"{len(result.empirical.option_keys)} options).")
    else:
        lines.append("")
        lines.append("DIFFERENCES vs expected (class, option, ours, expected):")
        for diff in result.vs_expected:
            lines.append(f"  {diff}")
    return "\n".join(lines)
