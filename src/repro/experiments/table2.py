"""Table 2: the option x class crosscut matrix, computed empirically.

The experiment: generate the framework at a base option setting, toggle
every option through each alternative legal value, and diff the
per-class generated sources.  The resulting matrix is compared against
the paper's published Table 2 minus the cells whose generated code was
deleted as never run (``TABLE2_DIVERGENCES``, printed with their
reasons) plus this reproduction's extension cells.
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
    TABLE2_DIVERGENCES,
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
    """Paper Table 2 minus the divergences, plus this reproduction's
    observability (O11), resilience (O13), deployment (O16) and
    degradation (O17) extensions."""
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
    def matches_expected(self) -> bool:
        """Empirical matrix equals the paper's table minus the recorded
        divergences plus the extensions — nothing more, nothing less."""
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
    lines.append("")
    if result.matches_expected:
        cells = sum(1 for row in result.empirical.cells.values()
                    for cell in row.values() if cell)
        lines.append("Matches the paper's Table 2 minus the divergences "
                     "below, plus the extension rows and cells "
                     f"({len(result.empirical.class_names)} classes x "
                     f"{len(result.empirical.option_keys)} options, "
                     f"{cells} non-empty cells).")
    else:
        lines.append("DIFFERENCES vs expected (class, option, ours, expected):")
        for diff in result.vs_expected:
            lines.append(f"  {diff}")
    lines.append("")
    lines.append("Paper cells not reproduced (their generated code never ran "
                 "and was deleted):")
    for name in TABLE2_CLASS_ORDER:
        for key, reason in TABLE2_DIVERGENCES.get(name, {}).items():
            lines.append(f"  {name} x {key} ({PAPER_TABLE2[name][key]}): "
                         f"{reason}")
    return "\n".join(lines)
