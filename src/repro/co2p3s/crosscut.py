"""Crosscut analysis: the Table 2 experiment.

Table 2 of the paper illustrates that the N-Server options crosscut the
generated classes: an ``O`` cell means the option decides whether the
class exists at all; a ``+`` cell means the option changes the class's
generated code.  The paper uses the matrix to argue that a static
framework supporting every option is infeasible.

We compute the matrix **empirically**: generate the framework at a base
option setting, then toggle each option through each of its other legal
values and diff the per-class sources.

* existence changed for some toggle  -> ``O``
* body text changed for some toggle  -> ``+``
* identical under every toggle       -> blank

``declared_matrix`` reads the same information from the template's
fragment metadata; tests assert the two agree, so the declared
dependencies can never drift from what codegen actually does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.co2p3s.options import OptionSet
from repro.co2p3s.template import PatternTemplate

__all__ = ["CrosscutMatrix", "empirical_matrix", "declared_matrix",
           "format_matrix"]


@dataclass
class CrosscutMatrix:
    """cells[class_name][option_key] in {"O", "+", ""}."""

    class_names: List[str]
    option_keys: List[str]
    cells: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def cell(self, class_name: str, option_key: str) -> str:
        return self.cells.get(class_name, {}).get(option_key, "")

    def row(self, class_name: str) -> Dict[str, str]:
        return dict(self.cells.get(class_name, {}))

    def differences(self, other: "CrosscutMatrix") -> List[Tuple[str, str, str, str]]:
        """(class, option, mine, theirs) for every disagreeing cell."""
        diffs = []
        names = sorted(set(self.class_names) | set(other.class_names))
        keys = sorted(set(self.option_keys) | set(other.option_keys))
        for name in names:
            for key in keys:
                a, b = self.cell(name, key), other.cell(name, key)
                if a != b:
                    diffs.append((name, key, a, b))
        return diffs


def _snapshot(template: PatternTemplate, opts: OptionSet,
              canon=None) -> Dict[str, str]:
    """class name -> rendered source at the given options.

    ``canon`` optionally normalises each class source before
    comparison (the generated-code auditor passes an AST dump so the
    diff sees code structure, not text)."""
    report = template.render(opts, package="xcut")
    if canon is None:
        return {c.name: c.source for c in report.classes}
    return {c.name: canon(c.source) for c in report.classes}


def empirical_matrix(template: PatternTemplate,
                     base: Optional[Mapping[str, object]] = None,
                     extra_bases: Tuple[Mapping[str, object], ...] = (),
                     canon=None) -> CrosscutMatrix:
    """Generate-and-diff crosscut analysis.

    ``base`` should enable every optional class (so that existence
    toggles are observable); defaults to the template's defaults.

    Some toggles are unreachable from a single base because template
    constraints tie options together (e.g. with event scheduling on,
    the thread pool cannot be turned off).  ``extra_bases`` supplies
    additional legal starting points; results merge cell-wise with
    ``O`` dominating ``+`` dominating blank.

    ``canon`` normalises class sources before diffing (see
    :func:`_snapshot`).
    """
    matrix = _empirical_from(template, base, canon=canon)
    for extra in extra_bases:
        other = _empirical_from(template, extra, canon=canon)
        for name in other.class_names:
            if name not in matrix.cells:
                continue  # report classes of the primary base only
            for key in matrix.option_keys:
                a = matrix.cells[name].get(key, "")
                b = other.cell(name, key)
                if a != "O" and b in ("O", "+") and (b == "O" or a == ""):
                    matrix.cells[name][key] = b
    return matrix


def _empirical_from(template: PatternTemplate,
                    base: Optional[Mapping[str, object]],
                    canon=None) -> CrosscutMatrix:
    base_opts = template.configure(base)
    base_classes = _snapshot(template, base_opts, canon=canon)
    option_keys = [s.key for s in base_opts.specs]
    matrix = CrosscutMatrix(class_names=list(base_classes),
                            option_keys=option_keys)
    for name in base_classes:
        matrix.cells[name] = {k: "" for k in option_keys}

    for spec in base_opts.specs:
        legal = spec.values or ()
        for value in legal:
            if value == base_opts[spec.key]:
                continue
            try:
                toggled = base_opts.replace(**{spec.key: value})
                template.validate(toggled)
            except Exception:
                continue  # combination rejected by template constraints
            variant = _snapshot(template, toggled, canon=canon)
            for name in base_classes:
                base_src = base_classes[name]
                var_src = variant.get(name)
                if var_src is None:
                    matrix.cells[name][spec.key] = "O"
                elif var_src != base_src and matrix.cells[name][spec.key] != "O":
                    matrix.cells[name][spec.key] = "+"
        # classes that exist only in variants (absent from base) are not
        # reported; choose a base that enables everything.
    return matrix


def declared_matrix(template: PatternTemplate,
                    base: Optional[Mapping[str, object]] = None) -> CrosscutMatrix:
    """The matrix as declared by the template's fragment metadata."""
    base_opts = template.configure(base)
    report = template.render(base_opts, package="xcut")
    option_keys = [s.key for s in base_opts.specs]
    matrix = CrosscutMatrix(class_names=report.class_names(),
                            option_keys=option_keys)
    for cls in report.classes:
        row = {k: "" for k in option_keys}
        for key in cls.body_options:
            row[key] = "+"
        for key in cls.exists_options:
            row[key] = "O"
        matrix.cells[cls.name] = row
    return matrix


def format_matrix(matrix: CrosscutMatrix, title: str = "") -> str:
    """Render the matrix the way Table 2 prints it."""
    keys = matrix.option_keys
    name_width = max(len(n) for n in matrix.class_names) + 1
    lines = []
    if title:
        lines.append(title)
    header = " " * name_width + " ".join(f"{k:>4s}" for k in keys)
    lines.append(header)
    lines.append("-" * len(header))
    for name in matrix.class_names:
        row = matrix.cells.get(name, {})
        cells = " ".join(f"{row.get(k, ''):>4s}" for k in keys)
        lines.append(f"{name:<{name_width}}{cells}")
    return "\n".join(lines)
