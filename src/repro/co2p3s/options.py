"""Option model for design pattern templates.

A template exposes a set of *options* (Table 1).  Each option has a key,
a display name, a domain of legal values, and a default.  An
:class:`OptionSet` is a validated assignment of values; code generation
consumes it, and every fragment of generated code records which option
keys it depends on (that record is what makes the Table 2 crosscut
matrix computable).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

__all__ = ["OptionSpec", "OptionError", "OptionSet"]


class OptionError(ValueError):
    """Illegal option key or value."""


class OptionSpec:
    """One template option.

    ``values`` is either an explicit tuple of legal values or ``None``
    with a ``validator`` predicate (for open domains like thread
    counts).  ``describe_values`` is the human-readable legal-values
    string printed in the Table 1 reproduction.
    """

    __slots__ = ("key", "name", "describe_values", "default", "values",
                 "validator")

    def __init__(self, key: str, name: str, describe_values: str,
                 default: Any, values: Optional[Tuple[Any, ...]] = None,
                 validator: Optional[Callable[[Any], bool]] = None):
        self.key = key
        self.name = name
        self.describe_values = describe_values
        self.default = default
        self.values = values
        self.validator = validator

    def check(self, value: Any) -> None:
        if self.values is not None and value in self.values:
            return
        if self.validator is not None and self.validator(value):
            return
        raise OptionError(
            f"option {self.key} ({self.name}): illegal value {value!r}; "
            f"legal: {self.describe_values}"
        )


class OptionSet:
    """A validated {key: value} assignment over a list of specs."""

    def __init__(self, specs: Sequence[OptionSpec],
                 values: Optional[Mapping[str, Any]] = None):
        self._specs: Dict[str, OptionSpec] = {s.key: s for s in specs}
        if len(self._specs) != len(specs):
            raise OptionError("duplicate option keys")
        self._values: Dict[str, Any] = {s.key: s.default for s in specs}
        if values:
            for key, value in values.items():
                self.set(key, value)

    # -- access -----------------------------------------------------------
    @property
    def specs(self) -> Tuple[OptionSpec, ...]:
        return tuple(self._specs.values())

    def spec(self, key: str) -> OptionSpec:
        try:
            return self._specs[key]
        except KeyError:
            raise OptionError(f"unknown option {key!r}") from None

    def get(self, key: str) -> Any:
        self.spec(key)
        return self._values[key]

    def __getitem__(self, key: str) -> Any:
        return self.get(key)

    def set(self, key: str, value: Any) -> None:
        self.spec(key).check(value)
        self._values[key] = value

    def replace(self, **changes) -> "OptionSet":
        """A copy with some values changed (validated)."""
        merged = dict(self._values)
        merged.update(changes)
        return OptionSet(list(self._specs.values()), merged)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OptionSet):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OptionSet({self._values!r})"
