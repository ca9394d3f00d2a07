"""Pattern templates and the template registry.

CO2P3S presents the programmer with a palette of design pattern
templates; each template is customised by setting options and then
generates framework code.  :class:`PatternTemplate` is the base class;
the registry lets tools enumerate available templates (the CO2P3S GUI
role — here, a programmatic API).
"""

from __future__ import annotations

import importlib
import os
import shutil
import sys
import weakref
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.co2p3s.codegen import CodeGenerator, GenerationReport
from repro.co2p3s.options import OptionSet, OptionSpec

__all__ = ["PatternTemplate", "register_template", "get_template",
           "available_templates", "load_generated_package",
           "remove_build_on_stop"]


class PatternTemplate:
    """A generative design pattern template.

    Subclasses define ``name``, ``description``, ``option_specs()`` and
    ``build_generator()``; users call :meth:`configure` then
    :meth:`generate`.
    """

    name: str = "abstract"
    description: str = ""

    def option_specs(self) -> Sequence[OptionSpec]:
        raise NotImplementedError

    def build_generator(self) -> CodeGenerator:
        raise NotImplementedError

    # -- user-facing API ------------------------------------------------------
    def configure(self, values: Optional[Mapping[str, Any]] = None) -> OptionSet:
        """An :class:`OptionSet` for this template (defaults + overrides)."""
        return OptionSet(self.option_specs(), values)

    def validate(self, opts: OptionSet) -> None:
        """Template-level cross-option constraint checks (override)."""

    def render(self, opts: OptionSet, package: str = "generated") -> GenerationReport:
        self.validate(opts)
        return self.build_generator().render(opts, package)

    def generate(self, opts: OptionSet, dest: str,
                 package: str = "generated") -> GenerationReport:
        """Write the generated framework package under ``dest``."""
        self.validate(opts)
        return self.build_generator().generate(opts, dest, package)


_REGISTRY: Dict[str, PatternTemplate] = {}


def register_template(template: PatternTemplate) -> PatternTemplate:
    _REGISTRY[template.name] = template
    return template


def get_template(name: str) -> PatternTemplate:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"no template named {name!r}; "
                       f"available: {sorted(_REGISTRY)}") from None


def available_templates() -> Dict[str, str]:
    return {name: t.description for name, t in _REGISTRY.items()}


def load_generated_package(dest: str, package: str):
    """Import a just-generated package from ``dest``.

    Adds ``dest`` to ``sys.path`` (idempotently) and purges any stale
    modules of the same package so repeated generate/load cycles in one
    process see fresh code.
    """
    if dest not in sys.path:
        sys.path.insert(0, dest)
    for mod_name in list(sys.modules):
        if mod_name == package or mod_name.startswith(package + "."):
            del sys.modules[mod_name]
    importlib.invalidate_caches()
    return importlib.import_module(package)


def remove_build_on_stop(server, dest: str) -> None:
    """Tie the build directory ``dest``, made for ``server`` alone, to
    that server: the directory and its ``sys.path`` entry are removed
    once ``server.stop()`` returns, or at the latest when the server is
    collected or the interpreter exits."""
    cleanup = weakref.finalize(server, _remove_build, dest, os.getpid())
    stop = server.stop

    def stop_then_remove_build():
        try:
            stop()
        finally:
            cleanup()

    server.stop = stop_then_remove_build


def _remove_build(dest: str, owner_pid: int) -> None:
    if os.getpid() != owner_pid:
        return      # a forked child: the build belongs to its parent
    shutil.rmtree(dest, ignore_errors=True)
    while dest in sys.path:
        sys.path.remove(dest)
