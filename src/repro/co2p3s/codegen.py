"""Fragment-based code generation.

The generative mechanism of CO2P3S, reproduced in Python: a pattern
template describes the *classes* of the framework it generates; each
class is assembled from *fragments* whose inclusion and text depend on
the template options ("application code underlying each feature can be
included or excluded at code generation time").

Key objects:

* :class:`Fragment` — a block of source with an inclusion guard and the
  list of option keys it depends on.  Substitution parameters appear as
  ``$name`` and are filled from a context dict computed from the options.
* :class:`ClassSpec` — a generated class: existence guard + fragments.
* :class:`ModuleSpec` — a generated module: imports + classes + free code.
* :class:`CodeGenerator` — renders a list of ModuleSpecs to a package on
  disk and returns a :class:`GenerationReport` with per-class metadata
  (the raw material for the Table 2 crosscut matrix).
"""

from __future__ import annotations

import os
import re
import textwrap
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.co2p3s.options import OptionSet

__all__ = [
    "Fragment",
    "ClassSpec",
    "ModuleSpec",
    "GeneratedClass",
    "GenerationReport",
    "CodeGenerator",
    "OMIT",
    "always",
    "when",
]

Guard = Callable[[OptionSet], bool]


def always(_opts: OptionSet) -> bool:
    """The default guard: include unconditionally."""
    return True


def when(predicate: Callable[[OptionSet], bool]) -> Guard:
    """Readability alias: ``when(lambda o: o["O8"])``."""
    return predicate


_SUBST = re.compile(r"\$(\w+)")

#: a substitution value of OMIT deletes the whole line it appears on —
#: how option-disabled instrumentation lines vanish from generated code
OMIT = "\x00omit\x00"


class Fragment:
    """A guarded block of source at class-body (or module) level.

    ``options`` lists the option keys this fragment depends on — through
    its guard or through ``$name`` substitutions.  The dependency record
    is declared, then *verified empirically* by the crosscut analysis
    (generate + diff), so a stale declaration shows up as a test failure
    rather than silent misdocumentation.
    """

    __slots__ = ("source", "guard", "options")

    def __init__(self, source: str, guard: Guard = always,
                 options: Tuple[str, ...] = ()):
        self.source = source
        self.guard = guard
        self.options = options

    def render(self, opts: OptionSet, context: Dict[str, Any]) -> Optional[str]:
        if not self.guard(opts):
            return None
        text = textwrap.dedent(self.source).strip("\n")

        def replace(match: re.Match) -> str:
            name = match.group(1)
            if name not in context:
                raise KeyError(
                    f"fragment parameter ${name} missing from context")
            return str(context[name])

        text = _SUBST.sub(replace, text)
        if OMIT in text:
            text = "\n".join(line for line in text.split("\n")
                             if OMIT not in line)
        return text


class ClassSpec:
    """One class of the generated framework."""

    __slots__ = ("name", "doc", "bases", "exists", "exists_options",
                 "fragments")

    def __init__(self, name: str, doc: str, bases: Tuple[str, ...] = (),
                 exists: Guard = always, exists_options: Tuple[str, ...] = (),
                 fragments: Optional[List[Fragment]] = None):
        self.name = name
        self.doc = doc
        self.bases = bases
        self.exists = exists
        self.exists_options = exists_options
        self.fragments = fragments if fragments is not None else []

    def render(self, opts: OptionSet, context: Dict[str, Any]) -> Optional[str]:
        if not self.exists(opts):
            return None
        bases = f"({', '.join(self.bases)})" if self.bases else ""
        lines = [f"class {self.name}{bases}:"]
        doc = self.doc.strip()
        body_parts: List[str] = []
        if doc:
            body_parts.append(f'"""{doc}"""')
        for frag in self.fragments:
            text = frag.render(opts, context)
            if text:
                body_parts.append(text)
        if not body_parts:
            body_parts.append("pass")
        body = "\n\n".join(body_parts)
        lines.append(textwrap.indent(body, "    "))
        return "\n".join(lines)

    def body_options(self) -> Tuple[str, ...]:
        """Option keys that alter this class's generated body."""
        seen: List[str] = []
        for frag in self.fragments:
            for key in frag.options:
                if key not in seen:
                    seen.append(key)
        return tuple(seen)


class ModuleSpec:
    """One module of the generated package."""

    __slots__ = ("name", "doc", "imports", "prelude", "classes", "epilogue")

    def __init__(self, name: str, doc: str = "",
                 imports: Optional[List[Fragment]] = None,
                 prelude: Optional[List[Fragment]] = None,
                 classes: Optional[List[ClassSpec]] = None,
                 epilogue: Optional[List[Fragment]] = None):
        self.name = name
        self.doc = doc
        self.imports = imports if imports is not None else []
        self.prelude = prelude if prelude is not None else []
        self.classes = classes if classes is not None else []
        self.epilogue = epilogue if epilogue is not None else []

    def render(self, opts: OptionSet, context: Dict[str, Any]) -> Optional[str]:
        class_texts = [c.render(opts, context) for c in self.classes]
        live_classes = [t for t in class_texts if t]
        prelude = [f.render(opts, context) for f in self.prelude]
        epilogue = [f.render(opts, context) for f in self.epilogue]
        has_code = live_classes or any(prelude) or any(epilogue)
        if not has_code:
            return None
        parts: List[str] = []
        if self.doc:
            parts.append(f'"""{self.doc.strip()}"""')
        imports = [f.render(opts, context) for f in self.imports]
        imports = [t for t in imports if t]
        if imports:
            parts.append("\n".join(imports))
        parts.extend(t for t in prelude if t)
        parts.extend(live_classes)
        parts.extend(t for t in epilogue if t)
        return "\n\n\n".join(parts) + "\n"


class GeneratedClass:
    """Metadata for one class that made it into the output."""

    __slots__ = ("name", "module", "source", "exists_options", "body_options")

    def __init__(self, name: str, module: str, source: str,
                 exists_options: Tuple[str, ...],
                 body_options: Tuple[str, ...]):
        self.name = name
        self.module = module
        self.source = source
        self.exists_options = exists_options
        self.body_options = body_options


class GenerationReport:
    """What a generation run produced."""

    __slots__ = ("package", "dest", "files", "classes")

    def __init__(self, package: str, dest: str,
                 files: Optional[Dict[str, str]] = None,
                 classes: Optional[List[GeneratedClass]] = None):
        self.package = package
        self.dest = dest
        self.files = files if files is not None else {}
        self.classes = classes if classes is not None else []

    @property
    def total_lines(self) -> int:
        return sum(text.count("\n") for text in self.files.values())

    def class_names(self) -> List[str]:
        return [c.name for c in self.classes]

    def find_class(self, name: str) -> Optional[GeneratedClass]:
        for c in self.classes:
            if c.name == name:
                return c
        return None


class CodeGenerator:
    """Renders ModuleSpecs into a Python package."""

    def __init__(self, modules: Sequence[ModuleSpec],
                 context_builder: Callable[[OptionSet], Dict[str, Any]],
                 init_builder: Optional[Callable[[OptionSet, List[str]], str]] = None,
                 header: str = ""):
        self.modules = list(modules)
        self.context_builder = context_builder
        self.init_builder = init_builder
        self.header = header

    def render(self, opts: OptionSet, package: str) -> GenerationReport:
        """Render in memory (no filesystem)."""
        context = dict(self.context_builder(opts))
        context.setdefault("package", package)
        report = GenerationReport(package=package, dest="")
        module_names: List[str] = []
        for mod in self.modules:
            text = mod.render(opts, context)
            if text is None:
                continue
            if self.header:
                text = self.header.rstrip() + "\n" + text
            report.files[f"{mod.name}.py"] = text
            module_names.append(mod.name)
            for cls in mod.classes:
                if cls.exists(opts):
                    rendered = cls.render(opts, context)
                    report.classes.append(GeneratedClass(
                        name=cls.name,
                        module=mod.name,
                        source=rendered or "",
                        exists_options=cls.exists_options,
                        body_options=cls.body_options(),
                    ))
        init_text = (self.init_builder(opts, module_names)
                     if self.init_builder else
                     "\n".join(f"from {context['package']}.{m} import *  # noqa: F401,F403"
                               for m in module_names) + "\n")
        if self.header:
            init_text = self.header.rstrip() + "\n" + init_text
        report.files["__init__.py"] = init_text
        return report

    def generate(self, opts: OptionSet, dest: str, package: str) -> GenerationReport:
        """Render and write the package under ``dest/package/``."""
        report = self.render(opts, package)
        pkg_dir = os.path.join(dest, package)
        os.makedirs(pkg_dir, exist_ok=True)
        report.dest = pkg_dir
        for filename, text in report.files.items():
            with open(os.path.join(pkg_dir, filename), "w") as fh:
                fh.write(text)
        return report
