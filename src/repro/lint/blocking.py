"""Reactor blocking-call lint: no blocking syscalls on the event loop.

An event-driven server lives or dies by its loop never blocking: one
``time.sleep`` or synchronous ``open``/``connect`` inside a reactor
callback stalls *every* connection on that reactor.  The paper's answer
is structural (file I/O goes through the Proactor emulation, handlers
run on the Event Processor pool); this lint checks the structure holds.

The pass parses ``repro.runtime`` and ``repro.servers`` (or any path
set), builds a name-resolved call graph, and walks reachability from
the *reactor-loop roots* — the functions the dispatcher runs inline:
readiness routing, the communicator's ``on_readable``/``on_writable``
and the periodic duties run from timer events.  Any blocking
primitive reachable from a root is a finding, reported with one sample
call path.

Call edges resolve by simple name (a call to ``x.foo(...)`` links to
every scanned function named ``foo``), which over-approximates: the
lint may report paths the runtime never takes, but it cannot miss a
statically visible one.  False positives that are *by design* — the
acceptor's EMFILE backoff sleep, for instance — live in
``lint-baseline.toml`` with their justification, not in special cases
here.

The sanctioned waits never show up because they are not reachable from
the roots: the Event Source's own ``select``-with-timeout *is* the
reactor's blocking point, and the Proactor's worker threads (which may
block on disk by design) run off-loop.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding

__all__ = [
    "BLOCKING_MODULE_CALLS",
    "DEFAULT_ROOT_NAMES",
    "DEFAULT_ROOT_QUALNAMES",
    "BlockingLint",
    "FunctionInfo",
    "default_paths",
    "lint_paths",
]

#: ``module.attr`` calls that block the calling thread
BLOCKING_MODULE_CALLS: Set[Tuple[str, str]] = {
    ("time", "sleep"),
    ("socket", "create_connection"),
    ("socket", "getaddrinfo"),
    ("socket", "gethostbyname"),
    ("socket", "gethostbyaddr"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("os", "system"),
    ("select", "select"),
}

#: bare builtin calls that hit the disk or the terminal
BLOCKING_BUILTIN_CALLS: Set[str] = {"open", "input"}

#: methods that are reactor-loop entry points wherever they appear
#: (matching by simple name lets fixture files and future server shapes
#: participate without registration)
DEFAULT_ROOT_NAMES: Set[str] = {
    "on_readable",
    "on_writable",
    "_read_request",   # the strand steps those two pass, not call
    "_send_reply",
    "route_readable",
    "route_writable",
    "dispatch",
    # an accept loop that stops draining early re-posts its listener
    # inline on the loop, through the event source's synthetic-ready
    # queue
    "rearm_listener",
}

#: fully qualified roots that need their class context to be meaningful
#: (``tick`` or ``check`` alone would make unrelated methods roots):
#: the periodic duties a generated Server Event Handler runs from timer
#: events on the dispatcher thread
DEFAULT_ROOT_QUALNAMES: Set[str] = {
    "DeadlineMonitor.tick",
    "WorkerSupervisor.check",
    "ProcessorController.evaluate",
}


@dataclass
class FunctionInfo:
    """One scanned function: where it is and what it calls."""

    qualname: str
    path: str
    lineno: int
    calls: Set[str] = field(default_factory=set)
    blocking_sites: List[Tuple[str, int]] = field(default_factory=list)


class _ModuleScanner(ast.NodeVisitor):
    """Collects :class:`FunctionInfo` records for one source file."""

    def __init__(self, path: str, rel: str):
        self.path = path
        self.rel = rel
        self.functions: List[FunctionInfo] = []
        self._class_stack: List[str] = []
        self._func_stack: List[FunctionInfo] = []

    # -- structure --------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Track the class-name stack for qualified names."""
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        """Open a FunctionInfo record and scan the body under it."""
        qual = ".".join(self._class_stack + [node.name]) \
            if self._class_stack else node.name
        info = FunctionInfo(qualname=qual, path=self.rel, lineno=node.lineno)
        self.functions.append(info)
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- calls ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        """Record call edges and blocking sites for the enclosing function."""
        info = self._func_stack[-1] if self._func_stack else None
        func = node.func
        if isinstance(func, ast.Name):
            callee, dotted = func.id, func.id
            if callee in BLOCKING_BUILTIN_CALLS and info is not None:
                info.blocking_sites.append((dotted, node.lineno))
        elif isinstance(func, ast.Attribute):
            callee = func.attr
            base = func.value
            if (isinstance(base, ast.Name)
                    and (base.id, func.attr) in BLOCKING_MODULE_CALLS
                    and info is not None):
                info.blocking_sites.append(
                    (f"{base.id}.{func.attr}", node.lineno))
        else:
            callee = None
        if callee is not None and info is not None:
            info.calls.add(callee)
        self.generic_visit(node)


class BlockingLint:
    """The whole pass: scan files, build the graph, walk from the roots."""

    def __init__(self,
                 root_names: Optional[Set[str]] = None,
                 root_qualnames: Optional[Set[str]] = None):
        self.root_names = (set(root_names) if root_names is not None
                           else set(DEFAULT_ROOT_NAMES))
        self.root_qualnames = (set(root_qualnames)
                               if root_qualnames is not None
                               else set(DEFAULT_ROOT_QUALNAMES))
        self.functions: List[FunctionInfo] = []

    # -- scanning ---------------------------------------------------------
    def scan_file(self, path: str, rel: Optional[str] = None) -> None:
        """Parse one source file into the function table."""
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        scanner = _ModuleScanner(path, rel or path)
        scanner.visit(tree)
        self.functions.extend(scanner.functions)

    def scan_paths(self, paths: Iterable[str], base: Optional[str] = None
                   ) -> None:
        """Scan files and (recursively) directories of ``*.py`` files."""
        for path in paths:
            if os.path.isdir(path):
                for dirpath, _dirs, files in os.walk(path):
                    for name in sorted(files):
                        if name.endswith(".py"):
                            full = os.path.join(dirpath, name)
                            self.scan_file(full, self._rel(full, base))
            else:
                self.scan_file(path, self._rel(path, base))

    @staticmethod
    def _rel(path: str, base: Optional[str]) -> str:
        """Reported path for a file, rebased when ``base`` is given."""
        if base is None:
            return path
        return os.path.relpath(path, base)

    # -- analysis ---------------------------------------------------------
    def _is_root(self, info: FunctionInfo) -> bool:
        """True when the function is a reactor-loop entry point."""
        name = info.qualname.rsplit(".", 1)[-1]
        return (name in self.root_names
                or info.qualname in self.root_qualnames)

    def reachable(self) -> Dict[str, List[str]]:
        """qualname -> sample call path from a root, for every function
        reachable from the reactor-loop roots (BFS, name-resolved)."""
        by_name: Dict[str, List[FunctionInfo]] = {}
        for info in self.functions:
            by_name.setdefault(info.qualname.rsplit(".", 1)[-1],
                               []).append(info)
        paths: Dict[str, List[str]] = {}
        queue: List[FunctionInfo] = []
        for info in self.functions:
            if self._is_root(info):
                paths[info.qualname] = [info.qualname]
                queue.append(info)
        while queue:
            current = queue.pop(0)
            base_path = paths[current.qualname]
            for callee in sorted(current.calls):
                for target in by_name.get(callee, ()):
                    if target.qualname in paths:
                        continue
                    paths[target.qualname] = base_path + [target.qualname]
                    queue.append(target)
        return paths

    def findings(self) -> List[Finding]:
        """Blocking sites inside root-reachable functions."""
        paths = self.reachable()
        results: List[Finding] = []
        seen: Set[Tuple[str, int, str]] = set()
        for info in self.functions:
            chain = paths.get(info.qualname)
            if chain is None:
                continue
            for dotted, lineno in info.blocking_sites:
                site = (info.path, lineno, dotted)
                if site in seen:
                    continue
                seen.add(site)
                ident = f"blocking:{info.path}:{info.qualname}:{dotted}"
                results.append(Finding(
                    kind="blocking",
                    ident=ident,
                    location=f"{info.path}:{lineno}",
                    message=(f"{dotted}() can block the reactor loop "
                             f"(reachable from {chain[0]})"),
                    detail="call path: " + " -> ".join(chain),
                ))
        results.sort(key=lambda f: f.ident)
        return results


def default_paths() -> List[str]:
    """The shipped-tree scan set: the runtime and the server apps."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [os.path.join(src, "runtime"), os.path.join(src, "servers")]


def lint_paths(paths: Optional[Sequence[str]] = None,
               base: Optional[str] = None,
               root_names: Optional[Set[str]] = None,
               root_qualnames: Optional[Set[str]] = None) -> List[Finding]:
    """Run the lint over ``paths`` (default: the shipped tree).

    ``base`` rebases reported file paths (CI passes the repo root so
    baseline ids stay machine-independent)."""
    lint = BlockingLint(root_names=root_names, root_qualnames=root_qualnames)
    scan = list(paths) if paths else default_paths()
    if base is None and not paths:
        # default scan: report paths relative to the package parent so
        # idents look like "repro/runtime/acceptor.py:..."
        base = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
    lint.scan_paths(scan, base=base)
    return lint.findings()
