"""Write-path ownership lint: only ``runtime/handles.py`` mutates
``out_buffer`` or sends.

A connection's unsent reply segments are ordered, and
``SocketHandle.write`` keeps them so by checking, sending and queuing
in one call.  A write that reaches around it — ``out_buffer +=``,
``out_buffer.append(...)``, ``del out_buffer[:n]`` — can reorder
pipelined replies or send bytes twice, so everything else goes through
``write`` / ``try_send``.

The check is syntactic: outside the owner module it flags any
assignment, augmented assignment or ``del`` whose target is an
``out_buffer`` attribute (or a subscript of one), and any method
called through ``.out_buffer.``.  Reads (``len``, truth tests) pass.

The same module owns the one send primitive, ``SocketHandle._send``:
``sendmsg`` for memory segments and ``os.sendfile`` for file ranges.
A send anywhere else skips the fault plane and the out-buffer, so any
call of a ``sendmsg`` or ``sendfile`` attribute outside the owner is
flagged too.

A connection has one owner at a time, the thread running its strand,
so outside ``runtime/communicator.py`` and the handle module any
``write`` / ``try_send`` call on a name or attribute called ``handle``
is flagged too, except in :data:`HANDLE_WRITER`.
"""

from __future__ import annotations

import ast
import os
from typing import Callable, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding
from repro.lint.spans import _default_paths, _python_files

__all__ = ["handle_write_findings", "handle_writes",
           "out_buffer_findings", "out_buffer_mutations",
           "ownership_findings", "send_calls", "send_findings"]

#: the one module allowed to mutate an out-buffer or to send
OWNER = os.path.join("repro", "runtime", "handles.py")

#: the send syscalls only :data:`OWNER` may make
SEND_PRIMITIVES = ("sendmsg", "sendfile")

#: the modules that may write to a connection's handle directly
CONNECTION_OWNERS = (OWNER, os.path.join("repro", "runtime",
                                         "communicator.py"))

#: the one function elsewhere allowed a direct handle write: the O17
#: canned reject runs on the acceptor thread before any Communicator
HANDLE_WRITER = "reject_handle"


def _is_out_buffer(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "out_buffer"


def out_buffer_mutations(tree: ast.AST) -> List[Tuple[int, str]]:
    """(lineno, source) for every out-buffer mutation in ``tree``."""
    hits: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and _is_out_buffer(node.func.value)):
            hits.append((node.lineno, ast.unparse(node.func)))
            continue
        else:
            continue
        hits.extend((node.lineno, ast.unparse(t))
                    for t in targets if _is_out_buffer(t))
    return sorted(hits)


def _calls(tree: ast.AST, methods: Sequence[str]) -> List[Tuple[int, str]]:
    return sorted(
        (node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods)


def send_calls(tree: ast.AST) -> List[Tuple[int, str]]:
    """(lineno, source) for every ``sendmsg`` / ``sendfile`` call in
    ``tree``, whatever it is called on."""
    return _calls(tree, SEND_PRIMITIVES)


def handle_writes(tree: ast.AST) -> List[Tuple[int, str]]:
    """(lineno, source) for every ``write`` / ``try_send`` call on a
    name or attribute called ``handle`` in ``tree``, outside
    :data:`HANDLE_WRITER`."""
    allowed = {line for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name == HANDLE_WRITER
               for line in range(node.lineno, node.end_lineno + 1)}
    return [(line, call) for line, call in _calls(tree, ("write", "try_send"))
            if call.split(".")[-2] == "handle" and line not in allowed]


def _findings(paths: Optional[Sequence[str]], rule: Callable,
              message: str, owners: Sequence[str] = (OWNER,)
              ) -> List[Finding]:
    """``rule``'s hits in ``paths`` (default: the shipped tree) outside
    ``owners``; ``message`` is formatted with the hit's source."""
    findings: List[Finding] = []
    root = _default_paths()[0]
    for filename in _python_files(paths or _default_paths()):
        rel = os.path.relpath(filename, os.path.dirname(root))
        if rel in owners:
            continue
        try:
            with open(filename, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=filename)
        except (OSError, SyntaxError):
            continue
        for lineno, target in rule(tree):
            findings.append(Finding(
                kind="ownership",
                ident=f"ownership:{rel}:{target}",
                location=f"{filename}:{lineno}",
                message=message.format(target=target),
            ))
    return findings


def out_buffer_findings(paths: Optional[Sequence[str]] = None
                        ) -> List[Finding]:
    """Out-buffer mutations outside :data:`OWNER`."""
    return _findings(paths, out_buffer_mutations,
                     "{target} mutates a handle's out-buffer outside "
                     f"{OWNER} — go through write()/try_send()")


def send_findings(paths: Optional[Sequence[str]] = None) -> List[Finding]:
    """Send-primitive calls outside :data:`OWNER`."""
    return _findings(paths, send_calls,
                     "{target}() sends outside " + OWNER
                     + " — go through write()/try_send()")


def handle_write_findings(paths: Optional[Sequence[str]] = None
                          ) -> List[Finding]:
    """Handle writes outside :data:`CONNECTION_OWNERS`."""
    return _findings(paths, handle_writes,
                     "{target}() writes to a connection outside its owner"
                     " — go through Communicator.send_bytes()",
                     owners=CONNECTION_OWNERS)


def ownership_findings(paths: Optional[Sequence[str]] = None
                       ) -> List[Finding]:
    """Every write-path ownership finding: the CI gate's check."""
    return (out_buffer_findings(paths) + send_findings(paths)
            + handle_write_findings(paths))
