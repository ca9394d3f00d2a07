"""The Eraser lockset race detector behind :mod:`repro.lint.locks`.

:mod:`repro.lint.locks` keeps what the runtime calls on every build —
:func:`~repro.lint.locks.make_lock`, :class:`~repro.lint.locks.TrackedLock`
and the :func:`~repro.lint.locks.access` / :func:`~repro.lint.locks.shared`
annotations, each one ``None`` check while no detector is installed.
This module holds the detector itself: the per-field state machine
described there, its evidence records and the conversion to
:class:`~repro.lint.findings.Finding` objects.  It loads only when a
detector is built (``repro.lint.locks.RaceDetector`` resolves here on
first use), so a serving process that never installs one carries none
of it.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lint import locks
from repro.lint.findings import Finding
from repro.lint.locks import TrackedLock

__all__ = ["RaceDetector", "RaceCandidate"]


def _short_stack(skip: int = 2, limit: int = 8) -> Tuple[str, ...]:
    """A cheap caller chain (``file:line in func``), innermost first.

    Walks raw frames instead of :mod:`traceback` — this runs on every
    annotated access while the detector is live, so formatting cost is
    the difference between a usable and an unusable tier-1 run.
    """
    try:
        frame = sys._getframe(skip)
    except ValueError:  # shallower stack than requested
        return ()
    entries: List[str] = []
    while frame is not None and len(entries) < limit:
        code = frame.f_code
        entries.append(
            f"{code.co_filename}:{frame.f_lineno} in {code.co_name}")
        frame = frame.f_back
    return tuple(entries)


# -- detector state -----------------------------------------------------------

#: Eraser states
_VIRGIN, _EXCLUSIVE, _SHARED, _SHARED_MODIFIED = range(4)


@dataclass
class _Access:
    """The evidence half of a race report: who touched the field, how."""

    thread: str
    write: bool
    locks: Tuple[str, ...]
    stack: Tuple[str, ...]

    def describe(self) -> str:
        """Render this access (kind, thread, locks, stack) for a report."""
        kind = "write" if self.write else "read"
        locks = ", ".join(self.locks) if self.locks else "no locks"
        frames = "\n".join("  " + line for line in self.stack[:6])
        return f"{kind} by {self.thread} holding [{locks}]\n{frames}"


@dataclass
class _VarState:
    """Per-field Eraser bookkeeping."""

    label: str
    state: int = _VIRGIN
    first_thread: Optional[int] = None
    lockset: Optional[FrozenSet[TrackedLock]] = None
    last_other: Dict[int, _Access] = field(default_factory=dict)
    reported: bool = False


@dataclass(frozen=True)
class RaceCandidate:
    """One reported lockset violation, with both conflicting stacks."""

    ident: str
    label: str
    current: _Access
    previous: Optional[_Access]

    def finding(self) -> Finding:
        """This candidate as a baseline-suppressible :class:`Finding`."""
        parts = ["conflicting access:", self.current.describe()]
        if self.previous is not None:
            parts += ["earlier access:", self.previous.describe()]
        return Finding(
            kind="race",
            ident=self.ident,
            location=self.current.stack[0] if self.current.stack else self.label,
            message=(f"lockset for {self.label} is empty — no lock "
                     f"consistently protects it"),
            detail="\n".join(parts),
        )


class RaceDetector:
    """Collects lockset evidence from annotated accesses while installed.

    Use as a context manager (:meth:`detecting`) or install/uninstall
    explicitly.  Only one detector can be installed at a time; the
    annotations consult a single module global so the uninstalled cost
    stays one ``None`` check.
    """

    def __init__(self):
        self._mutex = threading.Lock()  # plain: never itself tracked
        self._vars: Dict[Tuple[int, str, str], _VarState] = {}
        self._labels: Dict[int, str] = {}
        self.candidates: List[RaceCandidate] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Make this the globally consulted detector."""
        if locks._active is not None and locks._active is not self:
            raise RuntimeError("another RaceDetector is already installed")
        locks._active = self

    def uninstall(self) -> None:
        """Deactivate; annotated accesses return to the no-op path."""
        if locks._active is self:
            locks._active = None

    def detecting(self) -> "_Detecting":
        """``with detector.detecting(): ...`` — scoped installation."""
        return _Detecting(self)

    # -- annotation entry points ------------------------------------------
    def register(self, owner: object, fields, label: Optional[str]) -> None:
        """Pre-register ``owner``'s fields (from :func:`shared`)."""
        name = label or type(owner).__name__
        with self._mutex:
            self._labels[id(owner)] = name
            for field_name in fields:
                self._key_state(owner, field_name, name)

    def note_access(self, owner: object, field_name: str, write: bool) -> None:
        """Run the Eraser state machine for one field access."""
        held = frozenset(locks._held_set())
        thread = threading.get_ident()
        candidate: Optional[RaceCandidate] = None
        with self._mutex:
            state = self._key_state(owner, field_name, None)
            if state.reported:
                return
            if state.state == _VIRGIN:
                state.state = _EXCLUSIVE
                state.first_thread = thread
            elif state.state == _EXCLUSIVE and thread == state.first_thread:
                pass  # still single-threaded: no refinement
            else:
                if state.lockset is None:
                    # leaving exclusive: the candidate set starts as the
                    # locks held right now, not the historical union
                    state.lockset = held
                else:
                    state.lockset = state.lockset & held
                if state.state in (_VIRGIN, _EXCLUSIVE):
                    state.state = _SHARED_MODIFIED if write else _SHARED
                elif write:
                    state.state = _SHARED_MODIFIED
                if state.state == _SHARED_MODIFIED and not state.lockset:
                    state.reported = True
                    current = _Access(
                        thread=threading.current_thread().name,
                        write=write,
                        locks=tuple(sorted(l.name for l in held)),
                        stack=_short_stack(skip=3),
                    )
                    previous = next(
                        (acc for tid, acc in state.last_other.items()
                         if tid != thread), None)
                    candidate = RaceCandidate(
                        ident=f"race:{state.label}.{field_name}",
                        label=f"{state.label}.{field_name}",
                        current=current,
                        previous=previous,
                    )
                    self.candidates.append(candidate)
            # remember this access as potential "other side" evidence
            state.last_other[thread] = _Access(
                thread=threading.current_thread().name,
                write=write,
                locks=tuple(sorted(l.name for l in held)),
                stack=_short_stack(skip=3),
            )
            if len(state.last_other) > 8:  # bound per-field memory
                state.last_other.pop(next(iter(state.last_other)))

    def _key_state(self, owner: object, field_name: str,
                   label: Optional[str]) -> _VarState:
        """The per-field state record (created on first sight).

        Keyed by ``(id(owner), type, field)``; the type name guards
        against most id-reuse aliasing after garbage collection.  Must
        be called with ``_mutex`` held.
        """
        key = (id(owner), type(owner).__name__, field_name)
        state = self._vars.get(key)
        if state is None:
            name = (label or self._labels.get(id(owner))
                    or type(owner).__name__)
            state = _VarState(label=name)
            self._vars[key] = state
        return state

    # -- reporting --------------------------------------------------------
    def findings(self, baseline=None) -> List[Finding]:
        """Candidate races as findings, minus baseline suppressions."""
        with self._mutex:
            candidates = list(self.candidates)
        findings = [c.finding() for c in candidates]
        if baseline is None:
            return findings
        return [f for f in findings if not baseline.suppressed(f.ident)]

    def tracked_fields(self) -> List[str]:
        """Labels of every field seen so far (coverage introspection)."""
        with self._mutex:
            return sorted({f"{s.label}.{key[2]}"
                           for key, s in self._vars.items()})


class _Detecting:
    """Context manager installing/uninstalling a detector."""

    def __init__(self, detector: RaceDetector):
        self.detector = detector

    def __enter__(self) -> RaceDetector:
        """Install the detector for the with-block."""
        self.detector.install()
        return self.detector

    def __exit__(self, *exc_info) -> None:
        """Uninstall the detector on scope exit."""
        self.detector.uninstall()
