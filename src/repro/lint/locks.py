"""Eraser-style lockset race detection (Savage et al., 1997).

The dynamic half of the correctness plane.  The runtime's hot shared
structures swap ``threading.Lock()`` for :func:`make_lock` (a
:class:`TrackedLock` that also maintains a per-thread held-lockset) and
annotate their shared fields with :func:`access` calls at each read and
write.  With no :class:`RaceDetector` installed both are near-free: one
global ``None`` check per annotation and one ``set`` update per lock
transition.

With a detector installed (tests: the ``race_detector`` fixture under
``REPRO_RACE_DETECTOR=1``), each annotated field runs the classic
Eraser state machine (:class:`RaceDetector` lives in
:mod:`repro.lint.detector` and loads the first time it is named):

* **virgin/exclusive** — accessed by a single thread: no refinement, so
  single-threaded initialisation never reports;
* **shared** — a second thread read it: the candidate lockset becomes
  the locks held at that access and is *intersected* on every later
  access, but read-only sharing never reports;
* **shared-modified** — a write while shared: an *empty* candidate
  lockset here means no single lock consistently protected the field —
  a candidate race, reported once per field with the two conflicting
  access stacks.

The detector deliberately tracks lock *discipline*, not observed
interleavings: under the GIL most of these races cannot tear memory,
but they are exactly the lost-update and torn-invariant bugs
(``counter += 1`` outside the lock) that surface when a structure grows
a second field or the interpreter drops the GIL.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.lint.detector import RaceDetector

__all__ = [
    "RaceDetector",
    "RaceCandidate",
    "TrackedLock",
    "access",
    "active_detector",
    "make_lock",
    "shared",
]

#: per-thread set of currently held TrackedLocks, maintained whether or
#: not a detector is installed so mid-run installation sees true state
_held = threading.local()

#: the installed detector, or None (the common, near-free case)
_active: Optional["RaceDetector"] = None


def _held_set() -> set:
    """This thread's held-lock set (created on first use)."""
    locks = getattr(_held, "locks", None)
    if locks is None:
        locks = set()
        _held.locks = locks
    return locks


class TrackedLock:
    """A ``threading.Lock`` that records itself in the holder's lockset.

    Drop-in for the subset of the Lock API the runtime uses (context
    manager, ``acquire``/``release``, ``locked``).  ``name`` labels the
    lock in race reports; instances are identity-hashed, so two pools'
    locks sharing a name stay distinct locks.
    """

    __slots__ = ("_lock", "name")

    def __init__(self, name: str = "lock"):
        self._lock = threading.Lock()
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the lock, recording it in this thread's held-lockset."""
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            _held_set().add(self)
        return acquired

    def release(self) -> None:
        """Release the lock and leave the holder's lockset."""
        self._lock.release()
        _held_set().discard(self)

    def locked(self) -> bool:
        """True while any thread holds the lock."""
        return self._lock.locked()

    def __enter__(self) -> bool:
        """Context-manager acquire."""
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        """Context-manager release."""
        self.release()

    def __repr__(self) -> str:
        """Debugging representation: lock name plus held state."""
        state = "locked" if self._lock.locked() else "unlocked"
        return f"<TrackedLock {self.name} {state}>"


def make_lock(name: str = "lock") -> TrackedLock:
    """The runtime's lock constructor for race-tracked structures."""
    return TrackedLock(name)


def shared(owner: object, *fields: str, label: Optional[str] = None) -> None:
    """Declare ``owner.field...`` as intentionally shared state.

    Purely declarative: pre-registers the fields (so the report can
    list covered state even when never contended) and attaches a
    human-readable label.  A no-op unless a detector is installed.
    """
    detector = _active
    if detector is not None:
        detector.register(owner, fields, label)


def access(owner: object, field_name: str, write: bool = True) -> None:
    """Record one access to an annotated shared field.

    Call at the access site, *while holding whatever locks protect the
    field* — the currently held lockset is what the Eraser refinement
    intersects.  A no-op unless a detector is installed.
    """
    detector = _active
    if detector is not None:
        detector.note_access(owner, field_name, write)


def active_detector() -> Optional["RaceDetector"]:
    """The currently installed detector, if any."""
    return _active


def __getattr__(name):
    """``RaceDetector`` / ``RaceCandidate`` load on first use: the
    detector, its records and the findings model stay out of a process
    that never installs one."""
    if name in ("RaceDetector", "RaceCandidate"):
        from repro.lint import detector
        return getattr(detector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
