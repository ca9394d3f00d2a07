"""Always-on flight recorder: a bounded ring of binary-packed
lifecycle events, dumped to disk when something goes wrong.

Metrics (:mod:`repro.obs.registry`) aggregate and request spans
(:mod:`repro.obs.spans`) only exist when option O11 selected them; the
flight recorder is the third leg — *always on*, cheap enough that no
option guards it, and holding exactly the evidence a post-mortem needs:
the last few thousand lifecycle events (accept, dispatch, stage
enter/exit, fault injection, overload shed, drain) with their trace
ids.

Cost model: one :func:`time.monotonic`, one :func:`struct.Struct.pack`
and one ``deque.append`` per event.  The ring is a ``deque(maxlen=N)``
of ``bytes`` records — the append is atomic under the GIL, so the hot
path takes **no lock** ("lock-free-ish"); only the category-interning
table, touched once per *new* category name, synchronises through
:func:`repro.lint.locks.make_lock` so the race-detector plane covers
it.

Record layout (little-endian, 20-byte header + capped detail bytes)::

    <dQHH  =  timestamp float64 | trace_id uint64 | category uint16
              | detail-length uint16

Dumps are written as text, one event per line::

    <timestamp.6f> <trace_id:016x> [<category>] <detail>

so a human can read them raw and :func:`parse_dump` can reconstruct
the event stream for tooling (see the fault-storm reconstruction test).
Dumps happen on worker death, event quarantine (both via
:mod:`repro.runtime.resilience`) and ``SIGUSR2``
(:func:`install_signal_dump`); the target directory is the recorder's
``dump_dir``, else ``$REPRO_FLIGHT_DIR``, else the system temp dir.
"""

from __future__ import annotations

import itertools
import os
import signal
import struct
import tempfile
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.lint.locks import access, make_lock

__all__ = [
    "DETAIL_LIMIT",
    "FlightEvent",
    "FlightRecorder",
    "GLOBAL",
    "dump_all",
    "install_signal_dump",
    "parse_dump",
    "reconstruct_path",
]

#: per-event detail payload cap — keeps a 4096-event ring under ~2 MiB
#: worst case and forces callers to record facts, not documents
DETAIL_LIMIT = 512

#: binary record header: timestamp, trace id, category code, detail length
_HEADER = struct.Struct("<dQHH")

#: environment variable overriding where snapshots land
_DUMP_DIR_ENV = "REPRO_FLIGHT_DIR"

#: process-wide snapshot sequence number (filename uniqueness)
_snapshot_seq = itertools.count(1)

#: every live recorder, so SIGUSR2 can dump all of them
_recorders: "weakref.WeakSet[FlightRecorder]" = weakref.WeakSet()


@dataclass(frozen=True)
class FlightEvent:
    """One decoded flight-recorder event."""

    timestamp: float
    trace_id: int
    category: str
    detail: str

    def format(self) -> str:
        """The dump-file line for this event (inverse of
        :func:`parse_dump`)."""
        return (f"{self.timestamp:.6f} {self.trace_id:016x} "
                f"[{self.category}] {self.detail}").rstrip()


class FlightRecorder:
    """A bounded, always-on ring of binary-packed lifecycle events.

    ``capacity`` bounds the ring (oldest events fall off); ``name``
    labels dump files (``global`` for the process-wide ring);
    ``dump_dir`` pins snapshots to a directory (default: the
    ``$REPRO_FLIGHT_DIR``/tempdir resolution described in the module
    docstring).
    """

    def __init__(self, capacity: int = 4096, name: str = "flight",
                 clock: Callable[[], float] = time.monotonic,
                 dump_dir: Optional[str] = None):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self.clock = clock
        self.dump_dir = dump_dir
        self.enabled = True
        self._ring: "deque[bytes]" = deque(maxlen=capacity)
        self._codes: dict = {}
        self._categories: List[str] = []
        self._intern_lock = make_lock("flight-intern")
        _recorders.add(self)

    # -- recording (the hot path) -----------------------------------------
    def record(self, category: str, detail: str = "",
               trace_id: int = 0) -> float:
        """Append one event; returns its timestamp.

        No lock: the packed record is built locally and the deque
        append is atomic under the GIL.  Oversize details are truncated
        at :data:`DETAIL_LIMIT` bytes.
        """
        timestamp = self.clock()
        payload = detail.encode("utf-8", "replace")[:DETAIL_LIMIT]
        self._ring.append(_HEADER.pack(
            timestamp, trace_id & 0xFFFFFFFFFFFFFFFF,
            self._code_for(category), len(payload)) + payload)
        return timestamp

    def _code_for(self, category: str) -> int:
        """Intern a category name to its uint16 code.

        Double-checked: the unlocked dict probe serves the steady
        state; a miss takes the intern lock, re-probes, and appends.
        Categories past the uint16 range collapse into ``overflow``
        (a diagnostic ring does not need 65k distinct event kinds).
        """
        code = self._codes.get(category)
        if code is not None:
            return code
        with self._intern_lock:
            access(self, "_codes")
            code = self._codes.get(category)
            if code is None:
                if len(self._categories) >= 0xFFFF:
                    return self._code_for("overflow")
                code = len(self._categories)
                self._categories.append(category)
                self._codes[category] = code
            return code

    # -- reading ----------------------------------------------------------
    def events(self, category: Optional[str] = None,
               trace_id: Optional[int] = None) -> List[FlightEvent]:
        """Decode the ring (oldest first), optionally filtered."""
        out: List[FlightEvent] = []
        categories = self._categories
        for raw in self._freeze():
            ts, tid, code, length = _HEADER.unpack_from(raw)
            name = (categories[code] if code < len(categories)
                    else f"category-{code}")
            if category is not None and name != category:
                continue
            if trace_id is not None and tid != trace_id:
                continue
            out.append(FlightEvent(
                timestamp=ts, trace_id=tid, category=name,
                detail=raw[_HEADER.size:_HEADER.size + length].decode(
                    "utf-8", "replace")))
        return out

    def _freeze(self) -> List[bytes]:
        """A stable copy of the ring.

        ``list(deque)`` can raise if a recording thread appends
        mid-copy; retry a few times, then fall back to a best-effort
        element-at-a-time copy.
        """
        for _ in range(4):
            try:
                return list(self._ring)
            except RuntimeError:
                continue
        return [self._ring[i] for i in range(len(self._ring))]

    def __len__(self) -> int:
        """Events currently held in the ring."""
        return len(self._ring)

    def clear(self) -> None:
        """Drop every buffered event (tests; category table persists)."""
        self._ring.clear()

    # -- dumping ----------------------------------------------------------
    def dump(self, sink) -> int:
        """Write the ring as text lines to ``sink``; returns the count."""
        events = self.events()
        for event in events:
            sink.write(event.format() + "\n")
        flush = getattr(sink, "flush", None)
        if flush is not None:
            flush()
        return len(events)

    def snapshot(self, reason: str, directory: Optional[str] = None) -> str:
        """Dump the ring to a file and return its path.

        The file carries a comment header naming the recorder and the
        trigger, so a directory of dumps from one incident stays
        navigable.  Never raises on I/O problems the caller cannot fix
        mid-crash — a failed dump returns the path it attempted.
        """
        target_dir = (directory or self.dump_dir
                      or os.environ.get(_DUMP_DIR_ENV)
                      or tempfile.gettempdir())
        filename = (f"flight-{self.name}-{reason}-"
                    f"{os.getpid()}-{next(_snapshot_seq):04d}.log")
        path = os.path.join(target_dir, filename)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# flight recorder={self.name} reason={reason} "
                         f"events={len(self)}\n")
                self.dump(fh)
        except OSError:
            pass
        return path

    def __repr__(self) -> str:
        """Debugging representation: name plus fill level."""
        return (f"<FlightRecorder {self.name} "
                f"{len(self)}/{self.capacity} events>")


#: the default recorder — always on, shared by everything that was not
#: handed a more specific one (generated frameworks, bare components)
GLOBAL = FlightRecorder(name="global")


def parse_dump(lines: Iterable[str]) -> List[FlightEvent]:
    """Reconstruct events from dump text (string or line iterable).

    The exact inverse of :meth:`FlightEvent.format`; ``#`` comment
    lines and blanks are skipped, so a snapshot file round-trips.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    events: List[FlightEvent] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ts_text, tid_text, rest = line.split(" ", 2)
        if not rest.startswith("["):
            raise ValueError(f"malformed flight dump line: {line!r}")
        category, _, detail = rest[1:].partition("]")
        events.append(FlightEvent(
            timestamp=float(ts_text), trace_id=int(tid_text, 16),
            category=category, detail=detail.lstrip()))
    return events


def reconstruct_path(trace_id: int,
                     events: Sequence[FlightEvent]) -> List[FlightEvent]:
    """One request's lifecycle, chronologically, from merged dumps.

    Feed it the concatenated events of every recorder that saw the
    request (or one dump of the global ring) and it returns that trace's
    ordered path — the accept→shard→worker→write story the fault-storm
    test asserts on.
    """
    path = [event for event in events if event.trace_id == trace_id]
    path.sort(key=lambda event: event.timestamp)
    return path


def dump_all(reason: str, directory: Optional[str] = None) -> List[str]:
    """Snapshot every live recorder; returns the written paths."""
    return [recorder.snapshot(reason, directory)
            for recorder in sorted(_recorders, key=lambda r: r.name)]


_signal_installed = False


def install_signal_dump(directory: Optional[str] = None) -> bool:
    """Install the ``SIGUSR2`` → :func:`dump_all` handler, once.

    Returns True when the handler is (already) installed; False on
    platforms without ``SIGUSR2`` or off the main thread, where Python
    refuses signal registration — both are quietly tolerable because
    the explicit dump triggers still work.
    """
    global _signal_installed
    if _signal_installed:
        return True
    if not hasattr(signal, "SIGUSR2"):
        return False

    def _handler(signum, frame):
        dump_all("sigusr2", directory)

    try:
        signal.signal(signal.SIGUSR2, _handler)
    except ValueError:
        return False
    _signal_installed = True
    return True
