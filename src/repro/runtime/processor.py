"""Event Processor and Processor Controller (options O2, O5, O8).

The Event Processor is the paper's extension of the Reactor for multiple
processors: "An Event Processor contains an event queue and a pool of
threads that operate collaboratively to process ready events."  The
Event Dispatcher stays responsible only for polling and handing ready
events over.

The Processor Controller exists when O5=Dynamic: it grows the pool when
the queue backs up and shrinks it when the pool idles, between a
configured min and max.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.lint.locks import access, make_lock
from repro.runtime.events import Event
from repro.runtime.scheduler import FifoEventQueue, QuotaPriorityQueue

__all__ = ["EventProcessor", "ProcessorController"]


class _Retire:
    """Poison pill instructing exactly one worker to exit."""


class EventProcessor:
    """A queue plus a pool of worker threads applying ``handler``.

    ``queue`` may be a :class:`FifoEventQueue` (O8=No) or a
    :class:`QuotaPriorityQueue` (O8=Yes) — the worker loop is identical,
    which is exactly how the generated code differs only at the queue
    construction site.
    """

    def __init__(
        self,
        handler: Callable[[Event], None],
        threads: int = 1,
        queue=None,
        name: str = "processor",
        error_hook: Optional[Callable[[Event, BaseException], None]] = None,
    ):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.handler = handler
        self.queue = queue if queue is not None else FifoEventQueue()
        self.name = name
        self.error_hook = error_hook
        self._initial_threads = threads
        self._threads: list = []
        self._lock = make_lock("EventProcessor")
        self._running = False
        self._busy = 0
        self.processed = 0
        self.errors = 0
        self.worker_deaths = 0
        self.last_death: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Mark running and spawn the initial worker pool (idempotent)."""
        with self._lock:
            access(self, "_running")
            if self._running:
                return
            self._running = True
        for _ in range(self._initial_threads):
            self._spawn()

    def stop(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop workers.  With ``drain`` the queue is allowed to empty
        first; otherwise workers exit after their current event."""
        with self._lock:
            access(self, "_running")
            access(self, "_threads", write=False)
            if not self._running:
                return
            self._running = False
            workers = list(self._threads)
        if drain:
            deadline = time.monotonic() + timeout
            while len(self.queue) and time.monotonic() < deadline:
                time.sleep(0.005)
        for _ in workers:
            self.queue.push(_Retire(), priority=-(10 ** 9))
        self.queue.close()
        for t in workers:
            t.join(timeout=timeout)
        with self._lock:
            access(self, "_threads")
            self._threads.clear()

    # -- pool management -----------------------------------------------------
    def _spawn(self) -> None:
        # The worker index for the thread name must come from inside the
        # critical section — reading len(self._threads) outside it could
        # hand two concurrent spawns the same name.
        """Create, record and start one worker thread."""
        with self._lock:
            access(self, "_threads")
            t = threading.Thread(target=self._worker, daemon=True,
                                 name=f"{self.name}-{len(self._threads)}")
            self._threads.append(t)
        t.start()

    def add_thread(self) -> None:
        """Grow the pool by one worker (a controller grow decision)."""
        with self._lock:
            access(self, "_running", write=False)
            if not self._running:
                raise RuntimeError("processor not running")
        self._spawn()

    def remove_thread(self) -> None:
        """Ask one worker to retire (low priority: after current backlog)."""
        self.queue.push(_Retire(), priority=-(10 ** 9))

    def prune_dead(self) -> int:
        """Forget workers that died (a BaseException escaped a handler).

        Returns how many were removed so a supervisor can spawn that
        many replacements; a no-op once the pool is stopped."""
        with self._lock:
            access(self, "_running", write=False)
            access(self, "_threads")
            if not self._running:
                return 0
            dead = [t for t in self._threads if not t.is_alive()]
            for t in dead:
                self._threads.remove(t)
        return len(dead)

    @property
    def thread_count(self) -> int:
        """Workers currently alive."""
        with self._lock:
            access(self, "_threads", write=False)
            return len([t for t in self._threads if t.is_alive()])

    @property
    def queue_length(self) -> int:
        """Events waiting in the queue."""
        return len(self.queue)

    @property
    def busy_count(self) -> int:
        """Workers currently inside a handler."""
        with self._lock:
            access(self, "_busy", write=False)
            return self._busy

    # -- work ---------------------------------------------------------------
    def submit(self, event: Event) -> None:
        """Queue one event (priority honoured by O8 queues)."""
        self.queue.push(event, priority=getattr(event, "priority", 0))

    def _worker(self) -> None:
        """Thread body: run the loop, record a death on BaseException."""
        try:
            self._loop()
        except BaseException as exc:  # noqa: BLE001 - a poison event killed us
            # Exceptions are survived in _loop; only a BaseException gets
            # here.  Record the death and exit quietly — the thread stays
            # in ``_threads`` until prune_dead() so a supervisor sees it.
            # ``last_death`` belongs inside the critical section too: two
            # dying workers otherwise race on it and a supervisor can read
            # a death count that disagrees with the recorded exception.
            with self._lock:
                access(self, "last_death")
                access(self, "worker_deaths")
                self.last_death = exc
                self.worker_deaths += 1

    def _loop(self) -> None:
        """Pop-and-handle until retired; handler exceptions are survived."""
        while True:
            item = self.queue.pop(timeout=0.25)
            if isinstance(item, _Retire):
                with self._lock:
                    access(self, "_threads")
                    me = threading.current_thread()
                    if me in self._threads:
                        self._threads.remove(me)
                return
            if item is None:
                with self._lock:
                    access(self, "_running", write=False)
                    running = self._running
                if not running:
                    return
                continue
            with self._lock:
                access(self, "_busy")
                self._busy += 1
            # ``processed``/``errors`` are shared with every other worker
            # and with status-page readers; incrementing them outside the
            # lock (as this loop once did) loses updates under contention.
            # The handler runs unlocked; only the accounting is locked.
            error: Optional[Exception] = None
            ok = False
            try:
                self.handler(item)
                ok = True
            except Exception as exc:  # noqa: BLE001 - server must survive handlers
                error = exc
            finally:
                # a BaseException (worker death) reaches this finally with
                # ok False and error None: busy is repaired, neither
                # counter moves — the event was neither processed nor a
                # survived handler error.
                with self._lock:
                    access(self, "_busy")
                    self._busy -= 1
                    if ok:
                        access(self, "processed")
                        self.processed += 1
                    elif error is not None:
                        access(self, "errors")
                        self.errors += 1
            if error is not None and self.error_hook is not None:
                self.error_hook(item, error)


class ProcessorController:
    """Dynamic thread allocation (O5=Dynamic).

    Each :meth:`evaluate` samples the processor's queue: when the
    backlog per thread exceeds ``grow_at`` the pool grows (up to
    ``max_threads``); when the whole pool is idle with an empty queue it
    shrinks (down to ``min_threads``).  The owner runs it every
    :attr:`period` seconds.
    """

    #: seconds between control decisions
    period = 0.05

    def __init__(self, processor: EventProcessor, min_threads: int = 1,
                 max_threads: int = 8, grow_at: int = 4):
        if not (1 <= min_threads <= max_threads):
            raise ValueError("need 1 <= min_threads <= max_threads")
        if grow_at < 1:
            raise ValueError("grow_at must be >= 1")
        self.processor = processor
        self.min_threads = min_threads
        self.max_threads = max_threads
        self.grow_at = grow_at

    def evaluate(self) -> None:
        """One control decision: grow, shrink or leave the pool."""
        p = self.processor
        threads = p.thread_count
        backlog = p.queue_length
        if threads < self.max_threads and backlog >= self.grow_at * max(threads, 1):
            p.add_thread()
        elif threads > self.min_threads and backlog == 0 and p.busy_count == 0:
            p.remove_thread()
