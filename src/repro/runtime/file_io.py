"""Emulated non-blocking file I/O (options O4, O6).

Java (and POSIX) offer no true non-blocking disk reads, so the paper
emulates them: "non-blocking file I/O operations are emulated using a
pool of threads".  This is the Proactor + Asynchronous Completion Token
part of the N-Server: callers issue ``read_file(path, act)`` and get the
result later as a :class:`FileReadEvent` posted to the completion sink
(typically the reactive Event Processor's queue, so completions are
handled on the same path as socket events).

When a :class:`~repro.cache.FileCache` is attached (O6), cache hits
complete immediately — still *asynchronously* from the caller's view,
via the sink — and misses populate the cache after the disk read.

The O17 degradation plane wraps the disk path in a
:class:`~repro.runtime.degradation.CircuitBreaker`: while the breaker
is open (a failing disk), reads fail fast at issue time instead of
piling onto the worker queue, and a
:class:`~repro.runtime.degradation.RetryBudget` bounds how often a
failed read is retried before the error is surfaced.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.cache import FileCache
from repro.runtime.events import (
    AsynchronousCompletionToken,
    CompletionEvent,
    FileReadEvent,
)
from repro.runtime.scheduler import FifoEventQueue

__all__ = ["AsyncFileIO"]


class AsyncFileIO:
    """Thread-pool emulation of non-blocking file reads.

    ``sink(event)`` receives every completion; it must be thread-safe
    (Event Processor ``submit`` and ``QueueEventSource.post`` both are).
    """

    def __init__(
        self,
        sink: Callable[[CompletionEvent], None],
        threads: int = 2,
        cache: Optional[FileCache] = None,
        root: Optional[str] = None,
        breaker=None,
        retry_budget=None,
    ):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.sink = sink
        self.cache = cache
        self.root = root
        #: O17 circuit breaker around the disk path (None = unprotected)
        self.breaker = breaker
        #: O17 retry budget: one in-pool retry per failed read while the
        #: budget allows (None = no retries)
        self.retry_budget = retry_budget
        self.breaker_rejections = 0
        self.retries = 0
        #: optional fault hook called with the path before every disk
        #: read; raising OSError simulates a failing disk (fault plane)
        self.fault_hook: Optional[Callable[[str], None]] = None
        self._queue = FifoEventQueue()
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"file-io-{i}")
            for i in range(threads)
        ]
        self._started = False
        self.reads = 0
        self.cache_hits = 0

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for t in self._threads:
            t.start()

    def stop(self) -> None:
        self._queue.close()
        for t in self._threads:
            t.join(timeout=2.0)

    # -- operations ---------------------------------------------------------
    def read_file(self, path: str,
                  act: Optional[AsynchronousCompletionToken] = None,
                  priority: int = 0) -> None:
        """Request the full contents of ``path``; completion arrives at
        the sink as a :class:`FileReadEvent` whose payload is the bytes
        (or whose ``error`` is the raising exception)."""
        act = act or AsynchronousCompletionToken()
        if self.cache is not None and self.cache.contains(path):
            got = self.cache.get_file(path)
            self.cache_hits += 1
            self.sink(FileReadEvent(token=act, payload=got.payload,
                                    priority=priority))
            return
        # O17: while the breaker is open the disk is presumed dead —
        # fail fast at issue time so nothing piles onto the pool queue.
        if self.breaker is not None and not self.breaker.allow():
            from repro.runtime.degradation import CircuitOpenError

            self.breaker_rejections += 1
            self.sink(FileReadEvent(token=act, error=CircuitOpenError(path),
                                    priority=priority))
            return
        self._queue.push((path, act, priority, 0))

    def _load(self, path: str) -> bytes:
        if self.fault_hook is not None:
            self.fault_hook(path)
        if self.cache is not None:
            return self.cache.get_file(path).payload
        full = path
        if self.root is not None:
            import os

            root = os.path.abspath(self.root)
            full = os.path.abspath(os.path.join(root, path.lstrip("/")))
            # Containment needs the separator: a bare prefix check lets
            # a sibling like ``<root>-secrets`` through.
            if full != root and not full.startswith(root + os.sep):
                raise FileNotFoundError(path)
        with open(full, "rb") as fh:
            return fh.read()

    def _worker(self) -> None:
        while True:
            item = self._queue.pop(timeout=0.25)
            if item is None:
                if self._queue.closed:
                    return
                continue
            path, act, priority, attempt = item
            self.reads += 1
            try:
                data = self._load(path)
            except (FileNotFoundError, IsADirectoryError,
                    NotADirectoryError) as exc:
                # The file is absent, not the disk unhealthy: a 404-class
                # miss must not trip the breaker or burn retry budget —
                # a scanner walking dead URLs would otherwise black out
                # the whole disk plane for everyone.
                if self.breaker is not None:
                    self.breaker.record_success()
                self.sink(FileReadEvent(token=act, error=exc,
                                        priority=priority))
            except OSError as exc:
                if self.breaker is not None:
                    self.breaker.record_failure()
                if (attempt == 0
                        and self.retry_budget is not None
                        and (self.breaker is None or self.breaker.allow())
                        and self.retry_budget.can_retry()):
                    self.retries += 1
                    self._queue.push((path, act, priority, 1))
                    continue
                self.sink(FileReadEvent(token=act, error=exc,
                                        priority=priority))
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                if self.retry_budget is not None:
                    self.retry_budget.record_request()
                self.sink(FileReadEvent(token=act, payload=data,
                                        priority=priority))
