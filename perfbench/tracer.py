"""Span recorder for the traced run, loaded into the server process by
``server.py --trace`` and nowhere else.

It wraps the public entry points of each layer from outside (no file
under ``src/`` knows about it).  While recording is on, every wrapped
call appends one span ``(id, name, start_ns, end_ns, parent_id,
trace_id, thread, value)`` to an in-memory list; :meth:`Recorder.dump`
writes them out at the end.  The parent is the innermost wrapped call
still open on the same thread; the trace id is read from
``conn.handle.trace_id`` where the call has a connection, and inherited
from the parent otherwise.  ``value`` carries one per-kind number
(events returned by a poll, bytes left after a send, ...).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

_now = time.perf_counter_ns


def _tid_handle(args, kwargs):
    return getattr(args[1], "trace_id", 0)


def _tid_self(args, kwargs):
    return getattr(args[0], "trace_id", 0)


def _tid_conn_self(args, kwargs):
    return getattr(args[0].handle, "trace_id", 0)


def _tid_event(args, kwargs):
    return getattr(getattr(args[1], "handle", None), "trace_id", 0)


class Recorder:
    def __init__(self):
        self.active = False
        self.spans = []
        self.names = []
        self.queue_waits = []    # ns: processor submit -> handler entry
        self.file_waits = []     # ns: read_file call -> completion handled
        self.timings = {}        # co2p3s build steps, seconds
        self.cache = {}          # cache stats at trace start / stop
        self._submitted = {}
        self._reads = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name, trace_of=None, value_of=None, on_enter=None):
        kind = len(self.names)
        self.names.append(name)
        tls = self._tls
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            parent, trace = stack[-1] if stack else (0, 0)
            if trace_of is not None:
                trace = trace_of(args, kwargs) or trace
            sid = next(ids)
            stack.append((sid, trace))
            start = _now()
            if on_enter is not None:
                on_enter(args, kwargs, start)
            value = None
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(args, result)
                return result
            finally:
                end = _now()
                stack.pop()
                spans.append((sid, kind, start, end, parent, trace,
                              threading.get_ident(), value))
        return traced

    def patch(self, owner, attr, name, **kw):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

    # -- special entry hooks -------------------------------------------------
    def _on_submit(self, args, kwargs, now):
        self._submitted[id(args[1])] = now

    def _on_handler(self, args, kwargs, now):
        event = args[1]
        t = self._submitted.pop(id(event), None)
        if t is not None:
            self.queue_waits.append(now - t)
        token = getattr(event, "token", None)
        if token is not None:
            t = self._reads.pop(id(token), None)
            if t is not None:
                self.file_waits.append(now - t)

    def _on_read_file(self, args, kwargs, now):
        act = kwargs.get("act", args[2] if len(args) > 2 else None)
        if act is not None:
            self._reads[id(act)] = now

    def timed(self, fn, key):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.timings[key] = time.perf_counter() - t0
        return run

    # -- control ---------------------------------------------------------------
    def start(self, cache_stats):
        self.spans.clear()
        self.queue_waits.clear()
        self.file_waits.clear()
        self.cache["start"] = cache_stats.snapshot()
        self.active = True

    def stop(self, cache_stats):
        self.active = False
        self.cache["stop"] = cache_stats.snapshot()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "queue_waits": self.queue_waits,
                       "file_waits": self.file_waits,
                       "timings": self.timings, "cache": self.cache}, fh)


def install() -> Recorder:
    """Wrap every traced entry point; call before the server is built
    (bound methods such as the file-I/O completion sink are captured at
    construction)."""
    from repro import http
    from repro.cache import file_cache
    from repro.co2p3s.nserver import NSERVER
    from repro.runtime import (communicator, dispatcher, event_source,
                               file_io, handles, poller, processor)
    from repro.servers import cops_http

    rec = Recorder()
    src = event_source.SocketEventSource
    rec.patch(src, "poll", "event_source.poll")
    rec.patch(src, "wakeup", "event_source.wakeup")
    rec.patch(src, "pause", "event_source.pause", trace_of=_tid_handle)
    rec.patch(src, "resume", "event_source.resume", trace_of=_tid_handle)
    rec.patch(src, "update_interest", "event_source.update_interest",
              trace_of=_tid_handle)
    for cls in (poller.SelectPoller, poller.EpollPoller):
        rec.patch(cls, "poll", "poller.poll",
                  value_of=lambda a, r: len(r))
        for op in ("register", "modify", "unregister"):
            rec.patch(cls, op, "poller.ctl")
    rec.patch(dispatcher.EventDispatcher, "dispatch", "dispatcher.dispatch",
              trace_of=_tid_event)
    rec.patch(processor.EventProcessor, "submit", "processor.submit",
              trace_of=_tid_event, on_enter=rec._on_submit)
    rec.patch(handles.ListenHandle, "try_accept", "acceptor.try_accept",
              value_of=lambda a, r: int(r is not None))
    comm = communicator.Communicator
    for op in ("on_readable", "on_writable", "complete_request"):
        rec.patch(comm, op, "communicator." + op, trace_of=_tid_conn_self)
    sock = handles.SocketHandle
    rec.patch(sock, "try_recv", "handles.try_recv", trace_of=_tid_self)
    rec.patch(sock, "try_send", "handles.try_send", trace_of=_tid_self,
              value_of=lambda a, r: len(a[0].out_buffer))
    rec.patch(http, "split_request", "http.split_request",
              value_of=lambda a, r: int(r is not None))
    rec.patch(http, "parse_request", "http.parse_request")
    rec.patch(http.HttpResponse, "encode", "http.encode")
    rec.patch(cops_http.CopsHttpHooks, "handle", "cops_http.handle",
              trace_of=lambda a, k: getattr(a[2].handle, "trace_id", 0))
    rec.patch(file_io.AsyncFileIO, "read_file", "file_io.read_file",
              on_enter=rec._on_read_file)
    rec.patch(file_cache.FileCache, "get_file", "cache.get_file")

    # The generated classes exist only once the package is loaded: wrap
    # the processor's handler entry and the accept handler (the default
    # build accepts in the generated AcceptorEventHandler, not in
    # repro.runtime's Acceptor) then.
    def patch_generated(fw):
        rec.patch(fw.reactor.Reactor, "process_event", "processor.handler",
                  trace_of=_tid_event, on_enter=rec._on_handler)
        rec.patch(fw.communication.AcceptorEventHandler, "handle",
                  "acceptor.handle")
        return fw

    load = rec.timed(cops_http.load_generated_package, "load_s")
    cops_http.load_generated_package = (
        lambda *a, **k: patch_generated(load(*a, **k)))
    NSERVER.generate = rec.timed(NSERVER.generate, "generate_s")
    return rec
