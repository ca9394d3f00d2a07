"""COPS-Mail: the mail server the paper names as another N-Server use.

Same recipe as COPS-FTP: reuse the protocol library
(:mod:`repro.smtp`), generate the event-driven framework from the
template, and write a page of hook methods.  The interesting framing
detail: SMTP's DATA mode changes the unit of work from a command line
to a whole dot-terminated message — the ``split_request`` hook consults
per-connection session state.
"""

from __future__ import annotations

import tempfile
from typing import Optional

from repro.co2p3s.nserver import NSERVER
from repro.co2p3s.template import (load_generated_package,
                                    remove_build_on_stop)
from repro.runtime import ServerHooks
from repro.smtp import MailStore, SmtpSession

__all__ = ["MAIL_SERVER_OPTIONS", "MailServerHooks", "build_mail_server"]

#: Table-1 column for a mail server: codec on (SMTP replies are built
#: from session state), synchronous completions (delivery is an
#: in-memory store), idle shutdown on (SMTP clients that stall are
#: dropped), logging on (mail servers log).
MAIL_SERVER_OPTIONS = {
    "O1": "1",
    "O2": True,
    "O3": True,
    "O4": "Synchronous",
    "O5": "Static",
    "O6": None,
    "O7": True,
    "O8": False,
    "O9": False,
    "O10": "Production",
    "O11": False,
    "O12": True,
}


def _flag_close(session: SmtpSession, conn) -> None:
    """Close the connection once the reply being encoded is flushed,
    if that reply ended the session.

    Flagged in ``encode``, as the closing reply is queued: flagged in
    ``handle``, a thread still flushing an earlier reply would see the
    flag and close before the 221 went out.  Replies are encoded in
    request order before the next command is handled, so a closed
    session here means this reply is the closing one.
    """
    if session.closed:
        conn.close_after_flush = True


class MailServerHooks(ServerHooks):
    """The hand-written part of COPS-Mail."""

    def __init__(self, store: Optional[MailStore] = None,
                 hostname: str = "cops-mail"):
        self.store = store if store is not None else MailStore()
        self.hostname = hostname

    # -- lifecycle --------------------------------------------------------
    def on_connect(self, conn) -> None:
        conn.context["smtp"] = SmtpSession(self.store,
                                           hostname=self.hostname)

    def server_greeting(self, conn) -> bytes:
        return conn.context["smtp"].greeting()

    # -- framing: per-session (line vs DATA block) ---------------------------
    def split_request(self, data: bytes):
        """SMTP framing is *stateful* (line mode vs DATA mode), so it
        lives on the per-connection hook clone installed by
        :class:`_ConnectionBoundHooks`; reaching this method means the
        hooks were used without that wrapper."""
        raise NotImplementedError(
            "use build_mail_server(), which installs per-connection framing")

    # -- the three steps ----------------------------------------------------------
    def decode(self, raw: bytes, conn) -> bytes:
        return raw

    def handle(self, unit: bytes, conn):
        return conn.context["smtp"].handle(unit)

    def encode(self, result, conn) -> bytes:
        _flag_close(conn.context["smtp"], conn)
        return result


class _ConnectionBoundHooks(MailServerHooks):
    """Hooks specialised per connection so framing can see the session.

    The generated framework passes the same hooks object to every
    Communicator; SMTP framing is stateful, so each connection gets a
    lightweight clone whose ``split_request`` closes over its session.
    """

    def on_connect(self, conn) -> None:
        super().on_connect(conn)
        session = conn.context["smtp"]
        conn.hooks = _PerConnectionHooks(self, session)


class _PerConnectionHooks(ServerHooks):
    def __init__(self, parent: MailServerHooks, session: SmtpSession):
        self.parent = parent
        self.session = session

    def split_request(self, data: bytes):
        return self.session.split_unit(data)

    def decode(self, raw: bytes, conn) -> bytes:
        return raw

    def handle(self, unit: bytes, conn):
        return self.session.handle(unit)

    def encode(self, result, conn) -> bytes:
        _flag_close(self.session, conn)
        return result

    def server_greeting(self, conn) -> bytes:
        return self.session.greeting()


def build_mail_server(
    store: Optional[MailStore] = None,
    options: Optional[dict] = None,
    dest: Optional[str] = None,
    package: str = "cops_mail_fw",
    host: str = "127.0.0.1",
    port: int = 0,
    **config_overrides,
):
    """Generate the COPS-Mail framework and return the assembled server.

    Returns ``(server, store, framework_module)``.
    """
    store = store if store is not None else MailStore()
    opts = NSERVER.configure(options or MAIL_SERVER_OPTIONS)
    build = dest or tempfile.mkdtemp(prefix="cops_mail_")
    NSERVER.generate(opts, build, package=package)
    fw = load_generated_package(build, package)
    configuration = fw.ServerConfiguration(host=host, port=port,
                                           **config_overrides)
    server = fw.Server(_ConnectionBoundHooks(store=store),
                       configuration=configuration)
    if dest is None:
        remove_build_on_stop(server, build)
    return server, store, fw
