"""COPS-FTP: the paper's event-driven FTP server.

Table 3's story reproduced: the bulk of the FTP functionality is
*reused* from an existing library (:mod:`repro.ftp`, our stand-in for
Apache FTPServer), the framework is *generated* from the N-Server
template (Table 1, COPS-FTP column: synchronous completions, dynamic
thread allocation, idle-connection shutdown), and a small amount of
*added* code — this module — adapts the reused session machine onto the
event-driven framework.

Data connections use passive mode: PASV opens a one-shot data listener;
the actual byte transfer runs on a helper thread (data transfers are the
blocking operations the dynamic Event Processor pool absorbs, which is
why the paper's COPS-FTP selects O5=Dynamic).
"""

from __future__ import annotations

import socket
import tempfile
import threading
from typing import Optional

from repro.co2p3s.nserver import COPS_FTP_OPTIONS, NSERVER
from repro.co2p3s.template import (load_generated_package,
                                    remove_build_on_stop)
from repro.ftp import FtpSession, UserRegistry, VirtualFS
from repro.runtime import PENDING, ServerHooks

__all__ = ["CopsFtpHooks", "build_cops_ftp", "default_ftp_fs"]


def default_ftp_fs() -> VirtualFS:
    """A small default tree so an out-of-the-box server has content."""
    fs = VirtualFS()
    fs.makedirs("/pub")
    fs.write_file("/pub/README", b"COPS-FTP (repro) anonymous area.\n")
    return fs


class _DataChannel:
    """One-shot passive-mode data listener + transfer executor."""

    def __init__(self, host: str = "127.0.0.1", timeout: float = 5.0):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind((host, 0))
        self.listener.listen(1)
        self.listener.settimeout(timeout)
        self.host, self.port = self.listener.getsockname()

    def run_transfer(self, action, on_done) -> None:
        """Accept the data connection and move the bytes (helper thread)."""
        ok = True
        try:
            data_sock, _ = self.listener.accept()
            try:
                if action.kind == "send":
                    data_sock.sendall(action.payload)
                else:
                    chunks = []
                    while True:
                        chunk = data_sock.recv(65536)
                        if not chunk:
                            break
                        chunks.append(chunk)
                    action.sink(b"".join(chunks))
            finally:
                data_sock.close()
        except OSError:
            ok = False
        finally:
            self.close()
            on_done(ok)

    def close(self) -> None:
        try:
            self.listener.close()
        except OSError:
            pass


class CopsFtpHooks(ServerHooks):
    """The added code of Table 3: adapts the reused FTP session machine
    to the generated event-driven framework."""

    def __init__(self, fs: Optional[VirtualFS] = None,
                 users: Optional[UserRegistry] = None,
                 data_host: str = "127.0.0.1"):
        self.fs = fs if fs is not None else default_ftp_fs()
        self.users = users if users is not None else UserRegistry()
        self.data_host = data_host

    # -- connection lifecycle ----------------------------------------------
    def on_connect(self, conn) -> None:
        conn.context["ftp"] = FtpSession(
            self.fs, self.users, on_pasv=lambda: self._open_pasv(conn))

    def on_close(self, conn) -> None:
        channel = conn.context.pop("ftp_data", None)
        if channel is not None:
            channel.close()
        session = conn.context.get("ftp")
        if session is not None and session.user is not None and not session.closed:
            session.users.session_closed(session.user)

    def server_greeting(self, conn) -> bytes:
        return conn.context["ftp"].greeting()

    def _open_pasv(self, conn):
        old = conn.context.get("ftp_data")
        if old is not None:
            old.close()
        channel = _DataChannel(host=self.data_host)
        conn.context["ftp_data"] = channel
        return channel.host, channel.port

    # -- framing: CRLF (tolerating bare LF) command lines --------------------
    def split_request(self, data: bytes):
        if b"\n" not in data:
            return None
        line, rest = data.split(b"\n", 1)
        return line + b"\n", rest

    # -- Decode Request ----------------------------------------------------------
    def decode(self, raw: bytes, conn) -> bytes:
        return raw

    # -- Handle Request ------------------------------------------------------------
    def handle(self, line: bytes, conn):
        session = conn.context["ftp"]
        result = session.handle_command(line)
        if result.transfer is not None:
            channel = conn.context.pop("ftp_data", None)
            if channel is None:
                # Data channel vanished between PASV and the transfer.
                from repro.ftp.replies import reply

                return reply(425)
            conn.send_bytes(self.encode(result, conn))
            threading.Thread(
                target=channel.run_transfer,
                args=(result.transfer,
                      lambda ok: self._transfer_done(conn, session, ok)),
                daemon=True,
            ).start()
            return PENDING
        return result

    def _transfer_done(self, conn, session, ok: bool) -> None:
        if not conn.closed:
            conn.complete_request(session.transfer_complete(ok))

    # -- Encode Reply -----------------------------------------------------------------
    def encode(self, result, conn) -> bytes:
        if isinstance(result, (bytes, bytearray)):
            return bytes(result)
        if result.close:
            conn.close_after_flush = True
        return result.wire


def build_cops_ftp(
    fs: Optional[VirtualFS] = None,
    users: Optional[UserRegistry] = None,
    options: Optional[dict] = None,
    dest: Optional[str] = None,
    package: str = "cops_ftp_fw",
    host: str = "127.0.0.1",
    port: int = 0,
    **config_overrides,
):
    """Generate the COPS-FTP framework and return the assembled server.

    Returns ``(server, framework_module, generation_report)``.
    """
    opts = NSERVER.configure(options or COPS_FTP_OPTIONS)
    build = dest or tempfile.mkdtemp(prefix="cops_ftp_")
    report = NSERVER.generate(opts, build, package=package)
    fw = load_generated_package(build, package)
    configuration = fw.ServerConfiguration(host=host, port=port,
                                           **config_overrides)
    server = fw.Server(CopsFtpHooks(fs=fs, users=users),
                       configuration=configuration)
    if dest is None:
        remove_build_on_stop(server, build)
    return server, fw, report
