"""Unit tests for socket/listen/file handles."""

import gc
import os
import socket
import warnings

import pytest

from repro.runtime import FileHandle, ListenHandle, SocketHandle


def make_pair():
    listen = ListenHandle()
    client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
    server_side = None
    deadline = 50
    while server_side is None and deadline:
        server_side = listen.try_accept()
        deadline -= 1
    return listen, client, server_side


def test_listen_handle_binds_ephemeral_port():
    listen = ListenHandle()
    assert listen.port > 0
    assert listen.name == f"listen:{listen.port}"
    listen.close()
    assert listen.closed


def test_try_accept_returns_none_without_pending():
    listen = ListenHandle()
    assert listen.try_accept() is None
    listen.close()


def test_accept_returns_socket_handle():
    listen, client, server_side = make_pair()
    try:
        assert isinstance(server_side, SocketHandle)
        assert not server_side.closed
    finally:
        client.close()
        server_side.close()
        listen.close()


def test_handle_cls_factory():
    class Custom(SocketHandle):
        pass

    listen = ListenHandle(handle_cls=Custom)
    client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
    server_side = None
    for _ in range(50):
        server_side = listen.try_accept()
        if server_side:
            break
    try:
        assert isinstance(server_side, Custom)
    finally:
        client.close()
        server_side.close()
        listen.close()


def test_try_recv_nonblocking_and_eof():
    listen, client, server_side = make_pair()
    try:
        assert server_side.try_recv() is None        # nothing yet
        client.sendall(b"data")
        got = None
        for _ in range(100):
            got = server_side.try_recv()
            if got:
                break
        assert got == b"data"
        client.close()
        eof = None
        for _ in range(100):
            eof = server_side.try_recv()
            if eof == b"":
                break
        assert eof == b""                            # orderly EOF
    finally:
        server_side.close()
        listen.close()


def test_try_send_flushes_buffer():
    listen, client, server_side = make_pair()
    try:
        server_side.out_buffer.append([b"reply"])
        assert server_side.wants_write
        sent = server_side.try_send()
        assert sent == 5
        assert not server_side.wants_write
        client.settimeout(2)
        assert client.recv(5) == b"reply"
    finally:
        client.close()
        server_side.close()
        listen.close()


def test_try_send_empty_buffer_is_zero():
    listen, client, server_side = make_pair()
    try:
        assert server_side.try_send() == 0
    finally:
        client.close()
        server_side.close()
        listen.close()


def test_close_idempotent():
    listen, client, server_side = make_pair()
    client.close()
    server_side.close()
    server_side.close()
    assert server_side.closed
    listen.close()


def test_file_handle_reads(tmp_path):
    path = tmp_path / "blob.bin"
    payload = bytes(range(256)) * 4
    path.write_bytes(payload)
    fh = FileHandle(str(path))
    try:
        assert fh.size == len(payload)
        assert bytes(fh) == payload
        assert fh.read_at(10, 5) == payload[10:15]
        assert fh[100:].read_at(10, 5) == payload[110:115]
        assert fh.read_at(len(payload) - 2, 5) == payload[-2:]
        assert fh.name == str(path)
    finally:
        fh.close()
    assert fh.closed
    assert _fd_target(fh.fileno()) != str(path)


def test_file_handle_fd_closes_with_its_last_range(tmp_path):
    """No ``close()`` needed: the fd goes with the last range over it,
    and dropping an unclosed handle warns about nothing."""
    path = tmp_path / "blob.bin"
    path.write_bytes(b"x" * 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        fh = FileHandle(str(path))
        fd = fh.fileno()
        tail = fh[40:]
        del fh
        gc.collect()
        assert tail == b"x" * 60 and _fd_target(fd) == str(path)
        del tail
        gc.collect()
    assert _fd_target(fd) != str(path)


def _fd_target(fd):
    """What ``fd`` of this process points at now (None: not open)."""
    try:
        return os.readlink(f"/proc/self/fd/{fd}")
    except OSError:
        return None


def test_file_handle_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        FileHandle(str(tmp_path / "nope"))
