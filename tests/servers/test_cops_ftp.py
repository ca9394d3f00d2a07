"""Integration tests: COPS-FTP on its generated framework, driven by the
standard library's ftplib client over real sockets."""

import ftplib
import io

import pytest

from harness import wait_until
from repro.ftp import User, UserRegistry, VirtualFS
from repro.servers import build_cops_ftp


@pytest.fixture(scope="module")
def setup():
    fs = VirtualFS()
    fs.makedirs("/pub/docs")
    fs.write_file("/pub/hello.txt", b"hello ftp world")
    fs.write_file("/pub/docs/deep.txt", b"nested")
    fs.makedirs("/home/alice")
    users = UserRegistry()
    users.add(User(name="alice", password="pw", home="/home/alice"))
    server, fw, report = build_cops_ftp(fs=fs, users=users)
    server.start()
    yield server, fs
    server.stop()


def connect(server, user="anonymous", password="guest@"):
    ftp = ftplib.FTP()
    ftp.connect("127.0.0.1", server.port, timeout=5)
    ftp.login(user, password)
    return ftp


def test_welcome_banner(setup):
    server, _ = setup
    ftp = ftplib.FTP()
    ftp.connect("127.0.0.1", server.port, timeout=5)
    assert ftp.getwelcome().startswith("220")
    ftp.close()


def test_anonymous_login_lands_in_pub(setup):
    server, _ = setup
    ftp = connect(server)
    assert ftp.pwd() == "/pub"
    ftp.quit()


def test_bad_password_rejected(setup):
    server, _ = setup
    ftp = ftplib.FTP()
    ftp.connect("127.0.0.1", server.port, timeout=5)
    with pytest.raises(ftplib.error_perm):
        ftp.login("alice", "wrong")
    ftp.close()


def test_nlst_and_cwd(setup):
    server, _ = setup
    ftp = connect(server)
    assert ftp.nlst() == ["docs", "hello.txt"]
    ftp.cwd("docs")
    assert ftp.pwd() == "/pub/docs"
    assert ftp.nlst() == ["deep.txt"]
    ftp.quit()


def test_list_long_format(setup):
    server, _ = setup
    ftp = connect(server)
    lines = []
    ftp.retrlines("LIST", lines.append)
    assert any("hello.txt" in line and line.startswith("-rw-")
               for line in lines)
    ftp.quit()


def test_retr_file(setup):
    server, _ = setup
    ftp = connect(server)
    buf = io.BytesIO()
    ftp.retrbinary("RETR hello.txt", buf.write)
    assert buf.getvalue() == b"hello ftp world"
    ftp.quit()


def test_retr_missing_file(setup):
    server, _ = setup
    ftp = connect(server)
    with pytest.raises(ftplib.error_perm):
        ftp.retrbinary("RETR ghost.txt", lambda b: None)
    ftp.quit()


def test_size_command(setup):
    server, _ = setup
    ftp = connect(server)
    ftp.voidcmd("TYPE I")
    assert ftp.size("hello.txt") == 15
    ftp.quit()


def test_stor_and_dele_as_alice(setup):
    server, fs = setup
    ftp = connect(server, "alice", "pw")
    ftp.storbinary("STOR data.bin", io.BytesIO(b"\x01\x02\x03"))
    wait_until(lambda: fs.exists("/home/alice/data.bin"),
               message="uploaded file never appeared in the VFS")
    assert fs.read_file("/home/alice/data.bin") == b"\x01\x02\x03"
    ftp.delete("data.bin")
    assert not fs.exists("/home/alice/data.bin")
    ftp.quit()


def test_anonymous_cannot_write(setup):
    server, _ = setup
    ftp = connect(server)
    with pytest.raises(ftplib.error_perm):
        ftp.storbinary("STOR evil.bin", io.BytesIO(b"x"))
    ftp.quit()


def test_mkd_rmd_rename(setup):
    server, fs = setup
    ftp = connect(server, "alice", "pw")
    ftp.mkd("work")
    assert fs.is_dir("/home/alice/work")
    ftp.rename("work", "play")
    assert fs.is_dir("/home/alice/play")
    ftp.rmd("play")
    assert not fs.exists("/home/alice/play")
    ftp.quit()


def test_multiple_sessions_concurrently(setup):
    server, _ = setup
    clients = [connect(server) for _ in range(4)]
    for ftp in clients:
        assert ftp.pwd() == "/pub"
    for ftp in clients:
        ftp.quit()


def test_roundtrip_upload_download(setup):
    server, fs = setup
    payload = bytes(range(256)) * 100
    ftp = connect(server, "alice", "pw")
    ftp.storbinary("STOR blob", io.BytesIO(payload))
    wait_until(lambda: fs.exists("/home/alice/blob")
               and fs.read_file("/home/alice/blob") == payload,
               message="upload never fully landed in the VFS")
    buf = io.BytesIO()
    ftp.retrbinary("RETR blob", buf.write)
    assert buf.getvalue() == payload
    ftp.delete("blob")
    ftp.quit()


def test_quit_flags_the_close_only_as_its_reply_is_queued():
    """A transfer thread flushing the previous 226 reads the close flag;
    set while QUIT is still being handled, it would close the control
    connection before the 221 goes out."""
    from types import SimpleNamespace

    from repro.servers.cops_ftp import CopsFtpHooks

    hooks = CopsFtpHooks()
    conn = SimpleNamespace(context={}, close_after_flush=False)
    hooks.on_connect(conn)
    result = hooks.handle(b"QUIT\r\n", conn)
    assert not conn.close_after_flush
    assert hooks.encode(result, conn).startswith(b"221")
    assert conn.close_after_flush
