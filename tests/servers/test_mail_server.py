"""Integration tests: COPS-Mail on its generated framework, driven by
the standard library's smtplib over real sockets."""

import smtplib

import pytest

from harness import wait_until
from repro.servers import build_mail_server


@pytest.fixture(scope="module")
def setup():
    server, store, fw = build_mail_server()
    server.start()
    yield server, store
    server.stop()


def wait_for(predicate, timeout=3.0):
    return wait_until(predicate, timeout=timeout)


def test_banner_and_ehlo(setup):
    server, _ = setup
    client = smtplib.SMTP("127.0.0.1", server.port, timeout=5)
    code, msg = client.ehlo("tester")
    assert code == 250
    assert b"SIZE" in msg
    client.quit()


def test_send_single_message(setup):
    server, store = setup
    client = smtplib.SMTP("127.0.0.1", server.port, timeout=5)
    client.sendmail("from@a.test", ["to@b.test"],
                    "Subject: t\r\n\r\nbody text\r\n")
    client.quit()
    assert wait_for(lambda: store.messages_for("to@b.test"))
    msg = store.messages_for("to@b.test")[-1]
    assert msg.sender == "from@a.test"
    assert b"body text" in msg.body


def test_multiple_recipients(setup):
    server, store = setup
    client = smtplib.SMTP("127.0.0.1", server.port, timeout=5)
    client.sendmail("s@x.test", ["r1@x.test", "r2@x.test"], "m\r\n")
    client.quit()
    assert wait_for(lambda: store.messages_for("r1@x.test"))
    assert wait_for(lambda: store.messages_for("r2@x.test"))


def test_two_transactions_one_connection(setup):
    server, store = setup
    client = smtplib.SMTP("127.0.0.1", server.port, timeout=5)
    client.sendmail("s@x.test", ["first@y.test"], "one\r\n")
    client.sendmail("s@x.test", ["second@y.test"], "two\r\n")
    client.quit()
    assert wait_for(lambda: store.messages_for("first@y.test"))
    assert wait_for(lambda: store.messages_for("second@y.test"))


def test_recipient_refused_without_mail(setup):
    server, _ = setup
    client = smtplib.SMTP("127.0.0.1", server.port, timeout=5)
    client.ehlo("tester")
    code, _ = client.docmd("RCPT", "TO:<x@y.test>")
    assert code == 503
    client.quit()


def test_message_with_leading_dots(setup):
    server, store = setup
    client = smtplib.SMTP("127.0.0.1", server.port, timeout=5)
    client.sendmail("s@x.test", ["dots@y.test"],
                    "line\r\n.starts with dot\r\n")
    client.quit()
    assert wait_for(lambda: store.messages_for("dots@y.test"))
    body = store.messages_for("dots@y.test")[-1].body
    assert b".starts with dot" in body
    assert b"..starts" not in body


def test_concurrent_smtp_clients(setup):
    import threading

    server, store = setup
    errors = []

    def send(i):
        try:
            c = smtplib.SMTP("127.0.0.1", server.port, timeout=5)
            c.sendmail("s@x.test", [f"conc{i}@z.test"], f"msg {i}\r\n")
            c.quit()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=send, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not errors
    for i in range(6):
        assert wait_for(lambda i=i: store.messages_for(f"conc{i}@z.test"))


def test_logging_enabled_by_o12(setup):
    server, _ = setup
    # MAIL_SERVER_OPTIONS sets O12=True: the generated reactor has a log.
    assert hasattr(server.reactor, "log")
    assert server.reactor.log.lines  # accepted-connection lines


@pytest.mark.parametrize("per_connection", [False, True],
                         ids=["shared-hooks", "per-connection-hooks"])
def test_quit_flags_the_close_only_as_its_reply_is_queued(per_connection):
    """A worker thread still flushing an earlier reply reads the close
    flag; set while QUIT is still being handled, it would close the
    connection before the 221 goes out."""
    from types import SimpleNamespace

    from repro.servers.mail_server import (MailServerHooks,
                                           _ConnectionBoundHooks)

    conn = SimpleNamespace(context={}, close_after_flush=False)
    hooks = (_ConnectionBoundHooks if per_connection else MailServerHooks)()
    hooks.on_connect(conn)
    hooks = getattr(conn, "hooks", hooks)
    result = hooks.handle(b"QUIT\r\n", conn)
    assert not conn.close_after_flush
    assert hooks.encode(result, conn).startswith(b"221")
    assert conn.close_after_flush
