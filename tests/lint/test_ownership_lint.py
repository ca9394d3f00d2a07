"""The write-path ownership lint: only ``runtime/handles.py`` may
mutate a handle's ``out_buffer`` or call a send primitive
(``sendmsg``, ``os.sendfile``); everything else writes through
``write`` / ``try_send``, and only the connection's owner
(``runtime/communicator.py``) calls those on a handle."""

import ast
import textwrap

from repro.lint.ownership import (
    HANDLE_WRITER,
    handle_write_findings,
    handle_writes,
    out_buffer_findings,
    out_buffer_mutations,
    ownership_findings,
    send_calls,
    send_findings,
)


def mutations(source):
    return out_buffer_mutations(ast.parse(textwrap.dedent(source)))


def test_every_mutation_shape_is_flagged():
    hits = mutations("""
        handle.out_buffer += payload
        handle.out_buffer.append([payload])
        del handle.out_buffer[:n]
        handle.out_buffer = OutBuffer()
        self.out_buffer[:2] = b"ab"
    """)
    assert [line for line, _target in hits] == [2, 3, 4, 5, 6]


def test_reads_and_the_write_api_are_clean():
    assert mutations("""
        if handle.out_buffer and len(handle.out_buffer) > 3:
            handle.write([head, body])
        handle.try_send()
        queued = bool(conn.handle.out_buffer)
    """) == []


def test_findings_skip_only_the_owner_module(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def reject(handle, p):\n    handle.out_buffer += p\n")
    findings = out_buffer_findings([str(tmp_path)])
    assert len(findings) == 1
    assert findings[0].location.endswith("dirty.py:2")
    assert findings[0].ident.startswith("ownership:")


def test_shipped_tree_is_clean():
    assert out_buffer_findings() == []


def test_every_send_primitive_call_is_flagged():
    hits = send_calls(ast.parse(textwrap.dedent("""
        sock.sendmsg([head, body])
        self.sock.sendmsg(iov, (), flags)
        os.sendfile(out_fd, in_fd, offset, count)
        sock.sendall(data)
        handle.write([head, body])
    """)))
    assert [line for line, _target in hits] == [2, 3, 4]


def test_a_send_outside_the_owner_fails_the_gate(tmp_path):
    (tmp_path / "bypass.py").write_text(
        "import os\n"
        "def push(sock, f):\n"
        "    os.sendfile(sock.fileno(), f.fileno(), 0, 10)\n")
    findings = send_findings([str(tmp_path)])
    assert [f.location.rsplit("/", 1)[1] for f in findings] == [
        "bypass.py:3"]
    assert "os.sendfile" in findings[0].message
    assert ownership_findings([str(tmp_path)]) == findings


def test_shipped_tree_sends_only_from_the_handles_module():
    assert send_findings() == []


def test_every_handle_write_shape_is_flagged():
    hits = handle_writes(ast.parse(textwrap.dedent("""
        handle.write([head, body])
        conn.handle.try_send()
        self.handle.write((payload,))
        conn.send_bytes(payload)
        sink.write(line)
        handle.close()
    """)))
    assert [line for line, _target in hits] == [2, 3, 4]


def test_a_handle_write_outside_the_connection_owner_fails_the_gate(tmp_path):
    (tmp_path / "transfer.py").write_text(
        "def transfer_done(conn, reply):\n"
        "    conn.handle.write((reply,))\n"
        "def reject_handle(handle, payload):\n"
        "    handle.write((payload,))\n")
    findings = handle_write_findings([str(tmp_path)])
    assert [f.location.rsplit("/", 1)[1] for f in findings] == [
        "transfer.py:2"]
    assert "conn.handle.write" in findings[0].message
    assert ownership_findings([str(tmp_path)]) == findings


def test_the_canned_reject_is_the_one_allowed_handle_write():
    assert HANDLE_WRITER == "reject_handle"
    assert handle_write_findings() == []
