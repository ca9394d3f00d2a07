"""The out-buffer ownership lint: only ``runtime/handles.py`` may
mutate a handle's ``out_buffer``; everything else writes through
``write`` / ``try_send``."""

import ast
import textwrap

from repro.lint.ownership import out_buffer_findings, out_buffer_mutations


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
