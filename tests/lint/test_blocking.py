"""Tests for the reactor blocking-call lint."""

from repro.lint.blocking import BlockingLint, lint_paths


def test_seeded_blocking_fixture_is_flagged(fixture_path):
    findings = lint_paths([fixture_path("known_blocking.py")])
    assert findings, "the seeded fixture must produce a finding"
    assert any("time.sleep" in f.ident for f in findings)


def test_call_path_reported_through_helpers(fixture_path):
    findings = lint_paths([fixture_path("known_blocking.py")])
    (finding,) = [f for f in findings if "time.sleep" in f.ident]
    assert "SleepyHandler.on_readable" in finding.detail
    assert "_refill" in finding.detail


def test_clean_fixture_has_no_findings(fixture_path):
    # the clean fixture contains a time.sleep that no root reaches, so
    # zero findings also proves reachability (not presence) is checked
    with open(fixture_path("clean_blocking.py")) as fh:
        assert "time.sleep" in fh.read()
    assert lint_paths([fixture_path("clean_blocking.py")]) == []


def test_builtin_open_flagged_only_as_bare_name(tmp_path):
    src = (
        "class H:\n"
        "    def on_readable(self, handle):\n"
        "        data = open('/tmp/x').read()\n"
        "        handle.open()\n")
    path = tmp_path / "mod.py"
    path.write_text(src)
    lint = BlockingLint()
    lint.scan_file(str(path), "mod.py")
    findings = lint.findings()
    # the builtin open() is a finding; the handle.open() method is not
    assert [f.ident for f in findings] == ["blocking:mod.py:H.on_readable:open"]


def test_qualname_root_requires_class_context(tmp_path):
    src = (
        "import time\n"
        "class Acceptor:\n"
        "    def handle(self):\n"
        "        time.sleep(1)\n"
        "class Other:\n"
        "    def handle(self):\n"
        "        time.sleep(1)\n")
    path = tmp_path / "mod.py"
    path.write_text(src)
    lint = BlockingLint()
    lint.scan_file(str(path), "mod.py")
    # only Acceptor.handle is a root; Other.handle is an ordinary method
    assert [f.ident for f in lint.findings()] == [
        "blocking:mod.py:Acceptor.handle:time.sleep"]


def test_shipped_tree_has_no_blocking_findings():
    # the runtime and server apps carry no blocking call reachable from
    # a reactor callback, not even a baselined one
    assert lint_paths() == []
