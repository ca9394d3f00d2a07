"""Baseline parsing, matching and validation tests."""

import pytest

from repro.lint.baseline import (
    Baseline,
    Suppression,
    _parse_minimal_toml,
    find_baseline,
    load_baseline,
)
from repro.lint.findings import Finding, render_findings, split_suppressed


def test_load_and_match(tmp_path):
    path = tmp_path / "lint-baseline.toml"
    path.write_text(
        "# comment\n"
        "[[suppression]]\n"
        'id = "blocking:a.py:F.g:time.sleep"\n'
        'reason = "deliberate"\n'
        "\n"
        "[[suppression]]\n"
        'id = "race:Pool.*"\n'
        'reason = "gil atomic"\n')
    baseline = load_baseline(str(path))
    assert baseline.suppressed("blocking:a.py:F.g:time.sleep")
    assert baseline.suppressed("race:Pool.hits")  # fnmatch wildcard
    assert not baseline.suppressed("race:Other.hits")
    assert baseline.reason_for("race:Pool.hits") == "gil atomic"
    assert baseline.reason_for("race:Other.hits") is None


def test_missing_reason_rejected(tmp_path):
    path = tmp_path / "lint-baseline.toml"
    path.write_text('[[suppression]]\nid = "race:X.y"\n')
    with pytest.raises(ValueError):
        load_baseline(str(path))


def test_missing_id_rejected(tmp_path):
    path = tmp_path / "lint-baseline.toml"
    path.write_text('[[suppression]]\nreason = "why"\n')
    with pytest.raises(ValueError):
        load_baseline(str(path))


def test_minimal_parser_handles_the_documented_shape():
    text = ("# header comment\n"
            "[[suppression]]\n"
            'id = "a"\n'
            "reason = 'b'\n")
    assert _parse_minimal_toml(text) == [{"id": "a", "reason": "b"}]


def test_minimal_parser_rejects_garbage():
    with pytest.raises(ValueError):
        _parse_minimal_toml('id = "orphan"\n')
    with pytest.raises(ValueError):
        _parse_minimal_toml('[[suppression]]\nid = unquoted\n')
    with pytest.raises(ValueError):
        _parse_minimal_toml('[other]\n')


def test_find_baseline_locates_the_checked_in_file():
    baseline = find_baseline()
    assert baseline is not None
    assert baseline.path.endswith("lint-baseline.toml")
    assert baseline.suppressed("race:MetricFamily._children")


def test_split_suppressed_partitions():
    f1 = Finding("race", "race:A.x", "loc", "msg")
    f2 = Finding("race", "race:B.y", "loc", "msg")
    baseline = Baseline([Suppression("race:A.*", "ok")])
    live, quiet = split_suppressed([f1, f2], baseline)
    assert live == [f2] and quiet == [f1]
    live, quiet = split_suppressed([f1, f2], None)
    assert live == [f1, f2] and quiet == []


def test_render_findings_reports_empty_sets():
    assert "no findings" in render_findings([], title="t")
    f = Finding("race", "race:A.x", "a.py:1", "msg", detail="evidence")
    rendered = render_findings([f])
    assert "race:A.x" in rendered
    assert "    evidence" in rendered
