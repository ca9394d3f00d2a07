"""Exit-code contract tests for ``python -m repro.lint``."""

from repro.lint.__main__ import main


def test_blocking_fixture_exits_nonzero(fixture_path, capsys):
    assert main(["blocking", fixture_path("known_blocking.py"),
                 "--no-baseline"]) == 1
    assert "time.sleep" in capsys.readouterr().out


def test_blocking_clean_fixture_exits_zero(fixture_path, capsys):
    assert main(["blocking", fixture_path("clean_blocking.py"),
                 "--no-baseline"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_blocking_shipped_tree_clean_under_baseline(capsys):
    assert main(["blocking"]) == 0


def test_blocking_shipped_tree_clean_without_baseline(capsys):
    # no blocking finding in the shipped tree is merely suppressed
    assert main(["blocking", "--no-baseline"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_verbose_lists_suppressions_with_reasons(fixture_path, tmp_path,
                                                 capsys):
    baseline = tmp_path / "lint-baseline.toml"
    baseline.write_text(
        '[[suppression]]\n'
        'id = "blocking:*:SleepyHandler._refill:time.sleep"\n'
        'reason = "deliberate load shedding"\n')
    assert main(["blocking", fixture_path("known_blocking.py"),
                 "--baseline", str(baseline), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "suppressed" in out
    assert "load shedding" in out


def test_race_scenario_fixture_exits_nonzero(fixture_path,
                                             no_ambient_detector, capsys):
    assert main(["race", fixture_path("known_race.py")]) == 1
    assert "race:UnlockedCounter.value" in capsys.readouterr().out


def test_race_clean_scenario_exits_zero(fixture_path,
                                        no_ambient_detector, capsys):
    assert main(["race", fixture_path("clean_race.py")]) == 0
    assert "no findings" in capsys.readouterr().out


def test_docstring_gate_exit_codes(tmp_path):
    good = tmp_path / "good.py"
    good.write_text('"""doc"""\n\ndef f():\n    """doc"""\n')
    assert main(["docstrings", str(good), "--fail-under", "100"]) == 0
    bad = tmp_path / "bad.py"
    bad.write_text("def f():\n    pass\n")
    assert main(["docstrings", str(bad), "--fail-under", "100"]) == 1


def test_full_check_shipped_tree_exits_zero(capsys):
    # the CI gate end to end: blocking lint + 18-option audit sweep +
    # crosscut three-way check + docstring ratchet, all clean
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "generated-code audit" in out
    assert "docstring coverage" in out
