"""Tests for the python -m repro.experiments entry point."""

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main


def test_table_experiments_via_cli(capsys):
    assert main(["table1", "table3", "table4"]) == 0
    out = capsys.readouterr().out
    assert "TABLE 1" in out and "TABLE 3" in out and "TABLE 4" in out
    assert "[table1:" in out


def test_duplicate_names_run_once(capsys):
    assert main(["table1", "table1"]) == 0
    assert capsys.readouterr().out.count("TABLE 1") == 1


def test_quick_fig6(capsys):
    assert main(["fig6", "--quick"]) == 0
    assert "FIG 6" in capsys.readouterr().out


def test_quick_fig3_and_fig4_share_sweep(capsys):
    assert main(["fig3", "fig4", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "FIG 3" in out and "FIG 4" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_quick_fig3_poller(capsys):
    assert main(["fig3-poller", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "poller extension" in out and "SELECT vs EPOLL" in out


def test_quick_fig3_procs(capsys):
    assert main(["fig3-procs", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "O16 extension" in out and "WORKER PROCESSES" in out


def test_all_is_every_experiment():
    assert set(EXPERIMENTS) == {"table1", "table2", "table3", "table4",
                                "fig3", "fig4", "fig5", "fig6",
                                "fig6-cliff", "fig3-poller",
                                "fig3-procs"}
