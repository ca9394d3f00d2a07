"""Table 2 bench: compute the option x class crosscut matrix empirically
(generate + toggle + diff) and assert the exact match with the paper."""

from repro.experiments import format_table2, run_table2


def test_table2_crosscut(benchmark):
    result = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    assert result.matches_expected, result.vs_expected
    assert result.vs_declared == [], result.vs_declared
    print()
    print(format_table2(result))
