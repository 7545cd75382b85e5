"""Benchmark regenerating paper Table I (average score across the eight tasks)."""

from conftest import check_format_golden

from repro.experiments.table1_average import format_table1, run_table1


def test_bench_table1_average(fig9_result):
    """Average score per method and budget, next to the paper's values."""
    result = run_table1(fig9=fig9_result)
    print()
    text = format_table1(result)
    print(text)
    check_format_golden("table1", text)

    budgets = sorted(result.averages["clusterkv"])
    tightest, largest = budgets[0], budgets[-1]
    # Table I claims: ClusterKV > Quest at every budget and approaches full KV
    # at the largest budget.
    assert result.averages["clusterkv"][tightest] >= result.averages["quest"][tightest] - 5.0
    assert result.averages["clusterkv"][largest] >= result.averages["full"][largest] - 15.0
