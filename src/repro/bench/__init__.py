"""Benchmark harness and table rendering for the §6 reproduction."""

from .harness import (BenchmarkHarness, QueryReport, SuiteReport,
                      geometric_mean, timed)
from .reporting import (format_characteristics_table, format_geomean_table,
                        format_query_table, format_verification)

__all__ = [
    "BenchmarkHarness", "QueryReport", "SuiteReport",
    "format_characteristics_table", "format_geomean_table",
    "format_query_table", "format_verification", "geometric_mean",
    "timed",
]
