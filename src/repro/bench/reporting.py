"""Render benchmark reports in the layout of the paper's tables."""

from __future__ import annotations

from typing import Sequence

from .harness import QueryReport, SuiteReport


def _fmt_time(value: float) -> str:
    if value < 0.01:
        return f"{value * 1000:.2f}ms"
    return f"{value:.3f}"


def format_characteristics_table(
        suites: Sequence[SuiteReport]) -> str:
    """Table 6.1: dataset characteristics."""
    header = (f"{'Dataset':<10} {'#triples':>12} {'#S':>10} {'#P':>8} "
              f"{'#O':>10}")
    lines = [header, "-" * len(header)]
    for suite in suites:
        chars = suite.characteristics
        lines.append(f"{suite.dataset:<10} {chars['triples']:>12,} "
                     f"{chars['subjects']:>10,} {chars['predicates']:>8,} "
                     f"{chars['objects']:>10,}")
    return "\n".join(lines)


def format_query_table(suite: SuiteReport) -> str:
    """One of Tables 6.2–6.4 (best total time per row starred)."""
    header = (f"{'':<4} {'Tplan':>8} {'Tinit':>8} {'Tprune':>8} "
              f"{'Ttotal':>9} {'Twarm':>8} "
              f"{'Tnaive':>9} {'Tcol':>9} {'#initial':>10} {'#pruned':>10} "
              f"{'#results':>9} {'#nulls':>8} {'best-match':>10}")
    lines = [f"{suite.dataset} — query processing times (seconds; LBR "
             f"on a fresh engine, Twarm = memo replay on the same engine)",
             header, "-" * len(header)]
    for report in suite.queries:
        times = {"lbr": report.t_lbr, "naive": report.t_naive,
                 "col": report.t_columnstore}
        best = min(times, key=times.get)

        def cell(engine: str, value: float) -> str:
            text = _fmt_time(value)
            return f"{text}*" if engine == best else text

        lines.append(
            f"{report.query:<4} {_fmt_time(report.t_plan):>8} "
            f"{_fmt_time(report.t_init):>8} "
            f"{_fmt_time(report.t_prune):>8} "
            f"{cell('lbr', report.t_lbr):>9} "
            f"{_fmt_time(report.t_warm):>8} "
            f"{cell('naive', report.t_naive):>9} "
            f"{cell('col', report.t_columnstore):>9} "
            f"{report.initial_triples:>10,} "
            f"{report.triples_after_pruning:>10,} "
            f"{report.num_results:>9,} {report.results_with_nulls:>8,} "
            f"{'Yes' if report.best_match_required else 'No':>10}")
    return "\n".join(lines)


def format_geomean_table(suites: Sequence[SuiteReport]) -> str:
    """The §6.2 per-dataset geometric means."""
    header = (f"{'Dataset':<10} {'LBR':>10} {'Naive':>10} "
              f"{'Columnstore':>12}")
    lines = ["Geometric means of query times (seconds)", header,
             "-" * len(header)]
    for suite in suites:
        means = suite.geometric_means()
        lines.append(
            f"{suite.dataset:<10} {_fmt_time(means['lbr']):>10} "
            f"{_fmt_time(means['naive']):>10} "
            f"{_fmt_time(means['columnstore']):>12}")
    return "\n".join(lines)


def format_verification(reports: Sequence[QueryReport]) -> str:
    """One line per query: did LBR and the columnstore match the naive
    oracle bag-exactly?"""
    return "\n".join(f"{report.dataset} {report.query}: "
                     f"{'OK' if report.verified else 'MISMATCH'}"
                     for report in reports)
