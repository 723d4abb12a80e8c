"""LUBM university analytics: LBR vs the baselines on Appendix E.1.

Generates a mini-LUBM dataset, runs the six evaluation queries once on
each of the three engines (LBR on a fresh engine, so init and prune are
timed), and prints a Table 6.2-style comparison — the shape to look
for: LBR far ahead on the low-selectivity cyclic queries Q1–Q3,
at par on the selective Q4–Q6, best-match only for Q4/Q5.

Run:  python examples/lubm_analytics.py [universities]
"""

import sys

from repro.bench import BenchmarkHarness, format_query_table
from repro.datasets import LUBMConfig, LUBM_QUERIES, generate_lubm


def main() -> None:
    universities = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    config = LUBMConfig(universities=universities)
    print(f"Generating mini-LUBM for {universities} "
          f"universit{'y' if universities == 1 else 'ies'}...")
    graph = generate_lubm(config)
    chars = graph.characteristics()
    print(f"  {chars['triples']:,} triples, {chars['subjects']:,} subjects, "
          f"{chars['predicates']} predicates, {chars['objects']:,} objects\n")

    harness = BenchmarkHarness("LUBM", graph, runs=1)
    suite = harness.run_suite(LUBM_QUERIES)
    print(format_query_table(suite))

    print("\nPer-query highlights:")
    for report in suite.queries:
        if report.initial_triples:
            pruned = 1 - (report.triples_after_pruning
                          / report.initial_triples)
        else:
            pruned = 0.0
        verified = "verified" if report.verified else "MISMATCH"
        print(f"  {report.query}: pruned {pruned:.1%} of candidate "
              f"triples, {report.num_results:,} results "
              f"({report.results_with_nulls:,} with NULLs) [{verified}]")


if __name__ == "__main__":
    main()
