"""Repeat the benchmark over seeds and report run-to-run spread.

``python3 -m e2ebench.repeat --runs 10 --out A.jsonl`` runs every
workload ten times, each with another seed, exactly as the driver
invokes it (one process per run), appends each result line — tagged
with its workload and seed — to *out* for ``python3 -m
e2ebench.compare``, and prints per workload and metric the median and
the spread (interquartile distance ÷ median) beside the metric's
bound.  A benchmark is steady when every spread stays below a third of
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import defaultdict

from . import ROOT, summary


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def read_records(path: str) -> tuple[dict[str, dict[str, list[float]]],
                                     dict[str, int]]:
    """``({workload: {metric: [value per correct run]}}, {workload:
    runs that were not correct})`` of a file *repeat* wrote."""
    values: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    incorrect: dict[str, int] = defaultdict(int)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if not record["correct"]:
                incorrect[record["workload"]] += 1
                continue
            for name, metric in record["metrics"].items():
                values[record["workload"]][name].append(metric["value"])
    return values, incorrect


def report(path: str, contract: dict) -> bool:
    """Print the spread table; True when every spread is within a third
    of its bound (``setup_s`` excepted, as for the driver)."""
    steady = True
    print(f"{'workload':18} {'metric':24} {'runs':>4} {'median':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload, metrics in read_records(path)[0].items():
        for entry in contract["end_to_end"]:
            runs = metrics.get(entry["name"], [])
            if len(runs) < 2:
                continue
            middle = summary.quartiles(runs)[1]
            share = summary.spread(runs)
            mark = ""
            if entry["name"] != "setup_s" and share > entry["bound"] / 3:
                steady = False
                mark = " <- above a third of the bound"
            print(f"{workload:18} {entry['name']:24} {len(runs):4d} "
                  f"{middle:12.4f} {share:8.4f} {entry['bound']:6.2f}"
                  f"{mark}")
    return steady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m e2ebench.repeat",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    contract = load_contract()
    failed = False
    for workload in [w["name"] for w in contract["workloads"]]:
        for seed in range(1, args.runs + 1):
            started = time.perf_counter()
            completed = subprocess.run(
                [*contract["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(contract["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE,
                stdin=subprocess.DEVNULL)
            print(f"{workload} seed {seed}: exit {completed.returncode}, "
                  f"{time.perf_counter() - started:.1f} s", flush=True)
            lines = completed.stdout.splitlines()
            if not lines:  # it died before it could print a result
                return completed.returncode or 1
            failed |= completed.returncode != 0
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(
                    {"workload": workload, "seed": seed,
                     **json.loads(lines[-1])}) + "\n")
    return 0 if report(args.out, contract) and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
