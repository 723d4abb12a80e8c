"""Compare two sets of runs against the benchmark's own bounds.

``python3 -m e2ebench.compare PARENT.jsonl CHANGE.jsonl`` reads two
files written by ``python3 -m e2ebench.repeat`` and prints, for every
pairing of workload and end-to-end metric, both medians and a verdict:

* ``regressed``  — the change's median is worse than the parent's by
  more than the metric's bound; also the verdict of a workload's
  ``incorrect_runs`` row, printed when any run of it, on either side,
  was not correct (such a run's metrics are left out of the medians,
  so without the row it would vanish);
* ``unresolved`` — the run-to-run spread of either side exceeds the
  bound, so the data cannot say the metric held;
* ``held``       — neither.

It never says "improved": a gain is claimed by the paired protocol in
README.md, not by two medians.  Exit status 1 when anything regressed.
"""

from __future__ import annotations

import math
import sys

from . import summary
from .repeat import load_contract, read_records


def verdicts(parent: tuple, change: tuple, contract: dict) -> list[tuple]:
    """``(workload, metric, parent median, change median, worse_by,
    widest spread, verdict)`` for every pairing both sides measured;
    *parent* and *change* are what ``read_records`` returns."""
    (parent, parent_incorrect), (change, change_incorrect) = parent, change
    rows = []
    for workload in sorted({*parent_incorrect, *change_incorrect}):
        rows.append((workload, "incorrect_runs",
                     float(parent_incorrect.get(workload, 0)),
                     float(change_incorrect.get(workload, 0)),
                     math.inf, 0.0, "regressed"))
    for workload in parent:
        for entry in contract["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            before = parent[workload].get(name, [])
            after = change.get(workload, {}).get(name, [])
            if len(before) < 2 or len(after) < 2:
                continue
            old = summary.quartiles(before)[1]
            new = summary.quartiles(after)[1]
            worse = summary.worse_by(old, new, entry["better"])
            widest = max(summary.spread(before), summary.spread(after))
            if worse > bound:
                verdict = "regressed"
            elif widest > bound:
                verdict = "unresolved"
            else:
                verdict = "held"
            rows.append((workload, name, old, new, worse, widest, verdict))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = verdicts(read_records(argv[0]), read_records(argv[1]),
                    load_contract())
    print(f"{'workload':18} {'metric':24} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'spread':>7}  verdict")
    for workload, name, old, new, worse, widest, verdict in rows:
        print(f"{workload:18} {name:24} {old:12.4f} {new:12.4f} "
              f"{worse:+9.3f} {widest:7.3f}  {verdict}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
