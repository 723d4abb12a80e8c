"""compare flags what left its bound and admits what it cannot see."""

import json

from e2ebench import compare
from e2ebench.repeat import read_records

CONTRACT = {"end_to_end": [
    {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def _records(path, p50s, ops, correct=True):
    with open(path, "a", encoding="utf-8") as handle:
        for seed, (p50, rate) in enumerate(zip(p50s, ops)):
            handle.write(json.dumps({
                "workload": "w", "seed": seed,
                "correct": correct, "attempted": 1, "failed": 0,
                "metrics": {"query_p50_ms": {"value": p50, "unit": "ms"},
                            "ops_per_s": {"value": rate, "unit": "1/s"}},
            }) + "\n")


def _verdicts(tmp_path, parent, change):
    _records(tmp_path / "a", *parent)
    _records(tmp_path / "b", *change)
    rows = compare.verdicts(read_records(tmp_path / "a"),
                            read_records(tmp_path / "b"), CONTRACT)
    return {name: verdict for _, name, *_, verdict in rows}


STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
RATES = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5]


def test_held_and_regressed(tmp_path):
    slower = [v * 1.2 for v in STEADY]
    assert _verdicts(tmp_path, (STEADY, RATES), (slower, RATES)) == {
        "query_p50_ms": "regressed", "ops_per_s": "held"}


def test_direction_of_better(tmp_path):
    # latency down and throughput down: only the second is worse
    faster = [v * 0.8 for v in STEADY]
    fewer = [v * 0.8 for v in RATES]
    assert _verdicts(tmp_path, (STEADY, RATES), (faster, fewer)) == {
        "query_p50_ms": "held", "ops_per_s": "regressed"}


def test_spread_wider_than_the_bound_is_unresolved(tmp_path):
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0]
    assert _verdicts(tmp_path, (STEADY, RATES), (noisy, RATES))[
        "query_p50_ms"] == "unresolved"


def test_an_incorrect_run_is_a_regression_not_a_gap(tmp_path):
    # a change that fails every run leaves no metrics to compare; that
    # must not read as "nothing regressed"
    _records(tmp_path / "a", STEADY, RATES)
    _records(tmp_path / "b", [1.0] * 6, [999.0] * 6, correct=False)
    values, incorrect = read_records(tmp_path / "b")
    assert not values and incorrect == {"w": 6}
    rows = compare.verdicts(read_records(tmp_path / "a"),
                            (values, incorrect), CONTRACT)
    assert [(row[0], row[1], row[-1]) for row in rows] == [
        ("w", "incorrect_runs", "regressed")]
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    # ... and one bad run among good ones is flagged beside the metrics
    _records(tmp_path / "b", STEADY, RATES)
    verdict = {row[1]: row[-1] for row in compare.verdicts(
        read_records(tmp_path / "a"), read_records(tmp_path / "b"),
        CONTRACT)}
    assert verdict == {"incorrect_runs": "regressed", "query_p50_ms": "held",
                       "ops_per_s": "held"}
