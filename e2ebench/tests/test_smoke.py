"""All four workloads end to end on a graph of about five thousand
triples: every answer right, every declared metric printed."""

import os
import time

import pytest

from e2ebench import OUT, data, run
from e2ebench.repeat import load_contract

#: ≈5k triples: one LUBM department, 200 proteins, a tenth of DBPedia
SCALE = 0.1


@pytest.fixture(scope="module")
def contract():
    return load_contract()


@pytest.fixture()
def workdir(tmp_path_factory):
    os.makedirs(OUT, exist_ok=True)
    return str(tmp_path_factory.mktemp("run"))


def test_the_smoke_graph_is_small():
    triples, _ = data.load(SCALE)
    assert 3000 < len(triples) < 8000
    assert len(set(triples)) == len(triples)


def test_all_four_workloads_in_thirty_seconds(contract, workdir):
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    # generation and the reference answers are not the smoke's to time
    run.make_plan("cold_open", 1, data.load(SCALE)[0], SCALE)
    started = time.perf_counter()
    for workload in run.WORKLOADS:
        result = run.run(workload, 1, 3.0, False, workdir, SCALE)
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 200, workload
        assert {name: metric["unit"] for name, metric
                in result["metrics"].items()} == declared, workload
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values()), workload
    assert time.perf_counter() - started < 30


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(contract, workdir,
                                                  workload):
    declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
    result = run.run(workload, 2, 3.0, True, workdir, SCALE)
    assert result["correct"], workload
    metrics = result["metrics"]
    assert {name: metric["unit"]
            for name, metric in metrics.items()} == declared
    value = {name: metric["value"] for name, metric in metrics.items()}
    assert os.path.getsize(os.path.join(OUT, f"trace-{workload}.jsonl"))
    # the split the workloads were designed for
    if workload == "lowsel_templates":
        assert value["core.engine.plan_cache.hit_rate"] >= 0.95
        # at this size one template aborts in prune_triples, which the
        # pruned-state memo does not record: 18 of 19
        assert value["core.engine.memo_hit_share"] >= 0.9
    if workload == "adhoc_selective":
        assert value["core.engine.plan_cache.hit_rate"] <= 0.05
        assert value["core.engine.memo_hit_share"] <= 0.05
    if workload == "live_mixed":
        assert value["update.live.acked_lost"] == 0
        assert value["update.live.compaction.busy_s"] > 0
        assert value["client.update_p50_ms"] > 0
    if workload == "cold_open":
        assert value["client.open_first_answer_ms"] > 0
    # what the wrappers saw accounts for the program's own clock
    assert 0.85 <= value["trace.exec_coverage_share"] <= 1.0001
