"""BENCHMARK.json keeps to the driver's format, and the benchmark
refuses to run where the program is not."""

import os
import re
import shutil
import subprocess
import sys

from e2ebench import ROOT, run
from e2ebench.repeat import load_contract

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


_contract = load_contract


def test_keys_and_limits():
    contract = _contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 << 10
    assert contract["paths"] == ["e2ebench"]
    assert all(PATH.match(path) and not path.startswith("/")
               and ".." not in path for path in contract["paths"])
    command = contract["command"]
    assert 1 <= len(command) <= 32 and all(len(a) <= 200 for a in command)
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    runs = 4 + 22 * len(contract["workloads"])
    # every run, with its set-up, inside the driver's 3420 s
    assert runs * (contract["run_seconds"] + 13) <= 3420


def test_workloads_are_the_runners():
    workloads = _contract()["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [w["name"] for w in workloads] == list(run.WORKLOADS)
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_are_well_formed_and_named_once():
    contract = _contract()
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in contract["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "e2ebench"), tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    contract = _contract()
    environment = {key: value for key, value in os.environ.items()
                   if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable if contract["command"][0] == "python3"
         else contract["command"][0], *contract["command"][1:],
         "--workload", "cold_open", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=environment, stdin=subprocess.DEVNULL,
        capture_output=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == b""
    assert not os.path.exists(tmp_path / "e2ebench" / "out")
