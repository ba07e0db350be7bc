"""Tests of the benchmark itself, at a tiny input size.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", trace, "--tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    record = json.loads(done.stdout.strip().splitlines()[-2])["record"]
    assert record["machine"]["usable_cpus"] == len(os.sched_getaffinity(0))
    assert len(record["fingerprint"]["artifact_sha256"]) == 64


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tampered_reference_fails_every_operation(name):
    workload = workloads.WORKLOADS[name](5, 2, tiny=True)
    workload.setup()
    assert workload.iterate().failed == 0
    tampered = json.loads(json.dumps(workload.reference))
    tampered["tampered"] = True
    workload.reference = tampered
    sample = workload.iterate()
    assert sample.attempted >= 1
    assert sample.failed == sample.attempted


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    original = workloads.IncastSweep.run_inline

    def tampered_reference(self):
        document = original(self)
        first = next(iter(document["scenarios"].values()))
        first["result"]["packets_delivered"] += 1
        return document

    monkeypatch.setattr(workloads.IncastSweep, "run_inline", tampered_reference)
    code = run.main(
        ["--workload", "incast16_sweep", "--seconds", "0.1", "--tiny"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_same_seed_same_inputs_other_seed_other_inputs():
    first = workloads.ClosHybrid(11, 2, tiny=True).spec
    assert workloads.ClosHybrid(11, 2, tiny=True).spec == first
    assert workloads.ClosHybrid(12, 2, tiny=True).spec.seed != first.seed
    sweep = workloads.IncastSweep(11, 2, tiny=True).specs
    assert len({spec.seed for spec in sweep}) == len(sweep)
    assert workloads.CalibPool(11, 2).base_seed != workloads.CalibPool(12, 2).base_seed


def test_without_the_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(
        "--workload", "clos1000_hybrid", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_charges_foreign_calls_to_the_calling_package():
    from probes import REPRO_DIR, fold_self_times

    net = (os.path.join(REPRO_DIR, "net", "fabric.py"), 1, "route_paths")
    sim = (os.path.join(REPRO_DIR, "sim", "engine.py"), 1, "run")
    helper = ("site-packages/networkx/algorithms.py", 1, "bfs")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    stats = {
        net: (1, 1, 0.5, 3.5, {}),
        sim: (1, 1, 0.25, 1.25, {}),
        # bfs is called only by sorted, which net and sim both call.
        builtin: (2, 2, 1.0, 4.0, {net: (1, 1, 0.75, 3.0), sim: (1, 1, 0.25, 1.0)}),
        helper: (1, 1, 2.0, 2.0, {builtin: (1, 1, 2.0, 2.0)}),
    }
    folded = fold_self_times(stats)
    assert folded["net"] == pytest.approx(0.5 + 0.75 + 2.0 * 3.0 / 4.0)
    assert folded["sim"] == pytest.approx(0.25 + 0.25 + 2.0 * 1.0 / 4.0)
    assert sum(folded.values()) == pytest.approx(0.5 + 0.25 + 1.0 + 2.0)
