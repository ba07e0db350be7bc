"""The ``repro.api`` facade: five verbs, lazy top-level re-exports, and
deprecation shims at every old convenience path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import api


@pytest.fixture(scope="module")
def spec():
    return api.load_spec(
        {
            "name": "api-twonode",
            "seed": 3,
            "nodes": [
                {"name": "tx", "nic_kind": "dnic"},
                {"name": "rx", "nic_kind": "netdimm"},
            ],
            "fabric": {"kind": "direct"},
            "traffic": [
                {
                    "kind": "oneway",
                    "src": ["tx"],
                    "dst": "rx",
                    "packets": 4,
                    "size_bytes": 256,
                    "label": "oneway",
                }
            ],
        }
    )


class TestFacadeVerbs:
    def test_load_spec_from_mapping_and_file(self, spec, tmp_path):
        path = tmp_path / "spec.json"
        spec.save(path)
        assert api.load_spec(str(path)) == spec

    def test_simulate_and_format_report(self, spec):
        result = api.simulate(spec)
        assert result.packets_delivered == 4
        assert "scenario api-twonode" in api.format_report(result)

    def test_simulate_with_fault_overlay(self, spec):
        faults = api.FaultSpec(
            links=(api.LinkFaultSpec(drop_probability=0.5),),
            recovery=api.RecoverySpec(timeout_ns=20_000.0),
        )
        result = api.simulate(spec, faults=faults)
        counters = result.recovery["oneway"]
        assert counters["delivered"] + counters["lost"] == 4

    def test_run_experiment_and_diff(self):
        run = api.run_experiment(["table1"])
        artifact = run.to_artifact()
        assert "Table 1" in api.format_report(run)
        diff = api.diff_artifacts(artifact, artifact)
        assert not diff.has_regressions

    def test_format_report_rejects_other_types(self):
        with pytest.raises(TypeError, match="expected ScenarioResult"):
            api.format_report({"not": "a result"})


class TestJobVerbs:
    def test_submit_experiments_by_name(self):
        job = api.submit("table1")
        assert job.status()["state"] == "pending"
        document = job.result()
        assert document["run"]["experiments"] == ["table1"]
        assert job.status()["state"] == "done"

    def test_submit_scenario_specs(self, spec, tmp_path):
        path = tmp_path / "spec.json"
        spec.save(path)
        document = api.submit(str(path)).result()
        assert document["scenarios"]["api-twonode"]["result"]

    def test_submit_scenario_objects_with_faults(self, spec):
        faults = api.FaultSpec(
            links=(api.LinkFaultSpec(drop_probability=0.5),),
            recovery=api.RecoverySpec(timeout_ns=20_000.0),
        )
        document = api.submit(spec, faults=faults).result()
        result = document["scenarios"]["api-twonode"]["result"]
        counters = result["recovery"]["oneway"]
        assert counters["delivered"] + counters["lost"] == 4

    def test_submit_rejects_mixtures_and_typos(self, spec):
        with pytest.raises(ValueError, match="not a mixture"):
            api.submit([spec, 123])
        with pytest.raises(ValueError, match="fig99"):
            api.submit("fig99")
        with pytest.raises(ValueError, match="scenario"):
            api.submit("table1", chaos=True)

    def test_collect_gathers_in_order(self, spec):
        documents = api.collect([api.submit("table1"), api.submit(spec)])
        assert documents[0]["run"]["experiments"] == ["table1"]
        assert "api-twonode" in documents[1]["scenarios"]

    def test_submit_artifact_writes_manifest_sidecar(self, tmp_path):
        path = tmp_path / "artifact.json"
        api.submit("table1").artifact(str(path))
        manifest = json.loads((tmp_path / "artifact.json.manifest.json").read_text())
        assert manifest["run"]["status"] == "complete"
        assert manifest["job"]["kind"] == "experiment"

    def test_resume_completes_a_checkpointed_submit(self, tmp_path):
        run_dir = str(tmp_path / "run")
        job = api.submit("table1", run_dir=run_dir)
        job.run()
        resumed = api.resume(run_dir)
        assert resumed.result() == job.result()

    def test_run_experiment_without_jobs_does_not_warn(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", DeprecationWarning)
            run = api.run_experiment(["table1"])
        assert "table1" in run.records


class TestTopLevelExports:
    def test_lazy_api_attribute(self):
        assert repro.api is api
        assert repro.simulate is api.simulate
        assert repro.load_spec is api.load_spec
        assert repro.run_experiment is api.run_experiment
        assert repro.diff_artifacts is api.diff_artifacts
        assert repro.format_report is api.format_report

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.warp_drive

    def test_import_pulls_in_no_third_party_numerics(self):
        """The package runs on the standard library alone: importing the
        facade (and with it the clos fabric) loads neither networkx nor
        numpy."""
        src = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            "import sys, repro.api, repro.net; "
            "print(sorted({'networkx', 'numpy'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "[]"
