"""Telemetry determinism contract: spans ride along, never perturb.

Four promises, each pinned:

* **Golden trace** — the two-node NetDIMM oneway scenario's Chrome
  trace is byte-identical to a recorded fixture
  (``tests/data/golden_trace_netdimm_oneway.json``).  Regenerate (only
  after an *intentional* instrumentation change) with
  ``python scripts/record_golden_trace.py``.
* **Zero overhead** — with a tracer attached, the kernel executes the
  exact same ``(time, seq, owner)`` event stream as without one, and
  the scenario result is byte-identical.
* **Serial/parallel identity** — ``run_traced`` with ``jobs=1`` and
  ``jobs=2`` produce byte-identical trace JSON.
* **Fault nesting** — under retransmission every segment/wire span
  nests (by time containment) inside exactly one attempt span, every
  attempt span inside the flow span, and retransmit counters appear.

Plus the paper tie-in: the trace's per-segment totals reconstruct the
analytical Fig. 5/Fig. 11 decomposition exactly.
"""

import json
import pathlib

from repro import api
from repro.experiments.oneway import measure_one_way
from repro.net.packet import FIG11_SEGMENTS
from repro.scenario.runner import run_traced
from repro.sim import Simulator
from repro.telemetry import SpanTracer, chrome_trace, dump_trace, segment_totals

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN_TRACE_PATH = DATA_DIR / "golden_trace_netdimm_oneway.json"


def oneway_spec(name="oneway-netdimm-256"):
    spec = api.ScenarioSpec.two_node("netdimm", 256)
    if spec.name != name:
        from dataclasses import replace

        spec = replace(spec, name=name)
    return spec


def traced_run(spec, faults=None):
    """Run one spec with a tracer attached; returns (result, payload)."""
    if faults is not None:
        from dataclasses import replace

        spec = replace(spec, faults=faults)
    tracer = SpanTracer()
    result = api.build_scenario(spec, tracer=tracer).run()
    return result, tracer.to_payload()


class TestGoldenTrace:
    def test_oneway_trace_matches_golden(self):
        spec = oneway_spec()
        _result, document = api.trace_scenario(spec)
        assert dump_trace(document) == GOLDEN_TRACE_PATH.read_text()

    def test_trace_is_repeatable(self):
        spec = oneway_spec()
        _r1, d1 = api.trace_scenario(spec)
        _r2, d2 = api.trace_scenario(spec)
        assert dump_trace(d1) == dump_trace(d2)


class TestZeroOverhead:
    def _event_stream(self, tracer):
        events = []
        scenario = api.build_scenario(oneway_spec(), tracer=tracer)
        scenario.sim._trace = (
            lambda when, seq, owner: events.append((when, seq, owner))
        )
        result = scenario.run()
        return events, result

    def test_event_stream_identical_with_tracer(self):
        bare_events, bare_result = self._event_stream(None)
        traced_events, traced_result = self._event_stream(SpanTracer())
        assert traced_events == bare_events
        assert traced_result.to_dict() == bare_result.to_dict()

    def test_untraced_simulator_has_no_tracer(self):
        assert Simulator().tracer is None
        assert api.build_scenario(oneway_spec()).sim.tracer is None


class TestSerialParallelIdentity:
    def _spec_files(self, tmp_path):
        paths = []
        for index, size in enumerate((256, 4096)):
            spec = api.ScenarioSpec.two_node("netdimm", size)
            path = tmp_path / f"spec{index}.json"
            spec.save(path)
            paths.append(str(path))
        return paths

    def test_run_traced_jobs_byte_identical(self, tmp_path):
        paths = self._spec_files(tmp_path)
        doc1, _reports1, trace1 = run_traced(paths, jobs=1)
        doc2, _reports2, trace2 = run_traced(paths, jobs=2)
        assert dump_trace(trace1) == dump_trace(trace2)
        assert api.dump_artifact(doc1) == api.dump_artifact(doc2)

    def test_traced_artifact_matches_untraced(self, tmp_path):
        paths = self._spec_files(tmp_path)
        traced_doc, _reports, _trace = run_traced(paths, jobs=1)
        plain_doc, _plain_reports = api.run_scenario_files(paths, jobs=1)
        assert api.dump_artifact(traced_doc) == api.dump_artifact(plain_doc)


class TestFigureParity:
    def test_trace_reconstructs_oneway_decomposition(self):
        result, payload = traced_run(oneway_spec())
        totals = segment_totals(payload, names=FIG11_SEGMENTS)
        oneway = measure_one_way("netdimm", 256)
        assert totals == dict(oneway.segments)
        # And the artifact's per-segment means are the same intervals.
        for segment, ticks in totals.items():
            assert result.segments_us[segment] == ticks / 1e6

    def test_flow_span_covers_end_to_end_latency(self):
        result, payload = traced_run(oneway_spec())
        flow_spans = [s for s in payload["spans"] if s[2] == "flow"]
        assert len(flow_spans) == 1
        _uid, _name, _cat, start, end, _args = flow_spans[0]
        label = next(iter(result.pairs))
        assert (end - start) / 1e6 == result.pairs[label]["mean"]


class TestFaultSpanNesting:
    def _chaos_payload(self):
        faults = api.FaultSpec(
            links=(api.LinkFaultSpec(link="*", drop_probability=0.5),),
            recovery=api.RecoverySpec(
                timeout_ns=20_000.0, backoff=2.0, max_retransmits=6
            ),
        )
        spec = api.ScenarioSpec.two_node("netdimm", 256, packets=8)
        return traced_run(spec, faults=faults)

    def test_attempts_nest_inside_flow_and_contain_segments(self):
        result, payload = self._chaos_payload()
        retransmits = sum(
            c["retransmits"] for c in result.recovery.values()
        )
        assert retransmits > 0, "chaos run produced no retransmits"
        spans = payload["spans"]
        by_uid = {}
        for span in spans:
            by_uid.setdefault(span[0], []).append(span)
        for uid, uid_spans in by_uid.items():
            flows = [s for s in uid_spans if s[2] == "flow"]
            attempts = [s for s in uid_spans if s[2] == "recovery"]
            assert len(flows) == 1
            assert attempts, f"uid {uid} has no attempt spans"
            _, _, _, flow_start, flow_end, _ = flows[0]
            for _, name, _, start, end, args in attempts:
                assert flow_start <= start <= end <= flow_end
                assert args["outcome"] in ("delivered", "timeout")
            # Every segment span sits inside exactly one attempt span.
            for _, name, category, start, end, _ in uid_spans:
                if category != "segment":
                    continue
                containers = [
                    a for a in attempts if a[3] <= start and end <= a[4]
                ]
                assert len(containers) == 1, (
                    f"uid {uid} segment {name} in {len(containers)} attempts"
                )

    def test_retransmit_counters_recorded(self):
        result, payload = self._chaos_payload()
        counter_names = [
            name for name in payload["counters"] if name.endswith(".retransmits")
        ]
        assert counter_names
        series = payload["counters"][counter_names[0]]
        values = [value for _when, value in series]
        assert values == sorted(values)  # monotone running count
        assert values[-1] == sum(
            c["retransmits"] for c in result.recovery.values()
        )

    def test_lost_packets_marked_on_flow_span(self):
        faults = api.FaultSpec(
            links=(api.LinkFaultSpec(link="*", drop_probability=1.0),),
            recovery=api.RecoverySpec(
                timeout_ns=20_000.0, backoff=2.0, max_retransmits=2
            ),
        )
        result, payload = traced_run(
            api.ScenarioSpec.two_node("netdimm", 256), faults=faults
        )
        assert result.packets_lost == 1
        flow = next(s for s in payload["spans"] if s[2] == "flow")
        assert flow[5] == {"lost": True}


class TestLossyDropVisibility:
    """A lossy switch eating a frame must still reach the tracer —
    otherwise Perfetto timelines undercount traffic under overflow."""

    def _drive_overloaded_switch(self, tracer):
        from repro.net.switch import Switch

        sim = Simulator()
        sim.tracer = tracer
        switch = Switch(sim, "sw0", queue_depth=1, drop_mode="lossy")
        outcomes = []

        def sender(uid):
            forwarded = yield from switch.forward(
                1024, "p0", tracer=tracer, uid=uid
            )
            outcomes.append((uid, forwarded))

        for uid in range(4):
            sim.spawn(sender(uid), name=f"s{uid}")
        sim.run()
        return switch, sorted(outcomes)

    def test_drops_recorded_as_counter_track_and_instants(self):
        tracer = SpanTracer()
        switch, outcomes = self._drive_overloaded_switch(tracer)
        dropped = [uid for uid, forwarded in outcomes if not forwarded]
        assert len(dropped) == 3
        assert switch.stats.get_counter("overflow_drops") == 3
        # Counter track: one cumulative sample per drop, at the drop tick.
        series = tracer.counters["sw0.p0.overflow_drops"]
        assert [value for _when, value in series] == [1, 2, 3]
        # Instant events: one per dropped frame, keyed on the packet uid.
        drop_instants = [
            (uid, name, category, when, args)
            for uid, name, category, when, args in tracer.instants
            if name == "sw0 drop"
        ]
        assert sorted(uid for uid, *_ in drop_instants) == dropped
        for _uid, _name, category, _when, args in drop_instants:
            assert category == "switch"
            assert args == {"port": "p0"}

    def test_drop_instants_reach_the_chrome_document(self):
        tracer = SpanTracer()
        self._drive_overloaded_switch(tracer)
        document = chrome_trace([("lossy", tracer.to_payload())])
        instant_events = [
            event for event in document["traceEvents"] if event.get("ph") == "i"
        ]
        assert len(instant_events) == 3
        assert all(event["name"] == "sw0 drop" for event in instant_events)

    def test_drop_path_event_stream_identical_with_tracer(self):
        untraced = self._drive_overloaded_switch(None)[1]
        traced = self._drive_overloaded_switch(SpanTracer())[1]
        assert traced == untraced


class TestChromeDocument:
    def test_metadata_and_units(self):
        spec = oneway_spec()
        _result, document = api.trace_scenario(spec)
        events = document["traceEvents"]
        process_names = [
            e for e in events if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert [e["args"]["name"] for e in process_names] == [spec.name]
        thread_names = [
            e for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert thread_names and thread_names[0]["tid"] == 1
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        for event in spans:
            assert event["dur"] >= 0
            assert event["ts"] >= 0

    def test_multi_scenario_pids_follow_input_order(self):
        payloads = []
        for size in (256, 4096):
            _result, payload = traced_run(
                api.ScenarioSpec.two_node("netdimm", size)
            )
            payloads.append((f"s{size}", payload))
        document = chrome_trace(payloads)
        names_by_pid = {
            e["pid"]: e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names_by_pid == {1: "s256", 2: "s4096"}

    def test_cli_trace_spec_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        spec_path = tmp_path / "spec.json"
        oneway_spec().save(spec_path)
        out_path = tmp_path / "trace.json"
        exit_code = cli_main(["trace", str(spec_path), "--out", str(out_path)])
        assert exit_code == 0
        assert "wrote trace:" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["otherData"]["generator"] == "repro.telemetry"
        _result, expected = api.trace_scenario(oneway_spec())
        assert out_path.read_text() == dump_trace(expected)
