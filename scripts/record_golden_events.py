"""Regenerate the kernel determinism goldens in ``tests/data/``.

Only run this after an *intentional* event-order change: the goldens
pin the kernel's ``(time, seq, owner)`` execution order, and rewriting
them silently would defeat the determinism tests in
``tests/test_sim_determinism.py``.

Three artifacts are produced:

* ``golden_event_order.json`` — the traced event stream of the mixed
  kernel workload, recorded through ``Simulator(trace=...)``.
* ``golden_scenario_streams.json`` — per scenario (every NIC kind's
  two-node one-way run, ``examples/incast_mixed.json``,
  ``examples/background_load.json``, a faulted two-node run, a
  four-host clos incast at three seeds) the event count, final clock and
  sha256 of the executed ``(time, seq)`` stream, owners excluded (see
  ``tests/test_scenario_streams.py``).
* ``fig5_baseline.json`` — the fig5 experiment artifact (takes a few
  seconds; skip with ``--no-fig5`` when only the kernel or scenario
  goldens moved).

Usage::

    PYTHONPATH=src python scripts/record_golden_events.py [--no-fig5]
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

DATA_DIR = REPO_ROOT / "tests" / "data"


def record_golden_event_order() -> pathlib.Path:
    from tests.test_sim_determinism import record_stream

    events, final_now, fired = record_stream()
    document = {
        "schema": "netdimm-repro/golden-event-order",
        "schema_version": 1,
        "kernel": "ring + single-hop resume kernel",
        "final_now": final_now,
        "events_fired": fired,
        "events": events,
    }
    out = DATA_DIR / "golden_event_order.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=None) + "\n")
    print(f"wrote {len(events)} events, final_now={final_now} -> {out}")
    return out


def record_golden_scenario_streams() -> pathlib.Path:
    from tests.test_scenario_streams import GOLDEN_PATH, record_all

    document = {
        "schema": "netdimm-repro/golden-scenario-streams",
        "schema_version": 1,
        "streams": record_all(),
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(document['streams'])} scenario streams -> {GOLDEN_PATH}")
    return GOLDEN_PATH


def record_fig5_baseline() -> pathlib.Path:
    from repro.experiments import harness

    from repro.runtime import SweepConfig

    run = harness.run_experiments(["fig5"], config=SweepConfig())
    out = DATA_DIR / "fig5_baseline.json"
    run.write_artifact(str(out))
    print(f"wrote fig5 artifact -> {out}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-fig5",
        action="store_true",
        help="skip the (slow) fig5 baseline regeneration",
    )
    args = parser.parse_args(argv)
    record_golden_event_order()
    record_golden_scenario_streams()
    if not args.no_fig5:
        record_fig5_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
