"""Self-tests of the benchmark harness on tiny configurations.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json

import pytest

import harness
from tracer import Tracer, summarize

K, T = 5, 2
SETTLE_HEADER = harness.SPEC["workloads"]["settle-bus"]["header"]
TINY_BUS = harness.Workload("tiny-bus", ("settle", "--horizon", str(T), "--scenarios", str(K)),
                            "settlement.csv", SETTLE_HEADER, 1, K, T, 3, "")
TINY_FEEDER = harness.Workload(
    "tiny-feeder", ("settle", "--horizon", str(T), "--scenarios", str(K), "--line-limit", "80",
                    "--load-mean", "150,75,45"),
    "settlement.csv", SETTLE_HEADER, 1, K, T, 3, "")
OTHER_SEED = harness.REFERENCE_SEED + 1


def traced_run(workload, out_dir):
    main = harness.import_cli().main
    tracer = Tracer("gridclear")
    run_id = tracer.new_run()
    tracer.install()
    try:
        rep = harness.run_in_process(main, workload.args(OTHER_SEED, out_dir),
                                     out_dir / workload.csv, tracer)
    finally:
        tracer.remove()
    assert rep.error is None
    return rep, summarize(tracer.spans, run_id)


def test_bus_run_commits_each_scenario_hour_and_never_dispatches_the_feeder(tmp_path):
    _, summary = traced_run(TINY_BUS, tmp_path)
    assert summary["names"]["merit_order.commit"]["calls"] == K * T + T
    assert "congestion.dispatch_radial" not in summary["names"]


def test_feeder_run_dispatches_each_scenario_hour_and_never_commits(tmp_path):
    _, summary = traced_run(TINY_FEEDER, tmp_path)
    assert summary["names"]["congestion.dispatch_radial"]["calls"] == K * T + T
    assert "merit_order.commit" not in summary["names"]


@pytest.mark.parametrize("workload", [TINY_BUS, TINY_FEEDER], ids=lambda w: w.name)
def test_self_times_sum_to_no_more_than_the_wall_time(workload, tmp_path):
    rep, summary = traced_run(workload, tmp_path)
    total_self = sum(m["self_ns"] for m in summary["modules"].values())
    assert 0 < total_self <= summary["wall_ns"] <= rep.seconds * 1e9
    for module in summary["modules"].values():
        assert 0 <= module["self_ns"] <= module["busy_ns"]


def test_tracing_changes_no_csv_byte_and_restores_every_binding(tmp_path):
    import gridclear.experiment as experiment
    import gridclear.merit_order as merit_order

    main = harness.import_cli().main
    plain = harness.run_in_process(main, TINY_BUS.args(OTHER_SEED, tmp_path),
                                   tmp_path / TINY_BUS.csv)
    traced, _ = traced_run(TINY_BUS, tmp_path)
    assert plain.error is None and traced.data == plain.data
    assert experiment.commit is merit_order.commit


def test_digest_gate_rejects_a_csv_with_one_byte_flipped(tmp_path):
    main = harness.import_cli().main
    data = harness.run_in_process(main, TINY_BUS.args(OTHER_SEED, tmp_path),
                                  tmp_path / TINY_BUS.csv).data
    flipped = bytearray(data)
    flipped[-2] ^= 0x01

    recorded = harness.Workload(**{**TINY_BUS.__dict__, "reference_sha256": harness.sha256(data)})
    gate = harness.OutputGate(recorded, harness.REFERENCE_SEED)
    assert gate.check(data) is None
    assert "differs from recorded" in gate.check(bytes(flipped))

    unrecorded = harness.OutputGate(TINY_BUS, OTHER_SEED)
    assert unrecorded.check(data) is None
    assert "differs from first repetition" in unrecorded.check(bytes(flipped))
    assert unrecorded.check(None) == "no CSV written"


def test_printed_metrics_are_the_ones_benchmark_json_declares(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

    e2e = harness.measure_end_to_end(TINY_BUS, OTHER_SEED, seconds=0)
    assert not e2e["tally"].failures
    assert list(e2e["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        value, unit = e2e["metrics"][m["name"]]
        assert unit == m["unit"] and value > 0

    layers = harness.measure_layers(TINY_FEEDER, OTHER_SEED, seconds=0)
    assert not layers["tally"].failures and not layers["problems"]
    assert sorted(layers["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert layers["metrics"][m["name"]][1] == m["unit"]
    assert layers["metrics"]["redispatch.calls_per_scenario_hour"][0] == (K * T + T) / (K * T)
    assert layers["metrics"]["scenarios.bytes_out"][0] == (2 * 3 * T * K + K) * 8
    assert (tmp_path / "spans-tiny-feeder.csv").is_file()
