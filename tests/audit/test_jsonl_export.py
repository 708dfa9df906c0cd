"""JSONL exporter: the flight recorder's ring as typed rows, byte-stable."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.audit import arm, export_run, load_rows
from repro.net.monitor import QueueMonitor
from repro.net.network import GatewayFactory, Network
from repro.sim.engine import Simulator
from repro.tcp.flow import TcpFlow
from repro.units import ms, pps_to_bps


def _armed_run():
    """A TCP flow through a 20-packet drop-tail bottleneck, armed, stopped
    at its first drop so that drop is still in the recorder's ring."""
    sim = Simulator(seed=42)
    net = Network(sim, default_queue=GatewayFactory("droptail", sim, 20))
    net.add_link("A", "B", pps_to_bps(200), ms(50))
    net.build_routes()
    auditor = arm(sim, net)
    gateway = net.links[("A", "B")].gateway
    monitor = QueueMonitor(sim, gateway)
    gateway.on_drop(lambda now, packet, reason: sim.stop())
    TcpFlow(sim, net, "tcp-0", "A", "B").start()
    sim.run(until=60.0)
    auditor.verify()
    auditor.disarm()
    return auditor, monitor


def export_seeded_run(path):
    """Everything about the armed run, written to ``path``."""
    auditor, monitor = _armed_run()
    rows_written = export_run(
        path, meta={"experiment": "unit", "seed": 42},
        recorder=auditor.recorder, monitors={"A->B": monitor}, auditor=auditor)
    return rows_written, monitor


def test_export_writes_typed_rows(tmp_path):
    out = tmp_path / "run.jsonl"
    rows_written, _monitor = export_seeded_run(out)
    rows = load_rows(out)
    assert len(rows) == rows_written
    assert rows[0] == {"type": "meta", "experiment": "unit", "seed": 42}
    assert {row["type"] for row in rows} == {
        "meta", "trace", "queue_summary",
        "flow_conservation", "link_conservation"}
    trace = load_rows(out, type_filter="trace")
    assert {row["category"] for row in trace} == {
        "enqueue", "drop", "deliver", "consume", "event"}
    (drop,) = [row for row in trace if row["category"] == "drop"]
    assert (drop["link"], drop["flow"], drop["reason"]) == (
        "A->B", "tcp-0", "overflow")  # net.queue's name for a full buffer


def test_flow_conservation_rows_balance(tmp_path):
    auditor, _monitor = _armed_run()
    out = tmp_path / "run.jsonl"
    export_run(out, auditor=auditor)
    (flow_row,) = load_rows(out, type_filter="flow_conservation")
    assert flow_row["flow"] == "tcp-0"
    assert flow_row["injected"] == (
        flow_row["delivered"] + flow_row["sunk"] + flow_row["replicated"]
        + flow_row["dropped"] + flow_row["in_flight"]
    )
    link_rows = load_rows(out, type_filter="link_conservation")
    assert {row["link"] for row in link_rows} == {"A->B", "B->A"}
    for row in link_rows:
        assert row["accepted"] == row["dequeued"] + row["in_queue"]


def test_queue_depth_series_is_monotone_in_time(tmp_path):
    # the depth series is the ``depth`` of the recorder's enqueue records
    out = tmp_path / "run.jsonl"
    _rows_written, monitor = export_seeded_run(out)
    depth_rows = [row for row in load_rows(out, type_filter="trace")
                  if row["category"] == "enqueue" and row["link"] == "A->B"]
    times = [row["t"] for row in depth_rows]
    assert times and times == sorted(times)
    (summary,) = load_rows(out, type_filter="queue_summary")
    assert summary == {
        "type": "queue_summary", "link": "A->B",
        "mean_depth": monitor.mean_depth(), "max_depth": monitor.max_depth,
        "total_drops": monitor.total_drops, "loss_rate": monitor.loss_rate()}
    assert summary["max_depth"] == max(row["depth"] for row in depth_rows) == 20


def test_export_is_deterministic_and_one_object_per_line(tmp_path):
    # two fresh interpreters, so neither hash seeds nor import order leak in
    here = Path(__file__).resolve()
    env = {**os.environ, "PYTHONPATH": str(here.parents[2] / "src")}
    child = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import test_jsonl_export as t; t.export_seeded_run(sys.argv[2])")
    outs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for out in outs:
        subprocess.run([sys.executable, "-c", child, str(here.parent), str(out)],
                       env=env, check=True, timeout=120)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    lines = outs[0].read_text().splitlines()
    assert len(lines) > 256  # the whole ring, then summaries and ledgers
    for line in lines:
        json.loads(line)  # every line is standalone JSON
