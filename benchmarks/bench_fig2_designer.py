"""Experiment F2 — Figure 2: the designer and its consistency checks.

Figure 2 is the canvas: what makes it more than a drawing tool is that
"the user interface provides different checks in order to draw only
dataflows that can be soundly translated".  This benchmark measures the
cost of the consistency check (schema propagation + condition type
checking + structural checks) over the lowered canvas as canvases grow,
and regenerates the accept/reject matrix over a catalogue of
representative good and broken canvases, checked both as lowered and as
DSN text re-parsed.

Expected shape: check cost grows roughly linearly in canvas size; every
broken canvas is rejected with an issue anchored to the offending node,
the same verdict and anchor for its DSN text; every sound canvas is
accepted.
"""

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import (
    AggregationSpec,
    FilterSpec,
    JoinSpec,
    TriggerOnSpec,
    VirtualPropertySpec,
)
from repro.dsn.check import check
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.parse import parse_dsn
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.subscription import SubscriptionFilter
from repro.sensors.osaka import osaka_fleet


def registry():
    net = BrokerNetwork()
    for sensor in osaka_fleet(Topology.star(leaf_count=3), extended=True):
        net.publish(sensor.metadata)
    return net.registry


def chain_canvas(length: int) -> Dataflow:
    """A source -> N alternating operators -> sink chain."""
    flow = Dataflow(f"chain-{length}")
    previous = flow.add_source(
        SubscriptionFilter(sensor_ids=("osaka-temp-umeda",)), node_id="src"
    )
    for index in range(length):
        if index % 3 == 0:
            spec = FilterSpec("temperature > -100")
        elif index % 3 == 1:
            spec = VirtualPropertySpec(f"v{index}", "temperature * 2")
        else:
            spec = FilterSpec(f"v{index - 1} > -1000")
        node = flow.add_operator(spec, node_id=f"op-{index}")
        flow.connect(previous, node)
        previous = node
    sink = flow.add_sink(node_id="out")
    flow.connect(previous, sink)
    return flow


@pytest.mark.benchmark(group="fig2-validation")
@pytest.mark.parametrize("length", [2, 8, 32])
def test_validation_cost_vs_canvas_size(benchmark, length):
    reg = registry()
    program = dataflow_to_dsn(chain_canvas(length), reg)
    report = benchmark(lambda: check(program, reg))
    benchmark.extra_info["canvas_operators"] = length
    assert report.is_valid


def _canvas_catalogue(reg):
    """(name, flow, should_be_valid) canvases for the accept/reject matrix."""
    catalogue = []

    def sound_linear():
        flow = Dataflow("sound-linear")
        src = flow.add_source(
            SubscriptionFilter(sensor_ids=("osaka-temp-umeda",)), node_id="s"
        )
        op = flow.add_operator(FilterSpec("temperature > 24"), node_id="f")
        sink = flow.add_sink(node_id="k")
        flow.connect(src, op)
        flow.connect(op, sink)
        return flow

    def sound_join():
        flow = Dataflow("sound-join")
        a = flow.add_source(
            SubscriptionFilter(sensor_ids=("osaka-temp-umeda",)), node_id="a"
        )
        b = flow.add_source(
            SubscriptionFilter(sensor_ids=("osaka-humidity-umeda",)),
            node_id="b",
        )
        join = flow.add_operator(
            JoinSpec(interval=60.0, predicate="true"), node_id="j"
        )
        sink = flow.add_sink(node_id="k")
        flow.connect(a, join, port=0)
        flow.connect(b, join, port=1)
        flow.connect(join, sink)
        return flow

    def sound_trigger():
        flow = Dataflow("sound-trigger")
        temp = flow.add_source(
            SubscriptionFilter(sensor_ids=("osaka-temp-umeda",)), node_id="t"
        )
        rain = flow.add_source(
            SubscriptionFilter(sensor_ids=("osaka-rain-umeda",)),
            node_id="r", initially_active=False,
        )
        trig = flow.add_operator(
            TriggerOnSpec(interval=300.0, condition="avg_temperature > 25",
                          targets=("osaka-rain-umeda",)),
            node_id="trig",
        )
        sink = flow.add_sink(node_id="k")
        flow.connect(temp, trig)
        flow.connect(rain, sink)
        flow.connect_control(trig, rain)
        return flow

    def bad_attribute():
        flow = sound_linear()
        flow.replace_operator("f", FilterSpec("rainfall > 3"))
        return flow

    def bad_types():
        flow = sound_linear()
        flow.replace_operator("f", FilterSpec("station > 3"))
        return flow

    def bad_dangling_port():
        flow = sound_join()
        flow.disconnect("b", "j", port=1)
        return flow

    def bad_no_sensor():
        flow = Dataflow("bad-no-sensor")
        src = flow.add_source(SubscriptionFilter(sensor_ids=("ghost",)),
                              node_id="s")
        sink = flow.add_sink(node_id="k")
        flow.connect(src, sink)
        return flow

    def bad_uncontrolled_trigger():
        flow = sound_trigger()
        flow.control_edges.clear()
        return flow

    def bad_aggregate_text():
        flow = sound_linear()
        flow.replace_operator(
            "f",
            AggregationSpec(interval=60.0, attributes=("station",),
                            function="SUM"),
        )
        return flow

    catalogue.append(("sound linear", sound_linear(), True))
    catalogue.append(("sound join", sound_join(), True))
    catalogue.append(("sound trigger", sound_trigger(), True))
    catalogue.append(("unknown attribute", bad_attribute(), False))
    catalogue.append(("string compared to int", bad_types(), False))
    catalogue.append(("dangling join port", bad_dangling_port(), False))
    catalogue.append(("filter matches no sensor", bad_no_sensor(), False))
    catalogue.append(("trigger without control edge",
                      bad_uncontrolled_trigger(), False))
    catalogue.append(("SUM over string attribute", bad_aggregate_text(), False))
    return catalogue


def _verdict(program, reg) -> "tuple[bool, str]":
    report = check(program, reg)
    return report.is_valid, report.errors[0].node_id if report.errors else "-"


def test_accept_reject_matrix(capsys):
    """The canvas as lowered and as its DSN text get one verdict."""
    reg = registry()
    rows = []
    for name, flow, expected in _canvas_catalogue(reg):
        program = dataflow_to_dsn(flow, reg)
        verdict, anchor = _verdict(program, reg)
        text = _verdict(parse_dsn(program.render()), reg)
        rows.append((name, expected, verdict, anchor, text))
        assert verdict == expected, name
        assert text == (verdict, anchor), name
    with capsys.disabled():
        print("\n== Figure 2: consistency-check accept/reject matrix ==")
        print(f"  {'canvas':32s} {'expected':9s} {'verdict':9s} "
              f"{'anchored-at':12s} dsn-text")
        for name, expected, verdict, anchor, text in rows:
            word = "accept" if verdict else "reject"
            want = "accept" if expected else "reject"
            same = "same" if text == (verdict, anchor) else "DIFFERS"
            print(f"  {name:32s} {want:9s} {word:9s} {anchor:12s} {same}")


@pytest.mark.benchmark(group="fig2-validation")
def test_catalogue_validation_throughput(benchmark):
    reg = registry()
    programs = [dataflow_to_dsn(flow, reg)
                for _name, flow, _ok in _canvas_catalogue(reg)]

    def validate_all():
        return [check(program, reg) for program in programs]

    reports = benchmark(validate_all)
    benchmark.extra_info["canvases"] = len(programs)
    assert sum(1 for r in reports if r.is_valid) == 3
