"""Experiment P2 — translation and deployment cost vs dataflow size.

Demo part P2 shows "translation in the DSN/SCN language and deployment at
network level".  This benchmark measures both steps — dataflow -> DSN text
(validate + generate + render) and DSN -> running processes (discovery +
placement + QoS admission + wiring) — as the dataflow grows.

Expected shape: both costs grow roughly linearly with the number of
canvas nodes; deployment dominates translation (it touches the network
and the pub-sub layer); both remain interactive (milliseconds) at
realistic canvas sizes, consistent with a demo driven from a web GUI.
"""

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import FilterSpec, VirtualPropertySpec
from repro.dsn.generate import dataflow_to_dsn
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack

SIZES = [1, 4, 16]


def wide_flow(width: int) -> Dataflow:
    """``width`` independent source -> filter -> enrich -> sink chains."""
    flow = Dataflow(f"wide-{width}")
    sensor_ids = ["osaka-temp-umeda", "osaka-temp-namba",
                  "osaka-temp-tennoji", "osaka-temp-yodogawa"]
    for index in range(width):
        src = flow.add_source(
            SubscriptionFilter(sensor_ids=(sensor_ids[index % 4],)),
            node_id=f"src-{index}",
        )
        filt = flow.add_operator(FilterSpec("temperature > 20"),
                                 node_id=f"filter-{index}")
        enrich = flow.add_operator(
            VirtualPropertySpec(f"flag_{index}", "temperature > 28"),
            node_id=f"enrich-{index}",
        )
        out = flow.add_sink("collector", node_id=f"out-{index}")
        flow.connect(src, filt)
        flow.connect(filt, enrich)
        flow.connect(enrich, out)
    return flow


@pytest.mark.benchmark(group="p2-translate")
@pytest.mark.parametrize("width", SIZES)
def test_translation_cost(benchmark, width):
    stack = build_stack()
    flow = wide_flow(width)
    program = benchmark(
        lambda: dataflow_to_dsn(flow, stack.broker_network.registry)
    )
    benchmark.extra_info["canvas_nodes"] = 4 * width
    benchmark.extra_info["dsn_lines"] = program.render().count("\n")
    assert len(program.services) == 4 * width


@pytest.mark.benchmark(group="p2-deploy")
@pytest.mark.parametrize("width", SIZES)
def test_deployment_cost(benchmark, width):
    def deploy_once():
        stack = build_stack()
        deployment = stack.executor.deploy(wide_flow(width))
        deployment.teardown()
        return deployment

    deployment = benchmark.pedantic(deploy_once, rounds=3, iterations=1)
    benchmark.extra_info["canvas_nodes"] = 4 * width
    benchmark.extra_info["processes"] = len(deployment.processes)
    # Filter and enrich are fused: one process per chain plus its sink.
    assert len(deployment.processes) == len(deployment.plan.units) == 2 * width
