"""Experiment P2 — translation and deployment cost vs dataflow size.

Demo part P2 shows "translation in the DSN/SCN language and deployment at
network level".  This benchmark measures both steps — canvas -> DSN text
(check + render) and DSN -> running processes (discovery + placement +
QoS admission + wiring) — as the dataflow grows.

Expected shape: both costs grow roughly linearly with the number of
canvas nodes; deployment dominates translation (it touches the network
and the pub-sub layer); both remain interactive (milliseconds) at
realistic canvas sizes, consistent with a demo driven from a web GUI.
"""

import pytest

from repro.dataflow.ops import FilterSpec, VirtualPropertySpec
from repro.dsn.ast import DsnProgram
from repro.dsn.check import check
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack

SIZES = [1, 4, 16]


def wide_flow(width: int) -> DsnProgram:
    """``width`` independent source -> filter -> enrich -> sink chains."""
    flow = DsnProgram(f"wide-{width}")
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
    registry = build_stack().broker_network.registry
    program = wide_flow(width)

    def translate():
        check(program, registry).raise_if_invalid()
        return program.render()

    text = benchmark(translate)
    benchmark.extra_info["canvas_nodes"] = 4 * width
    benchmark.extra_info["dsn_lines"] = text.count("\n")
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
