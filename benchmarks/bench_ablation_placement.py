"""Ablation A1 — what in-network, event-driven ETL buys.

Three configurations run the same logical workload (per-station filtering
of temperature streams in a cool regime, where the filter passes almost
nothing):

1. **streamloader** — workload/distance-aware SCN placement: filters run
   on the edge nodes that manage their sensors;
2. **centralized** — the identical runtime with every operator pinned to
   the hub (collect-then-filter);
3. **batch** — the offline baseline: raw collection at the hub for the
   whole period, ETL at batch close.

Metrics: bytes moved across network links, and data staleness (how old a
reading is when it becomes available to analysis).

Expected shape: streamloader << centralized ≈ batch on link bytes (raw
streams never leave their edge); batch >> both on staleness (half the
batch period vs sub-second).
"""

import pytest

from repro.baselines.batch_etl import BatchEtlPipeline
from repro.baselines.centralized import CentralizedScnController
from repro.dataflow.ops import FilterSpec
from repro.dsn.ast import DsnProgram
from repro.network.topology import Topology
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack

HOURS = 6.0


def per_station_flow(stack) -> DsnProgram:
    flow = DsnProgram("per-station")
    for index, metadata in enumerate(
        stack.broker_network.registry.by_type("temperature")
    ):
        src = flow.add_source(
            SubscriptionFilter(sensor_ids=(metadata.sensor_id,)),
            node_id=f"src-{index}",
        )
        hot = flow.add_operator(FilterSpec("temperature > 24"),
                                node_id=f"hot-{index}")
        out = flow.add_sink("collector", node_id=f"out-{index}")
        flow.connect(src, hot)
        flow.connect(hot, out)
    return flow


def run_streamloader():
    stack = build_stack(topology=Topology.star(leaf_count=3), hot=False)
    stack.executor.deploy(per_station_flow(stack))
    stack.run_until(HOURS * 3600.0)
    return stack.netsim.total_link_bytes(), 1.0  # staleness ~ delivery delay


def run_centralized():
    topo = Topology.star(leaf_count=3)
    stack = build_stack(topology=topo,
                        scn=CentralizedScnController(topo, "hub"), hot=False)
    stack.executor.deploy(per_station_flow(stack))
    stack.run_until(HOURS * 3600.0)
    return stack.netsim.total_link_bytes(), 1.0


def run_batch():
    stack = build_stack(topology=Topology.star(leaf_count=3), hot=False)
    flow = DsnProgram("batch")
    src = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                          node_id="src")
    hot = flow.add_operator(FilterSpec("temperature > 24"), node_id="hot")
    dw = flow.add_sink("warehouse", node_id="dw")
    flow.connect(src, hot)
    flow.connect(hot, dw)
    pipeline = BatchEtlPipeline(stack.netsim, stack.broker_network, flow,
                                collection_node="hub",
                                warehouse=stack.warehouse)
    pipeline.start_collection()
    stack.run_until(HOURS * 3600.0)
    report = pipeline.close_batch()
    return report.link_bytes, report.mean_staleness


@pytest.mark.benchmark(group="ablation-placement")
def test_streamloader_in_network(benchmark):
    link_bytes, staleness = benchmark.pedantic(run_streamloader, rounds=1,
                                               iterations=1)
    benchmark.extra_info.update(
        {"link_bytes": link_bytes, "mean_staleness_s": staleness}
    )


@pytest.mark.benchmark(group="ablation-placement")
def test_centralized_streaming(benchmark):
    link_bytes, staleness = benchmark.pedantic(run_centralized, rounds=1,
                                               iterations=1)
    benchmark.extra_info.update(
        {"link_bytes": link_bytes, "mean_staleness_s": staleness}
    )


@pytest.mark.benchmark(group="ablation-placement")
def test_batch_offline(benchmark):
    link_bytes, staleness = benchmark.pedantic(run_batch, rounds=1,
                                               iterations=1)
    benchmark.extra_info.update(
        {"link_bytes": link_bytes, "mean_staleness_s": staleness}
    )


def test_placement_comparison_rows(capsys):
    sl_bytes, sl_stale = run_streamloader()
    ct_bytes, ct_stale = run_centralized()
    bt_bytes, bt_stale = run_batch()
    with capsys.disabled():
        print(f"\n== Ablation A1: in-network vs centralized vs batch "
              f"({HOURS:.0f} virtual hours, cool regime) ==")
        print(f"  {'configuration':16s} {'link bytes':>12s} {'staleness':>12s}")
        print(f"  {'streamloader':16s} {sl_bytes:>12.0f} {sl_stale:>10.1f} s")
        print(f"  {'centralized':16s} {ct_bytes:>12.0f} {ct_stale:>10.1f} s")
        print(f"  {'batch':16s} {bt_bytes:>12.0f} {bt_stale:>10.1f} s")
        if sl_bytes > 0:
            print(f"  in-network saves {1 - sl_bytes / ct_bytes:.0%} of "
                  f"centralized traffic")
    # The paper's implicit claims, as assertions.
    assert sl_bytes < 0.5 * ct_bytes
    assert bt_stale > 1000.0          # hours-scale staleness for batch
