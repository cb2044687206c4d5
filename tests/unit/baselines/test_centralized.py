"""Unit tests for the centralized streaming baseline."""

import pytest

from repro.baselines.centralized import CentralizedScnController
from repro.dataflow.ops import FilterSpec
from repro.dsn.ast import DsnProgram
from repro.errors import UnknownNodeError
from repro.network.topology import Topology
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack, sharded_aggregation_flow
from tests.builders import pipeline


def flow():
    return pipeline("central", ("hot", FilterSpec("temperature > 24")))


def central_stack(**options):
    """The stack on a 3-leaf star whose controller places all on the hub."""
    topo = Topology.star(leaf_count=3)
    return build_stack(topology=topo, scn=CentralizedScnController(topo, "hub"),
                       **options)

class TestCentralizedController:
    def test_everything_on_center(self):
        stack = central_stack()
        deployment = stack.executor.deploy(flow())
        for name in ("hot", "out"):
            assert deployment.process(name).node_id == "hub"

    def test_unknown_center_raises(self):
        topo = Topology.star(leaf_count=2)
        with pytest.raises(UnknownNodeError):
            CentralizedScnController(topo, "ghost")

    def test_never_migrates(self):
        topo = Topology.star(leaf_count=2)
        stack = build_stack(
            topology=topo, scn=CentralizedScnController(topo, "hub"),
            rebalance_interval=120.0,
        )
        deployment = stack.executor.deploy(flow())
        stack.topology.node("hub").register_process("hog", demand=1e6)
        stack.run_until(3600.0)
        assert stack.executor.monitor.records("reassigned") == []
        assert deployment.process("hot").node_id == "hub"

    def test_shards_placed_on_center(self):
        stack = central_stack()
        deployment = stack.executor.deploy(sharded_aggregation_flow(stack),
                                           shards=2)
        assert set(deployment.assignments().values()) == {"hub"}

    def test_dead_center_leaves_processes_put(self):
        stack = central_stack()
        deployment = stack.executor.deploy(sharded_aggregation_flow(stack),
                                           shards=2)
        stack.run_until(600.0)
        stack.netsim.kill_node("hub")
        stack.run_until(3600.0)  # the failure detector must not raise
        assert set(deployment.assignments().values()) == {"hub"}
        assert stack.executor.monitor.records("reassigned") == []

    def test_moves_more_bytes_than_in_network(self):
        # The headline in-network claim: filtering at the edge moves fewer
        # bytes than shipping raw streams to the center.  The flow has one
        # filter per station, so the SCN can push each filter to the edge
        # node that manages its sensor.
        def per_region_flow(stack):
            result = DsnProgram("per-region")
            for index, metadata in enumerate(
                stack.broker_network.registry.by_type("temperature")
            ):
                src = result.add_source(
                    SubscriptionFilter(sensor_ids=(metadata.sensor_id,)),
                    node_id=f"src-{index}",
                )
                hot = result.add_operator(FilterSpec("temperature > 24"),
                                          node_id=f"hot-{index}")
                out = result.add_sink("collector", node_id=f"out-{index}")
                result.connect(src, hot)
                result.connect(hot, out)
            return result

        # Cool: the filter passes almost nothing.
        central = central_stack(hot=False)
        central.executor.deploy(per_region_flow(central))
        central.run_until(6 * 3600.0)

        distributed = build_stack(topology=Topology.star(leaf_count=3),
                                  hot=False)
        distributed.executor.deploy(per_region_flow(distributed))
        distributed.run_until(6 * 3600.0)

        assert (distributed.netsim.total_link_bytes()
                < 0.5 * central.netsim.total_link_bytes())
