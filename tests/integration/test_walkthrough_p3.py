"""Integration test: demo walkthrough part P3.

"We will show how it is easy to plug-and-play new sensors to the network
and make them directly available to StreamLoader.  We will also show how
the system react when sensors or operators in the dataflow are modified on
the fly.  Finally, we will show statistics on the execution of the dataflow
and on the performances of the network."
"""

from repro.dataflow.ops import FilterSpec
from repro.designer.session import DesignerSession
from repro.pubsub.subscription import SubscriptionFilter
from repro.sensors.physical import temperature_sensor
from repro.stt.spatial import Point


def deployed_session(stack, name="p3"):
    session = DesignerSession(stack.executor, name=name)
    temp = session.add_source(SubscriptionFilter(sensor_type="temperature"),
                              node_id="temp")
    hot = session.add_operator(FilterSpec("temperature > 24"), node_id="hot")
    out = session.add_sink("collector", node_id="out")
    session.connect(temp, hot)
    session.connect(hot, out)
    return session, session.deploy()


class TestPlugAndPlay:
    def test_new_sensor_feeds_running_dataflow(self, stack):
        session, handle = deployed_session(stack)
        stack.run_until(2 * 3600.0)

        # Plug a brand-new temperature sensor into the network mid-run.
        newcomer = temperature_sensor(
            "osaka-temp-shinsekai", Point(34.6524, 135.5063), "edge-1",
            base_temp=30.0,
        )
        newcomer.attach(stack.broker_network, stack.clock)
        assert "osaka-temp-shinsekai" in stack.broker_network.registry

        stack.run_until(4 * 3600.0)
        # Its readings flow into the standing subscription automatically.
        sources = {t.source for t in handle.deployment.collected("out")}
        assert "osaka-temp-shinsekai" in sources

    def test_unplugged_sensor_disappears(self, stack):
        session, handle = deployed_session(stack)
        stack.run_until(3600.0)
        victim = stack.sensor("osaka-temp-umeda")
        victim.detach()
        stack.run_until(2 * 3600.0)
        recent = [t for t in handle.deployment.collected("out")
                  if t.stamp.time > 3700.0]
        assert all(t.source != "osaka-temp-umeda" for t in recent)

    def test_designer_palette_updates_live(self, stack):
        session, _handle = deployed_session(stack)
        before = {m.sensor_id for m in session.discover(sensor_type="temperature")}
        newcomer = temperature_sensor("osaka-temp-new", Point(34.70, 135.49),
                                      "edge-0")
        newcomer.attach(stack.broker_network, stack.clock)
        after = {m.sensor_id for m in session.discover(sensor_type="temperature")}
        assert after - before == {"osaka-temp-new"}


class TestOnTheFlyModification:
    def test_operator_swap_changes_stream_without_restart(self, stack):
        session, handle = deployed_session(stack)
        stack.run_until(13 * 3600.0)
        before = len(handle.deployment.collected("out"))
        assert before > 0
        handle.replace_operator("hot", FilterSpec("temperature > 1000"))
        stack.run_until(15 * 3600.0)
        # Stream kept running (tuples_in grows) but nothing passes now.
        assert len(handle.deployment.collected("out")) == before
        assert handle.annotations()["hot"]["tuples_in"] > 0

    def test_statistics_on_execution_and_network(self, stack):
        session, handle = deployed_session(stack)
        stack.run_until(6 * 3600.0)
        report = stack.executor.monitor.report()
        network = report["network"]
        assert network["messages_delivered"] > 0
        assert network["link_bytes"] > 0
        assert network["mean_delay"] > 0
        assert report["operation_rates"]
        logs = stack.executor.monitor.logs
        assert any(record.event == "deployed" for record in logs)
