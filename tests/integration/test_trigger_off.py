"""Integration test: Trigger Off deactivates running acquisition — the
mirror of the scenario's Trigger On: an initially active stream (say, the
tweet firehose) is stopped once the condition verifies.
"""

import pytest

from repro.dataflow.ops import TriggerOffSpec
from repro.dsn.ast import DsnProgram
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack


@pytest.fixture
def stack():
    # Cool regime: the evening cools below 18 C, firing the off-trigger.
    return build_stack(hot=False)


def off_flow(stack) -> DsnProgram:
    tweet_ids = tuple(
        sensor.sensor_id for sensor in stack.fleet
        if sensor.metadata.sensor_type == "twitter"
    )
    flow = DsnProgram("wind-down")
    temp = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                           node_id="temp")
    tweets = flow.add_source(SubscriptionFilter(sensor_type="twitter"),
                             node_id="tweets", initially_active=True)
    night = flow.add_operator(
        TriggerOffSpec(interval=600.0, window=3600.0,
                       condition="avg_temperature < 14",
                       targets=tweet_ids),
        node_id="cold-night",
    )
    viz = flow.add_sink("visualization", node_id="viz")
    flow.connect(temp, night)
    flow.connect(tweets, viz)
    flow.connect_control(night, tweets)
    return flow


class TestTriggerOff:
    def test_acquisition_stops_when_condition_holds(self, stack):
        deployment = stack.executor.deploy(off_flow(stack))
        # Midday: cool regime means ~16-22 C, above the 14 C threshold.
        stack.run_until(14 * 3600.0)
        midday_pushed = stack.sticker.pushed
        assert midday_pushed > 0  # tweets flowed while warm enough

        # Early morning of the next day: mean drops below 14 C.
        stack.run_until(28 * 3600.0)
        controls = stack.executor.monitor.records("activate", "deactivate")
        assert controls
        assert controls[0].event == "deactivate"

        # After deactivation, no further tweets are visualized.
        pushed_at_fire = stack.sticker.pushed
        stack.run_until(30 * 3600.0)
        assert stack.sticker.pushed == pushed_at_fire
        # And suppression happened at the source.
        tweets = deployment.bindings["tweets"].subscriptions
        assert all(not s.active for s in tweets)
        assert sum(s.suppressed for s in tweets) > 0

    def test_warm_regime_never_stops(self):
        warm = build_stack(hot=True)
        deployment = warm.executor.deploy(off_flow(warm))
        warm.run_until(18 * 3600.0)
        # The hot regime's overnight minimum (~20 C) stays above 14 C.
        assert warm.executor.monitor.records("activate", "deactivate") == []
        tweets = deployment.bindings["tweets"].subscriptions
        assert all(s.active for s in tweets)
