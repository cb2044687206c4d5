"""Flood watch: a storm-surge dataflow over the extended sensor roster.

The paper's motivation opens with natural disasters — "flooding, storming,
extreme temperatures".  This example builds a flood-watch pipeline over
the extended Osaka fleet: the tide gauge and the rain gauges are joined
every 10 minutes; a virtual property computes a surge-risk score from
water level, rain intensity and wind; a Trigger On wakes the tweet stream
when the risk is high so responders see what citizens report; everything
lands in the Event Data Warehouse for post-event analysis.

Run:  python examples/flood_watch.py
"""

from repro import (
    DesignerSession,
    FilterSpec,
    JoinSpec,
    TriggerOnSpec,
    VirtualPropertySpec,
    build_stack,
)
from repro.pubsub.subscription import SubscriptionFilter

#: Risk score: tide above mean + heavy rain + strong onshore wind.
SURGE_RISK_SPEC = (
    "clamp((water_level - 1.2) / 0.8, 0, 1) * 0.5"
    " + clamp(rain_rate / 40.0, 0, 1) * 0.35"
    " + clamp(wind_speed / 20.0, 0, 1) * 0.15"
)


def main() -> None:
    stack = build_stack(hot=True, extended=True)
    session = DesignerSession(stack.executor, name="flood-watch")

    tide = session.add_source(SubscriptionFilter(sensor_type="sea-level"),
                              node_id="tide")
    rain = session.add_source(
        SubscriptionFilter(sensor_ids=("osaka-rain-port",)
                           if "osaka-rain-port" in stack.broker_network.registry
                           else ("osaka-rain-umeda",)),
        node_id="rain",
    )
    wind = session.add_source(SubscriptionFilter(sensor_type="wind"),
                              node_id="wind")
    tweets = session.add_source(SubscriptionFilter(sensor_type="twitter"),
                                node_id="tweets", initially_active=False)

    tide_rain = session.add_operator(
        JoinSpec(interval=600.0, predicate="true",
                 left_prefix="tide", right_prefix="rain"),
        node_id="tide-rain",
    )
    with_wind = session.add_operator(
        JoinSpec(interval=600.0, predicate="true",
                 left_prefix="sea", right_prefix="wx"),
        node_id="with-wind",
    )
    risk = session.add_operator(
        VirtualPropertySpec("surge_risk", SURGE_RISK_SPEC), node_id="risk"
    )
    alerts = session.add_operator(FilterSpec("surge_risk > 0.5"),
                                  node_id="alerts")
    wake_tweets = session.add_operator(
        TriggerOnSpec(interval=600.0, window=1800.0,
                      condition="max_surge_risk > 0.5",
                      targets=("osaka-tweets",)),
        node_id="wake-tweets",
    )
    dw = session.add_sink("warehouse", node_id="dw")
    viz = session.add_sink("visualization", node_id="viz")

    session.connect(tide, tide_rain, port=0)
    session.connect(rain, tide_rain, port=1)
    session.connect(tide_rain, with_wind, port=0)
    session.connect(wind, with_wind, port=1)
    session.connect(with_wind, risk)
    session.connect(risk, alerts)
    session.connect(alerts, dw)
    session.connect(risk, wake_tweets)
    session.connect(tweets, viz)
    session.connect_control(wake_tweets, tweets)

    report = session.validate()
    print("consistent:", report.is_valid)
    for issue in report.warnings:
        print("  note:", issue)
    print("risk schema:", session.schema_pane(risk))

    session.deploy()
    stack.run_until(36 * 3600.0)  # a day and a half: two tide cycles

    print()
    print(stack.executor.monitor.render_dashboard())

    print()
    alerts_count = len(stack.warehouse)
    print(f"surge alerts warehoused: {alerts_count}")
    rows = stack.warehouse.query().rollup_time("hour", "surge_risk", "max")
    for row in rows:
        bar = "#" * int(row.value * 40)
        print(f"  {row.group[0] / 3600.0:05.1f}h risk {row.value:4.2f} {bar}")

    triggered = stack.executor.monitor.records("activate", "deactivate")
    if triggered:
        print(f"tweet stream woken {len(triggered)} time(s); "
              f"{stack.sticker.pushed} tweets visualized")
    else:
        print("calm seas: tweet stream never woken, zero social traffic paid")


if __name__ == "__main__":
    main()
