"""The full demo walkthrough (P1 -> P2 -> P3) as one scripted session.

A domain expert designs the Osaka emergency dataflow in the (headless)
designer, checks it step by step on samples, inspects the DSN translation,
deploys it at network level, watches the live annotations, and finally
modifies the running flow — everything the EDBT demo showed, reproducible
offline.

Run:  python examples/osaka_emergency.py
"""

from repro import DesignerSession, FilterSpec, TriggerOnSpec, build_stack
from repro.pubsub.subscription import SubscriptionFilter
from repro.sticker.render import render_series


def design(session: DesignerSession, stack) -> None:
    """P1: discover sensors, draw the canvas, debug on samples."""
    print("== P1: design ==")
    by_type = session.palette.sources(organise_by="type")
    print("available sensors:",
          {kind: len(group) for kind, group in by_type.items()})

    temp = session.add_source(SubscriptionFilter(sensor_type="temperature"),
                              node_id="temperature")
    rain = session.add_source(SubscriptionFilter(sensor_type="rain"),
                              node_id="rain", initially_active=False)
    tweets = session.add_source(SubscriptionFilter(sensor_type="twitter"),
                                node_id="tweets", initially_active=False)
    traffic = session.add_source(SubscriptionFilter(sensor_type="traffic"),
                                 node_id="traffic", initially_active=False)

    gated = tuple(
        sensor.sensor_id for sensor in stack.fleet
        if sensor.metadata.sensor_type in ("rain", "twitter", "traffic")
    )
    trigger = session.add_operator(
        TriggerOnSpec(interval=300.0, window=3600.0,
                      condition="avg_temperature > 25", targets=gated),
        node_id="hot-hour",
    )
    torrential = session.add_operator(FilterSpec("rain_rate > 10"),
                                      node_id="torrential")
    dw = session.add_sink("warehouse", node_id="event-warehouse")
    viz = session.add_sink("visualization", node_id="sticker")
    coll = session.add_sink("collector", node_id="traffic-log")

    session.connect(temp, trigger)
    session.connect(rain, torrential)
    session.connect(torrential, dw)
    session.connect(tweets, viz)
    session.connect(traffic, coll)
    for source in (rain, tweets, traffic):
        session.connect_control(trigger, source)

    print("consistent:", session.is_consistent)
    print("schema at torrential:", session.schema_pane("torrential"))

    sample = session.preview(
        sensors={
            "temperature": stack.sensor("osaka-temp-umeda"),
            "rain": stack.sensor("osaka-rain-umeda"),
            "tweets": stack.sensor("osaka-tweets"),
            "traffic": stack.sensor("osaka-traffic-umeda"),
        },
        count=5,
        start=14 * 3600.0,  # probe a hot afternoon
    )
    print("sample tuples surviving the torrential filter:",
          len(sample.at("torrential")))
    if sample.commands:
        print("trigger commands issued on the samples:",
              [(c.issued_at, c.activate, c.sensor_ids)
               for c in sample.commands])


def deploy_and_monitor(session: DesignerSession, stack):
    """P2: translate, deploy, monitor, inspect the sinks."""
    print()
    print("== P2: translate & deploy ==")
    program = session.translate()
    print(program.render())

    handle = session.deploy()
    stack.run_until(16 * 3600.0)

    print(stack.executor.monitor.render_dashboard())
    print()
    print("live canvas annotations:")
    for node_id, info in sorted(handle.annotations().items()):
        print(f"  {node_id}: {info}")

    print()
    print(f"warehouse holds {len(stack.warehouse)} events; hourly max rain:")
    for row in stack.warehouse.query().rollup_time("hour", "rain_rate", "max"):
        print(f"  {row.group[0] / 3600.0:04.1f}h  {row.value:6.1f} mm/h "
              f"({row.count} events)")

    print()
    print(render_series(stack.sticker, "social/twitter"))
    return handle


def modify_on_the_fly(handle, stack) -> None:
    """P3: plug in a sensor and swap an operator while running."""
    print()
    print("== P3: plug-and-play & live modification ==")
    from repro.sensors.physical import rain_sensor
    from repro.stt.spatial import Point

    newcomer = rain_sensor("osaka-rain-sumiyoshi", Point(34.61, 135.49),
                           "edge-1")
    newcomer.attach(stack.broker_network, stack.clock)
    print("published new sensor:", newcomer.sensor_id)

    handle.replace_operator("torrential", FilterSpec("rain_rate > 30"))
    print("tightened the torrential threshold to 30 mm/h, live")

    before = len(stack.warehouse)
    stack.run_until(20 * 3600.0)
    print(f"events warehoused after modification: {len(stack.warehouse) - before}")
    print("reassignments so far:", len(handle.reassignments()))
    print("last log lines:")
    for record in stack.executor.monitor.logs[-5:]:
        print("  ", record)


def main() -> None:
    stack = build_stack(hot=True)
    session = DesignerSession(stack.executor, name="osaka-emergency")
    design(session, stack)
    handle = deploy_and_monitor(session, stack)
    modify_on_the_fly(handle, stack)


if __name__ == "__main__":
    main()
