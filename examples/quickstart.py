"""Quickstart: the paper's scenario in ~20 lines.

Builds a simulated programmable network with the Osaka sensor fleet,
deploys the Section 3 dataflow (acquire torrential rain, tweets and
traffic only when the last hour's mean temperature exceeds 25 °C), runs
one virtual day, and prints what the monitor and the warehouse saw.

Run:  python examples/quickstart.py
"""

from repro import build_stack, osaka_scenario_flow


def main() -> None:
    stack = build_stack(hot=True)
    flow = osaka_scenario_flow(stack)

    deployment = stack.executor.deploy(flow)
    print(f"deployed {flow.name!r}: {deployment.assignments()}")

    stack.run_until(18 * 3600.0)  # midnight -> evening, virtual time

    print()
    print(stack.executor.monitor.render_dashboard())

    print()
    for record in stack.executor.monitor.records("activate", "deactivate"):
        command = record.facts["command"]
        verb = "activated" if command.activate else "deactivated"
        hours = command.issued_at / 3600.0
        print(f"at {hours:04.1f}h the trigger {verb}: "
              f"{', '.join(command.sensor_ids)}")

    print()
    print(f"warehouse: {len(stack.warehouse)} torrential-rain events")
    for row in stack.warehouse.query().rollup_time(
        "hour", measure="rain_rate", agg="max"
    ):
        print(f"  hour starting {row.group[0] / 3600.0:04.1f}h: "
              f"max rain {row.value:.1f} mm/h over {row.count} events")

    print()
    print(f"sticker: {stack.sticker.pushed} tuples visualized, "
          f"themes {stack.sticker.themes()}")


if __name__ == "__main__":
    main()
