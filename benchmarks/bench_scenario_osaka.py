"""Experiment S1 — the Section 3 scenario, hot regime vs cool regime.

"Acquiring the data about torrential rain, tweets and traffic only when
the temperature identified in the last hour is above 25 °C."

The quantitative artifact: acquisition volumes with the trigger armed in a
hot regime (fires during the afternoon) versus a cool regime (never
fires), plus where in the day the activation lands.

Expected shape: cool regime acquires exactly nothing from the gated
streams (and pays no network traffic for them); hot regime starts
acquiring when the one-hour mean crosses 25 °C and the volumes are
substantial thereafter.
"""

import pytest

from repro.scenario import build_stack, osaka_scenario_flow

HOURS = 18.0


def run_regime(hot: bool, seed: int = 7):
    stack = build_stack(hot=hot, seed=seed)
    flow = osaka_scenario_flow(stack)
    deployment = stack.executor.deploy(flow)
    stack.run_until(HOURS * 3600.0)
    return stack, deployment


def commands(stack):
    """The trigger commands the run's execution log records."""
    return [record.facts["command"] for record
            in stack.executor.monitor.records("activate", "deactivate")]


@pytest.mark.benchmark(group="scenario-osaka")
def test_hot_regime(benchmark):
    stack, deployment = benchmark.pedantic(
        lambda: run_regime(hot=True), rounds=1, iterations=1
    )
    controls = commands(stack)
    benchmark.extra_info.update({
        "trigger_fired_at_h": controls[0].issued_at / 3600.0 if controls else None,
        "warehoused_torrential": len(stack.warehouse),
        "tweets_visualized": stack.sticker.pushed,
        "traffic_collected": len(deployment.collected("traffic-collector")),
        "suppressed_before_activation":
            stack.broker_network.data_messages_suppressed,
    })
    assert controls and controls[0].activate
    assert len(stack.warehouse) > 0
    assert stack.sticker.pushed > 0


@pytest.mark.benchmark(group="scenario-osaka")
def test_cool_regime(benchmark):
    stack, deployment = benchmark.pedantic(
        lambda: run_regime(hot=False), rounds=1, iterations=1
    )
    benchmark.extra_info.update({
        "trigger_fired": bool(commands(stack)),
        "warehoused_torrential": len(stack.warehouse),
        "tweets_visualized": stack.sticker.pushed,
        "traffic_collected": len(deployment.collected("traffic-collector")),
        "suppressed_messages": stack.broker_network.data_messages_suppressed,
    })
    assert not commands(stack)
    assert len(stack.warehouse) == 0
    assert stack.sticker.pushed == 0
    assert stack.broker_network.data_messages_suppressed > 0


def test_scenario_rows(capsys):
    hot_stack, hot_dep = run_regime(hot=True)
    cool_stack, cool_dep = run_regime(hot=False)
    controls = commands(hot_stack)

    def volumes(stack, deployment):
        return (len(stack.warehouse), stack.sticker.pushed,
                len(deployment.collected("traffic-collector")),
                stack.broker_network.data_messages_suppressed)

    hot_rows = volumes(hot_stack, hot_dep)
    cool_rows = volumes(cool_stack, cool_dep)
    with capsys.disabled():
        print("\n== Scenario: trigger-gated acquisition volumes over "
              f"{HOURS:.0f} virtual hours ==")
        print(f"  {'regime':8s} {'rain->DW':>9s} {'tweets':>8s} "
              f"{'traffic':>8s} {'suppressed':>11s}")
        print(f"  {'hot':8s} {hot_rows[0]:>9} {hot_rows[1]:>8} "
              f"{hot_rows[2]:>8} {hot_rows[3]:>11}")
        print(f"  {'cool':8s} {cool_rows[0]:>9} {cool_rows[1]:>8} "
              f"{cool_rows[2]:>8} {cool_rows[3]:>11}")
        if controls:
            print(f"  trigger fired at "
                  f"{controls[0].issued_at / 3600.0:.1f} virtual hours")
    assert hot_rows[0] > 0 and cool_rows[0] == 0
