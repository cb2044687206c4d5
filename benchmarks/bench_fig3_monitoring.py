"""Experiment F3 — Figure 3: monitoring the execution of the dataflow.

Regenerates everything the paper's monitoring screen shows: "the number of
tuples that each operation handle per second, the node that suffers
because of high workload, which node is in charge of executing an
operation and when the assignment changes" — by running the scenario,
forcing an overload mid-run, and reading the monitor's series back.

Expected shape: per-operation rate series are non-trivial during active
hours; the overloaded node is flagged while it suffers; exactly the
processes on that node migrate, and each migration appears in the
assignment-change log with its reason.
"""

import pytest

from repro.dataflow.ops import FilterSpec
from repro.dsn.ast import DsnProgram
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack


def monitored_run():
    stack = build_stack(rebalance_interval=300.0)
    flow = DsnProgram("monitored")
    src = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                          node_id="src")
    keep = flow.add_operator(FilterSpec("temperature > -100"), node_id="keep")
    out = flow.add_sink("collector", node_id="out")
    flow.connect(src, keep)
    flow.connect(keep, out)
    deployment = stack.executor.deploy(flow)

    stack.run_until(3600.0)
    victim = deployment.process("keep").node_id
    stack.topology.node(victim).register_process("external-hog", demand=5000.0)
    stack.run_until(2 * 3600.0)
    stack.topology.node(victim).unregister_process("external-hog")
    stack.run_until(3 * 3600.0)
    return stack, deployment, victim


@pytest.mark.benchmark(group="fig3-monitoring")
def test_monitoring_run(benchmark):
    stack, deployment, victim = benchmark.pedantic(
        monitored_run, rounds=1, iterations=1
    )
    monitor = stack.executor.monitor

    rate_series = monitor.operation_rates["monitored/monitored:keep"]
    utilization = monitor.node_utilization[victim]
    changes = [r for r in monitor.records("reassigned")
               if r.source.startswith("monitored:")]

    benchmark.extra_info.update({
        "rate_samples": len(rate_series),
        "peak_rate_tuples_per_s": rate_series.maximum(),
        "victim_peak_utilization": utilization.maximum(),
        "assignment_changes": len(changes),
        "suffering_flagged": utilization.maximum() > 1.0,
    })

    assert rate_series.maximum() > 0
    assert utilization.maximum() > 1.0      # the hog made it suffer
    assert changes                          # and the SCN reacted
    assert changes[0].facts["from_node"] == victim


def test_fig3_series_rows(capsys):
    stack, deployment, victim = monitored_run()
    monitor = stack.executor.monitor
    rate = monitor.operation_rates["monitored/monitored:keep"]
    util = monitor.node_utilization[victim]
    with capsys.disabled():
        print("\n== Figure 3: tuples/s per operation (keep) ==")
        for t, value in rate.points[:12]:
            bar = "#" * int(value * 200)
            print(f"  t={t:7.0f}s  {value:6.3f}/s {bar}")
        print(f"== Figure 3: utilization of suffering node {victim} ==")
        for t, value in util.points[:12]:
            flag = " << suffering" if value > 1.0 else ""
            print(f"  t={t:7.0f}s  {value:7.1%}{flag}")
        print("== Figure 3: assignment changes ==")
        for record in monitor.records("reassigned"):
            print(f"  t={record.time:7.0f}s  {record.source}: {record.detail}")
    assert monitor.records("reassigned")
