"""Integration tests for the fault-tolerant runtime.

A fault matrix — {node kill, broker drop-burst, flaky source, mid-window
kill} x {non-blocking flow, blocking flow} — plus the acceptance scenario:
killing a node mid-run of the Osaka scenario re-places its processes on
survivors, restores blocking-operator state from the last checkpoint, and
leaves the post-recovery sink output equal to a no-fault run of the same
seed modulo the documented loss bound (tuples emitted while the victim was
down may be dead-lettered; nothing is lost silently and nothing is
duplicated).
"""

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import (
    AggregationSpec,
    FilterSpec,
    TransformSpec,
    VirtualPropertySpec,
)
from repro.network.topology import Topology
from repro.runtime.lifecycle import DeploymentState
from repro.runtime.monitor import KEY_MOVES
from repro.runtime.rebalance import (
    RebalanceConfig, RebalanceDecision, ShardLoadMonitor,
)
from repro.scenario import (
    build_stack,
    osaka_scenario_flow,
    sharded_aggregation_flow,
)
from repro.sensors.faults import FlakySensor
from repro.sensors.physical import temperature_sensor
from repro.streams.shard import partition_index
from repro.stt.spatial import Point
from tests.builders import (
    executor_stack,
    pipeline,
    script_readings,
    sensor_metadata,
)

BLOCKING_IDS = ["non-blocking", "blocking"]


def simple_flow(blocking: bool) -> Dataflow:
    """temperature -> (filter | windowed aggregation) -> collector."""
    work = AggregationSpec(interval=600.0, attributes=("temperature",),
                           function="AVG") if blocking \
        else FilterSpec("temperature > -100")
    return pipeline("ft", ("work", work), source="temp")


def station_reading(seq: int) -> dict:
    return {"temperature": 15.0 + seq % 13, "station": f"st-{seq % 8}"}


def assert_converged(faulted, baseline, may_differ) -> None:
    """Nothing invented (``by_key`` already refused duplicates), and every
    group ``may_differ(time, station)`` does not excuse is the
    baseline's."""
    assert set(faulted) <= set(baseline)
    for (time, station), value in baseline.items():
        if not may_differ(time, station):
            assert faulted.get((time, station)) == value, (time, station)


def in_outage(matrix, shard=None):
    """The groups a fault matrix lets differ: in windows overlapping its
    outage, of ``shard`` only (of any shard when None)."""
    def may_differ(time, station):
        return (matrix.AFFECTED_FROM <= time <= matrix.AFFECTED_UNTIL
                and shard in (None, partition_index((station,),
                                                   matrix.SHARDS)))
    return may_differ


def spare_leaf(topology, occupied) -> str:
    """A live node that is neither the hub nor in ``occupied``."""
    return next(node.node_id for node in topology.live_nodes()
                if node.node_id != "hub" and node.node_id not in occupied)


def by_key(deployment) -> dict:
    """Sink contents keyed by (window close time, station)."""
    out = {}
    for tuple_ in deployment.collected("averages"):
        key = (tuple_.stamp.time, tuple_.payload["station"])
        assert key not in out, f"duplicate flush entry {key}"
        out[key] = tuple_.payload["avg_temperature"]
    return out


@pytest.mark.parametrize("blocking", [False, True], ids=BLOCKING_IDS)
class TestFaultMatrix:
    def deploy(self, blocking):
        stack = build_stack(hot=True, seed=11)
        deployment = stack.executor.deploy(simple_flow(blocking))
        return stack, deployment

    def test_node_kill_replaces_and_stream_continues(self, blocking):
        stack, deployment = self.deploy(blocking)
        stack.run_until(1200.0)
        victim = deployment.process("work").node_id
        stack.netsim.kill_node(victim)
        stack.run_until(1800.0)  # detector: 4 x 30s silence, checked at 30s
        assert deployment.process("work").node_id != victim
        changes = stack.executor.monitor.records("reassigned")
        assert any("down" in change.facts["reason"] for change in changes)
        assert deployment.state is DeploymentState.RUNNING
        before = len(deployment.collected("out"))
        stack.run_until(2 * 3600.0)
        assert len(deployment.collected("out")) > before

    def test_broker_drop_burst_recovered_by_retry(self, blocking):
        stack, deployment = self.deploy(blocking)
        stack.run_until(900.0)
        victim = deployment.process("work").node_id
        # A blip shorter than both the retry budget (0.5+1+2 s) and the
        # failure detector's patience: sensors emit at t=960 into the
        # outage; retries redeliver once the node is back.
        stack.clock.schedule(59.9, lambda: stack.netsim.kill_node(victim))
        stack.clock.schedule(62.0, lambda: stack.netsim.revive_node(victim))
        stack.run_until(1800.0)
        net = stack.broker_network
        assert net.data_messages_retried >= 1
        assert net.data_messages_dead_lettered == 0
        # The blip was too short for the detector: nothing was re-placed.
        assert stack.executor.monitor.records("reassigned") == []
        assert len(deployment.collected("out")) > 0

    def test_flaky_source_degrades_and_recovers(self, blocking):
        stack = build_stack(hot=True, seed=11, attach_fleet=False)
        base = temperature_sensor("flaky-temp", Point(34.70, 135.50), "edge-0")
        flaky = FlakySensor(base.metadata, base.generator,
                            up_duration=900.0, down_duration=600.0)
        flaky.attach(stack.broker_network, stack.clock)
        deployment = stack.executor.deploy(simple_flow(blocking))
        monitor = stack.executor.monitor
        stack.run_until(1000.0)  # sensor drops out at t=900
        assert deployment.state is DeploymentState.DEGRADED
        assert any(record.event == "degraded" for record in monitor.logs)
        count_while_degraded = len(deployment.collected("out"))
        stack.run_until(2000.0)  # republished at t=1500
        assert deployment.state is DeploymentState.RUNNING
        assert any(record.event == "recovered" for record in monitor.logs)
        assert len(deployment.collected("out")) > count_while_degraded

    def test_mid_window_kill_restores_checkpoint(self, blocking):
        stack, deployment = self.deploy(blocking)
        process = deployment.process("work")
        stack.run_until(900.0)  # halfway through the 600-1200 window
        victim = process.node_id
        stack.netsim.kill_node(victim)
        stack.run_until(1500.0)
        assert process.node_id != victim
        monitor = stack.executor.monitor
        if blocking:
            assert process.restores >= 1
            restored = [record for record in monitor.logs
                        if record.event == "checkpoint-restored"]
            assert restored
            # The restored snapshot predates the kill: "state from t=NNNs".
            snapshot_time = float(
                restored[0].detail.split("t=")[1].split("s")[0])
            assert snapshot_time <= 900.0
        else:
            # Stateless operators carry no checkpoint; recovery is a move.
            assert process.restores == 0
        stack.run_until(2400.0)
        assert len(deployment.collected("out")) > 0


@pytest.mark.parametrize("blocking", [False, True], ids=BLOCKING_IDS)
class TestDeadLetterAudit:
    """Every retry exhaustion is audited exactly once, everywhere.

    An outage long enough to exhaust the retry budget (0.5+1+2 s) but
    shorter than the failure detector's patience produces dead letters;
    the broker counter, the subscriptions' queues, the monitor's audit
    log, and the metrics registry must all agree — one record per
    exhausted tuple, no duplicates, nothing silent.
    """

    def test_exhaustions_produce_exactly_one_record_each(self, blocking):
        stack = build_stack(hot=True, seed=11, observability=0.0)
        deployment = stack.executor.deploy(simple_flow(blocking))
        stack.run_until(930.0)
        victim = deployment.process("work").node_id
        # 70s outage: sensors emit at t=960 and their retries (0.5+1+2 s)
        # exhaust while the node is still down, but heartbeats resume
        # before the failure detector's re-placement verdict.
        stack.netsim.kill_node(victim)
        stack.clock.schedule(70.0, lambda: stack.netsim.revive_node(victim))
        stack.run_until(1800.0)

        net = stack.broker_network
        monitor = stack.executor.monitor
        assert net.data_messages_dead_lettered >= 1

        # Broker counter == monitor audit log == per-subscription queues.
        records = monitor.records("dead-letter")
        assert len(records) == net.data_messages_dead_lettered
        subscriptions = [
            subscription
            for binding in deployment.bindings.values()
            for subscription in binding.subscriptions
        ]
        queued = sum(len(s.dead_letters) for s in subscriptions)
        assert queued == net.data_messages_dead_lettered

        # No duplicates: each (subscription, tuple) pair at most once.
        letters = [
            (s.subscription_id, letter.tuple.source, letter.tuple.seq)
            for s in subscriptions
            for letter in s.dead_letters
        ]
        assert len(letters) == len(set(letters))

        # Every audit record names the victim and a real subscription.
        known = {s.subscription_id for s in subscriptions}
        for record in records:
            assert record.facts["subscription"] in known
            assert record.facts["node"] == victim

        # The metrics pipeline carries the same count.
        counter = stack.obs.metrics.counter("broker_dead_letters_total")
        assert counter.value == net.data_messages_dead_lettered


class TestShardFaultMatrix:
    """Fault matrix rows for the sharded merge plane (DESIGN.md §12):
    {kill one shard mid-window, kill the merge stage, kill during a
    rebalance round} over a 4-way sharded grouped aggregation.

    A dedicated stack (one scripted sensor, star topology — killing a
    leaf cannot partition the survivors) keeps the input schedule
    identical between the faulted run and its no-fault baseline, so
    recovery semantics can be pinned exactly: sibling shards' groups are
    byte-identical everywhere, and only the victim shard's groups — only
    in windows overlapping the outage — may be missing or perturbed.
    Nothing is ever duplicated.
    """

    SHARDS = 4
    WINDOW = 60.0
    KILL_AT = 630.0
    #: detection (4 x 30s silence) + re-placement + the first
    #: post-recovery flush, which may re-aggregate checkpointed tuples.
    AFFECTED_UNTIL = 900.0
    #: restored state may predate the kill by one checkpoint interval.
    AFFECTED_FROM = KILL_AT - 60.0
    END = 1500.0

    def _deploy(self):
        netsim, network, executor = executor_stack(
            Topology.star(leaf_count=5),
            sensor_metadata("shard-temp", frequency=0.5))
        flow = sharded_aggregation_flow(None, interval=self.WINDOW)
        deployment = executor.deploy(flow, shards={"station-avg": self.SHARDS})
        script_readings(netsim, network, "shard-temp", self.END, station_reading)
        return netsim, deployment

    def _victim_shard(self, deployment):
        """A member on its own leaf: not the hub (sensor), not the merge."""
        group = deployment.shard_groups["station-avg"]
        merge_node = group.merge.node_id
        for index, member in enumerate(group.members):
            if member.node_id not in (merge_node, "hub"):
                siblings = [m for m in group.members if m is not member]
                if all(m.node_id != member.node_id for m in siblings):
                    return index, member, siblings
        pytest.skip("placement packed the victim with the merge stage")

    @pytest.fixture(scope="class")
    def baseline(self):
        netsim, deployment = self._deploy()
        netsim.clock.run_until(self.END)
        return by_key(deployment)

    def test_kill_one_shard_recovers_only_its_groups(self, baseline):
        netsim, deployment = self._deploy()
        loads = ShardLoadMonitor(deployment.shard_groups["station-avg"])
        epochs = []
        netsim.clock.schedule_periodic(
            30.0, lambda: epochs.append(loads.sample()))
        netsim.clock.run_until(self.KILL_AT)
        index, victim, siblings = self._victim_shard(deployment)
        victim_node = victim.node_id
        sibling_nodes = [member.node_id for member in siblings]
        netsim.kill_node(victim_node)
        netsim.clock.run_until(self.AFFECTED_UNTIL)

        # Exactly the dead shard was re-placed, from its own checkpoint;
        # its siblings never moved and never restored.
        assert victim.node_id != victim_node
        assert victim.restores >= 1
        assert [member.node_id for member in siblings] == sibling_nodes
        assert all(member.restores == 0 for member in siblings)

        netsim.clock.run_until(self.END)
        # The documented loss/perturbation bound: the victim's groups in
        # windows overlapping the outage.
        assert_converged(by_key(deployment), baseline, in_outage(self, index))
        # The restore did not rewind the victim's count: no load < 0.
        assert min(map(min, epochs)) >= 0

    def test_kill_merge_stage_restores_pending_epochs(self, baseline):
        netsim, deployment = self._deploy()
        netsim.clock.run_until(self.KILL_AT)
        group = deployment.shard_groups["station-avg"]
        merge = group.merge
        member_nodes = [member.node_id for member in group.members]
        # Pin the merge to a leaf of its own first (placement favours the
        # hub, but killing the hub would sever every spoke at once).
        spare = spare_leaf(netsim.topology, member_nodes)
        merge.move_to(spare)
        merge_node = merge.node_id
        netsim.kill_node(merge_node)
        netsim.clock.run_until(self.AFFECTED_UNTIL)

        # The merge is stateful-but-non-blocking: checkpointable -> it
        # recovers through the same checkpoint path as blocking shards.
        assert merge.node_id != merge_node
        assert merge.restores >= 1
        assert [m.node_id for m in group.members] == member_nodes

        netsim.clock.run_until(self.END)
        # Envelopes lost in transit to the dead merge are the only gap.
        assert_converged(by_key(deployment), baseline, in_outage(self))

    def test_kill_during_rebalance_round(self, baseline):
        netsim, deployment = self._deploy()
        # The executor's rebalance rounds tick at 300 s; kill a shard
        # node at exactly that instant so recovery and the coordination
        # round race on the same virtual timestamp.
        netsim.clock.run_until(600.0 - 1e-9)
        index, victim, _ = self._victim_shard(deployment)
        victim_node = victim.node_id
        netsim.clock.schedule(1e-9, lambda: netsim.kill_node(victim_node))
        netsim.clock.run_until(self.END)

        assert deployment.state is DeploymentState.RUNNING
        for process in deployment.processes.values():
            assert netsim.topology.node(process.node_id).up
        # Flushes before the kill and well after recovery are intact.
        assert_converged(by_key(deployment), baseline,
                         lambda time, _: 540.0 <= time <= 870.0)


class TestFusedFaultMatrix:
    """Fault matrix row for the fused data plane (DESIGN.md §14): kill
    the node hosting a fused chain mid-run.  The chain is one process,
    so recovery must re-place it as *one unit* — a single assignment
    change for the ``a+b+c`` process, never per-member moves — and the
    stream must replay cleanly: the faulted sink is a subset of the
    no-fault baseline, missing only tuples published inside the outage
    window.
    """

    CHAIN = ("keep", "double", "bump")
    KILL_AT = 630.0
    #: detection (4 x 30s silence) + re-placement latency.
    RECOVERED_BY = 900.0
    END = 1500.0

    def _deploy(self):
        netsim, network, executor = executor_stack(
            Topology.star(leaf_count=5), sensor_metadata(
                "fused-temp", fields={"temperature": "float"}, frequency=0.5))
        deployment = executor.deploy(pipeline(
            "fused-ft", ("keep", FilterSpec("temperature > -100")),
            ("double", VirtualPropertySpec("double", "temperature * 2")),
            ("bump", TransformSpec(
                assignments={"temperature": "temperature + 1"})),
            source="temp"))
        script_readings(netsim, network, "fused-temp", self.END,
                        lambda seq: {"temperature": 15.0 + seq % 13})
        return netsim, executor, deployment

    def _chain_process(self, netsim, deployment):
        """The fused process, evicted to its own leaf so killing it
        cannot sever the hub (the sensor's node)."""
        key = "+".join(self.CHAIN)
        assert {k: unit.services for k, unit in deployment.plan.units.items()
                if unit.role == "chain"} == {key: self.CHAIN}
        process = deployment.processes[key]
        occupied = {p.node_id for n, p in deployment.processes.items()
                    if n != key}
        if process.node_id in occupied | {"hub"}:
            spare = spare_leaf(netsim.topology, occupied)
            process.move_to(spare)
        return key, process

    def test_chain_re_placed_as_one_unit(self):
        netsim, executor, deployment = self._deploy()
        netsim.clock.run_until(self.KILL_AT)
        key, process = self._chain_process(netsim, deployment)
        victim = process.node_id
        netsim.kill_node(victim)
        netsim.clock.run_until(self.RECOVERED_BY)

        assert process.node_id != victim
        assert netsim.topology.node(process.node_id).up
        # Every member resolves to the same (moved) process: one unit.
        for member in self.CHAIN:
            assert deployment.process(member) is process
            assert deployment.placements[member].node_id == process.node_id
        # Exactly one assignment change for the chain, none per member.
        changed = [change.source
                   for change in executor.monitor.records("reassigned")
                   if change.facts["from_node"] == victim]
        assert changed.count(f"fused-ft:{key}") == 1
        assert not any(
            change_id.endswith(f":{member}")
            for change_id in changed for member in self.CHAIN
        )

        netsim.clock.run_until(self.END)
        assert deployment.state is DeploymentState.RUNNING
        assert len(deployment.collected("out")) > 0

    def test_replay_clean_modulo_outage_window(self):
        def run(kill: bool):
            netsim, _, deployment = self._deploy()
            netsim.clock.run_until(self.KILL_AT)
            if kill:
                _, process = self._chain_process(netsim, deployment)
                netsim.kill_node(process.node_id)
            netsim.clock.run_until(self.END)
            return {t.seq: t.stamp.time for t in deployment.collected("out")}

        baseline = run(kill=False)
        faulted = run(kill=True)
        # At-most-once: nothing invented, nothing duplicated (seq-keyed).
        assert set(faulted) <= set(baseline)
        for seq in set(baseline) - set(faulted):
            # Only tuples published during the outage may be missing.
            assert self.KILL_AT <= baseline[seq] <= self.RECOVERED_BY
        # And tuples from after recovery did arrive.
        assert any(time > self.RECOVERED_BY for time in faulted.values())


class TestElasticFaultMatrix:
    """Chaos rows for the elastic rebalance plane (DESIGN.md §13):
    {kill the donor before the handoff, kill the recipient before the
    restore, kill the donor right after the handoff, kill the merge
    during a hot-key split} over a 4-way elastic grouped aggregation.

    The same scripted-sensor discipline as :class:`TestShardFaultMatrix`
    keeps the input schedule identical across runs, so the handoff
    protocol's crash-safety claims can be pinned exactly: an action with
    a dead participant aborts (recorded, never half-applied); an action
    that committed survives the donor's death because both ends were
    checkpointed at the barrier; and in every case nothing is duplicated
    and only outage-window groups of the dead shard may be missing.
    """

    SHARDS = 4
    WINDOW = 60.0
    #: the forced action's epoch boundary (handoff at BOUNDARY + eps).
    #: Deliberately *off* the executor's 300 s placement-round grid: a
    #: round that fires between the kill and the handoff would re-place
    #: the dead participant first and the action would no longer abort.
    BOUNDARY = 660.0
    AFFECTED_UNTIL = 900.0
    AFFECTED_FROM = BOUNDARY - 60.0
    END = 1500.0
    STATIONS = 8

    def _deploy(self):
        netsim, network, executor = executor_stack(
            Topology.star(leaf_count=5),
            sensor_metadata("elastic-temp", frequency=0.5),
            rebalance_config=RebalanceConfig(imbalance_ratio=float("inf")))
        flow = sharded_aggregation_flow(None, interval=self.WINDOW)
        deployment = executor.deploy(
            flow, shards={"station-avg": self.SHARDS}, elastic=True)
        script_readings(netsim, network, "elastic-temp", self.END,
                        station_reading)
        return netsim, executor, deployment

    def _movable_station(self, deployment):
        """A station whose owner shard sits alone on a killable leaf,
        plus a recipient shard on a *different* killable leaf."""
        group = deployment.shard_groups["station-avg"]
        merge_node = group.merge.node_id
        nodes = [member.node_id for member in group.members]

        def killable(index):
            node = nodes[index]
            return node not in (merge_node, "hub") and nodes.count(node) == 1

        for station in range(self.STATIONS):
            owner = partition_index((f"st-{station}",), self.SHARDS)
            if not killable(owner):
                continue
            for recipient in range(self.SHARDS):
                if recipient != owner and killable(recipient):
                    return f"st-{station}", owner, recipient
        pytest.skip("placement packed every shard with the merge stage")

    def _migrate_and_kill(self, victim: str, at: float):
        """Force one key migration, kill the ``victim`` shard's node
        ("owner" or "recipient") at ``at``, and run to the end."""
        netsim, executor, deployment = self._deploy()
        netsim.clock.run_until(self.BOUNDARY - 60.0)
        station, owner, recipient = self._movable_station(deployment)
        group = deployment.shard_groups["station-avg"]
        node = group.members[owner if victim == "owner" else recipient].node_id
        rebalancer = deployment.rebalancers["station-avg"]
        netsim.clock.schedule_at(
            self.BOUNDARY - 30.0,
            lambda: rebalancer.executor.schedule(RebalanceDecision(
                "migrate", (station,), owner, recipient)),
        )
        netsim.clock.schedule_at(at, lambda: netsim.kill_node(node))
        netsim.clock.run_until(self.END)
        return executor, deployment, group, station, owner, recipient, node

    @pytest.fixture(scope="class")
    def baseline(self):
        """Elastic deployment, no forced action, no fault."""
        netsim, _, deployment = self._deploy()
        netsim.clock.run_until(self.END)
        return by_key(deployment)

    def _assert_converged(self, faulted, baseline, affected_shard):
        assert_converged(faulted, baseline, in_outage(self, affected_shard))

    def test_donor_killed_before_handoff_aborts(self, baseline):
        executor, deployment, group, station, owner, _, donor_node = (
            self._migrate_and_kill("owner", self.BOUNDARY - 1.0))

        [event] = executor.monitor.records(*KEY_MOVES)
        assert event.event == "key-aborted"
        assert "node down" in event.facts["reason"]
        # Nothing half-applied: routing untouched, no shard disowned it.
        assert group.assignment.overrides == {}
        assert all((station,) not in m.operator.disowned
                   for m in group.members)
        # The PR 1 path recovered the donor; output converged.
        assert group.members[owner].node_id != donor_node
        assert group.members[owner].restores >= 1
        assert deployment.state is DeploymentState.RUNNING
        self._assert_converged(by_key(deployment), baseline, owner)

    def test_recipient_killed_before_restore_aborts(self, baseline):
        executor, deployment, group, station, owner, recipient, _ = (
            self._migrate_and_kill("recipient", self.BOUNDARY - 1.0))

        events = executor.monitor.records(*KEY_MOVES)
        assert [e.event for e in events] == ["key-aborted"]
        # The donor keeps serving the key as if nothing was asked.
        assert group.assignment.owner_of((station,)) == owner
        assert group.assignment.overrides == {}
        assert deployment.state is DeploymentState.RUNNING
        self._assert_converged(by_key(deployment), baseline, recipient)

    def test_donor_killed_after_handoff_keeps_migration(self, baseline):
        """Once the barrier commit ran, the donor's death cannot undo it:
        its post-handoff checkpoint carries the disowned marker, and the
        moved key — now living on the recipient — rides out the outage
        without losing a single window."""
        # The handoff runs at BOUNDARY + 1e-6; the kill lands just after.
        executor, deployment, group, station, owner, recipient, _ = (
            self._migrate_and_kill("owner", self.BOUNDARY + 1e-3))

        events = executor.monitor.records(*KEY_MOVES)
        assert [e.event for e in events] == ["key-migrate"]
        assert group.assignment.owner_of((station,)) == recipient
        # The restored donor still knows the key left: no resurrection.
        assert (station,) in group.members[owner].operator.disowned
        assert group.members[owner].restores >= 1
        faulted = by_key(deployment)
        self._assert_converged(faulted, baseline, owner)
        # The migrated key escaped the blast radius: every one of its
        # baseline windows survived the donor's death.
        for (time, st_name), value in baseline.items():
            if st_name == station:
                assert faulted.get((time, st_name)) == value

    def test_merge_killed_during_split_recovers_folding(self):
        """Kill the merge stage while a hot key is split: the restored
        merge keeps folding partial entries, nothing is duplicated, and
        post-recovery windows of the split key are intact."""
        def run(kill: bool):
            netsim, executor, deployment = self._deploy()
            group = deployment.shard_groups["station-avg"]
            rebalancer = deployment.rebalancers["station-avg"]
            netsim.clock.schedule_at(
                self.BOUNDARY - 30.0,
                lambda: rebalancer.executor.schedule(RebalanceDecision(
                    "split", ("st-3",), 0, replicas=tuple(range(self.SHARDS)))),
            )
            if kill:
                member_nodes = [m.node_id for m in group.members]
                spare = spare_leaf(netsim.topology, member_nodes)

                def relocate_and_kill():
                    group.merge.move_to(spare)
                    netsim.clock.schedule(30.0,
                                          lambda: netsim.kill_node(spare))

                netsim.clock.schedule_at(self.BOUNDARY + 1.0,
                                         relocate_and_kill)
            netsim.clock.run_until(self.END)
            return executor, deployment, group

        _, b_dep, _ = run(kill=False)
        baseline = by_key(b_dep)
        executor, deployment, group = run(kill=True)
        faulted = by_key(deployment)   # asserts no duplicates

        assert group.merge.restores >= 1
        assert deployment.state is DeploymentState.RUNNING
        assert_converged(faulted, baseline, in_outage(self))
        # Post-recovery split-key windows made it through the fold.
        recovered = [time for (time, station) in faulted
                     if station == "st-3" and time > self.AFFECTED_UNTIL]
        assert recovered


class TestOsakaKillRecovery:
    """Acceptance: kill/revive a node mid-run of the paper's scenario."""

    KILL_AT = 11 * 3600.0
    REVIVE_AT = 12 * 3600.0
    END = 16 * 3600.0
    #: Retry horizon + detection latency after revival during which losses
    #: are still attributable to the outage.
    MARGIN = 300.0

    def run_scenario(self, kill: bool):
        stack = build_stack(hot=True, seed=7)
        flow = osaka_scenario_flow(stack)
        deployment = stack.executor.deploy(flow)
        holder = {}
        if kill:
            def do_kill():
                holder["victim"] = deployment.process("hot-hour-trigger").node_id
                stack.netsim.kill_node(holder["victim"])

            stack.clock.schedule(self.KILL_AT, do_kill)
            stack.clock.schedule(
                self.REVIVE_AT,
                lambda: stack.netsim.revive_node(holder["victim"]),
            )
        stack.run_until(self.END)
        return stack, deployment, holder

    @pytest.fixture(scope="class")
    def runs(self):
        baseline = self.run_scenario(kill=False)
        faulted = self.run_scenario(kill=True)
        return baseline, faulted

    def test_processes_replaced_off_the_dead_node(self, runs):
        _, (stack, deployment, holder) = runs
        victim = holder["victim"]
        assert any(
            change.facts["from_node"] == victim and "down" in change.detail
            for change in stack.executor.monitor.records("reassigned")
        )
        for process in deployment.processes.values():
            assert stack.netsim.topology.node(process.node_id).up

    def test_blocking_operator_restored_from_checkpoint(self, runs):
        _, (stack, deployment, holder) = runs
        trigger = deployment.process("hot-hour-trigger")
        assert trigger.restores >= 1
        restored = [record for record in stack.executor.monitor.logs
                    if record.event == "checkpoint-restored"]
        assert restored
        # The restored snapshot predates the kill, never follows it.
        assert trigger.last_checkpoint[0] >= self.REVIVE_AT

    def test_activation_unchanged_by_the_fault(self, runs):
        (b_stack, _, _), (f_stack, _, _) = runs
        b_controls = b_stack.executor.monitor.records("activate")
        f_controls = f_stack.executor.monitor.records("activate")
        assert b_controls and f_controls
        assert b_controls[0].time == f_controls[0].time

    def test_sink_output_matches_modulo_loss_bound(self, runs):
        (_, b_dep, _), (f_stack, f_dep, _) = runs
        baseline = {(t.source, t.seq): t.stamp.time
                    for t in b_dep.collected("traffic-collector")}
        faulted = {(t.source, t.seq) for t in f_dep.collected("traffic-collector")}
        # At-most-once: the fault run never invents or duplicates output.
        assert faulted <= set(baseline)
        missing = set(baseline) - faulted
        # The documented loss bound: only tuples emitted during the outage
        # (plus the recovery margin) may be missing ...
        for key in missing:
            assert self.KILL_AT <= baseline[key] <= self.REVIVE_AT + self.MARGIN
        # ... and every loss is surfaced, never silent.
        assert len(missing) <= f_stack.broker_network.data_messages_dead_lettered

    def test_warehouse_loss_is_bounded_and_audited(self, runs):
        (b_stack, _, _), (f_stack, _, _) = runs
        shortfall = len(b_stack.warehouse) - len(f_stack.warehouse)
        assert shortfall <= f_stack.broker_network.data_messages_dead_lettered
        if shortfall > 0:
            assert f_stack.executor.monitor.records("dead-letter")
