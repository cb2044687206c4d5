"""The single adapter to the system under test.

Every call into ``repro`` lives here: build the stack, publish sensor
metadata, materialise the replay with the public ``backfill_stamp``,
deploy the flow, run the clock, read sinks and public counters, and name
the entry points the traced run wraps.  The rest of the harness sees
plain dicts, Counters and numbers, so a refactor of ``repro`` (such as
removing a tuple/batch twin) is absorbed in this file alone.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from collections import Counter
from pathlib import Path

if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import build_stack
from repro.dataflow import (
    AggregationSpec,
    Dataflow,
    FilterSpec,
    JoinSpec,
    TransformSpec,
    TriggerOnSpec,
    VirtualPropertySpec,
)
from repro.dsn.ast import DsnSlo
from repro.dsn.generate import dataflow_to_dsn
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.obs import Observability
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.partition import ShardRouter
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.stamping import backfill_stamp
from repro.pubsub.subscription import Subscription, SubscriptionFilter
from repro.runtime.monitor import Monitor
from repro.runtime.process import OperatorProcess
from repro.runtime.rebalance import (
    RebalanceConfig,
    RebalanceExecutor,
    ShardRebalancer,
)
from repro.schema.schema import StreamSchema
from repro.sticker.feed import StickerFeed
from repro.streams.aggregate import AggregationOperator
from repro.streams.base import Operator
from repro.streams.fused import FusedOperator
from repro.streams.join import JoinOperator
from repro.streams.shard import ShardedOperatorAdapter, ShardMergeOperator
from repro.streams.sink import CallbackSink, ListSink
from repro.streams.trigger import TriggerOffOperator, TriggerOnOperator
from repro.stt.spatial import Point
from repro.warehouse.loader import EventWarehouse

from .workloads import Inputs

#: Common set-up, identical for every workload: a 4-leaf star whose links
#: add 0.1 ms and whose nodes are never overloaded, so a run measures the
#: program and not simulated wire time or overload migrations.
LEAVES = 4
LINK_LATENCY = 0.0001
NODE_CAPACITY = 1e9

#: Observability modes of a pass.
OBS_OFF, OBS_PROBE, OBS_TRACING = "off", "probe", "tracing"


class Replay:
    """One sensor's pre-materialised publish calls, replayed on the clock.

    Each firing publishes the next item and schedules the following one,
    like ``SimulatedSensor`` does, so the clock's heap holds one pending
    event per sensor rather than one per tuple.  With ``record`` set,
    every firing notes its wall instant (open-loop lateness).
    """

    def __init__(self, clock, publish, sensor_id, items, record=False):
        self._schedule_at = clock.schedule_at
        self._publish = publish
        self.sensor_id = sensor_id
        self.items = items
        self.fired_ns: "list[int] | None" = [] if record else None
        self.published = 0

    def start(self) -> None:
        if self.items:
            self._schedule_at(self.items[0][0], self.fire)

    def fire(self) -> None:
        if self.fired_ns is not None:
            self.fired_ns.append(time.perf_counter_ns())
        i = self.published
        self._publish(self.sensor_id, self.items[i][1])
        i += 1
        self.published = i
        if i < len(self.items):
            self._schedule_at(self.items[i][0], self.fire)


class _TimedSticker(StickerFeed):
    """A Sticker feed that notes when each tuple reached it."""

    def __init__(self) -> None:
        super().__init__()
        self.arrivals: list = []

    def push(self, tuple_) -> None:
        self.arrivals.append(
            (tuple_.source, tuple_.seq, time.perf_counter_ns()))
        super().push(tuple_)


# -- the traced run's entry points ------------------------------------------

#: (layer, class, method).  A method that no longer exists is skipped (a
#: deleted twin is fine); a layer left with no wrapped method is an error.
ENTRY_POINTS = (
    ("harness.replay", Replay, "fire"),
    ("pubsub.broker", BrokerNetwork, "publish_data"),
    ("pubsub.broker", BrokerNetwork, "publish_batch"),
    ("pubsub.broker", Subscription, "deliver"),
    ("pubsub.broker", Subscription, "deliver_batch"),
    ("pubsub.partition", ShardRouter, "member_for"),
    ("pubsub.partition", ShardRouter, "split_batch"),
    ("network.netsim", NetworkSimulator, "send"),
    ("network.netsim", NetworkSimulator, "send_batch"),
    ("runtime.process", OperatorProcess, "receive"),
    ("runtime.process", OperatorProcess, "receive_batch"),
    ("runtime.process", OperatorProcess, "checkpoint_now"),
    # Private, but the only frame around a blocking flush's forwarding;
    # without it that work would read as clock time.
    ("runtime.process", OperatorProcess, "_fire_timer"),
    ("runtime.monitor", Monitor, "sample"),
    ("runtime.monitor", Monitor, "check_liveness"),
    ("runtime.monitor", Monitor, "heartbeat"),
    ("runtime.rebalance", ShardRebalancer, "tick"),
    ("runtime.rebalance", RebalanceExecutor, "migrate_now"),
    ("runtime.rebalance", RebalanceExecutor, "split_now"),
    ("warehouse", EventWarehouse, "load"),
    ("sticker", StickerFeed, "push"),
)

#: Operator entry points are wrapped on every class that defines them and
#: attributed by operator kind (first match wins; any other operator is
#: an unfused non-blocking one, ``streams.ops``).
OPERATOR_METHODS = ("on_tuple", "on_batch", "on_timer")
OPERATOR_LAYERS = (
    (FusedOperator, "streams.fused"),
    (TriggerOnOperator, "streams.trigger"),
    (TriggerOffOperator, "streams.trigger"),
    (AggregationOperator, "streams.aggregate"),
    (JoinOperator, "streams.join"),
    (ShardedOperatorAdapter, "streams.shard"),
    (ShardMergeOperator, "streams.shard"),
    (CallbackSink, "streams.sink"),
    (ListSink, "streams.sink"),
)

#: Name of the root span's layer on each backend: what is left of the
#: run after every wrapped call is subtracted is heap + callback dispatch
#: on the simulator, and the event loop, mailboxes, pumps and epoch
#: barrier on asyncio.
ROOT_LAYER = {"sim": "network.simclock", "async": "runtime.backends"}


def operator_classes() -> list:
    """Every loaded Operator class that defines an entry point itself."""
    seen, todo, out = set(), [Operator], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        if any(name in vars(cls) for name in OPERATOR_METHODS):
            out.append(cls)
    return out


def operator_layer(cls: type) -> str:
    for base, layer in OPERATOR_LAYERS:
        if issubclass(cls, base):
            return layer
    return "streams.ops"


# -- flows -------------------------------------------------------------------


def _osaka_flow(params: dict, gated: "tuple[str, ...]") -> Dataflow:
    """Trigger-gated rain and tweets; rain through one fused chain into a
    grouped aggregation (-> warehouse) and the Sticker; tweets -> Sticker."""
    active = params["gate_open"]
    flow = Dataflow("osaka-replay")
    temp = flow.add_source(
        SubscriptionFilter(sensor_type="temperature"), node_id="temperature")
    rain = flow.add_source(
        SubscriptionFilter(sensor_type="rain"), node_id="rain",
        initially_active=active)
    tweets = flow.add_source(
        SubscriptionFilter(sensor_type="twitter"), node_id="tweets",
        initially_active=active)
    trigger = flow.add_operator(
        TriggerOnSpec(
            interval=params["check"],
            window=params["check"],
            condition=f"avg_temperature > {params['temperature_threshold']}",
            targets=gated,
        ),
        node_id="hot-trigger",
    )
    torrential = flow.add_operator(
        FilterSpec(f"rain_rate > {params['rain_threshold']}"),
        node_id="torrential")
    halve = flow.add_operator(
        TransformSpec(assignments={"rain_rate": "rain_rate * 0.5"}),
        node_id="halve")
    intensity = flow.add_operator(
        VirtualPropertySpec("intensity", "rain_rate * 0.25 + 1"),
        node_id="intensity")
    average = flow.add_operator(
        AggregationSpec(interval=params["window"], attributes=("rain_rate",),
                        function="AVG", group_by="station"),
        node_id="station-avg")
    warehouse = flow.add_sink("warehouse", node_id="event-warehouse")
    sticker_rain = flow.add_sink("visualization", node_id="sticker-rain")
    sticker_tweets = flow.add_sink("visualization", node_id="sticker-tweets")
    flow.connect(temp, trigger)
    flow.connect(rain, torrential)
    flow.connect(torrential, halve)
    flow.connect(halve, intensity)
    flow.connect(intensity, average)
    flow.connect(average, warehouse)
    flow.connect(intensity, sticker_rain)
    flow.connect(tweets, sticker_tweets)
    flow.connect_control(trigger, rain)
    flow.connect_control(trigger, tweets)
    return flow


def _keyed_flow(params: dict) -> Dataflow:
    """Blocking operators only: grouped AVG -> warehouse, and an
    equi-join of temperature with humidity on station -> collector."""
    flow = Dataflow("keyed-state")
    temp = flow.add_source(
        SubscriptionFilter(sensor_type="temperature"), node_id="temperature")
    hum = flow.add_source(
        SubscriptionFilter(sensor_type="humidity"), node_id="humidity")
    average = flow.add_operator(
        AggregationSpec(interval=params["window"],
                        attributes=("temperature",), function="AVG",
                        group_by="station"),
        node_id="station-avg")
    join = flow.add_operator(
        JoinSpec(interval=params["join"],
                 predicate="left.station == right.station"),
        node_id="temp-hum")
    warehouse = flow.add_sink("warehouse", node_id="event-warehouse")
    pairs = flow.add_sink("collector", node_id="pairs")
    flow.connect(temp, average)
    flow.connect(average, warehouse)
    flow.connect(temp, join, port=0)
    flow.connect(hum, join, port=1)
    flow.connect(join, pairs)
    return flow


# -- one pass ----------------------------------------------------------------


class System:
    """A fresh stack with the workload's flow deployed and replay armed.

    Construction *is* the set-up the benchmark times: build the stack,
    publish the sensors, materialise the replay, deploy.  ``setup`` holds
    the split, in seconds.
    """

    def __init__(self, inputs: Inputs, obs: str = OBS_OFF,
                 time_sinks: bool = False) -> None:
        self.inputs = inputs
        clock = time.perf_counter
        t0 = clock()
        topology = Topology.star(
            leaf_count=LEAVES, capacity=NODE_CAPACITY, latency=LINK_LATENCY)
        self.stack = stack = build_stack(
            topology=topology,
            attach_fleet=False,
            backend=inputs.backend,
            time_scale=inputs.time_scale,
            latency=obs == OBS_PROBE,
            observability=(Observability(sampling=1.0)
                           if obs == OBS_TRACING else None),
        )
        if time_sinks:
            stack.sticker = stack.executor.sticker = _TimedSticker()
        t1 = clock()
        nodes = topology.node_ids
        broker = stack.broker_network
        metadata = []
        for spec in inputs.sensors:
            meta = SensorMetadata(
                sensor_id=spec.sensor_id,
                sensor_type=spec.sensor_type,
                schema=StreamSchema.build(list(spec.attrs),
                                          themes=spec.themes),
                frequency=1.0,
                location=Point(34.55 + 0.003 * spec.index,
                               135.35 + 0.003 * spec.index),
                node_id=nodes[spec.index % len(nodes)],
                physical=spec.sensor_type != "twitter",
            )
            broker.publish(meta)
            metadata.append(meta)
        t2 = clock()
        # b1 means max_batch=1 at the source: tuple-at-a-time publish when
        # the broker has it, else a batch of one.
        single = inputs.batch == 1 and hasattr(broker, "publish_data")
        publish = broker.publish_data if single else broker.publish_batch
        self.replays = []
        for spec, meta in zip(inputs.sensors, metadata):
            tuples = [
                backfill_stamp(payload=payload, metadata=meta, now=at, seq=seq)
                for seq, (at, payload) in enumerate(spec.readings)
            ]
            if single:
                items = [(t.stamp.time, t) for t in tuples]
            else:
                items = [(at, tuples[first:last])
                         for at, first, last in inputs.chunks(spec)]
            self.replays.append(Replay(
                stack.clock, publish, spec.sensor_id, items,
                record=time_sinks))
        t3 = clock()
        self.deployment = self._deploy(obs)
        t4 = clock()
        for replay in self.replays:
            replay.start()
        #: (wall s, CPU s) at the start and end of each open-loop
        #: segment's measured part, noted by clock callbacks.
        self.marks: list = []
        if time_sinks:
            for segment in inputs.segments:
                for instant in (segment.measure_from, segment.end):
                    stack.clock.schedule_at(instant, self._mark)
        self.setup = {
            "build_s": t1 - t0,
            "publish_s": t2 - t1,
            "materialise_s": t3 - t2,
            "deploy_s": t4 - t3,
            "total_s": clock() - t0,
        }
        self.events = 0

    def _deploy(self, obs: str):
        inputs = self.inputs
        executor = self.stack.executor
        if inputs.flow == "keyed":
            # CRC32 spreads the head of a Zipf(1.1) key set well enough
            # that the default 1.5 max/mean trip point is never reached;
            # a tighter one, with hot-key splitting allowed, makes the
            # elastic control loop act inside a pass.
            executor.rebalance_config = RebalanceConfig(
                imbalance_ratio=1.2, split_hot_keys=True)
            return executor.deploy(
                _keyed_flow(inputs.params),
                shards={"station-avg": inputs.params["shards"]},
                elastic=True,
            )
        gated = tuple(s.sensor_id for s in inputs.sensors
                      if s.sensor_type != "temperature")
        flow = _osaka_flow(inputs.params, gated)
        if obs != OBS_PROBE:
            return executor.deploy(flow)
        # The latency plane (per-process probes, watermarks) installs only
        # for a program that declares an SLO; this one can never fire.
        program = dataflow_to_dsn(
            flow, self.stack.broker_network.registry,
            slos=[DsnSlo(flow.name, "p99_latency", "<", 1e12, 0.0)],
        )
        return executor.deploy(program)

    def _mark(self) -> None:
        self.marks.append((time.perf_counter(), time.process_time()))

    def busy_shares(self) -> "list[float]":
        """CPU time / wall time over each segment's measured part: the
        share of the segment the process was not asleep in the pacer."""
        return [
            (c1 - c0) / (w1 - w0)
            for (w0, c0), (w1, c1) in zip(self.marks[::2], self.marks[1::2])
        ]

    def run(self) -> int:
        """Run the clock to the horizon; returns events executed."""
        self.events = self.stack.clock.run_until(
            self.inputs.horizon,
            max_events=1_000_000 + 64 * self.inputs.tuples,
        )
        return self.events

    def close(self) -> None:
        self.stack.close()

    # -- what came out ------------------------------------------------------

    def warehouse_rows(self) -> Counter:
        measure = ("avg_rain_rate" if self.inputs.flow == "osaka"
                   else "avg_temperature")
        return Counter(
            (fact.event_time, fact.attributes.get("station"),
             fact.measures.get(measure))
            for fact in self.stack.warehouse.facts
        )

    def sticker_bins(self) -> Counter:
        counts: Counter = Counter()
        sums: dict = {}
        for point in self.stack.sticker.bins():
            counts[point.theme] += point.count
            per_theme = sums.setdefault(point.theme, {})
            for name, total in point.numeric_sums.items():
                per_theme[name] = per_theme.get(name, 0.0) + total
        return Counter({
            (theme, count, tuple(sorted(sums[theme].items()))): 1
            for theme, count in counts.items()
        })

    def pairs(self) -> Counter:
        if "pairs" not in self.deployment.collectors:
            return Counter()
        return Counter(
            (t["left_station"], t["temperature"], t["humidity"], t.stamp.time)
            for t in self.deployment.collected("pairs")
        )

    def sticker_arrivals(self) -> list:
        """(sensor id, seq, wall ns) per Sticker push (timed sinks only)."""
        return self.stack.sticker.arrivals

    def publishes(self):
        """(scheduled instant, wall ns) per publish call (timed only)."""
        for replay in self.replays:
            for (at, _), fired in zip(replay.items, replay.fired_ns):
                yield at, fired

    def counters(self) -> dict:
        """The program's own public counters after the run."""
        stack = self.stack
        broker = stack.broker_network
        net = stack.netsim.stats
        out = {
            "publish_calls": sum(r.published for r in self.replays),
            "deliveries": broker.data_messages_sent,
            "tuples_suppressed": broker.data_tuples_suppressed,
            "dead_lettered": broker.data_messages_dead_lettered,
            "retried": broker.data_messages_retried,
            "net_messages": net.messages_sent,
            "net_bytes": net.bytes_sent,
            "net_dropped": net.messages_dropped,
            "events": self.events,
            "warehouse_rows": stack.warehouse.loaded,
            "warehouse_rejected": stack.warehouse.rejected,
            "sticker_pushed": stack.sticker.pushed,
            "backpressure_stalls": getattr(
                stack.backend, "backpressure_stalls", 0),
            "quarantined": 0,
            "fused_in": 0, "fused_out": 0,
            "activations": 0, "pairs_out": 0,
            "migrations": 0, "splits": 0,
        }
        for process in self.deployment.processes.values():
            operator = process.operator
            members = getattr(operator, "members", (operator,))
            out["quarantined"] += sum(m.stats.errors for m in members)
            layer = operator_layer(type(operator))
            if layer == "streams.fused":
                out["fused_in"] += operator.stats.tuples_in
                out["fused_out"] += operator.stats.tuples_out
            elif layer == "streams.trigger":
                out["activations"] += operator.stats.controls_issued
            elif layer == "streams.join":
                out["pairs_out"] += operator.stats.tuples_out
        loads = [
            member.operator.stats.tuples_in
            for group in self.deployment.shard_groups.values()
            for member in group.members
        ]
        out["shard_skew"] = (
            max(loads) * len(loads) / sum(loads) if loads and sum(loads)
            else 0.0)
        for rebalancer in self.deployment.rebalancers.values():
            out["migrations"] += rebalancer.executor.migrations_done
            out["splits"] += len(rebalancer.executor.split_keys)
        by_flush = Counter(
            fact.event_time for fact in stack.warehouse.facts)
        out["groups_max"] = max(by_flush.values(), default=0)
        return out
