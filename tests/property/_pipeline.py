"""One single-node deployment harness for the pipeline parity properties.

``test_prop_batch_parity`` (batched ≡ tuple-at-a-time),
``test_prop_fusion_parity`` (fused ≡ one process per operator) and
``test_prop_columnar_parity`` (column kernels ≡ lone tuples) all deploy a
random chain of non-blocking operators between one sensor and one
collector on a single node (all delivery local, zero latency), publish a
temperature stream at one virtual instant, and compare what came out.
They differ in which knob they turn between their two runs; the flow,
the readings and the observables are the same and live here, as
``tests/parity/_compare.py`` does for the backend matrix.
"""

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import (
    CullTimeSpec,
    FilterSpec,
    TransformSpec,
    VirtualPropertySpec,
)
from repro.dsn.scn import ScnController
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.obs import Observability
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.subscription import SubscriptionFilter
from repro.runtime.executor import Executor
from repro.schema.schema import StreamSchema
from repro.sticker.feed import StickerFeed
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point
from repro.warehouse.loader import EventWarehouse

#: The four sound kinds: specs only reference attributes that every
#: pipeline stage preserves, so any chain of them deploys and never errs.
SOUND_KINDS = ("filter", "virtual", "transform", "cull")
#: Kinds that quarantine rows at runtime (division by zero exactly at
#: ``POISON_TEMPERATURE``), one per vectorized kernel family.
POISON_KINDS = ("errtransform", "errvirtual")
POISON_TEMPERATURE = 20.0


def metadata(node_id: str) -> SensorMetadata:
    return SensorMetadata(
        sensor_id="prop-sensor",
        sensor_type="temperature",
        schema=StreamSchema.build(
            {"temperature": "float", "humidity": "float"},
            themes=("weather/temperature",),
        ),
        frequency=1.0,
        location=Point(34.69, 135.50),
        node_id=node_id,
    )


def reading(seq: int, temperature: float) -> SensorTuple:
    return SensorTuple(
        payload={"temperature": temperature, "humidity": 50.0 + seq % 3},
        stamp=SttStamp(time=float(seq), location=Point(34.69, 135.50),
                       themes=("weather/temperature",)),
        source="prop-sensor",
        seq=seq,
    )


def spec(kind: str, param: int, index: int):
    """Map a drawn ``(kind, param)`` at chain position ``index`` to a spec."""
    if kind == "filter":
        return FilterSpec(f"temperature > {param - 16}")
    if kind == "virtual":
        return VirtualPropertySpec(f"v{index}", "temperature * 2")
    if kind == "transform":
        return TransformSpec(assignments={"humidity": "humidity + 1"})
    if kind == "errtransform":
        return TransformSpec(
            assignments={"ratio": "temperature / (temperature - 20)"}
        )
    if kind == "errvirtual":
        return VirtualPropertySpec(
            f"e{index}", "humidity / (temperature - 20)"
        )
    return CullTimeSpec(rate=param % 4 + 1, start=0.0, end=1e9)


def operator_stats(deployment, name: str) -> dict:
    """A member's stats, whether it runs alone or inside a fused chain."""
    key = deployment.fused.get(name)
    if key is None:
        return deployment.processes[name].operator.stats.snapshot()
    for member in deployment.processes[key].operator.members:
        if member.name == name:
            return member.stats.snapshot()
    raise AssertionError(f"{name} not found in fused process {key}")


def run_flow(chain, temperatures, batch_size, sampling=0.0, fuse=True,
             fail_at=None):
    """Deploy the chain on one node and drive it at one virtual instant.

    ``batch_size`` 1 publishes every reading on its own
    (``publish_data``), anything larger in runs of that many
    (``publish_batch``).  ``sampling`` is the trace-sampling rate
    (``None``: no observability attached at all).  ``fail_at`` fails the
    hub before the first publication starting at or after that many
    readings: the earlier ones are delivered, the rest exercise the
    dead-letter audit path.

    Returns every observable the parity properties compare.
    """
    topology = Topology()
    topology.add_node("hub")
    netsim = NetworkSimulator(topology=topology)
    network = BrokerNetwork(netsim=netsim)
    obs = None if sampling is None else Observability(sampling=sampling)
    executor = Executor(
        netsim, network, scn=ScnController(topology),
        warehouse=EventWarehouse(), sticker=StickerFeed(), obs=obs,
    )
    network.publish(metadata("hub"))

    dead_letters: list = []
    network.on_dead_letter = lambda subscription, tuple_, reason: (
        dead_letters.append((subscription.node_id, tuple_.seq, reason))
    )

    flow = Dataflow("parity")
    upstream = flow.add_source(
        SubscriptionFilter(sensor_type="temperature"), node_id="src"
    )
    names = []
    for index, (kind, param) in enumerate(chain):
        name = f"op{index}"
        flow.add_operator(spec(kind, param, index), node_id=name)
        flow.connect(upstream, name)
        upstream = name
        names.append(name)
    flow.add_sink("collector", node_id="out")
    flow.connect(upstream, "out")
    deployment = executor.deploy(flow, fuse=fuse)

    # Sanity: the whole chain fused exactly when asked to (otherwise a
    # comparison silently degenerates into like against like).
    assert bool(deployment.fused_chains) is (fuse and len(chain) >= 2)

    readings = [reading(i, t) for i, t in enumerate(temperatures)]
    for start in range(0, len(readings), batch_size):
        if fail_at is not None and start >= fail_at:
            # Deliver what was published so far: the failure is mid-stream.
            netsim.clock.run_until(netsim.clock.now)
            topology.node("hub").fail()
            fail_at = None
        if batch_size == 1:
            network.publish_data("prop-sensor", readings[start])
        else:
            network.publish_batch(
                "prop-sensor", readings[start:start + batch_size]
            )
    netsim.clock.run_until(200.0)

    counters = {}
    for name in names:
        counter = None if obs is None else obs.metrics.get(
            "process_tuples_total", process=f"parity:{name}"
        )
        counters[name] = None if counter is None else counter.value

    return {
        "collected": deployment.collected("out"),
        "member_stats": {name: operator_stats(deployment, name)
                         for name in names},
        "counters": counters,
        "dead_letters": dead_letters,
        "checkpoints": {
            name: process.operator.checkpoint()
            for name, process in sorted(deployment.processes.items())
        },
        "tuples_delivered": netsim.stats.tuples_sent,
    }
