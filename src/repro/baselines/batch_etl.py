"""Offline batch ETL baseline: collect everything, process later.

The traditional pipeline the paper's motivation argues against: raw sensor
data is shipped unfiltered to a collection point during the acquisition
period and the ETL operators run only when the batch closes.  Two costs
become measurable against StreamLoader's on-line execution:

- **traffic**: every raw tuple crosses the network (no trigger gating,
  no in-network filtering or culling);
- **staleness**: a reading is not analysable until the batch closes, so
  the mean staleness is ~half the batch period plus processing time,
  versus ~the operator interval for the streaming dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.graph import Dataflow
from repro.dsn.check import check
from repro.dsn.generate import dataflow_to_dsn
from repro.designer.preview import replay_samples
from repro.network.netsim import NetworkSimulator
from repro.pubsub.broker import BrokerNetwork
from repro.streams.tuple import SensorTuple
from repro.warehouse.loader import EventWarehouse


@dataclass
class BatchEtlReport:
    """Outcome of one batch run."""

    collected: int
    loaded: int
    batch_close_time: float
    mean_staleness: float
    link_bytes: float


class BatchEtlPipeline:
    """Collect raw streams centrally, then run the dataflow as a batch.

    At close time the dataflow is deployed on a throwaway simulator and
    the batch replayed at its stamp times (:func:`replay_samples`), so
    outputs are comparable tuple-for-tuple with the streaming run,
    blocking operators included, while the cost profile is offline.
    """

    def __init__(
        self,
        netsim: NetworkSimulator,
        broker_network: BrokerNetwork,
        flow: Dataflow,
        collection_node: str,
        warehouse: "EventWarehouse | None" = None,
    ) -> None:
        registry = broker_network.registry
        check(dataflow_to_dsn(flow, registry), registry).raise_if_invalid()
        self.netsim = netsim
        self.broker_network = broker_network
        self.flow = flow
        self.collection_node = collection_node
        # Explicit None check: an empty EventWarehouse is falsy (len 0).
        self.warehouse = warehouse if warehouse is not None else EventWarehouse()
        self._raw: dict[str, list[SensorTuple]] = {
            source_id: [] for source_id in flow.sources
        }
        self._subscriptions = []
        self._arrival: dict[int, float] = {}

    # -- collection phase -----------------------------------------------------

    def start_collection(self) -> None:
        """Subscribe to every source's sensors, raw, at the central node.

        Note what is *not* here: no trigger gating, no filters — offline
        ETL ships everything because it cannot know yet what matters.
        """
        for source_id, source in self.flow.sources.items():
            subscription = self.broker_network.subscribe(
                node_id=self.collection_node,
                filter_=source.filter,
                callback=lambda t, sid=source_id: self._collect(sid, t),
            )
            self._subscriptions.append(subscription)

    def _collect(self, source_id: str, tuple_: SensorTuple) -> None:
        self._raw[source_id].append(tuple_)
        self._arrival[id(tuple_)] = self.netsim.clock.now

    @property
    def collected(self) -> int:
        return sum(len(batch) for batch in self._raw.values())

    # -- batch close ----------------------------------------------------------

    def close_batch(self) -> BatchEtlReport:
        """Stop collecting, run the dataflow over the batch, load results."""
        for subscription in self._subscriptions:
            self.broker_network.unsubscribe(subscription)
        self._subscriptions.clear()

        close_time = self.netsim.clock.now
        result = replay_samples(
            self.flow, self._raw, self.broker_network.registry,
            self.netsim.topology,
        )
        loaded = 0
        for sink_id, sink in self.flow.sinks.items():
            for tuple_ in result.at(sink_id):
                if sink.sink_kind == "warehouse":
                    if self.warehouse.load(tuple_) is not None:
                        loaded += 1
        staleness = [
            close_time - tuple_.stamp.time
            for batch in self._raw.values()
            for tuple_ in batch
        ]
        return BatchEtlReport(
            collected=self.collected,
            loaded=loaded,
            batch_close_time=close_time,
            mean_staleness=(sum(staleness) / len(staleness)) if staleness else 0.0,
            link_bytes=self.netsim.total_link_bytes(),
        )
