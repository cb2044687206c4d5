"""The warehouse loader: stream tuples -> dimensioned event facts.

The load path is exactly what a StreamLoader warehouse sink does in demo
part P2: each arriving tuple is split into numeric measures and textual
attributes, its STT stamp is interned into the time/space/theme/source
dimensions, and the fact is appended.  Malformed tuples (no numeric
measure and no attributes, or stampless) are quarantined and counted,
never raising into the stream.
"""

from __future__ import annotations

from repro.streams.tuple import SensorTuple
from repro.warehouse.dimensions import (
    SourceDimension,
    SpaceDimension,
    ThemeDimension,
    TimeDimension,
)
from repro.warehouse.facts import EventFact
from repro.warehouse.query import WarehouseQuery


class EventWarehouse:
    """An in-process multidimensional event store.

    >>> warehouse = EventWarehouse()
    >>> warehouse.load(some_tuple)          # doctest: +SKIP
    >>> warehouse.query().count()           # doctest: +SKIP
    """

    def __init__(self) -> None:
        self.time_dim = TimeDimension()
        self.space_dim = SpaceDimension()
        self.theme_dim = ThemeDimension()
        self.source_dim = SourceDimension()
        self.facts: list[EventFact] = []
        self.loaded = 0
        self.rejected = 0

    def load(
        self, tuple_: SensorTuple, value_attribute: "str | None" = None
    ) -> "EventFact | None":
        """Load one tuple; returns the fact, or None if quarantined.

        With ``value_attribute``, only that attribute becomes a measure
        (the sink's projection); otherwise every numeric attribute does.
        """
        payload = tuple_.payload
        if value_attribute is not None:
            # The sink's projection: one measure, everything else kept
            # verbatim as attributes.
            value = payload.get(value_attribute)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.rejected += 1
                return None
            measures = {value_attribute: float(value)}
            attributes = dict(payload)
            del attributes[value_attribute]
        else:
            measures = {}
            attributes = {}
            for name, value in payload.items():
                # Exact types first; the isinstance ladder is for
                # subclasses (numpy floats) and everything else.
                kind = type(value)
                if kind is float:
                    measures[name] = value
                elif kind is str:
                    attributes[name] = value
                elif kind is int:
                    measures[name] = float(value)
                elif isinstance(value, bool):
                    attributes[name] = value
                elif isinstance(value, (int, float)):
                    measures[name] = float(value)
                elif value is not None:
                    attributes[name] = value
            if not measures and not attributes:
                self.rejected += 1
                return None

        stamp = tuple_.stamp
        time = stamp.time
        fact = EventFact(  # positionally, in field order: one call per row
            len(self.facts),
            self.time_dim.key_for(time, stamp.temporal_granularity),
            self.space_dim.key_for(stamp.location, stamp.spatial_granularity),
            self.source_dim.key_for(tuple_.source),
            tuple(map(self.theme_dim.key_for, stamp.themes)),
            measures,
            attributes,
            time,
        )
        self.facts.append(fact)
        self.loaded += 1
        return fact

    def query(self) -> WarehouseQuery:
        """Start a fluent query over the loaded facts."""
        return WarehouseQuery(self)

    def iter_rows(self):
        """Denormalised fact rows (dimension members joined back in).

        Yields dicts with the event time, granularity names, cell indices,
        source, themes, and the measure/attribute payload — the export
        format for downstream analysis tools.
        """
        for fact in self.facts:
            time_member = self.time_dim.member(fact.time_key)
            space_member = self.space_dim.member(fact.space_key)
            yield {
                "fact_id": fact.fact_id,
                "event_time": fact.event_time,
                "time_granularity": time_member.granularity,
                "granule_start": time_member.start,
                "space_granularity": space_member.granularity,
                "cell_row": space_member.row,
                "cell_col": space_member.col,
                "source": self.source_dim.member(fact.source_key),
                "themes": [self.theme_dim.member(k) for k in fact.theme_keys],
                "measures": dict(fact.measures),
                "attributes": dict(fact.attributes),
            }

    def to_csv(self, path: str) -> int:
        """Write the denormalised rows to a CSV file; returns row count.

        Measures become one column each (union over all facts); themes are
        joined with ``|``; non-scalar attributes are stringified.
        """
        import csv

        measure_names = sorted({
            name for fact in self.facts for name in fact.measures
        })
        attribute_names = sorted({
            name for fact in self.facts for name in fact.attributes
        })
        header = [
            "fact_id", "event_time", "time_granularity", "granule_start",
            "space_granularity", "cell_row", "cell_col", "source", "themes",
        ] + [f"m_{name}" for name in measure_names] + [
            f"a_{name}" for name in attribute_names
        ]
        count = 0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in self.iter_rows():
                record = [
                    row["fact_id"], row["event_time"],
                    row["time_granularity"], row["granule_start"],
                    row["space_granularity"], row["cell_row"],
                    row["cell_col"], row["source"], "|".join(row["themes"]),
                ]
                record += [row["measures"].get(name, "")
                           for name in measure_names]
                record += [row["attributes"].get(name, "")
                           for name in attribute_names]
                writer.writerow(record)
                count += 1
        return count

    def __len__(self) -> int:
        return len(self.facts)
