"""The warehouse loader: stream tuples -> dimensioned event facts.

The load path is exactly what a StreamLoader warehouse sink does in demo
part P2: each arriving tuple is split into numeric measures and textual
attributes, its STT stamp is interned into the time/space/theme/source
dimensions, and the fact is appended.  Malformed tuples (no numeric
measure and no attributes, or stampless) are quarantined and counted,
never raising into the stream.
"""

from __future__ import annotations

from repro.streams.tuple import UNSEEN, SensorTuple, TupleBatch, message_members
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
    >>> warehouse.load(some_batch)          # doctest: +SKIP
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
        self,
        payload: "SensorTuple | TupleBatch",
        value_attribute: "str | None" = None,
    ) -> "EventFact | None":
        """Load a message's tuples, in order; returns the last member's
        fact, or None if it was quarantined (a lone tuple's own outcome).

        With ``value_attribute``, only that attribute becomes a measure
        (the sink's projection); otherwise every numeric attribute does.

        Each dimension key is resolved once per run of consecutive loaded
        members sharing what it derives from — an aggregation flush shares
        one time granule throughout and one cell, source and theme set per
        gateway — so dimensions still intern in first-seen order.
        """
        facts = self.facts
        fact = None
        last_time = last_temporal = last_location = last_spatial = UNSEEN
        last_source = last_themes = UNSEEN
        for tuple_ in message_members(payload):
            fact = None
            values = tuple_.payload
            if value_attribute is not None:
                # The sink's projection: one measure, everything else
                # kept verbatim as attributes.
                value = values.get(value_attribute)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    self.rejected += 1
                    continue
                measures = {value_attribute: float(value)}
                attributes = dict(values)
                del attributes[value_attribute]
            else:
                measures = {}
                attributes = {}
                for name, value in values.items():
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
                    continue

            stamp = tuple_.stamp
            time = stamp.time
            temporal = stamp.temporal_granularity
            if time != last_time or temporal is not last_temporal:
                time_key = self.time_dim.key_for(time, temporal)
                last_time, last_temporal = time, temporal
            location = stamp.location
            spatial = stamp.spatial_granularity
            if location is not last_location or spatial is not last_spatial:
                space_key = self.space_dim.key_for(location, spatial)
                last_location, last_spatial = location, spatial
            source = tuple_.source
            if source != last_source:
                source_key = self.source_dim.key_for(source)
                last_source = source
            themes = stamp.themes
            if themes is not last_themes:
                theme_keys = tuple(map(self.theme_dim.key_for, themes))
                last_themes = themes
            fact = EventFact(  # positionally, in field order: one call per row
                len(facts), time_key, space_key, source_key, theme_keys,
                measures, attributes, time,
            )
            facts.append(fact)
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

    def __len__(self) -> int:
        return len(self.facts)
