"""The warehouse loader: stream tuples -> dimensioned event facts.

The load path is exactly what a StreamLoader warehouse sink does in demo
part P2: each arriving tuple is split into numeric measures and textual
attributes, its STT stamp is interned into the time/space/theme/source
dimensions, and the fact's fields are appended to the fact table's
columns (:class:`~repro.warehouse.facts.FactSegment`).  Malformed tuples
(no numeric measure and no attributes, or stampless) are quarantined and
counted, never raising into the stream.
"""

from __future__ import annotations

from repro.streams.tuple import UNSEEN, SensorTuple, TupleBatch, message_members
from repro.warehouse.dimensions import (
    SourceDimension,
    SpaceDimension,
    ThemeDimension,
    TimeDimension,
)
from repro.warehouse.facts import EventFact, FactSegment, FactsView
from repro.warehouse.query import WarehouseQuery


class EventWarehouse:
    """An in-process multidimensional event store.

    The fact table is ``segments``: maximal runs of loaded facts sharing
    their measure and attribute names, stored as columns; the open run
    continues across ``load`` calls while the names hold.  ``facts`` is a
    read-only view that builds each :class:`EventFact` as it is read.

    ``load`` takes one tuple or a whole batch.

    >>> warehouse = EventWarehouse()
    >>> warehouse.query().count()
    0
    """

    def __init__(self) -> None:
        self.time_dim = TimeDimension()
        self.space_dim = SpaceDimension()
        self.theme_dim = ThemeDimension()
        self.source_dim = SourceDimension()
        self.segments: list[FactSegment] = []
        self._starts: list[int] = []  # each segment's first fact id
        self.loaded = 0
        self.rejected = 0

    @property
    def facts(self) -> FactsView:
        """Every loaded fact, in load order (ids dense from 0)."""
        return FactsView(self.segments, self._starts)

    def load(
        self,
        payload: "SensorTuple | TupleBatch",
        value_attribute: "str | None" = None,
    ) -> "EventFact | None":
        """Load a message's tuples, in order; returns the last member's
        fact (a value equal to ``facts[-1]``), or None if it was
        quarantined (a lone tuple's own outcome).

        With ``value_attribute``, only that attribute becomes a measure
        (the sink's projection); otherwise every numeric attribute does.

        Each dimension key is resolved once per run of consecutive loaded
        members sharing what it derives from — an aggregation flush shares
        one time granule throughout and one cell, source and theme set per
        gateway — so dimensions still intern in first-seen order.  A row
        whose measure or attribute names differ from the open segment's
        opens a new one; otherwise appending it is a few list appends.
        """
        segments = self.segments
        segment = segments[-1] if segments else None
        appended = False
        last_time = last_temporal = last_location = last_spatial = UNSEEN
        last_source = last_themes = UNSEEN
        for tuple_ in message_members(payload):
            appended = False
            values = tuple_.payload
            if value_attribute is not None:
                # The sink's projection: one measure, everything else
                # kept verbatim as attributes.
                value = values.get(value_attribute)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    self.rejected += 1
                    continue
                measure_names = [value_attribute]
                measures = [float(value)]
                attribute_names = [
                    name for name in values if name != value_attribute]
                attributes = [values[name] for name in attribute_names]
            else:
                measure_names, measures = [], []
                attribute_names, attributes = [], []
                for name, value in values.items():
                    # Exact types first; the isinstance ladder is for
                    # subclasses (numpy floats) and everything else.
                    kind = type(value)
                    if kind is float:
                        measure_names.append(name)
                        measures.append(value)
                    elif kind is str:
                        attribute_names.append(name)
                        attributes.append(value)
                    elif kind is int:
                        measure_names.append(name)
                        measures.append(float(value))
                    elif isinstance(value, bool):
                        attribute_names.append(name)
                        attributes.append(value)
                    elif isinstance(value, (int, float)):
                        measure_names.append(name)
                        measures.append(float(value))
                    elif value is not None:
                        attribute_names.append(name)
                        attributes.append(value)
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
            if (segment is None or measure_names != segment.measure_names
                    or attribute_names != segment.attribute_names):
                segment = FactSegment(self.loaded, measure_names, attribute_names)
                segments.append(segment)
                self._starts.append(self.loaded)
            segment.time_keys.append(time_key)
            segment.space_keys.append(space_key)
            segment.source_keys.append(source_key)
            segment.theme_keys.append(theme_keys)
            segment.event_times.append(time)
            for column, value in zip(segment.measures, measures):
                column.append(value)
            for column, value in zip(segment.attributes, attributes):
                column.append(value)
            self.loaded += 1
            appended = True
        if not appended:
            return None
        # Built from the last member's own values, not read back.
        return EventFact(
            self.loaded - 1, time_key, space_key, source_key, theme_keys,
            dict(zip(measure_names, measures)),
            dict(zip(attribute_names, attributes)), time,
        )

    def query(self) -> WarehouseQuery:
        """Start a fluent query over the loaded facts."""
        return WarehouseQuery(self)

    def __len__(self) -> int:
        return self.loaded
