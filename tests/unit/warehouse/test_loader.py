"""Unit tests for the warehouse loader."""

import pytest

from repro.streams.tuple import TupleBatch
from repro.stt.event import SttStamp
from repro.stt.spatial import Point, grid_cell_for, representative_point
from repro.stt.temporal import align_instant
from repro.warehouse.dimensions import SpaceMember, TimeMember
from repro.warehouse.loader import EventWarehouse


@pytest.fixture
def warehouse():
    return EventWarehouse()


class TestLoad:
    def test_measures_and_attributes_split(self, make_tuple, warehouse):
        fact = warehouse.load(make_tuple(0, temperature=25.5, station="umeda"))
        assert fact.measures == {"temperature": 25.5, "humidity": 0.6}
        assert fact.attributes == {"station": "umeda"}
        assert len(warehouse) == 1

    def test_value_attribute_projection(self, make_tuple, warehouse):
        fact = warehouse.load(make_tuple(0, temperature=25.5),
                              value_attribute="temperature")
        assert fact.measures == {"temperature": 25.5}
        assert "humidity" in fact.attributes

    def test_missing_value_attribute_rejected(self, make_tuple, warehouse):
        assert warehouse.load(make_tuple(0), value_attribute="ghost") is None
        assert warehouse.rejected == 1
        assert len(warehouse) == 0

    def test_bool_is_attribute_not_measure(self, make_tuple, warehouse):
        tuple_ = make_tuple(0).with_updates(cancelled=True)
        fact = warehouse.load(tuple_)
        assert "cancelled" in fact.attributes
        assert "cancelled" not in fact.measures

    def test_empty_payload_rejected(self, make_tuple, warehouse):
        empty = make_tuple(0).with_payload({})
        assert warehouse.load(empty) is None
        assert warehouse.rejected == 1

    def test_none_values_skipped(self, make_tuple, warehouse):
        tuple_ = make_tuple(0).with_updates(extra=None)
        fact = warehouse.load(tuple_)
        assert "extra" not in fact.measures
        assert "extra" not in fact.attributes

    def test_dimensions_shared_across_facts(self, make_tuple, warehouse):
        a = warehouse.load(make_tuple(0, time=10.0))
        b = warehouse.load(make_tuple(1, time=20.0))
        assert a.time_key != b.time_key  # different seconds
        # Same source and location intern to the same keys.
        assert a.source_key == b.source_key
        assert a.space_key == b.space_key

    def test_fact_ids_dense(self, make_tuple, warehouse):
        facts = [warehouse.load(make_tuple(i, time=float(i))) for i in range(5)]
        assert [fact.fact_id for fact in facts] == [0, 1, 2, 3, 4]

    def test_event_time_preserved_unaligned(self, make_tuple, warehouse):
        fact = warehouse.load(make_tuple(0, time=3725.5))
        assert fact.event_time == 3725.5


class _ReferenceWarehouse:
    """The load path written the obvious way: build each dimension member,
    intern it in first-seen order, append the fact as a plain tuple."""

    def __init__(self):
        #: dimension -> {member: key}, keys dense in first-seen order.
        self.members = {"time": {}, "space": {}, "source": {}, "theme": {}}
        self.facts = []
        self.rejected = 0

    def _key(self, dimension, member):
        members = self.members[dimension]
        return members.setdefault(member, len(members))

    def load(self, tuple_, value_attribute):
        measures, attributes = {}, {}
        for name, value in tuple_.payload.items():
            if value_attribute is not None and name != value_attribute:
                attributes[name] = value
            elif isinstance(value, bool):
                attributes[name] = value
            elif isinstance(value, (int, float)):
                measures[name] = float(value)
            elif value is not None:
                attributes[name] = value
        if value_attribute is not None and value_attribute not in measures:
            self.rejected += 1
            return
        if not measures and not attributes:
            self.rejected += 1
            return
        stamp = tuple_.stamp
        spatial = stamp.spatial_granularity
        if spatial.cell_meters <= 0:
            spatial = "block"
        cell = grid_cell_for(representative_point(stamp.location), spatial)
        temporal = stamp.temporal_granularity
        self.facts.append((
            len(self.facts),
            self._key("time", TimeMember(
                temporal.name, align_instant(stamp.time, temporal))),
            self._key("space", SpaceMember(
                cell.granularity.name, cell.row, cell.col)),
            self._key("source", tuple_.source or "(unknown)"),
            tuple(self._key("theme", theme.path) for theme in stamp.themes),
            measures,
            attributes,
            stamp.time,
        ))


class TestReferenceEquivalence:
    @pytest.mark.parametrize("value_attribute", [None, "reading"])
    def test_mixed_stream_equals_reference(
        self, mixed_stream, feedings, value_attribute
    ):
        reference = _ReferenceWarehouse()
        for tuple_ in mixed_stream:
            reference.load(tuple_, value_attribute)
        # However the stream is cut into messages, facts and the four
        # dimension tables (members in first-seen order) are the
        # reference's.
        for label, messages in feedings(mixed_stream).items():
            warehouse = EventWarehouse()
            for message in messages:
                warehouse.load(message, value_attribute=value_attribute)
            assert warehouse.rejected == reference.rejected > 0, label
            assert warehouse.loaded == len(reference.facts), label
            got = [
                (f.fact_id, f.time_key, f.space_key, f.source_key,
                 f.theme_keys, f.measures, f.attributes, f.event_time)
                for f in warehouse.facts
            ]
            assert got == reference.facts, label
            assert all(
                type(v) is float
                for f in warehouse.facts for v in f.measures.values()
            ), label
            for name, dim in (("time", warehouse.time_dim),
                              ("space", warehouse.space_dim),
                              ("source", warehouse.source_dim),
                              ("theme", warehouse.theme_dim)):
                assert [dim.member(k) for k in range(len(dim))] == list(
                    reference.members[name]
                ), (label, name)

    def test_a_run_ends_where_what_a_key_derives_from_changes(self, make_tuple):
        # Consecutive members that differ in exactly one thing a
        # dimension key derives from, the rest shared by identity.
        first = make_tuple(0, time=10.0)
        stamp = first.stamp

        def restamped(time=stamp.time, location=stamp.location,
                      temporal=stamp.temporal_granularity,
                      spatial=stamp.spatial_granularity, themes=stamp.themes):
            return first.with_stamp(SttStamp(
                time=time, location=location, temporal_granularity=temporal,
                spatial_granularity=spatial, themes=themes))

        members = [
            first,
            restamped(time=7200.0),
            restamped(temporal="hour"),
            restamped(location=Point(35.5, 136.5)),
            restamped(spatial="city"),
            restamped(themes=("weather/rain",)),
            first.relabelled("elsewhere"),
            first,
        ]
        batched, lone = EventWarehouse(), EventWarehouse()
        batched.load(TupleBatch.of(members))
        for member in members:
            lone.load(member)
        assert batched.facts == lone.facts
        assert len({f.time_key for f in batched.facts}) == 3
        assert len({f.space_key for f in batched.facts}) == 3
        assert len({f.source_key for f in batched.facts}) == 2
        assert len({f.theme_keys for f in batched.facts}) == 2

    def test_load_returns_the_last_members_outcome(
            self, make_tuple, warehouse):
        good, bad = make_tuple(0), make_tuple(1).with_payload({"only": None})
        # A lone tuple: its fact, or None when quarantined.
        assert warehouse.load(good) is warehouse.facts[-1]
        assert warehouse.load(bad) is None
        assert warehouse.load(TupleBatch.of([bad, good])) is warehouse.facts[-1]
        assert warehouse.load(TupleBatch.of([good, bad])) is None
        assert (warehouse.loaded, warehouse.rejected) == (3, 3)
