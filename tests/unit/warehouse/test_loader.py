"""Unit tests for the warehouse loader."""

from dataclasses import replace
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.tuple import TupleBatch
from repro.stt.event import SttStamp
from repro.stt.spatial import Box, Point, grid_cell_for, representative_point
from repro.stt.temporal import align_instant
from repro.warehouse.dimensions import SpaceMember, TimeMember
from repro.warehouse.facts import EventFact
from repro.warehouse.loader import EventWarehouse
from tests.builders import weather_reading


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
        tuple_ = make_tuple(0, cancelled=True)
        fact = warehouse.load(tuple_)
        assert "cancelled" in fact.attributes
        assert "cancelled" not in fact.measures

    def test_empty_payload_rejected(self, make_tuple, warehouse):
        empty = make_tuple(0).with_owned_payload({})
        assert warehouse.load(empty) is None
        assert warehouse.rejected == 1

    def test_none_values_skipped(self, make_tuple, warehouse):
        tuple_ = make_tuple(0, extra=None)
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


def _assert_matches(warehouse, reference, label):
    """Facts, dimension tables and every read path equal the reference's."""
    expected = [EventFact(*fact) for fact in reference.facts]
    facts = warehouse.facts
    assert warehouse.rejected == reference.rejected, label
    assert len(facts) == len(warehouse) == warehouse.loaded == len(expected)
    assert all(mine == theirs for mine, theirs in zip(facts, expected)), label
    assert facts == expected and facts[::-3] == expected[::-3], label
    if expected:
        assert (facts[-1], facts[-len(expected)]) == (expected[-1], expected[0])
    assert all(type(v) is float for f in facts for v in f.measures.values())
    # A segment per maximal run of one measure/attribute name sequence.
    shapes = [(list(f.measures), list(f.attributes)) for f in expected]
    assert len(warehouse.segments) == sum(
        1 for i, shape in enumerate(shapes) if not i or shape != shapes[i - 1])
    for name, dim in (("time", warehouse.time_dim),
                      ("space", warehouse.space_dim),
                      ("source", warehouse.source_dim),
                      ("theme", warehouse.theme_dim)):
        assert [dim.member(k) for k in range(len(dim))] == list(
            reference.members[name]), (label, name)
    query = warehouse.query
    assert query().facts() == expected and query().count() == len(expected)
    weather = {key for path, key in reference.members["theme"].items()
               if path.split("/")[0] == "weather"}
    assert query().theme("weather").facts() == [
        f for f in expected if weather.intersection(f.theme_keys)]
    for source in ("", "bus-12", "sensor-1"):
        key = reference.members["source"].get(source or "(unknown)")
        assert query().source(source).facts() == [
            f for f in expected if f.source_key == key]
    box = Box(south=34.5, west=135.2, north=34.9, east=135.8)
    assert query().area(box).facts() == [
        f for f in expected
        if box.contains(warehouse.space_dim.cell(f.space_key).center())]
    hours = Counter(align_instant(f.event_time, "hour") for f in expected)
    assert [(row.group[0], row.count) for row in query().rollup_time(
        "hour", "reading", "count")] == sorted(hours.items())
    sums: dict = {}
    for f in expected:
        if "reading" in f.measures:
            sums.setdefault(align_instant(f.event_time, "hour"), []).append(
                f.measures["reading"])
    rows = query().rollup_time("hour", "reading", "sum")
    assert [row.group[0] for row in rows] == sorted(sums)
    np.testing.assert_array_equal([row.value for row in rows], [
        float(np.asarray(sums[hour]).sum()) for hour in sorted(sums)])


#: Drawn rows' payloads, over ``weather_reading()``'s temperature,
#: humidity and station (``...`` leaves one out): measure and attribute
#: name sequences that repeat, differ in order only, or quarantine the row.
_SHAPES = [
    {},
    {"reading": math.nan},
    {"reading": np.float64(1.25), "ok": True},
    {"reading": True, "note": np.int64(4), "humidity": None},
    {"station": ..., "reading": 7, "extra": None},
    {"temperature": ..., "humidity": ..., "station": ..., "only": None},
]


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
            assert warehouse.rejected > 0, label
            _assert_matches(warehouse, reference, label)

    @settings(max_examples=100, deadline=None)
    @given(messages=st.lists(st.lists(st.tuples(
        st.sampled_from(range(len(_SHAPES))),
        st.sampled_from(["sensor-1", "", "bus-12"])), min_size=1, max_size=5),
        max_size=6), value_attribute=st.sampled_from([None, "reading"]))
    def test_drawn_messages_equal_reference(self, messages, value_attribute):
        # Shapes change within a message and across load calls, so
        # segments both split and continue from one call into the next.
        reference, warehouse = _ReferenceWarehouse(), EventWarehouse()
        seq = 0
        for message in messages:
            members = []
            for shape, source in message:
                members.append(weather_reading(
                    seq, time=seq * 900.0, source=source, **_SHAPES[shape]))
                reference.load(members[-1], value_attribute)
                seq += 1
            warehouse.load(members[0] if len(members) == 1
                           else TupleBatch.of(members), value_attribute)
        _assert_matches(warehouse, reference, messages)

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
            replace(first, source="elsewhere"),
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
        good, bad = make_tuple(0), make_tuple(1).with_owned_payload({"only": None})
        # A lone tuple: its fact, or None when quarantined.  Facts are
        # values built from the columns, so the returned one is equal.
        for message in (good, TupleBatch.of([bad, good])):
            fact = warehouse.load(message)
            assert fact == warehouse.facts[-1]
            assert fact.fact_id == len(warehouse) - 1
        assert warehouse.load(bad) is None
        assert warehouse.load(TupleBatch.of([good, bad])) is None
        assert (warehouse.loaded, warehouse.rejected) == (3, 3)
