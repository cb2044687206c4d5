"""Table 1 as one executable spec: input rows in, expected rows out.

One table per operator of the paper's Table 1.  A row gives the
operator's parameters, what arrives (readings, each on port 0 unless it
says ``port``; a float is a timer firing at that virtual time), what
leaves (payloads; keys starting with ``@`` read the stamp or the label
instead) and how many readings it quarantines.  A trigger row lists the
control commands it issues instead, as ``(activate, targets)``.

Every row runs through every shape the runtime has for its operator and
every shape must agree with the first, the reference:

- ``on_tuple`` per reading (the row kernel) — checked against the row;
- ``on_batch``, each run of readings on one port as one message;
- for a non-blocking operator, a two-member fused chain fed one reading
  at a time, and the same chain fed one uniform batch of at least
  ``MIN_COLUMNAR_ROWS`` readings (the row's readings repeated to reach
  it), which takes the column kernel where the operator has one;
- for a blocking operator with a partition key (a grouped aggregation,
  an equi-join), two ``ShardedOperatorAdapter`` replicas and the
  ``ShardMergeOperator`` that folds their flushes back together.
"""

from dataclasses import dataclass

import pytest
from pytest import approx

from repro.streams.aggregate import AggregationOperator
from repro.streams.columnar import MIN_COLUMNAR_ROWS
from repro.streams.cull import CullSpaceOperator, CullTimeOperator
from repro.streams.filter import FilterOperator
from repro.streams.join import JoinOperator
from repro.streams.shard import (
    ShardedOperatorAdapter,
    ShardMergeOperator,
    shard_index,
)
from repro.streams.transform import TransformOperator, ValidateOperator
from repro.streams.trigger import TriggerOffOperator, TriggerOnOperator
from repro.streams.tuple import SensorTuple, TupleBatch
from repro.streams.virtual import VirtualPropertyOperator
from repro.stt.spatial import Box, Point
from tests.builders import weather_reading
from tests.oracle.test_flush_oracle import observed
from tests.oracle.test_kernel_oracle import _observe


def W(**changes) -> dict:
    """The payload of ``weather_reading(**changes)``."""
    return {k: v for k, v in
            {"temperature": 20.0, "humidity": 0.6, "station": "station-1",
             **changes}.items() if v is not ...}


def pair(left=None, right=None, prefixes=("left", "right")) -> dict:
    """A join output of two readings: every attribute collides, so every
    one is prefixed."""
    return {f"{prefix}_{k}": v
            for prefix, side in zip(prefixes, (left or {}, right or {}))
            for k, v in W(**side).items()}


@dataclass(frozen=True)
class Row:
    params: dict
    feed: list
    out: list
    errors: int = 0


def _stamped(t: SensorTuple, expected: dict) -> dict:
    fields = {"@time": lambda: t.stamp.time,
              "@location": lambda: t.stamp.location,
              "@themes": lambda: tuple(th.path for th in t.stamp.themes),
              "@temporal": lambda: t.stamp.temporal_granularity.name,
              "@source": lambda: t.source}
    return {**t.payload,
            **{k: fields[k]() for k in expected if k.startswith("@")}}


GT24 = {"condition": "temperature > 24"}
OSAKA = dict(corner1=Point(34.5, 135.3), corner2=Point(34.9, 135.7))
INSIDE, TOKYO = dict(lat=34.69, lon=135.50), dict(lat=35.68, lon=139.65)
JOIN = {"interval": 60.0, "predicate": "true"}
AGG = dict(interval=60.0, attributes=["temperature"], function="AVG")
ON = dict(interval=300.0, window=3600.0, condition="avg_temperature > 25",
          targets=["rain-1", "tweets-1"])
FIRE = (True, ("rain-1", "tweets-1"))
HOT_HOUR = [{"temperature": 27.0, "time": i * 300.0} for i in range(12)]


def timed(*seqs) -> list:
    return [{**W(), "@time": float(i)} for i in seqs]


#: operator -> (constructor, {row name: row}).
TABLE1 = {
    "filter": (FilterOperator, {
        "passes_matching": Row(GT24, [{"temperature": 26.0}],
                               [W(temperature=26.0)]),
        "drops_non_matching": Row(GT24, [{"temperature": 20.0}], []),
        "boundary_not_included": Row(GT24, [{"temperature": 24.0}], []),
        "compound_condition": Row(
            {"condition": "temperature > 24 and humidity < 0.7"},
            [{"temperature": 26.0}, {"temperature": 26.0, "humidity": 0.9}],
            [W(temperature=26.0)]),
        "stats_counted": Row(GT24, [{"temperature": 26.0}, {"temperature": 20.0}],
                             [W(temperature=26.0)]),
        "error_quarantine": Row({"condition": "missing_attr > 1"},
                                [{}, {"missing_attr": 2}], [W(missing_attr=2)],
                                errors=1),
        # A uniform batch whose comparison fails on one row: the column
        # kernel quarantines it too.
        "non_numeric_quarantined": Row(
            GT24, [{"temperature": "hot"}, {"temperature": 26.0}],
            [W(temperature=26.0)], errors=1),
    }),
    "cull-time": (CullTimeOperator, {
        "reduces_inside_interval": Row(
            dict(rate=5, start=0.0, end=100.0),
            [{"time": float(i)} for i in range(100)], timed(*range(4, 100, 5))),
        "outside_interval_passes": Row(
            dict(rate=5, start=0.0, end=100.0),
            [{"time": 200.0 + i} for i in range(50)], [W()] * 50),
        "rate_one_keeps_all": Row(
            dict(rate=1, start=0.0, end=100.0),
            [{"time": float(i)} for i in range(50)], [W()] * 50),
        "deterministic_pattern": Row(
            dict(rate=3, start=0.0, end=1000.0),
            [{"time": float(i)} for i in range(9)], timed(2, 5, 8)),
    }),
    "cull-space": (CullSpaceOperator, {
        "reduces_inside_area": Row(dict(rate=4, **OSAKA), [INSIDE] * 40,
                                   [W()] * 10),
        "outside_area_passes": Row(dict(rate=4, **OSAKA), [TOKYO] * 40,
                                   [W()] * 40),
        # Outside readings always pass; inside ones alternate.
        "mixed_traffic": Row(dict(rate=2, **OSAKA), [INSIDE, TOKYO] * 3,
                             timed(1, 2, 3, 5)),
    }),
    "transform": (TransformOperator, {
        "unit_conversion": Row(
            {"assignments": {"temperature":
                             "convert(temperature, 'celsius', 'fahrenheit')"}},
            [{"temperature": 100.0}], [W(temperature=approx(212.0))]),
        "new_attribute_via_assignment": Row(
            {"assignments": {"double_temp": "temperature * 2"}},
            [{"temperature": 21.0}], [W(temperature=21.0, double_temp=42.0)]),
        "assignments_see_original_values_only": Row(
            {"assignments": {"temperature": "temperature + 1",
                             "copy": "temperature"}},
            [{"temperature": 10.0}], [W(temperature=11.0, copy=10.0)]),
        "error_quarantined": Row(
            {"assignments": {"x": "1 / temperature"}},
            [{"temperature": 0.0}, {"temperature": 4.0}],
            [W(temperature=4.0, x=0.25)], errors=1),
        "rename": Row({"rename": {"temperature": "temp_c"}}, [{}],
                      [W(temperature=..., temp_c=20.0)]),
        "project": Row({"project": ["station"]}, [{}], [{"station": "station-1"}]),
        "assign_rename_project_pipeline": Row(
            dict(assignments={"f": "convert(temperature, 'c', 'f')"},
                 rename={"f": "temp_f"}, project=["temp_f", "station"]),
            [{"temperature": 0.0}],
            [{"temp_f": approx(32.0), "station": "station-1"}]),
        # Hostile input: a reading lacking a projected attribute is
        # quarantined, never a KeyError out of the operator.
        "lone_tuple": Row({"project": ["temperature", "humidity"]},
                          [{"humidity": ...}, {}], [W(station=...)], errors=1),
        "row_loop_drops_only_the_offender": Row(
            {"project": ["temperature", "humidity"]},
            [{}, {}, {"humidity": ...}, {}],
            [{**W(station=...), "@time": float(i)} for i in (0, 1, 3)],
            errors=1),
        # Rows 0 and 4 already fail the assignment: each row is still one
        # error, whichever step rejects it first.
        "column_kernel_drops_the_uniform_batch": Row(
            dict(assignments={"ratio": "1 / (temperature - 20)"},
                 project=["ratio", "humidity"]),
            [{"humidity": ..., "temperature": 20.0 + i % 4} for i in range(8)],
            [], errors=8),
    }),
    "validate": (ValidateOperator, {
        "passing_rules": Row({"rules": ["temperature > -50", "humidity >= 0"]},
                             [{}], [W()]),
        "violation_quarantined": Row({"rules": ["humidity <= 1.0"]},
                                     [{"humidity": 1.5}], [], errors=1),
        "pattern_rule": Row(
            {"rules": ["matches(station, 'station-[0-9]+')"]},
            [{"station": "station-12"}, {"station": "bad name"}],
            [W(station="station-12")], errors=1),
        "all_rules_must_hold": Row(
            {"rules": ["temperature > 0", "humidity > 0.9"]},
            [{"temperature": 5.0, "humidity": 0.5}], [], errors=1),
        "stream_continues_after_violations": Row(
            {"rules": ["humidity <= 1.0"]},
            [{"humidity": 2.0}, {"humidity": 0.5}], [W(humidity=0.5)],
            errors=1),
    }),
    "virtual": (VirtualPropertyOperator, {
        "adds_attribute": Row(
            {"property_name": "double", "spec": "temperature * 2"},
            [{"temperature": 10.0}], [W(temperature=10.0, double=20.0)]),
        "collision_quarantined": Row(
            {"property_name": "temperature", "spec": "humidity * 100"}, [{}],
            [], errors=1),
        "evaluation_error_quarantined": Row(
            {"property_name": "bad", "spec": "sqrt(temperature - 100)"},
            [{"temperature": 20.0}, {"temperature": 104.0}],
            [W(temperature=104.0, bad=2.0)], errors=1),
        "string_property": Row(
            {"property_name": "label", "spec": "concat('st:', station)"},
            [{"station": "umeda"}], [W(station="umeda", label="st:umeda")]),
    }),
    "join": (JoinOperator, {
        "cross_matching_pairs": Row(
            {**JOIN, "predicate": "left.station == right.station"},
            [{"station": "umeda"}, {"station": "namba"},
             {"station": "umeda", "port": 1}, {"station": "umeda", "port": 1},
             60.0],
            [{**pair({"station": "umeda"}, {"station": "umeda"}), "@time": t}
             for t in (2.0, 3.0)]),
        "empty_side_emits_nothing": Row(JOIN, [{}, 60.0], []),
        "window_tumbles_both_sides": Row(
            JOIN, [{}, {"port": 1}, 60.0, {}, 120.0], [pair()]),
        "theta_predicate": Row(
            {**JOIN, "predicate": "left.temperature > right.temperature + 2"},
            [{"temperature": 30.0}, {"temperature": 29.0, "port": 1},
             {"temperature": 25.0, "port": 1}, 60.0],
            [pair({"temperature": 30.0}, {"temperature": 25.0})]),
        "custom_prefixes": Row(
            {**JOIN, "predicate": "w.station == t.station",
             "left_prefix": "w", "right_prefix": "t"},
            [{"station": "x"}, {"station": "x", "port": 1}, 60.0],
            [pair({"station": "x"}, {"station": "x"}, ("w", "t"))]),
        "predicate_errors_counted_not_fatal": Row(
            {**JOIN, "predicate": "left.ghost == right.ghost"},
            [{}, {"port": 1}, 60.0], [], errors=1),
        "output_time_is_later_of_pair": Row(
            JOIN, [{"time": 10.0}, {"time": 50.0, "port": 1}, 60.0],
            [{**pair(), "@time": 50.0}]),
        "themes_unioned": Row(
            JOIN, [{"themes": ("weather/rain",)},
                   {"themes": ("mobility/traffic",), "port": 1}, 60.0],
            [{**pair(), "@themes": ("weather/rain", "mobility/traffic")}]),
        "distinct_locations_produce_box": Row(
            JOIN, [{"lat": 34.6, "lon": 135.4},
                   {"lat": 34.8, "lon": 135.6, "port": 1}, 60.0],
            [{**pair(), "@location": Box(34.6, 135.4, 34.8, 135.6)}]),
        "same_location_stays": Row(
            JOIN, [{}, {"port": 1}, 60.0],
            [{**pair(), "@location": Point(34.69, 135.50)}]),
    }),
    "aggregation": (AggregationOperator, {
        "blocking_buffers_until_timer": Row(
            AGG, [{"temperature": 20.0 + i} for i in range(5)] + [60.0],
            [{"avg_temperature": 22.0}]),
        "empty_window_emits_nothing": Row(AGG, [60.0], []),
        "window_tumbles": Row(
            {**AGG, "function": "SUM"},
            [{"temperature": 10.0}, 60.0, {"temperature": 20.0}, 120.0],
            [{"sum_temperature": 10.0}, {"sum_temperature": 20.0}]),
        "count": Row({**AGG, "attributes": ["station"], "function": "COUNT"},
                     [{}] * 7 + [60.0], [{"count_station": 7}]),
        "case_insensitive_function": Row(
            {**AGG, "function": "avg"}, [{"temperature": 5.0}, 60.0],
            [{"avg_temperature": 5.0}]),
        "multiple_attributes": Row(
            {**AGG, "attributes": ["temperature", "humidity"], "function": "MAX"},
            [{"temperature": 20.0, "humidity": 0.5},
             {"temperature": 30.0, "humidity": 0.4}, 60.0],
            [{"max_temperature": 30.0, "max_humidity": 0.5}]),
        "none_values_skipped": Row({**AGG, "attributes": ["missing"]},
                                   [{}, 60.0], [{"avg_missing": None}]),
        "stamped_at_flush_time_and_coarsened": Row(
            {**AGG, "interval": 3600.0}, [{"time": 10.0}, 3600.0],
            [{"avg_temperature": 20.0, "@time": 3600.0, "@temporal": "hour"}]),
        "location_is_bounding_box_of_window": Row(
            AGG, [{"lat": 34.6, "lon": 135.4}, {"lat": 34.8, "lon": 135.6}, 60.0],
            [{"avg_temperature": 20.0,
              "@location": Box(34.6, 135.4, 34.8, 135.6)}]),
        "single_point_stays_point": Row(
            AGG, [{"lat": 34.6, "lon": 135.4}, 60.0],
            [{"avg_temperature": 20.0, "@location": Point(34.6, 135.4)}]),
        "themes_propagated": Row(
            AGG, [{}, 60.0],
            [{"avg_temperature": 20.0, "@themes": ("weather/temperature",)}]),
        "source_labels_derivation": Row(
            {**AGG, "name": "hourly-avg"}, [{"source": "temp-1"}, 60.0],
            [{"avg_temperature": 20.0, "@source": "hourly-avg(temp-1)"}]),
        # grouped
        "one_output_per_group": Row(
            {**AGG, "group_by": "station"},
            [{"temperature": 10.0, "station": "umeda"},
             {"temperature": 20.0, "station": "umeda"},
             {"temperature": 30.0, "station": "namba"}, 60.0],
            [{"station": "namba", "avg_temperature": 30.0},
             {"station": "umeda", "avg_temperature": 15.0}]),
        "groups_sorted_deterministically": Row(
            {**AGG, "function": "COUNT", "group_by": "station"},
            [{"station": s} for s in ("zebra", "alpha", "middle")] + [60.0],
            [{"station": s, "count_temperature": 1}
             for s in ("alpha", "middle", "zebra")]),
        "group_key_in_payload": Row(
            {**AGG, "function": "MAX", "group_by": "station"},
            [{"station": "x"}, 60.0], [{"station": "x", "max_temperature": 20.0}]),
        "missing_group_key_becomes_none_group": Row(
            {**AGG, "function": "COUNT", "group_by": "ghost"}, [{}, 60.0],
            [{"ghost": None, "count_temperature": 1}]),
        # sliding
        "sliding_retains_across_flushes": Row(
            {**AGG, "interval": 300.0, "window": 3600.0},
            [{"temperature": 10.0, "time": 0.0}, 300.0,
             {"temperature": 30.0, "time": 400.0}, 600.0],
            [{"avg_temperature": 10.0}, {"avg_temperature": 20.0}]),
        # Lookback [300, 900) at the flush: the t=0 reading is gone.
        "sliding_evicts_beyond_lookback": Row(
            {**AGG, "interval": 300.0, "window": 600.0},
            [{"temperature": 100.0, "time": 0.0},
             {"temperature": 10.0, "time": 700.0}, 900.0],
            [{"avg_temperature": 10.0}]),
        "tumbling_is_default": Row(
            {**AGG, "interval": 300.0, "function": "COUNT"},
            [{"time": 0.0}, 300.0, 600.0], [{"count_temperature": 1}]),
    }),
    "trigger-on": (TriggerOnOperator, {
        "emits_no_data": Row(ON, [{"temperature": 30.0}, 300.0], [FIRE]),
        "fires_when_condition_holds": Row(ON, HOT_HOUR + [3600.0], [FIRE]),
        "silent_when_condition_false": Row(
            ON, [{**r, "temperature": 20.0} for r in HOT_HOUR] + [3600.0], []),
        # Persistent heat fires once.
        "edge_triggered_not_repeated": Row(
            ON, HOT_HOUR + [3600.0, 3900.0, 4200.0], [FIRE]),
        "rearms_after_condition_clears": Row(
            {**ON, "window": 600.0},
            [{"temperature": 27.0, "time": 0.0}, 300.0,     # hot: fire
             {"temperature": 15.0, "time": 400.0}, 700.0,   # cool: re-arm
             {"temperature": 40.0, "time": 800.0}, 1000.0],  # hot: fire
            [FIRE] * 2),
        # The hot reading at t=0 is outside [400, 1000] at the firing.
        "sliding_window_prunes_old": Row(
            {**ON, "window": 600.0},
            [{"temperature": 40.0, "time": 0.0},
             {"temperature": 10.0, "time": 500.0},
             {"temperature": 10.0, "time": 900.0}, 1000.0], []),
        "empty_window_never_fires": Row(ON, [300.0], []),
        "condition_error_counted": Row(
            {**ON, "condition": "avg_ghost > 1"},
            [{"temperature": 30.0, "time": 0.0}, 300.0], [], errors=1),
    }),
    "trigger-off": (TriggerOffOperator, {
        "fires_deactivation": Row(
            dict(interval=300.0, condition="min_temperature < 0",
                 targets=["rain-1"]),
            [{"temperature": -3.0, "time": 0.0}, 300.0], [(False, ("rain-1",))]),
        "counts_controls_in_stats": Row(
            dict(interval=300.0, condition="count > 0", targets=["x"]),
            [{"time": 0.0}, 300.0], [(False, ("x",))]),
        "silent_while_condition_fails": Row(
            dict(interval=300.0, condition="min_temperature < 0",
                 targets=["rain-1"]),
            [{"temperature": 3.0, "time": 0.0}, 300.0], []),
    }),
}

ROWS = [(op, name) for op, (_, rows) in TABLE1.items() for name in rows]


def _messages(feed, repeat: int = 1):
    """The feed as ``(port, [readings])`` runs and ``float`` firings,
    each reading numbered in arrival order; ``repeat`` copies of it."""
    messages, seq = [], 0
    for item in list(feed) * repeat:
        if isinstance(item, float):
            messages.append(item)
            continue
        fields = dict(item)
        port = fields.pop("port", 0)
        t = weather_reading(seq, **fields)
        seq += 1
        if messages and not isinstance(messages[-1], float) \
                and messages[-1][0] == port:
            messages[-1][1].append(t)
        else:
            messages.append((port, [t]))
    return messages


def _drive(op, messages, batched: bool):
    out, commands = [], []
    op.control = commands.append
    for message in messages:
        if isinstance(message, float):
            out.extend(op.on_timer(message))
            continue
        port, run = message
        if batched:
            out.extend(op.on_batch(
                TupleBatch.of(run) if op.input_ports == 1 else run, port))
        else:
            for t in run:
                out.extend(op.on_tuple(t, port))
    return out, commands


def _commands(commands):
    return [(c.activate, c.sensor_ids, c.issued_at, c.reason) for c in commands]


def _sharded(build, messages, keys_by_port, mode: str):
    """Two replicas of ``build()`` and the merge that folds them."""
    shards = [ShardedOperatorAdapter(build(), index, 2) for index in (0, 1)]
    merge = ShardMergeOperator(2, mode)
    out = []
    for message in messages:
        if isinstance(message, float):
            for shard in shards:
                for envelope in shard.on_timer(message):
                    out.extend(merge.on_tuple(envelope))
            continue
        port, run = message
        keys = keys_by_port[min(port, len(keys_by_port) - 1)]
        for t in run:
            shards[shard_index(t, keys, 2)].on_tuple(t, port)
    return out


def check(op_name: str, row_name: str) -> None:
    """Run one row through every shape its operator has."""
    cls, rows = TABLE1[op_name]
    row = rows[row_name]

    def build():
        return cls(**row.params)

    messages = _messages(row.feed)
    reference = build()
    out, commands = _drive(reference, messages, batched=False)
    readings = sum(len(m[1]) for m in messages if not isinstance(m, float))
    stats = reference.stats.snapshot()
    assert stats["tuples_in"] == readings
    assert stats["errors"] == row.errors
    assert stats["tuples_out"] == len(out)
    if op_name.startswith("trigger"):
        assert out == []
        assert [(c.activate, c.sensor_ids) for c in commands] == row.out
        assert stats["controls_issued"] == len(commands)
    else:
        assert [_stamped(t, e) for t, e in zip(out, row.out)] == row.out
        assert len(out) == len(row.out)

    batched = build()
    batch_out, batch_commands = _drive(batched, messages, batched=True)
    assert observed(batch_out) == observed(out)
    assert _commands(batch_commands) == _commands(commands)
    assert batched.stats.snapshot() == stats

    if not reference.is_blocking:
        def chain():
            return [build(), FilterOperator("true")]

        rows_in = [t for _, run in messages for t in run]
        assert _observe(chain, rows_in, None)[0] == [
            (t.seq, list(t.payload.items())) for t in out]
        tiled = [t for m in _messages(row.feed, -(-MIN_COLUMNAR_ROWS
                                                  // len(row.feed)))
                 for t in m[1]]
        assert _observe(chain, tiled, len(tiled)) == _observe(chain, tiled, None)
    elif getattr(reference, "group_by", None) is not None:
        assert observed(_sharded(build, messages, ((reference.group_by,),),
                                 "aggregate")) == observed(out)
    elif getattr(reference, "equi_keys", None):
        left, right = reference.equi_keys[0]
        assert observed(_sharded(build, messages, ((left,), (right,)),
                                 "join")) == observed(out)


@pytest.mark.parametrize("op_name, row_name", ROWS,
                         ids=[f"{op}-{row}" for op, row in ROWS])
def test_row(op_name, row_name):
    check(op_name, row_name)


def test_every_operator_both_passes_and_holds_back():
    for op_name, (_, rows) in TABLE1.items():
        assert any(row.out for row in rows.values()), op_name
        assert any(not row.out or row.errors
                   or len(row.out) < sum(not isinstance(i, float)
                                         for i in row.feed)
                   for row in rows.values()), op_name


class case:
    """``test_<row> = case("<operator>")`` in a test class: a test that
    runs that row of the operator's table."""

    def __init__(self, op_name: str) -> None:
        self.op_name = op_name

    def __set_name__(self, owner, name: str) -> None:
        op_name, row_name = self.op_name, name.removeprefix("test_")
        TABLE1[op_name][1][row_name]  # a typo fails at import

        def test(self):
            check(op_name, row_name)

        test.__name__ = name
        setattr(owner, name, test)
