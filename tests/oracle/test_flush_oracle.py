"""The flush oracle: a blocking operator's kernel against its reference.

Join and Aggregation flush through a kernel over the whole window and
have a reference that re-derives everything per pair or per group
(``JoinOperator._nested_loop_flush``,
``AggregationOperator._aggregate_group``).  Handed the same window, both
must agree on everything observable: payload item order, floats by
``==`` (NaN for NaN), stamps, labels, seqs, the pair and partial logs,
lineage parents and counted errors.  The last section pins the mechanism
with exact counts (DESIGN.md §10): predicate calls, no payload copies,
nothing derived twice in a clean group.
"""

from dataclasses import replace
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.streams.aggregate as aggregate_module
from repro.obs.lineage import LineageStore, tuple_key
from repro.streams.aggregate import AggregationOperator
from repro.streams.join import JoinOperator
from repro.streams.tuple import SensorTuple, assemble
from repro.stt.event import SttStamp
from repro.stt.granularity import spatial_granularity, temporal_granularity
from repro.stt.spatial import Box, Point, representative_point

#: Location *objects*, shared between tuples the way a sensor's advertised
#: position is (the kernels memoise on identity): two equal points that
#: are different objects, a third point, and a box.
LOCATIONS = (Point(34.69, 135.50), Point(34.70, 135.49), Point(34.69, 135.50),
             Box(south=34.5, west=135.2, north=34.9, east=135.8))
#: Theme tuples, likewise shared; the last equals the first.
THEMES = tuple(
    SttStamp(time=0.0, location=LOCATIONS[0], themes=paths).themes
    for paths in (("weather/temperature",), ("weather/humidity", "weather"),
                  (), ("weather/temperature",))
)
NAN = math.nan  # one object: a dict finds it by identity


def reading(payload, time, where, source, seq, time_gran="second",
            space_gran="point", themes=0) -> SensorTuple:
    """A tuple whose stamp fields, time aside, are objects other stamps
    share."""
    return assemble(
        dict(payload), time, LOCATIONS[where], temporal_granularity(time_gran),
        spatial_granularity(space_gran), THEMES[themes], source, seq)


def _seen(value):
    """A payload value as compared: a NaN equals nothing, so it reads as
    its name (both sides must still produce one at the same place)."""
    return "<nan>" if isinstance(value, float) and math.isnan(value) else value


def observed(tuples):
    return [
        (t.seq, [(k, _seen(v)) for k, v in t.payload.items()], t.stamp, t.source)
        for t in tuples
    ]


# -- join ---------------------------------------------------------------------

PREDICATES = (
    "left.k == right.k",
    "right.k == left.k",
    "left.k == right.k and left.j == right.j",
    "left.k == right.k and left.a / right.b > 1",
    "left.a / right.b > 1 and left.k == right.k",     # errs on pruned pairs too
    "left.k == right.k and left.a",                   # non-boolean residual
    "left.j == right.j and left.a > right.b and left.k == right.k",
    "left.k == right.k or left.j == right.j",         # no equi key: nested loop
)

#: ``1 == 1.0 == True`` and ``0 == -0.0 == False`` hash alike; ``"1"``
#: equals none of them; NaN (the shared object and a fresh one) equals
#: nothing, itself included; a list has no hash == eq guarantee.  Repeats
#: in a window of a dozen rows are certain, so buckets are k x m.
keys = st.sampled_from(
    [1, 1.0, True, 0, -0.0, False, None, "x", "1", 2, NAN, float("nan"), [1]])
numbers = st.sampled_from([0, 0.0, 1, 2.5, -3, 8, None, "7", True])

rows = st.fixed_dictionaries({
    "k": keys,
    "j": st.sampled_from([0, 1]),
    "a": numbers,
    "b": numbers,
    "shape": st.integers(min_value=0, max_value=3),
    "where": st.integers(min_value=0, max_value=len(LOCATIONS) - 1),
    "time_gran": st.sampled_from(["second", "minute"]),
    "space_gran": st.sampled_from(["point", "city"]),
    "themes": st.integers(min_value=0, max_value=len(THEMES) - 1),
    "source": st.sampled_from(["gw-0", "gw-1"]),
})
windows = st.lists(rows, min_size=1, max_size=12)

#: The qualifiers the predicates address the two sides by — the default
#: pair and another: whatever a flush memoises must key on them too.
PREFIXES = (("left", "right"), ("l", "r"))


def _join_payload(row, hostile: bool, prefixes) -> dict:
    """Four payload schemas inside one window: the plain one, a reordered
    one with an extra attribute, one whose own names collide with the
    prefixed output names, and — like the list-valued key, only in a
    ``hostile`` window, since either sends the whole flush to the nested
    loop — one missing the key attribute."""
    k, j, a, b = row["k"], row["j"], row["a"], row["b"]
    if not hostile and isinstance(k, list):
        k = "x"
    left_k, right_k = (f"{prefix}_k" for prefix in prefixes)
    return (
        {"k": k, "j": j, "a": a, "b": b},
        {"b": b, "extra": "e", "a": a, "j": j, "k": k},
        {"k": k, left_k: "own", "j": j, "a": a, "b": b, right_k: "own"},
        {"j": j, "a": a, "b": b},
    )[row["shape"] if hostile else row["shape"] % 3]


def _join_window(drawn, side: str, hostile: bool,
                 prefixes=PREFIXES[0]) -> "list[SensorTuple]":
    return [
        reading(
            _join_payload(row, hostile, prefixes),
            float(i if side == "l" else 2 * i), row["where"],
            f"{side}-{row['source']}", i,
            row["time_gran"], row["space_gran"], row["themes"])
        for i, row in enumerate(drawn)
    ]


def _join_operator(predicate, prefixes=PREFIXES[0]) -> JoinOperator:
    left_prefix, right_prefix = prefixes
    op = JoinOperator(
        interval=60.0, name="j",
        predicate=predicate.replace("left.", f"{left_prefix}.").replace(
            "right.", f"{right_prefix}."),
        left_prefix=left_prefix, right_prefix=right_prefix)
    op._pair_log = []
    op.lineage = LineageStore()
    return op


def _candidate_errors(op: JoinOperator, left, right) -> int:
    """What the hash path may count: pairs whose equi keys are ``==`` (so
    never a NaN) and whose whole predicate does not come out boolean."""
    errors = 0
    for lt in left:
        for rt in right:
            if all(lt[l] == rt[r] for l, r in op.equi_keys):
                try:
                    op.predicate.evaluate_bool(None, **{
                        op.left_prefix: dict(lt.payload),
                        op.right_prefix: dict(rt.payload)})
                except Exception:
                    errors += 1
    return errors


@settings(max_examples=300, deadline=None)
@given(predicate=st.sampled_from(PREDICATES), left=windows, right=windows,
       hostile=st.booleans(), prefixes=st.sampled_from(PREFIXES))
def test_join_flush_equals_the_nested_loop(
        predicate, left, right, hostile, prefixes):
    left = _join_window(left, "l", hostile, prefixes)
    right = _join_window(right, "r", hostile, prefixes)
    _, kernel, reference = check_join_flush(predicate, left, right, prefixes)

    hashable = bool(kernel.equi_keys) and all(
        name in t and isinstance(t[name], JoinOperator._HASHABLE_KEY_TYPES)
        for window, side in ((left, 0), (right, 1))
        for t in window for name in (pair[side] for pair in kernel.equi_keys)
    )
    if hashable:
        # Pruned pairs never evaluate: errors are the candidates' alone.
        assert kernel.stats.errors == _candidate_errors(kernel, left, right)
    else:
        assert kernel.stats.errors == reference.stats.errors
    if predicate.startswith("left.k == right.k") or not hashable:
        # Nothing before the keys can fail, and a pruned pair stops at the
        # first ``False``: the nested loop counts the same errors.
        assert kernel.stats.errors == reference.stats.errors


def check_join_flush(predicate, left, right, prefixes=PREFIXES[0]):
    """Flush ``left`` x ``right`` through the kernel and through the
    nested loop: same tuples, pair log and lineage.  Returns the output
    and both operators (their error counts are the caller's to compare)."""
    kernel = _join_operator(predicate, prefixes)
    reference = _join_operator(predicate, prefixes)
    kernel.on_batch(left, port=0)
    kernel.on_batch(right, port=1)
    out = kernel.on_timer(60.0)
    expected = reference._nested_loop_flush(left, right, 60.0)
    assert observed(out) == observed(expected)
    assert kernel._pair_log == reference._pair_log
    assert len(kernel._pair_log) == len(out)
    for t in out:
        key = tuple_key(t)
        assert kernel.lineage.inputs(key) == reference.lineage.inputs(key)
    return out, kernel, reference


def test_nan_keys_pair_with_nothing_not_even_themselves():
    # One NaN object on both sides: a dict alone would call it a match.
    left = _join_window([dict(k=NAN, j=0, a=1, b=1, shape=0, where=0,
                              time_gran="second", space_gran="point",
                              themes=0, source="gw-0")], "l", hostile=False)
    op = _join_operator("left.k == right.k")
    op.on_batch(left, port=0)
    op.on_batch(left, port=1)
    assert op.on_timer(60.0) == []
    assert op._nested_loop_flush(left, left, 60.0) == []


# -- aggregate ----------------------------------------------------------------

FUNCTIONS = ("COUNT", "AVG", "SUM", "MIN", "MAX")

#: Eighths: every sum, difference and mean below is exact, so a running
#: sum that added and subtracted equals numpy's over the survivors.
measures = st.one_of(
    st.integers(min_value=-800, max_value=800).map(lambda n: n / 8),
    st.integers(min_value=-5, max_value=5),
    st.booleans(),
    st.none(),
    st.sampled_from(["2.5", "-7"]),  # non-numeric type: the rescan slice
    st.sampled_from([math.nan, math.inf, -math.inf]),  # non-finite: likewise
)

readings = st.lists(
    st.fixed_dictionaries({
        "value": measures,
        "other": measures,
        "station": st.sampled_from([0, 1, 2, "1", None]),  # str(1) == str("1")
        "where": st.integers(min_value=0, max_value=len(LOCATIONS) - 1),
        "time_gran": st.sampled_from(["second", "hour"]),
        "source": st.sampled_from(["gw-0", "gw-1"]),
        "flush": st.booleans(),
        "restore": st.booleans(),  # rebuild the accumulators before a flush
    }),
    min_size=1, max_size=60,
)

configs = st.fixed_dictionaries({
    "function": st.sampled_from(FUNCTIONS),
    "group_by": st.sampled_from([None, "station"]),
    "window": st.sampled_from([None, 12.0]),               # tumbling/sliding
    "max_cache": st.sampled_from([3, 20, 100_000]),        # evict inside a run
})


def _aggregate_operator(config) -> AggregationOperator:
    return AggregationOperator(
        interval=4.0, attributes=["temperature", "other"], name="agg", **config)


def _numeric(value) -> bool:
    return value is not None and isinstance(value, (int, float))


def _expected_partial(op, members) -> dict:
    """The partial-log entry of one group, from its members alone."""
    points = [representative_point(t.stamp.location) for t in members]
    stats = {}
    for attr in op.attributes:
        values = [t.get(attr) for t in members if t.get(attr) is not None]
        if all(_numeric(v) for v in values):
            floats = [float(v) for v in values]
            stats[attr] = [
                len(floats), sum(floats, 0.0),
                min(floats, default=None), max(floats, default=None),
            ]
    first = members[0]
    return {
        "stats": stats,
        "first": (first.stamp.time, first.source, first.seq),
        "bbox": (min(p.lat for p in points), min(p.lon for p in points),
                 max(p.lat for p in points), max(p.lon for p in points)),
    }


def _reading(value, flush=False, restore=False) -> dict:
    """One hand-written reading, with the fields its case ignores fixed."""
    return {"value": value, "other": None, "station": 0, "where": 0,
            "time_gran": "second", "source": "gw-0", "flush": flush,
            "restore": restore}


def _config(function, window=None, max_cache=100_000, group_by=None) -> dict:
    return {"function": function, "group_by": group_by, "window": window,
            "max_cache": max_cache}


#: Eleven readings with no value: they carry the clock past a sliding
#: window's edge so that the readings before them are evicted.
_GAP = [_reading(None)] * 11


@pytest.mark.filterwarnings(  # numpy's sum or mean of inf and -inf is NaN
    "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(drawn=readings, config=configs)
# MIN/MAX over a NaN depend on where it arrives unless NaN takes the rescan.
@example(drawn=[_reading(1.0), _reading(NAN), _reading(3.0)],
         config=_config("MIN"))
# A NaN or an infinity that enters a running sum never leaves it.
@example(drawn=[_reading(NAN), _reading(2.0), *_GAP, _reading(4.0)],
         config=_config("AVG", window=12.0))
@example(drawn=[_reading(math.inf), _reading(2.0), *_GAP, _reading(4.0)],
         config=_config("SUM", window=12.0))
# Evicting the maximum leaves it stale until the flush recomputes it.
@example(drawn=[_reading(v) for v in (50.0, 1.0, 2.0, 3.0)],
         config=_config("MAX", max_cache=3))
# Evicting the only reading at one place shrinks the bounding box.
@example(drawn=[_reading(0.0), *[{**_reading(0.0), "where": 1}] * 3],
         config=_config("COUNT", max_cache=3))
# Accumulators rebuilt from a checkpoint, then kept running.
@example(drawn=[_reading(0.5), _reading(2.0, flush=True, restore=True),
                _reading(NAN), *_GAP, _reading(4.0, restore=True)],
         config=_config("AVG", window=12.0))
def test_aggregate_flush_equals_the_rescan_of_its_members(drawn, config):
    check_aggregate_flush(drawn, config)


def check_aggregate_flush(drawn, config) -> None:
    """Feed ``drawn`` readings; at every ``flush`` row (and after the
    last), the kernel's flush equals ``_aggregate_group`` over each
    group's members, lineage and partial-log entries included."""
    kernel, reference = _aggregate_operator(config), _aggregate_operator(config)
    kernel.lineage = LineageStore()
    kernel._partial_log = {}
    for i, row in enumerate(drawn):
        kernel.on_tuple(reading(
            {"temperature": row["value"], "other": row["other"],
             "station": row["station"]},
            float(i), row["where"], row["source"], i, row["time_gran"],
            themes=row["where"],
        ))
        if not (row["flush"] or i == len(drawn) - 1):
            continue
        now = float(i + 1)
        if row["restore"]:
            kernel.restore(kernel.checkpoint())
        if kernel.window is not None:
            kernel.cache.prune(before=now - kernel.window)  # as the flush will
        groups = sorted(
            ((key, list(acc.members)) for key, acc in kernel._groups.items()),
            key=lambda item: str(item[0]),
        )
        # Extrema of a rescan attribute are not maintained: not compared.
        unkept = {str(key): set(acc.rescan) for key, acc in kernel._groups.items()}
        kernel._partial_log.clear()
        out = kernel.on_timer(now)

        reference.stats.timer_firings = kernel.stats.timer_firings
        expected = [
            reference._aggregate_group(key, members, now, offset)
            for offset, (key, members) in enumerate(groups)
        ]
        assert observed(out) == observed(expected)
        for t, (key, members) in zip(out, groups):
            assert kernel.lineage.inputs(tuple_key(t)) == tuple(
                tuple_key(member) for member in members)
        # Equal strings (1 and "1") share an entry; the later group wins.
        partials = {str(key): members for key, members in groups}
        assert list(kernel._partial_log) == list(partials)
        for okey, members in partials.items():
            entry, wanted = kernel._partial_log[okey], _expected_partial(
                kernel, members)
            assert entry["first"] == wanted["first"]
            assert entry["bbox"] == wanted["bbox"]
            assert list(entry["stats"]) == kernel.attributes
            for attr, stats in wanted["stats"].items():
                if attr not in unkept[okey]:
                    assert entry["stats"][attr] == stats


# -- the mechanism, counted ---------------------------------------------------

STATIONS = 5120


def _harness_window(kind: str, stations) -> "list[SensorTuple]":
    """The harness's keyed shape: 16 gateways, micro-batches of 32, every
    stamp field a gateway's readings share being one object."""
    gateways = [
        (f"k{kind}-{g:02d}", Point(34.0 + g / 100, 135.0 + g / 100))
        for g in range(16)
    ]
    template = SttStamp(time=0.0, location=gateways[0][1], themes=(f"weather/{kind}",))
    out = []
    for i, station in enumerate(stations):
        source, location = gateways[(i // 32) % 16]
        out.append(assemble(
            {"v": float(i % 97), "k": station},
            i * 0.006, location, template.temporal_granularity,
            template.spatial_granularity, template.themes, source, i))
    return out


def _counting(op: JoinOperator) -> "list[int]":
    """Wrap both compiled closures of ``op``; the returned cell counts."""
    calls = [0]

    def counted(closure):
        def run(values, rows):
            calls[0] += 1
            return closure(values, rows)
        return run

    op._whole = counted(op._whole)
    if op._residual is not None:
        op._residual = counted(op._residual)
    return calls


@pytest.mark.parametrize("predicate, per_candidate", [
    ("left.k == right.k", 0),
    ("left.k == right.k and left.v > right.v", 1),
])
def test_predicate_calls_per_candidate(predicate, per_candidate, monkeypatch):
    names = [f"k-{i:04d}" for i in range(STATIONS)]
    left = _harness_window("temp", [names[(i * i) % 1201] for i in range(STATIONS)])
    right = _harness_window("hum", names[::-1])            # one match per left
    op = JoinOperator(interval=32.0, predicate=predicate)
    calls = _counting(op)
    copies = [0]
    monkeypatch.setattr(
        SensorTuple, "values",
        lambda self: copies.__setitem__(0, copies[0] + 1) or dict(self.payload))
    op.on_batch(left, port=0)
    op.on_batch(right, port=1)
    out = op.on_timer(32.0)

    candidates = STATIONS
    assert calls[0] == per_candidate * candidates
    assert copies[0] == 0
    assert op.stats.errors == 0
    if not per_candidate:
        assert len(out) == candidates
        # 16 x 16 gateway pairs: that many labels, locations and theme
        # tuples among 5 120 pairs, and one list of output names.
        assert len({id(t.source) for t in out}) == 256
        assert len({id(t.stamp.location) for t in out}) == 256
        assert len({id(t.stamp.themes) for t in out}) == 256
    else:
        assert 0 < len(out) < candidates


def test_clean_groups_from_one_source_share_what_they_can(monkeypatch):
    points = [0]

    def counted(location):
        points[0] += 1
        return representative_point(location)

    op = AggregationOperator(
        interval=64.0, attributes=["v"], function="AVG", group_by="k")
    window = _harness_window("temp", [f"k-{i % 640:04d}" for i in range(STATIONS)])
    one_source = [replace(t, source="ktemp-00") for t in window[:32]] * 20
    op.on_batch([
        t.with_owned_payload({"v": 1.0, "k": f"k-{i:04d}"})
        for i, t in enumerate(one_source)
    ])
    monkeypatch.setattr(aggregate_module, "representative_point", counted)
    out = op.on_timer(64.0)

    assert len(out) == 640
    assert points[0] == 0
    assert len({id(t.source) for t in out}) == 1
    assert {t.source for t in out} == {"aggregation(ktemp-00)"}
