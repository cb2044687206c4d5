"""The consistency check's rules, as one table (DESIGN.md §13).

A row is a program (a standard shape with one edit), the service its
first finding is anchored to, that finding's text, and its level: an
``error`` rejects the program, a ``warning`` flags it, an ``accept`` row
is valid with no issue carrying the text (none at all, for empty text).
Older suites keep their test names as ``test_x = row("name")`` lines.
"""

from dataclasses import replace
from typing import NamedTuple

import pytest

import repro.designer.preview
import repro.runtime.executor
from repro.dataflow.ops import (
    AggregationSpec, FilterSpec, JoinSpec, TransformSpec, TriggerOnSpec,
    ValidateSpec,
)
from repro.designer.session import DesignerSession
from repro.dsn.ast import (
    DsnChannel, DsnFuse, DsnProgram, DsnService, DsnShard, DsnSlo, ServiceRole,
)
from repro.dsn.check import check
from repro.dsn.parse import parse_dsn
from repro.errors import ValidationError
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.subscription import SubscriptionFilter
from repro.schema.schema import StreamSchema
from repro.sensors.osaka import osaka_fleet
from repro.stt.thematic import Theme
from tests.builders import Dormant, dsn, pipeline, reading, sensor_metadata


def by_id(sensor_id: str) -> SubscriptionFilter:
    return SubscriptionFilter(sensor_ids=(sensor_id,))


TEMP, RAIN = by_id("osaka-temp-umeda"), by_id("osaka-rain-umeda")


def shape(edges, **nodes):
    """A builder of ``edges`` over ``nodes`` with one edit: extra parts,
    ``drop``ped edges, and changed nodes (``None`` removes a node and its
    edges)."""
    def build(*parts, drop=(), **changes):
        kept = {name: node for name, node in {**nodes, **changes}.items()
                if node is not None}
        lines = [edge for edge in edges if edge not in drop
                 and {edge.split()[0], edge.split()[2]} <= set(kept)]
        return dsn(*lines, *parts, **kept)
    return build


#: ``src -> f -> g -> k`` over one temperature sensor.
linear = shape(("src > f", "f > g", "g > k"), src=TEMP,
               f=FilterSpec("temperature > 24"),
               g=TransformSpec(assignments={"temperature": "temperature * 2"}),
               k="collector")
TRIG = TriggerOnSpec(interval=300.0, window=3600.0, targets=(
    "osaka-rain-umeda",), condition="avg_temperature > 25")
#: a trigger on temperature gating a rain source into ``k``.
gated = shape(("temp > trig", "rain > k", "trig ~ rain"), temp=TEMP,
              rain=Dormant(RAIN), k="collector", trig=TRIG)
JOIN = JoinSpec(interval=60.0, predicate="true")
AVG = AggregationSpec(interval=60.0, attributes=("temperature",),
                      function="AVG")


def edited(spec, **params):
    """``spec`` as a ``(kind, params)`` operator with ``params`` changed."""
    params = {**spec.to_dict(), **params}
    return params.pop("kind"), params


ERROR, WARNING, ACCEPT = "error", "warning", "accept"


class Row(NamedTuple):
    program: DsnProgram
    anchor: str
    message: str
    level: str = ERROR


ROWS = {
    # D: declarations.
    "duplicate-service": Row(linear(DsnService(
        ServiceRole.OPERATOR, "f", "filter", {"condition": "true"})),
        "f", "declares duplicate services"),
    "channel-undeclared": Row(linear("ghost > f"), "p",
                              "channel references undeclared service"),
    "control-undeclared": Row(linear("ghost ~ src"), "p",
                              "control references undeclared service"),
    "shard-undeclared": Row(linear(DsnShard("ghost", 2)), "p",
                            "shard references undeclared service 'ghost'"),
    "shard-not-operator": Row(linear(DsnShard("k", 2)), "k",
                              "shard target 'k' is not an operator"),
    "shard-count": Row(linear(DsnShard("f", 0)), "f", "must be >= 1, got 0"),
    "shard-twice": Row(linear(DsnShard("f", 2), DsnShard("f", 3)), "f",
                       "duplicate shard directive"),
    "fuse": Row(linear(DsnFuse(("f", "g"))), "", "", ACCEPT),
    "fuse-undeclared": Row(linear(DsnFuse(("f", "ghost"))), "p",
                           "fuse references undeclared service 'ghost'"),
    "fuse-not-operator": Row(linear(DsnFuse(("g", "k"))), "k",
                             "fuse member 'k' is not an operator"),
    "fuse-short": Row(linear(DsnFuse(("f",))), "f", "at least 2"),
    "fuse-overlap": Row(linear(DsnFuse(("f", "g")), DsnFuse(("g", "f"))),
                        "g", "appears in more than one fuse hint"),
    "fuse-blocking-hop": Row(linear(DsnFuse(("f", "g")), g=AVG), "f",
                             "'f' -> 'g' is not a fusible hop"),
    "fuse-skipping": Row(linear("g > h", "h > k", DsnFuse(("f", "h")),
                                drop=("g > k",),
                                h=ValidateSpec(rules=("temperature > 0",))),
                         "f", "'f' -> 'h' is not a fusible hop"),
    "slo-comparator": Row(linear(DsnSlo("p", "p99_latency", "!=", 5.0)), "p",
                          "unknown comparator '!='"),
    "slo-window": Row(linear(DsnSlo("p", "p99_latency", "<", 5.0, -60.0)),
                      "p", "window must be >= 0"),
    "batch-zero": Row(linear(DsnChannel("src", "f", batch=0),
                             drop=("src > f",)), "src", "batch must be >= 1"),
    "batch-within": Row(linear(DsnChannel("src", "f", batch=32, within=0.0),
                               drop=("src > f",)), "src", "bound must be > 0"),
    "batch-not-source": Row(linear(DsnChannel("f", "g", batch=16),
                                   drop=("f > g",)), "f",
                            "only sources micro-batch"),
    # K: process keys.
    "key-collision": Row(linear("g > f+g", "f+g > k", DsnFuse(("f", "g")),
                                drop=("g > k",),
                                **{"f+g": FilterSpec("true")}),
                         "f", "process key 'f+g' of program 'p' is not unique"),
    # C1-C3: structure, ports, roles.
    "valid": Row(linear(), "", "", ACCEPT),
    "cycle": Row(linear("g > f"), "f", "data edges form a cycle"),
    "no-sources": Row(linear(src=None), "p", "dataflow has no sources"),
    "port-unconnected": Row(linear(drop=("src > f",)), "f",
                            "input port 0 is not connected"),
    "join-half": Row(linear(f=JOIN), "f", "input port 1 is not connected"),
    "port-missing": Row(linear("src > g:1"), "g",
                        "input port 1 does not exist"),
    "output-unused": Row(linear(drop=("g > k",)), "g",
                         "not connected to anything"),
    "sink-unfed": Row(linear(lonely="collector"), "lonely",
                      "sink has no incoming stream"),
    "sink-two-streams": Row(linear("f > k"), "k",
                            "sinks accept a single stream on port 0"),
    "sink-feeds": Row(linear("k > out", out="collector"), "k",
                      "sink has no output"),
    "source-unconsumed": Row(linear(lonely=RAIN), "lonely",
                             "not consumed by any operator or sink", WARNING),
    "source-fed": Row(linear("f > lonely", lonely=RAIN), "lonely",
                      "source cannot receive a data edge"),
    "control-from-operator": Row(linear("f ~ src"), "f",
                                 "'f' is not a trigger node"),
    "control-into-sink": Row(gated("trig ~ k"), "trig",
                             "control edges must target sources, not 'k'"),
    # C4/C5: parameters, schemas, conditions.
    "unknown-kind": Row(linear(f=("widget", {})), "f",
                        "unknown operator kind 'widget'"),
    "unknown-attribute": Row(linear(f=FilterSpec("rainfall > 3")), "f",
                             "rainfall"),
    "localised": Row(linear(g=FilterSpec("ghost > 0")), "g", "ghost"),
    "aggregation-interval-text": Row(linear(g=edited(AVG, interval="soon")),
                                     "g", "interval must be a finite"),
    "aggregation-interval-nan": Row(parse_dsn(linear(g=AVG).render().replace(
        "interval = 60.0", "interval = NaN")), "g", "got nan"),
    "trigger-interval-text": Row(gated(trig=edited(TRIG, interval="soon")),
                                 "trig", "interval must be a finite"),
    "trigger-interval-zero": Row(gated(trig=edited(TRIG, interval=0)), "trig",
                                 "positive number, got 0"),
    "trigger-interval-negative": Row(gated(trig=edited(TRIG, interval=-1)),
                                     "trig", "positive number, got -1"),
    # C7: sensors.
    "no-sensor": Row(linear(src=by_id("ghost-1")), "src",
                     "source filter matches no published sensor"),
    "mixed-schemas": Row(linear(src=SubscriptionFilter(theme=Theme("weather"))),
                         "src", "incompatible schemas"),
    # C6: triggers.
    "trigger": Row(gated(), "", "", ACCEPT),
    "trigger-uncontrolled": Row(gated(drop=("trig ~ rain",)), "trig",
                                "trigger has no control edges to sources"),
    "trigger-on-active": Row(gated(rain=RAIN), "rain", "initially active",
                             WARNING),
    "trigger-target-mismatch": Row(
        gated(trig=TriggerOnSpec(interval=300.0, targets=("elsewhere",),
                                 condition="avg_temperature > 25")),
        "rain", "does not overlap the trigger's declared targets", WARNING),
    # C9: thematics.
    "join-disjoint-themes": Row(
        linear("roads > f:1", f=JOIN,
               roads=SubscriptionFilter(sensor_type="traffic")),
        "f", "joining thematically unrelated streams", WARNING),
    "join-related-themes": Row(
        linear("gauge > f:1", f=JOIN, g=FilterSpec("true"), src=RAIN,
               gauge=by_id("gauge-1")), "", "thematically", ACCEPT),
    "join-untagged-stream": Row(
        linear("plain > f:1", f=JOIN, plain=by_id("plain-1")),
        "", "thematically", ACCEPT),
}


def registry():
    """The Osaka fleet, plus one sensor tagged only ``weather`` and one
    with no theme."""
    network = BrokerNetwork()
    for sensor in osaka_fleet(Topology.star(leaf_count=2)):
        network.publish(sensor.metadata)
    for sensor_id, themes in (("gauge-1", ("weather",)), ("plain-1", ())):
        schema = StreamSchema.build({"level": "float"}, themes=themes)
        network.publish(replace(sensor_metadata(sensor_id, sensor_id),
                                schema=schema))
    return network.registry


REGISTRY = registry()


def run(name: str) -> None:
    program, anchor, message, level = ROWS[name]
    report = check(program, REGISTRY)
    if level == ERROR:
        with pytest.raises(ValidationError) as caught:
            report.raise_if_invalid()
        assert caught.value.issues == report.errors
    else:
        report.raise_if_invalid()
    found = report.errors[:1] if level == ERROR else report.warnings
    if level == ACCEPT:
        assert not [issue for issue in report.issues
                    if message in issue.message], report.issues
    else:
        assert any(issue.node_id == anchor and message in issue.message
                   for issue in found), report.issues


def row(name: str):
    """``test_x = row("name")``: a test that runs one row of the table."""
    ROWS[name]  # a typo fails at import

    def test(*_):
        run(name)

    return test


@pytest.mark.parametrize("name", ROWS)
def test_row(name):
    run(name)


def test_the_check_never_writes_into_its_input():
    program = linear(f=FilterSpec("ghost > 0"))
    text = program.render()
    check(program, REGISTRY)
    assert program.render() == text


def test_each_program_is_checked_once(monkeypatch, stack):
    """One check per deploy, canvas or text; a preview checks the canvas
    as drawn, then deploys (and so checks) its tapped copy."""
    calls = []

    def counted(program, registry):
        calls.append(program.name)
        return check(program, registry)

    for module in (repro.runtime.executor, repro.designer.preview):
        monkeypatch.setattr(module, "check", counted)
    session = DesignerSession(stack.executor)
    session.flow = pipeline("drawn", match=TEMP)
    sample = reading("osaka-temp-umeda", 0, 10.0, temperature=30.0,
                     station="umeda")
    for deploy, checks in [
        (lambda: stack.executor.deploy(pipeline("canvas")), 1),
        (lambda: stack.executor.deploy(parse_dsn(linear().render())), 1),
        (session.deploy, 1),
        (lambda: session.preview(samples={"src": [sample]}), 2),
    ]:
        calls.clear()
        deploy()
        assert len(calls) == checks
