"""Unit tests for the dataflow consistency checks (C1-C8)."""

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import (
    AggregationSpec,
    FilterSpec,
    JoinSpec,
    TriggerOnSpec,
)
from repro.dataflow.validate import validate_dataflow
from repro.errors import ValidationError
from repro.pubsub.subscription import SubscriptionFilter
from repro.schema.schema import StreamSchema
from repro.stt.thematic import Theme
from tests.builders import pipeline


UMEDA = SubscriptionFilter(sensor_ids=("osaka-temp-umeda",))


def umeda(name, *operators, match=UMEDA):
    """``src -> operators... -> k`` over one temperature sensor."""
    return pipeline(name, *operators, match=match, sink="k")


def issues(report, kind="errors") -> str:
    return "\n".join(str(issue) for issue in getattr(report, kind))


def temp_source(flow, node_id="src", **kwargs):
    return flow.add_source(
        SubscriptionFilter(sensor_ids=("osaka-temp-umeda",)),
        node_id=node_id, **kwargs,
    )


def valid_flow(registry):
    return umeda("valid", ("f", FilterSpec("temperature > 24")))


class TestHappyPath:
    def test_valid_flow_passes(self, registry):
        report = validate_dataflow(valid_flow(registry), registry)
        assert report.is_valid
        assert report.errors == []

    def test_schemas_propagated_to_every_node(self, registry):
        report = validate_dataflow(valid_flow(registry), registry)
        assert set(report.schemas) == {"src", "f", "k"}
        assert "temperature" in report.schemas["f"]

    def test_source_schema_resolved_from_registry(self, registry):
        flow = valid_flow(registry)
        assert flow.sources["src"].schema is None
        validate_dataflow(flow, registry)
        assert flow.sources["src"].schema is not None

    def test_raise_if_invalid_noop_when_valid(self, registry):
        validate_dataflow(valid_flow(registry), registry).raise_if_invalid()


class TestStructure:
    def test_cycle_detected(self, registry):
        flow = Dataflow("cyclic")
        a = flow.add_operator(FilterSpec("true"), node_id="a")
        b = flow.add_operator(FilterSpec("true"), node_id="b")
        flow.connect(a, b)
        flow.connect(b, a)
        report = validate_dataflow(flow, registry)
        assert not report.is_valid
        assert "cycle" in issues(report)

    def test_no_sources_is_error(self, registry):
        flow = Dataflow("empty")
        flow.add_sink(node_id="k")
        report = validate_dataflow(flow, registry)
        assert "no sources" in issues(report)

    def test_unconnected_operator_port(self, registry):
        flow = Dataflow("dangling")
        temp_source(flow)
        flow.add_operator(FilterSpec("temperature > 0"), node_id="f")
        report = validate_dataflow(flow, registry)
        assert "port 0 is not connected" in issues(report)

    def test_half_connected_join(self, registry):
        flow = Dataflow("half-join")
        src = temp_source(flow)
        join = flow.add_operator(JoinSpec(interval=60.0, predicate="true"),
                                 node_id="j")
        sink = flow.add_sink(node_id="k")
        flow.connect(src, join, port=0)
        flow.connect(join, sink)
        report = validate_dataflow(flow, registry)
        assert "port 1 is not connected" in issues(report)

    def test_operator_output_unused(self, registry):
        flow = Dataflow("unused")
        src = temp_source(flow)
        flow.add_operator(FilterSpec("temperature > 0"), node_id="f")
        flow.connect(src, "f")
        report = validate_dataflow(flow, registry)
        assert "not connected to anything" in issues(report)

    def test_sink_without_input(self, registry):
        flow = valid_flow(registry)
        flow.add_sink(node_id="lonely")
        report = validate_dataflow(flow, registry)
        assert "sink has no incoming" in issues(report)

    def test_unconsumed_source_is_warning_only(self, registry):
        flow = valid_flow(registry)
        flow.add_source(SubscriptionFilter(sensor_ids=("osaka-rain-umeda",)),
                        node_id="lonely-src")
        report = validate_dataflow(flow, registry)
        assert report.is_valid
        assert "not consumed" in issues(report, 'warnings')


class TestSchemas:
    def test_bad_condition_attribute(self, registry):
        flow = umeda("bad-attr", ("f", FilterSpec("rainfall > 3")))
        assert "rainfall" in issues(validate_dataflow(flow, registry))

    def test_error_localised_to_node(self, registry):
        flow = umeda("localise", ("good", FilterSpec("temperature > 0")),
                     ("bad", FilterSpec("ghost > 0")))
        report = validate_dataflow(flow, registry)
        assert [issue.node_id for issue in report.errors] == ["bad"]

    def test_downstream_of_broken_node_not_double_reported(self, registry):
        flow = umeda("cascade", ("bad", FilterSpec("ghost > 0")),
                     ("after", AggregationSpec(interval=60.0,
                                               attributes=("temperature",),
                                               function="AVG")))
        report = validate_dataflow(flow, registry)
        assert len(report.errors) == 1
        assert report.schemas["after"] is None


class TestSourceResolution:
    def test_filter_matching_nothing(self, registry):
        flow = umeda("no-match", match=SubscriptionFilter(sensor_ids=("ghost-1",)))
        assert "matches no published sensor" in issues(
            validate_dataflow(flow, registry))

    def test_filter_matching_mixed_schemas(self, registry):
        # Theme 'weather' matches temperature AND rain sensors.
        flow = umeda("mixed", match=SubscriptionFilter(theme=Theme("weather")))
        assert "incompatible schemas" in issues(validate_dataflow(flow, registry))

    def test_no_registry_and_no_schema_is_error(self):
        flow = umeda("no-reg", match=SubscriptionFilter(sensor_type="temperature"))
        assert "no registry" in issues(validate_dataflow(flow, registry=None))


class TestTriggers:
    def make_trigger_flow(self, registry, connect_control=True,
                          gated_active=False):
        flow = Dataflow("trigger-flow")
        temp = temp_source(flow, node_id="temp")
        rain = flow.add_source(
            SubscriptionFilter(sensor_ids=("osaka-rain-umeda",)),
            node_id="rain", initially_active=gated_active,
        )
        trig = flow.add_operator(
            TriggerOnSpec(interval=300.0, window=3600.0,
                          condition="avg_temperature > 25",
                          targets=("osaka-rain-umeda",)),
            node_id="trig",
        )
        sink = flow.add_sink(node_id="k")
        flow.connect(temp, trig)
        flow.connect(rain, sink)
        if connect_control:
            flow.connect_control(trig, rain)
        return flow

    def test_valid_trigger_flow(self, registry):
        report = validate_dataflow(self.make_trigger_flow(registry), registry)
        assert report.is_valid

    def test_trigger_without_control_edge(self, registry):
        flow = self.make_trigger_flow(registry, connect_control=False)
        report = validate_dataflow(flow, registry)
        assert "no control edges" in issues(report)

    def test_trigger_on_active_source_warns(self, registry):
        flow = self.make_trigger_flow(registry, gated_active=True)
        report = validate_dataflow(flow, registry)
        assert report.is_valid
        assert "initially active" in issues(report, 'warnings')

    def test_target_mismatch_warns(self, registry):
        flow = Dataflow("mismatch")
        temp = temp_source(flow, node_id="temp")
        rain = flow.add_source(
            SubscriptionFilter(sensor_ids=("osaka-rain-umeda",)),
            node_id="rain", initially_active=False,
        )
        trig = flow.add_operator(
            TriggerOnSpec(interval=300.0, condition="avg_temperature > 25",
                          targets=("some-other-sensor",)),
            node_id="trig",
        )
        sink = flow.add_sink(node_id="k")
        flow.connect(temp, trig)
        flow.connect(rain, sink)
        flow.connect_control(trig, rain)
        report = validate_dataflow(flow, registry)
        assert "does not overlap" in issues(report, 'warnings')


class TestThematicCompatibility:
    def _join_flow(self, left_theme, right_theme):
        flow = Dataflow("thematic")
        a = flow.add_source(SubscriptionFilter(), node_id="a")
        flow.sources["a"].schema = StreamSchema.build(
            {"x": "float"}, themes=(left_theme,) if left_theme else ())
        b = flow.add_source(SubscriptionFilter(), node_id="b")
        flow.sources["b"].schema = StreamSchema.build(
            {"y": "float"}, themes=(right_theme,) if right_theme else ())
        join = flow.add_operator(JoinSpec(interval=60.0, predicate="true"),
                                 node_id="j")
        sink = flow.add_sink(node_id="k")
        flow.connect(a, join, port=0)
        flow.connect(b, join, port=1)
        flow.connect(join, sink)
        return flow

    def test_disjoint_themes_warn(self):
        flow = self._join_flow("weather/rain", "mobility/traffic")
        report = validate_dataflow(flow)
        assert report.is_valid  # a warning, not an error
        assert "thematically unrelated" in issues(report, 'warnings')

    def test_related_themes_silent(self):
        flow = self._join_flow("weather/rain", "weather")
        report = validate_dataflow(flow)
        assert not any("thematically" in str(issue)
                       for issue in report.warnings)

    def test_untagged_stream_silent(self):
        flow = self._join_flow("", "weather/rain")
        report = validate_dataflow(flow)
        assert not any("thematically" in str(issue)
                       for issue in report.warnings)


class TestValidationError:
    def test_raise_if_invalid_carries_issues(self, registry):
        flow = umeda("broken", ("f", FilterSpec("ghost > 0")))
        report = validate_dataflow(flow, registry)
        with pytest.raises(ValidationError) as exc_info:
            report.raise_if_invalid()
        assert exc_info.value.issues
