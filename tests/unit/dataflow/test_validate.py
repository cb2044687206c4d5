"""The consistency check seen from the canvas: schemas per node.

Which canvases the check rejects, warns about or accepts is the table in
``tests/unit/dsn/test_check.py``; the ``row`` lines run its rows.
"""

from repro.dataflow.ops import AggregationSpec, FilterSpec
from repro.dsn.check import check
from repro.pubsub.subscription import SubscriptionFilter
from tests.builders import pipeline
from tests.unit.dsn.test_check import row


def checked(registry, *operators):
    """The check of ``src -> operators... -> k`` over one temperature
    sensor."""
    flow = pipeline("canvas", *operators, sink="k", match=SubscriptionFilter(
        sensor_ids=("osaka-temp-umeda",)))
    return check(flow, registry)


class TestHappyPath:
    test_valid_flow_passes = row("valid")
    test_raise_if_invalid_noop_when_valid = row("valid")

    def test_schemas_propagated_to_every_node(self, registry):
        report = checked(registry, ("f", FilterSpec("temperature > 24")))
        assert set(report.schemas) == {"src", "f", "k"}
        assert "temperature" in report.schemas["f"]

    def test_source_schema_resolved_from_registry(self, registry):
        report = checked(registry)
        assert report.schemas["src"] == registry.get("osaka-temp-umeda").schema


class TestStructure:
    test_cycle_detected = row("cycle")
    test_no_sources_is_error = row("no-sources")
    test_unconnected_operator_port = row("port-unconnected")
    test_half_connected_join = row("join-half")
    test_operator_output_unused = row("output-unused")
    test_sink_without_input = row("sink-unfed")
    test_unconsumed_source_is_warning_only = row("source-unconsumed")


class TestSchemas:
    test_bad_condition_attribute = row("unknown-attribute")
    test_error_localised_to_node = row("localised")

    def test_downstream_of_broken_node_not_double_reported(self, registry):
        report = checked(registry, ("bad", FilterSpec("ghost > 0")),
                         ("after", AggregationSpec(
                             interval=60.0, attributes=("temperature",),
                             function="AVG")))
        assert [issue.node_id for issue in report.errors] == ["bad"]
        assert report.schemas["after"] is None


class TestSourceResolution:
    test_filter_matching_nothing = row("no-sensor")
    test_filter_matching_mixed_schemas = row("mixed-schemas")
    test_no_registry_and_no_schema_is_error = row("no-sensor")


class TestTriggers:
    test_valid_trigger_flow = row("trigger")
    test_trigger_without_control_edge = row("trigger-uncontrolled")
    test_trigger_on_active_source_warns = row("trigger-on-active")
    test_target_mismatch_warns = row("trigger-target-mismatch")


class TestThematicCompatibility:
    test_disjoint_themes_warn = row("join-disjoint-themes")
    test_related_themes_silent = row("join-related-themes")
    test_untagged_stream_silent = row("join-untagged-stream")


class TestValidationError:
    test_raise_if_invalid_carries_issues = row("unknown-attribute")
