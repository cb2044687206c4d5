"""Property-based tests for schemas and schema inference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema.infer import join_schema, aggregate_schema
from repro.schema.schema import Attribute, StreamSchema
from repro.schema.types import AttributeType

attr_names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
attr_types = st.sampled_from(
    [AttributeType.BOOL, AttributeType.INT, AttributeType.FLOAT,
     AttributeType.STRING]
)


@st.composite
def schemas(draw, min_attrs=1, max_attrs=6):
    names = draw(st.lists(attr_names, min_size=min_attrs, max_size=max_attrs,
                          unique=True))
    attrs = tuple(Attribute(name, draw(attr_types)) for name in names)
    return StreamSchema(attributes=attrs)


class TestSchemaInvariants:
    @given(schemas())
    def test_names_unique(self, schema):
        assert len(set(schema.names)) == len(schema.names)

    @given(schemas())
    def test_project_preserves_types(self, schema):
        names = list(schema.names)[: max(1, len(schema) // 2)]
        projected = schema.project(names)
        for name in names:
            assert projected.type_of(name) is schema.type_of(name)

    @given(schemas())
    def test_prefix_then_strip_recovers_names(self, schema):
        prefixed = schema.prefixed("x")
        stripped = [name[2:] for name in prefixed.names]
        assert tuple(stripped) == schema.names

    @given(schemas())
    def test_payload_from_schema_validates(self, schema):
        sample_values = {AttributeType.BOOL: True, AttributeType.INT: 1,
                         AttributeType.FLOAT: 1.5, AttributeType.STRING: "x"}
        payload = {
            attr.name: sample_values[attr.type] for attr in schema.attributes}
        schema.validate_payload(payload)


class TestJoinSchemaProperties:
    @given(schemas(), schemas())
    @settings(max_examples=80)
    def test_join_output_has_all_attributes(self, left, right):
        try:
            joined = join_schema(left, right)
        except Exception:
            return  # collision with prefixes is legal to reject
        assert len(joined) == len(left) + len(right)
        # Non-colliding names survive unchanged.
        collisions = set(left.names) & set(right.names)
        for name in left.names:
            if name not in collisions:
                assert name in joined

    @given(schemas())
    def test_self_join_prefixes_everything_shared(self, schema):
        joined = join_schema(schema, schema)
        for name in schema.names:
            assert f"l_{name}" in joined
            assert f"r_{name}" in joined


class TestAggregateSchemaProperties:
    @given(schemas(), st.floats(min_value=0.1, max_value=1e6))
    def test_numeric_attributes_always_aggregable(self, schema, interval):
        numeric = [a.name for a in schema.attributes if a.type.is_numeric]
        if not numeric:
            return
        result = aggregate_schema(schema, numeric, "AVG", interval)
        assert len(result) == len(numeric)
        assert all(result.type_of(f"avg_{n}") is AttributeType.FLOAT
                   for n in numeric)

    @given(schemas(), st.floats(min_value=0.1, max_value=1e6))
    def test_count_always_possible(self, schema, interval):
        names = list(schema.names)
        result = aggregate_schema(schema, names, "COUNT", interval)
        assert all(result.type_of(f"count_{n}") is AttributeType.INT
                   for n in names)

    @given(st.floats(min_value=0.1, max_value=86400.0 * 400))
    def test_output_granularity_covers_interval(self, interval):
        schema = StreamSchema.build({"v": "float"})
        result = aggregate_schema(schema, ["v"], "AVG", interval)
        gran = result.temporal_granularity
        assert gran.seconds >= min(interval, 365 * 86400.0) or gran.name == "year"
