"""Property-based tests: DSN parse∘render identity on arbitrary programs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsn.ast import (
    DsnChannel, DsnControl, DsnProgram, DsnService, ServiceRole,
)
from repro.dsn.parse import parse_dsn
from repro.network.qos import QosPolicy

names = st.from_regex(r"[a-z][a-z0-9-]{0,10}", fullmatch=True)

json_values = st.recursive(
    st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.booleans(),
        st.none(),
        st.text(alphabet="abc XYZ0123;{}()'", max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.from_regex(r"[a-z][a-z_]{0,6}", fullmatch=True),
                        children, max_size=3),
    ),
    max_leaves=6,
)

params = st.dictionaries(st.from_regex(r"[a-z][a-z_]{0,8}", fullmatch=True),
                         json_values, max_size=4)

qos_policies = st.one_of(
    st.none(),
    st.builds(
        QosPolicy,
        qos_class=st.sampled_from(["best-effort", "reliable", "real-time"]),
        segment_bytes=st.integers(min_value=1, max_value=10**6),
        priority=st.integers(min_value=-5, max_value=5),
        max_latency=st.one_of(
            st.just(float("inf")),
            st.floats(min_value=0.001, max_value=100.0),
        ),
    ),
)

services = st.builds(
    DsnService,
    role=st.sampled_from(list(ServiceRole)),
    name=names,
    kind=st.one_of(st.just(""), names),
    params=params,
    qos=qos_policies,
)


@st.composite
def programs(draw):
    service_list = draw(st.lists(services, min_size=1, max_size=6,
                                 unique_by=lambda s: s.name))
    service_names = [service.name for service in service_list]
    channels = draw(st.lists(
        st.builds(
            DsnChannel,
            source=st.sampled_from(service_names),
            target=st.sampled_from(service_names),
            port=st.integers(min_value=0, max_value=3),
        ),
        max_size=6,
    ))
    controls = draw(st.lists(
        st.builds(
            DsnControl,
            trigger=st.sampled_from(service_names),
            source=st.sampled_from(service_names),
        ),
        max_size=3,
    ))
    return DsnProgram(name=draw(names), services=service_list,
                      channels=channels, controls=controls)


class TestDsnRoundTrip:
    @given(programs())
    @settings(max_examples=150)
    def test_parse_render_identity(self, program):
        rendered = program.render()
        parsed = parse_dsn(rendered)
        assert parsed.render() == rendered

    @given(programs())
    @settings(max_examples=60)
    def test_parsed_program_structurally_equal(self, program):
        parsed = parse_dsn(program.render())
        assert parsed.name == program.name
        assert len(parsed.services) == len(program.services)
        for original in program.services:
            roundtripped = parsed.service(original.name)
            assert roundtripped.role is original.role
            assert roundtripped.kind == original.kind
            assert roundtripped.params == original.params
        assert parsed.channels == program.channels
        assert parsed.controls == program.controls
