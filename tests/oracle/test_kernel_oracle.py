"""The kernel oracle: two kernels per operator, one answer (DESIGN.md §10).

The same rows fed as different message shapes (tuple by tuple, batches
that take the column kernel) report the same thing; no deployment, no
flag.  The structural half pins the rule itself: an operator with a
column kernel has no row loop of its own, and a fused chain has nothing
to switch its column kernels off with.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.streams  # noqa: F401  (imports every operator module)
from repro.streams.base import Operator
from repro.streams.columnar import MIN_COLUMNAR_ROWS, LazyRows
from repro.streams.cull import CullSpaceOperator, CullTimeOperator
from repro.streams.filter import FilterOperator
from repro.streams.fused import FusedOperator
from repro.streams.transform import TransformOperator, ValidateOperator
from repro.streams.tuple import SensorTuple, TupleBatch
from repro.streams.virtual import VirtualPropertyOperator
from repro.stt.event import SttStamp
from repro.stt.spatial import Point

# -- the rule, structurally ---------------------------------------------------


def _operator_classes(root=Operator):
    for cls in root.__subclasses__():
        if cls.__module__.startswith("repro."):  # not other tests' doubles
            yield cls
        yield from _operator_classes(cls)


def test_a_column_kernel_excludes_a_private_row_loop():
    accelerated = {
        cls for cls in _operator_classes() if hasattr(cls, "columnar_step")}
    assert {cls.__name__ for cls in accelerated} >= {
        "FilterOperator", "ValidateOperator", "TransformOperator",
        "VirtualPropertyOperator", "CullTimeOperator", "CullSpaceOperator",
    }
    assert [
        cls.__name__ for cls in accelerated
        if cls._process_batch is not Operator._process_batch
    ] == []


def test_a_fused_chain_has_no_columnar_switch():
    fused = FusedOperator([FilterOperator("a > 0"), FilterOperator("a > 1")])
    assert not hasattr(fused, "columnar")


# -- the oracle ---------------------------------------------------------------

#: The six accelerated operators (transform twice: assigning and
#: projecting).  Every builder takes the drawn parameter; names repeat on
#: purpose (``v0``/``v1``) so that two virtual properties in one chain
#: collide, and ``project`` asks for a property only an upstream
#: ``virtual`` (or the spliced row) provides.
BUILDERS = {
    "filter": lambda p: FilterOperator(f"temperature > {p - 16}"),
    "validate": lambda p: ValidateOperator(
        ["temperature > -15", f"humidity < {52 + p % 3}"]
    ),
    "transform": lambda p: TransformOperator(
        assignments={"ratio": "humidity / (temperature - 20)"},
        rename={"ratio": f"r{p % 2}"},
    ),
    "project": lambda p: TransformOperator(
        project=["temperature", "humidity", f"v{p % 2}"]
    ),
    "virtual": lambda p: VirtualPropertyOperator(
        f"v{p % 2}", "temperature * 2"
    ),
    "cull-time": lambda p: CullTimeOperator(
        rate=p % 4 + 1, start=2.0, end=40.0
    ),
    "cull-space": lambda p: CullSpaceOperator(
        rate=p % 3 + 1, corner1=(34.4, 135.0), corner2=(34.8, 136.0)
    ),
}

members = st.tuples(st.sampled_from(sorted(BUILDERS)), st.integers(0, 30))

#: Poison on purpose: 20.0 divides by zero in ``transform``, ``None`` and
#: a string fail every comparison and product they reach.
temperatures = st.one_of(
    st.floats(min_value=-20.0, max_value=45.0,
              allow_nan=False, allow_infinity=False),
    st.just(20.0), st.none(), st.just("hot"),
)
streams = st.lists(temperatures, min_size=1, max_size=24)


def _row(seq: int, temperature, **extra) -> SensorTuple:
    return SensorTuple(
        payload={"temperature": temperature, "humidity": 50.0 + seq % 3,
                 **extra},
        # Every third row lies outside ``cull-space``'s box.
        stamp=SttStamp(time=float(seq),
                       location=Point(34.5 + (seq % 3) * 0.25, 135.5)),
        source="oracle",
        seq=seq,
    )


def _observe(members, rows, run: "int | None"):
    """Feed ``rows`` through a fresh chain of ``members()``, ``run`` at a
    time (``None``, the reference: one ``on_tuple`` per row).  Returns the
    emitted rows with payload item order, the wrapper's and every
    member's stats, and the cull counters."""
    fused = FusedOperator(members())
    assert fused._columnar_capable
    out: list = []
    if run is None:
        for row in rows:
            out.extend(fused.on_tuple(row))
    else:
        for start in range(0, len(rows), run):
            batch = TupleBatch.of(rows[start:start + run])
            emitted = fused.on_batch(batch)
            if len(batch) >= MIN_COLUMNAR_ROWS and emitted:
                # The shape decides the kernel, nothing else does.
                assert isinstance(emitted, LazyRows) == (
                    batch.columnar() is not None)
            out.extend(emitted)
    return (
        [(t.seq, list(t.payload.items())) for t in out],
        fused.stats.snapshot(),
        [member.stats.snapshot() for member in fused.members],
        [getattr(member, "_counter", None) for member in fused.members],
    )


@pytest.mark.parametrize("head", sorted(BUILDERS))
@given(head_param=st.integers(0, 30),
       tail=st.lists(members, min_size=1, max_size=4),
       stream=streams, splice=st.integers(0, 24))
@settings(max_examples=25, deadline=None)
def test_every_shape_of_the_same_rows_agrees(head, head_param, tail,
                                             stream, splice):
    def chain():
        return [BUILDERS[kind](p) for kind, p in [(head, head_param)] + tail]

    uniform = [_row(seq, t) for seq, t in enumerate(stream)]
    reference = _observe(chain, uniform, None)
    # One uniform batch: the column kernels (from four rows up).
    assert _observe(chain, uniform, len(uniform)) == reference
    # Runs of three: below the columnar minimum, the base row loop.
    assert _observe(chain, uniform, 3) == reference

    # One member with an extra field — one that collides with ``v0`` and
    # satisfies ``project`` for that row alone — makes the batch
    # heterogeneous: the base row loop again, whatever its length.
    at = splice % (len(uniform) + 1)
    spliced = uniform[:at] + [_row(99, 21.0, v0=1.0)] + uniform[at:]
    assert TupleBatch.of(spliced).columnar() is None
    assert _observe(
        chain, spliced, len(spliced)) == _observe(chain, spliced, None)
