"""Cached ≡ uncached routing across random mutation sequences.

The route cache (:mod:`repro.network.topology`) is keyed by a generation
counter that every topology mutation bumps — node liveness flips, link
liveness/latency/bandwidth changes, node/link additions.  The property:
after *any* interleaving of mutations and route queries, ``route()`` (the
cached path) and ``route_uncached()`` (fresh shortest-path computation)
agree for every node pair — same path, or the same unreachable verdict —
and ``route_latency()`` is the fresh path's ``path_latency()``.

Queries are issued *between* mutations on purpose: that populates the
cache so later mutations exercise invalidation, not just a cold cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnreachableError
from repro.network.topology import Topology

NODES = [f"n{i}" for i in range(6)]

#: Ring + two chords: multiple routes between most pairs, so failures
#: reroute rather than only disconnect.
LINKS = [(NODES[i], NODES[(i + 1) % 6]) for i in range(6)] + [
    ("n0", "n3"),
    ("n1", "n4"),
]

mutations = st.lists(
    st.one_of(
        st.tuples(st.just("kill_node"), st.sampled_from(NODES)),
        st.tuples(st.just("revive_node"), st.sampled_from(NODES)),
        st.tuples(st.just("kill_link"), st.sampled_from(LINKS)),
        st.tuples(st.just("revive_link"), st.sampled_from(LINKS)),
        st.tuples(
            st.just("set_latency"),
            st.tuples(
                st.sampled_from(LINKS),
                st.floats(min_value=0.0001, max_value=0.1),
            ),
        ),
        st.tuples(st.just("query"), st.sampled_from(NODES)),
    ),
    max_size=12,
)


def build() -> Topology:
    topo = Topology()
    for name in NODES:
        topo.add_node(name)
    for i, (a, b) in enumerate(LINKS):
        topo.add_link(a, b, latency=0.001 * (i + 1))
    return topo


def outcome(fn, source, target):
    try:
        return tuple(fn(source, target)), None
    except UnreachableError as exc:
        return None, str(exc)


def assert_all_pairs_agree(topo: Topology) -> None:
    """Same path (or the same unreachable verdict) and the same latency."""
    for source in NODES:
        for target in NODES:
            cached = outcome(topo.route, source, target)
            fresh = outcome(topo.route_uncached, source, target)
            assert cached == fresh, (
                f"{source}->{target}: cached {cached} != fresh {fresh}")
            if fresh[0] is not None:
                assert topo.route_latency(source, target) == (
                    topo.path_latency(list(fresh[0])))


class TestRouteCacheParity:
    @given(mutations)
    @settings(max_examples=250, deadline=None)
    def test_cached_matches_uncached_after_mutations(self, steps):
        topo = build()
        for action, arg in steps:
            if action == "kill_node":
                topo.node(arg).fail()
            elif action == "revive_node":
                topo.node(arg).recover()
            elif action == "kill_link":
                topo.link(*arg).fail()
            elif action == "revive_link":
                topo.link(*arg).recover()
            elif action == "set_latency":
                (a, b), latency = arg
                topo.link(a, b).latency = latency
            else:  # query: warm the cache mid-sequence
                outcome(topo.route, arg, NODES[0])
        assert_all_pairs_agree(topo)
