"""Differential test: NetworkEmulator paths against networkx's weighted shortest path.

Small integer latencies (zeros included) make equal-latency ties common, so
the test pins the emulator's tie rule, not just its distances. The emulator
caches a path per unordered pair, so each probe direction gets its own
emulator: ``path(a, b)`` is checked on one and ``path(b, a)`` on the other.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testbed.network import Link, NetworkEmulator

nx = pytest.importorskip("networkx")

NODES = [f"n{i}" for i in range(7)]
#: probed endpoints include two names no link or site ever declares.
PROBES = NODES + ["ghost", "phantom"]
LAN = (NetworkEmulator.DEFAULT_LATENCY_MS, NetworkEmulator.DEFAULT_BANDWIDTH_GBPS, 0.0)

links = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(NODES),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.0, 0.01, 0.1]),
    ),
    max_size=16,
)


def build(sites, program):
    """The same topology as a NetworkEmulator and as a networkx Graph."""
    net = NetworkEmulator()
    graph = nx.Graph()
    for name in sites:
        net.add_site(name)
        graph.add_node(name)
    for a, b, latency, bandwidth, loss in program:
        net.add_link(Link(a, b, latency_ms=latency, bandwidth_gbps=bandwidth, loss=loss))
        graph.add_edge(a, b, latency_ms=latency, bandwidth_gbps=bandwidth, loss=loss)
    return net, graph


def reference_path(graph, a, b):
    """(hops, latency_ms, bandwidth_gbps, loss) via networkx, LAN defaults if no path."""
    try:
        hops = nx.shortest_path(graph, a, b, weight="latency_ms")
    except (nx.NodeNotFound, nx.NetworkXNoPath):
        return ((a, b), *LAN)
    latency, bandwidth, success = 0.0, float("inf"), 1.0
    for u, v in zip(hops, hops[1:]):
        edge = graph.edges[u, v]
        latency += edge["latency_ms"]
        bandwidth = min(bandwidth, edge["bandwidth_gbps"])
        success *= 1.0 - edge["loss"]
    return tuple(hops), latency, bandwidth, 1.0 - success


def assert_paths_match(sites, program):
    for forward in (True, False):
        net, graph = build(sites, program)
        assert net.endpoints() == sorted(graph.nodes)
        for a in PROBES:
            for b in PROBES:
                if a != b and (a < b) == forward:
                    got = net.path(a, b)
                    assert (got.hops, got.latency_ms, got.bandwidth_gbps, got.loss) == (
                        reference_path(graph, a, b)
                    )


@settings(max_examples=300, deadline=None)
@given(
    sites=st.lists(st.sampled_from(NODES), max_size=3),
    declared=links,
    readded=st.lists(st.integers(min_value=0, max_value=15), max_size=4),
    relatency=st.integers(min_value=0, max_value=3),
)
def test_paths_match_networkx(sites, declared, readded, relatency):
    # Re-adding a declared link replaces both directions and keeps the neighbour order.
    program = list(declared) + [
        (*declared[i][:2], relatency, *declared[i][3:]) for i in readded if i < len(declared)
    ]
    assert_paths_match(sites, program)


def test_all_zero_latency_ties_match_networkx():
    edges = [("n0", "n1"), ("n0", "n2"), ("n1", "n3"), ("n2", "n3"), ("n0", "n3")]
    assert_paths_match([], [(a, b, 0, bw, 0.0) for bw, (a, b) in enumerate(edges, 1)])
