"""Network topology and emulation.

E2Clab's network manager applies ``tc``-style latency/bandwidth constraints
between layers of the continuum. Here the topology is a graph of
*endpoints* — sites, clusters or logical layers (``edge``/``fog``/``cloud``)
— whose edges carry latency and bandwidth. Transfer time for a payload is::

    one_way_latency + payload_bytes / bottleneck_bandwidth

along the shortest-latency path, which is the first-order model used by the
Edge-to-Cloud emulation literature the paper builds on.

The graph is an insertion-ordered dict-of-dicts adjacency searched with the
textbook bidirectional Dijkstra; ``tests/test_network_dijkstra.py`` checks
its paths, equal-latency ties included, against a reference graph library.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from repro.errors import ValidationError

__all__ = ["Link", "NetworkPath", "NetworkEmulator"]

#: ``adjacency[u][v]`` is the edge dict shared by both directions of a link.
Adjacency = dict[str, dict[str, dict[str, float]]]


def _walk(node: str | None, preds: dict[str, str | None]) -> list[str]:
    hops = []
    while node is not None:
        hops.append(node)
        node = preds[node]
    return hops


def _shortest_hops(adj: Adjacency, source: str, target: str) -> list[str] | None:
    """Minimum-latency hops from ``source`` to ``target`` (``None``: no path).

    Bidirectional Dijkstra alternating a forward and a backward search, with
    ``(dist, counter, node)`` heap entries and relaxation on strictly shorter
    distances only: among equal-latency paths the one found first wins.
    """
    dists: list[dict[str, float]] = [{}, {}]
    preds: list[dict[str, str | None]] = [{source: None}, {target: None}]
    seen: list[dict[str, float]] = [{source: 0}, {target: 0}]
    fringe: list[list[tuple[float, int, str]]] = [[], []]
    c = count()
    heappush(fringe[0], (0, next(c), source))
    heappush(fringe[1], (0, next(c), target))
    meet = None
    best = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            return _walk(meet, preds[0])[::-1] + _walk(preds[1][meet], preds[1])
        for w, edge in adj[v].items():
            length = dist + edge["latency_ms"]
            if w not in dists[direction] and (
                w not in seen[direction] or length < seen[direction][w]
            ):
                seen[direction][w] = length
                heappush(fringe[direction], (length, next(c), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    total = length + seen[1 - direction][w]
                    if best is None or best > total:
                        best, meet = total, w
    return None


@dataclass(frozen=True)
class Link:
    """A bidirectional network link with symmetric characteristics."""

    a: str
    b: str
    latency_ms: float
    bandwidth_gbps: float
    jitter_ms: float = 0.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValidationError("latency must be >= 0")
        if self.bandwidth_gbps <= 0:
            raise ValidationError("bandwidth must be > 0")
        if self.jitter_ms < 0:
            raise ValidationError("jitter must be >= 0")
        if not 0 <= self.loss < 1:
            raise ValidationError("loss must be in [0, 1)")

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0


@dataclass(frozen=True)
class NetworkPath:
    """Resolved end-to-end characteristics between two endpoints."""

    hops: tuple[str, ...]
    latency_ms: float
    bandwidth_gbps: float
    loss: float

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0

    def transfer_time(self, payload_bytes: float) -> float:
        """Seconds to move ``payload_bytes`` one-way over this path.

        Loss is folded in as goodput reduction (TCP-like first-order model);
        the latency term is one propagation delay.
        """
        goodput = self.bandwidth_bytes_per_s * (1.0 - self.loss)
        return self.latency_ms / 1e3 + payload_bytes / goodput

    def round_trip_time(self) -> float:
        """Seconds for one RTT."""
        return 2.0 * self.latency_ms / 1e3


class NetworkEmulator:
    """Graph of endpoints and constrained links; path resolution with cache."""

    #: Default characteristics when two endpoints share no explicit path —
    #: treated as co-located on the testbed LAN.
    DEFAULT_LATENCY_MS = 0.05
    DEFAULT_BANDWIDTH_GBPS = 10.0

    def __init__(self) -> None:
        self._adj: Adjacency = {}
        self._cache: dict[tuple[str, str], NetworkPath] = {}

    def add_site(self, name: str) -> None:
        self._adj.setdefault(name, {})

    def endpoints(self) -> list[str]:
        return sorted(self._adj)

    def add_link(self, link: Link) -> None:
        """Install (or replace) the link between ``link.a`` and ``link.b``."""
        edge = {
            "latency_ms": link.latency_ms,
            "bandwidth_gbps": link.bandwidth_gbps,
            "loss": link.loss,
        }
        self._adj.setdefault(link.a, {})[link.b] = edge
        self._adj.setdefault(link.b, {})[link.a] = edge
        self._cache.clear()

    def constrain(
        self,
        a: str,
        b: str,
        *,
        latency_ms: float,
        bandwidth_gbps: float,
        loss: float = 0.0,
    ) -> None:
        """E2Clab-style shorthand for :meth:`add_link`."""
        self.add_link(Link(a, b, latency_ms=latency_ms, bandwidth_gbps=bandwidth_gbps, loss=loss))

    def path(self, a: str, b: str) -> NetworkPath:
        """Resolve the shortest-latency path between two endpoints.

        Unknown or disconnected endpoint pairs fall back to LAN defaults —
        the emulator only *constrains* traffic that the experiment declared,
        exactly like ``tc`` rules on a flat testbed network.
        """
        if a == b:
            return NetworkPath(hops=(a,), latency_ms=0.0, bandwidth_gbps=float("inf"), loss=0.0)
        key = (a, b) if a <= b else (b, a)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        path = self._resolve(a, b)
        self._cache[key] = path
        return path

    def _resolve(self, a: str, b: str) -> NetworkPath:
        if a in self._adj and b in self._adj:
            hops = _shortest_hops(self._adj, a, b)
            if hops is not None:
                latency = 0.0
                bandwidth = float("inf")
                success = 1.0
                for u, v in zip(hops, hops[1:]):
                    edge = self._adj[u][v]
                    latency += edge["latency_ms"]
                    bandwidth = min(bandwidth, edge["bandwidth_gbps"])
                    success *= 1.0 - edge["loss"]
                return NetworkPath(
                    hops=tuple(hops),
                    latency_ms=latency,
                    bandwidth_gbps=bandwidth,
                    loss=1.0 - success,
                )
        return NetworkPath(
            hops=(a, b),
            latency_ms=self.DEFAULT_LATENCY_MS,
            bandwidth_gbps=self.DEFAULT_BANDWIDTH_GBPS,
            loss=0.0,
        )

    def transfer_time(self, a: str, b: str, payload_bytes: float) -> float:
        """Seconds to transfer ``payload_bytes`` from ``a`` to ``b``."""
        return self.path(a, b).transfer_time(payload_bytes)
