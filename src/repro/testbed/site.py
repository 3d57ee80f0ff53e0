"""Sites and the :class:`Testbed` facade (reservation front-end)."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from repro.errors import ReservationError, ValidationError
from repro.testbed.cluster import Cluster
from repro.testbed.network import NetworkEmulator
from repro.testbed.reservation import Reservation, ResourceRequest

__all__ = ["Site", "Testbed"]


class Site:
    """A geographic site grouping clusters (e.g. Lille, Nancy)."""

    def __init__(self, name: str, clusters: Iterable[Cluster] = ()) -> None:
        self.name = name
        self.clusters: dict[str, Cluster] = {}
        for cluster in clusters:
            self.add_cluster(cluster)

    def add_cluster(self, cluster: Cluster) -> None:
        if cluster.name in self.clusters:
            raise ValidationError(f"duplicate cluster {cluster.name!r} in site {self.name!r}")
        if cluster.site_name != self.name:
            raise ValidationError(
                f"cluster {cluster.name!r} belongs to site {cluster.site_name!r}, "
                f"not {self.name!r}"
            )
        self.clusters[cluster.name] = cluster

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.clusters.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Site {self.name} clusters={sorted(self.clusters)}>"


class Testbed:
    """The whole simulated testbed: sites, clusters, network, reservations.

    (``__test__ = False`` prevents pytest from collecting this class when
    it is imported into test modules.)

    The reservation API mirrors what E2Clab needs from Grid'5000: ask for N
    nodes of given clusters, get back a :class:`Reservation` whose nodes are
    yours until released.
    """

    __test__ = False

    def __init__(self, name: str, sites: Iterable[Site] = ()) -> None:
        self.name = name
        self.sites: dict[str, Site] = {}
        self.network = NetworkEmulator()
        self._job_counter = itertools.count(1)
        for site in sites:
            self.add_site(site)

    def add_site(self, site: Site) -> None:
        if site.name in self.sites:
            raise ValidationError(f"duplicate site {site.name!r}")
        self.sites[site.name] = site
        self.network.add_site(site.name)

    # -- lookup ---------------------------------------------------------------

    def cluster(self, name: str) -> Cluster:
        for site in self.sites.values():
            if name in site.clusters:
                return site.clusters[name]
        raise ReservationError(f"unknown cluster {name!r} (have: {sorted(self.cluster_names())})")

    def cluster_names(self) -> list[str]:
        return [c for site in self.sites.values() for c in site.clusters]

    @property
    def total_nodes(self) -> int:
        return sum(len(c) for site in self.sites.values() for c in site)

    def free_node_count(self, cluster: str | None = None) -> int:
        if cluster is not None:
            return len(self.cluster(cluster).free_nodes())
        return sum(len(self.cluster(c).free_nodes()) for c in self.cluster_names())

    # -- reservations ---------------------------------------------------------

    def reserve(self, requests: Iterable[ResourceRequest], job_name: str = "job") -> Reservation:
        """Atomically reserve nodes for all ``requests``.

        Either every request is satisfiable (and all nodes are reserved) or
        a :class:`~repro.errors.ReservationError` is raised and nothing is
        reserved — matching batch-scheduler semantics.
        """
        requests = list(requests)
        if not requests:
            raise ReservationError("empty reservation request")
        job_id = f"{job_name}.{next(self._job_counter)}"

        # Feasibility check first (atomicity).
        plan: list[tuple[ResourceRequest, list]] = []
        for req in requests:
            cluster = self.cluster(req.cluster)
            if req.require_gpu and not cluster.has_gpu:
                raise ReservationError(
                    f"request needs GPUs but cluster {req.cluster!r} has none"
                )
            free = cluster.free_nodes()
            if len(free) < req.nodes:
                raise ReservationError(
                    f"cluster {req.cluster!r}: requested {req.nodes} nodes, "
                    f"only {len(free)} free"
                )
            plan.append((req, free[: req.nodes]))

        reservation = Reservation(job_id=job_id, testbed=self)
        for req, nodes in plan:
            for node in nodes:
                node.reserve(job_id)
            reservation.nodes.setdefault(req.cluster, []).extend(nodes)

        from repro.observability.trace import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            # A manual-lifecycle span spanning reserve → release, so the
            # campaign timeline shows testbed occupancy alongside the trials.
            reservation._span = tracer.start_span(
                f"reservation:{job_id}",
                nodes=reservation.node_count,
                clusters=",".join(sorted(reservation.nodes)),
            )
            reservation._tracer = tracer
        if tracer.metrics is not None:
            # A level, not a span: it holds while the reservation is open.
            gauge = tracer.metrics.gauge(
                "testbed_nodes_reserved", "nodes currently held by reservations", ("cluster",)
            )
            for cluster_name, nodes in reservation.nodes.items():
                gauge.inc(len(nodes), cluster=cluster_name)
        return reservation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Testbed {self.name} sites={sorted(self.sites)} nodes={self.total_nodes}>"
