"""Reservations: the testbed analogue of Grid'5000 ``oarsub`` jobs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ReservationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.testbed.node import Node
    from repro.testbed.site import Testbed

__all__ = ["ResourceRequest", "Reservation"]


@dataclass(frozen=True)
class ResourceRequest:
    """How many nodes of which cluster an experiment wants.

    ``require_gpu`` lets a request assert the cluster's hardware (the paper
    pins the Identification Engine on *chifflot* because it needs a GPU).
    """

    cluster: str
    nodes: int
    require_gpu: bool = False

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ReservationError(f"must request >= 1 node, got {self.nodes}")


@dataclass
class Reservation:
    """A granted set of nodes, released as a unit (context manager)."""

    job_id: str
    testbed: "Testbed"
    nodes: dict[str, list["Node"]] = field(default_factory=dict)
    released: bool = False
    #: manual-lifecycle ``reservation:<job_id>`` span (set by Testbed.reserve
    #: when tracing is on); ended at release so the campaign timeline shows
    #: how long the nodes were held.
    _span: Any = field(default=None, repr=False, compare=False)
    _tracer: Any = field(default=None, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return sum(len(ns) for ns in self.nodes.values())

    def nodes_of(self, cluster: str) -> list["Node"]:
        """The reserved nodes belonging to ``cluster``."""
        try:
            return self.nodes[cluster]
        except KeyError:
            raise ReservationError(
                f"reservation {self.job_id} holds no nodes of cluster {cluster!r}"
            ) from None

    def all_nodes(self) -> list["Node"]:
        return [n for ns in self.nodes.values() for n in ns]

    def release(self) -> None:
        """Return all nodes to the testbed (idempotent)."""
        if self.released:
            return
        for ns in self.nodes.values():
            for node in ns:
                node.release()
        self.released = True
        if self._span is not None and self._tracer is not None:
            self._tracer.end_span(self._span)
            self._span = None
        from repro.observability.trace import get_tracer

        registry = get_tracer().metrics
        if registry is not None:
            gauge = registry.gauge(
                "testbed_nodes_reserved", "nodes currently held by reservations", ("cluster",)
            )
            for cluster_name, nodes in self.nodes.items():
                gauge.dec(len(nodes), cluster=cluster_name)

    def __enter__(self) -> "Reservation":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        per = ", ".join(f"{c}:{len(ns)}" for c, ns in self.nodes.items())
        return f"<Reservation {self.job_id} [{per}]{' released' if self.released else ''}>"
