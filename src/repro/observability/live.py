"""The live telemetry plane: an in-campaign HTTP monitor.

Every other observability surface in this package is post-hoc — spans,
digests, alerts and perf profiles land in files and are rendered after the
run. The live plane attaches a stdlib :class:`ThreadingHTTPServer` to a
*running* campaign (opt-in via ``optimize --serve [host:]port`` or
``OptimizerConf.serve``) and exposes:

- ``GET /metrics`` — Prometheus text exposition from the live registry and
  perf-digest summaries, plus ``repro_live_*`` self-metrics;
- ``GET /status`` — campaign JSON: phase, trial counts, incumbent,
  objective-history tail, and worker liveness derived from the trial
  store's heartbeat ledger;
- ``GET /events`` — a Server-Sent Events stream fed by the tracer's
  ``subscribe`` hook and the watchdog's alert stream. Each client gets a
  *bounded* queue; a slow consumer drops events (counted) instead of ever
  blocking the campaign hot path;
- ``GET /`` — the timeline dashboard in live mode (polls ``/status``,
  subscribes to ``/events``);
- ``POST /telemetry`` — token-authenticated ingest of telemetry-fabric
  payloads, so ``python -m repro worker --push-telemetry URL`` on another
  host streams spans/metrics back *mid-campaign* instead of only
  embedding them in trial outcomes.

The monitor writes a ``monitor.json`` discovery file into the run
directory (URL + ingest token), so workers sharing the run dir — local or
via a shared filesystem — auto-discover where to push. GET endpoints are
unauthenticated (read-only); the token only gates ingest.

Everything here is stdlib-only and the server runs on daemon threads, so a
wedged client can never prevent campaign shutdown.
"""

from __future__ import annotations

import json
import os
import queue
import secrets
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.errors import ValidationError
from repro.observability import fabric
from repro.observability.metrics import get_registry
from repro.observability.trace import get_tracer
from repro.observability.watchdog import get_watchdog

__all__ = [
    "MONITOR_FILE",
    "STATUS_SCHEMA",
    "PUSH_SCHEMA",
    "NullStatusBoard",
    "StatusBoard",
    "get_status_board",
    "set_status_board",
    "parse_serve_spec",
    "LiveMonitor",
    "TelemetryPusher",
    "fetch_status",
    "stream_events",
    "render_status_line",
]

#: discovery file written into the run directory while the monitor is up.
MONITOR_FILE = "monitor.json"
#: schema tag on ``/status`` documents and ``monitor.json``.
STATUS_SCHEMA = "repro.live/1"
#: schema tag on ``POST /telemetry`` envelope documents.
PUSH_SCHEMA = "repro.live.push/1"

#: request body ceiling for ``POST /telemetry`` (defensive bound).
_MAX_BODY_BYTES = 32 * 1024 * 1024


# -- campaign status board ------------------------------------------------------------


class NullStatusBoard:
    """Inert default: the runner's hooks cost one attribute check."""

    enabled = False

    def configure(self, **kwargs: Any) -> None:
        pass

    def set_phase(self, phase: str) -> None:
        pass

    def trial_started(self, trial_id: str) -> None:
        pass

    def trial_finished(
        self, trial_id: str, *, value: float | None = None, status: str = ""
    ) -> None:
        pass

    def snapshot(self, tail: int = 32) -> dict[str, Any]:
        return {}


class StatusBoard(NullStatusBoard):
    """Thread-safe campaign progress counters backing ``GET /status``.

    The runner calls :meth:`trial_started` / :meth:`trial_finished` from the
    submit loop; the manager drives :meth:`set_phase`. Everything else is
    derived, so the hot-path cost is one short critical section per trial.
    """

    enabled = True

    def __init__(
        self,
        *,
        name: str = "campaign",
        num_samples: int = 0,
        mode: str = "min",
        history_limit: int = 4096,
    ) -> None:
        self._lock = threading.Lock()
        self.name = name
        self.num_samples = int(num_samples)
        self.mode = mode
        self.started_unix = time.time()
        self._phase = "starting"
        self._running: set[str] = set()
        self._done = 0
        self._errors = 0
        self._history_limit = int(history_limit)
        self._history: list[tuple[str, float]] = []
        self._incumbent_value: float | None = None
        self._incumbent_trial: str | None = None

    def configure(self, **kwargs: Any) -> None:
        with self._lock:
            for key in ("name", "mode"):
                if key in kwargs:
                    setattr(self, key, kwargs[key])
            if "num_samples" in kwargs:
                self.num_samples = int(kwargs["num_samples"])

    def set_phase(self, phase: str) -> None:
        with self._lock:
            self._phase = phase

    def trial_started(self, trial_id: str) -> None:
        with self._lock:
            self._running.add(trial_id)

    def trial_finished(
        self, trial_id: str, *, value: float | None = None, status: str = ""
    ) -> None:
        with self._lock:
            self._running.discard(trial_id)
            self._done += 1
            if status == "error":
                self._errors += 1
            # NaN guards itself: NaN != NaN.
            if value is not None and value == value:
                value = float(value)
                self._history.append((trial_id, value))
                if len(self._history) > self._history_limit:
                    del self._history[: -self._history_limit]
                best = self._incumbent_value
                better = (
                    best is None
                    or (self.mode == "max" and value > best)
                    or (self.mode != "max" and value < best)
                )
                if better:
                    self._incumbent_value = value
                    self._incumbent_trial = trial_id

    def snapshot(self, tail: int = 32) -> dict[str, Any]:
        with self._lock:
            total = max(self.num_samples, self._done + len(self._running))
            return {
                "name": self.name,
                "phase": self._phase,
                "mode": self.mode,
                "started_unix": self.started_unix,
                "uptime_s": time.time() - self.started_unix,
                "trials": {
                    "total": total,
                    "done": self._done,
                    "running": len(self._running),
                    "pending": max(0, total - self._done - len(self._running)),
                    "errors": self._errors,
                },
                "incumbent": {
                    "trial_id": self._incumbent_trial,
                    "value": self._incumbent_value,
                },
                "objective_tail": [
                    [tid, val] for tid, val in self._history[-int(tail):]
                ],
            }


_board: NullStatusBoard = NullStatusBoard()
_board_lock = threading.Lock()


def get_status_board() -> NullStatusBoard:
    """The process-global status board (inert unless a campaign serves)."""
    return _board


def set_status_board(board: NullStatusBoard | None) -> NullStatusBoard:
    """Install ``board`` globally (``None`` restores the null); returns it."""
    global _board
    with _board_lock:
        _board = board if board is not None else NullStatusBoard()
        return _board


# -- serve-spec parsing ---------------------------------------------------------------


def parse_serve_spec(spec: str | int | None) -> tuple[str, int] | None:
    """Parse ``--serve``/``OptimizerConf.serve`` into ``(host, port)``.

    Accepts a bare port (``8080``, ``"8080"``) — bound on 127.0.0.1 — or
    ``"HOST:PORT"``. Port ``0`` asks the OS for an ephemeral port (the
    monitor publishes the real one in ``monitor.json``). ``None`` means
    serving is off and returns ``None``.
    """
    if spec is None:
        return None
    if isinstance(spec, bool):
        raise ValidationError(f"invalid serve spec: {spec!r}")
    if isinstance(spec, int):
        host, port_text = "127.0.0.1", str(spec)
    else:
        text = str(spec).strip()
        if not text:
            raise ValidationError("serve spec is empty")
        host, sep, port_text = text.rpartition(":")
        if not sep:
            host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValidationError(f"invalid serve port: {port_text!r}") from None
    if not (0 <= port <= 65535):
        raise ValidationError(f"serve port out of range: {port}")
    return (host or "127.0.0.1", port)


# -- the SSE fan-out ------------------------------------------------------------------


class _SSEClient:
    """One connected ``/events`` consumer: a bounded queue + drop counter."""

    __slots__ = ("queue", "dropped")

    def __init__(self, maxsize: int) -> None:
        self.queue: "queue.Queue[tuple[str, str] | None]" = queue.Queue(maxsize=maxsize)
        self.dropped = 0


class LiveMonitor:
    """The embedded HTTP monitor for one campaign.

    Lifecycle belongs to :class:`~repro.optimizer.manager.OptimizationManager`
    (or a test): :meth:`start` binds the server, subscribes to the live
    tracer/watchdog, and writes the ``monitor.json`` discovery file;
    :meth:`stop` reverses all of it. The server never touches campaign
    state directly — it reads the process-global observability singletons,
    so it serves whatever the campaign records.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        run_dir: str | Path | None = None,
        name: str = "campaign",
        token: str | None = None,
        sse_queue_size: int = 256,
        keepalive_s: float = 15.0,
    ) -> None:
        self.host = host
        self.requested_port = int(port)
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.name = name
        #: gates ``POST /telemetry``; GET endpoints stay open (read-only).
        self.token = token or secrets.token_hex(16)
        self.sse_queue_size = int(sse_queue_size)
        self.keepalive_s = float(keepalive_s)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._clients: list[_SSEClient] = []
        self._clients_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._events_sent = 0
        self._events_dropped = 0
        self._telemetry_merges = 0
        self._telemetry_spans = 0
        self._telemetry_rejected = 0
        self._subscribed_tracer: Any = None
        self._subscribed_watchdog: Any = None

    @classmethod
    def from_spec(cls, spec: str | int, **kwargs: Any) -> "LiveMonitor":
        parsed = parse_serve_spec(spec)
        if parsed is None:
            raise ValidationError("serve spec is required")
        host, port = parsed
        return cls(host, port, **kwargs)

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        if self._server is None:
            return self.requested_port
        return int(self._server.server_address[1])

    @property
    def url(self) -> str:
        host = self.host
        if host in ("", "0.0.0.0", "::"):
            host = socket.gethostname()
        return f"http://{host}:{self.port}"

    def start(self) -> "LiveMonitor":
        if self._server is not None:
            return self
        self._stop.clear()
        server = ThreadingHTTPServer(
            (self.host, self.requested_port), _LiveRequestHandler
        )
        server.daemon_threads = True
        server.monitor = self  # type: ignore[attr-defined]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.25},
            name="repro-live-monitor",
            daemon=True,
        )
        self._thread.start()
        tracer = get_tracer()
        if getattr(tracer, "enabled", False):
            tracer.subscribe(self._on_span)
            self._subscribed_tracer = tracer
        watchdog = get_watchdog()
        if watchdog is not None and hasattr(watchdog, "subscribe"):
            watchdog.subscribe(self._on_alert)
            self._subscribed_watchdog = watchdog
        self._write_discovery(closed=False)
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._stop.set()
        if self._subscribed_tracer is not None:
            self._subscribed_tracer.unsubscribe(self._on_span)
            self._subscribed_tracer = None
        if self._subscribed_watchdog is not None:
            self._subscribed_watchdog.unsubscribe(self._on_alert)
            self._subscribed_watchdog = None
        # Wake every SSE loop so open streams close promptly.
        with self._clients_lock:
            clients = list(self._clients)
        for client in clients:
            try:
                client.queue.put_nowait(None)
            except queue.Full:
                pass
        server, thread = self._server, self._thread
        self._server, self._thread = None, None
        server.shutdown()
        server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        self._write_discovery(closed=True)

    def __enter__(self) -> "LiveMonitor":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _write_discovery(self, *, closed: bool) -> None:
        if self.run_dir is None:
            return
        from repro.utils.serialization import dump_json

        try:
            dump_json(
                {
                    "schema": STATUS_SCHEMA,
                    "url": self.url,
                    "token": self.token,
                    "pid": os.getpid(),
                    "started_unix": time.time(),
                    "closed": closed,
                },
                self.run_dir / MONITOR_FILE,
                atomic=True,
            )
        except OSError:
            pass  # discovery is best-effort; the server itself still works

    # -- event fan-out --------------------------------------------------------

    def _register_client(self) -> _SSEClient:
        client = _SSEClient(self.sse_queue_size)
        with self._clients_lock:
            self._clients.append(client)
        return client

    def _unregister_client(self, client: _SSEClient) -> None:
        with self._clients_lock:
            if client in self._clients:
                self._clients.remove(client)
            if client.dropped:
                with self._stats_lock:
                    self._events_dropped += 0  # already counted at drop time

    def _broadcast(self, event: str, data: Mapping[str, Any]) -> None:
        """Fan one event out to every SSE client; never blocks the caller."""
        with self._clients_lock:
            clients = list(self._clients)
        if not clients:
            return
        text = json.dumps(data)
        sent = dropped = 0
        for client in clients:
            try:
                client.queue.put_nowait((event, text))
                sent += 1
            except queue.Full:
                client.dropped += 1
                dropped += 1
        if sent or dropped:
            with self._stats_lock:
                self._events_sent += sent
                self._events_dropped += dropped

    def _on_span(self, span: Any) -> None:
        try:
            data = {
                "name": span.name,
                "duration_s": round(float(span.duration_s), 6),
                "status": span.status,
            }
            for key in ("trial_id", "runner_id"):
                if key in span.attributes:
                    data[key] = span.attributes[key]
            self._broadcast("span", data)
        except Exception:
            pass  # a monitor bug must never reach the tracer's hot path

    def _on_alert(self, alert: Any) -> None:
        try:
            self._broadcast("alert", alert.to_dict())
        except Exception:
            pass

    # -- request counting / self-metrics --------------------------------------

    def _count_request(self, endpoint: str) -> None:
        with self._stats_lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def self_stats(self) -> dict[str, Any]:
        with self._clients_lock:
            sse_clients = len(self._clients)
        with self._stats_lock:
            return {
                "requests": dict(self._requests),
                "sse_clients": sse_clients,
                "sse_events_sent": self._events_sent,
                "sse_events_dropped": self._events_dropped,
                "telemetry_merges": self._telemetry_merges,
                "telemetry_spans_merged": self._telemetry_spans,
                "telemetry_rejected": self._telemetry_rejected,
            }

    def _render_self_metrics(self) -> str:
        stats = self.self_stats()
        lines = [
            "# HELP repro_live_requests_total monitor HTTP requests by endpoint",
            "# TYPE repro_live_requests_total counter",
        ]
        for endpoint in sorted(stats["requests"]):
            lines.append(
                f'repro_live_requests_total{{endpoint="{endpoint}"}} '
                f"{stats['requests'][endpoint]}"
            )
        lines += [
            "# HELP repro_live_sse_clients connected SSE consumers",
            "# TYPE repro_live_sse_clients gauge",
            f"repro_live_sse_clients {stats['sse_clients']}",
            "# HELP repro_live_sse_events_total events enqueued to SSE clients",
            "# TYPE repro_live_sse_events_total counter",
            f"repro_live_sse_events_total {stats['sse_events_sent']}",
            "# HELP repro_live_events_dropped_total events dropped on full SSE queues",
            "# TYPE repro_live_events_dropped_total counter",
            f"repro_live_events_dropped_total {stats['sse_events_dropped']}",
            "# HELP repro_live_telemetry_merges_total accepted POST /telemetry payloads",
            "# TYPE repro_live_telemetry_merges_total counter",
            f"repro_live_telemetry_merges_total {stats['telemetry_merges']}",
            "# HELP repro_live_telemetry_spans_total spans merged via POST /telemetry",
            "# TYPE repro_live_telemetry_spans_total counter",
            f"repro_live_telemetry_spans_total {stats['telemetry_spans_merged']}",
            "# HELP repro_live_telemetry_rejected_total rejected telemetry pushes",
            "# TYPE repro_live_telemetry_rejected_total counter",
            f"repro_live_telemetry_rejected_total {stats['telemetry_rejected']}",
        ]
        return "\n".join(lines) + "\n"

    # -- endpoint payloads ----------------------------------------------------

    def render_metrics(self) -> str:
        """Prometheus text: live registry + perf digests + self-metrics."""
        parts = []
        registry = get_registry()
        if getattr(registry, "enabled", False):
            parts.append(registry.render_prometheus())
        perf = get_tracer().perf
        if perf is not None:
            parts.append(perf.render_prometheus())
        parts.append(self._render_self_metrics())
        return "\n".join(part.rstrip("\n") for part in parts if part) + "\n"

    def _worker_liveness(self) -> list[dict[str, Any]]:
        if self.run_dir is None:
            return []
        store_root = self.run_dir / "store"
        if not (store_root / "store.json").exists():
            return []
        from repro.search.store import TrialStore

        try:
            return TrialStore.open(store_root).worker_liveness()
        except (OSError, ValueError, KeyError, ValidationError):
            return []

    def status(self, *, tail: int = 32) -> dict[str, Any]:
        """The ``GET /status`` document."""
        doc: dict[str, Any] = {"schema": STATUS_SCHEMA, "url": self.url}
        doc.update(get_status_board().snapshot(tail=tail))
        doc["workers"] = self._worker_liveness()
        watchdog = get_watchdog()
        if watchdog is not None:
            alerts = watchdog.alerts()
            doc["alerts"] = {
                "total": len(alerts),
                "recent": [alert.to_dict() for alert in alerts[-5:]],
            }
        else:
            doc["alerts"] = {"total": 0, "recent": []}
        tracer = get_tracer()
        doc["spans_recorded"] = getattr(tracer, "spans_recorded", 0)
        doc["live"] = self.self_stats()
        return doc

    def ingest(self, body: Mapping[str, Any]) -> tuple[int, int]:
        """Merge one ``POST /telemetry`` body; returns (spans, payloads).

        Accepts either a raw fabric payload (``repro.fabric/1``) or a push
        envelope (``repro.live.push/1``) wrapping one ``payload`` or a list
        of ``payloads`` plus optional merge ``attributes``.
        """
        attributes: dict[str, Any] | None = None
        if body.get("schema") == PUSH_SCHEMA:
            raw_attrs = body.get("attributes")
            if isinstance(raw_attrs, Mapping):
                attributes = dict(raw_attrs)
            payloads = body.get("payloads")
            if payloads is None:
                payload = body.get("payload")
                payloads = [payload] if payload is not None else []
        else:
            payloads = [body]
        spans = 0
        merged_payloads = 0
        for payload in payloads:
            if not isinstance(payload, Mapping):
                continue
            spans += fabric.merge_payload(payload, attributes=attributes)
            merged_payloads += 1
        with self._stats_lock:
            self._telemetry_merges += merged_payloads
            self._telemetry_spans += spans
        return spans, merged_payloads

    def render_dashboard_html(self) -> str:
        """The ``GET /`` page: the timeline dashboard in live mode."""
        from repro.observability.analysis import analyze_spans
        from repro.observability.dashboard import render_dashboard

        tracer = get_tracer()
        spans = tracer.finished() if getattr(tracer, "enabled", False) else []
        analysis = analyze_spans(spans)
        watchdog = get_watchdog()
        alerts = (
            [alert.to_dict() for alert in watchdog.alerts()]
            if watchdog is not None
            else []
        )
        perf_doc = tracer.perf.to_dict() if tracer.perf is not None else None
        return render_dashboard(
            analysis,
            title=f"{self.name} (live)",
            subtitle=f"live monitor at {self.url}",
            alerts=alerts,
            perf=perf_doc,
            live=True,
        )


class _LiveRequestHandler(BaseHTTPRequestHandler):
    """Routes monitor requests; every handler thread is a daemon."""

    protocol_version = "HTTP/1.1"

    @property
    def monitor(self) -> LiveMonitor:
        return self.server.monitor  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the monitor must not spam the campaign's stdout

    # -- response helpers -----------------------------------------------------

    def _send_body(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Access-Control-Allow-Origin", "*")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, doc: Mapping[str, Any]) -> None:
        body = json.dumps(doc, indent=2).encode("utf-8")
        self._send_body(code, body, "application/json; charset=utf-8")

    # -- GET ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        monitor = self.monitor
        try:
            if path in ("/", "/index.html"):
                monitor._count_request("/")
                try:
                    html = monitor.render_dashboard_html()
                except Exception as exc:
                    self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
                    return
                self._send_body(200, html.encode("utf-8"), "text/html; charset=utf-8")
            elif path == "/metrics":
                monitor._count_request("/metrics")
                body = monitor.render_metrics().encode("utf-8")
                self._send_body(
                    200, body, "text/plain; version=0.0.4; charset=utf-8"
                )
            elif path == "/status":
                monitor._count_request("/status")
                self._send_json(200, monitor.status())
            elif path == "/events":
                monitor._count_request("/events")
                self._stream_events()
            else:
                self._send_json(404, {"error": f"unknown endpoint {path!r}"})
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def _stream_events(self) -> None:
        monitor = self.monitor
        client = monitor._register_client()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Access-Control-Allow-Origin", "*")
            self.end_headers()
            # A guaranteed first event, so consumers (and the CI smoke) can
            # assert liveness without racing the campaign.
            hello = json.dumps({"url": monitor.url, "name": monitor.name})
            self.wfile.write(f"event: hello\ndata: {hello}\n\n".encode("utf-8"))
            self.wfile.flush()
            last_beat = time.monotonic()
            while not monitor._stop.is_set():
                try:
                    item = client.queue.get(timeout=0.25)
                except queue.Empty:
                    if time.monotonic() - last_beat >= monitor.keepalive_s:
                        self.wfile.write(b": keepalive\n\n")
                        self.wfile.flush()
                        last_beat = time.monotonic()
                    continue
                if item is None:  # shutdown sentinel
                    break
                event, data = item
                self.wfile.write(f"event: {event}\ndata: {data}\n\n".encode("utf-8"))
                self.wfile.flush()
                last_beat = time.monotonic()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            monitor._unregister_client(client)

    # -- POST -----------------------------------------------------------------

    def _authorized(self) -> bool:
        token = self.headers.get("X-Repro-Token", "")
        if not token:
            auth = self.headers.get("Authorization", "")
            if auth.startswith("Bearer "):
                token = auth[len("Bearer "):]
        return bool(token) and secrets.compare_digest(token, self.monitor.token)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        monitor = self.monitor
        try:
            if path != "/telemetry":
                self._send_json(404, {"error": f"unknown endpoint {path!r}"})
                return
            monitor._count_request("/telemetry")
            if not self._authorized():
                with monitor._stats_lock:
                    monitor._telemetry_rejected += 1
                self._send_json(401, {"error": "bad or missing telemetry token"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if not (0 < length <= _MAX_BODY_BYTES):
                self._send_json(400, {"error": "bad Content-Length"})
                return
            try:
                body = json.loads(self.rfile.read(length).decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._send_json(400, {"error": "body is not valid JSON"})
                return
            if not isinstance(body, Mapping):
                self._send_json(400, {"error": "body must be a JSON object"})
                return
            spans, payloads = monitor.ingest(body)
            self._send_json(
                200, {"ok": True, "payloads": payloads, "spans_merged": spans}
            )
        except (BrokenPipeError, ConnectionResetError):
            pass


# -- client side ----------------------------------------------------------------------


class TelemetryPusher:
    """Worker-side client for ``POST /telemetry``.

    Wraps one monitor URL + token; :meth:`push` ships a fabric payload and
    returns ``False`` (never raises) when the monitor is unreachable, so
    the worker can fall back to embedding telemetry in the trial outcome.
    """

    def __init__(self, url: str, *, token: str | None = None, timeout_s: float = 5.0) -> None:
        url = url.rstrip("/")
        if not url.endswith("/telemetry"):
            url = url + "/telemetry"
        self.url = url
        self.token = token or ""
        self.timeout_s = float(timeout_s)
        self.pushed = 0
        self.errors = 0

    @classmethod
    def from_run_dir(
        cls,
        run_dir: str | Path,
        *,
        url: str | None = None,
        token: str | None = None,
        timeout_s: float = 5.0,
    ) -> "TelemetryPusher":
        """Build a pusher from the run dir's ``monitor.json`` discovery file.

        Explicit ``url``/``token`` arguments win over discovered values.
        """
        discovered: dict[str, Any] = {}
        monitor_path = Path(run_dir) / MONITOR_FILE
        if monitor_path.exists():
            try:
                discovered = json.loads(monitor_path.read_text())
            except (OSError, ValueError):
                discovered = {}
        if discovered.get("closed"):
            discovered = {}
        url = url or discovered.get("url")
        if not url:
            raise ValidationError(
                f"no live monitor URL: pass one explicitly or start the campaign "
                f"with --serve (no open {MONITOR_FILE} under {run_dir})"
            )
        return cls(url, token=token or discovered.get("token"), timeout_s=timeout_s)

    def push(
        self,
        payload: Mapping[str, Any],
        *,
        attributes: Mapping[str, Any] | None = None,
    ) -> bool:
        doc = {"schema": PUSH_SCHEMA, "payload": dict(payload)}
        if attributes:
            doc["attributes"] = dict(attributes)
        body = json.dumps(doc).encode("utf-8")
        request = urllib.request.Request(
            self.url,
            data=body,
            headers={
                "Content-Type": "application/json",
                "X-Repro-Token": self.token,
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                ok = 200 <= response.status < 300
        except (urllib.error.URLError, OSError, ValueError):
            ok = False
        if ok:
            self.pushed += 1
        else:
            self.errors += 1
        return ok


def fetch_status(url: str, *, timeout_s: float = 5.0) -> dict[str, Any]:
    """GET ``/status`` from a live monitor and return the parsed document."""
    url = url.rstrip("/")
    if not url.endswith("/status"):
        url = url + "/status"
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return json.loads(response.read().decode("utf-8"))


def stream_events(
    url: str,
    *,
    limit: int | None = None,
    timeout_s: float = 30.0,
    callback: Callable[[str, dict[str, Any]], None] | None = None,
) -> Iterator[tuple[str, dict[str, Any]]]:
    """Consume a monitor's ``/events`` SSE stream as ``(event, data)`` pairs.

    Stops after ``limit`` events (``None`` streams until the server closes
    the connection or the socket times out).
    """
    url = url.rstrip("/")
    if not url.endswith("/events"):
        url = url + "/events"
    count = 0
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        event = ""
        data_lines: list[str] = []
        for raw in response:
            line = raw.decode("utf-8").rstrip("\r\n")
            if line.startswith(":"):
                continue  # keepalive comment
            if line.startswith("event:"):
                event = line[len("event:"):].strip()
                continue
            if line.startswith("data:"):
                data_lines.append(line[len("data:"):].strip())
                continue
            if line == "" and data_lines:
                try:
                    data = json.loads("\n".join(data_lines))
                except ValueError:
                    data = {"raw": "\n".join(data_lines)}
                if callback is not None:
                    callback(event or "message", data)
                yield (event or "message", data)
                count += 1
                event, data_lines = "", []
                if limit is not None and count >= limit:
                    return


def render_status_line(status: Mapping[str, Any]) -> str:
    """One terminal line summarizing a ``/status`` document."""
    trials = status.get("trials", {}) or {}
    incumbent = status.get("incumbent", {}) or {}
    workers = status.get("workers", []) or []
    alerts = status.get("alerts", {}) or {}
    live_workers = sum(1 for w in workers if w.get("lease_state") == "live")
    parts = [
        f"[{status.get('phase', '?')}]",
        f"{trials.get('done', 0)}/{trials.get('total', 0)} done",
        f"{trials.get('running', 0)} running",
    ]
    if trials.get("errors"):
        parts.append(f"{trials['errors']} errors")
    if incumbent.get("trial_id"):
        value = incumbent.get("value")
        shown = f"{value:.4g}" if isinstance(value, (int, float)) else value
        parts.append(f"best {shown} ({incumbent['trial_id']})")
    if workers:
        parts.append(f"{live_workers}/{len(workers)} workers live")
    if alerts.get("total"):
        parts.append(f"{alerts['total']} alerts")
    return "  ".join(str(p) for p in parts)
