"""The self-contained HTML campaign dashboard (``python -m repro dashboard``).

Renders one recorded campaign — slot timelines, the critical-path
breakdown, watchdog alerts and the trial table — into a single HTML file
with zero external dependencies (inline CSS/SVG/JS, data embedded as JSON),
so the artifact can be archived next to ``spans.jsonl`` and opened years
later without a toolchain.

Color discipline: the five cycle segments wear the first five categorical
slots in fixed order (validated for adjacent-pair CVD separation in both
light and dark modes); alert severities wear the reserved status palette
and always ship an icon + label, never color alone. The trial table doubles
as the accessible view of the chart.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.observability.analysis import CampaignAnalysis

__all__ = ["render_dashboard", "write_dashboard", "TIMELINE_FILE"]

#: artifact name of the dashboard inside a run directory.
TIMELINE_FILE = "timeline.html"

_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>__TITLE__</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --border: rgba(11,11,11,0.10);
  --seg-suggest: #2a78d6; --seg-queue_wait: #eb6834; --seg-deploy: #1baf7a;
  --seg-evaluate: #eda100; --seg-tell: #e87ba4;
  --status-warning: #fab219; --status-critical: #d03b3b; --status-good: #0ca30c;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
    --seg-suggest: #3987e5; --seg-queue_wait: #d95926; --seg-deploy: #199e70;
    --seg-evaluate: #c98500; --seg-tell: #d55181;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
  --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
  --seg-suggest: #3987e5; --seg-queue_wait: #d95926; --seg-deploy: #199e70;
  --seg-evaluate: #c98500; --seg-tell: #d55181;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px; min-height: 100vh; box-sizing: border-box;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root .subtitle { color: var(--text-secondary); font-size: 13px; margin-bottom: 20px; }
.card { background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 8px; padding: 16px; margin-bottom: 16px; }
.card h2 { font-size: 14px; margin: 0 0 12px; color: var(--text-secondary);
           font-weight: 600; }
.tiles { display: flex; gap: 16px; flex-wrap: wrap; margin-bottom: 16px; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 8px; padding: 12px 18px; min-width: 110px; }
.tile .v { font-size: 24px; font-weight: 600; }
.tile .k { font-size: 12px; color: var(--text-muted); margin-top: 2px; }
.legend { display: flex; gap: 14px; flex-wrap: wrap; font-size: 12px;
          color: var(--text-secondary); margin-bottom: 10px; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
svg text { fill: var(--text-muted); font-size: 11px;
           font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
svg .lane-label { fill: var(--text-secondary); }
#tooltip { position: fixed; display: none; pointer-events: none; z-index: 10;
           background: var(--surface-1); border: 1px solid var(--border);
           border-radius: 6px; padding: 8px 10px; font-size: 12px;
           color: var(--text-primary); box-shadow: 0 2px 8px rgba(0,0,0,0.18);
           max-width: 320px; }
#tooltip .tt-title { font-weight: 600; margin-bottom: 4px; }
#tooltip .tt-row { color: var(--text-secondary); }
table { border-collapse: collapse; width: 100%; font-size: 12px; }
th, td { text-align: left; padding: 5px 10px; border-bottom: 1px solid var(--grid); }
th { color: var(--text-muted); font-weight: 600; }
td.num { font-variant-numeric: tabular-nums; }
.sev { font-weight: 600; }
.sev-warning { color: var(--status-warning); }
.sev-critical { color: var(--status-critical); }
.empty { color: var(--text-muted); font-size: 13px; }
</style>
</head>
<body class="viz-root">
<h1>__TITLE__</h1>
<div class="subtitle" id="subtitle"></div>
<div class="tiles" id="tiles"></div>
<div class="card"><h2>Executor-slot timeline</h2>
  <div class="legend" id="legend"></div>
  <div id="timeline"></div></div>
<div class="card"><h2>Critical path</h2><div id="critpath"></div></div>
<div class="card"><h2>Latency percentiles</h2><div id="perf"></div></div>
<div class="card"><h2>Watchdog alerts</h2><div id="alerts"></div></div>
<div class="card"><h2>Trials</h2><div id="trials"></div></div>
<div id="tooltip"></div>
<script id="campaign-data" type="application/json">__DATA__</script>
<script>
"use strict";
const DATA = JSON.parse(document.getElementById("campaign-data").textContent);
const A = DATA.analysis;
const SEGMENTS = ["suggest", "queue_wait", "deploy", "evaluate", "tell"];
const SEG_LABEL = {suggest: "suggest", queue_wait: "queue wait", deploy: "deploy",
                   evaluate: "evaluate", tell: "tell", idle: "idle"};
const css = name => getComputedStyle(document.body).getPropertyValue(name).trim();
const segColor = seg => seg === "idle" ? css("--grid") : css("--seg-" + seg);
const fmt = (s, d = 3) => Number(s).toFixed(d);

function tiles() {
  const el = document.getElementById("tiles");
  const items = [
    [A.trials.length, "trials"],
    [fmt(A.horizon_s, 2) + " s", "campaign horizon"],
    [A.lane_count, "executor slots"],
    [(100 * A.slot_idle_fraction).toFixed(0) + " %", "slot idle"],
    [(100 * A.critical_path.idle_fraction).toFixed(0) + " %", "critical-path idle"],
    [DATA.alerts.length, "alerts"],
  ];
  el.innerHTML = items.map(([v, k]) =>
    `<div class="tile"><div class="v">${v}</div><div class="k">${k}</div></div>`).join("");
  document.getElementById("subtitle").textContent = DATA.subtitle;
}

function legend() {
  document.getElementById("legend").innerHTML = SEGMENTS.map(s =>
    `<span><span class="sw" style="background:${segColor(s)}"></span>${SEG_LABEL[s]}</span>`
  ).join("");
}

const tip = document.getElementById("tooltip");
function showTip(evt, htmlText) {
  tip.innerHTML = htmlText;
  tip.style.display = "block";
  const x = Math.min(evt.clientX + 14, window.innerWidth - tip.offsetWidth - 8);
  const y = Math.min(evt.clientY + 14, window.innerHeight - tip.offsetHeight - 8);
  tip.style.left = x + "px"; tip.style.top = y + "px";
}
function hideTip() { tip.style.display = "none"; }

function timeline() {
  const host = document.getElementById("timeline");
  if (!A.trials.length) { host.innerHTML = "<div class='empty'>no trial spans recorded</div>"; return; }
  const poolRows = [], seen = new Set();
  for (const p of A.pools) if (!seen.has(p.pool)) { seen.add(p.pool); poolRows.push(p.pool); }
  const resRows = A.reservations.map(r => r.job_id);
  const lanes = A.lane_count, rowH = 26, barH = 16, left = 110, right = 20, topPad = 8;
  const rows = lanes + poolRows.length + resRows.length;
  const width = Math.max(640, host.clientWidth || 820);
  const height = topPad + rows * rowH + 28;
  const t0 = A.horizon_start_s, span = Math.max(A.horizon_s, 1e-9);
  const x = t => left + (t - t0) / span * (width - left - right);
  let svg = `<svg width="${width}" height="${height}" role="img" aria-label="executor slot timeline">`;
  for (let r = 0; r < rows; r++) {
    const y = topPad + r * rowH;
    const label = r < lanes ? "slot-" + r :
      r < lanes + poolRows.length ? "pool " + poolRows[r - lanes] :
      "resv " + resRows[r - lanes - poolRows.length];
    svg += `<line x1="${left}" y1="${y + rowH - 2}" x2="${width - right}" y2="${y + rowH - 2}" stroke="${css("--grid")}" stroke-width="1"/>`;
    svg += `<text class="lane-label" x="${left - 8}" y="${y + rowH / 2 + 4}" text-anchor="end">${label}</text>`;
  }
  // time axis ticks
  const nTicks = 6;
  for (let i = 0; i <= nTicks; i++) {
    const t = t0 + span * i / nTicks, xx = x(t);
    svg += `<line x1="${xx}" y1="${topPad}" x2="${xx}" y2="${topPad + rows * rowH}" stroke="${css("--grid")}" stroke-width="1" opacity="0.6"/>`;
    svg += `<text x="${xx}" y="${topPad + rows * rowH + 16}" text-anchor="middle">${fmt(t - t0, 2)}s</text>`;
  }
  const marks = [];
  for (const b of A.trials) {
    const lane = A.lanes[b.trial_id] || 0;
    const y = topPad + lane * rowH + (rowH - barH) / 2 - 1;
    const x0 = x(b.start_s), x1 = Math.max(x(b.end_s), x0 + 1);
    marks.push({b, y, x0, x1});
    svg += `<rect data-trial="${b.trial_id}" x="${x0}" y="${y}" width="${x1 - x0}" height="${barH}" fill="${css("--baseline")}" opacity="0.35" rx="2"/>`;
  }
  // segment fills on top of the trial extent, 2px surface gap when wide enough
  for (const b of A.trials) {
    const lane = A.lanes[b.trial_id] || 0;
    const y = topPad + lane * rowH + (rowH - barH) / 2 - 1;
    for (const iv of (DATA.intervals[b.trial_id] || [])) {
      let x0 = x(iv[1]), x1 = Math.max(x(iv[2]), x0 + 1);
      if (x1 - x0 > 6) { x0 += 1; x1 -= 1; } // surface gap between fills
      svg += `<rect data-trial="${b.trial_id}" x="${x0}" y="${y}" width="${x1 - x0}" height="${barH}" fill="${segColor(iv[0])}" rx="2"/>`;
    }
  }
  // pool + reservation rows
  let r = lanes;
  for (const pool of poolRows) {
    const y = topPad + r * rowH + (rowH - barH) / 2 - 1;
    for (const p of A.pools.filter(p => p.pool === pool)) {
      const x0 = x(p.start_s), x1 = Math.max(x(p.end_s), x0 + 1);
      svg += `<rect data-pool="${pool}" data-occ="${p.occupancy ?? ""}" x="${x0}" y="${y}" width="${x1 - x0}" height="${barH}" fill="${css("--seg-deploy")}" opacity="0.55" rx="2"/>`;
    }
    r++;
  }
  for (const job of resRows) {
    const y = topPad + r * rowH + (rowH - barH) / 2 - 1;
    for (const rv of A.reservations.filter(rv => rv.job_id === job)) {
      const x0 = x(rv.start_s), x1 = Math.max(x(rv.end_s), x0 + 1);
      svg += `<rect data-resv="${job}" x="${x0}" y="${y}" width="${x1 - x0}" height="${barH}" fill="${css("--seg-suggest")}" opacity="0.55" rx="2"/>`;
    }
    r++;
  }
  svg += "</svg>";
  host.innerHTML = svg;
  host.querySelectorAll("rect[data-trial]").forEach(rect => {
    const b = A.trials.find(t => t.trial_id === rect.dataset.trial);
    rect.addEventListener("mousemove", evt => {
      const segs = SEGMENTS.filter(s => s in b.segments)
        .map(s => `<div class="tt-row">${SEG_LABEL[s]}: ${fmt(b.segments[s])} s</div>`).join("");
      showTip(evt, `<div class="tt-title">${b.trial_id}</div>` +
        `<div class="tt-row">status: ${b.status}` +
        (b.objective != null ? ` · objective ${Number(b.objective).toPrecision(5)}` : "") +
        `</div><div class="tt-row">duration: ${fmt(b.duration_s)} s</div>` + segs);
    });
    rect.addEventListener("mouseleave", hideTip);
  });
  host.querySelectorAll("rect[data-pool]").forEach(rect => {
    rect.addEventListener("mousemove", evt => showTip(evt,
      `<div class="tt-title">pool ${rect.dataset.pool}</div>` +
      (rect.dataset.occ ? `<div class="tt-row">occupancy: ${(100 * rect.dataset.occ).toFixed(0)} %</div>` : "")));
    rect.addEventListener("mouseleave", hideTip);
  });
}

function critpath() {
  const host = document.getElementById("critpath");
  const cp = A.critical_path;
  const parts = SEGMENTS.filter(s => cp.segments[s] > 0)
    .map(s => [s, cp.segments[s]]);
  if (cp.idle_s > 0) parts.push(["idle", cp.idle_s]);
  if (!parts.length) { host.innerHTML = "<div class='empty'>no critical path (no segment spans)</div>"; return; }
  const width = Math.max(640, host.clientWidth || 820), barH = 22, total = cp.horizon_s || 1;
  let xx = 0, svg = `<svg width="${width}" height="${barH + 40}" role="img" aria-label="critical path breakdown">`;
  for (const [seg, secs] of parts) {
    let w = secs / total * (width - 2);
    const gap = w > 6 ? 1 : 0;
    svg += `<rect x="${xx + gap}" y="8" width="${Math.max(w - 2 * gap, 1)}" height="${barH}" fill="${segColor(seg)}" rx="2"><title>${SEG_LABEL[seg]}: ${fmt(secs)} s (${(100 * secs / total).toFixed(0)}%)</title></rect>`;
    if (w > 70) svg += `<text x="${xx + w / 2}" y="${barH + 24}" text-anchor="middle">${SEG_LABEL[seg]} ${(100 * secs / total).toFixed(0)}%</text>`;
    xx += w;
  }
  svg += "</svg>";
  const summary = parts.map(([s, v]) => `${SEG_LABEL[s]} ${fmt(v)} s`).join(" · ");
  host.innerHTML = svg + `<div class="empty" style="margin-top:6px">${summary} — horizon ${fmt(total)} s</div>`;
}

function perf() {
  const host = document.getElementById("perf");
  const ops = (DATA.perf && DATA.perf.ops) || {};
  const names = Object.keys(ops).sort();
  if (!names.length) { host.innerHTML = "<div class='empty'>no latency samples (run without perf recording)</div>"; return; }
  const cell = v => {
    if (typeof v !== "number" || Number.isNaN(v)) return "–";
    if (v < 1e-3) return (v * 1e6).toFixed(1) + " µs";
    if (v < 1) return (v * 1e3).toFixed(2) + " ms";
    return v.toFixed(3) + " s";
  };
  host.innerHTML = "<table><tr><th>op</th><th>count</th><th>mean</th><th>p50</th><th>p90</th><th>p99</th></tr>" +
    names.map(op => {
      const e = ops[op];
      return `<tr><td>${op}</td><td class="num">${Math.round(e.count || 0)}</td>` +
        ["mean", "p50", "p90", "p99"].map(k => `<td class="num">${cell(e[k])}</td>`).join("") + "</tr>";
    }).join("") + "</table>";
}

function alerts() {
  const host = document.getElementById("alerts");
  if (!DATA.alerts.length) { host.innerHTML = "<div class='empty'>no alerts — the watchdog stayed quiet</div>"; return; }
  const icon = sev => sev === "critical" ? "&#10006;" : "&#9888;";
  host.innerHTML = "<table><tr><th>severity</th><th>kind</th><th>message</th><th>t (s)</th></tr>" +
    DATA.alerts.map(a =>
      `<tr><td class="sev sev-${a.severity}">${icon(a.severity)} ${a.severity}</td>` +
      `<td>${a.kind}</td><td>${a.message}</td><td class="num">${fmt(a.time_s, 2)}</td></tr>`).join("") +
    "</table>";
}

function trials() {
  const host = document.getElementById("trials");
  if (!A.trials.length) { host.innerHTML = "<div class='empty'>no trials</div>"; return; }
  const cols = ["trial", "status", "objective", "duration s"].concat(SEGMENTS.map(s => SEG_LABEL[s] + " s"));
  host.innerHTML = "<table><tr>" + cols.map(c => `<th>${c}</th>`).join("") + "</tr>" +
    A.trials.map(b => "<tr>" +
      `<td>${b.trial_id}</td><td>${b.status}</td>` +
      `<td class="num">${b.objective != null ? Number(b.objective).toPrecision(5) : "–"}</td>` +
      `<td class="num">${fmt(b.duration_s)}</td>` +
      SEGMENTS.map(s => `<td class="num">${s in b.segments ? fmt(b.segments[s]) : "–"}</td>`).join("") +
      "</tr>").join("") + "</table>";
}

tiles(); legend(); timeline(); critpath(); perf(); alerts(); trials();
window.addEventListener("resize", () => { timeline(); critpath(); });
</script>
__LIVE__</body>
</html>
"""

#: substituted for ``__LIVE__`` when the dashboard is served by the live
#: monitor: a status card that polls ``/status`` and tails ``/events``.
_LIVE_SCRIPT = """<script>
"use strict";
(function () {
  const card = document.createElement("div");
  card.className = "card";
  card.innerHTML = '<h2>Live</h2><div id="live-status">connecting\\u2026</div>' +
    '<pre id="live-events" style="max-height:14em;overflow-y:auto"></pre>';
  const root = document.querySelector(".viz-root") || document.body;
  root.insertBefore(card, root.firstChild.nextSibling);
  const statusEl = document.getElementById("live-status");
  const eventsEl = document.getElementById("live-events");

  function poll() {
    fetch("/status").then(r => r.json()).then(s => {
      const t = s.trials || {};
      const inc = s.incumbent || {};
      const workers = (s.workers || []);
      const live = workers.filter(w => w.lease_state === "live").length;
      statusEl.textContent =
        `[${s.phase}] ${t.done || 0}/${t.total || 0} done, ` +
        `${t.running || 0} running` +
        (inc.trial_id ? `, best ${Number(inc.value).toPrecision(5)} (${inc.trial_id})` : "") +
        (workers.length ? `, ${live}/${workers.length} workers live` : "") +
        ((s.alerts || {}).total ? `, ${s.alerts.total} alerts` : "");
    }).catch(() => { statusEl.textContent = "monitor unreachable"; });
  }
  poll();
  setInterval(poll, 2000);

  function append(line) {
    eventsEl.textContent += line + "\\n";
    if (eventsEl.textContent.length > 20000) {
      eventsEl.textContent = eventsEl.textContent.slice(-15000);
    }
    eventsEl.scrollTop = eventsEl.scrollHeight;
  }
  const source = new EventSource("/events");
  source.addEventListener("hello", e => append("connected: " + e.data));
  source.addEventListener("span", e => {
    const d = JSON.parse(e.data);
    append(`span ${d.name} ${d.duration_s}s` +
      (d.trial_id ? ` trial=${d.trial_id}` : "") +
      (d.runner_id ? ` runner=${d.runner_id}` : ""));
  });
  source.addEventListener("alert", e => {
    const d = JSON.parse(e.data);
    append(`ALERT [${d.severity}] ${d.kind}: ${d.message}`);
  });
})();
</script>
"""


def render_dashboard(
    analysis: CampaignAnalysis,
    *,
    title: str = "Campaign dashboard",
    subtitle: str = "",
    alerts: Sequence[Mapping[str, Any]] = (),
    perf: Mapping[str, Any] | None = None,
    live: bool = False,
) -> str:
    """The dashboard as one self-contained HTML string.

    ``live=True`` (the monitor's ``GET /``) appends a script that polls
    ``/status`` and tails ``/events`` on top of the static snapshot.
    """
    payload = {
        "analysis": analysis.to_dict(),
        # raw intervals per trial, for the segment rectangles.
        "intervals": {b.trial_id: [list(iv) for iv in b.intervals] for b in analysis.trials},
        "alerts": [dict(a) for a in alerts],
        # the exported perf_profile.json contents (latency percentiles card).
        "perf": dict(perf) if perf else {},
        "subtitle": subtitle
        or (
            f"{len(analysis.trials)} trials · {analysis.lane_count} slots · "
            f"horizon {analysis.horizon_s:.2f} s"
        ),
    }
    # </script> inside a JSON string would terminate the data block early.
    data = json.dumps(payload).replace("</", "<\\/")
    page = _TEMPLATE.replace("__TITLE__", html.escape(title)).replace("__DATA__", data)
    return page.replace("__LIVE__", _LIVE_SCRIPT if live else "")


def write_dashboard(
    analysis: CampaignAnalysis,
    path: str | Path,
    *,
    title: str = "Campaign dashboard",
    subtitle: str = "",
    alerts: Sequence[Mapping[str, Any]] = (),
    perf: Mapping[str, Any] | None = None,
) -> Path:
    """Write ``timeline.html``; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        render_dashboard(analysis, title=title, subtitle=subtitle, alerts=alerts, perf=perf)
    )
    return path
