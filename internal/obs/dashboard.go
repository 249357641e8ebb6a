package obs

// dashboardHTML is the entire status page: one self-contained document with
// inline CSS and script, no external assets, polling /api/progress every two
// seconds and tailing /events over SSE.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>rtmac observability</title>
<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2rem;
       background: #101418; color: #d6dee6; }
h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.5rem; }
a { color: #6fb3ff; }
table { border-collapse: collapse; margin-top: .5rem; }
td, th { border: 1px solid #2c3440; padding: .25rem .6rem; text-align: left; }
.bar { background: #1b222b; width: 16rem; height: .9rem; display: inline-block; }
.bar > div { background: #2f81f7; height: 100%; }
#meta { color: #8b98a5; margin: .3rem 0 0; }
#events { background: #0b0e12; border: 1px solid #2c3440; padding: .5rem;
          height: 14rem; overflow-y: auto; white-space: pre; font-size: .8rem; }
</style>
</head>
<body>
<h1>rtmac observability plane</h1>
<p id="runtime"></p>
<p><a href="/metrics">/metrics</a> &middot; <a href="/api/progress">/api/progress</a>
 &middot; <a href="/events">/events</a> &middot; <a href="/history">/history</a>
 &middot; <a href="/api/health">/api/health</a> &middot; <a href="/debug/pprof/">/debug/pprof</a>
 &middot; <a href="/healthz">/healthz</a></p>
<h2>Progress</h2>
<div>overall <span class="bar"><div id="totalbar" style="width:0%"></div></span>
 <span id="totaltext"></span></div>
<p id="meta"></p>
<table id="figures"><tr><th>figure</th><th>title</th><th>jobs</th><th>state</th></tr></table>
<h2 id="linkshead" style="display:none">Links: miss attribution &amp; debt</h2>
<table id="links" style="display:none"></table>
<h2 id="healthhead" style="display:none">Runtime health</h2>
<table id="health" style="display:none"></table>
<h2 id="alertshead" style="display:none">SLO alerts</h2>
<p id="alertsum" style="display:none"></p>
<table id="alerts" style="display:none"></table>
<h2>Event stream</h2>
<div id="events"></div>
<script>
function esc(s) { return String(s).replace(/[&<>]/g, c => ({'&':'&amp;','<':'&lt;','>':'&gt;'}[c])); }
async function refresh() {
  try {
    const p = await (await fetch('/api/progress')).json();
    let pct = p.total_jobs ? 100 * p.done_jobs / p.total_jobs : 0;
    if (!p.total_jobs && p.planned_intervals) pct = 100 * p.intervals / p.planned_intervals;
    document.getElementById('totalbar').style.width = pct.toFixed(1) + '%';
    document.getElementById('totaltext').textContent = p.total_jobs
      ? p.done_jobs + '/' + p.total_jobs + ' jobs'
      : (p.planned_intervals ? p.intervals + '/' + p.planned_intervals + ' intervals' : 'idle');
    document.getElementById('meta').textContent =
      'elapsed ' + p.elapsed_sec.toFixed(1) + 's' +
      (p.jobs_per_sec ? ' · ' + p.jobs_per_sec.toFixed(2) + ' jobs/s' : '') +
      (p.eta_sec ? ' · ETA ' + p.eta_sec.toFixed(1) + 's' : '');
    const rows = ['<tr><th>figure</th><th>title</th><th>jobs</th><th>state</th></tr>'];
    for (const f of p.figures || []) {
      rows.push('<tr><td>' + esc(f.id) + '</td><td>' + esc(f.title) + '</td><td>' +
        f.done_jobs + '/' + f.total_jobs + '</td><td>' +
        (f.finished ? 'done' : 'running') + '</td></tr>');
    }
    document.getElementById('figures').innerHTML = rows.join('');
  } catch (e) { /* server going away; keep polling */ }
}
const SPARK = '▁▂▃▄▅▆▇█';
function spark(points) {
  if (!points || !points.length) return '';
  const tail = points.slice(-60);
  const vals = tail.map(p => Math.max(0, p.debt));
  const max = Math.max(...vals, 1e-9);
  return tail.map((p, i) => {
    const ch = SPARK[Math.min(7, Math.floor(8 * vals[i] / max))];
    return (p.swap_up || p.swap_down) ? '<b>' + ch + '</b>' : ch;
  }).join('');
}
async function refreshLinks() {
  try {
    const r = await fetch('/api/links');
    if (!r.ok) return;
    const b = await r.json();
    if (!b.enabled) return;
    document.getElementById('linkshead').style.display = '';
    const tbl = document.getElementById('links');
    tbl.style.display = '';
    const rows = ['<tr><th>link</th><th>req</th><th>delivered</th><th>expired</th>' +
      '<th>channel</th><th>collide</th><th>starved</th><th>swaps ↑/↓</th><th>d⁺ timeline</th></tr>'];
    for (const l of b.links || []) {
      const a = l.attribution || {};
      rows.push('<tr><td>' + l.link + '</td><td>' + l.required.toFixed(2) + '</td><td>' +
        (a.delivered || 0) + '</td><td>' + (a.expired_in_queue || 0) + '</td><td>' +
        (a.lost_to_channel || 0) + '</td><td>' + (a.lost_to_collision || 0) + '</td><td>' +
        (a.never_won_contention || 0) + '</td><td>' + l.swaps_up + '/' + l.swaps_down +
        '</td><td>' + spark(l.debt) + '</td></tr>');
    }
    tbl.innerHTML = rows.join('');
  } catch (e) { /* no link board attached; keep polling */ }
}
function nspark(vals) {
  if (!vals || !vals.length) return '';
  const tail = vals.slice(-60);
  const max = Math.max(...tail, 1e-9);
  return tail.map(v => SPARK[Math.min(7, Math.floor(8 * Math.max(0, v) / max))]).join('');
}
function fmtBytes(b) {
  if (b >= 1 << 30) return (b / (1 << 30)).toFixed(2) + ' GiB';
  if (b >= 1 << 20) return (b / (1 << 20)).toFixed(1) + ' MiB';
  if (b >= 1 << 10) return (b / (1 << 10)).toFixed(1) + ' KiB';
  return b + ' B';
}
function fmtNS(ns) {
  if (ns >= 1e9) return (ns / 1e9).toFixed(2) + ' s';
  if (ns >= 1e6) return (ns / 1e6).toFixed(2) + ' ms';
  if (ns >= 1e3) return (ns / 1e3).toFixed(1) + ' µs';
  return ns + ' ns';
}
async function refreshHealth() {
  try {
    const r = await fetch('/api/health');
    if (!r.ok) return;
    const h = await r.json();
    const rt = h.runtime || {};
    document.getElementById('runtime').textContent =
      (rt.go_version || '?') + ' · GOMAXPROCS ' + (rt.gomaxprocs || '?') +
      (rt.hostname ? ' · ' + rt.hostname : '') + ' · pid ' + (rt.pid || '?') +
      (rt.vcs_revision ? ' · ' + rt.vcs_revision.slice(0, 12) + (rt.vcs_modified ? '+dirty' : '') : '');
    document.getElementById('runtime').style.color = '#8b98a5';
    if (!h.enabled || !h.collector) return;
    document.getElementById('healthhead').style.display = '';
    const tbl = document.getElementById('health');
    tbl.style.display = '';
    const c = h.collector;
    const rows = [];
    rows.push('<tr><td>heap</td><td>' + fmtBytes(c.heap_used_bytes) +
      ' used (peak ' + fmtBytes(c.heap_peak_bytes) + ', goal ' + fmtBytes(c.heap_goal_bytes) +
      ')</td><td>' + nspark(c.heap_series) + '</td></tr>');
    rows.push('<tr><td>GC</td><td>' + c.gc_cycles + ' cycles · ' + c.gc_pauses +
      ' pauses · total ~' + fmtNS(c.gc_pause_total_ns) + ' · max ' + fmtNS(c.gc_pause_max_ns) +
      '</td><td>' + nspark(c.pause_series) + '</td></tr>');
    rows.push('<tr><td>scheduler</td><td>p99 latency ' + fmtNS(c.sched_latency_p99_ns) +
      ' · ' + c.goroutines + ' goroutines (peak ' + c.goroutine_peak + ')</td><td></td></tr>');
    if (h.watchdog) {
      const w = h.watchdog;
      rows.push('<tr><td>slot budget</td><td>' + fmtNS(w.budget_ns) + '/interval · ' +
        w.overruns + '/' + w.intervals + ' overruns' +
        (w.overruns ? ' · worst +' + fmtNS(w.max_overrun_ns) +
          ' (gc ' + w.stalls_gc + ' / sched ' + w.stalls_sched + ' / user ' + w.stalls_user + ')' : '') +
        '</td><td></td></tr>');
    }
    tbl.innerHTML = rows.join('');
  } catch (e) { /* keep polling */ }
}
async function refreshAlerts() {
  try {
    const r = await fetch('/api/alerts');
    if (!r.ok) return;
    const b = await r.json();
    if (!b.enabled) return;
    document.getElementById('alertshead').style.display = '';
    const sum = document.getElementById('alertsum');
    sum.style.display = '';
    const byDet = Object.entries(b.by_detector || {})
      .map(([d, n]) => d + ' ' + n).join(' · ');
    sum.innerHTML = (b.firing
      ? '<b style="color:#ff6b6b">' + b.firing + ' firing</b>'
      : '<span style="color:#3fb950">all SLOs met</span>') +
      ' · ' + b.alerts + ' fired over ' + b.intervals + ' intervals' +
      ' · budget ' + (100 * b.budget).toFixed(0) + '%' +
      (byDet ? ' · ' + byDet : '');
    const tbl = document.getElementById('alerts');
    tbl.style.display = '';
    const rows = ['<tr><th>k</th><th>detector</th><th>severity</th><th>state</th>' +
      '<th>scope</th><th>link</th><th>evidence</th></tr>'];
    for (const a of (b.recent || []).slice(-20).reverse()) {
      const color = a.state === 'firing'
        ? (a.severity === 'critical' ? '#ff6b6b' : '#d4a72c') : '#3fb950';
      rows.push('<tr><td>' + a.k + '</td><td>' + esc(a.detector) + '</td><td>' +
        esc(a.severity) + '</td><td style="color:' + color + '">' + esc(a.state) +
        '</td><td>' + esc(a.scope) + '</td><td>' + (a.link < 0 ? '—' : a.link) +
        '</td><td>' + esc(a.msg) + '</td></tr>');
    }
    tbl.innerHTML = rows.join('');
  } catch (e) { /* no watch engine attached; keep polling */ }
}
refresh();
refreshLinks();
refreshHealth();
refreshAlerts();
setInterval(refresh, 2000);
setInterval(refreshLinks, 2000);
setInterval(refreshHealth, 2000);
setInterval(refreshAlerts, 2000);
const log = document.getElementById('events');
const es = new EventSource('/events');
es.onmessage = ev => {
  log.textContent += ev.data + '\n';
  if (log.textContent.length > 60000) log.textContent = log.textContent.slice(-40000);
  log.scrollTop = log.scrollHeight;
};
</script>
</body>
</html>
`
