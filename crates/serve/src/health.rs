//! Plaintext health/stats endpoint.
//!
//! A second listener next to the session port answers `GET /stats`
//! (plaintext), `GET /stats.json`, and `GET /metrics` (Prometheus text
//! format: session gauges, transport counters, and the per-algorithm
//! collective-latency histograms) with a point-in-time report:
//! session lifecycle counts (including which sessions the watchdog
//! reaped), queue depth against capacity, per-model generations, and
//! the transport counters via [`CommStats::render_text`] /
//! [`CommStats::render_json`]. Anything speaking rudimentary HTTP/1.0 —
//! `curl`, a load balancer probe, a test harness — can scrape it; no
//! serve-v1 framing required.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::state::{Gauges, SessionPhase};

use crate::server::Shared;

pub(crate) fn health_loop(listener: TcpListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                std::thread::spawn(move || serve_one(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn serve_one(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    // Read enough of the request to see the request line; tolerate
    // clients that never send headers' end.
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(2).any(|w| w == b"\r\n") || req.len() >= buf.len() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let line = String::from_utf8_lossy(&req);
    let path = line
        .split_whitespace()
        .nth(1)
        .unwrap_or("/stats")
        .to_string();
    let (content_type, body) = if path.ends_with(".json") {
        ("application/json", render_json(shared))
    } else if path == "/metrics" {
        (
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(shared),
        )
    } else {
        ("text/plain; charset=utf-8", render_text(shared))
    };
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Counts sessions by phase and collects the names of reaped ones.
struct SessionSummary {
    active: usize,
    disconnected: usize,
    reaped: usize,
    departed: usize,
    reaped_names: Vec<String>,
}

fn summarize_sessions(shared: &Shared) -> SessionSummary {
    let registry = shared.registry.lock().expect("registry lock");
    let mut s = SessionSummary {
        active: 0,
        disconnected: 0,
        reaped: 0,
        departed: 0,
        reaped_names: Vec::new(),
    };
    for (name, entry) in registry.iter() {
        match entry.phase {
            SessionPhase::Active => s.active += 1,
            SessionPhase::Disconnected => s.disconnected += 1,
            SessionPhase::Reaped => {
                s.reaped += 1;
                s.reaped_names.push(name.clone());
            }
            SessionPhase::Departed => s.departed += 1,
        }
    }
    s.reaped_names.sort();
    s
}

/// The plaintext report served at `GET /stats`.
pub(crate) fn render_text(shared: &Shared) -> String {
    let mut out = String::new();
    out.push_str(&format!("shard {} of {}\n", shared.shard, shared.shards));
    out.push_str(&format!(
        "uptime_ms {}\n",
        shared.started.elapsed().as_millis()
    ));

    let s = summarize_sessions(shared);
    out.push_str(&format!("sessions_active {}\n", s.active));
    out.push_str(&format!("sessions_disconnected {}\n", s.disconnected));
    out.push_str(&format!("sessions_reaped {}\n", s.reaped));
    out.push_str(&format!("sessions_departed {}\n", s.departed));
    out.push_str(&format!("reaped_sessions {}\n", s.reaped_names.join(",")));
    out.push_str(&format!(
        "busy_rejections {}\n",
        Gauges::get(&shared.gauges.busy_rejections)
    ));
    out.push_str(&format!(
        "queue_depth {}\nqueue_capacity {}\n",
        shared.queue.len(),
        shared.queue.capacity()
    ));
    out.push_str(&format!(
        "applied_contributions {}\n",
        Gauges::get(&shared.gauges.applied_contributions)
    ));

    {
        let models = shared.models.lock().expect("models lock");
        for (id, m) in models.iter().enumerate() {
            out.push_str(&format!(
                "model {} name={} dim={} range=[{},{}) generation={} contributions={} nnz={}\n",
                id,
                m.spec.name,
                m.spec.dim,
                m.range.lo,
                m.range.hi,
                m.generation,
                m.generation,
                m.nnz()
            ));
        }
    }
    {
        let registry = shared.registry.lock().expect("registry lock");
        let mut names: Vec<&String> = registry.keys().collect();
        names.sort();
        for name in names {
            let e = &registry[name];
            out.push_str(&format!(
                "session {} phase={} contributions={} busy={} connects={} queued={}\n",
                name,
                e.phase.as_str(),
                e.contributions,
                e.busy_rejections,
                e.connects,
                e.queued.load(Ordering::Acquire)
            ));
        }
    }
    if let Some(cluster) = shared
        .cluster_generations
        .lock()
        .expect("cluster generations lock")
        .as_ref()
    {
        for (shard, generations) in cluster.iter().enumerate() {
            let joined: Vec<String> = generations.iter().map(|g| g.to_string()).collect();
            out.push_str(&format!(
                "cluster_generations shard={} [{}]\n",
                shard,
                joined.join(",")
            ));
        }
    }
    if let Some(report) = shared
        .cluster_telemetry
        .lock()
        .expect("cluster telemetry lock")
        .as_ref()
    {
        out.push_str(&report.render_text());
    }
    out.push_str(&shared.stats_snapshot().render_text());
    out
}

/// The Prometheus text-format report served at `GET /metrics`: session
/// gauges, queue depth, the transport counters from
/// [`CommStats::fields`] as monotonic counters, and the process-wide
/// per-(algorithm, size-class) collective-latency histograms.
pub(crate) fn render_prometheus(shared: &Shared) -> String {
    let mut out = String::new();
    let s = summarize_sessions(shared);
    out.push_str("# TYPE sparcml_serve_sessions gauge\n");
    for (phase, n) in [
        ("active", s.active),
        ("disconnected", s.disconnected),
        ("reaped", s.reaped),
        ("departed", s.departed),
    ] {
        out.push_str(&format!(
            "sparcml_serve_sessions{{phase=\"{phase}\"}} {n}\n"
        ));
    }
    out.push_str("# TYPE sparcml_serve_queue_depth gauge\n");
    out.push_str(&format!(
        "sparcml_serve_queue_depth {}\n",
        shared.queue.len()
    ));
    out.push_str("# TYPE sparcml_serve_queue_capacity gauge\n");
    out.push_str(&format!(
        "sparcml_serve_queue_capacity {}\n",
        shared.queue.capacity()
    ));
    out.push_str("# TYPE sparcml_serve_busy_rejections_total counter\n");
    out.push_str(&format!(
        "sparcml_serve_busy_rejections_total {}\n",
        Gauges::get(&shared.gauges.busy_rejections)
    ));
    out.push_str("# TYPE sparcml_serve_applied_contributions_total counter\n");
    out.push_str(&format!(
        "sparcml_serve_applied_contributions_total {}\n",
        Gauges::get(&shared.gauges.applied_contributions)
    ));
    for (name, value) in shared.stats_snapshot().fields() {
        out.push_str(&format!(
            "# TYPE sparcml_net_{name}_total counter\nsparcml_net_{name}_total {value}\n"
        ));
    }
    sparcml_obs::metrics::global().render_prometheus(&mut out);
    if let Some(report) = shared
        .cluster_telemetry
        .lock()
        .expect("cluster telemetry lock")
        .as_ref()
    {
        report.render_prometheus(&mut out);
    }
    out
}

/// The JSON report served at `GET /stats.json` (hand-built — no
/// serialization deps in the workspace).
pub(crate) fn render_json(shared: &Shared) -> String {
    let s = summarize_sessions(shared);
    let reaped: Vec<String> = s
        .reaped_names
        .iter()
        .map(|n| format!("\"{}\"", n.replace('"', "'")))
        .collect();
    let models_json = {
        let models = shared.models.lock().expect("models lock");
        let parts: Vec<String> = models
            .iter()
            .enumerate()
            .map(|(id, m)| {
                format!(
                    "{{\"id\":{},\"name\":\"{}\",\"dim\":{},\"lo\":{},\"hi\":{},\"generation\":{},\"contributions\":{},\"nnz\":{}}}",
                    id,
                    m.spec.name.replace('"', "'"),
                    m.spec.dim,
                    m.range.lo,
                    m.range.hi,
                    m.generation,
                    m.generation,
                    m.nnz()
                )
            })
            .collect();
        format!("[{}]", parts.join(","))
    };
    format!(
        "{{\"shard\":{},\"shards\":{},\"uptime_ms\":{},\"sessions_active\":{},\"sessions_disconnected\":{},\"sessions_reaped\":{},\"sessions_departed\":{},\"reaped_sessions\":[{}],\"busy_rejections\":{},\"queue_depth\":{},\"queue_capacity\":{},\"models\":{},\"transport\":{}}}",
        shared.shard,
        shared.shards,
        shared.started.elapsed().as_millis(),
        s.active,
        s.disconnected,
        s.reaped,
        s.departed,
        reaped.join(","),
        Gauges::get(&shared.gauges.busy_rejections),
        shared.queue.len(),
        shared.queue.capacity(),
        models_json,
        shared.stats_snapshot().render_json()
    )
}
