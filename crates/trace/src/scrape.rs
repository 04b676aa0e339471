//! A std-only Prometheus scrape endpoint over a live [`Registry`].
//!
//! [`MetricsServer::spawn`] binds a TCP listener and serves three routes
//! from a background thread:
//!
//! * `GET /metrics` — the registry's text exposition, with the standard
//!   `Content-Type: text/plain; version=0.0.4; charset=utf-8`;
//! * `GET /metrics.json` — the registry's JSON snapshot;
//! * `GET /healthz` — collector liveness: `200` while the watched
//!   progress metric has changed within the staleness window, `503` once
//!   it goes stale (a stalled overnight run stops looking alive).
//!
//! The server is deliberately minimal — `GET`-only, `Connection: close`,
//! one handler thread — because its consumers are a Prometheus scraper on
//! a multi-second interval and `curl`, not request traffic. It has no
//! dependencies beyond `std`, matching the offline-container constraint.
//!
//! Liveness is derived from the registry rather than from the collector
//! directly: the serve harness owns its collector internally, so the bins
//! cannot poll it, but every harness already publishes a monotonically
//! advancing progress metric (`gc_cycles_completed`, `mc_states_total`).
//! [`Liveness::watch`] samples that metric on each `/healthz` hit and
//! reports stale when it stops moving.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::Registry;

/// The scrape response media type Prometheus expects.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Watches one progress metric in a [`Registry`] and reports whether it
/// has changed recently enough to call the producer alive.
#[derive(Clone)]
pub struct Liveness {
    inner: Arc<LivenessState>,
}

struct LivenessState {
    registry: Arc<Registry>,
    metric: String,
    window: Duration,
    /// Last observed value and when it last *changed* (creation counts as
    /// a change, so a fresh process gets a startup grace of `window`).
    last: Mutex<(Option<i64>, Instant)>,
}

/// One `/healthz` evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Health {
    /// Whether the watched metric changed within the window.
    pub healthy: bool,
    /// The watched metric's current value (`None` until registered).
    pub value: Option<i64>,
    /// Time since the watched metric last changed.
    pub since_progress: Duration,
}

impl Liveness {
    /// Watches counter-or-gauge `metric` in `registry`: the producer is
    /// healthy while the value keeps changing at least once per `window`.
    pub fn watch(registry: Arc<Registry>, metric: &str, window: Duration) -> Liveness {
        Liveness {
            inner: Arc::new(LivenessState {
                registry,
                metric: metric.to_owned(),
                window,
                last: Mutex::new((None, Instant::now())),
            }),
        }
    }

    /// Samples the watched metric and evaluates the staleness window.
    pub fn check(&self) -> Health {
        let now = Instant::now();
        let value = self.inner.registry.value_of(&self.inner.metric);
        let mut last = self.inner.last.lock().expect("liveness lock");
        if value != last.0 {
            *last = (value, now);
        }
        let since_progress = now.duration_since(last.1);
        Health {
            healthy: since_progress <= self.inner.window,
            value,
            since_progress,
        }
    }

    /// The watched metric's name.
    pub fn metric(&self) -> &str {
        &self.inner.metric
    }

    /// The staleness window.
    pub fn window(&self) -> Duration {
        self.inner.window
    }
}

/// A background scrape server over a shared [`Registry`].
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`; port `0` picks a free port —
    /// read it back with [`local_addr`](MetricsServer::local_addr)) and
    /// serves the registry until [`shutdown`](MetricsServer::shutdown) or
    /// drop. `liveness` drives `/healthz`; without one the route always
    /// answers `200` (nothing claims to be a collector).
    pub fn spawn(
        addr: &str,
        registry: Arc<Registry>,
        liveness: Option<Liveness>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("metrics-scrape".into())
            .spawn(move || serve_loop(&listener, &registry, liveness.as_ref(), &stop2))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// A driver's `--metrics-addr ADDR`, in one place: with an address,
    /// serves `registry` on it with `/healthz` watching `progress` over
    /// `window`, and prints where; without one, nothing. The error of a
    /// failed bind names the address.
    pub fn for_flag(
        addr: Option<&str>,
        registry: &Arc<Registry>,
        progress: &str,
        window: Duration,
    ) -> std::io::Result<Option<MetricsServer>> {
        let Some(addr) = addr else { return Ok(None) };
        let live = Liveness::watch(Arc::clone(registry), progress, window);
        let server = MetricsServer::spawn(addr, Arc::clone(registry), Some(live))
            .map_err(|e| std::io::Error::new(e.kind(), format!("cannot bind {addr}: {e}")))?;
        println!("metrics: http://{}/metrics", server.local_addr());
        Ok(Some(server))
    }

    /// The bound address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and returns how many requests it answered.
    pub fn shutdown(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.handle
            .take()
            .map(|h| h.join().unwrap_or(0))
            .unwrap_or(0)
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Accept loop: nonblocking accept with a short nap so shutdown is
/// observed within ~10ms even when no scraper ever connects.
fn serve_loop(
    listener: &TcpListener,
    registry: &Registry,
    liveness: Option<&Liveness>,
    stop: &AtomicBool,
) -> u64 {
    let mut served = 0u64;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if handle_connection(stream, registry, liveness).is_ok() {
                    served += 1;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stop.load(Ordering::Acquire) {
                    return served;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return served;
                }
            }
        }
        if stop.load(Ordering::Acquire) {
            return served;
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    registry: &Registry,
    liveness: Option<&Liveness>,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers; none of them change the answer.
    let mut header = String::new();
    loop {
        header.clear();
        if reader.read_line(&mut header)? == 0 || header.trim_end().is_empty() {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let stream = reader.into_inner();
    if method != "GET" {
        return respond(
            stream,
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is served\n",
        );
    }
    match path {
        "/metrics" => respond(
            stream,
            200,
            "OK",
            METRICS_CONTENT_TYPE,
            &registry.render_text(),
        ),
        "/metrics.json" => respond(
            stream,
            200,
            "OK",
            "application/json",
            &format!("{}\n", registry.snapshot()),
        ),
        "/healthz" => {
            let (status, reason, body) = match liveness {
                None => (
                    200,
                    "OK",
                    Json::obj()
                        .set("status", "ok")
                        .set("liveness", "unconfigured"),
                ),
                Some(l) => {
                    let h = l.check();
                    let body = Json::obj()
                        .set("status", if h.healthy { "ok" } else { "stale" })
                        .set("watched", l.metric())
                        .set("value", h.value.map(Json::from).unwrap_or(Json::Null))
                        .set("since_progress_ms", h.since_progress.as_millis() as u64)
                        .set("window_ms", l.window().as_millis() as u64);
                    if h.healthy {
                        (200, "OK", body)
                    } else {
                        (503, "Service Unavailable", body)
                    }
                }
            };
            respond(
                stream,
                status,
                reason,
                "application/json",
                &format!("{body}\n"),
            )
        }
        _ => respond(
            stream,
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "routes: /metrics /metrics.json /healthz\n",
        ),
    }
}

fn respond(
    mut stream: TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    /// Raw one-shot GET; returns (status line, headers, body).
    fn get(addr: SocketAddr, path: &str) -> (String, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect scrape server");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read response");
        let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
        let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
        (status.to_owned(), headers.to_owned(), body.to_owned())
    }

    #[test]
    fn serves_metrics_with_prometheus_content_type() {
        let registry = Arc::new(Registry::new());
        registry.counter("scrape_demo_total").add(3);
        let server = MetricsServer::spawn("127.0.0.1:0", Arc::clone(&registry), None).unwrap();
        let (status, headers, body) = get(server.local_addr(), "/metrics");
        assert!(status.contains("200"), "status: {status}");
        assert!(headers.contains(METRICS_CONTENT_TYPE), "headers: {headers}");
        assert!(body.contains("# TYPE scrape_demo_total counter"));
        assert!(body.contains("scrape_demo_total 3"));

        let (status, headers, body) = get(server.local_addr(), "/metrics.json");
        assert!(status.contains("200"));
        assert!(headers.contains("application/json"));
        let snap = Json::parse(&body).expect("snapshot parses");
        assert!(snap.get("counters").is_some());

        let (status, _, _) = get(server.local_addr(), "/nope");
        assert!(status.contains("404"), "status: {status}");
        assert!(server.shutdown() >= 3);
    }

    #[test]
    fn healthz_tracks_progress_recency() {
        let registry = Arc::new(Registry::new());
        let progress = registry.counter("demo_progress_total");
        let liveness = Liveness::watch(
            Arc::clone(&registry),
            "demo_progress_total",
            Duration::from_millis(120),
        );
        let server =
            MetricsServer::spawn("127.0.0.1:0", Arc::clone(&registry), Some(liveness)).unwrap();

        // Startup grace: healthy before any progress.
        let (status, _, body) = get(server.local_addr(), "/healthz");
        assert!(status.contains("200"), "status: {status}, body: {body}");

        // Stale once the window passes without a change.
        std::thread::sleep(Duration::from_millis(200));
        let (status, _, body) = get(server.local_addr(), "/healthz");
        assert!(status.contains("503"), "status: {status}, body: {body}");
        assert!(body.contains("\"status\":\"stale\""));

        // Progress resurrects it.
        progress.inc();
        let (status, _, body) = get(server.local_addr(), "/healthz");
        assert!(status.contains("200"), "status: {status}, body: {body}");
        assert!(body.contains("\"status\":\"ok\""));
        server.shutdown();
    }
}
