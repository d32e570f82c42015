//! A minimal Prometheus scrape endpoint: `GET /metrics` over plain
//! `std::net`, no HTTP library.
//!
//! The same listener also serves the continuous profiler: `GET /profile`
//! returns the folded span-path table (`?format=speedscope` for a
//! speedscope JSON document) — `curl :PORT/profile | flamegraph.pl` away
//! from a flamegraph.
//!
//! Scrapers send one small request and read one response, so a
//! deliberately tiny HTTP/1.0-style server is enough: parse the request
//! line, skip headers, answer with `Connection: close`, and hang up.
//! Handling is sequential — a scrape every few seconds does not need an
//! accept pool, and sequential handling keeps shutdown trivial (the same
//! poke-the-listener trick the wire accept loop uses).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::Metrics;

/// The Prometheus text exposition content type.
const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A running `GET /metrics` listener. Dropping the handle shuts it down.
pub struct MetricsHttpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsHttpHandle {
    /// Bind `addr` and serve `metrics` as Prometheus text on
    /// `GET /metrics` until shutdown. Returns the handle; read the bound
    /// address (useful with port 0) off it.
    pub fn serve(metrics: Arc<Metrics>, addr: &str) -> io::Result<MetricsHttpHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mcfs-metrics-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // A misbehaving scraper must not wedge the loop.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                    let _ = answer(stream, &metrics);
                }
            })?;
        Ok(MetricsHttpHandle {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener and join its thread. Idempotent; also on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    pub(crate) fn shutdown_inner(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The loop only observes the flag on its next connection; poke it.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsHttpHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Serve one connection: one request, one response, close.
fn answer(stream: TcpStream, metrics: &Metrics) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(()); // the shutdown poke: connect + immediate close
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // Drain headers up to the blank line; the body (none expected) is
    // ignored — GET has no semantics for one.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut stream = stream;
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path, ""),
    };
    let (status, content_type, body) = match (method, route, query) {
        ("GET", "/metrics", "") => ("200 OK", CONTENT_TYPE, metrics.to_prometheus()),
        ("GET", "/metrics", _) => (
            "400 Bad Request",
            "text/plain",
            "/metrics takes no query\n".to_owned(),
        ),
        ("GET", "/profile", q) => match profile_body(q) {
            Ok((content_type, body)) => ("200 OK", content_type, body),
            Err(msg) => ("400 Bad Request", "text/plain", msg),
        },
        ("GET", _, _) => ("404 Not Found", "text/plain", "not found\n".to_owned()),
        _ => (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n".to_owned(),
        ),
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Render the `GET /profile` body for a query string. The one accepted
/// key is `format=folded|speedscope`. Cumulative table only (windowing is
/// the wire verb's `secs=`).
fn profile_body(query: &str) -> Result<(&'static str, String), String> {
    let mut format = "folded";
    for part in query.split('&').filter(|p| !p.is_empty()) {
        match part.split_once('=') {
            Some(("format", v @ ("folded" | "speedscope"))) => format = v,
            _ => {
                return Err(format!(
                    "unknown query {part:?}; try ?format=folded|speedscope\n"
                ))
            }
        }
    }
    let snap = mcfs_obs::profile::snapshot();
    Ok(match format {
        "speedscope" => (
            "application/json; charset=utf-8",
            mcfs_obs::to_speedscope(&snap, "mcfs-profile"),
        ),
        _ => ("text/plain; charset=utf-8", snap.to_folded()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Outcome;
    use crate::protocol::Verb;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn scrape_endpoint_serves_prometheus_text() {
        let metrics = Arc::new(Metrics::new());
        metrics.record_request(Verb::Solve, Outcome::Ok, None);
        let handle = MetricsHttpHandle::serve(Arc::clone(&metrics), "127.0.0.1:0").unwrap();
        let addr = handle.addr();

        let response = get(addr, "/metrics");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(response.contains("mcfs_server_requests_total{verb=\"solve\",outcome=\"ok\"} 1\n"));

        // `/metrics` takes no query.
        for query in ["scope=cluster", "scope=galaxy"] {
            let bad = get(addr, &format!("/metrics?{query}"));
            assert!(bad.starts_with("HTTP/1.0 400"), "{bad}");
        }

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        // The profiler rides the same listener. The table may be empty in
        // this test, but the routes answer 200 with the right shapes.
        let profile = get(addr, "/profile");
        assert!(profile.starts_with("HTTP/1.0 200 OK\r\n"), "{profile}");
        assert!(profile.contains("Content-Type: text/plain"));
        let speedscope = get(addr, "/profile?format=speedscope");
        assert!(
            speedscope.starts_with("HTTP/1.0 200 OK\r\n"),
            "{speedscope}"
        );
        assert!(speedscope.contains("Content-Type: application/json"));
        assert!(speedscope.contains("speedscope.app/file-format-schema.json"));
        for query in ["format=xml", "scope=cluster"] {
            let bad = get(addr, &format!("/profile?{query}"));
            assert!(bad.starts_with("HTTP/1.0 400"), "{bad}");
        }

        handle.shutdown();
        // The port is released once shutdown returns.
        assert!(TcpListener::bind(addr).is_ok());
    }
}
