//! The HTTP front end: a hand-rolled HTTP/1.1 server over std
//! [`TcpListener`], one short-lived thread per connection, JSON bodies,
//! chunked streaming for live outcome feeds. Zero dependencies beyond
//! the workspace.
//!
//! The protocol is deliberately tiny — every route is a
//! [`protocol`](crate::protocol) type:
//!
//! ```text
//! POST   /campaigns                  submit  → 202 Submitted | 400 ErrorBody
//! GET    /campaigns/<id>             status  → 200 CampaignStatus | 404
//! GET    /campaigns/<id>/outcomes    page    → 200 OutcomesPage   (?from=K&wait=1)
//! GET    /campaigns/<id>/stream      stream  → 200 chunked NDJSON (?from=K)
//! DELETE /campaigns/<id>             cancel  → 200 CampaignStatus | 404
//! GET    /stats                      stats   → 200 ServerStatsReport
//! GET    /healthz                    health  → 200 {"ok":true}
//! ```
//!
//! Malformed requests get typed 400s with the validation message
//! verbatim (so an unknown algorithm 400 lists every registered
//! algorithm id). Connections are `Connection: close` — one request
//! per connection keeps the parser trivial and is plenty for a
//! campaign-grained API where each evaluation costs far more than a
//! TCP handshake.

use crate::protocol::{ErrorBody, OutcomesPage};
use crate::scheduler::CampaignHub;
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Request header cap: a campaign API has no business sending more.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Request body cap (a sweep of a few thousand configs fits easily).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A running server: the bound address plus the shutdown handle.
pub struct ServeHandle {
    addr: SocketAddr,
    hub: CampaignHub,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The address the server actually bound (use `port 0` to let the
    /// OS pick).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub this server fronts.
    pub fn hub(&self) -> &CampaignHub {
        &self.hub
    }

    /// Stops accepting connections and joins the accept loop. The hub
    /// keeps running — callers that want full shutdown also call
    /// [`CampaignHub::shutdown`].
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // self-connect to unblock the blocking accept
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves the hub's campaign
/// API until [`ServeHandle::stop`].
///
/// # Errors
///
/// Any bind error, verbatim.
pub fn serve(hub: CampaignHub, addr: &str) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_hub = hub.clone();
    let accept_thread = std::thread::Builder::new()
        .name("slam-serve-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else {
                    continue;
                };
                let hub = accept_hub.clone();
                let _ = std::thread::Builder::new()
                    .name("slam-serve-conn".to_string())
                    .spawn(move || handle_connection(&hub, stream));
            }
        })?;
    Ok(ServeHandle {
        addr: local,
        hub,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// One parsed request head plus its body.
struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: Vec<u8>,
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

fn query_usize(query: &[(String, String)], key: &str) -> usize {
    query
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

fn query_flag(query: &[(String, String)], key: &str) -> bool {
    query
        .iter()
        .any(|(k, v)| k == key && v != "0" && v != "false")
}

/// Reads one HTTP/1.1 request off the stream. `None` on any protocol
/// violation (the caller answers 400) or a dead socket.
fn read_request(stream: &mut impl Read) -> Option<Request> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return None;
        }
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    match parts.next() {
        Some(version) if version.starts_with("HTTP/1.") => {}
        _ => return None,
    }
    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let content_length = content_length(lines)?;
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        // read no further than the declared body
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want]).ok()?;
        if n == 0 {
            return None;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Some(Request {
        method,
        path: path.to_string(),
        query: parse_query(raw_query),
        body,
    })
}

/// The body length a request head's header lines declare: zero
/// without a `Content-Length`, `None` when a value is not a number or
/// two values differ (RFC 7230 §3.3.2: ambiguous framing is rejected,
/// never resolved by picking one).
fn content_length<'a>(header_lines: impl Iterator<Item = &'a str>) -> Option<usize> {
    let mut length = None;
    for line in header_lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        for item in value.split(',') {
            let n: usize = item.trim().parse().ok()?;
            if length.is_some_and(|l| l != n) {
                return None;
            }
            length = Some(n);
        }
    }
    Some(length.unwrap_or(0))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    }
}

fn write_json<T: Serialize>(stream: &mut TcpStream, status: u16, body: &T) {
    let text = serde_json::to_string(body).unwrap_or_default();
    let response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        status,
        status_reason(status),
        text.len(),
        text
    );
    let _ = stream.write_all(response.as_bytes());
}

fn write_error(stream: &mut TcpStream, status: u16, error: impl Into<String>) {
    write_json(
        stream,
        status,
        &ErrorBody {
            error: error.into(),
        },
    );
}

fn handle_connection(hub: &CampaignHub, mut stream: TcpStream) {
    let Some(request) = read_request(&mut stream) else {
        write_error(&mut stream, 400, "malformed HTTP request");
        return;
    };
    hub.tracer().counter("serve.request", 1);
    let _span = hub.tracer().section_span("serve.request");
    route(hub, &mut stream, &request);
}

fn route(hub: &CampaignHub, stream: &mut TcpStream, request: &Request) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => write_json(stream, 200, &serde_json::json!({"ok": true})),
        ("GET", ["stats"]) => write_json(stream, 200, &hub.stats_report()),
        ("POST", ["campaigns"]) => match serde_json::from_slice(&request.body) {
            Ok(campaign_request) => match hub.submit(campaign_request) {
                Ok(submitted) => write_json(stream, 202, &submitted),
                Err(error) => write_error(stream, 400, error),
            },
            Err(e) => write_error(stream, 400, format!("invalid campaign request: {e}")),
        },
        (method, ["campaigns", id, rest @ ..]) => {
            let Ok(id) = id.parse::<u64>() else {
                write_error(stream, 404, format!("no campaign {id:?}"));
                return;
            };
            let Some(campaign) = hub.campaign(id) else {
                write_error(stream, 404, format!("no campaign {id}"));
                return;
            };
            match (method, rest) {
                ("GET", []) => write_json(stream, 200, &campaign.status()),
                ("DELETE", []) => match hub.cancel(id) {
                    Some(status) => write_json(stream, 200, &status),
                    None => write_error(stream, 404, format!("no campaign {id}")),
                },
                ("GET", ["outcomes"]) => {
                    let from = query_usize(&request.query, "from");
                    let wait = query_flag(&request.query, "wait");
                    let (records, done) = campaign.page_from(from, wait);
                    write_json(
                        stream,
                        200,
                        &OutcomesPage {
                            from: from.min(campaign.completed()),
                            records,
                            done,
                        },
                    );
                }
                ("GET", ["stream"]) => {
                    stream_outcomes(stream, &campaign, query_usize(&request.query, "from"));
                }
                _ => write_error(stream, 405, format!("{method} not supported here")),
            }
        }
        (method, _) => write_error(
            stream,
            404,
            format!("no route for {method} {}", request.path),
        ),
    }
}

/// Streams outcome records as they land: a chunked response with one
/// JSON [`OutcomeRecord`](crate::protocol::OutcomeRecord) per line,
/// ending once the campaign is terminal (or the client hangs up).
fn stream_outcomes(stream: &mut TcpStream, campaign: &crate::campaign::Campaign, from: usize) {
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut cursor = from;
    loop {
        let (records, done) = campaign.page_from(cursor, true);
        for record in &records {
            let Ok(line) = serde_json::to_string(record) else {
                continue;
            };
            let chunk = format!("{:x}\r\n{}\n\r\n", line.len() + 1, line);
            if stream.write_all(chunk.as_bytes()).is_err() {
                return; // client hung up
            }
        }
        cursor += records.len();
        if done {
            break;
        }
    }
    let _ = stream.write_all(b"0\r\n\r\n");
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn query_parsing_handles_the_grammar() {
        let q = parse_query("from=7&wait=1&flag");
        assert_eq!(query_usize(&q, "from"), 7);
        assert!(query_flag(&q, "wait"));
        assert!(query_flag(&q, "flag"));
        assert!(!query_flag(&q, "absent"));
        assert_eq!(query_usize(&q, "absent"), 0);
        let q = parse_query("wait=0");
        assert!(!query_flag(&q, "wait"));
        assert!(parse_query("").is_empty());
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let length = |head: &str| content_length(head.split("\r\n"));
        assert_eq!(length("Host: x"), Some(0));
        assert_eq!(length("Content-Length: 12"), Some(12));
        // repeats of one value frame the body unambiguously
        assert_eq!(length("content-length: 5\r\nContent-Length: 5"), Some(5));
        assert_eq!(length("Content-Length: 5, 5"), Some(5));
        // differing values: neither may win
        assert_eq!(length("Content-Length: 5\r\nContent-Length: 7"), None);
        assert_eq!(length("Content-Length: 7\r\nCONTENT-LENGTH: 5"), None);
        assert_eq!(length("Content-Length: 5, 7"), None);
        assert_eq!(length("Content-Length: five"), None);
        assert_eq!(length("Content-Length: -1"), None);
    }

    /// SplitMix64 (Steele, Lea & Flood 2014): a tiny seeded generator.
    pub(crate) struct SplitMix64(pub(crate) u64);

    impl SplitMix64 {
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// A peer that sends `data` in reads whose sizes `sizes` picks, then
    /// either hangs up or (with `endless`) keeps sending filler forever.
    struct Peer {
        data: Vec<u8>,
        at: usize,
        endless: bool,
        sizes: Box<dyn FnMut() -> usize>,
        /// Every byte handed to the parser so far.
        consumed: usize,
    }

    impl Read for Peer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let left = self.data.len() - self.at;
            let mut n = buf.len().min((self.sizes)());
            if !self.endless {
                n = n.min(left);
            }
            for (i, b) in buf[..n].iter_mut().enumerate() {
                *b = self.data.get(self.at + i).copied().unwrap_or(b'x');
            }
            self.at += n.min(left);
            self.consumed += n;
            Ok(n)
        }
    }

    /// Read sizes of 1 to 4096 bytes drawn from `seed`.
    fn random_sizes(seed: u64) -> Box<dyn FnMut() -> usize> {
        let mut rng = SplitMix64(seed);
        Box::new(move || 1 + rng.below(4096))
    }

    /// The parser's read bound: a head cut off after one read past
    /// `MAX_HEAD_BYTES`, then at most the declared body.
    const MAX_READ: usize = MAX_HEAD_BYTES + 4096 + MAX_BODY_BYTES;

    /// Feeds `data` to `read_request` and checks the oracle: no panic, at
    /// most `MAX_READ` bytes read, and an accepted request's body is
    /// exactly the bytes after the head that every `Content-Length`
    /// value declares. Returns whether the request was accepted.
    fn check_parse(
        data: &[u8],
        endless: bool,
        sizes: Box<dyn FnMut() -> usize>,
        what: &str,
    ) -> bool {
        let mut peer = Peer {
            data: data.to_vec(),
            at: 0,
            endless,
            sizes,
            consumed: 0,
        };
        let parsed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read_request(&mut peer)));
        let Ok(parsed) = parsed else {
            panic!("{what} panicked the parser");
        };
        assert!(
            peer.consumed <= MAX_READ,
            "{what}: read {} bytes, bound {MAX_READ}",
            peer.consumed
        );
        let Some(request) = parsed else {
            return false;
        };
        let head_end = find_head_end(data).expect("an accepted request has a head");
        let head = std::str::from_utf8(&data[..head_end]).unwrap();
        let declared: Vec<usize> = head
            .split("\r\n")
            .filter_map(|line| line.split_once(':'))
            .filter(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .flat_map(|(_, value)| value.split(','))
            .map(|v| v.trim().parse().unwrap())
            .collect();
        let len = request.body.len();
        assert!(len <= MAX_BODY_BYTES, "{what}: body of {len} bytes");
        assert!(
            declared.iter().all(|&d| d == len),
            "{what}: body of {len} bytes, declared {declared:?}"
        );
        let sent = data.get(head_end + 4..).unwrap_or_default();
        let expected = sent
            .iter()
            .copied()
            .chain(std::iter::repeat(b'x'))
            .take(len);
        assert!(
            request.body.iter().copied().eq(expected),
            "{what}: body bytes differ"
        );
        true
    }

    #[test]
    fn mutated_requests_parse_to_none_or_their_declared_body() {
        let body = br#"{"algorithm":"kfusion","priority":"Batch"}"#;
        let post = [
            format!(
                "POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes(),
            body.to_vec(),
        ]
        .concat();
        let get = b"GET /campaigns/3/outcomes?from=7&wait=1 HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
        let seeds = [("GET", get), ("POST", post)];
        for (what, seed) in &seeds {
            assert!(
                check_parse(seed, false, random_sizes(1), what),
                "{what}: the seed is rejected"
            );
        }
        let mutants = if cfg!(miri) { 12 } else { 20_000 };
        let mut rng = SplitMix64(0x4e77_9a25);
        let mut accepted = [0usize; 2];
        for case in 0..mutants {
            let (what, seed) = &seeds[case % seeds.len()];
            let mut bytes = seed.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len() + 1);
                match rng.below(7) {
                    0 | 1 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                    2 => bytes.insert(at, rng.below(256) as u8),
                    3 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    4 => bytes.truncate(at),
                    _ => {
                        // a further Content-Length line after the request
                        // line: a repeat, a conflict, or over the cap
                        let value = match rng.below(5) {
                            0 => body.len().to_string(),
                            1 => rng.below(2 * body.len()).to_string(),
                            2 => (MAX_BODY_BYTES + 1 + rng.below(1 << 20)).to_string(),
                            3 => usize::MAX.to_string(),
                            _ => format!("{}, {}", body.len(), rng.below(2 * body.len())),
                        };
                        let line = format!("Content-Length: {value}\r\n");
                        let after_request_line = bytes
                            .windows(2)
                            .position(|w| w == b"\r\n")
                            .map_or(bytes.len(), |p| p + 2);
                        bytes.splice(after_request_line..after_request_line, line.into_bytes());
                    }
                }
            }
            let endless = rng.below(4) == 0;
            let what = format!("{what} mutant {case}");
            if check_parse(&bytes, endless, random_sizes(rng.next_u64()), &what) {
                accepted[case % seeds.len()] += 1;
            }
        }
        if !cfg!(miri) {
            // both heads survive some edits, so the accept path is exercised
            assert!(accepted.iter().all(|&a| a > 0), "accepted {accepted:?}");
        }
    }

    #[test]
    fn the_largest_head_and_body_stay_inside_the_read_bound() {
        // a head that ends one read past the head cap, a body at the body
        // cap and a peer that never stops sending, in reads phased so the
        // last one could run 4095 bytes past the body
        let head_len = MAX_HEAD_BYTES + 4096;
        let mut head =
            format!("POST /campaigns HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\nX-Pad: ")
                .into_bytes();
        head.resize(head_len - 4, b'p');
        head.extend(b"\r\n\r\n");
        let mut reads = 0;
        let sizes = Box::new(move || {
            reads += 1;
            if reads == head_len / 4096 + 1 {
                4095
            } else {
                4096
            }
        });
        assert!(check_parse(&head, true, sizes, "the largest request"));
    }

    #[test]
    fn conflicting_content_lengths_get_a_400_over_the_wire() {
        let dir = std::env::temp_dir().join(format!("slam-serve-cl-{}", std::process::id()));
        let mut options = crate::ServeOptions::new(&dir);
        options.executors = 0;
        let hub = CampaignHub::start(options);
        let handle = serve(hub.clone(), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(
                b"POST /campaigns HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 9\r\n\r\n{}",
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        assert!(hub.campaigns().is_empty());
        handle.stop();
        hub.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_oversized_camera_gets_a_400_and_renders_nothing() {
        use crate::protocol::{CampaignKind, CampaignRequest, Priority};
        let dir = std::env::temp_dir().join(format!("slam-serve-huge-{}", std::process::id()));
        let mut options = crate::ServeOptions::new(&dir);
        options.executors = 0;
        let hub = CampaignHub::start(options);
        let handle = serve(hub.clone(), "127.0.0.1:0").unwrap();
        let mut dataset = slam_scene::DatasetConfig::tiny_test();
        (dataset.camera.width, dataset.camera.height) = (30_000, 30_000);
        let request = CampaignRequest {
            algorithm: "kfusion".into(),
            dataset,
            kind: CampaignKind::Single {
                config: slam_kfusion::KFusionConfig::fast_test(),
            },
            priority: Priority::Batch,
            device: None,
        };
        let body = serde_json::to_string(&request).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let head = format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        let json = &response[response.find("\r\n\r\n").unwrap() + 4..];
        let error: ErrorBody = serde_json::from_str(json).unwrap();
        assert!(error.error.contains("30000x30000"), "{}", error.error);
        assert!(hub.campaigns().is_empty());
        assert_eq!(hub.stats_report().datasets_rendered, 0);
        handle.stop();
        hub.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
