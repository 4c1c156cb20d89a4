//! The `serve` workload: `hmcs_serve::server::Server` with the default
//! batch window, driven in a closed loop by synchronous keep-alive
//! callers over a seeded working set of distinct, unsaturated
//! `/v1/evaluate` points and a share of `/v1/sweep` requests.

use crate::checks::{check_evaluate, check_sweep, Point};
use crate::report::{counters, peak_rss_mb, Metrics, Outcome};
use crate::rng::Rng;
use crate::stats::Histogram;
use crate::trace::Tracer;
use hmcs_core::batch::{self, BatchOptions};
use hmcs_core::scenario::Scenario;
use hmcs_core::service::ServiceTimes;
use hmcs_core::solver::saturation_lambda;
use hmcs_serve::server::{Server, ServerConfig};
use hmcs_serve::{api, http};
use hmcs_topology::transmission::Architecture;
use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Distinct requests in the working set; far more than the requests in
/// flight, so no caller repeats a point while another holds it.
pub const WORKING_SET: usize = 2048;
/// Every `SWEEP_EVERY`-th entry is a `/v1/sweep` over λ with
/// `SWEEP_POINTS` values, and message sizes are drawn from
/// `MESSAGE_BYTES`. These follow the repository's CI serve smoke burst
/// (`hmcs-loadgen --sweep-permille 50`, whose sweeps carry four λ
/// values, with the default message sizes of `loadgen::MixConfig`); no
/// recorded production traffic exists to take a mix from.
const SWEEP_EVERY: usize = 20;
const SWEEP_POINTS: usize = 4;
const MESSAGE_BYTES: [u64; 3] = [256, 1024, 4096];
/// Total node counts the points are drawn over: the paper's 256 with
/// one halving and one doubling either side, all with many divisors.
const TOTAL_NODES: [usize; 4] = [64, 128, 256, 512];
/// Load as a share of each point's saturation rate: every point is
/// unsaturated, and the solver's work varies from near-idle to heavy
/// queueing.
const LOAD: (f64, f64) = (0.05, 0.9);
/// Replays of the working set in the traced run.
const REPLAY_ROUNDS: usize = 4;

/// One working-set request with the response it must get.
pub struct Entry {
    point: Point,
    /// The λ values of a sweep request.
    sweep: Option<Vec<f64>>,
    request: Vec<u8>,
    /// Filled by the set-up, after the checkers pass.
    expected_body: Vec<u8>,
    expected_response: Vec<u8>,
}

fn saturation(point: &Point) -> Result<f64, String> {
    let config = point.config().map_err(|e| e.to_string())?;
    let service = ServiceTimes::compute(&config).map_err(|e| e.to_string())?;
    Ok(saturation_lambda(&config, &service))
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The working set for `seed`: distinct request bodies, each point
/// loaded at a seeded share of its own saturation rate.
pub fn working_set(seed: u64) -> Result<Vec<Entry>, String> {
    let mut rng = Rng::new(seed, 0x5345_5256);
    let mut seen = HashSet::new();
    let mut entries = Vec::with_capacity(WORKING_SET);
    while entries.len() < WORKING_SET {
        let total = rng.pick(&TOTAL_NODES);
        let divisors: Vec<usize> = (2..=total / 2).filter(|c| total.is_multiple_of(*c)).collect();
        let clusters = rng.pick(&divisors);
        let mut point = Point {
            scenario: rng.pick(&[Scenario::Case1, Scenario::Case2]),
            architecture: rng.pick(&[Architecture::NonBlocking, Architecture::Blocking]),
            clusters,
            nodes_per_cluster: total / clusters,
            message_bytes: rng.pick(&MESSAGE_BYTES),
            lambda_per_us: 1e-9,
        };
        let sat = saturation(&point)?;
        let (path, body, sweep) = if entries.len() % SWEEP_EVERY == 0 {
            let lambdas =
                sorted((0..SWEEP_POINTS).map(|_| rng.range(LOAD.0, LOAD.1) * sat).collect());
            point.lambda_per_us = lambdas[0];
            let values: Vec<String> = lambdas.iter().map(f64::to_string).collect();
            let body = format!(
                "{{{},\"parameter\":\"lambda\",\"values\":[{}]}}",
                point.json_fields(),
                values.join(",")
            );
            ("/v1/sweep", body, Some(lambdas))
        } else {
            point.lambda_per_us = rng.range(LOAD.0, LOAD.1) * sat;
            ("/v1/evaluate", format!("{{{}}}", point.json_fields()), None)
        };
        if !seen.insert(body.clone()) {
            continue;
        }
        let request = format!(
            "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        entries.push(Entry {
            point,
            sweep,
            request: request.into_bytes(),
            expected_body: Vec::new(),
            expected_response: Vec::new(),
        });
    }
    Ok(entries)
}

/// A synchronous keep-alive HTTP/1.1 client: one request in flight.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct Reply {
    status: u16,
    close: bool,
    head_len: usize,
    len: usize,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(64 * 1024) })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn round_trip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let head_len = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_len]).to_ascii_lowercase();
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed response head");
        let status = head.get(9..12).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let len = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(bad)?;
        let close = head.contains("\r\nconnection: close\r\n");
        while self.buf.len() < head_len + len {
            self.fill()?;
        }
        Ok(Reply { status, close, head_len, len })
    }

    fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.head_len..reply.head_len + reply.len]
    }
}

fn server_config() -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() }
}

/// Counts of a set-up or measured phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Tally {
    fn outcome(&self, metrics: Metrics) -> Outcome {
        Outcome {
            correct: self.wrong == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// A whole response as a set-up caller received it.
struct Received {
    status: u16,
    head_len: usize,
    bytes: Vec<u8>,
}

/// Sends every entry's request once, split over `callers` synchronous
/// callers (caller `k` takes entries `k`, `k + callers`, …), and returns
/// the responses in entry order.
fn fetch_all(addr: SocketAddr, entries: &[Entry], callers: usize) -> Result<Vec<Received>, String> {
    let parts: Vec<Result<Vec<(usize, Received)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|k| {
                s.spawn(move || {
                    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
                    let mut got = Vec::with_capacity(entries.len() / callers + 1);
                    for i in (k..entries.len()).step_by(callers) {
                        let reply = conn
                            .round_trip(&entries[i].request)
                            .map_err(|e| format!("set-up request {i}: {e}"))?;
                        got.push((
                            i,
                            Received {
                                status: reply.status,
                                head_len: reply.head_len,
                                bytes: conn.buf[..reply.head_len + reply.len].to_vec(),
                            },
                        ));
                        if reply.close {
                            conn = Conn::open(addr).map_err(|e| e.to_string())?;
                        }
                    }
                    Ok(got)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("set-up caller panicked")).collect()
    });
    let mut all: Vec<(usize, Received)> = Vec::with_capacity(entries.len());
    for part in parts {
        all.extend(part?);
    }
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, r)| r).collect())
}

/// The set-up: `Server::start` to the first response, plus one request
/// per working-set entry from the same callers as the measured phase.
/// Only that is timed. The checkers then run on every response, and
/// its bytes are kept for the measured phase to compare against.
fn setup(entries: &mut [Entry], tally: &mut Tally) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::start(server_config()).map_err(|e| e.to_string())?;
    let received = fetch_all(server.local_addr(), entries, callers())?;
    let spent = started.elapsed().as_secs_f64();
    for (i, (entry, got)) in entries.iter_mut().zip(received).enumerate() {
        tally.attempted += 1;
        if got.status != 200 {
            eprintln!("set-up request {i} answered {}", got.status);
            tally.failed += 1;
            continue;
        }
        let body = &got.bytes[got.head_len..];
        let text = String::from_utf8_lossy(body);
        let checked = match &entry.sweep {
            None => check_evaluate(&entry.point, &text),
            Some(lambdas) => check_sweep(&entry.point, lambdas, &text),
        };
        if let Err(e) = checked {
            eprintln!("request {i} failed its check: {e}");
            tally.wrong += 1;
        }
        entry.expected_body = body.to_vec();
        entry.expected_response = got.bytes;
    }
    Ok((server, spent))
}

struct CallerRun {
    times: Histogram,
    tally: Tally,
    sweep_points: u64,
}

/// How long a caller drives one connection before the callers pass
/// their connections round. Each connection stays with its server
/// worker, so every epoch pairs each caller with another worker, and a
/// run averages over the pairings instead of keeping whichever
/// placement of callers and workers on the cores it started with.
const EPOCH: Duration = Duration::from_millis(500);

/// Where callers leave their connections between epochs.
struct Handoff {
    slots: Mutex<Vec<Option<Conn>>>,
    barrier: Barrier,
}

impl Handoff {
    /// Caller `k` gives its connection to caller `k + 1` and takes the
    /// one caller `k − 1` left. Every caller calls this once per epoch.
    fn pass(&self, k: usize, conn: Option<Conn>) -> Option<Conn> {
        {
            let mut slots = self.slots.lock().expect("handoff poisoned");
            let next = (k + 1) % slots.len();
            slots[next] = conn;
        }
        self.barrier.wait();
        let conn = self.slots.lock().expect("handoff poisoned")[k].take();
        self.barrier.wait();
        conn
    }
}

fn caller(
    k: usize,
    addr: SocketAddr,
    entries: &[Entry],
    handoff: &Handoff,
    started: Instant,
    epochs: u32,
) -> Result<CallerRun, String> {
    let mut run = CallerRun { times: Histogram::new(), tally: Tally::default(), sweep_points: 0 };
    let callers = handoff.slots.lock().expect("handoff poisoned").len();
    let mut i = k * entries.len() / callers;
    let mut conn = Conn::open(addr).ok();
    let mut error = None;
    // Every caller runs every epoch, even after an error, so that none
    // is left waiting at the hand-off.
    for epoch in 0..epochs {
        conn = handoff.pass(k, conn);
        let end = started + EPOCH * (epoch + 1);
        while error.is_none() && Instant::now() < end {
            let c = match &mut conn {
                Some(c) => c,
                None => match Conn::open(addr) {
                    Ok(c) => conn.insert(c),
                    Err(e) => {
                        error = Some(e.to_string());
                        break;
                    }
                },
            };
            let entry = &entries[i % entries.len()];
            i += 1;
            run.tally.attempted += 1;
            let t0 = Instant::now();
            let reply = c.round_trip(&entry.request);
            let ns = t0.elapsed().as_nanos() as u64;
            let keep = match reply {
                Ok(reply) if reply.status == 200 => {
                    run.times.record(ns);
                    if c.body(&reply) != entry.expected_body.as_slice() {
                        run.tally.wrong += 1;
                    }
                    if let Some(lambdas) = &entry.sweep {
                        run.sweep_points += lambdas.len() as u64;
                    }
                    // The server closes a connection after its request cap.
                    !reply.close
                }
                _ => {
                    run.tally.failed += 1;
                    false
                }
            };
            if !keep {
                conn = None;
            }
        }
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
    }
    error.map_or(Ok(run), Err)
}

struct Phase {
    times: Histogram,
    wall_s: f64,
    sweep_points: u64,
}

/// `callers` closed-loop callers, each starting at its own offset in
/// the working set, for `seconds`.
fn measure(
    server: &Server,
    entries: &[Entry],
    callers: usize,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Phase, String> {
    let addr = server.local_addr();
    let epochs = (seconds / EPOCH.as_secs_f64()).ceil().max(1.0) as u32;
    let handoff = Handoff {
        slots: Mutex::new((0..callers).map(|_| None).collect()),
        barrier: Barrier::new(callers),
    };
    let handoff = &handoff;
    let started = Instant::now();
    let runs: Vec<Result<CallerRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|k| s.spawn(move || caller(k, addr, entries, handoff, started, epochs)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut phase = Phase { times: Histogram::new(), wall_s, sweep_points: 0 };
    for run in runs {
        let run = run?;
        tally.attempted += run.tally.attempted;
        tally.failed += run.tally.failed;
        tally.wrong += run.tally.wrong;
        phase.sweep_points += run.sweep_points;
        phase.times.merge(&run.times);
    }
    Ok(phase)
}

/// One synchronous caller per core.
pub fn callers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One cold set-up in this process, checked; it reports `setup_s` only.
pub fn run_setup(seed: u64) -> Result<Outcome, String> {
    let mut entries = working_set(seed)?;
    let mut tally = Tally::default();
    let (server, setup_s) = setup(&mut entries, &mut tally)?;
    server.shutdown();
    let mut m = Metrics::default();
    m.push("setup_s", setup_s);
    Ok(tally.outcome(m))
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut entries = working_set(seed)?;
    let mut tally = Tally::default();
    let (server, setup_s) = setup(&mut entries, &mut tally)?;
    let phase = measure(&server, &entries, callers(), seconds, &mut tally)?;
    server.shutdown();
    let mut m = Metrics::default();
    m.push("setup_s", setup_s);
    m.push("peak_rss_mb", peak_rss_mb()?);
    m.push("p50_ms", phase.times.percentile(50.0) / 1e6);
    m.push("throughput_per_s", phase.times.count() as f64 / phase.wall_s);
    Ok(tally.outcome(m))
}

/// Both ends of one loopback connection. The replay reads each request
/// from `server` as a server worker does, so `serve.http_read` includes
/// the receive system calls.
struct Loopback {
    client: TcpStream,
    server: TcpStream,
    reader: http::RequestReader,
}

impl Loopback {
    fn open() -> io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        for stream in [&client, &server] {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        }
        Ok(Loopback { client, server, reader: http::RequestReader::new() })
    }
}

/// Replays one entry through the server's own steps. The client end
/// sends the request bytes; the server end then reads, parses, keys,
/// solves, renders and serialises it, each step a span of `t`. The
/// response goes back to the client outside the spans, as the server
/// writes it after its request clock stops. Returns the response bytes.
fn replay(entry: &Entry, lo: &mut Loopback, t: &mut Tracer) -> Result<Vec<u8>, String> {
    let io_err = |e: io::Error| e.to_string();
    lo.client.write_all(&entry.request).map_err(io_err)?;
    let deadline = Instant::now() + Duration::from_secs(60);
    let max_body = ServerConfig::default().max_body_bytes;
    let request = t
        .span("serve.http_read", |_| lo.reader.read_request(&mut lo.server, max_body, deadline))
        .map_err(|e| e.reason())?
        .ok_or("connection closed")?;
    let body = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    let rendered = match &entry.sweep {
        None => {
            let (config, _) =
                t.span("serve.parse", |_| api::parse_evaluate(body)).map_err(|e| e.body())?;
            t.span("serve.key", |_| std::hint::black_box(api::evaluate_key(&config)));
            let solved = t.span("serve.solve", |_| batch::evaluate_one(&config, None, None));
            t.span("serve.render", |_| api::evaluate_response_from(&config, solved))
        }
        Some(_) => {
            let (config, spec, _) =
                t.span("serve.parse", |_| api::parse_sweep(body)).map_err(|e| e.body())?;
            t.span("serve.key", |_| std::hint::black_box(api::sweep_key(&config, &spec)));
            let solved = t
                .span("serve.solve", |_| {
                    api::sweep_configs(&config, &spec)
                        .map(|configs| batch::evaluate_many(&configs, BatchOptions::sequential()))
                })
                .map_err(|e| e.body())?;
            t.span("serve.render", |_| api::sweep_response_from(&config, &spec, solved))
        }
    };
    let response = http::Response::json(rendered.map_err(|e| e.body())?);
    let mut out = Vec::with_capacity(2048);
    t.span("serve.serialize", |_| http::serialize_response(&mut out, &response, false));
    lo.server.write_all(&out).map_err(io_err)?;
    let mut echoed = vec![0u8; out.len()];
    lo.client.read_exact(&mut echoed).map_err(io_err)?;
    Ok(out)
}

/// The traced run: the same client run, with the server's counters
/// read around it, then a replay of the working set over one loopback
/// connection, without the server, in which each of the server's steps
/// is a span.
pub fn run_traced(seed: u64, seconds: f64, trace_out: &std::path::Path) -> Result<Outcome, String> {
    let mut entries = working_set(seed)?;
    let mut tally = Tally::default();
    let (server, _) = setup(&mut entries, &mut tally)?;
    let before = counters();
    let phase = measure(&server, &entries, callers(), seconds, &mut tally)?;
    let after = counters();
    server.shutdown();

    // Each entry is replayed untraced, then traced, over one loopback
    // connection.
    let mut lo = Loopback::open().map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let mut plain = Tracer::disabled();
    let (mut untraced_ns, mut traced_ns, mut replays) = (0u128, 0u128, 0u64);
    for _ in 0..REPLAY_ROUNDS {
        for entry in &entries {
            for (t, ns) in [(&mut plain, &mut untraced_ns), (&mut tracer, &mut traced_ns)] {
                tally.attempted += 1;
                let t0 = Instant::now();
                let out = t.span("serve.replay", |t| replay(entry, &mut lo, t));
                *ns += t0.elapsed().as_nanos();
                match out {
                    Ok(bytes) if bytes == entry.expected_response => {}
                    Ok(_) => tally.wrong += 1,
                    Err(_) => tally.failed += 1,
                }
            }
            replays += 1;
        }
    }
    tracer.write(trace_out).map_err(|e| e.to_string())?;
    let layers = tracer.layers();
    let per_replay_us =
        |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e3 / replays as f64);

    let ops = phase.times.count() as f64;
    let requests = (after.request_count - before.request_count) as f64;
    let server_mean_us = (after.request_us - before.request_us) as f64 / requests;
    let client_p50_us = phase.times.percentile(50.0) / 1e3;
    let stages = [
        "serve.http_read",
        "serve.parse",
        "serve.key",
        "serve.solve",
        "serve.render",
        "serve.serialize",
    ];
    let lanes = (after.solves - before.solves) as f64;

    let mut m = Metrics::default();
    m.push("serve.server_mean_us", server_mean_us);
    m.push("serve.outside_server_us", client_p50_us - server_mean_us);
    m.push("serve.http_read_us", per_replay_us("serve.http_read"));
    m.push("serve.parse_us", per_replay_us("serve.parse"));
    m.push("serve.key_us", per_replay_us("serve.key"));
    m.push("serve.solve_us", per_replay_us("serve.solve"));
    m.push("serve.render_us", per_replay_us("serve.render"));
    m.push("serve.serialize_us", per_replay_us("serve.serialize"));
    m.push(
        "serve.unattributed_us",
        server_mean_us - stages.iter().map(|s| per_replay_us(s)).sum::<f64>(),
    );
    m.push("serve.coalesce.hits", (after.coalesce_hits - before.coalesce_hits) as f64);
    m.push(
        "serve.coalesce.computations",
        (after.coalesce_computations - before.coalesce_computations) as f64,
    );
    m.push("serve.sweep_lanes", phase.sweep_points as f64);
    m.push("client.p99_ms", phase.times.percentile(99.0) / 1e6);
    m.push_tail(phase.times.tail().map(|(p, ns)| (p, ns / 1e6)), phase.times.count() as usize);
    m.push("kernel.lanes", lanes / ops);
    m.push(
        "kernel.iterations_per_lane",
        (after.iterations - before.iterations) as f64 / lanes.max(1.0),
    );
    m.push("kernel.lanes_per_s", lanes / phase.wall_s);
    m.push("trace.overhead_ms", (traced_ns as f64 - untraced_ns as f64) / 1e6 / replays as f64);
    Ok(tally.outcome(m))
}
