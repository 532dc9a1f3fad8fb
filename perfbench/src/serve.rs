//! `serve-hot` and `serve-churn`: traffic over two TCP connections to
//! an in-process `vpd_serve::Server` with the default `ServeConfig`.
//!
//! A run alternates slices of two phases: a closed loop (one request
//! in flight on each connection) that measures the server's CPU time
//! and wall time per pass and, from them, capacity, and an open loop
//! with seeded Poisson arrivals at a fixed offered rate that measures
//! the server's CPU time per request and latency from each request's
//! due time. The server's CPU time is the process's less the load
//! generator threads' own. The load generator uses at most two threads.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vpd_report::Json;
use vpd_serve::{Dispatcher, Request, Response, ServeConfig, Server};

use crate::audit::{self, Oracle};
use crate::cpu;
use crate::report::{sum_counters, Report};
use crate::rng::Rng;
use crate::stats::{median, sorted, tail};
use crate::streams::{self, Body};
use crate::trace::Tracer;
use crate::Opts;

/// `serve-hot` offered rate, requests per second. On a shared 2-core
/// x86-64 host the closed-loop capacity of this mix ranged from 1,050
/// to 2,700/s as other tenants' load came and went. Half of capacity
/// overflowed the server's queue when the host slowed, and a third
/// still let queueing amplify every slowdown into p50, so the rate
/// stays near a quarter of the slowest capacity seen.
pub const HOT_RATE: f64 = 300.0;
/// `serve-churn` offered rate, requests per second: a quarter of the
/// slowest closed-loop capacity seen for this mix (250–400/s).
pub const CHURN_RATE: f64 = 60.0;
/// Length of one slice of a run: a closed-loop phase, then an open
/// loop. Capacity and p50 are medians over slices; p99 pools them.
const SLICE_S: f64 = 3.0;
/// Share of each slice spent in the closed-loop phase.
const CLOSED_SHARE: f64 = 0.35;
/// Set-ups before the first slice; the last one's server is measured.
const SETUPS_AT_START: usize = 9;
/// Throwaway `serve-churn` set-ups after each slice. A churn set-up is
/// a fraction of a millisecond of thread and socket calls, whose cost
/// follows the host's load at that moment; spread over the run, their
/// median follows the run. (A throwaway `serve-hot` server would add its
/// warm cache to the measured process's peak memory.)
const CHURN_SETUPS_PER_SLICE: usize = 2;
/// Churn requests per closed-loop pass, of each list.
const CHURN_PASS: u64 = 8;
/// A response not read this long after the last send is a timeout.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);
/// Generator lateness beyond which a serve run is invalid: the
/// generator, not the server, fell behind its schedule. Sends run late
/// by a few milliseconds whenever the host preempts the generator on a
/// small machine; a late median, or a tail of tens of milliseconds, is
/// a schedule the generator could not keep.
const LATE_P50_LIMIT_MS: f64 = 1.0;
const LATE_P99_LIMIT_MS: f64 = 50.0;
/// Share of churn requests checked against the cold oracle.
const CHURN_AUDIT_SHARE: f64 = 0.12;
/// Replayed requests in the traced run's in-process replay.
const REPLAY_MAX: usize = 200;
/// Longest the open-loop receiver blocks waiting for bytes before it
/// re-checks whether the sender has finished.
const POLL_TIMEOUT_MS: i32 = 10;
/// Wait of a sender whose nonblocking socket buffer is full.
const WRITE_RETRY: Duration = Duration::from_micros(50);

/// Which serve workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// A small fixed request set that the cache serves after warm-up.
    Hot,
    /// Every request has a cache key the server has not seen.
    Churn,
}

struct Running {
    addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

fn start() -> Running {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let addr = server.local_addr().expect("server address").to_string();
    let handle = std::thread::spawn(move || server.run());
    Running { addr, handle }
}

fn stop(server: Running) {
    vpd_serve::call(&server.addr, &[], true).expect("shut the server down");
    server
        .handle
        .join()
        .expect("server thread panicked")
        .expect("server run failed");
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(addr: &str) -> Conn {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_nodelay(true).expect("set nodelay");
    Conn {
        writer: stream.try_clone().expect("clone stream"),
        reader: BufReader::new(stream),
    }
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// The request line.
    pub request: String,
    /// The response line (empty when none arrived).
    pub response: String,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When the request was written.
    pub sent: Instant,
    /// When its response line was read (`None` on timeout).
    pub done: Option<Instant>,
}

impl Exchange {
    fn latency(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due).as_secs_f64())
    }
}

/// The request body of a line: drops the leading `{"id":N,`.
fn body_of(line: &str) -> &str {
    let start = line.find(',').map_or(0, |i| i + 1);
    &line[start..line.len() - 1]
}

fn kind_of(line: &str) -> &str {
    line.split("\"kind\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("?")
}

/// Sends `lines` one at a time on `conn`, each after the previous
/// response arrived.
fn exchange_all(conn: &mut Conn, lines: &[String]) -> Vec<Exchange> {
    let mut ex = Vec::with_capacity(lines.len());
    for line in lines {
        let sent = Instant::now();
        let mut bytes = line.clone().into_bytes();
        bytes.push(b'\n');
        conn.writer.write_all(&bytes).expect("send request");
        let mut response = String::new();
        let n = conn.reader.read_line(&mut response).expect("read response");
        ex.push(Exchange {
            request: line.clone(),
            response: response.trim_end().to_owned(),
            due: sent,
            sent,
            done: (n > 0).then(Instant::now),
        });
    }
    ex
}

/// The closed-loop request lists `(light, heavy)` of pass `pass`.
fn pass_lists(mix: Mix, seed: u64, pass: u64, next_id: &mut u64) -> (Vec<String>, Vec<String>) {
    let bodies: (Vec<Body>, Vec<Body>) = match mix {
        Mix::Hot => streams::hot_set(seed),
        Mix::Churn => {
            let indices = pass * CHURN_PASS..(pass + 1) * CHURN_PASS;
            (
                indices
                    .clone()
                    .map(|i| streams::churn_analyze(seed, 1, i))
                    .collect(),
                indices
                    .map(|i| streams::churn_scenario(seed, 1, i))
                    .collect(),
            )
        }
    };
    let mut wrap = |list: Vec<Body>| -> Vec<String> {
        list.iter()
            .map(|b| {
                *next_id += 1;
                streams::line(*next_id, b)
            })
            .collect()
    };
    (wrap(bodies.0), wrap(bodies.1))
}

struct Closed {
    light: Vec<f64>,
    heavy: Vec<f64>,
    /// Server CPU seconds of each light and heavy pass.
    light_cpu: Vec<f64>,
    heavy_cpu: Vec<f64>,
    /// Ok responses per second of each pass pair (light, then heavy).
    pair_rates: Vec<f64>,
    exchanges: Vec<Exchange>,
    elapsed: f64,
}

/// Closed-loop passes (light list, then heavy list) for `seconds`: two
/// client threads, one connection each, split every list and keep one
/// request in flight each; a pass ends when both halves are answered.
fn closed_loop(
    addr: &str,
    mix: Mix,
    seed: u64,
    seconds: f64,
    first_pass: u64,
    tracer: &mut Tracer,
) -> Closed {
    let mut c = Closed {
        light: Vec::new(),
        heavy: Vec::new(),
        light_cpu: Vec::new(),
        heavy_cpu: Vec::new(),
        pair_rates: Vec::new(),
        exchanges: Vec::new(),
        elapsed: 0.0,
    };
    let (done_tx, done_rx) = mpsc::channel::<(Vec<Exchange>, f64)>();
    std::thread::scope(|s| {
        let work: Vec<mpsc::Sender<Vec<String>>> = (0..2)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Vec<String>>();
                let done = done_tx.clone();
                let mut conn = connect(addr);
                s.spawn(move || {
                    for lines in rx {
                        let cpu0 = cpu::thread_s();
                        let ex = exchange_all(&mut conn, &lines);
                        if done.send((ex, cpu::thread_s() - cpu0)).is_err() {
                            return;
                        }
                    }
                });
                tx
            })
            .collect();
        let mut next_id = 1_000_000 * (first_pass + 1);
        let start = Instant::now();
        let mut pass = first_pass;
        while c.light.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let (light, heavy) = pass_lists(mix, seed, pass, &mut next_id);
            pass += 1;
            let (mut pair_ok, mut pair_secs) = (0usize, 0.0);
            for (is_heavy, lines) in [(false, light), (true, heavy)] {
                let t0 = Instant::now();
                let (p0, m0) = (cpu::process_s(), cpu::thread_s());
                for (k, tx) in work.iter().enumerate() {
                    let half: Vec<String> = lines.iter().skip(k).step_by(2).cloned().collect();
                    tx.send(half).expect("client thread alive");
                }
                let mut ex = Vec::new();
                let mut client_cpu = 0.0;
                for _ in 0..work.len() {
                    let (half, cpu) = done_rx.recv().expect("client thread answers");
                    ex.extend(half);
                    client_cpu += cpu;
                }
                let secs = t0.elapsed().as_secs_f64();
                let server_cpu = cpu::process_s() - p0 - (cpu::thread_s() - m0) - client_cpu;
                pair_secs += secs;
                pair_ok += ex
                    .iter()
                    .filter(|e| audit::result_of(&e.response).is_ok())
                    .count();
                if is_heavy {
                    c.heavy.push(secs);
                    c.heavy_cpu.push(server_cpu);
                } else {
                    c.light.push(secs);
                    c.light_cpu.push(server_cpu);
                }
                ex.sort_by_key(|e| e.sent);
                for e in &ex {
                    if let Some(done) = e.done {
                        tracer.record("vpd-serve", kind_of(&e.request), e.sent, done);
                    }
                }
                c.exchanges.extend(ex);
            }
            c.pair_rates.push(pair_ok as f64 / pair_secs);
        }
        c.elapsed = start.elapsed().as_secs_f64();
        drop(work);
    });
    c
}

/// Writes all of `bytes` to a nonblocking socket.
fn write_nb(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(WRITE_RETRY),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Blocks until one of `streams` has bytes to read, or a short while
/// has passed (so the caller can notice the sender finishing).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_readable(streams: &[TcpStream]) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of
    // `fds.len()` `struct pollfd`s (same layout: int, short, short),
    // and every descriptor stays open for the call's duration because
    // `streams` borrows the sockets that own them.
    let _ = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, POLL_TIMEOUT_MS) };
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_readable(_streams: &[TcpStream]) {
    std::thread::sleep(Duration::from_micros(50));
}

/// The id a response line echoes.
fn id_of(line: &[u8]) -> Option<u64> {
    let rest = line.strip_prefix(b"{\"id\":")?;
    let end = rest.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

struct Open {
    exchanges: Vec<Exchange>,
    late_ms: Vec<f64>,
    /// Server CPU seconds over the whole open loop.
    server_cpu: f64,
}

/// The open loop: a sender thread writes each request at its due time
/// (alternating connections); a receiver thread polls both sockets.
fn open_loop(addr: &str, schedule: &[(f64, String)]) -> Open {
    let conns = [connect(addr), connect(addr)];
    for c in &conns {
        c.writer.set_nonblocking(true).expect("nonblocking socket");
    }
    let mut writers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.writer.try_clone().expect("clone"))
        .collect();
    let mut readers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.writer.try_clone().expect("clone"))
        .collect();
    let sending = AtomicBool::new(true);
    let start = Instant::now() + Duration::from_millis(5);
    let (p0, m0) = (cpu::process_s(), cpu::thread_s());
    let ((sent, sender_cpu), (received, receiver_cpu)) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let cpu0 = cpu::thread_s();
            let mut sent = Vec::with_capacity(schedule.len());
            for (i, (t, line)) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(*t);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let at = Instant::now();
                let mut bytes = line.clone().into_bytes();
                bytes.push(b'\n');
                write_nb(&mut writers[i % 2], &bytes).expect("send request");
                sent.push(at);
            }
            sending.store(false, Ordering::SeqCst);
            (sent, cpu::thread_s() - cpu0)
        });
        let receiver = s.spawn(|| {
            let cpu0 = cpu::thread_s();
            let mut got: HashMap<u64, (Instant, String)> = HashMap::with_capacity(schedule.len());
            let mut bufs = [Vec::new(), Vec::new()];
            let mut chunk = vec![0u8; 64 * 1024];
            let mut last_send_seen: Option<Instant> = None;
            while got.len() < schedule.len() {
                let mut progress = false;
                for (c, reader) in readers.iter_mut().enumerate() {
                    match reader.read(&mut chunk) {
                        Ok(0) => {}
                        Ok(n) => {
                            let now = Instant::now();
                            progress = true;
                            bufs[c].extend_from_slice(&chunk[..n]);
                            while let Some(pos) = bufs[c].iter().position(|&b| b == b'\n') {
                                let line: Vec<u8> = bufs[c].drain(..=pos).collect();
                                let line = &line[..line.len() - 1];
                                if let Some(id) = id_of(line) {
                                    let text = String::from_utf8_lossy(line).into_owned();
                                    got.insert(id, (now, text));
                                }
                            }
                        }
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => panic!("read responses: {e}"),
                    }
                }
                if !progress {
                    if !sending.load(Ordering::SeqCst) {
                        let since = *last_send_seen.get_or_insert_with(Instant::now);
                        if since.elapsed() > RESPONSE_TIMEOUT {
                            break;
                        }
                    }
                    wait_readable(&readers);
                }
            }
            (got, cpu::thread_s() - cpu0)
        });
        (
            sender.join().expect("sender panicked"),
            receiver.join().expect("receiver panicked"),
        )
    });
    let server_cpu = cpu::process_s() - p0 - (cpu::thread_s() - m0) - sender_cpu - receiver_cpu;
    let mut got = received;
    let mut exchanges = Vec::with_capacity(schedule.len());
    let mut late_ms = Vec::with_capacity(schedule.len());
    for (i, ((t, line), at)) in schedule.iter().zip(&sent).enumerate() {
        let due = start + Duration::from_secs_f64(*t);
        late_ms.push((*at - due).as_secs_f64() * 1e3);
        let (done, response) = match got.remove(&(i as u64 + 1)) {
            Some((d, r)) => (Some(d), r),
            None => (None, String::new()),
        };
        exchanges.push(Exchange {
            request: line.clone(),
            response,
            due,
            sent: *at,
            done,
        });
    }
    Open {
        exchanges,
        late_ms,
        server_cpu,
    }
}

/// Counts every non-ok or missing response as failed.
fn count_outcomes(exchanges: &[Exchange], report: &mut Report) {
    for e in exchanges {
        report.attempted += 1;
        if e.done.is_none() {
            report.fail(format!("timeout: {}", kind_of(&e.request)));
        } else if let Err(code) = audit::result_of(&e.response) {
            report.fail(format!("{} answered {code}", kind_of(&e.request)));
        }
    }
}

/// Served results kept for the audit, which runs after the timed
/// window: every distinct request on `serve-hot`, a seeded sample on
/// `serve-churn`. Only ok responses are kept (the others already count
/// as failed). Results are kept once per distinct text, so memory stays
/// the server's, not the harness's.
struct Held {
    mix: Mix,
    seed: u64,
    /// Request line of each body -> (served result text -> times served).
    results: HashMap<String, (String, HashMap<String, usize>)>,
}

impl Held {
    fn new(mix: Mix, seed: u64) -> Self {
        Self {
            mix,
            seed,
            results: HashMap::new(),
        }
    }

    fn keep(&mut self, exchanges: &[Exchange]) {
        for e in exchanges {
            let Ok(result) = audit::result_of(&e.response) else {
                continue;
            };
            if self.mix == Mix::Churn {
                let id = id_of(e.request.as_bytes()).unwrap_or(0);
                if Rng::for_item(self.seed ^ 0x0061_7564_6974, id).unit() >= CHURN_AUDIT_SHARE {
                    continue;
                }
            }
            let (_, seen) = self
                .results
                .entry(body_of(&e.request).to_owned())
                .or_insert_with(|| (e.request.clone(), HashMap::new()));
            *seen.entry(result.to_owned()).or_insert(0) += 1;
        }
    }

    /// Compares every kept result with the cold oracle's; each served
    /// response that differs counts as a failed operation.
    fn check(self, report: &mut Report) {
        let oracle = Oracle::default();
        let (mut checked, distinct) = (0usize, self.results.len());
        for (request, seen) in self.results.into_values() {
            let want = oracle.result(&request);
            for (got, times) in seen {
                checked += times;
                let Some(problem) = audit::mismatch(&got, &want) else {
                    continue;
                };
                for _ in 0..times {
                    report.fail(format!("audit {}: {problem}", kind_of(&request)));
                }
            }
        }
        report.note("audited_responses", checked);
        report.note("audited_distinct_requests", distinct);
    }
}

/// `VmHWM` of this process, MiB.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up times of one run: CPU and wall seconds of each set-up.
#[derive(Default)]
struct SetUps {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl SetUps {
    /// Records `setup_s` as the median CPU time of a set-up (and
    /// `setup_wall_s` as the median wall time).
    fn record(&self, report: &mut Report) {
        report.metric("setup_s", median(&self.cpu), "s");
        report.metric("setup_wall_s", median(&self.wall), "s");
        report.note("setups", self.cpu.len());
    }
}

/// One set-up: binds a server, and for `serve-hot` warms it.
fn set_up(
    mix: Mix,
    seed: u64,
    times: &mut SetUps,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Running {
    tracer.enter("bench", "setup");
    let (t0, c0) = (Instant::now(), cpu::process_s());
    let s = start();
    // Hot: bound and warm (every distinct request once). Churn:
    // bound and answering (one liveness round trip).
    let lines: Vec<String> = match mix {
        Mix::Hot => {
            let (light, heavy) = streams::hot_set(seed);
            light
                .iter()
                .chain(&heavy)
                .enumerate()
                .map(|(i, b)| streams::line(i as u64 + 1, b))
                .collect()
        }
        Mix::Churn => vec![streams::line(1, r#""kind":"ping""#)],
    };
    // One connection, one request at a time: every distinct key
    // compiles exactly once, whatever the timing.
    let ex = exchange_all(&mut connect(&s.addr), &lines);
    times.wall.push(t0.elapsed().as_secs_f64());
    times.cpu.push(cpu::process_s() - c0);
    tracer.exit();
    for e in &ex {
        report.attempted += 1;
        if audit::result_of(&e.response).is_err() {
            report.fail(format!(
                "set-up {} failed: {}",
                kind_of(&e.request),
                e.response
            ));
        }
    }
    s
}

/// Runs `serve-hot` or `serve-churn`.
pub fn run(mix: Mix, opts: &Opts, tracer: &mut Tracer, report: &mut Report) {
    let rate = if mix == Mix::Hot {
        HOT_RATE
    } else {
        CHURN_RATE
    };
    report.note("offered_rate_per_s", rate);
    report.note("connections", 2usize);
    report.note("server_workers", ServeConfig::default().workers);
    report.note("cache_capacity", ServeConfig::default().cache_capacity);
    let mut setups = SetUps::default();
    for _ in 1..SETUPS_AT_START {
        stop(set_up(mix, opts.seed, &mut setups, tracer, report));
    }
    let server = set_up(mix, opts.seed, &mut setups, tracer, report);
    if opts.trace {
        setups.record(report);
        traced(mix, opts, &server.addr, tracer, report);
        stop(server);
        return;
    }

    // Closed and open phases alternate in short slices, so a burst of
    // outside load lands on a few slices of each phase, and each
    // metric is a median over slices.
    let slices = (opts.seconds / SLICE_S).round().max(1.0) as u64;
    let slice_s = opts.seconds / slices as f64;
    let (mut capacity, mut light, mut heavy) = (Vec::new(), Vec::new(), Vec::new());
    let (mut light_cpu, mut heavy_cpu) = (Vec::new(), Vec::new());
    // Open-loop server CPU seconds and requests, summed over the run:
    // a slice holds too few of `serve-churn`'s unequal requests for a
    // per-slice figure to be steady.
    let (mut open_cpu, mut open_requests) = (0.0, 0usize);
    let (mut p50s, mut pooled, mut late_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut closed_requests = 0usize;
    let mut next_pass = 0;
    let mut held = Held::new(mix, opts.seed);
    for slice in 0..slices {
        let closed = closed_loop(
            &server.addr,
            mix,
            opts.seed,
            slice_s * CLOSED_SHARE,
            next_pass,
            tracer,
        );
        next_pass += closed.light.len() as u64;
        let open_s = slice_s * (1.0 - CLOSED_SHARE);
        let schedule = match mix {
            Mix::Hot => streams::hot_open_loop(opts.seed, slice, rate, open_s),
            Mix::Churn => streams::churn_open_loop(opts.seed, slice, rate, open_s),
        };
        let open = open_loop(&server.addr, &schedule);

        capacity.extend(closed.pair_rates);
        light.extend(closed.light);
        heavy.extend(closed.heavy);
        light_cpu.extend(closed.light_cpu);
        heavy_cpu.extend(closed.heavy_cpu);
        open_cpu += open.server_cpu;
        open_requests += open.exchanges.len();
        closed_requests += closed.exchanges.len();
        let lat = sorted(
            &open
                .exchanges
                .iter()
                .filter_map(Exchange::latency)
                .collect::<Vec<_>>(),
        );
        pooled.extend_from_slice(&lat);
        p50s.push(median(&lat));
        late_ms.extend(open.late_ms);
        for ex in [&closed.exchanges, &open.exchanges] {
            count_outcomes(ex, report);
            held.keep(ex);
        }
        if mix == Mix::Churn {
            for _ in 0..CHURN_SETUPS_PER_SLICE {
                stop(set_up(mix, opts.seed, &mut setups, tracer, report));
            }
        }
    }
    stop(server);
    setups.record(report);
    report.metric("light_cpu_ms", median(&light_cpu) * 1e3, "ms");
    report.metric("heavy_cpu_ms", median(&heavy_cpu) * 1e3, "ms");
    report.metric("op_cpu_us", open_cpu / open_requests as f64 * 1e6, "us");
    report.metric("capacity_per_s", median(&capacity), "1/s");
    report.metric("light_s", median(&light), "s");
    report.metric("heavy_s", median(&heavy), "s");
    report.metric("p50_ms", median(&p50s) * 1e3, "ms");
    let pooled = sorted(&pooled);
    let (p_used, p99) = tail(&pooled, 0.99);
    report.metric("p99_ms", p99 * 1e3, "ms");
    report.note("slices", slices as usize);
    report.note("p99_percentile_used", p_used);
    report.note("latency_samples", pooled.len());
    report.note("closed_loop_requests", closed_requests);
    report.note("closed_loop_passes", light.len());
    let late = sorted(&late_ms);
    let (late_p50, late_p99) = (median(&late), tail(&late, 0.99).1);
    report.metric("gen.late_p50_ms", late_p50, "ms");
    report.metric("gen.late_p99_ms", late_p99, "ms");
    if late_p50 > LATE_P50_LIMIT_MS || late_p99 > LATE_P99_LIMIT_MS {
        report.invalid.push(format!(
            "generator fell behind its schedule: lateness p50 {late_p50:.3} ms (limit \
             {LATE_P50_LIMIT_MS}), p99 {late_p99:.2} ms (limit {LATE_P99_LIMIT_MS})"
        ));
    }
    report.metric("peak_rss_mb", vm_hwm_mb(), "MiB");
    held.check(report);
}

/// The traced run: an untraced closed loop, then the same with
/// `vpd_obs` on and spans kept, then an in-process replay of the
/// untraced requests that times each public serve and report call.
fn traced(mix: Mix, opts: &Opts, addr: &str, tracer: &mut Tracer, report: &mut Report) {
    let half = opts.seconds * CLOSED_SHARE;
    let mut quiet = Tracer::new(false);
    let plain = closed_loop(addr, mix, opts.seed, half, 0, &mut quiet);
    vpd_obs::set_enabled(true);
    vpd_obs::reset();
    tracer.enter("bench", "traced-loop");
    let first_pass = plain.light.len() as u64 + 1;
    let traced = closed_loop(addr, mix, opts.seed, half, first_pass, tracer);
    tracer.exit();
    let (snap, _) = tracer.time("vpd-obs", "snapshot", vpd_obs::snapshot);
    vpd_obs::set_enabled(false);
    let mut held = Held::new(mix, opts.seed);
    for ex in [&plain.exchanges, &traced.exchanges] {
        count_outcomes(ex, report);
        held.keep(ex);
    }
    held.check(report);

    let per_req = |c: &Closed| c.elapsed / c.exchanges.len() as f64;
    let (u, t) = (per_req(&plain), per_req(&traced));
    report.metric("obs.overhead_frac", (t - u) / u, "ratio");

    let counters = serve_layer_counters(&snap, report);
    let ops = traced.exchanges.len() as f64;
    report.counters = counters
        .iter()
        .map(|(k, v)| (k.clone(), *v as f64 / ops))
        .collect();

    replay(mix, opts.seed, &plain.exchanges, tracer, report);
}

/// The cache and batching per-layer metrics from a `vpd_obs` snapshot;
/// returns all of the snapshot's counters.
fn serve_layer_counters(
    snap: &vpd_obs::MetricsSnapshot,
    report: &mut Report,
) -> BTreeMap<String, u64> {
    let counters = sum_counters(&snap.to_json("serve"));
    let get = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    let lookups = get("serve.cache.hits") + get("serve.cache.misses");
    report.metric(
        "serve.cache.hit_ratio",
        if lookups > 0.0 {
            get("serve.cache.hits") / lookups
        } else {
            0.0
        },
        "ratio",
    );
    report.metric(
        "serve.cache.evictions",
        get("serve.cache.evictions"),
        "count",
    );
    report.metric("serve.cache.steals", get("serve.cache.steals"), "count");
    let dispatched = get("serve.batch.dispatched");
    report.metric(
        "serve.batch.mean_columns",
        if dispatched > 0.0 {
            get("serve.batch.columns") / dispatched
        } else {
            0.0
        },
        "columns",
    );
    counters
}

/// Replays up to [`REPLAY_MAX`] of the closed-loop requests in-process
/// through a dispatcher with the server's cache capacity, timing each
/// layer's public call: `Request::parse_line`, `Dispatcher::dispatch`,
/// response serialization and parsing. Transport time is the served
/// latency minus the dispatch time of the same request.
fn replay(mix: Mix, seed: u64, exchanges: &[Exchange], tracer: &mut Tracer, report: &mut Report) {
    let dispatcher = Dispatcher::new(ServeConfig::default().cache_capacity);
    if mix == Mix::Hot {
        // Warm the replay cache the way the server's set-up warmed its own.
        let (light, heavy) = streams::hot_set(seed);
        for b in light.iter().chain(&heavy) {
            let req = Request::parse_line(&streams::line(0, b)).expect("hot request parses");
            let _ = dispatcher.dispatch(&req.work);
        }
    }
    tracer.enter("bench", "replay");
    let mut parse = Vec::new();
    let mut dispatch: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut serialize = Vec::new();
    let mut reparse = Vec::new();
    let mut bytes = Vec::new();
    let mut transport = Vec::new();
    // Churn sends only `analyze` and `scenario`; the hot set's other
    // kinds are replayed after its stream, cold, as churn would meet them.
    let extra: Vec<(String, Option<f64>)> = match mix {
        Mix::Hot => Vec::new(),
        Mix::Churn => {
            let (light, heavy) = streams::hot_set(seed);
            light
                .iter()
                .chain(&heavy)
                .filter(|b| {
                    !b.contains("\"kind\":\"analyze\"") && !b.contains("\"kind\":\"scenario\"")
                })
                .map(|b| (streams::line(0, b), None))
                .collect()
        }
    };
    let items = exchanges
        .iter()
        .take(REPLAY_MAX)
        .map(|e| (e.request.clone(), e.latency()))
        .chain(extra);
    for (request, latency) in items {
        let (req, dt) = tracer.time("vpd-serve", "parse_line", || Request::parse_line(&request));
        parse.push(dt.as_secs_f64());
        let Ok(req) = req else {
            report.attempted += 1;
            report.fail(format!(
                "replay: request does not parse: {}",
                kind_of(&request)
            ));
            continue;
        };
        let kind = req.work.kind();
        let (out, dt) = tracer.time("vpd-serve", kind, || dispatcher.dispatch(&req.work));
        dispatch
            .entry(kind.to_owned())
            .or_default()
            .push(dt.as_secs_f64());
        if let Some(lat) = latency {
            transport.push(lat - dt.as_secs_f64());
        }
        let Ok((json, cached)) = out else { continue };
        let response = Response::ok(req.id, kind, cached, json);
        let (line, dt) = tracer.time("vpd-report", "serialize", || response.to_json().to_string());
        serialize.push(dt.as_secs_f64());
        bytes.push(line.len() as f64);
        let (_, dt) = tracer.time("vpd-report", "parse", || Json::parse(&line));
        reparse.push(dt.as_secs_f64());
    }
    tracer.exit();
    report.metric("serve.parse_us", median(&parse) * 1e6, "us");
    for (kind, secs) in &dispatch {
        report.metric(
            &format!("serve.dispatch_us.{kind}"),
            median(secs) * 1e6,
            "us",
        );
    }
    report.metric("serve.transport_us", median(&transport) * 1e6, "us");
    report.metric("report.serialize_us", median(&serialize) * 1e6, "us");
    report.metric("report.parse_us", median(&reparse) * 1e6, "us");
    report.metric("report.response_bytes", median(&bytes), "bytes");
    report.note("replayed_requests", parse.len());
}

/// The serve layer's per-layer metrics for a workload that sends no
/// serve traffic (`cli-repro`): the `serve-hot` request set sent twice,
/// one request at a time, to a fresh server (the first pass warms its
/// cache; `vpd_obs` counts the second), then replayed in-process.
pub fn probe(seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let server = start();
    let (light, heavy) = streams::hot_set(seed);
    let lines: Vec<String> = light
        .iter()
        .chain(&heavy)
        .enumerate()
        .map(|(i, b)| streams::line(i as u64 + 1, b))
        .collect();
    let mut conn = connect(&server.addr);
    let warm = exchange_all(&mut conn, &lines);
    vpd_obs::set_enabled(true);
    vpd_obs::reset();
    tracer.enter("bench", "serve-probe");
    let ex = exchange_all(&mut conn, &lines);
    for e in &ex {
        if let Some(done) = e.done {
            tracer.record("vpd-serve", kind_of(&e.request), e.sent, done);
        }
    }
    tracer.exit();
    let (snap, _) = tracer.time("vpd-obs", "snapshot", vpd_obs::snapshot);
    vpd_obs::set_enabled(false);
    drop(conn);
    stop(server);
    let mut held = Held::new(Mix::Hot, seed);
    for ex in [&warm, &ex] {
        count_outcomes(ex, report);
        held.keep(ex);
    }
    held.check(report);
    serve_layer_counters(&snap, report);
    replay(Mix::Hot, seed, &ex, tracer, report);
}
