//! The `lehdc_serve` daemon as a child process, and the load generators
//! that drive it over loopback TCP.
//!
//! Every classify reply is checked against an offline prediction for the
//! model epoch stamped on it; a wrong class, an unknown epoch, a server
//! error or a transport failure counts as a failed request.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::{Duration, Instant};

use lehdc_serve::protocol::{
    decode_response, encode_request, read_frame, Request, Response, BINARY_MAGIC,
};

use crate::trace::Tracer;
use crate::util::{peak_rss_mb, thread_count, Json, SeqRng};

/// A running `lehdc_serve` child process.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port with its default
    /// configuration and waits until it answers `PING`.
    pub fn spawn(bin: &Path, model: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--model")
            .arg(model)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("lehdc_serve exited before listening".into());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("lehdc_serve listening on ") {
                        break addr.to_string();
                    }
                }
            }
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Conn::connect(&daemon.addr).and_then(|mut c| c.call(&Request::Ping)) {
                Ok(Response::Pong) => return Ok(daemon),
                Ok(other) => return Err(format!("daemon answered PING with {other:?}")),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("daemon never answered PING: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.pid().to_string())
    }

    /// Resets the daemon's peak resident set (`VmHWM`) to its current
    /// resident set, so the next reading is the peak since this call.
    pub fn reset_peak_rss(&self) -> Result<(), String> {
        std::fs::write(format!("/proc/{}/clear_refs", self.pid()), "5")
            .map_err(|e| format!("cannot reset the daemon's VmHWM: {e}"))
    }

    pub fn threads(&self) -> Option<usize> {
        thread_count(self.pid())
    }

    pub fn stats(&self) -> Result<Json, String> {
        match Conn::connect(&self.addr).and_then(|mut c| c.call(&Request::Stats)) {
            Ok(Response::Stats(text)) => Json::parse(&text),
            Ok(other) => Err(format!("STATS answered with {other:?}")),
            Err(e) => Err(format!("STATS failed: {e}")),
        }
    }

    /// CPU seconds (user + system, all threads) the daemon has used, from
    /// `/proc/<pid>/stat`.
    pub fn cpu_s(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let mut f = rest.split_whitespace().skip(11);
        let ticks: f64 = f.next()?.parse::<f64>().ok()? + f.next()?.parse::<f64>().ok()?;
        Some(ticks / CLOCK_TICKS_PER_S)
    }

    /// Asks the daemon to drain and exit, and waits for it.
    pub fn stop(mut self) -> Result<(), String> {
        let acked = match Conn::connect(&self.addr).and_then(|mut c| c.call(&Request::Shutdown)) {
            Ok(Response::ShuttingDown) => Ok(()),
            Ok(other) => Err(format!("SHUTDOWN answered with {other:?}")),
            Err(e) => Err(e),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return acked,
                Ok(Some(status)) => return Err(format!("lehdc_serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("lehdc_serve did not stop after SHUTDOWN".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The query set a load generator sends: raw feature rows, the seeded order
/// they are sent in, and the expected class of each row per model epoch.
pub struct Traffic<'a> {
    pub rows: &'a [Vec<f32>],
    pub order: &'a [usize],
    /// `expected[e % expected.len()][row]`: the offline prediction of the
    /// bundle the daemon serves at epoch `e` (swaps alternate the bundles).
    pub expected: &'a [Vec<u32>],
}

impl Traffic<'_> {
    fn row(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }

    fn check(&self, i: usize, reply: Result<(u32, u64), String>, failures: &mut Vec<String>) {
        let row = self.row(i);
        match reply {
            Ok((class, epoch)) => {
                let want = self.expected[epoch as usize % self.expected.len()][row];
                if class != want {
                    failures.push(format!("request {i} (row {row}, epoch {epoch}): got class {class}, expected {want}"));
                }
            }
            Err(e) => failures.push(format!("request {i} (row {row}): {e}")),
        }
    }
}

/// `USER_HZ`, the unit of the CPU times in `/proc/<pid>/stat` (100 on
/// every Linux architecture the benchmark runs on).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// How long a load or admin connection waits on the daemon before the
/// request counts as failed, so a daemon that stops answering fails the
/// run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn connect_raw(addr: &str) -> Result<TcpStream, String> {
    let setup = || -> std::io::Result<TcpStream> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.write_all(&BINARY_MAGIC)?;
        Ok(stream)
    };
    setup().map_err(|e| format!("connect failed: {e}"))
}

fn recv_response(
    reader: &mut BufReader<TcpStream>,
    payload: &mut Vec<u8>,
) -> Result<Response, String> {
    match read_frame(reader, payload) {
        Ok(true) => decode_response(payload),
        Ok(false) => Err("server closed the connection".into()),
        Err(e) => Err(e.to_string()),
    }
}

fn classified(reply: Result<Response, String>) -> Result<(u32, u64), String> {
    match reply? {
        Response::Classified { class, epoch } => Ok((class, epoch)),
        Response::Error(msg) => Err(format!("server error: {msg}")),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// One binary-protocol connection to the daemon with timed-out reads and
/// writes.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    frame: Vec<u8>,
    payload: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let writer = connect_raw(addr)?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader,
            frame: Vec::new(),
            payload: Vec::new(),
        })
    }

    pub fn send(&mut self, req: &Request) -> Result<(), String> {
        encode_request(req, &mut self.frame);
        self.writer
            .write_all(&self.frame)
            .map_err(|e| format!("send failed: {e}"))
    }

    pub fn recv(&mut self) -> Result<Response, String> {
        recv_response(&mut self.reader, &mut self.payload)
    }

    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.send(req)?;
        self.recv()
    }
}

#[derive(Debug, Default)]
pub struct OpenLoopResult {
    /// Per-request latency from its scheduled send time.
    pub latency_ms: Vec<f64>,
    /// How late the sender put each request on the wire.
    pub lag_ms: Vec<f64>,
    pub connect_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Open-loop load on one connection at a fixed absolute Poisson rate: one
/// sender thread puts each request on the wire at its scheduled time, one
/// receiver thread reads the in-order replies. With `reconnect_every`, the
/// sender closes and reopens its connection after that many requests.
/// `traced` records spans around the load generator's calls.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: &str,
    traffic: &Traffic<'_>,
    rate_per_s: f64,
    duration: Duration,
    reconnect_every: Option<usize>,
    seed: u64,
    traced: bool,
    tracer: &Tracer,
) -> OpenLoopResult {
    // The schedule is fixed before the phase starts: exponential gaps from
    // the workload seed.
    let mut rng = SeqRng::new(hdc::rng::derive_seed(seed, 0x09E7));
    let mut offsets = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u = rng.uniform();
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= duration.as_secs_f64() {
            break;
        }
        offsets.push(Duration::from_secs_f64(t));
    }
    let n = offsets.len();
    let per_conn = reconnect_every.unwrap_or(usize::MAX).max(1);

    let mut result = OpenLoopResult {
        attempted: n as u64,
        ..OpenLoopResult::default()
    };
    let (tx, rx) = mpsc::channel::<(BufReader<TcpStream>, std::ops::Range<usize>)>();
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut lat = Vec::with_capacity(n);
            let mut failures = Vec::new();
            let mut payload = Vec::new();
            let mut done = 0usize;
            for (mut reader, range) in rx {
                for i in range.clone() {
                    let span = tracer.span_if(traced, "loadgen.recv", 0);
                    let reply = classified(recv_response(&mut reader, &mut payload));
                    drop(span);
                    let ms = (Instant::now() - (start + offsets[i])).as_secs_f64() * 1e3;
                    lat.push(ms);
                    let broken = reply.is_err();
                    traffic.check(i, reply, &mut failures);
                    done += 1;
                    if broken {
                        // A broken or timed-out connection answers nothing
                        // more; fail the rest of its requests at once.
                        for j in i + 1..range.end {
                            failures.push(format!("request {j}: connection broken"));
                        }
                        done = range.end;
                        break;
                    }
                }
            }
            for i in done..n {
                failures.push(format!("request {i}: never answered"));
            }
            (lat, failures)
        });

        let mut frame = Vec::new();
        let mut writer: Option<TcpStream> = None;
        let mut lag = Vec::with_capacity(n);
        let mut connect_ms = Vec::new();
        let mut send_failures = Vec::new();
        'send: for (i, &offset) in offsets.iter().enumerate() {
            if i % per_conn == 0 {
                let span = tracer.span_if(traced, "loadgen.connect", 0);
                let t0 = Instant::now();
                let pair = connect_raw(addr)
                    .and_then(|w| Ok((w.try_clone().map_err(|e| e.to_string())?, w)));
                match pair {
                    Ok((r, w)) => {
                        connect_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        let end = (i + per_conn).min(n);
                        tx.send((BufReader::new(r), i..end))
                            .expect("receiver outlives the sender");
                        writer = Some(w);
                    }
                    Err(e) => {
                        send_failures.push(format!("connect before request {i}: {e}"));
                        break 'send;
                    }
                }
                drop(span);
            }
            let due = start + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lag.push((Instant::now() - due).as_secs_f64() * 1e3);
            let span = tracer.span_if(traced, "loadgen.send", 0);
            encode_request(
                &Request::Classify(traffic.rows[traffic.row(i)].clone()),
                &mut frame,
            );
            let sent = writer.as_mut().expect("connected above").write_all(&frame);
            drop(span);
            if let Err(e) = sent {
                send_failures.push(format!("send request {i}: {e}"));
                break;
            }
        }
        drop(tx);
        let (lat, failures) = receiver.join().expect("receiver thread panicked");
        result.latency_ms = lat;
        result.lag_ms = lag;
        result.connect_ms = connect_ms;
        result.failures = send_failures;
        result.failures.extend(failures);
    });
    result
}

impl OpenLoopResult {
    pub fn merge(&mut self, other: OpenLoopResult) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.connect_ms.extend(other.connect_ms);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

#[derive(Debug, Default)]
pub struct ClosedLoopResult {
    /// Wall time of each fixed-size window.
    pub window_s: Vec<f64>,
    pub connect_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl ClosedLoopResult {
    pub fn merge(&mut self, other: ClosedLoopResult) {
        self.window_s.extend(other.window_s);
        self.connect_ms.extend(other.connect_ms);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Closed-loop saturation: `conns` connections, opened before the first
/// window, each keep `depth` requests in flight. Time is measured over
/// `windows` windows of `window` requests each (split evenly over the
/// connections). `traced` records a span per connection and window.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: &str,
    traffic: &Traffic<'_>,
    conns: usize,
    depth: usize,
    window: usize,
    windows: usize,
    traced: bool,
    tracer: &Tracer,
) -> ClosedLoopResult {
    let quota = window / conns;
    let go = AtomicBool::new(true);
    let start_barrier = Barrier::new(conns + 1);
    let end_barrier = Barrier::new(conns + 1);
    let shared = Mutex::new(ClosedLoopResult::default());

    std::thread::scope(|s| {
        for c in 0..conns {
            let (go, start_barrier, end_barrier, shared) =
                (&go, &start_barrier, &end_barrier, &shared);
            s.spawn(move || {
                let mut failures = Vec::new();
                let mut connect_ms = Vec::new();
                let t0 = Instant::now();
                let mut conn = match Conn::connect(addr) {
                    Ok(c) => {
                        connect_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        Some(c)
                    }
                    Err(e) => {
                        failures.push(format!("connection {c}: {e}"));
                        None
                    }
                };
                let mut k = 0usize;
                let mut attempted = 0u64;
                loop {
                    start_barrier.wait();
                    if !go.load(Ordering::SeqCst) {
                        break;
                    }
                    let _span = tracer.span_if(traced, "loadgen.window_conn", 0);
                    attempted += quota as u64;
                    let mut in_flight = std::collections::VecDeque::new();
                    let mut sent = 0usize;
                    while let Some(w) = conn.as_mut() {
                        while sent < quota && in_flight.len() < depth {
                            let i = c + conns * k;
                            let req = Request::Classify(traffic.rows[traffic.row(i)].clone());
                            if let Err(e) = w.send(&req) {
                                failures.push(format!("request {i}: {e}"));
                                conn = None;
                                break;
                            }
                            in_flight.push_back(i);
                            k += 1;
                            sent += 1;
                        }
                        let Some(i) = in_flight.pop_front() else {
                            break;
                        };
                        let Some(r) = conn.as_mut() else { break };
                        let reply = classified(r.recv());
                        if reply.is_err() {
                            conn = None;
                        }
                        traffic.check(i, reply, &mut failures);
                    }
                    // A broken connection fails the rest of its quota.
                    for i in in_flight.drain(..) {
                        failures.push(format!("request {i}: never answered"));
                    }
                    for _ in sent..quota {
                        failures.push(format!("connection {c}: request not sent"));
                    }
                    end_barrier.wait();
                }
                let mut out = shared.lock().expect("result lock poisoned");
                out.failures.extend(failures);
                out.connect_ms.extend(connect_ms);
                out.attempted += attempted;
            });
        }

        let mut window_s = Vec::new();
        for _ in 0..windows {
            start_barrier.wait();
            let t0 = Instant::now();
            end_barrier.wait();
            window_s.push(t0.elapsed().as_secs_f64());
        }
        go.store(false, Ordering::SeqCst);
        start_barrier.wait();
        shared.lock().expect("result lock poisoned").window_s = window_s;
    });
    shared.into_inner().expect("result lock poisoned")
}

/// Round trips of requests sent one at a time on one connection.
#[derive(Debug, Default)]
pub struct SequentialResult {
    pub rtt_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Closed loop with one client and one request in flight: each request
/// crosses the daemon's whole request path (protocol, queue, batcher,
/// encode, classify, reply) with nothing queued ahead of it. Sends requests
/// `first..first + n` of the traffic's order.
pub fn one_at_a_time(
    addr: &str,
    traffic: &Traffic<'_>,
    first: usize,
    n: usize,
    traced: bool,
    tracer: &Tracer,
) -> SequentialResult {
    let mut result = SequentialResult {
        attempted: n as u64,
        ..SequentialResult::default()
    };
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            result
                .failures
                .push(format!("one-at-a-time connection: {e}"));
            return result;
        }
    };
    for i in first..first + n {
        let req = Request::Classify(traffic.rows[traffic.row(i)].clone());
        let span = tracer.span_if(traced, "loadgen.round_trip", 0);
        let t0 = Instant::now();
        let reply = classified(conn.call(&req));
        result.rtt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(span);
        let broken = reply.is_err();
        traffic.check(i, reply, &mut result.failures);
        if broken {
            for j in i + 1..first + n {
                result.failures.push(format!("request {j}: not sent"));
            }
            break;
        }
    }
    result
}

/// Issues `SWAP`s on one admin connection at a fixed cadence, alternating
/// between `paths` (the daemon starts on `paths[0]` at epoch 0, so the swap
/// to epoch `e` loads `paths[e % 2]`), until `stop` is set or `max_swaps`
/// are done. `epoch` is the daemon's current epoch and is advanced. Round
/// trips in milliseconds go to `rtts.0` (untraced) or `rtts.1` (traced:
/// every other swap in trace mode).
#[allow(clippy::too_many_arguments)]
pub fn swap_loop(
    addr: &str,
    paths: &[String; 2],
    cadence: Duration,
    stop: &AtomicBool,
    max_swaps: usize,
    epoch: &mut u64,
    rtts: &mut (Vec<f64>, Vec<f64>),
    failures: &mut Vec<String>,
    tracer: &Tracer,
) {
    let mut client = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            failures.push(format!("admin connect: {e}"));
            return;
        }
    };
    let mut next = Instant::now() + cadence;
    let mut done = 0;
    while !stop.load(Ordering::SeqCst) && done < max_swaps {
        let now = Instant::now();
        if next > now {
            std::thread::sleep((next - now).min(Duration::from_millis(20)));
            continue;
        }
        next += cadence;
        let want = *epoch + 1;
        let traced = tracer.is_on() && want.is_multiple_of(2);
        let span = tracer.span_if(traced, "serve.swap", 0);
        let t0 = Instant::now();
        let reply = match client.call(&Request::Swap(paths[want as usize % 2].clone())) {
            Ok(Response::Swapped { epoch }) => Ok(epoch),
            Ok(other) => Err(format!("unexpected reply {other:?}")),
            Err(e) => Err(e),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(span);
        done += 1;
        match reply {
            Ok(got) if got == want => {
                if traced {
                    rtts.1.push(ms);
                } else {
                    rtts.0.push(ms);
                }
                *epoch = got;
            }
            Ok(got) => {
                failures.push(format!("swap {want}: daemon reported epoch {got}"));
                break;
            }
            Err(e) => {
                failures.push(format!("swap {want}: {e}"));
                break;
            }
        }
    }
}

/// Daemon counters that the per-layer view reads, as deltas between two
/// `STATS` snapshots (exact sums and counts, never bucket quantiles).
#[derive(Debug, Default, Clone)]
pub struct StatsDelta {
    pub requests: f64,
    pub batches: f64,
    pub encode_ns: f64,
    pub classify_ns: f64,
    pub batch_ns: f64,
    pub queue_wait_ns: f64,
    pub queue_waits: f64,
    pub metric_names: usize,
}

fn counter(j: &Json, name: &str) -> f64 {
    j.get(name).and_then(Json::num).unwrap_or(0.0)
}

fn hist(j: &Json, name: &str, field: &str) -> f64 {
    j.get(name)
        .and_then(|h| h.get(field))
        .and_then(Json::num)
        .unwrap_or(0.0)
}

pub fn stats_delta(before: &Json, after: &Json) -> StatsDelta {
    let d = |f: &dyn Fn(&Json) -> f64| f(after) - f(before);
    StatsDelta {
        requests: d(&|j| counter(j, "serve/requests_total")),
        batches: d(&|j| counter(j, "serve/batches_total")),
        encode_ns: d(&|j| hist(j, "serve/encode_ns", "sum_ns")),
        classify_ns: d(&|j| hist(j, "serve/classify_ns", "sum_ns")),
        batch_ns: d(&|j| hist(j, "serve/batch_ns", "sum_ns")),
        queue_wait_ns: d(&|j| hist(j, "serve/queue_wait_ns", "sum_ns")),
        queue_waits: d(&|j| hist(j, "serve/queue_wait_ns", "count")),
        metric_names: match after {
            Json::Obj(fields) => fields.len(),
            _ => 0,
        },
    }
}
