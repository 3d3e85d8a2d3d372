//! `server`: an open-loop loopback TCP service built from the facade.
//!
//! The server reads `W <id> <k>` lines from one persistent connection and
//! spawns a task per request. The task awaits a 1 ms `simulate_latency`
//! backend call, computes `fib(k)` with `fork2`, and queues `R <id> <v>`
//! to the connection's writer task over `channel::mpsc`.
//!
//! The client runs on two plain `std::thread`s, never on the runtime: a
//! sender that writes each request at its time on a seeded Poisson
//! schedule, whether or not earlier replies have come back, and a
//! receiver that checks every reply. A request is timed from when it was
//! due, so a stall also charges the requests queued behind it.

use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws::channel::{mpsc, MpscReceiver, MpscSender};
use lhws::{fork2, simulate_latency, spawn, JoinHandle, LineReader, Reactor, Runtime, TcpStream};

use crate::layers::{self, ratio};
use crate::report::{self, Outcome};
use crate::stats::{self, Windows};
use crate::{check_shutdown, fib, fib_iter, runtime, WORKERS};

/// Offered load in requests per second, calibrated on a 2-core host to
/// keep the server well short of saturation.
pub const RATE: f64 = 4000.0;

/// The backend call every request awaits.
const BACKEND: Duration = Duration::from_millis(1);

/// `fib(k)` per request: `(k, weight)` out of 10, centred on 18.
const K_MIX: [(u32, u64); 5] = [(16, 1), (17, 2), (18, 4), (19, 2), (20, 1)];

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// Requests per latency window (a quarter second at [`RATE`]): the
/// fewest that leave 10 beyond `p99`. Client latency is reported as the
/// lower quartile over windows: on a shared host, stretches in which the
/// hypervisor takes about 1% of the CPU (steal time) move a whole
/// stretch's `p99`, and the quieter windows still show what the program
/// does.
const LATENCY_WINDOW: usize = 1000;

/// How long the receiver waits for a reply before it gives up.
const READ_BACKSTOP: Duration = Duration::from_secs(20);

/// A traced request's span stamps may differ from its client-observed
/// latency by at most this much at p99, or the traced run fails.
const RESIDUAL_TOLERANCE_US: f64 = 20.0;

/// One scheduled request: due `at_ns` after the start, computing `fib(k)`.
#[derive(Debug, Clone, Copy)]
struct Req {
    at_ns: u64,
    k: u32,
}

/// SplitMix64: the benchmark's own input generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals at `rate` over `seconds`, with `k` drawn from the mix.
fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Req> {
    let mut rng = SplitMix64(seed);
    let total: u64 = K_MIX.iter().map(|&(_, w)| w).sum();
    let mut reqs = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return reqs;
        }
        let mut pick = rng.next() % total;
        let k = K_MIX
            .iter()
            .find(|&&(_, w)| {
                let hit = pick < w;
                pick = pick.saturating_sub(w);
                hit
            })
            .map(|&(k, _)| k)
            .expect("pick is below the total weight");
        reqs.push(Req {
            at_ns: (t * 1e9) as u64,
            k,
        });
    }
}

// Server-side stamp columns.
const READ: usize = 0;
const SPAWN: usize = 1;
const SPAWNED: usize = 2;
const POLL: usize = 3;
const RESUMED: usize = 4;
const DONE: usize = 5;
const DEQUEUED: usize = 6;
const WRITTEN: usize = 7;
const COLS: usize = 8;

/// Server-side stamps per request id, in ns since `epoch`. Every request
/// records `READ` and `DONE`; a traced one records every column.
struct Stamps {
    epoch: Instant,
    rows: Vec<[AtomicU64; COLS]>,
}

impl Stamps {
    fn new(epoch: Instant, n: usize) -> Stamps {
        Stamps {
            epoch,
            rows: (0..n)
                .map(|_| [(); COLS].map(|_| AtomicU64::new(0)))
                .collect(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn set(&self, id: u64, col: usize, ns: u64) {
        self.rows[id as usize][col].store(ns, Ordering::Relaxed);
    }

    fn get(&self, id: usize, col: usize) -> u64 {
        self.rows[id][col].load(Ordering::Relaxed)
    }
}

/// What every server task shares.
#[derive(Clone)]
struct Ctx {
    stamps: Arc<Stamps>,
    trace: bool,
    /// A reply the server drops; only the self-tests set it.
    drop_reply: Option<u64>,
}

impl Ctx {
    /// Tracing alternates requests, so a traced run also measures the
    /// untraced latency its overhead is compared against.
    fn traced(&self, id: u64) -> bool {
        self.trace && id.is_multiple_of(2)
    }
}

struct Reply {
    id: u64,
    value: u64,
}

fn bad_request(line: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad request {line:?}"))
}

/// `fib(k)` with the top of the recursion forked, so a request's work
/// is stealable.
async fn par_fib(k: u32) -> u64 {
    if k < 2 {
        return u64::from(k);
    }
    let (a, b) = fork2(async move { fib(k - 1) }, async move { fib(k - 2) }).await;
    a + b
}

/// Serves one connection until the peer closes its sending half.
/// Returns the number of requests read.
async fn serve_conn(stream: TcpStream, cx: Ctx) -> io::Result<u64> {
    let (tx, rx) = mpsc::<Reply>();
    let writer = spawn(write_replies(stream.try_clone()?, rx, cx.clone()));
    let mut reader = LineReader::new(stream);
    let mut requests = 0u64;
    while let Some(line) = reader.read_line().await? {
        let read = cx.stamps.now();
        let mut parts = line.strip_prefix("W ").unwrap_or_default().split(' ');
        let (Some(Ok(id)), Some(Ok(k)), None) = (
            parts.next().map(str::parse::<u64>),
            parts.next().map(str::parse::<u32>),
            parts.next(),
        ) else {
            return Err(bad_request(&line));
        };
        if id as usize >= cx.stamps.rows.len() {
            return Err(bad_request(&line));
        }
        cx.stamps.set(id, READ, read);
        let spawn_at = cx.stamps.now();
        // Detached: the writer's channel closing is the join.
        drop(spawn(handle(id, k, tx.clone(), cx.clone())));
        if cx.traced(id) {
            cx.stamps.set(id, SPAWN, spawn_at);
            cx.stamps.set(id, SPAWNED, cx.stamps.now());
        }
        requests += 1;
    }
    drop(tx);
    writer.await?;
    Ok(requests)
}

async fn handle(id: u64, k: u32, tx: MpscSender<Reply>, cx: Ctx) {
    let traced = cx.traced(id);
    if traced {
        cx.stamps.set(id, POLL, cx.stamps.now());
    }
    simulate_latency(BACKEND).await;
    if traced {
        cx.stamps.set(id, RESUMED, cx.stamps.now());
    }
    let value = par_fib(k).await;
    cx.stamps.set(id, DONE, cx.stamps.now());
    if cx.drop_reply != Some(id) {
        // The writer outlives every sender; a failed send means it died
        // on a write error, which the connection task reports.
        let _ = tx.send(Reply { id, value });
    }
}

/// Writes queued replies, batching whatever is queued into one write.
async fn write_replies(
    mut stream: TcpStream,
    mut rx: MpscReceiver<Reply>,
    cx: Ctx,
) -> io::Result<()> {
    let mut buf = String::new();
    let mut batch = Vec::new();
    while let Some(first) = rx.recv().await {
        let mut next = Some(first);
        while let Some(r) = next {
            buf.push_str(&format!("R {} {}\n", r.id, r.value));
            batch.push(r.id);
            next = rx.try_recv();
        }
        let dequeued = cx.stamps.now();
        stream.write_all(buf.as_bytes()).await?;
        let written = cx.stamps.now();
        for &id in batch.iter().filter(|&&id| cx.traced(id)) {
            cx.stamps.set(id, DEQUEUED, dequeued);
            cx.stamps.set(id, WRITTEN, written);
        }
        buf.clear();
        batch.clear();
    }
    Ok(())
}

/// A running server with its client's connection.
struct Server {
    rt: Runtime,
    client: std::net::TcpStream,
    conn: JoinHandle<io::Result<u64>>,
}

impl Server {
    /// Builds the runtime and reactor, connects the client, and spawns
    /// the connection task.
    fn start(cx: Ctx) -> io::Result<Server> {
        let rt = runtime().map_err(io::Error::other)?;
        let reactor = Reactor::builder(&rt).build()?;
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
        let client = std::net::TcpStream::connect(listener.local_addr()?)?;
        let (accepted, _) = listener.accept()?;
        client.set_nodelay(true)?;
        accepted.set_nodelay(true)?;
        let conn = rt.spawn(serve_conn(TcpStream::from_std(accepted, &reactor)?, cx));
        Ok(Server { rt, client, conn })
    }

    /// Joins the connection task (after the client closed its half) and
    /// shuts the runtime down, checking both.
    fn finish(self, o: &mut Outcome, sent: usize, what: &str) {
        match self.rt.block_on(self.conn) {
            Ok(n) => o.op(n == sent as u64, || {
                format!("{what}: server read {n} of {sent} requests")
            }),
            Err(e) => o.op(false, || format!("{what}: connection task: {e}")),
        }
        check_shutdown(o, self.rt.shutdown(), what);
    }
}

/// Writes every request when it is due; returns the send stamps.
fn send_all(
    mut stream: std::net::TcpStream,
    reqs: &[Req],
    start: Instant,
    epoch: Instant,
) -> io::Result<Vec<u64>> {
    let mut sent = Vec::with_capacity(reqs.len());
    let mut line = Vec::with_capacity(32);
    for (id, r) in reqs.iter().enumerate() {
        let due = start + Duration::from_nanos(r.at_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        line.clear();
        writeln!(line, "W {id} {}", r.k)?;
        sent.push(epoch.elapsed().as_nanos() as u64);
        stream.write_all(&line)?;
    }
    stream.shutdown(Shutdown::Write)?;
    Ok(sent)
}

/// Reads replies until the server closes; `at[id]` is when the reply to
/// `id` arrived (0 = never), and `bad` names every wrong reply.
fn receive_all(
    mut stream: std::net::TcpStream,
    want: &[u64],
    epoch: Instant,
) -> (Vec<u64>, Vec<String>) {
    let mut at = vec![0u64; want.len()];
    let mut bad = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut pending = Vec::new();
    if let Err(e) = stream.set_read_timeout(Some(READ_BACKSTOP)) {
        bad.push(format!("client: set_read_timeout: {e}"));
    }
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                bad.push(format!("client: read: {e}"));
                break;
            }
        };
        let now = (epoch.elapsed().as_nanos() as u64).max(1);
        pending.extend_from_slice(&buf[..n]);
        let mut used = 0;
        while let Some(pos) = pending[used..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&pending[used..used + pos]).into_owned();
            used += pos + 1;
            let mut parts = line.strip_prefix("R ").unwrap_or_default().split(' ');
            let parsed = (
                parts.next().and_then(|s| s.parse::<usize>().ok()),
                parts.next().and_then(|s| s.parse::<u64>().ok()),
            );
            match parsed {
                (Some(id), Some(v)) if id < want.len() && at[id] == 0 && v == want[id] => {
                    at[id] = now
                }
                (Some(id), Some(v)) if id < want.len() && at[id] == 0 => {
                    at[id] = now;
                    bad.push(format!("reply {id}: value {v}, want {}", want[id]));
                }
                _ => bad.push(format!("unexpected reply {line:?}")),
            }
        }
        pending.drain(..used);
    }
    if !pending.is_empty() {
        bad.push(format!(
            "truncated reply {:?}",
            String::from_utf8_lossy(&pending)
        ));
    }
    (at, bad)
}

/// Runs the open-loop load for `seconds` at [`RATE`] from `seed`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    run_with(seed, seconds, RATE, trace, None)
}

fn run_with(
    seed: u64,
    seconds: f64,
    rate: f64,
    trace: bool,
    drop_reply: Option<u64>,
) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let reqs = schedule(seed, rate, seconds);
    let want: Vec<u64> = reqs.iter().map(|r| fib_iter(r.k)).collect();
    o.notes.push(format!(
        "load: open loop, Poisson at {rate} req/s over {seconds} s = {} requests, \
         1 connection, backend {} ms, k mix {K_MIX:?}, workers={WORKERS}",
        reqs.len(),
        BACKEND.as_secs_f64() * 1e3
    ));
    let epoch = Instant::now();
    let cx = Ctx {
        stamps: Arc::new(Stamps::new(epoch, reqs.len())),
        trace,
        drop_reply,
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            // An idle set-up: the client closes without a request.
            let _ = old.client.shutdown(Shutdown::Write);
            old.finish(&mut o, 0, "set-up server");
        }
        let t = Instant::now();
        server = Some(Server::start(cx.clone()).map_err(|e| format!("server set-up: {e}"))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");

    let before = server.rt.metrics();
    let observer = server.rt.observe();
    let shards_before = observer.io_shards().unwrap_or_default();
    let reader = server
        .client
        .try_clone()
        .map_err(|e| format!("client: {e}"))?;
    let writer = server
        .client
        .try_clone()
        .map_err(|e| format!("client: {e}"))?;
    let start = Instant::now();
    let start_ns = start.duration_since(epoch).as_nanos() as u64;
    let (sent, (at, bad)) = std::thread::scope(|s| {
        let rx = s.spawn(|| receive_all(reader, &want, epoch));
        let tx = s.spawn(|| send_all(writer, &reqs, start, epoch));
        (
            tx.join().expect("sender thread panicked"),
            rx.join().expect("receiver thread panicked"),
        )
    });
    let sent = sent.map_err(|e| format!("client: send: {e}"))?;
    let measured = server.rt.metrics().delta(&before);
    let shards_after = observer.io_shards().unwrap_or_default();

    for (id, &t) in at.iter().enumerate() {
        o.op(t != 0, || format!("request {id}: no reply"));
    }
    o.attempted += bad.len() as u64;
    o.failures.extend(bad);
    o.op(measured.io_timeouts == 0, || {
        format!("reactor: {} I/O waits timed out", measured.io_timeouts)
    });

    let answered: Vec<usize> = (0..reqs.len()).filter(|&id| at[id] != 0).collect();
    let due = |id: usize| start_ns + reqs[id].at_ns;
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |a: u64, b: u64| (b as f64 - a as f64) / 1e3;
    let latency_ms = |ids: &mut dyn Iterator<Item = &usize>| {
        stats::sorted(
            &ids.map(|&id| ms(at[id].saturating_sub(due(id))))
                .collect::<Vec<_>>(),
        )
    };
    let gen_lateness = stats::sorted(
        &(0..sent.len())
            .map(|id| ms(sent[id].saturating_sub(due(id))))
            .collect::<Vec<_>>(),
    );
    o.notes.push(format!(
        "generator lateness: p50 {:.4} ms, p99 {:.4} ms (n={})",
        stats::percentile(&gen_lateness, 500),
        stats::percentile(&gen_lateness, 990),
        gen_lateness.len()
    ));

    if trace {
        let traced: Vec<usize> = answered
            .iter()
            .copied()
            .filter(|&id| cx.traced(id as u64))
            .collect();
        let st = &cx.stamps;
        let over_traced = |f: &dyn Fn(usize) -> f64| {
            stats::sorted(&traced.iter().map(|&id| f(id)).collect::<Vec<_>>())
        };
        let span = |a: usize, b: usize| over_traced(&|id| us(st.get(id, a), st.get(id, b)));
        let ingress = over_traced(&|id| us(sent[id], st.get(id, READ)));
        let egress = over_traced(&|id| us(st.get(id, WRITTEN), at[id]));
        let backend_us = BACKEND.as_secs_f64() * 1e6;
        let lateness = over_traced(&|id| us(st.get(id, POLL), st.get(id, RESUMED)) - backend_us);
        let dispatch = span(SPAWN, POLL);
        let queue = span(DONE, DEQUEUED);
        let write = span(DEQUEUED, WRITTEN);
        // The spans tile a request from its due time to its reply; what
        // they leave out is the parse between `READ` and `SPAWN`.
        let residual = over_traced(&|id| {
            let parts = us(due(id), sent[id])
                + us(sent[id], st.get(id, READ))
                + us(st.get(id, SPAWN), st.get(id, POLL))
                + us(st.get(id, POLL), st.get(id, RESUMED))
                + us(st.get(id, RESUMED), st.get(id, DONE))
                + us(st.get(id, DONE), st.get(id, DEQUEUED))
                + us(st.get(id, DEQUEUED), st.get(id, WRITTEN))
                + us(st.get(id, WRITTEN), at[id]);
            us(due(id), at[id]) - parts
        });
        let worst = stats::percentile(&residual, 990)
            .abs()
            .max(stats::percentile(&residual, 10).abs());
        o.op(worst <= RESIDUAL_TOLERANCE_US, || {
            format!("layer sum: residual {worst:.3} us at the 1st/99th percentile exceeds {RESIDUAL_TOLERANCE_US} us")
        });
        o.pct("bench.unattributed_us_p50", &residual, 500);
        o.pct("bench.unattributed_us_p99", &residual, 990);
        o.pct("reactor.ingress_us_p50", &ingress, 500);
        o.pct("reactor.ingress_us_p99", &ingress, 990);
        o.pct("task.dispatch_us_p50", &dispatch, 500);
        o.pct("task.dispatch_us_p99", &dispatch, 990);
        o.pct("task.reply_queue_us_p50", &queue, 500);
        o.pct("timer.lateness_us_p50", &lateness, 500);
        o.pct("timer.lateness_us_p99", &lateness, 990);
        o.pct("compute.leaf_us_p50", &span(RESUMED, DONE), 500);
        o.pct("tcp.write_us_p50", &write, 500);
        o.pct("tcp.write_us_p99", &write, 990);
        o.pct("tcp.egress_us_p50", &egress, 500);
        o.set(
            "task.spawn_call_ns",
            stats::percentile(&span(SPAWN, SPAWNED), 500) * 1e3,
        );
        o.pct("bench.gen_lateness_ms_p99", &gen_lateness, 990);
        let plain = latency_ms(&mut answered.iter().filter(|&&id| !cx.traced(id as u64)));
        let traced_lat = latency_ms(&mut traced.iter());
        o.set(
            "obs.trace_overhead",
            stats::percentile(&traced_lat, 500) / stats::percentile(&plain, 500),
        );
        layers::counters(&mut o, &measured, 1.0, reqs.len() as f64);
        let mut wakeups = 0;
        for (i, (a, b)) in shards_after.iter().zip(&shards_before).enumerate() {
            let (events, woke) = (a.events - b.events, a.wakeups - b.wakeups);
            o.notes.push(format!(
                "reactor shard {i}: {woke} wakeups, {events} events"
            ));
            wakeups += woke;
        }
        o.set("reactor.wakeups", wakeups as f64);
        o.set(
            "reactor.requests_per_wakeup",
            ratio(reqs.len() as f64, wakeups as f64),
        );
        layers::obs_costs(&mut o, &server.rt);
    } else {
        let mut windows = Windows::new(&[500, 990], LATENCY_WINDOW, 250);
        windows.extend(
            answered
                .iter()
                .map(|&id| ms(at[id].saturating_sub(due(id)))),
        );
        let makespan = stats::sorted(
            &answered
                .iter()
                .map(|&id| us(cx.stamps.get(id, READ), cx.stamps.get(id, DONE)) / 1e3)
                .collect::<Vec<_>>(),
        );
        o.set("setup_s", stats::median(&setups));
        o.windowed("latency_ms_p50", &mut windows, 500);
        o.windowed("latency_ms_p99", &mut windows, 990);
        o.note_tail("latency", &latency_ms(&mut answered.iter()), "ms");
        o.pct("makespan_ms_p50", &makespan, 500);
        o.pct("makespan_ms_p90", &makespan, 900);
        o.note_tail("server makespan", &makespan, "ms");
        let last = answered.iter().map(|&id| at[id]).max().unwrap_or(start_ns);
        o.set(
            "goodput_rps",
            ratio(
                answered.len() as f64,
                (last.saturating_sub(start_ns)) as f64 / 1e9,
            ),
        );
    }
    server.finish(&mut o, reqs.len(), "final server");
    if let Some(mb) = report::peak_rss_mb() {
        o.set("peak_rss_mb", mb);
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_poisson() {
        let a = schedule(7, 1000.0, 2.0);
        assert_eq!(a.len(), schedule(7, 1000.0, 2.0).len());
        assert_ne!(
            a.iter().map(|r| r.at_ns).sum::<u64>(),
            schedule(8, 1000.0, 2.0)
                .iter()
                .map(|r| r.at_ns)
                .sum::<u64>()
        );
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.iter().all(|r| (16..=20).contains(&r.k)));
    }

    #[test]
    fn tiny_server_passes_its_checks() {
        for trace in [false, true] {
            let o = run_with(3, 0.5, 4000.0, trace, None).expect("runs");
            assert!(o.failures.is_empty(), "{:?}", o.failures);
            assert!(o.attempted > 1000);
        }
    }

    #[test]
    fn dropped_reply_is_counted() {
        let o = run_with(3, 0.5, 4000.0, false, Some(5)).expect("runs");
        assert_eq!(o.failures, vec!["request 5: no reply".to_string()]);
    }
}
