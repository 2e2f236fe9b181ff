//! `tcp-oltp` — client frame in, commit ack out.
//!
//! An open-loop generator drives an in-process [`Server`] (2 workers) over
//! loopback TCP on 2 connections: 90 % autocommit `Deposit`, 10 %
//! `ViewRead`/`ViewAvg`, against a bank of 4,096 accounts / 8 branches with
//! the pipelined commit path and a seeded 50 µs log sync. The headline
//! rate is 4,000 requests/s; latency counts from the *scheduled* send time.
//! The traced run also steps through 2,000/s and 8,000/s for the
//! latency-versus-rate curve.
//!
//! The generator is the benchmark's own: `txview_server::load::run_load`
//! keeps latencies in power-of-two buckets, which hides any change smaller
//! than a factor of two.

use super::{add_acked, ledger, prepare, report_latency, wrap_up, Prepared};
use super::{Ctx, Outcome, QuietReads, Samples};
use crate::host::SYNC_LATENCY_US;
use crate::pace::{wait_until, Pacer};
use crate::stats::percentile;
use crate::trace::{Root, Tracer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use txview_common::rng::Rng;
use txview_common::{Error, Result, Value};
use txview_server::wire::{self, Request, Response};
use txview_server::{Server, ServerConfig};
use txview_workload::bank::{Bank, BankConfig, VIEW};

const CONNECTIONS: usize = 2;
const HEADLINE_RATE: f64 = 4000.0;
const STEP_RATES: [f64; 2] = [2000.0, 8000.0];
/// Latency limit on the p99 of a rate step.
const SLO: Duration = Duration::from_millis(2);

pub fn config() -> BankConfig {
    BankConfig {
        accounts: 4096,
        branches: 8,
        pipeline: true,
        sync_latency_us: SYNC_LATENCY_US,
        ..Default::default()
    }
}

/// One connection speaking the wire protocol through the server crate's
/// public encode/decode functions, with a span around each stage.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let timeout = Some(Duration::from_secs(10));
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn call(&mut self, req: &Request, tracer: &mut Tracer, root: Root) -> Result<Response> {
        let frame = tracer.child(root, "encode", || wire::encode_frame(&req.encode()));
        let payload = tracer.child(root, "send_recv", || -> Result<Vec<u8>> {
            self.stream.write_all(&frame)?;
            let mut chunk = [0u8; 4096];
            loop {
                if let Some((payload, used)) = wire::decode_frame(&self.buf)? {
                    self.buf.drain(..used);
                    return Ok(payload);
                }
                let n = self.stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(Error::Io(std::io::ErrorKind::UnexpectedEof.into()));
                }
                self.buf.extend_from_slice(&chunk[..n]);
            }
        })?;
        tracer.child(root, "decode", || Response::decode(&payload))
    }
}

struct Rig {
    bank: Bank,
    server: Server,
    conns: Vec<Conn>,
}

impl super::Rig for Rig {
    fn bank(&self) -> &Bank {
        &self.bank
    }

    fn discard(self) {
        drop(self.conns);
        // A set-up that is thrown away has served nothing; its drain cannot
        // lose an acknowledgement.
        let _ = self.server.shutdown();
    }
}

fn setup() -> Result<Rig> {
    let bank = Bank::setup(config())?;
    let server = Server::start(
        bank.db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    )?;
    let mut conns = Vec::new();
    let mut idle = Tracer::new(Instant::now(), 0, false);
    for _ in 0..CONNECTIONS {
        let mut c = Conn::connect(server.local_addr())?;
        let root = idle.root(false, "request");
        c.call(&Request::Ping, &mut idle, root)?;
        conns.push(c);
    }
    Ok(Rig {
        bank,
        server,
        conns,
    })
}

/// One stretch of the schedule at one rate.
#[derive(Clone, Copy)]
struct Step {
    rate: f64,
    length: Duration,
    /// Keep samples (warm-up does not) …
    recorded: bool,
    /// … and trace every second slice (the headline step of a traced run).
    sliced: bool,
}

#[derive(Default)]
struct StepResult {
    commit: Samples,
    read: Samples,
    late_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    elapsed: Duration,
}

struct ConnResult {
    steps: Vec<StepResult>,
    acked: Vec<i64>,
    tracer: Tracer,
}

fn pick(rng: &mut Rng, cfg: &BankConfig) -> Request {
    if rng.below(10) == 0 {
        let group = vec![Value::Int(rng.below(cfg.branches as u64) as i64)];
        if rng.below(2) == 0 {
            Request::ViewRead {
                view: VIEW.into(),
                group,
            }
        } else {
            Request::ViewAvg {
                view: VIEW.into(),
                group,
                agg_idx: 0,
            }
        }
    } else {
        Request::Deposit {
            account: rng.below(cfg.accounts as u64) as i64,
            delta: rng.range_inclusive(1, 9),
        }
    }
}

/// One connection's generator: walks the steps, all connections entering
/// each step together so a backlog never leaks into the next step.
fn generate(
    ctx: &Ctx,
    index: usize,
    mut conn: Conn,
    steps: &[Step],
    barrier: &Barrier,
    mut tracer: Tracer,
) -> ConnResult {
    let cfg = config();
    let mut rng = Rng::new(
        ctx.seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(index as u64),
    );
    let mut acked = vec![0i64; cfg.branches as usize];
    let mut results = Vec::new();
    for step in steps {
        barrier.wait();
        let rate = step.rate / CONNECTIONS as f64;
        let ops = (rate * step.length.as_secs_f64()) as usize;
        let started = Instant::now();
        // Phase-shift the connections so arrivals interleave, not pulse.
        let phase = Duration::from_secs_f64(index as f64 / step.rate);
        let mut pacer = Pacer::new(started + phase, rate);
        let mut r = StepResult::default();
        if step.recorded {
            r.commit = Samples::with_capacity(ops);
            r.late_ns = Vec::with_capacity(ops);
        }
        for _ in 0..ops {
            let due = pacer.next_due();
            let late = wait_until(due);
            let req = pick(&mut rng, &cfg);
            let at = due.saturating_duration_since(started);
            let root = tracer.root(step.sliced && ctx.traced_at(at), "request");
            let resp = conn.call(&req, &mut tracer, root);
            tracer.close(root);
            let latency = due.elapsed();
            let ok = match (&req, &resp) {
                (Request::Deposit { account, delta }, Ok(Response::Committed { .. })) => {
                    acked[(*account % cfg.branches) as usize] += *delta;
                    true
                }
                (Request::ViewRead { .. }, Ok(Response::Row { present: true, .. })) => true,
                (Request::ViewAvg { .. }, Ok(Response::Avg { present: true, .. })) => true,
                _ => false,
            };
            if !step.recorded {
                continue;
            }
            r.attempted += 1;
            r.late_ns.push(late);
            if !ok {
                r.failed += 1;
            } else if matches!(req, Request::Deposit { .. }) {
                r.commit.push(at, latency);
            } else {
                r.read.push(at, latency);
            }
        }
        r.elapsed = started.elapsed();
        results.push(r);
    }
    ConnResult {
        steps: results,
        acked,
        tracer,
    }
}

/// One recorded step, its connections merged.
struct StepSummary {
    rate: f64,
    commit: Samples,
    read: Samples,
    late_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    achieved_rate: f64,
}

impl StepSummary {
    /// Does the step meet the latency limit without a growing backlog?
    fn meets_slo(&self) -> bool {
        let sorted = self.commit.latencies();
        !sorted.is_empty()
            && self.failed == 0
            && percentile(&sorted, 99.0) <= SLO.as_nanos() as u64
            && self.achieved_rate >= 0.97 * self.rate
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    // The fixed-work phase runs in process while the server is up and its
    // two sessions are idle. The timed loop makes no scans.
    let quiet = QuietReads {
        reads: 0,
        scans: 20_000,
        range_scans: 20_000,
    };
    let Prepared { rig, mut acked } = prepare(&mut out, ctx, setup, (5000, 1), &quiet)?;
    let Rig {
        bank,
        server,
        conns,
    } = rig;

    let warmup = Step {
        rate: HEADLINE_RATE,
        length: ctx.warmup,
        recorded: false,
        sliced: false,
    };
    let headline = |length| Step {
        rate: HEADLINE_RATE,
        length,
        recorded: true,
        sliced: ctx.traced,
    };
    let steps: Vec<Step> = if ctx.traced {
        // A quarter of the window at each side rate, half at the headline.
        let mut s = vec![warmup];
        s.extend(STEP_RATES.map(|rate| Step {
            rate,
            length: ctx.window / 4,
            recorded: true,
            sliced: false,
        }));
        s.push(headline(ctx.window / 2));
        s
    } else {
        vec![warmup, headline(ctx.window)]
    };

    // The main thread joins each step's barrier to read the program's
    // counters at the step boundaries.
    let barrier = Barrier::new(CONNECTIONS + 1);
    let mut before = None;
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                let tracer = Tracer::new(ctx.epoch, i as u64, ctx.traced);
                let (steps, barrier) = (&steps, &barrier);
                scope.spawn(move || generate(ctx, i, conn, steps, barrier, tracer))
            })
            .collect();
        for (i, _) in steps.iter().enumerate() {
            barrier.wait();
            if i == 1 {
                before = Some(bank.db.metrics_snapshot());
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let after = bank.db.metrics_snapshot();
    let stats = server.shutdown()?;

    // Merge the connections, step by step (step 0 is the warm-up).
    let mut tracers = Vec::new();
    let mut summaries: Vec<StepSummary> = steps[1..]
        .iter()
        .map(|s| StepSummary {
            rate: s.rate,
            commit: Samples::default(),
            read: Samples::default(),
            late_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            achieved_rate: 0.0,
        })
        .collect();
    for conn in results {
        add_acked(&mut acked, &conn.acked);
        tracers.push(conn.tracer);
        for (sum, r) in summaries.iter_mut().zip(conn.steps.into_iter().skip(1)) {
            let completed = (r.attempted - r.failed) as f64;
            sum.achieved_rate += completed / r.elapsed.as_secs_f64();
            sum.commit.0.extend(r.commit.0);
            sum.read.0.extend(r.read.0);
            sum.late_ns.extend(r.late_ns);
            sum.attempted += r.attempted;
            sum.failed += r.failed;
        }
    }
    let head = summaries
        .last()
        .expect("the headline step is always present");
    let head_length = steps.last().expect("steps are never empty").length;
    out.attempted = head.attempted;
    out.failed = head.failed;
    out.set("ops_per_s", head.achieved_rate);
    report_latency(&mut out, head_length, "commit", &head.commit);
    report_latency(&mut out, head_length, "read", &head.read);

    if ctx.traced {
        let ops: u64 = summaries.iter().map(|s| s.attempted - s.failed).sum();
        ledger(
            &mut out,
            before.as_ref().expect("snapshot taken after warm-up"),
            &after,
            ops,
            true,
        );
        out.set("server.requests", stats.requests as f64);
        out.set("server.error_responses", stats.error_responses as f64);
        out.set("server.shed_overloaded", stats.shed_overloaded as f64);

        let mut late = head.late_ns.clone();
        late.sort_unstable();
        out.set("client.late_p99_us", Samples::us(&late, 99.0));
        let commits = head.commit.latencies();
        if !commits.is_empty() {
            out.set("client.commit_p999_us", Samples::us(&commits, 99.9));
            let missed = commits
                .iter()
                .filter(|&&ns| ns > SLO.as_nanos() as u64)
                .count() as u64
                + head.failed;
            out.set(
                "client.slo_miss_frac",
                missed as f64 / (commits.len() as u64 + head.failed) as f64,
            );
        }
        if let Some(frac) = head.commit.trace_overhead() {
            out.set("trace.overhead_frac", frac);
        }
        for s in &summaries[..summaries.len() - 1] {
            let sorted = s.commit.latencies();
            if sorted.is_empty() {
                continue;
            }
            out.samples
                .insert(format!("commit at {}/s", s.rate), sorted.len() as u64);
            let (p50, p99) = (Samples::us(&sorted, 50.0), Samples::us(&sorted, 99.0));
            if s.rate == STEP_RATES[0] {
                // The lowest rate is the unloaded round trip; main subtracts
                // the in-process session probe from it to get what TCP,
                // framing and the worker hand-off cost.
                out.unloaded_commit_p50_us = Some(p50);
                out.set("client.rate2000.commit_p99_us", p99);
            } else {
                out.set("client.rate8000.commit_p50_us", p50);
                out.set("client.rate8000.commit_p99_us", p99);
            }
        }
        let max_ok = summaries
            .iter()
            .filter(|s| s.meets_slo())
            .map(|s| s.rate)
            .fold(0.0, f64::max);
        out.set("client.max_rate_ok", max_ok);
    }

    // `wrap_up` checks the ack-sum oracle on the drained database: per
    // branch, Σ acknowledged deposit deltas = Δ SUM(branch_balance).
    wrap_up(&mut out, ctx, &bank, tracers, &acked);
    Ok(out)
}
