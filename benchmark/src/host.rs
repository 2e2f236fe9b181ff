//! The host block written into every output: what a number was measured
//! on, so two result files can be told apart before they are compared.

use crate::json::Json;
use crate::stats::percentile;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use txview_common::{Lsn, TxnId};
use txview_storage::fault::FaultClock;
use txview_wal::record::RecordBody;
use txview_wal::{FaultLogStore, LogManager};

/// The seeded log-sync cost `tcp-oltp` runs with, in microseconds.
pub const SYNC_LATENCY_US: u64 = 50;

/// First line a tool prints, or "unknown". `git` is kept from looking for
/// a repository above the working directory: a checkout that is not a
/// repository has no revision, and nothing outside it is to be read.
fn tool_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Median wake-up delay of `thread::sleep(100 us)` beyond the 100 us asked
/// for — what an open-loop generator that only slept would run late by.
fn sleep_wakeup_p50_us() -> f64 {
    let ask = Duration::from_micros(100);
    let mut over: Vec<u64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::thread::sleep(ask);
            t.elapsed().saturating_sub(ask).as_nanos() as u64
        })
        .collect();
    over.sort_unstable();
    percentile(&over, 50.0) as f64 / 1000.0
}

/// Median measured cost of one log force on the seeded-latency log store
/// (`SYNC_LATENCY_US` plus up to a quarter of jitter, as `Bank::setup`
/// configures it).
fn seeded_sync_p50_us() -> f64 {
    let store = FaultLogStore::new(FaultClock::new());
    store.set_sync_latency(SYNC_LATENCY_US, SYNC_LATENCY_US / 4, 42);
    let log = LogManager::open(Box::new(store)).expect("in-memory log opens");
    let mut ns: Vec<u64> = (0..200)
        .map(|_| {
            let lsn = log.append(TxnId(1), Lsn::NULL, RecordBody::Commit);
            let t = Instant::now();
            log.flush_to(lsn).expect("in-memory flush");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    percentile(&ns, 50.0) as f64 / 1000.0
}

/// Seconds of processor time the hypervisor has given to others while
/// this machine wanted it, since boot (`steal` in `/proc/stat`, in the usual
/// 100 ticks a second); `None` where the file does not say. A run's share
/// of it tells a disturbed run from a quiet one.
pub fn stolen_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

pub fn host_block(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(tool_line("rustc", &["--version"]))),
        (
            "git_rev",
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("sleep_wakeup_p50_us", Json::Num(sleep_wakeup_p50_us())),
        ("seeded_sync_p50_us", Json::Num(seeded_sync_p50_us())),
    ])
}
