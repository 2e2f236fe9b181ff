//! What the benchmark declares: its workloads and every metric it prints,
//! by name, with unit, direction and regression bound. `BENCHMARK.json` at
//! the repository root is `bench manifest` written to a file;
//! `tests/schema.rs` keeps the two equal.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tcp-oltp",
        why: "open loop over loopback TCP, 2 connections, 90% autocommit deposits, pipelined commit with a 50 us log sync: server, wire and group commit do the work",
    },
    Workload {
        name: "hot-escrow",
        why: "closed loop in process, 2 threads, 4 Zipf deposits per txn funnel 8192 accounts onto 8 view rows plus one rollup row: locks, escrow maintenance, view queue and log append do the work",
    },
    Workload {
        name: "htap-scan",
        why: "writer paced at 10000 deposits/s beside a reader cycling snapshot scans and point reads on the same view: version resolution under a constant write load",
    },
    Workload {
        name: "cold-pool",
        why: "closed loop, 1 thread, uniform keys over 262144 accounts under a 256-page pool: the only workload larger than the buffer pool, so misses, evictions and deep descents do the work",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

// The workloads a metric is assigned to: the ones whose own work it
// describes. `run` prints and files a metric only there.
const TCP: &[&str] = &["tcp-oltp"];
const HOT: &[&str] = &["hot-escrow"];
const HTAP: &[&str] = &["htap-scan"];
const COLD: &[&str] = &["cold-pool"];
const ALL: &[&str] = &["tcp-oltp", "hot-escrow", "htap-scan", "cold-pool"];
const READERS: &[&str] = &["tcp-oltp", "htap-scan", "cold-pool"];
const PACED: &[&str] = &["tcp-oltp", "htap-scan"];
const IN_PROCESS: &[&str] = &["hot-escrow", "htap-scan", "cold-pool"];
const CHECKPOINTED: &[&str] = &["hot-escrow", "cold-pool"];
const LOOKUPS: &[&str] = &["htap-scan", "cold-pool"];

/// An end-to-end metric: something a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    pub on: &'static [&'static str],
}

/// A single layer's metric; reported, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub on: &'static [&'static str],
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        on,
    }
}

const fn lo(name: &'static str, unit: &'static str, on: &'static [&'static str]) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        on,
    }
}

const fn hi(name: &'static str, unit: &'static str, on: &'static [&'static str]) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        on,
    }
}

/// Every timing and rate carries the largest bound the driver allows. The
/// issue asked for 0.10 (0.20 on tails); ten runs per workload on the
/// reference host (`BASELINE.md`) put the quartile spread of the steadiest
/// statistic at 0.02 to 0.16 of the median (once 0.29), and the driver refuses a
/// benchmark whose spread passes its bound. No p50 and no tail is
/// end-to-end for the same reason — the issue's own rule for a percentile
/// that will not settle, "demote it to the per-layer list as client.<name>
/// and report [a lower one] in its place": whole-window p50 spreads by up
/// to 0.5, p95 by up to 0.65, p99 by up to 3. Counts and sizes repeat, and
/// are held tighter.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25, ALL),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25, ALL),
    e2e("commit_p25_us", "us", Better::Lower, 0.25, ALL),
    e2e("read_p25_us", "us", Better::Lower, 0.25, READERS),
    e2e("scan_p25_us", "us", Better::Lower, 0.25, HTAP),
    e2e("range_scan_p25_us", "us", Better::Lower, 0.25, HTAP),
    e2e(
        "wal_bytes_per_commit",
        "bytes",
        Better::Lower,
        0.02,
        IN_PROCESS,
    ),
    e2e("recovery_s", "s", Better::Lower, 0.25, HOT),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10, ALL),
];

pub const PER_LAYER: [PerLayer; 79] = [
    // client (the generator itself)
    lo("failed_frac", "frac", ALL),
    // whole-window percentiles: what the decile-bin lower quartiles leave out
    lo("client.commit_p50_us", "us", ALL),
    lo("client.commit_p95_us", "us", ALL),
    lo("client.commit_p99_us", "us", ALL),
    lo("client.read_p50_us", "us", READERS),
    lo("client.read_p95_us", "us", READERS),
    lo("client.read_p99_us", "us", READERS),
    lo("client.scan_p50_us", "us", HTAP),
    lo("client.scan_p95_us", "us", HTAP),
    lo("client.scan_p99_us", "us", HTAP),
    lo("client.late_p99_us", "us", PACED),
    lo("client.rate2000.commit_p99_us", "us", TCP),
    lo("client.rate8000.commit_p50_us", "us", TCP),
    lo("client.rate8000.commit_p99_us", "us", TCP),
    hi("client.max_rate_ok", "1/s", TCP),
    lo("client.slo_miss_frac", "frac", TCP),
    lo("client.commit_p999_us", "us", TCP),
    // server
    lo("server.wire.encode_ns", "ns", TCP),
    lo("server.wire.decode_ns", "ns", TCP),
    lo("server.session.deposit_us", "us", TCP),
    lo("server.session.read_us", "us", TCP),
    lo("server.tcp_overhead_us", "us", TCP),
    hi("server.requests", "count", TCP),
    lo("server.error_responses", "count", TCP),
    lo("server.shed_overloaded", "count", TCP),
    // txn
    lo("txn.begin_ns", "ns", IN_PROCESS),
    lo("txn.commit_call_us", "us", IN_PROCESS),
    lo("txn.phase.acquire_us_per_commit", "us", ALL),
    lo("txn.phase.maintain_us_per_commit", "us", ALL),
    lo("txn.phase.log_force_us_per_commit", "us", ALL),
    lo("txn.phase.commit_us_per_commit", "us", ALL),
    lo("txn.retry_frac", "frac", HOT),
    lo("txn.rollbacks", "count", ALL),
    hi("txn.pipeline.batch_mean", "count", TCP),
    lo("txn.pipeline.syncs_per_commit", "count", TCP),
    lo("txn.pipeline.park_to_wake_us_mean", "us", TCP),
    // lock
    lo("lock.acquired_per_commit", "count", ALL),
    lo("lock.waited_frac", "frac", ALL),
    lo("lock.wait_e_us_per_commit", "us", ALL),
    lo("lock.wait_x_us_per_commit", "us", ALL),
    hi("lock.escrow_grants_per_commit", "count", ALL),
    lo("lock.deadlock_victims", "count", ALL),
    lo("lock.timeouts", "count", ALL),
    lo("lock.acquire_release_ns", "ns", HOT),
    // btree
    lo("btree.get_ns.fit", "ns", HOT),
    lo("btree.get_ns.cold", "ns", COLD),
    lo("btree.update_value_ns", "ns", HOT),
    lo("btree.scan_ns_per_row", "ns", HTAP),
    lo("btree.depth.cold", "levels", COLD),
    // storage
    hi("storage.pool.hit_frac", "frac", ALL),
    lo("storage.pool.misses_per_op", "count", ALL),
    lo("storage.pool.evict_scan_mean", "count", COLD),
    lo("storage.pool.write_us_per_op", "us", ALL),
    lo("storage.pool.fetch_hit_ns", "ns", COLD),
    lo("storage.pool.fetch_miss_ns", "ns", COLD),
    // wal
    lo("wal.bytes_per_commit", "bytes", ALL),
    lo("wal.records_per_commit", "count", ALL),
    lo("wal.append_us_per_commit", "us", ALL),
    lo("wal.sync_us_per_commit", "us", ALL),
    lo("wal.syncs_per_commit", "count", ALL),
    lo("wal.append_ns", "ns", HOT),
    lo("wal.recovery.analysis_us", "us", HOT),
    lo("wal.recovery.redo_us", "us", HOT),
    lo("wal.recovery.undo_us", "us", HOT),
    lo("wal.recovery.redo_applied", "count", HOT),
    lo("wal.recovery.logical_undos", "count", HOT),
    // view
    lo("view.queue.enqueue_pop_ns", "ns", HOT),
    lo("view.graph.refreshes_per_commit", "count", ALL),
    hi("view.graph.coalesce_hit_frac", "frac", HOT),
    // engine
    lo("engine.update_with_us", "us", IN_PROCESS),
    lo("engine.view_lookup_us", "us", LOOKUPS),
    lo("engine.view_scan_us_per_row", "us", HTAP),
    lo("engine.checkpoint_us", "us", CHECKPOINTED),
    lo("engine.escrow_applies_per_commit", "count", ALL),
    lo("engine.ghost_backlog", "count", ALL),
    lo("engine.versions.read_at_ns", "ns", HTAP),
    lo("engine.versions.keys_for_us", "us", HTAP),
    // trace
    lo("trace.remainder_frac", "frac", ALL),
    lo("trace.overhead_frac", "frac", ALL),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Unit of a declared metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Is the metric assigned to the workload?
pub fn assigned(name: &str, workload: &str) -> bool {
    end_to_end(name)
        .map(|m| m.on)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.on))
        .is_some_and(|on| on.contains(&workload))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
