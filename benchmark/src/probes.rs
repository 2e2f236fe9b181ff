//! `bench probes` — one layer's public function at a time, on an isolated
//! instance, in a loop of fixed length with a fixed seed. No timers decide
//! how much work runs and no threads run beside it, so the operation counts
//! repeat exactly; each result is the median of five batches.
//!
//! A probe says what a layer costs alone. Whether that cost matters is for
//! the workloads to say: added code is justified by an end-to-end metric,
//! never by a probe.

use crate::spec;
use crate::stats::median;
use crate::workloads::tcp_oltp;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txview_btree::{LogCtx, OpLog, Tree};
use txview_common::rng::Rng;
use txview_common::{IndexId, Key, Lsn, PageId, Result, TxnId, Value, ViewId};
use txview_engine::versions::VersionStore;
use txview_lock::{LockManager, LockMode, LockName};
use txview_server::wire::{self, Request};
use txview_server::Session;
use txview_storage::buffer::BufferPool;
use txview_storage::disk::MemDisk;
use txview_storage::page::PageType;
use txview_view::{CascadeQueue, PendingDelta};
use txview_wal::record::{RecordBody, RedoOp, UndoOp, ValueDelta};
use txview_wal::LogManager;
use txview_workload::bank::{Bank, VIEW};

const BATCHES: usize = 5;
const SEED: u64 = 0x5eed;

/// The results so far, and how far a smoke run scales the work down.
struct Probes {
    out: BTreeMap<String, f64>,
    div: usize,
}

impl Probes {
    /// Iterations (or keys) to use where a full run uses `full`.
    fn n(&self, full: usize) -> usize {
        (full / self.div).max(8)
    }
}

/// Median over `BATCHES` batches of nanoseconds per iteration.
fn ns_per_iter(iters: usize, mut batch: impl FnMut(usize) -> Result<()>) -> Result<f64> {
    let mut per_iter = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        batch(iters)?;
        per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    Ok(median(&per_iter))
}

fn int_key(i: i64) -> Key {
    Key::from_values(&[Value::Int(i)])
}

/// A pool over an in-memory disk whose write-back forces `log` first.
fn pool_with_log(pages: usize) -> (Arc<BufferPool>, Arc<LogManager>) {
    let log = Arc::new(LogManager::in_memory());
    let pool = BufferPool::new(Arc::new(MemDisk::new()), pages);
    let l2 = Arc::clone(&log);
    pool.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
    (pool, log)
}

/// A tree of `keys` ascending integer keys with 24-byte values.
fn build_tree(pool: &Arc<BufferPool>, log: &LogManager, keys: i64) -> Result<Tree> {
    let tree = Tree::create(pool, log, IndexId(1))?;
    let mut last = Lsn::NULL;
    for i in 0..keys {
        let mut ctx = LogCtx {
            log,
            txn: TxnId(1),
            last_lsn: &mut last,
        };
        tree.insert(&int_key(i), &[7u8; 24], &mut ctx, &OpLog::None)?;
    }
    Ok(tree)
}

fn wire_probes(m: &mut Probes) -> Result<()> {
    let req = Request::Deposit {
        account: 1234,
        delta: 5,
    };
    m.out.insert(
        "server.wire.encode_ns".into(),
        ns_per_iter(m.n(200_000), |n| {
            for _ in 0..n {
                black_box(wire::encode_frame(&black_box(&req).encode()));
            }
            Ok(())
        })?,
    );
    let frame = wire::encode_frame(&req.encode());
    m.out.insert(
        "server.wire.decode_ns".into(),
        ns_per_iter(m.n(200_000), |n| {
            for _ in 0..n {
                let (payload, _) = wire::decode_frame(black_box(&frame))?.expect("whole frame");
                black_box(Request::decode(&payload)?);
            }
            Ok(())
        })?,
    );
    Ok(())
}

/// `Session::execute` in process on `tcp-oltp`'s own database shape
/// (pipelined commit, seeded sync), so that workload's commit latency minus
/// this is what TCP, framing and the worker hand-off cost.
fn session_probes(m: &mut Probes) -> Result<()> {
    let bank = Bank::setup(tcp_oltp::config())?;
    let mut session = Session::new(bank.db.clone());
    let mut rng = Rng::new(SEED);
    let deposit_ns = ns_per_iter(m.n(1000), |n| {
        for _ in 0..n {
            let account = rng.below(bank.cfg.accounts as u64) as i64;
            black_box(session.execute(Request::Deposit { account, delta: 1 }));
        }
        Ok(())
    })?;
    m.out
        .insert("server.session.deposit_us".into(), deposit_ns / 1e3);
    let read_ns = ns_per_iter(m.n(5000), |n| {
        for _ in 0..n {
            let group = vec![Value::Int(rng.below(bank.cfg.branches as u64) as i64)];
            black_box(session.execute(Request::ViewRead {
                view: VIEW.into(),
                group,
            }));
        }
        Ok(())
    })?;
    m.out.insert("server.session.read_us".into(), read_ns / 1e3);
    Ok(())
}

fn lock_probe(m: &mut Probes) -> Result<()> {
    let locks = LockManager::new(Duration::from_secs(1));
    let keys: Vec<Vec<u8>> = (0..1024).map(|i| int_key(i).as_bytes().to_vec()).collect();
    m.out.insert(
        "lock.acquire_release_ns".into(),
        ns_per_iter(m.n(200_000), |n| {
            for i in 0..n {
                let name = LockName::key(IndexId(1), keys[i % keys.len()].clone());
                locks.acquire(TxnId(1), name.clone(), LockMode::X)?;
                locks.release(TxnId(1), &name);
            }
            Ok(())
        })?,
    );
    Ok(())
}

/// Random point lookups over `keys` keys.
fn gets(tree: &Tree, keys: i64, iters: usize) -> Result<f64> {
    let mut rng = Rng::new(SEED);
    ns_per_iter(iters, |n| {
        for _ in 0..n {
            black_box(tree.get(&int_key(rng.below(keys as u64) as i64))?);
        }
        Ok(())
    })
}

/// Fits: 8,192 keys, every page resident.
fn btree_fit_probes(m: &mut Probes) -> Result<()> {
    let (pool, log) = pool_with_log(4096);
    let fit = build_tree(&pool, &log, 8192)?;
    m.out
        .insert("btree.get_ns.fit".into(), gets(&fit, 8192, m.n(100_000))?);
    let mut last = Lsn::NULL;
    let mut i = 0;
    m.out.insert(
        "btree.update_value_ns".into(),
        ns_per_iter(m.n(20_000), |n| {
            for _ in 0..n {
                i = (i + 4099) % 8192;
                let mut ctx = LogCtx {
                    log: &log,
                    txn: TxnId(1),
                    last_lsn: &mut last,
                };
                let how = OpLog::Update { undo: UndoOp::None };
                black_box(fit.update_value(&int_key(i), &[(i % 251) as u8; 24], &mut ctx, &how)?);
            }
            Ok(())
        })?,
    );
    let scan_ns = ns_per_iter(m.n(20), |n| {
        for _ in 0..n {
            let (items, _) = fit.scan(None, None, true)?;
            assert_eq!(items.len(), 8192);
            black_box(items);
        }
        Ok(())
    })?;
    m.out
        .insert("btree.scan_ns_per_row".into(), scan_ns / 8192.0);
    Ok(())
}

/// Cold: 262,144 keys under a 256-page pool, so descents miss.
fn btree_cold_probes(m: &mut Probes) -> Result<()> {
    let (pool, log) = pool_with_log(256);
    let cold_keys = m.n(262_144) as i64;
    let cold = build_tree(&pool, &log, cold_keys)?;
    m.out
        .insert("btree.depth.cold".into(), cold.depth()? as f64);
    m.out.insert(
        "btree.get_ns.cold".into(),
        gets(&cold, cold_keys, m.n(5_000))?,
    );
    Ok(())
}

fn pool_probes(m: &mut Probes) -> Result<()> {
    let mut rng = Rng::new(SEED);
    let mut fetches = |capacity: usize, pages: u64, iters: usize| -> Result<f64> {
        let (pool, _log) = pool_with_log(capacity);
        let mut ids: Vec<PageId> = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            ids.push(pool.new_page(PageType::BTreeLeaf)?.0);
        }
        pool.flush_all()?;
        ns_per_iter(iters, |n| {
            for _ in 0..n {
                black_box(pool.fetch(ids[rng.below(pages) as usize])?);
            }
            Ok(())
        })
    };
    m.out.insert(
        "storage.pool.fetch_hit_ns".into(),
        fetches(2048, 1024, m.n(200_000))?,
    );
    // 4,096 pages behind 64 frames: about 98 % of fetches miss and evict.
    m.out.insert(
        "storage.pool.fetch_miss_ns".into(),
        fetches(64, 4096, m.n(5_000))?,
    );
    Ok(())
}

fn wal_probe(m: &mut Probes) -> Result<()> {
    let log = LogManager::in_memory();
    let mut prev = Lsn::NULL;
    m.out.insert(
        "wal.append_ns".into(),
        ns_per_iter(m.n(100_000), |n| {
            for _ in 0..n {
                // The shape of an escrow view-row update: a small in-place
                // patch with a logical undo.
                let body = RecordBody::Update {
                    page: PageId(7),
                    redo: RedoOp::SlotPatch {
                        idx: 3,
                        off: 16,
                        bytes: vec![1; 16],
                    },
                    undo: UndoOp::IndexInsert {
                        index: IndexId(1),
                        key: vec![2; 9],
                    },
                };
                prev = log.append(TxnId(1), prev, body);
            }
            Ok(())
        })?,
    );
    Ok(())
}

fn queue_probe(m: &mut Probes) -> Result<()> {
    let keys: Vec<Vec<u8>> = (0..8).map(|i| int_key(i).as_bytes().to_vec()).collect();
    let mut queue = CascadeQueue::new();
    m.out.insert(
        "view.queue.enqueue_pop_ns".into(),
        // One iteration = one enqueue and one pop; 8 groups per "commit".
        ns_per_iter(m.n(200_000), |n| {
            for _ in 0..n / 8 {
                for (g, key) in keys.iter().enumerate() {
                    let delta = PendingDelta {
                        group: vec![Value::Int(g as i64)],
                        count: 0,
                        aggs: vec![ValueDelta::Int(1)],
                    };
                    queue.enqueue(1, ViewId(2), key.clone(), delta)?;
                }
                while let Some(entry) = queue.pop_first() {
                    black_box(entry);
                }
            }
            Ok(())
        })?,
    );
    Ok(())
}

/// 2,048 chains on the index that is read and 8,192 on another one: what
/// `keys_for` pays for chains of indexes the scan did not ask about.
fn version_probes(m: &mut Probes) -> Result<()> {
    let store = VersionStore::new();
    let materialize = |base: Option<Vec<u8>>, _: &[(u16, ValueDelta)]| Ok(base);
    for (index, chains) in [(IndexId(1), 2048), (IndexId(2), 8192)] {
        for i in 0..chains {
            let key = int_key(i);
            store.ensure_base(index, key.as_bytes(), Some(vec![0; 32]));
            for lsn in 0..8 {
                let pairs = vec![(0, ValueDelta::Int(1))];
                store.publish_delta(
                    index,
                    key.as_bytes(),
                    Lsn(10 + lsn),
                    pairs,
                    Lsn(u64::MAX),
                    &materialize,
                )?;
            }
        }
    }
    let mut rng = Rng::new(SEED);
    m.out.insert(
        "engine.versions.read_at_ns".into(),
        ns_per_iter(m.n(200_000), |n| {
            for _ in 0..n {
                let key = int_key(rng.below(2048) as i64);
                black_box(store.read_at(
                    IndexId(1),
                    key.as_bytes(),
                    Lsn(u64::MAX),
                    &materialize,
                )?);
            }
            Ok(())
        })?,
    );
    let keys_ns = ns_per_iter(m.n(200), |n| {
        for _ in 0..n {
            let keys = store.keys_for(IndexId(1));
            assert_eq!(keys.len(), 2048);
            black_box(keys);
        }
        Ok(())
    })?;
    m.out
        .insert("engine.versions.keys_for_us".into(), keys_ns / 1e3);
    Ok(())
}

/// A probe and the metrics it produces.
type Probe = (&'static [&'static str], fn(&mut Probes) -> Result<()>);

const PROBES: [Probe; 9] = [
    (
        &["server.wire.encode_ns", "server.wire.decode_ns"],
        wire_probes,
    ),
    (
        &["server.session.deposit_us", "server.session.read_us"],
        session_probes,
    ),
    (&["lock.acquire_release_ns"], lock_probe),
    (
        &[
            "btree.get_ns.fit",
            "btree.update_value_ns",
            "btree.scan_ns_per_row",
        ],
        btree_fit_probes,
    ),
    (
        &["btree.depth.cold", "btree.get_ns.cold"],
        btree_cold_probes,
    ),
    (
        &["storage.pool.fetch_hit_ns", "storage.pool.fetch_miss_ns"],
        pool_probes,
    ),
    (&["wal.append_ns"], wal_probe),
    (&["view.queue.enqueue_pop_ns"], queue_probe),
    (
        &["engine.versions.read_at_ns", "engine.versions.keys_for_us"],
        version_probes,
    ),
];

/// The probes that produce a metric assigned to `workload` (every probe
/// for `None`), by metric name. A smoke run does a sixteenth of the work:
/// it checks that the probes run, not what they measure.
pub fn run(workload: Option<&str>, smoke: bool) -> Result<BTreeMap<String, f64>> {
    let mut m = Probes {
        out: BTreeMap::new(),
        div: if smoke { 16 } else { 1 },
    };
    for (names, probe) in PROBES {
        if workload.is_none_or(|w| names.iter().any(|n| spec::assigned(n, w))) {
            probe(&mut m)?;
        }
    }
    Ok(m.out)
}
