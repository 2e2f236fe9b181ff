//! Differential equivalence battery for the hot-path structures the
//! version store and the ghost queue implement. Each implementation is
//! driven op-for-op against a single-threaded reference model over
//! randomized programs that exercise the interesting interleavings
//! sequentially:
//!
//! * **publish-at-commit orderings** — version-chain entries arrive with
//!   out-of-order commit LSNs (concurrent committers publish in
//!   nondeterministic order), so sorted placement and prefix folds are
//!   stressed;
//! * **GC at the watermark** — every publish folds its chain up to a fold
//!   horizon that trails the newest commit LSN by a random lag, while
//!   "active snapshots" still need the tail; the reference never folds, so
//!   reads at every LSN in a grid agreeing is the claim that a fold cannot
//!   be observed;
//! * **range reads** — the one-pass range call must equal per-key reads
//!   over the chain keys in range, at random bounds and snapshots;
//! * **ghost churn** — enqueue/drain/clear with duplicate keys, checking
//!   dedup decisions, backlog, and the drained *sequence* (the queue is
//!   one FIFO, so drain order is part of the contract).
//!
//! Folding is a pure compaction of history: every one of these properties
//! must hold exactly, not approximately.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use txview_repro::common::{IndexId, Lsn};
use txview_repro::engine::ghosts::GhostQueue;
use txview_repro::engine::versions::{DeltaPairs, VersionStore};
use txview_repro::wal::record::ValueDelta;

// ---- reference model for the version store ------------------------------
//
// The model keeps the whole history: every published entry, ordered by
// commit LSN (arrival order within one LSN), and a read at `s` replays the
// entries at or below `s` over the first base image — a delta adds, a full
// image replaces. It never folds. All it knows about folding is how far a
// chain's base has moved: `base_lsn`, the largest LSN at or below a horizon
// handed to a publish on that chain. Below `base_lsn` the store answers
// "absent" and so does the model; at or above it the store, which has
// folded everything up to there, must agree with the full history.

#[derive(Clone, Debug)]
enum RefPayload {
    Full(Option<Vec<u8>>),
    Delta(DeltaPairs),
}

#[derive(Clone, Debug)]
struct RefEntry {
    commit_lsn: Lsn,
    payload: RefPayload,
}

const BASE_VERSION: Lsn = Lsn(1);

struct RefChain {
    base: Option<Vec<u8>>,
    base_lsn: Lsn,
    entries: Vec<RefEntry>,
}

#[derive(Default)]
struct RefVersionStore {
    chains: BTreeMap<(IndexId, Vec<u8>), RefChain>,
}

fn materialize(cur: Option<Vec<u8>>, pairs: &[(u16, ValueDelta)]) -> txview_repro::common::Result<Option<Vec<u8>>> {
    let mut v = cur
        .map(|b| i64::from_be_bytes(b.as_slice().try_into().expect("8-byte row")))
        .unwrap_or(0);
    for (_, d) in pairs {
        match d {
            ValueDelta::Int(x) => v += x,
            ValueDelta::Float(_) => unreachable!("test generates Int deltas only"),
        }
    }
    Ok(Some(v.to_be_bytes().to_vec()))
}

impl RefVersionStore {
    fn ensure_base(&mut self, index: IndexId, key: &[u8], value: Option<Vec<u8>>) {
        self.chains.entry((index, key.to_vec())).or_insert(RefChain {
            base: value,
            base_lsn: BASE_VERSION,
            entries: Vec::new(),
        });
    }

    fn publish(&mut self, index: IndexId, key: &[u8], entry: RefEntry, horizon: Lsn) {
        let chain = self.chains.get_mut(&(index, key.to_vec())).expect("chain seeded by ensure_base");
        let at = chain.entries.partition_point(|e| e.commit_lsn <= entry.commit_lsn);
        chain.entries.insert(at, entry);
        let folded = chain.entries.iter().map(|e| e.commit_lsn).filter(|l| *l <= horizon).max();
        chain.base_lsn = chain.base_lsn.max(folded.unwrap_or(BASE_VERSION));
    }

    fn read_at(&self, index: IndexId, key: &[u8], s: Lsn) -> Option<Option<Vec<u8>>> {
        let chain = self.chains.get(&(index, key.to_vec()))?;
        if s < chain.base_lsn {
            return Some(None);
        }
        let mut value = chain.base.clone();
        for e in chain.entries.iter().filter(|e| e.commit_lsn <= s) {
            value = match &e.payload {
                RefPayload::Full(v) => v.clone(),
                RefPayload::Delta(pairs) => materialize(value, pairs).unwrap(),
            };
        }
        Some(value)
    }

    /// Keys of one index, in key order.
    fn keys_for(&self, index: IndexId) -> Vec<Vec<u8>> {
        self.chains.keys().filter(|(i, _)| *i == index).map(|(_, k)| k.clone()).collect()
    }
}

#[derive(Clone, Debug)]
enum VsOp {
    /// `ensure_base` with a clean pre-image (row-creation path).
    Base { idx: u8, key: u8, value: Option<i64> },
    /// Publish a committed escrow delta. `lsn_jitter`/`hor_lag` are turned
    /// into an actual commit LSN / horizon by the executor, which models
    /// the commit-watermark protocol (see below).
    Delta { idx: u8, key: u8, lsn_jitter: u64, delta: i64, hor_lag: u64 },
    /// Publish a committed full image (X-lock path; `None` = removed).
    Full { idx: u8, key: u8, lsn_jitter: u64, value: Option<i64>, hor_lag: u64 },
}

fn arb_vs_op() -> impl Strategy<Value = VsOp> {
    // 2 indexes x 4 keys concentrates ops, so chains grow tails that later
    // publishes fold and out-of-order siblings land in the same chain.
    prop_oneof![
        1 => (0u8..2, 0u8..4, prop_oneof![Just(None), (0i64..100).prop_map(Some)])
            .prop_map(|(idx, key, value)| VsOp::Base { idx, key, value }),
        6 => (0u8..2, 0u8..4, 0u64..8, -50i64..50, 0u64..8)
            .prop_map(|(idx, key, lsn_jitter, delta, hor_lag)| VsOp::Delta {
                idx, key, lsn_jitter, delta, hor_lag,
            }),
        2 => (0u8..2, 0u8..4, 0u64..8, prop_oneof![Just(None), (0i64..100).prop_map(Some)], 0u64..8)
            .prop_map(|(idx, key, lsn_jitter, value, hor_lag)| VsOp::Full {
                idx, key, lsn_jitter, value, hor_lag,
            }),
    ]
}

/// Models the commit-watermark protocol governing publish-at-commit: commit
/// LSNs may be published out of order (concurrent committers), but the fold
/// horizon is monotone and every *future* commit LSN is strictly above any
/// horizon already used — the engine's ticket protocol guarantees exactly
/// this, and the store's fold invariant ("a folded base never out-sorts a
/// later publish") depends on it.
struct WatermarkModel {
    /// Highest horizon handed to any fold/prune so far.
    hwm: u64,
}

impl WatermarkModel {
    fn stamp(&mut self, lsn_jitter: u64, hor_lag: u64) -> (Lsn, Lsn) {
        // Jitter makes consecutive publishes non-monotone (out-of-order
        // commit ordering) while staying strictly above the watermark.
        let commit_lsn = self.hwm + 1 + lsn_jitter;
        // Horizon trails the commit LSN (active snapshots lag), never
        // regresses, and never reaches the new commit.
        let horizon = (commit_lsn - 1 - hor_lag.min(commit_lsn - 1 - self.hwm)).max(self.hwm);
        self.hwm = horizon;
        (Lsn(commit_lsn), Lsn(horizon))
    }
}

fn enc(v: Option<i64>) -> Option<Vec<u8>> {
    v.map(|x| x.to_be_bytes().to_vec())
}

/// Run `ops` against the store and the reference, returning both plus the
/// snapshot LSNs worth probing: every boundary the program created.
fn run_program(ops: &[VsOp]) -> (VersionStore, RefVersionStore, BTreeSet<u64>) {
    let store = VersionStore::new();
    let mut reference = RefVersionStore::default();
    let mut wm = WatermarkModel { hwm: 1 };
    let mut grid: BTreeSet<u64> = [0, 1, 2].into();
    for op in ops {
        let (idx, key, payload, lsn_jitter, hor_lag) = match op {
            VsOp::Base { idx, key, value } => {
                let (i, k) = (IndexId(*idx as u32), [*key]);
                store.ensure_base(i, &k, enc(*value));
                reference.ensure_base(i, &k, enc(*value));
                continue;
            }
            VsOp::Delta { idx, key, lsn_jitter, delta, hor_lag } => {
                (idx, key, RefPayload::Delta(vec![(0, ValueDelta::Int(*delta))]), lsn_jitter, hor_lag)
            }
            VsOp::Full { idx, key, lsn_jitter, value, hor_lag } => {
                (idx, key, RefPayload::Full(enc(*value)), lsn_jitter, hor_lag)
            }
        };
        let (i, k) = (IndexId(*idx as u32), [*key]);
        // Engine protocol: the chain is seeded with the pre-modification
        // image before any publish.
        store.ensure_base(i, &k, None);
        reference.ensure_base(i, &k, None);
        let (commit_lsn, horizon) = wm.stamp(*lsn_jitter, *hor_lag);
        grid.extend([commit_lsn.0.saturating_sub(1), commit_lsn.0, commit_lsn.0 + 1, horizon.0]);
        match &payload {
            RefPayload::Delta(pairs) => {
                store.publish_delta(i, &k, commit_lsn, pairs.clone(), horizon, &materialize).unwrap()
            }
            RefPayload::Full(value) => {
                store.publish_full(i, &k, commit_lsn, value.clone(), horizon, &materialize).unwrap()
            }
        }
        reference.publish(i, &k, RefEntry { commit_lsn, payload }, horizon);
    }
    grid.insert(wm.hwm + 10);
    (store, reference, grid)
}

fn arb_bound() -> impl Strategy<Value = Option<u8>> {
    prop_oneof![1 => Just(None), 3 => (0u8..6).prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The horizon-eager store and the never-folding reference agree on
    /// every read at every snapshot LSN after every program, including
    /// programs whose publishes arrive out of order around a lagging
    /// horizon.
    #[test]
    fn version_store_matches_unfolded_reference(ops in prop::collection::vec(arb_vs_op(), 1..300)) {
        let (store, reference, grid) = run_program(&ops);
        // Key sets per index agree (order is not part of the contract).
        for idx in 0..2u32 {
            let mut keys = store.keys_for(IndexId(idx));
            keys.sort();
            prop_assert_eq!(keys, reference.keys_for(IndexId(idx)), "keys_for({}) diverged", idx);
        }
        // Every (index, key) read over a full LSN grid agrees — including
        // s = 0 (predates the base) and s past every published LSN.
        for idx in 0..2u32 {
            for key in 0..4u8 {
                let (i, k) = (IndexId(idx), [key]);
                prop_assert_eq!(store.has_chain(i, &k), reference.chains.contains_key(&(i, k.to_vec())));
                for &s in &grid {
                    let got = store.read_at(i, &k, Lsn(s), &materialize).unwrap();
                    let want = reference.read_at(i, &k, Lsn(s));
                    prop_assert_eq!(
                        got, want,
                        "read_at(idx={}, key={}, s={}) diverged", idx, key, s
                    );
                }
            }
        }
    }

    /// The one-pass range read equals per-key reads over the chain keys in
    /// `[lo, hi)`, in key order — against the store's own `read_at` and
    /// against the reference — at random bounds (open, empty and inverted
    /// ones included) and snapshots.
    #[test]
    fn range_read_equals_point_reads(
        ops in prop::collection::vec(arb_vs_op(), 1..200),
        probes in prop::collection::vec((0u32..2, arb_bound(), arb_bound(), 0usize..1000), 1..12),
    ) {
        let (store, reference, grid) = run_program(&ops);
        let grid: Vec<u64> = grid.into_iter().collect();
        let keyed = |_: &[u8], cur: Option<Vec<u8>>, pairs: &[(u16, ValueDelta)]| materialize(cur, pairs);
        for (idx, lo, hi, pick) in probes {
            let (i, s) = (IndexId(idx), Lsn(grid[pick % grid.len()]));
            let (lo, hi) = (lo.map(|b| [b]), hi.map(|b| [b]));
            let got = store
                .range_at(i, lo.as_ref().map(|b| &b[..]), hi.as_ref().map(|b| &b[..]), s, &keyed)
                .unwrap();
            let mut keys = store.keys_for(i);
            keys.sort();
            keys.retain(|k| lo.is_none_or(|lo| k[..] >= lo[..]) && hi.is_none_or(|hi| k[..] < hi[..]));
            let own: Vec<_> = keys
                .iter()
                .map(|k| (k.clone(), store.read_at(i, k, s, &materialize).unwrap().expect("listed key has a chain")))
                .collect();
            prop_assert_eq!(&got, &own, "range_at(idx={}, {:?}..{:?}, s={}) vs read_at", idx, lo, hi, s.0);
            let model: Vec<_> = keys
                .iter()
                .map(|k| (k.clone(), reference.read_at(i, k, s).expect("listed key has a chain")))
                .collect();
            prop_assert_eq!(&got, &model, "range_at(idx={}, {:?}..{:?}, s={}) vs reference", idx, lo, hi, s.0);
        }
    }
}

// ---- GhostQueue vs reference dedup model ---------------------------------

#[derive(Default)]
struct RefGhostQueue {
    queue: VecDeque<(IndexId, Vec<u8>)>,
    queued: HashSet<(IndexId, Vec<u8>)>,
}

impl RefGhostQueue {
    fn enqueue(&mut self, index: IndexId, key: Vec<u8>) -> bool {
        let gk = (index, key);
        if self.queued.insert(gk.clone()) {
            self.queue.push_back(gk);
            true
        } else {
            false
        }
    }

    fn drain(&mut self) -> Vec<(IndexId, Vec<u8>)> {
        self.queued.clear();
        self.queue.drain(..).collect()
    }
}

#[derive(Clone, Debug)]
enum GhostOp {
    Enqueue(u8, u8),
    Drain,
    Clear,
}

fn arb_ghost_op() -> impl Strategy<Value = GhostOp> {
    prop_oneof![
        8 => (0u8..3, 0u8..12).prop_map(|(i, k)| GhostOp::Enqueue(i, k)),
        1 => Just(GhostOp::Drain),
        1 => Just(GhostOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The ghost queue makes the same dedup decisions, reports the same
    /// backlog, and drains the same sequence as the reference FIFO.
    #[test]
    fn ghost_queue_matches_reference(ops in prop::collection::vec(arb_ghost_op(), 1..200)) {
        let queue = GhostQueue::new();
        let mut reference = RefGhostQueue::default();
        for op in &ops {
            match *op {
                GhostOp::Enqueue(i, k) => {
                    let (index, key) = (IndexId(i as u32), vec![k]);
                    prop_assert_eq!(
                        queue.enqueue(index, key.clone()),
                        reference.enqueue(index, key),
                        "dedup decision diverged"
                    );
                }
                GhostOp::Drain => {
                    prop_assert_eq!(queue.drain(), reference.drain(), "drained sequences diverged");
                }
                GhostOp::Clear => {
                    queue.clear();
                    reference.queue.clear();
                    reference.queued.clear();
                }
            }
            prop_assert_eq!(queue.len(), reference.queue.len(), "backlog gauge diverged");
            prop_assert_eq!(queue.is_empty(), reference.queue.is_empty());
        }
    }
}
