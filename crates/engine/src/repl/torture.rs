//! Replication torture: crash the leader, crash the follower, sever the
//! link — and interrogate the replication oracle each time.
//!
//! The oracle, in the ISSUE's terms:
//!
//! * **history**: the follower's state at durable length `D` equals an
//!   in-order replay of the shipped prefix up to `D` (checked against a
//!   fault-free reference follower);
//! * **durability**: every commit acknowledged under `Sync` ship mode
//!   survives leader loss and is served by the promoted follower;
//! * **promotion exactness**: promotion yields a writable database whose
//!   state equals an independent crash recovery of exactly the shipped
//!   prefix (a fresh `MemDisk` + `MemLogStore` preloaded with the
//!   follower's durable bytes, master = null so analysis covers it all);
//! * **idempotence**: duplicated/reordered frames change nothing — redo's
//!   pageLSN test and the follower's durable length make replays no-ops;
//! * **convergence**: after a partition heals or a crashed node rejoins,
//!   leader and follower logs become *byte-identical* and their committed
//!   states fingerprint-equal.
//!
//! Everything is a pure function of the seed, like the rest of the torture
//! harness: leader crash offsets come from the same fault-free horizon as
//! the single-node sweep (replication never ticks the leader's clock), and
//! follower offsets from a dedicated follower-horizon measurement.

use super::channel::{ChannelFaults, ReplChannel};
use super::follower::Follower;
use super::frame::{Frame, Message};
use super::leader::ReplicationStream;
use super::{ReplConfig, ShipMode};
use crate::db::Database;
use crate::health::HealthState;
use crate::torture::{self, Outcome, Step, TortureConfig, Transfer, WorkloadTrace};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use txview_common::obs::Snapshot;
use txview_common::rng::Rng;
use txview_common::{Lsn, Result};
use txview_storage::fault::FaultSchedule;
use txview_storage::MemDisk;
use txview_wal::log::LOG_HEADER;
use txview_wal::{LogRecord, LogStore, MemLogStore};

/// Which seam an episode tortures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplEpisodeKind {
    /// The leader dies at a swept event; the follower is promoted.
    LeaderCrash,
    /// The follower dies mid-replay, reboots onto its durable prefix, and
    /// catches back up.
    FollowerCrash,
    /// The link partitions (plus a lossy fault plan); after the heal the
    /// follower must converge byte-identically.
    Partition,
}

/// Outcome of one replication episode.
#[derive(Clone, Debug)]
pub struct ReplEpisodeReport {
    /// Which seam was tortured.
    pub kind: ReplEpisodeKind,
    /// Absolute event the crash fired at (None for partition episodes or
    /// schedules that never fired).
    pub crash_event: Option<u64>,
    /// Oracle violations; empty = the episode passed.
    pub violations: Vec<String>,
    /// Commits acknowledged under the ship-mode contract.
    pub repl_acked_commits: usize,
    /// `Sync` commits that timed out waiting for the follower ack.
    pub sync_ack_timeouts: usize,
    /// Largest replication lag (in bytes) observed during the workload.
    pub max_lag_bytes: u64,
    /// Catch-up negotiations resolved by resuming from a clean prefix.
    pub reconnects: u64,
    /// Catch-up negotiations resolved by a full snapshot ship.
    pub snapshot_fallbacks: u64,
    /// Did the stale-leader fencing drill fence the old leader?
    pub fenced_stale_leader: bool,
    /// Losers the promotion recovery undid (leader-crash episodes).
    pub promotion_losers: u64,
}

/// Outcome of a full replication sweep.
#[derive(Clone, Debug, Default)]
pub struct ReplSweepReport {
    /// Leader-side fault-free event horizon.
    pub horizon: u64,
    /// Follower-side fault-free event horizon.
    pub follower_horizon: u64,
    /// Episodes run.
    pub episodes: usize,
    /// Distinct crash/partition points exercised (leader crash events +
    /// follower crash events + partition seeds + mid-batch pipeline
    /// events).
    pub distinct_points: usize,
    /// Distinct leader crash events.
    pub leader_crash_points: usize,
    /// Distinct follower crash events.
    pub follower_crash_points: usize,
    /// Partition episodes run (each a distinct seed).
    pub partition_points: usize,
    /// Distinct mid-batch pipeline crash events (leader death between a
    /// group-commit batch's first and last appended commit record).
    pub mid_batch_points: usize,
    /// All violations, tagged with the episode that produced them.
    pub violations: Vec<(String, String)>,
    /// Total ship-mode-acked commits across episodes.
    pub repl_acked_commits: usize,
    /// Promotions performed.
    pub promotions: usize,
    /// Resume reconnects across episodes.
    pub reconnects: u64,
    /// Snapshot fallbacks across episodes.
    pub snapshot_fallbacks: u64,
    /// Stale leaders fenced by the epoch check.
    pub fences: usize,
    /// Sync-acked commits served by promoted followers in mid-batch
    /// leader-death episodes (the ISSUE's headline acceptance case).
    pub mid_batch_acked_survived: usize,
}

const MID_BATCH_PROBE: [&str; 1] = ["wal.pipeline.mid_batch"];

/// One leader + channel + follower, wired over the torture harness's
/// fault-injected parts.
struct ReplLink {
    cfg: TortureConfig,
    rcfg: ReplConfig,
    db: Arc<Database>,
    parts: torture::Parts,
    catalog: Vec<u8>,
    stream: ReplicationStream,
    channel: ReplChannel,
    follower: Follower,
}

impl ReplLink {
    fn new(cfg: &TortureConfig, rcfg: &ReplConfig, channel_seed: u64) -> Result<ReplLink> {
        let (db, parts) = torture::build(cfg)?;
        let catalog = db.export_catalog();
        let follower = Follower::new(rcfg.clone(), catalog.clone())?;
        let channel = ReplChannel::new(rcfg.faults, channel_seed);
        let stream = ReplicationStream::new(Arc::clone(&db), parts.store.clone(), rcfg.clone());
        Ok(ReplLink {
            cfg: cfg.clone(),
            rcfg: rcfg.clone(),
            db,
            parts,
            catalog,
            stream,
            channel,
            follower,
        })
    }

    /// One protocol round: follower drains + acks, leader absorbs control
    /// traffic, leader ships the next frames. None of this ticks the
    /// leader's fault clock, so crash offsets from the single-node horizon
    /// stay valid.
    fn tick(&mut self) -> Result<()> {
        self.follower.drain(&self.channel)?;
        self.stream.drain_control(&self.channel)?;
        self.stream.pump(&self.channel)?;
        Ok(())
    }

    /// Tick until the follower holds the leader's last durable record, or
    /// the budget runs out.
    fn converge(&mut self, budget: usize) -> Result<bool> {
        for _ in 0..budget {
            if self.follower.durable_len() > self.db.log().flushed_lsn().0 {
                return Ok(true);
            }
            self.tick()?;
        }
        Ok(self.follower.durable_len() > self.db.log().flushed_lsn().0)
    }

    /// Flush the leader and converge within `budget` rounds; then the
    /// follower's log must be byte-identical to the leader's and its state
    /// fingerprint-equal. `failure` names a link that never converged.
    fn check_converged(
        &mut self,
        budget: usize,
        failure: &str,
        violations: &mut Vec<String>,
    ) -> Result<()> {
        self.db.log().flush_all()?;
        if !self.converge(budget)? {
            violations.push(failure.into());
            return Ok(());
        }
        if self.follower.store().durable_bytes() != self.parts.store.durable_bytes() {
            violations.push("[converged] follower log not byte-identical to the leader's".into());
        }
        if self.follower.fingerprint()? != torture::fingerprint(&self.db)? {
            violations.push("[converged] follower state != leader state".into());
        }
        Ok(())
    }

    /// The report of an episode that neither promoted nor fenced anyone.
    fn report(
        &self,
        kind: ReplEpisodeKind,
        crash_event: Option<u64>,
        violations: Vec<String>,
        trace: &ReplTrace,
    ) -> ReplEpisodeReport {
        ReplEpisodeReport {
            kind,
            crash_event,
            violations,
            repl_acked_commits: trace.repl_acked_commits,
            sync_ack_timeouts: trace.sync_ack_timeouts,
            max_lag_bytes: trace.max_lag_bytes,
            reconnects: self.stream.reconnects(),
            snapshot_fallbacks: self.stream.snapshot_fallbacks(),
            fenced_stale_leader: false,
            promotion_losers: 0,
        }
    }
}

/// What a replicated workload observed, over and above the base trace.
#[derive(Clone, Debug, Default)]
struct ReplTrace {
    base: WorkloadTrace,
    /// `(commit LSN, transfer)` for every locally-acked transfer.
    transfers: Vec<(Lsn, Transfer)>,
    /// Transfers acknowledged under the ship-mode contract.
    repl_acked: Vec<Transfer>,
    repl_acked_commits: usize,
    sync_ack_timeouts: usize,
    max_lag_bytes: u64,
}

/// `Sync`-mode wait: pump the link until the follower has durably acked
/// `lsn` or the budget runs out.
fn wait_for_ack(link: &mut ReplLink, lsn: Lsn) -> Result<bool> {
    for _ in 0..link.rcfg.sync_ack_budget {
        if link.stream.acked() > lsn.0 {
            return Ok(true);
        }
        link.tick()?;
    }
    Ok(link.stream.acked() > lsn.0)
}

/// The torture workload (same loop, therefore the same leader event horizon
/// as [`torture::run_workload`]) with a replication round after every
/// transaction. `plan` toggles the partition at transaction boundaries:
/// `(t, on)` sets the link state just before transaction `t`.
fn run_repl_workload(link: &mut ReplLink, plan: &[(usize, bool)]) -> Result<ReplTrace> {
    let (cfg, db, clock) = (link.cfg.clone(), Arc::clone(&link.db), Arc::clone(&link.parts.clock));
    let mut trace = ReplTrace::default();
    trace.base = torture::run_workload_observed(&db, &cfg, &clock, |step| {
        let (outcome, transfer, acked) = match step {
            Step::Begin(t) => {
                for &(_, on) in plan.iter().filter(|(at, _)| *at == t) {
                    link.channel.set_partitioned(on);
                }
                return Ok(());
            }
            Step::End { outcome, transfer, acked } => (outcome, transfer, acked),
        };
        if let Outcome::Committed(lsn) = outcome {
            if acked {
                trace.transfers.extend(transfer.map(|tr| (lsn, tr)));
            }
            let repl_acked = match link.rcfg.ship_mode {
                ShipMode::Sync => {
                    let ok = wait_for_ack(link, lsn)?;
                    trace.sync_ack_timeouts += usize::from(!ok);
                    ok
                }
                ShipMode::Async => acked,
            };
            if repl_acked {
                trace.repl_acked_commits += 1;
                trace.repl_acked.extend(transfer);
            }
        }
        link.tick()?;
        if !matches!(outcome, Outcome::RolledBack) {
            trace.max_lag_bytes = trace.max_lag_bytes.max(link.stream.lag_bytes());
        }
        Ok(())
    })?;
    Ok(trace)
}

/// Independent recovery of exactly the shipped prefix: a fresh `MemDisk`
/// and a `MemLogStore` preloaded with the follower's durable bytes, with a
/// *null* master so analysis starts at the first record and the dirty-page
/// table covers every page. The promoted follower must fingerprint-equal
/// this.
fn reference_recovery_fingerprint(
    shipped: &[u8],
    catalog: &[u8],
    pool_pages: usize,
) -> Result<Vec<u8>> {
    let store = MemLogStore::new();
    store.append(&shipped[LOG_HEADER.len()..])?;
    let (db, _) = Database::with_parts_recovered(
        Arc::new(MemDisk::new()),
        Box::new(store),
        Some(catalog),
        pool_pages,
        Duration::from_secs(2),
    )?;
    torture::fingerprint(&db)
}

/// Fault-free reference follower: ingest the shipped prefix as in-order
/// single-record frames and fingerprint the result. Implements the history
/// oracle — "follower state at durable length D equals the leader's
/// historical state at D" — for D = the end of the prefix's last whole
/// record.
fn reference_follower_fingerprint(
    catalog: &[u8],
    shipped: &[u8],
    rcfg: &ReplConfig,
) -> Result<(Vec<u8>, u64)> {
    let mut cfg = rcfg.clone();
    cfg.faults = ChannelFaults::default();
    let mut f = Follower::new(cfg, catalog.to_vec())?;
    let ch = ReplChannel::new(ChannelFaults::default(), 0);
    let mut off = LOG_HEADER.len();
    while let Some((_, used)) = LogRecord::decode_framed(&shipped[off..], off as u64)? {
        let frame = Frame::new(0, off as u64, shipped[off..off + used].to_vec());
        f.ingest(Message::Frame(frame), &ch)?;
        off += used;
    }
    Ok((f.fingerprint()?, f.durable_len()))
}

/// Kill the leader at `offset` (relative to the post-build clock, same
/// base as the single-node sweep), promote the follower, and assert the
/// promotion oracles. With `rejoin`, additionally revive the old leader:
/// first as a stale *leader* (its frames must get it fenced), then as a
/// *follower* (catch-up must resume or snapshot-fallback to byte-identical
/// convergence).
pub fn run_leader_crash_episode(
    cfg: &TortureConfig,
    rcfg: &ReplConfig,
    offset: u64,
    rejoin: bool,
) -> Result<ReplEpisodeReport> {
    let mut violations = Vec::new();
    let mut link = ReplLink::new(cfg, rcfg, cfg.seed ^ offset.rotate_left(17))?;
    if !link.converge(300)? {
        violations.push("initial catch-up never converged".into());
    }
    link.parts.clock.arm(&FaultSchedule::crash_at(offset));
    let trace = run_repl_workload(&mut link, &[])?;
    // Deliver whatever was in flight when the leader died; a dead leader
    // ships and answers nothing new.
    for _ in 0..32 {
        link.tick()?;
    }
    let crash_event = link.parts.clock.stats().crash_event;
    if crash_event.is_none() {
        violations.push("scheduled leader crash never fired inside the workload".into());
    }
    let epoch_before = link.follower.epoch();
    let shipped = link.follower.store().durable_bytes();
    let shipped_len = link.follower.durable_len();

    let ReplLink { rcfg: link_rcfg, db, parts, catalog, stream, mut follower, .. } = link;
    drop(stream);
    drop(db);

    let promotion = follower.promote()?;
    if follower.epoch() != epoch_before + 1 {
        violations.push(format!(
            "promotion did not bump the epoch: {} -> {}",
            epoch_before,
            follower.epoch()
        ));
    }
    // Promotion exactness: the promoted state IS recovery of the shipped
    // prefix — nothing more (no resurrections), nothing less (no losses).
    match reference_recovery_fingerprint(&shipped, &catalog, cfg.pool_pages) {
        Ok(ref_fp) => {
            if ref_fp != follower.fingerprint()? {
                violations.push(
                    "promotion: state != independent recovery of the shipped prefix".into(),
                );
            }
        }
        Err(e) => violations.push(format!("reference recovery of the shipped prefix failed: {e}")),
    }
    // Durability: every ship-acked commit is served by the promoted
    // follower, and the promoted database passes the full consistency
    // oracle (views == recomputation, balances == ledger replay).
    let oracle_trace = WorkloadTrace {
        attempted: trace.base.attempted,
        acked_transfers: match link_rcfg.ship_mode {
            ShipMode::Sync => trace.repl_acked.clone(),
            // Async acks promise only the *shipped* prefix survives.
            ShipMode::Async => trace
                .transfers
                .iter()
                .filter(|(l, _)| l.0 < shipped_len)
                .map(|&(_, tr)| tr)
                .collect(),
        },
        acked_commits: trace.repl_acked_commits,
        ..Default::default()
    };
    torture::check_oracle(follower.db(), cfg, &oracle_trace, "promoted", &mut violations);
    torture::check_accepts_work(follower.db(), cfg, "post-promotion", &mut violations);

    let mut fenced = false;
    let mut reconnects = 0;
    let mut snapshot_fallbacks = 0;
    if rejoin {
        let (f, r, s) =
            rejoin_drill(cfg, &link_rcfg, parts, &catalog, &mut follower, &mut violations)?;
        fenced = f;
        reconnects = r;
        snapshot_fallbacks = s;
    }

    Ok(ReplEpisodeReport {
        kind: ReplEpisodeKind::LeaderCrash,
        crash_event,
        violations,
        repl_acked_commits: trace.repl_acked_commits,
        sync_ack_timeouts: trace.sync_ack_timeouts,
        max_lag_bytes: trace.max_lag_bytes,
        reconnects,
        snapshot_fallbacks,
        fenced_stale_leader: fenced,
        promotion_losers: promotion.losers,
    })
}

/// Revive the crashed old leader twice over: first as a stale leader that
/// must be fenced by the epoch check, then as a follower that must
/// converge with the new leader (resume when its log is still a clean
/// prefix, snapshot fallback when its unshipped suffix or the promotion's
/// CLRs made the logs diverge).
fn rejoin_drill(
    cfg: &TortureConfig,
    rcfg: &ReplConfig,
    parts: torture::Parts,
    catalog: &[u8],
    new_leader: &mut Follower,
    violations: &mut Vec<String>,
) -> Result<(bool, u64, u64)> {
    let mut lossless = rcfg.clone();
    lossless.faults = ChannelFaults::default();

    // Drill 1 — fencing. The revived process still believes it leads and
    // ships frames at the old epoch; the promoted follower nacks them and
    // the nack fences it through the health machine.
    let (old_db, _) = parts.reboot(catalog, cfg.pool_pages)?;
    let mut old_stream =
        ReplicationStream::new(Arc::clone(&old_db), parts.store.clone(), lossless.clone());
    let ch = ReplChannel::new(ChannelFaults::default(), cfg.seed);
    old_stream.pump(&ch)?;
    new_leader.drain(&ch)?;
    old_stream.drain_control(&ch)?;
    let fenced = old_db.health().state() == HealthState::Fenced;
    if !fenced {
        violations.push("stale leader was not fenced after shipping at the old epoch".into());
    }
    let snap = old_db.metrics_snapshot();
    if snap.label_value("engine.health_state_name") != Some("fenced") {
        violations.push("fence not visible in the stale leader's metrics labels".into());
    }
    drop(old_stream);
    drop(old_db);

    // Drill 2 — rejoin as follower. Catch-up negotiation decides resume vs
    // snapshot; either way the rejoined node must converge byte-identically
    // and adopt the new epoch.
    let mut rejoined = Follower::from_parts(
        lossless.clone(),
        Arc::clone(&parts.clock),
        parts.disk.clone(),
        parts.store.clone(),
        catalog.to_vec(),
    )?;
    new_leader.db().log().flush_all()?;
    let mut new_stream = ReplicationStream::new(
        Arc::clone(new_leader.db()),
        new_leader.store().clone(),
        lossless,
    );
    let ch2 = ReplChannel::new(ChannelFaults::default(), cfg.seed ^ 1);
    rejoined.send_hello(&ch2);
    let target = new_leader.db().log().flushed_lsn();
    let mut converged = false;
    for _ in 0..300 {
        new_stream.drain_control(&ch2)?;
        new_stream.pump(&ch2)?;
        rejoined.drain(&ch2)?;
        if rejoined.durable_len() > target.0
            && rejoined.store().durable_bytes() == new_leader.store().durable_bytes()
        {
            converged = true;
            break;
        }
    }
    if !converged {
        violations.push("rejoined old leader never converged with the new leader".into());
    } else {
        if rejoined.fingerprint()? != new_leader.fingerprint()? {
            violations.push("rejoined old leader state != new leader state".into());
        }
        if rejoined.epoch() != new_leader.epoch() {
            violations.push("rejoined old leader did not adopt the new epoch".into());
        }
    }
    Ok((fenced, new_stream.reconnects(), new_stream.snapshot_fallbacks()))
}

/// Kill the follower at `offset` of *its* clock (relative to the
/// post-catch-up base), reboot it onto its durable prefix, and assert the
/// reopen + catch-up oracles.
pub fn run_follower_crash_episode(
    cfg: &TortureConfig,
    rcfg: &ReplConfig,
    offset: u64,
) -> Result<ReplEpisodeReport> {
    let mut violations = Vec::new();
    let mut link = ReplLink::new(cfg, rcfg, cfg.seed)?;
    if !link.converge(300)? {
        violations.push("initial catch-up never converged".into());
    }
    link.follower.clock().arm(&FaultSchedule::crash_at(offset));
    let trace = run_repl_workload(&mut link, &[])?;
    let crash_event = link.follower.clock().stats().crash_event;
    if crash_event.is_none() {
        violations.push("scheduled follower crash never fired inside the workload".into());
    }

    // Reboot onto the frozen durable image; redo-only replay, never undo.
    link.follower.reopen()?;
    let fb = link.follower.store().durable_bytes();
    let lb = link.parts.store.durable_bytes();
    // Never-beyond-the-prefix: the reopened follower's log must be a byte
    // prefix of the leader's — recovery may lose a tail, never invent one.
    if fb.len() > lb.len() || fb[..] != lb[..fb.len()] {
        violations.push("[reopen] follower log is not a byte prefix of the leader's".into());
    }
    // History oracle at the reopened durable length.
    match reference_follower_fingerprint(&link.catalog, &fb, rcfg) {
        Ok((ref_fp, ref_len)) => {
            if ref_len != link.follower.durable_len() {
                violations.push(format!(
                    "[reopen] durable length {} != end {} of the prefix's last record",
                    link.follower.durable_len(),
                    ref_len
                ));
            }
            if ref_fp != link.follower.fingerprint()? {
                violations.push(
                    "[reopen] state at durable length != in-order replay of the prefix".into(),
                );
            }
        }
        Err(e) => violations.push(format!("reference follower replay failed: {e}")),
    }

    // Catch-up: the reopened follower's Hello renegotiates, the leader
    // resumes from the surviving prefix, and both sides converge
    // byte-identically.
    link.check_converged(800, "follower never caught back up after its crash", &mut violations)?;
    Ok(link.report(ReplEpisodeKind::FollowerCrash, crash_event, violations, &trace))
}

/// Partition/lag storm: a lossy fault plan plus seeded partition windows
/// at transaction boundaries. The follower falls behind, reconnects after
/// each heal, and must converge byte-identically once the workload ends.
pub fn run_partition_episode(
    cfg: &TortureConfig,
    rcfg: &ReplConfig,
    seed: u64,
) -> Result<ReplEpisodeReport> {
    let mut violations = Vec::new();
    let mut rcfg = rcfg.clone();
    // Async: a partitioned Sync link would spend the whole episode waiting
    // out ack budgets; lag tolerance is exactly what Async mode is for.
    rcfg.ship_mode = ShipMode::Async;
    rcfg.faults = ChannelFaults::lossy();
    let mut link = ReplLink::new(cfg, &rcfg, seed)?;
    if !link.converge(600)? {
        violations.push("initial catch-up never converged under loss".into());
    }
    // Two partition windows scattered over the workload.
    let mut rng = Rng::new(seed ^ 0x6b43_19f2_8c0d_55a1);
    let n = cfg.txns.max(4);
    let on1 = 1 + rng.below(n as u64 / 3 + 1) as usize;
    let len1 = 2 + rng.below(5) as usize;
    let on2 = (on1 + len1 + 1 + rng.below(n as u64 / 3 + 1) as usize).min(n - 2);
    let len2 = 1 + rng.below(4) as usize;
    let plan = vec![
        (on1, true),
        ((on1 + len1).min(on2.saturating_sub(1)), false),
        (on2, true),
        ((on2 + len2).min(n - 1), false),
    ];
    let trace = run_repl_workload(&mut link, &plan)?;
    link.channel.set_partitioned(false);
    link.check_converged(2000, "never converged after the partition healed", &mut violations)?;
    if link.channel.stats().partitions == 0 {
        violations.push("partition plan never severed the link".into());
    }
    Ok(link.report(ReplEpisodeKind::Partition, None, violations, &trace))
}

/// Fault-free follower event horizon: how many follower-clock events the
/// replicated workload spans after initial catch-up. Uses the same channel
/// seed and fault plan as the follower-crash episodes, so swept offsets
/// land on real events.
pub fn measure_follower_horizon(cfg: &TortureConfig, rcfg: &ReplConfig) -> Result<u64> {
    let mut link = ReplLink::new(cfg, rcfg, cfg.seed)?;
    link.converge(300)?;
    let base = link.follower.clock().events();
    let _ = run_repl_workload(&mut link, &[])?;
    Ok(link.follower.clock().events() - base)
}

/// Sweep the replication seams: leader crashes strided over the leader
/// horizon (every fourth with the old-leader rejoin drill), follower
/// crashes strided over the follower horizon (with duplicate/reorder
/// channel faults), seeded partition storms, and mid-batch pipeline
/// leader deaths (crash exactly between a group-commit batch's first and
/// last commit-record append, then promote).
pub fn run_replication_sweep(cfg: &TortureConfig, max_points: usize) -> Result<ReplSweepReport> {
    let mut report = ReplSweepReport::default();
    let rcfg = ReplConfig::default();
    report.horizon = torture::measure_horizon(cfg)?;
    if report.horizon == 0 || max_points == 0 {
        return Ok(report);
    }
    let leader_n = (max_points / 2).max(1);
    let follower_n = (max_points / 4).max(1);
    let partition_n = (max_points / 8).max(1);
    let mid_n = max_points.saturating_sub(leader_n + follower_n + partition_n).max(1);

    let absorb = |report: &mut ReplSweepReport, label: String, ep: &ReplEpisodeReport| {
        report.episodes += 1;
        report.repl_acked_commits += ep.repl_acked_commits;
        report.reconnects += ep.reconnects;
        report.snapshot_fallbacks += ep.snapshot_fallbacks;
        if ep.fenced_stale_leader {
            report.fences += 1;
        }
        for v in &ep.violations {
            report.violations.push((label.clone(), v.clone()));
        }
    };

    // Leader crashes.
    let mut leader_events = HashSet::new();
    for (i, offset) in torture::sample_offsets(report.horizon, leader_n).into_iter().enumerate() {
        let rejoin = i % 4 == 3;
        let ep = run_leader_crash_episode(cfg, &rcfg, offset, rejoin)?;
        report.promotions += 1;
        leader_events.extend(ep.crash_event);
        absorb(&mut report, format!("leader@{offset}"), &ep);
    }
    report.leader_crash_points = leader_events.len();

    // Follower crashes, with duplicate/reorder faults on the frame lane so
    // the crash points land inside replay-under-redelivery.
    let mut frcfg = rcfg.clone();
    frcfg.ship_mode = ShipMode::Async;
    frcfg.faults = ChannelFaults { dup_p: 0.15, reorder_p: 0.15, ..ChannelFaults::default() };
    report.follower_horizon = measure_follower_horizon(cfg, &frcfg)?;
    let mut follower_events = HashSet::new();
    for offset in torture::sample_offsets(report.follower_horizon, follower_n) {
        let ep = run_follower_crash_episode(cfg, &frcfg, offset)?;
        follower_events.extend(ep.crash_event);
        absorb(&mut report, format!("follower@{offset}"), &ep);
    }
    report.follower_crash_points = follower_events.len();

    // Partition storms, one per derived seed.
    for k in 0..partition_n {
        let seed = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k as u64 + 1);
        let ep = run_partition_episode(cfg, &rcfg, seed)?;
        report.partition_points += 1;
        absorb(&mut report, format!("partition#{seed:x}"), &ep);
    }

    // Mid-batch pipeline leader deaths: the ISSUE's headline case. The
    // probe fires between a batch's first and last commit-record append,
    // so the durable log holds a *partial* group when the follower is
    // promoted — and every sync-acked commit must still be served.
    let mid_cfg = TortureConfig { pipeline: true, ..cfg.clone() };
    let occurrences: Vec<u64> = torture::measure_probe_offsets(&mid_cfg, &MID_BATCH_PROBE)?
        .into_iter()
        .map(|(_, o)| o)
        .collect();
    let mut mid_events = HashSet::new();
    for off in torture::sample(&occurrences, mid_n) {
        let ep = run_leader_crash_episode(&mid_cfg, &rcfg, off, false)?;
        report.promotions += 1;
        mid_events.extend(ep.crash_event);
        if ep.violations.is_empty() {
            report.mid_batch_acked_survived += ep.repl_acked_commits;
        }
        absorb(&mut report, format!("mid-batch@{off}"), &ep);
    }
    report.mid_batch_points = mid_events.len();

    report.distinct_points = report.leader_crash_points
        + report.follower_crash_points
        + report.partition_points
        + report.mid_batch_points;
    Ok(report)
}

/// Outcome of the replication metrics determinism/sanity check.
#[derive(Clone, Debug)]
pub struct ReplMetricsCheckReport {
    /// Merged `repl.*` snapshot of the first run.
    pub snapshot: Snapshot,
    /// Violations; empty = metrics are well-formed and deterministic.
    pub violations: Vec<String>,
}

/// Run the fault-free replicated workload twice with identical seeds and
/// assert the merged `repl.*` snapshot (leader stream + follower + channel)
/// is structurally valid, byte-identical across runs, and reflects real
/// activity — lag gauges must read zero at convergence.
pub fn run_repl_metrics_check(cfg: &TortureConfig) -> Result<ReplMetricsCheckReport> {
    let rcfg = ReplConfig::default();
    let run_once = || -> Result<Snapshot> {
        let mut link = ReplLink::new(cfg, &rcfg, cfg.seed)?;
        link.converge(300)?;
        let _ = run_repl_workload(&mut link, &[])?;
        link.db.log().flush_all()?;
        link.converge(600)?;
        // Let trailing acks flow so the lag gauges settle.
        for _ in 0..6 {
            link.tick()?;
        }
        let mut s = link.stream.obs_snapshot();
        s.merge(link.follower.obs_snapshot());
        let cs = link.channel.stats();
        let mut c = Snapshot::default();
        c.counter("repl.channel.data_sent", cs.data_sent);
        c.counter("repl.channel.data_delivered", cs.data_delivered);
        c.counter("repl.channel.dropped", cs.dropped);
        c.counter("repl.channel.duplicated", cs.duplicated);
        c.counter("repl.channel.reordered", cs.reordered);
        c.counter("repl.channel.delayed", cs.delayed);
        c.counter("repl.channel.torn", cs.torn);
        c.counter("repl.channel.control_dropped", cs.control_dropped);
        c.counter("repl.channel.partitions", cs.partitions);
        s.merge(c);
        Ok(s)
    };
    let (a, mut violations) = torture::deterministic_snapshot(run_once)?;
    if a.counter_value("repl.leader.frames_shipped").unwrap_or(0) == 0 {
        violations.push("no frames shipped — replication not exercised".into());
    }
    if a.counter_value("repl.follower.records_applied").unwrap_or(0) == 0 {
        violations.push("no records applied — follower replay not exercised".into());
    }
    if a.counter_value("repl.follower.acks_sent").unwrap_or(0) == 0 {
        violations.push("no acks sent — the control lane is dead".into());
    }
    if a.gauge_value("repl.leader.lag_bytes").unwrap_or(-1) != 0 {
        violations.push("lag gauge non-zero at convergence".into());
    }
    match a.hist_value("repl.leader.ship_records") {
        Some(h) if h.count() > 0 => {}
        _ => violations.push("ship-records histogram empty".into()),
    }
    match a.hist_value("repl.follower.apply_records") {
        Some(h) if h.count() > 0 => {}
        _ => violations.push("apply-records histogram empty".into()),
    }
    Ok(ReplMetricsCheckReport { snapshot: a, violations })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> TortureConfig {
        TortureConfig { txns: 12, ..Default::default() }
    }

    #[test]
    fn fault_free_link_converges_and_matches_leader() {
        let cfg = quick_cfg();
        let rcfg = ReplConfig::default();
        let mut link = ReplLink::new(&cfg, &rcfg, 7).unwrap();
        assert!(link.converge(300).unwrap());
        let trace = run_repl_workload(&mut link, &[]).unwrap();
        assert_eq!(trace.base.acked_commits, 11);
        assert_eq!(trace.repl_acked_commits, 11, "sync acks missing: {trace:?}");
        link.db.log().flush_all().unwrap();
        assert!(link.converge(600).unwrap());
        assert_eq!(
            link.follower.store().durable_bytes(),
            link.parts.store.durable_bytes(),
            "logs not byte-identical after convergence"
        );
        assert_eq!(
            link.follower.fingerprint().unwrap(),
            torture::fingerprint(&link.db).unwrap()
        );
    }

    #[test]
    fn minmax_redo_ships_as_ordinary_records() {
        // MIN/MAX recompute rewrites carry no special replication handling:
        // with the gated workload on, the follower must still converge to
        // byte-identical logs and an identical recovered fingerprint.
        let cfg = TortureConfig { txns: 16, minmax: true, ..Default::default() };
        let rcfg = ReplConfig::default();
        let mut link = ReplLink::new(&cfg, &rcfg, 7).unwrap();
        assert!(link.converge(300).unwrap());
        let trace = run_repl_workload(&mut link, &[]).unwrap();
        assert!(trace.base.acked_commits > 0);
        link.db.log().flush_all().unwrap();
        assert!(link.converge(600).unwrap());
        assert_eq!(
            link.follower.store().durable_bytes(),
            link.parts.store.durable_bytes(),
            "logs not byte-identical after convergence"
        );
        assert_eq!(
            link.follower.fingerprint().unwrap(),
            torture::fingerprint(&link.db).unwrap()
        );
    }

    #[test]
    fn minmax_leader_crash_episode_promotes_cleanly() {
        let cfg = TortureConfig { txns: 16, minmax: true, ..Default::default() };
        let ep = run_leader_crash_episode(&cfg, &ReplConfig::default(), 40, false).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert!(ep.crash_event.is_some());
    }

    #[test]
    fn leader_crash_episode_promotes_cleanly() {
        let ep = run_leader_crash_episode(&quick_cfg(), &ReplConfig::default(), 40, false).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert!(ep.crash_event.is_some());
    }

    #[test]
    fn leader_crash_with_rejoin_fences_and_reconverges() {
        let ep = run_leader_crash_episode(&quick_cfg(), &ReplConfig::default(), 25, true).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert!(ep.fenced_stale_leader);
        assert!(ep.reconnects + ep.snapshot_fallbacks >= 1);
    }

    #[test]
    fn follower_crash_episode_reopens_and_catches_up() {
        let mut rcfg = ReplConfig::default();
        rcfg.ship_mode = ShipMode::Async;
        rcfg.faults = ChannelFaults { dup_p: 0.15, reorder_p: 0.15, ..ChannelFaults::default() };
        let horizon = measure_follower_horizon(&quick_cfg(), &rcfg).unwrap();
        assert!(horizon > 2, "follower horizon too small: {horizon}");
        let ep = run_follower_crash_episode(&quick_cfg(), &rcfg, horizon / 2).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert!(ep.crash_event.is_some());
    }

    #[test]
    fn partition_episode_converges_after_heal() {
        let ep = run_partition_episode(&quick_cfg(), &ReplConfig::default(), 11).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert!(ep.max_lag_bytes > 0, "partition never built lag");
    }

    #[test]
    fn repl_metrics_check_is_deterministic() {
        let report = run_repl_metrics_check(&quick_cfg()).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.snapshot.counter_value("repl.leader.frames_shipped").unwrap() > 0);
    }

    #[test]
    fn mini_replication_sweep_is_clean() {
        let report = run_replication_sweep(&quick_cfg(), 12).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.distinct_points >= 8, "only {} points", report.distinct_points);
        assert!(report.promotions > 0);
        assert!(report.fences > 0, "no rejoin drill fenced a stale leader");
        assert!(report.mid_batch_points > 0, "no mid-batch pipeline crash exercised");
    }
}
