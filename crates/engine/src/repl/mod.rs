//! WAL-shipping replication: read-only followers, crash-recovery failover,
//! and the partition/lag torture harness around them.
//!
//! The design reuses what the engine already proves correct elsewhere:
//!
//! * the **leader** streams frames cut from its *durable* log — a frame is
//!   a run of consecutive framed log records, each under its own checksum,
//!   so the follower's log grows as a byte-identical prefix of the
//!   leader's;
//! * the **follower** replays frames through the same
//!   [`txview_wal::recovery::redo_record`] path crash recovery uses, after
//!   making the frame bytes durable in its own log (WAL-before-data holds
//!   on the follower for free), and advances its durable length — the
//!   offset the next frame must start at, every LSN below it replayed;
//! * **catch-up** is a `Hello(durable_len, log_checksum)`
//!   negotiation: the leader resumes from the follower's durable length
//!   when the checksum proves the follower holds a true prefix, and falls
//!   back to shipping a full snapshot when the logs diverged (an old
//!   leader re-joining after failover);
//! * **promotion** is ordinary ARIES recovery over the follower's shipped
//!   prefix, plus an epoch (term) bump persisted in the master record —
//!   a demoted leader's frames carry the stale epoch, are rejected, and
//!   the rejection fences the old leader through the PR 2 health machine.
//!
//! The transport is an in-process channel with `FaultDisk`-style seeded
//! fault injection (drop, delay, duplicate, reorder, torn frame,
//! partition), so every protocol seam is sweepable deterministically.

mod channel;
mod follower;
mod frame;
mod leader;
mod torture;

pub use channel::{ChannelFaults, ChannelStatsSnapshot, ReplChannel};
pub use follower::{Follower, IngestOutcome};
pub use frame::{Frame, Message};
pub use leader::ReplicationStream;
pub use torture::{
    measure_follower_horizon, run_follower_crash_episode, run_leader_crash_episode,
    run_partition_episode,
    run_repl_metrics_check, run_replication_sweep, ReplEpisodeKind, ReplEpisodeReport,
    ReplMetricsCheckReport, ReplSweepReport,
};

/// When is a leader commit acknowledged to its client?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShipMode {
    /// Ack only after the follower has durably acked the commit's LSN.
    /// Every acked commit must survive leader loss.
    Sync,
    /// Ack at local durability; the follower trails. Leader loss may lose
    /// the un-shipped suffix, but never an already-acked *shipped* prefix.
    Async,
}

/// Tuning knobs for one replication link (leader + channel + follower).
#[derive(Clone, Debug)]
pub struct ReplConfig {
    /// Commit-ack discipline.
    pub ship_mode: ShipMode,
    /// Max records per shipped frame.
    pub max_batch: usize,
    /// Max un-acked bytes in flight before the leader pauses shipping.
    pub window_bytes: u64,
    /// Consecutive no-progress pumps before the leader rewinds its ship
    /// cursor to the acked offset (go-back-N retransmit).
    pub stall_pumps: u32,
    /// Consecutive empty drains before the follower re-sends `Hello`
    /// (reconnect negotiation after loss or partition heal).
    pub hello_after: u32,
    /// Max out-of-order frames the follower buffers while waiting for the
    /// gap to fill; beyond this, early frames are dropped (retransmit
    /// recovers them).
    pub reorder_buffer: usize,
    /// Pump rounds a `Sync`-mode commit waits for its follower ack before
    /// the harness gives up acking it.
    pub sync_ack_budget: u32,
    /// Follower database pool size.
    pub pool_pages: usize,
    /// Seeded channel fault plan.
    pub faults: ChannelFaults,
}

impl Default for ReplConfig {
    fn default() -> ReplConfig {
        ReplConfig {
            ship_mode: ShipMode::Sync,
            max_batch: 8,
            window_bytes: 1 << 16,
            stall_pumps: 4,
            hello_after: 6,
            reorder_buffer: 16,
            sync_ack_budget: 64,
            pool_pages: 64,
            faults: ChannelFaults::default(),
        }
    }
}
