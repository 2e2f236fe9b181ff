//! The in-process replication transport, with `FaultDisk`-style seeded
//! fault injection on the frame lane: drop, delay, duplicate, reorder,
//! torn frame, and partition. All decisions come from one seeded [`Rng`],
//! so a single-threaded harness replays the identical fault sequence from
//! the identical seed.

use super::frame::Message;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use txview_common::rng::Rng;

/// Per-frame fault probabilities, drawn in a fixed order per send so the
/// fault plan is a pure function of the channel seed.
#[derive(Clone, Copy, Debug)]
pub struct ChannelFaults {
    /// Frame silently lost.
    pub drop_p: f64,
    /// Frame delivered twice.
    pub dup_p: f64,
    /// Frame delivered ahead of an earlier undelivered frame.
    pub reorder_p: f64,
    /// Frame held back for a few delivery rounds.
    pub delay_p: f64,
    /// One payload byte flipped (the records' checksums must catch it).
    pub torn_p: f64,
}

impl Default for ChannelFaults {
    fn default() -> ChannelFaults {
        ChannelFaults { drop_p: 0.0, dup_p: 0.0, reorder_p: 0.0, delay_p: 0.0, torn_p: 0.0 }
    }
}

impl ChannelFaults {
    /// A lossy plan exercising every fault class at once.
    pub fn lossy() -> ChannelFaults {
        ChannelFaults { drop_p: 0.10, dup_p: 0.10, reorder_p: 0.10, delay_p: 0.10, torn_p: 0.05 }
    }
}

/// Counter snapshot of what the channel injected.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelStatsSnapshot {
    /// Data-lane messages offered for send.
    pub data_sent: u64,
    /// Data-lane messages delivered to the follower.
    pub data_delivered: u64,
    /// Frames dropped (fault plan or partition).
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames queued out of order.
    pub reordered: u64,
    /// Frames held back by the delay fault.
    pub delayed: u64,
    /// Frames with a payload byte flipped.
    pub torn: u64,
    /// Control-lane messages lost to a partition.
    pub control_dropped: u64,
    /// Partition onsets observed.
    pub partitions: u64,
}

/// Bidirectional in-process link: a faulty data lane (leader → follower)
/// and a lossless-but-partitionable control lane (follower → leader).
pub struct ReplChannel {
    faults: ChannelFaults,
    rng: Mutex<Rng>,
    partitioned: AtomicBool,
    data: Mutex<VecDeque<Message>>,
    delayed: Mutex<Vec<(u32, Message)>>,
    control: Mutex<VecDeque<Message>>,
    data_sent: AtomicU64,
    data_delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    delayed_count: AtomicU64,
    torn: AtomicU64,
    control_dropped: AtomicU64,
    partitions: AtomicU64,
}

impl ReplChannel {
    /// New channel with `faults` driven by `seed`.
    pub fn new(faults: ChannelFaults, seed: u64) -> ReplChannel {
        ReplChannel {
            faults,
            rng: Mutex::new(Rng::new(seed ^ 0x8d1f_3b72_a6c4_5e09)),
            partitioned: AtomicBool::new(false),
            data: Mutex::new(VecDeque::new()),
            delayed: Mutex::new(Vec::new()),
            control: Mutex::new(VecDeque::new()),
            data_sent: AtomicU64::new(0),
            data_delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            delayed_count: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            control_dropped: AtomicU64::new(0),
            partitions: AtomicU64::new(0),
        }
    }

    /// Sever the link (both lanes) or heal it. While partitioned, sends on
    /// either lane are lost and nothing is delivered; already-queued
    /// messages survive and flow again after the heal.
    pub fn set_partitioned(&self, on: bool) {
        let was = self.partitioned.swap(on, Ordering::SeqCst);
        if on && !was {
            self.partitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Is the link currently severed?
    pub fn is_partitioned(&self) -> bool {
        self.partitioned.load(Ordering::SeqCst)
    }

    /// Leader → follower. Frames go through the fault plan; snapshots are
    /// a reliable bulk transfer (only a partition stops them).
    pub fn send_data(&self, msg: Message) {
        self.data_sent.fetch_add(1, Ordering::Relaxed);
        if self.is_partitioned() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut msg = msg;
        if let Message::Frame(ref mut frame) = msg {
            // Fixed draw order — drop, torn, dup, delay, reorder — keeps
            // the plan a pure function of the seed and the send sequence.
            let mut rng = self.rng.lock();
            if rng.chance(self.faults.drop_p) {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if rng.chance(self.faults.torn_p) && !frame.payload.is_empty() {
                let idx = rng.below(frame.payload.len() as u64) as usize;
                frame.payload[idx] ^= 0x5A;
                self.torn.fetch_add(1, Ordering::Relaxed);
            }
            let dup = rng.chance(self.faults.dup_p);
            let delay = rng.chance(self.faults.delay_p);
            let reorder = rng.chance(self.faults.reorder_p);
            if delay {
                let rounds = 1 + rng.below(3) as u32;
                drop(rng);
                self.delayed_count.fetch_add(1, Ordering::Relaxed);
                self.delayed.lock().push((rounds, msg.clone()));
                if !dup {
                    return;
                }
                // The duplicate still travels immediately.
                self.data.lock().push_back(msg);
                self.duplicated.fetch_add(1, Ordering::Relaxed);
                return;
            }
            drop(rng);
            let mut q = self.data.lock();
            if reorder && !q.is_empty() {
                // Jump the queue: delivered before an earlier frame.
                q.push_front(msg.clone());
                self.reordered.fetch_add(1, Ordering::Relaxed);
            } else {
                q.push_back(msg.clone());
            }
            if dup {
                q.push_back(msg);
                self.duplicated.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        self.data.lock().push_back(msg);
    }

    /// Follower side: deliver the next data-lane message, after promoting
    /// any delay-expired frames back into the queue. Returns `None` while
    /// partitioned or when nothing is deliverable.
    pub fn recv_data(&self) -> Option<Message> {
        if self.is_partitioned() {
            return None;
        }
        {
            let mut delayed = self.delayed.lock();
            if !delayed.is_empty() {
                let mut ready = Vec::new();
                delayed.retain_mut(|(rounds, msg)| {
                    if *rounds <= 1 {
                        ready.push(msg.clone());
                        false
                    } else {
                        *rounds -= 1;
                        true
                    }
                });
                let mut q = self.data.lock();
                for m in ready {
                    q.push_back(m);
                }
            }
        }
        let out = self.data.lock().pop_front();
        if out.is_some() {
            self.data_delivered.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Follower → leader. Lossless except under a partition.
    pub fn send_control(&self, msg: Message) {
        if self.is_partitioned() {
            self.control_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.control.lock().push_back(msg);
    }

    /// Leader side: drain every pending control message.
    pub fn recv_control(&self) -> Vec<Message> {
        if self.is_partitioned() {
            return Vec::new();
        }
        self.control.lock().drain(..).collect()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ChannelStatsSnapshot {
        ChannelStatsSnapshot {
            data_sent: self.data_sent.load(Ordering::Relaxed),
            data_delivered: self.data_delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            delayed: self.delayed_count.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
            control_dropped: self.control_dropped.load(Ordering::Relaxed),
            partitions: self.partitions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::Frame;
    use super::*;

    fn frame(n: u64) -> Message {
        Message::Frame(Frame::new(1, n, vec![n as u8; 4]))
    }

    #[test]
    fn lossless_channel_is_fifo() {
        let ch = ReplChannel::new(ChannelFaults::default(), 1);
        ch.send_data(frame(1));
        ch.send_data(frame(2));
        assert_eq!(ch.recv_data(), Some(frame(1)));
        assert_eq!(ch.recv_data(), Some(frame(2)));
        assert_eq!(ch.recv_data(), None);
    }

    #[test]
    fn partition_drops_sends_and_blocks_delivery() {
        let ch = ReplChannel::new(ChannelFaults::default(), 1);
        ch.send_data(frame(1));
        ch.set_partitioned(true);
        ch.send_data(frame(2));
        assert_eq!(ch.recv_data(), None);
        ch.set_partitioned(false);
        // The pre-partition frame survived; the mid-partition one is gone.
        assert_eq!(ch.recv_data(), Some(frame(1)));
        assert_eq!(ch.recv_data(), None);
        assert_eq!(ch.stats().dropped, 1);
        assert_eq!(ch.stats().partitions, 1);
    }

    #[test]
    fn same_seed_same_fault_plan() {
        let run = |seed: u64| {
            let ch = ReplChannel::new(ChannelFaults::lossy(), seed);
            for i in 0..200 {
                ch.send_data(frame(i));
            }
            let mut got = Vec::new();
            while let Some(m) = ch.recv_data() {
                got.push(m);
            }
            let s = ch.stats();
            (got.len(), s.dropped, s.duplicated, s.reordered, s.torn)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn delayed_frames_surface_after_rounds() {
        let faults = ChannelFaults { delay_p: 1.0, ..ChannelFaults::default() };
        let ch = ReplChannel::new(faults, 3);
        ch.send_data(frame(1));
        // Every frame is delayed 1–3 rounds; draining repeatedly must
        // surface it within that bound.
        let mut seen = false;
        for _ in 0..4 {
            if ch.recv_data().is_some() {
                seen = true;
                break;
            }
        }
        assert!(seen, "delayed frame never surfaced");
    }
}
