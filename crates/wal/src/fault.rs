//! Fault-injecting [`LogStore`]: the WAL-side twin of
//! `txview_storage::fault::FaultDisk`, sharing the same [`FaultClock`].
//!
//! Appends and syncs tick the clock; once a crash fires, the first
//! mutation freezes the durable bytes (and master pointer) and later
//! appends land only in the doomed live state. A torn append keeps a
//! prefix of the group-flush buffer — the torn tail that
//! `LogManager::read_durable_from` must stop at cleanly.
//!
//! The store can also model a *slow* device: [`FaultLogStore::set_sync_latency`]
//! spins each sync for a seeded pseudo-random number of microseconds, which
//! is what makes group-commit overlap (one fsync absorbing many commits)
//! measurable on hosts where the in-memory sync would otherwise be free.

use crate::log::{LogStore, LOG_HEADER};
use parking_lot::Mutex;
use std::sync::Arc;
use txview_common::rng::Rng;
use txview_common::{Error, Lsn, Result};
use txview_storage::fault::{FaultClock, FaultDecision, FaultPoint};

#[derive(Clone)]
struct LogState {
    bytes: Vec<u8>,
    master: Lsn,
    epoch: u64,
}

/// Seeded synthetic sync latency: `base_us` plus up to `jitter_us` of
/// deterministic pseudo-random jitter per sync.
struct SyncLatency {
    base_us: u64,
    jitter_us: u64,
    rng: Rng,
}

struct LogShared {
    clock: Arc<FaultClock>,
    live: Mutex<LogState>,
    frozen: Mutex<Option<LogState>>,
    sync_latency: Mutex<Option<SyncLatency>>,
}

/// Fault-injecting in-memory log store. Cloning yields a handle to the
/// same store, so the torture harness keeps one across the `Database`'s
/// lifetime and calls [`FaultLogStore::crash_restore`] after dropping it.
#[derive(Clone)]
pub struct FaultLogStore {
    inner: Arc<LogShared>,
}

impl FaultLogStore {
    /// New store ticking `clock`, holding only the log header (placed
    /// without a clock event).
    pub fn new(clock: Arc<FaultClock>) -> FaultLogStore {
        FaultLogStore {
            inner: Arc::new(LogShared {
                clock,
                live: Mutex::new(LogState {
                    bytes: LOG_HEADER.to_vec(),
                    master: Lsn::NULL,
                    epoch: 0,
                }),
                frozen: Mutex::new(None),
                sync_latency: Mutex::new(None),
            }),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &Arc<FaultClock> {
        &self.inner.clock
    }

    /// Make each sync spin for `base_us` plus a seeded jitter in
    /// `[0, jitter_us]` microseconds of wall time, modelling a real fsync
    /// on a device with that latency profile. Pass `base_us = 0,
    /// jitter_us = 0` to turn the latency back off.
    pub fn set_sync_latency(&self, base_us: u64, jitter_us: u64, seed: u64) {
        let mut slot = self.inner.sync_latency.lock();
        *slot = if base_us == 0 && jitter_us == 0 {
            None
        } else {
            Some(SyncLatency { base_us, jitter_us, rng: Rng::new(seed ^ 0x5f3c_9a1d_77e4_0b25) })
        };
    }

    fn maybe_freeze(&self) {
        if self.inner.clock.fired() {
            let mut frozen = self.inner.frozen.lock();
            if frozen.is_none() {
                *frozen = Some(self.inner.live.lock().clone());
            }
        }
    }

    /// Reboot onto the durable bytes: discard everything appended after
    /// the crash point. Returns whether a frozen image existed.
    pub fn crash_restore(&self) -> bool {
        match self.inner.frozen.lock().take() {
            Some(f) => {
                *self.inner.live.lock() = f;
                true
            }
            None => false,
        }
    }

    /// Replace the durable contents wholesale: log bytes, master pointer,
    /// and epoch, discarding any frozen crash image. This is the
    /// snapshot-install path on a follower whose log has diverged from the
    /// leader's — resuming frame-by-frame is impossible, so the whole
    /// durable state is shipped and installed atomically.
    pub fn install_snapshot(&self, bytes: Vec<u8>, master: Lsn, epoch: u64) {
        *self.inner.frozen.lock() = None;
        *self.inner.live.lock() = LogState { bytes, master, epoch };
    }

    /// Length of the log in bytes, header included.
    pub fn durable_len(&self) -> u64 {
        self.inner.live.lock().bytes.len() as u64
    }

    /// Raw durable bytes (the whole log), for shipping a snapshot or
    /// fingerprinting byte-identical convergence.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.inner.live.lock().bytes.clone()
    }
}

fn transient_io_error() -> Error {
    Error::IoTransient(std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        "injected transient i/o fault",
    ))
}

impl LogStore for FaultLogStore {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        let decision = self.inner.clock.tick(FaultPoint::LogAppend);
        self.maybe_freeze();
        match decision {
            FaultDecision::TransientError => Err(transient_io_error()),
            FaultDecision::Tear => {
                // Half the group-flush buffer reached the disk; the framed
                // decoder must stop cleanly at this torn tail.
                let keep = bytes.len() / 2;
                self.inner.live.lock().bytes.extend_from_slice(&bytes[..keep]);
                Ok(())
            }
            FaultDecision::Proceed => {
                self.inner.live.lock().bytes.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn sync(&self) -> Result<()> {
        let decision = self.inner.clock.tick(FaultPoint::LogSync);
        self.maybe_freeze();
        if decision == FaultDecision::TransientError {
            return Err(transient_io_error());
        }
        let spin_us = {
            let mut slot = self.inner.sync_latency.lock();
            slot.as_mut().map(|l| l.base_us + l.rng.below(l.jitter_us + 1))
        };
        if let Some(us) = spin_us {
            // Timed loop rather than sleep: sub-millisecond sleeps are
            // rounded up by the OS scheduler. But yield inside the loop —
            // a real fsync is a *blocking* syscall, so during the device
            // wait the core belongs to other runnable threads (on a small
            // host, exactly the committers group commit wants to batch
            // behind the in-flight sync). A pure spin starves them and
            // inverts every serial-vs-pipelined comparison measured on
            // fewer cores than committers.
            let start = std::time::Instant::now();
            while (start.elapsed().as_micros() as u64) < us {
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    fn len_bytes(&self) -> Result<u64> {
        Ok(self.durable_len())
    }

    fn read_from(&self, offset: u64) -> Result<Vec<u8>> {
        let st = self.inner.live.lock();
        Ok(st.bytes[(offset as usize).min(st.bytes.len())..].to_vec())
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let st = self.inner.live.lock();
        let start = (offset as usize).min(st.bytes.len());
        Ok(st.bytes[start..(start + len).min(st.bytes.len())].to_vec())
    }

    fn set_master(&self, lsn: Lsn) -> Result<()> {
        let decision = self.inner.clock.tick(FaultPoint::MasterWrite);
        self.maybe_freeze();
        if decision == FaultDecision::TransientError {
            return Err(transient_io_error());
        }
        self.inner.live.lock().master = lsn;
        Ok(())
    }

    fn get_master(&self) -> Result<Lsn> {
        Ok(self.inner.live.lock().master)
    }

    fn set_epoch(&self, epoch: u64) -> Result<()> {
        // Epoch bumps ride the master-write durability seam: a promotion is
        // not real until the term number reaches stable storage.
        let decision = self.inner.clock.tick(FaultPoint::MasterWrite);
        self.maybe_freeze();
        if decision == FaultDecision::TransientError {
            return Err(transient_io_error());
        }
        self.inner.live.lock().epoch = epoch;
        Ok(())
    }

    fn get_epoch(&self) -> Result<u64> {
        Ok(self.inner.live.lock().epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txview_storage::fault::{FaultKind, FaultSchedule};

    #[test]
    fn crash_freezes_appended_prefix() {
        let clock = FaultClock::new();
        let store = FaultLogStore::new(Arc::clone(&clock));
        store.append(b"before").unwrap();
        clock.arm(&FaultSchedule::crash_at(0));
        store.append(b"doomed").unwrap();
        assert_eq!(store.read_from(8).unwrap(), b"beforedoomed");
        assert!(store.crash_restore());
        assert_eq!(store.read_from(8).unwrap(), b"before");
    }

    #[test]
    fn torn_append_keeps_half() {
        let clock = FaultClock::new();
        let store = FaultLogStore::new(Arc::clone(&clock));
        clock.arm(&FaultSchedule { faults: vec![(0, FaultKind::TornWrite)] });
        store.append(b"abcdef").unwrap();
        assert_eq!(store.read_from(8).unwrap(), b"abc");
    }

    #[test]
    fn master_pointer_is_frozen_with_bytes() {
        let clock = FaultClock::new();
        let store = FaultLogStore::new(Arc::clone(&clock));
        store.set_master(Lsn(8)).unwrap();
        clock.arm(&FaultSchedule::crash_at(0));
        store.set_master(Lsn(90)).unwrap();
        assert_eq!(store.get_master().unwrap(), Lsn(90));
        assert!(store.crash_restore());
        assert_eq!(store.get_master().unwrap(), Lsn(8));
    }

    #[test]
    fn epoch_is_frozen_and_restored_with_the_crash_image() {
        let clock = FaultClock::new();
        let store = FaultLogStore::new(Arc::clone(&clock));
        store.set_epoch(3).unwrap();
        clock.arm(&FaultSchedule::crash_at(0));
        store.set_epoch(9).unwrap();
        assert_eq!(store.get_epoch().unwrap(), 9);
        assert!(store.crash_restore());
        assert_eq!(store.get_epoch().unwrap(), 3);
    }

    #[test]
    fn install_snapshot_replaces_everything() {
        let clock = FaultClock::new();
        let store = FaultLogStore::new(Arc::clone(&clock));
        store.append(b"old").unwrap();
        store.set_master(Lsn(8)).unwrap();
        store.install_snapshot(b"new-bytes".to_vec(), Lsn(70), 2);
        assert_eq!(store.read_from(0).unwrap(), b"new-bytes");
        assert_eq!(store.get_master().unwrap(), Lsn(70));
        assert_eq!(store.get_epoch().unwrap(), 2);
    }

    #[test]
    fn seeded_sync_latency_is_deterministic_in_sequence() {
        let clock = FaultClock::new();
        let a = FaultLogStore::new(Arc::clone(&clock));
        a.set_sync_latency(5, 10, 42);
        // The latency plan is a pure function of the seed; two stores with
        // the same seed draw the same jitter sequence. We can't observe the
        // spin directly without timing flakiness, so check the plan by
        // drawing from an identically-seeded Rng.
        let mut expect = Rng::new(42 ^ 0x5f3c_9a1d_77e4_0b25);
        let first = 5 + expect.below(11);
        assert!(first >= 5 && first <= 15);
        // And syncing still succeeds with latency armed.
        a.sync().unwrap();
        a.set_sync_latency(0, 0, 0);
        a.sync().unwrap();
    }
}
