//! The open-loop schedule: every operation has a due time fixed up front
//! from the offered rate. Latency is measured from the due time, so a stall
//! is charged to every operation it delays, and the generator reports how
//! late it ran itself.

use std::time::{Duration, Instant};

/// A fixed-interval schedule for one generator thread.
pub struct Pacer {
    first: Instant,
    interval: Duration,
    tick: u64,
}

impl Pacer {
    /// `rate` operations per second for this thread, the first one due at
    /// `first` (callers phase-shift their threads so arrivals interleave).
    pub fn new(first: Instant, rate: f64) -> Pacer {
        Pacer {
            first,
            interval: Duration::from_secs_f64(1.0 / rate),
            tick: 0,
        }
    }

    /// Due time of the next operation.
    pub fn next_due(&mut self) -> Instant {
        let due = self.first + self.interval.mul_f64(self.tick as f64);
        self.tick += 1;
        due
    }
}

/// Wait until `due`; returns how late the caller resumes, in nanoseconds.
///
/// The wait yields the processor in a loop and never sleeps: a sleeping
/// generator wakes 60–90 us late on the reference host, and a sleeping
/// virtual CPU makes every wake-up along the request's path cost what the
/// hypervisor charges that minute, which is the noisiest part of a
/// loopback round trip. Yielding keeps the generator on time and lets any
/// runnable server thread run first.
pub fn wait_until(due: Instant) -> u64 {
    while Instant::now() < due {
        std::thread::yield_now();
    }
    Instant::now().saturating_duration_since(due).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_up_front() {
        let t0 = Instant::now();
        let mut p = Pacer::new(t0, 1000.0);
        assert_eq!(p.next_due(), t0);
        assert_eq!(p.next_due(), t0 + Duration::from_millis(1));
        assert_eq!(p.next_due(), t0 + Duration::from_millis(2));
    }

    #[test]
    fn waiting_never_returns_early() {
        let due = Instant::now() + Duration::from_micros(300);
        wait_until(due);
        assert!(Instant::now() >= due);
    }
}
