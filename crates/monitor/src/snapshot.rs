//! One monitoring window's raw readings.
//!
//! Readings are kept as key-ordered flat arrays: the engine's counters
//! hand them over in key order, so each record is an append, and
//! [`crate::StatsDb::ingest`] walks them against its own key-ordered
//! estimates without hashing or re-sorting.

use tstorm_types::{ExecutorId, SimTime};

/// Packs a directed executor pair into one key whose numeric order
/// equals (`from`, then `to`) order.
#[inline]
pub(crate) fn pair_key(from: ExecutorId, to: ExecutorId) -> u64 {
    (u64::from(from.index()) << 32) | u64::from(to.index())
}

/// The inverse of [`pair_key`].
#[inline]
pub(crate) fn unpack_pair(key: u64) -> (ExecutorId, ExecutorId) {
    (
        ExecutorId::new((key >> 32) as u32),
        ExecutorId::new(key as u32),
    )
}

/// Adds `amount` to `key`'s reading in a key-ordered array: an append
/// when `key` sorts after every held key, a binary-search insert
/// otherwise.
fn accumulate<K: Ord + Copy>(readings: &mut Vec<(K, u64)>, key: K, amount: u64) {
    match readings.last_mut() {
        Some(last) if last.0 == key => last.1 += amount,
        Some(last) if last.0 > key => match readings.binary_search_by_key(&key, |r| r.0) {
            Ok(i) => readings[i].1 += amount,
            Err(i) => readings.insert(i, (key, amount)),
        },
        _ => readings.push((key, amount)),
    }
}

/// The instantaneous readings of one monitoring period — what the per-node
/// load monitor daemons observe before EWMA smoothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowSnapshot {
    period: SimTime,
    /// Cycles per executor, in executor order.
    executor_cycles: Vec<(ExecutorId, u64)>,
    /// Tuples per directed pair, in packed-key order.
    pair_tuples: Vec<(u64, u64)>,
}

impl WindowSnapshot {
    /// Creates an empty snapshot covering `period` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(period: SimTime) -> Self {
        assert!(period > SimTime::ZERO, "period must be non-zero");
        Self {
            period,
            executor_cycles: Vec::new(),
            pair_tuples: Vec::new(),
        }
    }

    /// The covered period.
    #[must_use]
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// Accumulates CPU cycles consumed by an executor during the window
    /// (the JMX `getThreadCpuTime` equivalent).
    pub fn record_cpu(&mut self, executor: ExecutorId, cycles: u64) {
        accumulate(&mut self.executor_cycles, executor, cycles);
    }

    /// Accumulates tuples sent from one executor to another during the
    /// window.
    pub fn record_traffic(&mut self, from: ExecutorId, to: ExecutorId, tuples: u64) {
        accumulate(&mut self.pair_tuples, pair_key(from, to), tuples);
    }

    /// Per-executor cycles, in executor order.
    pub fn cpu_readings(&self) -> impl Iterator<Item = (ExecutorId, u64)> + '_ {
        self.executor_cycles.iter().copied()
    }

    /// Per-pair tuple counts by packed pair key, in key order.
    pub(crate) fn pair_readings(&self) -> &[(u64, u64)] {
        &self.pair_tuples
    }

    /// True if the window observed nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.executor_cycles.is_empty() && self.pair_tuples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> ExecutorId {
        ExecutorId::new(i)
    }

    #[test]
    fn records_accumulate() {
        let mut s = WindowSnapshot::new(SimTime::from_secs(20));
        s.record_cpu(e(0), 100);
        s.record_cpu(e(0), 50);
        s.record_traffic(e(0), e(1), 10);
        s.record_traffic(e(0), e(1), 5);
        assert_eq!(s.cpu_readings().collect::<Vec<_>>(), vec![(e(0), 150)]);
        assert_eq!(s.pair_readings(), [(pair_key(e(0), e(1)), 15)]);
        assert!(!s.is_empty());
    }

    #[test]
    fn out_of_order_records_insert_and_accumulate_in_key_order() {
        let mut s = WindowSnapshot::new(SimTime::from_secs(20));
        for (f, t, n) in [
            (2, 0, 1),
            (0, 5, 2),
            (2, 0, 3),
            (1, 1, 4),
            (0, 5, 5),
            (3, 0, 6),
        ] {
            s.record_traffic(e(f), e(t), n);
        }
        for (ex, c) in [(4, 10), (1, 20), (4, 30), (0, 40)] {
            s.record_cpu(e(ex), c);
        }
        assert_eq!(
            s.pair_readings(),
            [
                (pair_key(e(0), e(5)), 7),
                (pair_key(e(1), e(1)), 4),
                (pair_key(e(2), e(0)), 4),
                (pair_key(e(3), e(0)), 6)
            ]
        );
        assert_eq!(
            s.cpu_readings().collect::<Vec<_>>(),
            vec![(e(0), 40), (e(1), 20), (e(4), 40)]
        );
    }

    #[test]
    fn empty_snapshot() {
        let s = WindowSnapshot::new(SimTime::from_secs(20));
        assert!(s.is_empty());
        assert_eq!(s.period(), SimTime::from_secs(20));
    }

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_period_panics() {
        let _ = WindowSnapshot::new(SimTime::ZERO);
    }
}
