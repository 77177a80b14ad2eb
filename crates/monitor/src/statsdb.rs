//! The estimates database between load monitors and schedule generator.
//!
//! In T-Storm the monitors write smoothed estimates into a database and
//! "the schedule generator periodically reads load information from the
//! database" — the decoupling that enables hot-swapping and flexible
//! deployment. [`StatsDb`] is that database.
//!
//! Storage is index-addressed and flat: workloads live in a dense
//! vector indexed by executor id (ids are minted sequentially), and
//! pair traffic lives in one array of `(from, to, estimate)` sorted by
//! `(from, to)`, the layout of a [`TrafficMatrix`]'s entries. Each
//! estimate is a bare `f64` — the EWMA's `Y`, already initialised by
//! its first sample — so a traffic entry is 16 bytes. A window is
//! applied by one linear walk of the estimates against the window's
//! key-ordered readings.
//!
//! The array sits behind an [`Arc`], and the matrix handed to the
//! scheduler shares it: the estimates are held once, even during a
//! solve. Every write goes through [`Arc::make_mut`], so it copies the
//! array only while a matrix handed out earlier is still alive, and
//! that matrix keeps the estimates of its own read.

use crate::ewma::blend;
use crate::snapshot::{pair_key, unpack_pair, WindowSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tstorm_sched::TrafficMatrix;
use tstorm_types::{ExecutorId, Mhz};

/// Estimates at or below this rate (tuples/s) are left out of the
/// traffic matrix.
const TRAFFIC_CUT: f64 = 1e-9;

/// The packed pair key of a traffic estimate, ordered as its
/// `(from, to)`.
fn key_of(&(from, to, _): &(ExecutorId, ExecutorId, f64)) -> u64 {
    pair_key(from, to)
}

/// Smoothed workload and traffic estimates for every executor and
/// executor pair observed so far, under the paper's EWMA
/// `Y ← αY + (1 − α)·Sample`.
pub struct StatsDb {
    alpha: f64,
    /// Workload estimates indexed by dense executor id; `None` = unknown.
    workloads: Vec<Option<f64>>,
    /// Traffic estimates `(from, to, Y)`, strictly increasing in
    /// `(from, to)`; shared with the matrices handed out.
    traffic: Arc<Vec<(ExecutorId, ExecutorId, f64)>>,
    windows_ingested: u64,
}

impl std::fmt::Debug for StatsDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsDb")
            .field("workloads", &self.workloads.iter().flatten().count())
            .field("traffic", &self.traffic.len())
            .field("windows_ingested", &self.windows_ingested)
            .finish()
    }
}

impl StatsDb {
    /// Creates an empty database smoothing with the paper's EWMA at the
    /// given estimation coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha must be within [0, 1], got {alpha}"
        );
        Self {
            alpha,
            workloads: Vec::new(),
            traffic: Arc::default(),
            windows_ingested: 0,
        }
    }

    /// Applies one monitoring window.
    ///
    /// Executors/pairs absent from the snapshot but present in the
    /// database receive a zero sample — an idle executor's estimate decays
    /// toward zero instead of staying stale, which matters when traffic
    /// shifts after a re-assignment.
    ///
    /// Every estimate takes exactly one update per window, so the walk
    /// order cannot change a result: each is the same `blend` a keyed
    /// lookup would apply.
    pub fn ingest(&mut self, snapshot: &WindowSnapshot) {
        let period_micros = snapshot.period().as_micros();
        let mut cpu = snapshot.cpu_readings().peekable();
        if let Some((last, _)) = snapshot.cpu_readings().last() {
            let len = last.as_usize() + 1;
            if len > self.workloads.len() {
                self.workloads.resize(len, None);
            }
        }
        for (idx, y) in self.workloads.iter_mut().enumerate() {
            match cpu.next_if(|(exec, _)| exec.as_usize() == idx) {
                Some((_, cycles)) => {
                    let mhz = Mhz::from_cycles_over(cycles, period_micros).get();
                    // The first sample initialises Y directly (see
                    // [`crate::Ewma`]).
                    *y = Some(y.map_or(mhz, |y| blend(self.alpha, y, mhz)));
                }
                None => {
                    if let Some(y) = y {
                        *y = blend(self.alpha, *y, 0.0);
                    }
                }
            }
        }

        // One forward walk updates every tracked pair in place and
        // counts the first-seen ones; a backward merge then opens their
        // slots, moving only the entries above the lowest new key.
        let secs = snapshot.period().as_secs_f64();
        let readings = snapshot.pair_readings();
        // Copied out of `self` and the `Arc`: the compiler cannot tell a
        // write to an estimate from a write to `self.alpha` or to the
        // array's own length and pointer, and would reload them for
        // every estimate.
        let alpha = self.alpha;
        let traffic = Arc::make_mut(&mut self.traffic);
        let mut next = 0;
        let mut fresh = 0;
        for entry in traffic.iter_mut() {
            let key = key_of(entry);
            while next < readings.len() && readings[next].0 < key {
                fresh += 1;
                next += 1;
            }
            let sample = match readings.get(next) {
                Some(&(k, tuples)) if k == key => {
                    next += 1;
                    tuples as f64 / secs
                }
                _ => 0.0,
            };
            entry.2 = blend(alpha, entry.2, sample);
        }
        fresh += readings.len() - next;
        self.windows_ingested += 1;

        let mut kept = traffic.len();
        let mut write = kept + fresh;
        traffic.resize(write, (ExecutorId::new(0), ExecutorId::new(0), 0.0));
        let traffic = traffic.as_mut_slice();
        for &(key, tuples) in readings.iter().rev() {
            if write == kept {
                // Every first-seen pair is placed; the rest is in place.
                break;
            }
            while kept > 0 && key_of(&traffic[kept - 1]) > key {
                kept -= 1;
                write -= 1;
                traffic[write] = traffic[kept];
            }
            if kept > 0 && key_of(&traffic[kept - 1]) == key {
                continue;
            }
            // The first sample initialises Y directly.
            write -= 1;
            let (from, to) = unpack_pair(key);
            traffic[write] = (from, to, tuples as f64 / secs);
        }
    }

    /// Estimated workload of every known executor (`l_i`), in executor
    /// order.
    #[must_use]
    pub fn executor_loads(&self) -> BTreeMap<ExecutorId, Mhz> {
        self.workloads
            .iter()
            .enumerate()
            .filter_map(|(i, y)| Some((ExecutorId::new(i as u32), Mhz::new(y.as_ref()?.max(0.0)))))
            .collect()
    }

    /// Estimated workload of one executor, zero if unknown.
    #[must_use]
    pub fn load_of(&self, executor: ExecutorId) -> Mhz {
        self.workloads
            .get(executor.as_usize())
            .copied()
            .flatten()
            .map_or(Mhz::ZERO, |v| Mhz::new(v.max(0.0)))
    }

    /// Estimated traffic matrix (`<r_ii'>`, tuples/second). Pairs whose
    /// estimate has decayed to (near) zero, 1e-9 or below, are omitted.
    ///
    /// While every estimate is above that cut, the matrix shares the
    /// database's own array: no estimate is copied, and a later
    /// [`StatsDb::ingest`] or retirement copies the array before it
    /// writes, so the matrix keeps this read's estimates. Otherwise the
    /// matrix is a filtered copy, already in key order.
    #[must_use]
    pub fn traffic_matrix(&self) -> TrafficMatrix {
        if self.traffic.iter().all(|(_, _, rate)| *rate > TRAFFIC_CUT) {
            return TrafficMatrix::from(Arc::clone(&self.traffic));
        }
        // Sized up front: growing by doubling would copy, and at the end
        // of a long scale run nearly every tracked pair is still live.
        let mut live = Vec::with_capacity(self.traffic.len());
        live.extend(
            self.traffic
                .iter()
                .filter(|(_, _, rate)| *rate > TRAFFIC_CUT),
        );
        TrafficMatrix::from(live)
    }

    /// Keeps the traffic estimates whose two executors both pass
    /// `keep`. The array is copied, if shared, only when a pair goes.
    fn retain_pairs(&mut self, keep: impl Fn(ExecutorId) -> bool) {
        let stays = |&(from, to, _): &(ExecutorId, ExecutorId, f64)| keep(from) && keep(to);
        if !self.traffic.iter().all(stays) {
            Arc::make_mut(&mut self.traffic).retain(stays);
        }
    }

    /// Removes every estimate touching the given executor (topology
    /// killed / executor retired).
    pub fn forget_executor(&mut self, executor: ExecutorId) {
        if let Some(y) = self.workloads.get_mut(executor.as_usize()) {
            *y = None;
        }
        self.retain_pairs(|id| id != executor);
    }

    /// Keeps only estimates touching the given executors — the bulk
    /// complement of [`StatsDb::forget_executor`], applied when a
    /// reassignment retires executors: stale workload entries and
    /// traffic pairs would otherwise keep steering the traffic-aware
    /// scheduler toward executors that no longer exist.
    pub fn retain_executors(&mut self, keep: &BTreeSet<ExecutorId>) {
        let mut kept = vec![false; keep.last().map_or(0, |e| e.as_usize() + 1)];
        for e in keep {
            kept[e.as_usize()] = true;
        }
        let kept = |id: usize| kept.get(id).copied().unwrap_or(false);
        for (idx, y) in self.workloads.iter_mut().enumerate() {
            if !kept(idx) {
                *y = None;
            }
        }
        self.retain_pairs(|id| kept(id.as_usize()));
    }

    /// Number of windows ingested so far — the schedule generator uses
    /// this to tell "no data yet" from "idle cluster".
    #[must_use]
    pub fn windows_ingested(&self) -> u64 {
        self.windows_ingested
    }

    /// True if no estimates exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.workloads.iter().all(Option::is_none) && self.traffic.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstorm_types::SimTime;

    fn e(i: u32) -> ExecutorId {
        ExecutorId::new(i)
    }

    fn snap(cpu: &[(u32, u64)], traffic: &[(u32, u32, u64)]) -> WindowSnapshot {
        let mut s = WindowSnapshot::new(SimTime::from_secs(20));
        for (ex, cycles) in cpu {
            s.record_cpu(e(*ex), *cycles);
        }
        for (f, t, n) in traffic {
            s.record_traffic(e(*f), e(*t), *n);
        }
        s
    }

    #[test]
    fn cpu_cycles_become_mhz() {
        let mut db = StatsDb::new(0.5);
        // 8e9 cycles over 20s = 400 MHz.
        db.ingest(&snap(&[(0, 8_000_000_000)], &[]));
        assert!((db.load_of(e(0)).get() - 400.0).abs() < 1e-9);
        assert_eq!(db.windows_ingested(), 1);
    }

    #[test]
    fn tuple_counts_become_rates() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[], &[(0, 1, 4000)]));
        let m = db.traffic_matrix();
        assert!((m.get(e(0), e(1)) - 200.0).abs() < 1e-9); // 4000/20s
    }

    #[test]
    fn ewma_smooths_across_windows() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[(0, 8_000_000_000)], &[])); // 400 MHz
        db.ingest(&snap(&[(0, 16_000_000_000)], &[])); // sample 800 MHz
                                                       // Y = 0.5*400 + 0.5*800 = 600.
        assert!((db.load_of(e(0)).get() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn absent_readings_decay_to_zero() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[(0, 8_000_000_000)], &[(0, 1, 4000)]));
        db.ingest(&snap(&[], &[]));
        assert!((db.load_of(e(0)).get() - 200.0).abs() < 1e-9);
        db.ingest(&snap(&[], &[]));
        db.ingest(&snap(&[], &[]));
        assert!(db.load_of(e(0)).get() < 100.0);
        // Traffic decays too and eventually drops out of the matrix.
        for _ in 0..40 {
            db.ingest(&snap(&[], &[]));
        }
        assert!(db.traffic_matrix().is_empty());
    }

    #[test]
    fn traffic_matrix_is_key_ordered_and_skips_decayed_pairs() {
        // Many senders sharing a few destinations (the ack pattern), in
        // an order unrelated to the packed keys.
        let mut db = StatsDb::new(0.5);
        let mut first = Vec::new();
        for from in (0..300u32).rev() {
            for to in [1000, 1001, 1002] {
                first.push((from, to, u64::from(from % 7 + 1)));
            }
        }
        db.ingest(&snap(&[], &first));
        // Only the even senders keep talking; the odd ones decay.
        let second: Vec<_> = first
            .iter()
            .copied()
            .filter(|(f, _, _)| f % 2 == 0)
            .collect();
        for _ in 0..45 {
            db.ingest(&snap(&[], &second));
        }
        let m = db.traffic_matrix();
        let got: Vec<_> = m
            .iter()
            .map(|(f, t, r)| (f.index(), t.index(), r))
            .collect();
        let want: Vec<_> = (0..300u32)
            .step_by(2)
            .flat_map(|f| [1000, 1001, 1002].map(|t| (f, t, f64::from(f % 7 + 1) / 20.0)))
            .collect();
        assert_eq!(got.len(), want.len());
        for ((f, t, r), (wf, wt, wr)) in got.into_iter().zip(want) {
            assert_eq!((f, t), (wf, wt));
            assert!((r - wr).abs() < 1e-9, "({f},{t}): {r} vs {wr}");
        }
    }

    #[test]
    fn traffic_matrix_shares_the_estimates_until_a_write() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[], &[(0, 1, 4000), (1, 2, 2000)]));
        let m = db.traffic_matrix();
        assert_eq!(Arc::strong_count(&db.traffic), 2, "one array, shared");
        // A retirement that drops no pair leaves it shared.
        db.retain_executors(&[e(0), e(1), e(2)].into_iter().collect());
        db.forget_executor(e(7));
        assert_eq!(Arc::strong_count(&db.traffic), 2);
        // An ingest writes to its own copy; the matrix keeps its read.
        db.ingest(&snap(&[], &[(0, 1, 8000)]));
        assert_eq!(Arc::strong_count(&db.traffic), 1);
        assert_eq!(m.get(e(0), e(1)), 200.0);
        assert_eq!(m.get(e(1), e(2)), 100.0);
        let later = db.traffic_matrix();
        assert_eq!(later.get(e(0), e(1)), 300.0);
        assert_eq!(later.get(e(1), e(2)), 50.0);
        // So does a retirement that drops a pair.
        db.forget_executor(e(2));
        assert_eq!(later.get(e(1), e(2)), 50.0);
        assert_eq!(db.traffic_matrix().get(e(1), e(2)), 0.0);
    }

    #[test]
    fn traffic_matrix_copies_when_an_estimate_is_cut() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[], &[(0, 1, 4000), (1, 2, 1)]));
        // 0.05 tuples/s halves in each of 26 silent windows to ~7.5e-10:
        // positive, but at or below the cut.
        for _ in 0..26 {
            db.ingest(&snap(&[], &[(0, 1, 4000)]));
        }
        let m = db.traffic_matrix();
        assert_eq!(Arc::strong_count(&db.traffic), 1, "a filtered copy");
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(e(0), e(1), 200.0)]);
        assert_eq!(db.traffic.len(), 2, "the pair is still tracked");
    }

    #[test]
    fn unknown_executor_has_zero_load() {
        let db = StatsDb::new(0.5);
        assert_eq!(db.load_of(e(9)), Mhz::ZERO);
        assert!(db.is_empty());
    }

    #[test]
    fn forget_executor_removes_estimates() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[(0, 1000), (1, 1000)], &[(0, 1, 10), (1, 0, 10)]));
        db.forget_executor(e(0));
        assert_eq!(db.load_of(e(0)), Mhz::ZERO);
        assert!(db.executor_loads().contains_key(&e(1)));
        assert!(db.traffic_matrix().is_empty());
    }

    #[test]
    fn retain_executors_drops_stale_pairs() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(
            &[(0, 1000), (1, 1000), (2, 1000)],
            &[(0, 1, 100), (1, 2, 100), (2, 0, 100)],
        ));
        let keep: BTreeSet<ExecutorId> = [e(0), e(1)].into_iter().collect();
        db.retain_executors(&keep);
        let m = db.traffic_matrix();
        assert!(m.get(e(0), e(1)) > 0.0, "kept pair survives");
        assert_eq!(m.get(e(1), e(2)), 0.0, "pair touching removed executor");
        assert_eq!(m.get(e(2), e(0)), 0.0, "pair touching removed executor");
        assert_eq!(db.load_of(e(2)), Mhz::ZERO);
        assert!(db.executor_loads().contains_key(&e(0)));
        assert!(db.executor_loads().contains_key(&e(1)));
    }

    #[test]
    fn executor_loads_iterate_in_id_order() {
        let mut db = StatsDb::new(0.5);
        db.ingest(&snap(&[(7, 1000), (2, 1000), (5, 1000)], &[]));
        let ids: Vec<u32> = db.executor_loads().keys().map(|e| e.index()).collect();
        assert_eq!(ids, vec![2, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "alpha must be within")]
    fn invalid_alpha_panics() {
        let _ = StatsDb::new(-0.1);
    }
}
