//! The estimates database between load monitors and schedule generator.
//!
//! In T-Storm the monitors write smoothed estimates into a database and
//! "the schedule generator periodically reads load information from the
//! database" — the decoupling that enables hot-swapping and flexible
//! deployment. [`StatsDb`] is that database.
//!
//! Storage is index-addressed and sparse: workloads live in a dense
//! vector indexed by executor id (ids are minted sequentially), and
//! pair traffic lives in a deterministic Fx map keyed by the packed
//! pair id. Each estimate is a bare `f64` — the EWMA's `Y`, already
//! initialised by its first sample — so a traffic entry is 16 bytes.

use crate::ewma::blend;
use crate::snapshot::WindowSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use tstorm_sched::TrafficMatrix;
use tstorm_types::{ExecutorId, FxHashMap, FxHashSet, Mhz};

/// Packs a directed executor pair into one map key whose numeric order
/// equals (`from`, then `to`) order.
#[inline]
fn pair_key(from: ExecutorId, to: ExecutorId) -> u64 {
    (u64::from(from.index()) << 32) | u64::from(to.index())
}

#[inline]
fn unpack_pair(key: u64) -> (ExecutorId, ExecutorId) {
    (
        ExecutorId::new((key >> 32) as u32),
        ExecutorId::new(key as u32),
    )
}

/// Smoothed workload and traffic estimates for every executor and
/// executor pair observed so far, under the paper's EWMA
/// `Y ← αY + (1 − α)·Sample`.
pub struct StatsDb {
    alpha: f64,
    /// Workload estimates indexed by dense executor id; `None` = unknown.
    workloads: Vec<Option<f64>>,
    /// Traffic estimates keyed by the packed pair id.
    traffic: FxHashMap<u64, f64>,
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
            traffic: FxHashMap::default(),
            windows_ingested: 0,
        }
    }

    /// Applies one monitoring window.
    ///
    /// Executors/pairs absent from the snapshot but present in the
    /// database receive a zero sample — an idle executor's estimate decays
    /// toward zero instead of staying stale, which matters when traffic
    /// shifts after a re-assignment.
    pub fn ingest(&mut self, snapshot: &WindowSnapshot) {
        let period_micros = snapshot.period().as_micros();
        let mut cpu_seen: FxHashSet<u32> = FxHashSet::default();
        for (exec, cycles) in snapshot.cpu_readings() {
            let mhz = Mhz::from_cycles_over(cycles, period_micros);
            let idx = exec.as_usize();
            if idx >= self.workloads.len() {
                self.workloads.resize_with(idx + 1, || None);
            }
            // The first sample initialises Y directly (see [`crate::Ewma`]).
            let y = &mut self.workloads[idx];
            *y = Some(y.map_or(mhz.get(), |y| blend(self.alpha, y, mhz.get())));
            cpu_seen.insert(exec.index());
        }
        for (idx, y) in self.workloads.iter_mut().enumerate() {
            if let Some(y) = y {
                if !cpu_seen.contains(&(idx as u32)) {
                    *y = blend(self.alpha, *y, 0.0);
                }
            }
        }

        let mut pair_seen: FxHashSet<u64> = FxHashSet::default();
        for (from, to, tuples) in snapshot.traffic_readings() {
            let rate = tuples as f64 / snapshot.period().as_secs_f64();
            let key = pair_key(from, to);
            match self.traffic.get_mut(&key) {
                Some(y) => *y = blend(self.alpha, *y, rate),
                None => {
                    self.traffic.insert(key, rate);
                }
            }
            pair_seen.insert(key);
        }
        for (key, y) in &mut self.traffic {
            if !pair_seen.contains(key) {
                *y = blend(self.alpha, *y, 0.0);
            }
        }
        self.windows_ingested += 1;
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
    /// estimate has decayed to (near) zero are omitted. The matrix is
    /// key-ordered regardless of the sparse store's iteration order.
    #[must_use]
    pub fn traffic_matrix(&self) -> TrafficMatrix {
        // Sized up front: growing by doubling would copy, and at the end
        // of a long scale run nearly every tracked pair is still live.
        let mut live: Vec<(u64, f64)> = Vec::with_capacity(self.traffic.len());
        live.extend(
            self.traffic
                .iter()
                .filter(|(_, rate)| **rate > 1e-9)
                .map(|(key, rate)| (*key, *rate)),
        );
        // Packed keys sort in (from, to) order, so the matrix is built
        // from sorted input rather than by 10^6 random-order inserts.
        live.sort_unstable_by_key(|(key, _)| *key);
        live.into_iter()
            .map(|(key, rate)| {
                let (from, to) = unpack_pair(key);
                (from, to, rate)
            })
            .collect()
    }

    /// Removes every estimate touching the given executor (topology
    /// killed / executor retired).
    pub fn forget_executor(&mut self, executor: ExecutorId) {
        if let Some(y) = self.workloads.get_mut(executor.as_usize()) {
            *y = None;
        }
        let id = executor.index();
        self.traffic
            .retain(|key, _| (*key >> 32) as u32 != id && *key as u32 != id);
    }

    /// Keeps only estimates touching the given executors — the bulk
    /// complement of [`StatsDb::forget_executor`], applied when a
    /// reassignment retires executors: stale workload entries and
    /// traffic pairs would otherwise keep steering the traffic-aware
    /// scheduler toward executors that no longer exist.
    pub fn retain_executors(&mut self, keep: &BTreeSet<ExecutorId>) {
        for (idx, y) in self.workloads.iter_mut().enumerate() {
            if y.is_some() && !keep.contains(&ExecutorId::new(idx as u32)) {
                *y = None;
            }
        }
        self.traffic.retain(|key, _| {
            let (from, to) = unpack_pair(*key);
            keep.contains(&from) && keep.contains(&to)
        });
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
