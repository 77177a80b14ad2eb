//! The control plane's traffic path, from monitoring windows through
//! the EWMA database and the traffic matrix to Algorithm 1.
//!
//! One full solve on a scale-shaped input is pinned bit for bit: its
//! assignment, its decision records and its quality figures. The input
//! comes from a [`StatsDb`] fed seeded windows, so it has what scale
//! runs have: pairs in both directions, pairs whose executor is not in
//! the input, a self-pair, decayed and first-seen pairs. The traffic
//! matrix is also checked against an ordered-map model.

use std::collections::BTreeMap;
use tstorm::cluster::{Assignment, ClusterSpec};
use tstorm::monitor::{StatsDb, WindowSnapshot};
use tstorm::sched::{
    AnielloOnlineScheduler, AssignmentQuality, ExecutorInfo, SchedParams, Scheduler,
    SchedulingInput, TStormScheduler, TrafficMatrix,
};
use tstorm::types::{ComponentId, DetRng, ExecutorId, Mhz, SimTime, TopologyId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn assignment_digest(a: &Assignment) -> u64 {
    a.iter().fold(FNV_OFFSET, |h, (exec, slot)| {
        let h = fnv1a(h, &exec.index().to_le_bytes());
        fnv1a(h, &slot.index().to_le_bytes())
    })
}

/// Digest of every decision's placement and the bits of its traffic
/// total and objective delta.
fn decisions_digest(scheduler: &mut dyn Scheduler) -> u64 {
    let explanation = scheduler.take_explanation().expect("explanation recorded");
    explanation.decisions.iter().fold(FNV_OFFSET, |h, d| {
        let h = fnv1a(h, &d.executor.index().to_le_bytes());
        let h = fnv1a(h, &d.slot.index().to_le_bytes());
        let h = fnv1a(h, &d.traffic_total.to_bits().to_le_bytes());
        fnv1a(h, &d.objective_delta.to_bits().to_le_bytes())
    })
}

/// Executors in the input; the windows also carry traffic of a few
/// executors past this range, as a retired topology's would.
const EXECUTORS: u32 = 480;
const OUTSIDERS: u32 = 12;

/// A scheduling input built the way the control plane builds one: from
/// a stats database fed several monitoring windows.
fn scale_shaped_input() -> SchedulingInput {
    let mut rng = DetRng::seed_from(0xA161);
    let period = SimTime::from_secs(20);
    let mut db = StatsDb::new(0.5);
    // A chain of stages per topology: each executor talks to a few in
    // the next stage and acks back to one, so most pairs run both ways.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for from in 0..EXECUTORS {
        for _ in 0..4 {
            let to = (from + 1 + rng.below(40) as u32) % EXECUTORS;
            pairs.push((from, to));
            if rng.below(2) == 0 {
                pairs.push((to, from));
            }
        }
    }
    for o in 0..OUTSIDERS {
        let inside = rng.below(EXECUTORS as usize) as u32;
        pairs.push((EXECUTORS + o, inside));
        pairs.push((inside, EXECUTORS + o));
    }
    pairs.push((7, 7));
    for window in 0..6 {
        let mut snap = WindowSnapshot::new(period);
        for exec in 0..EXECUTORS + OUTSIDERS {
            if rng.below(5) != 0 {
                let mhz = rng.range_f64(5.0, 150.0);
                snap.record_cpu(ExecutorId::new(exec), (mhz * 20e6) as u64);
            }
        }
        for (i, &(from, to)) in pairs.iter().enumerate() {
            // Some pairs start talking late, some fall silent.
            if (i % 7 == 3 && window < 3) || rng.below(4) == 0 {
                continue;
            }
            let tuples = 1 + rng.below(20_000) as u64;
            snap.record_traffic(ExecutorId::new(from), ExecutorId::new(to), tuples);
        }
        db.ingest(&snap);
    }
    let cpu = [Mhz::new(3000.0), Mhz::new(4500.0), Mhz::new(6000.0)];
    let cluster = ClusterSpec::heterogeneous(16, 4, &cpu, &[]).expect("valid cluster");
    let executors = (0..EXECUTORS)
        .map(|i| {
            ExecutorInfo::new(
                ExecutorId::new(i),
                TopologyId::new(i % 3),
                ComponentId::new(i % 11),
                db.load_of(ExecutorId::new(i)),
            )
        })
        .collect();
    SchedulingInput::new(
        cluster,
        executors,
        db.traffic_matrix(),
        SchedParams::default()
            .with_gamma(1.6)
            .with_capacity_fraction(0.95),
    )
}

#[test]
fn alg1_full_solve_on_a_scale_shaped_input_is_pinned() {
    let input = scale_shaped_input();
    assert_eq!(input.traffic.len(), 2_786);
    let mut scheduler = TStormScheduler::new();
    scheduler.set_explain(true);
    let assignment = scheduler.schedule(&input).expect("feasible");
    assert_eq!(assignment.len(), EXECUTORS as usize);
    assert!(scheduler.relaxations().is_empty());
    assert_eq!(
        format!("{:016x}", assignment_digest(&assignment)),
        "c85e503c2ece7839"
    );
    assert_eq!(
        format!("{:016x}", decisions_digest(&mut scheduler)),
        "0ff966728e8340f7"
    );
    let q = AssignmentQuality::evaluate(&assignment, &input);
    assert_eq!(
        [
            q.inter_node_traffic.to_bits(),
            q.inter_process_traffic.to_bits(),
            q.intra_worker_traffic.to_bits(),
            q.max_node_utilisation.to_bits(),
        ],
        [
            4_696_532_952_941_592_561,
            4_680_087_772_917_556_839,
            4_675_965_394_480_005_122,
            4_606_703_608_576_745_771,
        ]
    );
    assert_eq!((q.nodes_used, q.workers_used), (10, 30));

    // Solving the same input again, explain off, gives the same assignment.
    scheduler.set_explain(false);
    assert_eq!(scheduler.schedule(&input).expect("feasible"), assignment);

    // A whole-assignment explanation (Aniello's online scheduler)
    // attributes the same traffic per executor.
    let mut aniello = AnielloOnlineScheduler::new();
    aniello.set_explain(true);
    let a = aniello.schedule(&input).expect("feasible");
    assert_eq!(
        format!("{:016x}", assignment_digest(&a)),
        "1a90bf4cae3c2a19"
    );
    assert_eq!(
        format!("{:016x}", decisions_digest(&mut aniello)),
        "dd347861a69edde8"
    );
}

/// A random rate: zero, negative or positive.
fn rate(rng: &mut DetRng) -> f64 {
    match rng.below(6) {
        0 => 0.0,
        1 => -rng.range_f64(0.1, 50.0),
        _ => rng.range_f64(0.1, 1000.0),
    }
}

#[test]
fn traffic_matrix_matches_a_btreemap_model() {
    for case in 0..256u64 {
        let mut rng = DetRng::seed_from(0x7A7 + case);
        let ids = 1 + rng.below(12) as u32;
        let id = |rng: &mut DetRng| ExecutorId::new(rng.below(ids as usize) as u32);
        // Collecting: non-positive rates are skipped, and the last rate
        // of a repeated pair wins, whatever the input order.
        let triples: Vec<(ExecutorId, ExecutorId, f64)> = (0..rng.below(30))
            .map(|_| (id(&mut rng), id(&mut rng), rate(&mut rng)))
            .collect();
        let mut m: TrafficMatrix = triples.iter().copied().collect();
        let mut model: BTreeMap<(ExecutorId, ExecutorId), f64> = BTreeMap::new();
        for &(f, t, r) in &triples {
            if r > 0.0 {
                model.insert((f, t), r);
            }
        }
        for step in 0..rng.below(40) {
            let (f, t, r) = (id(&mut rng), id(&mut rng), rate(&mut rng));
            if rng.below(2) == 0 {
                m.set(f, t, r);
                if r > 0.0 {
                    model.insert((f, t), r);
                } else {
                    model.remove(&(f, t));
                }
            } else {
                m.add(f, t, r);
                if r != 0.0 {
                    *model.entry((f, t)).or_insert(0.0) += r;
                }
            }
            let got: Vec<(ExecutorId, ExecutorId, u64)> =
                m.iter().map(|(f, t, r)| (f, t, r.to_bits())).collect();
            let want: Vec<(ExecutorId, ExecutorId, u64)> = model
                .iter()
                .map(|(&(f, t), r)| (f, t, r.to_bits()))
                .collect();
            assert_eq!(got, want, "case {case} step {step}");
        }
        assert_eq!(m.len(), model.len(), "case {case}");
        assert_eq!(m.is_empty(), model.is_empty(), "case {case}");
        let total: f64 = model.values().sum();
        assert_eq!(m.total().to_bits(), total.to_bits(), "case {case}");
        for a in 0..ids {
            let a = ExecutorId::new(a);
            let touching: f64 = model
                .iter()
                .filter(|((f, t), _)| *f == a || *t == a)
                .map(|(_, r)| *r)
                .sum();
            assert_eq!(m.total_of(a).to_bits(), touching.to_bits(), "case {case}");
            for b in 0..ids {
                let b = ExecutorId::new(b);
                let want = model.get(&(a, b)).copied().unwrap_or(0.0);
                assert_eq!(m.get(a, b).to_bits(), want.to_bits(), "case {case}");
            }
        }
        // Equality is by content: a sorted rebuild of the same entries
        // compares equal.
        let rebuilt: TrafficMatrix = model.iter().map(|(&(f, t), r)| (f, t, *r)).collect();
        let positive = model.values().all(|r| *r > 0.0);
        assert_eq!(rebuilt == m, positive, "case {case}");
    }
}
