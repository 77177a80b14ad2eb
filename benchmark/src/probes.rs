//! Probes the traced run installs at public boundaries of the program:
//! a pass-through [`Scheduler`], a wrapper around every spout and bolt,
//! and the byte sink behind the flight recorder. None of them changes
//! what the program computes; each records counts and host time into a
//! shared tally the benchmark reads after the run.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tstorm_cluster::Assignment;
use tstorm_sched::{ScheduleExplanation, Scheduler, SchedulingInput};
use tstorm_sim::{BoltLogic, ExecutorLogic, SpoutLogic};
use tstorm_topology::Value;
use tstorm_types::{Result, SimTime};

/// FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a digest.
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Locks a tally shared with a probe. Probes never panic while holding
/// the lock, so a poisoned lock means a bug in this benchmark.
pub fn lock<T>(shared: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    shared
        .lock()
        .expect("a probe panicked while holding its tally")
}

/// What the scheduler probe saw during a run.
#[derive(Debug, Default)]
pub struct SchedLog {
    /// Host time of every `schedule` call, in milliseconds.
    pub solve_ms: Vec<f64>,
    /// Calls the wrapped algorithm answered by incremental replay.
    pub incremental: u64,
    /// The input of the most recent call, for an offline re-solve.
    pub last_input: Option<SchedulingInput>,
}

/// A pass-through scheduler: delegates to `inner`, timing each call.
pub struct SchedProbe<S> {
    inner: S,
    was_incremental: fn(&S) -> bool,
    log: Arc<Mutex<SchedLog>>,
}

impl<S: Scheduler> SchedProbe<S> {
    /// Wraps `inner`; `was_incremental` asks it whether its last solve
    /// took an incremental shortcut.
    pub fn new(inner: S, was_incremental: fn(&S) -> bool, log: Arc<Mutex<SchedLog>>) -> Self {
        Self {
            inner,
            was_incremental,
            log,
        }
    }
}

impl<S: Scheduler> Scheduler for SchedProbe<S> {
    // Reports the wrapped algorithm's name, so the store, the timeline
    // and the recorder read exactly as in an untraced run.
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, input: &SchedulingInput) -> Result<Assignment> {
        let start = Instant::now();
        let result = self.inner.schedule(input);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let incremental = (self.was_incremental)(&self.inner);
        let mut log = lock(&self.log);
        log.solve_ms.push(ms);
        log.incremental += u64::from(incremental);
        log.last_input = Some(input.clone());
        result
    }

    fn set_explain(&mut self, on: bool) {
        self.inner.set_explain(on);
    }

    fn take_explanation(&mut self) -> Option<ScheduleExplanation> {
        self.inner.take_explanation()
    }
}

/// Calls into workload logic, and the host time of a 1-in-64 sample.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LogicTally {
    /// Every `next_tuple` and `execute` call.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Host nanoseconds of the timed calls.
    pub sampled_ns: u64,
}

/// Time one call in this many: two clock reads per call would distort
/// logic that runs in well under a microsecond.
const SAMPLE_EVERY: u64 = 64;

/// Wraps one spout or bolt. Counts locally and adds its tally to the
/// shared one when the simulation drops it.
struct LogicProbe<L: ?Sized> {
    inner: Box<L>,
    tally: LogicTally,
    shared: Arc<Mutex<LogicTally>>,
}

impl<L: ?Sized> LogicProbe<L> {
    fn call<R>(&mut self, f: impl FnOnce(&mut L) -> R) -> R {
        self.tally.calls += 1;
        if !self.tally.calls.is_multiple_of(SAMPLE_EVERY) {
            return f(&mut *self.inner);
        }
        let start = Instant::now();
        let out = f(&mut *self.inner);
        self.tally.sampled_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tally.sampled += 1;
        out
    }
}

impl<L: ?Sized> Drop for LogicProbe<L> {
    fn drop(&mut self) {
        // Drop must not panic: a poisoned tally loses this probe's counts.
        if let Ok(mut shared) = self.shared.lock() {
            shared.calls += self.tally.calls;
            shared.sampled += self.tally.sampled;
            shared.sampled_ns += self.tally.sampled_ns;
        }
    }
}

impl SpoutLogic for LogicProbe<dyn SpoutLogic + Send> {
    fn next_tuple(&mut self, now: SimTime) -> Option<Vec<Value>> {
        self.call(|l| l.next_tuple(now))
    }
}

impl BoltLogic for LogicProbe<dyn BoltLogic + Send> {
    fn execute(&mut self, input: &[Value], emit: &mut dyn FnMut(Vec<Value>)) {
        self.call(|l| l.execute(input, emit));
    }
}

/// Wraps a factory's output in a counting probe (ackers have no user
/// logic and pass through).
pub fn wrap_logic(logic: ExecutorLogic, shared: &Arc<Mutex<LogicTally>>) -> ExecutorLogic {
    match logic {
        ExecutorLogic::Spout(inner) => ExecutorLogic::spout(LogicProbe {
            inner,
            tally: LogicTally::default(),
            shared: Arc::clone(shared),
        }),
        ExecutorLogic::Bolt(inner) => ExecutorLogic::bolt(LogicProbe {
            inner,
            tally: LogicTally::default(),
            shared: Arc::clone(shared),
        }),
        ExecutorLogic::Acker => ExecutorLogic::Acker,
    }
}

/// What the flight recorder wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderTally {
    /// Bytes written.
    pub bytes: u64,
    /// Lines written.
    pub lines: u64,
    /// FNV-1a digest of every line except `scheduler_swapped` control
    /// lines (see [`RecorderSink`]).
    pub digest: u64,
    /// Host nanoseconds spent inside `write` (timed sinks only).
    pub write_ns: u64,
}

impl Default for RecorderTally {
    fn default() -> Self {
        Self {
            bytes: 0,
            lines: 0,
            digest: FNV_OFFSET,
            write_ns: 0,
        }
    }
}

/// An in-memory recorder destination that counts and digests the bytes
/// instead of storing them, and publishes its tally when dropped.
///
/// Installing the scheduler probe is a hot swap, which the recorder logs
/// as one `scheduler_swapped` control line. The digest skips such lines,
/// so a traced run and an untraced run of the same seed digest alike.
pub struct RecorderSink {
    tally: RecorderTally,
    line: Vec<u8>,
    timed: bool,
    shared: Arc<Mutex<RecorderTally>>,
}

impl RecorderSink {
    /// A sink publishing into `shared`; `timed` sinks clock every write.
    #[must_use]
    pub fn new(timed: bool, shared: Arc<Mutex<RecorderTally>>) -> Self {
        Self {
            tally: RecorderTally::default(),
            line: Vec::new(),
            timed,
            shared,
        }
    }

    fn end_line(&mut self) {
        const SWAP: &[u8] = b"\"event\":\"scheduler_swapped\"";
        self.tally.lines += 1;
        if !self.line.windows(SWAP.len()).any(|w| w == SWAP) {
            self.tally.digest = fnv1a(self.tally.digest, &self.line);
        }
        self.line.clear();
    }
}

impl Write for RecorderSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = self.timed.then(Instant::now);
        self.tally.bytes += buf.len() as u64;
        for piece in buf.split_inclusive(|b| *b == b'\n') {
            self.line.extend_from_slice(piece);
            if piece.ends_with(b"\n") {
                self.end_line();
            }
        }
        if let Some(start) = start {
            self.tally.write_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for RecorderSink {
    fn drop(&mut self) {
        if let Ok(mut shared) = self.shared.lock() {
            *shared = self.tally;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_digest_ignores_only_swap_lines() {
        let digest_of = |text: &str| {
            let shared = Arc::new(Mutex::new(RecorderTally::default()));
            let mut sink = RecorderSink::new(false, Arc::clone(&shared));
            // Split writes anywhere, as a formatter may.
            for chunk in text.as_bytes().chunks(5) {
                sink.write_all(chunk).expect("in-memory write");
            }
            drop(sink);
            let tally = *lock(&shared);
            tally
        };
        let plain = digest_of("{\"type\":\"meta\"}\n{\"type\":\"window\"}\n");
        let swapped = digest_of(
            "{\"type\":\"meta\"}\n{\"type\":\"control\",\"event\":\"scheduler_swapped\"}\n\
             {\"type\":\"window\"}\n",
        );
        let other = digest_of("{\"type\":\"meta\"}\n{\"type\":\"window\",\"x\":1}\n");
        assert_eq!(plain.lines, 2);
        assert_eq!(swapped.lines, 3);
        assert_eq!(plain.digest, swapped.digest);
        assert_ne!(plain.digest, other.digest);
    }
}
