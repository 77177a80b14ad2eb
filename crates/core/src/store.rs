//! The versioned schedule store — the paper's shared DB (Fig. 3)
//! between the schedule generator and the custom scheduler in Nimbus.
//!
//! The generator *publishes* schedules here; Nimbus *fetches* them on
//! its own period. Every publication is stamped with a monotonically
//! increasing epoch so readers can tell a fresh schedule from one they
//! already applied, and a stale read (an epoch older than the latest
//! publication) is detectable instead of silently rolling the cluster
//! backwards. Epoch `0` is reserved for the initial assignment applied
//! at topology submission, before the store has seen any publish.

use tstorm_cluster::{Assignment, VersionedAssignment};
use tstorm_types::AssignmentId;

/// One published schedule, as stored in the shared DB.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSchedule {
    /// The schedule's id (its publication timestamp).
    pub id: AssignmentId,
    /// The epoch-stamped assignment.
    pub versioned: VersionedAssignment,
}

/// The shared schedule DB between generator and Nimbus.
///
/// Holds the latest publication until Nimbus fetches it — like the
/// paper's DB, a newer schedule supersedes an unfetched older one. A
/// fetch hands the publication over, so Nimbus alone keeps a fetched
/// assignment (and its epoch, [`crate::Nimbus::cluster_epoch`]).
#[derive(Debug, Default)]
pub struct ScheduleStore {
    /// The latest publication, until Nimbus fetches or a swap discards
    /// it.
    unfetched: Option<StoredSchedule>,
    /// Epoch handed out to the most recent publication (0 = none yet).
    last_epoch: u64,
    discards: u64,
}

impl ScheduleStore {
    /// An empty store: nothing published, nothing fetched.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a schedule, stamping it with the next epoch, and
    /// returns that epoch.
    pub fn publish(&mut self, id: AssignmentId, assignment: Assignment) -> u64 {
        self.last_epoch += 1;
        self.unfetched = Some(StoredSchedule {
            id,
            versioned: VersionedAssignment::new(self.last_epoch, assignment),
        });
        self.last_epoch
    }

    /// Epoch of the most recent publication (0 when nothing was ever
    /// published). Note a discarded schedule's epoch stays burned:
    /// epochs never repeat.
    #[must_use]
    pub fn latest_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// True when `epoch` is older than the most recent publication — a
    /// reader holding it would be acting on a stale schedule.
    #[must_use]
    pub fn is_stale(&self, epoch: u64) -> bool {
        epoch < self.last_epoch
    }

    /// True when a publication is sitting in the store that Nimbus has
    /// not fetched yet.
    #[must_use]
    pub fn has_unfetched(&self) -> bool {
        self.unfetched.is_some()
    }

    /// True when `assignment` is the latest publication and Nimbus has
    /// not fetched it yet, so publishing it again would only burn an
    /// epoch. A fetched publication does not count: a later recovery can
    /// need the same placement again.
    #[must_use]
    pub(crate) fn holds_unfetched(&self, assignment: &Assignment) -> bool {
        self.unfetched
            .as_ref()
            .is_some_and(|s| s.versioned.assignment == *assignment)
    }

    /// Nimbus's fetch: hands over the latest publication if Nimbus has
    /// not fetched it yet, or `None` when the store holds no news.
    pub fn fetch(&mut self) -> Option<StoredSchedule> {
        self.unfetched.take()
    }

    /// Drops a published-but-unfetched schedule (e.g. its algorithm was
    /// hot-swapped out before any fetch), returning it. A schedule that
    /// was already fetched is past discarding.
    pub fn discard_unfetched(&mut self) -> Option<StoredSchedule> {
        let dropped = self.unfetched.take()?;
        self.discards += 1;
        Some(dropped)
    }

    /// Unfetched publications discarded over the store's lifetime.
    #[must_use]
    pub fn discards(&self) -> u64 {
        self.discards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstorm_types::{ExecutorId, SlotId};

    fn publish(store: &mut ScheduleStore, at_secs: u64) -> u64 {
        store.publish(
            AssignmentId::from_timestamp_micros(at_secs * 1_000_000),
            Assignment::new(),
        )
    }

    #[test]
    fn epochs_increase_monotonically() {
        let mut store = ScheduleStore::new();
        assert_eq!(store.latest_epoch(), 0);
        assert_eq!(publish(&mut store, 10), 1);
        assert_eq!(publish(&mut store, 20), 2);
        assert_eq!(store.latest_epoch(), 2);
        assert!(store.is_stale(1));
        assert!(!store.is_stale(2));
    }

    #[test]
    fn fetch_returns_only_news() {
        let mut store = ScheduleStore::new();
        assert!(store.fetch().is_none(), "empty store has no news");
        publish(&mut store, 10);
        let s = store.fetch().expect("first fetch sees the publication");
        assert_eq!(s.versioned.epoch, 1);
        assert!(
            store.fetch().is_none(),
            "refetching the same epoch is a no-op"
        );
        publish(&mut store, 20);
        assert_eq!(store.fetch().expect("news again").versioned.epoch, 2);
    }

    #[test]
    fn only_an_unfetched_publication_is_held() {
        let mut store = ScheduleStore::new();
        let mut a = Assignment::new();
        a.assign(ExecutorId::new(0), SlotId::new(0));
        let mut b = Assignment::new();
        b.assign(ExecutorId::new(0), SlotId::new(1));
        assert!(!store.holds_unfetched(&a), "empty store");
        store.publish(AssignmentId::from_timestamp_micros(10), a.clone());
        assert!(store.holds_unfetched(&a));
        assert!(!store.holds_unfetched(&b), "a different placement is news");
        let _ = store.fetch();
        assert!(
            !store.holds_unfetched(&a),
            "a fetched publication can be published again"
        );
    }

    #[test]
    fn discard_drops_only_unfetched_schedules() {
        let mut store = ScheduleStore::new();
        assert!(store.discard_unfetched().is_none());
        publish(&mut store, 10);
        let _ = store.fetch();
        assert!(
            store.discard_unfetched().is_none(),
            "a fetched schedule is past discarding"
        );
        publish(&mut store, 20);
        let dropped = store.discard_unfetched().expect("unfetched publication");
        assert_eq!(dropped.versioned.epoch, 2);
        assert!(!store.has_unfetched());
        assert_eq!(store.discards(), 1);
        // The burned epoch never repeats.
        assert_eq!(publish(&mut store, 30), 3);
    }
}
