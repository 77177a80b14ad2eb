//! Payloads: owns every tuple payload the engine holds, and decides
//! when one is freed.
//!
//! An emit's `Vec<Value>` moves into a slot once, and its payload bytes
//! are summed once. Each envelope routed from the emit, the root's
//! replay copy, each replay-queue entry and an in-service emission hold
//! the slot's 4-byte [`PayloadId`], counted with a plain `u32`; the last
//! release drops the values and frees the slot.

use tstorm_topology::Value;

/// A payload slot in the engine's payload store, as held by an
/// envelope, a root or a replay-queue entry: a plain index, whose
/// holders the store counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadId(u32);

impl PayloadId {
    /// No payload: ack-tree control messages and roots that will never
    /// replay. Reads as no values and is counted by nobody.
    pub const EMPTY: Self = Self(u32::MAX);
}

struct Slot {
    values: Vec<Value>,
    /// The values' payload bytes, summed when the slot was filled.
    bytes: u64,
    /// Holders of the slot; 0 while it is free.
    holders: u32,
}

/// Every live payload, in slots reused through a free list. No slot
/// index reaches [`PayloadId::EMPTY`], so every lookup of it misses.
#[derive(Default)]
pub(crate) struct Payloads {
    slots: Vec<Slot>,
    /// Free slot indexes, most recently freed last.
    free: Vec<u32>,
}

impl Payloads {
    /// Moves an emit's values into a slot with one holder, the caller.
    pub(crate) fn insert(&mut self, values: Vec<Value>) -> PayloadId {
        let slot = Slot {
            bytes: values.iter().map(Value::payload_bytes).sum(),
            values,
            holders: 1,
        };
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = slot;
            return PayloadId(i);
        }
        let i = self.slots.len();
        assert!(i < u32::MAX as usize, "fewer than u32::MAX payloads live");
        self.slots.push(slot);
        PayloadId(i as u32)
    }

    /// Counts one more holder of `id`.
    #[inline]
    pub(crate) fn hold(&mut self, id: PayloadId) {
        if let Some(slot) = self.slots.get_mut(id.0 as usize) {
            slot.holders += 1;
        }
    }

    /// Lets one holder of `id` go; the last one drops the values and
    /// frees the slot.
    #[inline]
    pub(crate) fn release(&mut self, id: PayloadId) {
        let Some(slot) = self.slots.get_mut(id.0 as usize) else {
            return;
        };
        debug_assert!(slot.holders > 0, "releasing free payload slot {}", id.0);
        slot.holders -= 1;
        if slot.holders == 0 {
            slot.values = Vec::new();
            self.free.push(id.0);
        }
    }

    /// The values of `id` (none for [`PayloadId::EMPTY`]).
    #[inline]
    pub(crate) fn values(&self, id: PayloadId) -> &[Value] {
        self.slots.get(id.0 as usize).map_or(&[], |s| &s.values)
    }

    /// The payload bytes of `id`'s values (0 for [`PayloadId::EMPTY`]).
    #[inline]
    pub(crate) fn bytes(&self, id: PayloadId) -> u64 {
        self.slots.get(id.0 as usize).map_or(0, |s| s.bytes)
    }

    /// Slots with at least one holder.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_holder_frees_the_slot() {
        let mut p = Payloads::default();
        let id = p.insert(vec![Value::str("ab"), Value::Int(7)]);
        assert_eq!(p.values(id).len(), 2);
        assert_eq!(
            p.bytes(id),
            Value::str("ab").payload_bytes() + Value::Int(7).payload_bytes()
        );
        p.hold(id);
        p.hold(id);
        p.release(id);
        p.release(id);
        assert_eq!(p.live(), 1, "one holder left");
        p.release(id);
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn freed_slots_are_reused_last_freed_first() {
        let mut p = Payloads::default();
        let a = p.insert(vec![Value::Int(1)]);
        let b = p.insert(vec![Value::Int(2)]);
        p.release(a);
        p.release(b);
        let c = p.insert(vec![Value::Int(3)]);
        assert_eq!(c, b, "the newest free slot is reused first");
        assert_eq!(p.values(c), &[Value::Int(3)][..]);
        assert_eq!(p.insert(vec![]), a);
        assert_eq!(p.live(), 2);
    }

    #[test]
    fn the_empty_payload_holds_nothing() {
        let mut p = Payloads::default();
        p.hold(PayloadId::EMPTY);
        p.release(PayloadId::EMPTY);
        assert!(p.values(PayloadId::EMPTY).is_empty());
        assert_eq!(p.bytes(PayloadId::EMPTY), 0);
        assert_eq!(p.live(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "releasing free payload slot")]
    fn releasing_a_free_slot_panics() {
        let mut p = Payloads::default();
        let id = p.insert(vec![Value::Int(1)]);
        p.release(id);
        p.release(id);
    }
}
