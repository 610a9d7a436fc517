//! A bounded ring: the last `capacity` entries, oldest first.
//!
//! Storage is allocated once at construction, so a push moves its entry in
//! and allocates nothing else. A push into a full ring evicts the oldest
//! entry and counts it as dropped, so the ring can never grow without bound
//! under sustained load. Every operation is one short mutex hold.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::registry::lock;

struct Entries<T> {
    items: VecDeque<T>,
    dropped: u64,
}

/// A bounded FIFO ring that evicts its oldest entry when full; see the
/// module docs.
pub struct Ring<T> {
    capacity: usize,
    entries: Mutex<Entries<T>>,
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            entries: Mutex::new(Entries {
                items: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    /// Appends `item`, evicting the oldest entry when the ring is full.
    pub fn push(&self, item: T) {
        let mut entries = lock(&self.entries);
        if entries.items.len() == self.capacity {
            entries.items.pop_front();
            entries.dropped = entries.dropped.saturating_add(1);
        }
        entries.items.push_back(item);
    }

    /// Entries evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        lock(&self.entries).dropped
    }
}

impl<T: Clone> Ring<T> {
    /// Copies out the retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        lock(&self.entries).items.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_the_oldest_and_counts_drops() {
        let ring = Ring::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot(), vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);

        // A zero capacity still keeps the newest entry.
        let ring = Ring::new(0);
        ring.push("a");
        ring.push("b");
        assert_eq!(ring.snapshot(), vec!["b"]);
        assert_eq!(ring.dropped(), 1);
    }
}
