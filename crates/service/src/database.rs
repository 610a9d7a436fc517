//! The QoS database of the prediction service (paper Fig. 3: "The QoS
//! database can be updated accordingly").
//!
//! Stores the raw observation history per `(user, service)` pair with a
//! bounded per-pair history, independent of the model's own expiry-driven
//! store — this is the audit/query side, and the source of the prediction
//! service's fallback means.
//!
//! Layout (DESIGN.md §10): a packed pair key maps to one dense slot holding
//! the pair's newest observation, so a pair seen once costs no heap
//! allocation of its own. Only pairs holding more than one observation get
//! a deque of their older ones. Running sums per user, per service and
//! overall are kept as observations arrive and are evicted, so the fallback
//! means are O(1) reads rather than scans over every pair.

use amf_core::PairKey;
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// One stored observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Timestamp (seconds since simulation epoch).
    pub timestamp: u64,
    /// Observed raw QoS value.
    pub value: f64,
}

/// Thread-safe QoS observation history store.
///
/// Each pair keeps its newest `history_cap` observations: recording one
/// more evicts the pair's oldest, and that eviction is the only way an
/// observation leaves the store or the means.
///
/// Ids are dense indices, as the service's registries assign them: the
/// per-user and per-service sums are indexed by id, so their memory grows
/// with the largest id recorded, as the model's factor slabs do.
///
/// # Examples
///
/// ```
/// use qos_service::QosDatabase;
///
/// let db = QosDatabase::new(16);
/// db.record(0, 0, 100, 1.4);
/// db.record(0, 0, 200, 1.6);
/// assert_eq!(db.latest(0, 0).unwrap().value, 1.6);
/// assert_eq!(db.history(0, 0).len(), 2);
/// ```
#[derive(Debug)]
pub struct QosDatabase {
    pairs: RwLock<Pairs>,
    /// Maximum retained observations per pair.
    history_cap: usize,
}

/// Every pair's retained observations and the sums over them.
#[derive(Debug, Default)]
struct Pairs {
    /// Pair -> its slot in `newest`.
    index: HashMap<PairKey, u32>,
    /// Each pair's newest observation, one dense slot per pair.
    newest: Vec<Observation>,
    /// The older retained observations (oldest first) of the pairs that hold
    /// more than one: at most `history_cap - 1` each.
    older: HashMap<PairKey, VecDeque<Observation>>,
    sums: Sums,
}

impl Pairs {
    /// Makes `observation` the pair's newest and returns the one that fell
    /// out of a full history, if any.
    fn push(&mut self, key: PairKey, observation: Observation, cap: usize) -> Option<Observation> {
        let slot = match self.index.entry(key) {
            Entry::Occupied(slot) => *slot.get() as usize,
            Entry::Vacant(slot) => {
                slot.insert(u32::try_from(self.newest.len()).expect("at most u32::MAX pairs"));
                self.newest.push(observation);
                return None;
            }
        };
        let previous = std::mem::replace(&mut self.newest[slot], observation);
        if cap == 1 {
            return Some(previous);
        }
        let older = self.older.entry(key).or_default();
        older.push_back(previous);
        if older.len() < cap {
            None
        } else {
            older.pop_front()
        }
    }
}

/// Running sums per user, per service and over everything retained,
/// indexed by the dense ids the service's registries assign (as the model's
/// factor slabs are), so updating one costs no hashing.
#[derive(Debug, Default)]
struct Sums {
    users: Vec<RunningSum>,
    services: Vec<RunningSum>,
    global: RunningSum,
}

impl Sums {
    fn add(&mut self, key: PairKey, value: f64) {
        for (sums, id) in [
            (&mut self.users, key.user()),
            (&mut self.services, key.service()),
        ] {
            if sums.len() <= id {
                sums.resize(id + 1, RunningSum::default());
            }
            sums[id].add(value);
        }
        self.global.add(value);
    }

    /// Removes a value [`Sums::add`] added under the same key.
    fn remove(&mut self, key: PairKey, value: f64) {
        self.users[key.user()].remove(value);
        self.services[key.service()].remove(value);
        self.global.remove(value);
    }
}

/// Sum and count of a set of values that gains and loses members.
///
/// NaN and ±∞ members are counted apart from the finite sum, so once such a
/// value leaves the set it stops affecting the mean, as it would in a sum
/// taken afresh.
#[derive(Debug, Clone, Copy, Default)]
struct RunningSum {
    count: u64,
    /// Sum of the finite members.
    finite: f64,
    nan: u32,
    pos_inf: u32,
    neg_inf: u32,
}

impl RunningSum {
    /// The counter of a non-finite value's kind; `None` for finite values.
    fn non_finite(&mut self, value: f64) -> Option<&mut u32> {
        if value.is_nan() {
            Some(&mut self.nan)
        } else if value == f64::INFINITY {
            Some(&mut self.pos_inf)
        } else if value == f64::NEG_INFINITY {
            Some(&mut self.neg_inf)
        } else {
            None
        }
    }

    fn add(&mut self, value: f64) {
        self.count += 1;
        match self.non_finite(value) {
            Some(n) => *n += 1,
            None => self.finite += value,
        }
    }

    fn remove(&mut self, value: f64) {
        self.count -= 1;
        match self.non_finite(value) {
            Some(n) => *n -= 1,
            None => self.finite -= value,
        }
    }

    fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let sum = if self.nan > 0 || (self.pos_inf > 0 && self.neg_inf > 0) {
            f64::NAN
        } else if self.pos_inf > 0 {
            f64::INFINITY
        } else if self.neg_inf > 0 {
            f64::NEG_INFINITY
        } else {
            self.finite
        };
        Some(sum / self.count as f64)
    }
}

impl QosDatabase {
    /// Creates a database retaining up to `history_cap` observations per
    /// pair (at least 1).
    pub fn new(history_cap: usize) -> Self {
        Self {
            pairs: RwLock::new(Pairs::default()),
            history_cap: history_cap.max(1),
        }
    }

    /// Records an observation: [`QosDatabase::record_batch`] with one
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics when either id exceeds `u32::MAX` (see [`PairKey::new`]).
    pub fn record(&self, user: usize, service: usize, timestamp: u64, value: f64) {
        self.record_batch(&[(user, service, timestamp, value)]);
    }

    /// Records `(user, service, timestamp, value)` observations in order,
    /// under one write lock.
    ///
    /// # Panics
    ///
    /// Panics when either id exceeds `u32::MAX` (see [`PairKey::new`]); the
    /// observations before it stay recorded.
    pub fn record_batch(&self, observations: &[(usize, usize, u64, f64)]) {
        let mut pairs = self.pairs.write();
        for &(user, service, timestamp, value) in observations {
            let key = PairKey::new(user, service);
            pairs.sums.add(key, value);
            if let Some(evicted) =
                pairs.push(key, Observation { timestamp, value }, self.history_cap)
            {
                pairs.sums.remove(key, evicted.value);
            }
        }
    }

    /// The most recent observation for a pair.
    pub fn latest(&self, user: usize, service: usize) -> Option<Observation> {
        let key = PairKey::lookup(user, service)?;
        let pairs = self.pairs.read();
        let slot = *pairs.index.get(&key)?;
        Some(pairs.newest[slot as usize])
    }

    /// Full retained history for a pair (oldest first).
    pub fn history(&self, user: usize, service: usize) -> Vec<Observation> {
        let Some(key) = PairKey::lookup(user, service) else {
            return Vec::new();
        };
        let pairs = self.pairs.read();
        let Some(&slot) = pairs.index.get(&key) else {
            return Vec::new();
        };
        let older = pairs.older.get(&key);
        let mut history = Vec::with_capacity(1 + older.map_or(0, VecDeque::len));
        history.extend(older.into_iter().flatten());
        history.push(pairs.newest[slot as usize]);
        history
    }

    /// Number of pairs with at least one observation.
    pub fn pair_count(&self) -> usize {
        self.pairs.read().index.len()
    }

    /// Total number of retained observations.
    pub fn observation_count(&self) -> usize {
        self.pairs.read().sums.global.count as usize
    }

    /// Mean of the retained values for one service across all users — the
    /// fallback rung after the user's mean.
    pub fn service_mean(&self, service: usize) -> Option<f64> {
        self.pairs.read().sums.services.get(service)?.mean()
    }

    /// Mean of the retained values one user observed across all services —
    /// the first fallback rung when the model cannot price a pair.
    pub fn user_mean(&self, user: usize) -> Option<f64> {
        self.pairs.read().sums.users.get(user)?.mean()
    }

    /// Mean of every retained observation — the last data-driven fallback
    /// rung (degrades gracefully to "what does QoS look like on average").
    pub fn global_mean(&self) -> Option<f64> {
        self.pairs.read().sums.global.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_latest() {
        let db = QosDatabase::new(4);
        assert!(db.latest(0, 0).is_none());
        db.record(0, 0, 10, 1.0);
        db.record(0, 0, 20, 2.0);
        assert_eq!(db.latest(0, 0).unwrap().value, 2.0);
        assert_eq!(db.latest(0, 0).unwrap().timestamp, 20);
    }

    #[test]
    fn history_capped() {
        let db = QosDatabase::new(3);
        for k in 0..10 {
            db.record(1, 1, k, k as f64);
        }
        let h = db.history(1, 1);
        assert_eq!(h.len(), 3);
        assert_eq!(h[0].timestamp, 7, "oldest retained should be t=7");
        assert_eq!(h[2].timestamp, 9);
    }

    #[test]
    fn cap_of_zero_clamps_to_one() {
        let db = QosDatabase::new(0);
        db.record(0, 0, 1, 1.0);
        db.record(0, 0, 2, 2.0);
        assert_eq!(db.history(0, 0).len(), 1);
    }

    #[test]
    fn counts() {
        let db = QosDatabase::new(8);
        db.record(0, 0, 1, 1.0);
        db.record(0, 1, 2, 2.0);
        db.record(0, 1, 3, 3.0);
        assert_eq!(db.pair_count(), 2);
        assert_eq!(db.observation_count(), 3);
    }

    #[test]
    fn service_mean_aggregates_users() {
        let db = QosDatabase::new(8);
        db.record(0, 5, 1, 2.0);
        db.record(1, 5, 1, 4.0);
        db.record(0, 6, 1, 100.0);
        assert_eq!(db.service_mean(5), Some(3.0));
        assert_eq!(db.service_mean(7), None);
    }

    #[test]
    fn user_and_global_means() {
        let db = QosDatabase::new(8);
        db.record(0, 5, 1, 2.0);
        db.record(0, 6, 1, 4.0);
        db.record(1, 5, 1, 6.0);
        assert_eq!(db.user_mean(0), Some(3.0));
        assert_eq!(db.user_mean(9), None);
        assert_eq!(db.global_mean(), Some(4.0));
        assert_eq!(QosDatabase::new(4).global_mean(), None);
    }

    #[test]
    fn a_non_finite_value_stops_counting_once_evicted() {
        let db = QosDatabase::new(1);
        db.record(0, 0, 1, f64::NAN);
        db.record(0, 1, 1, f64::INFINITY);
        assert!(db.user_mean(0).unwrap().is_nan());
        assert_eq!(db.service_mean(1), Some(f64::INFINITY));
        db.record(0, 0, 2, 2.0);
        db.record(0, 1, 2, 4.0);
        assert_eq!(db.user_mean(0), Some(3.0));
        assert_eq!(db.global_mean(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "user id 4294967296 exceeds u32::MAX")]
    fn ids_above_u32_max_panic_instead_of_aliasing() {
        let db = QosDatabase::new(4);
        db.record(0, 0, 1, 1.0);
        assert!(db.latest(1 << 32, 0).is_none());
        assert!(db.history(0, 1 << 32).is_empty());
        // Truncated to 32 bits this would be (0, 0) and join its history.
        db.record(1 << 32, 0, 2, 2.0);
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let db = Arc::new(QosDatabase::new(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for k in 0..100 {
                        db.record(t, k % 10, k as u64, k as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.observation_count(), 400);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const IDS: usize = 4;

        /// The plain layout: one `Vec` per pair, oldest dropped past the cap.
        struct Reference {
            cap: usize,
            pairs: BTreeMap<(usize, usize), Vec<Observation>>,
        }

        impl Reference {
            fn record(&mut self, user: usize, service: usize, timestamp: u64, value: f64) {
                let history = self.pairs.entry((user, service)).or_default();
                history.push(Observation { timestamp, value });
                if history.len() > self.cap {
                    history.remove(0);
                }
            }

            fn mean(&self, select: impl Fn(usize, usize) -> bool) -> Option<f64> {
                let values: Vec<f64> = self
                    .pairs
                    .iter()
                    .filter(|((u, s), _)| select(*u, *s))
                    .flat_map(|(_, history)| history.iter().map(|o| o.value))
                    .collect();
                (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
            }
        }

        fn same_mean(actual: Option<f64>, expected: Option<f64>) {
            match (actual, expected) {
                (Some(a), Some(e)) if a.is_finite() && e.is_finite() => {
                    prop_assert!(
                        (a - e).abs() <= 1e-9 * e.abs().max(1e-300),
                        "mean {a} vs reference {e}"
                    );
                }
                (Some(a), Some(e)) if a.is_nan() => prop_assert!(e.is_nan(), "NaN vs {e}"),
                _ => prop_assert_eq!(actual, expected),
            }
        }

        /// Mostly QoS-like values, with an occasional NaN or ±∞.
        fn value(roll: u8, finite: f64) -> f64 {
            match roll {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => finite,
            }
        }

        proptest! {
            #[test]
            fn compact_layout_matches_a_vec_per_pair(
                cap in 1usize..5,
                ops in proptest::collection::vec(
                    (0..IDS, 0..IDS, 0u64..40, (0u8..40, 0.05..20.0f64)),
                    0..160
                )
            ) {
                let db = QosDatabase::new(cap);
                let mut reference = Reference { cap, pairs: BTreeMap::new() };
                for (user, service, timestamp, (roll, finite)) in ops {
                    let v = value(roll, finite);
                    db.record(user, service, timestamp, v);
                    reference.record(user, service, timestamp, v);
                    prop_assert_eq!(db.pair_count(), reference.pairs.len());
                    prop_assert_eq!(
                        db.observation_count(),
                        reference.pairs.values().map(Vec::len).sum::<usize>()
                    );
                    for u in 0..IDS {
                        for s in 0..IDS {
                            let expected = reference.pairs.get(&(u, s));
                            let history = db.history(u, s);
                            prop_assert_eq!(history.len(), expected.map_or(0, Vec::len));
                            for (a, e) in history.iter().zip(expected.into_iter().flatten()) {
                                prop_assert_eq!(a.timestamp, e.timestamp);
                                prop_assert_eq!(a.value.to_bits(), e.value.to_bits());
                            }
                            let latest = db.latest(u, s).map(|o| o.timestamp);
                            prop_assert_eq!(
                                latest,
                                expected.and_then(|h| h.last()).map(|o| o.timestamp)
                            );
                        }
                        same_mean(db.user_mean(u), reference.mean(|ru, _| ru == u));
                        same_mean(db.service_mean(u), reference.mean(|_, rs| rs == u));
                    }
                    same_mean(db.global_mean(), reference.mean(|_, _| true));
                }
            }
        }
    }
}
