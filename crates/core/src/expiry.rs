//! The live-observation store with expiry (Algorithm 1 lines 11–15).
//!
//! AMF keeps the most recent observation per `(user, service)` pair. Between
//! arrivals of new data it *replays* randomly chosen live observations to
//! keep refining the factors; an observation older than the expiry interval
//! is obsolete (the QoS has likely drifted) and is discarded instead of
//! replayed — "we check whether an existing QoS value has become expired,
//! and if so, discard this value (set `I_ij = 0`)".
//!
//! The store is also the QoS database of the paper's Fig. 3: running sums
//! per user, per service and overall follow every value that enters or
//! leaves it, so the prediction service's fallback means are O(1) reads
//! over exactly the stored observations.

use std::hash::{BuildHasher, RandomState};
use std::time::Duration;

use rand::Rng;

use crate::SlotIndex;

/// A `(user, service)` pair as one key: the two ids narrowed to `u32`.
///
/// The store's index hashes a key as the packed `u64`
/// `user << 32 | service`.
///
/// # Examples
///
/// ```
/// use amf_core::expiry::PairKey;
///
/// let key = PairKey::new(3, 7);
/// assert_eq!((key.user(), key.service()), (3, 7));
/// assert_eq!(PairKey::lookup(1 << 32, 0), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairKey([u32; 2]);

impl PairKey {
    /// The key of a pair that is being stored.
    ///
    /// # Panics
    ///
    /// Panics, naming the id, when either id exceeds `u32::MAX`: a silently
    /// truncated id would alias another pair's key.
    pub fn new(user: usize, service: usize) -> Self {
        Self([narrow("user", user), narrow("service", service)])
    }

    /// The key of a pair that is being looked up: `None` when either id
    /// exceeds `u32::MAX`, because no such pair can have been stored.
    pub fn lookup(user: usize, service: usize) -> Option<Self> {
        Some(Self([user.try_into().ok()?, service.try_into().ok()?]))
    }

    /// The user id.
    pub fn user(self) -> usize {
        self.0[0] as usize
    }

    /// The service id.
    pub fn service(self) -> usize {
        self.0[1] as usize
    }

    fn packed(self) -> u64 {
        u64::from(self.0[0]) << 32 | u64::from(self.0[1])
    }
}

fn narrow(kind: &str, id: usize) -> u32 {
    u32::try_from(id).unwrap_or_else(|_| panic!("{kind} id {id} exceeds u32::MAX"))
}

/// A stored observation: the latest value and its timestamp for one pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredObservation {
    /// User (row) id.
    pub user: usize,
    /// Service (column) id.
    pub service: usize,
    /// Observation timestamp (seconds since the simulation epoch).
    pub timestamp: u64,
    /// Observed raw QoS value.
    pub value: f64,
}

/// One store entry: 24 bytes, where [`StoredObservation`] takes 32.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: PairKey,
    timestamp: u64,
    value: f64,
}

impl Entry {
    fn observation(self) -> StoredObservation {
        StoredObservation {
            user: self.key.user(),
            service: self.key.service(),
            timestamp: self.timestamp,
            value: self.value,
        }
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

    /// Removes a member; an emptied set drops the rounding residue of its
    /// finite sum, so it starts afresh.
    fn remove(&mut self, value: f64) {
        self.count -= 1;
        match self.non_finite(value) {
            Some(n) => *n -= 1,
            None => self.finite -= value,
        }
        if self.count == 0 {
            self.finite = 0.0;
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

/// Running sums per user, per service and over every stored value, indexed
/// by id as the model's factor slabs are, so updating one costs no hashing.
#[derive(Debug, Clone, Default)]
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

/// Multiply-shift hashing of pair keys for the store's [`SlotIndex`].
///
/// A key's hash is its packed `u64`, folded once by an xor-shift, times an
/// odd multiplier drawn once per store; the index reads the product's top
/// bits. The top bits depend on both ids, and a random multiplier means no
/// client can precompute keys that collide. The fold makes the hash
/// non-linear: a bare product maps keys in arithmetic progression, such as
/// a stride through the id grid, to buckets in arithmetic progression,
/// which can pile them into long probe runs.
#[derive(Debug, Clone, Copy)]
struct PairHasher {
    /// Odd, so multiplying by it permutes the folded keys.
    multiplier: u64,
}

impl Default for PairHasher {
    fn default() -> Self {
        Self {
            multiplier: RandomState::new().hash_one(0u64) | 1,
        }
    }
}

impl PairHasher {
    fn hash(self, key: PairKey) -> u64 {
        let packed = key.packed();
        (packed ^ packed >> 32).wrapping_mul(self.multiplier)
    }
}

/// Keyed store of the latest observation per pair, with O(1) insert, O(1)
/// random sampling, lazy expiry, and O(1) means over the stored values.
///
/// Ids are dense indices: the per-user and per-service sums are indexed by
/// id, so their memory grows with the largest id stored, as the model's
/// factor slabs do.
///
/// # Examples
///
/// ```
/// use amf_core::ObservationStore;
///
/// let mut store = ObservationStore::new();
/// store.upsert(0, 0, 100, 1.0);
/// store.upsert(0, 1, 100, 3.0);
/// assert_eq!(store.user_mean(0), Some(2.0));
/// // A refresh replaces the pair's value, in the means too.
/// store.upsert(0, 1, 200, 5.0);
/// assert_eq!(store.user_mean(0), Some(3.0));
/// assert_eq!(store.service_mean(1), Some(5.0));
/// store.remove(0, 0);
/// assert_eq!(store.global_mean(), Some(5.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObservationStore {
    /// Pair -> position in `entries`. Keys are read from the entries, never
    /// copied into the index.
    index: SlotIndex,
    hasher: PairHasher,
    /// Dense entry list enabling O(1) uniform sampling (swap-remove on expiry).
    entries: Vec<Entry>,
    /// Sums over the values in `entries`.
    sums: Sums,
}

impl ObservationStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored (not yet expired) observations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or refreshes the observation for `(user, service)`; a
    /// refresh takes the pair's old value out of the means.
    ///
    /// # Panics
    ///
    /// Panics when either id exceeds `u32::MAX` (see [`PairKey::new`]).
    pub fn upsert(&mut self, user: usize, service: usize, timestamp: u64, value: f64) {
        let key = PairKey::new(user, service);
        let entry = Entry {
            key,
            timestamp,
            value,
        };
        let hash = self.hasher.hash(key);
        match self.index.probe(hash, |p| self.entries[p].key == key) {
            Ok(bucket) => {
                let idx = self.index.position(bucket);
                let old = std::mem::replace(&mut self.entries[idx], entry);
                self.sums.remove(key, old.value);
            }
            Err(bucket) => {
                let (entries, hasher) = (&self.entries, self.hasher);
                self.index
                    .insert(bucket, hash, entries.len(), |p| hasher.hash(entries[p].key));
                self.entries.push(entry);
            }
        }
        self.sums.add(key, value);
    }

    /// The position of `(user, service)`'s entry, if it is stored.
    fn find(&self, user: usize, service: usize) -> Option<usize> {
        let key = PairKey::lookup(user, service)?;
        self.index
            .get(self.hasher.hash(key), |p| self.entries[p].key == key)
    }

    /// The current observation for a pair, if present.
    pub fn get(&self, user: usize, service: usize) -> Option<StoredObservation> {
        Some(self.entries[self.find(user, service)?].observation())
    }

    fn swap_remove(&mut self, idx: usize) -> StoredObservation {
        // The index re-hashes keys through `entries`, so it is updated while
        // every entry is still in place: unlink the removed position, point
        // the last entry's bucket at the position it moves to, then move it.
        let (entries, hasher) = (&self.entries, self.hasher);
        let removed = entries[idx];
        self.index.remove(hasher.hash(removed.key), idx, |p| {
            hasher.hash(entries[p].key)
        });
        let last = entries.len() - 1;
        if idx != last {
            self.index
                .repoint(hasher.hash(entries[last].key), last, idx);
        }
        self.entries.swap_remove(idx);
        self.sums.remove(removed.key, removed.value);
        removed.observation()
    }

    /// Removes and returns the observation for a pair, if present.
    pub fn remove(&mut self, user: usize, service: usize) -> Option<StoredObservation> {
        let idx = self.find(user, service)?;
        Some(self.swap_remove(idx))
    }

    /// Draws one uniformly random *live* observation: entries found expired
    /// (older than `expiry` relative to `now`) are discarded on the way, as
    /// in Algorithm 1 lines 11–15. Returns `None` when nothing live remains.
    pub fn sample_live<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        now: u64,
        expiry: Duration,
    ) -> Option<StoredObservation> {
        let horizon = expiry.as_secs();
        while !self.entries.is_empty() {
            let idx = rng.random_range(0..self.entries.len());
            let entry = self.entries[idx];
            if now.saturating_sub(entry.timestamp) < horizon {
                return Some(entry.observation());
            }
            // Obsolete: set I_ij <- 0 (drop it) and try another.
            self.swap_remove(idx);
        }
        None
    }

    /// Eagerly removes every observation older than `expiry` relative to
    /// `now`, returning how many were dropped.
    pub fn purge_expired(&mut self, now: u64, expiry: Duration) -> usize {
        let horizon = expiry.as_secs();
        let mut removed = 0;
        let mut idx = 0;
        while idx < self.entries.len() {
            if now.saturating_sub(self.entries[idx].timestamp) >= horizon {
                self.swap_remove(idx);
                removed += 1;
            } else {
                idx += 1;
            }
        }
        removed
    }

    /// Iterator over all stored observations (live status not checked).
    pub fn iter(&self) -> impl Iterator<Item = StoredObservation> + '_ {
        self.entries.iter().map(|entry| entry.observation())
    }

    /// Mean of the stored values `user` observed across services; `None`
    /// when the user holds none.
    pub fn user_mean(&self, user: usize) -> Option<f64> {
        self.sums.users.get(user)?.mean()
    }

    /// Mean of the stored values observed of `service` across users; `None`
    /// when the service holds none.
    pub fn service_mean(&self, service: usize) -> Option<f64> {
        self.sums.services.get(service)?.mean()
    }

    /// Mean of every stored value; `None` when the store is empty.
    pub fn global_mean(&self) -> Option<f64> {
        self.sums.global.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EXPIRY: Duration = Duration::from_secs(900);

    #[test]
    fn upsert_and_get() {
        let mut store = ObservationStore::new();
        store.upsert(1, 2, 100, 1.5);
        assert_eq!(store.len(), 1);
        let obs = store.get(1, 2).unwrap();
        assert_eq!(obs.value, 1.5);
        assert_eq!(obs.timestamp, 100);
        assert!(store.get(2, 1).is_none());
    }

    #[test]
    fn upsert_refreshes_in_place() {
        let mut store = ObservationStore::new();
        store.upsert(1, 2, 100, 1.5);
        store.upsert(1, 2, 200, 2.5);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(1, 2).unwrap().value, 2.5);
    }

    #[test]
    fn remove_maintains_index() {
        let mut store = ObservationStore::new();
        store.upsert(0, 0, 1, 1.0);
        store.upsert(1, 1, 2, 2.0);
        store.upsert(2, 2, 3, 3.0);
        let removed = store.remove(0, 0).unwrap();
        assert_eq!(removed.value, 1.0);
        assert_eq!(store.len(), 2);
        // The swap-moved entry must still be findable.
        assert_eq!(store.get(2, 2).unwrap().value, 3.0);
        assert_eq!(store.get(1, 1).unwrap().value, 2.0);
        assert!(store.remove(0, 0).is_none());
    }

    #[test]
    fn sample_live_returns_fresh_entries() {
        let mut store = ObservationStore::new();
        store.upsert(0, 0, 1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let obs = store.sample_live(&mut rng, 1100, EXPIRY).unwrap();
        assert_eq!(obs.value, 1.0);
        assert_eq!(store.len(), 1, "live entry must not be consumed");
    }

    #[test]
    fn sample_live_discards_expired() {
        let mut store = ObservationStore::new();
        store.upsert(0, 0, 0, 1.0); // will be expired at t=900
        store.upsert(1, 1, 950, 2.0); // live
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let obs = store.sample_live(&mut rng, 1000, EXPIRY).unwrap();
            assert_eq!(obs.value, 2.0);
        }
        assert_eq!(store.len(), 1, "expired entry should have been dropped");
    }

    #[test]
    fn sample_live_empty_when_all_expired() {
        let mut store = ObservationStore::new();
        store.upsert(0, 0, 0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(store.sample_live(&mut rng, 10_000, EXPIRY).is_none());
        assert!(store.is_empty());
        assert!(store.sample_live(&mut rng, 10_000, EXPIRY).is_none());
    }

    #[test]
    fn exact_expiry_boundary_is_expired() {
        // age == expiry must count as expired ("tnow - tij < TimeInterval"
        // is the liveness condition in Algorithm 1).
        let mut store = ObservationStore::new();
        store.upsert(0, 0, 100, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(store.sample_live(&mut rng, 1000, EXPIRY).is_none());
    }

    #[test]
    fn purge_expired_counts() {
        let mut store = ObservationStore::new();
        store.upsert(0, 0, 0, 1.0);
        store.upsert(1, 1, 100, 2.0);
        store.upsert(2, 2, 950, 3.0);
        let removed = store.purge_expired(1000, EXPIRY);
        assert_eq!(removed, 2);
        assert_eq!(store.len(), 1);
        assert!(store.get(2, 2).is_some());
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut store = ObservationStore::new();
        for i in 0..10 {
            store.upsert(i, 0, 1000, i as f64);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            let obs = store.sample_live(&mut rng, 1000, EXPIRY).unwrap();
            counts[obs.user] += 1;
        }
        for &c in &counts {
            assert!((700..=1300).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn entries_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn the_index_doubles_past_three_quarters_load() {
        let mut store = ObservationStore::new();
        let mut buckets = SlotIndex::MIN_BUCKETS;
        for pair in 1..=98_305 {
            store.upsert(pair % 142, pair / 142, 0, 1.0);
            if pair * 4 > buckets * 3 {
                buckets *= 2;
            }
            assert_eq!(store.index.buckets(), buckets, "after {pair} pairs");
            if pair == 63_727 {
                // The paper-scale warm-up fits 512 KiB of buckets.
                assert_eq!(buckets, 1 << 17);
            }
        }
        assert_eq!(buckets, 1 << 18, "pair 98,305 doubles the table");
        store.upsert(1, 0, 1, 2.0);
        assert_eq!(store.index.buckets(), 1 << 18, "a refresh never grows");
    }

    #[test]
    fn a_stride_grid_at_three_quarters_load_probes_briefly() {
        // The memory-budget suite's key set: cells of the 142 × 4,500 grid
        // visited by a stride coprime to its size, an arithmetic
        // progression. Without the xor-shift fold the first multiplier
        // averaged 17.9 probes per hit here.
        const STRIDE: usize = 7_919;
        for multiplier in [
            0xd76d_4330_f144_6beb,
            0x9e37_79b9_7f4a_7c15,
            0xbf58_476d_1ce4_e5b9,
            0x94d0_49bb_1331_11eb,
            0x2545_f491_4f6c_dd1d,
        ] {
            let mut store = ObservationStore::new();
            store.hasher = PairHasher { multiplier };
            for k in 0..49_152 {
                let cell = k * STRIDE % (142 * 4_500);
                store.upsert(cell / 4_500, cell % 4_500, 0, 1.0);
            }
            assert_eq!(store.index.buckets(), 1 << 16, "3/4 load");
            let mask = store.index.buckets() - 1;
            let probes: usize = store
                .entries
                .iter()
                .map(|entry| {
                    let hash = store.hasher.hash(entry.key);
                    let bucket = store
                        .index
                        .probe(hash, |p| store.entries[p].key == entry.key)
                        .unwrap();
                    // The home bucket is the hash's top 16 bits.
                    (bucket.wrapping_sub((hash >> 48) as usize) & mask) + 1
                })
                .sum();
            let mean = probes as f64 / store.len() as f64;
            assert!(
                mean <= 4.0,
                "multiplier {multiplier:#x}: {mean:.2} probes per hit"
            );
        }
    }

    #[test]
    fn deletes_inside_one_wrapping_probe_run_keep_every_key() {
        let mut store = ObservationStore::new();
        // Every nonzero key homes to the last bucket, so these six keys form
        // one probe run that wraps round the end of the table.
        store.hasher = PairHasher {
            multiplier: u64::MAX,
        };
        let pairs: Vec<(usize, usize)> = (1..=6).map(|s| (s % 2, s)).collect();
        for (k, &(u, s)) in pairs.iter().enumerate() {
            store.upsert(u, s, k as u64, k as f64);
        }
        assert_eq!(store.index.buckets(), SlotIndex::MIN_BUCKETS);
        let mut removed = Vec::new();
        for victim in [2, 0, 5] {
            let (u, s) = pairs[victim];
            assert_eq!(store.remove(u, s).map(|o| o.value), Some(victim as f64));
            removed.push(victim);
            for (k, &(u, s)) in pairs.iter().enumerate() {
                let expected = (!removed.contains(&k)).then_some(k as f64);
                assert_eq!(store.get(u, s).map(|o| o.value), expected, "pair {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "service id 4294967296 exceeds u32::MAX")]
    fn ids_above_u32_max_panic_instead_of_aliasing() {
        let mut store = ObservationStore::new();
        store.upsert(0, 0, 1, 1.0);
        assert!(store.get(0, 1 << 32).is_none());
        assert!(store.remove(1 << 32, 0).is_none());
        // Truncated to 32 bits this would be (0, 0) and overwrite it.
        store.upsert(0, 1 << 32, 2, 2.0);
    }

    #[test]
    fn iter_yields_everything() {
        let mut store = ObservationStore::new();
        store.upsert(0, 1, 10, 1.0);
        store.upsert(2, 3, 20, 2.0);
        let mut pairs: Vec<(usize, usize)> = store.iter().map(|o| (o.user, o.service)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn service_mean_aggregates_users() {
        let mut store = ObservationStore::new();
        store.upsert(0, 5, 1, 2.0);
        store.upsert(1, 5, 1, 4.0);
        store.upsert(0, 6, 1, 100.0);
        assert_eq!(store.service_mean(5), Some(3.0));
        assert_eq!(store.service_mean(7), None);
    }

    #[test]
    fn user_and_global_means() {
        let mut store = ObservationStore::new();
        store.upsert(0, 5, 1, 2.0);
        store.upsert(0, 6, 1, 4.0);
        store.upsert(1, 5, 1, 6.0);
        assert_eq!(store.user_mean(0), Some(3.0));
        assert_eq!(store.user_mean(9), None);
        assert_eq!(store.global_mean(), Some(4.0));
        assert_eq!(ObservationStore::new().global_mean(), None);
    }

    #[test]
    fn a_non_finite_value_stops_counting_once_replaced() {
        let mut store = ObservationStore::new();
        store.upsert(0, 0, 1, f64::NAN);
        store.upsert(0, 1, 1, f64::INFINITY);
        assert!(store.user_mean(0).unwrap().is_nan());
        assert_eq!(store.service_mean(1), Some(f64::INFINITY));
        store.upsert(0, 0, 2, 2.0);
        store.upsert(0, 1, 2, 4.0);
        assert_eq!(store.user_mean(0), Some(3.0));
        assert_eq!(store.global_mean(), Some(3.0));
    }

    #[test]
    fn dropped_values_leave_the_means() {
        let mut store = ObservationStore::new();
        store.upsert(0, 0, 0, 1.0); // expired at t=1000
        store.upsert(0, 1, 950, 3.0);
        store.upsert(1, 1, 950, 5.0);
        let mut rng = StdRng::seed_from_u64(6);
        while store.len() > 2 {
            store.sample_live(&mut rng, 1000, EXPIRY).unwrap();
        }
        assert_eq!(store.user_mean(0), Some(3.0));
        assert_eq!(store.service_mean(0), None);
        store.remove(1, 1);
        assert_eq!(store.service_mean(1), Some(3.0));
        assert_eq!(store.purge_expired(2000, EXPIRY), 1);
        assert_eq!((store.user_mean(0), store.service_mean(1)), (None, None));
        assert_eq!(store.global_mean(), None);
        store.upsert(2, 2, 2000, 0.1);
        assert_eq!(
            store.global_mean(),
            Some(0.1),
            "an emptied sum starts afresh"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        const IDS: usize = 4;
        const SHORT: Duration = Duration::from_secs(10);

        /// The mean of the stored values `keep` selects, summed afresh.
        fn fresh(
            store: &ObservationStore,
            keep: impl Fn(&StoredObservation) -> bool,
        ) -> Option<f64> {
            let values: Vec<f64> = store.iter().filter(keep).map(|o| o.value).collect();
            (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
        }

        fn same_mean(actual: Option<f64>, expected: Option<f64>) {
            match (actual, expected) {
                (Some(a), Some(e)) if a.is_finite() && e.is_finite() => {
                    prop_assert!(
                        (a - e).abs() <= 1e-9 * e.abs().max(1e-300),
                        "mean {a} vs fresh {e}"
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

        const USERS: usize = 50;
        const SERVICES: usize = 150;

        type Reference = HashMap<(usize, usize), (u64, f64)>;

        fn fields(o: StoredObservation) -> (u64, f64) {
            (o.timestamp, o.value)
        }

        /// The store holds exactly the reference's pairs, finds each through
        /// its index, and yields each once from `iter`.
        fn matches(store: &ObservationStore, reference: &Reference) {
            prop_assert_eq!(store.len(), reference.len());
            let mut unseen = vec![false; USERS * SERVICES];
            for (&(user, service), &stored) in reference {
                let found = store.get(user, service).map(fields);
                prop_assert_eq!(found, Some(stored), "get({}, {})", user, service);
                unseen[user * SERVICES + service] = true;
            }
            for o in store.iter() {
                let cell = &mut unseen[o.user * SERVICES + o.service];
                prop_assert!(
                    std::mem::take(cell),
                    "iter yields ({}, {})",
                    o.user,
                    o.service
                );
                prop_assert_eq!(store.get(o.user, o.service), Some(o));
            }
        }

        proptest! {
            #[test]
            fn the_store_matches_a_reference_map(
                seed in 0u64..1_000,
                horizon in 20u64..2_000,
                ops in proptest::collection::vec(
                    (0u8..10, 0..USERS, 0..SERVICES, 0u64..3, 0.05..20.0f64),
                    0..1_500
                )
            ) {
                // Mostly upserts over 7,500 possible pairs: about half the
                // cases grow the index from 8 to 1,024 or 2,048 buckets, and
                // short horizons churn it through expiry instead.
                let mut store = ObservationStore::new();
                let mut reference = Reference::new();
                let mut rng = StdRng::seed_from_u64(seed);
                let expiry = Duration::from_secs(horizon);
                let mut now = 0;
                for (op, user, service, dt, value) in ops {
                    now += dt;
                    match op {
                        0 => {
                            let removed = store.remove(user, service).map(fields);
                            prop_assert_eq!(removed, reference.remove(&(user, service)));
                        }
                        1 => {
                            let drawn = store.sample_live(&mut rng, now, expiry);
                            // Whatever left the store on the way was expired.
                            let mut kept = vec![false; USERS * SERVICES];
                            for o in store.iter() {
                                kept[o.user * SERVICES + o.service] = true;
                            }
                            for (&(u, s), &(t, _)) in &reference {
                                let left = !kept[u * SERVICES + s];
                                prop_assert!(!left || now - t >= horizon, "live ({}, {}) left", u, s);
                            }
                            reference.retain(|&(u, s), _| kept[u * SERVICES + s]);
                            match drawn {
                                Some(o) => {
                                    prop_assert!(now - o.timestamp < horizon);
                                    let stored = reference.get(&(o.user, o.service)).copied();
                                    prop_assert_eq!(Some(fields(o)), stored);
                                }
                                None => prop_assert!(reference.is_empty()),
                            }
                        }
                        2 => {
                            let before = reference.len();
                            reference.retain(|_, &mut (t, _)| now - t < horizon);
                            let dropped = store.purge_expired(now, expiry);
                            prop_assert_eq!(dropped, before - reference.len());
                        }
                        _ => {
                            store.upsert(user, service, now, value);
                            reference.insert((user, service), (now, value));
                        }
                    }
                    matches(&store, &reference);
                    let found = store.get(user, service).map(fields);
                    prop_assert_eq!(found, reference.get(&(user, service)).copied());
                }
            }

            #[test]
            fn means_match_a_fresh_recomputation(
                seed in 0u64..1_000,
                ops in proptest::collection::vec(
                    (0u8..8, 0..IDS, 0..IDS, 0u64..40, (0u8..40, 0.05..20.0f64)),
                    0..160
                )
            ) {
                let mut store = ObservationStore::new();
                let mut rng = StdRng::seed_from_u64(seed);
                for (op, user, service, t, (roll, finite)) in ops {
                    match op {
                        0 => {
                            store.remove(user, service);
                        }
                        1 => {
                            store.sample_live(&mut rng, t, SHORT);
                        }
                        2 => {
                            store.purge_expired(t, SHORT);
                        }
                        _ => store.upsert(user, service, t, value(roll, finite)),
                    }
                    for id in 0..IDS {
                        same_mean(store.user_mean(id), fresh(&store, |o| o.user == id));
                        same_mean(store.service_mean(id), fresh(&store, |o| o.service == id));
                    }
                    same_mean(store.global_mean(), fresh(&store, |_| true));
                }
            }
        }
    }
}
