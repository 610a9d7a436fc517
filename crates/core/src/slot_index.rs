//! An open-addressed index from keys to their positions in a caller's list.
//!
//! The per-pair [`ObservationStore`](crate::ObservationStore) and the
//! service's name registry both keep their keys in a dense list of their
//! own and need a hash table only to find a key's position. [`SlotIndex`]
//! is that table with the keys left out: a bucket holds a position plus
//! one, and 0 marks it empty, so a bucket costs 4 bytes. The caller passes
//! in each key's 64-bit hash and, for lookups, a test of whether the key
//! at a position is the one sought; the index never sees a key.

/// An open-addressed index from a key to its position in the caller's list.
///
/// A key's home bucket is the top `log2(buckets)` bits of its hash, so the
/// caller's hash must spread its top bits. Probing is linear from the home
/// bucket. Removal shifts the rest of the probe run back instead of leaving
/// tombstones, so churn never lengthens probes. The table doubles before
/// an insert would take it past 3/4 load, and a doubling re-hashes the
/// stored keys through the caller.
///
/// Every method that takes a hash or a key test reads the caller's list,
/// so each position a bucket names must still hold the key indexed there.
///
/// # Examples
///
/// ```
/// use amf_core::SlotIndex;
/// use std::hash::{BuildHasher, RandomState};
///
/// let hasher = RandomState::new();
/// let mut keys: Vec<&str> = Vec::new();
/// let mut index = SlotIndex::default();
/// for key in ["a", "b", "a"] {
///     let hash = hasher.hash_one(key);
///     if let Err(bucket) = index.probe(hash, |p| keys[p] == key) {
///         index.insert(bucket, hash, keys.len(), |p| hasher.hash_one(keys[p]));
///         keys.push(key);
///     }
/// }
/// assert_eq!(keys, ["a", "b"]);
/// assert_eq!(index.get(hasher.hash_one("b"), |p| keys[p] == "b"), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct SlotIndex {
    /// A power-of-two number of buckets, at most 3/4 of them occupied.
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the hash's top bits pick the bucket.
    shift: u32,
}

impl Default for SlotIndex {
    fn default() -> Self {
        Self {
            buckets: vec![0; Self::MIN_BUCKETS],
            shift: 64 - Self::MIN_BUCKETS.trailing_zeros(),
        }
    }
}

impl SlotIndex {
    /// Buckets of a fresh index; a power of two.
    pub const MIN_BUCKETS: usize = 8;

    /// Number of buckets, occupied or not.
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    fn home(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    fn next(&self, bucket: usize) -> usize {
        (bucket + 1) & (self.buckets.len() - 1)
    }

    /// Probes for the key whose hash is `hash`, where `is_key(position)`
    /// tells whether the key at `position` is the one sought: `Ok` with the
    /// bucket naming its position, or `Err` with the empty bucket that ends
    /// its probe run.
    pub fn probe(&self, hash: u64, mut is_key: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mut bucket = self.home(hash);
        loop {
            match self.buckets[bucket] {
                0 => return Err(bucket),
                slot if is_key(slot as usize - 1) => return Ok(bucket),
                _ => bucket = self.next(bucket),
            }
        }
    }

    /// The position an occupied `bucket` names.
    pub fn position(&self, bucket: usize) -> usize {
        self.buckets[bucket] as usize - 1
    }

    /// The position of the key [`SlotIndex::probe`] would find, if any.
    pub fn get(&self, hash: u64, is_key: impl FnMut(usize) -> bool) -> Option<usize> {
        Some(self.position(self.probe(hash, is_key).ok()?))
    }

    /// Indexes a new key at `position`, the length of the caller's list
    /// before the key is pushed. `bucket` is the empty bucket its probe
    /// ended at, and `hash_of` gives the hash of the key at each stored
    /// position, for when the table doubles.
    ///
    /// # Panics
    ///
    /// Panics when `position` is `u32::MAX` or more.
    pub fn insert(
        &mut self,
        mut bucket: usize,
        hash: u64,
        position: usize,
        hash_of: impl FnMut(usize) -> u64,
    ) {
        let slot = u32::try_from(position + 1).expect("fewer than u32::MAX keys");
        if (position + 1) * 4 > self.buckets.len() * 3 {
            self.grow(position, hash_of);
            bucket = self.vacant(hash);
        }
        self.buckets[bucket] = slot;
    }

    /// The first empty bucket of `hash`'s probe run.
    fn vacant(&self, hash: u64) -> usize {
        let mut bucket = self.home(hash);
        while self.buckets[bucket] != 0 {
            bucket = self.next(bucket);
        }
        bucket
    }

    /// Doubles the table and re-indexes positions `0..len`. The table is
    /// rebuilt from the caller's keys, so the old one is freed before the
    /// new one is allocated and a doubling never holds both.
    fn grow(&mut self, len: usize, mut hash_of: impl FnMut(usize) -> u64) {
        let buckets = self.buckets.len() * 2;
        drop(std::mem::take(&mut self.buckets));
        self.buckets = vec![0; buckets];
        self.shift -= 1;
        for position in 0..len {
            let bucket = self.vacant(hash_of(position));
            self.buckets[bucket] = position as u32 + 1;
        }
    }

    /// The bucket naming `position`, whose key hashes to `hash`.
    fn bucket_of(&self, hash: u64, position: usize) -> usize {
        self.probe(hash, |p| p == position)
            .expect("the position is indexed")
    }

    /// Unlinks `position`, whose key hashes to `hash`. Later members of its
    /// probe run shift back, each into the hole when the hole lies between
    /// its home and its bucket, so every key stays reachable from its home.
    /// `hash_of` gives the hash of the key at each stored position.
    pub fn remove(&mut self, hash: u64, position: usize, mut hash_of: impl FnMut(usize) -> u64) {
        let mut hole = self.bucket_of(hash, position);
        let mask = self.buckets.len() - 1;
        let mut bucket = self.next(hole);
        while let slot @ 1.. = self.buckets[bucket] {
            let home = self.home(hash_of(slot as usize - 1));
            if bucket.wrapping_sub(home) & mask >= bucket.wrapping_sub(hole) & mask {
                self.buckets[hole] = slot;
                hole = bucket;
            }
            bucket = self.next(bucket);
        }
        self.buckets[hole] = 0;
    }

    /// Points the bucket naming position `from`, whose key hashes to
    /// `hash`, at position `to`: for a key the caller moves in its list.
    pub fn repoint(&mut self, hash: u64, from: usize, to: usize) {
        let bucket = self.bucket_of(hash, from);
        self.buckets[bucket] = to as u32 + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_4_bytes() {
        let index = SlotIndex::default();
        assert_eq!(
            std::mem::size_of_val(&index.buckets[..]),
            4 * SlotIndex::MIN_BUCKETS
        );
    }

    #[test]
    fn colliding_keys_share_one_probe_run() {
        // Every key hashes alike, so each lookup walks the run and the
        // key test alone tells the keys apart.
        let keys = [10, 20, 30, 40, 50];
        let mut index = SlotIndex::default();
        for (position, &key) in keys.iter().enumerate() {
            let bucket = index
                .probe(7, |p| keys[p] == key)
                .expect_err("a new key is not indexed");
            index.insert(bucket, 7, position, |_| 7);
        }
        assert_eq!(index.buckets(), 8, "5 keys fit 3/4 of 8 buckets");
        for (position, &key) in keys.iter().enumerate() {
            assert_eq!(index.get(7, |p| keys[p] == key), Some(position));
        }
        assert_eq!(index.get(7, |_| false), None);
    }
}
