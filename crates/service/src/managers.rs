//! User and service managers (paper Section III: "a service manager is
//! desired to provide utilities like service discovery and service
//! management ... a user manager is set up to manage the joining or leaving
//! activities of users").
//!
//! A [`Registry`] maps stable external identities (PlanetLab host names,
//! WSDL URLs, ...) to the dense indices the AMF model uses, and tracks which
//! entities are currently active. Indices are never reused: a departed
//! entity's feature vector stays in the model (it may return), exactly the
//! behaviour the paper's churn experiment relies on.

use amf_core::SlotIndex;
use serde::{Deserialize, Serialize};
use std::hash::{BuildHasher, RandomState};

/// Dense model index of a registered entity.
pub type EntityId = usize;

/// Every registered name, stored once: concatenated in id order, with the
/// offset where each ends.
#[derive(Debug, Clone, Default)]
struct Names {
    arena: String,
    /// `ends[id]` is the arena offset just past name `id`.
    ends: Vec<u32>,
}

impl Names {
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Name `id`, if it is registered.
    fn get(&self, id: EntityId) -> Option<&str> {
        let end = *self.ends.get(id)? as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        Some(&self.arena[start..end])
    }

    /// Appends `name` as the next id.
    ///
    /// # Panics
    ///
    /// Panics when the names would exceed 4 GiB in all.
    fn push(&mut self, name: &str) {
        self.arena.push_str(name);
        let end = u32::try_from(self.arena.len()).expect("registry names fit in 4 GiB");
        self.ends.push(end);
    }
}

/// The flag bit of an active id.
const ACTIVE: u8 = 1;

/// Seven low bits of a name's hash, placed above [`ACTIVE`]. The index
/// picks buckets by the hash's top bits, so names in one probe run mostly
/// differ here.
fn tag(hash: u64) -> u8 {
    (hash as u8) & !ACTIVE
}

/// An identity registry for one side (users, or services).
///
/// Each name is stored once, in an arena; a [`SlotIndex`] keyed by the
/// registry's own [`RandomState`] maps it back to its id. Names arrive from
/// clients, and a keyed hash keeps them from choosing names that pile into
/// one probe run.
///
/// # Examples
///
/// ```
/// use qos_service::Registry;
///
/// let mut users = Registry::new();
/// let alice = users.join("planetlab1.cs.example.edu");
/// assert_eq!(alice, 0);
/// assert_eq!(users.join("planetlab1.cs.example.edu"), alice); // idempotent
/// assert!(users.is_active(alice));
/// users.leave("planetlab1.cs.example.edu");
/// assert!(!users.is_active(alice));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Registry {
    names: Names,
    /// Per id: bit 0 says whether it is active, and bits 1–7 hold the low
    /// seven bits of its name's hash, so a probe that meets another name
    /// is mostly turned away without reading the arena.
    flags: Vec<u8>,
    /// Name -> id.
    index: SlotIndex,
    hasher: RandomState,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entities ever registered (dense index space size).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no entity was ever registered.
    pub fn is_empty(&self) -> bool {
        self.names.len() == 0
    }

    /// Number of currently active entities.
    pub fn active_count(&self) -> usize {
        self.flags
            .iter()
            .filter(|&&flags| flags & ACTIVE != 0)
            .count()
    }

    /// Probes for `name`, whose hash is `hash`.
    fn probe(&self, name: &str, hash: u64) -> Result<usize, usize> {
        let tag = tag(hash);
        self.index.probe(hash, |id| {
            self.flags[id] & !ACTIVE == tag && self.names.get(id) == Some(name)
        })
    }

    /// Registers (or re-activates) an entity, returning its dense id.
    /// Idempotent: an already-active entity keeps its id.
    pub fn join(&mut self, name: &str) -> EntityId {
        let hash = self.hasher.hash_one(name);
        match self.probe(name, hash) {
            Ok(bucket) => {
                let id = self.index.position(bucket);
                self.flags[id] |= ACTIVE;
                id
            }
            Err(bucket) => {
                let (names, hasher) = (&self.names, &self.hasher);
                let id = names.len();
                self.index.insert(bucket, hash, id, |id| {
                    hasher.hash_one(names.get(id).expect("a stored id"))
                });
                self.names.push(name);
                self.flags.push(tag(hash) | ACTIVE);
                id
            }
        }
    }

    /// Marks an entity inactive. Returns its id if it was known.
    pub fn leave(&mut self, name: &str) -> Option<EntityId> {
        let id = self.resolve(name)?;
        self.flags[id] &= !ACTIVE;
        Some(id)
    }

    /// Resolves an external name to its dense id (active or not).
    pub fn resolve(&self, name: &str) -> Option<EntityId> {
        let bucket = self.probe(name, self.hasher.hash_one(name)).ok()?;
        Some(self.index.position(bucket))
    }

    /// External name of a dense id.
    pub fn name(&self, id: EntityId) -> Option<&str> {
        self.names.get(id)
    }

    /// Whether a dense id is currently active.
    pub fn is_active(&self, id: EntityId) -> bool {
        self.flags.get(id).is_some_and(|&flags| flags & ACTIVE != 0)
    }

    /// Iterator over `(id, name, active)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, &str, bool)> + '_ {
        self.flags.iter().enumerate().map(move |(id, &flags)| {
            let name = self.names.get(id).expect("every id has a name");
            (id, name, flags & ACTIVE != 0)
        })
    }

    /// Ids of all currently active entities.
    pub fn active_ids(&self) -> Vec<EntityId> {
        self.iter()
            .filter(|&(_, _, active)| active)
            .map(|(id, _, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_assigns_sequential_ids() {
        let mut r = Registry::new();
        assert_eq!(r.join("a"), 0);
        assert_eq!(r.join("b"), 1);
        assert_eq!(r.join("c"), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.active_count(), 3);
    }

    #[test]
    fn join_is_idempotent() {
        let mut r = Registry::new();
        let a = r.join("a");
        assert_eq!(r.join("a"), a);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn leave_deactivates_but_keeps_id() {
        let mut r = Registry::new();
        let a = r.join("a");
        assert_eq!(r.leave("a"), Some(a));
        assert!(!r.is_active(a));
        assert_eq!(r.len(), 1, "id space must not shrink");
        assert_eq!(r.resolve("a"), Some(a), "identity persists after leave");
        assert_eq!(r.active_count(), 0);
    }

    #[test]
    fn rejoin_reuses_id() {
        let mut r = Registry::new();
        let a = r.join("a");
        r.leave("a");
        assert_eq!(r.join("a"), a);
        assert!(r.is_active(a));
    }

    #[test]
    fn leave_unknown_is_none() {
        let mut r = Registry::new();
        assert_eq!(r.leave("ghost"), None);
    }

    #[test]
    fn name_and_resolve_roundtrip() {
        let mut r = Registry::new();
        let id = r.join("svc-weather");
        assert_eq!(r.name(id), Some("svc-weather"));
        assert_eq!(r.resolve("svc-weather"), Some(id));
        assert_eq!(r.name(99), None);
        assert_eq!(r.resolve("nope"), None);
    }

    #[test]
    fn iter_and_active_ids() {
        let mut r = Registry::new();
        r.join("a");
        r.join("b");
        r.join("c");
        r.leave("b");
        let all: Vec<(usize, &str, bool)> = r.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1], (1, "b", false));
        assert_eq!(r.active_ids(), vec![0, 2]);
    }

    #[test]
    fn is_active_out_of_range() {
        let r = Registry::new();
        assert!(!r.is_active(0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// Names this many apart cover every shape `pool_name` makes.
        const POOL: u8 = 96;

        /// Name `who` of the pool: empty, ASCII or multi-byte UTF-8, from 0
        /// to about 40 bytes long, and all distinct.
        fn pool_name(who: u8) -> String {
            let n = usize::from(who);
            match who % 4 {
                0 => "é".repeat(n / 4),
                1 => format!("svc-{n}"),
                2 => format!("日本-{}", "x".repeat(n / 3)),
                _ => format!("planetlab{n}.cs.example.edu/ü"),
            }
        }

        /// A random churn script: join/leave events over the name pool.
        fn script() -> impl Strategy<Value = Vec<(bool, u8)>> {
            proptest::collection::vec((proptest::bool::ANY, 0u8..POOL), 120..400)
        }

        /// The registry agrees with `reference`, name -> (id, active), on
        /// every name of the pool.
        fn matches(r: &Registry, reference: &HashMap<String, (usize, bool)>) {
            prop_assert_eq!(r.len(), reference.len());
            for who in 0..POOL {
                let name = pool_name(who);
                let expected = reference.get(&name);
                prop_assert_eq!(r.resolve(&name), expected.map(|&(id, _)| id));
                if let Some(&(id, active)) = expected {
                    prop_assert_eq!(r.name(id), Some(name.as_str()));
                    prop_assert_eq!(r.is_active(id), active);
                }
            }
            prop_assert_eq!(r.name(reference.len()), None);
            prop_assert!(!r.is_active(reference.len()));
            let mut active: Vec<usize> = reference
                .values()
                .filter(|&&(_, active)| active)
                .map(|&(id, _)| id)
                .collect();
            active.sort_unstable();
            prop_assert_eq!(r.active_count(), active.len());
            prop_assert_eq!(r.active_ids(), active);
        }

        proptest! {
            #[test]
            fn identity_is_stable_under_any_churn(events in script()) {
                let mut r = Registry::new();
                let mut reference: HashMap<String, (usize, bool)> = HashMap::new();
                for (join, who) in events {
                    let name = pool_name(who);
                    if join {
                        let next = reference.len();
                        let entry = reference.entry(name.clone()).or_insert((next, true));
                        entry.1 = true;
                        prop_assert_eq!(r.join(&name), entry.0, "id changed across churn");
                    } else {
                        let entry = reference.get_mut(&name).map(|entry| {
                            entry.1 = false;
                            entry.0
                        });
                        prop_assert_eq!(r.leave(&name), entry);
                    }
                    matches(&r, &reference);
                }
                prop_assert!(
                    r.index.buckets() >= SlotIndex::MIN_BUCKETS << 3,
                    "the name table doubled {} times",
                    (r.index.buckets() / SlotIndex::MIN_BUCKETS).trailing_zeros()
                );
            }
        }
    }
}
