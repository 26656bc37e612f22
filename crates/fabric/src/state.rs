//! Key-hash sharded world state for the finalize stage.
//!
//! Every block's conflict chains commit through a [`ShardedState`]: a
//! copy-on-write overlay over the peer's published state epoch, with
//! the overlay split into [`SHARDS`] independently locked hash buckets
//! so chains touching disjoint keys never contend (the
//! key-disjointness insight of Meir et al., *Lockless Transaction
//! Isolation in Hyperledger Fabric*). Reads fall through the overlay to
//! the immutable base; writes and deletes land only in the overlay, so
//! constructing a `ShardedState` over the shared epoch copies nothing.
//! Because the conflict-graph scheduler (see [`crate::schedule`])
//! routes every key to exactly one chain, two threads never race on a
//! key — the per-shard mutexes only arbitrate *map* structure, and each
//! lock is held for single `put` / `delete` / `version` calls, never
//! across a wait.
//!
//! After the block's chains complete, [`ShardedState::into_overlay`]
//! drops the base and returns only the block's writes and deletes as an
//! [`Overlay`], sorted by key. Each key lives in exactly one shard, so
//! the overlay — and the state it produces when
//! [`crate::peer::Peer::commit`] applies it — is independent of shard
//! layout and thread interleaving: part of the determinism argument in
//! DESIGN.md §4.10. A block therefore costs state work in proportion to
//! the keys it writes, never to the size of the state.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use fabriccrdt_jsoncrdt::op::fnv1a;
use fabriccrdt_ledger::mvcc::ChainState;
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::VersionedValue;
use fabriccrdt_ledger::WorldState;

/// Number of lock shards (a power of two so the hash folds with a
/// mask). 32 comfortably exceeds any worker count we spawn.
pub const SHARDS: usize = 32;

/// An overlay entry: `Some` is a committed write, `None` a delete.
type OverlayEntry = Option<VersionedValue>;

/// A block's committed writes: key-unique and sorted by key; `Some` is
/// a write, `None` a delete. Applying it to the pre-block state yields
/// the post-block state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Overlay {
    entries: Vec<(String, OverlayEntry)>,
}

impl Overlay {
    /// Applies the writes and deletes to `world` in place.
    pub fn apply_to(self, world: &mut WorldState) {
        for (key, entry) in self.entries {
            match entry {
                Some(versioned) => {
                    world.put(key, versioned.value, versioned.version);
                }
                None => {
                    world.delete(&key);
                }
            }
        }
    }
}

/// A [`WorldState`] behind a sharded copy-on-write overlay (see module
/// docs).
#[derive(Debug)]
pub struct ShardedState {
    base: Arc<WorldState>,
    shards: Vec<Mutex<HashMap<String, OverlayEntry>>>,
}

fn shard_of(key: &str) -> usize {
    fnv1a(key.as_bytes()) as usize & (SHARDS - 1)
}

impl ShardedState {
    /// Snapshots `world` as the immutable read base (one bulk clone;
    /// overlays start empty).
    pub fn from_world(world: &WorldState) -> Self {
        Self::from_shared(Arc::new(world.clone()))
    }

    /// Uses an already-shared state epoch as the immutable read base —
    /// *zero* clones. This is the peer's path: its world state lives
    /// behind an `Arc` (see [`crate::peer::Peer`]), so finalize borrows
    /// the same epoch the lockless pre-validation snapshots point at.
    pub fn from_shared(base: Arc<WorldState>) -> Self {
        ShardedState {
            base,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Drops the base and returns the block's writes and deletes in
    /// canonical (sorted) order. Each key lives in exactly one shard, so
    /// the result is independent of shard layout.
    pub fn into_overlay(self) -> Overlay {
        let mut entries: Vec<(String, OverlayEntry)> = self
            .shards
            .into_iter()
            .flat_map(|shard| shard.into_inner().expect("state shard poisoned"))
            .collect();
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        Overlay { entries }
    }

    /// Total number of live entries (base entries plus overlay inserts,
    /// minus overlay deletes).
    pub fn len(&self) -> usize {
        let mut len = self.base.len();
        for shard in &self.shards {
            for (key, entry) in shard.lock().expect("state shard poisoned").iter() {
                match (entry.is_some(), self.base.get(key).is_some()) {
                    (true, false) => len += 1,
                    (false, true) => len -= 1,
                    _ => {}
                }
            }
        }
        len
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ChainState for ShardedState {
    fn version(&self, key: &str) -> Option<Height> {
        let shard = self.shards[shard_of(key)]
            .lock()
            .expect("state shard poisoned");
        match shard.get(key) {
            Some(entry) => entry.as_ref().map(|v| v.version),
            None => self.base.version(key),
        }
    }

    fn put(&self, key: String, value: Vec<u8>, version: Height) {
        self.shards[shard_of(&key)]
            .lock()
            .expect("state shard poisoned")
            .insert(key, Some(VersionedValue { value, version }));
    }

    fn delete(&self, key: &str) {
        self.shards[shard_of(key)]
            .lock()
            .expect("state shard poisoned")
            .insert(key.to_owned(), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabriccrdt_ledger::codec;

    fn seeded_world(keys: usize) -> WorldState {
        let mut world = WorldState::new();
        for n in 0..keys {
            world.put(
                format!("key-{n}"),
                format!("value-{n}").into_bytes(),
                Height::new(1, n as u64),
            );
        }
        world
    }

    /// `world` with `sharded`'s overlay applied — what a commit installs.
    fn committed(world: &WorldState, sharded: ShardedState) -> WorldState {
        let mut world = world.clone();
        sharded.into_overlay().apply_to(&mut world);
        world
    }

    #[test]
    fn untouched_state_yields_an_empty_overlay() {
        let world = seeded_world(100);
        let overlay = ShardedState::from_world(&world).into_overlay();
        assert_eq!(overlay, Overlay::default());
        let mut rebuilt = world.clone();
        overlay.apply_to(&mut rebuilt);
        assert_eq!(codec::encode_state(&rebuilt), codec::encode_state(&world));
    }

    #[test]
    fn overlay_releases_the_shared_epoch_untouched() {
        let epoch = Arc::new(seeded_world(50));
        let sharded = ShardedState::from_shared(epoch.clone());
        sharded.put("key-3".into(), b"updated".to_vec(), Height::new(2, 0));
        sharded.delete("key-7");
        let overlay = sharded.into_overlay();
        // The base `Arc` is dropped, not cloned, and still holds the
        // pre-block state...
        assert_eq!(Arc::strong_count(&epoch), 1);
        assert_eq!(epoch.version("key-3"), Some(Height::new(1, 3)));
        assert_eq!(epoch.len(), 50);
        // ...while the overlay carries exactly the block's two keys.
        let updated = VersionedValue {
            value: b"updated".to_vec(),
            version: Height::new(2, 0),
        };
        assert_eq!(
            overlay.entries,
            [
                ("key-3".to_string(), Some(updated)),
                ("key-7".to_string(), None)
            ]
        );
        let mut world = Arc::try_unwrap(epoch).unwrap();
        overlay.apply_to(&mut world);
        assert_eq!(world.len(), 49);
        assert_eq!(world.value("key-3"), Some(&b"updated"[..]));
    }

    #[test]
    fn overlay_is_key_unique_and_sorted() {
        let sharded = ShardedState::from_world(&WorldState::new());
        for key in ["zeta", "alpha", "mid", "alpha"] {
            sharded.put(key.into(), key.as_bytes().to_vec(), Height::new(2, 0));
        }
        sharded.delete("mid");
        let overlay = sharded.into_overlay();
        let keys: Vec<&str> = overlay.entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["alpha", "mid", "zeta"]);
        assert_eq!(overlay.entries[1].1, None, "the last operation wins");
    }

    #[test]
    fn chain_state_operations_mirror_world_state() {
        let base = seeded_world(10);
        let sharded = ShardedState::from_world(&base);
        assert_eq!(sharded.len(), 10);
        assert_eq!(sharded.version("key-3"), Some(Height::new(1, 3)));
        assert_eq!(sharded.version("missing"), None);

        sharded.put("key-3".into(), b"updated".to_vec(), Height::new(2, 0));
        sharded.put("fresh".into(), b"new".to_vec(), Height::new(2, 1));
        sharded.delete("key-7");

        let mut expect = seeded_world(10);
        expect.put("key-3".into(), b"updated".to_vec(), Height::new(2, 0));
        expect.put("fresh".into(), b"new".to_vec(), Height::new(2, 1));
        expect.delete("key-7");
        assert_eq!(committed(&base, sharded), expect);
    }

    #[test]
    fn overlay_shadows_the_base() {
        let sharded = ShardedState::from_world(&seeded_world(4));
        sharded.put("key-1".into(), b"new".to_vec(), Height::new(9, 0));
        sharded.delete("key-2");
        assert_eq!(sharded.version("key-1"), Some(Height::new(9, 0)));
        assert_eq!(sharded.version("key-2"), None, "delete masks the base");
        assert_eq!(sharded.version("key-0"), Some(Height::new(1, 0)));
        assert_eq!(sharded.len(), 3);
    }

    #[test]
    fn empty_world_roundtrips() {
        let sharded = ShardedState::from_world(&WorldState::new());
        assert!(sharded.is_empty());
        assert!(committed(&WorldState::new(), sharded).is_empty());
    }

    #[test]
    fn concurrent_disjoint_writes_land() {
        let sharded = Arc::new(ShardedState::from_world(&WorldState::new()));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sharded = sharded.clone();
                scope.spawn(move || {
                    for n in 0..50u64 {
                        sharded.put(
                            format!("t{t}-k{n}"),
                            vec![t as u8, n as u8],
                            Height::new(t, n),
                        );
                    }
                });
            }
        });
        let sharded = Arc::try_unwrap(sharded).unwrap();
        let world = committed(&WorldState::new(), sharded);
        assert_eq!(world.len(), 200);
        assert_eq!(world.value("t2-k49"), Some(&[2u8, 49][..]));
    }
}
