//! A fast, deterministic hasher for the simulator's hot maps.
//!
//! The workspace's hottest maps — proxy caches keyed by [`ScopedUrl`],
//! site lists keyed by [`Url`]/[`ClientId`], the engine's timer and
//! reachability sets keyed by [`NodeId`] — all hash tiny fixed-width keys
//! (4–16 bytes). `std`'s default SipHash-1-3 is a keyed hash hardened
//! against collision flooding, which these closed-world simulation keys do
//! not need; profiling the replay inner loop showed a measurable share of
//! time under `SipHasher13::write`. [`FxHasher`] is the classic
//! Firefox/rustc multiply-xor hash: one `wrapping_mul` per word, no
//! per-process random state.
//!
//! The fixed state has a second benefit: **map iteration order is a pure
//! function of the insertion sequence**, identical across processes and
//! platforms, so no hash-order nondeterminism can leak into replay
//! reports. (`std`'s `RandomState` reseeds per process; any accidental
//! dependence on its iteration order would defeat byte-identical replays.)
//! Clippy's `disallowed-types` list (the `clippy.toml` of `core`, `httpsim`
//! and `simnet`) keeps std's maps out of the protocol-hot crates.
//!
//! [`ScopedUrl`]: crate::ScopedUrl
//! [`Url`]: crate::Url
//! [`ClientId`]: crate::ClientId
//! [`NodeId`]: crate::NodeId
//!
//! # Examples
//!
//! ```
//! use wcc_types::{FxHashMap, Url, ServerId};
//!
//! let mut hits: FxHashMap<Url, u64> = FxHashMap::default();
//! *hits.entry(Url::new(ServerId::new(0), 7)).or_insert(0) += 1;
//! assert_eq!(hits.len(), 1);
//! ```

use core::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed by the deterministic [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Builds [`FxHasher`]s; zero-sized and stateless, so two maps with the
/// same keys always agree on bucket placement.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc/Firefox "Fx" hash: `hash = (hash.rotate_left(5) ^ word) * SEED`
/// per input word. Not collision-resistant against adversaries — never use
/// it for keys an attacker controls; the simulator's keys are its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (head, rest) = bytes.split_at(8);
            let word = u64::from_le_bytes([
                head[0], head[1], head[2], head[3], head[4], head[5], head[6], head[7],
            ]);
            self.add_to_hash(word);
            bytes = rest;
        }
        if !bytes.is_empty() {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn identical_keys_hash_identically() {
        let url = crate::Url::new(crate::ServerId::new(3), 99);
        assert_eq!(hash_of(&url), hash_of(&url));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn nearby_keys_scatter() {
        // Dense u32 ids (the workspace's key shape) must not collide or
        // cluster into identical hashes.
        let hashes: std::collections::BTreeSet<u64> = (0u32..1000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn iteration_order_is_a_pure_function_of_insertions() {
        let build = |ids: &[u32]| -> Vec<u32> {
            let mut set: FxHashSet<u32> = FxHashSet::default();
            for &i in ids {
                set.insert(i);
            }
            set.into_iter().collect()
        };
        // The same insertion sequence always yields the same iteration
        // order — including across processes and runs, unlike std's
        // per-process RandomState. (Different insertion *orders* may still
        // differ: table probing is displacement-sensitive.)
        let a = build(&[5, 1, 9, 4, 7, 2]);
        let b = build(&[5, 1, 9, 4, 7, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn tail_bytes_affect_the_hash() {
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(
            hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9]),
            hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 10])
        );
    }
}
