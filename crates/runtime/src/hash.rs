//! A multiply-rotate hasher for the runtime's hot integer-keyed maps.
//!
//! Keys are task refs, op indices and region/space ids the program itself
//! numbered — never outside input — so SipHash's collision resistance
//! buys nothing and its ~20 ns per lookup is most of what a per-edge
//! dedup or a per-requirement oracle lookup costs.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// One rotate-xor-multiply round per written word (the `FxHash` scheme).
#[derive(Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` under [`IntHasher`]. Lookup-only by contract: no map or set
/// of these aliases is ever iterated to produce output (reports, traces,
/// messages, or anything else whose order could be observed) — keep it
/// that way, or sort first.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
/// `HashSet` under [`IntHasher`]; same lookup-only contract as [`IntMap`].
pub(crate) type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;
