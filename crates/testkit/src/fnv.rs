//! FNV-1a (64-bit): the hash the pin tests fold their results into, and
//! the property harness's default seed from a property's name.

/// A running FNV-1a hash. Bytes fold in one at a time; a word folds in as
/// its eight little-endian bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The offset basis: the hash of no bytes.
    pub const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    /// The multiplier applied after each byte.
    pub const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// The hash of no bytes.
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Fold in `bytes`, in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Fold in `word` as its little-endian bytes.
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// The FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_word_is_its_little_endian_bytes() {
        let mut word = Fnv1a::new();
        word.word(0x0102_0304_0506_0708);
        let mut bytes = Fnv1a::new();
        bytes.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(word, bytes);
    }
}
