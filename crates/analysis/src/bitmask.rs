//! A flat bitmask over linearized partition colors.
//!
//! Listing 3 of the paper allocates one boolean per sub-collection of the
//! partition being checked. We pack the booleans into `u64` words; the
//! interesting operation is [`test_and_set`](BitMask::test_and_set), which
//! is the inner step of the dynamic check.

/// A fixed-size bitmask indexed by linearized partition color.
#[derive(Debug)]
pub struct BitMask {
    words: Vec<u64>,
    len: u64,
}

impl BitMask {
    /// Allocate a cleared bitmask of `len` bits.
    pub fn new(len: u64) -> Self {
        let words = vec![0u64; len.div_ceil(64) as usize];
        BitMask { words, len }
    }

    /// Read bit `idx`.
    ///
    /// # Panics
    /// Panics when `idx >= len` (the dynamic check bounds-checks functor
    /// values *before* touching the mask, mirroring line 13 of Listing 3).
    #[inline]
    pub fn get(&self, idx: u64) -> bool {
        assert!(idx < self.len, "bit {idx} out of range {}", self.len);
        (self.words[(idx / 64) as usize] >> (idx % 64)) & 1 != 0
    }

    /// Set bit `idx`, returning its previous value — the core of the
    /// duplicate-detection loop.
    #[inline]
    pub fn test_and_set(&mut self, idx: u64) -> bool {
        assert!(idx < self.len, "bit {idx} out of range {}", self.len);
        let word = &mut self.words[(idx / 64) as usize];
        let bit = 1u64 << (idx % 64);
        let was = *word & bit != 0;
        *word |= bit;
        was
    }

    /// Test `mask` against word `w` without writing: returns the overlap
    /// (`word & mask`), nonzero iff any bit of `mask` is already set. This
    /// is the read-side of the word-parallel check: one load and one AND
    /// cover up to 64 colors.
    #[inline]
    pub fn test_word(&self, w: usize, mask: u64) -> u64 {
        self.words[w] & mask
    }

    /// OR `mask` into word `w`, returning the *previous* overlap
    /// (`old & mask`) — a fetch-style word-wide
    /// [`test_and_set`](BitMask::test_and_set): nonzero result means some bit of `mask`
    /// was already set (a conflict for the write-side check).
    #[inline]
    pub fn fetch_or_word(&mut self, w: usize, mask: u64) -> u64 {
        let word = &mut self.words[w];
        let was = *word & mask;
        *word |= mask;
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_ones(m: &BitMask) -> u64 {
        m.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMask::new(130);
        assert!(!m.get(0));
        for i in [0, 63, 64, 129] {
            m.test_and_set(i);
        }
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(65) && !m.get(128));
        assert_eq!(count_ones(&m), 4);
    }

    #[test]
    fn test_and_set_semantics() {
        let mut m = BitMask::new(10);
        assert!(!m.test_and_set(7));
        assert!(m.test_and_set(7));
        assert!(m.get(7));
        assert!(!m.test_and_set(6));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut m = BitMask::new(64);
        m.test_and_set(64);
    }

    #[test]
    fn zero_length() {
        let m = BitMask::new(0);
        assert!(m.words.is_empty());
        assert_eq!(count_ones(&m), 0);
    }

    #[test]
    fn word_ops_match_bit_ops() {
        let mut m = BitMask::new(130);
        // fetch_or_word reports prior overlap only.
        assert_eq!(m.fetch_or_word(0, 0b1010), 0);
        assert_eq!(m.fetch_or_word(0, 0b0110), 0b0010);
        assert!(m.get(1) && m.get(2) && m.get(3));
        assert!(!m.get(0));
        // test_word never writes.
        assert_eq!(m.test_word(0, 0b1000), 0b1000);
        assert_eq!(m.test_word(1, !0), 0);
        assert_eq!(count_ones(&m), 3);
        assert_eq!(m.words, [0b1110, 0, 0]);
    }
}
