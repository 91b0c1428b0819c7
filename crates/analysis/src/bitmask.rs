//! A flat bitmask over linearized partition colors.
//!
//! Listing 3 of the paper allocates one boolean per sub-collection of the
//! partition being checked. We pack the booleans into `u64` words; the
//! interesting operation is [`test_and_set`](BitMask::test_and_set), which
//! is the inner step of the dynamic check.

/// A fixed-size bitmask indexed by linearized partition color.
#[derive(Clone, Debug, PartialEq, Eq)]
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

    /// Number of bits.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Set bit `idx`.
    #[inline]
    pub fn set(&mut self, idx: u64) {
        assert!(idx < self.len, "bit {idx} out of range {}", self.len);
        self.words[(idx / 64) as usize] |= 1 << (idx % 64);
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

    /// Clear every bit (reuse between check phases).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of backing 64-bit words.
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// Read backing word `w`.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
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

    /// Merge `other` into `self`, failing on the first word where the two
    /// masks overlap (some bit set in both). Used by the chunked-parallel
    /// check to combine per-chunk masks in deterministic chunk order.
    ///
    /// On `Err`, `self` holds every word before the offending one already
    /// merged; callers treat any error as a conflict and fall back to the
    /// sequential reference check, so partial state is never observed.
    ///
    /// # Panics
    /// Panics when the masks have different lengths.
    pub fn try_union(&mut self, other: &BitMask) -> Result<(), usize> {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (w, (dst, src)) in self.words.iter_mut().zip(&other.words).enumerate() {
            if *dst & *src != 0 {
                return Err(w);
            }
            *dst |= *src;
        }
        Ok(())
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMask::new(130);
        assert_eq!(m.len(), 130);
        assert!(!m.get(0));
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(129);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(65) && !m.get(128));
        assert_eq!(m.count_ones(), 4);
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
    fn clear_resets() {
        let mut m = BitMask::new(100);
        for i in 0..100 {
            m.set(i);
        }
        assert_eq!(m.count_ones(), 100);
        m.clear();
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut m = BitMask::new(64);
        m.set(64);
    }

    #[test]
    fn zero_length() {
        let m = BitMask::new(0);
        assert!(m.is_empty());
        assert_eq!(m.count_ones(), 0);
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
        assert_eq!(m.count_ones(), 3);
        assert_eq!(m.word_len(), 3);
        assert_eq!(m.word(0), 0b1110);
    }

    #[test]
    fn try_union_merges_or_reports_overlap_word() {
        let mut a = BitMask::new(200);
        let mut b = BitMask::new(200);
        a.set(5);
        a.set(70);
        b.set(6);
        b.set(199);
        assert_eq!(a.try_union(&b), Ok(()));
        assert!(a.get(5) && a.get(6) && a.get(70) && a.get(199));
        let mut c = BitMask::new(200);
        c.set(70);
        assert_eq!(a.try_union(&c), Err(1));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn try_union_length_mismatch_panics() {
        let mut a = BitMask::new(64);
        let b = BitMask::new(65);
        let _ = a.try_union(&b);
    }
}
