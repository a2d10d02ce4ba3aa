//! The workspace's one FNV-1a-64: request fingerprints, result checksums
//! and transport envelopes all hash through this type, so a checksum
//! compared across a socket means the same thing in every crate.
//!
//! Not a defence against crafted collisions — every use is an equality
//! aid over data this process (or its own client) produced.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a-64 hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hasher at the offset basis.
    pub const fn new() -> Self {
        Fnv64(OFFSET)
    }

    /// Fold `bytes` in, one byte at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Fold `v` in as eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Fold `w` in as one step, `h' = (h ^ w) * PRIME`: an eighth of the
    /// multiplies of [`Fnv64::write_u64`] and a different function, so only
    /// for values that never persist or leave the process (transport
    /// envelopes). Xor and multiplication by the odd prime are bijections in
    /// both `h` and `w`: two inputs differing in one word never collide.
    #[inline]
    pub fn write_word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
    }

    /// The hash of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a-64 test vectors.
    #[test]
    fn matches_reference_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv64::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        let (mut a, mut b) = (Fnv64::new(), Fnv64::new());
        a.write_u64(0x0102_0304_0506_0708);
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
        // Pinned: checksums on the serve wire are made of this.
        assert_eq!(a.finish(), 0x0c6d_4496_e178_59d5);
    }

    #[test]
    fn write_word_is_one_step_and_leaves_the_byte_form_alone() {
        let mut h = Fnv64::new();
        h.write_word(0x0102_0304_0506_0708);
        assert_eq!(
            h.finish(),
            (OFFSET ^ 0x0102_0304_0506_0708).wrapping_mul(PRIME)
        );
        let mut bytes = Fnv64::new();
        bytes.write_u64(0x0102_0304_0506_0708);
        assert_ne!(h.finish(), bytes.finish());
    }
}
