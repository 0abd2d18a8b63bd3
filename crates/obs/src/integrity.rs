//! Shared data-integrity primitives.
//!
//! One CRC-32 (IEEE 802.3, reflected) implementation for the whole workspace,
//! implemented locally to stay inside the offline dependency set. It lives in
//! this zero-dependency base crate so every layer can use the *same* checksum:
//! `swlb-io` for checkpoint files, `swlb-comm` for halo-frame and protocol-body
//! checksums, `swlb-serve` for HTTP body integrity headers. (It started life in
//! `swlb-io::checkpoint`, which still re-exports it for compatibility.)

/// Slicing-by-16 lookup tables for the reflected polynomial 0xEDB88320,
/// built at compile time. `TABLES[0]` is the classic bytewise table;
/// `TABLES[k][i]` is the CRC contribution of byte `i` followed by `k` zero
/// bytes, so one 16-byte block folds in with 16 independent lookups.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB88320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Streaming CRC-32 (IEEE 802.3, reflected).
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed `bytes` into the checksum: 16-byte blocks by slicing-by-16, the
    /// tail bytewise. Any split of the input into calls gives the same value.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let a = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(a & 0xFF) as usize]
                ^ t[14][((a >> 8) & 0xFF) as usize]
                ^ t[13][((a >> 16) & 0xFF) as usize]
                ^ t[12][(a >> 24) as usize];
            for (j, &byte) in b[4..].iter().enumerate() {
                crc ^= t[11 - j][byte as usize];
            }
        }
        for &b in blocks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // "123456789" → 0xCBF43926 (the standard check value).
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bytewise CRC-32, kept here as the reference the
    /// slicing-by-16 implementation must reproduce.
    fn bytewise_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB88320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc_matches_bytewise_reference_on_random_splits() {
        // Seeded xorshift64*: random lengths (covering every residue mod 16
        // and multi-block inputs) fed in two or three random pieces.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as usize % n.max(1)
        };
        for case in 0..400 {
            let len = if case < 64 { case } else { next(4096) };
            let data: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
            let expect = bytewise_reference(&data);
            assert_eq!(crc32(&data), expect, "one-shot, len {len}");
            let a = next(len + 1);
            let b = a + next(len - a + 1);
            let mut c = Crc32::new();
            c.update(&data[..a]);
            c.update(&data[a..b]);
            c.update(&data[b..]);
            assert_eq!(c.finish(), expect, "len {len} split at {a}, {b}");
        }
    }

    #[test]
    fn streaming_crc_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }
}
