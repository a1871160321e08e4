//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), implemented from
//! scratch for WAL and snapshot integrity checking.
//!
//! Eight bytes are folded at a time ("slicing-by-8"): table `k` holds the
//! CRC of a byte followed by `k` zero bytes, so the eight lookups of one
//! step are independent of each other and only their XOR waits on the
//! previous step. Any tail shorter than eight bytes goes through table 0,
//! the classic byte-at-a-time loop.

/// Lazily built lookup tables: `tables()[0]` is the byte-at-a-time table,
/// and `tables()[k][b]` is the CRC state after `b` and then `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let c = t[k - 1][i];
                t[k][i] = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            }
        }
        t
    })
}

/// Advances the CRC state `c` over `bytes`.
fn update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Computes the CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 hasher for streaming writers.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Starts a new computation.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update(self.state, bytes);
    }

    /// Finalizes and returns the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CRC one bit at a time, straight from the polynomial: the
    /// reference the tables are held to.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// `n` bytes from a seeded xorshift.
    fn seeded(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn eight_at_a_time_is_the_bitwise_crc_at_every_length_and_offset() {
        for seed in 1..=8 {
            let buffer = seeded(seed, 80);
            for offset in 0..8 {
                for len in 0..=64 {
                    let bytes = &buffer[offset..offset + len];
                    assert_eq!(crc32(bytes), bitwise(bytes), "seed {seed}, at {offset}, {len} B");
                }
            }
        }
        let large = seeded(9, 100_003);
        assert_eq!(crc32(&large), bitwise(&large));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello metadata mess";
        let mut h = Crc32::new();
        h.update(&data[..5]);
        h.update(&data[5..]);
        assert_eq!(h.finish(), crc32(data));
        // fed at every split point, and in ragged pieces
        let data = seeded(11, 200);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split at {split}");
        }
        let mut h = Crc32::default();
        let mut rest = &data[..];
        for len in (1..).map(|i| i * 7 % 13) {
            if rest.is_empty() {
                break;
            }
            let (piece, after) = rest.split_at(len.min(rest.len()));
            h.update(piece);
            rest = after;
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"catalog record".to_vec();
        let orig = crc32(&data);
        data[3] ^= 0x01;
        assert_ne!(crc32(&data), orig);
    }
}
