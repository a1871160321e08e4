//! Seeded case generation for the workspace's sweep tests. Std only, so a
//! test of any crate can take it: `mod common;` in this crate,
//! `#[path = "../../core/tests/common/mod.rs"] mod common;` elsewhere.
//!
//! A property is a closure over an [`Rng`]; [`sweep`] runs it once per seed
//! `0..cases` and names the seed of a case that panics, so a failure
//! replays with `case(&mut Rng(seed))`.

#![allow(dead_code)] // each test file draws only some of the generators

/// SplitMix64: tiny, dependency-free, and good enough to scatter cases.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below(hi.abs_diff(lo)) as i64
    }

    /// Uniform in `lo..hi`, as an index or a length.
    pub fn size(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    pub fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.size(0, items.len())]
    }

    /// `min..max` draws of `item`.
    pub fn vec<T>(
        &mut self,
        min: usize,
        max: usize,
        mut item: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        (0..self.size(min, max)).map(|_| item(self)).collect()
    }

    pub fn bytes(&mut self, min: usize, max: usize) -> Vec<u8> {
        self.vec(min, max, |rng| rng.next() as u8)
    }

    /// `min..=max` characters, each drawn from `alphabet`.
    pub fn string(&mut self, alphabet: &str, min: usize, max: usize) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        (0..self.size(min, max + 1)).map(|_| *self.pick(&alphabet)).collect()
    }

    /// `min..=max` characters of anything but control characters: mostly
    /// printable ASCII, the rest from all over Unicode (multi-byte,
    /// combining, wide, astral).
    pub fn text(&mut self, min: usize, max: usize) -> String {
        (0..self.size(min, max + 1))
            .map(|_| loop {
                let code = match self.below(4) {
                    0 => self.below(0x3_0000) as u32,
                    _ => 0x20 + self.below(0x5f) as u32,
                };
                match char::from_u32(code) {
                    Some(c) if !c.is_control() => break c,
                    _ => {}
                }
            })
            .collect()
    }
}

/// `a-z`.
pub const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
/// `a-z_`.
pub const IDENT: &str = "abcdefghijklmnopqrstuvwxyz_";
/// `a-zA-Z`.
pub const ALPHA: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
/// `0-9`.
pub const DIGITS: &str = "0123456789";

/// Printable ASCII, space to tilde.
pub fn printable() -> String {
    (' '..='~').collect()
}

/// Runs `case` on the generators seeded `0..cases`.
pub fn sweep(cases: u64, mut case: impl FnMut(&mut Rng)) {
    struct Named(u64);
    impl Drop for Named {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing seed: {}", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _named = Named(seed);
        case(&mut Rng(seed));
    }
}
