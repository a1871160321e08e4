//! Stand-in for the part of `rand` 0.10 that the metamess crates call:
//! `StdRng::seed_from_u64`, `random`, `random_range`, `random_bool`.
//! The generator is xoshiro256++ seeded through SplitMix64, so a seed gives
//! the same stream on every platform. Not the published crate's stream.

use std::ops::Range;

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    #[derive(Clone, Debug)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        rngs::StdRng { s: [next(), next(), next(), next()] }
    }
}

/// Source of raw 64-bit words.
pub trait Rng {
    fn next_u64(&mut self) -> u64;
}

impl Rng for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }
}

/// A value that can be drawn uniformly (`random`).
pub trait Standard: Sized {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for u64 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}
impl Standard for u32 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}
impl Standard for bool {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// A type with a uniform draw from a half-open range (`random_range`).
pub trait UniformRange: Sized {
    fn draw_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            fn draw_range<R: Rng + ?Sized>(rng: &mut R, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "random_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Multiply-shift maps a 64-bit word onto the span; the bias
                // is below 2^-32 for every span the callers use.
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (range.start as i128 + off) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformRange for f64 {
    fn draw_range<R: Rng + ?Sized>(rng: &mut R, range: Range<f64>) -> f64 {
        range.start + (range.end - range.start) * f64::draw(rng)
    }
}

pub trait RngExt: Rng {
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }
    fn random_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        T::draw_range(self, range)
    }
    fn random_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}
