//! Deterministic, splittable pseudo-random number generation.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, statistically solid generator whose main role
//!   here is *seeding*: it expands a single `u64` seed into the 256-bit state
//!   of the workhorse generator, as recommended by the xoshiro authors.
//! * [`Xoshiro256StarStar`] — the workhorse generator (Blackman & Vigna).
//!   It supports `jump()`, which advances the state by 2^128 steps, giving
//!   2^128 provably non-overlapping subsequences. Parallel replications each
//!   take their own jumped stream, so a fleet of simulations is reproducible
//!   from one seed regardless of thread scheduling.
//!
//! The [`Rng`] trait is the minimal sampling interface the rest of the
//! workspace consumes; it is object-safe so distributions can be boxed.

/// Minimal uniform-source trait used by all distributions in this workspace.
///
/// Implementors must produce independent, uniformly distributed values; all
/// derived helpers (floats, ranges, bools) are provided.
pub trait Rng {
    /// Returns the next 64 uniformly distributed random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed `f64` in the half-open interval `[0, 1)`.
    ///
    /// Uses the top 53 bits of [`Rng::next_u64`] so every representable value
    /// is an exact multiple of 2⁻⁵³ (the standard "53-bit" construction).
    fn next_f64(&mut self) -> f64 {
        // 2^-53; the multiplication is exact for all 53-bit integers.
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// Returns a uniformly distributed `f64` in the *open* interval `(0, 1)`.
    ///
    /// Useful for inverse-CDF sampling where `ln(0)` must be avoided.
    fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be positive");
        // Lemire (2019): unbiased bounded generation without division in the
        // common case.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a uniformly distributed `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is non-finite.
    fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "next_range: invalid bounds"
        );
        lo + (hi - lo) * self.next_f64()
    }
}

/// SplitMix64 generator (Steele, Lea & Flood; public-domain reference by Vigna).
///
/// One addition and three xor-shift-multiply rounds per output. Equidistributed
/// in one dimension and passes BigCrush; primarily used here to expand seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from an arbitrary 64-bit seed (all values valid).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derives a per-task sub-seed from a base seed and a task index.
///
/// Equals the `(index + 1)`-th SplitMix64 output of `base`, so for a fixed
/// base the map `index → seed` is injective (SplitMix64 is a bijective
/// stream: equal outputs would imply equal stream positions). This is the
/// standard way to fan one user-supplied seed out to millions of independent
/// fuzz iterations while keeping every iteration individually reproducible:
/// `derive_seed(base, i)` depends only on `(base, i)`, never on how many
/// iterations ran before.
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    SplitMix64::new(base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

/// xoshiro256\*\* generator (Blackman & Vigna, 2018).
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes all known statistical test
/// batteries, and supports efficient `jump()` for disjoint parallel streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator by expanding `seed` through [`SplitMix64`], per the
    /// xoshiro reference implementation's seeding recommendation.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Advances the state by 2¹²⁸ steps — equivalent to 2¹²⁸ calls to
    /// [`Rng::next_u64`] — without generating the intermediate values.
    ///
    /// Calling `jump()` k times on clones of one generator yields 2¹²⁸-spaced,
    /// provably non-overlapping subsequences.
    ///
    /// The jump is linear over GF(2) in the 256 state bits, so it is the XOR
    /// of one precomputed image per 4-bit nibble of the state: 64 lookups
    /// into a 32 KiB table built at compile time from the reference
    /// polynomial, ≈ 30–36 ns instead of the reference's 256 generator
    /// steps (≈ 300–490 ns) on a 2-vCPU x86-64 host. The result is exact,
    /// not an approximation.
    fn jump(&mut self) {
        let mut acc = [0u64; 4];
        for (word, images) in self.s.iter().zip(JUMP_TABLE.0.chunks_exact(16)) {
            for (nibble, image) in images.iter().enumerate() {
                let e = &image[((word >> (4 * nibble)) & 0xf) as usize];
                acc[0] ^= e[0];
                acc[1] ^= e[1];
                acc[2] ^= e[2];
                acc[3] ^= e[3];
            }
        }
        self.s = acc;
    }

    /// Returns an independent stream: the `index`-th 2¹²⁸-jump of `self`.
    ///
    /// `stream(0)` is one jump ahead of `self` (never identical to it), so the
    /// parent generator may keep being used without overlapping any stream.
    ///
    /// Costs O(log `index`): one walk of a compile-time jump power per set
    /// bit of `index` (≈ 300–490 ns each), a few µs at any index below 2²⁰.
    #[must_use]
    pub fn stream(&self, index: u64) -> Self {
        let mut g = self.jumped(index);
        g.jump();
        g
    }

    /// Iterator over consecutive independent streams: yields exactly
    /// `self.stream(start)`, `self.stream(start + 1)`, … — bit-identical to
    /// indexed derivation — at one table jump per step after an O(log
    /// `start`) skip-ahead.
    #[must_use]
    pub fn streams(&self, start: u64) -> Streams {
        Streams {
            cur: self.jumped(start),
        }
    }

    /// `self` advanced by `count` jumps: for each set bit `j` of `count`,
    /// one walk of the polynomial `JUMP_POWERS[j]` (the jump applied 2ʲ
    /// times). Jumps are polynomials in the state transition, so they
    /// commute and the order of the walks does not matter.
    fn jumped(&self, count: u64) -> Self {
        let mut s = self.s;
        let mut rest = count;
        while rest != 0 {
            s = jump_poly(&JUMP_POWERS[rest.trailing_zeros() as usize], s);
            rest &= rest - 1;
        }
        Self { s }
    }
}

/// The xoshiro256\*\* jump polynomial: advancing by 2¹²⁸ steps.
const JUMP: [u64; 4] = [
    0x180e_c6d3_3cfd_0aba,
    0xd5a6_1266_f0c9_392c,
    0xa958_2618_e03f_c9aa,
    0x39ab_dc45_29b1_661c,
];

/// One xoshiro256\*\* state transition (the output is not needed here).
const fn step(mut s: [u64; 4]) -> [u64; 4] {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    s
}

/// Applies the polynomial `poly` (coefficient `k` at bit `k`, degree
/// < 256) to the state: walk 256 steps, XORing the state into the result
/// at every set bit. Stepping `k` times is `x^k`, so the walk of
/// `x^k mod P` ([`CHAR_POLY`]) advances the state by `k` steps.
const fn jump_poly(poly: &[u64; 4], mut s: [u64; 4]) -> [u64; 4] {
    let mut acc = [0u64; 4];
    let mut bit = 0;
    while bit < 256 {
        if poly[bit / 64] & (1u64 << (bit % 64)) != 0 {
            acc[0] ^= s[0];
            acc[1] ^= s[1];
            acc[2] ^= s[2];
            acc[3] ^= s[3];
        }
        s = step(s);
        bit += 1;
    }
    acc
}

/// The reference jump (Blackman & Vigna): the walk of [`JUMP`]. It builds
/// [`JUMP_TABLE`] and is the oracle the table and the jump powers are
/// tested against.
const fn jump_serial(s: [u64; 4]) -> [u64; 4] {
    jump_poly(&JUMP, s)
}

/// The characteristic polynomial `P` of the state transition, without its
/// leading `x²⁵⁶` term. `JUMP` is `x^(2¹²⁸) mod P`, and the tests derive
/// both facts from the generator itself.
const CHAR_POLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// `a² mod P` over GF(2): squaring spreads bit `i` to bit `2i`, then each
/// set bit `i ≥ 256`, from the top down, is replaced by `P·x^(i−256)`.
const fn square_mod(a: &[u64; 4]) -> [u64; 4] {
    let mut r = [0u64; 8];
    let mut i = 0;
    while i < 256 {
        if a[i / 64] & (1u64 << (i % 64)) != 0 {
            r[i / 32] |= 1u64 << ((2 * i) % 64);
        }
        i += 1;
    }
    let mut top = 511;
    while top >= 256 {
        if r[top / 64] & (1u64 << (top % 64)) != 0 {
            r[top / 64] ^= 1u64 << (top % 64);
            let (words, bits) = ((top - 256) / 64, (top - 256) % 64);
            let mut m = 0;
            while m < 4 {
                r[m + words] ^= CHAR_POLY[m] << bits;
                if bits > 0 {
                    r[m + words + 1] ^= CHAR_POLY[m] >> (64 - bits);
                }
                m += 1;
            }
        }
        top -= 1;
    }
    [r[0], r[1], r[2], r[3]]
}

/// The jump applied `2ʲ` times, for `j` in `0..64`: entry `j` is the
/// polynomial `x^(2¹²⁸⁺ʲ) mod P`, each the square of the one before.
/// Built at compile time; 2 KiB covers every `u64` jump count.
static JUMP_POWERS: [[u64; 4]; 64] = {
    let mut p = [[0u64; 4]; 64];
    p[0] = JUMP;
    let mut j = 1;
    while j < 64 {
        p[j] = square_mod(&p[j - 1]);
        j += 1;
    }
    p
};

/// Jump images per nibble: entry `[16·w + k][v]` is the jump of the state
/// whose only set bits are `v` at bits `4k..4k + 4` of word `w`.
#[repr(align(64))]
struct JumpTable([[[u64; 4]; 16]; 64]);

/// Built at compile time: the 256 unit-vector images come from
/// [`jump_serial`], and the other values of each nibble XOR them together.
static JUMP_TABLE: JumpTable = {
    let mut t = [[[0u64; 4]; 16]; 64];
    let mut n = 0;
    while n < 64 {
        let mut b = 0;
        while b < 4 {
            let mut unit = [0u64; 4];
            unit[n / 16] = 1u64 << (4 * (n % 16) + b);
            t[n][1 << b] = jump_serial(unit);
            b += 1;
        }
        let mut v: usize = 3;
        while v < 16 {
            let low = v & v.wrapping_neg();
            if v != low {
                let (a, c) = (t[n][low], t[n][v ^ low]);
                t[n][v] = [a[0] ^ c[0], a[1] ^ c[1], a[2] ^ c[2], a[3] ^ c[3]];
            }
            v += 1;
        }
        n += 1;
    }
    JumpTable(t)
};

/// Infinite iterator of consecutive [`Xoshiro256StarStar::stream`]
/// generators; see [`Xoshiro256StarStar::streams`].
#[derive(Debug, Clone)]
pub struct Streams {
    cur: Xoshiro256StarStar,
}

impl Iterator for Streams {
    type Item = Xoshiro256StarStar;

    fn next(&mut self) -> Option<Self::Item> {
        self.cur.jump();
        Some(self.cur.clone())
    }
}

impl Rng for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        self.s = step(self.s);
        result
    }
}

impl Rng for &mut Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference values computed from Vigna's public-domain C code with
        // seed 0x0000_0000_0000_0000 and 0x1234_5678_9abc_def0.
        let mut g = SplitMix64::new(0);
        let first: Vec<u64> = (0..3).map(|_| g.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    #[test]
    fn derive_seed_is_deterministic_and_spreads() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        // Injective per index: state(base, i) = base + (i+1)·γ (mod 2⁶⁴) is
        // distinct for distinct i < 2⁶⁴ (γ is odd), and the output mix is a
        // bijection — spot-check a window.
        let base = 0xDEAD_BEEF_CAFE_F00D;
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(derive_seed(base, i)), "collision at index {i}");
        }
        // Index 0 equals the first SplitMix64 output of the base seed (the
        // documented identity that makes failures reproducible by hand).
        assert_eq!(derive_seed(base, 0), SplitMix64::new(base).next_u64());
        // Consecutive indices land far apart (avalanche sanity check).
        let diff = derive_seed(base, 1) ^ derive_seed(base, 2);
        assert!(diff.count_ones() > 10, "weak diffusion: {diff:#x}");
    }

    #[test]
    fn splitmix64_distinct_seeds_differ() {
        let a = SplitMix64::new(1).next_u64();
        let b = SplitMix64::new(2).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_known_state_first_output() {
        // With state [1,2,3,4]: result = rotl(2*5, 7)*9 = rotl(10,7)*9 = 1280*9.
        let mut g = Xoshiro256StarStar { s: [1, 2, 3, 4] };
        assert_eq!(g.next_u64(), 1280 * 9);
    }

    #[test]
    fn jump_streams_do_not_collide_prefixwise() {
        let base = Xoshiro256StarStar::seed_from_u64(7);
        let mut s0 = base.stream(0);
        let mut s1 = base.stream(1);
        let a: Vec<u64> = (0..64).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..64).map(|_| s1.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn streams_iterator_matches_indexed_stream_derivation() {
        let base = Xoshiro256StarStar::seed_from_u64(42);
        let mut it = base.streams(3);
        for k in 3..9u64 {
            let mut inc = it.next().expect("streams is infinite");
            let mut idx = base.stream(k);
            let a: Vec<u64> = (0..8).map(|_| inc.next_u64()).collect();
            let b: Vec<u64> = (0..8).map(|_| idx.next_u64()).collect();
            assert_eq!(a, b, "streams({k}) diverged from stream({k})");
        }
    }

    #[test]
    fn stream_first_outputs_are_pinned() {
        let base = Xoshiro256StarStar::seed_from_u64(42);
        let got = [0, 1, 999].map(|k| base.stream(k).next_u64());
        // Computed with the bit-serial jump, before the table replaced it.
        assert_eq!(
            got,
            [
                0x5008_6ef8_3cbf_4f4a,
                0x8677_623e_e754_4e81,
                0x995f_d37b_8f78_e039
            ]
        );
    }

    #[test]
    fn table_jump_equals_the_reference_polynomial() {
        let table_jump = |s: [u64; 4]| {
            let mut g = Xoshiro256StarStar { s };
            g.jump();
            g.s
        };
        for bit in 0..256 {
            let mut unit = [0u64; 4];
            unit[bit / 64] = 1 << (bit % 64);
            assert_eq!(table_jump(unit), jump_serial(unit), "unit vector {bit}");
        }
        let mut g = Xoshiro256StarStar::seed_from_u64(0x7ab1e);
        for i in 0..10_000 {
            let s = [g.next_u64(), g.next_u64(), g.next_u64(), g.next_u64()];
            assert_eq!(table_jump(s), jump_serial(s), "random state {i}: {s:x?}");
        }
    }

    /// `P(step)` annihilates the state: the walk of `P`'s low terms equals
    /// `x²⁵⁶`, 256 steps. And `JUMP` is `x` squared 128 times modulo `P`.
    #[test]
    fn char_poly_is_the_transition_polynomial_and_generates_the_jump() {
        let mut g = Xoshiro256StarStar::seed_from_u64(0xc4a2);
        for _ in 0..64 {
            let s = [g.next_u64(), g.next_u64(), g.next_u64(), g.next_u64()];
            let stepped = (0..256).fold(s, |s, _| step(s));
            assert_eq!(jump_poly(&CHAR_POLY, s), stepped, "state {s:x?}");
        }
        let x = (0..128).fold([2, 0, 0, 0], |p, _| square_mod(&p));
        assert_eq!(x, JUMP);
        assert_eq!(JUMP_POWERS[0], JUMP);
    }

    /// `base` advanced by `count` reference jumps.
    fn serial(base: &Xoshiro256StarStar, count: u64) -> [u64; 4] {
        (0..count).fold(base.s, |s, _| jump_serial(s))
    }

    #[test]
    fn indexed_derivation_matches_serial_jumps() {
        let base = Xoshiro256StarStar::seed_from_u64(0x5eed);
        let mut offsets = vec![0, 1, 2];
        for k in 2..=12 {
            offsets.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        let mut g = SplitMix64::new(17);
        offsets.extend((0..16).map(|_| g.next_below(5000)));
        offsets.sort_unstable();
        offsets.dedup();
        let (mut s, mut at) = (base.s, 0);
        for &o in &offsets {
            s = (at..o).fold(s, |s, _| jump_serial(s));
            at = o;
            assert_eq!(base.streams(o).cur.s, s, "streams({o}) skip-ahead");
            assert_eq!(base.stream(o).s, jump_serial(s), "stream({o})");
            assert_eq!(base.streams(o).next().unwrap(), base.stream(o));
        }
        assert_eq!(base.jumped(5).s, serial(&base, 5));
    }

    #[test]
    fn large_offsets_compose() {
        let base = Xoshiro256StarStar::seed_from_u64(0xb16);
        let mut g = SplitMix64::new(23);
        for _ in 0..32 {
            let (a, b) = (g.next_u64() >> 2, g.next_u64() >> 2);
            assert_eq!(base.jumped(a).jumped(b), base.jumped(a + b), "{a} + {b}");
        }
        let top = base.jumped(u64::MAX);
        assert_eq!(top.jumped(1), base.jumped(1 << 63).jumped(1 << 63));
        assert_eq!(base.stream(u64::MAX), top.stream(0));
    }

    #[test]
    fn stream_zero_differs_from_parent() {
        let base = Xoshiro256StarStar::seed_from_u64(7);
        let mut parent = base.clone();
        let mut s0 = base.stream(0);
        let a: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| s0.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut g = Xoshiro256StarStar::seed_from_u64(9);
        for _ in 0..10_000 {
            let u = g.next_f64();
            assert!((0.0..1.0).contains(&u), "u = {u} out of [0,1)");
        }
    }

    #[test]
    fn next_f64_mean_is_near_half() {
        let mut g = Xoshiro256StarStar::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn next_below_is_in_range_and_unbiased_enough() {
        let mut g = Xoshiro256StarStar::seed_from_u64(13);
        let bound = 7u64;
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            let v = g.next_below(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        for c in counts {
            // Expected 10_000 per bucket; 10% slack is generous for n=70k.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_bound_panics() {
        let mut g = Xoshiro256StarStar::seed_from_u64(1);
        let _ = g.next_below(0);
    }

    #[test]
    fn next_range_respects_bounds() {
        let mut g = Xoshiro256StarStar::seed_from_u64(17);
        for _ in 0..1000 {
            let v = g.next_range(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&v));
        }
    }

    #[test]
    fn next_bool_probability_is_respected() {
        let mut g = Xoshiro256StarStar::seed_from_u64(19);
        let hits = (0..100_000).filter(|_| g.next_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }
}
