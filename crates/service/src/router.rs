//! Key-range routing: a key space carved into `M` contiguous,
//! non-overlapping ranges, one per shard.
//!
//! Each shard owns an independent `ConcurrentBTree`; because the ranges are
//! contiguous, a future range-scan layer can still stitch results back
//! together in key order, and skewed key distributions concentrate on
//! predictable shards (the paper's per-level queueing model then applies
//! *per shard*, each with its own arrival rate).

/// Routes keys to shards by contiguous range.
///
/// Over a key space `[0, S)` (by default the full `u64` space,
/// `S = 2⁶⁴`), shard `i` owns `[⌊S·i/M⌋, ⌊S·(i+1)/M⌋)`: near-equal
/// slices, the first `S mod M` shards one key larger. Keys at or above
/// `S` (possible only with an explicit bounded space) clamp into the
/// last shard, so *every* `u64` key maps to exactly one shard.
#[derive(Debug, Clone)]
pub struct KeyRangeRouter {
    shards: usize,
    /// Size of the partitioned key space (`2⁶⁴` for the full space).
    space: u128,
}

impl KeyRangeRouter {
    /// A router carving the full `u64` key space into `shards` ranges.
    ///
    /// # Panics
    /// Panics when `shards` is 0 or exceeds `u16::MAX` (shard ids ride
    /// in trace events as `u16`).
    pub fn new(shards: usize) -> Self {
        KeyRangeRouter::with_space(shards, None)
    }

    /// A router partitioning `[0, hi)` when `hi` is given (keys `≥ hi`
    /// clamp into the last shard), or the full `u64` space when `None`.
    ///
    /// # Panics
    /// Panics when `shards` is 0, exceeds `u16::MAX`, or exceeds `hi`.
    pub fn with_space(shards: usize, hi: Option<u64>) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards <= u16::MAX as usize,
            "shard count {shards} exceeds u16"
        );
        let space = hi.map_or(1u128 << 64, u128::from);
        assert!(
            shards as u128 <= space,
            "{shards} shards over a key space of {space}"
        );
        KeyRangeRouter { shards, space }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Inclusive lower boundary of shard `i`'s range: `⌊S·i/M⌋`
    /// (`i == shards` gives the one-past-the-end boundary).
    fn boundary(&self, i: usize) -> u128 {
        debug_assert!(i <= self.shards);
        self.space * i as u128 / self.shards as u128
    }

    /// The shard owning `key`. Total: every `u64` key has exactly one
    /// shard, keys beyond a bounded space clamping into the last.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        // Exact inverse of `boundary`: the largest `i` with
        // `⌊S·i/M⌋ ≤ key` is `⌈(key+1)·M/S⌉ − 1` (a plain `⌊key·M/S⌋`
        // disagrees at range boundaries whenever `M` ∤ `S`).
        let m = self.shards as u128;
        let i = (((u128::from(key) + 1) * m - 1) / self.space) as usize;
        i.min(self.shards - 1)
    }

    /// Shard `i`'s key range as an *inclusive* `(lo, hi)` pair; the last
    /// shard's range always ends at `u64::MAX` (clamped keys included).
    ///
    /// # Panics
    /// Panics when `i >= shards`.
    pub fn range(&self, i: usize) -> (u64, u64) {
        assert!(i < self.shards, "shard {i} out of range");
        let lo = self.boundary(i) as u64;
        let hi = if i + 1 == self.shards {
            u64::MAX
        } else {
            (self.boundary(i + 1) - 1) as u64
        };
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let r = KeyRangeRouter::new(1);
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of(u64::MAX), 0);
        assert_eq!(r.range(0), (0, u64::MAX));
    }

    #[test]
    fn boundaries_agree_with_shard_of() {
        for m in [2usize, 3, 5, 8, 16] {
            let r = KeyRangeRouter::new(m);
            for i in 0..m {
                let (lo, hi) = r.range(i);
                assert_eq!(r.shard_of(lo), i, "m={m} i={i} lo");
                assert_eq!(r.shard_of(hi), i, "m={m} i={i} hi");
                if lo > 0 {
                    assert_eq!(r.shard_of(lo - 1), i - 1, "m={m} i={i} below");
                }
            }
        }
    }

    #[test]
    fn bounded_space_clamps_overflow_into_last_shard() {
        let r = KeyRangeRouter::with_space(4, Some(1_000_000));
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of(249_999), 0);
        assert_eq!(r.shard_of(250_000), 1);
        assert_eq!(r.shard_of(999_999), 3);
        assert_eq!(r.shard_of(1_000_000), 3, "clamped");
        assert_eq!(r.shard_of(u64::MAX), 3, "clamped");
        assert_eq!(r.range(3).1, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = KeyRangeRouter::new(0);
    }

    #[test]
    #[should_panic(expected = "shards over a key space")]
    fn more_shards_than_keys_rejected() {
        let _ = KeyRangeRouter::with_space(10, Some(5));
    }

    /// Splitmix64: a tiny seeded generator for the property sweeps.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The property at the heart of routing: `route(boundary(i)) == i`
    /// for every shard, and ranges are contiguous and non-overlapping,
    /// over randomized `(space, shards)` pairs — including shard counts
    /// near the key-space size, where the integer division is tightest.
    #[test]
    fn boundaries_route_home_for_random_spaces() {
        let mut state = 0xC0FF_EE00_u64;
        for round in 0..200 {
            // Mix tiny, near-space, and huge configurations.
            let space = match round % 4 {
                0 => 1 + splitmix(&mut state) % 64,
                1 => 1 + splitmix(&mut state) % 1_000_000,
                2 => u64::MAX - splitmix(&mut state) % 1024,
                _ => 1 + splitmix(&mut state),
            };
            let max_shards = space.min(u16::MAX as u64).min(512);
            let shards = (1 + splitmix(&mut state) % max_shards) as usize;
            let r = KeyRangeRouter::with_space(shards, Some(space));
            let mut prev_hi: Option<u64> = None;
            for i in 0..shards {
                let (lo, hi) = r.range(i);
                assert!(lo <= hi, "space={space} m={shards} i={i}: empty range");
                // Contiguous, non-overlapping coverage.
                match prev_hi {
                    None => assert_eq!(lo, 0, "space={space} m={shards}: gap at 0"),
                    Some(p) => {
                        assert_eq!(lo, p + 1, "space={space} m={shards} i={i}: gap or overlap")
                    }
                }
                prev_hi = Some(hi);
                // Both ends of every range route home, as does the key
                // just below the upper boundary.
                assert_eq!(r.shard_of(lo), i, "space={space} m={shards} i={i} lo");
                assert_eq!(r.shard_of(hi), i, "space={space} m={shards} i={i} hi");
                if hi > lo {
                    assert_eq!(r.shard_of(hi - 1), i, "space={space} m={shards} i={i}");
                }
            }
            assert_eq!(prev_hi, Some(u64::MAX), "last shard absorbs the clamp");
            // A random scatter of keys all land inside their shard's range.
            for _ in 0..64 {
                let key = splitmix(&mut state);
                let i = r.shard_of(key);
                let (lo, hi) = r.range(i);
                assert!(
                    key >= lo && key <= hi,
                    "space={space} m={shards}: key {key} routed to [{lo}, {hi}]"
                );
            }
        }
    }

    /// The full-`u64`-space router (no clamping path at all): every
    /// boundary routes home and coverage is exact, including `u64::MAX`.
    #[test]
    fn full_space_boundaries_route_home() {
        let mut state = 0xBEEF_u64;
        for _ in 0..40 {
            let shards = (1 + splitmix(&mut state) % 300) as usize;
            let r = KeyRangeRouter::new(shards);
            let mut prev_hi: Option<u64> = None;
            for i in 0..shards {
                let (lo, hi) = r.range(i);
                match prev_hi {
                    None => assert_eq!(lo, 0),
                    Some(p) => assert_eq!(lo, p + 1, "m={shards} i={i}"),
                }
                prev_hi = Some(hi);
                assert_eq!(r.shard_of(lo), i, "m={shards} i={i} lo");
                assert_eq!(r.shard_of(hi), i, "m={shards} i={i} hi");
            }
            assert_eq!(prev_hi, Some(u64::MAX));
            assert_eq!(r.shard_of(u64::MAX), shards - 1);
        }
    }

    /// Degenerate but legal: as many shards as keys — every shard owns
    /// exactly one key.
    #[test]
    fn one_key_per_shard() {
        let r = KeyRangeRouter::with_space(7, Some(7));
        for k in 0..7u64 {
            assert_eq!(r.shard_of(k), k as usize);
            assert_eq!(r.range(k as usize), (k, if k == 6 { u64::MAX } else { k }));
        }
        assert_eq!(r.shard_of(7), 6, "clamped");
        assert_eq!(r.shard_of(u64::MAX), 6, "clamped");
    }
}
