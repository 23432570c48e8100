//! LSD radix sorting over order-preserving `u64` keys.
//!
//! The batched ingest path is sort-bound: every staged stream segment and
//! every level-0 batch is sorted before it feeds the GK sketch and the
//! warehouse. "Streaming Quantiles Algorithms with Small Space and Update
//! Time" (Ivkin et al.) motivates trading per-item compare-sort work for
//! cheap bucketed passes; for the fixed-width item universes this system
//! stores, a least-significant-digit radix sort over an order-preserving
//! `u64` key does exactly that — `O(n)` bucket passes over the occupied
//! key bits instead of `O(n log n)` unpredictable comparisons.
//!
//! [`RadixKey`] is the opt-in: a type maps itself to a `u64` whose
//! unsigned order equals the value order (the same trick as
//! `hsq_storage::Item::to_ordered_u64`). Types without such a key (wider
//! than 64 bits) set [`RadixKey::RADIXABLE`] to `false` and the sorts
//! fall back to the comparison sort, so callers need no per-type
//! dispatch.
//!
//! One kernel serves every caller: [`sort_radixable_by_key`] moves whole
//! elements through the passes by a radix key of theirs (the combined
//! summary's source-tagged entries, `hsq_core::bounds`, and KLL's
//! `(value, weight)` pairs), and [`sort_radixable`] is that sort keyed by
//! the element itself (the ingest batches).
//!
//! The kernel lives here (not in `hsq-storage`) because [`crate::GkSketch`]
//! sits below the storage crate in the dependency graph and sorts batches
//! too; `hsq_storage::sort_items` re-exposes it for `Item` slices.

use std::any::Any;
use std::cell::RefCell;

/// Smallest slice length where the radix path is engaged; below it the
/// comparison sort wins on constant factors and [`sort_radixable`] falls
/// back automatically.
pub const RADIX_MIN_LEN: usize = 64;

/// A value with an order-preserving `u64` radix key.
///
/// Contract when [`RadixKey::RADIXABLE`] is `true`:
/// `a <= b` iff `a.radix_key() <= b.radix_key()` (unsigned order).
///
/// When `RADIXABLE` is `false` the key methods are never called; sorts
/// take the comparison path. This is the escape hatch for types whose
/// universe does not fit 64 bits.
pub trait RadixKey: Copy + 'static {
    /// Whether this type supports the radix path at all.
    const RADIXABLE: bool;

    /// The order-preserving key (only called when `RADIXABLE`).
    fn radix_key(self) -> u64;
}

macro_rules! impl_radix_unsigned {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            const RADIXABLE: bool = true;

            #[inline]
            fn radix_key(self) -> u64 {
                self as u64
            }
        }
    )*};
}

impl_radix_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_radix_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl RadixKey for $t {
            const RADIXABLE: bool = true;

            #[inline]
            fn radix_key(self) -> u64 {
                // Flip the sign bit: unsigned key order = signed value order.
                ((self as $u) ^ (1 << (<$t>::BITS - 1))) as u64
            }
        }
    )*};
}

impl_radix_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! impl_radix_fallback {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            const RADIXABLE: bool = false;

            fn radix_key(self) -> u64 {
                unreachable!("128-bit universe has no u64 radix key")
            }
        }
    )*};
}

impl_radix_fallback!(u128, i128);

/// Sort `items` in nondecreasing order, taking the LSD radix path when the
/// type is radix-keyed and the slice is long enough to amortize the bucket
/// passes, and the standard unstable comparison sort otherwise. Returns
/// `true` iff the radix path ran.
///
/// The resulting order is identical to `items.sort_unstable()` in both
/// cases: the key is a total-order bijection, so equal elements are
/// indistinguishable and stability is moot.
pub fn sort_radixable<T: RadixKey + Ord>(items: &mut [T]) -> bool {
    sort_radixable_by_key(items, |&x| x)
}

/// Sort `items` by `key(item)` in nondecreasing key order, each whole
/// element moving through the radix passes with its key, or through
/// `sort_unstable_by_key` when `K` is not radix-keyed or the slice is
/// short. Returns `true` iff the radix path ran.
///
/// Elements with equal keys may come out in any order, as with any
/// unstable sort; callers that need a tie order must not rely on it.
pub fn sort_radixable_by_key<E: Copy + 'static, K: RadixKey + Ord>(
    items: &mut [E],
    key: impl Fn(&E) -> K + Copy,
) -> bool {
    if !K::RADIXABLE || !(RADIX_MIN_LEN..=u32::MAX as usize).contains(&items.len()) {
        items.sort_unstable_by_key(key);
        return false;
    }
    with_buffers(|a, b| run_radix(items, a, b, |e| key(e).radix_key()));
    true
}

/// LSD radix sort of a `u64` slice, in place (unsigned order). The raw
/// kernel behind [`sort_radixable`], exposed for benches and tests; no
/// length threshold is applied. Panics if `keys` exceeds `u32::MAX`
/// elements.
pub fn radix_sort_u64(keys: &mut [u64]) {
    assert!(
        keys.len() <= u32::MAX as usize,
        "key count exceeds u32 range"
    );
    with_buffers(|a, b| run_radix(keys, a, b, |&k| k));
}

/// Digit width of the wide kernel instantiation (see [`run_radix`]).
const WIDE_BITS: u32 = 10;

thread_local! {
    /// Reused ping-pong buffers, one pair per element type this thread
    /// sorts (ingest batches, combined-summary entries, KLL pairs): a
    /// thread that alternates types keeps each pair, so steady-state
    /// sorting never allocates (a buffer the allocator hands out fresh is
    /// paid again in page faults on every sort).
    static BUFFERS: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's ping-pong buffers for elements of type `E`.
fn with_buffers<E: Copy + 'static, R>(f: impl FnOnce(&mut Vec<E>, &mut Vec<E>) -> R) -> R {
    BUFFERS.with(|cell| {
        let mut slots = cell.borrow_mut();
        let i = match slots.iter().position(|s| s.is::<(Vec<E>, Vec<E>)>()) {
            Some(i) => i,
            None => {
                slots.push(Box::new((Vec::<E>::new(), Vec::<E>::new())));
                slots.len() - 1
            }
        };
        let (a, b) = slots[i]
            .downcast_mut::<(Vec<E>, Vec<E>)>()
            .expect("slot holds its element type");
        f(a, b)
    })
}

/// The one kernel: sorts `items` by the order-preserving `u64` key
/// `key`, through the ping-pong buffers `a` and `b` (grown to
/// `items.len()` as needed).
///
/// One scan plans the passes; each pass then moves every element once —
/// the first scatters straight out of `items` and the last straight back
/// in, so no separate copy pass exists.
///
/// The cost adapts to the *occupied key width*: the planning scan finds
/// the bits that actually vary (OR/AND accumulation), constant digits
/// become identity passes and are skipped, and the digit width (8- or
/// 10-bit, fixed at compile time so the bucket indexing stays
/// bounds-check-free) is chosen to minimize the scatter-pass count —
/// e.g. 30 occupied bits cost three 10-bit passes instead of eight byte
/// passes. Each scatter pass also builds the next pass's histogram on
/// the fly, so every digit of the input is histogrammed exactly once, in
/// cache.
fn run_radix<E: Copy>(
    items: &mut [E],
    a: &mut Vec<E>,
    b: &mut Vec<E>,
    key: impl Fn(&E) -> u64 + Copy,
) {
    let n = items.len();
    if n < 2 {
        return;
    }
    // Planning scan: occupied bits, fused with the low-digit histogram
    // (usable whenever the first pass starts at bit 0 — the common case).
    let mut or_acc = 0u64;
    let mut and_acc = !0u64;
    let mut hist0 = [0u32; 1 << WIDE_BITS];
    for e in items.iter() {
        let k = key(e);
        or_acc |= k;
        and_acc &= k;
        hist0[(k & ((1 << WIDE_BITS) - 1)) as usize] += 1;
    }
    let vary = or_acc ^ and_acc;
    if vary == 0 {
        return; // all keys identical: already sorted
    }
    let lo = vary.trailing_zeros();
    let span = 64 - vary.leading_zeros() - lo;

    // Candidate pass plans: wide digits walking the varying span, or byte
    // digits skipping constant bytes outright. Estimated pass cost is
    // linear in n plus the per-pass bucket bookkeeping.
    let passes_wide = span.div_ceil(WIDE_BITS);
    let bytes_needed: Vec<u32> = (0..8)
        .filter(|&d| (vary >> (8 * d)) & 0xFF != 0)
        .map(|d| 8 * d)
        .collect();
    let cost_wide = passes_wide as usize * (n + (1 << WIDE_BITS));
    let cost_8 = bytes_needed.len() * (n + 256);
    a.resize(n, items[0]);
    b.resize(n, items[0]);
    if cost_wide <= cost_8 {
        let shifts: Vec<u32> = (0..passes_wide).map(|p| lo + WIDE_BITS * p).collect();
        digit_passes_10(items, a, b, &shifts, (lo == 0).then_some(&hist0), key);
    } else {
        digit_passes_8(items, a, b, &bytes_needed, None, key);
    }
}

/// One pipeline instantiation per digit width: the bucket count is a
/// compile-time constant, so the histogram/offset arrays live on the
/// stack and the digit-masked indexing needs no bounds checks. `shifts`
/// lists the bit offset of each pass's digit, least-significant first
/// (at least one); `first_hist` optionally supplies the first pass's
/// histogram when the caller already counted it (only valid for the
/// 10-bit instantiation with `shifts[0] == 0`); `key` is [`run_radix`]'s.
macro_rules! digit_pipeline {
    ($name:ident, $bits:expr) => {
        fn $name<E: Copy>(
            items: &mut [E],
            a: &mut [E],
            b: &mut [E],
            shifts: &[u32],
            first_hist: Option<&[u32; 1 << $bits]>,
            key: impl Fn(&E) -> u64 + Copy,
        ) {
            const NB: usize = 1 << $bits;
            const MASK: u64 = (NB - 1) as u64;
            #[inline(always)]
            fn prefix<const NB2: usize>(hist: &[u32; NB2]) -> [u32; NB2] {
                let mut offs = [0u32; NB2];
                let mut sum = 0u32;
                for (o, &c) in offs.iter_mut().zip(hist.iter()) {
                    *o = sum;
                    sum += c;
                }
                offs
            }
            let np = shifts.len();
            let mut hist = match first_hist {
                Some(h) => *h,
                None => {
                    let mut h = [0u32; NB];
                    for e in items.iter() {
                        h[((key(e) >> shifts[0]) & MASK) as usize] += 1;
                    }
                    h
                }
            };
            if np == 1 {
                // Single digit: scatter out, copy back in.
                let mut offs = prefix(&hist);
                for &e in items.iter() {
                    let d = ((key(&e) >> shifts[0]) & MASK) as usize;
                    a[offs[d] as usize] = e;
                    offs[d] += 1;
                }
                items.copy_from_slice(a);
                return;
            }
            // First pass: scatter out of `items`, and count the next digit
            // in the same sweep.
            let mut offs = prefix(&hist);
            hist = [0u32; NB];
            for &e in items.iter() {
                let k = key(&e);
                let d = ((k >> shifts[0]) & MASK) as usize;
                a[offs[d] as usize] = e;
                offs[d] += 1;
                hist[((k >> shifts[1]) & MASK) as usize] += 1;
            }
            // Middle passes ping-pong between the two buffers.
            let mut src: &mut [E] = a;
            let mut dst: &mut [E] = b;
            for i in 1..np - 1 {
                let mut offs = prefix(&hist);
                hist = [0u32; NB];
                let (sh, nsh) = (shifts[i], shifts[i + 1]);
                for &w in src.iter() {
                    let k = key(&w);
                    let d = ((k >> sh) & MASK) as usize;
                    dst[offs[d] as usize] = w;
                    offs[d] += 1;
                    hist[((k >> nsh) & MASK) as usize] += 1;
                }
                std::mem::swap(&mut src, &mut dst);
            }
            // Final pass scatters straight back into `items`.
            let mut offs = prefix(&hist);
            let sh = shifts[np - 1];
            for &w in src.iter() {
                let d = ((key(&w) >> sh) & MASK) as usize;
                items[offs[d] as usize] = w;
                offs[d] += 1;
            }
        }
    };
}

digit_pipeline!(digit_passes_8, 8);
digit_pipeline!(digit_passes_10, 10);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_matches_comparison(mut data: Vec<u64>) {
        let mut expect = data.clone();
        expect.sort_unstable();
        let used = sort_radixable(&mut data);
        assert_eq!(used, data.len() >= RADIX_MIN_LEN);
        assert_eq!(data, expect);
    }

    #[test]
    fn random_full_range() {
        let mut rng = StdRng::seed_from_u64(11);
        check_matches_comparison((0..5000).map(|_| rng.gen::<u64>()).collect());
    }

    #[test]
    fn small_range_skips_constant_digits() {
        // High 7 bytes constant: only one scatter pass actually runs, but
        // the result must still be fully sorted.
        let mut rng = StdRng::seed_from_u64(3);
        check_matches_comparison((0..4096).map(|_| rng.gen_range(0..200u64)).collect());
    }

    #[test]
    fn duplicates_sorted_already_reversed_and_empty() {
        check_matches_comparison(vec![7; 1000]);
        check_matches_comparison((0..1000).collect());
        check_matches_comparison((0..1000).rev().collect());
        check_matches_comparison(Vec::new());
        check_matches_comparison(vec![u64::MAX, 0, u64::MAX, 1]);
    }

    #[test]
    fn short_slices_take_comparison_path() {
        let mut data: Vec<u64> = (0..(RADIX_MIN_LEN as u64 - 1)).rev().collect();
        assert!(!sort_radixable(&mut data));
        assert!(data.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn signed_keys_preserve_order() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut data: Vec<i64> = (0..3000).map(|_| rng.gen::<i64>()).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        assert!(sort_radixable(&mut data));
        assert_eq!(data, expect);
        // Extreme keys keep their order.
        let extremes = [i64::MIN, -1, 0, 1, i64::MAX].map(RadixKey::radix_key);
        assert!(extremes.windows(2).all(|w| w[0] < w[1]));
        let mut small: Vec<i32> = (0..2000).map(|_| rng.gen::<i32>()).collect();
        let mut sexp = small.clone();
        sexp.sort_unstable();
        assert!(sort_radixable(&mut small));
        assert_eq!(small, sexp);
    }

    #[test]
    fn non_radixable_falls_back() {
        let mut data: Vec<u128> = (0..1000u128).rev().map(|v| v << 70).collect();
        assert!(!sort_radixable(&mut data));
        assert!(data.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The payload sort orders by key and carries each element whole, on
    /// duplicate-heavy keys (at most 40 distinct among 3,000), through the
    /// radix path for `u64`/`i64` and the comparison fallback for `u128`.
    #[test]
    fn payload_sort_carries_elements_with_their_keys() {
        fn check<K: RadixKey + Ord + std::fmt::Debug>(keys: &[K]) {
            let mut rng = StdRng::seed_from_u64(keys.len() as u64);
            let mut data: Vec<(K, u64, u32)> = (0..3_000)
                .map(|i| (keys[rng.gen_range(0..keys.len())], rng.gen(), i))
                .collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            assert_eq!(sort_radixable_by_key(&mut data, |e| e.0), K::RADIXABLE);
            assert!(data.windows(2).all(|w| w[0].0 <= w[1].0));
            data.sort_unstable();
            assert_eq!(data, expect);
        }
        check(&(0..40u64).map(|v| v * v * 1_000_003).collect::<Vec<_>>());
        check(&(-20..20i64).map(|v| v * 1_000_000_007).collect::<Vec<_>>());
        check(&(0..40u128).map(|v| v << 70 | v).collect::<Vec<_>>());
    }

    #[test]
    fn kernel_handles_all_digit_positions() {
        // Values differing only in the top byte force the final pass.
        let mut data: Vec<u64> = (0..256u64).rev().map(|b| b << 56 | 0x1234).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        radix_sort_u64(&mut data);
        assert_eq!(data, expect);
    }

    #[test]
    fn kernel_sorts_in_place_for_any_pass_count() {
        // Shifting the occupied span exercises 1-, 2- and 3-pass plans
        // (and the write-back-into-items path of each).
        for shift in [0u32, 8, 16, 24, 40] {
            let mut data: Vec<u64> = (0..512u64).rev().map(|v| v << shift).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            radix_sort_u64(&mut data);
            assert_eq!(data, expect, "{shift}");
        }
        // All-identical input: zero passes.
        let mut same = vec![42u64; 128];
        radix_sort_u64(&mut same);
        assert_eq!(same, vec![42u64; 128]);
        // Tiny inputs skip the kernel but must stay intact.
        let mut tiny = vec![3u64, 1];
        radix_sort_u64(&mut tiny);
        assert_eq!(tiny, vec![3, 1].into_iter().rev().collect::<Vec<_>>());
    }
}
