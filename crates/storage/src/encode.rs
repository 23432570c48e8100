//! Fixed-width, order-preserving binary encoding of data items.
//!
//! Every value stored in the warehouse is drawn from a totally ordered
//! universe `U` (paper §1.1). The on-disk structures ([`crate::run::SortedRun`])
//! hold items in a fixed-width big-endian encoding whose *byte order equals
//! the value order*, so on-disk binary search never needs to decode more
//! than the probed item.
//!
//! The accurate query algorithm (paper Algorithm 8) bisects the *value
//! space* (`z = (u + v) / 2`), so items must also expose a [`Item::midpoint`]
//! and the size of their universe in bits (which bounds the recursion depth,
//! Lemma 7's `log |U|` factor).

pub use hsq_sketch::radix::RadixKey;

/// A value that can be stored in the warehouse and summarized by sketches.
///
/// Implementations must guarantee:
/// * `encode`/`decode` round-trip exactly;
/// * the encoding is *order-preserving*: `a <= b` iff
///   `a.encoded bytes <= b.encoded bytes` lexicographically;
/// * `midpoint(a, b)` for `a <= b` returns `z` with `a <= z <= b`, and
///   repeated bisection of `[a, b]` terminates in at most
///   [`Item::UNIVERSE_BITS`] steps.
///
/// The [`RadixKey`] supertrait feeds the batch-ingest radix sort
/// ([`crate::sort_items`]): when `RadixKey::RADIXABLE` its key must agree
/// with [`Item::to_ordered_u64`]; universes wider than 64 bits set it to
/// `false` and every sort falls back to the comparison path.
pub trait Item:
    RadixKey + Copy + Ord + std::hash::Hash + Send + Sync + std::fmt::Debug + 'static
{
    /// Width of the encoded form in bytes.
    const ENCODED_LEN: usize;
    /// Number of bits in the universe; bounds value-space bisection depth.
    const UNIVERSE_BITS: u32;

    /// Minimum element of the universe.
    const MIN: Self;
    /// Maximum element of the universe.
    const MAX: Self;

    /// Serialize into `buf` (exactly `ENCODED_LEN` bytes).
    fn encode(self, buf: &mut [u8]);
    /// Deserialize from `buf` (exactly `ENCODED_LEN` bytes).
    fn decode(buf: &[u8]) -> Self;
    /// Value-space midpoint; never overflows, result in `[a, b]` for `a <= b`.
    fn midpoint(a: Self, b: Self) -> Self;

    /// Map to a `u64` key preserving order: `a <= b` iff
    /// `a.to_ordered_u64() <= b.to_ordered_u64()`. Only the low
    /// [`Item::UNIVERSE_BITS`] bits are used. Q-Digest and other
    /// universe-structured sketches operate on this key space.
    fn to_ordered_u64(self) -> u64;
    /// Inverse of [`Item::to_ordered_u64`].
    fn from_ordered_u64(key: u64) -> Self;
}

macro_rules! impl_item_unsigned {
    ($t:ty, $wide:ty) => {
        impl Item for $t {
            const ENCODED_LEN: usize = std::mem::size_of::<$t>();
            const UNIVERSE_BITS: u32 = <$t>::BITS;
            const MIN: Self = <$t>::MIN;
            const MAX: Self = <$t>::MAX;

            #[inline]
            fn encode(self, buf: &mut [u8]) {
                buf[..Self::ENCODED_LEN].copy_from_slice(&self.to_be_bytes());
            }

            #[inline]
            fn decode(buf: &[u8]) -> Self {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(&buf[..Self::ENCODED_LEN]);
                <$t>::from_be_bytes(b)
            }

            #[inline]
            fn midpoint(a: Self, b: Self) -> Self {
                ((a as $wide + b as $wide) / 2) as $t
            }

            #[inline]
            fn to_ordered_u64(self) -> u64 {
                self as u64
            }

            #[inline]
            fn from_ordered_u64(key: u64) -> Self {
                key as $t
            }
        }
    };
}

impl_item_unsigned!(u16, u32);
impl_item_unsigned!(u32, u64);
impl_item_unsigned!(u64, u128);

macro_rules! impl_item_signed {
    ($t:ty, $u:ty) => {
        impl Item for $t {
            const ENCODED_LEN: usize = std::mem::size_of::<$t>();
            const UNIVERSE_BITS: u32 = <$t>::BITS;
            const MIN: Self = <$t>::MIN;
            const MAX: Self = <$t>::MAX;

            #[inline]
            fn encode(self, buf: &mut [u8]) {
                // Flip the sign bit so the big-endian byte order matches the
                // signed value order.
                let biased = (self as $u) ^ (1 << (<$t>::BITS - 1));
                buf[..Self::ENCODED_LEN].copy_from_slice(&biased.to_be_bytes());
            }

            #[inline]
            fn decode(buf: &[u8]) -> Self {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(&buf[..Self::ENCODED_LEN]);
                (<$u>::from_be_bytes(b) ^ (1 << (<$t>::BITS - 1))) as $t
            }

            #[inline]
            fn midpoint(a: Self, b: Self) -> Self {
                // Midpoint in the sign-biased unsigned space, mapped back.
                let ua = (a as $u) ^ (1 << (<$t>::BITS - 1));
                let ub = (b as $u) ^ (1 << (<$t>::BITS - 1));
                let mid = ua / 2 + ub / 2 + (ua & ub & 1);
                (mid ^ (1 << (<$t>::BITS - 1))) as $t
            }

            #[inline]
            fn to_ordered_u64(self) -> u64 {
                ((self as $u) ^ (1 << (<$t>::BITS - 1))) as u64
            }

            #[inline]
            fn from_ordered_u64(key: u64) -> Self {
                ((key as $u) ^ (1 << (<$t>::BITS - 1))) as $t
            }
        }
    };
}

impl_item_signed!(i32, u32);
impl_item_signed!(i64, u64);

/// An `f64` with a total order, storable in the warehouse.
///
/// NaNs are rejected at construction. The ordering is the usual numeric
/// order; `-0.0 == 0.0` is broken by the bit pattern (`-0.0 < 0.0`), which
/// keeps the order total and the encoding order-preserving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct F64(u64);

impl F64 {
    /// Wrap a float. Panics on NaN.
    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "F64 cannot hold NaN");
        F64(Self::key(v))
    }

    /// The wrapped float value.
    #[inline]
    pub fn get(self) -> f64 {
        f64::from_bits(Self::unkey(self.0))
    }

    /// Map the IEEE-754 bit pattern to a `u64` whose unsigned order equals
    /// the numeric order (standard "total order" trick).
    #[inline]
    fn key(v: f64) -> u64 {
        let bits = v.to_bits();
        if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        }
    }

    #[inline]
    fn unkey(k: u64) -> u64 {
        if k >> 63 == 1 {
            k & !(1 << 63)
        } else {
            !k
        }
    }
}

impl From<f64> for F64 {
    fn from(v: f64) -> Self {
        F64::new(v)
    }
}

impl std::fmt::Display for F64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

impl RadixKey for F64 {
    const RADIXABLE: bool = true;

    #[inline]
    fn radix_key(self) -> u64 {
        self.0
    }
}

impl Item for F64 {
    const ENCODED_LEN: usize = 8;
    const UNIVERSE_BITS: u32 = 64;
    /// `key(-inf)`: the smallest valid (non-NaN) key.
    const MIN: Self = F64(0x000F_FFFF_FFFF_FFFF);
    /// `key(+inf)`: the largest valid (non-NaN) key.
    const MAX: Self = F64(0xFFF0_0000_0000_0000);

    #[inline]
    fn encode(self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.0.to_be_bytes());
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[..8]);
        F64(u64::from_be_bytes(b))
    }

    #[inline]
    fn midpoint(a: Self, b: Self) -> Self {
        // Bisect in key space: order-preserving and terminates in <= 64 steps.
        F64(a.0 / 2 + b.0 / 2 + (a.0 & b.0 & 1))
    }

    #[inline]
    fn to_ordered_u64(self) -> u64 {
        self.0
    }

    #[inline]
    fn from_ordered_u64(key: u64) -> Self {
        F64(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc<T: Item>(v: T) -> Vec<u8> {
        let mut buf = vec![0u8; T::ENCODED_LEN];
        v.encode(&mut buf);
        buf
    }

    #[test]
    fn u64_roundtrip_and_order() {
        let vals = [0u64, 1, 42, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for &a in &vals {
            assert_eq!(u64::decode(&enc(a)), a);
            for &b in &vals {
                assert_eq!(enc(a) < enc(b), a < b, "order mismatch {a} {b}");
            }
        }
    }

    #[test]
    fn i64_roundtrip_and_order() {
        let vals = [i64::MIN, -5, -1, 0, 1, 7, i64::MAX];
        for &a in &vals {
            assert_eq!(i64::decode(&enc(a)), a);
            for &b in &vals {
                assert_eq!(enc(a) < enc(b), a < b, "order mismatch {a} {b}");
            }
        }
    }

    #[test]
    fn i64_midpoint_in_range() {
        let pairs = [(i64::MIN, i64::MAX), (-10, 10), (-3, -1), (5, 5), (0, 1)];
        for (a, b) in pairs {
            let m = <i64 as Item>::midpoint(a, b);
            assert!(a <= m && m <= b, "midpoint({a},{b}) = {m} out of range");
        }
    }

    #[test]
    fn u64_midpoint_no_overflow() {
        assert_eq!(<u64 as Item>::midpoint(u64::MAX, u64::MAX), u64::MAX);
        let m = <u64 as Item>::midpoint(u64::MAX - 2, u64::MAX);
        assert_eq!(m, u64::MAX - 1);
    }

    #[test]
    fn f64_total_order_and_roundtrip() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for (i, &a) in vals.iter().enumerate() {
            let fa = F64::new(a);
            assert_eq!(fa.get().to_bits(), a.to_bits());
            assert_eq!(F64::decode(&enc(fa)), fa);
            for (j, &b) in vals.iter().enumerate() {
                let fb = F64::new(b);
                assert_eq!(fa < fb, i < j, "order mismatch {a} {b}");
                assert_eq!(enc(fa) < enc(fb), i < j, "byte order mismatch {a} {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn f64_rejects_nan() {
        let _ = F64::new(f64::NAN);
    }

    #[test]
    fn f64_midpoint_between() {
        let a = F64::new(1.0);
        let b = F64::new(4.0);
        let m = F64::midpoint(a, b);
        assert!(a <= m && m <= b);
        // Bisection terminates: repeatedly halving [1.0, 4.0] reaches a fixpoint.
        let (lo, mut hi) = (a, b);
        for _ in 0..200 {
            let m = F64::midpoint(lo, hi);
            if m == lo || m == hi {
                return;
            }
            hi = m;
        }
        panic!("bisection did not terminate in 200 steps (expected <= 64)");
    }

    #[test]
    fn bisection_depth_bounded_u32() {
        let (lo, mut hi) = (u32::MIN, u32::MAX);
        let mut steps = 0;
        loop {
            let m = <u32 as Item>::midpoint(lo, hi);
            if m == lo {
                break;
            }
            hi = m;
            steps += 1;
            assert!(steps <= u32::UNIVERSE_BITS, "too many bisection steps");
        }
    }
}
