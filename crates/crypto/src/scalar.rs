//! Scalars modulo the secp256k1 group order n.
//!
//! As in [`crate::field`], multiplication routes through a reduction
//! specialized to this modulus: `2^256 mod n` is a 129-bit constant
//! ([`C`]), so folding the high half of a 512-bit product is a 4×3-limb
//! multiplication instead of the generic fold's full schoolbook pass. The
//! generic [`Modulus`] path remains the cross-checked reference.

use crate::u256::{self, Limbs, Modulus, Wide};

/// secp256k1 group order
/// n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141.
pub const N: Modulus =
    Modulus::new([0xBFD25E8CD0364141, 0xBAAEDCE6AF48A03B, 0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF]);

/// `2^256 mod n` — the 129-bit fold constant of the specialized
/// reduction, as three little-endian limbs.
const C: [u64; 3] = [0x402DA1732FC9BEBF, 0x4551231950B75FC4, 1];

/// `acc += h · C`, schoolbook over the 3-limb constant with full carry
/// propagation. `acc` must be wide enough that the true value fits; the
/// callers in [`reduce_wide`] size it from the fold bounds.
#[inline]
fn addmul_c(acc: &mut [u64], h: &[u64]) {
    for (i, &hi) in h.iter().enumerate() {
        let mut carry: u128 = 0;
        for (j, &cj) in C.iter().enumerate() {
            let v = acc[i + j] as u128 + hi as u128 * cj as u128 + carry;
            acc[i + j] = v as u64;
            carry = v >> 64;
        }
        let mut k = i + C.len();
        while carry != 0 && k < acc.len() {
            let v = acc[k] as u128 + carry;
            acc[k] = v as u64;
            carry = v >> 64;
            k += 1;
        }
        debug_assert_eq!(carry, 0, "fold accumulator sized from the bounds");
    }
}

/// Reduces a 512-bit value modulo n, exploiting `2^256 ≡ C (mod n)`.
///
/// Three folds with shrinking widths — 512 → 387 → 260 → 257 bits — then
/// a carry fold and at most two conditional subtractions.
#[inline]
pub fn reduce_wide(w: &Wide) -> Limbs {
    // Fold 1: t = lo + hi·C < 2^256 + 2^385·2 < 2^387.
    let mut t = [0u64; 7];
    t[..4].copy_from_slice(&w[..4]);
    addmul_c(&mut t, &[w[4], w[5], w[6], w[7]]);
    // Fold 2: the ≤ 131-bit overflow folds through C again: < 2^260.
    let mut t2 = [0u64; 5];
    t2[..4].copy_from_slice(&t[..4]);
    addmul_c(&mut t2, &[t[4], t[5], t[6]]);
    // Fold 3: the ≤ 4-bit overflow folds to < 2^133.
    let mut r = [0u64; 5];
    r[..4].copy_from_slice(&t2[..4]);
    addmul_c(&mut r, &[t2[4]]);
    // A final carry out of 2^256 ≡ one more C; it cannot cascade (the
    // wrap left r < 2^134).
    if r[4] != 0 {
        debug_assert_eq!(r[4], 1);
        r[4] = 0;
        addmul_c(&mut r, &[1]);
        debug_assert_eq!(r[4], 0, "carry fold cannot overflow");
    }
    let mut out = [r[0], r[1], r[2], r[3]];
    // out < 2^256 and n > 2^255: at most two subtractions.
    while !u256::lt(&out, &N.m) {
        let (d, _) = u256::sub(&out, &N.m);
        out = d;
    }
    out
}

/// `a · b mod n` through the specialized reduction.
#[inline]
fn mul_reduce(a: &Limbs, b: &Limbs) -> Limbs {
    reduce_wide(&u256::mul_wide(a, b))
}

/// An integer modulo the group order n, kept fully reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(Limbs);

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar one.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Creates a scalar from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Scalar([v, 0, 0, 0])
    }

    /// Parses a 32-byte big-endian value, reducing modulo n.
    ///
    /// Unlike strict parsers this never fails: out-of-range values wrap.
    /// Use [`Scalar::from_be_bytes_checked`] when canonicity matters (e.g.
    /// signature decoding).
    pub fn from_be_bytes_reduced(bytes: &[u8; 32]) -> Self {
        Scalar(N.reduce(&u256::from_be_bytes(bytes)))
    }

    /// Parses a canonical (already reduced) 32-byte big-endian value.
    pub fn from_be_bytes_checked(bytes: &[u8; 32]) -> Option<Self> {
        let limbs = u256::from_be_bytes(bytes);
        if u256::lt(&limbs, &N.m) {
            Some(Scalar(limbs))
        } else {
            None
        }
    }

    /// Reduces a 64-byte (512-bit) big-endian value modulo n. Used for
    /// hash-to-scalar with negligible bias.
    pub fn from_wide_be_bytes(bytes: &[u8; 64]) -> Self {
        let hi = u256::from_be_bytes(bytes[..32].try_into().unwrap());
        let lo = u256::from_be_bytes(bytes[32..].try_into().unwrap());
        let wide: Wide = [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]];
        Scalar(reduce_wide(&wide))
    }

    /// Serializes to 32 big-endian bytes (canonical form).
    pub fn to_be_bytes(self) -> [u8; 32] {
        u256::to_be_bytes(&self.0)
    }

    /// Raw limb access (always reduced).
    pub fn limbs(&self) -> &Limbs {
        &self.0
    }

    /// True if this is zero.
    pub fn is_zero(&self) -> bool {
        u256::is_zero(&self.0)
    }

    /// Returns bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        u256::bit(&self.0, i)
    }

    /// Scalar addition mod n.
    pub fn add(&self, other: &Scalar) -> Scalar {
        Scalar(N.add_mod(&self.0, &other.0))
    }

    /// Scalar subtraction mod n.
    pub fn sub(&self, other: &Scalar) -> Scalar {
        Scalar(N.sub_mod(&self.0, &other.0))
    }

    /// Scalar multiplication mod n (specialized secp256k1-order
    /// reduction).
    pub fn mul(&self, other: &Scalar) -> Scalar {
        Scalar(mul_reduce(&self.0, &other.0))
    }

    /// Additive inverse mod n.
    pub fn neg(&self) -> Scalar {
        Scalar(N.neg_mod(&self.0))
    }

    /// Multiplicative inverse via Fermat (`self^(n−2)`), through the
    /// generic exponentiation: neither signing nor verification inverts a
    /// scalar.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn invert(&self) -> Scalar {
        assert!(!self.is_zero(), "inverse of zero scalar");
        let (n_minus_2, _) = u256::sub(&N.m, &[2, 0, 0, 0]);
        Scalar(N.pow_mod(&self.0, &n_minus_2))
    }

    /// True if the value is below 2^128 — the width of batch weights, and
    /// of both halves of a [`split_glv`](Self::split_glv).
    pub fn is_half_width(&self) -> bool {
        self.0[2] == 0 && self.0[3] == 0
    }

    /// GLV decomposition: `self ≡ ±k1 ± k2·λ (mod n)` with both `k1` and
    /// `k2` below 2^128, returned as `(magnitude, negated)` pairs. Since
    /// `λ·P = (β·x, y)` costs one field multiplication, a full-width
    /// multiplication becomes two half-width ones that share a doubling
    /// chain of half the length.
    ///
    /// Babai rounding against the reduced basis of the lattice
    /// `{(a, b) : a + b·λ ≡ 0 (mod n)}` (Hankerson–Menezes–Vanstone,
    /// algorithm 3.74): `c1 = round(b2·k/n)`, `c2 = round(−b1·k/n)` are
    /// computed as `(k·g) >> 384` with `g = round(2^384·b/n)`, then
    /// `k2 = −(c1·b1 + c2·b2)` and `k1 = k − k2·λ`, both mod n, and each
    /// is mapped to the representative of least absolute value.
    pub fn split_glv(&self) -> [(Scalar, bool); 2] {
        let c1 = mul_shift_384(&self.0, &GLV_G1);
        let c2 = mul_shift_384(&self.0, &GLV_G2);
        let k2 = Scalar(c1).mul(&GLV_MINUS_B1).add(&Scalar(c2).mul(&GLV_MINUS_B2));
        let k1 = self.sub(&k2.mul(&LAMBDA));
        [k1.abs_signed(), k2.abs_signed()]
    }

    /// `(|v|, v > n/2)`, reading `v` as a signed residue in `(−n/2, n/2]`.
    fn abs_signed(self) -> (Scalar, bool) {
        if u256::lt(&HALF_N, &self.0) {
            (self.neg(), true)
        } else {
            (self, false)
        }
    }
}

/// λ, the cube root of unity mod n for which `λ·(x, y) = (β·x, y)` on
/// secp256k1 (with β in [`crate::point`]).
pub const LAMBDA: Scalar =
    Scalar([0xDF02967C1B23BD72, 0x122E22EA20816678, 0xA5261C028812645A, 0x5363AD4CC05C30E0]);

/// ⌊n/2⌋: residues above it are negative in the signed view.
const HALF_N: Limbs =
    [0xDFE92F46681B20A0, 0x5D576E7357A4501D, 0xFFFFFFFFFFFFFFFF, 0x7FFFFFFFFFFFFFFF];

/// `round(2^384·b2/n)` and `round(2^384·(−b1)/n)` for the reduced basis
/// `(a1, b1) = (0x3086d221a7d46bcde86c90e49284eb15,
/// −0xe4437ed6010e88286f547fa90abfe4c3)`,
/// `(a2, b2) = (0x114ca50f7a8e2f3f657c1108d9d44cfd8, a1)`.
const GLV_G1: Limbs =
    [0xE893209A45DBB031, 0x3DAA8A1471E8CA7F, 0xE86C90E49284EB15, 0x3086D221A7D46BCD];
const GLV_G2: Limbs =
    [0x1571B4AE8AC47F71, 0x221208AC9DF506C6, 0x6F547FA90ABFE4C4, 0xE4437ED6010E8828];
/// `−b1` and `−b2 mod n`.
const GLV_MINUS_B1: Scalar = Scalar([0x6F547FA90ABFE4C3, 0xE4437ED6010E8828, 0, 0]);
const GLV_MINUS_B2: Scalar =
    Scalar([0xD765CDA83DB1562C, 0x8A280AC50774346D, 0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF]);

/// `round(a·g / 2^384)`: the top 128 bits of the 512-bit product, plus
/// the bit below them.
fn mul_shift_384(a: &Limbs, g: &Limbs) -> Limbs {
    let w = u256::mul_wide(a, g);
    let round = w[5] >> 63;
    let (lo, carry) = w[6].overflowing_add(round);
    [lo, w[7] + carry as u64, 0, 0]
}

impl core::fmt::Display for Scalar {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for b in self.to_be_bytes() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_minus_1_plus_1_wraps() {
        let n_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        assert_eq!(n_minus_1.add(&Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn invert_round_trip() {
        let a = Scalar::from_u64(0xabcdef123);
        assert_eq!(a.mul(&a.invert()), Scalar::ONE);
    }

    #[test]
    fn checked_parse_rejects_n() {
        let n_bytes = u256::to_be_bytes(&N.m);
        assert!(Scalar::from_be_bytes_checked(&n_bytes).is_none());
        assert!(Scalar::from_be_bytes_reduced(&n_bytes).is_zero());
    }

    #[test]
    fn wide_reduction_consistent() {
        // A value below n reduces to itself through the wide path.
        let a = Scalar::from_u64(42);
        let mut wide = [0u8; 64];
        wide[32..].copy_from_slice(&a.to_be_bytes());
        assert_eq!(Scalar::from_wide_be_bytes(&wide), a);
    }

    #[test]
    fn mul_commutes() {
        let a = Scalar::from_u64(999983);
        let b = Scalar::from_u64(777777777);
        assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn bytes_round_trip() {
        let a = Scalar::from_u64(0x123456789);
        assert_eq!(Scalar::from_be_bytes_checked(&a.to_be_bytes()), Some(a));
    }
}
