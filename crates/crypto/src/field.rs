//! The secp256k1 base field GF(p), p = 2^256 − 2^32 − 977.
//!
//! Every operation is specialized to this modulus through
//! `2^256 ≡ 2^32 + 977 (mod p)`. Multiplication and squaring reduce with
//! [`reduce_wide`]: the constant fits 33 bits, so folding the high half of
//! a 512-bit product costs four 64×33-bit multiplications instead of the
//! generic fold's full 256×256 schoolbook pass. Addition folds a carry
//! out of 256 bits with that same constant. Inversion and square root run
//! secp256k1's fixed addition chains instead of a generic
//! square-and-multiply. The generic
//! [`Modulus`] path is kept as the reference implementation and
//! cross-checked by property tests (`tests/reduction_properties.rs`).

use crate::u256::{self, Limbs, Modulus, Wide};

/// secp256k1 field modulus p = 2^256 − 2^32 − 977.
pub const P: Modulus =
    Modulus::new([0xFFFFFFFEFFFFFC2F, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF]);

/// `2^256 mod p = 2^32 + 977` — the fold constant of the specialized
/// reduction. 33 bits, so `limb · C` fits comfortably in a `u128`.
const C: u128 = 0x1_0000_03D1;

/// Reduces a 512-bit value modulo p, exploiting `2^256 ≡ C (mod p)`.
///
/// Two folds: the high 256 bits contribute `hi·C` (≤ 290 bits), whose own
/// overflow (≤ 34 bits) contributes `top·C` (≤ 68 bits); a final carry
/// fold and at most one conditional subtraction leave the canonical
/// representative.
#[inline]
pub fn reduce_wide(w: &Wide) -> Limbs {
    // Fold 1: t = lo + hi·C. Each step is lo[i] + hi[i]·C + carry
    // < 2^64 + 2^97 + 2^34, well inside u128.
    let mut t = [0u64; 4];
    let mut carry: u128 = 0;
    for i in 0..4 {
        let v = w[i] as u128 + w[i + 4] as u128 * C + carry;
        t[i] = v as u64;
        carry = v >> 64;
    }
    // Fold 2: the ≤ 34-bit overflow folds to `carry·C` ≤ 68 bits.
    let mut r = [0u64; 4];
    let mut v = t[0] as u128 + carry * C;
    r[0] = v as u64;
    for i in 1..4 {
        v = t[i] as u128 + (v >> 64);
        r[i] = v as u64;
    }
    if (v >> 64) != 0 {
        // A carry out of 2^256 ≡ one more C. It cannot cascade: the wrap
        // left r tiny (< 2^69), so adding C (< 2^34) stays far below 2^64
        // in every limb above the first.
        let mut v = r[0] as u128 + C;
        r[0] = v as u64;
        let mut i = 1;
        while (v >> 64) != 0 && i < 4 {
            v = r[i] as u128 + (v >> 64);
            r[i] = v as u64;
            i += 1;
        }
        debug_assert_eq!(v >> 64, 0, "second fold cannot overflow");
    }
    // r < 2^256 and p > 2^256 − 2^33: at most one subtraction.
    while !u256::lt(&r, &P.m) {
        let (d, _) = u256::sub(&r, &P.m);
        r = d;
    }
    r
}

/// `a · b mod p` through the specialized reduction.
#[inline]
fn mul_reduce(a: &Limbs, b: &Limbs) -> Limbs {
    reduce_wide(&u256::mul_wide(a, b))
}

/// `a² mod p`: symmetric schoolbook squaring plus the specialized
/// reduction.
#[inline]
fn sqr_reduce(a: &Limbs) -> Limbs {
    reduce_wide(&u256::sqr_wide(a))
}

/// An element of GF(p), kept fully reduced (`0 <= value < p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fe(Limbs);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0]);
    /// The curve constant b = 7 of y² = x³ + 7.
    pub const SEVEN: Fe = Fe([7, 0, 0, 0]);

    /// A constant from limbs already below p (curve and endomorphism
    /// constants; the caller guarantees canonicity).
    pub(crate) const fn from_canonical(limbs: Limbs) -> Self {
        Fe(limbs)
    }

    /// Creates a field element from limbs, reducing modulo p.
    pub fn from_limbs(limbs: Limbs) -> Self {
        Fe(P.reduce(&limbs))
    }

    /// Creates a field element from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Fe([v, 0, 0, 0])
    }

    /// Parses a 32-byte big-endian encoding; `None` if `>= p`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let limbs = u256::from_be_bytes(bytes);
        if u256::lt(&limbs, &P.m) {
            Some(Fe(limbs))
        } else {
            None
        }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        u256::to_be_bytes(&self.0)
    }

    /// Raw limb access (always reduced).
    pub fn limbs(&self) -> &Limbs {
        &self.0
    }

    /// True if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        u256::is_zero(&self.0)
    }

    /// True if the canonical representative is odd (used for point
    /// compression parity).
    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Field addition. The sum of two reduced operands is below 2p: a
    /// carry out of 256 bits stands for `2^256 ≡ 2^32 + 977`, and folding
    /// it in leaves a reduced value; otherwise at most one p is due.
    pub fn add(&self, other: &Fe) -> Fe {
        let (sum, carry) = u256::add(&self.0, &other.0);
        if carry {
            Fe(u256::add(&sum, &P.neg_m).0)
        } else if u256::lt(&sum, &P.m) {
            Fe(sum)
        } else {
            Fe(u256::sub(&sum, &P.m).0)
        }
    }

    /// Field subtraction.
    pub fn sub(&self, other: &Fe) -> Fe {
        Fe(P.sub_mod(&self.0, &other.0))
    }

    /// Field multiplication (specialized secp256k1 reduction).
    pub fn mul(&self, other: &Fe) -> Fe {
        Fe(mul_reduce(&self.0, &other.0))
    }

    /// Field squaring: symmetric limb products (10 wide multiplications
    /// instead of 16) plus the specialized reduction.
    pub fn square(&self) -> Fe {
        Fe(sqr_reduce(&self.0))
    }

    /// Additive inverse.
    pub fn neg(&self) -> Fe {
        Fe(P.neg_mod(&self.0))
    }

    /// Doubles the element (`2·self`).
    pub fn double(&self) -> Fe {
        self.add(self)
    }

    /// Multiplies by a small constant.
    pub fn mul_u64(&self, k: u64) -> Fe {
        self.mul(&Fe::from_u64(k))
    }

    /// `self` squared `n` times: `self^(2^n)`.
    fn square_n(&self, n: usize) -> Fe {
        let mut out = *self;
        for _ in 0..n {
            out = out.square();
        }
        out
    }

    /// The blocks `x_k = self^(2^k − 1)` for k ∈ {2, 22, 223}, the long
    /// runs of one bits in both `p − 2` and `(p + 1)/4`. Built by the
    /// addition chain 1, 2, 3, 6, 9, 11, 22, 44, 88, 176, 220, 223: 222
    /// squarings and 11 multiplications.
    fn one_runs(&self) -> [Fe; 3] {
        let x2 = self.square().mul(self);
        let x3 = x2.square().mul(self);
        let x6 = x3.square_n(3).mul(&x3);
        let x9 = x6.square_n(3).mul(&x3);
        let x11 = x9.square_n(2).mul(&x2);
        let x22 = x11.square_n(11).mul(&x11);
        let x44 = x22.square_n(22).mul(&x22);
        let x88 = x44.square_n(44).mul(&x44);
        let x176 = x88.square_n(88).mul(&x88);
        let x220 = x176.square_n(44).mul(&x44);
        let x223 = x220.square_n(3).mul(&x3);
        [x2, x22, x223]
    }

    /// Multiplicative inverse via Fermat's little theorem (`self^(p−2)`),
    /// over a fixed addition chain: 255 squarings and 15 multiplications
    /// where a generic square-and-multiply pays about 250 multiplications.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero (zero has no inverse).
    pub fn invert(&self) -> Fe {
        assert!(!self.is_zero(), "inverse of zero field element");
        // p − 2 = [223 ones] 0 [22 ones] 0000 1 0 11 0 1.
        let [x2, x22, x223] = self.one_runs();
        x223.square_n(23).mul(&x22).square_n(5).mul(self).square_n(3).mul(&x2).square_n(2).mul(self)
    }

    /// Square root, if one exists. Since p ≡ 3 (mod 4) this is
    /// `self^((p+1)/4)`, over a fixed addition chain of 253 squarings and
    /// 13 multiplications; returns `None` when `self` is a non-residue.
    pub fn sqrt(&self) -> Option<Fe> {
        // (p + 1)/4 = [223 ones] 0 [22 ones] 0000 11 00.
        let [x2, x22, x223] = self.one_runs();
        let root = x223.square_n(23).mul(&x22).square_n(6).mul(&x2).square_n(2);
        if root.square() == *self {
            Some(root)
        } else {
            None
        }
    }
}

impl core::fmt::Display for Fe {
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
    fn one_plus_one_is_two() {
        assert_eq!(Fe::ONE.add(&Fe::ONE), Fe::from_u64(2));
    }

    #[test]
    fn invert_round_trip() {
        let a = Fe::from_u64(1234567);
        assert_eq!(a.mul(&a.invert()), Fe::ONE);
    }

    #[test]
    fn sqrt_of_square() {
        let a = Fe::from_u64(987654321);
        let sq = a.square();
        let root = sq.sqrt().expect("square must have a root");
        assert!(root == a || root == a.neg());
    }

    #[test]
    fn non_residue_has_no_sqrt() {
        // If a is a residue, -a is a non-residue when p ≡ 3 mod 4 (and a != 0).
        let a = Fe::from_u64(4);
        assert!(a.sqrt().is_some());
        // Find a non-residue by scanning small values.
        let mut found = false;
        for v in 2..40u64 {
            if Fe::from_u64(v).sqrt().is_none() {
                found = true;
                break;
            }
        }
        assert!(found, "some small non-residue must exist");
    }

    #[test]
    fn neg_adds_to_zero() {
        let a = Fe::from_u64(55);
        assert_eq!(a.add(&a.neg()), Fe::ZERO);
    }

    #[test]
    fn parse_rejects_values_at_or_above_p() {
        let p_bytes = u256::to_be_bytes(&P.m);
        assert!(Fe::from_be_bytes(&p_bytes).is_none());
        let max = [0xffu8; 32];
        assert!(Fe::from_be_bytes(&max).is_none());
    }

    #[test]
    fn bytes_round_trip() {
        let a = Fe::from_u64(0xdeadbeefcafe);
        assert_eq!(Fe::from_be_bytes(&a.to_be_bytes()), Some(a));
    }

    #[test]
    fn distributivity() {
        let a = Fe::from_u64(17);
        let b = Fe::from_u64(101);
        let c = Fe::from_u64(977);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }
}
