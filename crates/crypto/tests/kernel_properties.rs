//! Property tests of the secp256k1 kernel's fast paths against their
//! references: the GLV scalar split, the addition-chain inversion and
//! square root (against the generic `Modulus::pow_mod`), the GLV
//! multi-scalar multiplication (against `mul_naive`), and same-signer
//! batch verification (against a forgery planted among repeated keys).

use astro_crypto::field::{Fe, P};
use astro_crypto::point::{multi_scalar_mul, Affine};
use astro_crypto::scalar::{Scalar, LAMBDA, N};
use astro_crypto::schnorr::{batch_verify, find_invalid};
use astro_crypto::u256::{self, Limbs};
use astro_crypto::{Keypair, PublicKey, Signature};
use proptest::prelude::*;

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    proptest::array::uniform32(any::<u8>()).prop_map(|b| Scalar::from_be_bytes_reduced(&b))
}

fn arb_fe() -> impl Strategy<Value = Fe> {
    proptest::array::uniform32(any::<u8>()).prop_map(|b| Fe::from_limbs(u256::from_be_bytes(&b)))
}

/// `v >> bits`, for `0 < bits < 64`.
fn shr(v: &Limbs, bits: u32) -> Limbs {
    std::array::from_fn(|i| (v[i] >> bits) | v.get(i + 1).map_or(0, |hi| hi << (64 - bits)))
}

fn scalar(limbs: Limbs) -> Scalar {
    Scalar::from_be_bytes_reduced(&u256::to_be_bytes(&limbs))
}

/// Splits `k`, checks both halves are below 2^128, and rebuilds
/// `±k1 ± k2·λ`.
fn check_split(k: &Scalar) {
    let [(k1, neg1), (k2, neg2)] = k.split_glv();
    assert!(k1.is_half_width(), "k1 = {k1} of k = {k}");
    assert!(k2.is_half_width(), "k2 = {k2} of k = {k}");
    let signed = |v: Scalar, neg: bool| if neg { v.neg() } else { v };
    assert_eq!(signed(k1, neg1).add(&signed(k2, neg2).mul(&LAMBDA)), *k, "k = {k}");
}

#[test]
fn glv_split_edge_scalars() {
    let (n_minus_1, _) = u256::sub(&N.m, &[1, 0, 0, 0]);
    let half_n = shr(&N.m, 1);
    let edges = [
        Scalar::ZERO,
        Scalar::ONE,
        scalar(n_minus_1),
        LAMBDA,
        LAMBDA.mul(&LAMBDA),
        scalar([0, 0, 1, 0]),               // 2^128
        scalar([u64::MAX, u64::MAX, 0, 0]), // 2^128 − 1
        scalar(half_n),
        scalar(half_n).add(&Scalar::ONE),
        scalar([0, 0, 0, 1 << 63]), // 2^255
    ];
    for k in &edges {
        check_split(k);
    }
}

#[test]
fn lambda_is_the_endomorphism_of_the_curve() {
    // λ³ ≡ 1 (mod n), and λ·G keeps G's y while cubing to G's x³ — that
    // is, λ·G = (β·Gx, Gy) for a cube root of unity β mod p.
    assert_eq!(LAMBDA.mul(&LAMBDA).mul(&LAMBDA), Scalar::ONE);
    assert_ne!(LAMBDA, Scalar::ONE);
    let g = Affine::generator();
    let lg = g.mul_naive(&LAMBDA);
    assert_eq!(lg.y(), g.y());
    assert_ne!(lg.x(), g.x());
    let cube = |x: Fe| x.square().mul(&x);
    assert_eq!(cube(lg.x()), cube(g.x()));
}

/// `a^e` through the generic reference ladder.
fn reference_pow(a: &Fe, e: &Limbs) -> Fe {
    Fe::from_limbs(P.pow_mod(a.limbs(), e))
}

fn check_invert_and_sqrt(a: &Fe) {
    let (p_minus_2, _) = u256::sub(&P.m, &[2, 0, 0, 0]);
    // (p + 1)/4 = ((p − 3)/4) + 1, computed without overflowing 256 bits.
    let (p_minus_3, _) = u256::sub(&P.m, &[3, 0, 0, 0]);
    let quarter = shr(&p_minus_3, 2);
    let (sqrt_exp, _) = u256::add(&quarter, &[1, 0, 0, 0]);
    if !a.is_zero() {
        assert_eq!(a.invert(), reference_pow(a, &p_minus_2), "invert {a}");
    }
    let candidate = reference_pow(a, &sqrt_exp);
    let expected = (candidate.square() == *a).then_some(candidate);
    assert_eq!(a.sqrt(), expected, "sqrt {a}");
}

#[test]
fn addition_chains_match_the_generic_ladder_on_edge_elements() {
    let p_minus = |d: u64| Fe::from_limbs(u256::sub(&P.m, &[d, 0, 0, 0]).0);
    let half_p = shr(&P.m, 1);
    let edges = [
        Fe::ZERO,
        Fe::ONE,
        Fe::from_u64(2),
        Fe::from_u64(3),
        Fe::SEVEN,
        p_minus(1), // −1: a non-residue, since p ≡ 3 (mod 4)
        p_minus(2),
        Fe::from_limbs(half_p),
        Fe::from_limbs([0, 0, 0, 1 << 63]),
        Fe::from_limbs([u64::MAX; 4]), // 2^256 − 1 reduces to 2^32 + 976
    ];
    let mut non_residues = 0;
    for a in &edges {
        check_invert_and_sqrt(a);
        non_residues += usize::from(a.sqrt().is_none());
    }
    assert!(non_residues >= 1, "the edge set must exercise a non-residue");
    assert!(p_minus(1).sqrt().is_none());
}

/// A point with a known discrete log, off the generator.
fn point(k: u64) -> Affine {
    Affine::generator().mul_naive(&Scalar::from_u64(k))
}

/// `Σ kᵢ·Pᵢ` one term at a time through the reference double-and-add.
fn naive_sum(terms: &[(Scalar, Affine)]) -> Affine {
    terms.iter().fold(Affine::infinity(), |acc, (k, p)| acc.add(&p.mul_naive(k)))
}

/// A scalar below 2^128, the width of batch weights.
fn narrow(k: &Scalar) -> Scalar {
    let l = k.limbs();
    scalar([l[0], l[1], 0, 0])
}

#[test]
fn msm_handles_repeated_points_and_cancelling_terms() {
    let g = Affine::generator();
    let q = point(0xabcdef);
    let k = Scalar::from_be_bytes_reduced(&astro_crypto::sha256(b"msm k"));
    let cases: Vec<Vec<(Scalar, Affine)>> = vec![
        // The same base three times, at full and at narrow width.
        vec![(k, q), (narrow(&k), q), (k.add(&Scalar::ONE), q)],
        // Cancelling: k·Q + (−k)·Q, beside a surviving narrow G term.
        vec![(k, q), (k.neg(), q), (narrow(&k), g)],
        // Everything cancels, through the generator tables too.
        vec![(k, g), (k.neg(), g), (narrow(&k), q), (narrow(&k).neg(), q)],
        // λ and −λ split into a zero half and a unit half.
        vec![(LAMBDA, q), (LAMBDA.neg(), g), (Scalar::ONE, q.neg())],
    ];
    for terms in &cases {
        let got = multi_scalar_mul(terms);
        let want = naive_sum(terms);
        assert_eq!(got.to_affine(), want);
        assert!(got.eq_affine(&want));
    }
    assert!(multi_scalar_mul(&cases[2]).is_infinity());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn glv_split_reconstructs_random_scalars(k in arb_scalar()) {
        check_split(&k);
    }

    #[test]
    fn addition_chains_match_the_generic_ladder(a in arb_fe()) {
        check_invert_and_sqrt(&a);
        // Squares always have a root; `a·(−1)` flips residuosity.
        check_invert_and_sqrt(&a.square());
        check_invert_and_sqrt(&a.neg());
    }

    #[test]
    fn msm_with_mixed_widths_matches_naive(
        scalars in proptest::collection::vec(arb_scalar(), 1..5),
        narrow_mask in any::<u8>(),
        base_picks in proptest::collection::vec(0usize..3, 1..5),
    ) {
        let bases = [Affine::generator(), point(31337), point(0x1234567)];
        let terms: Vec<(Scalar, Affine)> = scalars
            .iter()
            .zip(base_picks.iter().cycle())
            .enumerate()
            .map(|(i, (k, &b))| {
                let k = if narrow_mask >> i & 1 == 1 { narrow(k) } else { *k };
                (k, bases[b])
            })
            .collect();
        let got = multi_scalar_mul(&terms);
        let want = naive_sum(&terms);
        prop_assert_eq!(got.to_affine(), want);
        prop_assert!(got.eq_affine(&want));
    }
}

fn signed_batch(keys: &[Keypair], len: usize) -> Vec<(Vec<u8>, PublicKey, Signature)> {
    (0..len)
        .map(|i| {
            let kp = &keys[i % keys.len()];
            let msg = format!("ack {i}").into_bytes();
            let sig = kp.sign(&msg);
            (msg, *kp.public(), sig)
        })
        .collect()
}

fn borrow(items: &[(Vec<u8>, PublicKey, Signature)]) -> Vec<(&[u8], PublicKey, Signature)> {
    items.iter().map(|(m, p, s)| (m.as_slice(), *p, *s)).collect()
}

#[test]
fn same_signer_batches_catch_a_single_forgery() {
    let keys: Vec<Keypair> = (0..4u8).map(|i| Keypair::from_seed(&[b'r', i])).collect();
    let clean = signed_batch(&keys, 13);
    assert!(batch_verify(&borrow(&clean)));
    assert!(find_invalid(&borrow(&clean)).is_empty());
    for forged_at in [0, 5, 12] {
        let mut items = clean.clone();
        // A genuine signature by the same key over a different message,
        // among the key's honest ones, must still sink the batch.
        items[forged_at].2 = keys[forged_at % keys.len()].sign(b"something else");
        let borrowed = borrow(&items);
        assert!(!batch_verify(&borrowed), "forgery at {forged_at}");
        assert_eq!(find_invalid(&borrowed), vec![forged_at]);
    }
    // A signature moved to another item of the same signer fails too.
    let mut swapped = clean.clone();
    swapped[1].2 = clean[5].2;
    assert_eq!(find_invalid(&borrow(&swapped)), vec![1]);
}
