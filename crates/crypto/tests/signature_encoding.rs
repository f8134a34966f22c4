//! Lazy R decompression and kept key tables against an eager reference.
//!
//! A [`Signature`] keeps R as its compressed bytes; decoding checks only
//! the prefix, x < p and 0 < s < n, and verification decompresses R. The
//! reference here is the eager scheme: decode fails unless R decompresses
//! to a curve point, and verification is checked with double-and-add
//! (`mul_naive`) and affine addition, independent of the multi-scalar
//! multiplication. Every signature must be accepted by one exactly when
//! it is accepted by the other, one by one, in batches, and when
//! [`find_invalid`] bisects.

use astro_crypto::field::Fe;
use astro_crypto::point::Affine;
use astro_crypto::scalar::{Scalar, N};
use astro_crypto::schnorr::{
    batch_verify, batch_verify_prepared, find_invalid, find_invalid_prepared, PreparedKey,
    SIGNATURE_LEN,
};
use astro_crypto::sha256::sha256_concat;
use astro_crypto::{u256, Keypair, PublicKey, Signature};
use proptest::prelude::*;

/// The eager decode-then-verify: R must decompress to a finite point and
/// s lie in `1..n`, then `s·G == R + e·P` with `e = H(R ‖ P ‖ m)`.
fn eager_accepts(pk: &PublicKey, message: &[u8], bytes: &[u8; SIGNATURE_LEN]) -> bool {
    let r_bytes: [u8; 33] = bytes[..33].try_into().unwrap();
    let Some(r) = Affine::from_compressed(&r_bytes).filter(|r| !r.is_infinity()) else {
        return false;
    };
    let Some(s) = Scalar::from_be_bytes_checked(bytes[33..].try_into().unwrap()) else {
        return false;
    };
    if s.is_zero() {
        return false;
    }
    let digest = sha256_concat(&[b"astro-schnorr-challenge-v1", &r_bytes, &pk.to_bytes(), message]);
    let e = Scalar::from_be_bytes_reduced(&digest);
    Affine::generator().mul_naive(&s) == r.add(&pk.point().mul_naive(&e))
}

/// The lazy scheme's verdict: decode, then verify.
fn lazy_accepts(pk: &PublicKey, message: &[u8], bytes: &[u8; SIGNATURE_LEN]) -> bool {
    Signature::from_bytes(bytes).is_ok_and(|sig| pk.verify(message, &sig))
}

/// An x below p whose `x³ + 7` has no square root: no curve point has it.
fn off_curve_x() -> [u8; 32] {
    (1u64..)
        .map(Fe::from_u64)
        .find(|x| x.square().mul(x).add(&Fe::SEVEN).sqrt().is_none())
        .expect("half of all x are off the curve")
        .to_be_bytes()
}

/// `sig` with R replaced by `prefix ‖ x`.
fn with_r(sig: &Signature, prefix: u8, x: &[u8; 32]) -> [u8; SIGNATURE_LEN] {
    let mut bytes = sig.to_bytes();
    bytes[0] = prefix;
    bytes[1..33].copy_from_slice(x);
    bytes
}

#[test]
fn malformed_r_prefixes_and_coordinates_fail_decode() {
    let kp = Keypair::from_seed(b"lazy-r");
    let sig = kp.sign(b"m");
    let x: [u8; 32] = sig.to_bytes()[1..33].try_into().unwrap();
    for prefix in [0x00, 0x01, 0x04, 0x05, 0x06, 0x07, 0xff] {
        let bytes = with_r(&sig, prefix, &x);
        assert!(Signature::from_bytes(&bytes).is_err(), "prefix {prefix:#04x}");
        assert!(!eager_accepts(kp.public(), b"m", &bytes));
    }
    // x = p, p + 1 and 2²⁵⁶ − 1 are not field elements.
    let p = astro_crypto::field::P.m;
    for x in [p, u256::add(&p, &[1, 0, 0, 0]).0, [u64::MAX; 4]] {
        let bytes = with_r(&sig, 0x02, &u256::to_be_bytes(&x));
        assert!(Signature::from_bytes(&bytes).is_err());
        assert!(!eager_accepts(kp.public(), b"m", &bytes));
    }
    // All-zero R (the encoding of the point at infinity).
    let bytes = with_r(&sig, 0x00, &[0; 32]);
    assert!(Signature::from_bytes(&bytes).is_err());
    // s = 0 and s ≥ n.
    for s in [[0u64; 4], N.m, [u64::MAX; 4]] {
        let mut bytes = sig.to_bytes();
        bytes[33..].copy_from_slice(&u256::to_be_bytes(&s));
        assert!(Signature::from_bytes(&bytes).is_err());
        assert!(!eager_accepts(kp.public(), b"m", &bytes));
    }
}

#[test]
fn off_curve_r_decodes_but_never_verifies() {
    let signers: Vec<Keypair> = (0..4u8).map(|i| Keypair::from_seed(&[b'k', i])).collect();
    let prepared: Vec<PreparedKey> =
        signers.iter().map(|kp| PreparedKey::new(*kp.public())).collect();
    let messages: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 20]).collect();
    let x = off_curve_x();
    for bad_at in 0..messages.len() {
        for prefix in [0x02, 0x03] {
            let mut sigs: Vec<Signature> =
                messages.iter().enumerate().map(|(i, m)| signers[i % 4].sign(m)).collect();
            let bytes = with_r(&sigs[bad_at], prefix, &x);
            assert!(!eager_accepts(signers[bad_at % 4].public(), &messages[bad_at], &bytes));
            sigs[bad_at] = Signature::from_bytes(&bytes).expect("lazy decode keeps the bytes");
            assert_eq!(sigs[bad_at].to_bytes(), bytes);
            let pk = signers[bad_at % 4].public();
            assert!(!pk.verify(&messages[bad_at], &sigs[bad_at]));
            assert!(!prepared[bad_at % 4].verify(&messages[bad_at], &sigs[bad_at]));

            let raw: Vec<(&[u8], PublicKey, Signature)> = messages
                .iter()
                .zip(&sigs)
                .enumerate()
                .map(|(i, (m, s))| (m.as_slice(), *signers[i % 4].public(), *s))
                .collect();
            assert!(!batch_verify(&raw));
            assert_eq!(find_invalid(&raw), vec![bad_at]);
            let tabled: Vec<(&[u8], &PreparedKey, Signature)> = messages
                .iter()
                .zip(&sigs)
                .enumerate()
                .map(|(i, (m, s))| (m.as_slice(), &prepared[i % 4], *s))
                .collect();
            assert!(!batch_verify_prepared(&tabled));
            assert_eq!(find_invalid_prepared(&tabled), vec![bad_at]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_get_the_eager_verdict(
        r in proptest::array::uniform32(any::<u8>()),
        s in proptest::array::uniform32(any::<u8>()),
        prefix in 0u8..6,
    ) {
        let kp = Keypair::from_seed(b"random-bytes");
        let mut bytes = [0u8; SIGNATURE_LEN];
        bytes[0] = prefix;
        bytes[1..33].copy_from_slice(&r);
        bytes[33..].copy_from_slice(&s);
        prop_assert_eq!(lazy_accepts(kp.public(), b"m", &bytes), eager_accepts(kp.public(), b"m", &bytes));
        prop_assert!(!lazy_accepts(kp.public(), b"m", &bytes));
    }

    #[test]
    fn forged_signatures_get_the_eager_verdict(
        seed in any::<u64>(),
        flip in 0usize..SIGNATURE_LEN * 8,
        wrong_message in any::<bool>(),
    ) {
        let kp = Keypair::from_seed(&seed.to_be_bytes());
        let message = seed.to_le_bytes();
        let genuine = kp.sign(&message).to_bytes();
        prop_assert!(lazy_accepts(kp.public(), &message, &genuine));
        prop_assert!(eager_accepts(kp.public(), &message, &genuine));
        let mut forged = genuine;
        forged[flip / 8] ^= 1 << (flip % 8);
        let checked: &[u8] = if wrong_message { b"another message" } else { &message };
        let lazy = lazy_accepts(kp.public(), checked, &forged);
        prop_assert_eq!(lazy, eager_accepts(kp.public(), checked, &forged));
        prop_assert!(!lazy);
    }

    #[test]
    fn prepared_keys_agree_with_the_raw_check(
        seeds in proptest::collection::vec(0u8..4, 1..8),
        forge_at in 0usize..8,
    ) {
        let signers: Vec<Keypair> = (0..4u8).map(|i| Keypair::from_seed(&[b'p', i])).collect();
        let prepared: Vec<PreparedKey> =
            signers.iter().map(|kp| PreparedKey::new(*kp.public())).collect();
        let messages: Vec<Vec<u8>> = (0..seeds.len()).map(|i| vec![i as u8; 9]).collect();
        let mut sigs: Vec<Signature> =
            seeds.iter().zip(&messages).map(|(&k, m)| signers[k as usize].sign(m)).collect();
        if forge_at < sigs.len() {
            // Signed by the next key, claimed by this one.
            sigs[forge_at] = signers[(seeds[forge_at] as usize + 1) % 4].sign(&messages[forge_at]);
        }
        for ((&k, m), s) in seeds.iter().zip(&messages).zip(&sigs) {
            prop_assert_eq!(prepared[k as usize].verify(m, s), signers[k as usize].public().verify(m, s));
        }
        let raw: Vec<(&[u8], PublicKey, Signature)> = seeds
            .iter()
            .zip(&messages)
            .zip(&sigs)
            .map(|((&k, m), s)| (m.as_slice(), *signers[k as usize].public(), *s))
            .collect();
        let tabled: Vec<(&[u8], &PreparedKey, Signature)> = seeds
            .iter()
            .zip(&messages)
            .zip(&sigs)
            .map(|((&k, m), s)| (m.as_slice(), &prepared[k as usize], *s))
            .collect();
        prop_assert_eq!(batch_verify_prepared(&tabled), batch_verify(&raw));
        prop_assert_eq!(find_invalid_prepared(&tabled), find_invalid(&raw));
        let expected: Vec<usize> = (forge_at < sigs.len()).then_some(forge_at).into_iter().collect();
        prop_assert_eq!(find_invalid(&raw), expected);
    }
}
