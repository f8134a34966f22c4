//! Key-prefixed Schnorr signatures over secp256k1.
//!
//! This replaces the ECDSA-P256 used by the paper's Astro II prototype (see
//! DESIGN.md §2): same ~128-bit security level, same asymptotic cost (one
//! fixed-base scalar multiplication to sign, one double-scalar
//! multiplication to verify), so every batching/amortization trade-off in
//! the paper carries over.
//!
//! The scheme is classic key-prefixed Schnorr (not bit-compatible with
//! BIP-340, which is unnecessary here):
//!
//! - sign:   `k = H(sk ‖ m ‖ ctr)`, `R = k·G`, `e = H(R ‖ P ‖ m)`,
//!   `s = k + e·sk (mod n)`, signature `(R, s)`.
//! - verify: `e = H(R ‖ P ‖ m)`, accept iff `s·G == R + e·P`.
//!
//! Nonces are derived deterministically (RFC-6979 style), so signing never
//! consumes randomness and is safe against nonce-reuse bugs.
//!
//! # Examples
//!
//! ```
//! use astro_crypto::schnorr::Keypair;
//!
//! let keypair = Keypair::from_seed(b"alice");
//! let sig = keypair.sign(b"pay bob 5");
//! assert!(keypair.public().verify(b"pay bob 5", &sig));
//! assert!(!keypair.public().verify(b"pay bob 6", &sig));
//! ```

use crate::point::{multi_scalar_mul, Affine, COMPRESSED_LEN};
use crate::scalar::Scalar;
use crate::sha256::{sha256_concat, Sha256};

/// Length of a serialized signature: compressed R (33) + s (32).
pub const SIGNATURE_LEN: usize = COMPRESSED_LEN + 32;

/// Length of a serialized public key (compressed point).
pub const PUBLIC_KEY_LEN: usize = COMPRESSED_LEN;

/// A Schnorr signing error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyError {
    /// The secret scalar was zero (probability ≈ 2⁻²⁵⁶ from honest seeds).
    ZeroSecret,
    /// A public key or signature encoding was malformed.
    InvalidEncoding,
}

impl core::fmt::Display for KeyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KeyError::ZeroSecret => f.write_str("secret scalar is zero"),
            KeyError::InvalidEncoding => f.write_str("invalid key or signature encoding"),
        }
    }
}

impl std::error::Error for KeyError {}

/// A secret signing key.
#[derive(Clone)]
pub struct SecretKey {
    scalar: Scalar,
}

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("SecretKey(..)")
    }
}

/// A public verification key (compressed curve point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    point: Affine,
}

/// A Schnorr signature `(R, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    r: Affine,
    s: Scalar,
}

/// A secret/public key pair.
#[derive(Debug, Clone)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

impl SecretKey {
    /// Derives a secret key deterministically from a seed (domain-separated
    /// hash, reduced mod n). Deterministic keys keep tests and simulations
    /// reproducible; production deployments should seed from an OS CSPRNG.
    pub fn from_seed(seed: &[u8]) -> Result<Self, KeyError> {
        let digest = sha256_concat(&[b"astro-schnorr-keygen-v1", seed]);
        let scalar = Scalar::from_be_bytes_reduced(&digest);
        if scalar.is_zero() {
            return Err(KeyError::ZeroSecret);
        }
        Ok(SecretKey { scalar })
    }

    /// The corresponding public key.
    pub fn public(&self) -> PublicKey {
        PublicKey { point: crate::point::mul_generator(&self.scalar) }
    }

    /// Static Diffie–Hellman agreement with `peer`: the 32-byte hash of
    /// the shared point `sk·P_peer`.
    ///
    /// Symmetric — `a.agree(B) == b.agree(A)` — and computable only by
    /// the two key holders, so the result serves as a pairwise secret for
    /// deriving MAC link keys (the paper's §III authenticated links)
    /// without any system-wide shared secret.
    ///
    /// The underlying scalar multiplication is not constant-time (this
    /// repo's from-scratch curve arithmetic makes no constant-time claims
    /// anywhere), so callers must keep this off attacker-triggerable hot
    /// paths: derive pairwise keys once at startup and cache them, as
    /// `astro_types::Keychain` does.
    pub fn agree(&self, peer: &PublicKey) -> [u8; 32] {
        // `peer.point` is a valid non-infinity point and `self.scalar` is
        // nonzero mod the (prime) group order, so the product is never
        // the point at infinity.
        let shared = peer.point.mul(&self.scalar);
        sha256_concat(&[b"astro-ecdh-v1", &shared.to_compressed()])
    }

    /// Signs `message` with a deterministic nonce.
    ///
    /// Recomputes the public key (one fixed-base multiplication); callers
    /// holding a [`Keypair`] go through [`Keypair::sign`], which passes the
    /// cached key and pays for only the nonce commitment.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_with_public(&self.public(), message)
    }

    /// Signs `message`, reusing an already-computed public key.
    ///
    /// The nonce commitment `R = k·G` goes through the cached fixed-base
    /// comb table ([`crate::point::mul_generator`]), so with `pk` cached a
    /// signature costs exactly one comb multiplication plus hashing —
    /// signing used to pay a second comb multiplication re-deriving `pk`
    /// on every call.
    pub fn sign_with_public(&self, pk: &PublicKey, message: &[u8]) -> Signature {
        debug_assert_eq!(*pk, self.public(), "public key must match the secret");
        let mut counter: u32 = 0;
        loop {
            let k = derive_nonce(&self.scalar, message, counter);
            counter += 1;
            if k.is_zero() {
                continue;
            }
            let r = crate::point::mul_generator(&k);
            if r.is_infinity() {
                continue;
            }
            let e = challenge(&r, pk, message);
            let s = k.add(&e.mul(&self.scalar));
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }
}

impl PublicKey {
    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        if signature.r.is_infinity() || signature.s.is_zero() {
            return false;
        }
        let e = challenge(&signature.r, self, message);
        // s·G == R + e·P  ⇔  s·G + (−e)·P == R, compared projectively.
        let lhs = multi_scalar_mul(&[(signature.s, Affine::generator()), (e.neg(), self.point)]);
        lhs.eq_affine(&signature.r)
    }

    /// Serializes to the 33-byte compressed form.
    pub fn to_bytes(&self) -> [u8; PUBLIC_KEY_LEN] {
        self.point.to_compressed()
    }

    /// Parses a 33-byte compressed encoding.
    pub fn from_bytes(bytes: &[u8; PUBLIC_KEY_LEN]) -> Result<Self, KeyError> {
        let point = Affine::from_compressed(bytes).ok_or(KeyError::InvalidEncoding)?;
        if point.is_infinity() {
            return Err(KeyError::InvalidEncoding);
        }
        Ok(PublicKey { point })
    }

    /// The underlying curve point.
    pub fn point(&self) -> &Affine {
        &self.point
    }
}

impl Signature {
    /// Serializes to 65 bytes: compressed R then s.
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..COMPRESSED_LEN].copy_from_slice(&self.r.to_compressed());
        out[COMPRESSED_LEN..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a 65-byte encoding.
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Result<Self, KeyError> {
        let r_bytes: [u8; COMPRESSED_LEN] = bytes[..COMPRESSED_LEN].try_into().unwrap();
        let r = Affine::from_compressed(&r_bytes).ok_or(KeyError::InvalidEncoding)?;
        if r.is_infinity() {
            return Err(KeyError::InvalidEncoding);
        }
        let s_bytes: [u8; 32] = bytes[COMPRESSED_LEN..].try_into().unwrap();
        let s = Scalar::from_be_bytes_checked(&s_bytes).ok_or(KeyError::InvalidEncoding)?;
        Ok(Signature { r, s })
    }
}

impl Keypair {
    /// Deterministic key pair from a seed. See [`SecretKey::from_seed`].
    ///
    /// # Panics
    ///
    /// Panics on the (cryptographically negligible) event that the seed
    /// hashes to the zero scalar.
    pub fn from_seed(seed: &[u8]) -> Keypair {
        let secret = SecretKey::from_seed(seed).expect("seed hashed to zero scalar");
        let public = secret.public();
        Keypair { secret, public }
    }

    /// Generates a key pair from 32 random bytes.
    pub fn from_entropy(entropy: [u8; 32]) -> Result<Keypair, KeyError> {
        let secret = SecretKey::from_seed(&entropy)?;
        let public = secret.public();
        Ok(Keypair { secret, public })
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The secret half.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// Signs a message with the cached public key — one fixed-base comb
    /// multiplication per signature. See [`SecretKey::sign_with_public`].
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.secret.sign_with_public(&self.public, message)
    }

    /// Static Diffie–Hellman agreement. See [`SecretKey::agree`].
    pub fn agree(&self, peer: &PublicKey) -> [u8; 32] {
        self.secret.agree(peer)
    }
}

/// Batch verification of many (message, key, signature) triples.
///
/// Uses the standard random-linear-combination check: with weights `zᵢ`,
/// `(Σ zᵢ·sᵢ)·G == Σ zᵢ·Rᵢ + Σ (zᵢ·eᵢ)·Pᵢ`, evaluated as one
/// multi-scalar multiplication with shared doublings — ~5× cheaper per
/// signature than one-by-one verification. Weights are derived by hashing
/// the whole batch (deterministic, so tests and simulations reproduce;
/// a production verifier facing adaptive attackers should use fresh
/// randomness).
///
/// Returns `true` iff the combined check passes; a `false` means at least
/// one signature is invalid (fall back to one-by-one to locate it).
pub fn batch_verify(items: &[(&[u8], PublicKey, Signature)]) -> bool {
    if items.is_empty() {
        return true;
    }
    if items.len() == 1 {
        let (msg, pk, sig) = &items[0];
        return pk.verify(msg, sig);
    }
    // Weight seed binds every signature in the batch.
    let mut h = Sha256::new();
    h.update(b"astro-schnorr-batch-v1");
    for (msg, pk, sig) in items {
        h.update(&pk.to_bytes());
        h.update(&sig.to_bytes());
        h.update(&(msg.len() as u64).to_be_bytes());
        h.update(msg);
    }
    let seed = h.finalize();

    let mut s_combined = Scalar::ZERO;
    let mut terms: Vec<(Scalar, Affine)> = Vec::with_capacity(2 * items.len());
    for (i, (msg, pk, sig)) in items.iter().enumerate() {
        if sig.r.is_infinity() || sig.s.is_zero() {
            return false;
        }
        // 128-bit weights suffice (forgery survives the random linear
        // combination with probability 2⁻¹²⁸) and halve the wNAF digit
        // count of every zᵢ·Rᵢ term in the multi-scalar multiplication.
        let mut z_bytes = [0u8; 32];
        z_bytes[16..].copy_from_slice(
            &sha256_concat(&[b"astro-batch-weight", &seed, &(i as u64).to_be_bytes()])[..16],
        );
        let z = Scalar::from_be_bytes_reduced(&z_bytes);
        let z = if z.is_zero() { Scalar::ONE } else { z };
        let e = challenge(&sig.r, pk, msg);
        s_combined = s_combined.add(&z.mul(&sig.s));
        terms.push((z, sig.r));
        terms.push((z.mul(&e), *pk.point()));
    }
    // (Σ zᵢ sᵢ)·G − Σ zᵢ·Rᵢ − Σ zᵢeᵢ·Pᵢ == ∞
    let mut all_terms = vec![(s_combined, Affine::generator())];
    for (k, p) in terms {
        all_terms.push((k, p.neg()));
    }
    crate::point::multi_scalar_mul(&all_terms).is_infinity()
}

/// Locates the invalid signatures of a batch by bisection: recursively
/// [`batch_verify`]s halves, descending only into failing ones, so a batch
/// with `b` forgeries costs `O(b · log n)` batch checks instead of `n`
/// serial verifications. Returns the (sorted) indices of every invalid
/// item; empty means the whole batch verifies.
///
/// This is the fallback path after a failed [`batch_verify`]: the batch
/// told you *something* is forged, this tells you *what*, and the caller
/// can keep the honest majority of the batch.
pub fn find_invalid(items: &[(&[u8], PublicKey, Signature)]) -> Vec<usize> {
    fn descend(items: &[(&[u8], PublicKey, Signature)], offset: usize, out: &mut Vec<usize>) {
        if items.is_empty() || batch_verify(items) {
            return;
        }
        if items.len() == 1 {
            out.push(offset);
            return;
        }
        let mid = items.len() / 2;
        descend(&items[..mid], offset, out);
        descend(&items[mid..], offset + mid, out);
    }
    let mut out = Vec::new();
    descend(items, 0, &mut out);
    out
}

/// RFC-6979-style deterministic nonce: `H(sk ‖ H(m) ‖ ctr)` widened to 512
/// bits and reduced mod n to avoid modular bias.
fn derive_nonce(secret: &Scalar, message: &[u8], counter: u32) -> Scalar {
    let m_digest = crate::sha256::sha256(message);
    let mut h1 = Sha256::new();
    h1.update(b"astro-schnorr-nonce-v1/1");
    h1.update(&secret.to_be_bytes());
    h1.update(&m_digest);
    h1.update(&counter.to_be_bytes());
    let d1 = h1.finalize();
    let mut h2 = Sha256::new();
    h2.update(b"astro-schnorr-nonce-v1/2");
    h2.update(&secret.to_be_bytes());
    h2.update(&m_digest);
    h2.update(&counter.to_be_bytes());
    let d2 = h2.finalize();
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&d1);
    wide[32..].copy_from_slice(&d2);
    Scalar::from_wide_be_bytes(&wide)
}

/// The Fiat–Shamir challenge `e = H(R ‖ P ‖ m)` reduced mod n.
fn challenge(r: &Affine, pk: &PublicKey, message: &[u8]) -> Scalar {
    let digest = sha256_concat(&[
        b"astro-schnorr-challenge-v1",
        &r.to_compressed(),
        &pk.to_bytes(),
        message,
    ]);
    Scalar::from_be_bytes_reduced(&digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = Keypair::from_seed(b"test-key-1");
        let sig = kp.sign(b"hello astro");
        assert!(kp.public().verify(b"hello astro", &sig));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn signature_and_agreement_bytes_are_pinned() {
        // Fixed outputs of the curve kernel: a change to field, point or
        // scalar arithmetic must leave every key, signature and shared
        // secret byte-identical.
        let kp = Keypair::from_seed(b"pinned signing key");
        assert_eq!(
            hex(&kp.public().to_bytes()),
            "027c9c39254a2c81c8bcf9cd6e3387ab7d4cfa88c68cfbffc63773c0f70616e3d1"
        );
        let sig = kp.sign(b"ACK (alice, 3)");
        assert_eq!(
            hex(&sig.to_bytes()),
            "026f3d0a6c9a11a5d207713234a774cc58593ba057e2f5028db8f1fb1541581c\
             de14ca39a3358e51f14ebe043361c4353e9edfc6525ba7d4757703b8a6e9570bd6"
        );
        assert!(kp.public().verify(b"ACK (alice, 3)", &sig));
        let peer = Keypair::from_seed(b"peer");
        assert_eq!(
            hex(&kp.agree(peer.public())),
            "fe2e81db733a7dec72019cf01b47151428a08b5dcc3647b8089c992a0aac5df7"
        );
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = Keypair::from_seed(b"test-key-2");
        let sig = kp.sign(b"original");
        assert!(!kp.public().verify(b"tampered", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = Keypair::from_seed(b"key-a");
        let kp2 = Keypair::from_seed(b"key-b");
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public().verify(b"msg", &sig));
    }

    #[test]
    fn signature_serialization_round_trip() {
        let kp = Keypair::from_seed(b"serialize");
        let sig = kp.sign(b"round trip");
        let bytes = sig.to_bytes();
        let back = Signature::from_bytes(&bytes).expect("decodes");
        assert_eq!(sig, back);
        assert!(kp.public().verify(b"round trip", &back));
    }

    #[test]
    fn public_key_serialization_round_trip() {
        let kp = Keypair::from_seed(b"pk-bytes");
        let bytes = kp.public().to_bytes();
        let back = PublicKey::from_bytes(&bytes).expect("decodes");
        assert_eq!(*kp.public(), back);
    }

    #[test]
    fn tampered_signature_bytes_rejected_or_invalid() {
        let kp = Keypair::from_seed(b"tamper");
        let sig = kp.sign(b"msg");
        let mut bytes = sig.to_bytes();
        bytes[40] ^= 0x01; // flip a bit in s
                           // Failing to decode is also acceptable.
        if let Ok(bad) = Signature::from_bytes(&bytes) {
            assert!(!kp.public().verify(b"msg", &bad));
        }
    }

    #[test]
    fn deterministic_signing() {
        let kp = Keypair::from_seed(b"determinism");
        assert_eq!(kp.sign(b"same msg"), kp.sign(b"same msg"));
    }

    #[test]
    fn different_messages_different_signatures() {
        let kp = Keypair::from_seed(b"distinct");
        assert_ne!(kp.sign(b"m1"), kp.sign(b"m2"));
    }

    #[test]
    fn signature_is_not_malleable_to_other_message() {
        // A signature over m must not verify any other (R, s) pairing.
        let kp = Keypair::from_seed(b"malleability");
        let sig1 = kp.sign(b"m1");
        let sig2 = kp.sign(b"m2");
        let franken = Signature { r: sig1.r, s: sig2.s };
        assert!(!kp.public().verify(b"m1", &franken));
        assert!(!kp.public().verify(b"m2", &franken));
    }

    #[test]
    fn batch_verify_accepts_valid_batches() {
        let items: Vec<(Vec<u8>, PublicKey, Signature)> = (0..5u8)
            .map(|i| {
                let kp = Keypair::from_seed(&[i, 1, 2]);
                let msg = vec![i; 10];
                let sig = kp.sign(&msg);
                (msg, *kp.public(), sig)
            })
            .collect();
        let borrowed: Vec<(&[u8], PublicKey, Signature)> =
            items.iter().map(|(m, p, s)| (m.as_slice(), *p, *s)).collect();
        assert!(batch_verify(&borrowed));
    }

    #[test]
    fn batch_verify_rejects_one_bad_signature() {
        let mut items: Vec<(Vec<u8>, PublicKey, Signature)> = (0..5u8)
            .map(|i| {
                let kp = Keypair::from_seed(&[i, 9]);
                let msg = vec![i; 10];
                let sig = kp.sign(&msg);
                (msg, *kp.public(), sig)
            })
            .collect();
        // Corrupt one message so its signature no longer matches.
        items[3].0.push(0xff);
        let borrowed: Vec<(&[u8], PublicKey, Signature)> =
            items.iter().map(|(m, p, s)| (m.as_slice(), *p, *s)).collect();
        assert!(!batch_verify(&borrowed));
    }

    #[test]
    fn batch_verify_empty_and_singleton() {
        assert!(batch_verify(&[]));
        let kp = Keypair::from_seed(b"single");
        let sig = kp.sign(b"m");
        assert!(batch_verify(&[(b"m".as_slice(), *kp.public(), sig)]));
        let bad = kp.sign(b"other");
        assert!(!batch_verify(&[(b"m".as_slice(), *kp.public(), bad)]));
    }

    fn batch_of(n: u8, tag: u8) -> Vec<(Vec<u8>, PublicKey, Signature)> {
        (0..n)
            .map(|i| {
                let kp = Keypair::from_seed(&[i, tag]);
                let msg = vec![i; 12];
                let sig = kp.sign(&msg);
                (msg, *kp.public(), sig)
            })
            .collect()
    }

    fn borrow(items: &[(Vec<u8>, PublicKey, Signature)]) -> Vec<(&[u8], PublicKey, Signature)> {
        items.iter().map(|(m, p, s)| (m.as_slice(), *p, *s)).collect()
    }

    #[test]
    fn find_invalid_pinpoints_the_single_forgery() {
        let mut items = batch_of(9, 77);
        // Swap signature 5 for one over a different message: the batch
        // fails and bisection must name exactly index 5.
        let kp = Keypair::from_seed(&[5, 77]);
        items[5].2 = kp.sign(b"some other message");
        let borrowed = borrow(&items);
        assert!(!batch_verify(&borrowed));
        assert_eq!(find_invalid(&borrowed), vec![5]);
    }

    #[test]
    fn find_invalid_reports_every_forgery_and_nothing_else() {
        let mut items = batch_of(12, 78);
        let outsider = Keypair::from_seed(b"not in the batch");
        items[0].2 = outsider.sign(&items[0].0);
        items[7].2 = outsider.sign(&items[7].0);
        items[11].2 = outsider.sign(&items[11].0);
        assert_eq!(find_invalid(&borrow(&items)), vec![0, 7, 11]);
    }

    #[test]
    fn find_invalid_is_empty_for_a_clean_batch() {
        let items = batch_of(6, 79);
        assert!(find_invalid(&borrow(&items)).is_empty());
        assert!(find_invalid(&[]).is_empty());
    }

    #[test]
    fn agreement_is_symmetric() {
        let a = Keypair::from_seed(b"dh-a");
        let b = Keypair::from_seed(b"dh-b");
        assert_eq!(a.agree(b.public()), b.agree(a.public()));
    }

    #[test]
    fn agreement_excludes_third_parties() {
        let a = Keypair::from_seed(b"dh-a");
        let b = Keypair::from_seed(b"dh-b");
        let c = Keypair::from_seed(b"dh-c");
        let ab = a.agree(b.public());
        // c knows both public keys but neither secret: everything it can
        // derive differs from the (a, b) shared secret.
        assert_ne!(c.agree(a.public()), ab);
        assert_ne!(c.agree(b.public()), ab);
    }

    #[test]
    fn from_entropy_rejects_nothing_reasonable() {
        let kp = Keypair::from_entropy([42u8; 32]).expect("valid entropy");
        let sig = kp.sign(b"x");
        assert!(kp.public().verify(b"x", &sig));
    }
}
