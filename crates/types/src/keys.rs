//! Key distribution: the permissioned-system key book.
//!
//! The paper assumes "replica key-pairs are distributed in advance among all
//! replicas, which makes Astro a permissioned payment system" (§III).
//! [`KeyBook`] is that public registry; [`Keychain`] is one replica's view —
//! its own key pair plus everybody's public keys. The pairwise MAC channel
//! keys used by Astro I are derived at construction by static
//! Diffie–Hellman between a keychain's secret key and each peer's
//! registered public key ([`Keychain::mac_with`]), so each link key is
//! computable by exactly its two endpoints — a Byzantine replica holds no
//! other pair's key material.

use crate::ids::ReplicaId;
use astro_crypto::schnorr::PreparedKey;
use astro_crypto::{Keypair, MacKey, PublicKey, Signature};
use std::sync::Arc;

/// Public registry of replica verification keys.
///
/// Each key is a [`PreparedKey`]: its 7-bit wNAF table is built on the
/// key's first verification (never at construction, so building a book
/// or a cluster does no curve work) and is shared by every clone of the
/// book — the replicas' keychains and a runtime verify pool built from
/// one book pay for each table once.
#[derive(Debug, Clone)]
pub struct KeyBook {
    replicas: Arc<[PreparedKey]>,
}

impl KeyBook {
    /// Builds a key book from the replicas' public keys, indexed by
    /// [`ReplicaId`] order.
    pub fn new(replicas: Vec<PublicKey>) -> Self {
        KeyBook { replicas: replicas.into_iter().map(PreparedKey::new).collect() }
    }

    /// Deterministic book for tests/simulation: replica `i` gets the key
    /// pair seeded by `(seed, i)`.
    pub fn deterministic(seed: &[u8], n: usize) -> (Self, Vec<Keypair>) {
        let keypairs: Vec<Keypair> = (0..n)
            .map(|i| {
                let mut s = seed.to_vec();
                s.extend_from_slice(&(i as u64).to_be_bytes());
                Keypair::from_seed(&s)
            })
            .collect();
        let book = KeyBook::new(keypairs.iter().map(|kp| *kp.public()).collect());
        (book, keypairs)
    }

    /// Number of registered replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True if no replicas are registered.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The public key of `replica`, or `None` if unknown.
    pub fn key_of(&self, replica: ReplicaId) -> Option<&PublicKey> {
        self.prepared_of(replica).map(PreparedKey::public)
    }

    /// The key of `replica` with its kept verification table, or `None`
    /// if unknown. Batch checks take these
    /// ([`astro_crypto::schnorr::batch_verify_prepared`]).
    pub fn prepared_of(&self, replica: ReplicaId) -> Option<&PreparedKey> {
        self.replicas.get(replica.0 as usize)
    }

    /// Verifies `signature` over `message` against `replica`'s key.
    /// Unknown replicas verify as `false`.
    pub fn verify(&self, replica: ReplicaId, message: &[u8], signature: &Signature) -> bool {
        self.prepared_of(replica).is_some_and(|pk| pk.verify(message, signature))
    }
}

/// One replica's complete key material.
#[derive(Debug, Clone)]
pub struct Keychain {
    id: ReplicaId,
    keypair: Keypair,
    book: KeyBook,
    /// Pairwise link keys, indexed by peer id. Computed once here so the
    /// per-connection handshake costs only HMACs — an unauthenticated
    /// dialer must not be able to trigger scalar multiplications at will
    /// (asymmetric-cost DoS), and the long-lived secret goes through the
    /// scalar-multiplication path a bounded number of times at startup.
    link_keys: Vec<MacKey>,
}

impl Keychain {
    /// Assembles a keychain for `id`, deriving the pairwise link keys for
    /// every replica in `book` (one static Diffie–Hellman agreement each).
    pub fn new(id: ReplicaId, keypair: Keypair, book: KeyBook) -> Self {
        let link_keys = (0..book.len())
            .map(|i| {
                let pk = book.key_of(ReplicaId(i as u32)).expect("index within book");
                let shared = keypair.secret().agree(pk);
                MacKey::derive(&shared, u64::from(id.0), i as u64)
            })
            .collect();
        Keychain { id, keypair, book, link_keys }
    }

    /// Deterministic keychains for a whole `n`-replica system (tests and
    /// simulation).
    pub fn deterministic_system(seed: &[u8], n: usize) -> Vec<Keychain> {
        let (book, keypairs) = KeyBook::deterministic(seed, n);
        keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| Keychain::new(ReplicaId(i as u32), kp, book.clone()))
            .collect()
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The shared public registry.
    pub fn book(&self) -> &KeyBook {
        &self.book
    }

    /// This replica's public key.
    pub fn public(&self) -> &PublicKey {
        self.keypair.public()
    }

    /// Signs `message` with this replica's secret key.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.keypair.sign(message)
    }

    /// Verifies a peer replica's signature.
    pub fn verify(&self, peer: ReplicaId, message: &[u8], signature: &Signature) -> bool {
        self.book.verify(peer, message, signature)
    }

    /// The MAC key for the authenticated link between this replica and
    /// `peer` (Astro I channels, §III).
    ///
    /// Derived (once, at construction) by static Diffie–Hellman between
    /// this replica's secret key and `peer`'s registered public key, then
    /// bound to the pair of replica ids. Both endpoints compute the same
    /// key; nobody else can — in particular, a Byzantine replica cannot
    /// forge traffic on links it is not an endpoint of.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not in the key book. Membership is fixed in a
    /// permissioned system, so an unknown id here is a caller bug —
    /// network-supplied ids are vetted against the book before any key is
    /// used (see `astro-net`'s `verify_hello`).
    pub fn mac_with(&self, peer: ReplicaId) -> MacKey {
        self.link_keys.get(peer.0 as usize).expect("peer replica not in key book").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_book_is_reproducible() {
        let (book1, _) = KeyBook::deterministic(b"seed", 4);
        let (book2, _) = KeyBook::deterministic(b"seed", 4);
        for i in 0..4 {
            assert_eq!(book1.key_of(ReplicaId(i)), book2.key_of(ReplicaId(i)));
        }
    }

    #[test]
    fn sign_verify_through_book() {
        let chains = Keychain::deterministic_system(b"sys", 4);
        let sig = chains[2].sign(b"hello");
        assert!(chains[0].verify(ReplicaId(2), b"hello", &sig));
        assert!(!chains[0].verify(ReplicaId(1), b"hello", &sig));
        assert!(!chains[0].verify(ReplicaId(2), b"other", &sig));
    }

    #[test]
    fn tables_are_built_on_first_verify_and_shared_by_clones() {
        let (book, keypairs) = KeyBook::deterministic(b"lazy-tables", 4);
        let clone = book.clone();
        let has_table = |i: u32| book.prepared_of(ReplicaId(i)).unwrap().has_table();
        assert!((0..4).all(|i| !has_table(i)), "construction builds no table");
        assert!(clone.verify(ReplicaId(2), b"m", &keypairs[2].sign(b"m")));
        assert_eq!((0..4).map(has_table).collect::<Vec<_>>(), [false, false, true, false]);
    }

    #[test]
    fn table_backed_verification_matches_the_raw_key() {
        let (book, keypairs) = KeyBook::deterministic(b"book-oracle", 4);
        let outsider = Keypair::from_seed(b"not in the book");
        for (m, message) in [b"ack 1".as_slice(), b"credit 2", b""].into_iter().enumerate() {
            for (s, signer) in keypairs.iter().chain([&outsider]).enumerate() {
                let sig = signer.sign(message);
                let forged = signer.sign(b"another message");
                // Every claimed signer, including ids outside the book.
                for claimed in 0..6u32 {
                    let raw = |sig| {
                        book.key_of(ReplicaId(claimed)).is_some_and(|pk| pk.verify(message, sig))
                    };
                    for sig in [&sig, &forged] {
                        assert_eq!(
                            book.verify(ReplicaId(claimed), message, sig),
                            raw(sig),
                            "message {m}, signer {s}, claimed {claimed}"
                        );
                    }
                    let genuine = s as u32 == claimed && s < 4;
                    assert_eq!(book.verify(ReplicaId(claimed), message, &sig), genuine);
                }
            }
        }
    }

    #[test]
    fn unknown_replica_fails_verification() {
        let chains = Keychain::deterministic_system(b"sys", 4);
        let sig = chains[0].sign(b"m");
        assert!(!chains[1].verify(ReplicaId(99), b"m", &sig));
    }

    #[test]
    fn mac_channels_agree_between_endpoints() {
        let chains = Keychain::deterministic_system(b"sys", 4);
        let k01 = chains[0].mac_with(ReplicaId(1));
        let k10 = chains[1].mac_with(ReplicaId(0));
        assert_eq!(k01.tag(b"x"), k10.tag(b"x"));
        let k02 = chains[0].mac_with(ReplicaId(2));
        assert_ne!(k01.tag(b"x"), k02.tag(b"x"));
    }

    #[test]
    fn third_replica_cannot_compute_a_link_key() {
        // The review scenario: Byzantine replica 2 holds the full public
        // book and its own keypair, and tries to impersonate replica 0 on
        // the (0, 1) link. Without replica 0's (or 1's) secret key the DH
        // shared secret — and hence the link key — is out of reach.
        let chains = Keychain::deterministic_system(b"sys", 4);
        let k01 = chains[0].mac_with(ReplicaId(1));
        let (book, keypairs) = KeyBook::deterministic(b"sys", 4);
        let masquerade = Keychain::new(ReplicaId(0), keypairs[2].clone(), book);
        assert_ne!(masquerade.mac_with(ReplicaId(1)).tag(b"x"), k01.tag(b"x"));
    }

    #[test]
    #[should_panic(expected = "peer replica not in key book")]
    fn mac_with_unknown_peer_panics() {
        let chains = Keychain::deterministic_system(b"sys", 4);
        let _ = chains[0].mac_with(ReplicaId(99));
    }
}
