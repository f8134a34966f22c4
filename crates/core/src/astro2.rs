//! The Astro II replica: payments over signature-based BRB with the
//! CREDIT / dependency-certificate mechanism and asynchronous sharding
//! (paper §IV-A, §V, Listings 6–10).
//!
//! Astro II's broadcast lacks totality, so beneficiaries are **not**
//! credited directly at settlement. Instead, each replica that settles a
//! payment unicasts a signed CREDIT to the beneficiary's representative;
//! `f+1` matching CREDITs form a *dependency certificate* — unequivocal,
//! transferable proof of incoming funds — which the representative attaches
//! to the beneficiary's next outgoing payment (Listing 7). Settlement then
//! materializes the certificates into balance (Listing 9). Because the
//! certificate is verifiable against the settling shard's keys, the exact
//! same single message step implements cross-shard payments (§V): no 2PC,
//! no coordination on the critical path.

use crate::batch::{
    credit_context, verify_certificate, CreditBundle, DepBatch, DepPayment, DependencyCertificate,
};
use crate::journal::{Astro2Snapshot, Astro2State, JournalSlot, WalRecord};
use crate::ledger::{Ledger, SettleOutcome};
use crate::pending::PendingQueue;
use crate::reconfig::{ReconfigMsg, SyncError};
use crate::replica::{Parts, Protocol, Replica};
use crate::{ReplicaStep, SubmitError};
use astro_brb::signed::{SignedBrb, SignedMsg};
use astro_brb::{BrbConfig, DeliveryOrder, Dest, Envelope, InstanceId};
use astro_types::wire::{decode_exact, Wire, WireError};
use astro_types::{
    Amount, Authenticator, ClientId, Group, Payment, PaymentId, ReplicaId, SeqNo, ShardId,
    ShardLayout,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// How beneficiaries receive funds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CreditMode {
    /// All credits flow through CREDIT messages and dependency
    /// certificates (Listings 7–10). Safe against the partial-payments
    /// attack even for intra-shard payments; the paper's full mechanism.
    #[default]
    Certificates,
    /// Intra-shard beneficiaries are credited directly at settlement (the
    /// lightweight path the paper's Table I discussion mentions);
    /// insufficient funds queue as in Astro I. Cross-shard payments still
    /// use certificates. Consistent for correct broadcasters; exposed for
    /// the ablation benchmark.
    DirectIntraShard,
}

/// When a representative attaches held certificates to an outgoing
/// payment (Listing 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DepPolicy {
    /// Attach only when the spender's settled balance (minus amounts
    /// already committed to in-flight payments) cannot cover the payment.
    /// Avoids certificate-verification work entirely while clients are
    /// well funded — the situation in all of the paper's benchmarks
    /// (§VI-B: "clients have enough balance").
    #[default]
    WhenNeeded,
    /// Attach all accumulated certificates to every payment (the literal
    /// Listing 7). Kept for the ablation benchmark.
    Always,
}

/// Configuration of an Astro II replica.
#[derive(Debug, Clone)]
pub struct Astro2Config {
    /// Payments per broadcast batch (flushed automatically when full).
    pub batch_size: usize,
    /// Genesis balance of every client (held in the client's own shard).
    pub initial_balance: Amount,
    /// Credit propagation mode.
    pub credit_mode: CreditMode,
    /// Certificate attachment policy.
    pub dep_policy: DepPolicy,
}

impl Default for Astro2Config {
    fn default() -> Self {
        Astro2Config {
            batch_size: 256,
            initial_balance: Amount(1_000_000),
            credit_mode: CreditMode::Certificates,
            dep_policy: DepPolicy::WhenNeeded,
        }
    }
}

/// Wire messages exchanged between Astro II replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Astro2Msg<S> {
    /// Broadcast-layer traffic within a shard.
    Brb(SignedMsg<DepBatch<S>, S>),
    /// A CREDIT sub-batch, unicast to a beneficiary representative
    /// (possibly across shards).
    Credit(CreditBundle<S>),
    /// Reconfiguration / catch-up traffic within a shard (Appendix A).
    Sync(ReconfigMsg<S>),
    /// The destination representative's acknowledgment that the CREDIT
    /// sub-batches with these [`credit_context`] digests have been
    /// certified (or were already certified — acks are idempotent). The
    /// settling replica discharges the matching retry-outbox entries.
    /// Acks accumulate per destination and ride the representative's
    /// flush tick as one message, so ack traffic scales with flush
    /// intervals rather than with sub-batch count.
    ///
    /// Unsigned: an ack is unicast, consumed only by the settling replica
    /// it is addressed to, and never relayed, so the authenticated link
    /// (paper §III) vouches for its sender — like `Sync` and
    /// `CreditRequest`. Only ACK and CREDIT signatures need to convince a
    /// third party.
    CreditAck {
        /// The acked sub-batch digests.
        digests: Vec<[u8; 32]>,
    },
    /// A restarted (or caught-up) representative asks a settling replica
    /// to replay CREDITs its certificate store may be missing: the donor
    /// immediately retransmits its unacked outbox entries for the
    /// requester and regenerates signed singleton sub-batches for every
    /// settled-but-unmaterialized payment crediting a client the
    /// requester represents. Re-delivery is replay-protected by
    /// `usedDeps` at materialization, so over-replay is harmless.
    CreditRequest {
        /// The requester's settled-payment watermark (donors behind it
        /// skip regeneration — their view of settled history is stale).
        since: u64,
    },
}

impl<S: Wire> Wire for Astro2Msg<S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Astro2Msg::Brb(m) => {
                buf.push(0);
                m.encode(buf);
            }
            Astro2Msg::Credit(c) => {
                buf.push(1);
                c.encode(buf);
            }
            Astro2Msg::Sync(m) => {
                buf.push(2);
                m.encode(buf);
            }
            Astro2Msg::CreditAck { digests } => {
                buf.push(3);
                digests.encode(buf);
            }
            Astro2Msg::CreditRequest { since } => {
                buf.push(4);
                since.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(Astro2Msg::Brb(Wire::decode(buf)?)),
            1 => Ok(Astro2Msg::Credit(Wire::decode(buf)?)),
            2 => Ok(Astro2Msg::Sync(Wire::decode(buf)?)),
            3 => Ok(Astro2Msg::CreditAck { digests: Wire::decode(buf)? }),
            4 => Ok(Astro2Msg::CreditRequest { since: Wire::decode(buf)? }),
            _ => Err(WireError::InvalidValue("astro2 message tag")),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Astro2Msg::Brb(m) => m.encoded_len(),
            Astro2Msg::Credit(c) => c.encoded_len(),
            Astro2Msg::Sync(m) => m.encoded_len(),
            Astro2Msg::CreditAck { digests } => digests.encoded_len(),
            Astro2Msg::CreditRequest { since } => since.encoded_len(),
        }
    }
}

/// Enumerates the Schnorr signature checks the runtime verify pool runs
/// ahead of the state machine for `msg` — the signatures every receiving
/// replica must check.
///
/// The pool pre-verifies these off the replica thread into the shared
/// [`astro_types::VerdictCache`]; by the time the state machine reaches
/// its [`astro_types::count_valid_signers`] calls, the verdicts are cache
/// hits and the event loop never blocks on curve arithmetic. Enumerating
/// is sound because verification is a pure function of `(signer, context,
/// signature)`: the list only decides *where* a check runs, never what it
/// decides.
///
/// - `Commit` — the `2f+1` quorum proof over the ack context, plus the
///   attached dependency certificates (checked at settlement).
/// - `Prepare` — the attached dependency certificates again: they will be
///   checked when the instance *commits*, so pre-verifying at PREPARE
///   hides the certificate work behind the ACK round-trip.
///
/// ACK and CREDIT signatures are left to the state machine, which checks
/// them only while they can still count: [`SignedBrb`] drops duplicate
/// and post-commit ACKs unread and batch-verifies the pending ones once a
/// quorum is possible, and a representative acks a CREDIT for an
/// already-covered bundle without verifying it. At `n = 4` the last ACK
/// and most remote CREDITs arrive after their quorum is complete, so
/// pre-verifying them would be curve work nobody consumes. The verdicts
/// the state machine does compute land in the same cache, so the COMMIT
/// proofs and certificates built from them are hits wherever they are
/// checked again in this process.
///
/// The link-authenticated sender is unused: every check left names its
/// signer inside the message.
pub fn sig_checks(
    _from: ReplicaId,
    msg: &Astro2Msg<astro_crypto::Signature>,
) -> Vec<astro_types::SigCheck> {
    use astro_brb::payload_digest;
    use astro_brb::signed::ack_context;
    use astro_types::SigCheck;

    let mut out = Vec::new();
    let push_certs = |out: &mut Vec<SigCheck>, batch: &DepBatch<astro_crypto::Signature>| {
        for entry in &batch.entries {
            for cert in &entry.deps {
                if cert.bundle.is_empty() {
                    continue;
                }
                // One shared context per certificate; every proof entry
                // takes a refcount bump, not a buffer clone.
                let context: std::sync::Arc<[u8]> = credit_context(&cert.bundle).into();
                for (signer, sig) in &cert.proofs {
                    out.push(SigCheck {
                        signer: *signer,
                        context: std::sync::Arc::clone(&context),
                        sig: *sig,
                    });
                }
            }
        }
    };
    match msg {
        Astro2Msg::Brb(SignedMsg::Prepare { payload, .. }) => push_certs(&mut out, payload),
        Astro2Msg::Brb(SignedMsg::Commit { id, payload, proof }) => {
            let context: std::sync::Arc<[u8]> =
                ack_context(*id, &payload_digest(*id, payload)).into();
            for (signer, sig) in proof {
                out.push(SigCheck {
                    signer: *signer,
                    context: std::sync::Arc::clone(&context),
                    sig: *sig,
                });
            }
            push_certs(&mut out, payload);
        }
        // ACKs and CREDITs verify lazily in the state machine (see
        // above). Catch-up traffic certifies by f+1 matching digests over
        // the authenticated links. A CreditRequest carries no signature:
        // over-replay it could induce is already harmless. A CreditAck
        // counts only from the destination the link authenticates.
        Astro2Msg::Brb(SignedMsg::Ack { .. })
        | Astro2Msg::Credit(_)
        | Astro2Msg::Sync(_)
        | Astro2Msg::CreditRequest { .. }
        | Astro2Msg::CreditAck { .. } => {}
    }
    out
}

/// CREDIT proofs gathered for one sub-batch (Listing 10's `partialDeps`).
#[derive(Debug)]
pub(crate) struct PartialBundle<S> {
    bundle: Vec<Payment>,
    proofs: HashMap<ReplicaId, S>,
    certified: bool,
}

/// Flush ticks before the first retransmission of an unacked CREDIT.
/// Lazy on purpose: in the healthy path the destination's ack beats the
/// timer (its round trip is link latency plus the destination's queue,
/// both well under 16 flush intervals even at saturation), so the timer
/// only fires when the CREDIT or its ack was actually lost. An eager
/// timer is not harmless — every spurious retransmit charges the
/// destination another signature verification, deepening the very queue
/// that is delaying its acks.
const OUTBOX_BASE_TICKS: u32 = 64;
/// Retransmission backoff cap, in flush ticks. A representative
/// returning from a long outage does not wait for this timer — its
/// catch-up `CreditRequest` makes donors replay immediately.
const OUTBOX_MAX_TICKS: u32 = 256;

/// One unacked CREDIT sub-batch in the retry outbox, keyed by its
/// [`credit_context`] digest. Retained until the destination
/// representative returns a [`Astro2Msg::CreditAck`] for the digest;
/// retransmitted on the flush timer with capped exponential backoff.
#[derive(Debug)]
pub(crate) struct OutboxEntry<S> {
    /// The beneficiary representative the bundle is addressed to.
    dest: ReplicaId,
    /// The settled payments of the sub-batch.
    bundle: Vec<Payment>,
    /// This replica's signature over the bundle's [`credit_context`].
    sig: S,
    /// Flush ticks until the next retransmission.
    ticks: u32,
    /// Current backoff (doubles per retransmission, capped).
    backoff: u32,
}

impl<S: Clone> OutboxEntry<S> {
    /// The CREDIT message (re)sent to the entry's destination.
    fn transmission(&self) -> Envelope<Astro2Msg<S>> {
        Envelope {
            to: Dest::One(self.dest),
            msg: Astro2Msg::Credit(CreditBundle {
                bundle: self.bundle.clone(),
                sig: self.sig.clone(),
            }),
        }
    }
}

/// Certificates a replica keeps verified per process lifetime.
const CERT_CACHE_CAP: usize = 4096;

/// A bounded cache of *verified* dependency-certificate digests.
///
/// A certificate referenced by many dependent payments (a hub client's
/// incoming funds, a cert re-attached after a queue/cascade) used to be
/// re-verified — `f+1` signature checks — on every settle attempt. The
/// cache keys on the digest of the certificate's full wire encoding
/// (bundle *and* proofs), so any bit of a forged variant misses; only
/// certificates whose signatures actually verified are ever admitted.
/// FIFO eviction bounds memory.
#[derive(Debug)]
pub struct CertCache {
    verified: HashSet<[u8; 32]>,
    order: std::collections::VecDeque<[u8; 32]>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl CertCache {
    /// Creates a cache holding at most `cap` digests.
    pub fn new(cap: usize) -> Self {
        CertCache {
            verified: HashSet::new(),
            order: std::collections::VecDeque::new(),
            cap,
            hits: 0,
            misses: 0,
        }
    }

    /// Lookups that skipped re-verification.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to full signature verification.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// True if `digest` names a certificate that already verified.
    pub fn contains(&self, digest: &[u8; 32]) -> bool {
        self.verified.contains(digest)
    }

    /// Records a certificate that passed full signature verification.
    pub fn admit(&mut self, digest: [u8; 32]) {
        if self.verified.insert(digest) {
            self.order.push_back(digest);
            if self.order.len() > self.cap {
                if let Some(evicted) = self.order.pop_front() {
                    self.verified.remove(&evicted);
                }
            }
        }
    }

    /// Number of digests currently cached.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// True when nothing has been admitted.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }
}

/// Content digest of a certificate (bundle and proofs).
fn cert_digest<S: Wire>(cert: &DependencyCertificate<S>) -> [u8; 32] {
    let mut h = astro_crypto::sha256::Sha256::new();
    h.update(b"astro-cert-digest-v1");
    h.update(&cert.to_wire_bytes());
    h.finalize()
}

/// Astro II's protocol-specific part of a [`Replica`]: certificate
/// verification across shards, the CREDIT retry outbox, and the
/// representative's certificate store.
#[derive(Debug)]
pub struct AstroTwo<A: Authenticator> {
    my_shard: ShardId,
    /// Group per shard id (certificate verification needs every shard).
    groups: Vec<Group>,
    auth: A,
    /// Credits already materialized (replay protection, Listing 9's
    /// `usedDeps` — payment ids are globally unique so one set suffices).
    used_deps: HashSet<PaymentId>,
    /// Digests of certificates already verified (one verification per
    /// certificate per replica, not per settle attempt).
    cert_cache: CertCache,
    /// Clients whose xlog is permanently stuck (a payment was dropped for
    /// insufficient funds in certificate mode — Listing 9's early return).
    stuck: HashSet<ClientId>,
    /// Representative state: certificates awaiting the client's next
    /// outgoing payment (Listing 7's `deps`).
    pub(crate) rep_deps: HashMap<ClientId, Vec<DependencyCertificate<A::Sig>>>,
    /// Representative state: proofs gathered per sub-batch digest.
    pub(crate) partial: HashMap<[u8; 32], PartialBundle<A::Sig>>,
    /// Settling-replica state: CREDIT sub-batches awaiting their
    /// destination representative's ack, keyed by [`credit_context`]
    /// digest (a `BTreeMap` for deterministic retransmission order).
    pub(crate) outbox: BTreeMap<[u8; 32], OutboxEntry<A::Sig>>,
    /// Representative state: sub-batch digests owed to each settling
    /// replica as acknowledgments, batched per destination and emitted
    /// as one [`Astro2Msg::CreditAck`] on the next flush tick
    /// (a `BTreeMap` for deterministic emission order).
    pending_acks: BTreeMap<ReplicaId, Vec<[u8; 32]>>,
    mode: CreditMode,
    dep_policy: DepPolicy,
    /// Representative state: funds already promised to in-flight payments
    /// (submitted, not yet observed settled), per client.
    reserved: HashMap<ClientId, u64>,
    /// Representative state: the next sequence number each represented
    /// client may submit. Broadcast delivery is unordered, so if two
    /// conflicting payments at one seq both reached broadcast, replicas
    /// could settle different winners — the gate keeps each xlog's stream
    /// conflict-free at its single entry point. In-memory only: after a
    /// restart the ledger's `next_seq` is the correct floor.
    submitted_seq: HashMap<ClientId, SeqNo>,
    /// Certificate consumptions awaiting the flush that makes their
    /// carrying payments durable (see [`WalRecord::CertsTaken`]).
    pending_cert_takes: Vec<(ClientId, Vec<[u8; 32]>)>,
}

/// One Astro II replica.
pub type AstroTwoReplica<A> = Replica<AstroTwo<A>>;

impl<A: Authenticator> Protocol for AstroTwo<A> {
    type Key = A;
    type Config = Astro2Config;
    type Sig = A::Sig;
    type Msg = Astro2Msg<A::Sig>;
    type Brb = SignedBrb<DepBatch<A::Sig>, A>;
    type Entry = DepPayment<A::Sig>;
    type Deps = Vec<DependencyCertificate<A::Sig>>;
    type State = Astro2State;
    type Snapshot = Astro2Snapshot;

    /// Creates replica `auth.me()`; its broadcast group is its shard. Every
    /// shard must have at least 4 replicas.
    fn init(auth: A, layout: &ShardLayout, cfg: Astro2Config) -> Parts<Self> {
        let me = auth.me();
        let my_shard =
            layout.shard_of_replica(me).unwrap_or_else(|| panic!("replica {me} not in layout"));
        let groups: Vec<Group> =
            layout.shards().iter().map(|s| Group::from_spec(s).expect("shard too small")).collect();
        let group = groups[my_shard.0 as usize].clone();
        let brb = SignedBrb::new(
            auth.clone(),
            group.clone(),
            BrbConfig { order: DeliveryOrder::Unordered, bind_source: true },
        );
        Parts {
            me,
            group,
            brb,
            protocol: AstroTwo {
                my_shard,
                groups,
                auth,
                used_deps: HashSet::new(),
                cert_cache: CertCache::new(CERT_CACHE_CAP),
                stuck: HashSet::new(),
                rep_deps: HashMap::new(),
                partial: HashMap::new(),
                outbox: BTreeMap::new(),
                pending_acks: BTreeMap::new(),
                mode: cfg.credit_mode,
                dep_policy: cfg.dep_policy,
                reserved: HashMap::new(),
                submitted_seq: HashMap::new(),
                pending_cert_takes: Vec::new(),
            },
            batch_size: cfg.batch_size,
            initial_balance: cfg.initial_balance,
        }
    }

    fn brb_msg(msg: SignedMsg<DepBatch<A::Sig>, A::Sig>) -> Astro2Msg<A::Sig> {
        Astro2Msg::Brb(msg)
    }

    fn sync_msg(msg: ReconfigMsg<A::Sig>) -> Astro2Msg<A::Sig> {
        Astro2Msg::Sync(msg)
    }

    /// Broadcast and catch-up traffic run through the shell; CREDIT
    /// traffic keeps flowing during catch-up — certificates accumulate
    /// independently of the ledger.
    fn handle(
        replica: &mut Replica<Self>,
        from: ReplicaId,
        msg: Astro2Msg<A::Sig>,
    ) -> ReplicaStep<Astro2Msg<A::Sig>> {
        match msg {
            Astro2Msg::Brb(m) => {
                let out = replica.on_brb(from, m);
                if let Some(obs) = &replica.obs {
                    // An outbound COMMIT means this replica just assembled
                    // the 2f+1 ack quorum proof for its payload.
                    for env in &out.outbound {
                        if let Astro2Msg::Brb(SignedMsg::Commit { payload, .. }) = &env.msg {
                            obs.stage_batch(
                                payload.entries.iter().map(|e| &e.payment),
                                astro_obs::Stage::AckQuorum,
                            );
                        }
                    }
                }
                out
            }
            Astro2Msg::Credit(cb) => replica.on_credit(from, cb),
            Astro2Msg::Sync(m) => replica.on_sync(from, m),
            Astro2Msg::CreditAck { digests } => replica.on_credit_ack(from, digests),
            Astro2Msg::CreditRequest { since } => replica.on_credit_request(from, since),
        }
    }

    /// Gates the client's sequence number and attaches the accumulated
    /// dependency certificates (Listing 7).
    fn admit(
        replica: &mut Replica<Self>,
        payment: Payment,
    ) -> Result<DepPayment<A::Sig>, SubmitError> {
        let proto = &mut replica.proto;
        // At most one payment per xlog slot may ever leave this
        // representative (Listing 7 assigns sequence numbers here for the
        // same reason): the shard's broadcast delivery is unordered, so if
        // two conflicting payments at one seq both reached broadcast,
        // correct replicas could settle different winners. An equivocating
        // client's second submission dies at the door instead.
        let floor = replica.ledger.next_seq(payment.spender);
        let gate = proto.submitted_seq.entry(payment.spender).or_insert(floor);
        if *gate < floor {
            // A catch-up install advanced the ledger past the gate.
            *gate = floor;
        }
        if payment.seq != *gate {
            return Err(SubmitError::SeqOutOfOrder {
                client: payment.spender,
                seq: payment.seq,
                expected: *gate,
            });
        }
        *gate = gate.next();
        let reserved = proto.reserved.entry(payment.spender).or_insert(0);
        let need = reserved.saturating_add(payment.amount.0);
        let attach = match proto.dep_policy {
            DepPolicy::Always => true,
            DepPolicy::WhenNeeded => replica.ledger.balance(payment.spender).0 < need,
        };
        *reserved = need;
        let deps = if attach {
            let taken = proto.rep_deps.remove(&payment.spender).unwrap_or_default();
            if !taken.is_empty() {
                // Consumption is journaled at the *flush* that broadcasts
                // the carrying payment, not here: a crash before the
                // broadcast must restore the certificates (the batch is
                // lost with them), and re-attachment after recovery is
                // idempotent at verifiers via `usedDeps`.
                proto
                    .pending_cert_takes
                    .push((payment.spender, taken.iter().map(cert_digest).collect()));
            }
            taken
        } else {
            Vec::new()
        };
        Ok(DepPayment { payment, deps })
    }

    /// CREDIT retransmission rides the flush timer — and keeps running
    /// during catch-up: the outbox serves *other* replicas' recovery,
    /// which must not wait for ours.
    fn tick(replica: &mut Replica<Self>, outbound: &mut Vec<Envelope<Astro2Msg<A::Sig>>>) {
        replica.tick_outbox(outbound);
    }

    /// The batch becomes durable now: certificate consumption is
    /// journaled ahead of the tag reservation.
    fn seal_batch(
        replica: &mut Replica<Self>,
        entries: Vec<DepPayment<A::Sig>>,
    ) -> DepBatch<A::Sig> {
        if let Some(obs) = &replica.obs {
            obs.stage_batch(entries.iter().map(|e| &e.payment), astro_obs::Stage::Prepare);
            obs.cert_cache_hits.set(replica.proto.cert_cache.hits());
            obs.cert_cache_misses.set(replica.proto.cert_cache.misses());
        }
        for (client, digests) in std::mem::take(&mut replica.proto.pending_cert_takes) {
            replica.journal.rec(&WalRecord::CertsTaken { client, digests });
        }
        DepBatch { entries }
    }

    fn apply(
        replica: &mut Replica<Self>,
        id: InstanceId,
        batch: DepBatch<A::Sig>,
        out: &mut ReplicaStep<Astro2Msg<A::Sig>>,
    ) {
        replica.apply_delivered(id, batch, out);
    }

    /// Certificates that fail to decode under this signature scheme are
    /// dropped (they could never verify either).
    fn decode_deps(bytes: &[Vec<u8>]) -> Vec<DependencyCertificate<A::Sig>> {
        bytes.iter().filter_map(|b| decode_exact(b).ok()).collect()
    }

    fn replay(replica: &mut Replica<Self>, record: &WalRecord) {
        let proto = &mut replica.proto;
        match record {
            WalRecord::DepUsed { dep } => {
                if proto.used_deps.insert(dep.id()) {
                    replica.ledger.credit(dep.beneficiary, dep.amount);
                }
            }
            WalRecord::Stuck { client } => {
                proto.stuck.insert(*client);
            }
            WalRecord::CertsTaken { client, digests } => {
                // Consumption by content digest: removal of an absent
                // certificate is a no-op, so any replay interleaving with
                // Cert records (the snapshot-overlap window) converges.
                if let Some(held) = proto.rep_deps.get_mut(client) {
                    held.retain(|cert| !digests.contains(&cert_digest(cert)));
                    if held.is_empty() {
                        proto.rep_deps.remove(client);
                    }
                }
            }
            WalRecord::Cert { bytes } => {
                let Ok(cert) = decode_exact::<DependencyCertificate<A::Sig>>(bytes) else {
                    return;
                };
                let mut beneficiaries: Vec<ClientId> =
                    cert.bundle.iter().map(|p| p.beneficiary).collect();
                beneficiaries.sort_unstable();
                beneficiaries.dedup();
                for b in beneficiaries {
                    if replica.layout.is_representative(replica.me, b) {
                        let held = proto.rep_deps.entry(b).or_default();
                        // Idempotent over the snapshot-overlap window.
                        if !held.contains(&cert) {
                            held.push(cert.clone());
                        }
                    }
                }
            }
            WalRecord::CreditOut { dest, bundle } => {
                proto.restore_outbox_entry(*dest, bundle.clone());
            }
            WalRecord::CreditAcked { digest } => {
                proto.outbox.remove(digest);
            }
            WalRecord::Delivered { .. }
            | WalRecord::Settle { .. }
            | WalRecord::Queued { .. }
            | WalRecord::OwnTag { .. } => {}
        }
    }

    /// Settlement state, approval queue, dependency replay-protection,
    /// stuck set, held certificates, retry outbox, broadcast tag counter,
    /// and BRB cursors. The shared settlement state is canonical; the
    /// certificate section is representative-local by construction.
    fn export_state(replica: &Replica<Self>) -> Astro2State {
        let proto = &replica.proto;
        let mut used_deps: Vec<PaymentId> = proto.used_deps.iter().copied().collect();
        used_deps.sort_unstable();
        let mut stuck: Vec<ClientId> = proto.stuck.iter().copied().collect();
        stuck.sort_unstable();
        // Certificates attached to the *unflushed* batch are not durably
        // consumed yet — `CertsTaken` is journaled at flush. Export them
        // as still held: a crash before the flush then restores them
        // instead of destroying them with the lost batch, and a
        // `CertsTaken` that post-dates this snapshot removes exactly them
        // on replay (consumption is by content digest).
        let mut certs_map: HashMap<ClientId, Vec<Vec<u8>>> = HashMap::new();
        for entry in &replica.batch {
            if !entry.deps.is_empty() {
                certs_map
                    .entry(entry.payment.spender)
                    .or_default()
                    .extend(entry.deps.iter().map(Wire::to_wire_bytes));
            }
        }
        for (client, held) in &proto.rep_deps {
            certs_map.entry(*client).or_default().extend(held.iter().map(Wire::to_wire_bytes));
        }
        let mut certs: Vec<(ClientId, Vec<Vec<u8>>)> = certs_map.into_iter().collect();
        certs.sort_unstable_by_key(|(c, _)| *c);
        // Outbox iteration is digest-ordered; the stable sort yields the
        // canonical (destination, digest) order.
        let mut outbox: Vec<(ReplicaId, Vec<Payment>)> =
            proto.outbox.values().map(|e| (e.dest, e.bundle.clone())).collect();
        outbox.sort_by_key(|(dest, _)| *dest);
        Astro2State {
            ledger: replica.ledger.export(),
            pending: replica
                .pending
                .entries()
                .into_iter()
                .map(|(p, deps)| (*p, deps.iter().map(Wire::to_wire_bytes).collect()))
                .collect(),
            used_deps,
            stuck,
            certs,
            outbox,
            next_tag: replica.next_tag,
            cursors: replica.brb.delivery_cursors(),
        }
    }

    /// Everything outside the ledger (which the checkpoint segments
    /// reconstruct in full at seal time).
    fn residual_state(replica: &Replica<Self>, sealed_segments: u64) -> Astro2Snapshot {
        let full = Self::export_state(replica);
        Astro2Snapshot {
            sealed_segments,
            pending: full.pending,
            used_deps: full.used_deps,
            stuck: full.stuck,
            certs: full.certs,
            outbox: full.outbox,
            next_tag: full.next_tag,
            cursors: full.cursors,
        }
    }

    /// In-flight state that is deliberately not durable — partial CREDIT
    /// proof sets below the certificate threshold and in-flight balance
    /// reservations — restarts empty.
    fn restore_state(replica: &mut Replica<Self>, state: &Astro2State) {
        replica.restore_sections(
            &state.pending,
            &state.used_deps,
            &state.stuck,
            &state.certs,
            &state.outbox,
        );
    }

    fn restore_residual(replica: &mut Replica<Self>, residual: &Astro2Snapshot) {
        replica.restore_sections(
            &residual.pending,
            &residual.used_deps,
            &residual.stuck,
            &residual.certs,
            &residual.outbox,
        );
    }

    /// Materialized dependencies and stuck marks must be supersets of the
    /// local state, or a dependency could re-materialize — a double
    /// credit.
    fn check_install(replica: &Replica<Self>, state: &Astro2State) -> Result<(), SyncError> {
        let certified_deps: HashSet<PaymentId> = state.used_deps.iter().copied().collect();
        let certified_stuck: HashSet<ClientId> = state.stuck.iter().copied().collect();
        if !replica.proto.used_deps.is_subset(&certified_deps)
            || !replica.proto.stuck.is_subset(&certified_stuck)
        {
            return Err(SyncError::Stale);
        }
        Ok(())
    }

    /// The representative-local certificate store is untouched by the
    /// transfer itself: certificates are re-formed from CREDIT traffic —
    /// donors retain unacked bundles in their retry outboxes, and the
    /// `CreditRequest` fan-out of [`Protocol::rejoined`] makes them replay
    /// anything this store is still missing.
    fn install_state(replica: &mut Replica<Self>, state: &Astro2State) {
        replica.proto.used_deps = state.used_deps.iter().copied().collect();
        replica.proto.stuck = state.stuck.iter().copied().collect();
        replica.pending = PendingQueue::new();
        replica.queue_all(&state.pending);
    }

    /// Rebuilds the certificate store: asks every potential donor to
    /// replay CREDITs that died with the link while this replica was down
    /// (or that it certified and then lost non-durably).
    fn rejoined(replica: &Replica<Self>, outbound: &mut Vec<Envelope<Astro2Msg<A::Sig>>>) {
        outbound.extend(replica.credit_request_envelopes());
    }
}

impl<A: Authenticator> AstroTwo<A> {
    /// Re-creates one retry-outbox entry from recovered `(dest, bundle)`
    /// data, re-signing with this replica's key (signatures are not
    /// persisted). Due for immediate retransmission; idempotent over the
    /// snapshot/WAL overlap window.
    fn restore_outbox_entry(&mut self, dest: ReplicaId, bundle: Vec<Payment>) {
        let context = credit_context(&bundle);
        let key: [u8; 32] = context.as_slice().try_into().expect("sha256 digest");
        if self.outbox.contains_key(&key) {
            return;
        }
        let sig = self.auth.sign(&context);
        self.outbox
            .insert(key, OutboxEntry { dest, bundle, sig, ticks: 0, backoff: OUTBOX_BASE_TICKS });
    }

    /// One settle attempt for a payment with its dependencies. Free of
    /// the shell's queue so the pending-queue cascade can call it while
    /// the queue itself is mutably borrowed.
    fn settle(
        &mut self,
        ledger: &mut Ledger,
        journal: &mut JournalSlot,
        layout: &ShardLayout,
        p: &Payment,
        deps: &[DependencyCertificate<A::Sig>],
    ) -> SettleOutcome {
        let next = ledger.next_seq(p.spender);
        if p.seq > next {
            return SettleOutcome::FutureSeq;
        }
        if p.seq < next {
            return SettleOutcome::StaleSeq;
        }
        if self.stuck.contains(&p.spender) {
            // The xlog is stuck (Listing 9's early return dropped a
            // payment); successors can never settle.
            return SettleOutcome::StaleSeq;
        }
        // Materialize dependencies (Listing 9: `newDeps`, `usedDeps`,
        // `bal += balanceOf(newDeps)`) — before the funds check, and kept
        // even if the payment is then rejected.
        for cert in deps {
            let Some(first) = cert.bundle.first() else { continue };
            let settling_shard = layout.shard_of_client(first.spender);
            if !cert.bundle.iter().all(|d| layout.shard_of_client(d.spender) == settling_shard) {
                continue;
            }
            let group = &self.groups[settling_shard.0 as usize];
            // One signature-verification pass per certificate per replica:
            // a cache hit (content digest over bundle *and* proofs) skips
            // the f+1 signature checks; only fully verified certs are
            // admitted.
            let digest = cert_digest(cert);
            if self.cert_cache.contains(&digest) {
                self.cert_cache.hits += 1;
            } else {
                self.cert_cache.misses += 1;
                if !verify_certificate(cert, group, &self.auth) {
                    continue;
                }
                self.cert_cache.admit(digest);
            }
            for d in cert.credits_for(p.spender) {
                if self.used_deps.insert(d.id()) {
                    journal.rec(&WalRecord::DepUsed { dep: *d });
                    ledger.credit(p.spender, d.amount);
                }
            }
        }
        let direct_credit = self.mode == CreditMode::DirectIntraShard
            && layout.shard_of_client(p.beneficiary) == self.my_shard;
        match ledger.settle(p, direct_credit) {
            SettleOutcome::InsufficientFunds if self.mode == CreditMode::Certificates => {
                // Listing 9's `if bal[Alice] < x: return` — the payment is
                // dropped at every correct replica identically, and the
                // xlog can never advance past this gap.
                journal.rec(&WalRecord::Stuck { client: p.spender });
                self.stuck.insert(p.spender);
                SettleOutcome::StaleSeq
            }
            SettleOutcome::Applied => {
                journal.rec(&WalRecord::Settle { payment: *p, credit_beneficiary: direct_credit });
                SettleOutcome::Applied
            }
            outcome => outcome,
        }
    }
}

impl<A: Authenticator> Replica<AstroTwo<A>> {
    /// The shard this replica belongs to.
    pub fn shard(&self) -> ShardId {
        self.proto.my_shard
    }

    /// Enqueues a payment with explicitly chosen dependency certificates
    /// and flushes immediately — the hook adversarial tests use to model a
    /// Byzantine representative attaching arbitrary (possibly forged)
    /// certificates. Test-only.
    #[doc(hidden)]
    pub fn debug_submit_with_deps(
        &mut self,
        payment: Payment,
        deps: Vec<DependencyCertificate<A::Sig>>,
    ) -> ReplicaStep<Astro2Msg<A::Sig>> {
        self.batch.push(DepPayment { payment, deps });
        self.flush()
    }

    /// Paces only the CREDIT retry outbox — the flush timer's
    /// retransmission duty without cutting the payment batch. Drivers
    /// with independent batch and retry clocks (the simulator) call this
    /// instead of piggybacking retransmission on [`Replica::flush`]:
    /// firing `flush` early just to age the outbox would cut batches short
    /// and inflate the per-batch broadcast overhead.
    pub fn pace_outbox(&mut self) -> ReplicaStep<Astro2Msg<A::Sig>> {
        let mut out = ReplicaStep::empty();
        self.tick_outbox(&mut out.outbound);
        out
    }

    /// One flush tick of the retry outbox: accumulated acks leave
    /// (batched per destination), then entries whose backoff expired are
    /// retransmitted and their backoff doubles (capped).
    fn tick_outbox(&mut self, outbound: &mut Vec<Envelope<Astro2Msg<A::Sig>>>) {
        self.flush_acks(outbound);
        let mut retransmits = 0u64;
        for entry in self.proto.outbox.values_mut() {
            if entry.ticks > 0 {
                entry.ticks -= 1;
                continue;
            }
            entry.ticks = entry.backoff;
            entry.backoff = (entry.backoff * 2).min(OUTBOX_MAX_TICKS);
            retransmits += 1;
            outbound.push(entry.transmission());
        }
        if let Some(obs) = &self.obs {
            if retransmits > 0 {
                obs.credit_retransmits.add(retransmits);
                obs.flight.event(
                    "core.credit.retransmit",
                    retransmits,
                    self.proto.outbox.len() as u64,
                );
            }
            obs.outbox_depth.set(self.proto.outbox.len() as u64);
        }
    }

    /// Queues a signed CREDIT sub-batch in the retry outbox and emits the
    /// initial transmission. The entry is retained (and journaled) until
    /// `dest` acknowledges the bundle digest.
    fn queue_credit(
        &mut self,
        dest: ReplicaId,
        bundle: Vec<Payment>,
        outbound: &mut Vec<Envelope<Astro2Msg<A::Sig>>>,
    ) {
        let context = credit_context(&bundle);
        let key: [u8; 32] = context.as_slice().try_into().expect("sha256 digest");
        let sig = self.proto.auth.sign(&context);
        if !self.proto.outbox.contains_key(&key) {
            self.journal.rec(&WalRecord::CreditOut { dest, bundle: bundle.clone() });
            self.proto.outbox.insert(
                key,
                OutboxEntry {
                    dest,
                    bundle: bundle.clone(),
                    sig: sig.clone(),
                    ticks: OUTBOX_BASE_TICKS,
                    backoff: OUTBOX_BASE_TICKS * 2,
                },
            );
        }
        outbound.push(Envelope {
            to: Dest::One(dest),
            msg: Astro2Msg::Credit(CreditBundle { bundle, sig }),
        });
    }

    /// The unicast fan-out of a `CreditRequest` to every potential donor:
    /// all replicas of all shards (cross-shard settles credit through
    /// here too), excluding this replica.
    fn credit_request_envelopes(&self) -> Vec<Envelope<Astro2Msg<A::Sig>>> {
        let since = self.ledger.total_settled() as u64;
        let mut out = Vec::new();
        for group in &self.proto.groups {
            for &r in group.members() {
                if r != self.me {
                    out.push(Envelope {
                        to: Dest::One(r),
                        msg: Astro2Msg::CreditRequest { since },
                    });
                }
            }
        }
        out
    }

    /// Unacked CREDIT sub-batches in the retry outbox. Drivers keep the
    /// flush timer armed while this is nonzero — retransmission has no
    /// other clock.
    pub fn outbox_depth(&self) -> usize {
        self.proto.outbox.len()
    }

    /// Settling replicas owed a batched CREDIT acknowledgment. Drivers
    /// keep the flush timer armed while this is nonzero — the
    /// accumulated acks leave on the next flush tick.
    pub fn pending_acks(&self) -> usize {
        self.proto.pending_acks.len()
    }

    /// Handles a CREDIT acknowledgment at the settling replica: each
    /// digest the ack covers discharges its outbox entry, provided the
    /// entry was addressed to the sender.
    fn on_credit_ack(
        &mut self,
        from: ReplicaId,
        digests: Vec<[u8; 32]>,
    ) -> ReplicaStep<Astro2Msg<A::Sig>> {
        let empty = ReplicaStep::empty();
        let mut discharged = 0u64;
        for digest in digests {
            // Only the representative the bundle was addressed to may
            // discharge it — `from` is the link-authenticated sender, so
            // no other replica, Byzantine or not, can lose the
            // beneficiary's certificate material. Unknown digests
            // (already acked, or never ours) are skipped — acks are
            // idempotent.
            let Some(entry) = self.proto.outbox.get(&digest) else { continue };
            if entry.dest != from {
                continue;
            }
            self.proto.outbox.remove(&digest);
            self.journal.rec(&WalRecord::CreditAcked { digest });
            discharged += 1;
        }
        if let Some(obs) = &self.obs {
            if discharged > 0 {
                obs.credit_acks.add(discharged);
            }
            obs.outbox_depth.set(self.proto.outbox.len() as u64);
        }
        empty
    }

    /// Handles a CREDIT replay request at a settling replica (donor):
    /// immediately retransmits every unacked outbox entry addressed to
    /// the requester (resetting its backoff), then regenerates signed
    /// singleton sub-batches for settled payments crediting the
    /// requester's clients that were never materialized — covering
    /// certificates the requester certified, acked, and then lost.
    fn on_credit_request(&mut self, from: ReplicaId, since: u64) -> ReplicaStep<Astro2Msg<A::Sig>> {
        let mut out = ReplicaStep::empty();
        if from == self.me {
            return out;
        }
        let mut replays = 0u64;
        for entry in self.proto.outbox.values_mut() {
            if entry.dest != from {
                continue;
            }
            entry.ticks = OUTBOX_BASE_TICKS;
            entry.backoff = OUTBOX_BASE_TICKS * 2;
            replays += 1;
            out.outbound.push(entry.transmission());
        }
        // `since` is comparable only within a shard; a same-shard donor
        // behind the requester's watermark regenerates nothing (its
        // settled history is a stale prefix of what the requester
        // already has) — the outbox retransmissions above still count.
        let same_shard = self.layout.shard_of_replica(from) == Some(self.proto.my_shard);
        if !(same_shard && (self.ledger.total_settled() as u64) < since) {
            // Regenerate from settled history. Singleton bundles, so every
            // donor derives the identical digest independently and `f+1`
            // proofs accumulate under one key at the requester.
            let mut regenerated: Vec<Vec<Payment>> = Vec::new();
            for xlog in self.ledger.xlogs() {
                for p in xlog.iter() {
                    if self.layout.representative_of(p.beneficiary) != from {
                        continue;
                    }
                    // Direct-credited payments carry no certificate debt.
                    if self.proto.mode == CreditMode::DirectIntraShard
                        && self.layout.shard_of_client(p.beneficiary) == self.proto.my_shard
                    {
                        continue;
                    }
                    // Already materialized in this shard ⇒ the credit's
                    // whole effect is in the shared settled state; the
                    // requester needs no certificate for it.
                    if self.proto.used_deps.contains(&p.id()) {
                        continue;
                    }
                    regenerated.push(vec![*p]);
                }
            }
            for bundle in regenerated {
                let key: [u8; 32] =
                    credit_context(&bundle).as_slice().try_into().expect("sha256 digest");
                if self.proto.outbox.contains_key(&key) {
                    continue; // already queued (and just retransmitted above)
                }
                replays += 1;
                self.queue_credit(from, bundle, &mut out.outbound);
            }
        }
        if let Some(obs) = &self.obs {
            if replays > 0 {
                obs.credit_replays.add(replays);
            }
            obs.flight.event("core.credit.replay", replays, self.proto.outbox.len() as u64);
            obs.outbox_depth.set(self.proto.outbox.len() as u64);
        }
        out
    }

    /// Applies a BRB-delivered batch (Listings 8–9) and emits CREDIT
    /// sub-batches for the settled payments.
    fn apply_delivered(
        &mut self,
        id: InstanceId,
        batch: DepBatch<A::Sig>,
        out: &mut ReplicaStep<Astro2Msg<A::Sig>>,
    ) {
        let broadcaster = ReplicaId(id.source as u32);
        let mut touched: Vec<ClientId> = Vec::new();
        let mut settled: Vec<Payment> = Vec::new();

        for entry in batch.entries {
            let p = entry.payment;
            // Representative and locality checks.
            if self.layout.representative_of(p.spender) != broadcaster
                || self.layout.shard_of_client(p.spender) != self.proto.my_shard
            {
                continue;
            }
            match self.proto.settle(
                &mut self.ledger,
                &mut self.journal,
                &self.layout,
                &p,
                &entry.deps,
            ) {
                SettleOutcome::Applied => {
                    if let Some(r) = self.proto.reserved.get_mut(&p.spender) {
                        *r = r.saturating_sub(p.amount.0);
                    }
                    settled.push(p);
                    touched.push(p.spender);
                    touched.push(p.beneficiary);
                }
                SettleOutcome::FutureSeq | SettleOutcome::InsufficientFunds => {
                    // InsufficientFunds only surfaces in DirectIntraShard
                    // mode (certificate mode converts it into a permanent
                    // drop); queue until a credit arrives, as in Astro I.
                    // The attached certificates ride into the record: a
                    // future-sequence payment queues *before* the
                    // dependency step, so its credits are not yet in the
                    // ledger and must survive a restart with it.
                    self.journal.rec(&WalRecord::Queued {
                        payment: p,
                        deps: entry.deps.iter().map(Wire::to_wire_bytes).collect(),
                    });
                    self.pending.push(p, entry.deps);
                    touched.push(p.spender);
                }
                SettleOutcome::StaleSeq => {}
            }
        }

        // Cascade: settled payments may unblock queued successors.
        let Replica { pending, ledger, proto, journal, layout, .. } = self;
        let cascaded = pending.drain_cascade(touched, ledger, |ledger, p, deps| {
            proto.settle(ledger, journal, layout, p, deps)
        });
        settled.extend(cascaded.into_iter().map(|e| e.payment));

        // The delivery record *terminates* the batch's effects in the log:
        // a torn tail that cuts before it replays a (harmless, idempotent)
        // effect prefix with the cursor still behind — never a cursor that
        // has advanced past effects that were lost.
        self.journal.rec(&WalRecord::Delivered { source: id.source, tag: id.tag });

        // Emit CREDIT sub-batches grouped by beneficiary representative
        // (paper §VI-A's second batching level: one signature per group).
        let mut by_rep: BTreeMap<ReplicaId, Vec<Payment>> = BTreeMap::new();
        for p in &settled {
            let beneficiary_shard = self.layout.shard_of_client(p.beneficiary);
            let direct = self.proto.mode == CreditMode::DirectIntraShard
                && beneficiary_shard == self.proto.my_shard;
            if !direct {
                by_rep.entry(self.layout.representative_of(p.beneficiary)).or_default().push(*p);
            }
        }
        for (rep, bundle) in by_rep {
            if rep == self.me {
                // Self-addressed credits deliver inline: no transport to
                // lose them, so they bypass the retry outbox too.
                let sig = self.proto.auth.sign(&credit_context(&bundle));
                let step = self.on_credit(self.me, CreditBundle { bundle, sig });
                out.outbound.extend(step.outbound);
                out.settled.extend(step.settled);
            } else {
                self.queue_credit(rep, bundle, &mut out.outbound);
            }
        }
        if let Some(obs) = &self.obs {
            obs.settles.add(settled.len() as u64);
            // Representative-only, as in Astro I: one stamp per payment
            // keeps the rest of the shard off the tracer.
            obs.stage_batch(
                settled.iter().filter(|p| self.layout.representative_of(p.spender) == self.me),
                astro_obs::Stage::Settle,
            );
        }
        out.settled.extend(settled);
    }

    /// Handles an incoming CREDIT sub-batch at the beneficiary's
    /// representative (Listing 10).
    fn on_credit(
        &mut self,
        from: ReplicaId,
        cb: CreditBundle<A::Sig>,
    ) -> ReplicaStep<Astro2Msg<A::Sig>> {
        let empty = ReplicaStep::empty();
        let Some(first) = cb.bundle.first() else { return empty };
        // All bundled payments must have been settled by one shard, and the
        // sender must belong to it.
        let settling_shard = self.layout.shard_of_client(first.spender);
        if !cb.bundle.iter().all(|p| self.layout.shard_of_client(p.spender) == settling_shard) {
            return empty;
        }
        let group = &self.proto.groups[settling_shard.0 as usize];
        if !group.contains(from) {
            return empty;
        }
        // Ignore bundles for clients we do not represent.
        if !cb.bundle.iter().any(|p| self.layout.is_representative(self.me, p.beneficiary)) {
            return empty;
        }
        let context = credit_context(&cb.bundle);
        let key: [u8; 32] = context.as_slice().try_into().expect("sha256 digest");
        // A bundle whose every credit is already covered — materialized
        // (`usedDeps`) or vouched for by a held certificate — adds
        // nothing; ack so the sender stops retransmitting. This also
        // drains replayed singletons that can never reach a fresh quorum.
        let covered = cb.bundle.iter().all(|p| {
            self.proto.used_deps.contains(&p.id())
                || self
                    .proto
                    .rep_deps
                    .get(&p.beneficiary)
                    .is_some_and(|certs| certs.iter().any(|c| c.bundle.contains(p)))
        });
        if covered {
            self.note_ack(from, key);
            return empty;
        }
        // A self-addressed bundle was signed by this replica a moment ago
        // (`apply_delivered`) and never left the process.
        if from != self.me && !self.proto.auth.verify(from, &context, &cb.sig) {
            return empty;
        }
        let small_quorum = group.small_quorum();
        let partial = self.proto.partial.entry(key).or_insert_with(|| PartialBundle {
            bundle: cb.bundle,
            proofs: HashMap::new(),
            certified: false,
        });
        partial.proofs.insert(from, cb.sig);
        if partial.certified {
            // Already certified: re-ack, the sender missed (or lost) the
            // first acknowledgment.
            self.note_ack(from, key);
            return empty;
        }
        if partial.proofs.len() < small_quorum {
            return empty;
        }
        partial.certified = true;
        let mut proofs: Vec<(ReplicaId, A::Sig)> =
            partial.proofs.iter().map(|(r, s)| (*r, s.clone())).collect();
        // Canonical proof order, so the journaled bytes (and any re-export)
        // are independent of CREDIT arrival order.
        proofs.sort_unstable_by_key(|(r, _)| *r);
        let senders: Vec<ReplicaId> = proofs.iter().map(|(r, _)| *r).collect();
        let cert = DependencyCertificate { bundle: partial.bundle.clone(), proofs };
        self.journal.rec(&WalRecord::Cert { bytes: cert.to_wire_bytes() });
        // Store the certificate for every beneficiary we represent.
        let mut beneficiaries: Vec<ClientId> = cert.bundle.iter().map(|p| p.beneficiary).collect();
        beneficiaries.sort_unstable();
        beneficiaries.dedup();
        for b in beneficiaries {
            if self.layout.is_representative(self.me, b) {
                let held = self.proto.rep_deps.entry(b).or_default();
                // A re-formed certificate over a bundle already held (the
                // proof subset may differ) must not double-count.
                if !held.iter().any(|c| c.bundle == cert.bundle) {
                    held.push(cert.clone());
                }
            }
        }
        // The certificate is durable (journaled above; group commit makes
        // it disk-durable before outbound leaves a durable runtime): owe
        // every contributing settler an ack so their outboxes discharge
        // on our next flush tick.
        for sender in senders {
            self.note_ack(sender, key);
        }
        empty
    }

    /// Notes an acknowledgment owed to settling replica `to` for the
    /// CREDIT sub-batch digest `key`. Acks accumulate per destination
    /// and leave as one message on the next flush tick — ack
    /// traffic scales with flush intervals, not with sub-batch count.
    /// Self-addressed credits discharge their outbox entry directly.
    fn note_ack(&mut self, to: ReplicaId, key: [u8; 32]) {
        if to == self.me {
            // Acking ourselves over the network is wasted work.
            if self.proto.outbox.remove(&key).is_some() {
                self.journal.rec(&WalRecord::CreditAcked { digest: key });
            }
            return;
        }
        let pending = self.proto.pending_acks.entry(to).or_default();
        if !pending.contains(&key) {
            pending.push(key);
        }
    }

    /// Emits the accumulated CREDIT acknowledgments, one message per
    /// owed settler (the flush tick's ack-batching duty).
    fn flush_acks(&mut self, outbound: &mut Vec<Envelope<Astro2Msg<A::Sig>>>) {
        for (to, digests) in std::mem::take(&mut self.proto.pending_acks) {
            outbound.push(Envelope { to: Dest::One(to), msg: Astro2Msg::CreditAck { digests } });
        }
    }

    /// The balance a representative reports to its client: settled balance
    /// plus certified-but-unspent incoming credits.
    pub fn available_balance(&self, client: ClientId) -> Amount {
        let mut total = self.ledger.balance(client);
        // A credit may be vouched for by several held certificates (a
        // replayed singleton alongside the original sub-batch): count
        // each payment once.
        let mut counted: HashSet<PaymentId> = HashSet::new();
        if let Some(certs) = self.proto.rep_deps.get(&client) {
            for cert in certs {
                for p in cert.credits_for(client) {
                    if !self.proto.used_deps.contains(&p.id()) && counted.insert(p.id()) {
                        total = total.saturating_add(p.amount);
                    }
                }
            }
        }
        total
    }

    /// Clients whose xlog was permanently stuck by an under-funded payment
    /// (certificate mode).
    pub fn stuck_clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.proto.stuck.iter().copied()
    }

    /// Certificates currently held for `client` (representative state).
    pub fn held_certificates(&self, client: ClientId) -> usize {
        self.proto.rep_deps.get(&client).map_or(0, Vec::len)
    }

    /// The verified-certificate cache (observability and tests).
    pub fn cert_cache(&self) -> &CertCache {
        &self.proto.cert_cache
    }

    /// Queues recovered or transferred payments with their decoded
    /// certificates.
    fn queue_all(&mut self, entries: &[(Payment, Vec<Vec<u8>>)]) {
        for (payment, deps) in entries {
            self.pending.push(*payment, AstroTwo::<A>::decode_deps(deps));
        }
    }

    /// Restores the sections a full state and a residual snapshot share.
    fn restore_sections(
        &mut self,
        pending: &[(Payment, Vec<Vec<u8>>)],
        used_deps: &[PaymentId],
        stuck: &[ClientId],
        certs: &[(ClientId, Vec<Vec<u8>>)],
        outbox: &[(ReplicaId, Vec<Payment>)],
    ) {
        self.queue_all(pending);
        self.proto.used_deps = used_deps.iter().copied().collect();
        self.proto.stuck = stuck.iter().copied().collect();
        for (client, certs) in certs {
            let decoded = AstroTwo::<A>::decode_deps(certs);
            if !decoded.is_empty() {
                self.proto.rep_deps.insert(*client, decoded);
            }
        }
        for (dest, bundle) in outbox {
            self.proto.restore_outbox_entry(*dest, bundle.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::PaymentCluster;
    use astro_types::MacAuthenticator;

    type Replica = AstroTwoReplica<MacAuthenticator>;

    fn cluster(shards: usize, per_shard: usize, cfg: Astro2Config) -> PaymentCluster<Replica> {
        let layout = ShardLayout::uniform(shards, per_shard).unwrap();
        let total = shards * per_shard;
        PaymentCluster::new((0..total).map(|i| {
            AstroTwoReplica::new(
                MacAuthenticator::new(ReplicaId(i as u32), b"astro2".to_vec()),
                layout.clone(),
                cfg.clone(),
            )
        }))
    }

    fn cfg(mode: CreditMode) -> Astro2Config {
        Astro2Config {
            batch_size: 1,
            initial_balance: Amount(100),
            credit_mode: mode,
            dep_policy: DepPolicy::WhenNeeded,
        }
    }

    /// Submits a payment at its representative.
    fn pay<A: Authenticator>(
        c: &mut PaymentCluster<AstroTwoReplica<A>>,
        layout: &ShardLayout,
        p: Payment,
    ) {
        let rep = layout.representative_of(p.spender);
        let step = c.node_mut(rep.0 as usize).submit(p).expect("representative accepts");
        c.submit_step(rep, step);
    }

    #[test]
    fn intra_shard_payment_settles_and_certifies() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        // Client 0 pays client 1.
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 1, "replica {i}");
            assert_eq!(c.node(i).balance(ClientId(0)), Amount(70));
            // Certificate mode: the beneficiary's settled balance is
            // untouched until she spends.
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(100));
        }
        // Client 1's representative accumulated a certificate.
        let rep1 = layout.representative_of(ClientId(1));
        assert_eq!(c.node(rep1.0 as usize).held_certificates(ClientId(1)), 1);
        assert_eq!(c.node(rep1.0 as usize).available_balance(ClientId(1)), Amount(130));
    }

    #[test]
    fn beneficiary_spends_received_funds_via_certificate() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Client 1 now spends 120 — more than her genesis 100; the
        // attached certificate covers it.
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 2u64, 120u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 2, "replica {i}");
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(10)); // 100+30-120
        }
    }

    #[test]
    fn cross_shard_payment_one_step() {
        let layout = ShardLayout::uniform(2, 4).unwrap();
        let mut c = cluster(2, 4, cfg(CreditMode::Certificates));
        // Find a client in shard 0 and one in shard 1.
        let a =
            (0..100u64).map(ClientId).find(|x| layout.shard_of_client(*x) == ShardId(0)).unwrap();
        let b =
            (0..100u64).map(ClientId).find(|x| layout.shard_of_client(*x) == ShardId(1)).unwrap();
        pay(&mut c, &layout, Payment::new(a.0, 0u64, b.0, 50u64));
        c.run_to_quiescence();
        // Settled in shard 0 only (4 replicas).
        let settled_replicas: usize = (0..8).filter(|&i| !c.settled(i).is_empty()).count();
        assert_eq!(settled_replicas, 4, "only the spender's shard settles");
        // The beneficiary's representative (shard 1) holds the certificate.
        let rep_b = layout.representative_of(b);
        assert_eq!(c.node(rep_b.0 as usize).held_certificates(b), 1);
        assert_eq!(c.node(rep_b.0 as usize).available_balance(b), Amount(150));
        // And b can spend it inside shard 1.
        let b2 = (0..100u64)
            .map(ClientId)
            .find(|x| layout.shard_of_client(*x) == ShardId(1) && *x != b)
            .unwrap();
        pay(&mut c, &layout, Payment::new(b.0, 0u64, b2.0, 140u64));
        c.run_to_quiescence();
        let rep_b2 = layout.representative_of(b2);
        assert_eq!(c.node(rep_b2.0 as usize).available_balance(b2), Amount(240));
    }

    #[test]
    fn partial_payments_attack_is_contained() {
        // Byzantine broadcaster sends the COMMIT to exactly one replica of
        // the shard. That replica settles and emits one CREDIT — below the
        // f+1 certificate threshold, so the beneficiary cannot spend
        // unprovable money.
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let rep0 = layout.representative_of(ClientId(0)); // spender's rep
        c.set_filter(move |from, to, msg| {
            // Drop commits from the broadcaster except to replica 1.
            !(from == rep0
                && to != ReplicaId(1)
                && matches!(msg, Astro2Msg::Brb(SignedMsg::Commit { .. })))
        });
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let settled: usize = (0..4).filter(|&i| !c.settled(i).is_empty()).count();
        assert_eq!(settled, 1, "only the victim replica settles");
        // No certificate anywhere: 1 < f+1 = 2 proofs.
        let rep1 = layout.representative_of(ClientId(1));
        assert_eq!(c.node(rep1.0 as usize).held_certificates(ClientId(1)), 0);
        assert_eq!(c.node(rep1.0 as usize).available_balance(ClientId(1)), Amount(100));
    }

    #[test]
    fn replayed_certificate_credits_only_once() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Steal the certificate from client 1's representative and attach
        // it to TWO consecutive payments (double-deposit attempt).
        let rep1 = layout.representative_of(ClientId(1));
        let cert = c.node(rep1.0 as usize).proto.rep_deps.get(&ClientId(1)).unwrap()[0].clone();
        let node = c.node_mut(rep1.0 as usize);
        node.batch.push(DepPayment {
            payment: Payment::new(1u64, 0u64, 2u64, 10u64),
            deps: vec![cert.clone()],
        });
        let step = node.flush();
        c.submit_step(rep1, step);
        c.run_to_quiescence();
        let node = c.node_mut(rep1.0 as usize);
        node.batch
            .push(DepPayment { payment: Payment::new(1u64, 1u64, 2u64, 10u64), deps: vec![cert] });
        let step = node.flush();
        c.submit_step(rep1, step);
        c.run_to_quiescence();
        for i in 0..4 {
            // 100 + 30 (credited once!) - 20 = 110.
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(110), "replica {i}");
        }
    }

    #[test]
    fn direct_mode_credits_intra_shard_immediately() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::DirectIntraShard));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(130), "replica {i}");
        }
        // No CREDIT traffic was needed: no certificates held anywhere.
        for i in 0..4 {
            assert_eq!(c.node(i).held_certificates(ClientId(1)), 0);
        }
    }

    #[test]
    fn overdraft_in_certificate_mode_sticks_the_xlog() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        // 150 > genesis 100 and no dependencies: dropped, xlog stuck.
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 150u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert!(c.settled(i).is_empty());
            assert_eq!(c.node(i).stuck_clients().count(), 1);
        }
        // A later, well-funded payment of the same client can never settle.
        pay(&mut c, &layout, Payment::new(0u64, 1u64, 1u64, 10u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert!(c.settled(i).is_empty(), "stuck xlog must not advance");
        }
    }

    #[test]
    fn overdraft_in_direct_mode_queues() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::DirectIntraShard));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 150u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.node(i).pending_len(), 1);
        }
        // Credit arrives; the queued payment settles.
        pay(&mut c, &layout, Payment::new(2u64, 0u64, 0u64, 60u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 2, "replica {i}");
            assert_eq!(c.node(i).balance(ClientId(0)), Amount(10));
        }
    }

    #[test]
    fn equivocating_representative_cannot_double_spend_across_replicas() {
        // The representative broadcasts two conflicting batches for the
        // same instance tag; BRB agreement lets at most one deliver.
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let rep = layout.representative_of(ClientId(0));
        let idx = rep.0 as usize;
        let id = InstanceId { source: u64::from(rep.0), tag: 0 };
        let batch_a = DepBatch {
            entries: vec![DepPayment {
                payment: Payment::new(0u64, 0u64, 1u64, 50u64),
                deps: vec![],
            }],
        };
        let batch_b = DepBatch {
            entries: vec![DepPayment {
                payment: Payment::new(0u64, 0u64, 2u64, 50u64),
                deps: vec![],
            }],
        };
        // Byzantine: prepare A at two replicas, B at the other two.
        for (i, batch) in [(0u32, &batch_a), (1, &batch_a), (2, &batch_b), (3, &batch_b)] {
            c.inject(
                rep,
                ReplicaId(i),
                Astro2Msg::Brb(SignedMsg::Prepare { id, payload: batch.clone() }),
            );
        }
        c.run_to_quiescence();
        // Neither side can reach a 2f+1 = 3 ack quorum: nothing settles.
        for i in 0..4 {
            if i != idx {
                assert!(c.settled(i).is_empty(), "replica {i}");
            }
        }
    }

    #[test]
    fn cert_cache_is_bounded_fifo() {
        let mut cache = CertCache::new(3);
        for i in 0..5u8 {
            cache.admit([i; 32]);
        }
        assert_eq!(cache.len(), 3);
        // Oldest two evicted, newest three retained.
        assert!(!cache.contains(&[0u8; 32]));
        assert!(!cache.contains(&[1u8; 32]));
        for i in 2..5u8 {
            assert!(cache.contains(&[i; 32]));
        }
        // Re-admitting an existing digest does not grow or double-track.
        cache.admit([4u8; 32]);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn settling_with_certificates_populates_the_cache() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Client 1 spends more than genesis; the attached certificate is
        // verified (and cached) at every replica that settles.
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 2u64, 120u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 2, "replica {i}");
            assert_eq!(c.node(i).cert_cache().len(), 1, "replica {i} cached the cert");
        }
    }

    #[test]
    fn tampered_certificate_is_never_admitted_to_the_cache() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Steal the genuine certificate and inflate the bundled amount:
        // the signatures no longer cover the bundle.
        let rep1 = layout.representative_of(ClientId(1));
        let mut cert = c.node(rep1.0 as usize).proto.rep_deps.get(&ClientId(1)).unwrap()[0].clone();
        cert.bundle[0].amount = Amount(1_000_000);
        let node = c.node_mut(rep1.0 as usize);
        node.batch
            .push(DepPayment { payment: Payment::new(1u64, 0u64, 2u64, 500u64), deps: vec![cert] });
        let step = node.flush();
        c.submit_step(rep1, step);
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 1, "replica {i}: the overdraft must not settle");
            assert!(
                c.node(i).cert_cache().is_empty(),
                "replica {i}: a failing cert must never enter the cache"
            );
        }
    }

    #[test]
    fn export_restore_round_trips_state_with_certificates() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Client 1 spends over genesis, consuming the certificate.
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 2u64, 120u64));
        c.run_to_quiescence();
        let rep2 = layout.representative_of(ClientId(2));
        let node = c.node(rep2.0 as usize);
        let state = node.export_state();
        let restored = AstroTwoReplica::restore(
            MacAuthenticator::new(rep2, b"astro2".to_vec()),
            layout.clone(),
            cfg(CreditMode::Certificates),
            &state,
        )
        .unwrap();
        assert_eq!(restored.export_state(), state, "restore→export is the identity");
        assert_eq!(restored.balance(ClientId(0)), node.balance(ClientId(0)));
        assert_eq!(restored.balance(ClientId(1)), node.balance(ClientId(1)));
        assert_eq!(
            restored.held_certificates(ClientId(2)),
            node.held_certificates(ClientId(2)),
            "held certificates survive restore"
        );
        assert_eq!(restored.available_balance(ClientId(2)), node.available_balance(ClientId(2)));
    }

    #[test]
    fn journal_replay_reproduces_state() {
        use crate::journal::{Journal, WalRecord};
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<WalRecord>>>);
        impl Journal for Sink {
            fn record(&mut self, r: &WalRecord) {
                self.0.lock().unwrap().push(r.clone());
            }
        }

        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        c.node_mut(1).set_journal(Box::new(sink.clone()));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 2u64, 120u64)); // consumes the cert
        c.run_to_quiescence();
        pay(&mut c, &layout, Payment::new(3u64, 0u64, 1u64, 200u64)); // sticks client 3
        c.run_to_quiescence();

        let mut recovered = AstroTwoReplica::new(
            MacAuthenticator::new(ReplicaId(1), b"astro2".to_vec()),
            layout,
            cfg(CreditMode::Certificates),
        );
        for rec in sink.0.lock().unwrap().iter() {
            recovered.replay(rec);
        }
        recovered.finish_recovery();
        assert_eq!(recovered.export_state(), c.node(1).export_state());
        assert_eq!(recovered.stuck_clients().count(), 1);
    }

    #[test]
    fn queued_payment_keeps_its_certificates_across_recovery() {
        use crate::journal::{Journal, WalRecord};
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<WalRecord>>>);
        impl Journal for Sink {
            fn record(&mut self, r: &WalRecord) {
                self.0.lock().unwrap().push(r.clone());
            }
        }

        // Client 0 pays client 1; client 1's *second* payment (future
        // seq) arrives carrying the certificate before her first — it
        // queues with the certificate attached and unmaterialized.
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        c.node_mut(2).set_journal(Box::new(sink.clone()));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let rep1 = layout.representative_of(ClientId(1));
        let cert = c.node(rep1.0 as usize).proto.rep_deps.get(&ClientId(1)).unwrap()[0].clone();
        // Future-sequence payment (seq 1 before seq 0) with the cert: it
        // must queue, deps unconsumed, at every replica.
        let node = c.node_mut(rep1.0 as usize);
        let step =
            node.debug_submit_with_deps(Payment::new(1u64, 1u64, 2u64, 120u64), vec![cert.clone()]);
        c.submit_step(rep1, step);
        c.run_to_quiescence();
        assert_eq!(c.node(2).pending_len(), 1, "future-seq payment queues");

        // Crash replica 2 here: replay the journal into a fresh replica.
        let mut recovered = AstroTwoReplica::new(
            MacAuthenticator::new(ReplicaId(2), b"astro2".to_vec()),
            layout.clone(),
            cfg(CreditMode::Certificates),
        );
        for rec in sink.0.lock().unwrap().iter() {
            recovered.replay(rec);
        }
        recovered.finish_recovery();
        assert_eq!(recovered.export_state(), c.node(2).export_state());

        // Swap the recovered replica in for the crashed one, then fill
        // the sequence gap: seq 0 settles and the cascade must settle
        // the queued seq 1 from its *recovered* certificate (120 > 100
        // genesis — only the certificate credits cover it).
        *c.node_mut(2) = recovered;
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 3u64, 5u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(
                c.node(i).balance(ClientId(1)),
                Amount(5),
                "replica {i}: 100 + 30 - 5 - 120 = 5"
            );
            assert_eq!(c.node(i).stuck_clients().count(), 0, "replica {i} must not stick");
        }
    }

    type Counted = AstroTwoReplica<astro_brb::testkit::CountingAuth<MacAuthenticator>>;

    /// A four-replica shard whose authenticators count their `verify*`
    /// calls; the counters are returned in replica order.
    fn counted_cluster(
    ) -> (PaymentCluster<Counted>, Vec<astro_brb::testkit::CountingAuth<MacAuthenticator>>) {
        let layout = ShardLayout::single(4).unwrap();
        let auths: Vec<_> = (0..4)
            .map(|i| {
                astro_brb::testkit::CountingAuth::new(MacAuthenticator::new(
                    ReplicaId(i),
                    b"astro2".to_vec(),
                ))
            })
            .collect();
        let c = PaymentCluster::new(auths.iter().map(|a| {
            AstroTwoReplica::new(a.clone(), layout.clone(), cfg(CreditMode::Certificates))
        }));
        (c, auths)
    }

    /// Installs a filter that withholds the first message from `from` to
    /// `to` matching `pick` and hands it back through the returned cell.
    fn withhold<M: Clone + 'static>(
        c: &mut PaymentCluster<impl crate::testkit::PaymentNode<Msg = M>>,
        from: ReplicaId,
        to: ReplicaId,
        pick: fn(&M) -> bool,
    ) -> std::rc::Rc<std::cell::RefCell<Option<M>>> {
        let held = std::rc::Rc::new(std::cell::RefCell::new(None));
        let slot = std::rc::Rc::clone(&held);
        c.set_filter(move |f, t, msg| {
            if f == from && t == to && pick(msg) && slot.borrow().is_none() {
                *slot.borrow_mut() = Some(msg.clone());
                return false;
            }
            true
        });
        held
    }

    #[test]
    fn ack_after_the_commit_left_costs_no_verification() {
        let layout = ShardLayout::single(4).unwrap();
        let (mut c, auths) = counted_cluster();
        let rep = layout.representative_of(ClientId(0));
        let late = ReplicaId((rep.0 + 1) % 4);
        let held =
            withhold(&mut c, late, rep, |m| matches!(m, Astro2Msg::Brb(SignedMsg::Ack { .. })));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.settled(i).len(), 1, "replica {i}: a quorum formed without {late:?}");
        }
        let ack = held.borrow_mut().take().expect("the late ACK was withheld");
        let before = auths[rep.0 as usize].verify_calls();
        let step = c.node_mut(rep.0 as usize).handle(late, ack);
        assert!(step.outbound.is_empty() && step.settled.is_empty());
        assert_eq!(auths[rep.0 as usize].verify_calls(), before, "late ACK dropped unverified");
    }

    #[test]
    fn credit_for_a_covered_bundle_is_acked_without_verification() {
        let layout = ShardLayout::single(4).unwrap();
        let (mut c, auths) = counted_cluster();
        let rep1 = layout.representative_of(ClientId(1));
        let late = ReplicaId((rep1.0 + 1) % 4);
        let held = withhold(&mut c, late, rep1, |m| matches!(m, Astro2Msg::Credit(_)));
        let p = Payment::new(0u64, 0u64, 1u64, 30u64);
        pay(&mut c, &layout, p);
        c.run_to_quiescence();
        let idx = rep1.0 as usize;
        assert_eq!(c.node(idx).held_certificates(ClientId(1)), 1, "certified without {late:?}");
        let credit = held.borrow_mut().take().expect("the late CREDIT was withheld");
        let before = auths[idx].verify_calls();
        let step = c.node_mut(idx).handle(late, credit);
        assert!(step.outbound.is_empty());
        assert_eq!(auths[idx].verify_calls(), before, "covered CREDIT acked unverified");
        // The ack is owed all the same: it leaves on the next flush tick.
        let key: [u8; 32] = credit_context(&[p]).as_slice().try_into().unwrap();
        let acked = c.node_mut(idx).flush().outbound.into_iter().any(|env| {
            env.to == Dest::One(late)
                && matches!(&env.msg, Astro2Msg::CreditAck { digests } if digests.contains(&key))
        });
        assert!(acked, "the sender must stop retransmitting");
    }

    #[test]
    fn forged_credit_arriving_first_is_dropped_and_the_certificate_still_forms() {
        // The CREDIT twin of signed.rs's forged-ACK test: a Byzantine
        // settler's forgery reaches the representative before any genuine
        // CREDIT; it is rejected on arrival, never held as a proof, and the
        // honest settlers alone still certify the bundle.
        use astro_types::{Keychain, SchnorrAuthenticator};
        let layout = ShardLayout::single(4).unwrap();
        let chains = Keychain::deterministic_system(b"forged-credit-first", 4);
        let auths: Vec<SchnorrAuthenticator> =
            chains.into_iter().map(SchnorrAuthenticator::new).collect();
        let mut c = PaymentCluster::new(auths.iter().map(|a| {
            AstroTwoReplica::new(a.clone(), layout.clone(), cfg(CreditMode::Certificates))
        }));
        let rep1 = layout.representative_of(ClientId(1));
        let byz = ReplicaId((rep1.0 + 2) % 4);
        // The Byzantine settler's genuine CREDITs never arrive.
        c.set_filter(move |from, to, msg| {
            !(from == byz && to == rep1 && matches!(msg, Astro2Msg::Credit(_)))
        });
        let p = Payment::new(0u64, 0u64, 1u64, 30u64);
        let ctx = credit_context(&[p]);
        let forged = auths[byz.0 as usize].sign(b"not the credit context");
        let idx = rep1.0 as usize;
        let step = c
            .node_mut(idx)
            .handle(byz, Astro2Msg::Credit(CreditBundle { bundle: vec![p], sig: forged }));
        assert!(step.outbound.is_empty());
        let key: [u8; 32] = ctx.as_slice().try_into().unwrap();
        assert!(!c.node(idx).proto.partial.contains_key(&key), "a forgery is never held");
        pay(&mut c, &layout, p);
        c.run_to_quiescence();
        assert_eq!(c.node(idx).held_certificates(ClientId(1)), 1);
        assert_eq!(c.node(idx).available_balance(ClientId(1)), Amount(130));
        let cert = &c.node(idx).proto.rep_deps[&ClientId(1)][0];
        assert!(cert.proofs.iter().all(|(r, _)| *r != byz), "the forger is not a signer");
        for (signer, sig) in &cert.proofs {
            assert!(auths[0].verify(*signer, &ctx, sig), "proof by {signer:?} verifies");
        }
    }

    #[test]
    fn sig_checks_leave_acks_and_credits_to_the_state_machine() {
        use astro_brb::payload_digest;
        use astro_brb::signed::ack_context;
        use astro_types::Keychain;
        type Msg = Astro2Msg<astro_crypto::Signature>;
        let chains = Keychain::deterministic_system(b"sig-checks", 4);
        let bundle = vec![Payment::new(4u64, 0u64, 1u64, 5u64)];
        let credit_ctx = credit_context(&bundle);
        let cert = DependencyCertificate {
            bundle: bundle.clone(),
            proofs: vec![
                (ReplicaId(1), chains[1].sign(&credit_ctx)),
                (ReplicaId(2), chains[2].sign(&credit_ctx)),
            ],
        };
        let payload = DepBatch {
            entries: vec![DepPayment {
                payment: Payment::new(1u64, 0u64, 2u64, 120u64),
                deps: vec![cert.clone()],
            }],
        };
        let id = InstanceId { source: 1, tag: 0 };
        let ack_ctx = ack_context(id, &payload_digest(id, &payload));
        let proof: Vec<(ReplicaId, astro_crypto::Signature)> =
            (0..3).map(|i| (ReplicaId(i), chains[i as usize].sign(&ack_ctx))).collect();
        let listed = |msg: &Msg| -> Vec<(ReplicaId, Vec<u8>, astro_crypto::Signature)> {
            sig_checks(ReplicaId(3), msg)
                .into_iter()
                .map(|c| (c.signer, c.context.to_vec(), c.sig))
                .collect()
        };
        let cert_checks: Vec<_> =
            cert.proofs.iter().map(|(r, s)| (*r, credit_ctx.clone(), *s)).collect();
        let mut commit_checks: Vec<_> =
            proof.iter().map(|(r, s)| (*r, ack_ctx.clone(), *s)).collect();
        commit_checks.extend(cert_checks.clone());

        let none: Vec<Msg> = vec![
            Astro2Msg::Brb(SignedMsg::Ack {
                id,
                digest: payload_digest(id, &payload),
                sig: chains[3].sign(&ack_ctx),
            }),
            Astro2Msg::Credit(CreditBundle { bundle, sig: chains[3].sign(&credit_ctx) }),
            Astro2Msg::CreditAck { digests: vec![[1; 32]] },
            Astro2Msg::CreditRequest { since: 0 },
        ];
        for msg in &none {
            assert!(listed(msg).is_empty(), "{msg:?} verifies in the state machine");
        }
        let prepare = Astro2Msg::Brb(SignedMsg::Prepare { id, payload: payload.clone() });
        assert_eq!(listed(&prepare), cert_checks, "PREPARE: the certificate proofs");
        let commit = Astro2Msg::Brb(SignedMsg::Commit { id, payload, proof });
        assert_eq!(listed(&commit), commit_checks, "COMMIT: the quorum proof, then certificates");
    }

    #[test]
    fn message_wire_round_trip() {
        use astro_types::wire::decode_exact;
        let auth = MacAuthenticator::new(ReplicaId(0), b"wire".to_vec());
        let bundle = vec![Payment::new(1u64, 0u64, 2u64, 5u64)];
        let sig = auth.sign(&credit_context(&bundle));
        let msgs: Vec<Astro2Msg<astro_types::auth::SimSig>> = vec![
            Astro2Msg::Credit(CreditBundle { bundle, sig }),
            Astro2Msg::CreditAck { digests: vec![[7u8; 32], [9u8; 32]] },
            Astro2Msg::CreditAck { digests: Vec::new() },
            Astro2Msg::CreditRequest { since: 42 },
        ];
        for msg in msgs {
            let bytes = msg.to_wire_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(decode_exact::<Astro2Msg<astro_types::auth::SimSig>>(&bytes).unwrap(), msg);
        }
    }

    /// Drives `rounds` flush ticks on every replica, routing the emitted
    /// retransmissions through the cluster.
    fn tick_flushes(c: &mut PaymentCluster<Replica>, rounds: usize) {
        for _ in 0..rounds {
            for i in 0..c.len() {
                let step = c.node_mut(i).flush();
                c.submit_step(ReplicaId(i as u32), step);
            }
            c.run_to_quiescence();
        }
    }

    #[test]
    fn acked_credits_discharge_the_outbox() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let rep1 = layout.representative_of(ClientId(1));
        assert_eq!(c.node(rep1.0 as usize).held_certificates(ClientId(1)), 1);
        // Acks are batched per destination and ride the flush tick.
        tick_flushes(&mut c, 1);
        for i in 0..4 {
            assert_eq!(c.node(i).outbox_depth(), 0, "replica {i}: every CREDIT was acked");
        }
    }

    #[test]
    fn unacked_credits_retransmit_until_the_representative_certifies() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let rep1 = layout.representative_of(ClientId(1));
        // The beneficiary representative is unreachable for CREDIT
        // traffic: the paper-gap scenario where the unicast dies with the
        // link.
        let block = std::rc::Rc::new(std::cell::Cell::new(true));
        let block_w = std::rc::Rc::clone(&block);
        c.set_filter(move |_from, to, msg| {
            !(block_w.get() && to == rep1 && matches!(msg, Astro2Msg::Credit(_)))
        });
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        assert_eq!(c.node(rep1.0 as usize).held_certificates(ClientId(1)), 0);
        for i in 0..4 {
            if ReplicaId(i as u32) != rep1 {
                assert_eq!(c.node(i).outbox_depth(), 1, "replica {i} retains the unacked CREDIT");
            }
        }
        // The link heals; the flush-timer retransmissions re-deliver, the
        // certificate forms, and the acks drain every outbox. The first
        // retransmission waits out `OUTBOX_BASE_TICKS` flush ticks.
        block.set(false);
        tick_flushes(&mut c, OUTBOX_BASE_TICKS as usize + 2);
        assert_eq!(c.node(rep1.0 as usize).held_certificates(ClientId(1)), 1);
        assert_eq!(c.node(rep1.0 as usize).available_balance(ClientId(1)), Amount(130));
        for i in 0..4 {
            assert_eq!(c.node(i).outbox_depth(), 0, "replica {i} outbox drained");
        }
    }

    #[test]
    fn forged_or_misdirected_acks_do_not_discharge_the_outbox() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let rep1 = layout.representative_of(ClientId(1));
        c.set_filter(move |_from, to, msg| !(to == rep1 && matches!(msg, Astro2Msg::Credit(_))));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        // Pick a settling replica with an outbox entry. An ack carries no
        // signature: the link authenticates its sender, and only the
        // entry's destination may discharge it.
        let donor = (0..4).find(|&i| c.node(i).outbox_depth() == 1).unwrap();
        let digest = *c.node(donor).proto.outbox.keys().next().unwrap();
        // (a) an ack for the real digest from every replica that is not
        // the entry's destination, alone and among other digests.
        for other in (0..4).map(ReplicaId).filter(|&r| r != rep1) {
            for digests in [vec![digest], vec![[0xee; 32], digest]] {
                let step = c.node_mut(donor).handle(other, Astro2Msg::CreditAck { digests });
                assert!(step.outbound.is_empty());
                assert_eq!(c.node(donor).outbox_depth(), 1, "misdirected ack from {other:?}");
            }
        }
        // (b) the destination's ack discharges it.
        c.node_mut(donor).handle(rep1, Astro2Msg::CreditAck { digests: vec![digest] });
        assert_eq!(c.node(donor).outbox_depth(), 0);
    }

    #[test]
    fn credit_request_replays_lost_certificates_from_settled_history() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let rep1 = layout.representative_of(ClientId(1));
        let idx = rep1.0 as usize;
        assert_eq!(c.node(idx).held_certificates(ClientId(1)), 1);
        // Non-durable loss after certification: every donor was acked
        // (acks ride the flush tick), so no outbox entry survives — only
        // settled history can replay it.
        tick_flushes(&mut c, 1);
        c.node_mut(idx).proto.rep_deps.clear();
        c.node_mut(idx).proto.partial.clear();
        for i in 0..4 {
            assert_eq!(c.node(i).outbox_depth(), 0);
        }
        let requests = c.node(idx).credit_request_envelopes();
        assert_eq!(requests.len(), 3);
        let step = ReplicaStep { outbound: requests, settled: Vec::new() };
        c.submit_step(rep1, step);
        c.run_to_quiescence();
        tick_flushes(&mut c, 4);
        // The certificate re-formed from regenerated singleton CREDITs,
        // and the regenerated outbox entries were acked and drained.
        assert_eq!(c.node(idx).held_certificates(ClientId(1)), 1);
        assert_eq!(c.node(idx).available_balance(ClientId(1)), Amount(130));
        for i in 0..4 {
            assert_eq!(c.node(i).outbox_depth(), 0, "replica {i} outbox drained");
        }
        // The replayed funds spend normally.
        pay(&mut c, &layout, Payment::new(1u64, 0u64, 2u64, 120u64));
        c.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(c.node(i).balance(ClientId(1)), Amount(10), "replica {i}");
        }
    }

    #[test]
    fn outbox_survives_export_restore() {
        let layout = ShardLayout::single(4).unwrap();
        let mut c = cluster(1, 4, cfg(CreditMode::Certificates));
        let rep1 = layout.representative_of(ClientId(1));
        c.set_filter(move |_from, to, msg| !(to == rep1 && matches!(msg, Astro2Msg::Credit(_))));
        pay(&mut c, &layout, Payment::new(0u64, 0u64, 1u64, 30u64));
        c.run_to_quiescence();
        let donor = (0..4).find(|&i| c.node(i).outbox_depth() == 1).unwrap();
        let state = c.node(donor).export_state();
        assert_eq!(state.outbox.len(), 1, "unacked CREDIT exported");
        let restored = AstroTwoReplica::restore(
            MacAuthenticator::new(ReplicaId(donor as u32), b"astro2".to_vec()),
            layout.clone(),
            cfg(CreditMode::Certificates),
            &state,
        )
        .unwrap();
        assert_eq!(restored.outbox_depth(), 1, "outbox recovered");
        assert_eq!(restored.export_state(), state, "restore→export is the identity");
        // The state served to catching-up peers clears the (donor-local)
        // outbox, like the certificate store.
        assert!(restored.sync_state(rep1).outbox.is_empty());
    }

    impl crate::replica::shared_tests::Fixture for AstroTwo<MacAuthenticator> {
        fn key(i: u32) -> MacAuthenticator {
            MacAuthenticator::new(ReplicaId(i), b"astro2".to_vec())
        }

        fn config() -> Astro2Config {
            cfg(CreditMode::Certificates)
        }

        fn state(ledger: crate::journal::LedgerState, queued: Vec<Payment>) -> Astro2State {
            Astro2State {
                ledger,
                pending: queued.into_iter().map(|p| (p, Vec::new())).collect(),
                used_deps: Vec::new(),
                stuck: Vec::new(),
                certs: Vec::new(),
                outbox: Vec::new(),
                next_tag: 0,
                cursors: Vec::new(),
            }
        }
    }

    #[test]
    fn chunked_catchup_round_trips_large_history() {
        crate::replica::shared_tests::chunked_catchup_round_trips_large_history::<
            AstroTwo<MacAuthenticator>,
        >();
    }

    #[test]
    fn sync_frames_stay_below_the_wire_cap_for_giant_states() {
        crate::replica::shared_tests::sync_frames_stay_below_the_wire_cap_for_giant_states::<
            AstroTwo<MacAuthenticator>,
        >();
    }

    #[test]
    fn oversized_volatile_head_is_refused_with_a_typed_error() {
        crate::replica::shared_tests::oversized_volatile_head_is_refused_with_a_typed_error::<
            AstroTwo<MacAuthenticator>,
        >();
    }
}
