//! Verify-pipeline equivalence: the same payment workload settled with
//! the parallel verification pool must produce final state byte-identical
//! to serial (on-thread) verification — the pool only moves *where*
//! signature checks run, never what they decide, so the replica state
//! machines cannot tell the difference.

use astro_brb::signed::SignedMsg;
use astro_brb::{Dest, Envelope, InstanceId};
use astro_core::astro2::{Astro2Config, CreditMode, DepPolicy};
use astro_core::batch::{CreditBundle, DepBatch};
use astro_core::{Astro2Msg, AstroTwoReplica, ReplicaStep, SubmitError};
use astro_crypto::Signature;
use astro_runtime::{AstroTwoCluster, Cluster, RuntimeNode, VerifyMode, VerifyPool};
use astro_types::{
    Amount, ClientId, Keychain, Payment, ReplicaId, SchnorrAuthenticator, ShardLayout, SigCheck,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 4;
const FLUSH: Duration = Duration::from_millis(1);
const SETTLE: Duration = Duration::from_secs(30);

/// Interleaved streams with chained spending, so commits, CREDITs, and
/// (via the WhenNeeded policy under tight balances) dependency
/// certificates all cross the wire.
fn workload() -> Vec<Payment> {
    let mut out = Vec::new();
    for seq in 0..20u64 {
        out.push(Payment::new(1u64, seq, 2u64, 3u64));
        out.push(Payment::new(2u64, seq, 3u64, 2u64));
        out.push(Payment::new(3u64, seq, 1u64, 1u64));
    }
    out
}

type Finals = Vec<(HashMap<ClientId, Amount>, usize)>;

fn run(mode: VerifyMode, cfg: Astro2Config, payments: &[Payment]) -> Finals {
    let cluster = AstroTwoCluster::builder(N, cfg, FLUSH)
        .signing(Keychain::deterministic_system(b"verify-pipeline-signing", N))
        .verify(mode)
        .start()
        .expect("cluster starts");
    for p in payments {
        cluster.submit(*p).expect("submit");
    }
    let settled = cluster.wait_settled(payments.len(), SETTLE);
    assert_eq!(settled.len(), payments.len(), "all payments settle under {mode:?}");
    cluster.shutdown()
}

/// Canonical byte serialization of a run's outcome, so "byte-identical"
/// is literal: sorted (client, balance) pairs plus the settled count per
/// replica.
fn canonical_bytes(finals: &Finals) -> Vec<u8> {
    let mut out = Vec::new();
    for (balances, count) in finals {
        let mut entries: Vec<(ClientId, Amount)> = balances.iter().map(|(c, a)| (*c, *a)).collect();
        entries.sort_unstable_by_key(|(c, _)| *c);
        out.extend_from_slice(&(*count as u64).to_be_bytes());
        for (c, a) in entries {
            out.extend_from_slice(&c.0.to_be_bytes());
            out.extend_from_slice(&a.0.to_be_bytes());
        }
    }
    out
}

#[test]
fn pooled_verification_settles_byte_identically_to_serial() {
    let cfg = Astro2Config {
        batch_size: 4,
        initial_balance: Amount(1_000),
        credit_mode: CreditMode::DirectIntraShard,
        ..Astro2Config::default()
    };
    let payments = workload();
    let serial = run(VerifyMode::Serial, cfg.clone(), &payments);
    let pooled = run(VerifyMode::Pooled { threads: 3 }, cfg, &payments);
    assert_eq!(
        canonical_bytes(&serial),
        canonical_bytes(&pooled),
        "pooled and serial verification must settle identical final state"
    );
    // And every replica agrees within each run.
    for finals in [&serial, &pooled] {
        for (balances, count) in finals.iter().skip(1) {
            assert_eq!(balances, &finals[0].0);
            assert_eq!(count, &finals[0].1);
        }
    }
}

#[test]
fn pooled_verification_converges_in_certificate_mode() {
    // Certificate mode: beneficiaries are credited through CREDIT
    // messages and f+1-signature dependency certificates — the heaviest
    // signature traffic the pipeline carries (commit proofs, CREDIT
    // signatures, and certificate proofs all cross the pool). Which
    // certificates a representative has *attached* by shutdown is
    // timing-dependent in any threaded run (serial included), so the
    // cross-run byte comparison lives in the direct-credit test above;
    // here every replica of the pooled run must settle everything and
    // converge to identical state.
    let cfg = Astro2Config {
        batch_size: 2,
        initial_balance: Amount(1_000),
        credit_mode: CreditMode::Certificates,
        dep_policy: astro_core::astro2::DepPolicy::Always,
    };
    let finals = run(VerifyMode::auto(), cfg, &workload());
    for (balances, count) in finals.iter().skip(1) {
        assert_eq!(count, &finals[0].1, "settled counts diverge");
        assert_eq!(balances, &finals[0].0, "balances diverge");
    }
}

/// One seat of the Byzantine scenario below. The forger races: it
/// answers every other replica's PREPARE at once with a forged ACK and
/// with forged CREDITs, bundled per beneficiary representative as
/// settlement would bundle them, before any honest replica has signed
/// its ACK and before a genuine CREDIT for the batch can exist. It
/// settles from COMMITs like everyone else, and every CREDIT it sends
/// later carries the same forgery. Honest seats audit what they emit: a
/// COMMIT proof or an attached certificate naming the forger would mean
/// a forgery counted.
struct Seat {
    inner: AstroTwoReplica<SchnorrAuthenticator>,
    layout: ShardLayout,
    forger: ReplicaId,
    /// The forger's genuine key over the wrong bytes, so only
    /// verification tells it apart; `None` at honest seats.
    forged: Option<Signature>,
    forgeries_counted: Arc<AtomicUsize>,
}

type Msg = Astro2Msg<Signature>;

impl Seat {
    fn pass(&self, mut step: ReplicaStep<Msg>) -> ReplicaStep<Msg> {
        if let Some(forged) = self.forged {
            for env in &mut step.outbound {
                if let Astro2Msg::Credit(cb) = &mut env.msg {
                    cb.sig = forged;
                }
            }
            return step;
        }
        let names_forger =
            |proofs: &[(ReplicaId, Signature)]| proofs.iter().any(|(r, _)| *r == self.forger);
        let certs_name_forger = |payload: &DepBatch<Signature>| {
            payload.entries.iter().flat_map(|e| &e.deps).any(|c| names_forger(&c.proofs))
        };
        for env in &step.outbound {
            let counted = match &env.msg {
                Astro2Msg::Brb(SignedMsg::Commit { payload, proof, .. }) => {
                    names_forger(proof) || certs_name_forger(payload)
                }
                Astro2Msg::Brb(SignedMsg::Prepare { payload, .. }) => certs_name_forger(payload),
                _ => false,
            };
            if counted {
                self.forgeries_counted.fetch_add(1, Ordering::Relaxed);
            }
        }
        step
    }

    /// The forger's answer to a PREPARE from `from`, sent instead of
    /// handling it.
    fn race(
        &self,
        from: ReplicaId,
        forged: Signature,
        id: InstanceId,
        payload: &DepBatch<Signature>,
    ) -> ReplicaStep<Msg> {
        let digest = astro_brb::payload_digest(id, payload);
        let mut outbound = vec![Envelope {
            to: Dest::One(from),
            msg: Astro2Msg::Brb(SignedMsg::Ack { id, digest, sig: forged }),
        }];
        let mut by_rep: BTreeMap<ReplicaId, Vec<Payment>> = BTreeMap::new();
        for entry in &payload.entries {
            let rep = self.layout.representative_of(entry.payment.beneficiary);
            by_rep.entry(rep).or_default().push(entry.payment);
        }
        outbound.extend(by_rep.into_iter().filter(|(rep, _)| *rep != self.forger).map(
            |(rep, bundle)| Envelope {
                to: Dest::One(rep),
                msg: Astro2Msg::Credit(CreditBundle { bundle, sig: forged }),
            },
        ));
        ReplicaStep { outbound, settled: Vec::new() }
    }
}

impl RuntimeNode for Seat {
    type Msg = Msg;

    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Msg>, SubmitError> {
        let step = self.inner.submit(payment)?;
        Ok(self.pass(step))
    }

    fn handle(&mut self, from: ReplicaId, msg: Msg) -> ReplicaStep<Msg> {
        if let (Some(forged), Astro2Msg::Brb(SignedMsg::Prepare { id, payload })) =
            (self.forged, &msg)
        {
            // Its own broadcasts it runs honestly: a forged ACK to itself
            // would only sink its own clients' payments.
            if from != self.forger {
                return self.race(from, forged, *id, payload);
            }
        }
        let step = RuntimeNode::handle(&mut self.inner, from, msg);
        self.pass(step)
    }

    fn flush(&mut self) -> ReplicaStep<Msg> {
        let step = self.inner.flush();
        self.pass(step)
    }

    fn final_balances(&self) -> HashMap<ClientId, Amount> {
        RuntimeNode::final_balances(&self.inner)
    }

    fn total_settled(&self) -> usize {
        RuntimeNode::total_settled(&self.inner)
    }

    fn available_balance(&self, client: ClientId) -> Amount {
        self.inner.available_balance(client)
    }

    fn preverify(&self, from: ReplicaId, msg: &Msg) -> Vec<SigCheck> {
        RuntimeNode::preverify(&self.inner, from, msg)
    }

    fn attach_registry(&mut self, registry: &Arc<astro_obs::Registry>) {
        RuntimeNode::attach_registry(&mut self.inner, registry);
    }
}

/// Runs the forger scenario under `mode` and returns the final state
/// plus the `verify.verdicts_computed` reading (0 without a pool).
fn run_with_forger(mode: VerifyMode) -> (Finals, u64) {
    use astro_net::Transport;

    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 10;
    let forger = ReplicaId(3);
    let cfg = Astro2Config {
        batch_size: 2,
        initial_balance: Amount(1_000),
        credit_mode: CreditMode::Certificates,
        dep_policy: DepPolicy::WhenNeeded,
    };
    let layout = ShardLayout::single(N).unwrap();
    let signing = Keychain::deterministic_system(b"verify-pipeline-forger", N);
    let pool = match mode {
        VerifyMode::Serial => None,
        VerifyMode::Pooled { threads } => {
            Some(VerifyPool::start(threads, signing[0].book().clone()))
        }
    };
    let counted = Arc::new(AtomicUsize::new(0));
    let seats: Vec<Seat> = signing
        .iter()
        .map(|kc| {
            let auth = match &pool {
                Some(pool) => SchnorrAuthenticator::with_cache(kc.clone(), pool.cache()),
                None => SchnorrAuthenticator::new(kc.clone()),
            };
            Seat {
                inner: AstroTwoReplica::new(auth, layout.clone(), cfg.clone()),
                layout: layout.clone(),
                forger,
                forged: (kc.id() == forger).then(|| kc.sign(b"forged")),
                forgeries_counted: Arc::clone(&counted),
            }
        })
        .collect();
    let registry = astro_obs::Registry::new();
    let endpoints = astro_net::InProcTransport::new(N).into_endpoints();
    let cluster = Cluster::start_endpoints_observed(
        seats,
        endpoints,
        layout,
        FLUSH,
        pool,
        Some(Arc::clone(&registry)),
    )
    .expect("cluster starts");

    // Round 1: every client pays the next one within its genesis balance.
    // Every broadcast needs the forger's ACK or two honest ones, so each
    // commit is formed from honest ACKs alone; every CREDIT bundle must
    // be certified without the forger's signature.
    let pay = |c: u64, seq: u64, amount: u64| Payment::new(c, seq, (c + 1) % CLIENTS, amount);
    for seq in 0..ROUNDS {
        for c in 0..CLIENTS {
            cluster.submit(pay(c, seq, 10)).expect("submit");
        }
    }
    let first = (CLIENTS * ROUNDS) as usize;
    assert!(
        cluster.wait_settled_among(&[0, 1, 2, 3], first, SETTLE),
        "commits form without the forger's ACKs under {mode:?}"
    );
    // Every credit is certified at its beneficiary's representative.
    for c in 0..CLIENTS {
        let rep = (c % N as u64) as usize;
        let deadline = std::time::Instant::now() + SETTLE;
        loop {
            let (_, available) = cluster.probe_balance(rep, ClientId(c)).expect("probe");
            if available == Amount(1_000) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "client {c}'s certificates never formed");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    // Round 2: clients 0 and 2 spend past their ledger balance (900),
    // which only the certificates just formed can fund. Their
    // beneficiaries do not spend again, so which certificates each
    // payment carries does not depend on timing.
    for c in [0, 2] {
        cluster.submit(pay(c, ROUNDS, 950)).expect("submit");
    }
    assert!(
        cluster.wait_settled_among(&[0, 1, 2, 3], first + 2, SETTLE),
        "certificate-funded payments settle under {mode:?}"
    );
    let computed = registry.snapshot().gauge("verify.verdicts_computed").unwrap_or(0);
    let finals = cluster.shutdown();
    assert_eq!(counted.load(Ordering::Relaxed), 0, "a forged signature counted under {mode:?}");
    (finals, computed)
}

#[test]
fn forged_acks_and_credits_never_count_and_pooled_matches_serial() {
    // ACK and CREDIT signatures are not pre-verified by the pool: they
    // are checked on the replica thread while they can still count. A
    // Byzantine replica forging all of them must change nothing.
    let (serial, _) = run_with_forger(VerifyMode::Serial);
    let (pooled, computed) = run_with_forger(VerifyMode::Pooled { threads: 2 });
    assert!(computed > 0, "the pool exports verify.verdicts_computed");
    assert_eq!(
        canonical_bytes(&serial),
        canonical_bytes(&pooled),
        "pooled and serial verification must settle identical final state"
    );
    for (balances, count) in &pooled {
        assert_eq!(*count, 42);
        // Spenders: 1000 - 10·10 sent + 10·10 materialized - 950. The
        // others hold their credits as certificates, off the ledger.
        for (c, want) in [(0u64, 50u64), (1, 900), (2, 50), (3, 900)] {
            assert_eq!(balances[&ClientId(c)], Amount(want), "client {c}");
        }
    }
}
