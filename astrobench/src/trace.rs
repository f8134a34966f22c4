//! The traced run's instrumentation: wrappers around the public traits
//! each layer is called through, recording span durations and counts.
//!
//! - [`TracedAuth`] wraps `astro_types::Authenticator` (crypto);
//! - [`TracedNode`] wraps `astro_runtime::RuntimeNode` (core, and the
//!   `DurableNode` shell around it);
//! - [`TracedJournal`] wraps `astro_core::journal::Journal` (store);
//! - [`TracedEndpoint`] wraps `astro_net::Endpoint` (net).
//!
//! Spans are aggregated in memory, never logged one by one. A span's self
//! time is its duration minus the spans nested in it on the same thread:
//! a node's `handle` minus the signature checks and journal appends it
//! made, the durable shell's step minus the node step it wrapped.

use astro_brb::Dest;
use astro_core::astro1::Astro1Msg;
use astro_core::astro2::{Astro2Msg, AstroTwoReplica};
use astro_core::journal::{Journal, WalRecord};
use astro_core::{CoreObs, ReplicaStep, SubmitError};
use astro_net::{Endpoint, NetError, Payload};
use astro_runtime::{PersistentNode, RuntimeNode};
use astro_types::{Amount, Authenticator, ClientId, Payment, ReplicaId, SchnorrAuthenticator};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// Nanoseconds covered by closed spans nested in the current one.
    static NESTED: Cell<u64> = const { Cell::new(0) };
}

/// An open span on this thread.
struct Span {
    start: Instant,
    nested_before: u64,
}

impl Span {
    fn open() -> Span {
        Span { start: Instant::now(), nested_before: NESTED.with(Cell::get) }
    }

    /// Closes the span into `op`, counting `items` units of work. The
    /// enclosing span sees this span's whole duration as nested time.
    fn close(self, op: &Op, items: u64) {
        let total = self.start.elapsed().as_nanos() as u64;
        let nested = NESTED.with(|n| {
            let inner = n.get() - self.nested_before;
            n.set(self.nested_before + total);
            inner
        });
        op.record(total, total.saturating_sub(nested), items);
    }
}

/// Aggregate of one operation: calls, wall and self nanoseconds, and
/// units of work (signatures, bytes, payments).
#[derive(Default, Debug)]
pub struct Op {
    calls: AtomicU64,
    total_nanos: AtomicU64,
    self_nanos: AtomicU64,
    items: AtomicU64,
}

impl Op {
    fn record(&self, total: u64, own: u64, items: u64) {
        // Relaxed: statistics only, read after every replica has stopped.
        self.calls.fetch_add(1, Relaxed);
        self.total_nanos.fetch_add(total, Relaxed);
        self.self_nanos.fetch_add(own, Relaxed);
        self.items.fetch_add(items, Relaxed);
    }

    pub fn read(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Relaxed),
            total_nanos: self.total_nanos.load(Relaxed),
            self_nanos: self.self_nanos.load(Relaxed),
            items: self.items.load(Relaxed),
        }
    }
}

/// A point-in-time copy of an [`Op`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpTotals {
    pub calls: u64,
    pub total_nanos: u64,
    pub self_nanos: u64,
    pub items: u64,
}

impl OpTotals {
    /// Mean self time per call, µs (0 when never called).
    pub fn self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_nanos as f64 / self.calls as f64 / 1e3
        }
    }

    pub fn since(&self, earlier: &OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls - earlier.calls,
            total_nanos: self.total_nanos - earlier.total_nanos,
            self_nanos: self.self_nanos - earlier.self_nanos,
            items: self.items - earlier.items,
        }
    }
}

/// Every span aggregate of one traced cluster, shared by its replicas.
#[derive(Default, Debug)]
pub struct Stats {
    pub sign: Op,
    /// Items: signatures checked.
    pub verify: Op,
    pub core_submit: Op,
    pub core_handle: Op,
    /// Items: payments in the batches the flushes broadcast.
    pub core_flush: Op,
    /// Batches broadcast by submits and flushes; items: their payments.
    pub batches: Op,
    /// The durable shell around the node (`DurableNode` self time).
    pub durable_step: Op,
    /// Items: journal records.
    pub journal: Op,
    /// `send` and `broadcast`; items: frames handed to the transport.
    pub net_send: Op,
    pub net_uncork: Op,
    /// Time blocked in `recv_timeout`; items: messages received.
    pub net_recv: Op,
}

/// A copy of every aggregate in [`Stats`], subtractable across a window.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsTotals {
    pub sign: OpTotals,
    pub verify: OpTotals,
    pub core_submit: OpTotals,
    pub core_handle: OpTotals,
    pub core_flush: OpTotals,
    pub batches: OpTotals,
    pub durable_step: OpTotals,
    pub journal: OpTotals,
    pub net_send: OpTotals,
    pub net_uncork: OpTotals,
    pub net_recv: OpTotals,
}

impl Stats {
    pub fn read(&self) -> StatsTotals {
        StatsTotals {
            sign: self.sign.read(),
            verify: self.verify.read(),
            core_submit: self.core_submit.read(),
            core_handle: self.core_handle.read(),
            core_flush: self.core_flush.read(),
            batches: self.batches.read(),
            durable_step: self.durable_step.read(),
            journal: self.journal.read(),
            net_send: self.net_send.read(),
            net_uncork: self.net_uncork.read(),
            net_recv: self.net_recv.read(),
        }
    }
}

impl StatsTotals {
    pub fn since(&self, e: &StatsTotals) -> StatsTotals {
        StatsTotals {
            sign: self.sign.since(&e.sign),
            verify: self.verify.since(&e.verify),
            core_submit: self.core_submit.since(&e.core_submit),
            core_handle: self.core_handle.since(&e.core_handle),
            core_flush: self.core_flush.since(&e.core_flush),
            batches: self.batches.since(&e.batches),
            durable_step: self.durable_step.since(&e.durable_step),
            journal: self.journal.since(&e.journal),
            net_send: self.net_send.since(&e.net_send),
            net_uncork: self.net_uncork.since(&e.net_uncork),
            net_recv: self.net_recv.since(&e.net_recv),
        }
    }
}

/// An `Authenticator` that times every sign and verify call.
#[derive(Clone)]
pub struct TracedAuth {
    inner: SchnorrAuthenticator,
    stats: Arc<Stats>,
}

impl TracedAuth {
    pub fn new(inner: SchnorrAuthenticator, stats: Arc<Stats>) -> TracedAuth {
        TracedAuth { inner, stats }
    }
}

impl Authenticator for TracedAuth {
    type Sig = <SchnorrAuthenticator as Authenticator>::Sig;

    fn me(&self) -> ReplicaId {
        self.inner.me()
    }

    fn sign(&self, message: &[u8]) -> Self::Sig {
        let span = Span::open();
        let sig = self.inner.sign(message);
        span.close(&self.stats.sign, 1);
        sig
    }

    fn verify(&self, peer: ReplicaId, message: &[u8], sig: &Self::Sig) -> bool {
        let span = Span::open();
        let ok = self.inner.verify(peer, message, sig);
        span.close(&self.stats.verify, 1);
        ok
    }

    fn verify_all(&self, message: &[u8], sigs: &[(ReplicaId, &Self::Sig)]) -> bool {
        let span = Span::open();
        let ok = self.inner.verify_all(message, sigs);
        span.close(&self.stats.verify, sigs.len() as u64);
        ok
    }

    fn verify_each(&self, message: &[u8], sigs: &[(ReplicaId, &Self::Sig)]) -> Vec<bool> {
        let span = Span::open();
        let ok = self.inner.verify_each(message, sigs);
        span.close(&self.stats.verify, sigs.len() as u64);
        ok
    }
}

/// A journal that times every appended record (including any group
/// commit fsync the append triggers).
pub struct TracedJournal {
    inner: Box<dyn Journal>,
    stats: Arc<Stats>,
}

impl Journal for TracedJournal {
    fn record(&mut self, record: &WalRecord) {
        let span = Span::open();
        self.inner.record(record);
        span.close(&self.stats.journal, 1);
    }
}

/// Messages whose broadcast starts a batch report its payment count.
pub trait BatchMsg {
    /// Payments carried, if this message is a batch's PREPARE.
    fn batch_len(&self) -> Option<usize>;
}

impl BatchMsg for Astro1Msg {
    fn batch_len(&self) -> Option<usize> {
        match self {
            Astro1Msg::Brb(astro_brb::bracha::BrachaMsg::Prepare { payload, .. }) => {
                Some(payload.payments.len())
            }
            _ => None,
        }
    }
}

impl<S> BatchMsg for Astro2Msg<S> {
    fn batch_len(&self) -> Option<usize> {
        match self {
            Astro2Msg::Brb(astro_brb::signed::SignedMsg::Prepare { payload, .. }) => {
                Some(payload.entries.len())
            }
            _ => None,
        }
    }
}

/// Which layer a [`TracedNode`] stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The protocol state machine (BRB, ledger, journal calls).
    Core,
    /// The durable shell around a traced core node.
    Durable,
}

/// A `RuntimeNode` (and, when the inner node is one, `PersistentNode`)
/// that times every step the driver makes.
pub struct TracedNode<N> {
    inner: N,
    stats: Arc<Stats>,
    role: Role,
}

impl<N> TracedNode<N> {
    pub fn new(inner: N, stats: Arc<Stats>, role: Role) -> TracedNode<N> {
        TracedNode { inner, stats, role }
    }

    fn step<M: BatchMsg>(&self, span: Span, core_op: &Op, step: &ReplicaStep<M>) {
        match self.role {
            Role::Durable => span.close(&self.stats.durable_step, 0),
            Role::Core => {
                let mut payments = 0;
                for env in &step.outbound {
                    if let (Dest::All, Some(len)) = (&env.to, env.msg.batch_len()) {
                        payments += len as u64;
                        self.stats.batches.record(0, 0, len as u64);
                    }
                }
                span.close(core_op, payments);
            }
        }
    }
}

impl<N> RuntimeNode for TracedNode<N>
where
    N: RuntimeNode,
    N::Msg: BatchMsg,
{
    type Msg = N::Msg;

    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Self::Msg>, SubmitError> {
        let span = Span::open();
        let result = self.inner.submit(payment);
        match &result {
            Ok(step) => self.step(span, &self.stats.core_submit, step),
            Err(_) => self.step(span, &self.stats.core_submit, &ReplicaStep::<N::Msg>::empty()),
        }
        result
    }

    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg> {
        let span = Span::open();
        let step = self.inner.handle(from, msg);
        self.step(span, &self.stats.core_handle, &step);
        step
    }

    fn flush(&mut self) -> ReplicaStep<Self::Msg> {
        let span = Span::open();
        let step = self.inner.flush();
        self.step(span, &self.stats.core_flush, &step);
        step
    }

    fn final_balances(&self) -> HashMap<ClientId, Amount> {
        self.inner.final_balances()
    }

    fn total_settled(&self) -> usize {
        self.inner.total_settled()
    }

    fn available_balance(&self, client: ClientId) -> Amount {
        self.inner.available_balance(client)
    }

    fn stopping(&mut self) {
        self.inner.stopping();
    }

    fn preverify(&self, from: ReplicaId, msg: &Self::Msg) -> Vec<astro_types::SigCheck> {
        self.inner.preverify(from, msg)
    }

    fn attach_registry(&mut self, registry: &Arc<astro_obs::Registry>) {
        self.inner.attach_registry(registry);
    }
}

impl<N> PersistentNode for TracedNode<N>
where
    N: PersistentNode,
    N::Msg: BatchMsg,
{
    fn set_journal(&mut self, journal: Box<dyn Journal>) {
        let stats = Arc::clone(&self.stats);
        self.inner.set_journal(Box::new(TracedJournal { inner: journal, stats }));
    }

    fn seal_checkpoint_records(&mut self) -> Vec<Vec<u8>> {
        self.inner.seal_checkpoint_records()
    }

    fn residual_state_bytes(&self, sealed_segments: u64) -> Vec<u8> {
        self.inner.residual_state_bytes(sealed_segments)
    }

    fn rebaseline(&mut self) {
        self.inner.rebaseline();
    }

    fn prune_delivered(&mut self) {
        self.inner.prune_delivered();
    }

    fn begin_catchup(&mut self) {
        self.inner.begin_catchup();
    }

    fn take_snapshot_request(&mut self) -> bool {
        self.inner.take_snapshot_request()
    }
}

/// Tracked-instance count at which the stock runtime prunes delivered
/// broadcast instances; mirrored so the traced Astro II node keeps the
/// same memory behaviour.
const BRB_GC_HIGH_WATER: usize = 256;

/// An Astro II replica over a [`TracedAuth`]. The runtime implements
/// `RuntimeNode` only for the Schnorr authenticator itself, so the traced
/// run hosts the replica through this newtype, which does exactly what
/// the stock implementation does.
pub struct TracedTwo(pub AstroTwoReplica<TracedAuth>);

impl RuntimeNode for TracedTwo {
    type Msg = Astro2Msg<astro_crypto::Signature>;

    fn id(&self) -> ReplicaId {
        self.0.id()
    }

    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Self::Msg>, SubmitError> {
        self.0.submit(payment)
    }

    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg> {
        let step = self.0.handle(from, msg);
        if self.0.tracked_instances() >= BRB_GC_HIGH_WATER {
            self.0.prune_delivered();
        }
        step
    }

    fn flush(&mut self) -> ReplicaStep<Self::Msg> {
        self.0.flush()
    }

    fn final_balances(&self) -> HashMap<ClientId, Amount> {
        ledger_balances(self.0.ledger())
    }

    fn total_settled(&self) -> usize {
        self.0.ledger().total_settled()
    }

    fn available_balance(&self, client: ClientId) -> Amount {
        self.0.available_balance(client)
    }

    fn preverify(&self, from: ReplicaId, msg: &Self::Msg) -> Vec<astro_types::SigCheck> {
        astro_core::astro2::sig_checks(from, msg)
    }

    fn attach_registry(&mut self, registry: &Arc<astro_obs::Registry>) {
        let me = self.0.id().0;
        self.0.set_obs(CoreObs::for_replica(registry, me));
    }
}

/// The balance map the stock runtime reports: every client that appears
/// in an xlog, with its ledger balance.
fn ledger_balances(ledger: &astro_core::Ledger) -> HashMap<ClientId, Amount> {
    let mut clients: Vec<ClientId> =
        ledger.xlogs().flat_map(|x| x.iter().flat_map(|p| [p.spender, p.beneficiary])).collect();
    clients.sort_unstable();
    clients.dedup();
    clients.into_iter().map(|c| (c, ledger.balance(c))).collect()
}

/// An `Endpoint` that times sends, uncorks and receive waits.
pub struct TracedEndpoint<E> {
    inner: E,
    stats: Arc<Stats>,
}

impl<E> TracedEndpoint<E> {
    pub fn new(inner: E, stats: Arc<Stats>) -> TracedEndpoint<E> {
        TracedEndpoint { inner, stats }
    }
}

impl<E: Endpoint> Endpoint for TracedEndpoint<E> {
    fn local(&self) -> ReplicaId {
        self.inner.local()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send(&mut self, to: ReplicaId, payload: &[u8]) -> Result<(), NetError> {
        let span = Span::open();
        let r = self.inner.send(to, payload);
        span.close(&self.stats.net_send, 1);
        r
    }

    fn broadcast(&mut self, payload: &[u8]) -> Result<(), NetError> {
        let span = Span::open();
        let r = self.inner.broadcast(payload);
        span.close(&self.stats.net_send, self.inner.n() as u64);
        r
    }

    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(ReplicaId, Payload)>, NetError> {
        let span = Span::open();
        let r = self.inner.recv_timeout(timeout);
        span.close(&self.stats.net_recv, u64::from(matches!(r, Ok(Some(_)))));
        r
    }

    fn cork(&mut self) {
        self.inner.cork();
    }

    fn uncork(&mut self) -> Result<(), NetError> {
        let span = Span::open();
        let r = self.inner.uncork();
        span.close(&self.stats.net_uncork, 0);
        r
    }

    fn attach_registry(&mut self, registry: &Arc<astro_obs::Registry>) {
        self.inner.attach_registry(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_report_self_time() {
        let (outer, inner) = (Op::default(), Op::default());
        let o = Span::open();
        std::thread::sleep(Duration::from_millis(2));
        let i = Span::open();
        std::thread::sleep(Duration::from_millis(5));
        i.close(&inner, 3);
        o.close(&outer, 0);
        let (o, i) = (outer.read(), inner.read());
        assert_eq!((o.calls, i.calls, i.items), (1, 1, 3));
        assert_eq!(i.self_nanos, i.total_nanos);
        assert_eq!(o.self_nanos, o.total_nanos - i.total_nanos);
        assert!(o.self_nanos >= 2_000_000 && o.self_nanos < i.total_nanos);
    }
}
