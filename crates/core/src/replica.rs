//! The replica shell shared by Astro I and Astro II.
//!
//! In the paper the two protocols differ only in the broadcast primitive
//! and the crediting rule; state transfer to a restarted replica
//! (Appendix A of the extended version) is the same for both. [`Replica`]
//! holds everything the two share: client batching, the approval queue,
//! the journal and metric hooks, peer catch-up (parking broadcast traffic,
//! pacing request retries, the chunked serve/collect/install flow),
//! checkpoint sealing, and recovery from snapshots and the WAL. A
//! [`Protocol`] supplies only what differs: the message type, the BRB
//! flavour, the delivered-batch apply rule, the snapshot types, and the
//! protocol-specific install checks.
//!
//! Every protocol hook is a statically dispatched associated function:
//! the per-message path (`handle`, `flush`, apply) has no dynamic
//! dispatch.

use crate::journal::{
    block_counts, merge_history_blocks, split_history_blocks, CheckpointRecord, Journal,
    JournalSlot, RecoverError, ResidualState, SyncBlock, SyncHead, SyncState, WalRecord,
    SYNC_HEAD_MAX_BYTES,
};
use crate::ledger::Ledger;
use crate::obs::CoreObs;
use crate::pending::PendingQueue;
use crate::reconfig::{BlockVotes, CatchUp, ReconfigMsg, SyncError, SyncServeError};
use crate::xlog::XLogError;
use crate::{ReplicaStep, SubmitError};
use astro_brb::{Broadcast, Dest, Envelope, InstanceId};
use astro_types::wire::{decode_exact, Wire};
use astro_types::{Amount, ClientId, Group, Payment, ReplicaId, ShardLayout};
use std::collections::{HashMap, VecDeque};

/// Broadcast messages a catching-up replica may park before the
/// transferred cursor is installed. Overflow drops the *oldest* message:
/// old messages belong to instances the certified state (which keeps
/// advancing at the donors while we retry) will cover, while the newest
/// are exactly the ones replay needs after the install — dropping those
/// would leave an unfillable FIFO gap, since BRB never retransmits.
const SYNC_BUFFER_CAP: usize = 8192;

/// Flush ticks between catch-up request retries (the driver flushes on
/// its batch timer, so a retry goes out roughly every
/// `SYNC_RETRY_TICKS × flush_every`).
const SYNC_RETRY_TICKS: u32 = 16;

/// Retry rounds after which a catch-up started with a local-state
/// fallback gives up and resumes from what it recovered on its own
/// (see [`Replica::begin_catchup_with_fallback`]). With the runtime's
/// millisecond flush timers this is a few seconds.
const SYNC_FALLBACK_ROUNDS: u32 = 256;

/// The broadcast-layer message type of a protocol.
pub type BrbMsg<P> = <<P as Protocol>::Brb as Broadcast>::Msg;

/// The broadcast payload type of a protocol.
pub type BrbPayload<P> = <<P as Protocol>::Brb as Broadcast>::Payload;

/// What a protocol's constructor hands the shell.
pub struct Parts<P: Protocol> {
    /// This replica's id.
    pub me: ReplicaId,
    /// The replica's broadcast group (and catch-up donor set).
    pub group: Group,
    /// The broadcast layer.
    pub brb: P::Brb,
    /// The protocol-specific state.
    pub protocol: P,
    /// Payments per broadcast batch.
    pub batch_size: usize,
    /// Genesis balance of every client.
    pub initial_balance: Amount,
}

/// What differs between Astro I and Astro II. Implementations hold the
/// protocol-specific replica state; the hooks receive the whole
/// [`Replica`] so they can reach the shared ledger, queue and journal.
pub trait Protocol: Sized {
    /// What identifies a replica at construction: its id (Astro I) or its
    /// signing authenticator (Astro II).
    type Key;
    /// The replica configuration.
    type Config;
    /// The signature type catch-up messages are instantiated with.
    type Sig: Wire + Clone + PartialEq + Eq + core::fmt::Debug;
    /// The replica-to-replica message type.
    type Msg: Clone + core::fmt::Debug;
    /// The BRB flavour.
    type Brb: Broadcast<Msg: core::fmt::Debug>;
    /// One payment waiting in the client batch.
    type Entry: core::fmt::Debug;
    /// What a queued payment carries while it awaits approval.
    type Deps: core::fmt::Debug;
    /// The full snapshot (and catch-up) state.
    type State: SyncState;
    /// The residual snapshot written next to checkpoint segments.
    type Snapshot: ResidualState;

    /// Builds the shell's parts for a fresh replica.
    fn init(key: Self::Key, layout: &ShardLayout, cfg: Self::Config) -> Parts<Self>;

    /// Wraps broadcast-layer traffic into the message type.
    fn brb_msg(msg: BrbMsg<Self>) -> Self::Msg;

    /// Wraps catch-up traffic into the message type.
    fn sync_msg(msg: ReconfigMsg<Self::Sig>) -> Self::Msg;

    /// Routes one inbound message: broadcast and catch-up traffic to the
    /// shell's shared handlers, anything else to protocol-specific ones.
    fn handle(
        replica: &mut Replica<Self>,
        from: ReplicaId,
        msg: Self::Msg,
    ) -> ReplicaStep<Self::Msg>;

    /// Turns an accepted client payment into a batch entry (the
    /// representative check has passed).
    ///
    /// # Errors
    ///
    /// Protocol-specific submission rejections.
    fn admit(replica: &mut Replica<Self>, payment: Payment) -> Result<Self::Entry, SubmitError>;

    /// Flush-timer duties that run before the batch is cut, even while
    /// catching up. Default: none.
    fn tick(replica: &mut Replica<Self>, outbound: &mut Vec<Envelope<Self::Msg>>) {
        let _ = (replica, outbound);
    }

    /// Turns a cut batch into the broadcast payload, journaling whatever
    /// must be durable before the PREPARE leaves.
    fn seal_batch(replica: &mut Replica<Self>, entries: Vec<Self::Entry>) -> BrbPayload<Self>;

    /// Applies a BRB-delivered batch.
    fn apply(
        replica: &mut Replica<Self>,
        id: InstanceId,
        payload: BrbPayload<Self>,
        out: &mut ReplicaStep<Self::Msg>,
    );

    /// Decodes the dependencies journaled or snapshotted with a queued
    /// payment.
    fn decode_deps(bytes: &[Vec<u8>]) -> Self::Deps;

    /// Replays a WAL record outside the shared vocabulary (`Delivered`,
    /// `Settle`, `Queued`, `OwnTag`). Default: ignored.
    fn replay(replica: &mut Replica<Self>, record: &WalRecord) {
        let _ = (replica, record);
    }

    /// Exports the full durable state.
    fn export_state(replica: &Replica<Self>) -> Self::State;

    /// The residual snapshot on top of `sealed_segments` segments.
    fn residual_state(replica: &Replica<Self>, sealed_segments: u64) -> Self::Snapshot;

    /// Restores the protocol-specific sections of a full state (the
    /// shell restores ledger, tag counter and cursors).
    fn restore_state(replica: &mut Replica<Self>, state: &Self::State);

    /// Restores the protocol-specific sections of a residual snapshot.
    fn restore_residual(replica: &mut Replica<Self>, residual: &Self::Snapshot);

    /// Never-regress checks beyond the shared xlog and cursor checks.
    ///
    /// # Errors
    ///
    /// [`SyncError::Stale`] if installing would lose local effects.
    fn check_install(replica: &Replica<Self>, state: &Self::State) -> Result<(), SyncError> {
        let _ = (replica, state);
        Ok(())
    }

    /// Installs the protocol-specific sections of a certified state
    /// (after the ledger was replaced).
    fn install_state(replica: &mut Replica<Self>, state: &Self::State);

    /// Messages a replica sends when it rejoins after a catch-up, whether
    /// it installed a certified state or fell back to its local one.
    /// Default: none.
    fn rejoined(replica: &Replica<Self>, outbound: &mut Vec<Envelope<Self::Msg>>) {
        let _ = (replica, outbound);
    }
}

/// An in-progress catch-up: the response collector plus the broadcast
/// traffic paused until the transferred state is installed.
#[derive(Debug)]
struct SyncSession<M> {
    votes: CatchUp,
    /// Chunked-transfer block collector. Certified blocks persist across
    /// head retries: history certification is monotonic even while the
    /// donors keep settling.
    blocks: BlockVotes,
    /// A certified head whose referenced blocks are not all certified
    /// yet (install completes as the last block lands).
    certified_head: Option<Vec<u8>>,
    buffered: VecDeque<(ReplicaId, M)>,
    /// Flush ticks until the next request retry (0 = send now).
    ticks: u32,
    /// Requests sent so far this session (`requests - 1` = retries).
    requests: u32,
    /// Remaining request rounds before giving up, when the replica has a
    /// locally recovered state to fall back to. `None` = no fallback:
    /// the replica must certify before it may participate (a replica
    /// with no local state cannot safely pick a broadcast tag floor).
    rounds_left: Option<u32>,
}

impl<M> SyncSession<M> {
    fn park(&mut self, from: ReplicaId, msg: M) {
        if self.buffered.len() >= SYNC_BUFFER_CAP {
            self.buffered.pop_front();
        }
        self.buffered.push_back((from, msg));
    }

    /// Accounts one request round; true when the fallback budget is
    /// exhausted and the replica should resume from its local state.
    fn exhausted(&mut self) -> bool {
        match &mut self.rounds_left {
            None => false,
            Some(0) => true,
            Some(rounds) => {
                *rounds -= 1;
                false
            }
        }
    }
}

/// Outcome of reassembling a certified sync head with its blocks.
enum Assembly<S> {
    /// Referenced blocks are still certifying.
    Pending,
    /// The certified transfer does not decode or merge.
    Invalid,
    /// The full state, ready to install.
    Ready(S),
}

/// Reassembles a certified head and the certified history blocks it
/// references into a full state.
fn assemble<S: SyncState>(head: &[u8], blocks: &BlockVotes) -> Assembly<S> {
    let Ok(head) = decode_exact::<SyncHead>(head) else { return Assembly::Invalid };
    if !blocks.has_all(&head.blocks) {
        return Assembly::Pending;
    }
    let Ok(mut state) = decode_exact::<S>(&head.state_tail) else { return Assembly::Invalid };
    match merge_history_blocks(state.ledger_mut(), &head.blocks, |c, b| {
        blocks.certified(c, b).cloned()
    }) {
        Ok(()) => Assembly::Ready(state),
        Err(_) => Assembly::Invalid,
    }
}

/// One payment replica: the shared shell around a [`Protocol`].
#[derive(Debug)]
pub struct Replica<P: Protocol> {
    pub(crate) me: ReplicaId,
    pub(crate) layout: ShardLayout,
    pub(crate) group: Group,
    pub(crate) brb: P::Brb,
    pub(crate) ledger: Ledger,
    pub(crate) pending: PendingQueue<P::Deps>,
    pub(crate) batch: Vec<P::Entry>,
    batch_size: usize,
    pub(crate) next_tag: u64,
    pub(crate) journal: JournalSlot,
    /// Catch-up in progress: broadcast delivery is paused (messages park)
    /// until a certified peer state is installed.
    syncing: Option<SyncSession<BrbMsg<P>>>,
    /// Metric handles, when a registry is attached (None = unobserved).
    pub(crate) obs: Option<CoreObs>,
    /// Set when a sync install made the in-memory state newer than any
    /// journal replay can reproduce; the durable runtime consumes it and
    /// snapshots immediately.
    snapshot_requested: bool,
    /// The protocol-specific state.
    pub(crate) proto: P,
}

impl<P: Protocol> Replica<P> {
    /// Creates a replica within `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the replica is not a member of the layout, or its group
    /// is smaller than 4 replicas.
    pub fn new(key: P::Key, layout: ShardLayout, cfg: P::Config) -> Self {
        let Parts { me, group, brb, protocol, batch_size, initial_balance } =
            P::init(key, &layout, cfg);
        Replica {
            me,
            layout,
            group,
            brb,
            ledger: Ledger::new(initial_balance),
            pending: PendingQueue::new(),
            batch: Vec::new(),
            batch_size: batch_size.max(1),
            next_tag: 0,
            journal: JournalSlot::none(),
            syncing: None,
            obs: None,
            snapshot_requested: false,
            proto: protocol,
        }
    }

    /// Reconstructs a replica from a recovered snapshot state (see
    /// [`crate::journal`]). `key`, `layout` and `cfg` must match the
    /// crashed incarnation. In-flight state that is deliberately not
    /// durable — the unflushed client batch and in-flight BRB instance
    /// messages — restarts empty (their payments are re-learnable through
    /// the broadcast layer or client retry).
    ///
    /// # Errors
    ///
    /// Fails if the snapshot's xlogs violate the owner/sequence
    /// invariants.
    ///
    /// # Panics
    ///
    /// Panics if the replica is not a member of the layout (as
    /// [`Self::new`]).
    pub fn restore(
        key: P::Key,
        layout: ShardLayout,
        cfg: P::Config,
        state: &P::State,
    ) -> Result<Self, XLogError> {
        let mut replica = Self::new(key, layout, cfg);
        replica.ledger = Ledger::import(state.ledger())?;
        P::restore_state(&mut replica, state);
        replica.resume_at(state.next_tag(), state.cursors());
        Ok(replica)
    }

    /// Reconstructs a replica from recovered checkpoint segments plus the
    /// residual snapshot — the segmented counterpart of [`Self::restore`].
    /// `segments` are the decoded record payloads of the sealed segments,
    /// in index order; the residual's `sealed_segments` says how many of
    /// them it builds on (extra trailing segments — sealed after the
    /// residual was written but before its WAL truncation — are ignored;
    /// *missing* ones are unrecoverable).
    ///
    /// # Errors
    ///
    /// [`RecoverError::MissingSegments`] if fewer segments were recovered
    /// than the residual references, [`RecoverError::Discontinuity`] /
    /// [`RecoverError::Decode`] on segment content that does not chain,
    /// [`RecoverError::Log`] if the reassembled xlogs violate invariants.
    ///
    /// # Panics
    ///
    /// Panics if the replica is not a member of the layout (as
    /// [`Self::new`]).
    pub fn restore_from_checkpoints(
        key: P::Key,
        layout: ShardLayout,
        cfg: P::Config,
        segments: &[Vec<Vec<u8>>],
        residual: &P::Snapshot,
    ) -> Result<Self, RecoverError> {
        let referenced = residual.sealed_segments();
        if (segments.len() as u64) < referenced {
            return Err(RecoverError::MissingSegments {
                referenced,
                recovered: segments.len() as u64,
            });
        }
        let mut replica = Self::new(key, layout, cfg);
        replica.ledger = Ledger::from_checkpoints(
            replica.ledger.initial_balance(),
            &segments[..referenced as usize],
        )?;
        P::restore_residual(&mut replica, residual);
        replica.resume_at(residual.next_tag(), residual.cursors());
        Ok(replica)
    }

    /// Restores the broadcast tag counter and delivery cursors.
    fn resume_at(&mut self, next_tag: u64, cursors: &[(u64, u64)]) {
        self.next_tag = next_tag;
        for (source, next) in cursors {
            self.brb.advance_cursor(*source, *next);
        }
    }

    /// Re-applies one WAL record on top of a restored snapshot. Records
    /// must be fed in log order; records already reflected in the
    /// snapshot re-apply as no-ops. Call [`Self::finish_recovery`] after
    /// the last record.
    pub fn replay(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Delivered { source, tag } => self.brb.advance_cursor(*source, tag + 1),
            WalRecord::Settle { payment, credit_beneficiary } => {
                let _ = self.ledger.settle(payment, *credit_beneficiary);
            }
            WalRecord::Queued { payment, deps } => {
                self.pending.push(*payment, P::decode_deps(deps));
            }
            WalRecord::OwnTag { tag } => self.next_tag = self.next_tag.max(tag + 1),
            other => P::replay(self, other),
        }
    }

    /// Completes recovery: queue entries superseded by replayed settles
    /// are pruned.
    pub fn finish_recovery(&mut self) {
        self.pending.prune_stale(&self.ledger);
    }

    /// Exports the durable state (snapshot). The settlement section is
    /// canonical: replicas holding identical state export identical bytes.
    pub fn export_state(&self) -> P::State {
        P::export_state(self)
    }

    /// Attaches a journal: every subsequent state-machine effect is
    /// recorded (see [`crate::journal::WalRecord`]).
    pub fn set_journal(&mut self, journal: Box<dyn Journal>) {
        self.journal.set(journal);
    }

    /// Attaches metric handles: settles, catch-up progress, and payment
    /// lifecycle stamps report into them from here on.
    pub fn set_obs(&mut self, obs: CoreObs) {
        self.obs = Some(obs);
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// The replica group this replica broadcasts in (its shard).
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// A client submits a payment to its representative (Listing 1's
    /// `Send` arrives here).
    ///
    /// # Errors
    ///
    /// Rejects payments from clients this replica does not represent — the
    /// mapping is public (paper §III), so honest clients never hit this —
    /// and whatever the protocol's admission rule rejects.
    pub fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<P::Msg>, SubmitError> {
        if !self.layout.is_representative(self.me, payment.spender) {
            return Err(SubmitError::NotRepresentative {
                client: payment.spender,
                representative: self.layout.representative_of(payment.spender),
            });
        }
        let entry = P::admit(self, payment)?;
        self.batch.push(entry);
        // While catching up the batch only accumulates: auto-flush would
        // burn the sync retry pacing (flush doubles as its timer), and
        // broadcasting must wait for the certified tag floor anyway.
        if self.syncing.is_none() && self.batch.len() >= self.batch_size {
            Ok(self.flush())
        } else {
            Ok(ReplicaStep::empty())
        }
    }

    /// Broadcasts the accumulated batch, if any (called on a timer by the
    /// driver, and automatically when a batch fills).
    ///
    /// While a catch-up is in progress the batch stays parked (the
    /// replica must not broadcast before it knows a certified tag floor)
    /// and the flush timer instead paces the periodic re-send of the
    /// [`ReconfigMsg::SyncRequest`] — or, once a fallback budget runs
    /// out, abandons the catch-up and resumes from the local state.
    pub fn flush(&mut self) -> ReplicaStep<P::Msg> {
        let mut out = ReplicaStep::empty();
        P::tick(self, &mut out.outbound);
        if let Some(sync) = &mut self.syncing {
            if sync.ticks == 0 {
                if sync.exhausted() {
                    // No f+1 matching donors in time (the rest of the
                    // cluster may be restarting too). This replica has a
                    // locally recovered state — resume from it, exactly
                    // as a pre-catch-up restart did, replaying whatever
                    // parked meanwhile.
                    self.resume(&mut out);
                    P::rejoined(self, &mut out.outbound);
                    return out;
                }
                sync.ticks = SYNC_RETRY_TICKS;
                sync.requests += 1;
                if let Some(obs) = &self.obs {
                    if sync.requests > 1 {
                        obs.sync_retries.inc();
                    }
                    obs.flight.event("core.sync.request", u64::from(sync.requests), 0);
                }
                let request = sync.votes.request();
                out.outbound.push(Envelope { to: Dest::All, msg: P::sync_msg(request) });
                return out;
            }
            sync.ticks -= 1;
            return out;
        }
        if self.batch.is_empty() {
            return out;
        }
        let entries = std::mem::take(&mut self.batch);
        if let Some(obs) = &self.obs {
            obs.pending_depth.set(self.pending.len() as u64);
        }
        let payload = P::seal_batch(self, entries);
        let id = InstanceId { source: u64::from(self.me.0), tag: self.next_tag };
        self.next_tag += 1;
        // Journaled before the PREPARE leaves: a restarted replica must
        // never reuse a tag it already broadcast under (peers echo or ack
        // at most one payload per instance, so a reused tag wedges the
        // stream). Against *power loss* the window is bounded by group
        // commit unless the store's `sync_on_broadcast` policy is set.
        self.journal.rec(&WalRecord::OwnTag { tag: id.tag });
        let step = self.brb.broadcast(id, payload);
        debug_assert!(step.delivered.is_empty());
        out.outbound.extend(
            step.outbound.into_iter().map(|e| Envelope { to: e.to, msg: P::brb_msg(e.msg) }),
        );
        out
    }

    /// Ends the catch-up session and replays the parked broadcast traffic
    /// through the normal path (messages at or below an installed cursor
    /// are dropped by FIFO gating, later ones proceed).
    fn resume(&mut self, out: &mut ReplicaStep<P::Msg>) {
        let sync = self.syncing.take().expect("syncing");
        for (from, m) in sync.buffered {
            let step = self.handle(from, P::brb_msg(m));
            out.outbound.extend(step.outbound);
            out.settled.extend(step.settled);
        }
    }

    /// Number of payments waiting in the unflushed batch.
    pub fn batched(&self) -> usize {
        self.batch.len()
    }

    /// Processes one replica-to-replica message.
    pub fn handle(&mut self, from: ReplicaId, msg: P::Msg) -> ReplicaStep<P::Msg> {
        P::handle(self, from, msg)
    }

    /// Handles broadcast-layer traffic: parked while catching up,
    /// otherwise fed to the BRB layer with every delivery applied.
    pub(crate) fn on_brb(&mut self, from: ReplicaId, msg: BrbMsg<P>) -> ReplicaStep<P::Msg> {
        if let Some(sync) = &mut self.syncing {
            // Delivery is paused until the transferred state is
            // installed; park the message for replay.
            if self.group.contains(from) {
                sync.park(from, msg);
                if let Some(obs) = &self.obs {
                    obs.parked.inc();
                    obs.parked_depth.set(sync.buffered.len() as u64);
                }
            }
            return ReplicaStep::empty();
        }
        let step = self.brb.handle(from, msg);
        let mut out = ReplicaStep {
            outbound: step
                .outbound
                .into_iter()
                .map(|e| Envelope { to: e.to, msg: P::brb_msg(e.msg) })
                .collect(),
            settled: Vec::new(),
        };
        for delivery in step.delivered {
            P::apply(self, delivery.id, delivery.payload, &mut out);
        }
        out
    }

    /// Handles reconfiguration traffic: serves catch-up requests from
    /// group members and, while catching up, folds peer responses into
    /// the collector until one certifies and installs.
    pub(crate) fn on_sync(
        &mut self,
        from: ReplicaId,
        msg: ReconfigMsg<P::Sig>,
    ) -> ReplicaStep<P::Msg> {
        if from == self.me || !self.group.contains(from) {
            return ReplicaStep::empty();
        }
        match msg {
            ReconfigMsg::SyncRequest { settled } => {
                // A replica that is itself catching up serves nothing: its
                // state is behind, and a cluster of simultaneously
                // restarted replicas must not certify each other's gaps.
                // A replica behind the requester's own floor stays silent
                // too — the requester would reject the response anyway,
                // so serializing a full state for it is pure waste.
                if self.syncing.is_some() || (self.ledger.total_settled() as u64) < settled {
                    return ReplicaStep::empty();
                }
                match self.sync_chunks(from) {
                    Ok((head, blocks)) => {
                        let mut outbound = Vec::with_capacity(blocks.len() + 1);
                        let reply = ReconfigMsg::SyncState {
                            settled: self.ledger.total_settled() as u64,
                            state: head.to_wire_bytes(),
                        };
                        outbound.push(Envelope { to: Dest::One(from), msg: P::sync_msg(reply) });
                        for (client, block, data) in blocks {
                            outbound.push(Envelope {
                                to: Dest::One(from),
                                msg: P::sync_msg(ReconfigMsg::SyncBlock { client, block, data }),
                            });
                        }
                        ReplicaStep { outbound, settled: Vec::new() }
                    }
                    Err(SyncServeError::HeadTooLarge { bytes }) => {
                        // Typed refusal instead of the framing layer's
                        // oversized-payload panic.
                        if let Some(obs) = &self.obs {
                            obs.sync_refused_oversize.inc();
                            obs.flight.event("core.sync.head_oversize", bytes as u64, 0);
                        }
                        ReplicaStep::empty()
                    }
                }
            }
            ReconfigMsg::SyncState { settled, state } => {
                let Some(sync) = &mut self.syncing else { return ReplicaStep::empty() };
                if let Some(head) = sync.votes.offer(from, settled, state) {
                    sync.certified_head = Some(head);
                }
                self.note_sync_progress();
                self.try_complete_sync()
            }
            ReconfigMsg::SyncBlock { client, block, data } => {
                let Some(sync) = &mut self.syncing else { return ReplicaStep::empty() };
                sync.blocks.offer(from, client, block, data);
                self.note_sync_progress();
                self.try_complete_sync()
            }
            // The join protocol (Join / ViewProposal / StateTransfer) is
            // driven by `ReconfigReplica` deployments, not by the payment
            // replica itself.
            _ => ReplicaStep::empty(),
        }
    }

    /// Publishes the catch-up collectors' reject/progress counters.
    fn note_sync_progress(&mut self) {
        let (Some(obs), Some(sync)) = (&self.obs, &self.syncing) else { return };
        obs.sync_rejected.set((sync.votes.rejected() + sync.blocks.rejected()) as u64);
        obs.sync_blocks_certified.set(sync.blocks.certified_len() as u64);
    }

    /// Attempts to finish the catch-up: once the head is certified and
    /// every history block it references is certified, reassemble the
    /// full state and install it. Anything structurally invalid discards
    /// the collected votes and re-collects; a merely *stale* head (the
    /// donors lag) discards only the head — certified blocks are
    /// content-stable and stay.
    fn try_complete_sync(&mut self) -> ReplicaStep<P::Msg> {
        let Some(sync) = &mut self.syncing else { return ReplicaStep::empty() };
        let Some(head) = &sync.certified_head else { return ReplicaStep::empty() };
        let installed = match assemble::<P::State>(head, &sync.blocks) {
            Assembly::Pending => return ReplicaStep::empty(),
            // f+1 matching copies of an undecodable or unmergeable
            // transfer cannot come from an honest majority.
            Assembly::Invalid => Err(SyncError::Invalid),
            Assembly::Ready(state) => self.install_sync(&state),
        };
        let sync = self.syncing.as_mut().expect("syncing");
        match installed {
            Ok(mut out) => {
                self.resume(&mut out);
                out
            }
            Err(SyncError::Stale) => {
                // The certified head is behind this replica (the donors
                // lag) — discard it and retry; certified blocks stay.
                sync.certified_head = None;
                sync.votes.clear();
                ReplicaStep::empty()
            }
            Err(SyncError::Invalid) => {
                // Drop everything and re-collect.
                sync.certified_head = None;
                sync.votes.clear();
                sync.blocks.clear();
                ReplicaStep::empty()
            }
        }
    }

    /// Reassembles a certified sync head and certified history blocks —
    /// collected outside the message flow, as the simulator's catch-up
    /// does — and installs the result. `None` while referenced blocks
    /// are missing or on any rejection.
    pub fn install_chunks(
        &mut self,
        head: &[u8],
        blocks: &BlockVotes,
    ) -> Option<ReplicaStep<P::Msg>> {
        match assemble::<P::State>(head, blocks) {
            Assembly::Ready(state) => self.install_sync(&state).ok(),
            Assembly::Pending | Assembly::Invalid => None,
        }
    }

    /// The settled balance of a client (Listing 2's `bal`).
    pub fn balance(&self, client: ClientId) -> Amount {
        self.ledger.balance(client)
    }

    /// Read access to the full ledger (audit, state transfer).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Prunes BRB state for delivered broadcast instances. The durable
    /// runtime calls this at its snapshot-install point: once a snapshot
    /// holds the deliveries' effects, their BRB bookkeeping only costs
    /// memory. Returns the number of instances pruned.
    pub fn prune_delivered(&mut self) -> usize {
        self.brb.gc_delivered()
    }

    /// Number of receiver-side BRB instances currently tracked
    /// (observability for the GC tests).
    pub fn tracked_instances(&self) -> usize {
        self.brb.tracked_instances()
    }

    /// Number of payments queued awaiting approval.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Starts peer catch-up (the restart path): broadcast delivery pauses
    /// and the next [`Self::flush`] tick broadcasts a
    /// [`ReconfigMsg::SyncRequest`]; peers answer with their canonical
    /// settlement state and `f+1` byte-identical copies install. Until
    /// then the client batch stays parked (no broadcast may leave before
    /// the certified tag floor is known) and inbound BRB messages buffer
    /// for replay.
    ///
    /// This variant retries **forever**: a replica with no locally
    /// recovered state must not participate (or pick a broadcast tag)
    /// until a certified state tells it where the quorum stands. Durable
    /// restarts use [`Self::begin_catchup_with_fallback`].
    pub fn begin_catchup(&mut self) {
        self.begin_sync(None);
    }

    /// Like [`Self::begin_catchup`], but gives up after a bounded number
    /// of request rounds and resumes from the locally recovered state —
    /// for replicas restored from durable storage, whose local state is
    /// safe to run on (it merely lacks the downtime delta). This keeps a
    /// cluster whose replicas restart *concurrently* live: with fewer
    /// than `f+1` serving donors nothing can certify, and without the
    /// fallback every restarted replica would pause forever.
    pub fn begin_catchup_with_fallback(&mut self) {
        self.begin_sync(Some(SYNC_FALLBACK_ROUNDS));
    }

    fn begin_sync(&mut self, rounds_left: Option<u32>) {
        let floor = self.ledger.total_settled() as u64;
        self.syncing = Some(SyncSession {
            votes: CatchUp::new(&self.group, self.me, floor),
            blocks: BlockVotes::new(&self.group, self.me),
            certified_head: None,
            buffered: VecDeque::new(),
            ticks: 0,
            requests: 0,
            rounds_left,
        });
    }

    /// True while peer catch-up is in progress.
    pub fn is_syncing(&self) -> bool {
        self.syncing.is_some()
    }

    /// True once after a sync install: the in-memory state is newer than
    /// any journal replay can reproduce, so a durable deployment must
    /// snapshot now. Consuming resets the flag.
    pub fn take_snapshot_request(&mut self) -> bool {
        std::mem::take(&mut self.snapshot_requested)
    }

    /// The canonical state served to a catching-up peer: the exported
    /// state with its replica-local sections cleared (see
    /// [`SyncState::strip_local`]) and `next_tag` reinterpreted as *the
    /// requester's* stream high-water mark, so the certified copy tells
    /// the restarted replica the first tag that is safe to broadcast
    /// under.
    pub fn sync_state(&self, requester: ReplicaId) -> P::State {
        let mut state = self.export_state();
        state.strip_local();
        *state.next_tag_mut() = self.brb.source_high_water(u64::from(requester.0));
        state
    }

    /// The chunked form of [`Self::sync_state`]: settled history splits
    /// into content-stable [`crate::journal::SYNC_BLOCK_ENTRIES`]-entry
    /// xlog blocks (certified per-block at the requester), and the
    /// volatile remainder — ledger tails, balances, approval queue,
    /// cursors — rides in a small [`SyncHead`]. Every piece stays far
    /// below the wire frame cap regardless of total settled history.
    ///
    /// # Errors
    ///
    /// [`SyncServeError::HeadTooLarge`] if the volatile head alone
    /// exceeds [`SYNC_HEAD_MAX_BYTES`] — a pathological state (an
    /// enormous approval queue) that must be refused rather than
    /// panicking the framing layer.
    pub fn sync_chunks(
        &self,
        requester: ReplicaId,
    ) -> Result<(SyncHead, Vec<SyncBlock>), SyncServeError> {
        let mut state = self.sync_state(requester);
        let blocks = split_history_blocks(state.ledger_mut());
        let head = SyncHead { blocks: block_counts(&blocks), state_tail: state.to_wire_bytes() };
        let bytes = head.state_tail.len();
        if bytes > SYNC_HEAD_MAX_BYTES {
            return Err(SyncServeError::HeadTooLarge { bytes });
        }
        Ok((head, blocks))
    }

    /// Seals the settle delta since the last checkpoint: one
    /// [`CheckpointRecord`] per dirty account (encoded), in canonical
    /// client order, and advances the per-account watermarks. Empty when
    /// nothing settled since the last seal. The durable runtime writes
    /// the returned records as one immutable checkpoint segment; the next
    /// [`Self::residual_state`] then only carries state *above* the
    /// watermarks.
    pub fn seal_checkpoint(&mut self) -> Vec<Vec<u8>> {
        self.ledger.seal_delta().iter().map(CheckpointRecord::to_wire_bytes).collect()
    }

    /// The residual snapshot: the volatile protocol state **not** covered
    /// by checkpoint segments. Captured at the same instant as
    /// [`Self::seal_checkpoint`], the sealed segments reconstruct the
    /// entire ledger, so the residual needs none of it.
    pub fn residual_state(&self, sealed_segments: u64) -> P::Snapshot {
        P::residual_state(self, sealed_segments)
    }

    /// Forgets the checkpoint watermarks: every account becomes dirty
    /// again and the next [`Self::seal_checkpoint`] re-exports full
    /// history. The durable runtime calls this when a checkpoint segment
    /// fails to persist — the on-disk segment sequence stops being a
    /// prefix of what the watermarks assume, so the only safe move is to
    /// restart checkpointing from scratch.
    pub fn rebaseline(&mut self) {
        self.ledger.rebaseline();
    }

    /// Installs a certified peer state over the locally recovered one:
    /// the settled delta (xlogs, balances, approval queue) replaces local
    /// settlement state, delivery cursors advance (releasing any
    /// completed instances the gap was holding back), and the broadcast
    /// tag counter rises to the certified floor. Returns the step whose
    /// `settled` is exactly the payments this replica learned through the
    /// transfer, plus whatever the protocol sends on rejoining.
    ///
    /// # Errors
    ///
    /// [`SyncError::Stale`] if the transferred state is behind this
    /// replica in any xlog, delivery cursor, or protocol-specific section
    /// (installing it would lose settled effects — the donors lag;
    /// retry), [`SyncError::Invalid`] if it fails structural validation.
    pub fn install_sync(&mut self, state: &P::State) -> Result<ReplicaStep<P::Msg>, SyncError> {
        let certified = Ledger::import(state.ledger()).map_err(|_| SyncError::Invalid)?;
        // Never regress: every local xlog must be a prefix of (or equal
        // to) its certified counterpart, and no certified cursor may sit
        // below a local one — otherwise effects this replica already
        // applied would vanish with no re-delivery to restore them.
        for xlog in self.ledger.xlogs() {
            if certified.next_seq(xlog.owner()) < xlog.next_seq() {
                return Err(SyncError::Stale);
            }
        }
        let certified_cursors: HashMap<u64, u64> = state.cursors().iter().copied().collect();
        for (source, next) in self.brb.delivery_cursors() {
            if certified_cursors.get(&source).copied().unwrap_or(0) < next {
                return Err(SyncError::Stale);
            }
        }
        P::check_install(self, state)?;
        // The settled delta — everything the quorum settled while this
        // replica was down — reported exactly once, in xlog order.
        let mut installed: Vec<Payment> = Vec::new();
        for xlog in certified.xlogs() {
            let have = self.ledger.xlog(xlog.owner()).map_or(0, crate::xlog::XLog::len);
            installed.extend(xlog.iter().skip(have).copied());
        }
        self.ledger = certified;
        P::install_state(self, state);
        if state.next_tag() > self.next_tag {
            // Journaled even though a snapshot follows: tag reuse is the
            // one recovery error a later catch-up cannot repair.
            self.journal.rec(&WalRecord::OwnTag { tag: state.next_tag() - 1 });
            self.next_tag = state.next_tag();
        }
        let mut out = ReplicaStep { outbound: Vec::new(), settled: installed };
        // Advance cursors past the caught-up instances; instances that
        // completed *behind* a gap are released and applied now. Their
        // effects are already part of the certified state, so the ledger
        // drops them as stale — but a gap-blocked instance *beyond* the
        // certified cursor settles normally here. (Unordered delivery has
        // no cursors, so nothing is ever released.)
        for (source, next) in state.cursors() {
            for delivery in self.brb.advance_cursor_releasing(*source, *next) {
                P::apply(self, delivery.id, delivery.payload, &mut out);
            }
        }
        // The caught-up prefix is dead weight in the broadcast layer now.
        self.brb.gc_delivered();
        self.snapshot_requested = true;
        P::rejoined(self, &mut out.outbound);
        Ok(out)
    }
}

/// The catch-up tests both protocols run: each takes the protocol as a
/// type parameter, and `astro1`/`astro2` instantiate them.
#[cfg(test)]
pub(crate) mod shared_tests {
    use super::*;
    use crate::journal::{LedgerState, SYNC_BLOCK_ENTRIES};
    use crate::testkit::PaymentCluster;
    use astro_types::wire::MAX_FRAME_LEN;

    /// A protocol under the shared tests: 4 replicas in one shard, batch
    /// size 1, genesis balance 100.
    pub(crate) trait Fixture: Protocol<Msg: Wire> {
        /// The construction key of replica `i`.
        fn key(i: u32) -> Self::Key;
        /// The replica configuration.
        fn config() -> Self::Config;
        /// A state holding `ledger` and the approval queue `queued`, with
        /// every other section empty.
        fn state(ledger: LedgerState, queued: Vec<Payment>) -> Self::State;
    }

    fn replica<P: Fixture>(i: u32, state: Option<&P::State>) -> Replica<P> {
        let layout = ShardLayout::single(4).unwrap();
        match state {
            Some(state) => Replica::restore(P::key(i), layout, P::config(), state).unwrap(),
            None => Replica::new(P::key(i), layout, P::config()),
        }
    }

    /// A settlement state with `entries` payments on client 7's xlog —
    /// bulk history for the chunked-transfer tests (built directly; the
    /// broadcast path would take minutes at this size).
    fn long_state<P: Fixture>(entries: u64, queued: Vec<Payment>) -> P::State {
        let history: Vec<Payment> =
            (0..entries).map(|seq| Payment::new(7u64, seq, 8u64, 1u64)).collect();
        let ledger = LedgerState {
            initial_balance: Amount(100),
            accounts: vec![(ClientId(7), Amount(100)), (ClientId(8), Amount(100 + entries))],
            xlogs: vec![(ClientId(7), history)],
        };
        P::state(ledger, queued)
    }

    pub(crate) fn chunked_catchup_round_trips_large_history<P: Fixture>() {
        // Two full history blocks plus a tail: the transfer must split.
        let entries = 2 * SYNC_BLOCK_ENTRIES as u64 + 100;
        let state = long_state::<P>(entries, Vec::new());
        // Replica 3 restarted with no local state at all.
        let mut c =
            PaymentCluster::new((0..4).map(|i| replica::<P>(i, (i != 3).then_some(&state))));
        let (head, blocks) = c.node(0).sync_chunks(ReplicaId(3)).expect("serves");
        assert_eq!(blocks.len(), 2, "two sealed blocks");
        assert_eq!(head.blocks, vec![(ClientId(7), 2)]);

        c.node_mut(3).begin_catchup();
        let step = c.node_mut(3).flush();
        c.submit_step(ReplicaId(3), step);
        c.run_to_quiescence();

        assert!(!c.node(3).is_syncing(), "chunked install completed");
        assert_eq!(c.node(3).export_state().ledger(), state.ledger());
        assert_eq!(c.settled(3).len() as u64, entries, "installed delta reported once");
    }

    pub(crate) fn sync_frames_stay_below_the_wire_cap_for_giant_states<P: Fixture>() {
        // ~19 MiB of settled history: the v1 single-frame transfer would
        // hit `put_frame`'s oversized-payload panic on the donor.
        let entries = 600_000u64;
        let state = long_state::<P>(entries, Vec::new());
        assert!(state.to_wire_bytes().len() > MAX_FRAME_LEN, "history exceeds one frame");
        let mut donor = replica::<P>(0, Some(&state));
        let step = donor.handle(ReplicaId(3), P::sync_msg(ReconfigMsg::SyncRequest { settled: 0 }));
        assert!(!step.outbound.is_empty(), "giant state still served");
        for env in &step.outbound {
            assert!(
                env.msg.encoded_len() < MAX_FRAME_LEN,
                "every sync frame stays below the wire cap"
            );
        }
    }

    pub(crate) fn oversized_volatile_head_is_refused_with_a_typed_error<P: Fixture>() {
        // History chunks, but the volatile head (here: a pathological
        // approval queue) cannot — past the bound the donor refuses
        // instead of panicking the framing layer.
        let queued = (0..300_000u64).map(|c| Payment::new(c, 0u64, 1u64, u64::MAX)).collect();
        let state = long_state::<P>(4, queued);
        let mut donor = replica::<P>(0, Some(&state));
        assert!(matches!(
            donor.sync_chunks(ReplicaId(3)),
            Err(SyncServeError::HeadTooLarge { .. })
        ));
        let step = donor.handle(ReplicaId(3), P::sync_msg(ReconfigMsg::SyncRequest { settled: 0 }));
        assert!(step.outbound.is_empty(), "refusal, not a panic or a partial serve");
    }
}
