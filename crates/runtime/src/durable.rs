//! Durable cluster deployment: journaled replicas over `astro-store`,
//! with a kill-and-restart-from-disk path.
//!
//! The non-durable clusters lose every xlog and balance when a replica
//! thread dies. Durable clusters ([`ClusterBuilder::durable`]) wrap each
//! replica in a [`DurableNode`]: the replica journals its state-machine
//! effects into a per-replica WAL (group commit), the driver snapshots
//! periodically (atomic rename install + WAL truncation), and
//! [`AstroCluster::restart_replica`] brings a killed replica back from
//! `snapshot + WAL`, rebinding its listen address so the surviving
//! replicas' redial path (astro-net) reattaches it to the mesh.
//!
//! What is durable: everything settlement-relevant — ledger (balances +
//! xlogs), the approval queue, Astro II's dependency replay-protection,
//! stuck set and held certificates, the replica's own broadcast tag
//! counter, and the BRB delivery cursors. What is deliberately not:
//! payments sitting in the unflushed client batch and broadcast instances
//! in flight at the moment of the crash — those are lost exactly as
//! messages on the wire are lost, and recovering them is the client-retry
//! / state-transfer story (paper Appendix A), not the storage layer's.

#[cfg(doc)]
use crate::{AstroCluster, ClusterBuilder};
use crate::{ClusterError, Hosted, RuntimeNode};
use astro_core::{Protocol, Replica, ReplicaStep, SubmitError};
use astro_store::{SharedStorage, Storage, StoreConfig};
use astro_types::wire::{decode_exact, Wire};
use astro_types::{Amount, ClientId, Keychain, Payment, ReplicaId, ShardLayout};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Deterministic demo keychains for local clusters.
///
/// **Never deploy with these.** The key material derives from a fixed,
/// public seed baked into this function: *anyone* can derive every
/// replica's secret key, join the mesh, impersonate replicas, and sign
/// whatever they like. They exist so examples, tests, and benchmarks can
/// spin up a loopback cluster in one line; every production-looking entry
/// point takes caller-provided keychains instead (paper §III's
/// pre-distributed key material).
pub fn demo_keychains(n: usize) -> Vec<Keychain> {
    Keychain::deterministic_system(b"astro-runtime-tcp", n)
}

/// A [`RuntimeNode`] that can journal its effects and export/restore its
/// durable state — the contract [`DurableNode`] wraps.
pub trait PersistentNode: RuntimeNode {
    /// Attaches the journal all subsequent effects are recorded to.
    fn set_journal(&mut self, journal: Box<dyn astro_core::journal::Journal>);

    /// Seals the settle delta since the last checkpoint as encoded
    /// checkpoint records (one per dirty account) and advances the
    /// node's watermarks. Empty when nothing settled since the last
    /// seal. The wrapper writes the records as one immutable checkpoint
    /// segment — snapshot IO is O(dirty accounts), not O(total settled).
    fn seal_checkpoint_records(&mut self) -> Vec<Vec<u8>>;

    /// The wire-encoded residual snapshot: the volatile state not covered
    /// by the `sealed_segments` checkpoint segments sealed so far. Must
    /// be captured at the same instant as
    /// [`PersistentNode::seal_checkpoint_records`] (same step, no settles
    /// in between).
    fn residual_state_bytes(&self, sealed_segments: u64) -> Vec<u8>;

    /// Forgets the checkpoint watermarks after a failed install: the
    /// on-disk segment sequence stopped matching what the watermarks
    /// assume, so the next seal must re-export everything from segment
    /// zero.
    fn rebaseline(&mut self);

    /// Prunes broadcast-layer state for delivered instances. Called right
    /// after a snapshot install: the snapshot holds those instances'
    /// effects, so their BRB bookkeeping is dead weight — this is what
    /// keeps a long-running replica's memory bounded by the in-flight
    /// window instead of growing with settled history.
    fn prune_delivered(&mut self);

    /// Starts the peer catch-up handshake (the restart path): the node
    /// pauses broadcast delivery, requests the settled delta from its
    /// peers on its flush timer, and installs once `f+1` byte-identical
    /// copies certify. Durable nodes have a safe local state, so their
    /// implementations use the bounded-retry fallback variant: if no
    /// donor quorum certifies (the rest of the cluster may be restarting
    /// too), the node resumes from what it recovered on its own instead
    /// of pausing forever.
    fn begin_catchup(&mut self);

    /// True once after a catch-up install made the in-memory state newer
    /// than any journal replay can reproduce — the wrapper must snapshot
    /// immediately. Consuming resets the flag.
    fn take_snapshot_request(&mut self) -> bool {
        false
    }
}

impl<P: Hosted> PersistentNode for Replica<P>
where
    Replica<P>: Send,
{
    fn set_journal(&mut self, journal: Box<dyn astro_core::journal::Journal>) {
        Replica::set_journal(self, journal);
    }

    fn seal_checkpoint_records(&mut self) -> Vec<Vec<u8>> {
        Replica::seal_checkpoint(self)
    }

    fn residual_state_bytes(&self, sealed_segments: u64) -> Vec<u8> {
        self.residual_state(sealed_segments).to_wire_bytes()
    }

    fn rebaseline(&mut self) {
        Replica::rebaseline(self);
    }

    fn prune_delivered(&mut self) {
        Replica::prune_delivered(self);
    }

    fn begin_catchup(&mut self) {
        Replica::begin_catchup_with_fallback(self);
    }

    fn take_snapshot_request(&mut self) -> bool {
        Replica::take_snapshot_request(self)
    }
}

/// A replica wrapped with its storage: journals flow in via the node's
/// journal hook; this wrapper drives the *snapshot policy* every
/// [`StoreConfig::snapshot_every_settled`] settled payments and the
/// final group-commit flush on a clean stop.
///
/// v2 engine: at each threshold the node seals its dirty-account delta
/// (a checkpoint segment) plus a small residual snapshot, and the store
/// makes both durable **off this thread** ([`Storage::begin_install`]) —
/// the settle path pays a group-commit fsync and a WAL rotation, never a
/// full-state serialization. Results fold back in at later step
/// boundaries: success prunes delivered BRB instances, failure
/// re-baselines the watermarks so the next seal re-exports from segment
/// zero.
pub struct DurableNode<N: PersistentNode> {
    node: N,
    storage: SharedStorage,
    snapshot_every: usize,
    settled_since_snapshot: usize,
    /// Checkpoint segments *confirmed durable* so far (the next segment's
    /// index). Only advances when an install reports success — an
    /// in-flight install's target waits in [`Self::pending_segments`].
    segments: u64,
    /// The segment count the in-flight install will confirm, if any.
    pending_segments: Option<u64>,
}

impl<N: PersistentNode> DurableNode<N> {
    /// Wraps `node`, attaching `storage` as its journal.
    pub fn new(node: N, storage: SharedStorage) -> Self {
        Self::with_segments(node, storage, 0)
    }

    /// Wraps a node recovered from `segments` sealed checkpoint segments
    /// (the residual snapshot's `sealed_segments`), attaching `storage`
    /// as its journal.
    pub fn with_segments(mut node: N, storage: SharedStorage, segments: u64) -> Self {
        let snapshot_every = storage.with(|s| s.config().snapshot_every_settled).max(1);
        node.set_journal(Box::new(storage.clone()));
        DurableNode {
            node,
            storage,
            snapshot_every,
            settled_since_snapshot: 0,
            segments,
            pending_segments: None,
        }
    }

    /// The wrapped node.
    pub fn node(&self) -> &N {
        &self.node
    }

    /// Starts the peer catch-up handshake on the wrapped node (the
    /// durable restart path).
    pub fn begin_catchup(&mut self) {
        self.node.begin_catchup();
    }

    /// Blocks until any in-flight snapshot install completes and folds
    /// its outcome in (prune on success, re-baseline on failure).
    pub fn drain_installs(&mut self) {
        let result = self.storage.drain_install();
        self.fold_install_result(result);
    }

    fn fold_install_result(&mut self, result: Option<std::io::Result<()>>) {
        match result {
            Some(Ok(())) => {
                if let Some(confirmed) = self.pending_segments.take() {
                    self.segments = confirmed;
                }
                // The snapshot now holds every delivered instance's
                // effects: prune their BRB bookkeeping so broadcast-layer
                // memory stays bounded (ROADMAP's WAL-aware GC item).
                self.node.prune_delivered();
            }
            Some(Err(_)) => {
                // The install guarantees an error left the previous
                // snapshot chain intact (see `astro-store`), so `segments`
                // stands — but the failed seal's delta is now above the
                // node's watermarks without a durable segment holding it.
                // Re-baseline: the next seal exports full history as a
                // rewrite record set, which recovery applies over whatever
                // older segments say. The recovery WAL still has every
                // record (it is only deleted after a successful install);
                // the store reports health out of band.
                self.pending_segments = None;
                self.node.rebaseline();
            }
            None => {}
        }
    }

    fn after_step(&mut self, settled: usize) {
        // Step boundary: the step's journal records reach the OS with one
        // write(2), so a kill between steps loses nothing (fsync stays
        // amortized by group commit).
        self.storage.flush_writes();
        self.settled_since_snapshot += settled;
        // Fold in any install that completed off-thread since last step.
        let polled = self.storage.poll_install();
        self.fold_install_result(polled);
        if self.node.take_snapshot_request() {
            // A catch-up install replaced the ledger wholesale (state in
            // memory no journal replay can reproduce): every account is
            // dirty again, so the next seal is a full rewrite — and it
            // must happen now, not at the next settled-count threshold.
            self.settled_since_snapshot = self.snapshot_every;
        }
        if self.settled_since_snapshot >= self.snapshot_every && !self.storage.installing() {
            // While an install is in flight the seal defers (the counter
            // keeps the threshold) — sealing on top of an unconfirmed
            // segment could reference an index that never becomes durable.
            self.settled_since_snapshot = 0;
            let records = self.node.seal_checkpoint_records();
            let segment = (!records.is_empty()).then_some((self.segments as u32, records));
            let new_segments = self.segments + u64::from(segment.is_some());
            let residual = self.node.residual_state_bytes(new_segments);
            if self.storage.begin_install(segment, residual) {
                if self.storage.installing() {
                    // Async: the worker owns sealing + install; the result
                    // folds in at a later step boundary.
                    self.pending_segments = Some(new_segments);
                } else if self.storage.healthy() {
                    // Inline completion (memory backend).
                    self.segments = new_segments;
                    self.node.prune_delivered();
                } else {
                    // Inline failure (WAL already degraded, rotation
                    // failed): nothing was sealed.
                    self.node.rebaseline();
                }
            } else {
                // Refused (unreachable: `installing()` was just checked on
                // this thread) — but the seal above advanced the node's
                // watermarks, so never drop its records silently.
                self.node.rebaseline();
            }
        }
    }
}

impl<N: PersistentNode> RuntimeNode for DurableNode<N> {
    type Msg = N::Msg;

    fn id(&self) -> ReplicaId {
        self.node.id()
    }

    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Self::Msg>, SubmitError> {
        let step = self.node.submit(payment)?;
        self.after_step(step.settled.len());
        Ok(step)
    }

    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg> {
        let step = self.node.handle(from, msg);
        self.after_step(step.settled.len());
        step
    }

    fn flush(&mut self) -> ReplicaStep<Self::Msg> {
        let step = self.node.flush();
        self.after_step(step.settled.len());
        step
    }

    fn final_balances(&self) -> HashMap<ClientId, Amount> {
        self.node.final_balances()
    }

    fn total_settled(&self) -> usize {
        self.node.total_settled()
    }

    fn available_balance(&self, client: ClientId) -> Amount {
        self.node.available_balance(client)
    }

    fn stopping(&mut self) {
        // Clean stop: a threshold snapshot still in flight completes (so
        // it is never lost to process exit), then everything journaled
        // becomes durable.
        self.drain_installs();
        self.storage.sync();
    }

    fn preverify(&self, from: ReplicaId, msg: &Self::Msg) -> Vec<astro_types::SigCheck> {
        self.node.preverify(from, msg)
    }

    fn attach_registry(&mut self, registry: &std::sync::Arc<astro_obs::Registry>) {
        // The wrapped node resolves its protocol handles; the storage
        // resolves the WAL/snapshot ones.
        self.node.attach_registry(registry);
        let me = self.node.id().0;
        self.storage.with(|s| s.attach_obs(astro_store::StoreObs::for_replica(registry, me)));
    }
}

/// Per-replica storage directory under the cluster root.
fn replica_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("replica-{i}"))
}

/// Opens replica `i`'s store and recovers a node from
/// `checkpoint segments + residual snapshot + WAL`. `key` must carry the
/// same identity as the crashed incarnation.
pub(crate) fn recover<P: Hosted>(
    root: &Path,
    i: usize,
    key: P::Key,
    layout: ShardLayout,
    cfg: P::Config,
    store_cfg: &StoreConfig,
) -> Result<DurableNode<Replica<P>>, ClusterError>
where
    Replica<P>: Send,
{
    let (storage, recovered) = Storage::open(replica_dir(root, i), store_cfg.clone())?;
    let (mut node, segments) = match &recovered.snapshot {
        Some(bytes) => {
            let residual: <P as Protocol>::Snapshot =
                decode_exact(bytes).map_err(|_| ClusterError::Recovery("snapshot decode"))?;
            let node = Replica::<P>::restore_from_checkpoints(
                key,
                layout,
                cfg,
                &recovered.checkpoints,
                &residual,
            )
            .map_err(|_| ClusterError::Recovery("checkpoint chain invariants"))?;
            (node, astro_core::journal::ResidualState::sealed_segments(&residual))
        }
        None => (Replica::<P>::new(key, layout, cfg), 0),
    };
    for record in &recovered.records {
        node.replay(record);
    }
    node.finish_recovery();
    Ok(DurableNode::with_segments(node, SharedStorage::new(storage), segments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;
    use astro_core::astro1::{Astro1Config, AstroOne, AstroOneReplica};
    use astro_net::{InProcTransport, Transport};
    use std::time::Duration;

    fn recover_astro1(
        root: &Path,
        i: usize,
        layout: ShardLayout,
        cfg: Astro1Config,
        store_cfg: &StoreConfig,
    ) -> Result<DurableNode<AstroOneReplica>, ClusterError> {
        recover::<AstroOne>(root, i, ReplicaId(i as u32), layout, cfg, store_cfg)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("astro-durable-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_node_snapshots_after_threshold() {
        let dir = tmp_dir("snap-policy");
        let store_cfg = StoreConfig { snapshot_every_settled: 3, ..StoreConfig::default() };
        let layout = ShardLayout::single(4).unwrap();
        let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(1000) };
        let node = recover_astro1(&dir, 0, layout.clone(), cfg.clone(), &store_cfg).unwrap();

        // Drive settlements through a real in-proc cluster so the node
        // sees deliveries; then check the snapshot landed.
        let nodes = vec![
            node,
            recover_astro1(&dir, 1, layout.clone(), cfg.clone(), &store_cfg).unwrap(),
            recover_astro1(&dir, 2, layout.clone(), cfg.clone(), &store_cfg).unwrap(),
            recover_astro1(&dir, 3, layout.clone(), cfg.clone(), &store_cfg).unwrap(),
        ];
        let cluster = Cluster::start_endpoints_observed(
            nodes,
            InProcTransport::new(4).into_endpoints(),
            layout,
            Duration::from_millis(1),
            None,
            None,
        )
        .unwrap();
        for seq in 0..8u64 {
            cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).unwrap();
        }
        assert_eq!(cluster.wait_settled(8, Duration::from_secs(10)).len(), 8);
        cluster.shutdown();
        // Dropped at once: the store locks its directory while live.
        let (_, recovered) = Storage::open(replica_dir(&dir, 0), store_cfg.clone()).unwrap();
        assert!(recovered.snapshot.is_some(), "threshold crossed: snapshot installed");
        // And the recovered state resumes, not restarts, the ledger.
        let layout = ShardLayout::single(4).unwrap();
        let node = recover_astro1(&dir, 0, layout, cfg, &store_cfg).unwrap();
        assert_eq!(node.node().ledger().total_settled(), 8);
        assert_eq!(node.node().balance(ClientId(1)), Amount(992));
    }

    #[test]
    fn snapshot_install_prunes_delivered_brb_instances() {
        // The WAL-aware GC satellite: once a snapshot holds the
        // deliveries' effects, the BRB layer's per-instance bookkeeping
        // is pruned, so broadcast memory is bounded by the in-flight
        // window instead of growing with settled history. A manual
        // message pump (instead of the threaded cluster) keeps the live
        // nodes observable.
        use astro_brb::Dest;
        use astro_core::astro1::Astro1Msg;
        use astro_core::ReplicaStep;
        use std::collections::VecDeque;

        let dir = tmp_dir("brb-gc");
        let store_cfg = StoreConfig { snapshot_every_settled: 4, ..StoreConfig::default() };
        let layout = ShardLayout::single(4).unwrap();
        let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(1000) };
        let mut nodes: Vec<DurableNode<AstroOneReplica>> = (0..4)
            .map(|i| recover_astro1(&dir, i, layout.clone(), cfg.clone(), &store_cfg).unwrap())
            .collect();
        let mut queue: VecDeque<(ReplicaId, ReplicaId, Astro1Msg)> = VecDeque::new();
        fn route(
            queue: &mut VecDeque<(ReplicaId, ReplicaId, Astro1Msg)>,
            from: ReplicaId,
            step: ReplicaStep<Astro1Msg>,
        ) {
            for env in step.outbound {
                match env.to {
                    Dest::All => {
                        for i in 0..4u32 {
                            queue.push_back((from, ReplicaId(i), env.msg.clone()));
                        }
                    }
                    Dest::One(to) => queue.push_back((from, to, env.msg)),
                }
            }
        }
        // 32 settles at batch size 1 = 32 broadcast instances; without
        // snapshot-install GC every one would be tracked forever.
        let rep = layout.representative_of(astro_types::ClientId(1));
        for seq in 0..32u64 {
            let step = RuntimeNode::submit(
                &mut nodes[rep.0 as usize],
                Payment::new(1u64, seq, 2u64, 1u64),
            )
            .unwrap();
            route(&mut queue, rep, step);
            while let Some((from, to, msg)) = queue.pop_front() {
                let step = RuntimeNode::handle(&mut nodes[to.0 as usize], from, msg);
                route(&mut queue, to, step);
            }
        }
        // Quiesce: installs run off-thread, so under a loaded machine the
        // last seal may still be deferred behind an in-flight install.
        // Fold whatever is in flight, settle one more threshold's worth
        // (guaranteeing a fresh seal covering everything before it), and
        // fold that install too — after which at most the post-seal tail
        // of the extra round is still tracked.
        for node in &mut nodes {
            node.drain_installs();
        }
        for seq in 32..36u64 {
            let step = RuntimeNode::submit(
                &mut nodes[rep.0 as usize],
                Payment::new(1u64, seq, 2u64, 1u64),
            )
            .unwrap();
            route(&mut queue, rep, step);
            while let Some((from, to, msg)) = queue.pop_front() {
                let step = RuntimeNode::handle(&mut nodes[to.0 as usize], from, msg);
                route(&mut queue, to, step);
            }
        }
        for node in &mut nodes {
            node.drain_installs();
        }
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.node().ledger().total_settled(), 36, "replica {i}");
            let tracked = node.node().tracked_instances();
            assert!(
                tracked <= 4,
                "replica {i}: snapshot-install GC must prune history, still tracks {tracked}"
            );
        }
    }

    #[test]
    fn restart_errors_are_reported() {
        let dir = tmp_dir("restart-errors");
        let mut cluster = crate::AstroOneCluster::start_tcp_durable(
            4,
            &dir,
            Astro1Config { batch_size: 4, initial_balance: Amount(100) },
            Duration::from_millis(1),
        )
        .unwrap();
        assert!(matches!(cluster.restart_replica(2), Err(ClusterError::ReplicaRunning(2))));
        cluster.kill_replica(2).unwrap();
        assert!(matches!(cluster.kill_replica(2), Err(ClusterError::ReplicaStopped(2))));
        cluster.restart_replica(2).unwrap();
        cluster.shutdown();

        let mut plain =
            crate::AstroOneCluster::builder(4, Astro1Config::default(), Duration::from_millis(1))
                .start()
                .unwrap();
        plain.kill_replica(1).unwrap();
        assert!(
            matches!(plain.restart_replica(1), Err(ClusterError::NotRestartable)),
            "in-process endpoints cannot be re-established"
        );
        plain.shutdown();
    }
}
