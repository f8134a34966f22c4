//! Threaded deployment of Astro replicas, generic over the transport.
//!
//! The simulator (`astro-sim`) models time; this crate runs the *same*
//! replica state machines under real concurrency: one OS thread per
//! replica, an [`astro_net::Transport`] carrying wire-encoded protocol
//! messages between them, and real wall-clock batching timers. Two
//! backends ship today:
//!
//! - [`InProcTransport`](astro_net::InProcTransport) — crossbeam channels, authenticated by
//!   construction: the deterministic-outcome baseline.
//! - [`TcpTransport`](astro_net::TcpTransport) — real sockets with HMAC-authenticated sessions
//!   (paper §III's authenticated links made literal), one connection per
//!   replica link, reconnect-on-drop.
//!
//! The replica state machines cannot tell the difference: messages are
//! encoded with [`astro_types::wire::Wire`], moved as bytes, and decoded
//! on receipt (a peer's malformed bytes are dropped, never a panic).
//! [`AstroOneCluster`] runs Astro I (Bracha BRB); [`AstroTwoCluster`] runs
//! Astro II (signature-based BRB with CREDIT certificates) under real
//! Schnorr signatures. Both are one [`AstroCluster`] type started through
//! one [`ClusterBuilder`].
//!
//! # Examples
//!
//! ```
//! use astro_runtime::AstroOneCluster;
//! use astro_core::astro1::Astro1Config;
//! use astro_types::{Amount, ClientId, Payment};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = AstroOneCluster::builder(
//!     4,
//!     Astro1Config { batch_size: 4, initial_balance: Amount(100) },
//!     std::time::Duration::from_millis(1),
//! )
//! .start()?;
//! cluster.submit(Payment::new(1u64, 0u64, 2u64, 30u64))?;
//! let settled = cluster.wait_settled(1, std::time::Duration::from_secs(5));
//! assert_eq!(settled.len(), 1);
//! let finals = cluster.shutdown();
//! let expected: std::collections::HashMap<ClientId, Amount> =
//!     [(ClientId(1), Amount(70)), (ClientId(2), Amount(130))].into_iter().collect();
//! assert_eq!(finals[0].0, expected);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod durable;
pub mod verify;

pub use cluster::{AstroCluster, AstroOneCluster, AstroTwoCluster, ClusterBuilder, Hosted};
pub use durable::{demo_keychains, DurableNode, PersistentNode};
pub use verify::{Ticket, VerifyMode, VerifyPool};

use astro_brb::Dest;
use astro_core::{CoreObs, Replica, ReplicaStep, SubmitError};
use astro_net::{Endpoint, NetError};
use astro_obs::{
    Counter, FlightRecorder, HealthConfig, HealthMonitor, Histogram, PaymentTracer, Registry,
    ServeHandle, Stage,
};
use astro_types::wire::{decode_exact, Wire};
use astro_types::{Amount, ClientId, ConfigError, Payment, ReplicaId, ShardLayout};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on one transport poll, so control-channel commands (client
/// submissions, shutdown) are picked up promptly even under long flush
/// intervals.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// Maximum inbound messages processed per cork window. Bounds how long a
/// replica defers its flush timer under sustained inbound pressure. With
/// a verify pool attached, one burst is also the scope of a verification
/// super-batch: the commit proofs and certificates the burst carries,
/// across all BRB instances, verify as one job (ACKs and CREDITs verify
/// on the replica thread, only while they can still count).
const BURST: usize = 128;

/// With a verify pool, how many inbound messages may sit awaiting their
/// verification ticket before the driver blocks on the oldest one.
/// Bounds pending-queue memory under sustained overload.
const PENDING_HIGH_WATER: usize = 8 * BURST;

/// Tracked-BRB-instance count at which a replica prunes its delivered
/// instances after handling a message. Durable clusters additionally GC
/// at every snapshot install; this size-based trigger is what bounds
/// broadcast-layer memory on clusters that never snapshot (ROADMAP's
/// non-durable GC follow-up). 256 comfortably exceeds any in-flight
/// window the drivers produce, so the prune only ever removes history.
const BRB_GC_HIGH_WATER: usize = 256;

/// The cross-thread settlement board: per-replica settled logs plus a
/// condvar so waiters ([`Cluster::wait_settled`]) block on progress
/// notifications instead of sleep-polling.
struct SettledBoard {
    logs: Mutex<Vec<Vec<Payment>>>,
    progress: Condvar,
}

impl SettledBoard {
    fn new(n: usize) -> Self {
        SettledBoard { logs: Mutex::new(vec![Vec::new(); n]), progress: Condvar::new() }
    }

    fn extend(&self, replica: ReplicaId, settled: Vec<Payment>) {
        let mut logs = self.logs.lock();
        logs[replica.0 as usize].extend(settled);
        drop(logs);
        self.progress.notify_all();
    }
}

/// Errors starting or driving a cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// Fewer than `3f + 1 = 4` replicas were requested.
    TooSmall {
        /// The requested size.
        n: usize,
    },
    /// The shard layout could not be built.
    Config(ConfigError),
    /// The transport failed to come up.
    Net(NetError),
    /// The transport's endpoint count does not match the replica count.
    EndpointMismatch {
        /// Replicas requested.
        expected: usize,
        /// Endpoints provided.
        got: usize,
    },
    /// The cluster is shutting down and no longer accepts payments.
    ShuttingDown,
    /// Durable storage failed.
    Storage(std::io::Error),
    /// Recovered on-disk state failed validation.
    Recovery(&'static str),
    /// Restart was requested on a cluster without restart metadata (an
    /// in-process cluster, whose endpoints cannot be re-established).
    NotRestartable,
    /// The replica is still running (restart requires a prior kill).
    ReplicaRunning(usize),
    /// The replica is not running (kill requires a live replica).
    ReplicaStopped(usize),
    /// Transport and signing keychain counts differ.
    KeychainMismatch {
        /// Transport keychains provided.
        transport: usize,
        /// Signing keychains provided.
        signing: usize,
    },
    /// The operation needs a metric registry, but the cluster was
    /// started unobserved.
    NotObserved,
    /// The metrics scrape endpoint could not be started.
    Export(std::io::Error),
}

impl core::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClusterError::TooSmall { n } => {
                write!(f, "a cluster needs at least 4 replicas, got {n}")
            }
            ClusterError::Config(e) => write!(f, "invalid layout: {e}"),
            ClusterError::Net(e) => write!(f, "transport failed: {e}"),
            ClusterError::EndpointMismatch { expected, got } => {
                write!(f, "transport has {got} endpoints for {expected} replicas")
            }
            ClusterError::ShuttingDown => f.write_str("cluster is shut down"),
            ClusterError::Storage(e) => write!(f, "durable storage failed: {e}"),
            ClusterError::Recovery(what) => write!(f, "recovered state invalid: {what}"),
            ClusterError::NotRestartable => {
                f.write_str("cluster has no restartable transport (in-process endpoints)")
            }
            ClusterError::ReplicaRunning(i) => write!(f, "replica {i} is still running"),
            ClusterError::ReplicaStopped(i) => write!(f, "replica {i} is not running"),
            ClusterError::KeychainMismatch { transport, signing } => {
                write!(f, "{transport} transport keychains but {signing} signing keychains")
            }
            ClusterError::NotObserved => {
                f.write_str("cluster was started without a metric registry")
            }
            ClusterError::Export(e) => write!(f, "metrics endpoint failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Config(e) => Some(e),
            ClusterError::Net(e) => Some(e),
            ClusterError::Storage(e) => Some(e),
            ClusterError::Export(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ClusterError {
    fn from(e: ConfigError) -> Self {
        ClusterError::Config(e)
    }
}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> Self {
        ClusterError::Net(e)
    }
}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Storage(e)
    }
}

/// A replica state machine the threaded driver can host.
///
/// Implemented by every [`Replica`] of a [`Hosted`] protocol — Astro I
/// and Schnorr-backed Astro II; the driver, cluster plumbing, and
/// transports are shared.
pub trait RuntimeNode: Send + 'static {
    /// The peer-to-peer message type.
    type Msg: Wire + Clone + Send + 'static;

    /// This replica's id.
    fn id(&self) -> ReplicaId;

    /// A client submits a payment at its representative.
    ///
    /// # Errors
    ///
    /// Rejects clients this replica does not represent.
    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Self::Msg>, SubmitError>;

    /// Processes one peer message.
    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg>;

    /// Flushes the pending batch (timer-driven).
    fn flush(&mut self) -> ReplicaStep<Self::Msg>;

    /// Final per-client balances (every client the replica has seen).
    fn final_balances(&self) -> HashMap<ClientId, Amount>;

    /// Total payments settled.
    fn total_settled(&self) -> usize;

    /// A client's spendable funds at this replica: the ledger balance
    /// plus, at an Astro II representative, certified-but-unspent credits
    /// awaiting the client's next outgoing payment. Default: the ledger
    /// balance alone.
    fn available_balance(&self, client: ClientId) -> Amount {
        self.final_balances().get(&client).copied().unwrap_or(Amount(0))
    }

    /// Called once on a *clean* stop, before the thread exits — durable
    /// nodes flush their group commit here. Not called on a simulated
    /// crash ([`Cluster::kill_replica`]), which is the point of the
    /// simulation. Default: nothing.
    fn stopping(&mut self) {}

    /// The Schnorr signature checks of `msg` that the cluster's
    /// [`VerifyPool`] should run ahead of [`handle`](Self::handle); any
    /// other check runs inside `handle`, on this thread. A node whose
    /// messages carry no pool-verifiable signatures (Astro I's
    /// MAC-authenticated traffic) returns none and the pool is bypassed.
    fn preverify(&self, from: ReplicaId, msg: &Self::Msg) -> Vec<astro_types::SigCheck> {
        let _ = (from, msg);
        Vec::new()
    }

    /// Resolves this node's metric/trace handles from `registry` — called
    /// once before the node's thread spawns (and again on respawn), only
    /// on observed clusters. Default: the node records nothing.
    fn attach_registry(&mut self, registry: &Arc<Registry>) {
        let _ = registry;
    }
}

fn ledger_balances(ledger: &astro_core::Ledger) -> HashMap<ClientId, Amount> {
    let mut clients: Vec<ClientId> =
        ledger.xlogs().flat_map(|x| x.iter().flat_map(|p| [p.spender, p.beneficiary])).collect();
    clients.sort_unstable();
    clients.dedup();
    clients.into_iter().map(|c| (c, ledger.balance(c))).collect()
}

impl<P: Hosted> RuntimeNode for Replica<P>
where
    Replica<P>: Send,
{
    type Msg = P::Msg;

    fn id(&self) -> ReplicaId {
        Replica::id(self)
    }

    fn submit(&mut self, payment: Payment) -> Result<ReplicaStep<Self::Msg>, SubmitError> {
        Replica::submit(self, payment)
    }

    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg> {
        let step = Replica::handle(self, from, msg);
        if self.tracked_instances() >= BRB_GC_HIGH_WATER {
            self.prune_delivered();
        }
        step
    }

    fn flush(&mut self) -> ReplicaStep<Self::Msg> {
        Replica::flush(self)
    }

    fn final_balances(&self) -> HashMap<ClientId, Amount> {
        ledger_balances(self.ledger())
    }

    fn total_settled(&self) -> usize {
        self.ledger().total_settled()
    }

    fn available_balance(&self, client: ClientId) -> Amount {
        P::available_balance(self, client)
    }

    fn preverify(&self, from: ReplicaId, msg: &Self::Msg) -> Vec<astro_types::SigCheck> {
        P::preverify(from, msg)
    }

    fn attach_registry(&mut self, registry: &Arc<Registry>) {
        let me = Replica::id(self).0;
        self.set_obs(CoreObs::for_replica(registry, me));
    }
}

/// Control-channel commands, delivered outside the replica mesh (clients
/// are not replicas; their submissions do not travel authenticated links).
enum Ctrl {
    Client(Payment),
    /// Reads a client's `(ledger, available)` balances off the replica
    /// thread — how restart tests watch replayed CREDIT certificates
    /// arrive at a representative before spending them.
    Probe(ClientId, Sender<(Amount, Amount)>),
    Stop,
    /// Simulated power loss: exit immediately — no final flush, no
    /// storage sync. What the replica finds on disk afterwards is exactly
    /// what group commit had pushed out.
    Crash,
}

/// What a replica thread leaves behind when it exits.
type ReplicaResult = (HashMap<ClientId, Amount>, usize);

/// One replica's slot in the driver: its control channel, its thread (if
/// running), and — after a kill — the state it reported on exit.
struct Seat {
    ctrl: Sender<Ctrl>,
    handle: Option<JoinHandle<ReplicaResult>>,
    last_result: Option<ReplicaResult>,
}

/// The transport-generic threaded cluster driver.
///
/// Owns one OS thread per replica; each thread multiplexes its control
/// channel (client traffic, shutdown) with its transport endpoint (peer
/// traffic) and flushes batches on a wall-clock timer. Individual
/// replicas can be killed (simulated crash) and respawned with a
/// recovered node and a fresh endpoint — the durable cluster entry points
/// build their restart path on this.
pub struct Cluster {
    seats: Vec<Seat>,
    settled: Arc<SettledBoard>,
    layout: ShardLayout,
    /// The shared verification pipeline, when the cluster runs pooled.
    pool: Option<Arc<VerifyPool>>,
    /// The metric registry, when the cluster runs observed (respawned
    /// replicas re-attach to it).
    registry: Option<Arc<Registry>>,
}

impl Cluster {
    /// Starts `nodes` with an optional [`VerifyPool`] *and* an optional
    /// metric [`Registry`]: with a registry attached, every layer records
    /// into it — transport link counters, the verify pipeline, each
    /// node's protocol counters and lifecycle stages, and the driver's
    /// own burst/backlog metrics. Without one, nothing is resolved and
    /// every instrumentation site is a `None` check.
    ///
    /// # Errors
    ///
    /// Fails on a node/endpoint count mismatch.
    pub fn start_endpoints_observed<N, E>(
        nodes: Vec<N>,
        endpoints: Vec<E>,
        layout: ShardLayout,
        flush_every: Duration,
        pool: Option<Arc<VerifyPool>>,
        registry: Option<Arc<Registry>>,
    ) -> Result<Cluster, ClusterError>
    where
        N: RuntimeNode,
        E: Endpoint,
    {
        let n = nodes.len();
        if endpoints.len() != n {
            return Err(ClusterError::EndpointMismatch { expected: n, got: endpoints.len() });
        }
        if let (Some(reg), Some(pool)) = (&registry, &pool) {
            pool.attach_registry(reg);
        }
        let settled = Arc::new(SettledBoard::new(n));
        let mut cluster = Cluster { seats: Vec::with_capacity(n), settled, layout, pool, registry };
        for (node, endpoint) in nodes.into_iter().zip(endpoints) {
            let seat = cluster.spawn_seat(node, endpoint, flush_every);
            cluster.seats.push(seat);
        }
        Ok(cluster)
    }

    /// Spawns one replica thread hosting `node` over `endpoint`. On an
    /// observed cluster the node, its endpoint and the driver record into
    /// the cluster's registry — a respawned incarnation into the same
    /// handles its predecessor used.
    fn spawn_seat<N: RuntimeNode, E: Endpoint>(
        &self,
        mut node: N,
        mut endpoint: E,
        flush_every: Duration,
    ) -> Seat {
        let obs = self.registry.as_ref().map(|reg| {
            endpoint.attach_registry(reg);
            node.attach_registry(reg);
            DriverObs::for_replica(reg, node.id(), &self.layout)
        });
        let (tx, rx) = unbounded();
        let settled_board = Arc::clone(&self.settled);
        let pool = self.pool.clone();
        let handle = std::thread::spawn(move || {
            replica_main(
                &mut node,
                endpoint,
                &rx,
                &settled_board,
                flush_every,
                pool.as_deref(),
                obs.as_ref(),
            )
        });
        Seat { ctrl: tx, handle: Some(handle), last_result: None }
    }

    /// The client → representative mapping in use.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The shared verify pool, if the cluster runs pooled (respawned
    /// replicas re-attach to it).
    pub fn verify_pool(&self) -> Option<&Arc<VerifyPool>> {
        self.pool.as_ref()
    }

    /// The metric registry, if the cluster runs observed.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Starts the live scrape endpoint ([`Registry::serve`]) for this
    /// cluster's registry on `addr` (`"127.0.0.1:0"` for an ephemeral
    /// port). The endpoint runs on its own thread and stops when the
    /// returned handle is dropped; it never touches the settle path
    /// beyond the relaxed atomic reads a snapshot performs.
    ///
    /// # Errors
    ///
    /// Fails if the cluster runs unobserved or the address cannot be
    /// bound.
    pub fn serve_metrics(&self, addr: &str) -> Result<ServeHandle, ClusterError> {
        let registry = self.registry.as_ref().ok_or(ClusterError::NotObserved)?;
        registry.serve(addr).map_err(ClusterError::Export)
    }

    /// Spawns the gray-failure health tick
    /// ([`astro_obs::HealthMonitor`]): every `interval`
    /// it snapshots the registry, feeds the
    /// [`HealthEngine`](astro_obs::HealthEngine), and publishes
    /// `health.*` gauges plus flight-recorder transition events. The
    /// monitor stops when the returned handle is dropped.
    ///
    /// # Errors
    ///
    /// Fails if the cluster runs unobserved.
    pub fn spawn_health_monitor(
        &self,
        cfg: HealthConfig,
        interval: Duration,
    ) -> Result<HealthMonitor, ClusterError> {
        let registry = self.registry.as_ref().ok_or(ClusterError::NotObserved)?;
        Ok(HealthMonitor::spawn(Arc::clone(registry), self.seats.len(), cfg, interval))
    }

    /// True if replica `i`'s thread is (still) attached.
    pub fn is_running(&self, i: usize) -> bool {
        self.seats[i].handle.is_some()
    }

    /// Kills replica `i` the unclean way: the thread exits immediately,
    /// without the final flush/sync a clean stop performs — in-memory
    /// replica state is gone, and durable state is whatever group commit
    /// already pushed out. The transport endpoint drops with the thread,
    /// severing the replica's links.
    ///
    /// # Errors
    ///
    /// Fails if the replica is not running.
    pub fn kill_replica(&mut self, i: usize) -> Result<(), ClusterError> {
        let seat = &mut self.seats[i];
        let Some(handle) = seat.handle.take() else {
            return Err(ClusterError::ReplicaStopped(i));
        };
        let _ = seat.ctrl.send(Ctrl::Crash);
        seat.last_result = Some(handle.join().expect("replica thread panicked"));
        Ok(())
    }

    /// Respawns seat `i` with a (recovered) node and a fresh endpoint.
    ///
    /// # Errors
    ///
    /// Fails if the replica is still running.
    pub fn respawn<N, E>(
        &mut self,
        i: usize,
        node: N,
        endpoint: E,
        flush_every: Duration,
    ) -> Result<(), ClusterError>
    where
        N: RuntimeNode,
        E: Endpoint,
    {
        if self.seats[i].handle.is_some() {
            return Err(ClusterError::ReplicaRunning(i));
        }
        self.seats[i] = self.spawn_seat(node, endpoint, flush_every);
        Ok(())
    }

    /// Submits a payment to the spender's representative.
    ///
    /// # Errors
    ///
    /// Fails if the representative is down or the cluster is shutting
    /// down.
    pub fn submit(&self, payment: Payment) -> Result<(), ClusterError> {
        let rep = self.layout.representative_of(payment.spender);
        // Stamped before the control channel, so the submit→prepare span
        // includes the queueing delay the client actually pays.
        if let Some(reg) = &self.registry {
            reg.tracer().stage(payment.spender.0, payment.seq.0, Stage::Submit);
        }
        self.seats[rep.0 as usize]
            .ctrl
            .send(Ctrl::Client(payment))
            .map_err(|_| ClusterError::ShuttingDown)
    }

    /// Blocks until every replica has settled at least `count` payments or
    /// the timeout elapses; returns replica 0's settled log.
    ///
    /// Waiters park on a condition variable that replica threads notify as
    /// settlements land — wake-up is immediate, not quantized by a poll
    /// interval.
    pub fn wait_settled(&self, count: usize, timeout: Duration) -> Vec<Payment> {
        let all: Vec<usize> = (0..self.seats.len()).collect();
        self.wait_settled_among(&all, count, timeout);
        self.settled_at(0)
    }

    /// Settled payments as observed by replica `i` so far.
    pub fn settled_at(&self, i: usize) -> Vec<Payment> {
        self.settled.logs.lock()[i].clone()
    }

    /// Reads `client`'s `(ledger, available)` balances at replica `i`.
    /// `available` additionally counts certified-but-unspent credits an
    /// Astro II representative holds for the client — what a restart test
    /// polls to see replayed CREDIT certificates arrive before spending
    /// them.
    ///
    /// # Errors
    ///
    /// Fails if the replica is down or the cluster is shutting down.
    pub fn probe_balance(
        &self,
        i: usize,
        client: ClientId,
    ) -> Result<(Amount, Amount), ClusterError> {
        let (tx, rx) = unbounded();
        self.seats[i].ctrl.send(Ctrl::Probe(client, tx)).map_err(|_| ClusterError::ShuttingDown)?;
        rx.recv().map_err(|_| ClusterError::ShuttingDown)
    }

    /// Like [`Self::wait_settled`], but only waits on the listed
    /// replicas — what a test with a deliberately killed replica uses to
    /// wait on the live quorum. Returns true if every listed replica
    /// reached `count` before the timeout.
    pub fn wait_settled_among(&self, replicas: &[usize], count: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut logs = self.settled.logs.lock();
        loop {
            if replicas.iter().all(|&i| logs[i].len() >= count) {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            // Spurious wakeups and partial progress re-check the predicate.
            let _ = self.settled.progress.wait_for(&mut logs, remaining);
        }
    }

    /// Stops all replicas and returns each replica's final balance map and
    /// total settled count. A replica that was killed and never restarted
    /// reports the state it had at the kill.
    pub fn shutdown(self) -> Vec<(HashMap<ClientId, Amount>, usize)> {
        for seat in &self.seats {
            let _ = seat.ctrl.send(Ctrl::Stop);
        }
        self.seats
            .into_iter()
            .map(|seat| match seat.handle {
                Some(h) => h.join().expect("replica thread panicked"),
                None => seat.last_result.unwrap_or_default(),
            })
            .collect()
    }
}

/// Driver-level metric handles of one replica thread, resolved once at
/// spawn on observed clusters. The driver is where two lifecycle stages
/// live that the state machine cannot see: nothing (submission is stamped
/// cluster-side), and *confirmation* — the spender's representative
/// observing the settle, which is what a closed-loop client measures.
struct DriverObs {
    tracer: PaymentTracer,
    layout: ShardLayout,
    /// Inbound messages handled per cork window (burst sizes).
    burst_msgs: Histogram,
    /// Times the parked backlog crossed [`PENDING_HIGH_WATER`] and the
    /// driver blocked on the oldest super-batch.
    pending_high_water: Counter,
    /// Outbound sends the transport failed fast on (peer link down).
    /// Broadcast losses are masked by quorums; unicast losses matter —
    /// CREDIT sub-batches ride on the core's retry outbox, which the
    /// flush timer retransmits until acked, so a spike here with a flat
    /// `core.*.credit_acks` is the gray-failure signature to alert on.
    send_failures: Counter,
    flight: FlightRecorder,
}

impl DriverObs {
    fn for_replica(registry: &Registry, me: ReplicaId, layout: &ShardLayout) -> DriverObs {
        let name = |suffix: &str| format!("runtime.r{}.{suffix}", me.0);
        DriverObs {
            tracer: registry.tracer().clone(),
            layout: layout.clone(),
            burst_msgs: registry.histogram(&name("burst_msgs")),
            pending_high_water: registry.counter(&name("pending_high_water")),
            send_failures: registry.counter(&name("send_failures")),
            flight: registry.flight(me.0),
        }
    }

    /// Stamps [`Stage::Confirm`] for every settled payment whose spender
    /// this replica represents — the point its client would learn the
    /// payment went through.
    fn confirm_settled(&self, me: ReplicaId, settled: &[Payment]) {
        let now = self.tracer.now_nanos();
        for p in settled {
            if self.layout.representative_of(p.spender) == me {
                self.tracer.stage_at(now, p.spender.0, p.seq.0, Stage::Confirm);
            }
        }
    }
}

/// An inbound message parked until its verification ticket completes.
/// Messages of one burst share one ticket (their signatures verified as a
/// single super-batch).
type Parked<M> = (ReplicaId, M, Option<verify::Ticket>);

/// Submits a decoded burst's signature checks as one job and parks its
/// messages behind the job's ticket, after everything already parked.
/// Checks with a cached verdict never reach a worker
/// ([`VerifyPool::submit`]); when that leaves none, the messages park
/// with no ticket, and the next [`drain_verified`] handles them as soon
/// as everything ahead of them is handled.
fn park_burst<M>(
    pool: &VerifyPool,
    checks: Vec<astro_types::SigCheck>,
    burst: Vec<(ReplicaId, M)>,
    pending: &mut VecDeque<Parked<M>>,
) {
    let ticket = pool.submit(checks);
    let ticket = (!ticket.is_done()).then_some(ticket);
    pending.extend(burst.into_iter().map(|(from, msg)| (from, msg, ticket.clone())));
}

/// Handles every parked message whose verification has completed, in
/// arrival order; stops at the first still-running ticket (or drains
/// everything when `block` is set). Must run inside a cork window.
fn drain_verified<N: RuntimeNode, E: Endpoint>(
    node: &mut N,
    pending: &mut VecDeque<Parked<N::Msg>>,
    endpoint: &mut E,
    settled: &Arc<SettledBoard>,
    me: ReplicaId,
    block: bool,
    obs: Option<&DriverObs>,
) {
    while let Some((_, _, ticket)) = pending.front() {
        match ticket {
            Some(t) if !t.is_done() => {
                if !block {
                    return;
                }
                t.wait();
            }
            _ => {}
        }
        let (from, msg, _) = pending.pop_front().expect("checked front");
        let step = node.handle(from, msg);
        dispatch(me, step, endpoint, settled, obs);
    }
}

fn replica_main<N: RuntimeNode, E: Endpoint>(
    node: &mut N,
    mut endpoint: E,
    ctrl: &Receiver<Ctrl>,
    settled: &Arc<SettledBoard>,
    flush_every: Duration,
    pool: Option<&VerifyPool>,
    obs: Option<&DriverObs>,
) -> (HashMap<ClientId, Amount>, usize) {
    let me = node.id();
    let mut next_flush = Instant::now() + flush_every;
    // Pool mode: messages decoded but awaiting their burst's verification
    // ticket, in arrival order. Always empty in serial mode.
    let mut pending: VecDeque<Parked<N::Msg>> = VecDeque::new();
    'run: loop {
        // Work generated in this window is corked: the transport coalesces
        // the frames per link and writes each link once at uncork, so a
        // burst of k messages costs O(1) syscalls per link, not O(k).
        endpoint.cork();
        // Drain control traffic first: client submissions and shutdown.
        loop {
            match ctrl.try_recv() {
                Ok(Ctrl::Stop) | Err(TryRecvError::Disconnected) => {
                    // A clean stop processes everything already received —
                    // pooled and serial runs must leave identical state.
                    drain_verified(node, &mut pending, &mut endpoint, settled, me, true, obs);
                    let _ = endpoint.uncork();
                    node.stopping();
                    if let Some(o) = obs {
                        o.flight.event("runtime.stop", node.total_settled() as u64, 0);
                    }
                    break 'run;
                }
                Ok(Ctrl::Crash) => {
                    // Simulated power loss: no uncork, no stopping() — the
                    // thread vanishes mid-step, like the machine did, and
                    // parked messages are lost like messages on the wire.
                    if let Some(o) = obs {
                        o.flight.event("runtime.crash", pending.len() as u64, 0);
                    }
                    return (node.final_balances(), node.total_settled());
                }
                Ok(Ctrl::Client(p)) => {
                    if let Ok(step) = node.submit(p) {
                        dispatch(me, step, &mut endpoint, settled, obs);
                    }
                }
                Ok(Ctrl::Probe(client, reply)) => {
                    let ledger = node.final_balances().get(&client).copied().unwrap_or(Amount(0));
                    let _ = reply.send((ledger, node.available_balance(client)));
                }
                Err(TryRecvError::Empty) => break,
            }
        }
        if Instant::now() >= next_flush {
            let step = node.flush();
            dispatch(me, step, &mut endpoint, settled, obs);
            next_flush = Instant::now() + flush_every;
        }
        drain_verified(node, &mut pending, &mut endpoint, settled, me, false, obs);
        let _ = endpoint.uncork();
        // Peer traffic, waiting at most until the next flush deadline for
        // the first message, then draining the burst that is already
        // queued (bounded, so the flush timer cannot starve).
        let wait = next_flush.saturating_duration_since(Instant::now()).min(POLL_SLICE);
        if let Ok(Some(first)) = endpoint.recv_timeout(wait) {
            endpoint.cork();
            match pool {
                None => {
                    // Serial path: verification runs wherever the state
                    // machine asks, on this thread.
                    let mut handled: u64 = 0;
                    let (from, bytes) = first;
                    // Malformed bytes from a Byzantine peer are dropped
                    // here; the wire codec is total, so this is the only
                    // failure mode.
                    if let Ok(msg) = decode_exact::<N::Msg>(&bytes) {
                        let step = node.handle(from, msg);
                        dispatch(me, step, &mut endpoint, settled, obs);
                        handled += 1;
                    }
                    for _ in 1..BURST {
                        match endpoint.recv_timeout(Duration::ZERO) {
                            Ok(Some((from, bytes))) => {
                                if let Ok(msg) = decode_exact::<N::Msg>(&bytes) {
                                    let step = node.handle(from, msg);
                                    dispatch(me, step, &mut endpoint, settled, obs);
                                    handled += 1;
                                }
                            }
                            _ => break,
                        }
                    }
                    if let Some(o) = obs {
                        o.burst_msgs.record(handled);
                    }
                }
                Some(pool) => {
                    // Pipelined path: decode the whole burst, submit the
                    // commit proofs and certificates it carries as ONE
                    // super-batch (all pending BRB instances amortize into
                    // a single multi-scalar multiplication on a worker),
                    // park the messages, and keep draining transport while
                    // the pool verifies.
                    let mut checks: Vec<astro_types::SigCheck> = Vec::new();
                    let mut burst: Vec<(ReplicaId, N::Msg)> = Vec::new();
                    let mut take = |from: ReplicaId, bytes: &[u8]| {
                        if let Ok(msg) = decode_exact::<N::Msg>(bytes) {
                            checks.extend(node.preverify(from, &msg));
                            burst.push((from, msg));
                        }
                    };
                    take(first.0, &first.1);
                    for _ in 1..BURST {
                        match endpoint.recv_timeout(Duration::ZERO) {
                            Ok(Some((from, bytes))) => take(from, &bytes),
                            _ => break,
                        }
                    }
                    if let Some(o) = obs {
                        o.burst_msgs.record(burst.len() as u64);
                    }
                    park_burst(pool, checks, burst, &mut pending);
                    drain_verified(node, &mut pending, &mut endpoint, settled, me, false, obs);
                    // Under sustained overload, bound the parked backlog by
                    // waiting for the oldest super-batch.
                    if pending.len() > PENDING_HIGH_WATER {
                        if let Some(o) = obs {
                            o.pending_high_water.inc();
                            o.flight.event("runtime.pending_high_water", pending.len() as u64, 0);
                        }
                        drain_verified(node, &mut pending, &mut endpoint, settled, me, true, obs);
                    }
                }
            }
            let _ = endpoint.uncork();
        }
    }
    (node.final_balances(), node.total_settled())
}

fn dispatch<M: Wire, E: Endpoint>(
    me: ReplicaId,
    step: ReplicaStep<M>,
    endpoint: &mut E,
    settled: &Arc<SettledBoard>,
    obs: Option<&DriverObs>,
) {
    if !step.settled.is_empty() {
        if let Some(o) = obs {
            o.confirm_settled(me, &step.settled);
        }
        settled.extend(me, step.settled);
    }
    for env in step.outbound {
        let bytes = env.msg.to_wire_bytes();
        // A failed send means a peer link is down. Broadcast losses are
        // masked by quorums; unicast losses (CREDIT sub-batches, acks,
        // sync traffic) are fail-fast outcomes the replica's retry
        // machinery covers — CREDITs sit in the core's acked outbox and
        // retransmit on the flush timer until the destination confirms.
        // Either way the failure is surfaced, never silently swallowed.
        match env.to {
            Dest::All => {
                if endpoint.broadcast(&bytes).is_err() {
                    if let Some(o) = obs {
                        o.send_failures.inc();
                        o.flight.event("runtime.send_failed", u64::from(me.0), 0);
                    }
                }
            }
            Dest::One(to) => {
                if endpoint.send(to, &bytes).is_err() {
                    if let Some(o) = obs {
                        o.send_failures.inc();
                        o.flight.event("runtime.send_failed", u64::from(to.0), 0);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_core::astro1::{Astro1Config, AstroOneReplica};
    use astro_core::astro2::Astro2Config;
    use astro_types::Keychain;

    fn cfg() -> Astro1Config {
        Astro1Config { batch_size: 8, initial_balance: Amount(1_000) }
    }

    #[test]
    fn start_rejects_too_small_clusters() {
        for n in 0..4 {
            match AstroOneCluster::builder(n, cfg(), Duration::from_millis(1)).start() {
                Err(ClusterError::TooSmall { n: got }) => assert_eq!(got, n),
                other => panic!("expected TooSmall for n={n}, got {:?}", other.is_ok()),
            }
        }
        assert!(matches!(
            AstroTwoCluster::builder(3, Astro2Config::default(), Duration::from_millis(1))
                .signing(Keychain::deterministic_system(b"runtime-test-signing", 3))
                .start(),
            Err(ClusterError::TooSmall { n: 3 })
        ));
    }

    #[test]
    fn threaded_cluster_settles_payments() {
        let cluster = AstroOneCluster::builder(4, cfg(), Duration::from_millis(1)).start().unwrap();
        for seq in 0..20u64 {
            cluster.submit(Payment::new(1u64, seq, 2u64, 10u64)).unwrap();
        }
        let settled = cluster.wait_settled(20, Duration::from_secs(10));
        assert_eq!(settled.len(), 20);
        let finals = cluster.shutdown();
        for (balances, count) in &finals {
            assert_eq!(*count, 20);
            assert_eq!(balances[&ClientId(1)], Amount(800));
            assert_eq!(balances[&ClientId(2)], Amount(1_200));
        }
    }

    #[test]
    fn concurrent_clients_converge() {
        let cluster =
            Arc::new(AstroOneCluster::builder(4, cfg(), Duration::from_millis(1)).start().unwrap());
        // Two client threads submitting interleaved payment streams.
        let c1 = {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                for seq in 0..25u64 {
                    cluster.submit(Payment::new(3u64, seq, 4u64, 1u64)).unwrap();
                }
            })
        };
        for seq in 0..25u64 {
            cluster.submit(Payment::new(5u64, seq, 6u64, 1u64)).unwrap();
        }
        c1.join().unwrap();
        let settled = cluster.wait_settled(50, Duration::from_secs(10));
        assert_eq!(settled.len(), 50);
        let cluster = Arc::into_inner(cluster).expect("sole owner");
        let finals = cluster.shutdown();
        for (balances, count) in &finals {
            assert_eq!(*count, 50);
            assert_eq!(balances[&ClientId(4)], Amount(1_025));
            assert_eq!(balances[&ClientId(6)], Amount(1_025));
        }
    }

    #[test]
    fn all_replicas_observe_identical_settlement_order_per_client() {
        let cluster = AstroOneCluster::builder(4, cfg(), Duration::from_millis(1)).start().unwrap();
        for seq in 0..30u64 {
            cluster.submit(Payment::new(7u64, seq, 8u64, 1u64)).unwrap();
        }
        cluster.wait_settled(30, Duration::from_secs(10));
        let logs: Vec<Vec<Payment>> = (0..4).map(|i| cluster.settled_at(i)).collect();
        cluster.shutdown();
        for log in &logs {
            let seqs: Vec<u64> = log.iter().map(|p| p.seq.0).collect();
            assert_eq!(seqs, (0..30u64).collect::<Vec<_>>(), "xlog order must hold");
        }
    }

    #[test]
    fn non_durable_nodes_gc_brb_instances_by_size() {
        // The size-based trigger (satellite of the catch-up PR): clusters
        // that never snapshot must still bound broadcast-layer memory. A
        // manual pump over the RuntimeNode impl (the exact path
        // `replica_main` drives) settles far more instances than
        // BRB_GC_HIGH_WATER; tracked state must stay at the threshold,
        // not grow with history.
        use astro_brb::Dest;
        use astro_core::astro1::Astro1Msg;
        use std::collections::VecDeque;

        let layout = ShardLayout::single(4).unwrap();
        let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(10_000) };
        let mut nodes: Vec<AstroOneReplica> = (0..4)
            .map(|i| AstroOneReplica::new(ReplicaId(i as u32), layout.clone(), cfg.clone()))
            .collect();
        let mut queue: VecDeque<(ReplicaId, ReplicaId, Astro1Msg)> = VecDeque::new();
        let route = |queue: &mut VecDeque<(ReplicaId, ReplicaId, Astro1Msg)>,
                     from: ReplicaId,
                     step: astro_core::ReplicaStep<Astro1Msg>| {
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
        };
        let settles = 2 * BRB_GC_HIGH_WATER as u64;
        let rep = layout.representative_of(ClientId(1));
        for seq in 0..settles {
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
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.ledger().total_settled(), settles as usize, "replica {i}");
            let tracked = node.tracked_instances();
            assert!(
                tracked <= BRB_GC_HIGH_WATER,
                "replica {i}: size-based GC must bound tracked instances, still tracks {tracked}"
            );
        }
    }

    #[test]
    fn astro_two_cluster_settles_payments() {
        // Direct intra-shard credits so final ledger balances mirror the
        // settled payments (certificate mode defers beneficiary credits
        // until the beneficiary spends).
        let cluster = AstroTwoCluster::builder(
            4,
            Astro2Config {
                batch_size: 4,
                initial_balance: Amount(500),
                credit_mode: astro_core::astro2::CreditMode::DirectIntraShard,
                ..Astro2Config::default()
            },
            Duration::from_millis(1),
        )
        .signing(Keychain::deterministic_system(b"runtime-test-signing", 4))
        .start()
        .unwrap();
        for seq in 0..10u64 {
            cluster.submit(Payment::new(1u64, seq, 2u64, 5u64)).unwrap();
        }
        let settled = cluster.wait_settled(10, Duration::from_secs(10));
        assert_eq!(settled.len(), 10);
        let finals = cluster.shutdown();
        for (balances, count) in &finals {
            assert_eq!(*count, 10);
            assert_eq!(balances[&ClientId(1)], Amount(450));
            assert_eq!(balances[&ClientId(2)], Amount(550));
        }
    }

    #[test]
    fn fully_cached_bursts_queue_no_job_and_keep_arrival_order() {
        use astro_types::SigCheck;
        let chains = Keychain::deterministic_system(b"cached-burst", 4);
        let pool = VerifyPool::start(1, chains[0].book().clone());
        let registry = Registry::new();
        pool.attach_registry(&registry);
        let jobs = || registry.snapshot().histogram("verify.batch_checks").map_or(0, |h| h.count);
        let context: Arc<[u8]> = b"ack context".to_vec().into();
        let checks: Vec<SigCheck> = chains
            .iter()
            .map(|kc| SigCheck {
                signer: kc.id(),
                context: Arc::clone(&context),
                sig: kc.sign(&context),
            })
            .collect();
        let mut pending: VecDeque<Parked<&str>> = VecDeque::new();
        // The first burst carrying these signatures queues a job.
        park_burst(&pool, checks.clone(), vec![(ReplicaId(1), "first")], &mut pending);
        assert_eq!(jobs(), 1);
        if let Some(ticket) = pending.pop_front().and_then(|(_, _, ticket)| ticket) {
            ticket.wait();
        }
        // A message still waiting on an earlier job stays ahead of a
        // later burst whose verdicts are all known; that burst queues no
        // job and parks with no ticket.
        pending.push_back((ReplicaId(1), "earlier", Some(Ticket::new())));
        park_burst(&pool, checks, vec![(ReplicaId(2), "a"), (ReplicaId(3), "b")], &mut pending);
        assert_eq!(jobs(), 1, "known verdicts queue no job");
        let order: Vec<&str> = pending.iter().map(|(_, msg, _)| *msg).collect();
        assert_eq!(order, ["earlier", "a", "b"]);
        assert!(pending.iter().skip(1).all(|(_, _, ticket)| ticket.is_none()));
    }
}
