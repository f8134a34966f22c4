//! Protocol clusters: one generic cluster type and one builder for
//! Astro I and Astro II.
//!
//! An [`AstroCluster`] is the threaded [`Cluster`] driver hosting one
//! [`Replica`] per seat, plus the metadata a TCP cluster needs to bring a
//! killed replica back. [`ClusterBuilder`] takes every input a cluster
//! start needs — transport, transport and signing keychains, storage root
//! and policy, metric registry, verify mode, flush period — and
//! [`AstroCluster::start_tcp`] / [`AstroCluster::start_tcp_durable`] are
//! the demo shorthands over it.

use crate::durable::{self, demo_keychains};
use crate::{Cluster, ClusterError, RuntimeNode, VerifyMode, VerifyPool};
use astro_core::astro1::AstroOne;
use astro_core::astro2::AstroTwo;
use astro_core::{Protocol, Replica};
use astro_net::{Endpoint, InProcTransport, TcpEndpoint, TcpTransport, Transport};
use astro_obs::{HealthConfig, HealthMonitor, Registry, ServeHandle};
use astro_store::StoreConfig;
use astro_types::wire::Wire;
use astro_types::{
    Amount, ClientId, Keychain, Payment, ReplicaId, SchnorrAuthenticator, ShardLayout,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The deterministic seed the demo constructors derive Astro II signing
/// keys from; independent of the transport keychains. Public, like
/// [`demo_keychains`]'s seed — demo/test only.
pub(crate) const ASTRO2_SIGNING_SEED: &[u8] = b"astro-runtime-astro2";

/// A [`Protocol`] the threaded runtime can host: what the driver and the
/// cluster builder need to know beyond the state machine itself.
pub trait Hosted: Protocol<Msg: Wire + Send + 'static, Config: Clone> + 'static {
    /// True when replicas sign protocol messages (Astro II): the builder
    /// then requires one signing keychain per replica and verifies
    /// signatures on a shared pool over their key book.
    const SIGNED: bool;

    /// The construction key of replica `i`: its id, or an authenticator
    /// over `signing[i]` that shares `pool`'s verdict cache.
    fn replica_key(i: usize, signing: &[Keychain], pool: Option<&VerifyPool>) -> Self::Key;

    /// The signature checks of `msg` to pre-verify on the pool; see
    /// [`RuntimeNode::preverify`]. Default: none.
    fn preverify(from: ReplicaId, msg: &Self::Msg) -> Vec<astro_types::SigCheck> {
        let _ = (from, msg);
        Vec::new()
    }

    /// A client's spendable funds; see [`RuntimeNode::available_balance`].
    /// Default: the ledger balance of a client the replica has seen.
    fn available_balance(node: &Replica<Self>, client: ClientId) -> Amount {
        crate::ledger_balances(node.ledger()).get(&client).copied().unwrap_or(Amount(0))
    }
}

impl Hosted for AstroOne {
    const SIGNED: bool = false;

    fn replica_key(i: usize, _: &[Keychain], _: Option<&VerifyPool>) -> ReplicaId {
        ReplicaId(i as u32)
    }
}

impl Hosted for AstroTwo<SchnorrAuthenticator> {
    const SIGNED: bool = true;

    fn replica_key(i: usize, signing: &[Keychain], pool: Option<&VerifyPool>) -> Self::Key {
        match pool {
            Some(pool) => SchnorrAuthenticator::with_cache(signing[i].clone(), pool.cache()),
            None => SchnorrAuthenticator::new(signing[i].clone()),
        }
    }

    fn preverify(from: ReplicaId, msg: &Self::Msg) -> Vec<astro_types::SigCheck> {
        astro_core::astro2::sig_checks(from, msg)
    }

    fn available_balance(node: &Replica<Self>, client: ClientId) -> Amount {
        node.available_balance(client)
    }
}

/// A running threaded Astro I cluster (Bracha BRB, MAC-authenticated
/// links).
pub type AstroOneCluster = AstroCluster<AstroOne>;

/// A running threaded Astro II cluster (signature-based BRB with CREDIT
/// certificates) under real Schnorr signatures.
pub type AstroTwoCluster = AstroCluster<AstroTwo<SchnorrAuthenticator>>;

/// A running threaded cluster of protocol `P` replicas.
pub struct AstroCluster<P: Hosted> {
    inner: Cluster,
    /// Restart metadata; `None` for in-process clusters, whose endpoints
    /// cannot be re-established.
    meta: Option<RestartMeta<P>>,
}

/// Everything a TCP cluster needs to bring one replica back: per-replica
/// key material (transport and, for Astro II, signing), the fixed listen
/// addresses, the replica config, the flush period, and — on durable
/// clusters — the storage root. A replica restarted without storage
/// returns empty and recovers the full ledger from its peers through the
/// catch-up state transfer; with storage it recovers `snapshot + WAL`
/// locally first and fetches only the settled delta.
struct RestartMeta<P: Hosted> {
    keychains: Vec<Keychain>,
    signing: Vec<Keychain>,
    addrs: Vec<SocketAddr>,
    cfg: P::Config,
    flush_every: Duration,
    storage: Option<(PathBuf, StoreConfig)>,
}

impl<P: Hosted> RestartMeta<P> {
    /// Rebinds replica `i`'s listener and re-establishes its endpoint.
    /// The old endpoint's acceptor releases the port asynchronously after
    /// a kill, so binding retries briefly.
    fn establish_endpoint(&self, i: usize) -> Result<TcpEndpoint, ClusterError> {
        let addr = self.addrs[i];
        let deadline = Instant::now() + Duration::from_secs(5);
        let listener = loop {
            match TcpListener::bind(addr) {
                Ok(l) => break l,
                Err(e) => {
                    if Instant::now() >= deadline {
                        // A bind failure is a network problem, not a
                        // storage one.
                        return Err(ClusterError::Net(astro_net::NetError::Io(e)));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        let peer_addrs: Vec<Option<SocketAddr>> =
            self.addrs.iter().enumerate().map(|(j, a)| (j != i).then_some(*a)).collect();
        Ok(TcpEndpoint::establish(self.keychains[i].clone(), listener, peer_addrs)?)
    }
}

/// Starts a cluster from explicit inputs; see [`AstroCluster::builder`].
/// Without [`Self::tcp`] the replicas talk over in-process channels;
/// without [`Self::durable`] they keep no storage.
pub struct ClusterBuilder<P: Hosted> {
    n: usize,
    cfg: P::Config,
    flush_every: Duration,
    transport: Option<Vec<Keychain>>,
    signing: Vec<Keychain>,
    storage: Option<(PathBuf, StoreConfig)>,
    registry: Option<Arc<Registry>>,
    verify: VerifyMode,
}

impl<P: Hosted> ClusterBuilder<P>
where
    Replica<P>: RuntimeNode,
{
    /// Runs the replicas over loopback TCP with HMAC-authenticated
    /// sessions, one keychain per replica (pre-distributed key pairs,
    /// §III). TCP clusters keep their key material and listen addresses,
    /// so a killed replica can be brought back with
    /// [`AstroCluster::restart_replica`].
    pub fn tcp(mut self, keychains: Vec<Keychain>) -> Self {
        self.transport = Some(keychains);
        self
    }

    /// The protocol signing keychains, one per replica (index = replica
    /// id): the Schnorr keys Astro II signs ACKs, commit proofs and
    /// CREDIT certificates with. Required for Astro II, ignored by
    /// Astro I. Signing identities survive restarts.
    pub fn signing(mut self, keychains: Vec<Keychain>) -> Self {
        self.signing = keychains;
        self
    }

    /// Journals every replica to `dir/replica-<i>/` under the `store`
    /// policy. Each replica recovers whatever a previous incarnation left
    /// there, so starting twice from the same directory resumes the
    /// ledger.
    pub fn durable(mut self, dir: impl Into<PathBuf>, store: StoreConfig) -> Self {
        self.storage = Some((dir.into(), store));
        self
    }

    /// Attaches a metric registry: the transport, the verify pipeline,
    /// each replica's protocol layer and store, and the driver record
    /// into it, and payment lifecycles are traced end to end.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// How signatures are verified (default [`VerifyMode::auto`]): on
    /// the replica threads, or pre-verified on a shared worker pool.
    /// Astro I carries no signatures and never runs a pool.
    pub fn verify(mut self, mode: VerifyMode) -> Self {
        self.verify = mode;
        self
    }

    /// Starts the cluster.
    ///
    /// # Errors
    ///
    /// Fails if `n < 4`, the transport or signing keychain count is not
    /// `n`, the mesh cannot be established, storage cannot be opened, or
    /// recovered state is invalid.
    pub fn start(mut self) -> Result<AstroCluster<P>, ClusterError> {
        let n = self.n;
        if n < 4 {
            return Err(ClusterError::TooSmall { n });
        }
        let layout = ShardLayout::single(n)?;
        if let Some(keychains) = &self.transport {
            if keychains.len() != n {
                return Err(ClusterError::EndpointMismatch { expected: n, got: keychains.len() });
            }
        }
        if P::SIGNED && self.signing.len() != n {
            return Err(ClusterError::KeychainMismatch {
                transport: n,
                signing: self.signing.len(),
            });
        }
        // Signature super-batches verify on one shared worker pool against
        // the *signing* key book, overlapping the replicas' event loops.
        let pool = if P::SIGNED { self.verify.build(self.signing[0].book().clone()) } else { None };
        let keys: Vec<P::Key> =
            (0..n).map(|i| P::replica_key(i, &self.signing, pool.as_deref())).collect();
        let Some(keychains) = self.transport.take() else {
            let endpoints = InProcTransport::new(n).into_endpoints();
            let inner = self.launch(keys, endpoints, layout, pool)?;
            return Ok(AstroCluster { inner, meta: None });
        };
        let endpoints = TcpTransport::loopback(keychains.clone())?.into_endpoints();
        let addrs = endpoints.iter().map(TcpEndpoint::listen_addr).collect();
        let inner = self.launch(keys, endpoints, layout, pool)?;
        let meta = RestartMeta {
            keychains,
            signing: self.signing,
            addrs,
            cfg: self.cfg,
            flush_every: self.flush_every,
            storage: self.storage,
        };
        Ok(AstroCluster { inner, meta: Some(meta) })
    }

    /// Builds (or recovers) one node per key and starts the driver.
    fn launch<E: Endpoint>(
        &self,
        keys: Vec<P::Key>,
        endpoints: Vec<E>,
        layout: ShardLayout,
        pool: Option<Arc<VerifyPool>>,
    ) -> Result<Cluster, ClusterError> {
        let registry = self.registry.clone();
        match &self.storage {
            Some((dir, store)) => {
                let nodes = keys
                    .into_iter()
                    .enumerate()
                    .map(|(i, key)| {
                        durable::recover::<P>(dir, i, key, layout.clone(), self.cfg.clone(), store)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Cluster::start_endpoints_observed(
                    nodes,
                    endpoints,
                    layout,
                    self.flush_every,
                    pool,
                    registry,
                )
            }
            None => {
                let nodes: Vec<Replica<P>> = keys
                    .into_iter()
                    .map(|key| Replica::new(key, layout.clone(), self.cfg.clone()))
                    .collect();
                Cluster::start_endpoints_observed(
                    nodes,
                    endpoints,
                    layout,
                    self.flush_every,
                    pool,
                    registry,
                )
            }
        }
    }
}

impl<P: Hosted> AstroCluster<P>
where
    Replica<P>: RuntimeNode,
{
    /// A builder for an `n`-replica cluster running `cfg` with batches
    /// flushed every `flush_every`.
    pub fn builder(n: usize, cfg: P::Config, flush_every: Duration) -> ClusterBuilder<P> {
        ClusterBuilder {
            n,
            cfg,
            flush_every,
            transport: None,
            signing: Vec::new(),
            storage: None,
            registry: None,
            verify: VerifyMode::auto(),
        }
    }

    /// Starts `n` replica threads over loopback TCP with HMAC-authenticated
    /// sessions.
    ///
    /// **Demo/test only.** Transport keys come from [`demo_keychains`] and
    /// Astro II signing keys from a fixed seed; anyone can reconstruct
    /// every replica's secret keys. Deployments pass pre-distributed key
    /// material to [`Self::builder`].
    ///
    /// # Errors
    ///
    /// Fails if `n < 4` or the TCP mesh cannot be established.
    pub fn start_tcp(
        n: usize,
        cfg: P::Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        Self::demo(n, cfg, flush_every).start()
    }

    /// Starts a durable cluster over loopback TCP: one storage directory
    /// per replica under `dir`, WAL group commit, periodic snapshots under
    /// the default [`StoreConfig`]. Key material as in
    /// [`Self::start_tcp`] — **demo/test only**.
    ///
    /// # Errors
    ///
    /// Fails if `n < 4`, the mesh cannot be established, storage cannot
    /// be opened, or recovered state is invalid.
    pub fn start_tcp_durable(
        n: usize,
        dir: impl Into<PathBuf>,
        cfg: P::Config,
        flush_every: Duration,
    ) -> Result<Self, ClusterError> {
        Self::demo(n, cfg, flush_every).durable(dir, StoreConfig::default()).start()
    }

    /// A TCP builder over the demo key material.
    fn demo(n: usize, cfg: P::Config, flush_every: Duration) -> ClusterBuilder<P> {
        let builder = Self::builder(n, cfg, flush_every).tcp(demo_keychains(n));
        if P::SIGNED {
            builder.signing(Keychain::deterministic_system(ASTRO2_SIGNING_SEED, n))
        } else {
            builder
        }
    }

    /// Kills replica `i` without any final flush — a simulated power
    /// loss. See [`Cluster::kill_replica`].
    ///
    /// # Errors
    ///
    /// Fails if the replica is not running.
    pub fn kill_replica(&mut self, i: usize) -> Result<(), ClusterError> {
        self.inner.kill_replica(i)
    }

    /// Restarts a killed replica and rejoins it to the live quorum:
    /// recover `snapshot + longest valid WAL prefix` locally (durable
    /// clusters; non-durable TCP clusters restart empty), rebind the
    /// replica's listen address (surviving replicas redial on their next
    /// send), then run the peer catch-up handshake — the returning
    /// replica requests the settled delta from its peers, installs it
    /// once `f+1` byte-identical copies certify, and only then resumes
    /// broadcast delivery. Payments the quorum settled *during the
    /// downtime* are therefore recovered without any client
    /// resubmission.
    ///
    /// # Errors
    ///
    /// Fails on in-process clusters ([`ClusterError::NotRestartable`]),
    /// if the replica is still running, or if storage/recovery fails.
    pub fn restart_replica(&mut self, i: usize) -> Result<(), ClusterError> {
        let meta = self.meta.as_ref().ok_or(ClusterError::NotRestartable)?;
        if self.inner.is_running(i) {
            return Err(ClusterError::ReplicaRunning(i));
        }
        // Re-attach the restarted replica to the cluster's shared verify
        // pipeline, so recovered nodes verify exactly like the others.
        let key = P::replica_key(i, &meta.signing, self.inner.verify_pool().map(Arc::as_ref));
        let layout = self.inner.layout().clone();
        match &meta.storage {
            Some((dir, store)) => {
                let mut node = durable::recover::<P>(dir, i, key, layout, meta.cfg.clone(), store)?;
                node.begin_catchup();
                let endpoint = meta.establish_endpoint(i)?;
                self.inner.respawn(i, node, endpoint, meta.flush_every)
            }
            None => {
                let mut node = Replica::<P>::new(key, layout, meta.cfg.clone());
                node.begin_catchup();
                let endpoint = meta.establish_endpoint(i)?;
                self.inner.respawn(i, node, endpoint, meta.flush_every)
            }
        }
    }
}

impl<P: Hosted> AstroCluster<P> {
    /// The client → representative mapping in use.
    pub fn layout(&self) -> &ShardLayout {
        self.inner.layout()
    }

    /// The metric registry, if the cluster runs observed.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.inner.registry()
    }

    /// Starts the live scrape endpoint; see [`Cluster::serve_metrics`].
    ///
    /// # Errors
    ///
    /// Fails if the cluster runs unobserved or the bind fails.
    pub fn serve_metrics(&self, addr: &str) -> Result<ServeHandle, ClusterError> {
        self.inner.serve_metrics(addr)
    }

    /// Spawns the gray-failure health tick; see
    /// [`Cluster::spawn_health_monitor`].
    ///
    /// # Errors
    ///
    /// Fails if the cluster runs unobserved.
    pub fn spawn_health_monitor(
        &self,
        cfg: HealthConfig,
        interval: Duration,
    ) -> Result<HealthMonitor, ClusterError> {
        self.inner.spawn_health_monitor(cfg, interval)
    }

    /// Submits a payment to the spender's representative.
    ///
    /// # Errors
    ///
    /// Fails if the cluster is shutting down.
    pub fn submit(&self, payment: Payment) -> Result<(), ClusterError> {
        self.inner.submit(payment)
    }

    /// Blocks until every replica has settled at least `count` payments or
    /// the timeout elapses; returns replica 0's settled log.
    pub fn wait_settled(&self, count: usize, timeout: Duration) -> Vec<Payment> {
        self.inner.wait_settled(count, timeout)
    }

    /// Settled payments as observed by replica `i` so far.
    pub fn settled_at(&self, i: usize) -> Vec<Payment> {
        self.inner.settled_at(i)
    }

    /// Waits until each listed replica has settled at least `count`
    /// payments; see [`Cluster::wait_settled_among`].
    pub fn wait_settled_among(&self, replicas: &[usize], count: usize, timeout: Duration) -> bool {
        self.inner.wait_settled_among(replicas, count, timeout)
    }

    /// Reads `client`'s `(ledger, available)` balances at replica `i`;
    /// `available` includes the certified-but-unspent credits an Astro II
    /// representative holds for the client. See [`Cluster::probe_balance`].
    ///
    /// # Errors
    ///
    /// Fails if the replica is down or the cluster is shutting down.
    pub fn probe_balance(
        &self,
        i: usize,
        client: ClientId,
    ) -> Result<(Amount, Amount), ClusterError> {
        self.inner.probe_balance(i, client)
    }

    /// The mesh's TCP listen addresses, indexed by replica id. `None` for
    /// in-process clusters. With the matching keychain this lets a test
    /// wire an out-of-process — e.g. deliberately Byzantine — peer into a
    /// killed replica's seat.
    pub fn listen_addrs(&self) -> Option<Vec<SocketAddr>> {
        self.meta.as_ref().map(|m| m.addrs.clone())
    }

    /// The protocol signing keychains the replicas run under (index =
    /// replica id). `None` for in-process clusters.
    pub fn signing_keychains(&self) -> Option<Vec<Keychain>> {
        self.meta.as_ref().map(|m| m.signing.clone())
    }

    /// Stops all replicas and returns each replica's final balance map and
    /// total settled count.
    pub fn shutdown(self) -> Vec<(HashMap<ClientId, Amount>, usize)> {
        self.inner.shutdown()
    }
}
