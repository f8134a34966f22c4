//! Starting clusters and driving them: one generator (the calling
//! thread) and one completion collector thread. The replica, transport
//! and verify-pool threads the cluster starts are the system under test.

use crate::spec::{self, Phase, Stream, Workload, BATCH, FLUSH, REPLICAS};
use crate::stats::BoardTimeline;
use crate::sys;
use crate::trace::{Role, Stats, StatsTotals, TracedAuth, TracedEndpoint, TracedNode, TracedTwo};
use astro_core::astro1::{Astro1Config, AstroOneReplica};
use astro_core::astro2::{Astro2Config, AstroTwoReplica, CreditMode};
use astro_net::{TcpTransport, Transport};
use astro_obs::{Registry, Snapshot};
use astro_runtime::{
    demo_keychains, AstroOneCluster, AstroTwoCluster, Cluster, ClusterError, DurableNode,
    VerifyMode, VerifyPool,
};
use astro_store::{SharedStorage, Storage, StoreConfig};
use astro_types::{Amount, ClientId, Keychain, Payment, ReplicaId, SchnorrAuthenticator};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a run waits, after its last submission, for every replica to
/// settle every payment before counting the rest as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest the collector sleeps without looking at every replica's log.
const COLLECTOR_WAKE: Duration = Duration::from_micros(250);
/// The seed the runtime derives Astro II signing keys from; the traced
/// cluster signs under the same identities as the stock one.
const ASTRO2_SIGNING_SEED: &[u8] = b"astro-runtime-astro2";

const ALL: [usize; REPLICAS] = [0, 1, 2, 3];

/// A running cluster: the stock public constructors (untraced), or the
/// generic driver hosting traced nodes and endpoints.
pub enum Sut {
    One(AstroOneCluster),
    Two(AstroTwoCluster),
    Traced(Cluster),
}

impl Sut {
    fn submit(&self, p: Payment) -> Result<(), ClusterError> {
        match self {
            Sut::One(c) => c.submit(p),
            Sut::Two(c) => c.submit(p),
            Sut::Traced(c) => c.submit(p),
        }
    }

    fn at_least(&self, replicas: &[usize], count: usize, timeout: Duration) -> bool {
        match self {
            Sut::One(c) => c.wait_settled_among(replicas, count, timeout),
            Sut::Two(c) => c.wait_settled_among(replicas, count, timeout),
            Sut::Traced(c) => c.wait_settled_among(replicas, count, timeout),
        }
    }

    fn log(&self, r: usize) -> Vec<Payment> {
        match self {
            Sut::One(c) => c.settled_at(r),
            Sut::Two(c) => c.settled_at(r),
            Sut::Traced(c) => c.settled_at(r),
        }
    }

    fn registry(&self) -> Option<&Arc<Registry>> {
        match self {
            Sut::Traced(c) => c.registry(),
            _ => None,
        }
    }

    pub fn shutdown(self) -> Vec<(HashMap<ClientId, Amount>, usize)> {
        match self {
            Sut::One(c) => c.shutdown(),
            Sut::Two(c) => c.shutdown(),
            Sut::Traced(c) => c.shutdown(),
        }
    }
}

fn astro1_config() -> Astro1Config {
    Astro1Config { batch_size: BATCH, initial_balance: Amount(spec::CLOSED_INITIAL) }
}

fn astro2_config() -> Astro2Config {
    Astro2Config {
        batch_size: BATCH,
        initial_balance: Amount(spec::OPEN_INITIAL_PAYMENTS * spec::OPEN_AMOUNT),
        credit_mode: CreditMode::Certificates,
        ..Astro2Config::default()
    }
}

/// Starts the workload's cluster through the stock public constructors,
/// with no registry attached. `dir` is the fresh storage root of a
/// durable workload.
pub fn start_stock(w: Workload, dir: &Path) -> Result<Sut, ClusterError> {
    Ok(match w {
        Workload::Astro2Open => {
            Sut::Two(AstroTwoCluster::start_tcp(REPLICAS, astro2_config(), FLUSH)?)
        }
        Workload::Astro1Closed => {
            Sut::One(AstroOneCluster::start_tcp(REPLICAS, astro1_config(), FLUSH)?)
        }
        Workload::Astro1Durable => {
            Sut::One(AstroOneCluster::start_tcp_durable(REPLICAS, dir, astro1_config(), FLUSH)?)
        }
    })
}

/// Starts the same cluster as [`start_stock`] — same transport, keys,
/// configs, storage policy and verify pool — with every layer's trait
/// wrapped to record into `stats`, and a metric registry attached.
pub fn start_traced(w: Workload, dir: &Path, stats: &Arc<Stats>) -> Result<Sut, ClusterError> {
    let layout = spec::layout();
    let registry = Registry::new();
    let endpoints: Vec<_> = TcpTransport::loopback(demo_keychains(REPLICAS))?
        .into_endpoints()
        .into_iter()
        .map(|e| TracedEndpoint::new(e, Arc::clone(stats)))
        .collect();
    let cluster = match w {
        Workload::Astro2Open => {
            let signing = Keychain::deterministic_system(ASTRO2_SIGNING_SEED, REPLICAS);
            let VerifyMode::Pooled { threads } = VerifyMode::auto() else {
                unreachable!("VerifyMode::auto always pools")
            };
            let pool = VerifyPool::start(threads, signing[0].book().clone());
            let nodes: Vec<_> = signing
                .iter()
                .map(|kc| {
                    let auth = SchnorrAuthenticator::with_cache(kc.clone(), pool.cache());
                    let auth = TracedAuth::new(auth, Arc::clone(stats));
                    TracedNode::new(
                        TracedTwo(AstroTwoReplica::new(auth, layout.clone(), astro2_config())),
                        Arc::clone(stats),
                        Role::Core,
                    )
                })
                .collect();
            Cluster::start_endpoints_observed(
                nodes,
                endpoints,
                layout,
                FLUSH,
                Some(pool),
                Some(registry),
            )?
        }
        Workload::Astro1Closed => {
            let nodes: Vec<_> = (0..REPLICAS)
                .map(|i| {
                    let node =
                        AstroOneReplica::new(ReplicaId(i as u32), layout.clone(), astro1_config());
                    TracedNode::new(node, Arc::clone(stats), Role::Core)
                })
                .collect();
            Cluster::start_endpoints_observed(
                nodes,
                endpoints,
                layout,
                FLUSH,
                None,
                Some(registry),
            )?
        }
        Workload::Astro1Durable => {
            let mut nodes = Vec::with_capacity(REPLICAS);
            for i in 0..REPLICAS {
                // The stock durable constructor's layout: one directory per
                // replica, default store policy, fresh (nothing recovered).
                let (storage, _) =
                    Storage::open(dir.join(format!("replica-{i}")), StoreConfig::default())?;
                let node =
                    AstroOneReplica::new(ReplicaId(i as u32), layout.clone(), astro1_config());
                let node = TracedNode::new(node, Arc::clone(stats), Role::Core);
                let durable = DurableNode::new(node, SharedStorage::new(storage));
                nodes.push(TracedNode::new(durable, Arc::clone(stats), Role::Durable));
            }
            Cluster::start_endpoints_observed(
                nodes,
                endpoints,
                layout,
                FLUSH,
                None,
                Some(registry),
            )?
        }
    };
    Ok(Sut::Traced(cluster))
}

/// Nanoseconds since `epoch`.
fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Replica `r`'s exact log length, given that it is at least `known`:
/// exponential then binary search over non-blocking board checks, so the
/// collector never copies a log while the run goes on.
fn log_len(sut: &Sut, r: usize, known: usize) -> usize {
    let has = |k: usize| sut.at_least(&[r], k, Duration::ZERO);
    if !has(known + 1) {
        return known;
    }
    let (mut lo, mut step) = (known + 1, 1);
    let hi = loop {
        let probe = lo + step;
        if !has(probe) {
            break probe;
        }
        lo = probe;
        step *= 2;
    };
    // Invariant: has(lo) && !has(hi).
    let mut hi = hi;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if has(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The collector: records when each replica's settle log grew until
/// `done` is set, publishing the smallest length seen in `seen_min`.
fn collect(sut: &Sut, epoch: Instant, done: &AtomicBool, seen_min: &AtomicUsize) -> Collected {
    let (cpu_start, wall_start) = (sys::thread_cpu_s(), Instant::now());
    let mut timelines = vec![BoardTimeline::default(); REPLICAS];
    let mut focus = 0;
    loop {
        let finished = done.load(Ordering::SeqCst);
        let _ = sut.at_least(&[focus], timelines[focus].len() + 1, COLLECTOR_WAKE);
        let now = nanos_since(epoch);
        for (r, t) in timelines.iter_mut().enumerate() {
            t.observe(now, log_len(sut, r, t.len()));
        }
        seen_min
            .store(timelines.iter().map(BoardTimeline::len).min().unwrap_or(0), Ordering::SeqCst);
        focus = (focus + 1) % REPLICAS;
        if finished {
            break;
        }
    }
    let cpu_share = (sys::thread_cpu_s() - cpu_start) / wall_start.elapsed().as_secs_f64();
    Collected { timelines, cpu_share }
}

struct Collected {
    timelines: Vec<BoardTimeline>,
    /// Collector CPU time over its wall time.
    cpu_share: f64,
}

/// What the process looked like at one edge of the measured window.
#[derive(Clone)]
pub struct Mark {
    /// Nanoseconds since the run epoch.
    pub at: u64,
    pub cpu_s: f64,
    /// Peak resident set size so far, MiB.
    pub rss_peak_mb: f64,
    pub stats: Option<StatsTotals>,
    pub snapshot: Option<Snapshot>,
}

impl Mark {
    fn take(epoch: Instant, sut: &Sut, stats: Option<&Arc<Stats>>) -> Mark {
        Mark {
            at: nanos_since(epoch),
            cpu_s: sys::process_cpu_s(),
            rss_peak_mb: sys::rss_peak_mb(),
            stats: stats.map(|s| s.read()),
            snapshot: sut.registry().map(|r| r.snapshot()),
        }
    }
}

/// How a run's submissions end.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// Closed loop: warm up, then measure for this long.
    Time { warmup: Duration, measure: Duration },
    /// Replay exactly the first `count` payments, measuring `[from, to)`
    /// (the stream indices an earlier untraced run measured).
    Count { count: usize, from: usize, to: usize },
}

/// Everything one run recorded.
pub struct RunData {
    /// Payments handed to `submit` (stream indices `0..submitted`).
    pub submitted: usize,
    pub submit_errors: usize,
    /// Per payment: when it was due, and when its representative settled
    /// it (nanoseconds since the run epoch).
    pub due: Vec<u64>,
    pub confirm: Vec<Option<u64>>,
    /// Generator lateness per payment, ms.
    pub late_ms: Vec<f64>,
    /// Time the generator spent inside `submit` calls, ns.
    pub submit_nanos: u64,
    /// Measured window: stream indices `[from, to)` and the marks at its
    /// edges.
    pub window: (usize, usize),
    pub marks: (Mark, Mark),
    /// The collector's CPU time over its lifetime: a check that it kept
    /// up without taking a core from the system under test.
    pub collector_cpu_share: f64,
    /// One copy of every replica's settle log, taken after the drain.
    pub logs: Vec<Vec<Payment>>,
    /// Each replica's final balances and settled count.
    pub finals: Vec<(HashMap<ClientId, Amount>, usize)>,
    /// Open loop: the stream index at which a runaway backlog stopped the
    /// ladder early, if it did.
    pub stopped_at: Option<usize>,
}

/// Drives `sut` with `stream`: open loop over `phases` when given (the
/// warm-up first, the measured window being `phases[1]`), closed loop
/// with `window` outstanding otherwise. Shuts the cluster down.
pub fn run(
    sut: Sut,
    stream: &Stream,
    phases: Option<&[Phase]>,
    until: Until,
    stats: Option<&Arc<Stats>>,
) -> RunData {
    let epoch = Instant::now();
    let done = AtomicBool::new(false);
    let seen_min = AtomicUsize::new(0);
    let (gen, collected) = std::thread::scope(|s| {
        let collector = s.spawn(|| collect(&sut, epoch, &done, &seen_min));
        let gen = match phases {
            Some(phases) => open_loop(&sut, stream, phases, until, epoch, &seen_min, stats),
            None => closed_loop(&sut, stream, until, epoch, stats),
        };
        // Drain: every replica settles every submitted payment, or the
        // rest count as failed.
        let _ = sut.at_least(&ALL, gen.submitted, DRAIN_TIMEOUT);
        done.store(true, Ordering::SeqCst);
        (gen, collector.join().expect("collector thread panicked"))
    });
    let logs: Vec<Vec<Payment>> = (0..REPLICAS).map(|r| sut.log(r)).collect();
    let finals = sut.shutdown();
    let layout = spec::layout();
    let mut confirm = vec![None; gen.submitted];
    for (r, log) in logs.iter().enumerate() {
        for (pos, p) in log.iter().enumerate() {
            if layout.representative_of(p.spender).0 as usize != r {
                continue;
            }
            if let Some(k) = stream.index_of(p).filter(|&k| k < gen.submitted) {
                confirm[k] = collected.timelines[r].time_of(pos);
            }
        }
    }
    RunData {
        submitted: gen.submitted,
        submit_errors: gen.errors,
        due: gen.due,
        confirm,
        late_ms: gen.late_ms,
        submit_nanos: gen.submit_nanos,
        window: gen.window,
        marks: gen.marks.expect("the generator marks both window edges"),
        collector_cpu_share: collected.cpu_share,
        logs,
        finals,
        stopped_at: gen.stopped_at,
    }
}

struct Generated {
    submitted: usize,
    errors: usize,
    due: Vec<u64>,
    late_ms: Vec<f64>,
    submit_nanos: u64,
    window: (usize, usize),
    marks: Option<(Mark, Mark)>,
    stopped_at: Option<usize>,
}

impl Generated {
    fn new() -> Generated {
        Generated {
            submitted: 0,
            errors: 0,
            due: Vec::new(),
            late_ms: Vec::new(),
            submit_nanos: 0,
            window: (0, 0),
            marks: None,
            stopped_at: None,
        }
    }

    /// Submits payment `k`, due at `due` (ns since `epoch`).
    fn submit(&mut self, sut: &Sut, stream: &Stream, epoch: Instant, k: usize, due: u64) {
        let start = nanos_since(epoch);
        if sut.submit(stream.payment(k)).is_err() {
            self.errors += 1;
        }
        let end = nanos_since(epoch);
        self.submit_nanos += end - start;
        self.due.push(due);
        self.late_ms.push(end.saturating_sub(due) as f64 / 1e6);
        self.submitted = k + 1;
    }
}

fn open_loop(
    sut: &Sut,
    stream: &Stream,
    phases: &[Phase],
    until: Until,
    epoch: Instant,
    seen_min: &AtomicUsize,
    stats: Option<&Arc<Stats>>,
) -> Generated {
    let limit = match until {
        Until::Count { count, .. } => Some(count),
        Until::Time { .. } => None,
    };
    let window = (phases[1].start, phases[1].end);
    let mut g = Generated::new();
    g.window = window;
    let mut first: Option<Mark> = None;
    'phases: for phase in phases {
        let runaway = spec::open_runaway(phase.rate);
        for k in phase.start..phase.end {
            if limit.is_some_and(|l| k >= l) {
                break 'phases;
            }
            if k == window.0 {
                first = Some(Mark::take(epoch, sut, stats));
            }
            if k == window.1 {
                let start = first.take().expect("window start precedes its end");
                g.marks = Some((start, Mark::take(epoch, sut, stats)));
            }
            let due = phase.due(k).as_nanos() as u64;
            let now = nanos_since(epoch);
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            g.submit(sut, stream, epoch, k, due);
            if limit.is_none()
                && k % 16 == 0
                && k - seen_min.load(Ordering::SeqCst).min(k) > runaway
            {
                g.stopped_at = Some(k + 1);
                break 'phases;
            }
        }
    }
    if g.marks.is_none() {
        // The ladder stopped inside the window (or the window is last).
        let start = first.unwrap_or_else(|| Mark::take(epoch, sut, stats));
        g.marks = Some((start, Mark::take(epoch, sut, stats)));
    }
    g
}

fn closed_loop(
    sut: &Sut,
    stream: &Stream,
    until: Until,
    epoch: Instant,
    stats: Option<&Arc<Stats>>,
) -> Generated {
    let w = spec::CLOSED_WINDOW;
    let refill = w / 8;
    let mut g = Generated::new();
    let mut start_mark: Option<Mark> = None;
    // A lower bound on how many payments every replica has settled.
    let mut floor = 0usize;
    let (t_start, t_end) = match until {
        Until::Time { warmup, measure } => {
            (Some(warmup.as_nanos() as u64), Some((warmup + measure).as_nanos() as u64))
        }
        Until::Count { .. } => (None, None),
    };
    let mut k = 0usize;
    loop {
        let wake = nanos_since(epoch);
        if start_mark.is_none() {
            let starts = match until {
                Until::Time { .. } => t_start.is_some_and(|t| wake >= t),
                Until::Count { from, .. } => k >= from,
            };
            if starts {
                start_mark = Some(Mark::take(epoch, sut, stats));
                g.window.0 = k;
            }
        }
        let ends = match until {
            Until::Time { .. } => t_end.is_some_and(|t| wake >= t),
            Until::Count { to, .. } => k >= to,
        };
        if ends && start_mark.is_some() && g.marks.is_none() {
            g.window.1 = k;
            let start = start_mark.clone().expect("checked");
            g.marks = Some((start, Mark::take(epoch, sut, stats)));
        }
        let stop = match until {
            Until::Time { .. } => ends,
            Until::Count { count, .. } => k >= count,
        };
        if stop {
            break;
        }
        // A replay stops each burst at the window's edges, so its marks
        // fall on exactly the indices the untraced run measured.
        let cap = match until {
            Until::Count { count, from, to } => {
                let edge = if start_mark.is_none() {
                    from
                } else if g.marks.is_none() {
                    to
                } else {
                    count
                };
                edge.min(count)
            }
            Until::Time { .. } => usize::MAX,
        };
        while k < floor + w && k < cap {
            g.submit(sut, stream, epoch, k, wake);
            k += 1;
        }
        if k >= floor + w {
            let target = k - w + refill;
            if sut.at_least(&ALL, target, Duration::from_millis(20)) {
                floor = target;
            }
        }
    }
    g
}
