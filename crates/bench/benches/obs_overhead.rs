//! Observability overhead: end-to-end settlement throughput of a
//! 4-replica Astro I cluster over loopback TCP, with and without a
//! metric [`Registry`](astro_obs::Registry) attached.
//!
//! An attached registry turns on every layer's instrumentation — link
//! byte/frame counters, write-latency histograms, the payment-lifecycle
//! tracer, settle counters, flight recorders — and the instrumented
//! side additionally runs the live `/metrics` scrape endpoint, as a
//! deployed cluster would. The acceptance gate is instrumented ≥ 0.95×
//! the unattached throughput (enforced by `bench_gate` against
//! `BENCH_obs.json`), plus throughput floors on the health-monitor tick
//! and scrape round-trip microbenches below.
//!
//! Unlike the other benches this one is *paired*: each round starts a
//! fresh cluster per side, runs an untimed warm-up settle on it, then
//! times a 256-payment settle (alternating which side goes first). The
//! gated ratio is the middle-half trimmed mean of the per-pair time
//! ratios. The structure is doing three jobs: pairing cancels
//! machine-load drift (independently-sampled groups drift apart by
//! ±5–10% on a small box — more than the effect measured), fresh
//! clusters and registries each round average out per-instance
//! placement luck (a single unlucky allocation otherwise skews every
//! pair the same way), and the in-round warm-up keeps one-time
//! cold-table costs out of what is meant to be a steady-state ratio.

use astro_bench::json::Metric;
use astro_core::astro1::Astro1Config;
use astro_core::astro2::{Astro2Config, CreditMode};
use astro_obs::{HealthConfig, HealthEngine, Registry};
use astro_runtime::{demo_keychains, AstroOneCluster, AstroTwoCluster};
use astro_types::{Amount, Keychain, Payment};
use std::time::{Duration, Instant};

const PAYMENTS: u64 = 256;
const REPLICAS: &[usize] = &[0, 1, 2, 3];

fn pairs() -> usize {
    // Odd counts keep the reported medians real samples. Rounds are
    // cheap (single-digit milliseconds each), so even smoke affords
    // enough pairs for a stable trimmed mean.
    if astro_bench::smoke() {
        61
    } else {
        121
    }
}

fn cfg() -> Astro1Config {
    Astro1Config { batch_size: 32, initial_balance: Amount(u64::MAX / 2) }
}

/// Payments in the untimed warm-up settle that precedes each timed
/// round: enough to fault in the cluster's buffers and (instrumented
/// side) the registry's tracer slots and histogram stripes.
const WARMUP: u64 = 64;

/// Timed repetitions of the 256-payment settle per round. The settle
/// series has millisecond-scale scheduler outliers on BOTH sides —
/// large against one ~2 ms settle — so each round times several
/// back-to-back settles and reports the per-settle average, shrinking
/// the outliers' relative weight without changing what one settle is.
const REPS: u32 = 6;

/// Runs one warm-up settle plus `REPS` timed settles on `cluster` and
/// returns the average wall time of one timed settle.
fn settle_round(cluster: &AstroOneCluster) -> Duration {
    let mut seq = 0;
    let mut submit = |n: u64| {
        for _ in 0..n {
            cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).expect("cluster accepts payments");
            seq += 1;
        }
    };
    // The bool-returning wait: no clone of the settled log inside the
    // timed region.
    let wait = |settled: u64| {
        assert!(cluster.wait_settled_among(REPLICAS, settled as usize, Duration::from_secs(60)));
    };
    submit(WARMUP);
    wait(WARMUP);
    let t = Instant::now();
    for rep in 0..REPS {
        submit(PAYMENTS);
        wait(WARMUP + (rep as u64 + 1) * PAYMENTS);
    }
    t.elapsed() / REPS
}

/// Heap-layout jitter: a padding allocation held for the round, sized
/// by round index. Within one process the allocator hands freed chunks
/// back deterministically, so without this every round's cluster (and
/// registry) lands at the same addresses and one unlucky cache-set
/// placement becomes a run-wide systematic instead of averaging out.
fn pad(round: usize) -> Vec<u8> {
    vec![0u8; (round % 16) * 4160]
}

/// One unattached round on a fresh cluster.
fn run_unattached(flush: Duration, round: usize) -> Duration {
    let _pad = pad(round);
    let cluster = AstroOneCluster::start_tcp(4, cfg(), flush).unwrap();
    let dt = settle_round(&cluster);
    cluster.shutdown();
    dt
}

/// One instrumented round on a fresh cluster and fresh registry — with
/// the live scrape endpoint attached for the whole round, as a deployed
/// cluster would run it — and a liveness check that the instrumentation
/// and the exporter actually ran (a scrape plus an atomic load, outside
/// the timed region).
fn run_instrumented(flush: Duration, round: usize) -> Duration {
    let _pad = pad(round);
    let registry = Registry::new();
    let cluster = AstroOneCluster::builder(4, cfg(), flush)
        .tcp(demo_keychains(4))
        .registry(registry.clone())
        .start()
        .unwrap();
    let server = cluster.serve_metrics("127.0.0.1:0").expect("exporter binds");
    let dt = settle_round(&cluster);
    assert!(
        scrape_text(server.addr()).contains("core_r0_settles"),
        "exporter must serve the round it watched"
    );
    cluster.shutdown();
    assert_eq!(registry.counter("lifecycle.confirmed").get(), WARMUP + REPS as u64 * PAYMENTS);
    dt
}

/// One blocking `GET /metrics` against a scrape endpoint; returns the
/// response body.
fn scrape_text(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("scrape endpoint");
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default()
}

/// Fills `reg` with the metric surface of a busy 4-replica cluster —
/// settle/link counters and latency histograms on every edge — so the
/// monitor-tick and scrape benches below measure realistic cardinality.
fn populate(reg: &Registry, n: usize) {
    for i in 0..n {
        reg.counter(&format!("core.r{i}.settles")).add(50);
        reg.histogram(&format!("store.r{i}.fsync_nanos")).record(100_000);
        for j in 0..n {
            if i == j {
                continue;
            }
            reg.counter(&format!("net.r{i}.to_r{j}.tx_frames")).add(100);
            reg.counter(&format!("net.r{i}.to_r{j}.tx_bytes")).add(40_000);
            reg.counter(&format!("net.r{j}.from_r{i}.rx_frames")).add(100);
            reg.histogram(&format!("net.r{i}.to_r{j}.write_nanos")).record(20_000);
        }
    }
}

/// Health-monitor tick cost: snapshot a busy registry and feed the
/// engine, exactly what [`astro_obs::HealthMonitor`] does every
/// interval. A tick must stay in the tens of microseconds so aggressive
/// (100 ms) monitor intervals cost nothing measurable.
fn run_health_tick() -> Metric {
    let reg = Registry::new();
    let mut engine = HealthEngine::new(4, HealthConfig::default());
    engine.bind(&reg);
    let ticks: u32 = if astro_bench::smoke() { 2_000 } else { 20_000 };
    populate(&reg, 4);
    let t = Instant::now();
    for _ in 0..ticks {
        populate(&reg, 4); // traffic advances between windows
        let mut snap = reg.snapshot();
        snap.at_nanos += 100_000_000;
        engine.observe(&snap);
    }
    let per_tick = t.elapsed() / ticks;
    let per_sec = 1.0 / per_tick.as_secs_f64();
    println!(
        "{:<52} {:>9.1} us {:>11.0} elem/s",
        "health_engine/tick (snapshot + observe)",
        per_tick.as_secs_f64() * 1e6,
        per_sec
    );
    Metric::new(
        "health_engine/tick",
        [("ticks_per_sec", per_sec), ("mean_us", per_tick.as_secs_f64() * 1e6)],
    )
}

/// Scrape latency: round-trip `GET /metrics` (connect, serve, encode,
/// read) against the busy registry. Scrapers poll at human cadence, so
/// the bar is only "well under a scrape interval" — but the trend
/// catches the exposition encoder going accidentally quadratic.
fn run_scrape() -> Metric {
    let reg = Registry::new();
    populate(&reg, 4);
    let server = reg.serve("127.0.0.1:0").expect("exporter binds");
    let scrapes: u32 = if astro_bench::smoke() { 200 } else { 2_000 };
    let mut times = Vec::with_capacity(scrapes as usize);
    for _ in 0..scrapes {
        let t = Instant::now();
        let body = scrape_text(server.addr());
        times.push(t.elapsed().as_secs_f64());
        assert!(body.contains("core_r0_settles"));
    }
    times.sort_by(f64::total_cmp);
    let p50 = times[times.len() / 2];
    println!(
        "{:<52} {:>9.1} us {:>11.0} elem/s",
        "scrape/metrics_text (GET round-trip)",
        p50 * 1e6,
        1.0 / p50
    );
    Metric::new("scrape/metrics_text", [("scrapes_per_sec", 1.0 / p50), ("p50_us", p50 * 1e6)])
}

/// Astro II reliable-CREDIT accounting: one observed certificates-mode
/// cluster settles a cross-representative workload, then the retry
/// outboxes must drain — every CREDIT sub-batch acked by its
/// destination. Reports the acked fraction (gated at 1.0 by
/// `bench_gate`: an undrained outbox at quiescence means acks or
/// retransmissions regressed) plus the raw ack/retransmit counts for
/// trend-watching.
fn run_credit_outbox(flush: Duration) -> Metric {
    let payments: u64 = if astro_bench::smoke() { 256 } else { 1024 };
    let registry = Registry::new();
    let cfg = Astro2Config {
        batch_size: 32,
        initial_balance: Amount(u64::MAX / 2),
        credit_mode: CreditMode::Certificates,
        ..Astro2Config::default()
    };
    let cluster = AstroTwoCluster::builder(4, cfg, flush)
        .tcp(demo_keychains(4))
        .signing(Keychain::deterministic_system(b"obs-overhead-signing", 4))
        .registry(registry.clone())
        .start()
        .unwrap();
    // Every client pays a client of a *different* representative, so
    // each settle queues CREDIT sub-batches to a remote destination.
    for seq in 0..payments / 4 {
        for client in 1..=4u64 {
            cluster.submit(Payment::new(client, seq, client % 4 + 1, 1u64)).unwrap();
        }
    }
    assert!(
        cluster.wait_settled_among(&[0, 1, 2, 3], payments as usize, Duration::from_secs(60)),
        "astro2 workload settles"
    );
    // Quiescence: retransmission keeps the flush timer armed until the
    // last ack lands, so the depth gauges must reach zero on their own.
    let deadline = Instant::now() + Duration::from_secs(30);
    let depth_total = loop {
        let snap = registry.snapshot();
        let total: u64 =
            (0..4).map(|i| snap.gauge(&format!("core.r{i}.outbox_depth")).unwrap_or(0)).sum();
        if total == 0 || Instant::now() >= deadline {
            break total;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    cluster.shutdown();
    let snap = registry.snapshot();
    let acks: u64 =
        (0..4).map(|i| snap.counter(&format!("core.r{i}.credit_acks")).unwrap_or(0)).sum();
    let retransmits: u64 =
        (0..4).map(|i| snap.counter(&format!("core.r{i}.credit_retransmits")).unwrap_or(0)).sum();
    assert!(acks > 0, "cross-representative workload must exercise the outbox");
    let fraction = acks as f64 / (acks + depth_total) as f64;
    println!(
        "{:<52} {fraction:>12.4} ({acks} acks, {retransmits} retransmits)",
        "credit_outbox/delivery (acked fraction)"
    );
    Metric::new(
        "credit_outbox/delivery",
        [("acked_fraction", fraction), ("acks", acks as f64), ("retransmits", retransmits as f64)],
    )
}

fn median(sorted: &[f64]) -> f64 {
    sorted[sorted.len() / 2]
}

/// Mean of the middle half of a sorted sample. The settle series is
/// occasionally bimodal (scheduler interference), which makes a raw
/// median of few-dozen pair ratios jumpy; trimming the quartiles and
/// averaging what's left is stable run-to-run.
fn trimmed_mean(sorted: &[f64]) -> f64 {
    let (lo, hi) = (sorted.len() / 4, sorted.len() * 3 / 4);
    let mid = &sorted[lo..hi.max(lo + 1)];
    mid.iter().sum::<f64>() / mid.len() as f64
}

fn main() {
    let rounds = pairs();
    let flush = Duration::from_millis(1);

    // Process-wide warm-up (page tables, loopback stack, allocator)
    // before the first timed pair.
    run_unattached(flush, 0);
    run_instrumented(flush, 0);

    let mut plain_s = Vec::with_capacity(rounds);
    let mut observed_s = Vec::with_capacity(rounds);
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Alternate the in-pair order so slow drift within a pair biases
        // neither side.
        let (p, o) = if round % 2 == 0 {
            let p = run_unattached(flush, round);
            let o = run_instrumented(flush, round);
            (p, o)
        } else {
            let o = run_instrumented(flush, round);
            let p = run_unattached(flush, round);
            (p, o)
        };
        plain_s.push(p.as_secs_f64());
        observed_s.push(o.as_secs_f64());
        // Throughput ratio instrumented/unattached == time ratio
        // unattached/instrumented.
        ratios.push(p.as_secs_f64() / o.as_secs_f64());
    }
    if std::env::var("OBS_BENCH_DEBUG").is_ok() {
        for (i, r) in ratios.iter().enumerate() {
            println!(
                "pair {i:>3}: plain {:>8.0}us observed {:>8.0}us ratio {r:.3}",
                plain_s[i] * 1e6,
                observed_s[i] * 1e6
            );
        }
    }
    plain_s.sort_by(f64::total_cmp);
    observed_s.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);

    let p99 = |sorted: &[f64]| sorted[(sorted.len() - 1) * 99 / 100];
    let report = |id: &str, sorted: &[f64]| {
        let med = median(sorted);
        println!("{id:<52} {:>9.3} ms {:>11.0} elem/s", med * 1e3, PAYMENTS as f64 / med);
        Metric::new(
            id.to_string(),
            [
                ("elem/s", PAYMENTS as f64 / med),
                ("p50_ms", med * 1e3),
                ("p99_ms", p99(sorted) * 1e3),
            ],
        )
    };

    let mut metrics = vec![
        report("settle_256_n4/unattached", &plain_s),
        report("settle_256_n4/instrumented", &observed_s),
    ];
    let ratio = trimmed_mean(&ratios);
    println!("{:<52} {ratio:>12.4}", "settle_256_n4/obs_overhead (trimmed mean of pairs)");
    metrics
        .push(Metric::new("settle_256_n4/obs_overhead", [("instrumented_over_unattached", ratio)]));
    metrics.push(run_credit_outbox(flush));
    metrics.push(run_health_tick());
    metrics.push(run_scrape());
    let path = astro_bench::json::write("obs", &metrics).expect("write bench json");
    println!("\nwrote {}", path.display());
}
