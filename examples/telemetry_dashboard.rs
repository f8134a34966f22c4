//! A live terminal dashboard over the telemetry plane: an observed
//! Astro I cluster settles payments over TCP while this process scrapes
//! its own HTTP metrics endpoint — exactly as an external Prometheus or
//! curl would — and renders per-replica settle rates next to the
//! gray-failure health verdicts. Halfway through, one replica is killed
//! the unclean way; watch its rate hit zero and the health engine walk
//! it Healthy → Suspect → Degraded(unreachable) from the exported
//! signals alone.
//!
//! ```sh
//! cargo run --release -p astro-examples --bin telemetry_dashboard
//! ```

use astro_core::astro1::Astro1Config;
use astro_obs::{HealthConfig, Registry};
use astro_runtime::{demo_keychains, AstroOneCluster};
use astro_types::{Amount, Payment};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Scrapes `GET /metrics` and parses the Prometheus text exposition
/// into name → value (histogram summaries appear as `name_count` etc.).
fn scrape(addr: SocketAddr) -> HashMap<String, f64> {
    let mut stream = TcpStream::connect(addr).expect("scrape endpoint");
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default();
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn main() {
    let registry = Registry::new();
    let cfg = Astro1Config { batch_size: 8, initial_balance: Amount(1_000_000) };
    let mut cluster = AstroOneCluster::builder(4, cfg, Duration::from_millis(1))
        .tcp(demo_keychains(4))
        .registry(registry.clone())
        .start()
        .expect("cluster starts");
    let monitor = cluster
        .spawn_health_monitor(HealthConfig::default(), Duration::from_millis(100))
        .expect("observed cluster");
    let server = cluster.serve_metrics("127.0.0.1:0").expect("scrape endpoint binds");
    let addr = server.addr();
    println!("cluster up; scraping http://{addr}/metrics  (also: /metrics.json, /delta)\n");
    println!("{:>6}  {:>9} {:>9} {:>9} {:>9}   health", "t", "r0/s", "r1/s", "r2/s", "r3/s");

    let start = Instant::now();
    let mut seq = 0u64;
    let mut settled = 0usize;
    let mut live: Vec<usize> = vec![0, 1, 2, 3];
    let mut prev = (Instant::now(), scrape(addr));
    for frame in 0..24 {
        // Closed-loop workload: clients 1 and 2 live on replicas 1 and 2,
        // so payments keep flowing after replica 3 dies.
        let until = Instant::now() + Duration::from_millis(250);
        while Instant::now() < until {
            for client in [1u64, 2] {
                cluster.submit(Payment::new(client, seq, 3 - client, 1u64)).unwrap();
                settled += 1;
            }
            seq += 1;
            assert!(
                cluster.wait_settled_among(&live, settled, Duration::from_secs(10)),
                "live quorum must keep settling"
            );
        }

        // Everything below reads the *exported* plane: the HTTP scrape
        // for rates and gauges, the monitor handle for verdict reasons.
        let (t0, old) = &prev;
        let now = Instant::now();
        let cur = scrape(addr);
        let dt = now.duration_since(*t0).as_secs_f64();
        let rate = |i: usize| {
            let name = format!("core_r{i}_settles");
            (cur.get(&name).unwrap_or(&0.0) - old.get(&name).unwrap_or(&0.0)) / dt
        };
        let report = monitor.latest();
        let health: Vec<String> = (0..4)
            .map(|i| {
                let gauge = *cur.get(&format!("health_r{i}_state")).unwrap_or(&0.0);
                match report.replica(i).reason() {
                    Some(reason) => format!("r{i}:{reason}({gauge})"),
                    None => format!("r{i}:ok"),
                }
            })
            .collect();
        println!(
            "{:>5.1}s  {:>9.0} {:>9.0} {:>9.0} {:>9.0}   {}",
            start.elapsed().as_secs_f64(),
            rate(0),
            rate(1),
            rate(2),
            rate(3),
            health.join(" ")
        );
        prev = (now, cur);

        if frame == 7 {
            println!("      --- killing replica 3 (unclean: no flush, no goodbye) ---");
            cluster.kill_replica(3).expect("kill");
            live = vec![0, 1, 2];
        }
        // Stop early once the gray failure is localized and degraded.
        if report.replica(3).reason().is_some() && report.replica(3).code() >= 2 {
            break;
        }
    }

    let verdict = monitor.latest().replica(3);
    println!(
        "\nfinal verdict on replica 3: {verdict:?} after {} health transitions",
        registry.snapshot().counter("health.transitions").unwrap_or(0)
    );
    assert!(!verdict.is_healthy(), "the health engine must flag the killed replica");
    println!("flight recorder tail:");
    for line in registry.flight_dump().lines().rev().take(5).collect::<Vec<_>>().iter().rev() {
        println!("  {line}");
    }
    cluster.shutdown();
}
