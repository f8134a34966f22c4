//! Turning run data into the named metrics the benchmark reports.

use crate::drive::RunData;
use crate::spec::{Phase, REPLICAS};
use crate::stats::{self, Percentiles, RungReport};
use crate::trace::StatsTotals;
use astro_obs::{HistBuckets, Snapshot, Summary};
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// The measured window of a run: its time span, and the payments the
/// representatives confirmed inside it.
pub struct Window {
    pub start: u64,
    pub end: u64,
    pub confirmed: usize,
}

impl Window {
    pub fn of(run: &RunData) -> Window {
        let (start, end) = (run.marks.0.at, run.marks.1.at);
        let confirmed = run.confirm.iter().flatten().filter(|&&t| t >= start && t <= end).count();
        Window { start, end, confirmed }
    }

    pub fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }

    pub fn throughput(&self) -> f64 {
        self.confirmed as f64 / self.seconds()
    }
}

/// The headline wall-clock figures of a window, taken over equal time
/// slices of it. Throughput is the median of [`SLICES`] slices. A latency
/// percentile is the lowest of its slices, each holding at least ten
/// samples beyond the percentile (one to [`SLICES`] slices): on a shared
/// machine other processes only ever add delay, and a whole run can sit
/// in such an episode, so the least-disturbed slice is the steady
/// estimate of what the cluster itself costs.
#[derive(Clone, Debug)]
pub struct Sliced {
    pub throughput: f64,
    pub p50: f64,
    pub p99: f64,
    /// Payments whose latency was sampled.
    pub samples: usize,
    /// Per-slice throughput and p50, in slice order.
    pub slice_throughput: Vec<f64>,
    pub slice_p50: Vec<f64>,
}

/// Most slices a window is cut into.
pub const SLICES: usize = 10;

/// Slices the window of `run`: payments `run.window` by when they were
/// due, confirmations by when they settled.
pub fn sliced(run: &RunData, window: &Window) -> Option<Sliced> {
    let (from, to) = (run.window.0, run.window.1.min(run.submitted));
    let span = (window.end - window.start).max(1);
    let slice_of = |t: u64, slices: usize| {
        let i = t.saturating_sub(window.start) as u128 * slices as u128 / span as u128;
        (i as usize).min(slices - 1)
    };
    let mut confirmed = [0usize; SLICES];
    for &t in run.confirm.iter().flatten() {
        if t >= window.start && t <= window.end {
            confirmed[slice_of(t, SLICES)] += 1;
        }
    }
    let slice_s = span as f64 / 1e9 / SLICES as f64;
    let tput: Vec<f64> = confirmed.iter().map(|&c| c as f64 / slice_s).collect();
    let latency: Vec<(u64, f64)> = (from..to)
        .filter_map(|k| {
            run.confirm[k].map(|c| (run.due[k], c.saturating_sub(run.due[k]) as f64 / 1e6))
        })
        .collect();
    // Per-slice nearest-rank `q`, with slices of at least `10 / (1 - q)`
    // samples.
    let per_slice = |q: f64| -> Vec<f64> {
        let min = (10.0 / (1.0 - q)).round() as usize;
        let slices = (latency.len() / min).clamp(1, SLICES);
        let mut buckets = vec![Vec::new(); slices];
        for &(due, ms) in &latency {
            buckets[slice_of(due, slices)].push(ms);
        }
        buckets
            .iter_mut()
            .filter(|b| !b.is_empty())
            .map(|b| {
                b.sort_by(f64::total_cmp);
                stats::nearest_rank(b, q)
            })
            .collect()
    };
    let p50s = per_slice(0.50);
    let lowest = |v: &[f64]| v.iter().copied().reduce(f64::min);
    Some(Sliced {
        throughput: stats::median(&tput)?,
        p50: lowest(&p50s)?,
        p99: lowest(&per_slice(0.99))?,
        samples: latency.len(),
        slice_throughput: tput,
        slice_p50: p50s,
    })
}

/// Latency from due to confirmed, ms, of the payments `[from, to)` that
/// confirmed.
pub fn latencies(run: &RunData, from: usize, to: usize) -> Option<Percentiles> {
    let to = to.min(run.submitted);
    let mut sample: Vec<f64> = (from..to)
        .filter_map(|k| run.confirm[k].map(|c| c.saturating_sub(run.due[k]) as f64 / 1e6))
        .collect();
    stats::percentiles(&mut sample)
}

/// Evaluates every rung of an open-loop ladder.
pub fn rungs(run: &RunData, rungs: &[Phase]) -> Vec<RungReport> {
    rungs
        .iter()
        .filter(|r| r.start < run.submitted)
        .map(|r| {
            let end = r.end.min(run.submitted);
            let t0 = r.offset.as_nanos() as u64;
            let t_end = (r.offset + r.duration()).as_nanos() as u64;
            let t_mid = t0 + (t_end - t0) / 2;
            let confirmed_in =
                run.confirm.iter().flatten().filter(|&&t| t >= t0 && t <= t_end).count();
            let due = &run.due[..end];
            let confirm = &run.confirm[..end];
            RungReport {
                offered: r.rate,
                achieved: confirmed_in as f64 / ((t_end - t0) as f64 / 1e9),
                latency: latencies(run, r.start, end),
                missing: (r.start..end).filter(|&k| run.confirm[k].is_none()).count()
                    + (r.end - end),
                backlog_mid: stats::backlog_at(due, confirm, t_mid),
                backlog_end: stats::backlog_at(due, confirm, t_end),
            }
        })
        .collect()
}

/// Sum of every counter whose name starts with `prefix` and ends with
/// `suffix`, between two snapshots.
fn counter_delta(a: &Snapshot, b: &Snapshot, prefix: &str, suffix: &str) -> f64 {
    let sum = |s: &Snapshot| -> u64 {
        s.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    sum(b).saturating_sub(sum(a)) as f64
}

fn gauge_delta(a: &Snapshot, b: &Snapshot, name: &str) -> f64 {
    b.gauge(name).unwrap_or(0).saturating_sub(a.gauge(name).unwrap_or(0)) as f64
}

/// The window's samples of every histogram `keep` selects, merged.
fn hist_delta(a: &Snapshot, b: &Snapshot, keep: impl Fn(&str) -> bool) -> Option<Summary> {
    let mut counts: BTreeMap<u16, u64> = BTreeMap::new();
    let mut merged = HistBuckets::default();
    for (name, later) in b.hist_buckets.iter().filter(|(n, _)| keep(n)) {
        let window = match a.buckets(name) {
            Some(earlier) => later.since(earlier),
            None => later.clone(),
        };
        for (idx, c) in &window.counts {
            *counts.entry(*idx).or_default() += c;
        }
        merged.count += window.count;
        merged.sum += window.sum;
        merged.max = merged.max.max(window.max);
    }
    merged.counts = counts.into_iter().collect();
    merged.summary()
}

/// `store.r3.fsync_nanos` style names: `{layer}.r{digits}.{leaf}`.
fn per_replica(name: &str, layer: &str, leaf: &str) -> bool {
    name.strip_prefix(layer)
        .and_then(|r| r.strip_prefix(".r"))
        .and_then(|r| r.strip_suffix(leaf))
        .and_then(|r| r.strip_suffix('.'))
        .is_some_and(|id| !id.is_empty() && id.bytes().all(|b| b.is_ascii_digit()))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced run, over its measured window.
pub fn per_layer(run: &RunData, window: &Window) -> Vec<Metric> {
    let (m0, m1) = &run.marks;
    let s: StatsTotals = match (&m0.stats, &m1.stats) {
        (Some(a), Some(b)) => b.since(a),
        _ => StatsTotals::default(),
    };
    let empty = Snapshot::default();
    let (a, b) = match (&m0.snapshot, &m1.snapshot) {
        (Some(a), Some(b)) => (a, b),
        _ => (&empty, &empty),
    };
    let paid = window.confirmed as f64;
    let replica_ns = window.seconds() * 1e9 * REPLICAS as f64;
    let us = |nanos: f64| nanos / 1e3;
    let verify_batches = hist_delta(a, b, |n| n == "verify.batch_checks");
    let verify_nanos = hist_delta(a, b, |n| n == "verify.batch_nanos");
    let hits = gauge_delta(a, b, "verify.verdict_cache_hits");
    let misses = gauge_delta(a, b, "verify.verdict_cache_misses");
    let net_write = hist_delta(a, b, |n| per_replica(n, "net", "write_nanos"));
    let fsync = hist_delta(a, b, |n| per_replica(n, "store", "fsync_nanos"));
    let wal_bytes = hist_delta(a, b, |n| per_replica(n, "store", "flush_batch_bytes"));
    let core_self = s.core_submit.self_nanos + s.core_handle.self_nanos + s.core_flush.self_nanos;
    let late = {
        let (from, to) = run.window;
        let mut v: Vec<f64> = run.late_ms[from..to.min(run.late_ms.len())].to_vec();
        stats::percentiles(&mut v).map_or(0.0, |p| p.p99)
    };
    vec![
        metric("crypto.sign_us", s.sign.self_us(), "us"),
        metric("crypto.verify_us", s.verify.self_us(), "us"),
        metric("crypto.signs_per_payment", ratio(s.sign.calls as f64, paid), "count"),
        metric("crypto.verifies_per_payment", ratio(s.verify.items as f64, paid), "count"),
        metric("runtime.submit_us", ratio(us(run.submit_nanos as f64), run.submitted as f64), "us"),
        metric("runtime.verify.batch_checks", verify_batches.map_or(0.0, |h| h.mean), "count"),
        metric("runtime.verify.batch_us", verify_nanos.map_or(0.0, |h| us(h.mean)), "us"),
        metric("runtime.verify.cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric("core.handle_us", s.core_handle.self_us(), "us"),
        metric("core.flush_us", s.core_flush.self_us(), "us"),
        metric("core.busy_share", ratio(core_self as f64, replica_ns), "ratio"),
        metric(
            "core.payments_per_batch",
            ratio(s.batches.items as f64, s.batches.calls as f64),
            "count",
        ),
        metric(
            "core.credit_retransmits_per_ack",
            ratio(
                counter_delta(a, b, "core.", ".credit_retransmits"),
                counter_delta(a, b, "core.", ".credit_acks"),
            ),
            "ratio",
        ),
        metric("net.send_us", s.net_send.self_us(), "us"),
        metric("net.uncork_us", s.net_uncork.self_us(), "us"),
        metric("net.recv_wait_share", ratio(s.net_recv.total_nanos as f64, replica_ns), "ratio"),
        metric(
            "net.frames_per_payment",
            ratio(counter_delta(a, b, "net.", ".tx_frames"), paid),
            "count",
        ),
        metric("net.bytes_per_payment", ratio(counter_delta(a, b, "net.", ".tx_bytes"), paid), "B"),
        metric("net.write_p99_us", net_write.map_or(0.0, |h| us(h.p99 as f64)), "us"),
        metric("store.record_us", s.journal.self_us(), "us"),
        metric("store.records_per_payment", ratio(s.journal.calls as f64, paid), "count"),
        metric("store.commit_us", s.durable_step.self_us(), "us"),
        metric("store.fsync_p50_us", fsync.map_or(0.0, |h| us(h.p50 as f64)), "us"),
        metric("store.fsync_p99_us", fsync.map_or(0.0, |h| us(h.p99 as f64)), "us"),
        metric(
            "store.fsyncs_per_payment",
            ratio(fsync.map_or(0.0, |h| h.count as f64), paid),
            "count",
        ),
        metric(
            "store.wal_bytes_per_payment",
            ratio(wal_bytes.map_or(0.0, |h| h.mean * h.count as f64), paid),
            "B",
        ),
        metric("bench.gen_late_p99_ms", late, "ms"),
        metric("bench.collector_cpu_share", run.collector_cpu_share, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_replica_names_match_only_the_replica_aggregate() {
        assert!(per_replica("net.r0.write_nanos", "net", "write_nanos"));
        assert!(per_replica("store.r12.fsync_nanos", "store", "fsync_nanos"));
        assert!(!per_replica("net.r0.to_r1.write_nanos", "net", "write_nanos"));
        assert!(!per_replica("net.r.write_nanos", "net", "write_nanos"));
        assert!(!per_replica("store.r1.fsync_nanos_x", "store", "fsync_nanos"));
    }
}
