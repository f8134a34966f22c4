//! The benchmark's own arithmetic: percentiles with their sample counts,
//! settle-board observations mapped back to per-payment times, and the
//! open-loop rung rule.

/// Nearest-rank percentile summary of a sample, in the sample's unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// Samples strictly above `p99`: the guide for trusting a tail is at
    /// least ten.
    pub beyond_p99: usize,
}

/// Nearest-rank percentile of a **sorted** sample (`0 < q <= 1`).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `sample` and summarises it; `None` when empty.
pub fn percentiles(sample: &mut [f64]) -> Option<Percentiles> {
    if sample.is_empty() {
        return None;
    }
    sample.sort_by(f64::total_cmp);
    let p99 = nearest_rank(sample, 0.99);
    Some(Percentiles {
        count: sample.len(),
        p50: nearest_rank(sample, 0.50),
        p99,
        beyond_p99: sample.len() - sample.partition_point(|&v| v <= p99),
    })
}

/// Median of an unsorted sample (the mean of the two middle values for an
/// even count); `None` when empty.
pub fn median(sample: &[f64]) -> Option<f64> {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// When each position of one replica's settle log was first seen.
///
/// The collector records `(time, log length)` pairs while the run goes
/// on; it never copies the log. After the run one copy of the log maps
/// positions to payments, and this maps positions to times: position `p`
/// was settled at the first observation whose length exceeds `p`. All
/// payments of one settled batch are seen together, so they share one
/// observation time.
#[derive(Clone, Debug, Default)]
pub struct BoardTimeline {
    /// `(nanos since the run epoch, log length)`, both non-decreasing.
    seen: Vec<(u64, usize)>,
}

impl BoardTimeline {
    /// Records that the log had `len` entries at `at`. Observations that
    /// show no growth are dropped.
    pub fn observe(&mut self, at: u64, len: usize) {
        if self.seen.last().map_or(len > 0, |&(_, last)| len > last) {
            self.seen.push((at, len));
        }
    }

    /// The latest length observed.
    pub fn len(&self) -> usize {
        self.seen.last().map_or(0, |&(_, len)| len)
    }

    /// When log position `pos` was first seen settled, if it was.
    pub fn time_of(&self, pos: usize) -> Option<u64> {
        let i = self.seen.partition_point(|&(_, len)| len <= pos);
        self.seen.get(i).map(|&(at, _)| at)
    }
}

/// How one rung of the offered-rate ladder went.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RungReport {
    /// Offered rate, payments/s.
    pub offered: f64,
    /// Payments confirmed per second of the rung.
    pub achieved: f64,
    /// Latency percentiles of the rung's payments, ms, from when each was
    /// due. Missing payments count as exceeding every limit.
    pub latency: Option<Percentiles>,
    /// Payments of the rung never confirmed.
    pub missing: usize,
    /// Outstanding payments at the rung's midpoint and end.
    pub backlog_mid: usize,
    pub backlog_end: usize,
}

impl RungReport {
    /// A backlog is growing when it rose, between the rung's midpoint and
    /// its end, by more than the arrivals of one latency limit: the wait of
    /// the newest payment then exceeds the limit even if the percentile
    /// has not caught up yet.
    pub fn backlog_growing(&self, limit_ms: f64) -> bool {
        let allowance = (self.offered * limit_ms / 1e3).max(1.0);
        self.backlog_end as f64 > self.backlog_mid as f64 + allowance
    }

    /// Sustained: every payment confirmed, p99 within the limit, and no
    /// growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.missing == 0
            && self.latency.is_some_and(|l| l.p99 <= limit_ms)
            && !self.backlog_growing(limit_ms)
    }
}

/// The highest rung that passes, provided every rung below it passes too
/// (a ladder is climbed until it first fails). `None` if the first rung
/// already fails.
pub fn sustained_rung(rungs: &[RungReport], limit_ms: f64) -> Option<usize> {
    rungs.iter().take_while(|r| r.passes(limit_ms)).count().checked_sub(1)
}

/// Payments due by `t` but not confirmed by `t`, for payments with due
/// times `due` and confirm times `confirm` (`None` = never).
pub fn backlog_at(due: &[u64], confirm: &[Option<u64>], t: u64) -> usize {
    due.iter().zip(confirm).filter(|(&d, c)| d <= t && c.is_none_or(|c| c > t)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_with_counts() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p = percentiles(&mut v).unwrap();
        assert_eq!(p.count, 1000);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p99, 990.0);
        assert_eq!(p.beyond_p99, 10);
        let mut one = vec![7.0];
        let p = percentiles(&mut one).unwrap();
        assert_eq!((p.count, p.p50, p.p99, p.beyond_p99), (1, 7.0, 7.0, 0));
        assert!(percentiles(&mut []).is_none());
        // Ties at the percentile are not "beyond" it.
        let mut ties = vec![1.0; 200];
        assert_eq!(percentiles(&mut ties).unwrap().beyond_p99, 0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn board_positions_map_to_first_observation() {
        let mut b = BoardTimeline::default();
        b.observe(10, 0);
        b.observe(100, 32); // one batch of 32 seen together
        b.observe(150, 32); // no growth: dropped
        b.observe(200, 40);
        assert_eq!(b.seen.len(), 2);
        assert_eq!(b.len(), 40);
        for pos in 0..32 {
            assert_eq!(b.time_of(pos), Some(100), "position {pos}");
        }
        for pos in 32..40 {
            assert_eq!(b.time_of(pos), Some(200));
        }
        assert_eq!(b.time_of(40), None);
    }

    fn rung(offered: f64, p99: f64, missing: usize, mid: usize, end: usize) -> RungReport {
        RungReport {
            offered,
            achieved: offered,
            latency: Some(Percentiles { count: 1000, p50: p99 / 4.0, p99, beyond_p99: 10 }),
            missing,
            backlog_mid: mid,
            backlog_end: end,
        }
    }

    #[test]
    fn rung_rule_catches_latency_missing_and_backlog() {
        let limit = 250.0;
        assert!(rung(800.0, 100.0, 0, 40, 45).passes(limit));
        assert!(!rung(800.0, 300.0, 0, 40, 45).passes(limit));
        assert!(!rung(800.0, 100.0, 1, 40, 45).passes(limit));
        // 800/s × 250 ms = 200 arrivals of allowance.
        assert!(!rung(800.0, 100.0, 0, 40, 241).passes(limit));
        assert!(rung(800.0, 100.0, 0, 40, 240).passes(limit));
        let mut none = rung(800.0, 100.0, 0, 0, 0);
        none.latency = None;
        assert!(!none.passes(limit));
    }

    #[test]
    fn sustained_rung_stops_at_first_failure() {
        let limit = 250.0;
        let ok = rung(400.0, 50.0, 0, 0, 0);
        let bad = rung(1600.0, 900.0, 0, 0, 0);
        assert_eq!(sustained_rung(&[ok, ok, bad, ok], limit), Some(1));
        assert_eq!(sustained_rung(&[ok, ok], limit), Some(1));
        assert_eq!(sustained_rung(&[bad, ok], limit), None);
        assert_eq!(sustained_rung(&[], limit), None);
    }

    #[test]
    fn backlog_counts_due_but_unconfirmed() {
        let due = [0, 10, 20, 30];
        let confirm = [Some(15), Some(40), None, Some(31)];
        assert_eq!(backlog_at(&due, &confirm, 5), 1);
        assert_eq!(backlog_at(&due, &confirm, 20), 2);
        assert_eq!(backlog_at(&due, &confirm, 35), 2);
        assert_eq!(backlog_at(&due, &confirm, 50), 1);
    }
}
