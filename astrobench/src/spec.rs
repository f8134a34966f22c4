//! Workload definitions and the seeded inputs they run on.
//!
//! Every input a run feeds the cluster — the client order, the partner
//! permutation, the beneficiaries and amounts, the arrival schedule — is
//! a pure function of the seed, so a traced rerun on the same seed
//! submits exactly the same payments.

use astro_types::{ClientId, Payment, ShardLayout};
use std::time::Duration;

/// Replicas per cluster (`3f + 1` with `f = 1`).
pub const REPLICAS: usize = 4;
/// Batch size of both protocols.
pub const BATCH: usize = 32;
/// Flush timer of both protocols.
pub const FLUSH: Duration = Duration::from_millis(1);

/// Astro II: clients, payment amount, and genesis balance in payments.
/// Clients spend at the rate they receive, so a client's payment finds
/// its funds only if its payer's payment `OPEN_INITIAL_PAYMENTS - 1`
/// rounds earlier has settled and its credit is certified at the
/// client's representative. When the cluster falls that many rounds
/// behind, an under-funded payment is dropped and the client's xlog
/// sticks for good (paper Listing 9).
pub const OPEN_CLIENTS: usize = 256;
pub const OPEN_AMOUNT: u64 = 1;
pub const OPEN_INITIAL_PAYMENTS: u64 = 6;
/// Astro II offered-rate ladder (payments/s), doubling. The first rung
/// is the nominal rung latency is reported at; it sits below the knee.
pub const OPEN_LADDER: [f64; 4] = [400.0, 800.0, 1600.0, 3200.0];
/// The p99 limit a rung must meet to count as sustained.
pub const OPEN_P99_LIMIT_MS: f64 = 200.0;

/// The outstanding payments at which the generator stops climbing: the
/// rung has failed by then (a round of clients, or a latency limit of
/// arrivals, behind), and the stop comes well before the cluster falls
/// far enough behind to starve clients of their credits.
pub fn open_runaway(rate: f64) -> usize {
    OPEN_CLIENTS.max((rate * OPEN_P99_LIMIT_MS / 1e3) as usize)
}

/// Astro I: spenders, the outstanding window, and a genesis balance no
/// payment stream of a bounded run can exhaust.
pub const CLOSED_CLIENTS: usize = 64;
pub const CLOSED_WINDOW: usize = 1024;
pub const CLOSED_INITIAL: u64 = 1 << 50;
pub const CLOSED_MAX_AMOUNT: u64 = 1000;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Astro II, certificates credit mode, open-loop offered-rate ladder.
    Astro2Open,
    /// Astro I in memory, closed loop with a fixed outstanding window.
    Astro1Closed,
    /// `Astro1Closed` with every replica journaling to disk.
    Astro1Durable,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Astro2Open, Workload::Astro1Closed, Workload::Astro1Durable];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Astro2Open => "astro2-open",
            Workload::Astro1Closed => "astro1-closed",
            Workload::Astro1Durable => "astro1-durable",
        }
    }

    pub fn is_open(self) -> bool {
        self == Workload::Astro2Open
    }

    pub fn stream(self, seed: u64) -> Stream {
        match self {
            Workload::Astro2Open => Stream::open(seed),
            Workload::Astro1Closed | Workload::Astro1Durable => Stream::closed(seed),
        }
    }
}

/// SplitMix64: small, fast, and good enough to derive benchmark inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cluster's client → representative map.
pub fn layout() -> ShardLayout {
    ShardLayout::single(REPLICAS).expect("4 replicas form a valid layout")
}

/// An endless, seeded payment stream. Payment `k` is spent by the client
/// at position `k % n` of a seeded order, at sequence number `k / n`, so
/// every client's payments are numbered without gaps and the stream index
/// of a settled payment is recoverable from `(spender, seq)` alone.
#[derive(Clone, Debug)]
pub struct Stream {
    seed: u64,
    order: Vec<u64>,
    /// `pos_of[client id]` = the client's position in `order`.
    pos_of: Vec<usize>,
    beneficiaries: Beneficiaries,
}

#[derive(Clone, Debug)]
enum Beneficiaries {
    /// `partner[pos]` is the fixed partner of the client at `pos`.
    Fixed(Vec<u64>),
    /// A fresh seeded beneficiary and amount per payment.
    Random,
}

impl Stream {
    /// Astro II: 256 clients, each paying one fixed partner at another
    /// representative, chosen by a seeded permutation — so every client
    /// receives exactly what it spends.
    pub fn open(seed: u64) -> Stream {
        let layout = layout();
        let mut rng = Rng::new(seed, 1);
        let mut groups: Vec<Vec<u64>> = vec![Vec::new(); REPLICAS];
        for c in 0..OPEN_CLIENTS as u64 {
            groups[layout.representative_of(ClientId(c)).0 as usize].push(c);
        }
        for g in &mut groups {
            rng.shuffle(g);
        }
        // For each index k, rotate the k-th client of every group to a
        // different group: a bijection whose pairs never share a
        // representative.
        let per_group = groups[0].len();
        let mut partner_of = vec![0u64; OPEN_CLIENTS];
        for k in 0..per_group {
            let shift = 1 + rng.below(REPLICAS as u64 - 1) as usize;
            for g in 0..REPLICAS {
                partner_of[groups[g][k] as usize] = groups[(g + shift) % REPLICAS][k];
            }
        }
        let mut order: Vec<u64> = (0..OPEN_CLIENTS as u64).collect();
        rng.shuffle(&mut order);
        let partner = order.iter().map(|&c| partner_of[c as usize]).collect();
        Stream::with_order(seed, order, Beneficiaries::Fixed(partner))
    }

    /// Astro I: 64 spenders, seeded beneficiaries and amounts.
    pub fn closed(seed: u64) -> Stream {
        let mut order: Vec<u64> = (0..CLOSED_CLIENTS as u64).collect();
        Rng::new(seed, 2).shuffle(&mut order);
        Stream::with_order(seed, order, Beneficiaries::Random)
    }

    fn with_order(seed: u64, order: Vec<u64>, beneficiaries: Beneficiaries) -> Stream {
        let mut pos_of = vec![0; order.len()];
        for (pos, &c) in order.iter().enumerate() {
            pos_of[c as usize] = pos;
        }
        Stream { seed, order, pos_of, beneficiaries }
    }

    /// Payment `k` of the stream.
    pub fn payment(&self, k: usize) -> Payment {
        let n = self.order.len();
        let pos = k % n;
        let spender = self.order[pos];
        let seq = (k / n) as u64;
        match &self.beneficiaries {
            Beneficiaries::Fixed(partner) => Payment::new(spender, seq, partner[pos], OPEN_AMOUNT),
            Beneficiaries::Random => {
                let mut rng = Rng::new(self.seed, 3 + k as u64);
                let offset = 1 + rng.below(n as u64 - 1);
                let beneficiary = (spender + offset) % n as u64;
                Payment::new(spender, seq, beneficiary, 1 + rng.below(CLOSED_MAX_AMOUNT))
            }
        }
    }

    /// The stream index of a settled payment, if it belongs to the stream.
    pub fn index_of(&self, p: &Payment) -> Option<usize> {
        let pos = *self.pos_of.get(usize::try_from(p.spender.0).ok()?)?;
        let k = usize::try_from(p.seq.0).ok()?.checked_mul(self.order.len())?.checked_add(pos)?;
        (self.payment(k) == *p).then_some(k)
    }
}

/// One phase of the open-loop schedule: payments `[start, end)` arrive
/// evenly at `rate` per second, beginning `offset` after the run starts.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    pub rate: f64,
    pub start: usize,
    pub end: usize,
    pub offset: Duration,
}

impl Phase {
    /// When payment `k` (within this phase) is due, from the run start.
    pub fn due(&self, k: usize) -> Duration {
        self.offset + Duration::from_secs_f64((k - self.start) as f64 / self.rate)
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64((self.end - self.start) as f64 / self.rate)
    }
}

/// Seconds each ladder rung above the nominal one lasts.
pub const OPEN_RUNG_SECONDS: f64 = 1.5;

/// The open-loop schedule for a run of `seconds`: a warm-up that spends
/// every client's genesis balance at the nominal rate (so afterwards
/// payments draw on dependency certificates), then the nominal rung for
/// `seconds` (the measured window), then the rungs above it. Returns the
/// warm-up and the rungs.
pub fn open_schedule(seconds: u64) -> (Phase, Vec<Phase>) {
    let warm_end = OPEN_CLIENTS * (OPEN_INITIAL_PAYMENTS as usize + 1);
    let warmup = Phase { rate: OPEN_LADDER[0], start: 0, end: warm_end, offset: Duration::ZERO };
    let mut rungs = Vec::new();
    let mut start = warm_end;
    let mut offset = warmup.duration();
    for (i, &rate) in OPEN_LADDER.iter().enumerate() {
        let secs = if i == 0 { seconds as f64 } else { OPEN_RUNG_SECONDS };
        let count = (rate * secs).round().max(1.0) as usize;
        let phase = Phase { rate, start, end: start + count, offset };
        offset += phase.duration();
        start = phase.end;
        rungs.push(phase);
    }
    (warmup, rungs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn open_partners_form_a_cross_representative_permutation() {
        let s = Stream::open(7);
        let layout = layout();
        let mut receivers = HashSet::new();
        for k in 0..OPEN_CLIENTS {
            let p = s.payment(k);
            assert_ne!(
                layout.representative_of(p.spender),
                layout.representative_of(p.beneficiary)
            );
            assert!(receivers.insert(p.beneficiary));
        }
        assert_eq!(receivers.len(), OPEN_CLIENTS);
    }

    #[test]
    fn streams_are_seeded_and_invertible() {
        for s in [Stream::open(3), Stream::closed(3)] {
            for k in [0, 1, 63, 64, 255, 256, 10_000] {
                let p = s.payment(k);
                assert_eq!(s.index_of(&p), Some(k));
                assert_ne!(p.spender, p.beneficiary);
            }
        }
        assert_eq!(Stream::closed(3).payment(99), Stream::closed(3).payment(99));
        assert_ne!(Stream::closed(3).payment(99), Stream::closed(4).payment(99));
    }

    #[test]
    fn schedule_is_contiguous() {
        let (warm, rungs) = open_schedule(10);
        assert_eq!(rungs[0].start, warm.end);
        for w in rungs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert!((w[1].offset.as_secs_f64() - w[0].due(w[0].end).as_secs_f64()).abs() < 1e-6);
        }
    }
}
