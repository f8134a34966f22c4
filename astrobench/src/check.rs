//! Correctness checks run on every run. A failed check fails the
//! command; it never drops the run.

use crate::spec::Stream;
use astro_types::{Amount, ClientId, Payment};
use std::collections::{HashMap, HashSet};

/// The outcome of the checks: violated properties, and the payments
/// that did not settle everywhere (counted as failed, not as violations).
#[derive(Debug, Default)]
pub struct Verdict {
    pub violations: Vec<String>,
    /// Stream indices below `submitted` missing from at least one log.
    pub unsettled: usize,
}

/// Checks the settled logs and final state of one run.
///
/// - every replica ends with the same balance map, and reports as many
///   settled payments as its log holds;
/// - no log repeats a `(spender, seq)` pair, and each spender's
///   sequence numbers settle in order from zero;
/// - every log holds exactly the submitted payments that settled: none
///   outside the submitted prefix of the stream, none altered;
/// - with `conserved = Some(genesis)` (Astro I, where credits apply at
///   settlement), the balances sum to `genesis` per client.
pub fn check(
    stream: &Stream,
    submitted: usize,
    logs: &[Vec<Payment>],
    finals: &[(HashMap<ClientId, Amount>, usize)],
    conserved: Option<u64>,
) -> Verdict {
    let mut v = Verdict::default();
    for (r, (balances, settled)) in finals.iter().enumerate() {
        if *balances != finals[0].0 {
            v.violations.push(format!("replica {r} ends with different balances than replica 0"));
        }
        if *settled != logs[r].len() {
            v.violations.push(format!(
                "replica {r} reports {settled} settled but its log holds {}",
                logs[r].len()
            ));
        }
    }
    let mut present = vec![0usize; submitted];
    for (r, log) in logs.iter().enumerate() {
        let mut seen = HashSet::with_capacity(log.len());
        let mut next_seq: HashMap<ClientId, u64> = HashMap::new();
        for p in log {
            if !seen.insert((p.spender, p.seq)) {
                v.violations.push(format!("replica {r} settled ({}, {}) twice", p.spender, p.seq));
                continue;
            }
            let expected = next_seq.entry(p.spender).or_insert(0);
            if p.seq.0 != *expected {
                v.violations.push(format!(
                    "replica {r} settled {} seq {} when seq {} was next",
                    p.spender, p.seq, expected
                ));
            }
            *expected = p.seq.0 + 1;
            match stream.index_of(p).filter(|&k| k < submitted) {
                Some(k) => present[k] += 1,
                None => v
                    .violations
                    .push(format!("replica {r} settled a payment never submitted: {p:?}")),
            }
        }
    }
    v.unsettled = present.iter().filter(|&&c| c != logs.len()).count();
    if let Some(genesis) = conserved {
        let balances = &finals[0].0;
        let total: u128 = balances.values().map(|a| u128::from(a.0)).sum();
        let expected = u128::from(genesis) * balances.len() as u128;
        if total != expected {
            v.violations.push(format!("money not conserved: {total} held, {expected} issued"));
        }
    }
    v.violations.truncate(20);
    v
}

/// The settled set of a run as sorted stream indices (from replica 0's
/// log), for comparing a traced replay with the untraced run.
pub fn settled_set(stream: &Stream, log: &[Payment]) -> Vec<usize> {
    let mut set: Vec<usize> = log.iter().filter_map(|p| stream.index_of(p)).collect();
    set.sort_unstable();
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balances(pairs: &[(u64, u64)]) -> HashMap<ClientId, Amount> {
        pairs.iter().map(|&(c, a)| (ClientId(c), Amount(a))).collect()
    }

    #[test]
    fn clean_run_passes_and_defects_are_named() {
        let s = Stream::closed(1);
        let log: Vec<Payment> = (0..130).map(|k| s.payment(k)).collect();
        let logs = vec![log.clone(), log.clone()];
        let b = balances(&[(1, 10), (2, 10)]);
        let finals = vec![(b.clone(), 130), (b.clone(), 130)];
        let ok = check(&s, 130, &logs, &finals, Some(10));
        assert!(ok.violations.is_empty(), "{:?}", ok.violations);
        assert_eq!(ok.unsettled, 0);

        // A missing payment is unsettled, and breaks its spender's order.
        let mut short = log.clone();
        short.remove(3);
        let v = check(&s, 130, &[log.clone(), short], &[(b.clone(), 130), (b.clone(), 129)], None);
        assert_eq!(v.unsettled, 1);
        assert!(v.violations.iter().any(|m| m.contains("was next")), "{:?}", v.violations);

        // Repeats, divergent balances and broken conservation.
        let mut dup = log.clone();
        dup.push(log[5]);
        let other = balances(&[(1, 9), (2, 10)]);
        let v = check(&s, 130, &[log.clone(), dup], &[(b, 130), (other, 131)], Some(10));
        let all = v.violations.join("\n");
        assert!(all.contains("twice") && all.contains("different balances"), "{all}");

        // A payment outside the submitted prefix.
        let v = check(&s, 129, &[log], &[(balances(&[(1, 10)]), 130)], None);
        assert!(v.violations.iter().any(|m| m.contains("never submitted")));
    }
}
