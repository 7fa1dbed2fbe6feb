//! Order statistics and the capacity-ladder rule.
//!
//! Every latency sample is an `Option<f64>`: `None` is an operation that
//! failed, was refused, or was never issued because the generator gave up
//! on it. A missing sample counts as missing every latency limit, so it
//! sorts above every real latency and can become the reported quantile.

/// Nearest-rank quantile (`q` in `(0, 1]`) of `samples`, with failures
/// ranked as `+inf`. `NaN` for an empty input.
pub fn quantile(samples: &[Option<f64>], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of plain values (lower middle for even counts keeps it an
/// observed value). `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let s: Vec<Option<f64>> = values.iter().copied().map(Some).collect();
    quantile(&s, 0.5)
}

/// Median and p99 of one sample, with the sample count and failures.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
    pub failed: usize,
}

impl Summary {
    pub fn of(samples: &[Option<f64>]) -> Summary {
        Summary {
            p50: quantile(samples, 0.50),
            p99: quantile(samples, 0.99),
            n: samples.len(),
            failed: samples.iter().filter(|s| s.is_none()).count(),
        }
    }

    /// Samples beyond the p99 rank — the guide asks for at least ten.
    pub fn beyond_p99(&self) -> usize {
        self.n - (0.99 * self.n as f64).ceil() as usize
    }
}

/// Split samples (`(due_ns, latency)`) into consecutive windows of
/// `window_ns` by due time (a short remainder joins the last window) and
/// return the medians of the per-window p50 and p99, with the window
/// count. A host hiccup that inflates one window's tail moves the median
/// of many windows little; a stall that recurs in most windows moves it
/// fully.
pub fn windowed(samples: &[(u64, Option<f64>)], window_ns: u64) -> (f64, f64, usize) {
    let first = samples.iter().map(|s| s.0).min().unwrap_or(0);
    let span = samples.iter().map(|s| s.0).max().unwrap_or(0) - first;
    let n = ((span / window_ns.max(1)) as usize).max(1);
    let mut windows: Vec<Vec<Option<f64>>> = vec![Vec::new(); n];
    for &(due, lat) in samples {
        windows[(((due - first) / window_ns.max(1)) as usize).min(n - 1)].push(lat);
    }
    let p50s: Vec<f64> = windows.iter().map(|w| quantile(w, 0.50)).collect();
    let p99s: Vec<f64> = windows.iter().map(|w| quantile(w, 0.99)).collect();
    (median(&p50s), median(&p99s), n)
}

/// One rung of a fixed-rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate_rps: f64,
    pub p99_ms: f64,
    pub backlog_grows: bool,
}

impl Rung {
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.p99_ms <= limit_ms && !self.backlog_grows
    }
}

/// Highest rate whose rung meets the p99 limit without a growing
/// backlog; `0` when no rung passes.
pub fn capacity(rungs: &[Rung], limit_ms: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.passes(limit_ms))
        .map(|r| r.rate_rps)
        .fold(0.0, f64::max)
}

/// Whether a rung's backlog grew: the median latency of the last quarter
/// of arrivals (in due order) exceeds twice that of the first quarter
/// plus a tenth of the limit. A queue that keeps up drains between
/// arrivals, so its late arrivals wait no longer than its early ones.
pub fn backlog_grows(latencies_in_due_order: &[Option<f64>], limit_ms: f64) -> bool {
    let n = latencies_in_due_order.len();
    if n < 8 {
        return false;
    }
    let head = quantile(&latencies_in_due_order[..n / 4], 0.5);
    let tail = quantile(&latencies_in_due_order[n - n / 4..], 0.5);
    tail > 2.0 * head + 0.1 * limit_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_count_failures_as_misses() {
        // 98 fast answers and 2 failures: p50 is a real latency, p99
        // lands on a failure and so misses any limit.
        let mut s: Vec<Option<f64>> = (1..=98).map(|i| Some(f64::from(i) / 100.0)).collect();
        s.extend([None, None]);
        let sum = Summary::of(&s);
        assert_eq!(sum.p50, 0.50);
        assert!(sum.p99.is_infinite());
        assert_eq!(sum.failed, 2);
        assert_eq!(sum.n, 100);
        // Without the failures the same answers meet a 1 ms limit.
        let ok = Summary::of(&s[..98]);
        assert!(ok.p99 <= 1.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<Option<f64>> = (1..=1000).map(|i| Some(f64::from(i))).collect();
        assert_eq!(quantile(&s, 0.5), 500.0);
        assert_eq!(quantile(&s, 0.99), 990.0);
        assert_eq!(Summary::of(&s).beyond_p99(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn windowed_medians_shrug_off_one_bad_window() {
        // Five 1 s windows of 1,000 samples at 0.01 ms; the third has a
        // 5 ms hiccup in its tail.
        let mut s = Vec::new();
        for w in 0..5u64 {
            for i in 0..1000u64 {
                let bad = w == 2 && i % 50 == 0;
                s.push((
                    w * 1_000_000_000 + i * 1_000_000,
                    Some(if bad { 5.0 } else { 0.01 }),
                ));
            }
        }
        assert!(quantile(&s.iter().map(|x| x.1).collect::<Vec<_>>(), 0.999) >= 5.0);
        // The last second's samples end before a fifth full window: four.
        assert_eq!(windowed(&s, 1_000_000_000), (0.01, 0.01, 4));
        // One window spanning everything is the plain quantile.
        let (_, p99, n) = windowed(&s, u64::MAX / 2);
        assert_eq!((p99, n), (0.01, 1));
    }

    #[test]
    fn ladder_takes_highest_passing_rung() {
        let rung = |rate_rps, p99_ms, backlog_grows| Rung {
            rate_rps,
            p99_ms,
            backlog_grows,
        };
        let rungs = [
            rung(100.0, 0.2, false),
            rung(125.0, 0.3, false),
            // A transient miss below capacity does not cap it.
            rung(156.0, 5.0, false),
            rung(195.0, 0.4, false),
            // Meets the limit but its queue is growing: overloaded.
            rung(244.0, 0.9, true),
            rung(305.0, f64::INFINITY, true),
        ];
        assert_eq!(capacity(&rungs, 1.0), 195.0);
        assert_eq!(capacity(&rungs[4..], 1.0), 0.0);
    }

    #[test]
    fn growing_backlog_is_detected() {
        // Steady: latencies hover around 0.1 ms throughout.
        let steady: Vec<Option<f64>> = (0..400)
            .map(|i| Some(0.1 + f64::from(i % 7) * 0.01))
            .collect();
        assert!(!backlog_grows(&steady, 1.0));
        // Overloaded: every arrival waits a little longer than the last.
        let growing: Vec<Option<f64>> = (0..400).map(|i| Some(0.1 + f64::from(i) * 0.01)).collect();
        assert!(backlog_grows(&growing, 1.0));
        // Dropped arrivals at the end count as an unbounded wait.
        let mut dropped = steady.clone();
        for s in dropped.iter_mut().skip(300) {
            *s = None;
        }
        assert!(backlog_grows(&dropped, 1.0));
    }
}
