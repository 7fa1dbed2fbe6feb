//! The benchmark's own open-loop load generator.
//!
//! Arrivals are a Poisson schedule fixed up front from the seed; each one
//! carries its key. At most [`MAX_THREADS`] client threads take arrivals
//! in due order from a shared cursor, so whichever client is free sends
//! the next request. Latency is timed from the arrival's due time, and
//! each arrival's lateness is split into
//!
//! * `client_busy` — both clients were still blocked on earlier requests
//!   when it fell due (the service is behind), and
//! * `timer_lag` — a client was free but woke or dispatched late (the
//!   generator is behind).
//!
//! Clients set a 1 ns timer slack, sleep until shortly before each due
//! time and spin the rest, so `timer_lag` stays in the microseconds and
//! the latencies measure the service rather than the host's timer.

use crate::stats;
use nnlqp_ir::Rng64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Generator threads: the host's core count (2) caps the benchmark's own
/// threads.
pub const MAX_THREADS: usize = 2;

/// Clients spin (instead of sleeping) for this long before a due time:
/// waking from a sleep on a busy host can take tens of microseconds.
const SPIN_NS: u64 = 200_000;

/// One scheduled arrival: due offset from the phase start, and its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub key: usize,
}

/// Poisson arrivals at `rate_rps` over `horizon`, keys drawn by `key`.
pub fn poisson_schedule(
    rate_rps: f64,
    horizon: Duration,
    rng: &mut Rng64,
    mut key: impl FnMut(&mut Rng64) -> usize,
) -> Vec<Arrival> {
    assert!(rate_rps > 0.0, "rate must be positive");
    let horizon_ns = horizon.as_nanos() as f64;
    let mut out = Vec::with_capacity((rate_rps * horizon.as_secs_f64() * 1.1) as usize + 1);
    let mut at_ns = 0.0;
    loop {
        at_ns += -(1.0 - rng.uniform()).ln() / rate_rps * 1.0e9;
        if at_ns >= horizon_ns {
            return out;
        }
        out.push(Arrival {
            due_ns: at_ns as u64,
            key: key(rng),
        });
    }
}

/// Zipf(`s`) ranks over `0..n` by table lookup (rank 0 is hottest).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n.max(1))
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.uniform();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Zipf-like ranks over a key space too large for a table: the
/// continuous power law with exponent `s < 1`, inverted in closed form.
pub fn power_law_rank(n: u64, s: f64, rng: &mut Rng64) -> u64 {
    debug_assert!(s < 1.0);
    let e = 1.0 - s;
    let x = (((n as f64).powf(e) - 1.0) * rng.uniform() + 1.0).powf(1.0 / e);
    (x as u64).saturating_sub(1).min(n - 1)
}

/// What happened to one arrival.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_ns: u64,
    /// When the request was sent (`None`: abandoned, never sent).
    pub sent_ns: Option<u64>,
    pub end_ns: u64,
    pub ok: bool,
    pub timer_lag_ns: u64,
    pub client_busy_ns: u64,
}

impl Sample {
    /// Open-loop latency from the due time; `None` when the operation
    /// failed or was abandoned.
    pub fn latency_ms(&self) -> Option<f64> {
        self.ok
            .then(|| self.end_ns.saturating_sub(self.due_ns) as f64 / 1.0e6)
    }
}

/// Split an arrival's lateness (`sent - due`) into the part a client
/// spent blocked on earlier requests past the due time (`client_busy`:
/// the client became free at `freed`) and the rest (`timer_lag`).
/// Returns `(timer_lag, client_busy)`.
pub fn split_lateness(due_ns: u64, freed_ns: u64, sent_ns: u64) -> (u64, u64) {
    let late = sent_ns.saturating_sub(due_ns);
    let busy = freed_ns.saturating_sub(due_ns).min(late);
    (late - busy, busy)
}

/// Ask the kernel for 1 ns timer slack on the calling thread, so
/// `thread::sleep` wakes when asked rather than up to 50 µs later.
pub fn set_timer_slack_1ns() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

/// A monotonic nanosecond clock shared by the clients and the caller.
pub trait Clock: Sync {
    fn now_ns(&self) -> u64;
}

impl Clock for nnlqp_obs::TraceClock {
    fn now_ns(&self) -> u64 {
        nnlqp_obs::TraceClock::now_ns(self)
    }
}

impl Clock for Instant {
    fn now_ns(&self) -> u64 {
        self.elapsed().as_nanos() as u64
    }
}

/// Run `schedule` open loop on `threads` clients. `send(arrival)` issues
/// one request and returns whether it succeeded plus whatever the caller
/// wants to keep from it. An arrival a free client reaches more than
/// `abandon_after` past its due time is not sent and counts as failed.
/// Results come back in schedule order.
pub fn drive<T: Send>(
    schedule: &[Arrival],
    threads: usize,
    clock: &dyn Clock,
    abandon_after: Duration,
    send: impl Fn(&Arrival) -> (bool, Option<T>) + Sync,
) -> Vec<(Sample, Option<T>)> {
    let threads = threads.clamp(1, MAX_THREADS);
    let cursor = AtomicUsize::new(0);
    let abandon_ns = u64::try_from(abandon_after.as_nanos()).unwrap_or(u64::MAX);
    let base_ns = clock.now_ns() + 1_000_000;
    let out: Mutex<Vec<(usize, Sample, Option<T>)>> =
        Mutex::new(Vec::with_capacity(schedule.len()));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                set_timer_slack_1ns();
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(a) = schedule.get(i) else { break };
                    let freed_ns = clock.now_ns();
                    let due_ns = base_ns + a.due_ns;
                    wait_until(clock, due_ns);
                    let sent_ns = clock.now_ns();
                    let (timer_lag_ns, client_busy_ns) = split_lateness(due_ns, freed_ns, sent_ns);
                    let (ok, kept, sent) = if sent_ns - due_ns > abandon_ns {
                        (false, None, None)
                    } else {
                        let (ok, kept) = send(a);
                        (ok, kept, Some(sent_ns))
                    };
                    let sample = Sample {
                        due_ns,
                        sent_ns: sent,
                        end_ns: clock.now_ns(),
                        ok,
                        timer_lag_ns,
                        client_busy_ns,
                    };
                    local.push((i, sample, kept));
                }
                out.lock().expect("results lock poisoned").extend(local);
            });
        }
    });
    let mut all = out.into_inner().expect("results lock poisoned");
    all.sort_by_key(|(i, _, _)| *i);
    all.into_iter().map(|(_, s, k)| (s, k)).collect()
}

fn wait_until(clock: &dyn Clock, due_ns: u64) {
    loop {
        let now = clock.now_ns();
        if now >= due_ns {
            return;
        }
        if due_ns - now > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(due_ns - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Lateness quantiles of a phase, in µs: `(timer_lag p50, p99, client_busy p99)`.
pub fn lateness_us(samples: &[Sample]) -> (f64, f64, f64) {
    let us = |f: fn(&Sample) -> u64| -> Vec<Option<f64>> {
        samples.iter().map(|s| Some(f(s) as f64 / 1.0e3)).collect()
    };
    let lag = us(|s| s.timer_lag_ns);
    let busy = us(|s| s.client_busy_ns);
    (
        stats::quantile(&lag, 0.5),
        stats::quantile(&lag, 0.99),
        stats::quantile(&busy, 0.99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_splits_into_timer_lag_and_client_busy() {
        // Client idle before the due time, woke 3 µs late: all timer lag.
        assert_eq!(split_lateness(100_000, 40_000, 103_000), (3_000, 0));
        // Client blocked until 150 µs on an earlier request, sent at
        // 151 µs: 50 µs busy, 1 µs dispatch lag.
        assert_eq!(split_lateness(100_000, 150_000, 151_000), (1_000, 50_000));
        // On time: nothing to split.
        assert_eq!(split_lateness(100_000, 90_000, 100_000), (0, 0));
    }

    #[test]
    fn synthetic_schedule_attributes_a_stall_to_client_busy() {
        // Four arrivals 1 ms apart on one client; the second request
        // takes 2.5 ms, so the third and fourth fall due while the
        // client is still blocked.
        let schedule: Vec<Arrival> = (0..4)
            .map(|i| Arrival {
                due_ns: i * 1_000_000,
                key: i as usize,
            })
            .collect();
        let clock = Instant::now();
        let res = drive(&schedule, 1, &clock, Duration::from_secs(5), |a| {
            if a.key == 1 {
                std::thread::sleep(Duration::from_micros(2_500));
            }
            (true, Some(a.key))
        });
        let s: Vec<Sample> = res.iter().map(|(s, _)| *s).collect();
        assert_eq!(s[0].client_busy_ns, 0);
        assert_eq!(s[1].client_busy_ns, 0);
        assert!(s[2].client_busy_ns >= 1_400_000, "{:?}", s[2]);
        assert!(s[3].client_busy_ns >= 400_000, "{:?}", s[3]);
        for x in &s {
            assert_eq!(
                x.sent_ns.unwrap() - x.due_ns,
                x.timer_lag_ns + x.client_busy_ns
            );
        }
        // Latency is charged from the due time, stall included.
        assert!(s[2].latency_ms().unwrap() >= 1.4);
        assert_eq!(
            res.iter().map(|(_, k)| k.unwrap()).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }

    #[test]
    fn late_arrivals_are_abandoned_as_failures() {
        let schedule: Vec<Arrival> = (0..3)
            .map(|i| Arrival {
                due_ns: i * 10_000,
                key: 0,
            })
            .collect();
        let clock = Instant::now();
        let res = drive(&schedule, 1, &clock, Duration::from_micros(500), |_| {
            std::thread::sleep(Duration::from_millis(2));
            (true, Some(()))
        });
        assert!(res[0].0.ok);
        assert!(res[1].0.sent_ns.is_none() && res[1].0.latency_ms().is_none());
    }

    #[test]
    fn schedule_and_keys_repeat_for_a_seed() {
        let make = |seed| {
            let zipf = Zipf::new(4096, 1.1);
            let mut rng = Rng64::new(seed);
            poisson_schedule(5_000.0, Duration::from_millis(200), &mut rng, |r| {
                zipf.sample(r)
            })
        };
        let a = make(7);
        assert_eq!(a, make(7));
        assert_ne!(a, make(8));
        // About rate × horizon arrivals, due times ascending.
        assert!((800..1200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // Zipf: rank 0 is the most popular key.
        let hot = a.iter().filter(|x| x.key == 0).count();
        assert!(hot > a.len() / 20, "{hot}");

        let ranks = |seed| {
            let mut rng = Rng64::new(seed);
            (0..1000)
                .map(|_| power_law_rank(1 << 30, 0.8, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(ranks(3), ranks(3));
        assert!(ranks(3).iter().all(|&r| r < 1 << 30));
    }
}
