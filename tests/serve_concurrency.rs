//! Concurrency contract of the serving layer.
//!
//! N client threads hammer the service with overlapping keys; the suite
//! asserts the three properties the design promises:
//!
//! 1. **Singleflight**: concurrent misses on the same key share one farm
//!    measurement — the farm executes exactly one measurement per
//!    distinct key.
//! 2. **Accounting**: the terminal-class counters partition the request
//!    stream (hits + misses + degraded + rejected + errors == requests).
//! 3. **Determinism**: measurements are key-seeded, so a separately
//!    constructed system with the same seed serves identical latencies
//!    regardless of thread interleaving.

use nnlqp::Nnlqp;
use nnlqp_ir::Graph;
use nnlqp_models::ModelFamily;
use nnlqp_serve::{LatencyService, ServeConfig, Source};
use nnlqp_sim::{DeviceFarm, PlatformSpec};
use std::sync::{Arc, Barrier};

const PLATFORM: &str = "gpu-T4-trt7.1-fp32";
const SEED: u64 = 2024;

fn service(workers: usize) -> (Arc<Nnlqp>, LatencyService) {
    let system = Arc::new(
        Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 4))
            .reps(3)
            .seed(SEED)
            .build(),
    );
    let cfg = ServeConfig {
        workers,
        queue_depth: 64,
        cache_capacity: 512,
        degrade_backlog: usize::MAX, // degrade disabled: every miss measures
        ..Default::default()
    };
    (Arc::clone(&system), LatencyService::start(system, cfg))
}

fn shared_models(count: usize) -> Vec<Arc<Graph>> {
    nnlqp_models::generate_family(ModelFamily::SqueezeNet, count, 7)
        .into_iter()
        .map(|m| Arc::new(m.graph))
        .collect()
}

/// All clients query the same keys through a barrier: every duplicated
/// miss must coalesce onto the leader's measurement.
#[test]
fn coalesced_misses_measure_each_key_exactly_once() {
    const CLIENTS: usize = 8;
    const MODELS: usize = 5;
    let (system, svc) = service(4);
    let models = shared_models(MODELS);
    let barrier = Barrier::new(CLIENTS);
    let latencies: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let svc = &svc;
                let models = models.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    models
                        .iter()
                        .map(|m| {
                            svc.query(m, PLATFORM, 1)
                                .expect("query succeeds")
                                .latency_ms
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The farm executed exactly one measurement per distinct key, no
    // matter how the 40 requests interleaved.
    assert_eq!(system.farm_measurements(), MODELS as u64);

    // Every client observed identical latencies per key.
    for client in &latencies[1..] {
        assert_eq!(client, &latencies[0]);
    }

    let m = svc.metrics();
    assert_eq!(m.requests, (CLIENTS * MODELS) as u64);
    assert_eq!(m.measured, MODELS as u64);
    assert!(
        m.balanced(),
        "terminal classes must partition requests: {m:?}"
    );
    assert_eq!(m.rejected + m.errors + m.degraded, 0);
    // Requests that did not lead a measurement either coalesced onto a
    // flight or arrived late enough to hit a cache tier.
    assert_eq!(m.hot_hits + m.db_hits + m.misses, m.requests);
}

/// Measurement seeds derive from the key, not arrival order: a fresh
/// system with the same base seed reproduces the exact latencies even
/// with a different worker count and thread schedule.
#[test]
fn served_latencies_are_deterministic_given_seed() {
    let models = shared_models(4);
    let run = |workers: usize| -> Vec<f64> {
        let (_system, svc) = service(workers);
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            // A second client races on the same keys to shuffle timing.
            let racer = {
                let models = models.clone();
                let svc = &svc;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for m in models.iter().rev() {
                        let _ = svc.query(m, PLATFORM, 1);
                    }
                })
            };
            barrier.wait();
            let out: Vec<f64> = models
                .iter()
                .map(|m| {
                    svc.query(m, PLATFORM, 1)
                        .expect("query succeeds")
                        .latency_ms
                })
                .collect();
            racer.join().unwrap();
            out
        })
    };
    let first = run(1);
    let second = run(4);
    assert_eq!(first, second);
    assert!(first.iter().all(|ms| ms.is_finite() && *ms > 0.0));
}

/// A request arriving after a measurement completes is served from the
/// hot cache and never re-measures.
#[test]
fn repeat_queries_hit_the_hot_cache() {
    let (system, svc) = service(2);
    let model = &shared_models(1)[0];
    let first = svc.query(model, PLATFORM, 1).unwrap();
    assert_eq!(first.source, Source::Measured);
    for _ in 0..5 {
        let hit = svc.query(model, PLATFORM, 1).unwrap();
        assert_eq!(hit.source, Source::HotCache);
        assert_eq!(hit.latency_ms, first.latency_ms);
    }
    assert_eq!(system.farm_measurements(), 1);
    let m = svc.metrics();
    assert_eq!((m.requests, m.hot_hits, m.misses), (6, 5, 1));
    assert!(m.balanced());
}
