//! `serve-bench` — load generator for the concurrent latency service.
//!
//! ```text
//! serve-bench [--clients N] [--dup-requests N] [--fresh-requests N]
//!             [--workers N] [--queue N] [--degrade-backlog N]
//!             [--platform NAME] [--family FAMILY] [--reps R] [--seed S]
//!             [--retrain-after N] [--snapshot FILE] [--durable DIR]
//!             [--monitor-sample N] [--events FILE]
//!             [--metrics FILE] [--metrics-every-ms N] [--ab]
//! ```
//!
//! Two phases drive the two headline behaviours:
//!
//! 1. **Coalesce** — every client queries the *same* models through a
//!    barrier, so concurrent misses collide on identical keys. The farm
//!    must execute exactly one measurement per distinct key, far fewer
//!    than the number of requests.
//! 2. **Degrade** — a predictor is trained on phase-1 ground truth, then
//!    every client floods the service with *disjoint fresh* models. The
//!    worker pool saturates and requests over the backlog threshold are
//!    served approximate predictions instead of waiting.
//!
//! The final metrics snapshot is printed as JSON on stdout — including a
//! per-platform `quality` section when shadow evaluation is on
//! (`--monitor-sample N` samples every Nth measurement-backed answer).
//! `--metrics FILE` writes the whole registry in Prometheus text format
//! every `--metrics-every-ms` (and once more at shutdown), so progress is
//! observable *during* the run, not only at the end; `--events FILE`
//! writes the structured JSONL event log at shutdown. The exit code is
//! nonzero unless the counters balance and both behaviours are visible.
//!
//! `--durable DIR` backs the database with the sharded WAL storage
//! engine at DIR: every measurement is logged before it is acknowledged,
//! shutdown seals and compacts the store, and a later run (or `nnlqp db
//! verify`) can reopen it — the knob behind the CI crash-recovery smoke.
//!
//! `--ab` turns on online A/B champion selection: alongside the GraphSAGE
//! degrade predictor, a transformer challenger is trained on the same
//! phase-1 ground truth and installed; the shadow evaluator scores both
//! and promotes the challenger per platform when the champion drifts. The
//! stdout JSON gains an `ab` section with the champion table and the
//! promotion count.

use nnlqp::{MonitorConfig, Nnlqp, PredictorKind, TrainPredictorConfig};
use nnlqp_models::ModelFamily;
use nnlqp_obs::{timeline_of, to_chrome_json, HistogramSnapshot};
use nnlqp_serve::{
    find_knee, run_sweep, AbConfig, LatencyService, OpenLoopConfig, ServeConfig, Served,
};
use nnlqp_sim::{DeviceFarm, PlatformSpec};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage:");
    eprintln!("  serve-bench [--clients N] [--dup-requests N] [--fresh-requests N]");
    eprintln!("              [--workers N] [--queue N] [--degrade-backlog N]");
    eprintln!("              [--platform NAME] [--family FAMILY] [--reps R] [--seed S]");
    eprintln!("              [--retrain-after N] [--snapshot FILE] [--durable DIR]");
    eprintln!("              [--monitor-sample N] [--events FILE]");
    eprintln!("              [--metrics FILE] [--metrics-every-ms N] [--ab]");
    eprintln!("  serve-bench --open-loop [--rates R1,R2,...] [--duration-ms N] [--keys N]");
    eprintln!("              [--zipf S] [--clients N] [--workers N] [--queue N]");
    eprintln!("              [--degrade-backlog N] [--platform NAME] [--family FAMILY]");
    eprintln!("              [--reps R] [--seed S] [--out FILE] [--trace-out FILE]");
    std::process::exit(2);
}

/// Flags that take no value.
const BOOL_FLAGS: [&str; 2] = ["ab", "open-loop"];

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("error: unexpected argument {a}");
            usage();
        };
        if BOOL_FLAGS.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
            continue;
        }
        match it.next() {
            Some(v) => {
                out.insert(key.to_string(), v.clone());
            }
            None => {
                eprintln!("error: missing value for --{key}");
                usage();
            }
        }
    }
    out
}

fn num(flags: &HashMap<String, String>, key: &str, default: usize) -> usize {
    flags.get(key).map_or(default, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("error: --{key} must be a number");
            usage();
        })
    })
}

/// Quantile summary of a wall-time histogram, for the closed-loop
/// queue-wait printout and its JSON section.
fn wait_summary(h: &HistogramSnapshot) -> serde_json::Value {
    serde_json::json!({
        "count": h.count,
        "mean_ms": h.mean(),
        "p50_ms": h.quantile(0.50),
        "p99_ms": h.quantile(0.99),
        "p999_ms": h.quantile(0.999),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args);
    if flags.contains_key("open-loop") {
        open_loop_main(&flags);
        return;
    }

    let clients = num(&flags, "clients", 8).max(1);
    let dup_requests = num(&flags, "dup-requests", 6);
    let fresh_requests = num(&flags, "fresh-requests", 6);
    let workers = num(&flags, "workers", 2).max(1);
    let queue = num(&flags, "queue", 64).max(1);
    let degrade_backlog = num(&flags, "degrade-backlog", 3);
    let reps = num(&flags, "reps", 3).max(1);
    let seed = num(&flags, "seed", 42) as u64;
    let retrain_after = num(&flags, "retrain-after", 0);
    let monitor_sample = num(&flags, "monitor-sample", 0);
    let ab = flags.contains_key("ab");
    let metrics_every_ms = num(&flags, "metrics-every-ms", 1000).max(10);
    let platform = flags
        .get("platform")
        .cloned()
        .unwrap_or_else(|| "gpu-T4-trt7.1-fp32".to_string());
    let family = flags
        .get("family")
        .map(|f| {
            ModelFamily::parse(f).unwrap_or_else(|| {
                eprintln!("error: --family must name a model family");
                usage();
            })
        })
        .unwrap_or(ModelFamily::SqueezeNet);

    let mut builder = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 4))
        .reps(reps)
        .seed(seed);
    if let Some(dir) = flags.get("durable") {
        builder = builder.durable(nnlqp_db::DurableOptions::new(dir));
    }
    let system = Arc::new(builder.try_build().unwrap_or_else(|e| {
        eprintln!("error: failed to open durable store: {e}");
        std::process::exit(1);
    }));

    let cfg = ServeConfig {
        workers,
        queue_depth: queue,
        cache_capacity: 4096,
        degrade_backlog,
        retrain_after,
        // Drift-triggered retrains need covered platforms too, so any
        // trigger (cadence or monitor) enables them.
        retrain_platforms: if retrain_after > 0 || monitor_sample > 0 {
            vec![platform.clone()]
        } else {
            Vec::new()
        },
        train: TrainPredictorConfig {
            epochs: 6,
            hidden: 24,
            gnn_layers: 2,
            ..Default::default()
        },
        snapshot_path: flags.get("snapshot").map(Into::into),
        monitor: (monitor_sample > 0 || ab).then(|| MonitorConfig {
            sample_every: monitor_sample.max(1) as u64,
            ..Default::default()
        }),
        ab: ab.then(|| AbConfig {
            challenger: PredictorKind::Transformer,
            train: TrainPredictorConfig {
                epochs: 6,
                hidden: 24,
                gnn_layers: 2,
                ..Default::default()
            },
        }),
        events_path: flags.get("events").map(Into::into),
        metrics_path: flags.get("metrics").map(Into::into),
        metrics_every: Duration::from_millis(metrics_every_ms as u64),
        ..Default::default()
    };
    let service = Arc::new(LatencyService::start(Arc::clone(&system), cfg));

    // Phase 1 — every client hammers the SAME models: singleflight must
    // collapse the duplicate misses onto one measurement per key.
    let shared: Vec<_> = nnlqp_models::generate_family(family, dup_requests, seed)
        .into_iter()
        .map(|m| Arc::new(m.graph))
        .collect();
    let outcomes = run_clients(&service, &platform, clients, |_| shared.clone());
    let measured_after_dup = service.metrics().measured;
    eprintln!(
        "phase 1 (coalesce): {} requests over {} distinct models -> {} farm measurements",
        clients * dup_requests,
        dup_requests,
        measured_after_dup
    );

    // Train a predictor on the freshly measured ground truth so the
    // degrade path has a head to fall back to.
    let samples = system
        .train_predictor(
            &[platform.as_str()],
            TrainPredictorConfig {
                epochs: 6,
                hidden: 24,
                gnn_layers: 2,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("error: predictor training failed: {e}");
            std::process::exit(1);
        });
    eprintln!("trained the degrade predictor on {samples} samples");

    // A/B: a transformer challenger trained on the same ground truth
    // rides shotgun on the shadow evaluator.
    if ab {
        match system.train_predictor_handle(
            &[platform.as_str()],
            TrainPredictorConfig {
                epochs: 6,
                hidden: 24,
                gnn_layers: 2,
                arch: Some(PredictorKind::Transformer),
                ..Default::default()
            },
        ) {
            Ok(Some((handle, n))) => {
                service.install_challenger(handle);
                eprintln!("installed a transformer challenger trained on {n} samples");
            }
            Ok(None) => eprintln!("no samples to train a challenger on"),
            Err(e) => {
                eprintln!("error: challenger training failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Phase 2 — every client floods DISJOINT fresh models: the worker
    // pool saturates and over-backlog requests degrade to predictions.
    let degrade_outcomes = run_clients(&service, &platform, clients, |c| {
        nnlqp_models::generate_family(family, fresh_requests, seed ^ (0x5eed_0000 + c as u64))
            .into_iter()
            .map(|m| Arc::new(m.graph))
            .collect()
    });
    let snapshot = service.metrics();
    eprintln!(
        "phase 2 (degrade): {} fresh requests -> {} served approximate",
        clients * fresh_requests,
        snapshot.degraded
    );
    if let Err(e) = service.shutdown() {
        eprintln!("error: shutdown snapshot failed: {e}");
        std::process::exit(1);
    }

    let snapshot = service.metrics();
    // One JSON document on stdout: the metrics snapshot, extended with a
    // per-platform shadow-evaluation quality section when monitoring ran.
    let serde_json::Value::Object(mut doc) = snapshot.to_json() else {
        unreachable!("metrics snapshot renders an object");
    };
    if let Some(quality) = service.quality() {
        let q: serde_json::Value = quality
            .to_json_string()
            .parse()
            .expect("quality report renders valid JSON");
        doc.insert("quality".to_string(), q);
    }
    // Enqueue→dequeue queue wait, recorded by the workers on every
    // dequeued job — reported separately so closed-loop numbers can be
    // compared honestly against open-loop runs at the same offered rate
    // (closed-loop latency-from-dequeue hides exactly this wait).
    let registry_snap = system.registry().snapshot();
    if let Some(h) = registry_snap
        .histograms
        .get(nnlqp_serve::metric_names::QUEUE_WAIT_MS)
    {
        if h.count > 0 {
            eprintln!(
                "queue wait (enqueue->dequeue): {} jobs, mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
            );
        }
        doc.insert("queue_wait".to_string(), wait_summary(h));
    }
    if let Some(champions) = service.champions() {
        let table: std::collections::BTreeMap<String, serde_json::Value> = champions
            .into_iter()
            .map(|(p, arch)| (p, serde_json::Value::String(arch)))
            .collect();
        doc.insert(
            "ab".to_string(),
            serde_json::json!({
                "champions": serde_json::Value::Object(table),
                "promotions": snapshot.predictor_promotions,
            }),
        );
    }
    println!("{}", serde_json::Value::Object(doc));
    // The full registry (facade query stages + serve tiers) on stderr,
    // keeping stdout a single JSON document.
    eprintln!(
        "registry: {}",
        system.registry().snapshot().to_json_string()
    );
    if let Some(path) = flags.get("metrics") {
        eprintln!("wrote Prometheus metrics to {path}");
    }
    if let Some(path) = flags.get("events") {
        eprintln!("wrote JSONL event log to {path}");
    }

    // Pass/fail: the counters must partition the request stream, phase 1
    // must show coalescing (measurements < requests on duplicated keys),
    // and phase 2 must show the degrade path firing.
    let mut failures = Vec::new();
    if !snapshot.balanced() {
        failures.push("metrics do not balance".to_string());
    }
    if outcomes.iter().any(Result::is_err) {
        failures.push("phase 1 had failed requests".to_string());
    }
    if measured_after_dup >= (clients * dup_requests) as u64 {
        failures.push(format!(
            "no coalescing: {} measurements for {} duplicate requests",
            measured_after_dup,
            clients * dup_requests
        ));
    }
    if clients > 1 && snapshot.coalesced == 0 {
        failures.push("no request ever joined an existing flight".to_string());
    }
    if fresh_requests > 0 && snapshot.degraded == 0 {
        failures.push("degrade path never fired under saturation".to_string());
    }
    let degrade_errors = degrade_outcomes
        .iter()
        .filter(|o| matches!(o, Err(e) if !e.contains("queue full")))
        .count();
    if degrade_errors > 0 {
        failures.push(format!("{degrade_errors} unexpected phase 2 errors"));
    }
    if failures.is_empty() {
        eprintln!("serve-bench: OK");
    } else {
        for f in &failures {
            eprintln!("serve-bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// `serve-bench --open-loop`: sweep a ladder of fixed offered arrival
/// rates (Poisson arrivals, Zipfian key popularity), measure every
/// request from its intended arrival time, and publish the result as a
/// schema-stable JSON document (`--out`, checked in as
/// `BENCH_serve.json`) plus a Chrome trace of the slowest class's
/// exemplar requests (`--trace-out`).
fn open_loop_main(flags: &HashMap<String, String>) {
    let clients = num(flags, "clients", 8).max(1);
    let workers = num(flags, "workers", 2).max(1);
    let queue = num(flags, "queue", 64).max(1);
    let keys = num(flags, "keys", 24).max(1);
    let duration_ms = num(flags, "duration-ms", 1000).max(10);
    let reps = num(flags, "reps", 3).max(1);
    let seed = num(flags, "seed", 42) as u64;
    // No predictor is trained in open-loop mode, so the degrade tier
    // stays cold regardless — saturation shows up as queue wait and
    // overload rejections, which is the behaviour the sweep probes.
    let degrade_backlog = num(flags, "degrade-backlog", usize::MAX);
    let zipf_s: f64 = flags.get("zipf").map_or(1.1, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("error: --zipf must be a number");
            usage();
        })
    });
    let rates: Vec<f64> = flags
        .get("rates")
        .map(String::as_str)
        .unwrap_or("25,50,100")
        .split(',')
        .map(|r| {
            r.trim().parse().unwrap_or_else(|_| {
                eprintln!("error: --rates must be comma-separated numbers");
                usage();
            })
        })
        .collect();
    if rates.is_empty() || rates.windows(2).any(|w| w[0] >= w[1]) {
        eprintln!("error: --rates must be strictly increasing");
        usage();
    }
    let platform = flags
        .get("platform")
        .cloned()
        .unwrap_or_else(|| "gpu-T4-trt7.1-fp32".to_string());
    let family = flags
        .get("family")
        .map(|f| {
            ModelFamily::parse(f).unwrap_or_else(|| {
                eprintln!("error: --family must name a model family");
                usage();
            })
        })
        .unwrap_or(ModelFamily::SqueezeNet);

    let system = Arc::new(
        Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 4))
            .reps(reps)
            .seed(seed)
            .build(),
    );
    let service = Arc::new(LatencyService::start(
        Arc::clone(&system),
        ServeConfig {
            workers,
            queue_depth: queue,
            cache_capacity: 4096,
            degrade_backlog,
            ..Default::default()
        },
    ));

    let cfg = OpenLoopConfig {
        rates_rps: rates.clone(),
        duration: Duration::from_millis(duration_ms as u64),
        clients,
        zipf_s,
        platform: platform.clone(),
        batch: 1,
        seed,
    };
    // Each rate gets a fresh Zipf key space: a later rate must win or
    // lose on its own queueing behaviour, not on caches the previous
    // rate warmed.
    let reports = run_sweep(&service, &cfg, |i| {
        nnlqp_models::generate_family(family, keys, seed ^ ((i as u64 + 1) << 20))
            .into_iter()
            .map(|m| Arc::new(m.graph))
            .collect()
    });
    for r in &reports {
        eprintln!(
            "rate {:>7.1} rps: {} scheduled, {} ok, {} err | p50 {:>8.3} ms  p99 {:>9.3} ms  p999 {:>9.3} ms",
            r.offered_rps, r.scheduled, r.completed, r.errors, r.p50_ms, r.p99_ms, r.p999_ms,
        );
    }
    let knee = find_knee(&reports, 5.0);
    match knee {
        Some(rps) => eprintln!("knee: p99 leaves the floor at {rps} rps (>5x the unloaded p99)"),
        None => eprintln!("knee: not reached within the swept rates"),
    }

    // Chrome trace of the slowest class's retained exemplars.
    if let Some(path) = flags.get("trace-out") {
        let snap = service.exemplars().snapshot();
        if let Some(class) = service.exemplars().slowest_class() {
            let traces = &snap[class];
            let json = to_chrome_json(&timeline_of(traces));
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "wrote Chrome trace of {} '{class}' exemplars to {path}",
                traces.len()
            );
        }
    }
    if let Err(e) = service.shutdown() {
        eprintln!("error: shutdown failed: {e}");
        std::process::exit(1);
    }

    let rate_docs: Vec<serde_json::Value> = reports
        .iter()
        .map(|r| {
            let outcomes: std::collections::BTreeMap<String, serde_json::Value> = r
                .outcomes
                .iter()
                .map(|(&class, &n)| (class.to_string(), serde_json::json!(n)))
                .collect();
            let attribution: Vec<serde_json::Value> = r
                .attribution
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "stage": s.stage,
                        "share_pct": s.share_pct,
                        "mean_ms": s.mean_ms,
                        "total_ms": s.total_ns as f64 / 1.0e6,
                    })
                })
                .collect();
            serde_json::json!({
                "offered_rps": r.offered_rps,
                "achieved_rps": r.achieved_rps,
                "scheduled": r.scheduled,
                "completed": r.completed,
                "errors": r.errors,
                "latency_ms": {
                    "p50": r.p50_ms,
                    "p99": r.p99_ms,
                    "p999": r.p999_ms,
                    "max": r.max_ms,
                    "mean": r.mean_ms,
                },
                "outcomes": serde_json::Value::Object(outcomes),
                "tail_attribution_p99": attribution,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "schema_version": 1,
        "mode": "open_loop",
        "config": {
            "platform": platform,
            "family": family.name(),
            "keys_per_rate": keys,
            "zipf_s": zipf_s,
            "duration_ms": duration_ms,
            "clients": clients,
            "workers": workers,
            "queue_depth": queue,
            "reps": reps,
            "seed": seed,
        },
        "rates": rate_docs,
        "knee_rps": knee,
    });
    let rendered = serde_json::to_string_pretty(&doc).expect("render BENCH doc");
    println!("{rendered}");
    if let Some(path) = flags.get("out") {
        if let Err(e) = std::fs::write(path, format!("{rendered}\n")) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    // Pass/fail: quantiles must be ordered, attribution must tile the
    // tail (shares sum to ~100%), and every scheduled arrival must have
    // been accounted for.
    let mut failures = Vec::new();
    for r in &reports {
        if r.completed + r.errors != r.scheduled {
            failures.push(format!(
                "rate {}: {} + {} outcomes != {} scheduled",
                r.offered_rps, r.completed, r.errors, r.scheduled
            ));
        }
        if !(r.p50_ms <= r.p99_ms && r.p99_ms <= r.p999_ms && r.p999_ms <= r.max_ms) {
            failures.push(format!("rate {}: quantiles out of order", r.offered_rps));
        }
        let share_sum: f64 = r.attribution.iter().map(|s| s.share_pct).sum();
        if !r.attribution.is_empty() && (share_sum - 100.0).abs() > 0.5 {
            failures.push(format!(
                "rate {}: attribution shares sum to {share_sum:.2}%",
                r.offered_rps
            ));
        }
    }
    if failures.is_empty() {
        eprintln!("serve-bench --open-loop: OK");
    } else {
        for f in &failures {
            eprintln!("serve-bench --open-loop: FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// Spawn `clients` threads behind a barrier; each queries its model list
/// in order. Returns every outcome (latency or rendered error).
fn run_clients(
    service: &Arc<LatencyService>,
    platform: &str,
    clients: usize,
    models_for: impl Fn(usize) -> Vec<Arc<nnlqp_ir::Graph>> + Sync,
) -> Vec<Result<Served, String>> {
    let barrier = Barrier::new(clients);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = Arc::clone(service);
                let models = models_for(c);
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    models
                        .iter()
                        .map(|m| service.query(m, platform, 1).map_err(|e| e.to_string()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
