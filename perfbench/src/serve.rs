//! The two serve workloads: hot reads from the evolving database, and
//! durable first-touch ingest through the farm.
//!
//! Both drive one `LatencyService` (2 measurement workers) open loop from
//! [`crate::gen`], report latency at a nominal rate and the capacity found
//! on a fixed rate ladder, and check every answer against the database.

use crate::gen::{self, Arrival, Sample};
use crate::ledger::Ledger;
use crate::stats::{self, Rung, Summary};
use crate::{median_setup, nnlp, work_dir, Args, Outcome};
use nnlqp::{Nnlqp, Platform, QueryParams};
use nnlqp_db::{db_metric_names, Database, DbMetrics, DurableOptions, FsyncPolicy};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::ModelFamily;
use nnlqp_obs::{MetricsRegistry, RequestTrace};
use nnlqp_serve::{LatencyService, MetricsSnapshot, ServeConfig, Source};
use nnlqp_sim::QueryJob;
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Every serve request targets this platform at batch 1.
pub const PLATFORM: &str = "gpu-T4-trt7.1-fp32";

/// Mixed CNN families of the key space.
pub const FAMILIES: [ModelFamily; 4] = [
    ModelFamily::SqueezeNet,
    ModelFamily::ResNet,
    ModelFamily::MobileNetV2,
    ModelFamily::Vgg,
];

/// WAL policy of every durable store the benchmark opens (the default).
pub const FSYNC: FsyncPolicy = FsyncPolicy::Always;

/// Inputs replayed through the layer functions in the traced run.
const REPLAY: usize = 200;

/// Workload shape: rates, limits and how the run's seconds are split.
struct Shape {
    nominal_rps: f64,
    /// Ladder rungs, ascending.
    ladder_rps: Vec<f64>,
    /// p99 limit a rung must meet, ms.
    limit_ms: f64,
    /// Share of `--seconds` spent at the nominal rate; the rest is the
    /// ladder.
    nominal_share: f64,
    /// Quantiles are medians over windows of this length
    /// ([`stats::windowed`]); `None`: one window per phase or rung.
    window: Option<Duration>,
}

impl Shape {
    /// `(p50, p99, windows)` of a phase or rung.
    fn quantiles(&self, run: &[(Sample, Option<Answer>)]) -> (f64, f64, usize) {
        let s: Vec<(u64, Option<f64>)> = run
            .iter()
            .map(|(s, _)| (s.due_ns, s.latency_ms()))
            .collect();
        stats::windowed(
            &s,
            self.window.map_or(u64::MAX / 2, |w| w.as_nanos() as u64),
        )
    }
}

/// `rungs` rates from `from`, each `step` times the last.
fn ladder(from: f64, step: f64, rungs: usize) -> Vec<f64> {
    (0..rungs)
        .map(|i| (from * step.powi(i as i32)).round())
        .collect()
}

/// Deterministic graph for key `key` under `seed`: a sampled variant of
/// one of the four families.
pub fn key_graph(seed: u64, key: u64) -> Graph {
    let mut rng = Rng64::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let family = FAMILIES[(key % FAMILIES.len() as u64) as usize];
    family
        .sample(&format!("{}-{key}", family.name()), &mut rng)
        .expect("family samples build")
}

fn platform() -> Platform {
    Platform::by_name(PLATFORM).expect("platform is in the registry")
}

/// One request's outcome as the generator keeps it (small: a ladder
/// rung keeps hundreds of thousands).
struct Answer {
    latency_ms: Option<f64>,
    source: Option<Source>,
    trace: Option<Box<RequestTrace>>,
}

/// Run `schedule` against `service`; `graphs[key]` is each arrival's model.
fn drive(
    service: &LatencyService,
    graphs: &[Arc<Graph>],
    schedule: &[Arrival],
    abandon: Duration,
    keep_traces: bool,
) -> Vec<(Sample, Option<Answer>)> {
    gen::drive(
        schedule,
        gen::MAX_THREADS,
        service.trace_clock().as_ref(),
        abandon,
        |a| {
            let (res, trace) = service.query_traced(&graphs[a.key], PLATFORM, 1);
            let answer = Answer {
                latency_ms: res.as_ref().ok().map(|s| s.latency_ms),
                source: res.as_ref().ok().map(|s| s.source),
                trace: keep_traces.then(|| Box::new(trace)),
            };
            (res.is_ok(), Some(answer))
        },
    )
}

fn latencies(run: &[(Sample, Option<Answer>)]) -> Vec<Option<f64>> {
    run.iter().map(|(s, _)| s.latency_ms()).collect()
}

/// Walk the ladder; stop after two failing rungs in a row.
/// `rung(i, rate, len)` builds a rung's schedule and the graph table its
/// keys index; `on_rung` sees each finished rung.
fn run_ladder(
    service: &LatencyService,
    shape: &Shape,
    rung_len: Duration,
    mut rung: impl FnMut(usize, f64, Duration) -> (Vec<Arrival>, Vec<Arc<Graph>>),
    mut on_rung: impl FnMut(&[Arrival], &[Arc<Graph>], &[(Sample, Option<Answer>)]),
) -> (Vec<Rung>, u64, u64) {
    let (mut rungs, mut attempted, mut failed, mut misses) = (Vec::new(), 0, 0, 0);
    for (i, &rate) in shape.ladder_rps.iter().enumerate() {
        let (schedule, graphs) = rung(i, rate, rung_len);
        let run = drive(
            service,
            &graphs,
            &schedule,
            Duration::from_secs_f64(shape.limit_ms * 20.0 / 1e3),
            false,
        );
        on_rung(&schedule, &graphs, &run);
        let lat = latencies(&run);
        let rung = Rung {
            rate_rps: rate,
            p99_ms: shape.quantiles(&run).1,
            backlog_grows: stats::backlog_grows(&lat, shape.limit_ms),
        };
        // Arrivals the generator abandoned past the rung's capacity miss
        // the limit above; only requests actually sent count as attempted.
        let sent = run.iter().filter(|(s, _)| s.sent_ns.is_some());
        attempted += sent.clone().count() as u64;
        failed += sent.filter(|(s, _)| !s.ok).count() as u64;
        rungs.push(rung);
        misses = if rung.passes(shape.limit_ms) {
            0
        } else {
            misses + 1
        };
        if misses == 2 {
            break;
        }
    }
    (rungs, attempted, failed)
}

fn rungs_json(rungs: &[Rung], limit_ms: f64) -> Value {
    json!(rungs
        .iter()
        .map(|r| json!({
            "rate_rps": r.rate_rps,
            "p99_ms": if r.p99_ms.is_finite() { json!(r.p99_ms) } else { json!("inf") },
            "backlog_grows": r.backlog_grows,
            "passes": r.passes(limit_ms),
        }))
        .collect::<Vec<_>>())
}

/// Record the nominal-phase latency metrics and the phase counts.
fn nominal_metrics(
    out: &mut Outcome,
    shape: &Shape,
    run: &[(Sample, Option<Answer>)],
    phase: &str,
    seconds: f64,
) {
    let lat = latencies(run);
    let s = Summary::of(&lat);
    let (p50, p99, windows) = shape.quantiles(run);
    out.metric("p50_ms", p50);
    out.metric("p99_ms", p99);
    out.metric("ok_pct", 100.0 * (s.n - s.failed) as f64 / s.n as f64);
    out.phase(phase, s.n as u64, s.failed as u64);
    let (lag50, lag99, busy99) = gen::lateness_us(&run.iter().map(|(s, _)| *s).collect::<Vec<_>>());
    out.report.insert(
        format!("{phase}.summary"),
        json!({
            "requests": s.n, "failed": s.failed, "beyond_p99": s.beyond_p99(),
            "windows": windows, "p50_ms": p50, "p99_ms": p99,
            "whole_phase_p50_ms": s.p50, "whole_phase_p99_ms": s.p99, "offered_s": seconds,
            "timer_lag_us_p50": lag50, "timer_lag_us_p99": lag99, "client_busy_us_p99": busy99,
        }),
    );
}

/// Traced requests whose spans go into the ledger (evenly sampled); the
/// metrics use every trace.
const LEDGER_REQUESTS: usize = 20_000;

/// Per-layer serve metrics from a traced phase; `untraced_p50_ms` is the
/// same phase's `p50_ms` without tracing.
fn serve_layer_metrics(
    out: &mut Outcome,
    ledger: &mut Ledger,
    shape: &Shape,
    run: &[(Sample, Option<Answer>)],
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    untraced_p50_ms: f64,
) -> BTreeMap<&'static str, f64> {
    let samples: Vec<Sample> = run.iter().map(|(s, _)| *s).collect();
    let (lag50, lag99, busy99) = gen::lateness_us(&samples);
    out.metric("harness.timer_lag_us.p50", lag50);
    out.metric("harness.timer_lag_us.p99", lag99);
    out.metric("harness.client_busy_us.p99", busy99);
    let traced_p50 = shape.quantiles(run).0;
    out.metric(
        "harness.trace_overhead_pct",
        100.0 * (traced_p50 - untraced_p50_ms) / untraced_p50_ms,
    );

    let mut totals = Vec::new();
    let mut stages: BTreeMap<&'static str, Vec<Option<f64>>> = BTreeMap::new();
    let every = run.len().div_ceil(LEDGER_REQUESTS).max(1);
    for (i, (s, a)) in run.iter().enumerate() {
        let Some(trace) = a.as_ref().and_then(|a| a.trace.as_ref()) else {
            continue;
        };
        totals.push(Some(trace.total_ns as f64 / 1e3));
        for st in &trace.stages {
            stages
                .entry(st.name)
                .or_default()
                .push(Some(st.dur_ns as f64 / 1e3));
        }
        if i % every != 0 {
            continue;
        }
        let req = trace.request_id;
        let root = ledger.push(req, None, "request", s.due_ns, s.end_ns);
        ledger.push(
            req,
            Some(root),
            "harness.lateness",
            s.due_ns,
            s.sent_ns.unwrap_or(s.due_ns),
        );
        let q = ledger.push(
            req,
            Some(root),
            "serve.query",
            trace.start_ns,
            trace.start_ns + trace.total_ns,
        );
        let mut at = trace.start_ns;
        for st in &trace.stages {
            ledger.push(
                req,
                Some(q),
                &format!("serve.{}", st.name),
                at,
                at + st.dur_ns,
            );
            at += st.dur_ns;
        }
    }
    let svc = Summary::of(&totals);
    out.metric("serve.service_us.p50", svc.p50);
    out.metric("serve.service_us.p99", svc.p99);
    let q = |name: &str, p: f64| stages.get(name).map_or(0.0, |v| stats::quantile(v, p));
    for (stage, p99) in [
        ("resolve", false),
        ("hot_cache", false),
        ("db_lookup", true),
        ("admission", false),
        ("measure", false),
        ("db_write", true),
        ("publish", false),
        ("response", false),
        ("queue_wait", true),
    ] {
        out.metric(&format!("serve.{stage}_us.p50"), q(stage, 0.5));
        if p99 {
            out.metric(&format!("serve.{stage}_us.p99"), q(stage, 0.99));
        }
    }
    let requests = (after.requests - before.requests).max(1) as f64;
    out.metric(
        "serve.hot_hit_ratio",
        (after.hot_hits - before.hot_hits) as f64 / requests,
    );
    out.metric(
        "serve.coalesced_ratio",
        (after.coalesced - before.coalesced) as f64 / requests,
    );
    out.metric(
        "serve.rejected",
        (after.rejected + after.lint_rejected - before.rejected - before.lint_rejected) as f64,
    );
    stages
        .iter()
        .map(|(k, v)| (*k, stats::quantile(v, 0.5)))
        .collect()
}

/// Replay the first [`REPLAY`] distinct `graphs` through each layer's
/// public functions under ledger spans, and put the WAL cost per record
/// into `out`. `db` is the workload's database for lookups; inserts go to
/// a scratch durable store with the ingest workload's fsync policy.
pub fn replay_layers(
    out: &mut Outcome,
    ledger: &mut Ledger,
    graphs: &[Arc<Graph>],
    db: &Database,
    seed: u64,
) {
    let spec = platform().spec().clone();
    let strict = Nnlqp::builder().strict(true).build();
    let farm = nnlqp_sim::DeviceFarm::full_registry();
    let registry = MetricsRegistry::new();
    let dir = fresh_dir("replay-store");
    let scratch = Database::open_durable_with_metrics(
        DurableOptions::new(&dir).fsync(FSYNC),
        DbMetrics::registered(&registry),
    )
    .expect("open replay store");
    let pid = scratch.get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name());
    let db_pid = db.get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name());
    let wal_before = registry.snapshot();
    let mut seen = HashSet::new();
    let graphs: Vec<&Arc<Graph>> = graphs
        .iter()
        .filter(|g| seen.insert(nnlqp_hash::graph_hash(g)))
        .take(REPLAY)
        .collect();
    for g in &graphs {
        let req = ledger.request();
        let start = ledger.now_ns();
        let root = ledger.push(req, None, "replay", start, start);
        let hash = ledger.time(req, Some(root), "hash.graph_hash", || {
            nnlqp_hash::graph_hash(g)
        });
        ledger.time(req, Some(root), "hash.fingerprint", || {
            nnlqp_hash::graph_fingerprint(g)
        });
        ledger.time(req, Some(root), "db.lookup", || {
            db.lookup_latency(hash, db_pid, 1)
        });
        ledger.time(req, Some(root), "analyze.admission", || {
            strict.analyze_admission(g, hash, &spec)
        });
        let job = QueryJob {
            graph: Arc::clone(g),
            platform: spec.name.clone(),
            reps: nnlqp_sim::DEFAULT_REPS,
            seed: seed ^ hash,
        };
        let res = ledger.time(req, Some(root), "sim.farm_measure", || {
            farm.measure_blocking(&job)
        });
        let ms = res.expect("replay measurement").measurement.mean_ms;
        ledger.time(req, Some(root), "sim.execute", || {
            nnlqp_sim::exec::execute(g, &spec)
        });
        ledger.time(req, Some(root), "db.insert", || {
            let (mid, _) = scratch.insert_model(g);
            scratch
                .get_or_insert_latency(mid, pid, 1, ms, 0.0, 0, 0)
                .expect("valid keys")
        });
        let end = ledger.now_ns();
        ledger.close(root, end);
    }
    let wal = registry.snapshot();
    let records = graphs.len().max(1) as f64;
    let delta = |name: &str| (wal.counter(name) - wal_before.counter(name)) as f64;
    out.metric(
        "db.wal_bytes_per_record",
        delta(db_metric_names::WAL_BYTES) / records,
    );
    out.metric(
        "db.wal_appends_per_record",
        delta(db_metric_names::WAL_APPENDS) / records,
    );
    drop(scratch);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-layer medians of the replay spans, into `out`; returns the
/// reconciliation table against the serve stage medians.
pub fn layer_medians(
    out: &mut Outcome,
    ledger: &Ledger,
    stage_p50_us: &BTreeMap<&'static str, f64>,
) -> Value {
    let by_name = ledger.self_us_by_name();
    let med = |name: &str| by_name.get(name).map_or(0.0, |v| stats::median(v));
    let p99 = |name: &str| {
        by_name.get(name).map_or(0.0, |v| {
            stats::quantile(&v.iter().copied().map(Some).collect::<Vec<_>>(), 0.99)
        })
    };
    out.metric("hash.graph_hash_us.p50", med("hash.graph_hash"));
    out.metric("hash.fingerprint_us.p50", med("hash.fingerprint"));
    out.metric("db.lookup_us.p50", med("db.lookup"));
    out.metric("db.insert_us.p50", med("db.insert"));
    out.metric("db.insert_us.p99", p99("db.insert"));
    out.metric("sim.farm_measure_us.p50", med("sim.farm_measure"));
    out.metric("sim.execute_us.p50", med("sim.execute"));
    out.metric("analyze.admission_us.p50", med("analyze.admission"));
    let rows = [
        ("resolve", vec!["hash.graph_hash"]),
        ("db_lookup", vec!["db.lookup"]),
        ("admission", vec!["analyze.admission"]),
        ("measure", vec!["sim.farm_measure"]),
        ("db_write", vec!["db.insert"]),
    ];
    json!(rows
        .iter()
        .filter_map(|(stage, layers)| {
            let stage_us = *stage_p50_us.get(stage)?;
            let sum: f64 = layers.iter().map(|l| med(l)).sum();
            Some(json!({
                "stage": *stage,
                "stage_p50_us": stage_us,
                "ledger_layers": layers.clone(),
                "ledger_sum_us": sum,
                "gap_us": stage_us - sum,
                "ratio": stage_us / sum,
            }))
        })
        .collect::<Vec<_>>())
}

/// A fresh directory under the work dir, unique to this process.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = work_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

// ---------------------------------------------------------------------
// serve-read-zipf

/// Distinct keys in the read key space: about 4× the 1,024-entry hot
/// cache, so the head is served by the cache and the tail by the db.
const READ_KEYS: usize = 4096;

/// Capacity on a 2-core host is ~160–200k rps (two clients at ~10 µs a
/// query); the nominal rate sits at about a seventh of it, the ladder
/// climbs in 5% steps from 100k. Reads take microseconds, so a
/// millisecond hiccup of the shared host decides a whole-phase p99:
/// quantiles are medians over 0.3 s windows.
fn read_shape() -> Shape {
    Shape {
        nominal_rps: 25_000.0,
        ladder_rps: ladder(100_000.0, 1.05, 20),
        limit_ms: 1.0,
        nominal_share: 0.25,
        window: Some(Duration::from_millis(300)),
    }
}

/// Untimed warm-up at the nominal rate: fills the hot cache.
const READ_WARMUP: Duration = Duration::from_millis(500);

struct ReadFixture {
    system: Arc<Nnlqp>,
    graphs: Vec<Arc<Graph>>,
    truth: Vec<f64>,
}

fn read_fixture(seed: u64) -> ReadFixture {
    // All inputs first, then the db fill: the key graphs sit together in
    // memory instead of interleaved with the db's copies.
    let mut seen = HashSet::new();
    let graphs: Vec<Arc<Graph>> = (0u64..)
        .map(|key| key_graph(seed, key))
        .filter(|g| seen.insert(nnlqp_hash::graph_hash(g)))
        .take(READ_KEYS)
        .map(Arc::new)
        .collect();
    let system = Arc::new(Nnlqp::builder().build());
    let p = platform();
    let truth = graphs
        .iter()
        .map(|g| {
            system
                .query(&QueryParams::new((**g).clone(), 1, p.clone()))
                .expect("set-up measurement")
                .latency_ms
        })
        .collect();
    ReadFixture {
        system,
        graphs,
        truth,
    }
}

pub fn read_zipf(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let shape = read_shape();
    let fx = median_setup(&mut out, || read_fixture(args.seed));
    let service = LatencyService::start(Arc::clone(&fx.system), serve_config());
    let farm_before = fx.system.farm_measurements();
    let zipf = gen::Zipf::new(READ_KEYS, 1.1);
    let mut rng = Rng64::new(args.seed ^ 0x5EED);
    let schedule = |rate: f64, len: Duration, rng: &mut Rng64| {
        gen::poisson_schedule(rate, len, rng, |r| zipf.sample(r))
    };

    let nominal_len = Duration::from_secs_f64(args.seconds * shape.nominal_share);
    let warm = schedule(shape.nominal_rps, READ_WARMUP, &mut rng);
    let run = drive(&service, &fx.graphs, &warm, Duration::MAX, false);
    let mut wrong = count_wrong(&run, &fx.truth, &warm);
    out.phase(
        "warm-up",
        run.len() as u64,
        run.iter().filter(|(s, _)| !s.ok).count() as u64,
    );
    let nominal = schedule(shape.nominal_rps, nominal_len, &mut rng);
    let before = service.metrics();
    let run = drive(&service, &fx.graphs, &nominal, Duration::MAX, false);
    nominal_metrics(&mut out, &shape, &run, "nominal", nominal_len.as_secs_f64());
    wrong += count_wrong(&run, &fx.truth, &nominal);
    drop(run);

    if args.trace {
        let untraced_p50 = out.metrics["p50_ms"];
        let traced_sched = schedule(shape.nominal_rps, nominal_len, &mut rng);
        let before_t = service.metrics();
        let run = drive(&service, &fx.graphs, &traced_sched, Duration::MAX, true);
        wrong += count_wrong(&run, &fx.truth, &traced_sched);
        let after_t = service.metrics();
        out.phase(
            "nominal-traced",
            run.len() as u64,
            run.iter().filter(|(s, _)| !s.ok).count() as u64,
        );
        let mut ledger = Ledger::default();
        let stage_p50 = serve_layer_metrics(
            &mut out,
            &mut ledger,
            &shape,
            &run,
            &before_t,
            &after_t,
            untraced_p50,
        );
        let replay: Vec<Arc<Graph>> = distinct_keys(&traced_sched)
            .into_iter()
            .map(|k| Arc::clone(&fx.graphs[k]))
            .collect();
        replay_layers(&mut out, &mut ledger, &replay, &fx.system.db, args.seed);
        let recon = layer_medians(&mut out, &ledger, &stage_p50);
        out.report.insert("reconciliation".into(), recon);
        out.ledger = Some(ledger);
    } else {
        let rung_len = Duration::from_secs_f64(
            args.seconds * (1.0 - shape.nominal_share) / shape.ladder_rps.len() as f64,
        );
        let mut rung_rng = rng.fork(7);
        let (rungs, attempted, failed) = run_ladder(
            &service,
            &shape,
            rung_len,
            |_, rate, len| (schedule(rate, len, &mut rung_rng), fx.graphs.clone()),
            |sched, _, run| wrong += count_wrong(run, &fx.truth, sched),
        );
        out.metric("capacity_rps", stats::capacity(&rungs, shape.limit_ms));
        out.phase("ladder", attempted, failed);
        out.report
            .insert("ladder".into(), rungs_json(&rungs, shape.limit_ms));
    }
    let after = service.metrics();
    out.check(
        "every answer equals the db row recorded at set-up",
        wrong == 0,
    );
    out.check(
        "no farm measurement while serving",
        fx.system.farm_measurements() == farm_before,
    );
    out.check("serve metrics balanced", after.balanced());
    out.report.insert(
        "serve_metrics".into(),
        json!({ "requests": after.requests - before.requests, "hot_hits": after.hot_hits - before.hot_hits,
                "db_hits": after.db_hits - before.db_hits, "misses": after.misses - before.misses }),
    );
    service.shutdown().expect("service shutdown");

    let stream: Vec<Graph> = nominal
        .iter()
        .take(2048)
        .map(|a| (*fx.graphs[a.key]).clone())
        .collect();
    nnlp::probe(&mut out, &stream, &[PLATFORM]);
    out.metric("db.compactions", 0.0);
    out.metric("db.compact_ms", 0.0);
    out.metric(
        "sim.measurements_per_key",
        fx.system.farm_measurements() as f64 / fx.graphs.len() as f64,
    );
    out
}

fn distinct_keys(schedule: &[Arrival]) -> Vec<usize> {
    let mut seen = HashSet::new();
    schedule
        .iter()
        .map(|a| a.key)
        .filter(|k| seen.insert(*k))
        .collect()
}

/// Answers that differ from the set-up truth or came from the farm.
fn count_wrong(run: &[(Sample, Option<Answer>)], truth: &[f64], schedule: &[Arrival]) -> usize {
    run.iter()
        .zip(schedule)
        .filter(|((s, a), arr)| {
            s.ok && a.as_ref().is_none_or(|a| {
                a.latency_ms != Some(truth[arr.key]) || a.source == Some(Source::Measured)
            })
        })
        .count()
}

// ---------------------------------------------------------------------
// serve-ingest-durable

/// Size of the ingest key space, far above any run's request count.
const INGEST_KEY_SPACE: u64 = 1 << 30;
/// Mild popularity skew: most requests are first touches, the head
/// repeats.
const INGEST_ZIPF_S: f64 = 0.85;

/// A background compaction pass (once per 8 MiB of WAL, ~2,900 records)
/// stalls writers for seconds. The nominal phase writes fewer records
/// than one such cycle at a rate where the stall delays under a fifth of
/// its requests: `p50_ms` measures the write path, `p99_ms` the stall.
/// Capacity is ~4–6k rps (two clients at ~0.45 ms a first touch).
fn ingest_shape() -> Shape {
    Shape {
        nominal_rps: 150.0,
        ladder_rps: ladder(2_000.0, 1.15, 12),
        limit_ms: 50.0,
        nominal_share: 0.75,
        window: None,
    }
}

/// First-touch records written before the nominal phase, so that it
/// crosses the compaction trigger once, about a third of the way in.
const INGEST_PREFILL: usize = 1_980;

fn ingest_schedule(rate: f64, len: Duration, rng: &mut Rng64) -> Vec<Arrival> {
    gen::poisson_schedule(rate, len, rng, |r| {
        gen::power_law_rank(INGEST_KEY_SPACE, INGEST_ZIPF_S, r) as usize
    })
}

/// Rewrite a schedule's key ranks into dense indices (in order of first
/// appearance) and return the rank behind each index.
fn dense_keys(schedule: &mut [Arrival]) -> Vec<usize> {
    let mut index: BTreeMap<usize, usize> = BTreeMap::new();
    let mut ranks = Vec::new();
    for a in schedule.iter_mut() {
        a.key = *index.entry(a.key).or_insert_with(|| {
            ranks.push(a.key);
            ranks.len() - 1
        });
    }
    ranks
}

/// The graphs behind `ranks` in one phase (`phase` keeps phases' key
/// ranges apart).
fn phase_graphs(seed: u64, phase: u64, ranks: &[usize]) -> Vec<Arc<Graph>> {
    ranks
        .iter()
        .map(|&r| Arc::new(key_graph(seed, (phase << 40) | r as u64)))
        .collect()
}

/// Keys sent and answers received, by graph hash.
#[derive(Default)]
struct Touched {
    sent: HashSet<u64>,
    answers: Vec<(u64, f64)>,
}

impl Touched {
    fn add(
        &mut self,
        graphs: &[Arc<Graph>],
        schedule: &[Arrival],
        run: &[(Sample, Option<Answer>)],
    ) {
        for (arr, (s, a)) in schedule.iter().zip(run) {
            if s.sent_ns.is_none() {
                continue;
            }
            let h = nnlqp_hash::graph_hash(&graphs[arr.key]);
            self.sent.insert(h);
            if let Some(ms) = a.as_ref().and_then(|a| a.latency_ms) {
                self.answers.push((h, ms));
            }
        }
    }
}

pub fn ingest_durable(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let shape = ingest_shape();
    let mut rng = Rng64::new(args.seed ^ 0x1A6E57);
    let nominal_len = Duration::from_secs_f64(args.seconds * shape.nominal_share);
    let rung_len = Duration::from_secs_f64(
        args.seconds * (1.0 - shape.nominal_share) / shape.ladder_rps.len() as f64,
    );
    // Prefill arrivals are all due at once: sent back to back.
    let mut warm: Vec<Arrival> =
        ingest_schedule(shape.nominal_rps, Duration::from_secs(3600), &mut rng)
            .into_iter()
            .take(INGEST_PREFILL)
            .map(|a| Arrival {
                due_ns: 0,
                key: a.key,
            })
            .collect();
    let mut nominal = ingest_schedule(shape.nominal_rps, nominal_len, &mut rng);
    let mut traced = ingest_schedule(shape.nominal_rps, nominal_len, &mut rng);
    let ranks = [
        dense_keys(&mut warm),
        dense_keys(&mut nominal),
        dense_keys(&mut traced),
    ];
    let (mut warm_g, mut nominal_g, mut traced_g) = (Vec::new(), Vec::new(), Vec::new());

    // Set-up: the phase inputs, then a fresh durable store (strict
    // admission, fsync always, background compactor at its defaults)
    // and the service in front of it. The prefill that follows is
    // untimed preparation.
    let dir = fresh_dir("ingest-store");
    let (system, service) = median_setup(&mut out, || {
        let _ = std::fs::remove_dir_all(&dir);
        warm_g = phase_graphs(args.seed, 0, &ranks[0]);
        nominal_g = phase_graphs(args.seed, 1, &ranks[1]);
        if args.trace {
            traced_g = phase_graphs(args.seed, 2, &ranks[2]);
        }
        let system = Arc::new(
            Nnlqp::builder()
                .strict(true)
                .durable(DurableOptions::new(&dir).fsync(FSYNC))
                .try_build()
                .expect("open durable store"),
        );
        let service = LatencyService::start(Arc::clone(&system), serve_config());
        (system, service)
    });
    let mut seen = Touched::default();
    let prefill = drive(&service, &warm_g, &warm, Duration::MAX, false);
    seen.add(&warm_g, &warm, &prefill);
    out.phase(
        "prefill",
        prefill.len() as u64,
        prefill.iter().filter(|(s, _)| !s.ok).count() as u64,
    );
    drop(prefill);
    let reg_before = system.registry().snapshot();
    let before = service.metrics();
    let run = drive(&service, &nominal_g, &nominal, Duration::MAX, false);
    seen.add(&nominal_g, &nominal, &run);
    nominal_metrics(&mut out, &shape, &run, "nominal", nominal_len.as_secs_f64());
    let stream: Vec<Graph> = nominal
        .iter()
        .take(2048)
        .map(|a| (*nominal_g[a.key]).clone())
        .collect();
    drop(run);
    // Background compaction passes during the measured phases.
    let compactions = |system: &Nnlqp| {
        (system
            .registry()
            .snapshot()
            .counter(db_metric_names::COMPACTIONS)
            - reg_before.counter(db_metric_names::COMPACTIONS)) as f64
    };
    out.metric("db.compactions", compactions(&system));

    if args.trace {
        let untraced_p50 = out.metrics["p50_ms"];
        let before_t = service.metrics();
        let run = drive(&service, &traced_g, &traced, Duration::MAX, true);
        let after_t = service.metrics();
        out.metric("db.compactions", compactions(&system));
        seen.add(&traced_g, &traced, &run);
        out.phase(
            "nominal-traced",
            run.len() as u64,
            run.iter().filter(|(s, _)| !s.ok).count() as u64,
        );
        let mut ledger = Ledger::default();
        let stage_p50 = serve_layer_metrics(
            &mut out,
            &mut ledger,
            &shape,
            &run,
            &before_t,
            &after_t,
            untraced_p50,
        );
        drop(run);
        // Replay keys the store has not seen, so admission and the farm
        // do a first touch's work.
        let replay: Vec<Arc<Graph>> = (0..REPLAY as u64)
            .map(|k| Arc::new(key_graph(args.seed, (3 << 40) | k)))
            .collect();
        replay_layers(&mut out, &mut ledger, &replay, &system.db, args.seed);
        let t0 = ledger.now_ns();
        system.db.compact().expect("compact ingest store");
        let t1 = ledger.now_ns();
        let req = ledger.request();
        ledger.push(req, None, "db.compact", t0, t1);
        out.metric("db.compact_ms", (t1 - t0) as f64 / 1e6);
        let recon = layer_medians(&mut out, &ledger, &stage_p50);
        out.report.insert("reconciliation".into(), recon);
        out.ledger = Some(ledger);
    }
    if !args.trace {
        // The ladder measures the foreground write path: the background
        // compactor is stopped so a rung's result does not depend on
        // whether a compaction pass happens to fall inside it. Compaction
        // stalls are what `p99_ms` at the nominal rate measures.
        system.stop_compactor();
        let mut rung_rng = rng.fork(7);
        let (rungs, attempted, failed) = run_ladder(
            &service,
            &shape,
            rung_len,
            |i, rate, len| {
                let mut s = ingest_schedule(rate, len, &mut rung_rng);
                let g = phase_graphs(args.seed, 10 + i as u64, &dense_keys(&mut s));
                (s, g)
            },
            |sched, g, run| seen.add(g, sched, run),
        );
        out.metric("capacity_rps", stats::capacity(&rungs, shape.limit_ms));
        out.phase("ladder", attempted, failed);
        out.report
            .insert("ladder".into(), rungs_json(&rungs, shape.limit_ms));
        out.metric("db.compact_ms", 0.0);
    }
    let after = service.metrics();
    out.check("serve metrics balanced", after.balanced());

    // One farm measurement per distinct key sent, and every answer is
    // the row the store now holds.
    let measured = system.farm_measurements();
    out.metric(
        "sim.measurements_per_key",
        measured as f64 / seen.sent.len().max(1) as f64,
    );
    out.check(
        "exactly one farm measurement per distinct key",
        measured == seen.sent.len() as u64,
    );
    let spec = platform().spec().clone();
    let pid = system
        .db
        .get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name());
    let wrong = seen
        .answers
        .iter()
        .filter(|(h, ms)| {
            system
                .db
                .lookup_latency(*h, pid, 1)
                .is_none_or(|r| r.cost_ms != *ms)
        })
        .count();
    out.check("every answer equals the db row after the run", wrong == 0);
    out.report.insert(
        "serve_metrics".into(),
        json!({ "requests": after.requests - before.requests, "measured": after.measured - before.measured,
                "hot_hits": after.hot_hits - before.hot_hits, "db_hits": after.db_hits - before.db_hits,
                "coalesced": after.coalesced - before.coalesced, "distinct_keys": seen.sent.len(),
                "farm_measurements": measured }),
    );
    service.shutdown().expect("service shutdown");
    drop(service);
    drop(system);
    let verify = nnlqp_db::verify_store(&dir).expect("verify store");
    out.check("store reopens clean", verify.clean());
    out.report.insert(
        "verify".into(),
        json!({ "clean": verify.clean(), "models": verify.models, "latencies": verify.latencies, "errors": verify.errors.clone() }),
    );
    let _ = std::fs::remove_dir_all(&dir);
    nnlp::probe(&mut out, &stream, &[PLATFORM]);
    out
}
