//! `perfbench` — the NNLQP repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-read-zipf|serve-ingest-durable|predict-nas>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds every input from `--seed`, drives the system through its public
//! APIs for about `--seconds`, checks the answers, and prints one JSON
//! object as the last line of stdout: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`. A full report (provenance, phases, checks,
//! reconciliation) precedes it on stdout and is also written under
//! `.bench_work/`. Exits 1 when any correctness check fails.

mod gen;
mod host;
mod ledger;
mod nnlp;
mod serve;
mod stats;

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 10] = [
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("throughput_per_s", "1/s"),
    ("xfmr_throughput_per_s", "1/s"),
    ("retrain_s", "s"),
    ("acc10_pct", "%"),
    ("ok_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("harness.timer_lag_us.p50", "us"),
    ("harness.timer_lag_us.p99", "us"),
    ("harness.client_busy_us.p99", "us"),
    ("harness.trace_overhead_pct", "%"),
    ("serve.service_us.p50", "us"),
    ("serve.service_us.p99", "us"),
    ("serve.resolve_us.p50", "us"),
    ("serve.hot_cache_us.p50", "us"),
    ("serve.hot_hit_ratio", "ratio"),
    ("serve.db_lookup_us.p50", "us"),
    ("serve.db_lookup_us.p99", "us"),
    ("serve.admission_us.p50", "us"),
    ("serve.measure_us.p50", "us"),
    ("serve.db_write_us.p50", "us"),
    ("serve.db_write_us.p99", "us"),
    ("serve.publish_us.p50", "us"),
    ("serve.response_us.p50", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("hash.graph_hash_us.p50", "us"),
    ("hash.fingerprint_us.p50", "us"),
    ("db.lookup_us.p50", "us"),
    ("db.insert_us.p50", "us"),
    ("db.insert_us.p99", "us"),
    ("db.wal_bytes_per_record", "B"),
    ("db.wal_appends_per_record", "count"),
    ("db.compactions", "count"),
    ("db.compact_ms", "ms"),
    ("sim.farm_measure_us.p50", "us"),
    ("sim.execute_us.p50", "us"),
    ("sim.measurements_per_key", "ratio"),
    ("analyze.admission_us.p50", "us"),
    ("predict.features_us.p50", "us"),
    ("predict.embed_us.p50", "us"),
    ("predict.head_us.p50", "us"),
    ("predict.xfmr_embed_us.p50", "us"),
    ("predict.dataset_build_s", "s"),
    ("predict.train_s", "s"),
    ("core.embed_hit_ratio", "ratio"),
    ("core.train_load_s", "s"),
    ("nn.gemm_gflops.sage", "GFLOP/s"),
    ("nn.gemm_gflops.xfmr", "GFLOP/s"),
    ("nn.gemm_flops_per_pred.sage", "FLOP"),
    ("nn.gemm_flops_per_pred.xfmr", "FLOP"),
    ("nn.gemm_bytes_per_pred.sage", "B"),
    ("nn.gemm_bytes_per_pred.xfmr", "B"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operations attempted, succeeded and failed in one phase.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub checks: Vec<(String, bool)>,
    pub phases: Vec<Phase>,
    pub report: BTreeMap<String, Value>,
    pub ledger: Option<ledger::Ledger>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name: name.to_string(),
            attempted,
            failed,
        });
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <serve-read-zipf|serve-ingest-durable|predict-nas> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> String {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage());
        argv.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let workload = get("--workload");
    let seed = get("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = get("--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage();
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// Set-up repeats per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Run `build` [`SETUPS`] times, dropping each result before the next,
/// and record the median time as `setup_s`; returns the last result.
pub fn median_setup<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    out.metric("setup_s", stats::median(&times));
    out.report.insert("setup_s_each".into(), json!(times));
    last.expect("at least one set-up")
}

/// Scratch directory for durable stores, span files and reports.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).expect("create .bench_work");
    dir
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "serve-read-zipf" => serve::read_zipf(&args),
        "serve-ingest-durable" => serve::ingest_durable(&args),
        "predict-nas" => nnlp::predict_nas(&args),
        _ => usage(),
    };
    out.metric("peak_rss_mb", host::peak_rss_mb());

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = BTreeMap::new();
    for (name, unit) in table {
        let value = *out
            .metrics
            .get(*name)
            .unwrap_or_else(|| panic!("workload did not measure {name}"));
        // A quantile that lands on a failure is +inf; JSON has no infinity.
        let value = if value.is_finite() { value } else { f64::MAX };
        metrics.insert(name.to_string(), json!({ "value": value, "unit": *unit }));
    }
    let attempted: u64 = out.phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = out.phases.iter().map(|p| p.failed).sum();
    let correct = out.checks.iter().all(|(_, ok)| *ok);

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(ledger) = &out.ledger {
        let path = work_dir().join(format!("{stem}-spans.jsonl"));
        ledger.write_jsonl(&path).expect("write span ledger");
        out.report
            .insert("spans_file".into(), json!(path.display().to_string()));
    }
    let report = json!({
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": started.elapsed().as_secs_f64(),
        "provenance": host::provenance(),
        "phases": out.phases.iter().map(|p| json!({
            "phase": p.name.as_str(),
            "attempted": p.attempted,
            "succeeded": p.attempted - p.failed,
            "failed": p.failed,
        })).collect::<Vec<_>>(),
        "checks": out.checks.iter().map(|(n, ok)| json!({ "check": n.as_str(), "ok": *ok })).collect::<Vec<_>>(),
        "all_metrics": Value::Object(out.metrics.iter().map(|(k, v)| (k.clone(), json!(*v))).collect()),
        "details": Value::Object(out.report.clone().into_iter().collect()),
    });
    let text = serde_json::to_string_pretty(&report).expect("render report");
    std::fs::write(work_dir().join(format!("{stem}-report.json")), &text).expect("write report");
    println!("{text}");
    for (name, ok) in &out.checks {
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
    }
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
