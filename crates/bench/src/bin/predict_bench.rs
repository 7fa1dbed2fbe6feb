//! `predict-bench` — throughput and latency of the NNLP inference engine.
//!
//! Measures three ways of predicting latency for a NAS-style corpus of
//! subnet graphs across several platforms:
//!
//! * `single_uncached` — one `predict` call per `(graph, platform)` pair
//!   against a system with the embed cache disabled: every call pays
//!   feature extraction plus the full GNN backbone (the pre-optimization
//!   behavior);
//! * `batched_cold` — `predict_batch` with the cache invalidated before
//!   every repetition: the backbone runs once per *graph* and the
//!   embedding fans out across all platform heads;
//! * `batched_cached` — `predict_batch` over an already-populated cache:
//!   only graph hashing and the MLP heads run.
//!
//! All three phases run once per predictor architecture (GraphSAGE and
//! the transformer encoder) behind the `Predictor` trait — same facade,
//! same cache, different backbone.
//!
//! Results are written as JSON (default `BENCH_predict.json`, schema
//! version 2): under `architectures.{sage,transformer}`, per-phase
//! predictions / total seconds / throughput / p50 / p99, the derived
//! speedups over the per-call path, and the embed-cache counters; plus a
//! `host` block (CPUs, CPU model, SIMD features, kernel backend, rustc)
//! and the run's scale.
//!
//! ```text
//! predict-bench [--quick] [--seed S] [--out PATH] [--no-simd]
//! ```
//!
//! `--no-simd` pins the portable scalar GEMM kernels (the report's
//! `host.kernel_backend` field records which backend actually ran).

use nnlqp::{metric_names, Nnlqp, PredictorHandle, PredictorKind, TrainPredictorConfig};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_nas::{SubnetConfig, Supernet};
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};
use std::time::Instant;

/// Scale knobs for one run.
struct Scale {
    /// Graphs measured + trained on.
    train_graphs: usize,
    /// Fresh graphs predicted during timing.
    eval_graphs: usize,
    /// Platform heads.
    platforms: usize,
    /// Training epochs.
    epochs: usize,
    /// Timed repetitions per phase.
    reps: usize,
    /// Graphs per timed `predict_batch` call.
    chunk: usize,
}

impl Scale {
    fn quick() -> Self {
        Scale {
            train_graphs: 6,
            eval_graphs: 8,
            platforms: 3,
            epochs: 4,
            reps: 2,
            chunk: 4,
        }
    }

    fn full() -> Self {
        Scale {
            train_graphs: 10,
            eval_graphs: 32,
            platforms: 4,
            epochs: 20,
            reps: 3,
            chunk: 8,
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: predict-bench [--quick] [--seed S] [--out PATH] [--no-simd]");
    std::process::exit(2);
}

/// Distinct subnet graphs sampled from the supernet (deduplicated by
/// subnet id so every graph exercises a different architecture).
fn sample_subnets(n: usize, rng: &mut Rng64) -> Vec<Graph> {
    let net = Supernet::default();
    let mut seen = std::collections::HashSet::new();
    let mut graphs = Vec::with_capacity(n);
    while graphs.len() < n {
        let cfg = SubnetConfig::sample(rng);
        if !seen.insert(cfg.id()) {
            continue;
        }
        let g = net
            .subnet_graph(&cfg, &format!("subnet-{}", graphs.len()))
            .expect("sampled subnet builds");
        graphs.push(g);
    }
    graphs
}

/// Percentile (nearest-rank) of per-prediction milliseconds.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// One phase's timing summary.
struct Phase {
    predictions: usize,
    total_s: f64,
    samples_ms: Vec<f64>,
}

impl Phase {
    fn throughput(&self) -> f64 {
        self.predictions as f64 / self.total_s.max(1e-12)
    }

    fn to_json(&self) -> serde_json::Value {
        let mut s = self.samples_ms.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        serde_json::json!({
            "predictions": self.predictions,
            "total_s": self.total_s,
            "throughput_per_s": self.throughput(),
            "p50_ms": percentile(&s, 50.0),
            "p99_ms": percentile(&s, 99.0),
        })
    }
}

/// Per-call path: every `(graph, platform)` pair runs the full backbone.
fn run_single(system: &Nnlqp, graphs: &[Graph], platforms: &[&str], reps: usize) -> Phase {
    let mut samples = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        for g in graphs {
            for name in platforms {
                let t = Instant::now();
                system.predict_effective(g, name).expect("predict");
                samples.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    Phase {
        predictions: samples.len(),
        total_s: start.elapsed().as_secs_f64(),
        samples_ms: samples,
    }
}

/// Batched path over `chunk`-sized graph slices; per-prediction latency
/// is each chunk's wall time divided by its prediction count. When
/// `invalidate` is set, the predictor is hot-swapped before every rep so
/// no embedding survives from the previous one.
fn run_batched(
    system: &Nnlqp,
    handle: &PredictorHandle,
    graphs: &[Graph],
    platforms: &[&str],
    reps: usize,
    chunk: usize,
    invalidate: bool,
) -> Phase {
    let mut samples = Vec::new();
    let mut predictions = 0;
    let mut total_s = 0.0;
    for _ in 0..reps {
        if invalidate {
            system.set_predictor(handle.clone()); // version bump: all-miss
        }
        let start = Instant::now();
        for slice in graphs.chunks(chunk) {
            let t = Instant::now();
            let out = system.predict_batch(slice, platforms).expect("batch");
            let n: usize = out.latencies_ms.iter().map(Vec::len).sum();
            predictions += n;
            samples.push(t.elapsed().as_secs_f64() * 1e3 / n as f64);
        }
        total_s += start.elapsed().as_secs_f64();
    }
    Phase {
        predictions,
        total_s,
        samples_ms: samples,
    }
}

/// The three phases plus cache counters for one predictor architecture.
struct ArchReport {
    single: Phase,
    cold: Phase,
    cached: Phase,
    embed_hits: u64,
    embed_misses: u64,
}

impl ArchReport {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "phases": {
                "single_uncached": self.single.to_json(),
                "batched_cold": self.cold.to_json(),
                "batched_cached": self.cached.to_json(),
            },
            "speedup": {
                "batched_vs_single": self.cold.throughput() / self.single.throughput(),
                "cached_vs_single": self.cached.throughput() / self.single.throughput(),
            },
            "embed_cache": {
                "hits": self.embed_hits,
                "misses": self.embed_misses,
            },
        })
    }
}

/// Train `arch` on the corpus already measured into `trainer`, then time
/// all three phases on fresh cache-off / cache-on systems sharing the
/// trained handle.
fn run_arch(
    arch: PredictorKind,
    trainer: &Nnlqp,
    specs: &[nnlqp_sim::PlatformSpec],
    eval: &[Graph],
    platform_names: &[&str],
    scale: &Scale,
    seed: u64,
) -> ArchReport {
    trainer
        .train_predictor(
            platform_names,
            TrainPredictorConfig {
                epochs: scale.epochs,
                hidden: 32,
                gnn_layers: 2,
                seed,
                arch: Some(arch),
                ..Default::default()
            },
        )
        .expect("train");
    let handle = trainer.predictor_handle().expect("trained handle");

    // Two inference systems sharing the weights: cache off vs cache on.
    let baseline = Nnlqp::builder()
        .farm(DeviceFarm::new(specs, 1))
        .embed_cache(0)
        .build();
    baseline.set_predictor(handle.clone());
    let fast = Nnlqp::builder()
        .farm(DeviceFarm::new(specs, 1))
        .embed_cache(4096)
        .build();
    fast.set_predictor(handle.clone());
    let handle = fast.predictor_handle().expect("installed handle");

    let single = run_single(&baseline, eval, platform_names, scale.reps);
    let cold = run_batched(
        &fast,
        &handle,
        eval,
        platform_names,
        scale.reps,
        scale.chunk,
        true,
    );
    // Warm the cache once untimed, then measure the all-hit steady state.
    fast.predict_batch(eval, platform_names).expect("warmup");
    let cached = run_batched(
        &fast,
        &handle,
        eval,
        platform_names,
        scale.reps,
        scale.chunk,
        false,
    );
    let snap = fast.registry().snapshot();
    eprintln!(
        "[predict-bench] {arch}: single {:.0}/s  batched {:.0}/s ({:.2}x)  cached {:.0}/s ({:.2}x)",
        single.throughput(),
        cold.throughput(),
        cold.throughput() / single.throughput(),
        cached.throughput(),
        cached.throughput() / single.throughput(),
    );
    ArchReport {
        single,
        cold,
        cached,
        embed_hits: snap.counter(metric_names::EMBED_HITS),
        embed_misses: snap.counter(metric_names::EMBED_MISSES),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed = 0x4e4e_4c51_u64;
    let mut out = std::path::PathBuf::from("BENCH_predict.json");
    let mut no_simd = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--no-simd" => no_simd = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => usage(),
            },
            "--out" => match it.next() {
                Some(v) => out = v.into(),
                None => usage(),
            },
            _ => usage(),
        }
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };
    // Only override the dispatch when the flag is given, so the
    // `NNLQP_SIMD` environment toggle keeps working without it.
    if no_simd {
        nnlqp_nn::set_simd_enabled(false);
    }
    eprintln!(
        "[predict-bench] kernel backend: {}",
        nnlqp_nn::kernel().as_str()
    );

    let specs = PlatformSpec::table2_platforms();
    let platform_names: Vec<&str> = specs
        .iter()
        .take(scale.platforms)
        .map(|s| s.name.as_str())
        .collect();

    // Measure a training corpus and fit the multi-head predictor.
    eprintln!(
        "[predict-bench] training on {} graphs x {} platforms ({} epochs)",
        scale.train_graphs,
        platform_names.len(),
        scale.epochs
    );
    let mut rng = Rng64::new(seed);
    let train_corpus = sample_subnets(scale.train_graphs, &mut rng);
    let trainer = Nnlqp::builder()
        .farm(DeviceFarm::new(&specs, 1))
        .reps(3)
        .seed(seed)
        .build();
    for name in &platform_names {
        trainer
            .warm_cache(&train_corpus, &Platform::by_name(name).unwrap(), 1)
            .expect("warm cache");
    }
    let eval = sample_subnets(scale.eval_graphs, &mut rng);
    eprintln!(
        "[predict-bench] timing {} graphs x {} platforms, {} reps per phase per architecture",
        eval.len(),
        platform_names.len(),
        scale.reps
    );

    // Every phase runs once per architecture through the same trait-based
    // facade path.
    let sage = run_arch(
        PredictorKind::Sage,
        &trainer,
        &specs,
        &eval,
        &platform_names,
        &scale,
        seed,
    );
    let transformer = run_arch(
        PredictorKind::Transformer,
        &trainer,
        &specs,
        &eval,
        &platform_names,
        &scale,
        seed,
    );

    let report = serde_json::json!({
        "schema_version": 2,
        "bench": "predict",
        "quick": quick,
        "seed": seed,
        "host": nnlqp_bench::report::host(),
        "config": {
            "train_graphs": scale.train_graphs,
            "eval_graphs": eval.len(),
            "platforms": platform_names,
            "epochs": scale.epochs,
            "reps": scale.reps,
            "batch_chunk": scale.chunk,
        },
        "architectures": {
            "sage": sage.to_json(),
            "transformer": transformer.to_json(),
        },
    });
    let text = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write(&out, format!("{text}\n")).expect("write report");
    eprintln!("[predict-bench] wrote {}", out.display());
}
