//! NNLP, the predicting half: the `predict-nas` workload, and the same
//! phases run as a probe over a serve workload's own graphs so that every
//! result carries the NNLP end-to-end metrics.
//!
//! Phases: retrain GraphSAGE from the evolving database, score a stream
//! of candidate generations with `predict_batch` (GraphSAGE champion, then
//! the transformer encoder), and compute Acc(10%) on held-out graphs
//! against the farm's ground truth.

use crate::ledger::Ledger;
use crate::stats::{self, Summary};
use crate::{Args, Outcome};
use nnlqp::{Nnlqp, Platform, PredictorHandle, PredictorKind, QueryParams, TrainPredictorConfig};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_nas::{SubnetConfig, Supernet};
use nnlqp_nn::Matrix;
use nnlqp_predict::{extract_features, Dataset, NnlpConfig, NnlpModel, Predictor, TrainConfig};
use serde_json::json;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Platforms the NAS search scores every candidate on.
const NAS_PLATFORMS: [&str; 3] = [
    "gpu-T4-trt7.1-fp32",
    "cpu-openppl-fp32",
    "hi3559A-nnie11-int8",
];

/// Encoder width and depth (both architectures).
const HIDDEN: usize = 48;
const LAYERS: usize = 3;

/// What to run and at what size.
pub struct Plan<'a> {
    pub platforms: &'a [&'a str],
    /// Graphs measured into the db and trained on.
    pub train: Vec<Graph>,
    /// Graphs measured for ground truth only, never trained on.
    pub holdout: Vec<Graph>,
    /// The scoring stream, one `predict_batch` call per generation.
    pub generations: Vec<Vec<Graph>>,
    /// Stream passes per encoder, each against a freshly installed
    /// champion (cold embed cache).
    pub sage_passes: usize,
    pub xfmr_passes: usize,
    pub retrain_reps: usize,
}

/// Training epochs: GraphSAGE retrains fully, the transformer briefly.
const SAGE_EPOCHS: usize = 10;
const XFMR_EPOCHS: usize = 1;

/// A plan's measured in-memory system, the held-out ground truth
/// (`truth[g][p]`, ms) and the briefly trained transformer.
pub struct Fixture {
    pub system: Nnlqp,
    pub truth: Vec<Vec<f64>>,
    pub xfmr: PredictorHandle,
}

/// Per-generation `predict_batch` latencies of the GraphSAGE stream.
pub struct Stream {
    /// `(ms, succeeded)` per generation, back to back.
    pub gen_ms: Vec<(f64, bool)>,
    /// Seconds per pass over the stream.
    pub pass_s: Vec<f64>,
    /// One more pass with a ledger span around every call (traced runs).
    pub traced_gen_ms: Option<Vec<Option<f64>>>,
}

fn train_cfg(arch: PredictorKind, epochs: usize) -> TrainPredictorConfig {
    TrainPredictorConfig {
        epochs,
        hidden: HIDDEN,
        gnn_layers: LAYERS,
        seed: QUALITY_SEED,
        arch: Some(arch),
        ..TrainPredictorConfig::default()
    }
}

/// Fill a fresh in-memory system through `Nnlqp::query`, measure the
/// held-out truth on a second one, and train the transformer briefly.
pub fn fixture(plan: &Plan) -> Fixture {
    let system = Nnlqp::builder().seed(QUALITY_SEED).build();
    let oracle = Nnlqp::builder().seed(QUALITY_SEED).build();
    let platforms: Vec<Platform> = plan
        .platforms
        .iter()
        .map(|p| Platform::by_name(p).expect("platform is in the registry"))
        .collect();
    for g in &plan.train {
        for p in &platforms {
            system
                .query(&QueryParams::new(g.clone(), 1, p.clone()))
                .expect("training measurement");
        }
    }
    let truth = plan
        .holdout
        .iter()
        .map(|g| {
            platforms
                .iter()
                .map(|p| {
                    oracle
                        .query(&QueryParams::new(g.clone(), 1, p.clone()))
                        .expect("held-out measurement")
                        .latency_ms
                })
                .collect()
        })
        .collect();
    let xfmr = system
        .train_predictor_handle(
            plan.platforms,
            train_cfg(PredictorKind::Transformer, XFMR_EPOCHS),
        )
        .expect("train transformer")
        .expect("db holds samples")
        .0;
    Fixture {
        system,
        truth,
        xfmr,
    }
}

/// One pass of the stream against a freshly installed `handle`. Returns
/// per-generation `(seconds, succeeded)`, embed hits and misses.
fn stream_pass(
    system: &Nnlqp,
    handle: &PredictorHandle,
    plan: &Plan,
) -> (Vec<(f64, bool)>, u64, u64) {
    system.set_predictor(handle.clone());
    let (mut gens, mut hits, mut misses) = (Vec::new(), 0, 0);
    for gen in &plan.generations {
        let t = Instant::now();
        let r = system.predict_batch(gen, plan.platforms);
        gens.push((t.elapsed().as_secs_f64(), r.is_ok()));
        if let Ok(r) = r {
            hits += r.embed_hits;
            misses += r.embed_misses;
        }
    }
    (gens, hits, misses)
}

fn failures(gens: &[(f64, bool)]) -> usize {
    gens.iter().filter(|(_, ok)| !ok).count()
}

fn pass_seconds(gens: &[(f64, bool)]) -> f64 {
    gens.iter().map(|(s, _)| s).sum()
}

/// Run the plan; fills the NNLP end-to-end metrics (and, traced, the
/// predict/core/nn layer metrics).
pub fn run(out: &mut Outcome, plan: &Plan, fx: &Fixture, ledger: Option<&mut Ledger>) -> Stream {
    let (system, truth) = (&fx.system, &fx.truth);
    // Retrain GraphSAGE from the db: the evolving-database loop.
    let mut retrains = Vec::new();
    let mut sage = None;
    for _ in 0..plan.retrain_reps {
        let t = Instant::now();
        let h = system
            .train_predictor_handle(plan.platforms, train_cfg(PredictorKind::Sage, SAGE_EPOCHS))
            .expect("retrain")
            .expect("db holds samples");
        retrains.push(t.elapsed().as_secs_f64());
        sage = Some(h.0);
    }
    let sage = sage.expect("at least one retrain");
    out.metric("retrain_s", stats::median(&retrains));

    let preds_per_pass: usize =
        plan.generations.iter().map(Vec::len).sum::<usize>() * plan.platforms.len();
    // Throughputs divide one pass's predictions by the median pass time,
    // so a burst of host noise in one pass does not move them.
    let (mut gen_ms, mut pass_s, mut hits, mut misses, mut failed) =
        (Vec::new(), Vec::new(), 0, 0, 0);
    for _ in 0..plan.sage_passes {
        let (gens, h, m) = stream_pass(system, &sage, plan);
        pass_s.push(pass_seconds(&gens));
        gen_ms.extend(gens.iter().map(|&(s, ok)| (s * 1e3, ok)));
        (hits, misses, failed) = (hits + h, misses + m, failed + failures(&gens));
    }
    out.metric(
        "throughput_per_s",
        preds_per_pass as f64 / stats::median(&pass_s),
    );
    out.phase(
        "sage-stream",
        (plan.generations.len() * plan.sage_passes) as u64,
        failed as u64,
    );

    // Bit parity of the batched path against per-pair prediction.
    let mut mismatches = 0;
    for gen in plan.generations.iter().step_by(8) {
        let batch = system
            .predict_batch(&gen[..gen.len().min(4)], plan.platforms)
            .expect("parity batch");
        for (g, row) in gen.iter().zip(&batch.latencies_ms) {
            for (p, v) in plan.platforms.iter().zip(row) {
                let one = system
                    .predict_effective(g, p)
                    .expect("parity single")
                    .latency_ms;
                mismatches += usize::from(one.to_bits() != v.to_bits());
            }
        }
    }
    out.check(
        "predict_batch equals predict_effective bit for bit",
        mismatches == 0,
    );

    // Acc(10%) on held-out graphs.
    let held = system
        .predict_batch(&plan.holdout, plan.platforms)
        .expect("held-out predictions");
    let pred: Vec<f64> = held.latencies_ms.iter().flatten().copied().collect();
    let gt: Vec<f64> = truth.iter().flatten().copied().collect();
    out.metric("acc10_pct", nnlqp_predict::acc_at(&pred, &gt, 0.10));

    // One more GraphSAGE pass with a span around each call: the tracing
    // overhead on the generation latency.
    let mut ledger = ledger;
    let traced_gen_ms = ledger.as_deref_mut().map(|l| {
        system.set_predictor(sage.clone());
        plan.generations
            .iter()
            .map(|gen| {
                let t0 = l.now_ns();
                let ok = system.predict_batch(gen, plan.platforms).is_ok();
                let t1 = l.now_ns();
                let req = l.request();
                l.push(req, None, "predict.batch", t0, t1);
                ok.then_some((t1 - t0) as f64 / 1e6)
            })
            .collect()
    });

    // The same stream through the transformer encoder.
    let xfmr = &fx.xfmr;
    let (mut xpass_s, mut xfailed) = (Vec::new(), 0);
    for _ in 0..plan.xfmr_passes {
        let (gens, _, _) = stream_pass(system, xfmr, plan);
        xpass_s.push(pass_seconds(&gens));
        xfailed += failures(&gens);
    }
    out.metric(
        "xfmr_throughput_per_s",
        preds_per_pass as f64 / stats::median(&xpass_s),
    );
    out.phase(
        "xfmr-stream",
        (plan.generations.len() * plan.xfmr_passes) as u64,
        xfailed as u64,
    );
    out.report.insert(
        "nnlp".into(),
        json!({ "platforms": plan.platforms, "train_graphs": plan.train.len(), "holdout_graphs": plan.holdout.len(),
                "generations": plan.generations.len(), "preds_per_pass": preds_per_pass,
                "sage_passes": plan.sage_passes, "xfmr_passes": plan.xfmr_passes,
                "retrain_s_each": retrains, "embed_hits": hits, "embed_misses": misses }),
    );
    out.metric(
        "core.embed_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    if let Some(ledger) = ledger {
        layers(out, ledger, plan, system, &sage, xfmr);
    }
    Stream {
        gen_ms,
        pass_s,
        traced_gen_ms,
    }
}

/// Ledger spans around each predict/core/nn layer on replayed inputs.
fn layers(
    out: &mut Outcome,
    ledger: &mut Ledger,
    plan: &Plan,
    system: &Nnlqp,
    sage: &PredictorHandle,
    xfmr: &PredictorHandle,
) {
    let graphs: Vec<&Graph> = {
        let mut seen = HashSet::new();
        plan.generations
            .iter()
            .flatten()
            .filter(|g| seen.insert(nnlqp_hash::graph_fingerprint(g)))
            .take(200)
            .collect()
    };
    let mut scratch = nnlqp_predict::Scratch::new();
    for g in &graphs {
        let req = ledger.request();
        let start = ledger.now_ns();
        let root = ledger.push(req, None, "predict", start, start);
        let feats = ledger.time(req, Some(root), "predict.features", || extract_features(g));
        let emb = ledger.time(req, Some(root), "predict.embed", || {
            sage.model.embed_with(&feats, &mut scratch)
        });
        ledger.time(req, Some(root), "predict.head", || {
            sage.model.head_eval_with(&emb, 0, &mut scratch)
        });
        ledger.time(req, Some(root), "predict.xfmr_embed", || {
            xfmr.model.embed_with(&feats, &mut scratch)
        });
        let end = ledger.now_ns();
        ledger.close(root, end);
    }

    // The retrain split into its parts: db scan + graph decode, feature
    // dataset, training.
    let req = ledger.request();
    let t0 = ledger.now_ns();
    let entries: Vec<(Graph, f64, usize)> = plan
        .platforms
        .iter()
        .enumerate()
        .flat_map(|(head, name)| {
            let spec = nnlqp_sim::PlatformSpec::by_name(name).expect("platform is in the registry");
            let pid =
                system
                    .db
                    .get_or_create_platform(&spec.hardware, &spec.software, spec.dtype.name());
            system
                .db
                .latencies_for_platform(pid)
                .into_iter()
                .map(move |r| (r.model_id, r.cost_ms, head))
                .collect::<Vec<_>>()
        })
        .map(|(id, ms, head)| {
            (
                system.db.load_graph(id).expect("stored graphs decode"),
                ms,
                head,
            )
        })
        .collect();
    let t1 = ledger.now_ns();
    let refs: Vec<(&Graph, f64, usize)> = entries.iter().map(|(g, l, h)| (g, *l, *h)).collect();
    let ds = Dataset::build(&refs);
    let t2 = ledger.now_ns();
    let mut rng = Rng64::new(QUALITY_SEED);
    let mut model = NnlpModel::new(
        NnlpConfig {
            hidden: HIDDEN,
            head_hidden: HIDDEN,
            gnn_layers: LAYERS,
            n_heads: plan.platforms.len(),
            dropout: 0.05,
            ..NnlpConfig::default()
        },
        ds.norm.clone(),
        &mut rng,
    );
    let defaults = TrainPredictorConfig::default();
    Predictor::train_in_place(
        &mut model,
        &ds.samples,
        TrainConfig {
            epochs: SAGE_EPOCHS,
            batch_size: defaults.batch_size,
            lr: defaults.lr,
            seed: QUALITY_SEED,
        },
    );
    let t3 = ledger.now_ns();
    let root = ledger.push(req, None, "retrain", t0, t3);
    ledger.push(req, Some(root), "core.train_load", t0, t1);
    ledger.push(req, Some(root), "predict.dataset_build", t1, t2);
    ledger.push(req, Some(root), "predict.train", t2, t3);
    out.metric("core.train_load_s", (t1 - t0) as f64 / 1e9);
    out.metric("predict.dataset_build_s", (t2 - t1) as f64 / 1e9);
    out.metric("predict.train_s", (t3 - t2) as f64 / 1e9);

    let by_name = ledger.self_us_by_name();
    let med = |n: &str| by_name.get(n).map_or(0.0, |v| stats::median(v));
    out.metric("predict.features_us.p50", med("predict.features"));
    out.metric("predict.embed_us.p50", med("predict.embed"));
    out.metric("predict.head_us.p50", med("predict.head"));
    out.metric("predict.xfmr_embed_us.p50", med("predict.xfmr_embed"));

    // GEMM work per prediction, computed from tensor shapes at the mean
    // node count of the replayed graphs, and the achieved rate of each
    // encoder's backbone GEMM sequence.
    let nodes = (graphs.iter().map(|g| g.len()).sum::<usize>() / graphs.len().max(1)).max(1);
    let feat = nnlqp_predict::NODE_FEAT_DIM;
    let heads = 4;
    let dh = HIDDEN / heads;
    let mut sage_shapes = vec![(nodes, feat, HIDDEN), (nodes, feat, HIDDEN)];
    for _ in 1..LAYERS {
        sage_shapes.extend([(nodes, HIDDEN, HIDDEN), (nodes, HIDDEN, HIDDEN)]);
    }
    let mut xfmr_shapes = vec![(nodes, feat, HIDDEN)];
    for _ in 0..LAYERS {
        xfmr_shapes.extend([(nodes, HIDDEN, HIDDEN); 5]);
        for _ in 0..heads {
            xfmr_shapes.extend([(nodes, dh, nodes), (nodes, nodes, dh)]);
        }
    }
    for (name, shapes) in [("sage", &sage_shapes), ("xfmr", &xfmr_shapes)] {
        let flops: usize = shapes.iter().map(|(m, k, n)| 2 * m * k * n).sum();
        let bytes: usize = shapes
            .iter()
            .map(|(m, k, n)| 4 * (m * k + k * n + m * n))
            .sum();
        out.metric(&format!("nn.gemm_flops_per_pred.{name}"), flops as f64);
        out.metric(&format!("nn.gemm_bytes_per_pred.{name}"), bytes as f64);
        out.metric(
            &format!("nn.gemm_gflops.{name}"),
            gemm_gflops(shapes, flops, ledger),
        );
    }
    out.report.insert(
        "nn".into(),
        json!({ "kernel": nnlqp_nn::kernel().as_str(), "mean_nodes": nodes,
                "note": "gemm_flops_per_pred and gemm_bytes_per_pred are computed from tensor shapes, not measured" }),
    );
}

/// Time `shapes` back to back (median of repeats) on the dispatched
/// kernel; GFLOP/s.
fn gemm_gflops(shapes: &[(usize, usize, usize)], flops: usize, ledger: &mut Ledger) -> f64 {
    let mut rng = Rng64::new(11);
    let mut rand = |r: usize, c: usize| Matrix::from_fn(r, c, |_, _| rng.uniform() as f32 - 0.5);
    let ops: Vec<(Matrix, Matrix, Matrix)> = shapes
        .iter()
        .map(|&(m, k, n)| (rand(m, k), rand(k, n), Matrix::zeros(m, n)))
        .collect();
    let mut ops = ops;
    let mut pack = Vec::new();
    let mut times = Vec::new();
    for rep in 0..50 {
        let t0 = ledger.now_ns();
        for (a, b, c) in &mut ops {
            a.matmul_into(b, c, &mut pack);
            std::hint::black_box(&c);
        }
        let t1 = ledger.now_ns();
        if rep >= 5 {
            times.push((t1 - t0) as f64);
        }
    }
    flops as f64 / stats::median(&times)
}

/// Graphs for a NAS stream: distinct supernet subnets.
fn subnets(n: usize, rng: &mut Rng64, seen: &mut HashSet<u64>) -> Vec<Graph> {
    let net = Supernet::default();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let cfg = SubnetConfig::sample(rng);
        if seen.insert(cfg.id()) {
            out.push(
                net.subnet_graph(&cfg, &format!("subnet-{}", cfg.id()))
                    .expect("subnet builds"),
            );
        }
    }
    out
}

/// Generations of `per_gen` candidates over `pool`: each generation
/// takes fresh pool members in order for three quarters of its slots and
/// revisits earlier candidates for the rest.
fn generations(pool: &[Graph], per_gen: usize, rng: &mut Rng64) -> Vec<Vec<Graph>> {
    let fresh_per_gen = per_gen * 3 / 4;
    let mut next = 0;
    let mut out = Vec::new();
    while next + fresh_per_gen <= pool.len() {
        let mut gen: Vec<Graph> = pool[next..next + fresh_per_gen].to_vec();
        next += fresh_per_gen;
        while gen.len() < per_gen {
            gen.push(pool[rng.below(next)].clone());
        }
        out.push(gen);
    }
    out
}

// ---------------------------------------------------------------------
// predict-nas

/// Seed of the training and held-out corpora and of training itself:
/// fixed, so Acc(10%) compares the same predictor on the same data in
/// every run, whatever `--seed` picks for the scored stream.
const QUALITY_SEED: u64 = 0x51EED;

/// Candidate pool: fits the 2,048-entry embed cache.
const NAS_POOL: usize = 1536;
const NAS_PER_GEN: usize = 32;
const NAS_TRAIN: usize = 400;
const NAS_HOLDOUT: usize = 100;

fn nas_plan(seed: u64, seconds: f64) -> Plan<'static> {
    let mut fixed = Rng64::new(QUALITY_SEED);
    let mut seen = HashSet::new();
    let train = subnets(NAS_TRAIN, &mut fixed, &mut seen);
    let holdout = subnets(NAS_HOLDOUT, &mut fixed, &mut seen);
    let mut rng = Rng64::new(seed ^ 0x0A5);
    let pool = subnets(NAS_POOL, &mut rng, &mut seen);
    // Sized for a 2-core host: a GraphSAGE pass takes ~0.07 s, a
    // transformer pass ~0.7 s, a retrain ~2 s.
    let scale = seconds / 24.0;
    Plan {
        platforms: &NAS_PLATFORMS,
        train,
        holdout,
        generations: generations(&pool, NAS_PER_GEN, &mut rng),
        sage_passes: ((64.0 * scale).round() as usize).max(1),
        xfmr_passes: ((8.0 * scale).round() as usize).max(1),
        retrain_reps: 3,
    }
}

pub fn predict_nas(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (plan, fx) = crate::median_setup(&mut out, || {
        let plan = nas_plan(args.seed, args.seconds);
        let fx = fixture(&plan);
        (plan, fx)
    });
    let farm = fx.system.farm_measurements();
    let mut ledger = args.trace.then(Ledger::default);
    let stream = run(&mut out, &plan, &fx, ledger.as_mut());
    // Generations run back to back: each starts when the last ended.
    let mut at_ns = 0u64;
    let timed: Vec<(u64, Option<f64>)> = stream
        .gen_ms
        .iter()
        .map(|&(ms, ok)| {
            let start = at_ns;
            at_ns += (ms * 1e6) as u64;
            (start, ok.then_some(ms))
        })
        .collect();
    let lat: Vec<Option<f64>> = timed.iter().map(|t| t.1).collect();
    let s = Summary::of(&lat);
    // Medians over half-second windows, as on the serve workloads: a
    // host hiccup in one window does not decide the tail.
    let (p50, p99, windows) = stats::windowed(&timed, 500_000_000);
    out.metric("p50_ms", p50);
    out.metric("p99_ms", p99);
    out.metric("ok_pct", 100.0 * (s.n - s.failed) as f64 / s.n as f64);
    // A closed loop's capacity is the rate its one caller completes
    // generations (in the median pass).
    out.metric(
        "capacity_rps",
        plan.generations.len() as f64 / stats::median(&stream.pass_s),
    );
    out.report.insert(
        "generations".into(),
        json!({ "count": s.n, "beyond_p99": s.beyond_p99(), "windows": windows,
                "p50_ms": p50, "p99_ms": p99, "whole_stream_p50_ms": s.p50, "whole_stream_p99_ms": s.p99 }),
    );
    out.check(
        "no farm measurement while predicting",
        fx.system.farm_measurements() == farm,
    );
    out.metric(
        "sim.measurements_per_key",
        farm as f64 / (plan.train.len() * plan.platforms.len()) as f64,
    );
    if let Some(mut ledger) = ledger {
        let traced = Summary::of(stream.traced_gen_ms.as_deref().unwrap_or_default());
        out.metric(
            "harness.trace_overhead_pct",
            100.0 * (traced.p50 - s.p50) / s.p50,
        );
        // Closed loop: no schedule, no generator lateness; no serve layer.
        for (name, _) in crate::PER_LAYER {
            if name.starts_with("serve.")
                || name.starts_with("harness.timer_lag")
                || name.starts_with("harness.client_busy")
            {
                out.metric(name, 0.0);
            }
        }
        out.metric("db.compactions", 0.0);
        out.metric("db.compact_ms", 0.0);
        let graphs: Vec<Arc<Graph>> = plan
            .generations
            .iter()
            .flatten()
            .take(200)
            .cloned()
            .map(Arc::new)
            .collect();
        crate::serve::replay_layers(&mut out, &mut ledger, &graphs, &fx.system.db, args.seed);
        crate::serve::layer_medians(&mut out, &ledger, &Default::default());
        out.ledger = Some(ledger);
    }
    out
}

/// The NNLP phases over a serve workload's key families: a fixed corpus
/// of those families for training and held-out truth, and the
/// workload's own request sequence (repeats included) as the stream.
pub fn probe(out: &mut Outcome, stream: &[Graph], platforms: &[&str]) {
    let corpus: Vec<Graph> = (0..500)
        .map(|k| crate::serve::key_graph(QUALITY_SEED, k))
        .collect();
    let plan = Plan {
        platforms,
        train: corpus[..300].to_vec(),
        holdout: corpus[300..].to_vec(),
        generations: stream.chunks(NAS_PER_GEN).map(<[Graph]>::to_vec).collect(),
        sage_passes: 16,
        xfmr_passes: 5,
        retrain_reps: 3,
    };
    let fx = fixture(&plan);
    let mut ledger = out.ledger.take();
    run(out, &plan, &fx, ledger.as_mut());
    out.ledger = ledger;
}
