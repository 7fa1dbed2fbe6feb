//! Parity suite for the batched/cached prediction fast path.
//!
//! The optimization contract of the inference engine is *bit-for-bit*
//! equality: splitting `forward` into `embed` + `head_eval`, fanning one
//! embedding across heads, and serving embeddings from the cache must all
//! be pure refactorings of the arithmetic. Every assertion here is
//! `assert_eq!` on `f64` — no tolerances.

use nnlqp::{
    Nnlqp, PredictorKind, QueryParams, TrainPredictorConfig, CACHED_PREDICT_COST_S, PREDICT_COST_S,
};
use nnlqp_ir::Graph;
use nnlqp_models::ModelFamily;
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};

const PLATFORMS: [&str; 2] = ["gpu-T4-trt7.1-fp32", "cpu-openppl-fp32"];

/// Build a system and measure a tiny SqueezeNet corpus on both platforms.
fn measured_system(embed_cache_capacity: usize) -> Nnlqp {
    let s = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(3)
        .embed_cache(embed_cache_capacity)
        .build();
    let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8, 3)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    for name in PLATFORMS {
        s.warm_cache(&models, &Platform::by_name(name).unwrap(), 1)
            .unwrap();
    }
    s
}

/// A small two-head predictor config; `None` trains the default arch.
fn config(arch: Option<PredictorKind>) -> TrainPredictorConfig {
    TrainPredictorConfig {
        epochs: 30,
        hidden: 16,
        gnn_layers: 2,
        arch,
        ..Default::default()
    }
}

/// [`measured_system`] plus a small predictor trained over its corpus.
fn trained_system(embed_cache_capacity: usize) -> Nnlqp {
    let s = measured_system(embed_cache_capacity);
    s.train_predictor(&PLATFORMS, config(None)).unwrap();
    s
}

/// Fresh graphs the trained corpus has never seen.
fn probes(n: usize) -> Vec<Graph> {
    nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8 + n, 91)
        .into_iter()
        .rev()
        .take(n)
        .map(|m| m.graph)
        .collect()
}

#[test]
fn batch_matches_per_sample_predict_bitwise() {
    // Cache off, so both paths run the backbone. More misses than cores,
    // so the batch's backbone pass runs on every thread and workers finish
    // out of input order.
    let s = measured_system(0);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let graphs = probes(4 * threads + 3);
    for arch in [PredictorKind::Sage, PredictorKind::Transformer] {
        s.train_predictor(&PLATFORMS, config(Some(arch))).unwrap();
        let batch = s.predict_batch(&graphs, &PLATFORMS).unwrap();
        assert_eq!(batch.embed_misses, graphs.len() as u64);
        assert_eq!(batch.latencies_ms.len(), graphs.len());
        for (g, row) in graphs.iter().zip(&batch.latencies_ms) {
            assert_eq!(row.len(), PLATFORMS.len());
            for (name, &want) in PLATFORMS.iter().zip(row) {
                let p = QueryParams::by_name(g.clone(), 1, name).unwrap();
                let got = s.predict(&p).unwrap();
                assert_eq!(
                    got.latency_ms, want,
                    "{arch}: batch != per-sample on {name}"
                );
                assert_eq!(got.cost_s, PREDICT_COST_S);
            }
        }
    }
}

#[test]
fn same_seed_training_is_byte_identical() {
    // Per-sample gradients are computed on every thread and must still be
    // summed in batch order: two same-seed trainings give one checkpoint.
    let s = measured_system(0);
    for arch in [PredictorKind::Sage, PredictorKind::Transformer] {
        let train = || {
            s.train_predictor_handle(&PLATFORMS, config(Some(arch)))
                .unwrap()
                .expect("the db holds samples")
        };
        let ((a, n), (b, _)) = (train(), train());
        assert_eq!(n, 16, "{arch}: every measured sample trains");
        assert_eq!(a.model.kind(), arch);
        assert!(
            a.model.to_json() == b.model.to_json(),
            "{arch}: two same-seed trainings diverged"
        );
    }
}

#[test]
fn cached_and_uncached_predictions_are_identical() {
    // Two systems, one trained handle: `cold` never caches, `warm` does.
    let cold = trained_system(0);
    let warm = trained_system(2048);
    let handle = cold.predictor_handle().unwrap();
    warm.set_predictor(handle);
    for g in probes(3) {
        for (i, name) in PLATFORMS.iter().enumerate() {
            let p = QueryParams::by_name(g.clone(), 1, name).unwrap();
            let uncached = cold.predict(&p).unwrap();
            assert!(uncached.latency_ms > 1e-6, "degenerate prediction");
            let first = warm.predict(&p).unwrap();
            let second = warm.predict(&p).unwrap(); // always a hit
            assert_eq!(first.latency_ms, uncached.latency_ms);
            assert_eq!(second.latency_ms, uncached.latency_ms);
            assert_eq!(uncached.cost_s, PREDICT_COST_S, "cache-off never hits");
            // The embedding is platform-independent: only the first
            // platform of each graph pays the backbone on `warm`.
            let expect = if i == 0 {
                PREDICT_COST_S
            } else {
                CACHED_PREDICT_COST_S
            };
            assert_eq!(first.cost_s, expect);
            assert_eq!(second.cost_s, CACHED_PREDICT_COST_S);
        }
    }
}

#[test]
fn retrain_hot_swap_invalidates_the_embed_cache() {
    let s = trained_system(2048);
    let g = probes(1).pop().unwrap();
    let p = QueryParams::by_name(g, 1, PLATFORMS[0]).unwrap();
    let before = s.predict(&p).unwrap();
    assert!(before.latency_ms > 1e-6, "degenerate prediction");
    assert_eq!(s.predict(&p).unwrap().cost_s, CACHED_PREDICT_COST_S);
    let v_before = s.predictor_version();

    // Retrain with a different seed: new weights, new generation.
    s.train_predictor(
        &PLATFORMS,
        TrainPredictorConfig {
            seed: 1234,
            ..config(None)
        },
    )
    .unwrap();
    // Train draws one generation stamp and the install re-stamp another;
    // what matters for cache safety is that the generation advanced.
    assert!(s.predictor_version() > v_before);

    // The first post-swap prediction must pay the full backbone cost
    // (no stale embedding served) …
    let after = s.predict(&p).unwrap();
    assert_eq!(after.cost_s, PREDICT_COST_S, "stale embedding served");
    // … and must equal a from-scratch prediction of the new model.
    let reference = trained_system(0);
    let handle = s.predictor_handle().unwrap();
    reference.set_predictor(handle);
    assert_eq!(reference.predict(&p).unwrap().latency_ms, after.latency_ms);
    // Different weights ⇒ (almost surely) a different value than before.
    assert_ne!(after.latency_ms, before.latency_ms);
}
