//! Integration: online shadow-evaluation quality vs. the offline
//! evaluator, and drift-triggered retraining through the serving stack.
//!
//! Two acceptance criteria from the quality-monitoring subsystem:
//!
//! 1. The online rolling window must report MAPE / Acc(δ) **bitwise**
//!    equal to the offline evaluator (`nnlqp-predict`'s re-exported
//!    formulas) over the same `(predicted, measured)` pairs — one shared
//!    implementation, not two drifting copies.
//! 2. A degraded predictor must raise a drift alert through the shadow
//!    evaluator, the alert must fire a retrain (with the cadence trigger
//!    disabled), and the retrain must restore the windowed MAPE below the
//!    drift threshold.

use nnlqp::{MonitorConfig, Nnlqp, Platform, QualityMonitor, TrainPredictorConfig};
use nnlqp_ir::Graph;
use nnlqp_models::ModelFamily;
use nnlqp_obs::FieldValue;
use nnlqp_predict::metrics::{acc_at, mape};
use nnlqp_serve::{LatencyService, ServeConfig};
use nnlqp_sim::{DeviceFarm, PlatformSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PLATFORM: &str = "gpu-T4-trt7.1-fp32";

fn farm_system(reps: usize) -> Arc<Nnlqp> {
    Arc::new(
        Nnlqp::builder()
            .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 2))
            .reps(reps)
            .build(),
    )
}

/// Measure `n` models and predict them with a freshly trained head,
/// returning real `(predicted, measured)` pairs.
fn real_pairs(system: &Nnlqp, models: &[Graph]) -> Vec<(f64, f64)> {
    system
        .warm_cache(models, &Platform::by_name(PLATFORM).unwrap(), 1)
        .unwrap();
    system
        .train_predictor(
            &[PLATFORM],
            TrainPredictorConfig {
                epochs: 4,
                hidden: 16,
                gnn_layers: 2,
                ..Default::default()
            },
        )
        .unwrap();
    models
        .iter()
        .map(|g| {
            let predicted = system.predict_effective(g, PLATFORM).unwrap().latency_ms;
            let measured = system
                .query(&nnlqp::QueryParams::by_name(g.clone(), 1, PLATFORM).unwrap())
                .unwrap()
                .latency_ms;
            (predicted, measured)
        })
        .collect()
}

#[test]
fn online_window_matches_offline_evaluator_bitwise() {
    let system = farm_system(3);
    let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8, 5)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    let pairs = real_pairs(&system, &models);

    // Online: the monitor ingests the pairs one by one.
    let monitor = QualityMonitor::new(
        MonitorConfig {
            window: pairs.len(),
            ..Default::default()
        },
        Arc::clone(system.registry()),
    );
    for &(p, t) in &pairs {
        monitor.record(PLATFORM, p, t);
    }
    let online = monitor.report();
    let q = &online.platforms[PLATFORM];

    // Offline: the predict crate's evaluator over the same slices.
    let (preds, truths): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    assert_eq!(
        q.windowed_mape_pct.to_bits(),
        mape(&preds, &truths).to_bits(),
        "online MAPE must be bitwise-equal to the offline evaluator"
    );
    assert_eq!(
        q.acc10_pct.to_bits(),
        acc_at(&preds, &truths, 0.10).to_bits(),
        "online Acc(10%) must be bitwise-equal to the offline evaluator"
    );
    assert_eq!(
        q.acc5_pct.to_bits(),
        acc_at(&preds, &truths, 0.05).to_bits(),
        "online Acc(5%) must be bitwise-equal to the offline evaluator"
    );
}

#[test]
fn degraded_predictor_drift_alert_retrains_and_recovers() {
    let system = farm_system(3);
    let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 10, 3)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    system
        .warm_cache(&models, &Platform::by_name(PLATFORM).unwrap(), 1)
        .unwrap();
    // Inject a degraded predictor: zero training epochs leaves randomly
    // initialised heads whose predictions are garbage.
    system
        .train_predictor(
            &[PLATFORM],
            TrainPredictorConfig {
                epochs: 0,
                ..Default::default()
            },
        )
        .unwrap();

    let threshold_pct = 50.0;
    let cfg = ServeConfig {
        workers: 2,
        queue_depth: 8,
        cache_capacity: 64,
        degrade_backlog: usize::MAX,
        monitor: Some(MonitorConfig {
            sample_every: 1,
            min_samples: 4,
            mape_threshold_pct: threshold_pct,
            ..Default::default()
        }),
        retrain_after: 0, // cadence off: drift is the only trigger
        retrain_platforms: vec![PLATFORM.to_string()],
        train: TrainPredictorConfig {
            epochs: 40,
            hidden: 32,
            gnn_layers: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let svc = LatencyService::start(Arc::clone(&system), cfg);
    // Serving the warmed models produces measurement-backed db answers;
    // each is shadow-evaluated against the degraded predictor.
    for g in &models {
        svc.query(&Arc::new(g.clone()), PLATFORM, 1).unwrap();
    }

    // The drift alert must fire and trigger a retrain.
    let deadline = Instant::now() + Duration::from_secs(60);
    let events = loop {
        let events = svc.events().expect("event log on").snapshot();
        if events.iter().any(|e| e.kind == "retrain_finish") {
            break events;
        }
        assert!(
            Instant::now() < deadline,
            "drift never triggered a retrain: {:?}",
            svc.metrics()
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let alert = events
        .iter()
        .find(|e| e.kind == "drift_alert")
        .expect("drift alert recorded");
    match alert.field("windowed_mape_pct") {
        Some(FieldValue::F64(m)) => assert!(
            *m > threshold_pct,
            "alert fired below threshold: {m} <= {threshold_pct}"
        ),
        other => panic!("drift_alert lacks windowed_mape_pct: {other:?}"),
    }
    assert!(svc.metrics().retrains >= 1);

    // Recovery: the retrain re-scores the replay buffer under the new
    // model; windowed MAPE must fall back below the drift threshold.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let report = svc.quality().expect("monitor on");
        let q = report.platforms.get(PLATFORM);
        if q.is_some_and(|q| !q.drifting && q.windowed_mape_pct <= threshold_pct) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "windowed MAPE never recovered: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    svc.shutdown().unwrap();
}
