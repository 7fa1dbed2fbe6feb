//! Integration: golden bit patterns of both encoders.
//!
//! Kernel work (new GEMM paths, different blocking, routing by shape) is
//! only a refactoring if it leaves every output bit where it was. This
//! test trains a GraphSAGE and a transformer predictor on a fixed
//! measured corpus — `hidden` 48 over 4 attention heads, so each head is
//! `d_h` = 12 wide, the shape the attention kernels specialise for —
//! then pins the raw bit patterns of every probe graph's pooled
//! embedding (f32) and per-platform prediction (f64) against
//! `tests/golden/encoder_bits.json`.
//!
//! Training runs through the same kernels, so a changed gradient bit
//! shows up as changed weights and therefore changed outputs. Results
//! differ between kernel backends by design (the AVX2 GEMMs fuse
//! multiply-adds), so the golden holds one entry per backend, keyed by
//! `nnlqp_nn::kernel().as_str()`.
//!
//! Record the active backend's entry (other entries are kept) with
//! `NNLQP_BLESS=1 cargo test --test encoder_golden`; run it again under
//! `NNLQP_SIMD=off` for the scalar entry. A kernel change must pass
//! without re-blessing.

use nnlqp::{Nnlqp, PredictorKind, TrainPredictorConfig};
use nnlqp_ir::Graph;
use nnlqp_models::ModelFamily;
use nnlqp_predict::extract_features;
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

const GOLDEN: &str = "tests/golden/encoder_bits.json";
const PLATFORMS: [&str; 2] = ["gpu-T4-trt7.1-fp32", "cpu-openppl-fp32"];

/// A system holding measurements of a small SqueezeNet corpus.
fn measured_system() -> Nnlqp {
    let s = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(3)
        .embed_cache(0)
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

/// Probe graphs of several families (node counts with different
/// remainders modulo the vector widths), none of them in the corpus.
fn probes() -> Vec<Graph> {
    let mut out: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 3, 91)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    for fam in [
        ModelFamily::ResNet,
        ModelFamily::MobileNetV2,
        ModelFamily::GoogleNet,
    ] {
        out.push(fam.canonical().unwrap());
    }
    out
}

/// Space-separated hex words: one string per vector keeps the file
/// diffable line by line.
fn hex_words<T: std::fmt::LowerHex>(xs: impl IntoIterator<Item = T>, width: usize) -> Value {
    let words: Vec<String> = xs.into_iter().map(|x| format!("{x:0width$x}")).collect();
    Value::String(words.join(" "))
}

/// The pinned bit patterns for one architecture on the active backend.
fn encoder_bits(s: &Nnlqp, arch: PredictorKind, probes: &[Graph]) -> Value {
    let cfg = TrainPredictorConfig {
        epochs: 3,
        hidden: 48,
        gnn_layers: 2,
        arch: Some(arch),
        ..Default::default()
    };
    let (handle, _) = s
        .train_predictor_handle(&PLATFORMS, cfg)
        .unwrap()
        .expect("the db holds samples");
    let heads: Vec<usize> = PLATFORMS.iter().map(|p| handle.head_of[*p]).collect();
    let mut embeddings = Vec::new();
    let mut predictions = Vec::new();
    for g in probes {
        let emb = handle.model.embed(&extract_features(g));
        embeddings.push(hex_words(emb.iter().map(|v| v.to_bits()), 8));
        let preds = heads.iter().map(|&h| handle.model.head_eval(&emb, h));
        predictions.push(hex_words(preds.map(f64::to_bits), 16));
    }
    serde_json::json!({
        "embeddings_f32": embeddings,
        "predictions_f64": predictions,
    })
}

#[test]
fn encoder_outputs_match_golden_bits() {
    let s = measured_system();
    let probes = probes();
    let got = serde_json::json!({
        "sage": encoder_bits(&s, PredictorKind::Sage, &probes),
        "transformer": encoder_bits(&s, PredictorKind::Transformer, &probes),
    });
    let backend = nnlqp_nn::kernel().as_str();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let stored: BTreeMap<String, Value> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(&t).ok())
        .and_then(|v| v.get("backends").and_then(Value::as_object).cloned())
        .unwrap_or_default();
    if std::env::var_os("NNLQP_BLESS").is_some() {
        let mut backends = stored;
        backends.insert(backend.to_string(), got);
        let doc = serde_json::json!({ "schema_version": 1, "backends": Value::Object(backends) });
        let text = serde_json::to_string_pretty(&doc).unwrap();
        std::fs::write(&path, format!("{text}\n")).unwrap();
        return;
    }
    let want = stored.get(backend).unwrap_or_else(|| {
        panic!("{GOLDEN} has no `{backend}` entry; bless it with NNLQP_BLESS=1")
    });
    for arch in ["sage", "transformer"] {
        for field in ["embeddings_f32", "predictions_f64"] {
            let (g, w) = (&got[arch][field], &want[arch][field]);
            let (g, w) = (g.as_array().unwrap(), w.as_array().unwrap());
            assert_eq!(g.len(), w.len(), "{backend}/{arch}/{field}: probe count");
            for (i, (g, w)) in g.iter().zip(w).enumerate() {
                assert_eq!(g, w, "{backend}/{arch}/{field}: probe {i} changed bits");
            }
        }
    }
}
