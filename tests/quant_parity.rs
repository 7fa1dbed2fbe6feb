//! Parity suite for the SIMD GEMM kernels and the int8 quantized
//! inference path.
//!
//! Two distinct contracts are pinned here:
//!
//! * **Scalar vs AVX2** — the same f32 arithmetic with a different
//!   instruction schedule. FMA fuses the multiply-add, so cross-backend
//!   comparisons are a *relative tolerance* affair (≤ 1e-5), while the
//!   int8 dot products accumulate in integers and must agree **exactly**.
//! * **f32 vs int8** — weight-only dynamic quantization is lossy by
//!   design; the contract is a bounded accuracy delta (the same Acc(10%)
//!   gate the serve layer enforces at publish time), not bit equality.

use nnlqp::{Nnlqp, QueryParams, TrainPredictorConfig};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::ModelFamily;
use nnlqp_nn::{simd_available, Activation, Kernel, Matrix, QuantLinear, QuantRow};
use nnlqp_obs::acc_at;
use nnlqp_sim::{DeviceFarm, Platform, PlatformSpec};
use proptest::prelude::*;

const PLATFORMS: [&str; 2] = ["gpu-T4-trt7.1-fp32", "cpu-openppl-fp32"];

fn rand_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.uniform() as f32) * 2.0 - 1.0)
}

/// Largest relative elementwise deviation between two same-shape matrices.
fn rel_dev(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!((a.rows, a.cols), (b.rows, b.cols));
    let mut worst = 0.0f32;
    for i in 0..a.rows {
        for (x, y) in a.row(i).iter().zip(b.row(i)) {
            let dev = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
            worst = worst.max(dev);
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All three GEMM entry points agree between backends to ≤ 1e-5
    /// relative over random *ragged* shapes (nothing aligned to the
    /// 8-lane vector width).
    #[test]
    fn gemm_backends_agree_on_ragged_shapes(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in any::<u64>(),
    ) {
        if !simd_available() { return Ok(()); }
        let mut rng = Rng64::new(seed);
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        let bt = rand_matrix(n, k, &mut rng);
        let at = rand_matrix(k, m, &mut rng);

        let mut s = Matrix::zeros(m, n);
        let mut v = Matrix::zeros(m, n);
        let mut pack = Vec::new();
        a.matmul_into_with(Kernel::Scalar, &b, &mut s, &mut pack);
        a.matmul_into_with(Kernel::Avx2Fma, &b, &mut v, &mut pack);
        prop_assert!(rel_dev(&s, &v) <= 1e-5, "matmul dev {}", rel_dev(&s, &v));

        let mut st = Matrix::zeros(m, n);
        let mut vt = Matrix::zeros(m, n);
        a.matmul_t_into_with(Kernel::Scalar, &bt, &mut st, &mut pack);
        a.matmul_t_into_with(Kernel::Avx2Fma, &bt, &mut vt, &mut pack);
        prop_assert!(rel_dev(&st, &vt) <= 1e-5, "matmul_t dev {}", rel_dev(&st, &vt));

        let ts = at.t_matmul_with(Kernel::Scalar, &b);
        let tv = at.t_matmul_with(Kernel::Avx2Fma, &b);
        prop_assert!(rel_dev(&ts, &tv) <= 1e-5, "t_matmul dev {}", rel_dev(&ts, &tv));
    }

    /// The bias + activation epilogue is elementwise (no FMA re-association
    /// possible): backends must agree bitwise.
    #[test]
    fn bias_act_epilogue_is_bitwise_across_backends(
        m in 1usize..16, n in 1usize..40, seed in any::<u64>(), relu in any::<bool>(),
    ) {
        if !simd_available() { return Ok(()); }
        let mut rng = Rng64::new(seed);
        let base = rand_matrix(m, n, &mut rng);
        let bias: Vec<f32> = (0..n).map(|_| (rng.uniform() as f32) - 0.5).collect();
        let act = if relu { Activation::Relu } else { Activation::Identity };
        let mut s = base.clone();
        let mut v = base;
        s.bias_act_with(Kernel::Scalar, &bias, act);
        v.bias_act_with(Kernel::Avx2Fma, &bias, act);
        for i in 0..m {
            prop_assert_eq!(s.row(i), v.row(i));
        }
    }

    /// int8 GEMM accumulates in integers: the AVX2 and scalar paths of
    /// `QuantLinear` must produce bit-identical f32 outputs.
    #[test]
    fn int8_gemm_is_exact_across_backends(
        rows in 1usize..8, in_dim in 1usize..48, out_dim in 1usize..24, seed in any::<u64>(),
    ) {
        if !simd_available() { return Ok(()); }
        let mut rng = Rng64::new(seed);
        let w = rand_matrix(in_dim, out_dim, &mut rng);
        let bias: Vec<f32> = (0..out_dim).map(|_| (rng.uniform() as f32) - 0.5).collect();
        let ql = QuantLinear::quantize(&w, &bias);
        let x = rand_matrix(rows, in_dim, &mut rng);
        let mut qrow = QuantRow::new();
        let mut s = Matrix::zeros(rows, out_dim);
        let mut v = Matrix::zeros(rows, out_dim);
        ql.forward_quant_with(Kernel::Scalar, &x, &mut s, Activation::Identity, &mut qrow);
        ql.forward_quant_with(Kernel::Avx2Fma, &x, &mut v, Activation::Identity, &mut qrow);
        for i in 0..rows {
            prop_assert_eq!(s.row(i), v.row(i));
        }
    }
}

/// Bit patterns of a row (`-0.0` and `+0.0` differ here, unlike `==`).
fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On the AVX2 backend, products that take the packed `A·B^T` path
    /// (8 <= k < 16, m >= 4) or the narrow-GEMM path (n < 32, m >= 4)
    /// equal the same product computed one row at a time — m = 1 stays on
    /// the row kernels — bit for bit. 512 cases over m, k, n in 1..40
    /// reach every n % 8 and n % 16 tail.
    #[test]
    fn avx2_packed_and_narrow_gemm_match_row_at_a_time_bitwise(
        m in 1usize..12, k in 1usize..40, n in 1usize..40, seed in any::<u64>(),
    ) {
        if !simd_available() { return Ok(()); }
        let kern = Kernel::Avx2Fma;
        let mut rng = Rng64::new(seed);
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        let bt = rand_matrix(n, k, &mut rng);
        let mut pack = Vec::new();
        let mut full = Matrix::zeros(m, n);
        let mut full_t = Matrix::zeros(m, n);
        a.matmul_into_with(kern, &b, &mut full, &mut pack);
        a.matmul_t_into_with(kern, &bt, &mut full_t, &mut pack);
        let mut one = Matrix::zeros(1, n);
        for i in 0..m {
            let row = Matrix::from_rows(1, k, a.row(i).to_vec());
            row.matmul_into_with(kern, &b, &mut one, &mut pack);
            prop_assert_eq!(bits(full.row(i)), bits(one.row(0)), "matmul {}x{}x{} row {}", m, k, n, i);
            row.matmul_t_into_with(kern, &bt, &mut one, &mut pack);
            prop_assert_eq!(bits(full_t.row(i)), bits(one.row(0)), "matmul_t {}x{}x{} row {}", m, k, n, i);
        }
    }
}

/// Build a system, measure a tiny SqueezeNet corpus on both platforms and
/// train a small two-head predictor over it.
fn trained_system() -> Nnlqp {
    let s = Nnlqp::builder()
        .farm(DeviceFarm::new(&PlatformSpec::table2_platforms(), 1))
        .reps(3)
        .build();
    let models: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8, 3)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    for name in PLATFORMS {
        s.warm_cache(&models, &Platform::by_name(name).unwrap(), 1)
            .unwrap();
    }
    s.train_predictor(
        &PLATFORMS,
        TrainPredictorConfig {
            epochs: 30,
            hidden: 16,
            gnn_layers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    s
}

fn probes(n: usize) -> Vec<Graph> {
    nnlqp_models::generate_family(ModelFamily::SqueezeNet, 8 + n, 91)
        .into_iter()
        .rev()
        .take(n)
        .map(|m| m.graph)
        .collect()
}

/// End-to-end dual-mode parity: the full predict pipeline (features →
/// backbone → head) run with the SIMD backend pinned off, then on, agrees
/// to ≤ 1e-5 relative. This is the only test in the workspace that toggles
/// the process-global backend.
#[test]
fn full_pipeline_predictions_match_across_backends() {
    if !simd_available() {
        return;
    }
    let s = trained_system();
    let graphs = probes(4);
    let mut pairs = Vec::new();
    for g in &graphs {
        for name in PLATFORMS {
            let p = QueryParams::by_name(g.clone(), 1, name).unwrap();
            nnlqp_nn::set_simd_enabled(false);
            let scalar = s.predict(&p).unwrap().latency_ms;
            nnlqp_nn::set_simd_enabled(true);
            let simd = s.predict(&p).unwrap().latency_ms;
            pairs.push((scalar, simd));
        }
    }
    nnlqp_nn::set_simd_enabled(true);
    for (scalar, simd) in pairs {
        let dev = (scalar - simd).abs() / scalar.abs().max(simd.abs()).max(1.0);
        assert!(dev <= 1e-5, "scalar {scalar} vs simd {simd} (dev {dev})");
    }
}

/// Quantizing a trained champion costs little accuracy: on fresh probe
/// graphs the int8 predictions stay within 10% of the f32 predictions
/// (Acc(10%) of quant-vs-f32 = 100), and against *measured* latencies the
/// Acc(10%) drop is far inside the serve gate's default tolerance.
#[test]
fn quantized_predictor_accuracy_delta_is_bounded() {
    let s = trained_system();
    let f32_handle = s.predictor_handle().unwrap();
    let q_handle = f32_handle.quantized().unwrap();
    assert_eq!(
        q_handle.model.identity(),
        nnlqp::QUANT_IDENTITY_OFFSET + f32_handle.model.kind().id()
    );

    let graphs = probes(6);
    for name in PLATFORMS {
        let platform = Platform::by_name(name).unwrap();
        let mut f32_preds = Vec::new();
        let mut q_preds = Vec::new();
        let mut measured = Vec::new();
        for g in &graphs {
            let fp = s.predict_effective_with(&f32_handle, g, name).unwrap();
            let qp = s.predict_effective_with(&q_handle, g, name).unwrap();
            f32_preds.push(fp.latency_ms);
            q_preds.push(qp.latency_ms);
            measured.push(
                s.query(&QueryParams::new(g.clone(), 1, platform.clone()))
                    .unwrap()
                    .latency_ms,
            );
        }
        // int8 tracks f32 tightly…
        assert_eq!(acc_at(&q_preds, &f32_preds, 0.10), 100.0, "{name}");
        // …so against ground truth the Acc(10%) delta stays small.
        let drop = acc_at(&f32_preds, &measured, 0.10) - acc_at(&q_preds, &measured, 0.10);
        assert!(drop.abs() <= 20.0, "{name}: Acc(10%) drop {drop}");
    }
}

/// A quantized handle round-trips through the checkpoint JSON bitwise:
/// quantization is deterministic, so reloading re-derives the identical
/// int8 tables.
#[test]
fn quantized_handle_roundtrips_through_json() {
    let s = trained_system();
    let q = s.predictor_handle().unwrap().quantized().unwrap();
    let back = nnlqp::predictor_from_json(&q.model.to_json()).unwrap();
    assert_eq!(back.identity(), q.model.identity());
    let g = probes(1).pop().unwrap();
    let p = s.predict_effective_with(&q, &g, PLATFORMS[0]).unwrap();
    s.set_predictor(q);
    let installed = s
        .predict(&QueryParams::by_name(g, 1, PLATFORMS[0]).unwrap())
        .unwrap();
    assert_eq!(p.latency_ms, installed.latency_ms);
}
