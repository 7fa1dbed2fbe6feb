//! Parity suite for the SIMD GEMM kernels: scalar vs AVX2, the same f32
//! arithmetic with a different instruction schedule.
//!
//! * FMA fuses the multiply-add, so the GEMM products agree to a
//!   *relative tolerance* (≤ 1e-5), kernel by kernel and through the full
//!   predict pipeline.
//! * Elementwise epilogues (bias + activation) cannot re-associate, so
//!   they agree **bitwise**.
//! * Within the AVX2 backend, the packed `A·Bᵀ` and narrow-GEMM kernels
//!   equal the row-at-a-time kernels **bitwise**.

use nnlqp::{Nnlqp, QueryParams, TrainPredictorConfig};
use nnlqp_ir::{Graph, Rng64};
use nnlqp_models::ModelFamily;
use nnlqp_nn::{simd_available, Activation, Kernel, Matrix};
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
