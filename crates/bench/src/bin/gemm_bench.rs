//! `gemm-bench` — micro-benchmark of the matrix kernels the inference
//! engine actually runs: portable scalar f32 and AVX2+FMA f32, timed at
//! the exact shapes the encoder backbones hit (node-feature projections,
//! SAGE layers, attention projections, head MLPs, and the per-head
//! attention products).
//!
//! Unlike `predict-bench` (end-to-end: features + backbone + heads), this
//! isolates the GEMMs so kernel-level speedups are visible even when the
//! pipeline is dominated by feature extraction.
//!
//! ```text
//! gemm-bench [--quick] [--out PATH]
//! ```
//!
//! Output JSON: one entry per shape with each backend's GFLOP/s and the
//! AVX2 speedup over scalar.

use nnlqp_ir::Rng64;
use nnlqp_nn::{simd_available, Activation, Kernel, Matrix};
use std::time::Instant;

/// What one timed iteration runs.
#[derive(Clone, Copy)]
enum Op {
    /// `A · B` plus the fused bias + ReLU epilogue: a linear layer.
    Linear,
    /// `A · B` alone: attention value mixing, `P · V_h`.
    MatMul,
    /// `A · Bᵀ` through `matmul_t`: attention scores, `Q_h · K_hᵀ`.
    MatMulT,
}

/// A GEMM shape `[m x k] * [k x n]` with a label tying it back to the
/// layer that runs it.
struct GemmShape {
    label: &'static str,
    m: usize,
    k: usize,
    n: usize,
    op: Op,
}

/// The shapes the deployed predictors actually execute: `m` is the node
/// count of a mid-sized corpus graph (or 1 for the pooled head), `k`/`n`
/// the layer widths of the benched configurations. The attention shapes
/// use 91 nodes and `d_h` = 12 (`d_model` 48 over 4 heads).
const SHAPES: [GemmShape; 7] = [
    GemmShape {
        label: "sage-layer (64 nodes, 32->32)",
        m: 64,
        k: 32,
        n: 32,
        op: Op::Linear,
    },
    GemmShape {
        label: "encoder-in (64 nodes, feat 29 -> 64)",
        m: 64,
        k: 29,
        n: 64,
        op: Op::Linear,
    },
    GemmShape {
        label: "attn-proj (64 nodes, 64->64)",
        m: 64,
        k: 64,
        n: 64,
        op: Op::Linear,
    },
    GemmShape {
        label: "wide-layer (128 nodes, 64->64)",
        m: 128,
        k: 64,
        n: 64,
        op: Op::Linear,
    },
    GemmShape {
        label: "head-mlp (1 row, 64->64)",
        m: 1,
        k: 64,
        n: 64,
        op: Op::Linear,
    },
    GemmShape {
        label: "attn-score (91 nodes, d_h 12, Q*K^T)",
        m: 91,
        k: 12,
        n: 91,
        op: Op::MatMulT,
    },
    GemmShape {
        label: "attn-mix (91 nodes, P*V 91->12)",
        m: 91,
        k: 91,
        n: 12,
        op: Op::MatMul,
    },
];

fn usage() -> ! {
    eprintln!("usage: gemm-bench [--quick] [--out PATH]");
    std::process::exit(2);
}

fn rand_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.uniform() as f32) * 2.0 - 1.0)
}

/// Median of per-iteration wall times, in seconds.
fn median_s(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Time `iters` runs of `f`, returning the median per-iteration seconds.
fn time_it(iters: usize, mut f: impl FnMut()) -> f64 {
    // One untimed warmup to fault in buffers and settle the clock.
    f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median_s(samples)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(v) => out = Some(v.into()),
                None => usage(),
            },
            _ => usage(),
        }
    }
    // Inner repeats amortize timer overhead on the microsecond shapes.
    let (iters, inner) = if quick { (30, 20) } else { (200, 50) };

    let mut rng = Rng64::new(0x6765_6d6d);
    let mut rows = Vec::new();
    eprintln!(
        "[gemm-bench] simd_available={} ({} timed iters x {} inner repeats)",
        simd_available(),
        iters,
        inner
    );
    for shape in &SHAPES {
        let (m, k, n) = (shape.m, shape.k, shape.n);
        let a = rand_matrix(m, k, &mut rng);
        // `matmul_t` takes B as `[n x k]`.
        let b = match shape.op {
            Op::MatMulT => rand_matrix(n, k, &mut rng),
            Op::Linear | Op::MatMul => rand_matrix(k, n, &mut rng),
        };
        let bias: Vec<f32> = (0..n).map(|_| (rng.uniform() as f32) - 0.5).collect();
        let flops = 2.0 * (m * k * n) as f64 * inner as f64;

        let mut out_m = Matrix::zeros(m, n);
        let mut pack = Vec::new();

        let mut time_f32 = |kern: Kernel| {
            time_it(iters, || {
                for _ in 0..inner {
                    match shape.op {
                        Op::Linear => {
                            a.matmul_into_with(kern, &b, &mut out_m, &mut pack);
                            out_m.bias_act_with(kern, &bias, Activation::Relu);
                        }
                        Op::MatMul => a.matmul_into_with(kern, &b, &mut out_m, &mut pack),
                        Op::MatMulT => a.matmul_t_into_with(kern, &b, &mut out_m, &mut pack),
                    }
                }
            })
        };
        let scalar_s = time_f32(Kernel::Scalar);
        let simd_s = if simd_available() {
            time_f32(Kernel::Avx2Fma)
        } else {
            scalar_s
        };

        let gflops = |s: f64| flops / s.max(1e-12) / 1e9;
        eprintln!(
            "[gemm-bench] {:<38} scalar {:6.2} GF/s  avx2 {:6.2} GF/s ({:4.2}x)",
            shape.label,
            gflops(scalar_s),
            gflops(simd_s),
            scalar_s / simd_s,
        );
        rows.push(serde_json::json!({
            "label": shape.label,
            "m": m, "k": k, "n": n,
            "scalar_gflops": gflops(scalar_s),
            "avx2_gflops": gflops(simd_s),
            "avx2_speedup": scalar_s / simd_s,
        }));
    }

    let report = serde_json::json!({
        "bench": "gemm",
        "quick": quick,
        "simd_available": simd_available(),
        "shapes": rows,
    });
    let text = serde_json::to_string_pretty(&report).expect("serialize");
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{text}\n")).expect("write report");
            eprintln!("[gemm-bench] wrote {}", path.display());
        }
        None => println!("{text}"),
    }
}
