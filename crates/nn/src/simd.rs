//! Runtime-dispatched SIMD micro-kernels for the f32 matrix hot paths.
//!
//! Two backends compile into every build:
//!
//! * [`Kernel::Scalar`] — the original scalar loops, kept verbatim as the
//!   always-available reference implementation (bit-identical to every
//!   release before the SIMD work landed);
//! * [`Kernel::Avx2Fma`] — hand-rolled 8-lane `std::arch` AVX2/FMA
//!   kernels, selected at runtime behind `is_x86_feature_detected!` so
//!   the binary still runs (and non-x86 targets still build) without the
//!   features.
//!
//! Dispatch happens once per process (cached in an atomic) from the
//! `NNLQP_SIMD` environment variable (`off`/`0`/`scalar`/`false`/`no`
//! forces the scalar backend; anything else auto-detects) and can be
//! overridden programmatically with [`set_simd_enabled`] — the facade
//! builder's `simd(bool)` knob and the bench `--no-simd` flag call that.
//!
//! # Numerical contract
//!
//! Element-wise sweeps (bias+activation, add, scale, scale-then-add,
//! ReLU, row max, integer dot products) are **bit-identical** across
//! backends: vector lanes perform exactly the operations the scalar loop
//! performs, ReLU masks with a `v < 0.0` compare (preserving `-0.0`, like
//! the scalar test), and integer math has no rounding at all. The GEMM
//! kernels keep ascending-`k` accumulation order per output element
//! *within* a backend — so the packed and unpacked paths of one backend
//! agree bitwise — but the AVX2 backend fuses each
//! multiply-add (one rounding instead of two; scalar tails use
//! `f32::mul_add` so every element sees the same fusion), which makes
//! scalar-vs-SIMD GEMM comparisons a relative-tolerance affair
//! (≤ ~1e-5).
//!
//! Within the AVX2 backend, *which* kernel computes an element never
//! changes its bits. `A @ B` elements are one ascending-`k` FMA chain
//! from +0 whether they come from the row kernels, the packed panels or
//! the narrow kernel (`gemm_narrow`: four rows x 16 columns, eight
//! independent chains). `A @ B^T` elements are one `avx2::dot` — two
//! 8-lane FMA accumulators, their sum, the fixed `hsum` tree, then a
//! scalar-FMA tail — whether computed per element or by the packed
//! kernel (`matmul_t_packed`), which replays that exact op sequence
//! vertically, eight columns per step, instead of one horizontal sum
//! per output. The parity suite in `tests/` pins all of this: backends
//! within tolerance, paths within a backend bit for bit.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which micro-kernel backend a matrix operation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar reference loops (the pre-SIMD implementation).
    Scalar,
    /// 8-lane AVX2 + FMA kernels (x86-64 with runtime feature detection).
    Avx2Fma,
}

impl Kernel {
    /// Short name for logs and bench output.
    pub fn as_str(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2Fma => "avx2+fma",
        }
    }
}

const UNRESOLVED: u8 = 0;
const FORCE_SCALAR: u8 = 1;
const USE_AVX2: u8 = 2;

/// Process-wide resolved backend; `UNRESOLVED` until first use.
static KERNEL: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// Whether this CPU (and target) can run the AVX2/FMA backend at all.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn env_enabled() -> bool {
    match std::env::var("NNLQP_SIMD") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "scalar" | "false" | "no"
        ),
        Err(_) => true,
    }
}

/// The active backend for dispatched entry points (`Matrix::matmul` and
/// friends). Resolved once from `NNLQP_SIMD` + CPU detection, then cached.
pub fn kernel() -> Kernel {
    match KERNEL.load(Ordering::Relaxed) {
        FORCE_SCALAR => Kernel::Scalar,
        USE_AVX2 => Kernel::Avx2Fma,
        _ => {
            let k = if env_enabled() && simd_available() {
                USE_AVX2
            } else {
                FORCE_SCALAR
            };
            KERNEL.store(k, Ordering::Relaxed);
            if k == USE_AVX2 {
                Kernel::Avx2Fma
            } else {
                Kernel::Scalar
            }
        }
    }
}

/// Force the backend: `false` pins the scalar reference kernels, `true`
/// re-enables SIMD when the CPU supports it (no-op to `Scalar` otherwise).
/// Overrides whatever `NNLQP_SIMD` said.
pub fn set_simd_enabled(enabled: bool) {
    let k = if enabled && simd_available() {
        USE_AVX2
    } else {
        FORCE_SCALAR
    };
    KERNEL.store(k, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Dispatched slice kernels. Each scalar arm is the exact loop the matrix
// code ran before SIMD; each AVX2 arm is proven (tests + the parity suite)
// to match it bitwise unless noted.
// ---------------------------------------------------------------------------

/// Call an `avx2::` kernel on x86-64; unreachable elsewhere (the
/// [`Kernel::Avx2Fma`] variant is never produced when `simd_available()`
/// is false, and it is false off x86-64).
macro_rules! avx2_call {
    ($f:ident ( $($arg:expr),* )) => {{
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Kernel::Avx2Fma is only ever constructed after
        // `is_x86_feature_detected!("avx2")` && `("fma")` both passed.
        let out = unsafe { avx2::$f($($arg),*) };
        #[cfg(not(target_arch = "x86_64"))]
        let out = unreachable!("AVX2 kernel selected on non-x86_64");
        out
    }};
}

/// One GEMM output row over a row-major `width`-wide B block:
/// `out[j] += sum_k a_row[k] * b[k * width + j]`, k ascending per element.
/// Serves both the unpacked kernel (`b` = full B, `width` = n) and the
/// packed panel kernel (`b` = one panel, `width` = panel width).
#[inline]
pub(crate) fn gemm_row(kern: Kernel, a_row: &[f32], b: &[f32], out: &mut [f32]) {
    let w = out.len();
    debug_assert_eq!(b.len(), a_row.len() * w);
    match kern {
        Kernel::Scalar => {
            for (kk, &a) in a_row.iter().enumerate() {
                let b_row = &b[kk * w..(kk + 1) * w];
                for (o, &bv) in out.iter_mut().zip(b_row) {
                    *o += a * bv;
                }
            }
        }
        Kernel::Avx2Fma => avx2_call!(gemm_row(a_row, b, out)),
    }
}

/// Two GEMM output rows sharing one sweep over B: each loaded B vector
/// feeds both rows' accumulators, halving the B-load traffic that bounds
/// the single-row kernel at small widths. Per output element the k-terms
/// still accumulate in ascending order, so results are bit-identical to
/// two [`gemm_row`] calls on the same backend.
#[inline]
pub(crate) fn gemm_two_rows(
    kern: Kernel,
    a0: &[f32],
    a1: &[f32],
    b: &[f32],
    out0: &mut [f32],
    out1: &mut [f32],
) {
    match kern {
        Kernel::Scalar => {
            gemm_row(Kernel::Scalar, a0, b, out0);
            gemm_row(Kernel::Scalar, a1, b, out1);
        }
        Kernel::Avx2Fma => avx2_call!(gemm_two_rows(a0, a1, b, out0, out1)),
    }
}

/// `dst[j] += a * x[j]` (the t_matmul inner sweep).
#[inline]
pub(crate) fn axpy(kern: Kernel, dst: &mut [f32], a: f32, x: &[f32]) {
    match kern {
        Kernel::Scalar => {
            for (o, &bv) in dst.iter_mut().zip(x) {
                *o += a * bv;
            }
        }
        Kernel::Avx2Fma => avx2_call!(axpy(dst, a, x)),
    }
}

/// One `A @ B^T` output row: `out[j] = dot(a_row, b[j * kd .. (j+1) * kd])`
/// with `kd = a_row.len()`.
#[inline]
pub(crate) fn matmul_t_row(kern: Kernel, a_row: &[f32], b: &[f32], out: &mut [f32]) {
    let kd = a_row.len();
    debug_assert_eq!(b.len(), out.len() * kd);
    match kern {
        Kernel::Scalar => {
            for (j, o) in out.iter_mut().enumerate() {
                let b_row = &b[j * kd..(j + 1) * kd];
                let mut acc = 0.0f32;
                for kk in 0..kd {
                    acc += a_row[kk] * b_row[kk];
                }
                *o = acc;
            }
        }
        Kernel::Avx2Fma => avx2_call!(matmul_t_row(a_row, b, out)),
    }
}

/// Whole `A @ B^T` for reduction depths `8 <= k < 16`: `a` is `[m, k]`,
/// `panel` is `B^T` packed as `k` rows of `npad` (a multiple of 8, zero
/// past column `n`), `out` is `[m, n]` and is overwritten. Bit-identical
/// to [`matmul_t_row`] on every row. AVX2 only: the scalar backend keeps
/// its row loop.
#[inline]
pub(crate) fn matmul_t_packed(
    kern: Kernel,
    a: &[f32],
    k: usize,
    panel: &[f32],
    npad: usize,
    out: &mut [f32],
    n: usize,
) {
    // The AVX2 body indexes with raw pointers: these checks bound them.
    assert!((8..16).contains(&k) && npad.is_multiple_of(8) && npad >= n);
    let m = a.len() / k;
    assert!(a.len() == m * k && out.len() == m * n && panel.len() == k * npad);
    match kern {
        Kernel::Scalar => unreachable!("packed A*B^T is an AVX2-only path"),
        Kernel::Avx2Fma => avx2_call!(matmul_t_packed(a, k, panel, npad, out, n)),
    }
}

/// Whole GEMM for outputs narrower than 32 columns: `a` is `[m, k]`,
/// `panel` is B zero-padded to `k` rows of `npad` (a multiple of 16),
/// `out` is `[m, n]` and is overwritten. Bit-identical to [`gemm_row`]
/// over a zeroed row. AVX2 only: the scalar backend keeps its row loop.
#[inline]
pub(crate) fn gemm_narrow(
    kern: Kernel,
    a: &[f32],
    k: usize,
    panel: &[f32],
    npad: usize,
    out: &mut [f32],
    n: usize,
) {
    // The AVX2 body indexes with raw pointers: these checks bound them.
    assert!(n > 0 && npad.is_multiple_of(16) && npad >= n);
    let m = out.len() / n;
    assert!(out.len() == m * n && a.len() == m * k && panel.len() == k * npad);
    match kern {
        Kernel::Scalar => unreachable!("narrow GEMM is an AVX2-only path"),
        Kernel::Avx2Fma => avx2_call!(gemm_narrow(a, k, panel, npad, out, n)),
    }
}

/// `dst[i] += src[i]` (element-wise add; exact on both backends).
#[inline]
pub(crate) fn add_slice(kern: Kernel, dst: &mut [f32], src: &[f32]) {
    match kern {
        Kernel::Scalar => {
            for (a, b) in dst.iter_mut().zip(src) {
                *a += b;
            }
        }
        Kernel::Avx2Fma => avx2_call!(add_slice(dst, src)),
    }
}

/// `dst[i] *= s` (exact on both backends).
#[inline]
pub(crate) fn scale_slice(kern: Kernel, dst: &mut [f32], s: f32) {
    match kern {
        Kernel::Scalar => {
            for a in dst.iter_mut() {
                *a *= s;
            }
        }
        Kernel::Avx2Fma => avx2_call!(scale_slice(dst, s)),
    }
}

/// `dst[i] = dst[i] * s + src[i]` as a separate multiply then add (NOT
/// fused), so it is bit-identical to `scale_slice` followed by
/// `add_slice` on every backend — the attention score epilogue relies on
/// that to fuse two sweeps without moving a single bit.
#[inline]
pub(crate) fn scale_add_slice(kern: Kernel, dst: &mut [f32], s: f32, src: &[f32]) {
    match kern {
        Kernel::Scalar => {
            for (a, &b) in dst.iter_mut().zip(src) {
                *a = *a * s + b;
            }
        }
        Kernel::Avx2Fma => avx2_call!(scale_add_slice(dst, s, src)),
    }
}

/// Fused bias + optional ReLU over one row: `r = act(r + bias)`. The ReLU
/// masks with a `v < 0.0` compare so `-0.0` survives, exactly like the
/// scalar branch (exact on both backends).
#[inline]
pub(crate) fn bias_act_row(kern: Kernel, row: &mut [f32], bias: &[f32], relu: bool) {
    match kern {
        Kernel::Scalar => {
            for (a, &b) in row.iter_mut().zip(bias) {
                let v = *a + b;
                *a = if relu && v < 0.0 { 0.0 } else { v };
            }
        }
        Kernel::Avx2Fma => avx2_call!(bias_act_row(row, bias, relu)),
    }
}

/// In-place ReLU (`v < 0.0` mask; exact on both backends).
#[inline]
pub(crate) fn relu_slice(kern: Kernel, xs: &mut [f32]) {
    match kern {
        Kernel::Scalar => {
            for v in xs.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        Kernel::Avx2Fma => avx2_call!(relu_slice(xs)),
    }
}

/// Row maximum, seeded with `-inf` (softmax stabilizer). Max selection is
/// order-independent for non-NaN input, so backends agree.
#[inline]
pub(crate) fn max_slice(kern: Kernel, xs: &[f32]) -> f32 {
    match kern {
        Kernel::Scalar => {
            let mut max = f32::NEG_INFINITY;
            for &v in xs {
                if v > max {
                    max = v;
                }
            }
            max
        }
        Kernel::Avx2Fma => avx2_call!(max_slice(xs)),
    }
}

/// Softmax numerator: `xs[j] = exp(xs[j] - max)` in place, returning the
/// sum of the results. The scalar arm calls libm `exp` per element and is
/// bit-identical to the pre-SIMD code. The AVX2 arm evaluates a degree-6
/// polynomial `2^f * exp(r)` split (relative error ~1e-8, far inside the
/// ≤1e-5 cross-backend tolerance the FMA GEMMs already set) and sums in
/// lanes — like the GEMMs, numerically equivalent but not bitwise equal
/// to scalar. Each backend is fully deterministic.
#[inline]
pub(crate) fn exp_sum_slice(kern: Kernel, xs: &mut [f32], max: f32) -> f32 {
    match kern {
        Kernel::Scalar => {
            let mut sum = 0.0f32;
            for v in xs.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            sum
        }
        Kernel::Avx2Fma => avx2_call!(exp_sum_slice(xs, max)),
    }
}

/// The AVX2/FMA bodies. Everything here is `unsafe fn` with
/// `#[target_feature]`: callers must have verified the CPU features
/// (enforced by the dispatch invariant above).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    const LANES: usize = 8;

    /// Horizontal sum of an 8-lane f32 vector.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_hadd_ps(s, s);
        let s = _mm_hadd_ps(s, s);
        _mm_cvtss_f32(s)
    }

    /// Vectorized `exp` for 8 lanes: `exp(x) = 2^f * exp(r)` with
    /// `f = round(x * log2 e)` and `r = x*ln2-split` in `[-ln2/2, ln2/2]`,
    /// where `exp(r)` is a degree-6 Taylor/Horner polynomial (max relative
    /// error ~1e-8 on the reduced range) and `2^f` is built by shifting
    /// `f + 127` into the float exponent field. Inputs are clamped to
    /// ±87 so the exponent reconstruction cannot wrap.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let x = _mm256_max_ps(
            _mm256_min_ps(x, _mm256_set1_ps(87.0)),
            _mm256_set1_ps(-87.0),
        );
        let t = _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E));
        let f = _mm256_round_ps(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        // r = x - f*ln2, in two steps (hi/lo split) for extra precision.
        let r = _mm256_fnmadd_ps(f, _mm256_set1_ps(0.693_359_4), x);
        let r = _mm256_fnmadd_ps(f, _mm256_set1_ps(-2.121_944_4e-4), r);
        // exp(r) ~= 1 + r + r^2/2 + ... + r^6/720, Horner with FMAs.
        let mut p = _mm256_set1_ps(1.0 / 720.0);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0 / 120.0));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0 / 24.0));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0 / 6.0));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(0.5));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0));
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(f),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(p, pow2)
    }

    /// `xs[j] = exp(xs[j] - max)` in place; returns the sum. The tail
    /// (< 8 lanes) runs through the same polynomial via a zero-padded
    /// stack buffer, so every element sees identical math.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_sum_slice(xs: &mut [f32], max: f32) -> f32 {
        let n = xs.len();
        let vmax = _mm256_set1_ps(max);
        let mut vsum = _mm256_setzero_ps();
        let p = xs.as_mut_ptr();
        let mut j = 0;
        while j + LANES <= n {
            let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(p.add(j)), vmax));
            _mm256_storeu_ps(p.add(j), e);
            vsum = _mm256_add_ps(vsum, e);
            j += LANES;
        }
        let mut sum = hsum(vsum);
        if j < n {
            let mut buf = [0.0f32; LANES]; // padding lanes are never read back
            buf[..n - j].copy_from_slice(&xs[j..]);
            let mut out = [0.0f32; LANES];
            _mm256_storeu_ps(
                out.as_mut_ptr(),
                exp8(_mm256_sub_ps(_mm256_loadu_ps(buf.as_ptr()), vmax)),
            );
            for (dst, &e) in xs[j..].iter_mut().zip(&out) {
                *dst = e;
                sum += e;
            }
        }
        sum
    }

    /// `dst[j] += a * x[j]`, one FMA per element (tail uses `mul_add`, so
    /// lane position never changes the rounding behaviour).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(dst: &mut [f32], a: f32, x: &[f32]) {
        debug_assert_eq!(dst.len(), x.len());
        let n = dst.len();
        let va = _mm256_set1_ps(a);
        let dp = dst.as_mut_ptr();
        let xp = x.as_ptr();
        let mut j = 0;
        while j + LANES <= n {
            let d = _mm256_loadu_ps(dp.add(j));
            let b = _mm256_loadu_ps(xp.add(j));
            _mm256_storeu_ps(dp.add(j), _mm256_fmadd_ps(va, b, d));
            j += LANES;
        }
        while j < n {
            *dp.add(j) = a.mul_add(*xp.add(j), *dp.add(j));
            j += 1;
        }
    }

    /// One GEMM output row: ascending-k FMA accumulation per element, so
    /// panel decomposition and row order never change the result.
    ///
    /// Register-blocked: each 32/8-wide column block keeps its
    /// accumulators in ymm registers across the entire k loop instead of
    /// round-tripping `out` through memory per k step (the axpy-per-k
    /// formulation this replaces). The per-element FMA chain is the same
    /// ascending-k sequence, so the output is bit-identical — only the
    /// load/store traffic changes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_row(a_row: &[f32], b: &[f32], out: &mut [f32]) {
        let w = out.len();
        let k = a_row.len();
        let ap = a_row.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j + 4 * LANES <= w {
            let mut c0 = _mm256_loadu_ps(op.add(j));
            let mut c1 = _mm256_loadu_ps(op.add(j + LANES));
            let mut c2 = _mm256_loadu_ps(op.add(j + 2 * LANES));
            let mut c3 = _mm256_loadu_ps(op.add(j + 3 * LANES));
            for kk in 0..k {
                let a = _mm256_set1_ps(*ap.add(kk));
                let bb = bp.add(kk * w + j);
                c0 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bb), c0);
                c1 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bb.add(LANES)), c1);
                c2 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bb.add(2 * LANES)), c2);
                c3 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bb.add(3 * LANES)), c3);
            }
            _mm256_storeu_ps(op.add(j), c0);
            _mm256_storeu_ps(op.add(j + LANES), c1);
            _mm256_storeu_ps(op.add(j + 2 * LANES), c2);
            _mm256_storeu_ps(op.add(j + 3 * LANES), c3);
            j += 4 * LANES;
        }
        while j + LANES <= w {
            let mut c = _mm256_loadu_ps(op.add(j));
            for kk in 0..k {
                let a = _mm256_set1_ps(*ap.add(kk));
                c = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp.add(kk * w + j)), c);
            }
            _mm256_storeu_ps(op.add(j), c);
            j += LANES;
        }
        while j < w {
            let mut acc = *op.add(j);
            for kk in 0..k {
                acc = (*ap.add(kk)).mul_add(*bp.add(kk * w + j), acc);
            }
            *op.add(j) = acc;
            j += 1;
        }
    }

    /// Two output rows per B sweep (see the dispatching wrapper): 2x4
    /// accumulator tile, so each of the four B vectors loaded per k step
    /// feeds two FMAs instead of one.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_two_rows(
        a0: &[f32],
        a1: &[f32],
        b: &[f32],
        out0: &mut [f32],
        out1: &mut [f32],
    ) {
        let w = out0.len();
        debug_assert_eq!(out1.len(), w);
        let k = a0.len();
        debug_assert_eq!(a1.len(), k);
        let a0p = a0.as_ptr();
        let a1p = a1.as_ptr();
        let bp = b.as_ptr();
        let o0 = out0.as_mut_ptr();
        let o1 = out1.as_mut_ptr();
        let mut j = 0;
        while j + 4 * LANES <= w {
            let mut c00 = _mm256_loadu_ps(o0.add(j));
            let mut c01 = _mm256_loadu_ps(o0.add(j + LANES));
            let mut c02 = _mm256_loadu_ps(o0.add(j + 2 * LANES));
            let mut c03 = _mm256_loadu_ps(o0.add(j + 3 * LANES));
            let mut c10 = _mm256_loadu_ps(o1.add(j));
            let mut c11 = _mm256_loadu_ps(o1.add(j + LANES));
            let mut c12 = _mm256_loadu_ps(o1.add(j + 2 * LANES));
            let mut c13 = _mm256_loadu_ps(o1.add(j + 3 * LANES));
            for kk in 0..k {
                let bb = bp.add(kk * w + j);
                let b0 = _mm256_loadu_ps(bb);
                let b1 = _mm256_loadu_ps(bb.add(LANES));
                let b2 = _mm256_loadu_ps(bb.add(2 * LANES));
                let b3 = _mm256_loadu_ps(bb.add(3 * LANES));
                let va0 = _mm256_set1_ps(*a0p.add(kk));
                let va1 = _mm256_set1_ps(*a1p.add(kk));
                c00 = _mm256_fmadd_ps(va0, b0, c00);
                c01 = _mm256_fmadd_ps(va0, b1, c01);
                c02 = _mm256_fmadd_ps(va0, b2, c02);
                c03 = _mm256_fmadd_ps(va0, b3, c03);
                c10 = _mm256_fmadd_ps(va1, b0, c10);
                c11 = _mm256_fmadd_ps(va1, b1, c11);
                c12 = _mm256_fmadd_ps(va1, b2, c12);
                c13 = _mm256_fmadd_ps(va1, b3, c13);
            }
            _mm256_storeu_ps(o0.add(j), c00);
            _mm256_storeu_ps(o0.add(j + LANES), c01);
            _mm256_storeu_ps(o0.add(j + 2 * LANES), c02);
            _mm256_storeu_ps(o0.add(j + 3 * LANES), c03);
            _mm256_storeu_ps(o1.add(j), c10);
            _mm256_storeu_ps(o1.add(j + LANES), c11);
            _mm256_storeu_ps(o1.add(j + 2 * LANES), c12);
            _mm256_storeu_ps(o1.add(j + 3 * LANES), c13);
            j += 4 * LANES;
        }
        while j + LANES <= w {
            let mut c0 = _mm256_loadu_ps(o0.add(j));
            let mut c1 = _mm256_loadu_ps(o1.add(j));
            for kk in 0..k {
                let bv = _mm256_loadu_ps(bp.add(kk * w + j));
                c0 = _mm256_fmadd_ps(_mm256_set1_ps(*a0p.add(kk)), bv, c0);
                c1 = _mm256_fmadd_ps(_mm256_set1_ps(*a1p.add(kk)), bv, c1);
            }
            _mm256_storeu_ps(o0.add(j), c0);
            _mm256_storeu_ps(o1.add(j), c1);
            j += LANES;
        }
        while j < w {
            let mut acc0 = *o0.add(j);
            let mut acc1 = *o1.add(j);
            for kk in 0..k {
                let bv = *bp.add(kk * w + j);
                acc0 = (*a0p.add(kk)).mul_add(bv, acc0);
                acc1 = (*a1p.add(kk)).mul_add(bv, acc1);
            }
            *o0.add(j) = acc0;
            *o1.add(j) = acc1;
            j += 1;
        }
    }

    /// Multi-accumulator FMA dot product. The two vector accumulators and
    /// the lane reduction reassociate the sum relative to the scalar
    /// kernel — this is the one helper that is tolerance-compared, like
    /// the GEMM rows that call it.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut j = 0;
        while j + 2 * LANES <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(bp.add(j)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(j + LANES)),
                _mm256_loadu_ps(bp.add(j + LANES)),
                acc1,
            );
            j += 2 * LANES;
        }
        if j + LANES <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(bp.add(j)), acc0);
            j += LANES;
        }
        let mut r = hsum(_mm256_add_ps(acc0, acc1));
        while j < n {
            r = (*ap.add(j)).mul_add(*bp.add(j), r);
            j += 1;
        }
        r
    }

    /// One `A @ B^T` output row (dot product against every row of B).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_t_row(a_row: &[f32], b: &[f32], out: &mut [f32]) {
        let kd = a_row.len();
        for (j, o) in out.iter_mut().enumerate() {
            *o = dot(a_row, b.get_unchecked(j * kd..(j + 1) * kd));
        }
    }

    /// Store the first `dst.len()` (at most 8) lanes of `v`.
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_lanes(dst: &mut [f32], v: __m256) {
        if dst.len() == LANES {
            _mm256_storeu_ps(dst.as_mut_ptr(), v);
        } else {
            let mut buf = [0.0f32; LANES];
            _mm256_storeu_ps(buf.as_mut_ptr(), v);
            dst.copy_from_slice(&buf[..dst.len()]);
        }
    }

    /// Packed `A @ B^T` for `8 <= k < 16` (bounds checked by the
    /// dispatching wrapper): eight output columns per step, lane `c`
    /// replaying [`dot`] for column `c` op for op. [`dot`] at these depths
    /// runs one `acc0` FMA per `kk < 8` from +0 (here: eight registers,
    /// one per `kk`, instead of eight lanes of one), adds `acc1` (still
    /// +0), reduces with [`hsum`] — lane `l` plus lane `l + 4`, then
    /// `(0 + 1) + (2 + 3)` — and finishes with the ascending scalar-FMA
    /// tail. The same sequence in vertical form gives the same bits
    /// without a horizontal sum per output.
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA; `8 <= k`, `npad` is a multiple of 8
    /// and at least `n`, and for `m = a.len() / k`: `a.len() == m * k`,
    /// `out.len() == m * n`, `panel.len() == k * npad`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_t_packed(
        a: &[f32],
        k: usize,
        panel: &[f32],
        npad: usize,
        out: &mut [f32],
        n: usize,
    ) {
        let zero = _mm256_setzero_ps();
        let pp = panel.as_ptr();
        for (i, a_row) in a.chunks_exact(k).enumerate() {
            let ap = a_row.as_ptr();
            let out_row = &mut out[i * n..(i + 1) * n];
            let mut j = 0;
            while j < n {
                let col = pp.add(j);
                let mut s = [zero; LANES];
                for (l, sl) in s.iter_mut().enumerate() {
                    let b = _mm256_loadu_ps(col.add(l * npad));
                    let acc0 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(l)), b, zero);
                    *sl = _mm256_add_ps(acc0, zero);
                }
                let h0 = _mm256_add_ps(s[0], s[4]);
                let h1 = _mm256_add_ps(s[1], s[5]);
                let h2 = _mm256_add_ps(s[2], s[6]);
                let h3 = _mm256_add_ps(s[3], s[7]);
                let mut r = _mm256_add_ps(_mm256_add_ps(h0, h1), _mm256_add_ps(h2, h3));
                for kk in LANES..k {
                    let b = _mm256_loadu_ps(col.add(kk * npad));
                    r = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(kk)), b, r);
                }
                let w = LANES.min(n - j);
                store_lanes(&mut out_row[j..j + w], r);
                j += LANES;
            }
        }
    }

    /// `R` output rows x 16 columns of [`gemm_narrow`], starting at row
    /// `a` / `out` and column `j`: `2R` accumulators, each an ascending-k
    /// FMA chain from +0.
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA; `a` holds at least `R` rows of `k`,
    /// `j + 16 <= npad` and `panel.len() == k * npad`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn narrow_tile<const R: usize>(
        a: &[f32],
        k: usize,
        panel: &[f32],
        npad: usize,
        out: &mut [f32],
        n: usize,
        j: usize,
    ) {
        let ap = a.as_ptr();
        let bp = panel.as_ptr().add(j);
        let mut c = [[_mm256_setzero_ps(); 2]; R];
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(bp.add(kk * npad));
            let b1 = _mm256_loadu_ps(bp.add(kk * npad + LANES));
            for (r, cr) in c.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*ap.add(r * k + kk));
                cr[0] = _mm256_fmadd_ps(va, b0, cr[0]);
                cr[1] = _mm256_fmadd_ps(va, b1, cr[1]);
            }
        }
        let w = (n - j).min(2 * LANES);
        for (r, cr) in c.iter().enumerate() {
            let row = &mut out[r * n + j..r * n + j + w];
            let (lo, hi) = row.split_at_mut(w.min(LANES));
            store_lanes(lo, cr[0]);
            if !hi.is_empty() {
                store_lanes(hi, cr[1]);
            }
        }
    }

    /// Narrow GEMM (bounds checked by the dispatching wrapper): four rows
    /// x 16 columns per k step, eight independent FMA chains, so the FMA
    /// latency that stalls the one- and two-row kernels at narrow widths
    /// is covered. Each element is the ascending-k chain from +0 that
    /// [`gemm_row`] runs on a zeroed output; the last `m % 4` rows take
    /// one shorter tile with the same per-element chain.
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA; `n > 0`, `npad` is a multiple of 16
    /// and at least `n`, and for `m = out.len() / n`: `out.len() == m * n`,
    /// `a.len() == m * k`, `panel.len() == k * npad`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_narrow(
        a: &[f32],
        k: usize,
        panel: &[f32],
        npad: usize,
        out: &mut [f32],
        n: usize,
    ) {
        let m = out.len() / n;
        for j in (0..n).step_by(2 * LANES) {
            let mut i = 0;
            while i + 4 <= m {
                let (ai, oi) = (&a[i * k..], &mut out[i * n..]);
                narrow_tile::<4>(ai, k, panel, npad, oi, n, j);
                i += 4;
            }
            let (ai, oi) = (&a[i * k..], &mut out[i * n..]);
            match m - i {
                3 => narrow_tile::<3>(ai, k, panel, npad, oi, n, j),
                2 => narrow_tile::<2>(ai, k, panel, npad, oi, n, j),
                1 => narrow_tile::<1>(ai, k, panel, npad, oi, n, j),
                _ => {}
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_slice(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut j = 0;
        while j + LANES <= n {
            let d = _mm256_loadu_ps(dp.add(j));
            let s = _mm256_loadu_ps(sp.add(j));
            _mm256_storeu_ps(dp.add(j), _mm256_add_ps(d, s));
            j += LANES;
        }
        while j < n {
            *dp.add(j) += *sp.add(j);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_slice(dst: &mut [f32], s: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let vs = _mm256_set1_ps(s);
        let mut j = 0;
        while j + LANES <= n {
            _mm256_storeu_ps(dp.add(j), _mm256_mul_ps(_mm256_loadu_ps(dp.add(j)), vs));
            j += LANES;
        }
        while j < n {
            *dp.add(j) *= s;
            j += 1;
        }
    }

    /// `dst = dst * s + src` as separate mul then add — deliberately NOT
    /// an FMA, to stay bit-identical to scale-then-add on every backend.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_add_slice(dst: &mut [f32], s: f32, src: &[f32]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let vs = _mm256_set1_ps(s);
        let mut j = 0;
        while j + LANES <= n {
            let scaled = _mm256_mul_ps(_mm256_loadu_ps(dp.add(j)), vs);
            _mm256_storeu_ps(dp.add(j), _mm256_add_ps(scaled, _mm256_loadu_ps(sp.add(j))));
            j += LANES;
        }
        while j < n {
            *dp.add(j) = *dp.add(j) * s + *sp.add(j);
            j += 1;
        }
    }

    /// ReLU mask: keep `v` where `!(v < 0.0)`. `cmp_lt` + `andnot` (not
    /// `max_ps`) so `-0.0` is preserved exactly like the scalar branch.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn relu_vec(v: __m256) -> __m256 {
        let neg = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ);
        _mm256_andnot_ps(neg, v)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn relu_slice(xs: &mut [f32]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut j = 0;
        while j + LANES <= n {
            _mm256_storeu_ps(p.add(j), relu_vec(_mm256_loadu_ps(p.add(j))));
            j += LANES;
        }
        while j < n {
            if *p.add(j) < 0.0 {
                *p.add(j) = 0.0;
            }
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn bias_act_row(row: &mut [f32], bias: &[f32], relu: bool) {
        let n = row.len();
        let rp = row.as_mut_ptr();
        let bp = bias.as_ptr();
        let mut j = 0;
        while j + LANES <= n {
            let mut v = _mm256_add_ps(_mm256_loadu_ps(rp.add(j)), _mm256_loadu_ps(bp.add(j)));
            if relu {
                v = relu_vec(v);
            }
            _mm256_storeu_ps(rp.add(j), v);
            j += LANES;
        }
        while j < n {
            let v = *rp.add(j) + *bp.add(j);
            *rp.add(j) = if relu && v < 0.0 { 0.0 } else { v };
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn max_slice(xs: &[f32]) -> f32 {
        let n = xs.len();
        let p = xs.as_ptr();
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut j = 0;
        while j + LANES <= n {
            vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(p.add(j)));
            j += LANES;
        }
        // Reduce lanes.
        let hi = _mm256_extractf128_ps(vmax, 1);
        let lo = _mm256_castps256_ps128(vmax);
        let m = _mm_max_ps(lo, hi);
        let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        let m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0b01));
        let mut max = _mm_cvtss_f32(m);
        while j < n {
            if *p.add(j) > max {
                max = *p.add(j);
            }
            j += 1;
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::Rng64;

    fn backends() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar];
        if simd_available() {
            ks.push(Kernel::Avx2Fma);
        }
        ks
    }

    fn rand_vec(n: usize, rng: &mut Rng64) -> Vec<f32> {
        (0..n).map(|_| rng.range_f64(-2.0, 2.0) as f32).collect()
    }

    #[test]
    fn elementwise_kernels_are_bitwise_equal_across_backends() {
        let mut rng = Rng64::new(90);
        // Ragged lengths around the 8-lane width, including 0.
        for n in [0usize, 1, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let src = rand_vec(n, &mut rng);
            let bias = rand_vec(n, &mut rng);
            let base = rand_vec(n, &mut rng);
            for &kern in &backends()[1..] {
                let (mut a, mut b) = (base.clone(), base.clone());
                add_slice(Kernel::Scalar, &mut a, &src);
                add_slice(kern, &mut b, &src);
                assert_eq!(a, b, "add n={n}");
                let (mut a, mut b) = (base.clone(), base.clone());
                scale_slice(Kernel::Scalar, &mut a, 0.37);
                scale_slice(kern, &mut b, 0.37);
                assert_eq!(a, b, "scale n={n}");
                let (mut a, mut b) = (base.clone(), base.clone());
                scale_add_slice(Kernel::Scalar, &mut a, 0.37, &src);
                scale_add_slice(kern, &mut b, 0.37, &src);
                assert_eq!(a, b, "scale_add n={n}");
                for relu in [false, true] {
                    let (mut a, mut b) = (base.clone(), base.clone());
                    bias_act_row(Kernel::Scalar, &mut a, &bias, relu);
                    bias_act_row(kern, &mut b, &bias, relu);
                    assert_eq!(a, b, "bias_act relu={relu} n={n}");
                }
                let (mut a, mut b) = (base.clone(), base.clone());
                relu_slice(Kernel::Scalar, &mut a);
                relu_slice(kern, &mut b);
                assert_eq!(a, b, "relu n={n}");
                assert_eq!(
                    max_slice(Kernel::Scalar, &base).to_bits(),
                    max_slice(kern, &base).to_bits(),
                    "max n={n}"
                );
            }
        }
    }

    #[test]
    fn relu_kernel_preserves_negative_zero() {
        for kern in backends() {
            let mut xs = vec![-0.0f32, 0.0, -1.0, 2.0, -0.0, -0.0, -0.0, -0.0, -0.0];
            relu_slice(kern, &mut xs);
            assert_eq!(xs[0].to_bits(), (-0.0f32).to_bits(), "{kern:?}");
            assert_eq!(xs[2], 0.0);
            assert_eq!(xs[8].to_bits(), (-0.0f32).to_bits(), "{kern:?} tail");
        }
    }

    #[test]
    fn exp_sum_tracks_scalar_within_tolerance() {
        let mut rng = Rng64::new(95);
        // Ragged lengths; values span the post-max-subtraction softmax
        // range plus deep-negative and clamp-edge points.
        for n in [1usize, 5, 7, 8, 9, 16, 17, 60, 100] {
            let mut base: Vec<f32> = (0..n).map(|_| rng.range_f64(-30.0, 4.0) as f32).collect();
            base[0] = -90.0; // below the AVX2 clamp: both arms give ~0
            let max = max_slice(Kernel::Scalar, &base);
            let mut want = base.clone();
            let want_sum = exp_sum_slice(Kernel::Scalar, &mut want, max);
            for &kern in &backends()[1..] {
                let mut got = base.clone();
                let got_sum = exp_sum_slice(kern, &mut got, max);
                assert!(
                    (got_sum - want_sum).abs() / want_sum.max(1e-20) < 1e-6,
                    "{kern:?} n={n} sum {got_sum} vs {want_sum}"
                );
                for (j, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    let denom = w.abs().max(1e-20);
                    assert!(
                        (g - w).abs() / denom < 1e-6,
                        "{kern:?} n={n} elem {j}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn scalar_exp_sum_matches_libm_bitwise() {
        let mut rng = Rng64::new(96);
        let base: Vec<f32> = (0..33).map(|_| rng.range_f64(-10.0, 3.0) as f32).collect();
        let max = max_slice(Kernel::Scalar, &base);
        let mut got = base.clone();
        exp_sum_slice(Kernel::Scalar, &mut got, max);
        for (g, b) in got.iter().zip(&base) {
            assert_eq!(g.to_bits(), (b - max).exp().to_bits());
        }
    }

    #[test]
    fn gemm_rows_agree_within_tolerance_across_backends() {
        let mut rng = Rng64::new(92);
        for (k, w) in [(3usize, 5usize), (8, 8), (13, 17), (40, 33), (64, 128)] {
            let a_row = rand_vec(k, &mut rng);
            let b = rand_vec(k * w, &mut rng);
            let mut want = vec![0.0f32; w];
            gemm_row(Kernel::Scalar, &a_row, &b, &mut want);
            let mut tw = vec![0.0f32; w];
            matmul_t_row(Kernel::Scalar, &a_row, &b, &mut tw);
            for &kern in &backends()[1..] {
                let mut got = vec![0.0f32; w];
                gemm_row(kern, &a_row, &b, &mut got);
                for (x, y) in got.iter().zip(&want) {
                    assert!((x - y).abs() <= 1e-5 * y.abs().max(1.0), "gemm {k}x{w}");
                }
                let mut got = vec![0.0f32; w];
                // matmul_t_row wants b as [w, k] row-major; reuse the same
                // buffer (contents differ in meaning, tolerance still holds
                // against the scalar run over the identical buffer).
                matmul_t_row(kern, &a_row, &b, &mut got);
                for (x, y) in got.iter().zip(&tw) {
                    assert!((x - y).abs() <= 1e-5 * y.abs().max(1.0), "mmt {k}x{w}");
                }
            }
        }
    }

    #[test]
    fn dispatch_override_round_trips() {
        // Save, exercise both settings, restore the resolved state.
        let before = kernel();
        set_simd_enabled(false);
        assert_eq!(kernel(), Kernel::Scalar);
        set_simd_enabled(true);
        assert_eq!(
            kernel(),
            if simd_available() {
                Kernel::Avx2Fma
            } else {
                Kernel::Scalar
            }
        );
        set_simd_enabled(before == Kernel::Avx2Fma);
    }
}
