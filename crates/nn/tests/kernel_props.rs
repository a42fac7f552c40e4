//! Property tests for the four matmul kernels against naive triple-loop
//! references on ragged shapes, plus bitwise cross-tier digests.
//!
//! Two kinds of claim, deliberately separated:
//!
//! * **Bit-exactness vs a naive reference** for the kernels whose
//!   canonical accumulation order *is* plain ascending-`k`: `matmul`
//!   (both its dense-block and sparse-axpy paths) and `matmul_tn`. The
//!   blocked/vectorized kernels reorder reads and pack operands, but every
//!   output element must still accumulate its products in ascending-`k`
//!   order with one rounding per multiply and one per add — so a scalar
//!   triple loop reproduces them to the last bit.
//! * **Tolerance vs naive + bitwise tier agreement** for `matmul_nt`,
//!   whose canonical order is the striped [`dot_canonical`] reduction
//!   (documented in `matrix.rs`), not ascending-`k`. There the naive loop
//!   only bounds the error, and the bit-level contract is that every SIMD
//!   tier agrees with the scalar instantiation of the same striped order.
//!
//! B operands are generated without exact zeros so no product can be a
//! signed zero, which makes "skip zero `a` entries" and "include them"
//! bit-equivalent — the sparse-axpy and dense-block paths may then be
//! dispatched per row block without the reference having to predict the
//! choice.

use autocat_nn::matrix::with_inline_kernels;
use autocat_nn::state::fnv1a;
use autocat_nn::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform in (-1, 1) with exact zeros (and near-zeros, for clarity of
/// intent) nudged away from zero.
fn nonzero(rng: &mut StdRng) -> f32 {
    let v: f32 = rng.gen_range(-1.0..1.0);
    if v.abs() < 1e-6 {
        0.5
    } else {
        v
    }
}

fn dense(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| nonzero(rng)).collect())
}

/// ~1-in-10 nonzero entries: comfortably under the dense-dispatch
/// threshold on average, but individual row blocks may still cross it —
/// both kernel paths get exercised across cases.
fn sparse(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| {
                if rng.gen_range(0..10) == 0 {
                    nonzero(rng)
                } else {
                    0.0
                }
            })
            .collect(),
    )
}

/// Ascending-`k` triple loop for `a(m,k) * b(k,n)`.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a.as_slice()[i * k + kk];
            for j in 0..n {
                out[i * n + j] += av * b.as_slice()[kk * n + j];
            }
        }
    }
    out
}

/// Ascending-`k` triple loop for `a(k,m)^T * b(k,n)`.
fn naive_matmul_tn(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for kk in 0..k {
        for i in 0..m {
            let av = a.as_slice()[kk * m + i];
            for j in 0..n {
                out[i * n + j] += av * b.as_slice()[kk * n + j];
            }
        }
    }
    out
}

/// Ascending-`k` dot products for `a(m,k) * b(n,k)^T`.
fn naive_matmul_nt(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.as_slice()[i * k + kk] * b.as_slice()[j * k + kk];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn assert_bits_equal(got: &Matrix, want: &[f32], what: &str) -> Result<(), String> {
    for (i, (g, w)) in got.as_slice().iter().zip(want.iter()).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(format!(
                "{what}: element {i}: kernel {g} ({:#010x}) != naive {w} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            ));
        }
    }
    Ok(())
}

fn digest(m: &Matrix) -> u64 {
    fnv1a(m.as_slice().iter().flat_map(|v| v.to_le_bytes()))
}

proptest! {
    #[test]
    fn matmul_dense_matches_naive_bit_for_bit(
        m in 1usize..20,
        k in 1usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = dense(m, k, &mut rng);
        let b = dense(k, n, &mut rng);
        let got = with_inline_kernels(|| a.matmul(&b));
        assert_bits_equal(&got, &naive_matmul(&a, &b), "matmul dense")?;
    }

    #[test]
    fn matmul_sparse_matches_naive_bit_for_bit(
        m in 1usize..20,
        k in 1usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = sparse(m, k, &mut rng);
        let b = dense(k, n, &mut rng);
        let got = with_inline_kernels(|| a.matmul(&b));
        assert_bits_equal(&got, &naive_matmul(&a, &b), "matmul sparse")?;
    }

    #[test]
    fn matmul_tn_matches_naive_bit_for_bit(
        m in 1usize..20,
        k in 1usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = dense(k, m, &mut rng);
        let b = dense(k, n, &mut rng);
        let got = with_inline_kernels(|| a.matmul_tn(&b));
        assert_bits_equal(&got, &naive_matmul_tn(&a, &b), "matmul_tn")?;
    }

    #[test]
    fn matmul_nt_matches_naive_within_reassociation_error(
        m in 1usize..20,
        k in 1usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = dense(m, k, &mut rng);
        let b = dense(n, k, &mut rng);
        let got = with_inline_kernels(|| a.matmul_nt(&b));
        let want = naive_matmul_nt(&a, &b);
        for (i, (g, w)) in got.as_slice().iter().zip(want.iter()).enumerate() {
            // Reassociating a k-term dot product perturbs it by at most
            // ~k ulps of the magnitude sum; |terms| < 1 here so the sum of
            // |products| is < k.
            let bound = (k as f32) * (k as f32) * f32::EPSILON + 1e-30;
            prop_assert!(
                (g - w).abs() <= bound,
                "matmul_nt: element {i}: kernel {g} vs naive {w} exceeds bound {bound}"
            );
        }
    }

    /// The bitwise SIMD-vs-scalar property on random ragged shapes: every
    /// kernel, instantiated for every SIMD tier this host can run, must
    /// agree with the scalar instantiation to the last bit. (On a
    /// scalar-fallback build or non-x86 host there is no SIMD tier and
    /// this passes trivially; the real coverage runs wherever AVX tiers
    /// exist.)
    #[test]
    fn kernels_agree_with_scalar_tier_bit_for_bit(
        m in 1usize..20,
        k in 1usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        check_tiers_against_scalar(m, k, n, seed)?;
    }
}

/// Ragged fixed shapes `(m, k, n)` for the tier check: off-block row
/// counts, non-multiple-of-8 widths, and sub-block sizes that force every
/// tail path.
const RAGGED_SHAPES: [(usize, usize, usize); 6] = [
    (4, 132, 128),
    (7, 33, 19),
    (1, 1, 1),
    (3, 8, 16),
    (13, 71, 5),
    (64, 100, 37),
];

/// Every SIMD tier this build and CPU can run (the dispatch tier and
/// below; none on a scalar-fallback build or non-x86 host).
fn simd_tiers() -> Vec<simd::Tier> {
    [simd::Tier::Avx2, simd::Tier::Avx512]
        .into_iter()
        .filter(|&tier| tier <= simd::tier())
        .collect()
}

/// Runs all four kernels on `(m, k, n)` operands drawn from `seed` under
/// every SIMD tier and checks each output digest against the scalar
/// instantiation's. Kernels run inline: the forced tier is thread-local
/// and would not reach pool workers.
fn check_tiers_against_scalar(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = dense(m, k, &mut rng);
    let a_sparse = sparse(m, k, &mut rng);
    let b = dense(k, n, &mut rng);
    let a_t = dense(k, m, &mut rng);
    let b_t = dense(n, k, &mut rng);
    let runs: [(&str, &dyn Fn() -> Matrix); 4] = [
        ("matmul", &|| a.matmul(&b)),
        ("matmul_sparse", &|| a_sparse.matmul(&b)),
        ("matmul_tn", &|| a_t.matmul_tn(&b)),
        ("matmul_nt", &|| a.matmul_nt(&b_t)),
    ];
    for (name, run) in runs {
        let slow = digest(&simd::with_forced_tier(simd::Tier::Scalar, || {
            with_inline_kernels(run)
        }));
        for tier in simd_tiers() {
            let fast = digest(&simd::with_forced_tier(tier, || with_inline_kernels(run)));
            if fast != slow {
                return Err(format!(
                    "{name} {m}x{k}x{n}: {} tier digest {fast:016x} != scalar {slow:016x}",
                    tier.name()
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn kernels_agree_with_scalar_tier_on_ragged_shapes() {
    for &(m, k, n) in &RAGGED_SHAPES {
        check_tiers_against_scalar(m, k, n, 23).unwrap();
    }
}
