//! `MlpPolicy::train_batch` and `forward_inference` against the
//! straightforward backprop they replaced, bit for bit.
//!
//! The reference below is that algorithm written out with the public
//! `Matrix` kernels (whose canonical orders `kernel_props.rs` pins): every
//! layer caches its input, the forward pass is `matmul` + bias + `map`,
//! and the backward pass recomputes each activation derivative from the
//! cached pre-activation (`map` + `hadamard`), then takes `dW = x^T dy`
//! (`matmul_tn`) and `dX = dy W^T` (`matmul_nt`) for every layer —
//! including the input layer's `dX`, which nothing reads. The model must
//! produce the same gradient bits and logits without that work: sparse
//! input layer, no input-layer `dX`, activation backward from the cached
//! output, narrow-head kernels. Every case runs under every SIMD tier.

use autocat_nn::layers::ActivationKind;
use autocat_nn::matrix::with_inline_kernels;
use autocat_nn::models::{MlpConfig, MlpPolicy, PolicyValueNet};
use autocat_nn::{Matrix, Param};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `f(x)`, exactly as the activation layer applies it.
fn apply(kind: ActivationKind, x: f32) -> f32 {
    match kind {
        ActivationKind::Relu => x.max(0.0),
        ActivationKind::Tanh => x.tanh(),
        ActivationKind::Gelu => {
            let c = (2.0 / std::f32::consts::PI).sqrt();
            0.5 * x * (1.0 + (c * (x + 0.044_715 * x * x * x)).tanh())
        }
    }
}

/// `f'(x)` from the pre-activation input.
fn derivative(kind: ActivationKind, x: f32) -> f32 {
    match kind {
        ActivationKind::Relu => {
            if x > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        ActivationKind::Tanh => {
            let t = x.tanh();
            1.0 - t * t
        }
        ActivationKind::Gelu => {
            let c = (2.0 / std::f32::consts::PI).sqrt();
            let inner = c * (x + 0.044_715 * x * x * x);
            let t = inner.tanh();
            let dinner = c * (1.0 + 3.0 * 0.044_715 * x * x);
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        }
    }
}

/// The model's parameter values in `visit_params` order: `(W, b)` per
/// trunk layer, then the policy head, then the value head.
fn param_values(net: &mut MlpPolicy) -> Vec<Matrix> {
    let mut out = Vec::new();
    net.visit_params(&mut |p: &mut Param| out.push(p.value.clone()));
    out
}

fn grad_bits(net: &mut MlpPolicy) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    net.visit_params(&mut |p: &mut Param| {
        out.push(p.grad.as_slice().iter().map(|v| v.to_bits()).collect())
    });
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `x W + b`.
fn affine(x: &Matrix, w: &Matrix, b: &Matrix) -> Matrix {
    let mut y = x.matmul(w);
    y.add_row_broadcast(b.as_slice());
    y
}

/// The loss gradient every case feeds back: mixed signs, an exact zero,
/// and a dependence on the logits and the row.
fn row_grad(row: usize, logits: &[f32], value: f32) -> (Vec<f32>, f32) {
    let dl = logits
        .iter()
        .enumerate()
        .map(|(a, &l)| {
            if (row + a) % 5 == 3 {
                0.0
            } else {
                0.25 * l - 0.03 * (a as f32 + 1.0) + 0.01 * row as f32
            }
        })
        .collect();
    (dl, 0.5 * value - 0.2)
}

/// Reference forward + backward. Returns `(logits, values, grads)` with
/// the gradients in `visit_params` order.
fn reference(
    params: &[Matrix],
    kind: ActivationKind,
    obs: &Matrix,
) -> (Matrix, Vec<f32>, Vec<Matrix>) {
    let layers = params.len() / 2 - 2;
    let mut inputs = Vec::new();
    let mut pre = Vec::new();
    let mut h = obs.clone();
    for l in 0..layers {
        let z = affine(&h, &params[2 * l], &params[2 * l + 1]);
        inputs.push(h);
        h = z.map(|v| apply(kind, v));
        pre.push(z);
    }
    let (wp, bp, wv, bv) = (
        &params[2 * layers],
        &params[2 * layers + 1],
        &params[2 * layers + 2],
        &params[2 * layers + 3],
    );
    let logits = affine(&h, wp, bp);
    let values = affine(&h, wv, bv).into_vec();
    let mut dlogits = Matrix::zeros(obs.rows(), logits.cols());
    let mut dvalues = Matrix::zeros(obs.rows(), 1);
    for i in 0..obs.rows() {
        let (dl, dv) = row_grad(i, logits.row(i), values[i]);
        dlogits.row_mut(i).copy_from_slice(&dl);
        dvalues[(i, 0)] = dv;
    }
    let mut grads = vec![Matrix::zeros(0, 0); params.len()];
    let mut accumulate = |slot: usize, x: &Matrix, dy: &Matrix| {
        let mut dw = Matrix::zeros(params[slot].rows(), params[slot].cols());
        dw.add_assign(&x.matmul_tn(dy));
        let mut db = Matrix::zeros(1, dy.cols());
        for (g, d) in db.as_mut_slice().iter_mut().zip(dy.sum_rows()) {
            *g += d;
        }
        grads[slot] = dw;
        grads[slot + 1] = db;
    };
    accumulate(2 * layers, &h, &dlogits);
    accumulate(2 * layers + 2, &h, &dvalues);
    let mut dx = dlogits.matmul_nt(wp);
    dx.add_assign(&dvalues.matmul_nt(wv));
    for l in (0..layers).rev() {
        let dz = dx.hadamard(&pre[l].map(|v| derivative(kind, v)));
        accumulate(2 * l, &inputs[l], &dz);
        dx = dz.matmul_nt(&params[2 * l]);
    }
    (logits, values, grads)
}

/// An observation batch: `"onehot"` mimics the gym's `ObsEncoder` (per
/// token a latency one-hot, an action one-hot, a step fraction and a
/// flag, with empty trailing tokens), `"mixed"` is ~30% dense, `"dense"`
/// has no zeros.
fn observations(style: &str, rows: usize, rng: &mut StdRng) -> Matrix {
    const ACTIONS: usize = 5;
    const TOKEN: usize = 3 + ACTIONS + 2;
    const WINDOW: usize = 4;
    let cols = TOKEN * WINDOW;
    let mut obs = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let row = obs.row_mut(r);
        match style {
            "onehot" => {
                let filled = rng.gen_range(0..=WINDOW);
                for slot in 0..filled {
                    let base = slot * TOKEN;
                    row[base + rng.gen_range(0..3usize)] = 1.0;
                    row[base + 3 + rng.gen_range(0..ACTIONS)] = 1.0;
                    row[base + 3 + ACTIONS] = (slot as f32 + 1.0) / WINDOW as f32;
                    row[base + 3 + ACTIONS + 1] = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
                }
            }
            "mixed" => {
                for v in row.iter_mut() {
                    if rng.gen_bool(0.3) {
                        *v = rng.gen_range(-1.0..1.0);
                    }
                }
            }
            _ => {
                for v in row.iter_mut() {
                    *v = rng.gen_range(0.05f32..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                }
            }
        }
    }
    obs
}

/// Every SIMD tier this build and CPU can run, scalar first.
fn tiers() -> Vec<simd::Tier> {
    [simd::Tier::Scalar, simd::Tier::Avx2, simd::Tier::Avx512]
        .into_iter()
        .filter(|&tier| tier == simd::Tier::Scalar || tier <= simd::tier())
        .collect()
}

fn check(kind: ActivationKind, hidden: usize, actions: usize, rows: usize, style: &str, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let obs = observations(style, rows, &mut rng);
    let mut cfg = MlpConfig::new(obs.cols(), actions)
        .with_hidden(vec![hidden, hidden])
        .with_activation(kind);
    cfg.policy_head_gain = 1.0;
    let mut net = MlpPolicy::new(&cfg, &mut rng);
    let case = format!("{kind:?} hidden {hidden} actions {actions} rows {rows} {style}");
    let params = param_values(&mut net);
    let (logits, values, grads) = simd::with_forced_tier(simd::Tier::Scalar, || {
        with_inline_kernels(|| reference(&params, kind, &obs))
    });
    let want: Vec<Vec<u32>> = grads.iter().map(bits).collect();
    // A second call without `zero_grad` adds a second copy of each
    // gradient onto the first.
    let want_twice: Vec<Vec<u32>> = grads
        .iter()
        .map(|g| {
            let mut twice = g.clone();
            twice.add_assign(g);
            bits(&twice)
        })
        .collect();
    for tier in tiers() {
        let case = format!("{case} tier {}", tier.name());
        simd::with_forced_tier(tier, || {
            with_inline_kernels(|| {
                let (inf_logits, inf_values) = net.forward_inference(&obs);
                assert_eq!(bits(&inf_logits), bits(&logits), "{case}: inference logits");
                assert_eq!(
                    inf_values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{case}: inference values"
                );
                net.zero_grad();
                net.train_batch(&obs, &mut |i, l, v| {
                    assert_eq!(
                        l.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        bits(&Matrix::from_row(logits.row(i))),
                        "{case}: training logits row {i}"
                    );
                    assert_eq!(v.to_bits(), values[i].to_bits(), "{case}: value row {i}");
                    row_grad(i, l, v)
                });
                let got = grad_bits(&mut net);
                for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(g == w, "{case}: gradient tensor {t} differs");
                }
                net.train_batch(&obs, &mut row_grad);
                let got = grad_bits(&mut net);
                for (t, (g, w)) in got.iter().zip(&want_twice).enumerate() {
                    assert!(g == w, "{case}: accumulated gradient tensor {t} differs");
                }
            })
        });
    }
}

#[test]
fn train_batch_matches_the_reference_backprop_bit_for_bit() {
    let mut seed = 0;
    for kind in [
        ActivationKind::Tanh,
        ActivationKind::Relu,
        ActivationKind::Gelu,
    ] {
        for hidden in [1, 7, 16, 17, 64] {
            for actions in [1, 2, 11, 16, 17] {
                for rows in [1, 3, 4, 5, 32] {
                    for style in ["onehot", "mixed", "dense"] {
                        seed += 1;
                        check(kind, hidden, actions, rows, style, seed);
                    }
                }
            }
        }
    }
}

#[test]
fn train_batch_matches_the_reference_at_the_table4_shape() {
    // The trained shape: a 384-wide one-hot window, 64x64 tanh trunk,
    // 11 actions, 32-row shards.
    let mut rng = StdRng::seed_from_u64(7);
    let mut obs = Matrix::zeros(32, 384);
    for r in 0..32 {
        for token in 0..rng.gen_range(1..=24usize) {
            obs[(r, token * 16 + rng.gen_range(0..3usize))] = 1.0;
            obs[(r, token * 16 + 3 + rng.gen_range(0..11usize))] = 1.0;
            obs[(r, token * 16 + 14)] = (token as f32 + 1.0) / 24.0;
        }
    }
    let cfg = MlpConfig::new(384, 11).with_hidden(vec![64, 64]);
    let mut net = MlpPolicy::new(&cfg, &mut rng);
    let params = param_values(&mut net);
    let (_, _, grads) = reference(&params, ActivationKind::Tanh, &obs);
    net.zero_grad();
    net.train_batch(&obs, &mut row_grad);
    let want: Vec<Vec<u32>> = grads.iter().map(bits).collect();
    assert!(grad_bits(&mut net) == want);
}
