//! Element-wise activation layers.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// The supported activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivationKind {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

impl ActivationKind {
    fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Gelu => {
                let c = (2.0 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + (c * (x + 0.044_715 * x * x * x)).tanh())
            }
        }
    }

    /// Whether the backward pass runs from the forward *output* (ReLU,
    /// tanh: `f'` is a function of `f(x)`) rather than the input (GELU).
    fn backward_from_output(self) -> bool {
        !matches!(self, ActivationKind::Gelu)
    }

    /// `f'` at one element, from the value the forward pass cached: the
    /// output `y = f(x)` for ReLU and tanh, the input `x` for GELU.
    /// `y > 0` exactly when `x > 0`, and `1 - y*y` is tanh's `1 - t*t`
    /// with `t` the very `x.tanh()` the forward computed, so both match
    /// the input-side derivative bit for bit.
    fn derivative(self, cached: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if cached > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - cached * cached,
            ActivationKind::Gelu => {
                let x = cached;
                let c = (2.0 / std::f32::consts::PI).sqrt();
                let inner = c * (x + 0.044_715 * x * x * x);
                let t = inner.tanh();
                let dinner = c * (1.0 + 3.0 * 0.044_715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            }
        }
    }
}

/// An element-wise activation layer. A training forward caches its output
/// (ReLU, tanh) or its input (GELU): whichever the derivative needs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Activation {
    kind: ActivationKind,
    cached: Option<Matrix>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, cached: None }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// Forward pass, caching what the backward pass needs.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = self.forward_inference(x);
        self.cached = Some(if self.kind.backward_from_output() {
            y.clone()
        } else {
            x.clone()
        });
        y
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.map(|v| self.kind.apply(v))
    }

    /// Backward pass: `dx = dy * f'(x)`, computed in place in `dy`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&self, mut dy: Matrix) -> Matrix {
        let cached = self
            .cached
            .as_ref()
            .expect("Activation::backward called before forward");
        assert_eq!(
            (dy.rows(), dy.cols()),
            (cached.rows(), cached.cols()),
            "activation backward shape mismatch"
        );
        for (d, &c) in dy.as_mut_slice().iter_mut().zip(cached.as_slice()) {
            *d *= self.kind.derivative(c);
        }
        dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut a = Activation::new(ActivationKind::Relu);
        let y = a.forward(&Matrix::from_row(&[-1.0, 0.0, 2.0]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn tanh_bounds() {
        let mut a = Activation::new(ActivationKind::Tanh);
        let y = a.forward(&Matrix::from_row(&[-100.0, 0.0, 100.0]));
        assert!((y.as_slice()[0] + 1.0).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 0.0);
        assert!((y.as_slice()[2] - 1.0).abs() < 1e-6);
    }

    fn grad_check(kind: ActivationKind) {
        let mut a = Activation::new(kind);
        // Avoid x = 0: ReLU is non-differentiable there and the central
        // finite difference would disagree with the subgradient we return.
        let xs = [-1.5f32, -0.3, 0.1, 0.4, 2.0];
        let x = Matrix::from_row(&xs);
        a.forward(&x);
        let dy = Matrix::full(1, xs.len(), 1.0);
        let dx = a.backward(dy);
        let eps = 1e-3;
        for (i, &xv) in xs.iter().enumerate() {
            let lp = kind.apply(xv + eps);
            let lm = kind.apply(xv - eps);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[i]).abs() < 1e-2,
                "{kind:?} grad at {xv}: numeric {numeric} vs {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn gradient_check_relu() {
        grad_check(ActivationKind::Relu);
    }

    #[test]
    fn gradient_check_tanh() {
        grad_check(ActivationKind::Tanh);
    }

    #[test]
    fn gradient_check_gelu() {
        grad_check(ActivationKind::Gelu);
    }

    /// `f'(x)` from the input: the derivative the backward pass computed
    /// before it ran from the cached output for ReLU and tanh.
    fn derivative_of_input(kind: ActivationKind, x: f32) -> f32 {
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
            ActivationKind::Gelu => kind.derivative(x),
        }
    }

    #[test]
    fn backward_from_the_cache_matches_the_input_derivative_bitwise() {
        let specials = [0.0f32, -0.0, 1e-30, -1e-30, 20.0, -20.0, f32::NAN];
        let ordinary = [0.5f32, -0.5, 3.0, -3.0];
        let xs: Vec<f32> = specials.iter().chain(&ordinary).copied().collect();
        let dys = [1.0f32, -0.75, 2.5e-3, -0.0, f32::NAN];
        let x_row: Vec<f32> = dys.iter().flat_map(|_| xs.iter().copied()).collect();
        let dy_row: Vec<f32> = dys
            .iter()
            .flat_map(|&d| xs.iter().map(move |_| d))
            .collect();
        let x = Matrix::from_row(&x_row);
        let dy = Matrix::from_row(&dy_row);
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Tanh,
            ActivationKind::Gelu,
        ] {
            let mut a = Activation::new(kind);
            a.forward(&x);
            let got = a.backward(dy.clone());
            let want = dy.hadamard(&x.map(|v| derivative_of_input(kind, v)));
            for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{kind:?} at x = {}, dy = {}: {g} vs {w}",
                    x_row[i],
                    dy_row[i]
                );
            }
        }
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0, GELU is odd-ish around zero and approx x for large x.
        assert!(ActivationKind::Gelu.apply(0.0).abs() < 1e-7);
        assert!((ActivationKind::Gelu.apply(10.0) - 10.0).abs() < 1e-3);
        assert!(ActivationKind::Gelu.apply(-10.0).abs() < 1e-3);
    }
}
