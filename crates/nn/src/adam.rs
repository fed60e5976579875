//! The Adam optimiser with global-norm gradient clipping.

use crate::tensor::Tensor;

/// Adam optimiser state (β₁/β₂ schedules shared across all tensors).
///
/// The paper trains both the instruction generator and the predictor with a
/// learning rate of `1e-4` (§V-A); [`Adam::paper_default`] encodes that.
///
/// # Examples
///
/// ```
/// use hfl_nn::{Adam, Tensor};
///
/// let mut t = Tensor::zeros(2, 2);
/// t.grad = vec![1.0; 4];
/// let mut adam = Adam::new(0.1);
/// adam.step(&mut [&mut t]);
/// assert!(t.data().iter().all(|&w| w < 0.0), "moved against the gradient");
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical fuzz.
    pub eps: f32,
    /// Global-norm clip threshold (`None` disables clipping).
    pub clip_norm: Option<f32>,
    t: u64,
}

impl Adam {
    /// Creates an optimiser with standard β parameters.
    #[must_use]
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: Some(5.0),
            t: 0,
        }
    }

    /// The paper's configuration: learning rate `1e-4`.
    #[must_use]
    pub fn paper_default() -> Adam {
        Adam::new(1e-4)
    }

    /// Number of update steps taken.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Restores the step counter from a checkpoint so bias correction
    /// resumes on the exact same schedule.
    pub fn restore_steps(&mut self, t: u64) {
        self.t = t;
    }

    /// Applies one update to every tensor and clears their gradients.
    pub fn step(&mut self, params: &mut [&mut Tensor]) {
        self.t += 1;
        // Global-norm clipping across all tensors.
        let scale = match self.clip_norm {
            Some(max) => {
                let norm: f32 = grad_norms_sq(params).iter().sum::<f32>().sqrt();
                if norm > max && norm > 0.0 {
                    max / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for p in params.iter_mut() {
            // One zipped pass per tensor: update, then clear the gradient.
            // Every element is independent, so the compiler vectorises it
            // with no reassociation (sqrt and division are exact per lane).
            let (data, grad, m, v) = p.state_mut();
            for (((w, g), m), v) in data.iter_mut().zip(grad).zip(m).zip(v) {
                let gs = *g * scale;
                *m = beta1 * *m + (1.0 - beta1) * gs;
                *v = beta2 * *v + (1.0 - beta2) * gs * gs;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
                *g = 0.0;
            }
        }
    }
}

/// Every tensor's [`Tensor::grad_norm_sq`], bit for bit: each is still
/// one chain of additions over its own elements in order. A chain is
/// bound by the latency of each addition, so the tensors run four at a
/// time, longest first, with the four chains interleaved over their common
/// length.
fn grad_norms_sq(params: &[&mut Tensor]) -> Vec<f32> {
    let mut sums: Vec<f32> = vec![0.0; params.len()];
    let mut order: Vec<usize> = (0..params.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(params[i].grad.len()));
    for group in order.chunks(4) {
        let grads: Vec<&[f32]> = group.iter().map(|&i| &params[i].grad[..]).collect();
        let mut acc = [0.0f32; 4];
        let mut done = 0;
        if let [a, b, c, d] = grads[..] {
            let n = d.len();
            for (((a, b), c), d) in a[..n].iter().zip(&b[..n]).zip(&c[..n]).zip(d) {
                acc[0] += a * a;
                acc[1] += b * b;
                acc[2] += c * c;
                acc[3] += d * d;
            }
            done = n;
        }
        for ((&i, g), acc) in group.iter().zip(&grads).zip(&mut acc) {
            // An empty gradient keeps `grad_norm_sq`'s own empty sum.
            sums[i] = if g.is_empty() {
                params[i].grad_norm_sq()
            } else {
                g[done..].iter().fold(*acc, |s, v| s + v * v)
            };
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adam must minimise a simple quadratic.
    #[test]
    fn minimises_a_quadratic() {
        let mut t = Tensor::from_vec(1, 2, vec![5.0, -3.0]);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            // L = 0.5 * ||x - [1, 2]||^2, grad = x - [1,2]
            t.grad[0] = t.data()[0] - 1.0;
            t.grad[1] = t.data()[1] - 2.0;
            adam.step(&mut [&mut t]);
        }
        assert!((t.data()[0] - 1.0).abs() < 0.05, "{:?}", t.data());
        assert!((t.data()[1] - 2.0).abs() < 0.05, "{:?}", t.data());
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn step_clears_gradients() {
        let mut t = Tensor::zeros(1, 2);
        t.grad = vec![1.0, 1.0];
        let mut adam = Adam::new(0.01);
        adam.step(&mut [&mut t]);
        assert_eq!(t.grad, vec![0.0, 0.0]);
    }

    #[test]
    fn clipping_bounds_the_update() {
        let mut a = Tensor::zeros(1, 1);
        let mut b = Tensor::zeros(1, 1);
        a.grad = vec![1e6];
        b.grad = vec![1e6];
        let mut adam = Adam::new(0.1);
        adam.clip_norm = Some(1.0);
        adam.step(&mut [&mut a, &mut b]);
        // With clipping, the first-step Adam update is bounded by lr.
        assert!(a.data()[0].abs() <= 0.11, "{}", a.data()[0]);
    }

    #[test]
    fn unclipped_huge_gradient_still_bounded_by_adam() {
        // Adam's normalisation bounds the per-step move to ~lr regardless.
        let mut t = Tensor::zeros(1, 1);
        t.grad = vec![1e9];
        let mut adam = Adam::new(0.01);
        adam.clip_norm = None;
        adam.step(&mut [&mut t]);
        assert!(t.data()[0].abs() <= 0.011);
    }

    #[test]
    fn paper_default_learning_rate() {
        let adam = Adam::paper_default();
        assert!((adam.lr - 1e-4).abs() < 1e-9);
    }
}
