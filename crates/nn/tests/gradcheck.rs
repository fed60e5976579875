//! Finite-difference gradient checks through the crate's *public* API —
//! the in-module unit tests check internals, these pin the exported
//! surface: `Lstm::backward_seq`, `Linear::backward`,
//! `Embedding::backward` and the direction of an `Adam` step.
//!
//! Every check compares a central difference against the analytic
//! gradient with [`assert_gradient`]: a relative tolerance over a small
//! absolute noise floor, and agreement in sign wherever the analytic
//! gradient stands above that floor. The gradients checked here are of
//! order 1e-3, so an absolute tolerance would pass a numeric gradient of
//! exactly zero, which is what a forward pass reading stale weights
//! produces.

use hfl_nn::{Adam, Embedding, Linear, Lstm, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f32 = 1e-2;
/// Allowed relative error of the numeric gradient. The largest seen on
/// these losses is 1.3e-3 (the `EPS²` truncation term).
const RTOL: f32 = 0.02;
/// Absolute noise floor of an f32 central difference on these losses:
/// the largest disagreement seen below a gradient of 1e-4 is 7e-9.
const NOISE: f32 = 1e-6;

/// Asserts that `numeric` matches `analytic` within `RTOL` relative error
/// plus the `NOISE` floor, and has the same sign when `|analytic|` is above
/// the floor.
fn assert_gradient(what: &str, analytic: f32, numeric: f32) {
    assert!(
        (numeric - analytic).abs() <= RTOL * analytic.abs() + NOISE,
        "{what}: analytic {analytic} vs numeric {numeric}"
    );
    if analytic.abs() > NOISE {
        assert_eq!(
            numeric.is_sign_positive(),
            analytic.is_sign_positive(),
            "{what}: analytic {analytic} and numeric {numeric} disagree in sign"
        );
    }
}

/// Central difference of `loss` in element `idx` of the tensor `pick`
/// selects, restoring the element afterwards.
fn numeric_gradient<M>(
    model: &mut M,
    pick: impl Fn(&mut M) -> &mut Tensor,
    idx: usize,
    loss: impl Fn(&M) -> f32,
) -> f32 {
    let orig = pick(model).data()[idx];
    pick(model).data_mut()[idx] = orig + EPS;
    let lp = loss(model);
    pick(model).data_mut()[idx] = orig - EPS;
    let lm = loss(model);
    pick(model).data_mut()[idx] = orig;
    (lp - lm) / (2.0 * EPS)
}

fn toy_sequence(seq: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..seq)
        .map(|t| {
            (0..dim)
                .map(|i| ((t * dim + i) as f32 * 0.61).cos() * 0.4)
                .collect()
        })
        .collect()
}

/// Half the squared norm of every timestep's top hidden vector, so
/// dL/dh_t = h_t.
fn lstm_loss(l: &Lstm, xs: &[Vec<f32>]) -> f32 {
    l.forward_seq(xs)
        .outputs
        .iter()
        .flat_map(|h| h.iter())
        .map(|v| v * v)
        .sum::<f32>()
        * 0.5
}

#[test]
fn lstm_backward_seq_matches_finite_differences() {
    let mut lstm = Lstm::new(3, 4, 2, &mut StdRng::seed_from_u64(11));
    let xs = toy_sequence(4, 3);
    let trace = lstm.forward_seq(&xs);
    let d_out = trace.outputs.clone();
    let dxs = lstm.backward_seq(&trace, &d_out);

    // Every parameter tensor of every layer, sampled for speed.
    fn tensor_of(l: &mut Lstm, layer: usize, t_idx: usize) -> &mut Tensor {
        match t_idx {
            0 => &mut l.cells[layer].wx,
            1 => &mut l.cells[layer].wh,
            _ => &mut l.cells[layer].b,
        }
    }
    for layer in 0..lstm.layers() {
        for (t_idx, stride) in [(0usize, 7usize), (1, 5), (2, 3)] {
            let len = tensor_of(&mut lstm, layer, t_idx).len();
            for idx in (0..len).step_by(stride) {
                let analytic = tensor_of(&mut lstm, layer, t_idx).grad[idx];
                let numeric = numeric_gradient(
                    &mut lstm,
                    |l| tensor_of(l, layer, t_idx),
                    idx,
                    |l| lstm_loss(l, &xs),
                );
                assert_gradient(
                    &format!("layer {layer} tensor {t_idx} [{idx}]"),
                    analytic,
                    numeric,
                );
            }
        }
    }
    // Input gradients.
    for (t, x) in xs.iter().enumerate() {
        for i in 0..x.len() {
            let mut xp = xs.clone();
            xp[t][i] += EPS;
            let mut xm = xs.clone();
            xm[t][i] -= EPS;
            let numeric = (lstm_loss(&lstm, &xp) - lstm_loss(&lstm, &xm)) / (2.0 * EPS);
            assert_gradient(&format!("dx[{t}][{i}]"), dxs[t][i], numeric);
        }
    }
}

#[test]
fn linear_backward_matches_finite_differences() {
    let mut layer = Linear::new(4, 3, &mut StdRng::seed_from_u64(21));
    let x = vec![0.7f32, -0.2, 0.4];
    let loss =
        |l: &Linear, x: &[f32]| -> f32 { l.forward(x).iter().map(|y| y * y).sum::<f32>() * 0.5 };
    let y = layer.forward(&x);
    let dx = layer.backward(&x, &y);

    for idx in 0..layer.w.len() {
        let numeric = numeric_gradient(&mut layer, |l| &mut l.w, idx, |l| loss(l, &x));
        assert_gradient(&format!("w[{idx}]"), layer.w.grad[idx], numeric);
    }
    for idx in 0..layer.b.len() {
        let numeric = numeric_gradient(&mut layer, |l| &mut l.b, idx, |l| loss(l, &x));
        assert_gradient(&format!("b[{idx}]"), layer.b.grad[idx], numeric);
    }
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp[i] += EPS;
        let mut xm = x.clone();
        xm[i] -= EPS;
        let numeric = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * EPS);
        assert_gradient(&format!("dx[{i}]"), dx[i], numeric);
    }
}

#[test]
fn embedding_backward_matches_finite_differences() {
    let mut emb = Embedding::new(6, 5, &mut StdRng::seed_from_u64(31));
    let token = 4usize;
    let loss = |e: &Embedding| -> f32 { e.forward(token).iter().map(|v| v * v).sum::<f32>() * 0.5 };
    let dvec = emb.forward(token); // dL/dvec = vec for this loss
    emb.backward(token, &dvec);

    for idx in 0..emb.table.len() {
        let numeric = numeric_gradient(&mut emb, |e| &mut e.table, idx, loss);
        assert_gradient(&format!("table[{idx}]"), emb.table.grad[idx], numeric);
    }
    // Rows other than the looked-up token carry exactly zero gradient.
    let dim = emb.dim();
    for row in 0..emb.vocab() {
        let zero = emb.table.grad[row * dim..(row + 1) * dim]
            .iter()
            .all(|&g| g == 0.0);
        assert_eq!(zero, row != token, "row {row}");
    }
    // Wrapped ids scatter into the same row.
    emb.table.zero_grad();
    emb.backward(token + emb.vocab(), &dvec);
    let wrapped = emb.table.grad[token * dim..(token + 1) * dim].to_vec();
    assert_eq!(wrapped, dvec);
}

#[test]
fn adam_first_step_moves_against_the_gradient_at_lr_scale() {
    // On the first step, mhat/√vhat = sign(g), so every coordinate moves
    // by ≈ lr against its gradient — regardless of the gradient's size.
    let lr = 0.05f32;
    let mut t = Tensor::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]);
    t.grad = vec![10.0, -0.003, 7.5, -42.0];
    let before = t.data().to_vec();
    let grad = t.grad.clone();
    let mut adam = Adam::new(lr);
    adam.clip_norm = None;
    adam.step(&mut [&mut t]);
    for i in 0..4 {
        let moved = t.data()[i] - before[i];
        assert!(
            moved * grad[i] < 0.0,
            "coordinate {i} moved with the gradient: Δ={moved}, g={}",
            grad[i]
        );
        assert!(
            (moved.abs() - lr).abs() < 0.1 * lr,
            "coordinate {i} step size {} not ≈ lr {lr}",
            moved.abs()
        );
    }
    assert_eq!(t.grad, vec![0.0; 4], "step clears gradients");
    assert_eq!(adam.steps(), 1);
}

#[test]
fn adam_descends_a_loss_through_a_linear_layer() {
    // End-to-end: Adam + Linear::backward reduce a regression loss.
    let mut rng = StdRng::seed_from_u64(41);
    let mut layer = Linear::new(2, 2, &mut rng);
    let mut adam = Adam::new(0.05);
    let x = vec![1.0f32, -1.0];
    let target = vec![0.3f32, -0.7];
    let loss_of = |l: &Linear| -> f32 {
        l.forward(&x)
            .iter()
            .zip(&target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f32>()
            * 0.5
    };
    let initial = loss_of(&layer);
    for _ in 0..200 {
        let y = layer.forward(&x);
        let dy: Vec<f32> = y.iter().zip(&target).map(|(y, t)| y - t).collect();
        let _ = layer.backward(&x, &dy);
        adam.step(&mut layer.params_mut());
    }
    let trained = loss_of(&layer);
    assert!(
        trained < initial * 0.01,
        "loss {initial} -> {trained}: no convergence"
    );
}
