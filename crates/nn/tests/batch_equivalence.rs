//! Property tests for the batched hot paths: every batched forward
//! (`Linear::forward_batch`, `Embedding::lookup_batch`, `Lstm::step_batch`)
//! must be *bitwise* identical to the scalar path it replaces, across
//! random shapes and seeds, before and after optimiser steps (which drop
//! the cached transposed weights). The window-at-a-time learner step
//! (`Lstm::forward_seq`/`backward_seq`, the fused `Adam::step`) must be
//! bitwise identical to step-major and element-loop references written
//! here from the one-vector primitives (`matvec`, `matvec_t`,
//! `grad_outer`). A finite-difference gradient check evaluates the loss
//! *through* the batched forward, pinning the analytic gradients to the
//! batched computation.

use hfl_nn::ops::{dsigmoid, dtanh, sigmoid};
use hfl_nn::{Adam, Linear, Lstm, Scratch, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Like [`random_vec`], but about a third of the entries are exact zeros
/// (the skipped rows of `matvec_t` and `grad_outer`), and with
/// `zero_step` the whole vector is zero (an unused timestep).
fn sparse_vec(rng: &mut StdRng, n: usize, zero_step: bool) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if zero_step || rng.gen_range(0..3u32) == 0 {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One `(timestep, layer)` of the step-major reference forward.
struct RefStep {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    c: Vec<f32>,
}

/// The step-major LSTM forward: timestep outer, layer inner, row-major
/// `matvec` for both products. Returns the saved steps (`[t][layer]`) and
/// the top-layer outputs.
fn reference_forward(lstm: &Lstm, xs: &[Vec<f32>]) -> (Vec<Vec<RefStep>>, Vec<Vec<f32>>) {
    let mut h_state: Vec<Vec<f32>> = lstm.cells.iter().map(|c| vec![0.0; c.hidden()]).collect();
    let mut c_state = h_state.clone();
    let mut steps = Vec::new();
    let mut outputs = Vec::new();
    for x in xs {
        let mut input = x.clone();
        let mut layers = Vec::new();
        for (l, cell) in lstm.cells.iter().enumerate() {
            let h = cell.hidden();
            let mut z = cell.wx.matvec(&input);
            let zh = cell.wh.matvec(&h_state[l]);
            for ((zv, zhv), bv) in z.iter_mut().zip(&zh).zip(cell.b.data()) {
                *zv += zhv + bv;
            }
            let i: Vec<f32> = z[..h].iter().map(|&v| sigmoid(v)).collect();
            let f: Vec<f32> = z[h..2 * h].iter().map(|&v| sigmoid(v)).collect();
            let g: Vec<f32> = z[2 * h..3 * h].iter().map(|v| v.tanh()).collect();
            let o: Vec<f32> = z[3 * h..].iter().map(|&v| sigmoid(v)).collect();
            let c: Vec<f32> = (0..h).map(|k| f[k] * c_state[l][k] + i[k] * g[k]).collect();
            let hout: Vec<f32> = (0..h).map(|k| o[k] * c[k].tanh()).collect();
            layers.push(RefStep {
                x: input,
                h_prev: h_state[l].clone(),
                c_prev: c_state[l].clone(),
                i,
                f,
                g,
                o,
                c: c.clone(),
            });
            h_state[l] = hout.clone();
            c_state[l] = c;
            input = hout;
        }
        steps.push(layers);
        outputs.push(input);
    }
    (steps, outputs)
}

/// The step-major BPTT: timesteps last to first, layers top to bottom,
/// one `grad_outer`/`matvec_t` per product per step. Returns the input
/// gradients.
fn reference_backward(
    lstm: &mut Lstm,
    steps: &[Vec<RefStep>],
    d_outputs: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    let mut dh_next: Vec<Vec<f32>> = lstm.cells.iter().map(|c| vec![0.0; c.hidden()]).collect();
    let mut dc_next = dh_next.clone();
    let mut dxs = vec![Vec::new(); steps.len()];
    for t in (0..steps.len()).rev() {
        let mut d_above = d_outputs[t].clone();
        for l in (0..lstm.cells.len()).rev() {
            let s = &steps[t][l];
            let cell = &mut lstm.cells[l];
            let h = cell.hidden();
            let mut dh = d_above;
            for (a, b) in dh.iter_mut().zip(&dh_next[l]) {
                *a += b;
            }
            let mut dz = vec![0.0f32; 4 * h];
            let mut dc_prev = vec![0.0f32; h];
            for k in 0..h {
                let tc = s.c[k].tanh();
                let d_o = dh[k] * tc;
                let dc = dc_next[l][k] + dh[k] * s.o[k] * dtanh(tc);
                dz[k] = dc * s.g[k] * dsigmoid(s.i[k]);
                dz[h + k] = dc * s.c_prev[k] * dsigmoid(s.f[k]);
                dz[2 * h + k] = dc * s.i[k] * dtanh(s.g[k]);
                dz[3 * h + k] = d_o * dsigmoid(s.o[k]);
                dc_prev[k] = dc * s.f[k];
            }
            cell.wx.grad_outer(&dz, &s.x);
            cell.wh.grad_outer(&dz, &s.h_prev);
            for (gb, d) in cell.b.grad.iter_mut().zip(&dz) {
                *gb += d;
            }
            d_above = cell.wx.matvec_t(&dz);
            dh_next[l] = cell.wh.matvec_t(&dz);
            dc_next[l] = dc_prev;
        }
        dxs[t] = d_above;
    }
    dxs
}

/// Every parameter tensor's weights and gradient, as bits.
fn param_bits(lstm: &mut Lstm) -> Vec<(Vec<u32>, Vec<u32>)> {
    lstm.params_mut()
        .iter()
        .map(|p| (bits(p.data()), bits(&p.grad)))
        .collect()
}

/// Runs one forward/backward of `xs` on `fast` (the crate's path) and
/// `slow` (the reference) and asserts outputs, input gradients and every
/// accumulated parameter gradient agree bit for bit.
fn assert_window_matches(
    fast: &mut Lstm,
    slow: &mut Lstm,
    xs: &[Vec<f32>],
    d_outputs: &[Vec<f32>],
) -> Result<(), String> {
    let trace = fast.forward_seq(xs);
    let (steps, outputs) = reference_forward(slow, xs);
    for (t, (a, b)) in trace.outputs.iter().zip(&outputs).enumerate() {
        prop_assert_eq!(bits(a), bits(b), "forward output at step {}", t);
    }
    let dxs = fast.backward_seq(&trace, d_outputs);
    let ref_dxs = reference_backward(slow, &steps, d_outputs);
    prop_assert_eq!(dxs.len(), ref_dxs.len());
    for (t, (a, b)) in dxs.iter().zip(&ref_dxs).enumerate() {
        prop_assert_eq!(bits(a), bits(b), "input gradient at step {}", t);
    }
    prop_assert_eq!(param_bits(fast), param_bits(slow), "parameter gradients");
    Ok(())
}

/// The element-loop Adam update with global-norm clipping, as the
/// optimiser's documentation states it; `t` is the step number after
/// incrementing.
fn reference_adam(adam: &Adam, t: u64, params: &mut [Tensor]) {
    let scale = match adam.clip_norm {
        Some(max) => {
            let norm: f32 = params
                .iter()
                .map(|p| p.grad.iter().map(|g| g * g).sum::<f32>())
                .sum::<f32>()
                .sqrt();
            if norm > max && norm > 0.0 {
                max / norm
            } else {
                1.0
            }
        }
        None => 1.0,
    };
    let bc1 = 1.0 - adam.beta1.powi(t as i32);
    let bc2 = 1.0 - adam.beta2.powi(t as i32);
    for p in params.iter_mut() {
        let mut data = p.data().to_vec();
        for (i, w) in data.iter_mut().enumerate() {
            let g = p.grad[i] * scale;
            p.m[i] = adam.beta1 * p.m[i] + (1.0 - adam.beta1) * g;
            p.v[i] = adam.beta2 * p.v[i] + (1.0 - adam.beta2) * g * g;
            let mhat = p.m[i] / bc1;
            let vhat = p.v[i] / bc2;
            *w -= adam.lr * mhat / (vhat.sqrt() + adam.eps);
        }
        p.data_mut().copy_from_slice(&data);
        p.zero_grad();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn linear_forward_batch_is_bitwise_identical(
        seed in any::<u64>(),
        in_dim in 1..24usize,
        out_dim in 1..24usize,
        batch in 1..9usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Linear::new(out_dim, in_dim, &mut rng);
        let xs: Vec<Vec<f32>> = (0..batch).map(|_| random_vec(&mut rng, in_dim)).collect();
        let xrefs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let mut scratch = Scratch::default();
        let batched = layer.forward_batch(&xrefs, &mut scratch);
        prop_assert_eq!(batched.len(), batch);
        for (x, b) in xs.iter().zip(&batched) {
            prop_assert_eq!(bits(&layer.forward(x)), bits(b));
        }
        // Scratch reuse must be invisible: a second pass agrees too.
        let again = layer.forward_batch(&xrefs, &mut scratch);
        for (a, b) in again.iter().zip(&batched) {
            prop_assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn linear_forward_batch_survives_adam_steps(
        seed in any::<u64>(),
        in_dim in 1..16usize,
        out_dim in 1..16usize,
    ) {
        // The transposed-weight cache must be invalidated by the optimiser
        // step, so the batched path keeps tracking the scalar one.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Linear::new(out_dim, in_dim, &mut rng);
        let mut adam = Adam::new(1e-2);
        let mut scratch = Scratch::default();
        for _ in 0..3 {
            let x = random_vec(&mut rng, in_dim);
            // Warm the cache, then train.
            let before = layer.forward_batch(&[&x], &mut scratch);
            prop_assert_eq!(bits(&layer.forward(&x)), bits(&before[0]));
            let dy = layer.forward(&x);
            let _ = layer.backward(&x, &dy);
            adam.step(&mut layer.params_mut());
            let after = layer.forward_batch(&[&x], &mut scratch);
            prop_assert_eq!(
                bits(&layer.forward(&x)),
                bits(&after[0]),
                "stale transpose cache after Adam step"
            );
        }
    }

    #[test]
    fn lstm_step_batch_is_bitwise_identical(
        seed in any::<u64>(),
        in_dim in 1..12usize,
        hidden in 1..12usize,
        layers in 1..4usize,
        batch in 1..9usize,
        warmup in 0..4usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lstm = Lstm::new(in_dim, hidden, layers, &mut rng);
        // Advance a shared state so the recurrent term is non-trivial.
        let mut state = lstm.zero_state();
        for _ in 0..warmup {
            let x = random_vec(&mut rng, in_dim);
            let _ = lstm.step(&x, &mut state);
        }
        let xs: Vec<Vec<f32>> = (0..batch).map(|_| random_vec(&mut rng, in_dim)).collect();
        let xrefs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let mut scratch = Scratch::default();
        let batched = lstm.step_batch(&xrefs, &state, &mut scratch);
        prop_assert_eq!(batched.len(), batch);
        for (x, b) in xs.iter().zip(&batched) {
            // The scalar reference: each candidate continues from a clone
            // of the shared state.
            let mut st = state.clone();
            prop_assert_eq!(bits(&lstm.step(x, &mut st)), bits(b));
        }
    }

    #[test]
    fn lstm_window_step_matches_the_step_major_reference(
        seed in any::<u64>(),
        in_dim in 1..20usize,
        hidden in 1..20usize,
        layers in 1..4usize,
        seq in 1..9usize,
    ) {
        // Hidden sizes up to 19 give 4H up to 76 gate rows: full and tail
        // lane blocks in every kernel. Sequence length 1 has no recurrence.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fast = Lstm::new(in_dim, hidden, layers, &mut rng);
        let mut slow = fast.clone();
        let xs: Vec<Vec<f32>> = (0..seq).map(|_| random_vec(&mut rng, in_dim)).collect();
        let d_out: Vec<Vec<f32>> = (0..seq)
            .map(|t| sparse_vec(&mut rng, hidden, t % 3 == 1))
            .collect();
        assert_window_matches(&mut fast, &mut slow, &xs, &d_out)?;
    }

    #[test]
    fn lstm_windows_accumulate_and_train_like_the_reference(
        seed in any::<u64>(),
        in_dim in 1..12usize,
        hidden in 1..18usize,
        layers in 1..3usize,
    ) {
        // Two backward calls accumulate into the same gradients before one
        // Adam step; three such rounds check that every forward after a
        // step reads the updated weights.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fast = Lstm::new(in_dim, hidden, layers, &mut rng);
        let mut slow = fast.clone();
        let mut fast_adam = Adam::new(1e-2);
        let mut slow_adam = Adam::new(1e-2);
        for round in 0..3 {
            for _ in 0..2 {
                let seq = rng.gen_range(1..7usize);
                let xs: Vec<Vec<f32>> =
                    (0..seq).map(|_| random_vec(&mut rng, in_dim)).collect();
                let d_out: Vec<Vec<f32>> = (0..seq)
                    .map(|_| sparse_vec(&mut rng, hidden, false))
                    .collect();
                assert_window_matches(&mut fast, &mut slow, &xs, &d_out)?;
            }
            fast_adam.step(&mut fast.params_mut());
            slow_adam.step(&mut slow.params_mut());
            prop_assert_eq!(param_bits(&mut fast), param_bits(&mut slow), "after Adam step {}", round);
        }
    }

    #[test]
    fn fused_adam_step_matches_the_element_loop(
        seed in any::<u64>(),
        rows in 1..40usize,
        cols in 1..24usize,
        clip in 0..3usize,
    ) {
        // clip 0: no clipping; 1: a threshold above the gradient norm
        // (inactive); 2: one below it (active, every gradient scaled).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fused: Vec<Tensor> = [(rows, cols), (rows, 1), (1, cols)]
            .into_iter()
            .map(|(r, c)| Tensor::xavier(r, c, &mut rng))
            .collect();
        let mut reference = fused.clone();
        let mut adam = Adam::new(1e-2);
        for _ in 0..3 {
            for (a, b) in fused.iter_mut().zip(&mut reference) {
                a.grad = random_vec(&mut rng, a.len());
                b.grad = a.grad.clone();
            }
            let norm = fused
                .iter()
                .map(Tensor::grad_norm_sq)
                .sum::<f32>()
                .sqrt();
            adam.clip_norm = match clip {
                0 => None,
                1 => Some(norm * 2.0),
                _ => Some(norm * 0.5),
            };
            adam.step(&mut fused.iter_mut().collect::<Vec<_>>());
            reference_adam(&adam, adam.steps(), &mut reference);
            for (a, b) in fused.iter().zip(&reference) {
                prop_assert_eq!(bits(a.data()), bits(b.data()), "weights");
                prop_assert_eq!(bits(&a.m), bits(&b.m), "first moment");
                prop_assert_eq!(bits(&a.v), bits(&b.v), "second moment");
                prop_assert_eq!(bits(&a.grad), bits(&b.grad), "cleared gradient");
            }
        }
    }
}

#[test]
fn embedding_lookup_batch_matches_forward() {
    let mut rng = StdRng::seed_from_u64(11);
    let emb = hfl_nn::Embedding::new(17, 6, &mut rng);
    let ids: Vec<usize> = (0..40).map(|_| rng.gen_range(0..64usize)).collect();
    let batched = emb.lookup_batch(&ids);
    for (&id, b) in ids.iter().zip(&batched) {
        assert_eq!(
            bits(&emb.forward(id)),
            bits(b),
            "id {id} (wrapping) diverged"
        );
    }
}

/// Finite-difference gradient check where the loss is evaluated through the
/// *batched* forward: `L = ½ Σ_b ‖forward_batch(x)_b‖²`. The analytic
/// gradients come from the scalar backward — since the batched forward is
/// bitwise identical to the scalar one, they must agree with the numeric
/// derivative of the batched loss (the criterion of `tests/gradcheck.rs`:
/// 2% relative over a 1e-6 floor, same sign above the floor). Each
/// perturbation goes through `data_mut`, which drops the transposed copy
/// the batched forward reads.
#[test]
fn gradcheck_through_the_batched_forward() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut layer = Linear::new(3, 5, &mut rng);
    let xs: Vec<Vec<f32>> = (0..4).map(|_| random_vec(&mut rng, 5)).collect();
    let mut scratch = Scratch::default();
    let batched_loss = |l: &Linear, scratch: &mut Scratch| -> f32 {
        let xrefs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        l.forward_batch(&xrefs, scratch)
            .iter()
            .flat_map(|y| y.iter().map(|v| v * v))
            .sum::<f32>()
            * 0.5
    };
    // Analytic gradients via the scalar backward (dL/dy = y).
    for x in &xs {
        let y = layer.forward(x);
        let _ = layer.backward(x, &y);
    }
    let eps = 1e-2;
    let noise = 1e-6;
    for idx in 0..layer.w.len() {
        let orig = layer.w.data()[idx];
        layer.w.data_mut()[idx] = orig + eps;
        let lp = batched_loss(&layer, &mut scratch);
        layer.w.data_mut()[idx] = orig - eps;
        let lm = batched_loss(&layer, &mut scratch);
        layer.w.data_mut()[idx] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = layer.w.grad[idx];
        assert!(
            (numeric - analytic).abs() <= 0.02 * analytic.abs() + noise,
            "w[{idx}]: analytic {analytic} vs numeric {numeric} through the batched path"
        );
        assert!(
            analytic.abs() <= noise || numeric.is_sign_positive() == analytic.is_sign_positive(),
            "w[{idx}]: analytic {analytic} and numeric {numeric} disagree in sign"
        );
    }
}
