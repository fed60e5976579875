//! LSTM layers with full backpropagation through time (BPTT).
//!
//! The paper's generator and predictor are both two-layer LSTMs with a
//! hidden size of 256 (§V-A); this module provides the recurrent core they
//! share. Gates are packed in `[input, forget, cell, output]` order.

use rand::Rng;

use crate::ops::{dsigmoid, dtanh, sigmoid};
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// One LSTM layer's parameters.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Input weights, `4H x In`.
    pub wx: Tensor,
    /// Recurrent weights, `4H x H`.
    pub wh: Tensor,
    /// Gate biases, `4H x 1`.
    pub b: Tensor,
    hidden: usize,
}

/// Saved forward activations of one layer over a whole sequence, stored
/// step-major in flat buffers.
#[derive(Debug, Clone)]
struct LayerTrace {
    /// Activated gates `[i, f, g, o]` per step, `T x 4H`.
    gates: Vec<f32>,
    /// Cell state per step, `T x H`.
    c: Vec<f32>,
    /// `tanh` of the cell state per step, `T x H`.
    tc: Vec<f32>,
    /// Hidden output per step, `T x H` (the next layer's input).
    h: Vec<f32>,
}

impl LstmCell {
    /// Creates a cell with Xavier weights and a forget-gate bias of 1
    /// (the standard trick for stable long-range training).
    #[must_use]
    pub fn new<R: Rng>(in_dim: usize, hidden: usize, rng: &mut R) -> LstmCell {
        let mut b = Tensor::zeros(4 * hidden, 1);
        for fbias in &mut b.data_mut()[hidden..2 * hidden] {
            *fbias = 1.0;
        }
        LstmCell {
            wx: Tensor::xavier(4 * hidden, in_dim, rng),
            wh: Tensor::xavier(4 * hidden, hidden, rng),
            b,
            hidden,
        }
    }

    /// Hidden dimension.
    #[must_use]
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Rebuilds a cell from persisted tensors; `None` if the shapes are
    /// inconsistent.
    #[must_use]
    pub fn from_parts(wx: Tensor, wh: Tensor, b: Tensor, hidden: usize) -> Option<LstmCell> {
        let ok = wx.rows == 4 * hidden
            && wh.rows == 4 * hidden
            && wh.cols == hidden
            && b.rows == 4 * hidden
            && b.cols == 1;
        ok.then_some(LstmCell { wx, wh, b, hidden })
    }

    /// One streaming step: returns `(h, c)`. Row-major [`Tensor::matvec`],
    /// like every one-vector path.
    fn forward(&self, x: &[f32], h_prev: &[f32], c_prev: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let h = self.hidden;
        let mut z = self.wx.matvec(x);
        let zh = self.wh.matvec(h_prev);
        for ((zv, zhv), bv) in z.iter_mut().zip(&zh).zip(self.b.data()) {
            *zv += zhv + bv;
        }
        let mut c = vec![0.0; h];
        let mut hout = vec![0.0; h];
        gate_step(&z, c_prev, &mut c, &mut hout, None);
        (hout, c)
    }

    /// Forward over a whole sequence of `steps` inputs (`x`, step-major).
    /// The input projection of every step runs as one
    /// [`Tensor::matvec_batch`]; the recurrent product runs per step through
    /// the same column-major kernel at batch 1. Both add each output's
    /// products in [`Tensor::matvec`]'s order, and the gate arithmetic is
    /// [`LstmCell::forward`]'s, so every value is bit-identical to stepping.
    fn forward_seq(&self, x: &[f32], steps: usize) -> LayerTrace {
        let h = self.hidden;
        let mut zx = Vec::new();
        self.wx.matvec_batch(x, steps, &mut zx);
        let mut gates = vec![0.0; steps * 4 * h];
        let mut c = vec![0.0; steps * h];
        let mut tc = vec![0.0; steps * h];
        let mut hs = vec![0.0; steps * h];
        let zero = vec![0.0; h];
        let mut zh = Vec::with_capacity(4 * h);
        for t in 0..steps {
            let (c_done, c_rest) = c.split_at_mut(t * h);
            let (h_done, h_rest) = hs.split_at_mut(t * h);
            let (h_prev, c_prev) = if t == 0 {
                (&zero[..], &zero[..])
            } else {
                (&h_done[(t - 1) * h..], &c_done[(t - 1) * h..])
            };
            self.wh.matvec_batch(h_prev, 1, &mut zh);
            let z = &mut zx[t * 4 * h..(t + 1) * 4 * h];
            for ((zv, zhv), bv) in z.iter_mut().zip(&zh).zip(self.b.data()) {
                *zv += zhv + bv;
            }
            gate_step(
                z,
                c_prev,
                &mut c_rest[..h],
                &mut h_rest[..h],
                Some((
                    &mut gates[t * 4 * h..(t + 1) * 4 * h],
                    &mut tc[t * h..(t + 1) * h],
                )),
            );
        }
        LayerTrace {
            gates,
            c,
            tc,
            h: hs,
        }
    }

    /// Batched one-step forward of `batch` hypothetical continuations of a
    /// shared `(h_prev, c_prev)` state. The input-weight product runs as
    /// one fused GEMM over all inputs ([`Tensor::matvec_batch`]) and the
    /// recurrent term `Wh·h_prev + b` is computed once and shared, so the
    /// per-candidate cost drops to a single GEMM slice plus the gate
    /// non-linearities. Writes each continuation's hidden/cell vectors as
    /// consecutive chunks of `h_out`/`c_out` (cleared and resized).
    ///
    /// Bit-identical to `batch` separate streaming steps: every output
    /// element accumulates in the same order.
    ///
    /// # Panics
    /// Panics on input/state dimension mismatches.
    // Hot-path signature: flat in/out buffers avoid per-call allocation,
    // which is the whole point of this function.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_batch(
        &self,
        xs_flat: &[f32],
        batch: usize,
        h_prev: &[f32],
        c_prev: &[f32],
        h_out: &mut Vec<f32>,
        c_out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) {
        let h = self.hidden;
        assert_eq!(h_prev.len(), h, "forward_batch state dimension");
        assert_eq!(c_prev.len(), h, "forward_batch state dimension");
        let mut z = scratch.take_zeroed(0);
        self.wx.matvec_batch(xs_flat, batch, &mut z);
        // Shared recurrent contribution: the scalar path adds `zh + b` to
        // each gate pre-activation, so precombining them is exact.
        let mut zhb = self.wh.matvec(h_prev);
        for (zhv, bv) in zhb.iter_mut().zip(self.b.data()) {
            *zhv += bv;
        }
        h_out.clear();
        h_out.resize(batch * h, 0.0);
        c_out.clear();
        c_out.resize(batch * h, 0.0);
        for ((zb, hb), cb) in z
            .chunks_exact_mut(4 * h)
            .zip(h_out.chunks_exact_mut(h))
            .zip(c_out.chunks_exact_mut(h))
        {
            for (zv, zhv) in zb.iter_mut().zip(&zhb) {
                *zv += zhv;
            }
            gate_step(zb, c_prev, cb, hb, None);
        }
        scratch.give(z);
    }

    /// Backward through a whole sequence of `steps` for this layer. `x`
    /// holds the layer's inputs and `d_h` the loss gradient reaching its
    /// hidden outputs from above, both step-major; returns the gradient
    /// w.r.t. `x`, step-major.
    ///
    /// The recurrence runs first, from the last step down, and keeps every
    /// step's gate gradients. The weight and input gradients are then
    /// batched over the window. Each element still receives its additions
    /// in the order of a step-by-step backward: weight gradients add
    /// timesteps in descending order ([`Tensor::grad_outer_rev`]), and each
    /// input gradient adds gate rows in ascending order
    /// ([`Tensor::matvec_t_batch`]).
    fn backward_seq(&mut self, lt: &LayerTrace, x: &[f32], d_h: &[f32], steps: usize) -> Vec<f32> {
        let h = self.hidden;
        let zero = vec![0.0f32; h];
        let mut dz = vec![0.0f32; steps * 4 * h];
        let mut dh = vec![0.0f32; h];
        let mut dh_next = vec![0.0f32; h];
        let mut dc_next = vec![0.0f32; h];
        for t in (0..steps).rev() {
            for ((d, above), next) in dh.iter_mut().zip(&d_h[t * h..]).zip(&dh_next) {
                *d = above + next;
            }
            let gates = &lt.gates[t * 4 * h..(t + 1) * 4 * h];
            let tc = &lt.tc[t * h..(t + 1) * h];
            let c_prev = if t == 0 {
                &zero[..]
            } else {
                &lt.c[(t - 1) * h..t * h]
            };
            let dz_t = &mut dz[t * 4 * h..(t + 1) * 4 * h];
            for k in 0..h {
                let (i, f, g, o) = (gates[k], gates[h + k], gates[2 * h + k], gates[3 * h + k]);
                let d_o = dh[k] * tc[k];
                let dc = dc_next[k] + dh[k] * o * dtanh(tc[k]);
                dz_t[k] = dc * g * dsigmoid(i);
                dz_t[h + k] = dc * c_prev[k] * dsigmoid(f);
                dz_t[2 * h + k] = dc * i * dtanh(g);
                dz_t[3 * h + k] = d_o * dsigmoid(o);
                dc_next[k] = dc * f;
            }
            // The first step's recurrent gradient would flow into the zero
            // initial state, which has no parameters.
            if t > 0 {
                self.wh.matvec_t_batch(dz_t, 1, &mut dh_next);
            }
        }
        self.wx.grad_outer_rev(&dz, x, steps);
        // The recurrent input of step t is h_{t-1}, zero at the first step.
        let mut h_prev = vec![0.0f32; steps * h];
        if steps > 1 {
            h_prev[h..].copy_from_slice(&lt.h[..(steps - 1) * h]);
        }
        self.wh.grad_outer_rev(&dz, &h_prev, steps);
        for dz_t in dz.chunks_exact(4 * h).rev() {
            for (gb, d) in self.b.grad.iter_mut().zip(dz_t) {
                *gb += d;
            }
        }
        let mut dx = Vec::new();
        self.wx.matvec_t_batch(&dz, steps, &mut dx);
        dx
    }

    /// The cell's parameter tensors (for the optimiser).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }

    /// Restores optimiser buffers after deserialisation.
    pub fn ensure_buffers(&mut self) {
        self.wx.ensure_buffers();
        self.wh.ensure_buffers();
        self.b.ensure_buffers();
    }
}

/// Running hidden/cell state for streaming generation.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden vectors, one per layer.
    pub h: Vec<Vec<f32>>,
    /// Cell vectors, one per layer.
    pub c: Vec<Vec<f32>>,
}

/// Saved forward activations for a whole sequence (consumed by
/// [`Lstm::backward_seq`]).
#[derive(Debug, Clone)]
pub struct LstmTrace {
    /// The input sequence, step-major (`T x In`).
    input: Vec<f32>,
    /// Per-layer activations, bottom first.
    layers: Vec<LayerTrace>,
    /// Top-layer hidden vector at each timestep.
    pub outputs: Vec<Vec<f32>>,
}

/// A stack of LSTM layers.
///
/// # Examples
///
/// ```
/// use hfl_nn::Lstm;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let lstm = Lstm::new(8, 16, 2, &mut rng);
/// let xs = vec![vec![0.1; 8]; 5];
/// let trace = lstm.forward_seq(&xs);
/// assert_eq!(trace.outputs.len(), 5);
/// assert_eq!(trace.outputs[0].len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Lstm {
    /// The stacked cells, bottom first.
    pub cells: Vec<LstmCell>,
}

impl Lstm {
    /// Creates `layers` stacked cells mapping `in_dim` → `hidden`.
    ///
    /// # Panics
    /// Panics if `layers == 0`.
    #[must_use]
    pub fn new<R: Rng>(in_dim: usize, hidden: usize, layers: usize, rng: &mut R) -> Lstm {
        assert!(layers > 0, "at least one layer");
        let mut cells = Vec::with_capacity(layers);
        cells.push(LstmCell::new(in_dim, hidden, rng));
        for _ in 1..layers {
            cells.push(LstmCell::new(hidden, hidden, rng));
        }
        Lstm { cells }
    }

    /// Hidden dimension.
    #[must_use]
    pub fn hidden(&self) -> usize {
        self.cells[0].hidden()
    }

    /// Number of layers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.cells.len()
    }

    /// A zeroed state for streaming.
    #[must_use]
    pub fn zero_state(&self) -> LstmState {
        LstmState {
            h: self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect(),
            c: self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect(),
        }
    }

    /// One streaming step: feeds `x`, updates `state`, returns the top
    /// hidden vector. Used during generation, where no gradients flow.
    #[must_use]
    pub fn step(&self, x: &[f32], state: &mut LstmState) -> Vec<f32> {
        let mut input = x.to_vec();
        for (l, cell) in self.cells.iter().enumerate() {
            let (h, c) = cell.forward(&input, &state.h[l], &state.c[l]);
            state.h[l] = h.clone();
            state.c[l] = c;
            input = h;
        }
        input
    }

    /// Batched streaming step: treats each `xs[b]` as a hypothetical
    /// one-step continuation of the shared `state` (which is left
    /// untouched) and returns each continuation's top-layer hidden vector.
    /// Bit-identical to cloning `state` and calling [`Lstm::step`] once per
    /// input — this is the candidate-screening primitive of the fuzzing
    /// loop, costing one fused GEMM per gate block per layer instead of
    /// `B` sequential matvecs.
    ///
    /// # Panics
    /// Panics if the inputs' lengths disagree with each other or the
    /// bottom cell's input dimension.
    #[must_use]
    pub fn step_batch(
        &self,
        xs: &[&[f32]],
        state: &LstmState,
        scratch: &mut Scratch,
    ) -> Vec<Vec<f32>> {
        if xs.is_empty() {
            return Vec::new();
        }
        let batch = xs.len();
        let in_dim = self.cells[0].wx.cols;
        let mut input = scratch.take_zeroed(batch * in_dim);
        for (chunk, x) in input.chunks_exact_mut(in_dim).zip(xs) {
            assert_eq!(x.len(), in_dim, "step_batch input dimension");
            chunk.copy_from_slice(x);
        }
        let mut h_out = scratch.take_zeroed(0);
        let mut c_out = scratch.take_zeroed(0);
        for (l, cell) in self.cells.iter().enumerate() {
            cell.forward_batch(
                &input,
                batch,
                &state.h[l],
                &state.c[l],
                &mut h_out,
                &mut c_out,
                scratch,
            );
            std::mem::swap(&mut input, &mut h_out);
        }
        let top = self.cells.last().expect("at least one layer").hidden();
        let outs = input.chunks_exact(top).map(<[f32]>::to_vec).collect();
        scratch.give(input);
        scratch.give(h_out);
        scratch.give(c_out);
        outs
    }

    /// Forward over a whole sequence, saving activations for BPTT.
    ///
    /// Runs layer by layer: each layer projects the whole window's inputs
    /// in one [`Tensor::matvec_batch`] and then steps its recurrence. The
    /// outputs are bit-identical to feeding `xs` through [`Lstm::step`].
    ///
    /// # Panics
    /// Panics if an input's length differs from the bottom cell's input
    /// dimension.
    #[must_use]
    pub fn forward_seq(&self, xs: &[Vec<f32>]) -> LstmTrace {
        let steps = xs.len();
        let in_dim = self.cells[0].wx.cols;
        assert!(
            xs.iter().all(|x| x.len() == in_dim),
            "forward_seq input dimension"
        );
        let input = xs.concat();
        let mut layers: Vec<LayerTrace> = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let x = layers.last().map_or(&input[..], |below| &below.h[..]);
            let layer = cell.forward_seq(x, steps);
            layers.push(layer);
        }
        let top = layers.last().expect("at least one layer");
        let outputs = top
            .h
            .chunks_exact(self.hidden())
            .map(<[f32]>::to_vec)
            .collect();
        LstmTrace {
            input,
            layers,
            outputs,
        }
    }

    /// Backward through time. `d_outputs[t]` is the loss gradient w.r.t.
    /// the top-layer hidden vector at step `t` (zero vectors for unused
    /// steps). Returns the gradient w.r.t. each input vector.
    ///
    /// Runs layer by layer from the top (see [`LstmCell`]'s per-layer
    /// backward); every gradient is bit-identical to a step-by-step
    /// backward that visits timesteps last to first and, within a step,
    /// layers top to bottom.
    ///
    /// # Panics
    /// Panics if `d_outputs.len()` differs from the trace length, or a
    /// gradient's length from the hidden size.
    pub fn backward_seq(&mut self, trace: &LstmTrace, d_outputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let steps = trace.outputs.len();
        assert_eq!(d_outputs.len(), steps, "gradient/trace length");
        assert!(
            d_outputs.iter().all(|d| d.len() == self.hidden()),
            "gradient/hidden size"
        );
        let mut d_h = d_outputs.concat();
        for l in (0..self.cells.len()).rev() {
            let x = if l == 0 {
                &trace.input[..]
            } else {
                &trace.layers[l - 1].h[..]
            };
            d_h = self.cells[l].backward_seq(&trace.layers[l], x, &d_h, steps);
        }
        let in_dim = self.cells[0].wx.cols;
        d_h.chunks_exact(in_dim).map(<[f32]>::to_vec).collect()
    }

    /// All parameter tensors (for the optimiser).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.cells
            .iter_mut()
            .flat_map(LstmCell::params_mut)
            .collect()
    }

    /// Restores optimiser buffers after deserialisation.
    pub fn ensure_buffers(&mut self) {
        for cell in &mut self.cells {
            cell.ensure_buffers();
        }
    }
}

/// The LSTM cell update from the pre-activations `z` (`[i, f, g, o]`
/// blocks) and the previous cell state: writes the new cell state `c` and
/// hidden output `h_out`, and, when `saved` is given, the activated gates
/// and `tanh(c)` for the backward pass. Every forward path calls this, so
/// they all compute the same values.
fn gate_step(
    z: &[f32],
    c_prev: &[f32],
    c: &mut [f32],
    h_out: &mut [f32],
    mut saved: Option<(&mut [f32], &mut [f32])>,
) {
    let h = c.len();
    for k in 0..h {
        let i = sigmoid(z[k]);
        let f = sigmoid(z[h + k]);
        let g = z[2 * h + k].tanh();
        let o = sigmoid(z[3 * h + k]);
        let ck = f * c_prev[k] + i * g;
        let tc = ck.tanh();
        c[k] = ck;
        h_out[k] = o * tc;
        if let Some((gates, tcs)) = saved.as_mut() {
            gates[k] = i;
            gates[h + k] = f;
            gates[2 * h + k] = g;
            gates[3 * h + k] = o;
            tcs[k] = tc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_inputs(seq: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..seq)
            .map(|t| {
                (0..dim)
                    .map(|i| ((t * dim + i) as f32 * 0.37).sin() * 0.5)
                    .collect()
            })
            .collect()
    }

    /// Scalar test loss: half the sum of squares of every output.
    fn loss_of(lstm: &Lstm, xs: &[Vec<f32>]) -> f32 {
        lstm.forward_seq(xs)
            .outputs
            .iter()
            .flat_map(|h| h.iter())
            .map(|v| v * v)
            .sum::<f32>()
            * 0.5
    }

    #[test]
    fn shapes_and_determinism() {
        let lstm = Lstm::new(3, 5, 2, &mut StdRng::seed_from_u64(0));
        assert_eq!(lstm.hidden(), 5);
        assert_eq!(lstm.layers(), 2);
        let xs = toy_inputs(4, 3);
        let t1 = lstm.forward_seq(&xs);
        let t2 = lstm.forward_seq(&xs);
        assert_eq!(t1.outputs, t2.outputs);
        assert!(t1.outputs.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn streaming_step_matches_sequence_forward() {
        let lstm = Lstm::new(3, 4, 2, &mut StdRng::seed_from_u64(1));
        let xs = toy_inputs(6, 3);
        let trace = lstm.forward_seq(&xs);
        let mut state = lstm.zero_state();
        for (t, x) in xs.iter().enumerate() {
            let h = lstm.step(x, &mut state);
            for (a, b) in h.iter().zip(&trace.outputs[t]) {
                assert!((a - b).abs() < 1e-6, "t={t}");
            }
        }
    }

    #[test]
    fn outputs_depend_on_history() {
        let lstm = Lstm::new(2, 4, 1, &mut StdRng::seed_from_u64(2));
        let a = lstm.forward_seq(&[vec![1.0, 0.0], vec![0.0, 0.0]]);
        let b = lstm.forward_seq(&[vec![0.0, 1.0], vec![0.0, 0.0]]);
        // Same final input, different history: outputs must differ.
        assert_ne!(a.outputs[1], b.outputs[1]);
    }

    /// Asserts a central difference matches the analytic gradient: within
    /// 2% relative error over a 1e-6 noise floor, and in sign wherever the
    /// analytic gradient is above that floor (see `tests/gradcheck.rs`).
    fn assert_gradient(what: &str, analytic: f32, numeric: f32) {
        let noise = 1e-6;
        assert!(
            (numeric - analytic).abs() <= 0.02 * analytic.abs() + noise,
            "{what}: analytic {analytic} vs numeric {numeric}"
        );
        if analytic.abs() > noise {
            assert_eq!(
                numeric.is_sign_positive(),
                analytic.is_sign_positive(),
                "{what}: analytic {analytic} and numeric {numeric} disagree in sign"
            );
        }
    }

    #[test]
    fn bptt_numeric_gradient_check() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lstm = Lstm::new(3, 4, 2, &mut rng);
        let xs = toy_inputs(3, 3);
        let trace = lstm.forward_seq(&xs);
        let d_out: Vec<Vec<f32>> = trace.outputs.clone(); // dL/dh = h
        let dxs = lstm.backward_seq(&trace, &d_out);
        let eps = 1e-2;
        let numeric = |lstm: &mut Lstm, pick: fn(&mut LstmCell) -> &mut Tensor, l, idx| {
            let orig = pick(&mut lstm.cells[l]).data()[idx];
            pick(&mut lstm.cells[l]).data_mut()[idx] = orig + eps;
            let lp = loss_of(lstm, &xs);
            pick(&mut lstm.cells[l]).data_mut()[idx] = orig - eps;
            let lm = loss_of(lstm, &xs);
            pick(&mut lstm.cells[l]).data_mut()[idx] = orig;
            (lp - lm) / (2.0 * eps)
        };

        // Weight gradients of both layers (sampled to keep the test fast).
        for l in 0..2 {
            for idx in (0..lstm.cells[l].wx.len()).step_by(7) {
                let n = numeric(&mut lstm, |c| &mut c.wx, l, idx);
                assert_gradient(
                    &format!("layer {l} wx[{idx}]"),
                    lstm.cells[l].wx.grad[idx],
                    n,
                );
            }
            for idx in (0..lstm.cells[l].wh.len()).step_by(5) {
                let n = numeric(&mut lstm, |c| &mut c.wh, l, idx);
                assert_gradient(
                    &format!("layer {l} wh[{idx}]"),
                    lstm.cells[l].wh.grad[idx],
                    n,
                );
            }
        }
        // Bias gradients.
        for idx in 0..lstm.cells[0].b.len() {
            let n = numeric(&mut lstm, |c| &mut c.b, 0, idx);
            assert_gradient(&format!("b[{idx}]"), lstm.cells[0].b.grad[idx], n);
        }
        // Input gradients.
        for t in 0..xs.len() {
            for i in 0..xs[t].len() {
                let mut xp = xs.clone();
                xp[t][i] += eps;
                let mut xm = xs.clone();
                xm[t][i] -= eps;
                let n = (loss_of(&lstm, &xp) - loss_of(&lstm, &xm)) / (2.0 * eps);
                assert_gradient(&format!("x[{t}][{i}]"), dxs[t][i], n);
            }
        }
    }

    #[test]
    fn forget_bias_is_one() {
        let cell = LstmCell::new(3, 4, &mut StdRng::seed_from_u64(0));
        assert!(cell.b.data()[4..8].iter().all(|&b| (b - 1.0).abs() < 1e-6));
        assert!(cell.b.data()[..4].iter().all(|&b| b == 0.0));
    }

    #[test]
    fn params_enumeration() {
        let mut lstm = Lstm::new(3, 4, 2, &mut StdRng::seed_from_u64(0));
        assert_eq!(lstm.params_mut().len(), 6, "3 tensors per layer");
    }
}
