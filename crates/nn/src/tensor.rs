//! The parameter tensor: a dense f32 matrix with gradient and Adam moments.

use std::cell::RefCell;

use rand::Rng;

/// A dense row-major f32 matrix carrying its gradient accumulator and Adam
/// optimiser moments.
///
/// Vectors are represented as single-column matrices. All the layers in this
/// crate own their parameters as `Tensor`s and hand them to
/// [`crate::adam::Adam::step`] for updates.
///
/// # The transposed copy
///
/// [`Tensor::matvec_batch`] reads a column-major copy of the weights. No
/// constructor builds it: the first `matvec_batch` after the tensor was
/// made, or after its weights last changed, builds it, and later calls
/// reuse it. Its callers are the batched forwards
/// ([`crate::Linear::forward_batch`], [`crate::Lstm::step_batch`] during
/// candidate screening, PPO's head re-evaluation) and
/// [`crate::Lstm::forward_seq`] during training, so each training step
/// rebuilds the copies it reads once, after the previous [`crate::Adam`]
/// step moved the weights. The streaming one-vector paths
/// ([`Tensor::matvec`]) and the backward kernels read `data` directly and
/// never build it.
///
/// The weights are private, and every way to write them drops the copy
/// first: [`Tensor::data_mut`], [`Tensor::from_vec`] and the optimiser's
/// fused update. So no write can leave a stale copy behind.
///
/// # Examples
///
/// ```
/// use hfl_nn::Tensor;
///
/// let t = Tensor::zeros(2, 3);
/// assert_eq!(t.rows, 2);
/// assert_eq!(t.at(1, 2), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major values; read with [`Tensor::data`], write with
    /// [`Tensor::data_mut`].
    data: Vec<f32>,
    /// Gradient accumulator (same shape as `data`).
    pub grad: Vec<f32>,
    /// Adam first moment.
    pub m: Vec<f32>,
    /// Adam second moment.
    pub v: Vec<f32>,
    /// Lazily built column-major (transposed) copy of `data` for
    /// [`Tensor::matvec_batch`]; empty means invalid. Interior-mutable so
    /// read-only forward passes can populate it.
    transposed: RefCell<Vec<f32>>,
}

impl Tensor {
    /// An all-zero tensor.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        let n = rows * cols;
        Tensor {
            rows,
            cols,
            data: vec![0.0; n],
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
            transposed: RefCell::new(Vec::new()),
        }
    }

    /// A tensor holding `data` (row-major).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "from_vec shape mismatch");
        Tensor {
            data,
            ..Tensor::zeros(rows, cols)
        }
    }

    /// Xavier/Glorot-uniform initialisation for a `rows x cols` weight.
    #[must_use]
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Tensor {
        let mut t = Tensor::zeros(rows, cols);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        for w in t.data_mut() {
            *w = rng.gen_range(-bound..bound);
        }
        t
    }

    /// Builds a tensor from a function of `(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Tensor {
        let mut t = Tensor::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                t.data[r * cols + c] = f(r, c);
            }
        }
        t
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The row-major values.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major values. Drops the transposed copy first, so the
    /// next [`Tensor::matvec_batch`] rebuilds it from whatever is written.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.transposed.get_mut().clear();
        &mut self.data
    }

    /// Mutable `(data, grad, m, v)` for the optimiser's fused update. Drops
    /// the transposed copy first, like [`Tensor::data_mut`].
    pub(crate) fn state_mut(&mut self) -> (&mut [f32], &mut [f32], &mut [f32], &mut [f32]) {
        self.transposed.get_mut().clear();
        (&mut self.data, &mut self.grad, &mut self.m, &mut self.v)
    }

    /// The element at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.cols + col]
    }

    /// One row as a slice.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The gradient row for `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn grad_row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.grad[row * self.cols..(row + 1) * self.cols]
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols`.
    #[must_use]
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0f32; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0f32;
            for (w, xv) in row.iter().zip(x) {
                acc += w * xv;
            }
            *yr = acc;
        }
        y
    }

    /// Transposed matrix-vector product `selfᵀ * y` (used for input
    /// gradients).
    ///
    /// # Panics
    /// Panics if `y.len() != self.rows`.
    #[must_use]
    pub fn matvec_t(&self, y: &[f32]) -> Vec<f32> {
        assert_eq!(y.len(), self.rows, "matvec_t dimension mismatch");
        let mut x = vec![0.0f32; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            let row = self.row(r);
            if yr == 0.0 {
                continue;
            }
            for (xc, w) in x.iter_mut().zip(row) {
                *xc += w * yr;
            }
        }
        x
    }

    /// Runs `f` with the column-major copy of `data` (`wt[c * rows + r] =
    /// data[r * cols + c]`), building it if the cache is invalid.
    fn with_transposed<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        {
            let mut cache = self.transposed.borrow_mut();
            if cache.len() != self.data.len() {
                // Tile by tile, so both the reads and the writes stay
                // within a few cache lines at a time.
                let (rows, cols) = (self.rows, self.cols);
                cache.clear();
                cache.resize(self.data.len(), 0.0);
                for c0 in (0..cols).step_by(16) {
                    let c1 = (c0 + 16).min(cols);
                    for (r, row) in self.data.chunks_exact(cols).enumerate() {
                        for (c, &w) in (c0..c1).zip(&row[c0..c1]) {
                            cache[c * rows + r] = w;
                        }
                    }
                }
            }
        }
        f(&self.transposed.borrow())
    }

    /// Batched matrix-vector product: computes `self * x_b` for every
    /// `cols`-length chunk `x_b` of `xs_flat`, writing the results as
    /// consecutive `rows`-length chunks of `out` (cleared and resized).
    ///
    /// Each output element accumulates its products in the same index
    /// order as [`Tensor::matvec`], so the results are bit-identical to
    /// `batch` separate `matvec` calls — but the kernel iterates the
    /// cached transposed weights column-by-column, a register tile of
    /// outputs at a time, which turns the sequential dot-product dependency
    /// chain into independent per-output updates the compiler can vectorise
    /// without reassociating anything.
    ///
    /// # Panics
    /// Panics if `xs_flat.len() != batch * self.cols`.
    pub fn matvec_batch(&self, xs_flat: &[f32], batch: usize, out: &mut Vec<f32>) {
        assert_eq!(
            xs_flat.len(),
            batch * self.cols,
            "matvec_batch dimension mismatch"
        );
        let rows = self.rows;
        out.clear();
        out.resize(batch * rows, 0.0);
        self.with_transposed(|wt| {
            for (x, y) in xs_flat
                .chunks_exact(self.cols)
                .zip(out.chunks_exact_mut(rows))
            {
                for (r0, yblk) in blocks(y) {
                    let terms = wt.chunks_exact(rows).zip(x);
                    axpy_block(yblk, r0, terms.map(|(col, &xi)| (col, xi)));
                }
            }
        });
    }

    /// Batched transposed product: computes `selfᵀ * y_b` for every
    /// `rows`-length chunk `y_b` of `ys_flat`, writing the results as
    /// consecutive `cols`-length chunks of `out` (cleared and resized).
    ///
    /// Bit-identical to `batch` separate [`Tensor::matvec_t`] calls: each
    /// output element adds `w[r][c] * y[r]` in ascending `r`, skipping the
    /// rows where `y[r]` is zero. The kernel keeps a tile of outputs in
    /// registers across all rows instead of reloading the whole output
    /// vector per row.
    ///
    /// # Panics
    /// Panics if `ys_flat.len() != batch * self.rows`.
    pub fn matvec_t_batch(&self, ys_flat: &[f32], batch: usize, out: &mut Vec<f32>) {
        assert_eq!(
            ys_flat.len(),
            batch * self.rows,
            "matvec_t_batch dimension mismatch"
        );
        let cols = self.cols;
        out.clear();
        out.resize(batch * cols, 0.0);
        for (y, x) in ys_flat
            .chunks_exact(self.rows)
            .zip(out.chunks_exact_mut(cols))
        {
            for (c0, xblk) in blocks(x) {
                let terms = self.data.chunks_exact(cols).zip(y);
                let terms = terms.filter(|&(_, &yr)| yr != 0.0);
                axpy_block(xblk, c0, terms.map(|(row, &yr)| (row, yr)));
            }
        }
    }

    /// Accumulates the outer product `y xᵀ` into the gradient (the weight
    /// gradient of `y = W x`).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn grad_outer(&mut self, y: &[f32], x: &[f32]) {
        assert_eq!(y.len(), self.rows);
        assert_eq!(x.len(), self.cols);
        for (r, yr) in y.iter().enumerate() {
            if *yr == 0.0 {
                continue;
            }
            let grow = &mut self.grad[r * self.cols..(r + 1) * self.cols];
            for (g, xv) in grow.iter_mut().zip(x) {
                *g += yr * xv;
            }
        }
    }

    /// Accumulates the outer products `y_b x_bᵀ` of a batch into the
    /// gradient, last item first: bit-identical to calling
    /// [`Tensor::grad_outer`] on items `batch - 1` down to `0`, the order
    /// backpropagation through time visits timesteps. The kernel holds a
    /// tile of gradient elements in registers while it adds every item's
    /// contribution to them.
    ///
    /// # Panics
    /// Panics if `ys_flat.len() != batch * self.rows` or
    /// `xs_flat.len() != batch * self.cols`.
    pub fn grad_outer_rev(&mut self, ys_flat: &[f32], xs_flat: &[f32], batch: usize) {
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(ys_flat.len(), batch * rows, "grad_outer_rev dimension");
        assert_eq!(xs_flat.len(), batch * cols, "grad_outer_rev dimension");
        for (r, grow) in self.grad.chunks_exact_mut(cols).enumerate() {
            for (c0, gblk) in blocks(grow) {
                let items = xs_flat.chunks_exact(cols).zip(ys_flat.chunks_exact(rows));
                let terms = items.rev().filter(|(_, y)| y[r] != 0.0);
                axpy_block(gblk, c0, terms.map(|(x, y)| (x, y[r])));
            }
        }
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Restores optimiser/gradient buffers sized to `data` (used after
    /// hand-built or partially populated tensors).
    pub fn ensure_buffers(&mut self) {
        let n = self.data.len();
        if self.grad.len() != n {
            self.grad = vec![0.0; n];
        }
        if self.m.len() != n {
            self.m = vec![0.0; n];
        }
        if self.v.len() != n {
            self.v = vec![0.0; n];
        }
    }

    /// Squared L2 norm of the gradient.
    #[must_use]
    pub fn grad_norm_sq(&self) -> f32 {
        self.grad.iter().map(|g| g * g).sum()
    }
}

/// Output elements one kernel pass of [`Tensor::matvec_batch`],
/// [`Tensor::matvec_t_batch`] or [`Tensor::grad_outer_rev`] keeps in
/// registers (eight SSE registers). Each element still receives its
/// products one at a time in the reference order, so the width changes
/// speed, never a bit.
const LANES: usize = 32;

/// Splits `out` into consecutive blocks for [`axpy_block`]: [`LANES`]
/// wide while they fit, then 16 and 8 wide, then one block for the rest. Yields
/// each block's offset into `out`.
fn blocks(out: &mut [f32]) -> impl Iterator<Item = (usize, &mut [f32])> {
    let mut rest = out;
    let mut offset = 0;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let width = match rest.len() {
            n if n >= LANES => LANES,
            n if n >= 16 => 16,
            n if n >= 8 => 8,
            n => n,
        };
        let (block, tail) = std::mem::take(&mut rest).split_at_mut(width);
        rest = tail;
        offset += width;
        Some((offset - width, block))
    })
}

/// `out[j] += row[at + j] * s` for every `(row, s)` of `terms`, in order: each
/// element of `out` gets its products added one at a time, in the order
/// `terms` yields them. The block stays in registers across all terms;
/// the fixed-width branches let the compiler unroll it into vector
/// instructions.
#[inline(always)]
fn axpy_block<'a>(out: &mut [f32], at: usize, terms: impl Iterator<Item = (&'a [f32], f32)>) {
    match out.len() {
        LANES => axpy_fixed::<LANES>(out, at, terms),
        16 => axpy_fixed::<16>(out, at, terms),
        8 => axpy_fixed::<8>(out, at, terms),
        _ => {
            for (row, s) in terms {
                for (o, &w) in out.iter_mut().zip(&row[at..]) {
                    *o += w * s;
                }
            }
        }
    }
}

#[inline(always)]
fn axpy_fixed<'a, const N: usize>(
    out: &mut [f32],
    at: usize,
    terms: impl Iterator<Item = (&'a [f32], f32)>,
) {
    let mut acc: [f32; N] = out.try_into().expect("block width");
    for (row, s) in terms {
        let w: &[f32; N] = row[at..at + N].try_into().expect("row covers the block");
        for (a, &wv) in acc.iter_mut().zip(w) {
            *a += wv * s;
        }
    }
    out.copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_indexing() {
        let mut t = Tensor::zeros(3, 4);
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
        t.data_mut()[6] = 5.0;
        assert_eq!(t.at(1, 2), 5.0);
        assert_eq!(t.row(1), &[0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn xavier_respects_bound_and_seed() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::xavier(16, 16, &mut rng);
        let bound = (6.0 / 32.0f32).sqrt();
        assert!(t.data().iter().all(|w| w.abs() <= bound));
        let mut rng2 = StdRng::seed_from_u64(7);
        let t2 = Tensor::xavier(16, 16, &mut rng2);
        assert_eq!(t.data(), t2.data(), "seeded init is deterministic");
        assert!(t.data().iter().any(|w| *w != 0.0));
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        // [[0,1,2],[3,4,5]] * [1,1,1] = [3,12]
        assert_eq!(t.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 12.0]);
        // transpose: [[0,3],[1,4],[2,5]] * [1,2] = [6,9,12]
        assert_eq!(t.matvec_t(&[1.0, 2.0]), vec![6.0, 9.0, 12.0]);
    }

    #[test]
    fn grad_outer_accumulates() {
        let mut t = Tensor::zeros(2, 2);
        t.grad_outer(&[1.0, 2.0], &[3.0, 4.0]);
        t.grad_outer(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(t.grad, vec![4.0, 5.0, 6.0, 8.0]);
        assert!(t.grad_norm_sq() > 0.0);
        t.zero_grad();
        assert_eq!(t.grad_norm_sq(), 0.0);
    }

    #[test]
    fn matvec_batch_is_bitwise_identical_to_matvec() {
        let mut rng = StdRng::seed_from_u64(11);
        for (rows, cols) in shapes() {
            let t = Tensor::xavier(rows, cols, &mut rng);
            let xs: Vec<f32> = (0..3 * cols).map(|i| (i as f32 * 0.61).sin()).collect();
            let mut out = Vec::new();
            t.matvec_batch(&xs, 3, &mut out);
            for (b, x) in xs.chunks_exact(cols).enumerate() {
                assert_eq!(
                    bits(&out[b * rows..(b + 1) * rows]),
                    bits(&t.matvec(x)),
                    "{rows}x{cols} item {b}"
                );
            }
        }
    }

    #[test]
    fn every_weight_write_drops_the_transposed_copy() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut t = Tensor::xavier(4, 3, &mut rng);
        let x = vec![0.5f32, -0.25, 1.0];
        let mut out = Vec::new();
        t.matvec_batch(&x, 1, &mut out); // builds the copy
        t.data_mut()[0] = 42.0;
        t.matvec_batch(&x, 1, &mut out);
        assert_eq!(out, t.matvec(&x), "copy must rebuild after data_mut");
        let (data, ..) = t.state_mut();
        data[5] = -7.0;
        t.matvec_batch(&x, 1, &mut out);
        assert_eq!(out, t.matvec(&x), "copy must rebuild after state_mut");
    }

    /// Tensors of 1..=40 rows and columns cover full and tail lane blocks.
    fn shapes() -> impl Iterator<Item = (usize, usize)> {
        [1usize, 3, 16, 17, 40]
            .into_iter()
            .flat_map(|r| [1usize, 5, 16, 33].into_iter().map(move |c| (r, c)))
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matvec_t_batch_is_bitwise_identical_to_matvec_t() {
        let mut rng = StdRng::seed_from_u64(13);
        for (rows, cols) in shapes() {
            let t = Tensor::xavier(rows, cols, &mut rng);
            // Every third entry is an exact zero, so skipped rows are hit.
            let ys: Vec<f32> = (0..3 * rows)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.73).sin()
                    }
                })
                .collect();
            let mut out = Vec::new();
            t.matvec_t_batch(&ys, 3, &mut out);
            for (b, y) in ys.chunks_exact(rows).enumerate() {
                assert_eq!(
                    bits(&out[b * cols..(b + 1) * cols]),
                    bits(&t.matvec_t(y)),
                    "{rows}x{cols} item {b}"
                );
            }
        }
    }

    #[test]
    fn grad_outer_rev_is_bitwise_identical_to_descending_grad_outer() {
        let mut rng = StdRng::seed_from_u64(14);
        for (rows, cols) in shapes() {
            let mut fused = Tensor::xavier(rows, cols, &mut rng);
            fused.grad = (0..rows * cols).map(|i| (i as f32 * 0.11).cos()).collect();
            let mut reference = fused.clone();
            let ys: Vec<f32> = (0..4 * rows)
                .map(|i| {
                    if i % 4 == 1 {
                        0.0
                    } else {
                        (i as f32 * 0.37).sin()
                    }
                })
                .collect();
            let xs: Vec<f32> = (0..4 * cols).map(|i| (i as f32 * 0.59).cos()).collect();
            fused.grad_outer_rev(&ys, &xs, 4);
            for b in (0..4).rev() {
                reference.grad_outer(&ys[b * rows..(b + 1) * rows], &xs[b * cols..(b + 1) * cols]);
            }
            assert_eq!(bits(&fused.grad), bits(&reference.grad), "{rows}x{cols}");
        }
    }

    #[test]
    fn checkpoint_reload_restores_buffers() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::xavier(4, 4, &mut rng);
        // A tensor with missing transient buffers gets them rebuilt.
        let mut stripped = t.clone();
        stripped.grad.clear();
        stripped.m.clear();
        stripped.v.clear();
        stripped.ensure_buffers();
        assert_eq!(stripped.grad.len(), t.len());
        assert_eq!(stripped.m.len(), t.len());
        assert_eq!(stripped.data(), t.data());
    }
}
