//! Dense 2-D tensor used throughout the BQSched learning stack.
//!
//! All learned components of BQSched (plan encoder, attention state
//! representation, policy/value/auxiliary heads, the learned incremental
//! simulator) operate on small matrices — at most a few hundred rows
//! (queries) by a few dozen columns (embedding dimensions) — so a simple
//! row-major `Vec<f32>` backing store is both sufficient and cache friendly.

use std::fmt;

/// A dense, row-major 2-D tensor of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Create a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a tensor filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a tensor from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Create a `1 x n` row vector.
    pub fn row(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Create an `n x 1` column vector.
    pub fn col(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Create a `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Stack row vectors (each of identical length) into an `n x d` matrix.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have identical length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// One-hot row vector of length `dim` with a 1.0 at `index`.
    pub fn one_hot(dim: usize, index: usize) -> Self {
        assert!(index < dim, "one-hot index {index} out of range {dim}");
        let mut t = Self::zeros(1, dim);
        t.data[index] = 1.0;
        t
    }

    /// One-hot matrix: row `i` has a 1.0 at `indices[i]`.
    pub fn one_hot_rows(dim: usize, indices: &[usize]) -> Self {
        let mut t = Self::zeros(indices.len(), dim);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < dim, "one-hot index {idx} out of range {dim}");
            t.data[i * dim + idx] = 1.0;
        }
        t
    }

    /// Identity matrix of size `n x n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The single value of a `1 x 1` tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.len(),
            1,
            "item() requires a 1x1 tensor, got {}x{}",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Row `r` as a slice.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    pub(crate) fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix multiplication `self @ other`.
    ///
    /// Register-blocked, and bitwise equal to the textbook i-k-j loop: each
    /// output element starts at `+0.0` and adds `self[i][p] * other[p][j]`
    /// for `p` ascending, skipping zero `self[i][p]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let a = Strided {
            data: &self.data,
            row_step: self.cols,
            k_step: 1,
        };
        Tensor {
            rows: self.rows,
            cols: other.cols,
            data: matmul_kernel(a, self.rows, self.cols, &other.data, other.cols),
        }
    }

    /// Rows `rows` of `self @ other` into the same rows of `out`, a
    /// row-major `[self.rows, other.cols]` buffer, leaving its other rows
    /// as they are: each element as [`Tensor::matmul`] computes it.
    pub(crate) fn matmul_rows_into(&self, rows: &[usize], other: &Tensor, out: &mut [f32]) {
        assert_eq!(self.cols, other.rows, "matmul_rows_into shape mismatch");
        assert_eq!(out.len(), self.rows * other.cols, "matmul_rows_into output");
        let a = Strided {
            data: &self.data,
            row_step: self.cols,
            k_step: 1,
        };
        let rows = rows.iter().copied();
        kernel_rows(a, rows, self.cols, &other.data, other.cols, out);
    }

    /// `selfᵀ @ other`, reading `self` in place. Bitwise equal to
    /// `self.transpose().matmul(other)`: the kernel sees the same values in
    /// the same order, only from a column instead of a copied row.
    pub fn transpose_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch: ({}x{})ᵀ @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let a = Strided {
            data: &self.data,
            row_step: 1,
            k_step: self.cols,
        };
        Tensor {
            rows: self.cols,
            cols: other.cols,
            data: matmul_kernel(a, self.cols, self.rows, &other.data, other.cols),
        }
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise binary map into a new tensor.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise unary map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Scalar multiplication.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|a| a * s)
    }

    /// In-place elementwise addition (`self += other`).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place scaled addition (`self += s * other`), the AXPY primitive.
    pub fn add_scaled(&mut self, other: &Tensor, s: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * b;
        }
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (returns `f32::NEG_INFINITY` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element in a `1 x n` or `n x 1` tensor.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Frobenius (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Broadcast addition of a `1 x d` row (bias) to every row.
    ///
    /// This is the single definition of the bias-broadcast arithmetic: both
    /// the autodiff tape ([`crate::Graph::add_row`]) and the eager side
    /// ([`crate::Eager`]) call it, so the two can never drift apart bitwise.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.rows, 1, "add_row bias must have a single row");
        assert_eq!(bias.cols, self.cols, "add_row bias width mismatch");
        let mut data = Vec::with_capacity(self.data.len());
        for row in self.data.chunks_exact(self.cols.max(1)) {
            data.extend(row.iter().zip(&bias.data).map(|(x, b)| x + b));
        }
        Tensor { data, ..*self }
    }

    /// Row-wise normalisation `(x - mean) / sqrt(var + eps)`, shared between
    /// the tape ([`crate::Graph::row_norm`]) and the eager side.
    pub fn row_norm(&self, eps: f32) -> Tensor {
        let d = self.cols as f32;
        let mut data = Vec::with_capacity(self.data.len());
        for row in self.data.chunks_exact(self.cols.max(1)) {
            let mean = row.iter().sum::<f32>() / d;
            let var = row.iter().map(|&y| (y - mean) * (y - mean)).sum::<f32>() / d;
            let std = (var + eps).sqrt();
            data.extend(row.iter().map(|&y| (y - mean) / std));
        }
        Tensor { data, ..*self }
    }

    /// Column means over all rows: `[n, d] -> [1, d]`, shared between the
    /// tape ([`crate::Graph::mean_pool_rows`]) and the eager side.
    pub fn mean_pool_rows(&self) -> Tensor {
        let n = self.rows.max(1) as f32;
        let mut v = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                v.set(0, c, v.get(0, c) + self.get(r, c) / n);
            }
        }
        v
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Concatenate two tensors along columns (`[n, a] ++ [n, b] -> [n, a+b]`).
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row_slice(r));
            data.extend_from_slice(other.row_slice(r));
        }
        Tensor {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Concatenate two tensors along rows (`[a, d] ++ [b, d] -> [a+b, d]`).
    pub fn concat_rows(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "concat_rows column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Tensor {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Extract a contiguous block of rows.
    pub fn slice_rows(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.rows, "slice_rows out of range");
        let data = self.data[start * self.cols..(start + len) * self.cols].to_vec();
        Tensor {
            rows: len,
            cols: self.cols,
            data,
        }
    }

    /// Extract a contiguous block of columns.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.cols, "slice_cols out of range");
        let mut data = Vec::with_capacity(self.rows * len);
        for r in 0..self.rows {
            data.extend_from_slice(&self.data[r * self.cols + start..r * self.cols + start + len]);
        }
        Tensor {
            rows: self.rows,
            cols: len,
            data,
        }
    }

    /// Gather the given rows into a new tensor (rows may repeat).
    pub fn select_rows(&self, indices: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            assert!(
                i < self.rows,
                "select_rows index {i} out of range {}",
                self.rows
            );
            data.extend_from_slice(self.row_slice(i));
        }
        Tensor {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// The left operand of [`matmul_kernel`]: element `(i, p)` is
/// `data[i * row_step + p * k_step]`, so a row-major matrix and the
/// transpose of one are read without copying.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    row_step: usize,
    k_step: usize,
}

/// `a[m×k] @ b[k×n]` into a fresh row-major buffer.
///
/// Every output element starts at `+0.0` and receives `+= a[i][p] * b[p][j]`
/// for `p` ascending, skipping the `p` where `a[i][p] == 0.0` — the f32
/// operations, in the order, of the textbook i-k-j loop. Blocking changes
/// only where the partial sum lives and which neighbours are computed
/// alongside it: one or two output rows at a time, and per row a block of
/// 16, 8, 4 or 1 output columns held in a local array across the whole `k`
/// loop, instead of loading and storing the output row at every `p`. Rust
/// never contracts `x + y * z` into a fused multiply-add, so the compiler's
/// vectorisation of a block cannot change a rounding either.
fn matmul_kernel(a: Strided<'_>, m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0; m * n];
    kernel_rows(a, 0..m, k, b, n, &mut out);
    out
}

/// The output rows `rows` of [`matmul_kernel`] into the same rows of `out`,
/// two at a time.
fn kernel_rows(
    a: Strided<'_>,
    mut rows: impl Iterator<Item = usize>,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    while let Some(i) = rows.next() {
        match rows.next() {
            Some(j) => row_blocks::<2>(a, [i, j], k, b, n, out),
            None => row_blocks::<1>(a, [i], k, b, n, out),
        }
    }
}

/// Output rows `rows` of [`matmul_kernel`], block after block of columns,
/// widest first.
fn row_blocks<const R: usize>(
    a: Strided<'_>,
    rows: [usize; R],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut j = 0;
    while j < n {
        j += match n - j {
            16.. => column_block::<R, 16>(a, rows, k, b, n, j, out),
            8.. => column_block::<R, 8>(a, rows, k, b, n, j, out),
            4.. => column_block::<R, 4>(a, rows, k, b, n, j, out),
            _ => column_block::<R, 1>(a, rows, k, b, n, j, out),
        };
    }
}

/// Output columns `j..j + W` of rows `rows`; returns `W`.
#[inline(always)]
fn column_block<const R: usize, const W: usize>(
    a: Strided<'_>,
    rows: [usize; R],
    k: usize,
    b: &[f32],
    n: usize,
    j: usize,
    out: &mut [f32],
) -> usize {
    let mut acc = [[0.0f32; W]; R];
    for p in 0..k {
        let b_row: &[f32; W] = b[p * n + j..p * n + j + W]
            .try_into()
            .expect("a block is exactly W columns wide");
        for (acc_row, &i) in acc.iter_mut().zip(&rows) {
            let x = a.data[i * a.row_step + p * a.k_step];
            if x != 0.0 {
                for (s, &y) in acc_row.iter_mut().zip(b_row) {
                    *s += x * y;
                }
            }
        }
    }
    for (acc_row, &i) in acc.iter().zip(&rows) {
        out[i * n + j..i * n + j + W].copy_from_slice(acc_row);
    }
    W
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    /// The i-k-j loop `matmul` was before the register-blocked kernel.
    fn ikj_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let x = a.data[i * a.cols + k];
                if x == 0.0 {
                    continue;
                }
                let orow = &b.data[k * b.cols..(k + 1) * b.cols];
                let crow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for j in 0..b.cols {
                    crow[j] += x * orow[j];
                }
            }
        }
        out
    }

    /// Random values mixed with `+0.0`, `-0.0` and, when `subnormals`,
    /// subnormals of either sign.
    fn awkward(rows: usize, cols: usize, subnormals: bool, rng: &mut impl Rng) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => -0.0,
                2 | 3 if subnormals => {
                    let tiny = f32::from_bits(rng.gen_range(1..0x0080_0000u32));
                    if rng.gen_bool(0.5) {
                        -tiny
                    } else {
                        tiny
                    }
                }
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_matmul_is_bitwise_the_ikj_loop() {
        let mut rng = StdRng::seed_from_u64(5);
        for m in [0, 1, 2, 3, 5] {
            for k in [0, 1, 7, 33] {
                for n in [0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 33, 100] {
                    let a = awkward(m, k, false, &mut rng);
                    let b = awkward(k, n, true, &mut rng);
                    let want = ikj_matmul(&a, &b);
                    assert_eq!(want.shape(), (m, n));
                    assert_eq!(bits(&a.matmul(&b)), bits(&want), "{m}x{k} @ {k}x{n}");
                    let at = a.transpose();
                    assert_eq!(
                        bits(&at.transpose_matmul(&b)),
                        bits(&at.transpose().matmul(&b)),
                        "({k}x{m})ᵀ @ {k}x{n}"
                    );
                    assert_eq!(bits(&at.transpose_matmul(&b)), bits(&want));
                    // Every other row, in place over a buffer of NaNs.
                    let rows: Vec<usize> = (0..m).rev().step_by(2).collect();
                    let mut out = vec![f32::NAN; m * n];
                    a.matmul_rows_into(&rows, &b, &mut out);
                    for i in 0..m {
                        let got = Tensor::from_vec(1, n, out[i * n..(i + 1) * n].to_vec());
                        if rows.contains(&i) {
                            assert_eq!(bits(&got), bits(&want.slice_rows(i, 1)), "row {i}");
                        } else {
                            assert!(got.data.iter().all(|v| v.is_nan()), "row {i} written");
                        }
                    }
                }
            }
        }
    }

    /// The element loops `add_row_broadcast` and `row_norm` were before
    /// they walked row slices.
    fn element_add_row(a: &Tensor, bias: &Tensor) -> Tensor {
        let mut v = a.clone();
        for r in 0..v.rows {
            for c in 0..v.cols {
                let x = v.get(r, c) + bias.get(0, c);
                v.set(r, c, x);
            }
        }
        v
    }

    fn element_row_norm(a: &Tensor, eps: f32) -> Tensor {
        let d = a.cols as f32;
        let mut v = a.clone();
        for r in 0..a.rows {
            let row = a.row_slice(r);
            let mean = row.iter().sum::<f32>() / d;
            let var = row.iter().map(|&y| (y - mean) * (y - mean)).sum::<f32>() / d;
            let std = (var + eps).sqrt();
            for c in 0..a.cols {
                v.set(r, c, (a.get(r, c) - mean) / std);
            }
        }
        v
    }

    #[test]
    fn row_slice_kernels_are_bitwise_the_element_loops() {
        let mut rng = StdRng::seed_from_u64(6);
        for rows in [0, 1, 2, 5] {
            for cols in [0, 1, 3, 16, 33] {
                let a = awkward(rows, cols, true, &mut rng);
                let bias = awkward(1, cols, true, &mut rng);
                let got = a.add_row_broadcast(&bias);
                assert_eq!(got.shape(), (rows, cols));
                assert_eq!(bits(&got), bits(&element_add_row(&a, &bias)));
                for eps in [1e-5, 0.0] {
                    let got = a.row_norm(eps);
                    assert_eq!(got.shape(), (rows, cols));
                    let want = element_row_norm(&a, eps);
                    assert_eq!(bits(&got), bits(&want), "{rows}x{cols}, eps {eps}");
                }
            }
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Softmax is monotone in the logits.
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn softmax_handles_large_logits() {
        let a = Tensor::row(&[1000.0, 1000.0, -1000.0]);
        let s = a.softmax_rows();
        assert!(s.all_finite());
        assert!((s.get(0, 0) - 0.5).abs() < 1e-4);
        assert!(s.get(0, 2) < 1e-6);
    }

    #[test]
    fn concat_and_slice_are_inverse() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 3, vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 5));
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 3), b);

        let d = a.concat_rows(&a);
        assert_eq!(d.shape(), (4, 2));
        assert_eq!(d.slice_rows(2, 2), a);
    }

    #[test]
    fn select_rows_gathers() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.select_rows(&[2, 0, 2]);
        assert_eq!(s.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn one_hot_rows_matches_indices() {
        let t = Tensor::one_hot_rows(4, &[1, 3]);
        assert_eq!(t.get(0, 1), 1.0);
        assert_eq!(t.get(1, 3), 1.0);
        assert_eq!(t.sum(), 2.0);
    }

    #[test]
    fn argmax_and_max() {
        let t = Tensor::row(&[0.5, 3.0, -1.0, 2.0]);
        assert_eq!(t.argmax(), 1);
        assert_eq!(t.max(), 3.0);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Tensor::row(&[1.0, 2.0]);
        let b = Tensor::row(&[10.0, 20.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[6.0, 12.0]);
    }
}
