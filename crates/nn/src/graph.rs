//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation of a forward pass as a node on a tape.
//! Calling [`Graph::backward`] on a scalar loss node walks the tape in reverse
//! and accumulates gradients; [`Graph::flush_grads`] then moves the gradients
//! of parameter leaves back into the owning [`ParamStore`].
//!
//! The op set is intentionally small: it is exactly what the BQSched networks
//! (QueryFormer-style plan encoder, multi-head attention state representation,
//! policy/value/auxiliary heads, PPO/PPG/IQ-PPO losses and the learned
//! incremental simulator) need, with nothing speculative.

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Index of a node on the tape.
pub type NodeId = usize;

/// Operation recorded on the tape. Parents are stored as node indices.
#[derive(Debug, Clone)]
enum Op {
    /// Constant leaf; gradients are never propagated into it.
    Input,
    /// Learnable leaf; gradients are flushed back to the store.
    Param(#[allow(dead_code)] ParamId),
    MatMul(NodeId, NodeId),
    Transpose(NodeId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    /// `[n, d] + [1, d]` broadcast (bias addition).
    AddRow(NodeId, NodeId),
    Scale(NodeId, f32),
    AddScalar(NodeId, #[allow(dead_code)] f32),
    /// Elementwise addition of a constant tensor (masking, shifting).
    AddConst(NodeId),
    /// Elementwise multiplication by a constant tensor.
    MulConst(NodeId),
    Tanh(NodeId),
    Relu(NodeId),
    Exp(NodeId),
    SoftmaxRows(NodeId),
    LogSoftmaxRows(NodeId),
    SumAll(NodeId),
    MeanAll(NodeId),
    /// `[n, d] -> [n, 1]` row sums.
    SumRows(NodeId),
    /// `[n, d] -> [1, d]` column means (mean pooling over rows).
    MeanPoolRows(NodeId),
    ConcatCols(NodeId, NodeId),
    ConcatRows(NodeId, NodeId),
    SliceRows(NodeId, usize),
    SliceCols(NodeId, usize),
    /// Row-major reshape (no data movement).
    Reshape(NodeId),
    SelectRows(NodeId, Vec<usize>),
    /// Row-wise normalisation `(x - mean) / sqrt(var + eps)`.
    RowNorm(NodeId, f32),
    Clamp(NodeId, f32, f32),
    MinElem(NodeId, NodeId),
}

#[derive(Debug, Clone)]
struct Node {
    value: Tensor,
    op: Op,
    needs_grad: bool,
    /// Constant operand for [`Op::AddConst`] / [`Op::MulConst`].
    aux: Option<Tensor>,
}

/// A single forward/backward tape.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    param_nodes: Vec<(NodeId, ParamId)>,
    grads: Vec<Option<Tensor>>,
}

impl Graph {
    /// Create an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id].value
    }

    fn push(&mut self, value: Tensor, op: Op, needs_grad: bool, aux: Option<Tensor>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
            aux,
        });
        id
    }

    fn needs(&self, id: NodeId) -> bool {
        self.nodes[id].needs_grad
    }

    // ----------------------------------------------------------------- leaves

    /// Insert a constant leaf (no gradient flows into it).
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Input, false, None)
    }

    /// Insert a learnable leaf whose value is read from `store`.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        let node = self.push(store.value(id).clone(), Op::Param(id), true, None);
        self.param_nodes.push((node, id));
        node
    }

    // ------------------------------------------------------------ linear algebra

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.matmul(&self.nodes[b].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b), ng, None)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.transpose();
        let ng = self.needs(a);
        self.push(v, Op::Transpose(a), ng, None)
    }

    /// Elementwise addition of same-shaped nodes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.add(&self.nodes[b].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Add(a, b), ng, None)
    }

    /// Elementwise subtraction of same-shaped nodes.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.sub(&self.nodes[b].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Sub(a, b), ng, None)
    }

    /// Elementwise product of same-shaped nodes.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.mul(&self.nodes[b].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Mul(a, b), ng, None)
    }

    /// Broadcast addition of a `1 x d` row (bias) to every row of `a`.
    pub fn add_row(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let v = self.nodes[a]
            .value
            .add_row_broadcast(&self.nodes[bias].value);
        let ng = self.needs(a) || self.needs(bias);
        self.push(v, Op::AddRow(a, bias), ng, None)
    }

    /// Multiply every element by the scalar `s`.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.nodes[a].value.scale(s);
        let ng = self.needs(a);
        self.push(v, Op::Scale(a, s), ng, None)
    }

    /// Add the scalar `s` to every element.
    pub fn add_scalar(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.nodes[a].value.map(|x| x + s);
        let ng = self.needs(a);
        self.push(v, Op::AddScalar(a, s), ng, None)
    }

    /// Elementwise addition of a constant tensor (e.g. an action mask of
    /// `0 / -1e8` values); no gradient flows into the constant.
    pub fn add_const(&mut self, a: NodeId, c: &Tensor) -> NodeId {
        let v = self.nodes[a].value.add(c);
        let ng = self.needs(a);
        self.push(v, Op::AddConst(a), ng, Some(c.clone()))
    }

    /// Elementwise multiplication by a constant tensor (one-hot selectors,
    /// advantages, importance weights).
    pub fn mul_const(&mut self, a: NodeId, c: &Tensor) -> NodeId {
        let v = self.nodes[a].value.mul(c);
        let ng = self.needs(a);
        self.push(v, Op::MulConst(a), ng, Some(c.clone()))
    }

    // ------------------------------------------------------------ nonlinearities

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.map(f32::tanh);
        let ng = self.needs(a);
        self.push(v, Op::Tanh(a), ng, None)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push(v, Op::Relu(a), ng, None)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.map(f32::exp);
        let ng = self.needs(a);
        self.push(v, Op::Exp(a), ng, None)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.softmax_rows();
        let ng = self.needs(a);
        self.push(v, Op::SoftmaxRows(a), ng, None)
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn log_softmax_rows(&mut self, a: NodeId) -> NodeId {
        let x = &self.nodes[a].value;
        let mut v = x.clone();
        for r in 0..x.rows() {
            let row = x.row_slice(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&y| (y - m).exp()).sum::<f32>().ln();
            for c in 0..x.cols() {
                v.set(r, c, x.get(r, c) - lse);
            }
        }
        let ng = self.needs(a);
        self.push(v, Op::LogSoftmaxRows(a), ng, None)
    }

    /// Clamp every element into `[lo, hi]`; gradients are zero outside.
    pub fn clamp(&mut self, a: NodeId, lo: f32, hi: f32) -> NodeId {
        let v = self.nodes[a].value.map(|x| x.clamp(lo, hi));
        let ng = self.needs(a);
        self.push(v, Op::Clamp(a, lo, hi), ng, None)
    }

    /// Elementwise minimum of two same-shaped nodes (PPO clipped surrogate).
    pub fn min_elem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.zip_map(&self.nodes[b].value, f32::min);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MinElem(a, b), ng, None)
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements, as a `1 x 1` node.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let v = Tensor::scalar(self.nodes[a].value.sum());
        let ng = self.needs(a);
        self.push(v, Op::SumAll(a), ng, None)
    }

    /// Mean of all elements, as a `1 x 1` node.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let v = Tensor::scalar(self.nodes[a].value.mean());
        let ng = self.needs(a);
        self.push(v, Op::MeanAll(a), ng, None)
    }

    /// Row sums: `[n, d] -> [n, 1]`.
    pub fn sum_rows(&mut self, a: NodeId) -> NodeId {
        let x = &self.nodes[a].value;
        let mut v = Tensor::zeros(x.rows(), 1);
        for r in 0..x.rows() {
            v.set(r, 0, x.row_slice(r).iter().sum());
        }
        let ng = self.needs(a);
        self.push(v, Op::SumRows(a), ng, None)
    }

    /// Column means over all rows: `[n, d] -> [1, d]`.
    pub fn mean_pool_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.mean_pool_rows();
        let ng = self.needs(a);
        self.push(v, Op::MeanPoolRows(a), ng, None)
    }

    // ------------------------------------------------------------ shape ops

    /// Concatenate along columns.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.concat_cols(&self.nodes[b].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::ConcatCols(a, b), ng, None)
    }

    /// Concatenate along rows.
    pub fn concat_rows(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.concat_rows(&self.nodes[b].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::ConcatRows(a, b), ng, None)
    }

    /// Slice a contiguous block of rows.
    pub fn slice_rows(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        let v = self.nodes[a].value.slice_rows(start, len);
        let ng = self.needs(a);
        self.push(v, Op::SliceRows(a, start), ng, None)
    }

    /// Slice a contiguous block of columns.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        let v = self.nodes[a].value.slice_cols(start, len);
        let ng = self.needs(a);
        self.push(v, Op::SliceCols(a, start), ng, None)
    }

    /// Row-major reshape to `rows x cols` (element count must match). Used to
    /// flatten per-query logits `[n, k]` into a single action row `[1, n*k]`.
    pub fn reshape(&mut self, a: NodeId, rows: usize, cols: usize) -> NodeId {
        let x = &self.nodes[a].value;
        assert_eq!(x.len(), rows * cols, "reshape element count mismatch");
        let v = Tensor::from_vec(rows, cols, x.data().to_vec());
        let ng = self.needs(a);
        self.push(v, Op::Reshape(a), ng, None)
    }

    /// Gather rows by index (indices may repeat).
    pub fn select_rows(&mut self, a: NodeId, indices: &[usize]) -> NodeId {
        let v = self.nodes[a].value.select_rows(indices);
        let ng = self.needs(a);
        self.push(v, Op::SelectRows(a, indices.to_vec()), ng, None)
    }

    /// Row-wise normalisation: `(x - mean) / sqrt(var + eps)` per row.
    pub fn row_norm(&mut self, a: NodeId, eps: f32) -> NodeId {
        let v = self.nodes[a].value.row_norm(eps);
        let ng = self.needs(a);
        self.push(v, Op::RowNorm(a, eps), ng, None)
    }

    // ------------------------------------------------------------ loss helpers

    /// Mean-squared-error loss against a constant target.
    pub fn mse_loss(&mut self, pred: NodeId, target: &Tensor) -> NodeId {
        let t = self.input(target.clone());
        let diff = self.sub(pred, t);
        let sq = self.mul(diff, diff);
        self.mean_all(sq)
    }

    /// Softmax cross-entropy against constant one-hot targets, averaged over rows.
    pub fn cross_entropy_loss(&mut self, logits: NodeId, one_hot: &Tensor) -> NodeId {
        let n = self.nodes[logits].value.rows().max(1) as f32;
        let ls = self.log_softmax_rows(logits);
        let picked = self.mul_const(ls, one_hot);
        let total = self.sum_all(picked);
        self.scale(total, -1.0 / n)
    }

    /// Mean entropy of the row-wise softmax distribution of `logits`.
    pub fn softmax_entropy(&mut self, logits: NodeId) -> NodeId {
        let n = self.nodes[logits].value.rows().max(1) as f32;
        let p = self.softmax_rows(logits);
        let lp = self.log_softmax_rows(logits);
        let plp = self.mul(p, lp);
        let total = self.sum_all(plp);
        self.scale(total, -1.0 / n)
    }

    /// Mean KL divergence `KL(p_old || softmax(logits))` against constant old
    /// probabilities (one row per state). Used by the IQ-PPO behaviour-cloning
    /// term.
    pub fn kl_divergence(&mut self, logits: NodeId, p_old: &Tensor) -> NodeId {
        let n = self.nodes[logits].value.rows().max(1) as f32;
        // Constant part: (1/n) * sum p_old * log p_old.
        let const_term: f32 = p_old
            .data()
            .iter()
            .map(|&p| if p > 1e-12 { p * p.ln() } else { 0.0 })
            .sum::<f32>()
            / n;
        let lp = self.log_softmax_rows(logits);
        let cross = self.mul_const(lp, p_old);
        let total = self.sum_all(cross);
        let neg_cross = self.scale(total, -1.0 / n);
        self.add_scalar(neg_cross, const_term)
    }

    // ------------------------------------------------------------ backward

    /// Run reverse-mode differentiation starting from the scalar `loss` node.
    ///
    /// The tape runs in reverse, so when node `id` runs, every node that
    /// reads it has already run: its gradient is complete, and nothing reads
    /// it afterwards. It is therefore moved out and freed once its parents
    /// have theirs. Parameter leaves keep their gradients for
    /// [`Graph::flush_grads`] / [`Graph::into_param_grads`].
    ///
    /// # Panics
    /// Panics if the loss node is not `1 x 1`.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(
            self.nodes[loss].value.shape(),
            (1, 1),
            "backward() must start from a scalar (1x1) loss node"
        );
        let nodes = &self.nodes;
        let grads = &mut self.grads;
        *grads = vec![None; nodes.len()];
        grads[loss] = Some(Tensor::scalar(1.0));
        let needs = |n: NodeId| nodes[n].needs_grad;
        let value = |n: NodeId| &nodes[n].value;

        for (id, node) in nodes.iter().enumerate().rev() {
            if !node.needs_grad || matches!(node.op, Op::Param(_)) {
                continue;
            }
            let Some(mut gy) = grads[id].take() else {
                continue;
            };
            match node.op {
                Op::Input | Op::Param(_) => {}
                Op::MatMul(a, b) => {
                    if needs(a) {
                        acc(grads, a, gy.matmul(&value(b).transpose()));
                    }
                    if needs(b) {
                        acc(grads, b, value(a).transpose_matmul(&gy));
                    }
                }
                Op::Transpose(a) => {
                    if needs(a) {
                        acc(grads, a, gy.transpose());
                    }
                }
                Op::Add(a, b) => {
                    if needs(a) {
                        acc(grads, a, gy.clone());
                    }
                    if needs(b) {
                        acc(grads, b, gy);
                    }
                }
                Op::Sub(a, b) => {
                    if needs(a) {
                        acc(grads, a, gy.clone());
                    }
                    if needs(b) {
                        acc(grads, b, gy.scale(-1.0));
                    }
                }
                Op::Mul(a, b) => {
                    if needs(a) {
                        acc(grads, a, gy.mul(value(b)));
                    }
                    if needs(b) {
                        acc(grads, b, zip_in_place(gy, value(a), |g, x| g * x));
                    }
                }
                Op::AddRow(a, bias) => {
                    let db = needs(bias).then(|| {
                        let mut db = Tensor::zeros(1, gy.cols());
                        for r in 0..gy.rows() {
                            for (d, &g) in db.data_mut().iter_mut().zip(gy.row_slice(r)) {
                                *d += g;
                            }
                        }
                        db
                    });
                    if needs(a) {
                        acc(grads, a, gy);
                    }
                    if let Some(db) = db {
                        acc(grads, bias, db);
                    }
                }
                Op::Scale(a, s) => {
                    if needs(a) {
                        acc(grads, a, map_in_place(gy, |g| g * s));
                    }
                }
                Op::AddScalar(a, _) | Op::AddConst(a) => {
                    if needs(a) {
                        acc(grads, a, gy);
                    }
                }
                Op::MulConst(a) => {
                    if needs(a) {
                        let c = node.aux.as_ref().expect("MulConst aux");
                        acc(grads, a, zip_in_place(gy, c, |g, c| g * c));
                    }
                }
                Op::Tanh(a) => {
                    if needs(a) {
                        let da = zip_in_place(gy, &node.value, |g, t| g * (1.0 - t * t));
                        acc(grads, a, da);
                    }
                }
                Op::Relu(a) => {
                    if needs(a) {
                        let da = zip_in_place(gy, value(a), |g, x| if x > 0.0 { g } else { 0.0 });
                        acc(grads, a, da);
                    }
                }
                Op::Exp(a) => {
                    if needs(a) {
                        acc(grads, a, zip_in_place(gy, &node.value, |g, y| g * y));
                    }
                }
                Op::SoftmaxRows(a) => {
                    if needs(a) {
                        let y = &node.value;
                        for r in 0..y.rows() {
                            let yr = y.row_slice(r);
                            let gr = gy.row_slice_mut(r);
                            let dot: f32 = gr.iter().zip(yr).map(|(&g, &p)| g * p).sum();
                            for (g, &p) in gr.iter_mut().zip(yr) {
                                *g = p * (*g - dot);
                            }
                        }
                        acc(grads, a, gy);
                    }
                }
                Op::LogSoftmaxRows(a) => {
                    if needs(a) {
                        let y = &node.value; // log-probabilities
                        for r in 0..y.rows() {
                            let gr = gy.row_slice_mut(r);
                            let gsum: f32 = gr.iter().copied().sum();
                            for (g, &lp) in gr.iter_mut().zip(y.row_slice(r)) {
                                *g -= lp.exp() * gsum;
                            }
                        }
                        acc(grads, a, gy);
                    }
                }
                Op::SumAll(a) => {
                    if needs(a) {
                        let (rows, cols) = value(a).shape();
                        acc(grads, a, Tensor::full(rows, cols, gy.item()));
                    }
                }
                Op::MeanAll(a) => {
                    if needs(a) {
                        let (rows, cols) = value(a).shape();
                        let n = (rows * cols).max(1) as f32;
                        acc(grads, a, Tensor::full(rows, cols, gy.item() / n));
                    }
                }
                Op::SumRows(a) => {
                    if needs(a) {
                        let (rows, cols) = value(a).shape();
                        let mut da = Tensor::zeros(rows, cols);
                        for r in 0..rows {
                            da.row_slice_mut(r).fill(gy.get(r, 0));
                        }
                        acc(grads, a, da);
                    }
                }
                Op::MeanPoolRows(a) => {
                    if needs(a) {
                        let (rows, cols) = value(a).shape();
                        let n = rows.max(1) as f32;
                        let share = map_in_place(gy, |g| g / n);
                        let mut da = Tensor::zeros(rows, cols);
                        for r in 0..rows {
                            da.row_slice_mut(r).copy_from_slice(share.data());
                        }
                        acc(grads, a, da);
                    }
                }
                Op::ConcatCols(a, b) => {
                    let ac = value(a).cols();
                    let bc = value(b).cols();
                    if needs(a) {
                        acc(grads, a, gy.slice_cols(0, ac));
                    }
                    if needs(b) {
                        acc(grads, b, gy.slice_cols(ac, bc));
                    }
                }
                Op::ConcatRows(a, b) => {
                    let ar = value(a).rows();
                    let br = value(b).rows();
                    if needs(a) {
                        acc(grads, a, gy.slice_rows(0, ar));
                    }
                    if needs(b) {
                        acc(grads, b, gy.slice_rows(ar, br));
                    }
                }
                Op::SliceRows(a, start) => {
                    if needs(a) {
                        let (rows, cols) = value(a).shape();
                        let mut da = Tensor::zeros(rows, cols);
                        da.data_mut()[start * cols..start * cols + gy.len()]
                            .copy_from_slice(gy.data());
                        acc(grads, a, da);
                    }
                }
                Op::Reshape(a) => {
                    if needs(a) {
                        let (rows, cols) = value(a).shape();
                        acc(grads, a, Tensor::from_vec(rows, cols, gy.data().to_vec()));
                    }
                }
                Op::SliceCols(a, start) => {
                    if needs(a) {
                        let (rows, cols) = value(a).shape();
                        let mut da = Tensor::zeros(rows, cols);
                        for r in 0..rows {
                            let g = gy.row_slice(r);
                            da.row_slice_mut(r)[start..start + g.len()].copy_from_slice(g);
                        }
                        acc(grads, a, da);
                    }
                }
                Op::SelectRows(a, ref indices) => {
                    if needs(a) {
                        let (rows, cols) = value(a).shape();
                        let mut da = Tensor::zeros(rows, cols);
                        for (r, &src) in indices.iter().enumerate() {
                            for (d, &g) in da.row_slice_mut(src).iter_mut().zip(gy.row_slice(r)) {
                                *d += g;
                            }
                        }
                        acc(grads, a, da);
                    }
                }
                Op::RowNorm(a, eps) => {
                    if needs(a) {
                        let x = value(a);
                        let y = &node.value;
                        let d = x.cols() as f32;
                        for r in 0..x.rows() {
                            let row = x.row_slice(r);
                            let mean = row.iter().sum::<f32>() / d;
                            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d;
                            let std = (var + eps).sqrt();
                            let yr = y.row_slice(r);
                            let gr = gy.row_slice_mut(r);
                            let g_mean = gr.iter().copied().sum::<f32>() / d;
                            let gy_dot_y = gr.iter().zip(yr).map(|(&g, &y)| g * y).sum::<f32>() / d;
                            for (g, &yv) in gr.iter_mut().zip(yr) {
                                *g = (*g - g_mean - yv * gy_dot_y) / std;
                            }
                        }
                        acc(grads, a, gy);
                    }
                }
                Op::Clamp(a, lo, hi) => {
                    if needs(a) {
                        let da = zip_in_place(
                            gy,
                            value(a),
                            |g, x| {
                                if x > lo && x < hi {
                                    g
                                } else {
                                    0.0
                                }
                            },
                        );
                        acc(grads, a, da);
                    }
                }
                Op::MinElem(a, b) => {
                    let (av, bv) = (value(a), value(b));
                    let route = |mut g: Tensor, to_a: bool| {
                        for ((g, &x), &y) in g.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
                            let picked = if to_a { x <= y } else { x > y };
                            *g = if picked { *g } else { 0.0 };
                        }
                        g
                    };
                    if needs(a) {
                        acc(grads, a, route(gy.clone(), true));
                    }
                    if needs(b) {
                        acc(grads, b, route(gy, false));
                    }
                }
            }
        }
    }

    /// Move the gradients of every parameter leaf back into the store.
    ///
    /// Must be called after [`Graph::backward`]; gradients accumulate in the
    /// store until [`ParamStore::zero_grads`] is called. Equal to
    /// accumulating [`Graph::into_param_grads`] in order.
    pub fn flush_grads(&self, store: &mut ParamStore) {
        for &(node, pid) in &self.param_nodes {
            if let Some(g) = self.grads.get(node).and_then(|g| g.as_ref()) {
                store.accumulate_grad(pid, g);
            }
        }
    }

    /// The gradients of the parameter leaves that [`Graph::backward`]
    /// reached, in leaf order, consuming the tape. A parameter read more than
    /// once has one entry per leaf.
    pub fn into_param_grads(mut self) -> Vec<(ParamId, Tensor)> {
        self.param_nodes
            .iter()
            .filter_map(|&(node, pid)| Some((pid, self.grads.get_mut(node)?.take()?)))
            .collect()
    }
}

/// Add `delta` into the gradient of `id`, or make it that gradient.
fn acc(grads: &mut [Option<Tensor>], id: NodeId, delta: Tensor) {
    match &mut grads[id] {
        Some(g) => g.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

/// `t.map(f)`, reusing `t`'s buffer.
fn map_in_place(mut t: Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    t.data_mut().iter_mut().for_each(|x| *x = f(*x));
    t
}

/// `t.zip_map(other, f)`, reusing `t`'s buffer.
fn zip_in_place(mut t: Tensor, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(t.shape(), other.shape(), "zip_map shape mismatch");
    for (x, &y) in t.data_mut().iter_mut().zip(other.data()) {
        *x = f(*x, y);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numerically estimate d(loss)/d(param[i]) via central differences and
    /// compare against the autodiff gradient.
    fn check_gradients(
        build: impl Fn(&mut Graph, &ParamStore) -> NodeId,
        store: &mut ParamStore,
        tol: f32,
    ) {
        // Analytic gradients.
        store.zero_grads();
        let mut g = Graph::new();
        let loss = build(&mut g, store);
        g.backward(loss);
        g.flush_grads(store);
        let analytic: Vec<(crate::params::ParamId, Tensor)> =
            store.iter().map(|(id, p)| (id, p.grad.clone())).collect();

        // Numeric gradients.
        let eps = 1e-3_f32;
        for (pid, ana) in &analytic {
            let n = store.value(*pid).len();
            for i in 0..n {
                let orig = store.value(*pid).data()[i];
                store.get_mut(*pid).value.data_mut()[i] = orig + eps;
                let mut g1 = Graph::new();
                let l1 = build(&mut g1, store);
                let f1 = g1.value(l1).item();
                store.get_mut(*pid).value.data_mut()[i] = orig - eps;
                let mut g2 = Graph::new();
                let l2 = build(&mut g2, store);
                let f2 = g2.value(l2).item();
                store.get_mut(*pid).value.data_mut()[i] = orig;
                let numeric = (f1 - f2) / (2.0 * eps);
                let a = ana.data()[i];
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "gradient mismatch at param {:?}[{}]: analytic {} vs numeric {}",
                    pid,
                    i,
                    a,
                    numeric
                );
            }
        }
    }

    #[test]
    fn matmul_linear_gradients() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let w = store.add_xavier("w", 3, 2, &mut rng);
        let b = store.add_zeros("b", 1, 2);
        let x = Tensor::from_vec(4, 3, (0..12).map(|i| (i as f32) * 0.1 - 0.5).collect());
        let target = Tensor::from_vec(4, 2, (0..8).map(|i| (i as f32) * 0.05).collect());

        check_gradients(
            |g, s| {
                let xi = g.input(x.clone());
                let wi = g.param(s, w);
                let bi = g.param(s, b);
                let h = g.matmul(xi, wi);
                let h = g.add_row(h, bi);
                let y = g.tanh(h);
                g.mse_loss(y, &target)
            },
            &mut store,
            2e-2,
        );
    }

    #[test]
    fn softmax_cross_entropy_gradients() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let w = store.add_xavier("w", 4, 3, &mut rng);
        let x = Tensor::from_vec(5, 4, (0..20).map(|i| ((i * 13 % 7) as f32) * 0.1).collect());
        let one_hot = Tensor::one_hot_rows(3, &[0, 2, 1, 1, 0]);

        check_gradients(
            |g, s| {
                let xi = g.input(x.clone());
                let wi = g.param(s, w);
                let logits = g.matmul(xi, wi);
                g.cross_entropy_loss(logits, &one_hot)
            },
            &mut store,
            2e-2,
        );
    }

    #[test]
    fn attention_style_gradients() {
        // A miniature single-head attention block exercises matmul, transpose,
        // scale, softmax and concatenation together.
        let mut rng = StdRng::seed_from_u64(99);
        let mut store = ParamStore::new();
        let wq = store.add_xavier("wq", 4, 4, &mut rng);
        let wk = store.add_xavier("wk", 4, 4, &mut rng);
        let wv = store.add_xavier("wv", 4, 4, &mut rng);
        let x = Tensor::from_vec(
            3,
            4,
            (0..12).map(|i| ((i % 5) as f32) * 0.2 - 0.4).collect(),
        );
        let target = Tensor::zeros(3, 4);

        check_gradients(
            |g, s| {
                let xi = g.input(x.clone());
                let q = {
                    let w = g.param(s, wq);
                    g.matmul(xi, w)
                };
                let k = {
                    let w = g.param(s, wk);
                    g.matmul(xi, w)
                };
                let v = {
                    let w = g.param(s, wv);
                    g.matmul(xi, w)
                };
                let kt = g.transpose(k);
                let scores = g.matmul(q, kt);
                let scores = g.scale(scores, 0.5);
                let attn = g.softmax_rows(scores);
                let out = g.matmul(attn, v);
                g.mse_loss(out, &target)
            },
            &mut store,
            3e-2,
        );
    }

    #[test]
    fn row_norm_and_pool_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let w = store.add_xavier("w", 3, 3, &mut rng);
        let x = Tensor::from_vec(4, 3, (0..12).map(|i| (i as f32) * 0.3 - 1.0).collect());
        let target = Tensor::zeros(1, 3);

        check_gradients(
            |g, s| {
                let xi = g.input(x.clone());
                let wi = g.param(s, w);
                let h = g.matmul(xi, wi);
                let n = g.row_norm(h, 1e-5);
                let pooled = g.mean_pool_rows(n);
                g.mse_loss(pooled, &target)
            },
            &mut store,
            3e-2,
        );
    }

    #[test]
    fn ppo_surrogate_gradients() {
        // exp / clamp / min / mul_const pipeline as used in the PPO loss.
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let w = store.add_xavier("w", 3, 4, &mut rng);
        let x = Tensor::from_vec(
            6,
            3,
            (0..18).map(|i| ((i % 4) as f32) * 0.25 - 0.3).collect(),
        );
        let actions = Tensor::one_hot_rows(4, &[0, 1, 2, 3, 1, 0]);
        let old_logp = Tensor::col(&[-1.2, -1.4, -1.3, -1.5, -1.1, -1.6]);
        let adv = Tensor::col(&[0.5, -0.2, 1.0, -1.0, 0.3, 0.8]);

        check_gradients(
            |g, s| {
                let xi = g.input(x.clone());
                let wi = g.param(s, w);
                let logits = g.matmul(xi, wi);
                let logp = g.log_softmax_rows(logits);
                let picked = g.mul_const(logp, &actions);
                let logp_a = g.sum_rows(picked);
                let neg_old = old_logp.scale(-1.0);
                let delta = g.add_const(logp_a, &neg_old);
                let ratio = g.exp(delta);
                let surr1 = g.mul_const(ratio, &adv);
                let clipped = g.clamp(ratio, 0.8, 1.2);
                let surr2 = g.mul_const(clipped, &adv);
                let surr = g.min_elem(surr1, surr2);
                let m = g.mean_all(surr);
                g.scale(m, -1.0)
            },
            &mut store,
            3e-2,
        );
    }

    #[test]
    fn select_rows_and_concat_gradients() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut store = ParamStore::new();
        let w = store.add_xavier("w", 2, 3, &mut rng);
        let x = Tensor::from_vec(4, 2, vec![0.1, 0.4, -0.2, 0.5, 0.3, -0.1, 0.2, 0.2]);
        let target = Tensor::zeros(2, 6);

        check_gradients(
            |g, s| {
                let xi = g.input(x.clone());
                let wi = g.param(s, w);
                let h = g.matmul(xi, wi);
                let sel = g.select_rows(h, &[1, 3]);
                let other = g.select_rows(h, &[0, 1]);
                let cat = g.concat_cols(sel, other);
                g.mse_loss(cat, &target)
            },
            &mut store,
            2e-2,
        );
    }

    #[test]
    fn reshape_gradients_flow_back() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut store = ParamStore::new();
        let w = store.add_xavier("w", 2, 4, &mut rng);
        let x = Tensor::from_vec(3, 2, vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6]);
        let target = Tensor::zeros(1, 12);
        check_gradients(
            |g, s| {
                let xi = g.input(x.clone());
                let wi = g.param(s, w);
                let h = g.matmul(xi, wi);
                let flat = g.reshape(h, 1, 12);
                g.mse_loss(flat, &target)
            },
            &mut store,
            2e-2,
        );
    }

    #[test]
    fn kl_divergence_is_zero_for_matching_distribution() {
        let mut g = Graph::new();
        let logits = Tensor::from_vec(2, 3, vec![0.2, 1.0, -0.5, 0.0, 0.0, 0.0]);
        let p_old = logits.softmax_rows();
        let l = g.input(logits);
        let kl = g.kl_divergence(l, &p_old);
        assert!(g.value(kl).item().abs() < 1e-5);
    }

    #[test]
    fn kl_divergence_positive_for_different_distribution() {
        let mut g = Graph::new();
        let logits = Tensor::from_vec(1, 3, vec![3.0, 0.0, -3.0]);
        let p_old = Tensor::row(&[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
        let l = g.input(logits);
        let kl = g.kl_divergence(l, &p_old);
        assert!(g.value(kl).item() > 0.1);
    }

    #[test]
    fn entropy_maximised_by_uniform_logits() {
        let mut g = Graph::new();
        let uniform = g.input(Tensor::row(&[0.0, 0.0, 0.0, 0.0]));
        let peaked = g.input(Tensor::row(&[10.0, 0.0, 0.0, 0.0]));
        let e_u = g.softmax_entropy(uniform);
        let e_p = g.softmax_entropy(peaked);
        let eu = g.value(e_u).item();
        let ep = g.value(e_p).item();
        assert!(eu > ep);
        assert!((eu - (4.0_f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn masked_logits_get_zero_probability() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::row(&[1.0, 2.0, 3.0]));
        let mask = Tensor::row(&[0.0, -1e8, 0.0]);
        let masked = g.add_const(logits, &mask);
        let p = g.softmax_rows(masked);
        assert!(g.value(p).get(0, 1) < 1e-6);
        let sum: f32 = g.value(p).data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn backward_requires_scalar_loss() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g2 = Graph::new();
            let y = g2.input(Tensor::zeros(2, 2));
            g2.backward(y);
        }));
        assert!(result.is_err());
        // The original graph is still usable.
        assert_eq!(g.value(x).shape(), (2, 2));
    }

    #[test]
    fn into_param_grads_is_flush_grads_in_leaf_order() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let w = store.add_xavier("w", 3, 3, &mut rng);
        let b = store.add_zeros("b", 1, 3);
        store.accumulate_grad(w, &Tensor::full(3, 3, 0.1));
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(
            2,
            3,
            vec![0.5, -1.0, 0.25, 2.0, 0.0, -0.75],
        ));
        let w1 = g.param(&store, w);
        let h = g.matmul(x, w1);
        let bi = g.param(&store, b);
        let h = g.add_row(h, bi);
        let h = g.tanh(h);
        // `w` is read a second time: a second leaf, a second entry.
        let w2 = g.param(&store, w);
        let h = g.matmul(h, w2);
        let loss = g.mean_all(h);
        g.backward(loss);

        let mut flushed = store.clone();
        g.flush_grads(&mut flushed);
        let grads = g.into_param_grads();
        let ids: Vec<ParamId> = grads.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, [w, b, w]);
        let mut accumulated = store;
        for (id, grad) in &grads {
            accumulated.accumulate_grad(*id, grad);
        }
        for (id, p) in flushed.iter() {
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p.grad), bits(accumulated.grad(id)), "{}", p.name);
        }
    }

    #[test]
    fn grads_accumulate_across_flushes() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row(&[2.0]));
        for _ in 0..2 {
            let mut g = Graph::new();
            let wi = g.param(&store, w);
            let sq = g.mul(wi, wi);
            let loss = g.mean_all(sq);
            g.backward(loss);
            g.flush_grads(&mut store);
        }
        // d(w^2)/dw = 2w = 4, accumulated twice = 8.
        assert!((store.grad(w).data()[0] - 8.0).abs() < 1e-5);
    }
}
