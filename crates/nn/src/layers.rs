//! Neural network layers used by the BQSched models.
//!
//! All layers hold only [`ParamId`] handles; the actual values live in a
//! [`ParamStore`]. A layer's `forward` method is its one definition, written
//! over [`Ops`]: on a [`crate::Graph`] it records the computation for
//! training, on [`crate::Eager`] it computes the same values at once.

use crate::ops::Ops;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;

/// Activation functions supported by [`Linear`] and [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no activation).
    None,
    /// Hyperbolic tangent — the default in the BQSched paper's `(σ · Linear)^m` blocks.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    fn apply<'s, O: Ops<'s>>(self, g: &mut O, x: O::Value) -> O::Value {
        match self {
            Activation::None => x,
            Activation::Tanh => g.tanh(&x),
            Activation::Relu => g.relu(&x),
        }
    }
}

/// A fully-connected layer `y = act(x W + b)`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
}

impl Linear {
    /// Create a new linear layer with Xavier-initialised weights.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let weight = store.add_xavier(format!("{name}.weight"), in_dim, out_dim, rng);
        let bias = store.add_zeros(format!("{name}.bias"), 1, out_dim);
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
            activation,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer's computation for the input `x` (`[n, in_dim]`).
    pub fn forward<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        x: &O::Value,
    ) -> O::Value {
        assert_eq!(
            g.value(x).cols(),
            self.in_dim,
            "Linear layer expected {} input columns, got {}",
            self.in_dim,
            g.value(x).cols()
        );
        let w = g.param(store, self.weight);
        let b = g.param(store, self.bias);
        let h = g.matmul(x, &w);
        let h = g.add_row(&h, &b);
        self.activation.apply(g, h)
    }
}

/// A multilayer perceptron: a stack of [`Linear`] layers.
///
/// The paper composes most of its heads as `(σ · Linear)^m`; this struct is
/// that composition with a configurable activation on hidden layers and an
/// optional different activation on the output layer.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[64, 32, 1]` produces
    /// two layers `64 -> 32 -> 1`. Hidden layers use `hidden_act`; the final
    /// layer uses `out_act`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        sizes: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least an input and an output size"
        );
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let act = if i + 2 == sizes.len() {
                out_act
            } else {
                hidden_act
            };
            layers.push(Linear::new(
                store,
                &format!("{name}.{i}"),
                sizes[i],
                sizes[i + 1],
                act,
                rng,
            ));
        }
        Self { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map(Linear::in_dim).unwrap_or(0)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map(Linear::out_dim).unwrap_or(0)
    }

    /// The forward pass.
    pub fn forward<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        x: &O::Value,
    ) -> O::Value {
        let mut h = self.layers[0].forward(g, store, x);
        for layer in &self.layers[1..] {
            h = layer.forward(g, store, &h);
        }
        h
    }
}

/// Row-wise layer normalisation with learnable scale and shift.
///
/// The paper applies batch normalisation after every attention sub-layer;
/// this crate substitutes layer normalisation, which needs no running
/// statistics (see the `bq-nn` row of `docs/CRATES.md`).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Create a layer norm over vectors of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add(
            format!("{name}.gamma"),
            crate::tensor::Tensor::full(1, dim, 1.0),
        );
        let beta = store.add_zeros(format!("{name}.beta"), 1, dim);
        Self {
            gamma,
            beta,
            dim,
            eps: 1e-5,
        }
    }

    /// Normalised width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The forward pass for `x` of shape `[n, dim]`.
    pub fn forward<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        x: &O::Value,
    ) -> O::Value {
        assert_eq!(g.value(x).cols(), self.dim, "LayerNorm width mismatch");
        let normed = g.row_norm(x, self.eps);
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        // Broadcast gamma across rows by building a same-shaped constant is
        // avoided: scale row-wise via mul with a broadcast matmul trick.
        // gamma is [1, d]; we expand it by multiplying an all-ones column.
        let n = g.value(x).rows();
        let ones = g.input(crate::tensor::Tensor::full(n, 1, 1.0));
        let gamma_full = g.matmul(&ones, &gamma);
        let scaled = g.mul(&normed, &gamma_full);
        g.add_row(&scaled, &beta)
    }
}

/// `x`'s rows `rows`, or `None` for `x` itself when `rows` is every row in
/// order: a full-row pass records exactly the tape it always did.
fn select_rows_of<'s, O: Ops<'s> + ?Sized>(
    g: &mut O,
    x: &O::Value,
    rows: &[usize],
) -> Option<O::Value> {
    let every_row =
        rows.len() == g.value(x).rows() && rows.iter().enumerate().all(|(i, &r)| i == r);
    (!every_row).then(|| g.select_rows(x, rows))
}

/// Head `index` of the `count` heads of a [`MultiHeadAttention`]: what
/// [`Ops::attention_head`] projects its input with.
#[derive(Debug, Clone, Copy)]
pub struct AttentionHead {
    /// Position among the attention's heads, from 0.
    pub index: usize,
    /// Number of heads of the attention.
    pub count: usize,
    /// Query projection, `[dim, head_dim]`.
    pub wq: ParamId,
    /// Key projection, `[dim, head_dim]`.
    pub wk: ParamId,
    /// Value projection, `[dim, head_dim]`.
    pub wv: ParamId,
    /// Score scale, `1 / sqrt(head_dim)`.
    pub scale: f32,
}

/// The default body of [`Ops::attention_head`].
pub(crate) fn attention_weights<'s, O: Ops<'s> + ?Sized>(
    g: &mut O,
    store: &'s ParamStore,
    head: &AttentionHead,
    x: &O::Value,
    rows: &[usize],
    bias: Option<&Tensor>,
) -> (O::Value, O::Value) {
    let wq = g.param(store, head.wq);
    let wk = g.param(store, head.wk);
    let wv = g.param(store, head.wv);
    let x_rows = select_rows_of(g, x, rows);
    let q = g.matmul(x_rows.as_ref().unwrap_or(x), &wq);
    let k = g.matmul(x, &wk);
    let v = g.matmul(x, &wv);
    let kt = g.transpose(&k);
    let scores = g.matmul(&q, &kt);
    let mut scores = g.scale(&scores, head.scale);
    if let Some(b) = bias {
        scores = g.add_const(&scores, b);
    }
    (g.softmax_rows(&scores), v)
}

/// Multi-head self-attention over a set of row vectors.
///
/// This is the core of both the QueryFormer-style plan encoder (with a tree
/// bias mask) and the batch-query state representation (with the super query
/// token). The attention operates on `[n, dim]` inputs and returns `[n, dim]`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Vec<ParamId>,
    wk: Vec<ParamId>,
    wv: Vec<ParamId>,
    wo: ParamId,
    bo: ParamId,
    dim: usize,
    heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Create a multi-head attention block. `dim` must be divisible by `heads`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "dim {dim} must be divisible by heads {heads}"
        );
        let head_dim = dim / heads;
        let mut wq = Vec::with_capacity(heads);
        let mut wk = Vec::with_capacity(heads);
        let mut wv = Vec::with_capacity(heads);
        for h in 0..heads {
            wq.push(store.add_xavier(format!("{name}.wq{h}"), dim, head_dim, rng));
            wk.push(store.add_xavier(format!("{name}.wk{h}"), dim, head_dim, rng));
            wv.push(store.add_xavier(format!("{name}.wv{h}"), dim, head_dim, rng));
        }
        let wo = store.add_xavier(format!("{name}.wo"), dim, dim, rng);
        let bo = store.add_zeros(format!("{name}.bo"), 1, dim);
        Self {
            wq,
            wk,
            wv,
            wo,
            bo,
            dim,
            heads,
            head_dim,
        }
    }

    /// Model dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The forward pass for the output rows `rows` of `x` (`[n, dim]`),
    /// returning `[rows.len(), dim]`.
    ///
    /// Keys and values cover every row of `x`; queries, scores, softmax and
    /// `attn · V` run for `rows` alone, so a loss that reads few rows records
    /// only their share. `bias` is an optional additive `[rows.len(), n]`
    /// attention bias (e.g. the tree bias of the plan encoder); masked entries
    /// should be a large negative number. Pass `0..n` for every row.
    ///
    /// With `rows` ascending the parameter gradients are bitwise those of the
    /// all-rows pass: a dropped row only ever adds an exact `±0`, and every
    /// sum over rows keeps the order of the kept terms. Each head selects its
    /// own query rows right before its query projection, so `x`'s gradient
    /// receives each head's value, key and query contributions in the
    /// all-rows order too. With every row in order nothing is selected.
    pub fn forward<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        x: &O::Value,
        rows: &[usize],
        bias: Option<&Tensor>,
    ) -> O::Value {
        let n = g.value(x).rows();
        assert_eq!(
            g.value(x).cols(),
            self.dim,
            "attention input width mismatch"
        );
        if let Some(b) = bias {
            assert_eq!(
                b.shape(),
                (rows.len(), n),
                "attention bias must be [rows, n]"
            );
        }
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut head_outputs: Option<O::Value> = None;
        for h in 0..self.heads {
            let head = AttentionHead {
                index: h,
                count: self.heads,
                wq: self.wq[h],
                wk: self.wk[h],
                wv: self.wv[h],
                scale,
            };
            let (attn, v) = g.attention_head(store, &head, x, rows, bias);
            let out = g.matmul(&attn, &v);
            head_outputs = Some(match head_outputs {
                None => out,
                Some(prev) => g.concat_cols(&prev, &out),
            });
        }
        let concat = head_outputs.expect("at least one attention head");
        let wo = g.param(store, self.wo);
        let bo = g.param(store, self.bo);
        let projected = g.matmul(&concat, &wo);
        g.add_row(&projected, &bo)
    }
}

/// A Transformer-style encoder block: attention + feed-forward, each with a
/// residual connection and layer normalisation, matching Eq. (x̂_i / x_i^(ℓ))
/// in §III-A of the paper.
#[derive(Debug, Clone)]
pub struct AttentionBlock {
    attention: MultiHeadAttention,
    norm1: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    norm2: LayerNorm,
}

impl AttentionBlock {
    /// Create one encoder block with model width `dim`, `heads` attention
    /// heads and a feed-forward hidden width `ff_dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        ff_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            attention: MultiHeadAttention::new(store, &format!("{name}.mha"), dim, heads, rng),
            norm1: LayerNorm::new(store, &format!("{name}.norm1"), dim),
            ff1: Linear::new(
                store,
                &format!("{name}.ff1"),
                dim,
                ff_dim,
                Activation::Relu,
                rng,
            ),
            ff2: Linear::new(
                store,
                &format!("{name}.ff2"),
                ff_dim,
                dim,
                Activation::None,
                rng,
            ),
            norm2: LayerNorm::new(store, &format!("{name}.norm2"), dim),
        }
    }

    /// The forward pass of the block for the output rows `rows` of `x`; see
    /// [`MultiHeadAttention::forward`]. The residuals, norms and
    /// feed-forward layers are row-local, so they run for `rows` alone.
    pub fn forward<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        x: &O::Value,
        rows: &[usize],
        bias: Option<&Tensor>,
    ) -> O::Value {
        let attn = self.attention.forward(g, store, x, rows, bias);
        // Recorded after the attention, so `x`'s gradient receives the
        // residual's share first, as in the all-rows pass.
        let x_rows = select_rows_of(g, x, rows);
        let residual = g.add(x_rows.as_ref().unwrap_or(x), &attn);
        let x1 = self.norm1.forward(g, store, &residual);
        let h = self.ff1.forward(g, store, &x1);
        let h = self.ff2.forward(g, store, &h);
        let residual2 = g.add(&x1, &h);
        self.norm2.forward(g, store, &residual2)
    }

    /// Model dimensionality handled by this block.
    pub fn dim(&self) -> usize {
        self.attention.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::ops::Eager;
    use crate::optim::Adam;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::borrow::Cow;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 5, 3, Activation::Tanh, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(7, 5));
        let y = lin.forward(&mut g, &store, &x);
        assert_eq!(g.value(y).shape(), (7, 3));
        // Tanh keeps outputs in (-1, 1).
        assert!(g.value(y).data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn mlp_stacks_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[8, 16, 4, 1],
            Activation::Relu,
            Activation::None,
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 1);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(3, 8));
        let y = mlp.forward(&mut g, &store, &x);
        assert_eq!(g.value(y).shape(), (3, 1));
    }

    #[test]
    fn layer_norm_normalises_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(
            2,
            4,
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        ));
        let y = ln.forward(&mut g, &store, &x);
        let v = g.value(y);
        for r in 0..2 {
            let mean: f32 = v.row_slice(r).iter().sum::<f32>() / 4.0;
            let var: f32 = v
                .row_slice(r)
                .iter()
                .map(|&a| (a - mean) * (a - mean))
                .sum::<f32>()
                / 4.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn attention_output_shape_and_finiteness() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "mha", 8, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(
            5,
            8,
            (0..40).map(|i| (i as f32) * 0.01).collect(),
        ));
        let y = mha.forward(&mut g, &store, &x, &[0, 1, 2, 3, 4], None);
        assert_eq!(g.value(y).shape(), (5, 8));
        assert!(g.value(y).data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn attention_respects_bias_mask() {
        // With a mask that blocks attention to every position except self,
        // each row's output should depend only on its own value row.
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "mha", 4, 1, &mut rng);

        let base = Tensor::from_vec(3, 4, (0..12).map(|i| (i as f32) * 0.1).collect());
        let mut other = base.clone();
        // Change row 2 only.
        for c in 0..4 {
            other.set(2, c, 9.0);
        }
        let mut mask = Tensor::full(3, 3, -1e8);
        for i in 0..3 {
            mask.set(i, i, 0.0);
        }

        let mut g1 = Graph::new();
        let x1 = g1.input(base);
        let y1 = mha.forward(&mut g1, &store, &x1, &[0, 1, 2], Some(&mask));

        let mut g2 = Graph::new();
        let x2 = g2.input(other);
        let y2 = mha.forward(&mut g2, &store, &x2, &[0, 1, 2], Some(&mask));

        // Rows 0 and 1 unchanged, row 2 changed.
        for c in 0..4 {
            assert!((g1.value(y1).get(0, c) - g2.value(y2).get(0, c)).abs() < 1e-5);
            assert!((g1.value(y1).get(1, c) - g2.value(y2).get(1, c)).abs() < 1e-5);
        }
        let row2_diff: f32 = (0..4)
            .map(|c| (g1.value(y1).get(2, c) - g2.value(y2).get(2, c)).abs())
            .sum();
        assert!(row2_diff > 1e-3);
    }

    #[test]
    fn attention_block_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let block = AttentionBlock::new(&mut store, "blk", 8, 2, 16, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(
            6,
            8,
            (0..48).map(|i| ((i % 7) as f32) * 0.1).collect(),
        ));
        let y = block.forward(&mut g, &store, &x, &[0, 1, 2, 3, 4, 5], None);
        assert_eq!(g.value(y).shape(), (6, 8));
        assert!(g.value(y).data().iter().all(|x| x.is_finite()));
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The bits of `block` over the output rows `rows` of `x` with `bias`,
    /// then of `mlp` over every row, run on `g`.
    fn layer_bits<'s, O: Ops<'s>>(
        g: &mut O,
        store: &'s ParamStore,
        (block, mlp): (&AttentionBlock, &Mlp),
        x: &Tensor,
        rows: &[usize],
        bias: Option<&Tensor>,
    ) -> Vec<u32> {
        let xi = g.input(x.clone());
        let y = block.forward(g, store, &xi, rows, bias);
        let z = mlp.forward(g, store, &xi);
        let mut out = bits(g.value(&y));
        out.extend(bits(g.value(&z)));
        out
    }

    #[test]
    fn eager_paths_match_graph_bitwise() {
        // An eager evaluation (per-head projections, no graph nodes) produces
        // bit-for-bit the floats of the recorded forward pass for every layer
        // kind, across activations and head counts, and for an attention
        // block with an additive bias over every row and over a row subset.
        let mut rng = StdRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let block = AttentionBlock::new(&mut store, "blk", 8, 4, 16, &mut rng);
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[8, 16, 3],
            Activation::Tanh,
            Activation::Relu,
            &mut rng,
        );
        let x = Tensor::from_vec(
            6,
            8,
            (0..48).map(|i| ((i % 11) as f32) * 0.13 - 0.5).collect(),
        );
        // A tree-style bias over `[rows, 6]`: rows within two hops attend
        // with a per-hop penalty, the rest are masked with -1e8.
        let tree_bias = |rows: &[usize]| {
            let mut b = Tensor::zeros(rows.len(), 6);
            for (i, &r) in rows.iter().enumerate() {
                for c in 0..6 {
                    let hops = r.abs_diff(c);
                    b.set(i, c, if hops > 2 { -1e8 } else { -0.5 * hops as f32 });
                }
            }
            b
        };
        let all = [0, 1, 2, 3, 4, 5];
        let subset = [1, 4, 5];
        for (rows, bias) in [
            (&all[..], None),
            (&all[..], Some(tree_bias(&all))),
            (&subset[..], Some(tree_bias(&subset))),
        ] {
            let layers = (&block, &mlp);
            let bias = bias.as_ref();
            let recorded = layer_bits(&mut Graph::new(), &store, layers, &x, rows, bias);
            let eager = layer_bits(&mut Eager::default(), &store, layers, &x, rows, bias);
            assert!(
                recorded == eager,
                "rows {rows:?} (biased: {}) drifted",
                bias.is_some()
            );
        }
    }

    #[test]
    fn row_subset_eager_matches_forward_rows_bitwise() {
        // Keys and values see every row, so a subset's outputs are exactly
        // the matching rows of the full pass — in any order, repeats allowed.
        let mut rng = StdRng::seed_from_u64(43);
        let mut store = ParamStore::new();
        let block = AttentionBlock::new(&mut store, "blk", 8, 2, 16, &mut rng);
        let x = Tensor::from_vec(
            7,
            8,
            (0..56).map(|i| ((i % 13) as f32) * 0.11 - 0.6).collect(),
        );
        let mut g = Graph::new();
        let xi = g.input(x.clone());
        let y_graph = block.forward(&mut g, &store, &xi, &[0, 1, 2, 3, 4, 5, 6], None);
        for rows in [vec![6], vec![1, 4, 6], vec![5, 0, 5], vec![]] {
            let y_rows = block.forward(
                &mut Eager::default(),
                &store,
                &Cow::Borrowed(&x),
                &rows,
                None,
            );
            assert_eq!(y_rows.shape(), (rows.len(), 8));
            let expected = g.value(y_graph).select_rows(&rows);
            assert!(
                bits(&expected) == bits(&y_rows),
                "row subset {rows:?} drifted"
            );
        }
    }

    /// Output and parameter-gradient bits of a loss on `rows` of a two-block
    /// stack whose last block records `rows` alone, or every row followed
    /// by a selection.
    fn two_block_bits(rows: &[usize], narrow: bool) -> (Vec<u32>, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(44);
        let mut store = ParamStore::new();
        let first = AttentionBlock::new(&mut store, "b0", 8, 2, 16, &mut rng);
        let last = AttentionBlock::new(&mut store, "b1", 8, 2, 16, &mut rng);
        let x = Tensor::from_vec(
            7,
            8,
            (0..56).map(|i| ((i % 9) as f32) * 0.17 - 0.7).collect(),
        );
        let all: Vec<usize> = (0..7).collect();
        let mut g = Graph::new();
        let xi = g.input(x);
        let h = first.forward(&mut g, &store, &xi, &all, None);
        let y = if narrow {
            last.forward(&mut g, &store, &h, rows, None)
        } else {
            let y = last.forward(&mut g, &store, &h, &all, None);
            g.select_rows(y, rows)
        };
        let loss = g.mse_loss(y, &Tensor::full(rows.len(), 8, 0.25));
        g.backward(loss);
        g.flush_grads(&mut store);
        let grads = store.iter().flat_map(|(_, p)| bits(&p.grad)).collect();
        (bits(g.value(y)), grads)
    }

    #[test]
    fn row_subset_forward_matches_all_rows_bitwise() {
        // A loss on ascending rows trains the same parameter-gradient bits
        // whether the last block records those rows or every row.
        for rows in [vec![6], vec![0, 2, 6], vec![1, 2, 3, 4, 5], vec![]] {
            assert!(
                two_block_bits(&rows, true) == two_block_bits(&rows, false),
                "rows {rows:?} drifted"
            );
        }
    }

    #[test]
    fn param_store_version_tracks_value_mutation() {
        let mut store = ParamStore::new();
        let v0 = store.version();
        let id = store.add("w", Tensor::row(&[1.0]));
        assert!(store.version() > v0);
        let v1 = store.version();
        store.accumulate_grad(id, &Tensor::row(&[1.0]));
        store.zero_grads();
        store.clip_grad_norm(1.0);
        assert_eq!(store.version(), v1, "grad-only ops must not bump version");
        store.get_mut(id).value.set(0, 0, 2.0);
        assert!(store.version() > v1);
    }

    #[test]
    fn mlp_can_learn_a_simple_function() {
        // Train y = 2*x0 - x1 with an MLP; loss should drop substantially.
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[2, 16, 1],
            Activation::Tanh,
            Activation::None,
            &mut rng,
        );
        let mut adam = Adam::new(0.01);

        let xs: Vec<Vec<f32>> = (0..32)
            .map(|i| vec![((i % 8) as f32) / 8.0 - 0.5, ((i / 8) as f32) / 4.0 - 0.5])
            .collect();
        let ys: Vec<Vec<f32>> = xs.iter().map(|x| vec![2.0 * x[0] - x[1]]).collect();
        let x = Tensor::from_rows(&xs);
        let y = Tensor::from_rows(&ys);

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            store.zero_grads();
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let pred = mlp.forward(&mut g, &store, &xi);
            let loss = g.mse_loss(pred, &y);
            last = g.value(loss).item();
            if first.is_none() {
                first = Some(last);
            }
            g.backward(loss);
            g.flush_grads(&mut store);
            adam.step(&mut store);
        }
        assert!(
            last < first.unwrap() * 0.1,
            "loss did not drop: {first:?} -> {last}"
        );
        assert!(last < 0.01, "final loss too high: {last}");
    }
}
