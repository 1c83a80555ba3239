//! The ops a forward pass is written in, and the two ways to run it.
//!
//! Each layer defines its forward pass once, generic over [`Ops`]. A
//! [`Graph`] records every op on the autodiff tape for training; [`Eager`]
//! computes each value at once and keeps nothing for a backward pass, for
//! the decision loop. Both compute every value with the same [`Tensor`]
//! arithmetic, so a forward run eagerly is bitwise the recorded one. The
//! one hook an evaluation overrides, [`Ops::attention_head`], lets the
//! decision loop carry its first attention over from the last decision
//! ([`crate::incremental`]).

use crate::graph::{Graph, NodeId};
use crate::incremental::IncrementalAttention;
use crate::layers::{attention_weights, AttentionHead};
use crate::math;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::borrow::Cow;

/// The ops a layer's forward pass is written in. `'s` is the lifetime of
/// the stores [`Ops::param`] reads.
pub trait Ops<'s> {
    /// A value of the forward pass: a tape node, or an eager tensor.
    type Value;
    /// The tensor of `x`.
    fn value<'a>(&'a self, x: &'a Self::Value) -> &'a Tensor;
    /// A constant; see [`Graph::input`].
    fn input(&mut self, value: Tensor) -> Self::Value;
    /// The current value of parameter `id`; see [`Graph::param`].
    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> Self::Value;
    /// See [`Graph::matmul`].
    fn matmul(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// See [`Graph::transpose`].
    fn transpose(&mut self, a: &Self::Value) -> Self::Value;
    /// See [`Graph::add`].
    fn add(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// See [`Graph::mul`].
    fn mul(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// See [`Graph::add_row`].
    fn add_row(&mut self, a: &Self::Value, bias: &Self::Value) -> Self::Value;
    /// See [`Graph::scale`].
    fn scale(&mut self, a: &Self::Value, s: f32) -> Self::Value;
    /// See [`Graph::add_const`].
    fn add_const(&mut self, a: &Self::Value, c: &Tensor) -> Self::Value;
    /// See [`Graph::tanh`].
    fn tanh(&mut self, a: &Self::Value) -> Self::Value;
    /// See [`Graph::relu`].
    fn relu(&mut self, a: &Self::Value) -> Self::Value;
    /// See [`Graph::softmax_rows`].
    fn softmax_rows(&mut self, a: &Self::Value) -> Self::Value;
    /// See [`Graph::mean_pool_rows`].
    fn mean_pool_rows(&mut self, a: &Self::Value) -> Self::Value;
    /// See [`Graph::concat_cols`].
    fn concat_cols(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// See [`Graph::concat_rows`].
    fn concat_rows(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// See [`Graph::slice_rows`].
    fn slice_rows(&mut self, a: &Self::Value, start: usize, len: usize) -> Self::Value;
    /// See [`Graph::reshape`].
    fn reshape(&mut self, a: &Self::Value, rows: usize, cols: usize) -> Self::Value;
    /// See [`Graph::select_rows`].
    fn select_rows(&mut self, a: &Self::Value, indices: &[usize]) -> Self::Value;
    /// See [`Graph::row_norm`].
    fn row_norm(&mut self, a: &Self::Value, eps: f32) -> Self::Value;

    /// One head of a [`crate::MultiHeadAttention`] over `x` (`[n, dim]`)
    /// up to `attn · V`: the softmax weights of the query rows `rows` over
    /// every row of `x` (`[rows.len(), n]`) and the value rows (`[n,
    /// head_dim]`). The default body projects the queries, keys and values
    /// and runs `transpose → matmul → scale → softmax` on them, adding `bias`
    /// to the scores when given; an evaluator may compute the same values
    /// another way, bit for bit.
    fn attention_head(
        &mut self,
        store: &'s ParamStore,
        head: &AttentionHead,
        x: &Self::Value,
        rows: &[usize],
        bias: Option<&Tensor>,
    ) -> (Self::Value, Self::Value) {
        attention_weights(self, store, head, x, rows, bias)
    }
}

impl<'s> Ops<'s> for Graph {
    type Value = NodeId;
    fn value<'a>(&'a self, x: &'a NodeId) -> &'a Tensor {
        Graph::value(self, *x)
    }
    fn input(&mut self, value: Tensor) -> NodeId {
        Graph::input(self, value)
    }
    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> NodeId {
        Graph::param(self, store, id)
    }
    fn matmul(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Graph::matmul(self, *a, *b)
    }
    fn transpose(&mut self, a: &NodeId) -> NodeId {
        Graph::transpose(self, *a)
    }
    fn add(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Graph::add(self, *a, *b)
    }
    fn mul(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Graph::mul(self, *a, *b)
    }
    fn add_row(&mut self, a: &NodeId, bias: &NodeId) -> NodeId {
        Graph::add_row(self, *a, *bias)
    }
    fn scale(&mut self, a: &NodeId, s: f32) -> NodeId {
        Graph::scale(self, *a, s)
    }
    fn add_const(&mut self, a: &NodeId, c: &Tensor) -> NodeId {
        Graph::add_const(self, *a, c)
    }
    fn tanh(&mut self, a: &NodeId) -> NodeId {
        Graph::tanh(self, *a)
    }
    fn relu(&mut self, a: &NodeId) -> NodeId {
        Graph::relu(self, *a)
    }
    fn softmax_rows(&mut self, a: &NodeId) -> NodeId {
        Graph::softmax_rows(self, *a)
    }
    fn mean_pool_rows(&mut self, a: &NodeId) -> NodeId {
        Graph::mean_pool_rows(self, *a)
    }
    fn concat_cols(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Graph::concat_cols(self, *a, *b)
    }
    fn concat_rows(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Graph::concat_rows(self, *a, *b)
    }
    fn slice_rows(&mut self, a: &NodeId, start: usize, len: usize) -> NodeId {
        Graph::slice_rows(self, *a, start, len)
    }
    fn reshape(&mut self, a: &NodeId, rows: usize, cols: usize) -> NodeId {
        Graph::reshape(self, *a, rows, cols)
    }
    fn select_rows(&mut self, a: &NodeId, indices: &[usize]) -> NodeId {
        Graph::select_rows(self, *a, indices)
    }
    fn row_norm(&mut self, a: &NodeId, eps: f32) -> NodeId {
        Graph::row_norm(self, *a, eps)
    }
}

/// Eager evaluation of a forward definition: each op computes its value at
/// once and records nothing for a backward pass. [`Ops::param`] borrows the
/// parameter's value from the store instead of copying it, and every other
/// value is an owned tensor, freed when the forward pass drops it.
///
/// An evaluation made by [`Eager::carrying`] serves the heads of the first
/// attention of its pass from an [`IncrementalAttention`] carried over from
/// the last pass, with the same values bit for bit; every later attention,
/// and an attention with a bias, evaluates statelessly.
#[derive(Debug, Default)]
pub struct Eager<'c> {
    /// The first attention's state, until its last head is evaluated.
    carry: Option<&'c mut IncrementalAttention>,
}

impl<'c> Eager<'c> {
    /// An evaluation whose first attention is carried in `state`, which is
    /// renewed and told the input rows that changed since the last pass.
    /// That attention's input must be the one those rows belong to.
    pub fn carrying(state: &'c mut IncrementalAttention) -> Self {
        Self { carry: Some(state) }
    }
}

impl<'s> Ops<'s> for Eager<'_> {
    type Value = Cow<'s, Tensor>;
    fn value<'a>(&'a self, x: &'a Self::Value) -> &'a Tensor {
        x
    }
    fn input(&mut self, value: Tensor) -> Self::Value {
        Cow::Owned(value)
    }
    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> Self::Value {
        Cow::Borrowed(store.value(id))
    }
    fn matmul(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        Cow::Owned(a.matmul(b))
    }
    fn transpose(&mut self, a: &Self::Value) -> Self::Value {
        Cow::Owned(a.transpose())
    }
    fn add(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        Cow::Owned(a.add(b))
    }
    fn mul(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        Cow::Owned(a.mul(b))
    }
    fn add_row(&mut self, a: &Self::Value, bias: &Self::Value) -> Self::Value {
        Cow::Owned(a.add_row_broadcast(bias))
    }
    fn scale(&mut self, a: &Self::Value, s: f32) -> Self::Value {
        Cow::Owned(a.scale(s))
    }
    fn add_const(&mut self, a: &Self::Value, c: &Tensor) -> Self::Value {
        Cow::Owned(a.add(c))
    }
    fn tanh(&mut self, a: &Self::Value) -> Self::Value {
        Cow::Owned(a.map(math::tanh))
    }
    fn relu(&mut self, a: &Self::Value) -> Self::Value {
        Cow::Owned(a.map(|x| x.max(0.0)))
    }
    fn softmax_rows(&mut self, a: &Self::Value) -> Self::Value {
        Cow::Owned(a.softmax_rows())
    }
    fn mean_pool_rows(&mut self, a: &Self::Value) -> Self::Value {
        Cow::Owned(a.mean_pool_rows())
    }
    fn concat_cols(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        Cow::Owned(a.concat_cols(b))
    }
    fn concat_rows(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        Cow::Owned(a.concat_rows(b))
    }
    fn slice_rows(&mut self, a: &Self::Value, start: usize, len: usize) -> Self::Value {
        Cow::Owned(a.slice_rows(start, len))
    }
    fn reshape(&mut self, a: &Self::Value, rows: usize, cols: usize) -> Self::Value {
        Cow::Owned(Tensor::from_vec(rows, cols, a.data().to_vec()))
    }
    fn select_rows(&mut self, a: &Self::Value, indices: &[usize]) -> Self::Value {
        Cow::Owned(a.select_rows(indices))
    }
    fn row_norm(&mut self, a: &Self::Value, eps: f32) -> Self::Value {
        Cow::Owned(a.row_norm(eps))
    }
    fn attention_head(
        &mut self,
        store: &'s ParamStore,
        head: &AttentionHead,
        x: &Self::Value,
        rows: &[usize],
        bias: Option<&Tensor>,
    ) -> (Self::Value, Self::Value) {
        let carry = if head.index + 1 == head.count {
            self.carry.take()
        } else {
            self.carry.as_deref_mut()
        };
        match carry {
            Some(state) if bias.is_none() => {
                let (attn, v) = state.attend(store, head, x, rows);
                (Cow::Owned(attn), Cow::Owned(v))
            }
            _ => attention_weights(self, store, head, x, rows, bias),
        }
    }
}
