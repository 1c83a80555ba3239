//! Attention carried from one pass to the next.
//!
//! Between two scheduling decisions only a few entities' inputs move, yet a
//! stateless pass recomputes every query, key and value row of the state
//! encoder's first attention block, every score and every `exp` of its
//! softmax. [`IncrementalAttention`] keeps them per head, and an
//! evaluation made by [`crate::Eager::carrying`], which serves the first
//! attention of a pass from that state, recomputes only what the input rows
//! marked changed since the last pass touch:
//!
//! - the query, key and value rows of a changed input row;
//! - the scores of a changed key column, and every score of a changed query
//!   row or of one the last pass did not request;
//! - the numerator `exp(s − m)` where its score or its row's max `m` moved.
//!
//! Each row's sum in key order, the normalisation and `attn · V` run as in
//! the stateless pass, so every value is bitwise the same (the argument is
//! in `docs/DETERMINISM.md`).

use crate::layers::AttentionHead;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// The carried state of one attention's heads over an input of `n` rows,
/// valid for one [`ParamStore::version`].
///
/// Its holder calls [`Self::renew`] before each pass, which drops the state
/// whenever the parameter values moved, and marks with
/// [`Self::input_changed`] every input row whose bits may differ from the
/// last pass. Per head the state keeps the query, key and value rows, and
/// per pair of query and key row the scaled score and the numerator
/// `exp(s − m)` with each query row's max `m`: `heads × n × n` floats twice.
#[derive(Debug, Clone, Default)]
pub struct IncrementalAttention {
    version: Option<u64>,
    /// One flag per input row: its value may have moved since the heads
    /// last read it.
    changed: Vec<bool>,
    heads: Vec<HeadState>,
}

impl IncrementalAttention {
    /// Drop the state unless it was built at `store`'s version, and report
    /// whether it was dropped: whatever else the holder derived from the
    /// parameter values is then stale too.
    pub fn renew(&mut self, store: &ParamStore) -> bool {
        let version = Some(store.version());
        if self.version == version {
            return false;
        }
        *self = Self {
            version,
            ..Self::default()
        };
        true
    }

    /// Mark input row `row` as changed since the last pass. A row the state
    /// does not cover yet is computed anyway.
    pub fn input_changed(&mut self, row: usize) {
        if let Some(flag) = self.changed.get_mut(row) {
            *flag = true;
        }
    }

    /// [`crate::Ops::attention_head`] for `head` over `x`, carried: the weights of
    /// the query rows `rows` and the value rows.
    pub(crate) fn attend(
        &mut self,
        store: &ParamStore,
        head: &AttentionHead,
        x: &Tensor,
        rows: &[usize],
    ) -> (Tensor, Tensor) {
        assert_eq!(
            self.version,
            Some(store.version()),
            "renew the attention state before a pass"
        );
        let n = x.rows();
        if self.changed.len() != n {
            self.changed.clear();
            self.changed.resize(n, true);
        }
        if self.heads.len() < head.count {
            self.heads.resize_with(head.count, HeadState::default);
        }
        let ids = [head.wq, head.wk, head.wv];
        let w = ids.map(|id| store.value(id));
        let state = &mut self.heads[head.index];
        state.fit(ids, n, w[0].cols());
        state.update(x, w, head.scale, &self.changed, rows);
        if head.index + 1 == head.count {
            self.changed.fill(false);
        }
        state.output(rows)
    }
}

/// One head's carried rows. Row `i` of `scores`, `numerators`, `max` and
/// `sums` belongs to query row `i`, column `j` to key row `j`.
#[derive(Debug, Clone, Default)]
struct HeadState {
    /// The query, key and value projections the rows were computed with.
    ids: Option<[ParamId; 3]>,
    /// Input rows covered.
    n: usize,
    /// Head width.
    d: usize,
    /// Whether every query, key and value row is computed for `ids`, `n`
    /// and `d`.
    fresh: bool,
    /// `[n, d]`: the query rows.
    q: Vec<f32>,
    /// `[n, d]`: the key rows.
    k: Vec<f32>,
    /// `[d, n]`: the key rows, transposed, so that a score row is an i-k-j
    /// product as in `q · kᵀ`.
    kt: Vec<f32>,
    /// `[n, d]`: the value rows.
    v: Vec<f32>,
    /// `[n, n]`: `(q_i · k_j) · scale`.
    scores: Vec<f32>,
    /// `[n, n]`: `exp(scores[i][j] − max[i])`.
    numerators: Vec<f32>,
    /// `[n]`: the max of each score row.
    max: Vec<f32>,
    /// `[n]`: each numerator row summed in key order.
    sums: Vec<f32>,
    /// `[n]`: whether row `i` of `scores`, `numerators` and `max` is up to
    /// date for every key row but the changed ones, i.e. the last pass
    /// requested it.
    scored: Vec<bool>,
    /// The rows that changed since the last pass, in ascending order.
    moved: Vec<usize>,
    /// `[d, moved.len()]`: the key rows `moved`, transposed.
    moved_kt: Vec<f32>,
    /// `[moved.len()]`: one query row's fresh scores of the key rows
    /// `moved`, before scaling.
    fresh_scores: Vec<f32>,
}

impl HeadState {
    /// Size the buffers for `n` rows of width `d` under `ids`; the rows are
    /// computed afresh if any of the three changed.
    fn fit(&mut self, ids: [ParamId; 3], n: usize, d: usize) {
        if self.ids == Some(ids) && self.n == n && self.d == d {
            return;
        }
        self.ids = Some(ids);
        (self.n, self.d, self.fresh) = (n, d, false);
        for rows in [&mut self.q, &mut self.k, &mut self.kt, &mut self.v] {
            rows.resize(n * d, 0.0);
        }
        for square in [&mut self.scores, &mut self.numerators] {
            square.resize(n * n, 0.0);
        }
        for row in [&mut self.max, &mut self.sums, &mut self.fresh_scores] {
            row.resize(n, 0.0);
        }
        self.scored.clear();
        self.scored.resize(n, false);
        self.moved.reserve(n);
        self.moved_kt.resize(n * d, 0.0);
    }

    // bq-lint: hot-path
    /// Bring the query rows `rows` up to date with `x`, recomputing only
    /// what the input rows `changed` (every row while not fresh) touch.
    ///
    /// Every score is `q_i · k_j` as `q · kᵀ` computes it, from `+0.0`
    /// adding `q_i[p] · k_j[p]` for `p` ascending and skipping zero
    /// `q_i[p]`, then times `scale`; only the loops around it differ.
    fn update(
        &mut self,
        x: &Tensor,
        [wq, wk, wv]: [&Tensor; 3],
        scale: f32,
        changed: &[bool],
        rows: &[usize],
    ) {
        let (n, d, fresh) = (self.n, self.d, self.fresh);
        self.moved.clear();
        self.moved.extend((0..n).filter(|&i| !fresh || changed[i]));
        let m = self.moved.len();
        x.matmul_rows_into(&self.moved, wq, &mut self.q);
        x.matmul_rows_into(&self.moved, wk, &mut self.k);
        x.matmul_rows_into(&self.moved, wv, &mut self.v);
        for (l, &j) in self.moved.iter().enumerate() {
            for (p, &k) in self.k[j * d..(j + 1) * d].iter().enumerate() {
                self.kt[p * n + j] = k;
                self.moved_kt[p * m + l] = k;
            }
        }
        let (kt, moved_kt) = (&self.kt, &self.moved_kt[..d * m]);
        for &i in rows {
            let q_i = &self.q[i * d..(i + 1) * d];
            let scores = &mut self.scores[i * n..(i + 1) * n];
            let numerators = &mut self.numerators[i * n..(i + 1) * n];
            let old_max = self.max[i];
            if !fresh || changed[i] || !self.scored[i] {
                accumulate_scores(q_i, kt, scores);
                scores.iter_mut().for_each(|s| *s *= scale);
                let max = row_max(scores);
                for (e, &s) in numerators.iter_mut().zip(scores.iter()) {
                    *e = (s - max).exp();
                }
                self.max[i] = max;
                continue;
            }
            // Only the changed columns are scored again, and their
            // numerators taken against the old max. The new max is taken
            // over them alone unless one of them may have held the old one.
            let fresh_scores = &mut self.fresh_scores[..m];
            accumulate_scores(q_i, moved_kt, fresh_scores);
            let (mut refold, mut max) = (false, old_max);
            for (&j, &s) in self.moved.iter().zip(fresh_scores.iter()) {
                refold |= scores[j].is_nan() || scores[j] >= old_max;
                scores[j] = s * scale;
                numerators[j] = (scores[j] - old_max).exp();
                max = max.max(scores[j]);
            }
            if refold {
                max = row_max(scores);
            }
            if max != old_max {
                for (e, &s) in numerators.iter_mut().zip(scores.iter()) {
                    *e = (s - max).exp();
                }
            }
            self.max[i] = max;
        }
        // Eight rows at a time, so the sums' dependency chains overlap; each
        // row still adds its numerators in key order from +0.0.
        for group in rows.chunks(8) {
            let lanes: [&[f32]; 8] = std::array::from_fn(|l| {
                let i = group[l.min(group.len() - 1)];
                &self.numerators[i * n..(i + 1) * n]
            });
            let mut sums = [0.0f32; 8];
            for j in 0..n {
                for (sum, lane) in sums.iter_mut().zip(&lanes) {
                    *sum += lane[j];
                }
            }
            for (&i, &sum) in group.iter().zip(&sums) {
                self.sums[i] = sum;
            }
        }
        self.scored.fill(false);
        for &i in rows {
            self.scored[i] = true;
        }
        self.fresh = true;
    }
    // bq-lint: hot-path-end

    /// The weights of the query rows `rows`, `[rows.len(), n]`, normalised
    /// as [`Tensor::softmax_rows`] does, and the value rows, `[n, d]`.
    fn output(&self, rows: &[usize]) -> (Tensor, Tensor) {
        let n = self.n;
        let mut attn = Vec::with_capacity(rows.len() * n);
        for &i in rows {
            let (sum, numerators) = (self.sums[i], &self.numerators[i * n..(i + 1) * n]);
            if sum > 0.0 {
                attn.extend(numerators.iter().map(|e| e / sum));
            } else {
                attn.extend_from_slice(numerators);
            }
        }
        let v = Tensor::from_vec(n, self.d, self.v.clone());
        (Tensor::from_vec(rows.len(), n, attn), v)
    }
}

/// `q · kt` into `out` (`kt` is `[q.len(), out.len()]`): each element as
/// [`Tensor::matmul`] computes it, so `q · kᵀ`'s before scaling.
fn accumulate_scores(q: &[f32], kt: &[f32], out: &mut [f32]) {
    let w = out.len();
    out.fill(0.0);
    for (p, &a) in q.iter().enumerate().filter(|(_, &a)| a != 0.0) {
        for (s, &k) in out.iter_mut().zip(&kt[p * w..(p + 1) * w]) {
            *s += a * k;
        }
    }
}

/// The max of a score row, folded as [`Tensor::softmax_rows`] folds it.
fn row_max(scores: &[f32]) -> f32 {
    scores.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{AttentionBlock, MultiHeadAttention};
    use crate::ops::Eager;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::borrow::Cow;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// An attention over 8 rows of width 8 with two heads, its input, and
    /// the state carried across passes.
    struct Script {
        store: ParamStore,
        mha: MultiHeadAttention,
        state: IncrementalAttention,
        x: Tensor,
    }

    impl Script {
        fn new() -> Self {
            let mut rng = StdRng::seed_from_u64(51);
            let mut store = ParamStore::new();
            let mha = MultiHeadAttention::new(&mut store, "mha", 8, 2, &mut rng);
            let x = Tensor::from_vec(8, 8, (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let state = IncrementalAttention::default();
            Self {
                store,
                mha,
                state,
                x,
            }
        }

        /// One pass over the query rows `rows` after marking the rows
        /// `changed`: the carried output must be bitwise the stateless one,
        /// which is returned.
        fn pass(&mut self, changed: &[usize], rows: &[usize], what: &str) -> Vec<u32> {
            self.state.renew(&self.store);
            for &i in changed {
                self.state.input_changed(i);
            }
            let x = Cow::Borrowed(&self.x);
            let stateless = self
                .mha
                .forward(&mut Eager::default(), &self.store, &x, rows, None);
            let mut carry = Eager::carrying(&mut self.state);
            let carried = self.mha.forward(&mut carry, &self.store, &x, rows, None);
            assert!(bits(&stateless) == bits(&carried), "{what}: drifted");
            bits(&stateless)
        }

        /// Head 0's carried scores of query row `i`.
        fn scores(&self, i: usize) -> &[f32] {
            let head = &self.state.heads[0];
            &head.scores[i * head.n..(i + 1) * head.n]
        }

        fn argmax(&self, i: usize) -> usize {
            Tensor::row(self.scores(i)).argmax()
        }

        fn scale_row(&mut self, i: usize, by: f32) {
            for c in 0..self.x.cols() {
                let v = self.x.get(i, c);
                self.x.set(i, c, v * by);
            }
        }
    }

    #[test]
    fn carried_heads_match_the_stateless_pass_through_a_round() {
        // Row 0 stands for a running entity (a key row only), row 7 for the
        // super query; the other rows are the pending query rows.
        let mut s = Script::new();
        let mut rows = vec![1, 2, 3, 4, 5, 6, 7];
        s.pass(&[], &rows, "first pass");
        s.pass(&[], &rows, "nothing changed");

        s.scale_row(0, 1.25);
        s.pass(&[0], &rows, "one key row changed");

        // A query row whose max sits in another row's column; that column
        // changes, so the row folds its max again.
        let r = (1..7)
            .find(|&r| s.argmax(r) != r)
            .expect("a row maxed off itself");
        let j = s.argmax(r);
        s.scale_row(j, -1.0);
        s.pass(&[j], &rows, "the column holding a row's max changed");

        // Row 0's column, scaled far up on the side of its score, becomes
        // row r's max: every numerator of row r is recomputed.
        let (r, old_max) = (1, s.argmax(1));
        let by = if s.scores(r)[0] > 0.0 { 40.0 } else { -40.0 };
        assert_ne!(old_max, 0, "row 0 must not hold the max yet");
        s.scale_row(0, by);
        s.pass(&[0], &rows, "a changed column became the new max");
        assert_eq!(s.argmax(r), 0, "the changed column must be the new max");

        // A submitted query leaves the query rows and its input changes.
        rows.retain(|&i| i != 3);
        s.scale_row(3, 0.5);
        s.pass(&[3], &rows, "the query rows shrank by one");

        // A new round: every row changed, and row 3 is requested again.
        rows = vec![1, 2, 3, 4, 5, 6, 7];
        for i in 0..8 {
            s.scale_row(i, 0.75);
        }
        s.pass(&(0..8).collect::<Vec<_>>(), &rows, "every row changed");

        let before = s.pass(&[], &rows, "nothing changed again");
        let id = s.store.iter().next().expect("a parameter").0;
        let w = s.store.value(id).get(0, 0);
        s.store.get_mut(id).value.set(0, 0, w + 0.5);
        let after = s.pass(&[], &rows, "the store version moved");
        assert_ne!(before, after, "the update must show");
    }

    #[test]
    fn a_random_walk_of_passes_matches_the_stateless_pass() {
        // Two blocks over random query rows: the first attention is carried,
        // the second sees rows that all move every pass and must evaluate
        // statelessly. Inputs mix in signed zeros, and a marked row keeps
        // its bits now and then.
        let mut rng = StdRng::seed_from_u64(52);
        let mut store = ParamStore::new();
        let first = AttentionBlock::new(&mut store, "b0", 8, 2, 16, &mut rng);
        let last = AttentionBlock::new(&mut store, "b1", 8, 2, 16, &mut rng);
        let n = 12;
        let value = |rng: &mut StdRng| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        };
        let mut x = Tensor::from_vec(n, 8, (0..n * 8).map(|_| value(&mut rng)).collect());
        let mut state = IncrementalAttention::default();
        let subset = |rng: &mut StdRng, n: usize| -> Vec<usize> {
            let keep = rng.gen_range(0.3..1.0);
            (0..n)
                .filter(|&i| i + 1 == n || rng.gen_bool(keep))
                .collect()
        };
        for step in 0..400 {
            let mut changed = Vec::new();
            for _ in 0..rng.gen_range(0..4) {
                let i = rng.gen_range(0..n);
                if rng.gen_bool(0.8) {
                    for c in 0..8 {
                        x.set(i, c, value(&mut rng));
                    }
                }
                changed.push(i);
            }
            if rng.gen_bool(0.02) {
                let id = store
                    .iter()
                    .nth(rng.gen_range(0..6))
                    .expect("a parameter")
                    .0;
                let w = store.value(id).get(0, 0);
                store.get_mut(id).value.set(0, 0, w * 0.9);
            }
            let first_rows = subset(&mut rng, n);
            let last_rows = subset(&mut rng, first_rows.len());
            state.renew(&store);
            for &i in &changed {
                state.input_changed(i);
            }
            let xi = Cow::Borrowed(&x);
            let stateless = {
                let h = first.forward(&mut Eager::default(), &store, &xi, &first_rows, None);
                last.forward(&mut Eager::default(), &store, &h, &last_rows, None)
            };
            let carried = {
                let mut carry = Eager::carrying(&mut state);
                let h = first.forward(&mut carry, &store, &xi, &first_rows, None);
                last.forward(&mut carry, &store, &h, &last_rows, None)
            };
            assert!(bits(&stateless) == bits(&carried), "step {step} drifted");
            let wq0 = store.iter().next().expect("the first block's wq0").0;
            assert_eq!(
                state.heads[0].ids.map(|[wq, _, _]| wq),
                Some(wq0),
                "step {step}: the state must carry the first attention only"
            );
        }
    }
}
