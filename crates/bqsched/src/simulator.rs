//! The learned incremental simulator (§IV-C of the paper).
//!
//! Sampling scheduling episodes directly from the DBMS is expensive, so
//! BQSched trains a model that *simulates* the DBMS's feedback: given the
//! current set of concurrent queries it predicts (a) which of them finishes
//! first and (b) when. Chaining these predictions replaces the DBMS during
//! pre-training; the scheduler is later fine-tuned on the real system. The
//! model shares the attention-based state representation of the decision
//! model and is trained with multitask learning (classification +
//! regression), exactly the design ablated in Table III.

use bq_core::{
    ConnectionSlot, ExecEvent, ExecutionHistory, ExecutorBackend, QueryRuntime, QueryStatus,
    SchedulingState,
};
use bq_dbms::{QueryCompletion, RunParams};
use bq_encoder::{EncodedObservation, StateEncoder, StateEncoderConfig, TIME_SCALE};
use bq_nn::{fit, Activation, Adam, Eager, Graph, Mlp, NodeId, Ops, ParamStore, Tensor};
use bq_plan::{QueryId, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Adam learning rate of [`SimulatorModel::train`].
const TRAIN_LR: f32 = 0.01;

/// Configuration of the simulator's prediction model.
#[derive(Debug, Clone, Copy)]
pub struct SimulatorConfig {
    /// State-encoder hyper-parameters (shared representation).
    pub encoder: StateEncoderConfig,
    /// Use the attention-based state representation (`false` = the
    /// "w/o Att" ablation: an MLP over each query's own features only).
    pub use_attention: bool,
    /// Train classification and regression jointly (`false` = the
    /// "w/o MTL" ablation: the heads are trained sequentially).
    pub multitask: bool,
    /// Scaling coefficient γ of the regression loss in the joint objective.
    pub gamma: f32,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        Self {
            encoder: StateEncoderConfig::default(),
            use_attention: true,
            multitask: true,
            gamma: 0.1,
        }
    }
}

/// One supervised training sample extracted from the logs: a scheduling state,
/// the index (within the running set) of the earliest query to finish, and
/// its normalised remaining time.
#[derive(Debug, Clone)]
pub struct SimSample {
    /// Encoded observation of the state.
    pub obs: EncodedObservation,
    /// Position inside `obs.running` of the earliest query to finish.
    pub target_position: usize,
    /// Normalised time from the state's timestamp until that query finishes.
    pub target_time: f32,
}

/// Prediction quality of the simulator model (Table III metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulatorMetrics {
    /// Classification accuracy for the earliest-finisher task.
    pub accuracy: f64,
    /// Mean squared error of the (normalised) finish-time regression.
    pub mse: f64,
}

/// The prediction model of the incremental simulator.
#[derive(Debug)]
pub struct SimulatorModel {
    /// Model configuration.
    pub config: SimulatorConfig,
    /// Parameters of the encoder and both heads.
    pub store: ParamStore,
    encoder: StateEncoder,
    plain_proj: Mlp,
    classify_head: Mlp,
    regress_head: Mlp,
}

impl SimulatorModel {
    /// Create a model for plan embeddings of width `plan_dim`.
    pub fn new(plan_dim: usize, config: SimulatorConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let enc_config = config.encoder;
        let encoder = StateEncoder::new(&mut store, plan_dim, enc_config, &mut rng);
        let plain_proj = Mlp::new(
            &mut store,
            "sim.plain_proj",
            &[
                plan_dim + bq_encoder::STATE_FEATURE_DIM,
                enc_config.dim,
                enc_config.dim,
            ],
            Activation::Tanh,
            Activation::Tanh,
            &mut rng,
        );
        let classify_head = Mlp::new(
            &mut store,
            "sim.classify",
            &[enc_config.dim, enc_config.dim, 1],
            Activation::Tanh,
            Activation::None,
            &mut rng,
        );
        let regress_head = Mlp::new(
            &mut store,
            "sim.regress",
            &[enc_config.dim, enc_config.dim, 1],
            Activation::Tanh,
            Activation::None,
            &mut rng,
        );
        Self {
            config,
            store,
            encoder,
            plain_proj,
            classify_head,
            regress_head,
        }
    }

    /// Representations of the query rows `rows` (ascending),
    /// `[rows.len(), dim]` — attention-based, or the plain per-query MLP
    /// for the "w/o Att" ablation.
    fn per_query_reprs<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        obs: &EncodedObservation,
        rows: &[usize],
    ) -> O::Value {
        if self.config.use_attention {
            self.encoder.forward(g, store, obs, rows).per_query
        } else {
            let per_query = obs.project(g, store, &self.plain_proj);
            g.select_rows(&per_query, rows)
        }
    }

    /// Scores (logits) over the running queries of `obs`, `[1, |running|]`.
    fn running_scores<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        obs: &EncodedObservation,
    ) -> O::Value {
        let running = self.per_query_reprs(g, store, obs, &obs.running);
        let scores = self.classify_head.forward(g, store, &running); // [r, 1]
        g.transpose(&scores) // [1, r]
    }

    /// Regression output for the running query at `position` in `obs.running`.
    fn finish_time_of<'s, O: Ops<'s>>(
        &self,
        g: &mut O,
        store: &'s ParamStore,
        obs: &EncodedObservation,
        position: usize,
    ) -> O::Value {
        let row = self.per_query_reprs(g, store, obs, &[obs.running[position]]);
        self.regress_head.forward(g, store, &row)
    }

    /// Predict which running query of `obs` finishes first and in how much
    /// (normalised) time. Returns `(position in obs.running, time)`.
    /// Evaluated eagerly: nothing is recorded for a backward pass.
    pub fn predict(&self, obs: &EncodedObservation) -> (usize, f64) {
        assert!(
            !obs.running.is_empty(),
            "cannot predict on a state with no running queries"
        );
        let mut g = Eager::default();
        let position = self.running_scores(&mut g, &self.store, obs).argmax();
        let time = self.finish_time_of(&mut g, &self.store, obs, position);
        (position, time.item().max(1e-3) as f64)
    }

    /// Train on `samples`; returns metrics on the training set after the last
    /// epoch. With `multitask` enabled the two objectives are optimized
    /// jointly (`L = L_clf + γ·L_reg`); otherwise the classification and
    /// regression phases run sequentially. Samples with no running query
    /// are skipped but still count in the mean.
    pub fn train(&mut self, samples: &[SimSample], epochs: usize) -> SimulatorMetrics {
        let n = samples.len() as f32;
        let items: Vec<&SimSample> = samples
            .iter()
            .filter(|s| !s.obs.running.is_empty())
            .collect();
        let phases: &[(bool, bool)] = if self.config.multitask {
            &[(true, true)]
        } else {
            &[(true, false), (false, true)]
        };
        let reg_weight = if self.config.multitask {
            self.config.gamma
        } else {
            1.0
        };
        let mut adam = Adam::new(TRAIN_LR);
        // The loss reads the layers through `self` while `fit` steps the
        // parameters, so the store steps out of the model meanwhile.
        let mut store = std::mem::take(&mut self.store);
        for &(do_clf, do_reg) in phases {
            let loss = |g: &mut Graph, store: &ParamStore, s: &&SimSample| {
                let mut losses: Vec<NodeId> = Vec::new();
                if do_clf {
                    let scores = self.running_scores(g, store, &s.obs);
                    let one_hot = Tensor::one_hot(s.obs.running.len(), s.target_position);
                    losses.push(g.cross_entropy_loss(scores, &one_hot));
                }
                if do_reg {
                    let pred = self.finish_time_of(g, store, &s.obs, s.target_position);
                    let reg = g.mse_loss(pred, &Tensor::scalar(s.target_time));
                    losses.push(g.scale(reg, reg_weight));
                }
                let mut total = losses[0];
                for &l in &losses[1..] {
                    total = g.add(total, l);
                }
                (g.scale(total, 1.0 / n), ())
            };
            fit(&mut store, &mut adam, &items, None, epochs, 1.0, loss);
        }
        self.store = store;
        self.evaluate(samples)
    }

    /// Accuracy / MSE of the current model on `samples`, evaluated eagerly.
    pub fn evaluate(&self, samples: &[SimSample]) -> SimulatorMetrics {
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut se = 0.0f64;
        for s in samples {
            if s.obs.running.is_empty() {
                continue;
            }
            let mut g = Eager::default();
            let scores = self.running_scores(&mut g, &self.store, &s.obs);
            if scores.argmax() == s.target_position {
                correct += 1;
            }
            let pred = self.finish_time_of(&mut g, &self.store, &s.obs, s.target_position);
            let err = pred.item() - s.target_time;
            se += (err * err) as f64;
            total += 1;
        }
        if total == 0 {
            return SimulatorMetrics::default();
        }
        SimulatorMetrics {
            accuracy: correct as f64 / total as f64,
            mse: se / total as f64,
        }
    }
}

/// Reconstruct supervised training samples from execution logs: at every
/// event time with at least two running queries, record the running set, the
/// earliest query to finish and its remaining time. Every sample shares
/// `plan_embs`.
pub fn samples_from_history(
    workload: &Workload,
    history: &ExecutionHistory,
    plan_embs: &Arc<Tensor>,
) -> Vec<SimSample> {
    let mut samples = Vec::new();
    for episode in history.episodes() {
        let mut events: Vec<f64> = episode
            .records
            .iter()
            .flat_map(|r| [r.started_at, r.finished_at])
            .collect();
        events.sort_by(f64::total_cmp);
        events.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        for &t in &events {
            // Running queries at time t (strictly before their finish).
            let running: Vec<&bq_core::QueryRecord> = episode
                .records
                .iter()
                .filter(|r| r.started_at <= t + 1e-9 && r.finished_at > t + 1e-9)
                .collect();
            if running.len() < 2 {
                continue;
            }
            let earliest = running
                .iter()
                .min_by(|a, b| a.finished_at.total_cmp(&b.finished_at))
                .unwrap();
            // Build the full per-query runtime view at time t.
            let runtimes: Vec<QueryRuntime> = (0..workload.len())
                .map(|i| {
                    let rec = episode.record_for(QueryId(i));
                    let avg = history.avg_exec_time(QueryId(i)).unwrap_or(0.0);
                    match rec {
                        Some(r) if r.finished_at <= t + 1e-9 => QueryRuntime {
                            status: QueryStatus::Finished,
                            params: Some(r.params),
                            elapsed: r.duration(),
                            avg_exec_time: avg,
                        },
                        Some(r) if r.started_at <= t + 1e-9 => QueryRuntime {
                            status: QueryStatus::Running,
                            params: Some(r.params),
                            elapsed: t - r.started_at,
                            avg_exec_time: avg,
                        },
                        _ => QueryRuntime::pending(avg),
                    }
                })
                .collect();
            let state = SchedulingState {
                workload,
                now: t,
                queries: &runtimes,
            };
            let obs = EncodedObservation::from_state(&state, plan_embs);
            let Some(target_position) = obs.running.iter().position(|&q| q == earliest.query.0)
            else {
                continue;
            };
            let target_time = ((earliest.finished_at - t) / TIME_SCALE) as f32;
            samples.push(SimSample {
                obs,
                target_position,
                target_time,
            });
        }
    }
    samples
}

/// The incremental simulator: an [`bq_core::ExecutorBackend`] backed by the learned
/// prediction model, so the RL scheduler can be pre-trained without touching
/// the DBMS. The same event-driven surface the simulated DBMS exposes, so a
/// [`bq_core::ScheduleSession`] drives both interchangeably.
#[derive(Debug)]
pub struct LearnedSimulator<'a> {
    model: &'a SimulatorModel,
    workload: &'a Workload,
    avg_times: Vec<f64>,
    now: f64,
    /// Sole owner of occupancy: which query runs on which connection, with
    /// which params, since when. No shadow counters to keep in sync.
    slots: Vec<ConnectionSlot>,
    finished: Vec<bool>,
    /// Reusable per-query runtime buffer for building prediction states.
    runtimes: Vec<QueryRuntime>,
    /// The session's one observation, over the caller's shared plan
    /// embeddings: each prediction refreshes the state-dependent parts in
    /// place.
    obs: EncodedObservation,
    /// The predicted next completion as `(connection, instant)`, kept
    /// until a submission or a completion changes the running set.
    prediction: Option<(usize, f64)>,
    completion_events: VecDeque<QueryCompletion>,
}

impl<'a> LearnedSimulator<'a> {
    /// Create a fresh simulator session (one per simulated scheduling
    /// round) over shared per-query plan embeddings.
    pub fn new(
        model: &'a SimulatorModel,
        workload: &'a Workload,
        plan_embs: &Arc<Tensor>,
        avg_times: Vec<f64>,
        connections: usize,
    ) -> Self {
        assert_eq!(avg_times.len(), workload.len());
        let runtimes: Vec<QueryRuntime> = avg_times
            .iter()
            .map(|&t| QueryRuntime::pending(t))
            .collect();
        let state = SchedulingState {
            workload,
            now: 0.0,
            queries: &runtimes,
        };
        let obs = EncodedObservation::from_state(&state, plan_embs);
        Self {
            model,
            workload,
            avg_times,
            now: 0.0,
            slots: vec![ConnectionSlot::Free; connections],
            finished: vec![false; workload.len()],
            runtimes,
            obs,
            prediction: None,
            completion_events: VecDeque::with_capacity(1),
        }
    }

    /// Rebuild the runtime buffer to mirror the current simulator state.
    fn refresh_runtimes(&mut self) {
        for (i, rt) in self.runtimes.iter_mut().enumerate() {
            *rt = if self.finished[i] {
                QueryRuntime {
                    status: QueryStatus::Finished,
                    params: None,
                    elapsed: 0.0,
                    avg_exec_time: self.avg_times[i],
                }
            } else {
                QueryRuntime::pending(self.avg_times[i])
            };
        }
        for slot in &self.slots {
            if let ConnectionSlot::Busy {
                query,
                params,
                started_at,
            } = *slot
            {
                self.runtimes[query.0] = QueryRuntime {
                    status: QueryStatus::Running,
                    params: Some(params),
                    elapsed: self.now - started_at,
                    avg_exec_time: self.avg_times[query.0],
                };
            }
        }
    }

    /// Predict the earliest finisher among the running queries, advance
    /// virtual time to its completion and buffer the completion event.
    fn advance_until_completion(&mut self) {
        self.advance_bounded(f64::INFINITY);
    }

    /// Like [`LearnedSimulator::advance_until_completion`], but if the
    /// predicted completion lies beyond `until`, only move the clock to
    /// `until` and leave the query running, so a bounded advance stops at
    /// its bound on the learned backend too. The prediction is kept until
    /// the running set changes: advancing to an instant in several steps
    /// completes the same query at the same instant as one poll.
    ///
    /// An **idle** simulator has nothing to predict, but time still passes:
    /// a finite `until` moves the clock forward so a later submission is
    /// stamped at the caller's instant — exactly the engine's idle-advance
    /// semantics. An async adapter relies on this to admit queued
    /// submissions at their admission instant when nothing is running yet.
    fn advance_bounded(&mut self, until: f64) {
        if self.slots.iter().all(ConnectionSlot::is_free) {
            if until.is_finite() && until > self.now {
                self.now = until;
            }
            return;
        }
        let (connection, at) = match self.prediction {
            Some(prediction) => prediction,
            None => {
                let prediction = self.predict();
                self.prediction = Some(prediction);
                prediction
            }
        };
        if at > until {
            // The bound comes before the predicted completion.
            self.now = until;
            return;
        }
        self.now = at;
        let ConnectionSlot::Busy {
            query,
            params,
            started_at,
        } = self.slots[connection]
        else {
            unreachable!("the predicted connection is busy");
        };
        self.slots[connection] = ConnectionSlot::Free;
        self.finished[query.0] = true;
        self.prediction = None;
        self.completion_events.push_back(QueryCompletion {
            query,
            connection,
            params,
            started_at,
            finished_at: self.now,
        });
    }

    /// The connection of the earliest predicted finisher among the running
    /// queries, and the instant it finishes.
    fn predict(&mut self) -> (usize, f64) {
        self.refresh_runtimes();
        let state = SchedulingState {
            workload: self.workload,
            now: self.now,
            queries: &self.runtimes,
        };
        self.obs.refresh(&state);
        let (position, norm_time) = self.model.predict(&self.obs);
        // Map the predicted observation index back to a connection.
        let predicted_query = self.obs.running[position];
        let dt = (norm_time * TIME_SCALE).max(1e-3);
        let connection = self
            .slots
            .iter()
            .position(
                |s| matches!(s, ConnectionSlot::Busy { query, .. } if query.0 == predicted_query),
            )
            .expect("predicted query must be running");
        (connection, self.now + dt)
    }
}

impl ExecutorBackend for LearnedSimulator<'_> {
    /// Per-connection occupancy, indexed by connection id.
    fn connections(&self) -> &[ConnectionSlot] {
        &self.slots
    }

    /// Current virtual time.
    fn now(&self) -> f64 {
        self.now
    }

    /// Submit `query` with `params` to a specific free connection.
    ///
    /// # Panics
    /// Panics if the connection is busy or the query already finished.
    fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
        assert!(
            self.slots[connection].is_free(),
            "simulator connection {connection} is busy"
        );
        assert!(!self.finished[query.0], "query {query:?} already finished");
        self.slots[connection] = ConnectionSlot::Busy {
            query,
            params,
            started_at: self.now,
        };
        self.prediction = None;
    }

    /// One completion, predicting and advancing to the next one first if
    /// none is buffered.
    fn poll_event(&mut self) -> ExecEvent {
        if self.completion_events.is_empty() {
            self.advance_until_completion();
        }
        match self.completion_events.pop_front() {
            Some(completion) => ExecEvent::Completed(completion),
            None => ExecEvent::Idle,
        }
    }

    fn events_pending(&self) -> bool {
        !self.completion_events.is_empty()
    }

    /// Advance virtual time to at most `until`; buffered completions must
    /// be drained first, exactly like the engine. On an **idle** simulator
    /// a finite `until` moves the clock forward (so a later submission is
    /// stamped at the caller's instant — what a deferred admission needs),
    /// while an unbounded advance leaves an idle clock untouched.
    fn advance_to(&mut self, until: f64) {
        if self.completion_events.is_empty() && until > self.now {
            self.advance_bounded(until);
        }
    }

    /// Number of queries in the workload the simulator was built for.
    fn known_query_count(&self) -> Option<usize> {
        Some(self.finished.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_core::{collect_history, FifoScheduler, ScheduleSession};
    use bq_dbms::DbmsProfile;
    use bq_encoder::{PlanEncoder, PlanEncoderConfig};
    use bq_plan::{generate, Benchmark, WorkloadSpec};

    fn setup() -> (Workload, Arc<Tensor>, ExecutionHistory) {
        let w = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = PlanEncoder::new(
            &mut store,
            PlanEncoderConfig {
                dim: 32,
                heads: 2,
                blocks: 1,
            },
            &mut rng,
        );
        let embs = Arc::new(enc.embed_workload(&store, &w));
        let history = collect_history(&mut FifoScheduler::new(), &w, &DbmsProfile::dbms_x(), 2, 0);
        (w, embs, history)
    }

    fn small_config() -> SimulatorConfig {
        SimulatorConfig {
            encoder: StateEncoderConfig {
                dim: 16,
                heads: 2,
                blocks: 1,
            },
            use_attention: true,
            multitask: true,
            gamma: 0.1,
        }
    }

    #[test]
    fn history_yields_training_samples() {
        let (w, embs, history) = setup();
        let samples = samples_from_history(&w, &history, &embs);
        assert!(
            samples.len() > 20,
            "expected many samples, got {}",
            samples.len()
        );
        for s in &samples {
            assert!(s.target_position < s.obs.running.len());
            assert!(s.target_time >= 0.0);
        }
    }

    #[test]
    fn a_nan_finish_time_does_not_panic_sample_extraction() {
        let (w, embs, history) = setup();
        let mut episode = history.episodes()[0].clone();
        episode.records[0].finished_at = f64::NAN;
        let mut corrupt = ExecutionHistory::new();
        corrupt.push(episode);
        let samples = samples_from_history(&w, &corrupt, &embs);
        assert!(!samples.is_empty());
    }

    #[test]
    fn training_improves_over_untrained_model() {
        let (w, embs, history) = setup();
        let config = small_config();
        let samples = samples_from_history(&w, &history, &embs);
        let subset: Vec<SimSample> = samples.into_iter().take(60).collect();
        let mut model = SimulatorModel::new(32, config, 1);
        let before = model.evaluate(&subset);
        let after = model.train(&subset, 12);
        assert!(
            after.accuracy >= before.accuracy,
            "accuracy should not degrade: {} -> {}",
            before.accuracy,
            after.accuracy
        );
        assert!(
            after.mse < before.mse,
            "mse should drop: {} -> {}",
            before.mse,
            after.mse
        );
        // Better than chance on the earliest-finisher task.
        let avg_running: f64 = subset
            .iter()
            .map(|s| s.obs.running.len() as f64)
            .sum::<f64>()
            / subset.len() as f64;
        assert!(
            after.accuracy > 1.2 / avg_running,
            "accuracy {} should beat chance 1/{}",
            after.accuracy,
            avg_running
        );
    }

    #[test]
    fn simulator_completes_full_episodes() {
        let (w, embs, history) = setup();
        let config = small_config();
        let samples = samples_from_history(&w, &history, &embs);
        let mut model = SimulatorModel::new(32, config, 2);
        model.train(&samples.into_iter().take(40).collect::<Vec<_>>(), 4);
        let avg: Vec<f64> = (0..w.len())
            .map(|i| history.avg_exec_time(QueryId(i)).unwrap_or(1.0))
            .collect();
        let mut sim = LearnedSimulator::new(&model, &w, &embs, avg, 8);
        let log = ScheduleSession::builder(&w)
            .history(&history)
            .dbms(bq_dbms::DbmsKind::X)
            .build(&mut sim)
            .run(&mut FifoScheduler::new());
        assert_eq!(log.len(), w.len());
        assert!(log.makespan() > 0.0);
        // Virtual time is monotone: every start precedes its finish.
        for r in &log.records {
            assert!(r.finished_at > r.started_at);
        }
    }

    #[test]
    fn without_attention_model_still_trains() {
        let (w, embs, history) = setup();
        let config = SimulatorConfig {
            use_attention: false,
            ..small_config()
        };
        let samples = samples_from_history(&w, &history, &embs);
        let subset: Vec<SimSample> = samples.into_iter().take(40).collect();
        let mut model = SimulatorModel::new(32, config, 3);
        let metrics = model.train(&subset, 8);
        assert!(metrics.accuracy > 0.0);
        assert!(metrics.mse.is_finite());
    }

    /// [`SimulatorModel::train`] with every query row encoded and the rows
    /// each loss reads selected afterwards — the shape the model recorded
    /// before it narrowed to those rows. Returns the trained parameter and
    /// metric bits.
    fn all_rows_train(
        model: &mut SimulatorModel,
        samples: &[SimSample],
        epochs: usize,
        lr: f32,
    ) -> Vec<u64> {
        let reprs =
            |m: &SimulatorModel, g: &mut Graph, obs: &EncodedObservation, rows: &[usize]| {
                let all: Vec<usize> = (0..obs.len()).collect();
                let per_query = m.per_query_reprs(g, &m.store, obs, &all);
                g.select_rows(per_query, rows)
            };
        let mut adam = Adam::new(lr);
        let n = samples.len() as f32;
        let phases: &[(bool, bool)] = if model.config.multitask {
            &[(true, true)]
        } else {
            &[(true, false), (false, true)]
        };
        for &(do_clf, do_reg) in phases {
            for _ in 0..epochs {
                model.store.zero_grads();
                for s in samples {
                    let mut g = Graph::new();
                    let mut losses = Vec::new();
                    if do_clf {
                        let running = reprs(model, &mut g, &s.obs, &s.obs.running);
                        let scores = model.classify_head.forward(&mut g, &model.store, &running);
                        let scores = g.transpose(scores);
                        let one_hot = Tensor::one_hot(s.obs.running.len(), s.target_position);
                        losses.push(g.cross_entropy_loss(scores, &one_hot));
                    }
                    if do_reg {
                        let rows = [s.obs.running[s.target_position]];
                        let row = reprs(model, &mut g, &s.obs, &rows);
                        let pred = model.regress_head.forward(&mut g, &model.store, &row);
                        let reg = g.mse_loss(pred, &Tensor::scalar(s.target_time));
                        let weight = if model.config.multitask {
                            model.config.gamma
                        } else {
                            1.0
                        };
                        losses.push(g.scale(reg, weight));
                    }
                    let mut total = losses[0];
                    for &l in &losses[1..] {
                        total = g.add(total, l);
                    }
                    let loss = g.scale(total, 1.0 / n);
                    g.backward(loss);
                    g.flush_grads(&mut model.store);
                }
                model.store.clip_grad_norm(1.0);
                adam.step(&mut model.store);
            }
        }
        trained_bits(model, model.evaluate(samples))
    }

    fn trained_bits(model: &SimulatorModel, metrics: SimulatorMetrics) -> Vec<u64> {
        let params = model.store.iter().flat_map(|(_, p)| p.value.data());
        let params = params.map(|x| u64::from(x.to_bits()));
        params
            .chain([metrics.accuracy.to_bits(), metrics.mse.to_bits()])
            .collect()
    }

    #[test]
    fn narrowed_simulator_training_matches_an_all_rows_reference_bitwise() {
        // The classification loss reads the running rows and the regression
        // loss one of them; encoding only those rows trains the same bits,
        // jointly and sequentially, with and without attention.
        let (w, embs, history) = setup();
        for (multitask, use_attention) in [(true, true), (false, true), (true, false)] {
            let config = SimulatorConfig {
                multitask,
                use_attention,
                ..small_config()
            };
            let samples = samples_from_history(&w, &history, &embs);
            let subset: Vec<SimSample> = samples.into_iter().take(24).collect();
            let mut narrowed = SimulatorModel::new(32, config, 5);
            let mut reference = SimulatorModel::new(32, config, 5);
            let metrics = narrowed.train(&subset, 2);
            assert!(
                trained_bits(&narrowed, metrics)
                    == all_rows_train(&mut reference, &subset, 2, 0.01),
                "multitask={multitask} attention={use_attention} drifted"
            );
        }
    }

    #[test]
    fn sequential_training_supported_for_mtl_ablation() {
        let (w, embs, history) = setup();
        let config = SimulatorConfig {
            multitask: false,
            ..small_config()
        };
        let samples = samples_from_history(&w, &history, &embs);
        let subset: Vec<SimSample> = samples.into_iter().take(30).collect();
        let mut model = SimulatorModel::new(32, config, 4);
        let metrics = model.train(&subset, 4);
        assert!(metrics.accuracy >= 0.0 && metrics.mse.is_finite());
    }
}
