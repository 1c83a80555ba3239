//! # bq-bench
//!
//! Experiment harness reproducing every table and figure of the BQSched paper
//! on the simulated DBMS substrate. Each experiment is a binary
//! (`cargo run -p bq-bench --release --bin table1 [-- --quick]`) that prints
//! the same rows/series the paper reports; `--quick` runs the reduced
//! configuration so the whole suite finishes in minutes.
//!
//! Absolute numbers are simulated virtual seconds, not the authors' testbed
//! wall-clock; the quantities to compare against the paper are the *relative*
//! ordering of strategies, the improvement factors, and where crossovers
//! happen. See `EXPERIMENTS.md` at the repository root for recorded results.

#![warn(missing_docs)]

use bq_adapter::{AsyncAdapter, DispatchProfile};
use bq_chaos::{ChaosBackend, FaultSchedule, FaultSpec};
use bq_core::FaultEvent;
use bq_core::{
    collect_history, degraded_evaluation, evaluate_strategy, mean, ExecEvent, ExecutionHistory,
    ExecutorBackend, FaultAwareRouter, FifoScheduler, FirstFreeRouter, GanttChart, HashRouter,
    LeastLoadedRouter, McfScheduler, RandomScheduler, RecoveryPolicy, SchedulerPolicy, ShardRouter,
    ShardTopology, StrategyEvaluation,
};
use bq_dbms::{
    AdvanceStall, ConnectionSlot, DbmsKind, DbmsProfile, ExecutionEngine, QueryCompletion,
    RunParams, ShardedEngine,
};
use bq_encoder::{PlanEncoderConfig, StateEncoderConfig};
use bq_obs::{Obs, SystemClock, WallClock};
use bq_plan::{generate, perturb_query_set, Benchmark, QueryId, Workload, WorkloadSpec};
use bq_sched::{
    pretrain_on_simulator, samples_from_history, train_on_dbms, Algorithm, BqSchedAgent,
    BqSchedConfig, SimulatorConfig, SimulatorModel, TrainingConfig,
};
use bq_wire::{TransportProfile, WireBackend};

pub mod gate;
pub mod process;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Reduced configuration: small models, few training rounds, subset of
    /// grid points. Finishes in minutes; used by CI.
    Quick,
    /// Paper-scale configuration (all grid points, longer training).
    Full,
}

impl RunScale {
    /// Lower-case name used in reports and JSON summaries.
    pub fn name(&self) -> &'static str {
        match self {
            RunScale::Quick => "quick",
            RunScale::Full => "full",
        }
    }

    /// Parse `--quick` style command-line arguments (defaults to `Full`).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") || std::env::var("BQ_QUICK").is_ok() {
            RunScale::Quick
        } else {
            RunScale::Full
        }
    }

    /// Number of evaluation rounds `m` per strategy.
    pub fn eval_rounds(&self) -> u64 {
        match self {
            RunScale::Quick => 3,
            RunScale::Full => 5,
        }
    }

    /// Rounds of heuristic execution collected as the bootstrap history.
    pub fn history_rounds(&self) -> u64 {
        match self {
            RunScale::Quick => 2,
            RunScale::Full => 5,
        }
    }

    /// RL training budget.
    pub fn training(&self) -> TrainingConfig {
        match self {
            RunScale::Quick => TrainingConfig {
                iterations: 1,
                ppo_iters: 2,
                rounds_per_iter: 3,
                eval_rounds: 1,
                seed: 900,
            },
            RunScale::Full => TrainingConfig {
                iterations: 4,
                ppo_iters: 5,
                rounds_per_iter: 5,
                eval_rounds: 2,
                seed: 900,
            },
        }
    }

    /// Agent hyper-parameters (smaller networks for the quick scale).
    pub fn agent_config(&self) -> BqSchedConfig {
        match self {
            RunScale::Quick => BqSchedConfig {
                plan_encoder: PlanEncoderConfig {
                    dim: 16,
                    heads: 2,
                    blocks: 1,
                    tree_bias_per_hop: 0.5,
                },
                state_encoder: StateEncoderConfig {
                    plan_dim: 16,
                    dim: 16,
                    heads: 2,
                    blocks: 1,
                },
                plan_pretrain_epochs: 1,
                ..BqSchedConfig::default()
            },
            RunScale::Full => BqSchedConfig::default(),
        }
    }
}

/// A prepared experiment cell: workload, DBMS profile and bootstrap history.
pub struct Setup {
    /// Benchmark the workload came from.
    pub benchmark: Benchmark,
    /// Generated batch query set.
    pub workload: Workload,
    /// Simulated DBMS profile.
    pub profile: DbmsProfile,
    /// Historical execution logs (heuristic rounds) that bootstrap MCF,
    /// masking, clustering and the simulator.
    pub history: ExecutionHistory,
}

/// Build a setup for one experiment cell.
pub fn build_setup(
    benchmark: Benchmark,
    dbms: DbmsKind,
    data_scale: f64,
    query_scale: usize,
    scale: RunScale,
) -> Setup {
    let workload = generate(&WorkloadSpec::new(benchmark, data_scale, query_scale));
    let profile = DbmsProfile::for_kind(dbms);
    let history = collect_history(
        &mut FifoScheduler::new(),
        &workload,
        &profile,
        scale.history_rounds(),
        7,
    );
    Setup {
        benchmark,
        workload,
        profile,
        history,
    }
}

fn mcf_costs(setup: &Setup) -> Vec<f64> {
    (0..setup.workload.len())
        .map(|i| setup.history.avg_exec_time(QueryId(i)).unwrap_or(0.0))
        .collect()
}

/// Evaluate the three heuristic baselines on a setup.
pub fn evaluate_heuristics(setup: &Setup, scale: RunScale) -> Vec<StrategyEvaluation> {
    let rounds = scale.eval_rounds();
    let mut out = Vec::new();
    let mut random = RandomScheduler::new(5);
    out.push(evaluate_strategy(
        &mut random,
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        rounds,
        100,
    ));
    let mut fifo = FifoScheduler::new();
    out.push(evaluate_strategy(
        &mut fifo,
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        rounds,
        100,
    ));
    let mut mcf = McfScheduler::with_costs(mcf_costs(setup));
    out.push(evaluate_strategy(
        &mut mcf,
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        rounds,
        100,
    ));
    out
}

/// Train the adapted LSched baseline on a setup and return it ready for
/// greedy evaluation.
pub fn train_lsched(setup: &Setup, scale: RunScale) -> BqSchedAgent {
    let mut agent = BqSchedAgent::new(
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        scale.agent_config().lsched(),
    );
    train_on_dbms(
        &mut agent,
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        &scale.training(),
    );
    agent.explore = false;
    agent
}

/// Train BQSched on a setup and return it ready for greedy evaluation.
pub fn train_bqsched(setup: &Setup, scale: RunScale) -> BqSchedAgent {
    let mut config = scale.agent_config();
    // Large query sets are scheduled at cluster level (paper §IV-B).
    if setup.workload.len() > 150 {
        config = config.with_clusters((setup.workload.len() / 4).clamp(20, 100));
    }
    let mut agent = BqSchedAgent::new(
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        config,
    );
    train_on_dbms(
        &mut agent,
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        &scale.training(),
    );
    agent.explore = false;
    agent
}

/// Evaluate every strategy of Table I on one cell, in the paper's order:
/// Random, FIFO, MCF, LSched, BQSched.
pub fn evaluate_all(setup: &Setup, scale: RunScale) -> Vec<StrategyEvaluation> {
    let mut evals = evaluate_heuristics(setup, scale);
    let rounds = scale.eval_rounds();
    let mut lsched = train_lsched(setup, scale);
    evals.push(evaluate_strategy(
        &mut lsched,
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        rounds,
        100,
    ));
    let mut bqsched = train_bqsched(setup, scale);
    evals.push(evaluate_strategy(
        &mut bqsched,
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        rounds,
        100,
    ));
    evals
}

/// One experiment's rendered report plus the scalar metrics its rows distil
/// to — the quantities the CI bench gate compares against committed
/// baselines (`bench/baselines/*.json`).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The human-readable rows the binary prints.
    pub text: String,
    /// `(key, value)` scalar metrics in emission order. Keys are stable
    /// slugs; values are virtual-time quantities (makespans, accuracies,
    /// MSEs) — deterministic per seed, so CI can compare them across
    /// commits.
    pub metrics: Vec<(String, f64)>,
}

/// Turn a human row label into a stable metric-key slug (lowercase,
/// non-alphanumerics collapsed to single underscores).
fn metric_slug(label: &str) -> String {
    let mut slug = String::with_capacity(label.len());
    let mut gap = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !slug.is_empty() {
                slug.push('_');
            }
            gap = false;
            slug.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    slug
}

/// Record the gate-relevant scalars of one evaluated cell: the FIFO
/// baseline and (when the RL strategies ran) BQSched.
fn push_eval_metrics(metrics: &mut Vec<(String, f64)>, label: &str, evals: &[StrategyEvaluation]) {
    let slug = metric_slug(label);
    for eval in evals {
        if eval.strategy == "FIFO" || eval.strategy == "BQSched" {
            metrics.push((
                format!("makespan_{slug}_{}", metric_slug(&eval.strategy)),
                eval.mean_makespan,
            ));
        }
    }
}

fn format_eval_row(label: &str, evals: &[StrategyEvaluation]) -> String {
    let cells: Vec<String> = evals
        .iter()
        .map(|e| format!("{:>8.2} ±{:>5.2}", e.mean_makespan, e.std_makespan))
        .collect();
    format!("{label:<28} {}", cells.join("  "))
}

/// Table I — efficiency (`t̄_ov`) and stability (`σ_ov`) of every strategy on
/// TPC-DS / TPC-H / JOB across DBMS-X/Y/Z.
pub fn table1(scale: RunScale) -> String {
    let mut out = String::new();
    out.push_str("Table I: efficiency (mean makespan, s) and stability (std, s)\n");
    out.push_str(&format!(
        "{:<28} {:>15}  {:>15}  {:>15}  {:>15}  {:>15}\n",
        "cell", "Random", "FIFO", "MCF", "LSched", "BQSched"
    ));
    let benchmarks = [Benchmark::TpcDs, Benchmark::TpcH, Benchmark::Job];
    let dbms_list = [DbmsKind::X, DbmsKind::Y, DbmsKind::Z];
    for dbms in dbms_list {
        for benchmark in benchmarks {
            // The quick scale trains the RL strategies only on DBMS-X (the
            // profile with the largest scheduling potential) and evaluates
            // heuristics everywhere; the full scale covers every cell.
            let setup = build_setup(benchmark, dbms, 1.0, 1, scale);
            let evals = if scale == RunScale::Full || dbms == DbmsKind::X {
                evaluate_all(&setup, scale)
            } else {
                evaluate_heuristics(&setup, scale)
            };
            let label = format!("{} {}", dbms.name(), benchmark.name());
            out.push_str(&format_eval_row(&label, &evals));
            out.push('\n');
        }
    }
    out
}

/// Table II — adaptability: train on 1x TPC-DS / DBMS-X, evaluate the frozen
/// strategies on perturbed data scales and query sets.
pub fn table2(scale: RunScale) -> String {
    let mut out = String::new();
    out.push_str(
        "Table II: adaptability on TPC-DS with DBMS-X (train on 1x, apply to perturbed sets)\n",
    );
    let base = build_setup(Benchmark::TpcDs, DbmsKind::X, 1.0, 1, scale);
    let mut lsched = train_lsched(&base, scale);
    let mut bqsched = train_bqsched(&base, scale);
    let rounds = scale.eval_rounds();
    let factors: Vec<f64> = match scale {
        RunScale::Quick => vec![0.9, 1.1],
        RunScale::Full => vec![0.8, 0.9, 1.1, 1.2],
    };
    out.push_str(&format!(
        "{:<28} {:>15}  {:>15}  {:>15}  {:>15}  {:>15}\n",
        "variant", "Random", "FIFO", "MCF", "LSched", "BQSched"
    ));
    // Data-scale perturbations: regenerate the workload at the perturbed scale
    // (same templates, same query ids) and reuse the learned strategies.
    for &f in &factors {
        let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, f, 1));
        let history = collect_history(
            &mut FifoScheduler::new(),
            &workload,
            &base.profile,
            scale.history_rounds(),
            17,
        );
        let setup = Setup {
            benchmark: Benchmark::TpcDs,
            workload,
            profile: base.profile.clone(),
            history,
        };
        let mut evals = evaluate_heuristics(&setup, scale);
        evals.push(evaluate_strategy(
            &mut lsched,
            &setup.workload,
            &setup.profile,
            Some(&setup.history),
            rounds,
            100,
        ));
        evals.push(evaluate_strategy(
            &mut bqsched,
            &setup.workload,
            &setup.profile,
            Some(&setup.history),
            rounds,
            100,
        ));
        out.push_str(&format_eval_row(&format!("data x{f}"), &evals));
        out.push('\n');
    }
    // Query-set perturbations. Because the entity set changes, the learned
    // strategies are re-instantiated on the perturbed set (BQSched adapts
    // through its plan-embedding-based representation as in the paper).
    for &f in &factors {
        let workload = perturb_query_set(&base.workload, f, 3);
        let history = collect_history(
            &mut FifoScheduler::new(),
            &workload,
            &base.profile,
            scale.history_rounds(),
            19,
        );
        let setup = Setup {
            benchmark: Benchmark::TpcDs,
            workload,
            profile: base.profile.clone(),
            history,
        };
        let evals = evaluate_all(&setup, scale);
        out.push_str(&format_eval_row(&format!("queries x{f}"), &evals));
        out.push('\n');
    }
    out
}

/// Table III — ablation and γ sensitivity of the simulator's prediction model
/// (classification accuracy and regression MSE).
pub fn table3(scale: RunScale) -> String {
    table3_report(scale).text
}

/// [`table3`] plus the per-variant accuracy/MSE scalars for the CI bench
/// gate (`acc_*` higher-is-better, `mse_*` lower-is-better).
pub fn table3_report(scale: RunScale) -> BenchReport {
    let mut out = String::new();
    let mut gate_metrics: Vec<(String, f64)> = Vec::new();
    out.push_str("Table III: simulator prediction model — accuracy / MSE\n");
    let setup = build_setup(Benchmark::TpcDs, DbmsKind::X, 1.0, 1, scale);
    // Plan embeddings from the shared representation of a BQSched agent.
    let agent = BqSchedAgent::new(
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        scale.agent_config(),
    );
    let plan_dim = agent.plan_embeddings().cols();
    let (epochs, max_samples) = match scale {
        RunScale::Quick => (6, 150),
        RunScale::Full => (20, 2000),
    };
    let variants: Vec<(&str, SimulatorConfig)> = vec![
        (
            "w/o Att (gamma=0.1)",
            SimulatorConfig {
                use_attention: false,
                gamma: 0.1,
                ..SimulatorConfig::default()
            },
        ),
        (
            "w/o MTL",
            SimulatorConfig {
                multitask: false,
                ..SimulatorConfig::default()
            },
        ),
        (
            "gamma=0.01",
            SimulatorConfig {
                gamma: 0.01,
                ..SimulatorConfig::default()
            },
        ),
        (
            "gamma=0.1",
            SimulatorConfig {
                gamma: 0.1,
                ..SimulatorConfig::default()
            },
        ),
        (
            "gamma=1",
            SimulatorConfig {
                gamma: 1.0,
                ..SimulatorConfig::default()
            },
        ),
    ];
    out.push_str(&format!("{:<24} {:>10} {:>12}\n", "variant", "Acc", "MSE"));
    for (name, mut config) in variants {
        config.encoder = StateEncoderConfig {
            plan_dim,
            dim: 16,
            heads: 2,
            blocks: 1,
        };
        let samples = samples_from_history(
            &setup.workload,
            &setup.history,
            agent.plan_embeddings(),
            &config,
        );
        let take = samples.len().min(max_samples);
        let split = (take * 4 / 5).max(1);
        let train_set = &samples[..split];
        let test_set = &samples[split..take.max(split + 1).min(samples.len())];
        let mut model = SimulatorModel::new(plan_dim, config, 3);
        model.train(train_set, epochs, 0.01);
        let metrics = model.evaluate(if test_set.is_empty() {
            train_set
        } else {
            test_set
        });
        out.push_str(&format!(
            "{:<24} {:>9.1}% {:>12.4}\n",
            name,
            metrics.accuracy * 100.0,
            metrics.mse
        ));
        let slug = metric_slug(name);
        gate_metrics.push((format!("acc_{slug}"), metrics.accuracy));
        gate_metrics.push((format!("mse_{slug}"), metrics.mse));
    }
    let throughput = throughput_metrics(&setup, scale);
    for (key, value) in &throughput {
        out.push_str(&format!("{:<24} {:>12.0}/s\n", key, value));
    }
    gate_metrics.extend(throughput);
    // Per-query duration distribution of the FIFO episodes the table's
    // workload produces — virtual-time, deterministic per seed, and the
    // first tail-latency signal the gate carries for the session itself.
    let obs = Obs::enabled();
    for seed in 0..scale.eval_rounds() {
        let mut engine = ExecutionEngine::new(setup.profile.clone(), &setup.workload, seed);
        bq_core::ScheduleSession::builder(&setup.workload)
            .dbms(setup.profile.kind)
            .round(seed)
            .obs(obs.clone())
            .build(&mut engine)
            .run(&mut FifoScheduler::new());
    }
    let dur_p50 = obs.quantile("session_query_duration", 0.5);
    let dur_p99 = obs.quantile("session_query_duration", 0.99);
    gate_metrics.push(("query_dur_p50".to_string(), dur_p50));
    gate_metrics.push(("query_dur_p99".to_string(), dur_p99));
    out.push_str(&format!(
        "{:<24} {:>9.2}s {:>11.2}s\n",
        "query duration p50/p99", dur_p50, dur_p99,
    ));
    BenchReport {
        text: out,
        metrics: gate_metrics,
    }
}

/// An [`ExecutorBackend`] decorator that counts [`ExecutorBackend::poll_event`]
/// calls, so the throughput cell can report events processed per wall-clock
/// second without touching the backend's behaviour.
struct CountingBackend<B> {
    inner: B,
    events: usize,
}

impl<B: ExecutorBackend> ExecutorBackend for CountingBackend<B> {
    fn connections(&self) -> &[ConnectionSlot] {
        self.inner.connections()
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
        self.inner.submit(query, params, connection);
    }

    fn submit_batch(&mut self, batch: &[(QueryId, RunParams, usize)]) {
        self.inner.submit_batch(batch);
    }

    fn poll_event(&mut self) -> ExecEvent {
        self.events += 1;
        self.inner.poll_event()
    }

    fn events_pending(&self) -> bool {
        self.inner.events_pending()
    }

    fn advance_to(&mut self, until: f64) {
        self.inner.advance_to(until);
    }

    fn cancel(&mut self, connection: usize) -> Option<QueryCompletion> {
        self.inner.cancel(connection)
    }

    fn stall_diagnostic(&self) -> Option<AdvanceStall> {
        self.inner.stall_diagnostic()
    }

    fn shard_topology(&self) -> ShardTopology {
        self.inner.shard_topology()
    }

    fn poll_fault(&mut self) -> Option<FaultEvent> {
        self.inner.poll_fault()
    }

    fn known_query_count(&self) -> Option<usize> {
        self.inner.known_query_count()
    }
}

/// Wall-clock throughput of the core scheduling loop: decisions committed
/// and backend events processed per second of real time, measured over FIFO
/// episodes on the given setup, plus the decisions per second of the real
/// policy path — a quick-config BQSched agent acting greedily over the same
/// rounds. Unlike every other gate metric these are **wall-clock** rates —
/// the `throughput` prefix both inverts the gate's direction (higher is
/// better) and widens its margin ([`gate::tolerance_for`]) — so the cell
/// catches an order-of-magnitude slowdown of the loop itself, which
/// virtual-time makespans cannot see.
pub fn throughput_metrics(setup: &Setup, scale: RunScale) -> Vec<(String, f64)> {
    // The measured window must be wide enough that scheduler jitter and cache
    // warmup stop dominating: at eval-round counts (3 quick rounds ≈ 1 ms of
    // wall time) the reported rate flapped ±20% run to run, which forced the
    // gate's throughput tolerance to swallow real regressions. A fixed
    // warmup + a fixed 128-round window costs ~20 ms and holds the rate
    // steady to a few percent, so the same-machine floor is enforceable.
    const WARMUP_ROUNDS: u64 = 16;
    const MEASURED_ROUNDS: u64 = 128;
    let run_round = |seed: u64, policy: &mut dyn SchedulerPolicy| -> (usize, usize) {
        let mut backend = CountingBackend {
            inner: ExecutionEngine::new(setup.profile.clone(), &setup.workload, seed),
            events: 0,
        };
        let log = bq_core::ScheduleSession::builder(&setup.workload)
            .dbms(setup.profile.kind)
            .round(seed)
            .build(&mut backend)
            .run(policy);
        (log.len(), backend.events)
    };
    // Decisions and events over the measured rounds, and their wall seconds.
    let measure = |policy: &mut dyn SchedulerPolicy| -> (usize, usize, f64) {
        for seed in 0..WARMUP_ROUNDS {
            run_round(seed, policy);
        }
        let mut decisions = 0usize;
        let mut events = 0usize;
        let clock = SystemClock::new();
        for seed in 0..MEASURED_ROUNDS {
            let (d, e) = run_round(seed, policy);
            decisions += d;
            events += e;
        }
        (decisions, events, clock.now_seconds().max(1e-9))
    };
    let (decisions, events, elapsed) = measure(&mut FifoScheduler::new());
    let mut agent = BqSchedAgent::new(
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        scale.agent_config(),
    );
    agent.explore = false;
    let (greedy_decisions, _, greedy_elapsed) = measure(&mut agent);
    vec![
        (
            "throughput_decisions_per_sec".to_string(),
            decisions as f64 / elapsed,
        ),
        (
            "throughput_events_per_sec".to_string(),
            events as f64 / elapsed,
        ),
        (
            "throughput_greedy_decisions_per_sec".to_string(),
            greedy_decisions as f64 / greedy_elapsed,
        ),
    ]
}

/// Figure 5 — scalability: makespan of every strategy as data scale and query
/// scale grow, on TPC-DS (DBMS-X and DBMS-Z) and TPC-H (DBMS-Z).
pub fn fig5(scale: RunScale) -> String {
    fig5_report(scale).text
}

/// [`fig5`] plus the per-cell makespan scalars for the CI bench gate.
pub fn fig5_report(scale: RunScale) -> BenchReport {
    let mut out = String::new();
    let mut gate_metrics: Vec<(String, f64)> = Vec::new();
    out.push_str("Figure 5: scalability (mean makespan, s)\n");
    out.push_str(&format!(
        "{:<28} {:>15}  {:>15}  {:>15}  {:>15}  {:>15}\n",
        "cell", "Random", "FIFO", "MCF", "LSched", "BQSched"
    ));
    // (a) TPC-DS on DBMS-X: data scales and query scales.
    let (data_scales, query_scales): (Vec<f64>, Vec<usize>) = match scale {
        RunScale::Quick => (vec![1.0, 2.0], vec![2]),
        RunScale::Full => (vec![1.0, 2.0, 5.0, 10.0], vec![2, 5, 10]),
    };
    for &ds in &data_scales {
        let setup = build_setup(Benchmark::TpcDs, DbmsKind::X, ds, 1, scale);
        let evals = evaluate_all(&setup, scale);
        let label = format!("(a) tpcds X data x{ds}");
        push_eval_metrics(&mut gate_metrics, &label, &evals);
        out.push_str(&format_eval_row(&label, &evals));
        out.push('\n');
    }
    for &qs in &query_scales {
        let setup = build_setup(Benchmark::TpcDs, DbmsKind::X, 1.0, qs, scale);
        let evals = evaluate_all(&setup, scale);
        let label = format!("(a) tpcds X queries x{qs}");
        push_eval_metrics(&mut gate_metrics, &label, &evals);
        out.push_str(&format_eval_row(&label, &evals));
        out.push('\n');
    }
    // (b) TPC-DS and (c) TPC-H on DBMS-Z at large data scales.
    let large: Vec<f64> = match scale {
        RunScale::Quick => vec![50.0],
        RunScale::Full => vec![50.0, 100.0, 200.0],
    };
    for &ds in &large {
        let setup = build_setup(Benchmark::TpcDs, DbmsKind::Z, ds, 1, scale);
        let evals = evaluate_all(&setup, scale);
        let label = format!("(b) tpcds Z data x{ds}");
        push_eval_metrics(&mut gate_metrics, &label, &evals);
        out.push_str(&format_eval_row(&label, &evals));
        out.push('\n');
        let setup = build_setup(Benchmark::TpcH, DbmsKind::Z, ds, 1, scale);
        let evals = evaluate_all(&setup, scale);
        let label = format!("(c) tpch Z data x{ds}");
        push_eval_metrics(&mut gate_metrics, &label, &evals);
        out.push_str(&format_eval_row(&label, &evals));
        out.push('\n');
    }
    // (d) the sharded multi-engine backend: shard-count scalability.
    let shard_sweep = fig5_shard_sweep(scale);
    out.push_str(&shard_sweep.text);
    gate_metrics.extend(shard_sweep.metrics);
    // (e) the async submission adapter: dispatch-latency × batch-size cost.
    let dispatch_sweep = fig5_dispatch_sweep(scale);
    out.push_str(&dispatch_sweep.text);
    gate_metrics.extend(dispatch_sweep.metrics);
    // (f) the wire-protocol backend: transit-latency cost.
    let wire_sweep = fig5_wire_sweep(scale);
    out.push_str(&wire_sweep.text);
    gate_metrics.extend(wire_sweep.metrics);
    // (g) the chaos cell: degraded-mode cost of a shard stall + death.
    let chaos_sweep = fig5_chaos_sweep(scale);
    out.push_str(&chaos_sweep.text);
    gate_metrics.extend(chaos_sweep.metrics);
    BenchReport {
        text: out,
        metrics: gate_metrics,
    }
}

/// Figure 5(d) — scalability of the sharded multi-engine backend: mean FIFO
/// makespan as the shard count grows (1/2/4/8), per placement policy
/// (first-free packing, hash spreading, least-loaded balancing). Each shard
/// is a full DBMS-X resource envelope, so doubling shards doubles hardware;
/// the makespan should fall until the workload stops saturating the global
/// connection pool.
pub fn fig5_shard_sweep(scale: RunScale) -> BenchReport {
    let mut out = String::new();
    let mut gate_metrics: Vec<(String, f64)> = Vec::new();
    out.push_str("Figure 5(d): sharded backend — shard-count sweep (mean FIFO makespan, s)\n");
    out.push_str(&format!(
        "{:<28} {:>15}  {:>15}  {:>15}\n",
        "cell", "first-free", "hash", "least-loaded"
    ));
    let query_scale = match scale {
        RunScale::Quick => 2,
        RunScale::Full => 5,
    };
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, query_scale));
    let profile = DbmsProfile::dbms_x();
    let rounds = scale.eval_rounds();
    for shards in [1usize, 2, 4, 8] {
        let sweep = |router_for: &dyn Fn() -> Box<dyn ShardRouter>| -> f64 {
            let makespans: Vec<f64> = (0..rounds)
                .map(|seed| {
                    let mut engine = ShardedEngine::new(profile.clone(), &workload, seed, shards);
                    bq_core::ScheduleSession::builder(&workload)
                        .dbms(profile.kind)
                        .round(seed)
                        .router(router_for())
                        .build(&mut engine)
                        .run(&mut FifoScheduler::new())
                        .makespan()
                })
                .collect();
            mean(&makespans)
        };
        let first_free = sweep(&|| Box::new(FirstFreeRouter));
        let hash = sweep(&|| Box::new(HashRouter::new(17)));
        let least = sweep(&|| Box::new(LeastLoadedRouter));
        gate_metrics.push((format!("makespan_shards{shards}_first_free"), first_free));
        gate_metrics.push((format!("makespan_shards{shards}_least_loaded"), least));
        out.push_str(&format!(
            "{:<28} {:>15.2}  {:>15.2}  {:>15.2}\n",
            format!("tpcds X shards={shards}"),
            first_free,
            hash,
            least,
        ));
    }
    BenchReport {
        text: out,
        metrics: gate_metrics,
    }
}

/// Figure 5(e) — cost of the asynchronous dispatch boundary: mean FIFO
/// makespan through an [`AsyncAdapter`] as the admission latency and the
/// batch-coalescing size sweep, with a bounded in-flight dispatch window
/// (two round-trips outstanding, the shape of a pipelined client). Latency
/// 0 × batch 1 is the byte-identical passthrough baseline (the in-process
/// cost); growing latency pushes the makespan up as connections idle
/// between decision and admission, and batching claws the loss back by
/// amortizing one admission latency over several decisions — exactly the
/// trade a real client/server deployment tunes.
pub fn fig5_dispatch_sweep(scale: RunScale) -> BenchReport {
    let mut out = String::new();
    let mut gate_metrics: Vec<(String, f64)> = Vec::new();
    out.push_str(
        "Figure 5(e): async dispatch boundary — latency x batch sweep (mean FIFO makespan, s)\n",
    );
    let batches: &[usize] = &[1, 4, 16];
    out.push_str(&format!(
        "{:<28} {:>15}  {:>15}  {:>15}\n",
        "cell", "batch=1", "batch=4", "batch=16"
    ));
    let latencies: &[f64] = match scale {
        RunScale::Quick => &[0.0, 0.5],
        RunScale::Full => &[0.0, 0.1, 0.5, 2.0],
    };
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let rounds = scale.eval_rounds();
    // One registry across the whole sweep: the admission-wait tail is a
    // property of the dispatch boundary as a whole, and the aggregate is
    // still deterministic per seed set (virtual-time observations only).
    let obs = Obs::enabled();
    for &latency in latencies {
        let sweep = |batch: usize| -> f64 {
            let makespans: Vec<f64> = (0..rounds)
                .map(|seed| {
                    let dispatch = DispatchProfile::fixed(latency)
                        .with_max_in_flight(2)
                        .with_max_batch(batch)
                        .with_seed(seed);
                    let mut adapter = AsyncAdapter::new(
                        ExecutionEngine::new(profile.clone(), &workload, seed),
                        dispatch,
                    );
                    adapter.set_obs(obs.clone());
                    bq_core::ScheduleSession::builder(&workload)
                        .dbms(profile.kind)
                        .round(seed)
                        .build(&mut adapter)
                        .run(&mut FifoScheduler::new())
                        .makespan()
                })
                .collect();
            mean(&makespans)
        };
        let cells: Vec<f64> = batches.iter().map(|&b| sweep(b)).collect();
        for (&batch, &makespan) in batches.iter().zip(&cells) {
            gate_metrics.push((
                format!(
                    "makespan_dispatch_{}_batch{batch}",
                    metric_slug(&latency.to_string())
                ),
                makespan,
            ));
        }
        out.push_str(&format!(
            "{:<28} {:>15.2}  {:>15.2}  {:>15.2}\n",
            format!("tpcds X latency={latency}s"),
            cells[0],
            cells[1],
            cells[2],
        ));
    }
    let adm_p50 = obs.quantile("adapter_adm_wait", 0.5);
    let adm_p99 = obs.quantile("adapter_adm_wait", 0.99);
    gate_metrics.push(("adm_wait_p50".to_string(), adm_p50));
    gate_metrics.push(("adm_wait_p99".to_string(), adm_p99));
    out.push_str(&format!(
        "{:<28} {:>15.4}  {:>15.4}\n",
        "adm wait p50 / p99 (s)", adm_p50, adm_p99,
    ));
    BenchReport {
        text: out,
        metrics: gate_metrics,
    }
}

/// Figure 5(f) — cost of the wire itself: mean FIFO makespan through a
/// [`WireBackend`] as the transit latency of the in-memory duplex sweeps
/// from zero (the byte-identical passthrough baseline) upward. Every
/// request and response frame pays the transit, so — unlike the admission
/// latency of 5(e), which is charged once per dispatch — wire latency taxes
/// the whole event loop: polls, advances and cancellations included. This
/// is the trade a deployment makes by putting the scheduler on a different
/// host than the DBMS, and the quantity a TCP/UDS transport will be
/// measured against.
pub fn fig5_wire_sweep(scale: RunScale) -> BenchReport {
    let mut out = String::new();
    let mut gate_metrics: Vec<(String, f64)> = Vec::new();
    out.push_str(
        "Figure 5(f): wire-protocol backend — transit-latency sweep (mean FIFO makespan, s)\n",
    );
    out.push_str(&format!("{:<28} {:>15}\n", "cell", "makespan"));
    let latencies: &[f64] = match scale {
        RunScale::Quick => &[0.0, 0.05, 0.5],
        RunScale::Full => &[0.0, 0.01, 0.05, 0.2, 0.5],
    };
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let rounds = scale.eval_rounds();
    // One registry across the sweep: the transit histograms aggregate every
    // frame both directions pay, deterministic per seed set.
    let obs = Obs::enabled();
    for &latency in latencies {
        let makespans: Vec<f64> = (0..rounds)
            .map(|seed| {
                let transport = TransportProfile::fixed(latency).with_seed(seed);
                let mut wired = WireBackend::over_engine(&profile, &workload, seed, transport);
                wired.set_obs(obs.clone());
                bq_core::ScheduleSession::builder(&workload)
                    .dbms(profile.kind)
                    .round(seed)
                    .build(&mut wired)
                    .run(&mut FifoScheduler::new())
                    .makespan()
            })
            .collect();
        let mean_makespan = mean(&makespans);
        gate_metrics.push((
            format!("makespan_wire_{}", metric_slug(&latency.to_string())),
            mean_makespan,
        ));
        out.push_str(&format!(
            "{:<28} {:>15.2}\n",
            format!("tpcds X wire={latency}s"),
            mean_makespan,
        ));
    }
    let transit = obs.merged_histogram(&["wire_transit_to_server", "wire_transit_to_client"]);
    let transit_p50 = transit.quantile(0.5);
    let transit_p99 = transit.quantile(0.99);
    gate_metrics.push(("wire_transit_p50".to_string(), transit_p50));
    gate_metrics.push(("wire_transit_p99".to_string(), transit_p99));
    out.push_str(&format!(
        "{:<28} {:>15.4}  {:>15.4}\n",
        "transit p50 / p99 (s)", transit_p50, transit_p99,
    ));
    BenchReport {
        text: out,
        metrics: gate_metrics,
    }
}

/// Figure 5(g) — degraded-mode cost: mean FIFO makespan over a two-shard
/// engine when a fixed chaos schedule stalls shard 0 early and kills
/// shard 1 mid-episode, versus the same engine healthy. The degraded run
/// recovers through the full chaos stack — [`FaultAwareRouter`] drains
/// placements away from the down shards and [`RecoveryPolicy`] resubmits
/// the queries the dead shard swallowed — so the cell gates three things at
/// once: that recovery still completes every query, how much makespan a
/// shard death costs, and how many submissions the recovery machinery had
/// to replay. All three are virtual-time scalars, deterministic per seed.
pub fn fig5_chaos_sweep(scale: RunScale) -> BenchReport {
    let mut out = String::new();
    let mut gate_metrics: Vec<(String, f64)> = Vec::new();
    out.push_str(
        "Figure 5(g): chaos cell — shard stall + death under recovery (mean FIFO makespan, s)\n",
    );
    out.push_str(&format!(
        "{:<28} {:>15}  {:>15}  {:>15}\n",
        "cell", "healthy", "degraded", "recovered"
    ));
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let rounds = scale.eval_rounds();
    // The schedule is fixed, not seeded: the stall and the death land at the
    // same virtual instants every round, so the only variation across rounds
    // is the engine seed — exactly like every other fig5 cell.
    let schedule = FaultSchedule::from_events(vec![
        FaultSpec::ShardStall {
            shard: 0,
            at: 0.2,
            resume_at: 0.4,
        },
        FaultSpec::ShardDeath { shard: 1, at: 0.5 },
    ]);
    let mut healthy_sum = 0.0;
    let mut degraded_sum = 0.0;
    let mut recovered_sum = 0.0;
    // One registry across the rounds: how long a lost query waits between
    // the fault and its resubmission landing, tail and worst case.
    let obs = Obs::enabled();
    for seed in 0..rounds {
        let mut healthy_backend = ShardedEngine::new(profile.clone(), &workload, seed, 2);
        let healthy = bq_core::ScheduleSession::builder(&workload)
            .dbms(profile.kind)
            .round(seed)
            .router(LeastLoadedRouter)
            .build(&mut healthy_backend)
            .run(&mut FifoScheduler::new());
        healthy_sum += healthy.makespan();
        let mut chaotic = ChaosBackend::new(
            ShardedEngine::new(profile.clone(), &workload, seed, 2),
            &schedule,
        );
        chaotic.set_obs(obs.clone());
        let log = bq_core::ScheduleSession::builder(&workload)
            .dbms(profile.kind)
            .round(seed)
            .router(FaultAwareRouter::new(LeastLoadedRouter))
            .recovery(RecoveryPolicy::bounded())
            .obs(obs.clone())
            .build(&mut chaotic)
            .run(&mut FifoScheduler::new());
        assert_eq!(
            log.len(),
            workload.len(),
            "recovery must complete the episode"
        );
        let degraded = degraded_evaluation(&log);
        degraded_sum += degraded.makespan;
        recovered_sum += log.recovered_submissions() as f64;
    }
    let n = rounds as f64;
    let (healthy, degraded, recovered) = (healthy_sum / n, degraded_sum / n, recovered_sum / n);
    gate_metrics.push(("makespan_chaos_baseline".to_string(), healthy));
    gate_metrics.push(("makespan_chaos_degraded".to_string(), degraded));
    gate_metrics.push(("recovered_chaos_degraded".to_string(), recovered));
    let recovery_p99 = obs.quantile("session_recovery_latency", 0.99);
    let recovery_max = obs
        .histogram("session_recovery_latency")
        .map_or(0.0, |h| h.max());
    gate_metrics.push(("recovery_latency_p99".to_string(), recovery_p99));
    gate_metrics.push(("recovery_latency_max".to_string(), recovery_max));
    out.push_str(&format!(
        "{:<28} {:>15.2}  {:>15.2}  {:>15.2}\n",
        "tpch X shards=2 stall+death", healthy, degraded, recovered,
    ));
    out.push_str(&format!(
        "{:<28} {:>15.4}  {:>15.4}\n",
        "recovery latency p99 / max", recovery_p99, recovery_max,
    ));
    BenchReport {
        text: out,
        metrics: gate_metrics,
    }
}

/// Figure 6 — training cost: DBMS time consumed when training BQSched from
/// scratch on the DBMS, versus pre-training on the learned simulator and
/// fine-tuning on the DBMS, versus training LSched.
pub fn fig6(scale: RunScale) -> String {
    let mut out = String::new();
    out.push_str("Figure 6: training cost (virtual DBMS-seconds consumed by training episodes)\n");
    let setup = build_setup(Benchmark::TpcDs, DbmsKind::X, 1.0, 1, scale);
    let tc = scale.training();

    // Train BQSched from scratch directly on the DBMS.
    let mut scratch = BqSchedAgent::new(
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        scale.agent_config(),
    );
    let scratch_curve = train_on_dbms(
        &mut scratch,
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        &tc,
    );
    let scratch_cost = scratch_curve.total_episodes as f64 * setup.history.mean_makespan();

    // Pre-train on the learned simulator (no DBMS time), then fine-tune with a
    // reduced number of DBMS rounds.
    let sim_config = SimulatorConfig {
        encoder: StateEncoderConfig {
            plan_dim: scale.agent_config().plan_encoder.dim,
            dim: 16,
            heads: 2,
            blocks: 1,
        },
        ..SimulatorConfig::default()
    };
    let mut pretrained = BqSchedAgent::new(
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        scale.agent_config(),
    );
    let samples = samples_from_history(
        &setup.workload,
        &setup.history,
        pretrained.plan_embeddings(),
        &sim_config,
    );
    let mut sim = SimulatorModel::new(pretrained.plan_embeddings().cols(), sim_config, 5);
    let sample_cap = match scale {
        RunScale::Quick => 120,
        RunScale::Full => 2000,
    };
    sim.train(&samples[..samples.len().min(sample_cap)], 6, 0.01);
    let embs = pretrained.plan_embeddings().clone();
    let pre_curve = pretrain_on_simulator(
        &mut pretrained,
        &setup.workload,
        &sim,
        &embs,
        &setup.history,
        setup.profile.connections,
        &tc,
    );
    let finetune_tc = TrainingConfig {
        iterations: 1,
        ppo_iters: 1,
        rounds_per_iter: tc.rounds_per_iter.min(2),
        eval_rounds: 1,
        ..tc
    };
    let fine_curve = train_on_dbms(
        &mut pretrained,
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        &finetune_tc,
    );
    let finetune_cost = fine_curve.total_episodes as f64 * setup.history.mean_makespan();

    // LSched trained from scratch on the DBMS.
    let mut lsched_agent = BqSchedAgent::new(
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        scale.agent_config().lsched(),
    );
    let lsched_curve = train_on_dbms(
        &mut lsched_agent,
        &setup.workload,
        &setup.profile,
        Some(&setup.history),
        &tc,
    );
    let lsched_cost = lsched_curve.total_episodes as f64 * setup.history.mean_makespan();

    out.push_str(&format!("{:<44} {:>14}\n", "variant", "DBMS time (s)"));
    out.push_str(&format!(
        "{:<44} {:>14.1}\n",
        "pre-train BQSched on simulator", 0.0
    ));
    out.push_str(&format!(
        "{:<44} {:>14.1}\n",
        "fine-tune BQSched on DBMS", finetune_cost
    ));
    out.push_str(&format!(
        "{:<44} {:>14.1}\n",
        "train BQSched from scratch on DBMS", scratch_cost
    ));
    out.push_str(&format!(
        "{:<44} {:>14.1}\n",
        "train LSched from scratch on DBMS", lsched_cost
    ));
    out.push_str(&format!(
        "pretrain+finetune uses {:.0}% of the from-scratch DBMS time ({} vs {} episodes); simulator pre-training ran {} episodes off-DBMS\n",
        100.0 * finetune_cost / scratch_cost.max(1e-9),
        fine_curve.total_episodes,
        scratch_curve.total_episodes,
        pre_curve.total_episodes,
    ));
    out
}

/// Figure 7 — ablation of the RL scheduler and adaptive masking: greedy
/// makespan after training for BQSched and its ablated variants.
pub fn fig7(scale: RunScale) -> String {
    fig7_report(scale).text
}

/// [`fig7`] plus each variant's final makespan for the CI bench gate.
pub fn fig7_report(scale: RunScale) -> BenchReport {
    let mut out = String::new();
    let mut gate_metrics: Vec<(String, f64)> = Vec::new();
    out.push_str("Figure 7: ablation study (greedy eval makespan after training, s)\n");
    let setup = build_setup(Benchmark::TpcDs, DbmsKind::X, 1.0, 1, scale);
    let tc = scale.training();
    let variants: Vec<(&str, BqSchedConfig)> = vec![
        ("BQSched (IQ-PPO)", scale.agent_config()),
        (
            "w/o attention state rep",
            scale.agent_config().without_attention(),
        ),
        (
            "w/ PPO",
            scale.agent_config().with_algorithm(Algorithm::Ppo),
        ),
        (
            "w/ PPG",
            scale.agent_config().with_algorithm(Algorithm::Ppg),
        ),
        (
            "w/o adaptive masking",
            scale.agent_config().without_masking(),
        ),
    ];
    out.push_str(&format!(
        "{:<28} {:>16} {:>16}\n",
        "variant", "final makespan", "episode reward"
    ));
    for (name, config) in variants {
        let mut agent = BqSchedAgent::new(
            &setup.workload,
            &setup.profile,
            Some(&setup.history),
            config,
        );
        let curve = train_on_dbms(
            &mut agent,
            &setup.workload,
            &setup.profile,
            Some(&setup.history),
            &tc,
        );
        let reward = curve.points.last().map(|p| p.episode_reward).unwrap_or(0.0);
        out.push_str(&format!(
            "{:<28} {:>16.2} {:>16.3}\n",
            name,
            curve.final_makespan(),
            reward
        ));
        gate_metrics.push((
            format!("makespan_{}", metric_slug(name)),
            curve.final_makespan(),
        ));
    }
    BenchReport {
        text: out,
        metrics: gate_metrics,
    }
}

/// Figure 8 — sensitivity to the number of query clusters `n_c` at enlarged
/// query scales.
pub fn fig8(scale: RunScale) -> String {
    let mut out = String::new();
    out.push_str("Figure 8: query clustering sensitivity (greedy eval makespan, s)\n");
    let (query_scales, cluster_counts): (Vec<usize>, Vec<Option<usize>>) = match scale {
        RunScale::Quick => (vec![2], vec![Some(20), Some(50), None]),
        RunScale::Full => (vec![5, 10], vec![Some(50), Some(100), Some(200), None]),
    };
    let tc = scale.training();
    out.push_str(&format!(
        "{:<28} {:>16} {:>16}\n",
        "cell", "n_c", "makespan"
    ));
    for &qs in &query_scales {
        let setup = build_setup(Benchmark::TpcDs, DbmsKind::X, 1.0, qs, scale);
        for &nc in &cluster_counts {
            let mut config = scale.agent_config();
            config.cluster_count = nc;
            let mut agent = BqSchedAgent::new(
                &setup.workload,
                &setup.profile,
                Some(&setup.history),
                config,
            );
            let curve = train_on_dbms(
                &mut agent,
                &setup.workload,
                &setup.profile,
                Some(&setup.history),
                &tc,
            );
            let label = format!("tpcds X queries x{qs}");
            let nc_label = nc
                .map(|v| v.to_string())
                .unwrap_or_else(|| "w/o clustering".into());
            out.push_str(&format!(
                "{:<28} {:>16} {:>16.2}\n",
                label,
                nc_label,
                curve.final_makespan()
            ));
        }
    }
    out
}

/// Figure 9 — case study: the Gantt chart of a scheduling plan learned by
/// BQSched on TPC-DS with DBMS-X.
pub fn fig9(scale: RunScale) -> String {
    let mut out = String::new();
    out.push_str("Figure 9: case study — BQSched scheduling plan on TPC-DS with DBMS-X\n");
    let setup = build_setup(Benchmark::TpcDs, DbmsKind::X, 1.0, 1, scale);
    let mut agent = train_bqsched(&setup, scale);
    let mut engine = ExecutionEngine::new(setup.profile.clone(), &setup.workload, 999);
    let log = bq_core::ScheduleSession::builder(&setup.workload)
        .history(&setup.history)
        .dbms(setup.profile.kind)
        .round(999)
        .build(&mut engine)
        .run(&mut agent);
    let chart = GanttChart::from_log(&log);
    out.push_str(&chart.render_ascii(100));
    out.push_str(&format!(
        "connections used: {}, utilisation: {:.1}%, makespan: {:.2}s\n",
        chart.used_connections(),
        chart.utilisation() * 100.0,
        chart.makespan
    ));
    let tail: Vec<usize> = chart.tail_queries(0.1).iter().map(|b| b.template).collect();
    out.push_str(&format!(
        "templates finishing in the last 10% of the makespan: {tail:?}\n"
    ));
    out
}

/// Print the single-line JSON summary every experiment binary ends with, so
/// perf-trajectory files can be captured mechanically
/// (`... | tail -n 1 > BENCH_table1.json`). Keys: `bench`, `scale`,
/// `elapsed_s`, `status` — plus `metrics` when the experiment reports
/// gate-comparable scalars (see [`emit_summary_with_metrics`]).
pub fn emit_summary(bench: &str, scale: RunScale, started: std::time::Instant) {
    emit_summary_with_metrics(bench, scale, started, &[]);
}

/// [`emit_summary`] with a `metrics` object of gate-comparable scalars
/// (virtual-time makespans / accuracies / MSEs — deterministic per seed,
/// unlike `elapsed_s`, which is wall-clock and never compared). The CI
/// `bench-gate` job parses this line and fails the build when a metric
/// regresses more than the tolerance against `bench/baselines/`.
pub fn emit_summary_with_metrics(
    bench: &str,
    scale: RunScale,
    started: std::time::Instant,
    metrics: &[(String, f64)],
) {
    let mut entries = vec![
        ("bench".to_string(), serde::Value::Str(bench.to_string())),
        (
            "scale".to_string(),
            serde::Value::Str(scale.name().to_string()),
        ),
        (
            "elapsed_s".to_string(),
            serde::Value::Num((started.elapsed().as_secs_f64() * 1e3).round() / 1e3),
        ),
    ];
    // JSON cannot carry NaN/inf, so a non-finite metric would fail
    // serialization at the very end of a long run; drop it loudly instead
    // and let the gate flag it as missing against the baseline.
    let (finite, broken): (Vec<_>, Vec<_>) = metrics.iter().partition(|(_, v)| v.is_finite());
    for (key, value) in broken {
        eprintln!("warning: metric {key} is non-finite ({value}) and was dropped from the summary");
    }
    if !finite.is_empty() {
        entries.push((
            "metrics".to_string(),
            serde::Value::Map(
                finite
                    .iter()
                    .map(|(k, v)| (k.clone(), serde::Value::Num(*v)))
                    .collect(),
            ),
        ));
    }
    entries.push(("status".to_string(), serde::Value::Str("ok".to_string())));
    println!(
        "{}",
        serde_json::to_string(&serde::Value::Map(entries))
            .expect("summary serialization cannot fail")
    );
}

/// Parse a `--trace-out <path>` argument: where the experiment binary should
/// dump the canonical per-episode trace artifact (see [`trace_artifact`])
/// after its run, so CI can upload it alongside the JSON summary.
pub fn trace_out_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--trace-out" {
            return args.next().map(std::path::PathBuf::from);
        }
    }
    None
}

/// The canonical trace artifact: one recording FIFO episode over a plain
/// [`ExecutionEngine`] on TPC-H ×1, seed 0 — the exact episode the golden
/// `tests/golden/trace_engine_tpch_seed0.jsonl` pins. Pure virtual time,
/// so two calls return byte-identical JSONL; the conformance suite replays
/// it twice to prove that.
pub fn trace_artifact() -> String {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let obs = Obs::recording();
    let mut engine = ExecutionEngine::new(profile.clone(), &workload, 0);
    engine.set_obs(obs.clone());
    bq_core::ScheduleSession::builder(&workload)
        .dbms(profile.kind)
        .round(0)
        .obs(obs.clone())
        .build(&mut engine)
        .run(&mut FifoScheduler::new());
    obs.trace_jsonl()
}

/// Run one scheduling round through the session facade on a fresh engine —
/// the shape every bench body uses.
pub fn session_round(
    policy: &mut dyn SchedulerPolicy,
    workload: &Workload,
    profile: &DbmsProfile,
    history: Option<&ExecutionHistory>,
    seed: u64,
) -> bq_core::EpisodeLog {
    bq_core::ScheduleSession::builder(workload)
        .maybe_history(history)
        .run_on_profile(profile, seed, policy)
}

/// Convenience wrapper used by example binaries: build a named heuristic.
pub fn heuristic_by_name(name: &str, seed: u64) -> Box<dyn SchedulerPolicy> {
    match name {
        "random" => Box::new(RandomScheduler::new(seed)),
        "mcf" => Box::new(McfScheduler::new()),
        _ => Box::new(FifoScheduler::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_setup_builds_history() {
        let setup = build_setup(Benchmark::TpcH, DbmsKind::X, 1.0, 1, RunScale::Quick);
        assert_eq!(setup.workload.len(), 22);
        assert_eq!(setup.history.len() as u64, RunScale::Quick.history_rounds());
    }

    #[test]
    fn heuristics_evaluate_in_expected_order_of_reporting() {
        let setup = build_setup(Benchmark::TpcH, DbmsKind::X, 1.0, 1, RunScale::Quick);
        let evals = evaluate_heuristics(&setup, RunScale::Quick);
        assert_eq!(evals.len(), 3);
        assert_eq!(evals[0].strategy, "Random");
        assert_eq!(evals[1].strategy, "FIFO");
        assert_eq!(evals[2].strategy, "MCF");
        assert!(evals.iter().all(|e| e.mean_makespan > 0.0));
    }

    #[test]
    fn run_scale_parameters_are_consistent() {
        assert_eq!(RunScale::Quick.eval_rounds(), 3);
        assert_eq!(RunScale::Full.eval_rounds(), 5);
        assert!(RunScale::Full.training().iterations > RunScale::Quick.training().iterations);
    }

    #[test]
    fn heuristic_by_name_falls_back_to_fifo() {
        assert_eq!(heuristic_by_name("fifo", 0).name(), "FIFO");
        assert_eq!(heuristic_by_name("random", 0).name(), "Random");
        assert_eq!(heuristic_by_name("unknown", 0).name(), "FIFO");
    }
}
