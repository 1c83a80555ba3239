//! # bq-sched
//!
//! The BQSched scheduler itself — the paper's primary contribution — plus the
//! adapted LSched baseline:
//!
//! * [`agent`] — the RL decision model (shared attention-based state
//!   representation with policy/value/auxiliary heads), the
//!   [`BqSchedAgent`] scheduling policy, and the one training loop (IQ-PPO
//!   or its PPO / PPG ablations) including simulator pre-training and DBMS
//!   fine-tuning;
//! * [`masking`] — adaptive masking of inefficient parameter configurations
//!   (§IV-A);
//! * [`clustering`] — scheduling-gain computation, the gain-predicting MLP
//!   and average-linkage agglomerative query clustering (§IV-B);
//! * [`simulator`] — the learned incremental simulator that predicts the
//!   earliest-finishing concurrent query and its finish time, used to
//!   pre-train the scheduler without touching the DBMS (§IV-C).
//!
//! ```no_run
//! use bq_core::{collect_history, evaluate_strategy, FifoScheduler};
//! use bq_dbms::DbmsProfile;
//! use bq_plan::{generate, Benchmark, WorkloadSpec};
//! use bq_sched::{train_on_dbms, BqSchedAgent, BqSchedConfig, TrainingConfig};
//!
//! let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
//! let profile = DbmsProfile::dbms_x();
//! let history = collect_history(&mut FifoScheduler::new(), &workload, &profile, 3, 0);
//! let mut agent = BqSchedAgent::new(&workload, &profile, Some(&history), BqSchedConfig::default());
//! train_on_dbms(&mut agent, &workload, &profile, Some(&history), &TrainingConfig::default());
//! agent.explore = false;
//! let eval = evaluate_strategy(&mut agent, &workload, &profile, Some(&history), 5, 100);
//! println!("BQSched makespan: {:.2}s ± {:.2}", eval.mean_makespan, eval.std_makespan);
//! ```

#![warn(missing_docs)]

pub mod agent;
pub mod clustering;
pub mod masking;
pub mod simulator;

pub use agent::{
    pretrain_on_simulator, train_agent_with, train_on_dbms, BqObs, BqSchedAgent, BqSchedConfig,
    BqSchedModel, TrainingConfig, TrainingCurve, TrainingPoint,
};
pub use bq_rl::Algorithm;
pub use clustering::{gains_from_history, GainMatrix, GainPredictor, QueryClustering};
pub use masking::{AdaptiveMask, MASK_VALUE};
pub use simulator::{
    samples_from_history, LearnedSimulator, SimSample, SimulatorConfig, SimulatorMetrics,
    SimulatorModel,
};
