//! Shared helpers for the root-package integration tests: backend
//! construction, session shorthand and the golden-artifact comparator.
//! (Each integration test file compiles separately, so unused helpers are
//! expected per file.)
#![allow(dead_code)]

use bqsched::core::{EpisodeLog, ExecutorBackend, ScheduleSession, SchedulerPolicy};
use bqsched::nn::{ParamStore, Tensor};
use bqsched::plan::Workload;
use bqsched::rand::rngs::StdRng;
use bqsched::rand::SeedableRng;
use bqsched::sched::{SimulatorConfig, SimulatorModel};
use std::sync::Arc;

/// Run one round through the session facade against any backend.
pub fn session_round<E: ExecutorBackend>(
    policy: &mut dyn SchedulerPolicy,
    workload: &Workload,
    backend: &mut E,
    round: u64,
) -> EpisodeLog {
    ScheduleSession::builder(workload)
        .round(round)
        .build(backend)
        .run(policy)
}

/// Build a learned-simulator backend over an (untrained, deterministic)
/// prediction model. Returns the pieces the simulator borrows.
pub fn simulator_parts(workload: &Workload) -> (SimulatorModel, Arc<Tensor>, Vec<f64>) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let enc = bqsched::encoder::PlanEncoder::new(
        &mut store,
        bqsched::encoder::PlanEncoderConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
        },
        &mut rng,
    );
    let embs = Arc::new(enc.embed_workload(&store, workload));
    let config = SimulatorConfig {
        encoder: bqsched::encoder::StateEncoderConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
        },
        ..SimulatorConfig::default()
    };
    let model = SimulatorModel::new(16, config, 1);
    let avg = vec![1.0; workload.len()];
    (model, embs, avg)
}

/// Compare `json` against the pinned artifact at `tests/golden/<name>`, or
/// rewrite the artifact when `BLESS=1` is set (deliberate re-pin after an
/// intended behavior change).
pub fn assert_matches_golden(name: &str, json: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, json).expect("write golden log");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden log artifact missing");
    assert_eq!(
        json, golden,
        "episode log diverged from the pinned golden artifact {name}; if \
         the behavior change is intended, re-bless with BLESS=1"
    );
}
