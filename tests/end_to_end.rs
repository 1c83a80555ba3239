//! Cross-crate integration tests: full scheduling episodes, strategy
//! orderings, and the pre-train / fine-tune pipeline, exercised through the
//! public API of the umbrella crate.

mod common;

use bq_bench::RunScale;
use bqsched::core::{
    collect_history, evaluate_strategy, FifoScheduler, GanttChart, McfScheduler, RandomScheduler,
    ScheduleSession, SchedulerPolicy,
};
use bqsched::dbms::{DbmsProfile, MemoryGrant, RunParams};
use bqsched::encoder::{PlanEncoderConfig, StateEncoderConfig};
use bqsched::nn::{Adam, ParamStore};
use bqsched::plan::{generate, perturb_query_set, Benchmark, QueryId, WorkloadSpec};
use bqsched::rand::rngs::StdRng;
use bqsched::rand::SeedableRng;
use bqsched::rl::{IqPpoTrainer, RolloutBuffer};
use bqsched::sched::{
    gains_from_history, samples_from_history, train_on_dbms, Algorithm, BqSchedAgent,
    BqSchedConfig, GainPredictor, SimulatorConfig, SimulatorModel, TrainingConfig,
};

fn small_agent_config() -> BqSchedConfig {
    BqSchedConfig {
        plan_encoder: PlanEncoderConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
        },
        state_encoder: StateEncoderConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
        },
        plan_pretrain_epochs: 0,
        ..BqSchedConfig::default()
    }
}

#[test]
fn every_strategy_completes_a_tpch_round_on_every_dbms() {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    for profile in DbmsProfile::all() {
        for policy in [
            Box::new(RandomScheduler::new(0)) as Box<dyn bqsched::core::SchedulerPolicy>,
            Box::new(FifoScheduler::new()),
            Box::new(McfScheduler::new()),
        ]
        .iter_mut()
        {
            let log =
                ScheduleSession::builder(&workload).run_on_profile(&profile, 1, policy.as_mut());
            assert_eq!(
                log.len(),
                workload.len(),
                "{} on {}",
                policy.name(),
                profile.kind.name()
            );
            assert!(log.makespan() > 0.0);
        }
    }
}

#[test]
fn makespan_is_bounded_by_serial_execution() {
    // The concurrent makespan must not exceed the sum of individual durations
    // (which is what a single connection would take), and must be at least the
    // longest single query.
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let log =
        ScheduleSession::builder(&workload).run_on_profile(&profile, 3, &mut FifoScheduler::new());
    let longest = log.records.iter().map(|r| r.duration()).fold(0.0, f64::max);
    let serial_sum: f64 = log.records.iter().map(|r| r.duration()).sum();
    assert!(log.makespan() >= longest - 1e-6);
    assert!(log.makespan() <= serial_sum + 1e-6);
}

#[test]
fn mcf_with_history_beats_random_on_tpcds() {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let history = collect_history(&mut FifoScheduler::new(), &workload, &profile, 2, 0);
    let costs: Vec<f64> = (0..workload.len())
        .map(|i| history.avg_exec_time(QueryId(i)).unwrap_or(0.0))
        .collect();
    let random = evaluate_strategy(
        &mut RandomScheduler::new(9),
        &workload,
        &profile,
        Some(&history),
        3,
        500,
    );
    let mcf = evaluate_strategy(
        &mut McfScheduler::with_costs(costs),
        &workload,
        &profile,
        Some(&history),
        3,
        500,
    );
    assert!(
        mcf.mean_makespan < random.mean_makespan,
        "MCF ({}) should beat Random ({})",
        mcf.mean_makespan,
        random.mean_makespan
    );
}

#[test]
fn bqsched_agent_runs_untrained_and_after_training() {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let history = collect_history(&mut FifoScheduler::new(), &workload, &profile, 2, 0);
    let mut agent = BqSchedAgent::new(&workload, &profile, Some(&history), small_agent_config());

    // Untrained greedy episode completes.
    agent.explore = false;
    let log = ScheduleSession::builder(&workload)
        .history(&history)
        .run_on_profile(&profile, 0, &mut agent);
    assert_eq!(log.len(), workload.len());

    // A short training run completes and the agent still schedules correctly.
    let tc = TrainingConfig {
        iterations: 1,
        ppo_iters: 1,
        rounds_per_iter: 1,
        eval_rounds: 1,
        seed: 10,
    };
    let curve = train_on_dbms(&mut agent, &workload, &profile, Some(&history), &tc);
    assert!(curve.total_episodes >= 1);
    agent.explore = false;
    let log2 = ScheduleSession::builder(&workload)
        .history(&history)
        .run_on_profile(&profile, 1, &mut agent);
    assert_eq!(log2.len(), workload.len());
    // All submitted parameter configurations are valid members of the space.
    for r in &log2.records {
        assert!(r.params.workers == 1 || r.params.workers == 2 || r.params.workers == 4);
        assert!(matches!(
            r.params.memory,
            MemoryGrant::Low | MemoryGrant::High
        ));
    }
}

#[test]
fn lsched_and_bqsched_share_the_framework_but_differ_in_configuration() {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let bq = BqSchedAgent::new(&workload, &profile, None, small_agent_config());
    let ls = BqSchedAgent::new(&workload, &profile, None, small_agent_config().lsched());
    assert_eq!(bq.name(), "BQSched");
    assert_eq!(ls.name(), "LSched");
    assert!(bq.config.use_masking);
    assert!(!ls.config.use_masking);
}

#[test]
fn simulator_pipeline_produces_consistent_episodes() {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let history = collect_history(&mut FifoScheduler::new(), &workload, &profile, 2, 0);
    let agent = BqSchedAgent::new(&workload, &profile, Some(&history), small_agent_config());
    let sim_config = SimulatorConfig {
        encoder: StateEncoderConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
        },
        ..SimulatorConfig::default()
    };
    let samples = samples_from_history(&workload, &history, agent.plan_embeddings());
    assert!(!samples.is_empty());
    let mut sim = SimulatorModel::new(agent.plan_embeddings().cols(), sim_config, 0);
    let metrics = sim.train(&samples[..samples.len().min(40)], 3);
    assert!(metrics.mse.is_finite());
}

#[test]
fn perturbed_workloads_still_schedule_correctly() {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    for factor in [0.8, 1.2] {
        let perturbed = perturb_query_set(&workload, factor, 1);
        let log = ScheduleSession::builder(&perturbed).run_on_profile(
            &profile,
            0,
            &mut FifoScheduler::new(),
        );
        assert_eq!(log.len(), perturbed.len());
    }
}

#[test]
fn gantt_chart_covers_every_connection_used() {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let log =
        ScheduleSession::builder(&workload).run_on_profile(&profile, 0, &mut FifoScheduler::new());
    let chart = GanttChart::from_log(&log);
    assert_eq!(chart.used_connections(), profile.connections);
    assert!(
        chart.utilisation() > 0.3,
        "utilisation {}",
        chart.utilisation()
    );
    let total_bars: usize = chart.rows.iter().map(Vec::len).sum();
    assert_eq!(total_bars, workload.len());
}

#[test]
fn default_run_params_are_conservative() {
    let p = RunParams::default_config();
    assert_eq!(p.workers, 1);
    assert_eq!(p.memory, MemoryGrant::Low);
}

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in words.into_iter().flat_map(u32::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a of the moment bits of both optimizers.
fn moments_fnv(optimizers: [&Adam; 2]) -> u64 {
    let moments = optimizers.into_iter().flat_map(|adam| {
        let (m, v) = adam.moments();
        m.iter().chain(v).flat_map(|t| t.data())
    });
    fnv1a(moments.map(|x| x.to_bits()))
}

#[test]
fn training_fingerprint_matches_golden() {
    // A short IQ-PPO, PPG and plain PPO run on TPC-H with the quick dims:
    // two exploring rounds, one PPO phase, one auxiliary phase (none for
    // PPO), one greedy round. Training changes that claim to be bit for bit
    // must reproduce every parameter and Adam-moment bit; the quick
    // experiments' makespans alone cannot see a moved parameter bit.
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let profile = DbmsProfile::dbms_x();
    let history = collect_history(&mut FifoScheduler::new(), &workload, &profile, 2, 0);
    let round = |agent: &mut BqSchedAgent, seed: u64| {
        ScheduleSession::builder(&workload)
            .history(&history)
            .run_on_profile(&profile, seed, agent)
            .makespan()
    };
    let mut fields = Vec::new();
    for (name, algorithm) in [
        ("iq_ppo", Algorithm::IqPpo),
        ("ppg", Algorithm::Ppg),
        ("ppo", Algorithm::Ppo),
    ] {
        let config = RunScale::Quick.agent_config().with_algorithm(algorithm);
        let mut agent = BqSchedAgent::new(&workload, &profile, Some(&history), config);
        let mut buffer = RolloutBuffer::new();
        for seed in [1, 2] {
            round(&mut agent, seed);
            buffer.extend(agent.take_rollout());
        }
        let mut trainer = IqPpoTrainer::for_algorithm(algorithm, agent.config.rl);
        trainer.ppo_phase(&agent.model, &mut agent.store, &buffer);
        trainer.aux_phase(&agent.model, &mut agent.store, &buffer);
        let adam_fnv = moments_fnv(trainer.optimizers());
        agent.explore = false;
        let makespan = round(&mut agent, 0);
        let params = agent.store.iter().flat_map(|(_, p)| p.value.data());
        fields.push(format!(
            "  \"{name}\": {{\"params_fnv\": \"{:016x}\", \"adam_fnv\": \"{adam_fnv:016x}\", \
             \"makespan_bits\": \"{:016x}\", \"makespan\": {makespan}}}",
            fnv1a(params.map(|x| x.to_bits())),
            makespan.to_bits(),
        ));
    }
    fields.extend(gain_and_simulator_fields(&workload, &profile, &history));
    let json = format!("{{\n{}\n}}\n", fields.join(",\n"));
    common::assert_matches_golden("training_tpch_fingerprint.json", &json);
}

/// The fingerprint entries of the other two fits on the same TPC-H history:
/// the gain predictor (30 epochs over the observed pairs, as the agent's
/// clustering runs it) and the simulator model, trained jointly and
/// sequentially (3 epochs over 40 samples), over the quick agent's
/// cost-pre-trained plan embeddings.
fn gain_and_simulator_fields(
    workload: &bqsched::plan::Workload,
    profile: &DbmsProfile,
    history: &bqsched::core::ExecutionHistory,
) -> Vec<String> {
    let config = RunScale::Quick.agent_config();
    let agent = BqSchedAgent::new(workload, profile, Some(history), config.clone());
    let embs = agent.plan_embeddings();
    let bits = |store: &ParamStore| {
        let params = store.iter().flat_map(|(_, p)| p.value.data());
        format!("{:016x}", fnv1a(params.map(|x| x.to_bits())))
    };

    let gains = gains_from_history(history, workload.len());
    let mut store = ParamStore::new();
    let predictor = GainPredictor::new(&mut store, embs.cols(), &mut StdRng::seed_from_u64(3));
    let mse = predictor.train(&mut store, embs, &gains, 30);
    let mut fields = vec![format!(
        "  \"gain\": {{\"params_fnv\": \"{}\", \"mse_bits\": \"{:016x}\", \"mse\": {mse}}}",
        bits(&store),
        mse.to_bits(),
    )];

    let samples = samples_from_history(workload, history, embs);
    let mut phases = Vec::new();
    for (name, multitask) in [("joint", true), ("sequential", false)] {
        let sim_config = SimulatorConfig {
            encoder: config.state_encoder,
            multitask,
            ..SimulatorConfig::default()
        };
        let mut sim = SimulatorModel::new(embs.cols(), sim_config, 5);
        let metrics = sim.train(&samples[..40], 3);
        phases.push(format!(
            "\"{name}_params_fnv\": \"{}\", \"{name}_accuracy_bits\": \"{:016x}\", \
             \"{name}_mse_bits\": \"{:016x}\"",
            bits(&sim.store),
            metrics.accuracy.to_bits(),
            metrics.mse.to_bits(),
        ));
    }
    fields.push(format!("  \"simulator\": {{{}}}", phases.join(", ")));
    fields
}
