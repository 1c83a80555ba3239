//! The workloads, their set-up, the measuring loop and the correctness
//! checks.

use crate::affinity;
use crate::layers::{quantile, Aggregate};
use crate::probe::{span, write_spans, Layer, Probe, SharedProbe, TimedBackend, TimedPolicy};
use crate::procfs;
use crate::train::train_replica;
use bq_bench::RunScale;
use bq_core::{
    collect_history, EpisodeLog, ExecutionHistory, FifoScheduler, LeastLoadedRouter, Obs,
    ScheduleSession,
};
use bq_dbms::{DbmsProfile, ExecutionEngine, ShardedEngine};
use bq_obs::Histogram;
use bq_plan::{generate, Benchmark, Workload, WorkloadSpec};
use bq_sched::{train_on_dbms, BqSchedAgent};
use bq_wire::net::{connect_remote, Endpoint, SocketClient};
use bq_wire::TransportProfile;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["greedy_tpcds", "fifo_sharded", "fifo_uds"];

/// Shards of the `fifo_sharded` engine (one per core of the reference host).
const SHARDS: usize = 2;
/// `bq-serve` processes of `fifo_uds`, one engine seed each.
const SERVERS: u64 = 4;
/// Per-round counts are averaged over this many traced rounds, so they do
/// not depend on how many rounds fit in the run.
const COUNTED_ROUNDS: u64 = 4;
/// Passes every workload makes over its inputs, however short the run.
const MIN_PASSES: usize = 3;
/// Spans of this many operations are written out.
const WRITTEN_OPS: u64 = 32;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: every round seed derives from it.
    pub seed: u64,
    /// Wall seconds the measuring loop runs for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The release `bq-serve` binary (`fifo_uds` only).
    pub serve_bin: Option<PathBuf>,
    /// Where spans and server sockets go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one invocation.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// End-to-end (untraced run) or per-layer (traced run) metrics.
    pub metrics: Vec<Metric>,
    /// Host facts recorded with the result.
    pub host: Vec<(&'static str, f64)>,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() {
            value + 0.0 // an empty f64 sum is -0.0
        } else {
            self.check(false, || format!("metric {name} is not finite ({value})"));
            0.0
        };
        self.metrics.push(Metric { name, value, unit });
    }

    /// Layer self times must cover at least 95% of the traced wall time.
    fn reconcile(&mut self, what: &str, cover: f64) {
        self.check(cover >= 0.95, || {
            format!("{what} = {cover:.4}: the layers account for less than 95% of traced wall time")
        });
    }
}

/// Pass `k` of the measuring loop runs on one core, the next pass on the
/// next (see [`affinity`]); the `bq-serve` processes, if any, follow.
struct Rotation {
    cpus: Vec<usize>,
    servers: Vec<u32>,
}

impl Rotation {
    fn new(servers: Vec<u32>) -> Self {
        Rotation {
            cpus: affinity::allowed_cpus(),
            servers,
        }
    }

    fn cores(&self) -> usize {
        self.cpus.len().max(1)
    }

    fn pin(&self, pass: usize) {
        if let Some(&cpu) = self.cpus.get(pass % self.cores()) {
            self.set(&[cpu]);
        }
    }

    /// Give every allowed core back.
    fn release(&self) {
        self.set(&self.cpus);
    }

    fn set(&self, cpus: &[usize]) {
        if cpus.is_empty() {
            return;
        }
        affinity::pin(0, cpus);
        for &pid in &self.servers {
            affinity::pin(pid, cpus);
        }
    }
}

/// Per input of a run, the best of its passes, statistic by statistic.
/// Passes run on different cores at different times; the best one is the
/// code's own cost, and it repeats from run to run where a median over
/// passes does not.
struct Best {
    walls: Vec<f64>,
    reaction_p50: Vec<f64>,
    reaction_p90: Vec<f64>,
    decisions: Vec<f64>,
}

impl Best {
    fn new(inputs: usize) -> Self {
        Best {
            walls: vec![f64::INFINITY; inputs],
            reaction_p50: vec![f64::INFINITY; inputs],
            reaction_p90: vec![f64::INFINITY; inputs],
            decisions: vec![0.0; inputs],
        }
    }

    /// One pass of `input`: its wall seconds, reaction times (µs) and
    /// decisions.
    fn offer(&mut self, input: usize, wall: f64, reactions: &[f64], decisions: f64) {
        if wall < self.walls[input] {
            self.walls[input] = wall;
            self.decisions[input] = decisions;
        }
        if !reactions.is_empty() {
            let p50 = &mut self.reaction_p50[input];
            *p50 = p50.min(quantile(reactions, 0.5));
            let p90 = &mut self.reaction_p90[input];
            *p90 = p90.min(quantile(reactions, 0.9));
        }
    }

    fn p50(&self) -> f64 {
        quantile(&self.walls, 0.5)
    }
}

/// Whether `log` completes every query of an `n`-query workload exactly once.
pub fn exactly_once(log: &EpisodeLog, n: usize) -> bool {
    let mut seen = vec![false; n];
    log.records.len() == n
        && log
            .records
            .iter()
            .all(|r| r.query.0 < n && !std::mem::replace(&mut seen[r.query.0], true))
}

/// Engine seed of round `i` of a run with workload seed `seed`.
fn round_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(i)
}

fn tpcds(query_scale: usize) -> Workload {
    generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, query_scale))
}

/// Wall seconds of each set-up step, per set-up repetition.
#[derive(Debug, Clone, Default)]
struct SetupTimes {
    total: Vec<f64>,
    history: Vec<f64>,
    agent_new: Vec<f64>,
    train: Vec<f64>,
}

/// Time `f` on the probe's clock.
fn timed<R>(probe: &SharedProbe, f: impl FnOnce() -> R) -> (R, f64) {
    let start = probe.borrow().now();
    let result = f();
    (result, probe.borrow().now() - start)
}

/// A workload; one operation is one scheduling round on a fresh backend.
enum Rounds {
    Greedy(Box<Greedy>),
    Sharded(Sharded),
    Uds(Uds),
}

impl Rounds {
    /// Queries per round.
    fn queries(&self) -> usize {
        match self {
            Rounds::Greedy(g) => g.workload.len(),
            Rounds::Sharded(s) => s.workload.len(),
            Rounds::Uds(u) => u.workload.len(),
        }
    }

    /// Run round `i`; spans go to `probe` when it is traced.
    fn round(&mut self, i: u64, probe: &SharedProbe) -> EpisodeLog {
        match self {
            Rounds::Greedy(g) => g.round(i, probe),
            Rounds::Sharded(s) => s.round(i, probe),
            Rounds::Uds(u) => u.round(i, probe),
        }
    }
}

/// Per-layer figures of the greedy agent's traced training.
struct TrainingTrace {
    /// Spans of one replica of `train_on_dbms`.
    probe: SharedProbe,
    /// Wall seconds of that replica.
    wall: f64,
    /// Wall seconds of `train_on_dbms` itself, in the previous set-up.
    plain: f64,
    ppo_transitions: f64,
    aux_transitions: f64,
}

struct Greedy {
    workload: Workload,
    profile: DbmsProfile,
    history: ExecutionHistory,
    agent: BqSchedAgent,
    seed: u64,
}

impl Greedy {
    /// Build and train the agent. With `replica`, training runs through
    /// the traced replica of `train_on_dbms` instead, whose final greedy
    /// makespan must equal `replica`'s `(plain wall, plain makespan)`.
    fn setup(
        seed: u64,
        probe: &SharedProbe,
        times: &mut SetupTimes,
        replica: Option<(f64, f64)>,
        report: &mut Report,
    ) -> (Self, f64, Option<TrainingTrace>) {
        let profile = DbmsProfile::dbms_x();
        let workload = tpcds(1);
        let (history, history_s) = timed(probe, || {
            collect_history(
                &mut FifoScheduler::new(),
                &workload,
                &profile,
                RunScale::Quick.history_rounds(),
                7,
            )
        });
        let (mut agent, agent_new_s) = timed(probe, || {
            BqSchedAgent::new(
                &workload,
                &profile,
                Some(&history),
                RunScale::Quick.agent_config(),
            )
        });
        times.history.push(history_s);
        times.agent_new.push(agent_new_s);
        let tc = RunScale::Quick.training();
        let (final_makespan, trace) = match replica {
            None => {
                let (curve, train_s) = timed(probe, || {
                    train_on_dbms(&mut agent, &workload, &profile, Some(&history), &tc)
                });
                times.train.push(train_s);
                (curve.final_makespan(), None)
            }
            Some((plain, plain_makespan)) => {
                let traced = Probe::shared(true);
                let (stats, wall) = timed(probe, || {
                    train_replica(
                        &mut agent,
                        &workload,
                        &profile,
                        Some(&history),
                        &tc,
                        &traced,
                    )
                });
                report.check(
                    stats.final_makespan.to_bits() == plain_makespan.to_bits(),
                    || {
                        format!(
                            "replica final makespan {} differs from train_on_dbms {plain_makespan}",
                            stats.final_makespan
                        )
                    },
                );
                let trace = TrainingTrace {
                    probe: traced,
                    wall,
                    plain,
                    ppo_transitions: stats.ppo_transitions as f64,
                    aux_transitions: stats.aux_transitions as f64,
                };
                (stats.final_makespan, Some(trace))
            }
        };
        agent.explore = false;
        let greedy = Greedy {
            workload,
            profile,
            history,
            agent,
            seed,
        };
        (greedy, final_makespan, trace)
    }

    fn round(&mut self, i: u64, probe: &SharedProbe) -> EpisodeLog {
        let seed = round_seed(self.seed, i);
        let engine = span(probe, "dbms.engine_new", || {
            ExecutionEngine::new(self.profile.clone(), &self.workload, seed)
        });
        let mut backend = TimedBackend::new(engine, Layer::Dbms, probe);
        let session = ScheduleSession::builder(&self.workload)
            .history(&self.history)
            .dbms(self.profile.kind)
            .round(seed)
            .build(&mut backend);
        if probe.borrow().traced() {
            session.run(&mut TimedPolicy::new(&mut self.agent, probe))
        } else {
            session.run(&mut self.agent)
        }
    }
}

struct Sharded {
    workload: Workload,
    profile: DbmsProfile,
    seed: u64,
}

impl Sharded {
    fn round(&mut self, i: u64, probe: &SharedProbe) -> EpisodeLog {
        let seed = round_seed(self.seed, i);
        let traced = probe.borrow().traced();
        let obs = if traced { Obs::enabled() } else { Obs::off() };
        let engine = span(probe, "dbms.engine_new", || {
            let mut engine = ShardedEngine::new(self.profile.clone(), &self.workload, seed, SHARDS);
            engine.set_obs(obs.clone());
            engine
        });
        let mut backend = TimedBackend::new(engine, Layer::Dbms, probe);
        let session = ScheduleSession::builder(&self.workload)
            .dbms(self.profile.kind)
            .round(seed)
            .router(LeastLoadedRouter)
            .build(&mut backend);
        let mut fifo = FifoScheduler::new();
        let log = if traced {
            session.run(&mut TimedPolicy::new(&mut fifo, probe))
        } else {
            session.run(&mut fifo)
        };
        if traced {
            let advances = shard_advances(&obs);
            probe.borrow_mut().add_count("dbms.shard_advance", advances);
        }
        log
    }
}

/// Sum of the per-shard `shard_advance_<i>` counters in `obs`.
fn shard_advances(obs: &Obs) -> f64 {
    let summary = obs.summary_json();
    let mut total = 0.0;
    let mut rest = summary.as_str();
    while let Some(at) = rest.find("\"shard_advance_") {
        rest = &rest[at + 1..];
        let value = rest
            .split_once("\":")
            .map(|(_, v)| v)
            .and_then(|v| v.split([',', '}']).next())
            .and_then(|v| v.parse::<f64>().ok());
        total += value.unwrap_or(0.0);
    }
    total
}

/// A running `bq-serve` child process, killed and reaped on drop.
struct Serve {
    child: Child,
    socket: PathBuf,
    /// Engine seed every connection's server-side engine uses.
    seed: u64,
}

impl Serve {
    fn spawn(bin: &Path, socket: PathBuf, seed: u64) -> Result<Serve, String> {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(bin)
            .arg("--uds")
            .arg(&socket)
            .args(["--benchmark", "tpcds", "--scale", "1", "--seed"])
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut serve = Serve {
            child,
            socket,
            seed,
        };
        // Ready once a plain connection is accepted.
        for _ in 0..10_000 {
            if std::os::unix::net::UnixStream::connect(&serve.socket).is_ok() {
                return Ok(serve);
            }
            if let Ok(Some(status)) = serve.child.try_wait() {
                return Err(format!("bq-serve exited during start-up with {status}"));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        Err("bq-serve did not start listening within 10 s".to_string())
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct Uds {
    workload: Workload,
    profile: DbmsProfile,
    /// Round `i` talks to server `i % SERVERS`, so `makespan_s` averages
    /// over several engine seeds.
    serves: Vec<Serve>,
    /// Kernel round trips of traced rounds (`wire_rtt_wall`).
    rtt: Histogram,
}

impl Uds {
    fn round(&mut self, i: u64, probe: &SharedProbe) -> EpisodeLog {
        let traced = probe.borrow().traced();
        let obs = if traced { Obs::enabled() } else { Obs::off() };
        let serve = &self.serves[i as usize % self.serves.len()];
        let endpoint = Endpoint::uds(serve.socket.clone());
        let backend = span(probe, "wire.connect", || {
            let transport = TransportProfile::fixed(0.0).with_seed(i);
            let mut client = SocketClient::connect(endpoint, transport)
                .unwrap_or_else(|e| panic!("connecting to bq-serve: {e}"));
            if traced {
                client = client.with_wall_clock(Box::new(bq_obs::SystemClock::new()));
                client.set_obs(obs.clone());
            }
            let mut backend =
                connect_remote(client).unwrap_or_else(|e| panic!("bq-serve handshake: {e:?}"));
            backend.set_obs(obs.clone());
            backend
        });
        let mut timed = TimedBackend::new(backend, Layer::Wire, probe);
        let session = ScheduleSession::builder(&self.workload)
            .dbms(self.profile.kind)
            .round(i)
            .build(&mut timed);
        let mut fifo = FifoScheduler::new();
        let log = if traced {
            session.run(&mut TimedPolicy::new(&mut fifo, probe))
        } else {
            session.run(&mut fifo)
        };
        if traced {
            let mut probe = probe.borrow_mut();
            probe.add_count("wire.frames_sent", obs.counter("wire_frames_sent") as f64);
            probe.add_count("wire.bytes_sent", obs.counter("wire_bytes_sent") as f64);
            if let Some(h) = obs.histogram("wire_rtt_wall") {
                self.rtt.merge(&h);
            }
        }
        log
    }

    /// The same round over an in-process engine: the expected log.
    fn in_process(&self, i: u64) -> EpisodeLog {
        let seed = self.serves[i as usize % self.serves.len()].seed;
        let mut engine = ExecutionEngine::new(self.profile.clone(), &self.workload, seed);
        ScheduleSession::builder(&self.workload)
            .dbms(self.profile.kind)
            .round(i)
            .build(&mut engine)
            .run(&mut FifoScheduler::new())
    }
}

/// Run one invocation.
pub fn run(config: &Config) -> Result<Report, String> {
    if !WORKLOADS.contains(&config.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?}",
            config.workload
        ));
    }
    let mut report = Report::default();
    let load_start = procfs::load1().unwrap_or(0.0);
    let probe = Probe::shared(false);

    // Set-up, repeated; `setup_s` is the median repetition. In a traced
    // greedy run the second repetition trains through the traced replica.
    let reps = if config.workload == "greedy_tpcds" {
        2
    } else {
        5
    };
    let warmup_rounds = if config.workload == "greedy_tpcds" {
        3
    } else {
        20
    };
    let mut times = SetupTimes::default();
    let mut bench: Option<Rounds> = None;
    let mut servers: Vec<u32> = Vec::new();
    let mut training: Option<TrainingTrace> = None;
    let mut plain_training = None;
    for rep in 0..reps {
        // The previous repetition's servers stop before the next start.
        drop(bench.take());
        let start = probe.borrow().now();
        let mut rounds = match config.workload.as_str() {
            "greedy_tpcds" => {
                let replica = plain_training.filter(|_| config.trace);
                let (greedy, final_makespan, trace) =
                    Greedy::setup(config.seed, &probe, &mut times, replica, &mut report);
                plain_training = times.train.last().map(|&wall| (wall, final_makespan));
                training = trace.or(training);
                Rounds::Greedy(Box::new(greedy))
            }
            "fifo_sharded" => Rounds::Sharded(Sharded {
                workload: tpcds(2),
                profile: DbmsProfile::dbms_x(),
                seed: config.seed,
            }),
            _ => {
                let bin = config
                    .serve_bin
                    .as_deref()
                    .ok_or("fifo_uds needs --serve-bin")?;
                std::fs::create_dir_all(&config.out_dir)
                    .map_err(|e| format!("creating {}: {e}", config.out_dir.display()))?;
                let serves = (0..SERVERS)
                    .map(|k| {
                        let socket = config
                            .out_dir
                            .join(format!("serve-{}-{rep}-{k}.sock", std::process::id()));
                        Serve::spawn(bin, socket, round_seed(config.seed, k))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                servers = serves.iter().map(Serve::pid).collect();
                Rounds::Uds(Uds {
                    workload: tpcds(1),
                    profile: DbmsProfile::dbms_x(),
                    serves,
                    rtt: Histogram::new(),
                })
            }
        };
        for w in 0..warmup_rounds {
            let log = rounds.round(u64::MAX - w, &probe);
            report.check(exactly_once(&log, rounds.queries()), || {
                format!("warm-up round {w} did not complete every query once")
            });
        }
        times.total.push(probe.borrow().now() - start);
        bench = Some(rounds);
    }
    let mut bench = bench.expect("at least one set-up repetition");
    let n = bench.queries();
    let serve_cpu = || -> f64 {
        servers
            .iter()
            .map(|&pid| procfs::cpu_seconds(Some(pid)).unwrap_or(0.0))
            .sum()
    };
    let serve_cpu_start = serve_cpu();

    // Each pass runs every input round once, pinned to one core; passes
    // repeat until the time is up. In a traced run every round is followed
    // by its traced twin, with the same seed.
    let inputs = if config.workload == "greedy_tpcds" {
        16
    } else {
        64
    };
    let mut best = Best::new(inputs);
    let mut traced_best = Best::new(inputs);
    let mut traced_wall = 0.0;
    let mut makespans = vec![0.0; inputs];
    let rotate = Rotation::new(servers.clone());
    let loop_start = probe.borrow().now();
    let mut pass = 0;
    while pass < MIN_PASSES.max(rotate.cores())
        || probe.borrow().now() - loop_start < config.seconds
    {
        rotate.pin(pass);
        for (input, makespan) in makespans.iter_mut().enumerate() {
            let i = input as u64;
            probe.borrow_mut().begin_op((pass * inputs + input) as u64);
            probe.borrow_mut().reset_light();
            let (log, wall) = timed(&probe, || bench.round(i, &probe));
            let (reactions, decisions) = probe.borrow_mut().take_light();
            best.offer(input, wall, &reactions, decisions);
            report.check(exactly_once(&log, n), || {
                format!("round {i} did not complete every query once")
            });
            if pass == 0 {
                *makespan = log.makespan();
            } else {
                report.check(log.makespan().to_bits() == makespan.to_bits(), || {
                    format!("round {i} replayed to a different makespan in pass {pass}")
                });
            }
            if config.trace {
                probe.borrow_mut().set_traced(true);
                let (traced_log, wall) = timed(&probe, || bench.round(i, &probe));
                probe.borrow_mut().set_traced(false);
                report.check(
                    traced_log.makespan().to_bits() == log.makespan().to_bits(),
                    || format!("round {i}: traced makespan differs from untraced"),
                );
                traced_best.offer(input, wall, &[], 0.0);
                traced_wall += wall;
            }
        }
        pass += 1;
    }
    rotate.release();

    if !config.trace {
        probe.borrow_mut().begin_op(u64::MAX);
        probe.borrow_mut().set_traced(true);
        for j in 0..2 {
            let traced = bench.round(j, &probe);
            report.check(
                traced.makespan().to_bits() == makespans[j as usize].to_bits(),
                || format!("round {j}: traced makespan differs from untraced"),
            );
        }
        probe.borrow_mut().set_traced(false);
    }
    if let Rounds::Uds(uds) = &bench {
        for (j, m) in makespans.iter().enumerate() {
            let expected = uds.in_process(j as u64).makespan();
            report.check(m.to_bits() == expected.to_bits(), || {
                format!("fifo_uds round {j}: makespan {m} differs from in-process {expected}")
            });
        }
    }

    let host = [
        ("host.nproc", procfs::nproc() as f64, "count"),
        ("host.load1_start", load_start, "load"),
        ("host.load1_end", procfs::load1().unwrap_or(0.0), "load"),
    ];
    report.host = host.iter().map(|&(name, value, _)| (name, value)).collect();
    if !config.trace {
        report.metric("setup_s", quantile(&times.total, 0.5), "s");
        report.metric("episode_s_p50", best.p50(), "s");
        report.metric("episode_s_p90", quantile(&best.walls, 0.9), "s");
        let decisions: f64 = best.decisions.iter().sum();
        let wall: f64 = best.walls.iter().sum();
        report.metric("decisions_per_s", decisions / wall, "1/s");
        report.metric("reaction_us_p50", quantile(&best.reaction_p50, 0.5), "us");
        let makespan = makespans.iter().sum::<f64>() / inputs as f64;
        report.metric("makespan_s", makespan, "s");
        let rss = procfs::peak_rss_mb(None).unwrap_or(0.0);
        report.metric("peak_rss_mb", rss, "MiB");
        return Ok(report);
    }

    let agg = Aggregate::new(probe.borrow().spans(), COUNTED_ROUNDS);
    let counts = |name: &str| -> f64 {
        probe
            .borrow()
            .counts
            .iter()
            .filter(|(op, n, _)| *op < COUNTED_ROUNDS && *n == name)
            .map(|(_, _, v)| v)
            .sum::<f64>()
            / COUNTED_ROUNDS as f64
    };
    let mut metrics = round_layers(&agg, traced_wall, COUNTED_ROUNDS as f64);
    metrics.push(("dbms.shard_advance", counts("dbms.shard_advance"), "count"));
    metrics.push(("wire.frames_sent", counts("wire.frames_sent"), "count"));
    metrics.push(("wire.bytes_sent", counts("wire.bytes_sent"), "bytes"));
    let rtt = match &bench {
        Rounds::Uds(uds) => uds.rtt.clone(),
        _ => Histogram::new(),
    };
    metrics.push(("wire.rtt_wall_us_p50", rtt.p50() * 1e6, "us"));
    metrics.push(("wire.rtt_wall_us_p99", rtt.p99() * 1e6, "us"));
    metrics.push(("serve.cpu_s", serve_cpu() - serve_cpu_start, "s"));
    let serve_rss = servers
        .iter()
        .map(|&pid| procfs::peak_rss_mb(Some(pid)).unwrap_or(0.0))
        .fold(0.0, f64::max);
    metrics.push(("serve.rss_mb", serve_rss, "MiB"));
    metrics.extend(training_layers(training.as_ref()));
    metrics.push(("setup.history_s", quantile(&times.history, 0.5), "s"));
    metrics.push(("setup.agent_new_s", quantile(&times.agent_new, 0.5), "s"));
    metrics.push(("setup.train_s", quantile(&times.train, 0.5), "s"));
    let reaction_p90 = quantile(&best.reaction_p90, 0.5);
    metrics.push(("reaction_us_p90", reaction_p90, "us"));
    let overhead = traced_best.p50() / best.p50();
    metrics.push(("trace.overhead", overhead, "ratio"));
    let cover = agg.covered / traced_wall;
    metrics.push(("reconcile.cover", cover, "ratio"));
    report.reconcile("reconcile.cover", cover);
    if let Some(t) = &training {
        let cover = Aggregate::new(t.probe.borrow().spans(), 0).covered / t.wall;
        report.reconcile("rl.reconcile.cover", cover);
    }
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("fail_ratio", fail_ratio, "ratio");
    for (name, value, unit) in host {
        report.metric(name, value, unit);
    }

    let path = |suffix: &str| {
        config.out_dir.join(format!(
            "spans_{}_{}{suffix}.jsonl",
            config.workload, config.seed
        ))
    };
    let mut written = vec![(path(""), probe.clone())];
    if let Some(t) = &training {
        written.push((path("_train"), t.probe.clone()));
    }
    for (path, probe) in written {
        write_spans(probe.borrow().spans(), WRITTEN_OPS, &path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(report)
}

type MetricRow = (&'static str, f64, &'static str);

/// Per-layer metrics of scheduling rounds: policy, engine, wire, session.
/// `wall` is the traced rounds' wall time, `counted` the rounds counts are
/// averaged over.
fn round_layers(agg: &Aggregate, wall: f64, counted: f64) -> Vec<MetricRow> {
    let mut out = Vec::new();
    let select = agg.get("bqsched.select");
    let us = |v: &[f64], q: f64| quantile(v, q) * 1e6;
    out.push(("bqsched.select_us_p50", us(&select.durations, 0.5), "us"));
    out.push(("bqsched.select_us_p99", us(&select.durations, 0.99), "us"));
    out.push((
        "bqsched.select.calls",
        select.counted as f64 / counted,
        "count",
    ));
    out.push(("bqsched.select.share", select.self_total / wall, "ratio"));
    let end_episode = agg.get("bqsched.end_episode").self_total / wall;
    out.push(("bqsched.end_episode.share", end_episode, "ratio"));
    for (call, calls, p50, p99) in [
        (
            "dbms.advance_to",
            "dbms.advance_to.calls",
            "dbms.advance_to_us_p50",
            "dbms.advance_to_us_p99",
        ),
        (
            "dbms.poll_event",
            "dbms.poll_event.calls",
            "dbms.poll_event_us_p50",
            "dbms.poll_event_us_p99",
        ),
        (
            "dbms.submit_batch",
            "dbms.submit_batch.calls",
            "dbms.submit_batch_us_p50",
            "dbms.submit_batch_us_p99",
        ),
    ] {
        let stats = agg.get(call);
        out.push((calls, stats.counted as f64 / counted, "count"));
        out.push((p50, us(&stats.durations, 0.5), "us"));
        out.push((p99, us(&stats.durations, 0.99), "us"));
    }
    let engine_new = us(&agg.get("dbms.engine_new").durations, 0.5);
    out.push(("dbms.engine_new_us_p50", engine_new, "us"));
    out.push((
        "dbms.busy.share",
        agg.self_with_prefix("dbms.") / wall,
        "ratio",
    ));
    let episode = agg.get("episode");
    let episodes = episode.durations.len().max(1) as f64;
    out.push(("core.session.self_s", episode.self_total / episodes, "s"));
    out.push(("core.session.share", episode.self_total / wall, "ratio"));
    let wire_calls = agg.durations_with_prefix("wire.", "wire.connect");
    let wire_counted = agg.counted_with_prefix("wire.", "wire.connect") as f64;
    out.push(("wire.calls", wire_counted / counted, "count"));
    out.push(("wire.call_us_p50", us(&wire_calls, 0.5), "us"));
    out.push(("wire.call_us_p99", us(&wire_calls, 0.99), "us"));
    let connect = us(&agg.get("wire.connect").durations, 0.5);
    out.push(("wire.connect_us_p50", connect, "us"));
    out.push((
        "wire.busy.share",
        agg.self_with_prefix("wire.") / wall,
        "ratio",
    ));
    out
}

/// Per-layer metrics of the traced training run (zero without one).
fn training_layers(training: Option<&TrainingTrace>) -> Vec<MetricRow> {
    let (agg, wall, plain, ppo_n, aux_n) = match training {
        Some(t) => (
            Aggregate::new(t.probe.borrow().spans(), 0),
            t.wall,
            t.plain,
            t.ppo_transitions,
            t.aux_transitions,
        ),
        None => (Aggregate::default(), 0.0, 0.0, 0.0, 0.0),
    };
    let ratio = |v: f64, base: f64| if base > 0.0 { v / base } else { 0.0 };
    let ppo = agg.get("rl.ppo_phase").total;
    let aux = agg.get("rl.aux_phase").total;
    let explore = agg.get("train.explore_episode").total;
    let eval = agg.get("train.eval").total;
    vec![
        ("rl.ppo_phase_s", ppo, "s"),
        ("rl.aux_phase_s", aux, "s"),
        ("rl.transitions", ppo_n, "count"),
        ("rl.ppo_us_per_transition", ratio(ppo, ppo_n) * 1e6, "us"),
        ("rl.aux_us_per_transition", ratio(aux, aux_n) * 1e6, "us"),
        ("train.explore_episode_s", explore, "s"),
        ("train.eval_s", eval, "s"),
        ("rl.ppo_phase.share", ratio(ppo, wall), "ratio"),
        ("rl.aux_phase.share", ratio(aux, wall), "ratio"),
        ("train.explore_episode.share", ratio(explore, wall), "ratio"),
        ("train.eval.share", ratio(eval, wall), "ratio"),
        ("rl.reconcile.cover", ratio(agg.covered, wall), "ratio"),
        ("rl.trace.overhead", ratio(wall, plain), "ratio"),
    ]
}
