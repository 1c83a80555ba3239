//! The timing decorators must not change what they time: a decorated
//! episode's log is byte-identical to the undecorated one on the engine,
//! the sharded engine and the socket backend, traced or not.

use bq_bench::RunScale;
use bq_core::{
    EpisodeLog, ExecutorBackend, FifoScheduler, LeastLoadedRouter, ScheduleSession, SchedulerPolicy,
};
use bq_dbms::{DbmsProfile, ExecutionEngine, ShardedEngine};
use bq_plan::{generate, Benchmark, Workload, WorkloadSpec};
use bq_sched::BqSchedAgent;
use bq_wire::net::{connect_remote, serve_connection, Endpoint, ServerSocket, SocketClient};
use bq_wire::{TransportProfile, WireServer};
use perfbench::probe::{Layer, Probe, SharedProbe, TimedBackend, TimedPolicy};

fn tpcds() -> Workload {
    generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 1))
}

fn episode<B: ExecutorBackend>(
    workload: &Workload,
    backend: &mut B,
    policy: &mut dyn SchedulerPolicy,
    sharded: bool,
) -> EpisodeLog {
    let builder = ScheduleSession::builder(workload).round(5);
    let builder = if sharded {
        builder.router(LeastLoadedRouter)
    } else {
        builder
    };
    builder.build(backend).run(policy)
}

/// Run `policy` undecorated on `make()`'s backend, then decorated (light
/// and traced) on a fresh one, and compare the logs byte for byte.
fn assert_identical<B: ExecutorBackend>(
    workload: &Workload,
    mut make: impl FnMut() -> B,
    layer: Layer,
    policy: &mut dyn SchedulerPolicy,
    sharded: bool,
) -> SharedProbe {
    let plain = episode(workload, &mut make(), policy, sharded).to_json();
    let mut last = None;
    for traced in [false, true] {
        let probe = Probe::shared(traced);
        let mut backend = TimedBackend::new(make(), layer, &probe);
        let mut timed = TimedPolicy::new(policy, &probe);
        let decorated = episode(workload, &mut backend, &mut timed, sharded).to_json();
        assert_eq!(plain, decorated, "decorated log differs (traced: {traced})");
        assert_eq!(
            probe.borrow().spans().is_empty(),
            !traced,
            "spans are recorded exactly when traced"
        );
        last = Some(probe);
    }
    last.expect("two decorated runs")
}

#[test]
fn engine_logs_are_byte_identical_for_fifo_and_the_agent() {
    let workload = tpcds();
    let profile = DbmsProfile::dbms_x();
    let make = || ExecutionEngine::new(profile.clone(), &workload, 11);
    assert_identical(
        &workload,
        make,
        Layer::Dbms,
        &mut FifoScheduler::new(),
        false,
    );
    let mut agent = BqSchedAgent::new(&workload, &profile, None, RunScale::Quick.agent_config());
    agent.explore = false;
    let probe = assert_identical(&workload, make, Layer::Dbms, &mut agent, false);
    let probe = probe.borrow();
    let selects = probe
        .spans()
        .iter()
        .filter(|s| s.name == "bqsched.select")
        .count();
    assert_eq!(selects, workload.len(), "one select span per decision");
}

#[test]
fn sharded_engine_logs_are_byte_identical() {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, 2));
    let profile = DbmsProfile::dbms_x();
    assert_identical(
        &workload,
        || ShardedEngine::new(profile.clone(), &workload, 11, 2),
        Layer::Dbms,
        &mut FifoScheduler::new(),
        true,
    );
}

#[test]
fn socket_backend_logs_are_byte_identical() {
    let workload = tpcds();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("decorators-{}.sock", std::process::id()));
    let mut socket = ServerSocket::bind_uds(&path).expect("bind a Unix socket");
    let server_workload = workload.clone();
    // One connection per episode: the undecorated one, then light and
    // traced decorated ones.
    let server = std::thread::spawn(move || {
        for _ in 0..3 {
            let mut conn = socket.accept().expect("accept");
            let engine = ExecutionEngine::new(DbmsProfile::dbms_x(), &server_workload, 11);
            serve_connection(&mut WireServer::new(engine), &mut conn, 50);
        }
    });
    let connect = || {
        let client = SocketClient::connect(Endpoint::uds(&path), TransportProfile::fixed(0.0))
            .expect("connect");
        connect_remote(client).expect("handshake")
    };
    assert_identical(
        &workload,
        connect,
        Layer::Wire,
        &mut FifoScheduler::new(),
        false,
    );
    server.join().expect("server thread");
}
