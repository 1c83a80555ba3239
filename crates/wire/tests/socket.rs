//! Socket-transport integration: real TCP / Unix-domain sockets between a
//! served engine and a remote client, covering the edge cases the
//! in-memory transport cannot — kernel segmentation, server restarts
//! mid-episode, silent or misbehaving peers, and socket-file lifecycle.

use bq_core::{EpisodeLog, ExecutorBackend, FifoScheduler, RecoveryPolicy, ScheduleSession};
use bq_dbms::{DbmsProfile, ExecutionEngine};
use bq_obs::Obs;
use bq_plan::{generate, Benchmark, Workload, WorkloadSpec};
use bq_wire::net::{
    connect_remote, envelope, preamble, serve_connection, Endpoint, FillOutcome, ServerSocket,
    SocketClient,
};
use bq_wire::{
    frame::frame, seal, unseal, FrameReader, Request, Response, TransportProfile, WireServer,
    HANDSHAKE_MAGIC, PROTOCOL_VERSION,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[path = "support/split_mix.rs"]
mod split_mix;

fn tpch() -> Workload {
    generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1))
}

fn engine(w: &Workload, seed: u64) -> ExecutionEngine {
    ExecutionEngine::new(DbmsProfile::dbms_x(), w, seed)
}

/// Serve one fresh-engine connection on a background thread, like one
/// `bq-serve` worker.
fn serve_one(mut socket: ServerSocket, w: Workload, seed: u64) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut conn = socket.accept().expect("accept");
        let mut server = WireServer::new(engine(&w, seed));
        serve_connection(&mut server, &mut conn, 50)
    })
}

fn run_episode<E: ExecutorBackend>(backend: &mut E, w: &Workload) -> EpisodeLog {
    ScheduleSession::builder(w)
        .dbms(bq_dbms::DbmsKind::X)
        .round(0)
        .build(backend)
        .run(&mut FifoScheduler::new())
}

/// The tentpole guarantee: a full episode over a real kernel socket with
/// the zero-latency profile is byte-identical to the bare in-process
/// engine — over TCP and over UDS.
#[test]
fn zero_latency_episode_over_real_sockets_is_byte_identical_to_bare() {
    let w = tpch();
    let base = run_episode(&mut engine(&w, 0), &w);

    let uds_path = std::env::temp_dir().join(format!("bq-wire-bi-{}.sock", std::process::id()));
    let endpoints = [
        {
            let socket = ServerSocket::bind_tcp("127.0.0.1:0").expect("bind tcp");
            let addr = socket.local_addr();
            (serve_one(socket, w.clone(), 0), Endpoint::tcp(addr))
        },
        {
            let socket = ServerSocket::bind_uds(&uds_path).expect("bind uds");
            (
                serve_one(socket, w.clone(), 0),
                Endpoint::uds(uds_path.clone()),
            )
        },
    ];
    for (handle, endpoint) in endpoints {
        let client = SocketClient::connect(endpoint.clone(), TransportProfile::zero())
            .expect("connect")
            .with_reconnect(4, Duration::from_millis(50));
        let mut backend = connect_remote(client).expect("handshake");
        let log = run_episode(&mut backend, &w);
        assert_eq!(
            base.to_json(),
            log.to_json(),
            "{endpoint}: the kernel is on the byte path but virtual time \
             flows through envelope stamps — the episode must not change"
        );
        drop(backend);
        handle.join().expect("server thread");
    }
}

/// Frames split across TCP segment boundaries: the preamble, the envelope
/// header, and the frame inside it all dribble in one byte per segment and
/// must reassemble exactly.
#[test]
fn a_frame_split_across_tcp_segments_is_reassembled() {
    let w = tpch();
    let socket = ServerSocket::bind_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = socket.local_addr();
    let handle = serve_one(socket, w, 0);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    // Dribble the preamble and a sealed Hello frame one byte at a time,
    // flushing each so the kernel genuinely segments them.
    let hello = Request::Hello {
        magic: HANDSHAKE_MAGIC,
        version: PROTOCOL_VERSION,
    };
    let mut bytes = preamble(&TransportProfile::zero()).to_vec();
    bytes.extend_from_slice(&envelope(0.0, &frame(&seal(0, &hello.encode()))));
    for byte in bytes {
        stream.write_all(&[byte]).expect("write");
        stream.flush().expect("flush");
    }
    // Read the response envelope back and decode the HelloAck from it.
    let mut raw = Vec::new();
    let mut reader = FrameReader::new();
    let mut ack = None;
    'outer: for _ in 0..100 {
        let mut buf = [0u8; 4096];
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(_) => continue,
        }
        // Envelope header is 12 bytes: [f64 arrival bits][u32 chunk len].
        while raw.len() >= 12 {
            let len = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]) as usize;
            if raw.len() < 12 + len {
                break;
            }
            let chunk: Vec<u8> = raw.drain(..12 + len).skip(12).collect();
            reader.feed(&chunk);
            if let Some(payload) = reader.next_frame().expect("framing") {
                let (seq, body) = unseal(&payload).expect("sealed");
                assert_eq!(seq, 0, "the response echoes the request's sequence");
                ack = Some(Response::decode(body).expect("decode"));
                break 'outer;
            }
        }
    }
    match ack {
        Some(Response::HelloAck { version, .. }) => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected a HelloAck, got {other:?}"),
    }
    drop(stream);
    handle.join().expect("server thread");
}

/// Server restart mid-episode: the connection dies after the server cached
/// a response but before it could deliver it. The client reconnects (epoch
/// bump), retransmits the unanswered exchange, and the server answers it
/// from the response cache without re-executing — the episode completes
/// with every query accounted for.
#[test]
fn server_restart_mid_episode_recovers_via_reconnect_and_cached_replay() {
    let w = tpch();
    let socket = ServerSocket::bind_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = socket.local_addr();
    let w_server = w.clone();
    let handle = std::thread::spawn(move || {
        let mut socket = socket;
        // One engine session across both connections (`--single-session`).
        let mut server = WireServer::new(engine(&w_server, 0));
        let mut conn = socket.accept().expect("accept 1");
        loop {
            match conn.fill() {
                FillOutcome::Data => {
                    if conn.received_chunks() >= 5 {
                        // Kill the connection *before* servicing: the
                        // response gets computed and cached but its
                        // delivery is lost with the dead socket.
                        conn.shutdown();
                        server.service(&mut conn);
                        break;
                    }
                    server.service(&mut conn);
                }
                FillOutcome::Quiet => {}
                FillOutcome::Closed => break,
            }
        }
        let direction = conn.direction_state();
        let mut conn = socket.accept().expect("accept 2");
        conn.adopt_direction(direction);
        serve_connection(&mut server, &mut conn, 50);
        socket.accepted()
    });

    let obs = Obs::enabled();
    let mut client = SocketClient::connect(Endpoint::tcp(addr), TransportProfile::zero())
        .expect("connect")
        .with_reconnect(40, Duration::from_millis(50))
        .with_read_timeout(Duration::from_millis(50));
    client.set_obs(obs.clone());
    let mut backend = connect_remote(client)
        .expect("handshake")
        .with_recovery(RecoveryPolicy);
    let log = run_episode(&mut backend, &w);
    assert_eq!(log.len(), w.len(), "every query completes despite the cut");
    // The lost exchange surfaced as a transport retransmission fault; the
    // session drains backend faults into the episode log as it runs.
    let retransmits = log.fault_count("transport_retransmit");
    assert!(
        retransmits >= 1,
        "the cut exchange must be retransmitted, faults: {:?}",
        log.faults
    );
    assert_eq!(
        obs.counter("wire_reconnects"),
        1,
        "exactly one reconnect (epoch bump) for the one cut"
    );
    drop(backend);
    assert_eq!(handle.join().expect("server thread"), 2, "two connections");
}

/// A client that connects and then sends nothing must not hold up the
/// accept loop: `accept` hands each connection out as soon as the kernel
/// does, and the silent one's preamble is waited for by its own
/// `ServerConn::fill`. A real client queued behind it is accepted at once
/// and runs a zero-latency episode byte-identical to the bare engine.
#[test]
fn a_silent_client_does_not_stall_the_accept_loop() {
    let w = tpch();
    let base = run_episode(&mut engine(&w, 0), &w);

    let socket = ServerSocket::bind_tcp("127.0.0.1:0").expect("bind tcp");
    let addr = socket.local_addr();
    let silent = TcpStream::connect(&addr).expect("silent connect");
    let client = SocketClient::connect(Endpoint::tcp(addr), TransportProfile::zero())
        .expect("connect")
        .with_reconnect(4, Duration::from_millis(50));
    let (accepted, both_accepted) = mpsc::channel();
    let w_server = w.clone();
    let handle = std::thread::spawn(move || {
        let mut socket = socket;
        let started = Instant::now();
        let silent = socket.accept().expect("accept the silent client");
        let mut conn = socket.accept().expect("accept the real client");
        accepted
            .send(started.elapsed())
            .expect("report the accepts");
        serve_connection(&mut WireServer::new(engine(&w_server, 0)), &mut conn, 50);
        drop(silent);
    });
    let elapsed = both_accepted
        .recv_timeout(Duration::from_secs(5))
        .expect("the silent client stalled the accept loop");
    assert!(
        elapsed < Duration::from_secs(2),
        "both accepts took {elapsed:?}"
    );

    let mut backend = connect_remote(client).expect("handshake");
    let log = run_episode(&mut backend, &w);
    assert_eq!(base.to_json(), log.to_json());
    drop(backend);
    drop(silent);
    handle.join().expect("server thread");
}

/// A preamble with a bad magic closes its connection from `fill`, before
/// any byte of it reaches a server.
#[test]
fn a_bad_preamble_closes_the_connection() {
    let mut socket = ServerSocket::bind_tcp("127.0.0.1:0").expect("bind tcp");
    let mut stream = TcpStream::connect(socket.local_addr()).expect("connect");
    let mut bad = preamble(&TransportProfile::zero());
    bad[0] ^= 0xFF;
    stream.write_all(&bad).expect("write");
    let mut conn = socket.accept().expect("accept");
    let mut outcome = conn.fill();
    for _ in 0..50 {
        if outcome != FillOutcome::Quiet {
            break;
        }
        outcome = conn.fill();
    }
    assert_eq!(outcome, FillOutcome::Closed);
    assert_eq!(conn.received_chunks(), 0);
}

/// Binding a UDS path claims the socket file; dropping the listener
/// removes it — a cleanly shut-down server leaves nothing behind, and a
/// stale file from a crashed predecessor does not block a rebind.
#[test]
fn uds_socket_files_are_cleaned_up_on_shutdown() {
    let path = std::env::temp_dir().join(format!("bq-wire-clean-{}.sock", std::process::id()));
    let socket = ServerSocket::bind_uds(&path).expect("bind");
    assert!(path.exists(), "binding must create the socket file");
    drop(socket);
    assert!(!path.exists(), "dropping the listener must remove the file");
    // A stale socket file (crashed predecessor) is replaced, not an error.
    std::fs::write(&path, b"stale").expect("plant a stale file");
    let socket = ServerSocket::bind_uds(&path).expect("rebind over a stale file");
    assert!(path.exists());
    drop(socket);
    assert!(!path.exists());
}

/// A `bq-serve` process in its default thread-per-connection mode on a
/// Unix-domain socket, serving TPC-H with engine seed 0; killed and reaped
/// on drop.
struct Served {
    child: Child,
    socket: PathBuf,
}

impl Served {
    fn spawn(socket: PathBuf) -> Self {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_bq-serve"))
            .arg("--uds")
            .arg(&socket)
            .args(["--benchmark", "tpch", "--seed", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn bq-serve");
        let mut served = Served { child, socket };
        for _ in 0..1000 {
            if served.socket.exists() {
                return served;
            }
            assert!(
                served.child.try_wait().expect("poll bq-serve").is_none(),
                "bq-serve exited during start-up"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!(
            "bq-serve did not bind {} within 10 s",
            served.socket.display()
        );
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Clients that send garbage, stall half-way through an envelope, or lose
/// their own framing do not hurt a good client of the same `bq-serve`: its
/// zero-latency episode is byte-identical to the bare engine and finishes
/// within 10 s of wall time, and the server is still running afterwards.
#[test]
fn bad_clients_do_not_hurt_a_good_one_on_a_real_bq_serve() {
    let w = tpch();
    let base = run_episode(&mut engine(&w, 0), &w);
    let path = std::env::temp_dir().join(format!("bq-wire-bad-{}.sock", std::process::id()));
    let mut served = Served::spawn(path.clone());

    // 64 arbitrary bytes: not even a preamble.
    let mut garbage = UnixStream::connect(&path).expect("connect the garbage client");
    let mut rng = split_mix::SplitMix64::new(64);
    let noise: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
    garbage.write_all(&noise).expect("send garbage");

    // A valid preamble and half an envelope, then silence.
    let hello = Request::Hello {
        magic: HANDSHAKE_MAGIC,
        version: PROTOCOL_VERSION,
    };
    let carried = envelope(0.0, &frame(&seal(0, &hello.encode())));
    let mut stalled = UnixStream::connect(&path).expect("connect the stalling client");
    stalled
        .write_all(&preamble(&TransportProfile::zero()))
        .expect("send the preamble");
    stalled
        .write_all(&carried[..carried.len() / 2])
        .expect("send half an envelope");

    // A valid preamble, then an envelope whose frame announces more than
    // the frame cap: the server answers one error and stops reading.
    let mut oversized = UnixStream::connect(&path).expect("connect the oversized client");
    oversized
        .write_all(&preamble(&TransportProfile::zero()))
        .expect("send the preamble");
    oversized
        .write_all(&envelope(0.0, &u32::MAX.to_le_bytes()))
        .expect("send the oversized frame");

    let started = Instant::now();
    let client = SocketClient::connect(Endpoint::uds(path.clone()), TransportProfile::zero())
        .expect("connect the good client")
        .with_reconnect(4, Duration::from_millis(50));
    let mut backend = connect_remote(client).expect("handshake");
    let log = run_episode(&mut backend, &w);
    let elapsed = started.elapsed();
    assert_eq!(base.to_json(), log.to_json());
    assert!(
        elapsed < Duration::from_secs(10),
        "the good episode took {elapsed:?}"
    );
    assert!(
        served.child.try_wait().expect("poll bq-serve").is_none(),
        "bq-serve must outlive its bad clients"
    );
    drop(backend);
    drop((garbage, stalled, oversized));
}
