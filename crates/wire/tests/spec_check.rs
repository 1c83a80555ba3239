//! Cross-checks `docs/WIRE_PROTOCOL.md` against the implementation: the
//! spec's tag tables must list exactly the tags the codec writes and the
//! message names it declares, in the same order, and every worked example
//! must be the exact bytes the
//! codec (and, for responses, a real server) produces — so the normative
//! document and the wire format cannot drift apart silently.

#[path = "support/worked_examples.rs"]
mod worked_examples;

use bq_dbms::{DbmsProfile, ExecEvent, ExecutionEngine, RunParams};
use bq_plan::{generate, Benchmark, QueryId, WorkloadSpec};
use bq_wire::frame::frame;
use bq_wire::net::envelope;
use bq_wire::proto::ResponseHeader;
use bq_wire::{
    seal, InMemoryDuplex, Request, Response, WireErrorCode, WireServer, WireTransport,
    HANDSHAKE_MAGIC, PROTOCOL_VERSION,
};
use worked_examples::{worked_examples, SPEC};

/// Every tag-table row in the spec, in document order: lines of the form
/// ``| `0xNN` | `Name` | ... |``.
fn spec_tag_rows(spec: &str) -> Vec<(u8, String)> {
    let mut rows = Vec::new();
    for line in spec.lines() {
        let Some(rest) = line.trim().strip_prefix("| `0x") else {
            continue;
        };
        let Some((hex, rest)) = rest.split_once('`') else {
            continue;
        };
        let Ok(tag) = u8::from_str_radix(hex, 16) else {
            continue; // wider constants like the handshake magic
        };
        let mut cells = rest.split('`');
        cells.next(); // the " | " between the tag and the name
        let name = cells
            .next()
            .unwrap_or_else(|| panic!("tag row {line:?} has no backticked message name"));
        rows.push((tag, name.to_string()));
    }
    rows
}

/// A message's `(tag, name)` as the codec has it: the first byte of its
/// encoding and its variant name as `Debug` prints it.
fn codec_tag(encoded: &[u8], debug: String) -> (u8, String) {
    let name = debug.split(|c: char| !c.is_alphanumeric()).next();
    (encoded[0], name.unwrap_or_default().to_string())
}

#[test]
fn the_spec_tag_tables_match_the_codec() {
    let rows = spec_tag_rows(SPEC);
    let (responses, requests): (Vec<_>, Vec<_>) = rows.into_iter().partition(|(t, _)| *t >= 0x80);

    let codec_requests: Vec<(u8, String)> = [
        Request::Hello {
            magic: HANDSHAKE_MAGIC,
            version: PROTOCOL_VERSION,
        },
        Request::SubmitBatch {
            entries: Vec::new(),
        },
        Request::PollEvent,
        Request::AdvanceTo { until: 0.0 },
        Request::Cancel { connection: 0 },
    ]
    .iter()
    .map(|m| codec_tag(&m.encode(), format!("{m:?}")))
    .collect();
    assert_eq!(
        requests, codec_requests,
        "docs/WIRE_PROTOCOL.md request-tag table diverges from proto.rs"
    );
    let header = ResponseHeader::default();
    let codec_responses: Vec<(u8, String)> = [
        Response::HelloAck {
            version: PROTOCOL_VERSION,
            connections: 0,
            shard_count: 1,
            connections_per_shard: 0,
            known_queries: None,
            header: header.clone(),
            buffered: Vec::new(),
        },
        Response::Ack {
            header: header.clone(),
            buffered: Vec::new(),
        },
        Response::Event {
            header: header.clone(),
            event: ExecEvent::Idle,
            buffered: Vec::new(),
        },
        Response::CancelResult {
            header,
            completion: None,
            buffered: Vec::new(),
        },
        Response::Error {
            code: WireErrorCode::Malformed,
            detail: String::new(),
        },
    ]
    .iter()
    .map(|m| codec_tag(&m.encode(), format!("{m:?}")))
    .collect();
    assert_eq!(
        responses, codec_responses,
        "docs/WIRE_PROTOCOL.md response-tag table diverges from proto.rs"
    );
}

#[test]
fn the_spec_pins_the_protocol_constants() {
    let version = format!("version `u16` = `{}`", bq_wire::PROTOCOL_VERSION);
    for needle in ["0x6271_7770", "0x6271_7470", &version, "65 536"] {
        assert!(
            SPEC.contains(needle),
            "docs/WIRE_PROTOCOL.md no longer states {needle:?}"
        );
    }
}

/// A client request as it travels on a zero-latency socket: sealed, framed
/// and enveloped with arrival 0.0.
fn on_the_socket(seq: u64, request: &Request) -> Vec<u8> {
    envelope(0.0, &frame(&seal(seq, &request.encode())))
}

/// The `SubmitBatch` example's exchange against a fresh TPC-H engine at zero
/// latency: the request bytes, and the `Ack` bytes the server actually
/// sends back, enveloped as a socket server would carry them.
fn submit_batch_exchange() -> (Vec<u8>, Vec<u8>) {
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let mut server = WireServer::new(ExecutionEngine::new(DbmsProfile::dbms_x(), &workload, 0));
    let mut link = InMemoryDuplex::lossless();
    let hello = Request::Hello {
        magic: HANDSHAKE_MAGIC,
        version: PROTOCOL_VERSION,
    };
    let batch = Request::SubmitBatch {
        entries: vec![(QueryId(0), RunParams::default_config(), 0)],
    };
    link.send_to_server(&frame(&seal(0, &hello.encode())), 0.0);
    link.send_to_server(&frame(&seal(1, &batch.encode())), 0.0);
    server.service(&mut link);
    let _hello_ack = link.recv_at_client().expect("the handshake is answered");
    let ack = link.recv_at_client().expect("the batch is answered");
    assert!(link.recv_at_client().is_none(), "one response per request");
    (on_the_socket(1, &batch), envelope(ack.at, &ack.bytes))
}

#[test]
fn the_worked_examples_are_the_codec_bytes() {
    let (batch, ack) = submit_batch_exchange();
    let expected = [
        (
            "Connection open: preamble + Hello",
            on_the_socket(
                0,
                &Request::Hello {
                    magic: HANDSHAKE_MAGIC,
                    version: PROTOCOL_VERSION,
                },
            ),
        ),
        (
            "AdvanceTo",
            on_the_socket(2, &Request::AdvanceTo { until: 1.5 }),
        ),
        ("SubmitBatch with a buffered echo", batch),
        ("SubmitBatch with a buffered echo", ack),
    ];
    let examples = worked_examples(SPEC);
    let titles: Vec<&str> = examples.iter().map(|e| e.title.as_str()).collect();
    let expected_titles: Vec<&str> = expected.iter().map(|(t, _)| *t).collect();
    assert_eq!(
        titles, expected_titles,
        "docs/WIRE_PROTOCOL.md worked examples are not the ones this test checks"
    );
    for (example, (title, bytes)) in examples.iter().zip(&expected) {
        assert!(
            example.matches(bytes),
            "docs/WIRE_PROTOCOL.md worked example {title:?} is stale:\n \
             doc:   {:02X?}\n codec: {bytes:02X?}",
            example.bytes
        );
    }
}
