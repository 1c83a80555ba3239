//! A seeded mutation fuzzer over every decoder that reads peer bytes: the
//! message codec, the sequence seal, frame and envelope reassembly, the
//! transport preamble, and a handshaken [`WireServer`].
//!
//! The corpus is the encoding of every request and response variant
//! (buffered lists of 0, 1 and many entries included) and the worked
//! examples of `docs/WIRE_PROTOCOL.md`, at every layer they pass through.
//! Each input is a corpus entry after one to three mutations: a bit flip, a
//! byte insert or delete, a truncation, or a `u32` rewritten to 0, 1, one
//! past the frame cap or `u32::MAX` — at an offset whose current value
//! reads as a count or length (every count and length field of the layout
//! is one) half the time, anywhere otherwise. Every target must not panic,
//! and every decode must either fail or re-encode to exactly its input
//! bytes (compared as bytes, so NaN fields compare).
//!
//! The stream and iteration count are fixed: the whole run replays
//! identically and takes about a second in a release build.

use crate::frame::{frame, FrameError, FrameReader, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use crate::net::{
    decode_preamble, envelope, preamble, EnvelopeReader, ENVELOPE_HEADER_LEN, PREAMBLE_LEN,
};
use crate::proto::tests::{sample_requests, sample_responses};
use crate::proto::{seal, unseal, Request, Response, HANDSHAKE_MAGIC, PROTOCOL_VERSION, SEQ_LEN};
use crate::server::{Loopback, WireServer};
use crate::split_mix::SplitMix64;
use crate::transport::{InMemoryDuplex, TransportProfile, WireTransport};
use crate::worked_examples::{worked_examples, SPEC};
use bq_dbms::{DbmsProfile, ExecutionEngine};
use bq_plan::{generate, Benchmark, Workload, WorkloadSpec};

/// Seed of the mutation stream.
const SEED: u64 = 0x6271_6675_7A7A;

/// Mutated inputs per decoder target.
const DECODER_ITERATIONS: usize = 800_000;

/// Mutated streams per reassembly target, each fed in two chunkings.
const STREAM_ITERATIONS: usize = 200_000;

/// Mutated request streams served by a fresh server each.
const SERVER_ITERATIONS: usize = 120_000;

/// The values a rewritten `u32` takes: empty, one, one past the frame cap,
/// and the largest.
const INTERESTING_U32: [u32; 4] = [0, 1, MAX_FRAME_LEN as u32 + 1, u32::MAX];

struct Fuzzer {
    rng: SplitMix64,
}

impl Fuzzer {
    fn new(salt: u64) -> Self {
        Self {
            rng: SplitMix64::with_salt(SEED, salt),
        }
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    /// A mutation of a random entry of `corpus`.
    fn input(&mut self, corpus: &[Vec<u8>]) -> Vec<u8> {
        let seed = &corpus[self.below(corpus.len())];
        self.mutate(seed)
    }

    /// `seed` after one to three mutations.
    fn mutate(&mut self, seed: &[u8]) -> Vec<u8> {
        let mut bytes = seed.to_vec();
        for _ in 0..1 + self.below(3) {
            match self.below(5) {
                0 if !bytes.is_empty() => {
                    let at = self.below(bytes.len());
                    bytes[at] ^= 1 << self.below(8);
                }
                1 => {
                    let at = self.below(bytes.len() + 1);
                    bytes.insert(at, self.rng.next_u64() as u8);
                }
                2 if !bytes.is_empty() => {
                    let at = self.below(bytes.len());
                    bytes.remove(at);
                }
                3 => {
                    let len = self.below(bytes.len() + 1);
                    bytes.truncate(len);
                }
                _ if bytes.len() >= 4 => {
                    let at = self.u32_offset(&bytes);
                    let value = INTERESTING_U32[self.below(INTERESTING_U32.len())];
                    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
                }
                _ => {}
            }
        }
        bytes
    }

    /// Where to rewrite a `u32`: half the time an offset whose current
    /// value is at most 4096, as every count and length field's is.
    fn u32_offset(&mut self, bytes: &[u8]) -> usize {
        let windows = bytes.len() - 3;
        if self.below(2) == 0 {
            return self.below(windows);
        }
        let plausible: Vec<usize> = (0..windows)
            .filter(|&at| read_u32(&bytes[at..]) <= 4096)
            .collect();
        if plausible.is_empty() {
            self.below(windows)
        } else {
            plausible[self.below(plausible.len())]
        }
    }

    /// `bytes` cut into random chunks (some empty), the way a socket may
    /// deliver them.
    fn chunks<'a>(&mut self, bytes: &'a [u8]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(self.below(rest.len() + 1).min(rest.len()));
            out.push(head);
            rest = tail;
        }
        out
    }
}

fn read_u32(bytes: &[u8]) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(word)
}

/// The corpus at each layer, outermost first.
struct Corpus {
    /// Transport preambles.
    preambles: Vec<Vec<u8>>,
    /// Socket bytes: envelopes, optionally behind a preamble.
    envelopes: Vec<Vec<u8>>,
    /// Frame streams (one or several frames).
    frames: Vec<Vec<u8>>,
    /// Sealed payloads.
    sealed: Vec<Vec<u8>>,
    requests: Vec<Vec<u8>>,
    responses: Vec<Vec<u8>>,
}

impl Corpus {
    fn new() -> Self {
        let mut requests: Vec<Vec<u8>> = sample_requests().iter().map(Request::encode).collect();
        let mut responses: Vec<Vec<u8>> = sample_responses().iter().map(Response::encode).collect();
        let mut sealed: Vec<Vec<u8>> = requests
            .iter()
            .chain(&responses)
            .enumerate()
            .map(|(seq, message)| seal(seq as u64, message))
            .collect();
        let mut frames: Vec<Vec<u8>> = sealed.iter().map(|s| frame(s)).collect();
        // Several requests in one stream: a session's opening.
        frames.push(frames[..requests.len()].concat());
        let mut envelopes: Vec<Vec<u8>> = frames.iter().map(|f| envelope(0.25, f)).collect();
        let mut opening = preamble(&TransportProfile::zero()).to_vec();
        opening.extend(envelopes.last().into_iter().flatten());
        envelopes.push(opening);
        // The spec's worked examples are socket bytes: peel every layer.
        for example in worked_examples(SPEC) {
            let bytes = example.concrete();
            let chunk = &bytes[ENVELOPE_HEADER_LEN..];
            let payload = &chunk[FRAME_HEADER_LEN..];
            let message = payload[SEQ_LEN..].to_vec();
            if message[0] < 0x80 {
                requests.push(message);
            } else {
                responses.push(message);
            }
            sealed.push(payload.to_vec());
            frames.push(chunk.to_vec());
            envelopes.push(bytes);
        }
        let preambles = [
            TransportProfile::zero(),
            TransportProfile::fixed(0.05).with_jitter(0.01).with_seed(9),
        ]
        .iter()
        .map(|profile| preamble(profile).to_vec())
        .collect();
        Corpus {
            preambles,
            envelopes,
            frames,
            sealed,
            requests,
            responses,
        }
    }
}

/// A decode fails or re-encodes to exactly its input; returns whether it
/// decoded.
fn check_request(bytes: &[u8]) -> bool {
    let decoded = Request::decode(bytes);
    if let Ok(request) = &decoded {
        assert_eq!(request.encode(), bytes, "{request:?}");
    }
    decoded.is_ok()
}

fn check_response(bytes: &[u8]) -> bool {
    let decoded = Response::decode(bytes);
    if let Ok(response) = &decoded {
        assert_eq!(response.encode(), bytes, "{response:?}");
    }
    decoded.is_ok()
}

fn check_unseal(bytes: &[u8]) -> bool {
    let decoded = unseal(bytes);
    if let Ok((seq, message)) = decoded {
        assert_eq!(seal(seq, message), bytes);
    }
    decoded.is_ok()
}

fn check_preamble(bytes: &[u8]) -> bool {
    let Some(head) = bytes.get(..PREAMBLE_LEN) else {
        return false;
    };
    let mut fixed = [0u8; PREAMBLE_LEN];
    fixed.copy_from_slice(head);
    let decoded = decode_preamble(&fixed);
    if let Ok(profile) = &decoded {
        assert_eq!(preamble(profile), fixed);
    }
    decoded.is_ok()
}

/// How often a target accepted its input: a fuzzer whose inputs all pass,
/// or all fail, explores only one side of the decoder.
#[derive(Debug, Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
}

impl Tally {
    fn count(&mut self, accepted: bool) {
        if accepted {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
    }

    fn assert_both_sides(&self, target: &str) {
        assert!(
            self.accepted > 0 && self.rejected > 0,
            "{target}: {self:?} — the mutations explore one side only"
        );
    }
}

/// Every frame of `stream` up to the first framing error (inclusive), fed
/// in `chunks`.
fn read_frames(chunks: &[&[u8]]) -> Vec<Result<Vec<u8>, FrameError>> {
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    for chunk in chunks {
        reader.feed(chunk);
        loop {
            match reader.next_frame() {
                Ok(None) => break,
                Ok(Some(payload)) => out.push(Ok(payload)),
                Err(err) => {
                    out.push(Err(err));
                    return out;
                }
            }
        }
    }
    out
}

/// Reassembly does not depend on chunking, and what it reassembles is the
/// stream's own bytes.
fn check_frames(fuzzer: &mut Fuzzer, stream: &[u8]) {
    let whole = read_frames(&[stream]);
    assert_eq!(read_frames(&fuzzer.chunks(stream)), whole);
    let reframed: Vec<u8> = whole.iter().flatten().flat_map(|p| frame(p)).collect();
    assert_eq!(&stream[..reframed.len()], &reframed[..]);
}

/// Reassembled envelopes as `(arrival bits, chunk)`, or the corruption that
/// ended the stream.
type Envelopes = Vec<Result<(u64, Vec<u8>), String>>;

/// Every envelope of `stream` (after its preamble, if it opens with one) up
/// to the first corruption, fed in `chunks`.
fn read_envelopes(chunks: &[&[u8]], with_preamble: bool) -> Envelopes {
    let mut reader = EnvelopeReader::default();
    let mut awaiting_preamble = with_preamble;
    let mut out = Vec::new();
    for chunk in chunks {
        reader.feed(chunk);
        if awaiting_preamble {
            match reader.take_preamble() {
                None => continue,
                Some(Ok(_)) => awaiting_preamble = false,
                Some(Err(err)) => {
                    out.push(Err(err));
                    return out;
                }
            }
        }
        loop {
            match reader.next_envelope() {
                Ok(None) => break,
                Ok(Some((arrival, chunk))) => out.push(Ok((arrival.to_bits(), chunk))),
                Err(err) => {
                    out.push(Err(err));
                    return out;
                }
            }
        }
    }
    out
}

fn check_envelopes(fuzzer: &mut Fuzzer, stream: &[u8]) {
    let with_preamble = stream.starts_with(&preamble(&TransportProfile::zero())[..4]);
    let whole = read_envelopes(&[stream], with_preamble);
    assert_eq!(read_envelopes(&fuzzer.chunks(stream), with_preamble), whole);
    let skip = if with_preamble {
        PREAMBLE_LEN.min(stream.len())
    } else {
        0
    };
    let rewrapped: Vec<u8> = whole
        .iter()
        .flatten()
        .flat_map(|(bits, chunk)| envelope(f64::from_bits(*bits), chunk))
        .collect();
    assert_eq!(&stream[skip..skip + rewrapped.len()], &rewrapped[..]);
}

/// Responses a server owes `stream`: one per complete frame, and one error
/// for lost framing, after which nothing more of the stream is read.
fn owed_responses(stream: &[u8]) -> usize {
    read_frames(&[stream]).len()
}

/// A handshaken server behind a loopback answers `stream`, delivered in
/// random chunks, with exactly the responses it owes — each one a
/// well-formed frame. Returns whether any request succeeded.
fn check_server(fuzzer: &mut Fuzzer, workload: &Workload, stream: &[u8]) -> bool {
    let engine = ExecutionEngine::new(DbmsProfile::dbms_x(), workload, 0);
    let mut link = Loopback::new(WireServer::new(engine), InMemoryDuplex::lossless());
    let hello = Request::Hello {
        magic: HANDSHAKE_MAGIC,
        version: PROTOCOL_VERSION,
    };
    link.send_to_server(&frame(&seal(0, &hello.encode())), 0.0);
    assert!(link.recv_at_client().is_some(), "the handshake is answered");
    for chunk in fuzzer.chunks(stream) {
        link.send_to_server(chunk, 0.0);
    }
    let mut reader = FrameReader::new();
    let mut answered = 0;
    let mut served = false;
    while let Some(delivery) = link.recv_at_client() {
        reader.feed(&delivery.bytes);
        loop {
            let next = reader.next_frame();
            assert!(next.is_ok(), "server frames fit the cap: {next:?}");
            let Ok(Some(payload)) = next else {
                break;
            };
            let response = unseal(&payload).and_then(|(_, body)| Response::decode(body));
            assert!(response.is_ok(), "server frames are sealed responses");
            served |= response.is_ok_and(|r| r.header().is_some());
            answered += 1;
        }
    }
    assert_eq!(answered, owed_responses(stream), "stream {stream:02X?}");
    served
}

#[test]
fn every_decoder_survives_mutated_input_and_round_trips_what_it_accepts() {
    let corpus = Corpus::new();
    let mut fuzzer = Fuzzer::new(1);
    let mut tallies: [Tally; 4] = Default::default();
    for _ in 0..DECODER_ITERATIONS {
        tallies[0].count(check_request(&fuzzer.input(&corpus.requests)));
        tallies[1].count(check_response(&fuzzer.input(&corpus.responses)));
        tallies[2].count(check_unseal(&fuzzer.input(&corpus.sealed)));
        tallies[3].count(check_preamble(&fuzzer.input(&corpus.preambles)));
    }
    for (tally, target) in tallies
        .iter()
        .zip(["request", "response", "unseal", "preamble"])
    {
        tally.assert_both_sides(target);
    }
}

#[test]
fn frame_and_envelope_reassembly_survive_mutated_streams_in_any_chunking() {
    let corpus = Corpus::new();
    let mut fuzzer = Fuzzer::new(2);
    for _ in 0..STREAM_ITERATIONS {
        let stream = fuzzer.input(&corpus.frames);
        check_frames(&mut fuzzer, &stream);
        let stream = fuzzer.input(&corpus.envelopes);
        check_envelopes(&mut fuzzer, &stream);
    }
}

#[test]
fn a_handshaken_server_answers_every_mutated_frame_once() {
    let corpus = Corpus::new();
    let workload = generate(&WorkloadSpec::new(Benchmark::TpcH, 1.0, 1));
    let mut fuzzer = Fuzzer::new(3);
    let mut tally = Tally::default();
    for _ in 0..SERVER_ITERATIONS {
        let stream = fuzzer.input(&corpus.frames);
        tally.count(check_server(&mut fuzzer, &workload, &stream));
    }
    tally.assert_both_sides("server");
}

/// The mutation stream is the reference SplitMix64 sequence.
#[test]
fn split_mix_matches_the_reference_sequence() {
    let mut rng = SplitMix64::new(0);
    assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
    assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    let mut again = SplitMix64::new(0);
    again.next_u64();
    assert_eq!(again.next_u64(), 0x6E78_9E6A_A1B9_65F4);
}

#[test]
fn salted_split_mix_streams_differ_but_replay_identically() {
    let mut a1 = SplitMix64::with_salt(7, 1);
    let mut a2 = SplitMix64::with_salt(7, 1);
    let mut b = SplitMix64::with_salt(7, 2);
    let s1: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
    let s2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
    let s3: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
    assert_eq!(s1, s2);
    assert_ne!(s1, s3);
}
