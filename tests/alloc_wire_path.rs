//! Allocation and copy budgets of the serving path's per-line work,
//! measured with the counting global allocator of `tests/counting_alloc`
//! (calls and bytes):
//!
//! * encoding a cycle of D deltas allocates the D payloads and nothing
//!   per entry or per line besides;
//! * parsing a `TICK` of 25 000 tuples sizes its arrivals buffer once;
//! * parsing a `DELTA` whose lists stay inline allocates nothing;
//! * framing L buffered lines copies each byte in and each line out once
//!   (it used to re-copy the whole remaining buffer per line), and a long
//!   line arriving in small reads is searched for its terminator once;
//! * pushing a shared payload into a session queue allocates nothing, and
//!   neither does draining the queue through a warm scratch buffer; a
//!   queue holding one line at a time allocates nothing from its first
//!   cycle on (the front line is inline);
//! * a warm `TICK` through a real service on loopback allocates, over
//!   every thread of the process, the sum of those parts and no more.
//!
//! Every function that promises not to allocate on this path (beyond the
//! payload it exists to build), and the counted section that executes it:
//!
//! | function | counted in |
//! |---|---|
//! | `protocol::{write_entries, write_delta_line, encode_delta_push}` | encode |
//! | `protocol::Toks::next`, `protocol::parse_values` | parse: `TICK` |
//! | `protocol::parse_delta_body` | parse: `DELTA` |
//! | `LineFramer::{feed, next_line}` | frame |
//! | `SessionOut::{try_push_shared, peek_coalesced, advance}` | session queues |
//! | `SessionOut::enqueue` | session queues (through `send_reply`) |
//! | `reactor::{read_some, flush_some}`, `EngineOwner::fan_out` | loopback |
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running on another thread would be counted too.

mod counting_alloc;

use counting_alloc::counted;
use std::sync::Arc;
use topk_monitor::service::protocol::encode_delta_push;

use topk_monitor::service::{
    parse_request, parse_server_line, FramedLine, LineFramer, Push, Request, ServerLine,
    SessionOut, MAX_REQUEST_LINE,
};
use topk_monitor::{
    QueryId, ResultDelta, Scored, ServerConfig, Service, ServiceClient, ServiceConfig, Timestamp,
    TupleId,
};

/// A delta of `query` with three entries in and three out: the most a
/// `DeltaList` holds inline.
fn delta(query: u64) -> ResultDelta {
    let entry = |i: u64| Scored::new((query * 7 + i) as f64 / 1024.0, TupleId(query * 100 + i));
    ResultDelta {
        query: QueryId(query),
        added: vec![entry(1), entry(2), entry(3)].into(),
        removed: vec![entry(4), entry(5), entry(6)].into(),
    }
}

/// Feeds `chunk` and drains every complete line, returning how many there
/// were and their total length.
fn drain(framer: &mut LineFramer, chunk: &[u8]) -> (usize, usize) {
    framer.feed(chunk);
    let (mut lines, mut len) = (0, 0);
    while let Some(framed) = framer.next_line() {
        let FramedLine::Line(line) = framed else {
            panic!("unexpected {framed:?}");
        };
        lines += 1;
        len += line.len();
    }
    (lines, len)
}

#[test]
fn wire_path_allocates_per_line_not_per_token_entry_or_buffered_byte() {
    // --- encode: one payload per delta ---------------------------------
    const D: usize = 200;
    let at = Timestamp(77);
    let deltas: Vec<ResultDelta> = (0..D as u64).map(delta).collect();
    let mut line = String::new();
    // The service keeps the line buffer across cycles; warm it as one
    // earlier cycle would have.
    encode_delta_push(&mut line, at, &deltas[0]);
    let mut payloads = Vec::with_capacity(D);
    let (calls, _, ()) = counted(|| {
        for d in &deltas {
            payloads.push(encode_delta_push(&mut line, at, d));
        }
    });
    assert!(
        calls <= D as u64 + 2,
        "encoding {D} deltas allocated {calls} times"
    );
    for (d, payload) in deltas.iter().zip(&payloads) {
        let push = Push::Delta {
            at,
            delta: d.clone(),
        };
        assert_eq!(&payload[..], format!("{push}\n").as_bytes());
    }

    // --- parse: a TICK's arrivals buffer is sized once ------------------
    let arrivals: Vec<f64> = (0..50_000u32)
        .map(|i| f64::from(i % 4096) / 4096.0)
        .collect();
    let tick = Request::Tick {
        arrivals: arrivals.clone(),
    }
    .to_string();
    assert!(tick.len() < MAX_REQUEST_LINE);
    let (calls, bytes, parsed) = counted(|| parse_request(&tick));
    assert_eq!(parsed, Ok(Request::Tick { arrivals }));
    assert!(calls <= 2, "a 25 000-tuple TICK allocated {calls} times");
    // The most values the line could spell, then the values it did.
    assert!(
        bytes <= 8 * (tick.len() as u64 / 2 + 50_000),
        "{bytes} bytes"
    );

    // --- parse: an inline-sized DELTA allocates nothing -----------------
    let push = String::from_utf8(payloads[5].to_vec()).expect("ascii");
    let (calls, _, parsed) = counted(|| parse_server_line(push.trim()));
    assert_eq!(
        parsed,
        Ok(ServerLine::Push(Push::Delta {
            at,
            delta: delta(5)
        }))
    );
    assert_eq!(calls, 0, "a 3+3 DELTA allocated while parsing");

    // --- frame: L buffered lines cost one copy in, one copy out ---------
    const L: usize = 4096;
    let chunk = b"0123456789abcde\n".repeat(L);
    assert_eq!(chunk.len(), 64 * 1024);
    let mut framer = LineFramer::new(MAX_REQUEST_LINE);
    let (_, bytes, drained) = counted(|| drain(&mut framer, &chunk));
    assert_eq!(drained, (L, L * 15));
    // (Splitting the remainder off per line allocated L × chunk / 2.)
    assert!(
        bytes <= (2 * chunk.len() + L * 16) as u64,
        "framing {L} lines of a 64 KB chunk allocated {bytes} bytes"
    );

    // --- frame: a partial line is searched once -------------------------
    let mut long = vec![b'x'; 512 * 1024];
    *long.last_mut().expect("non-empty") = b'\n';
    let (reads, last) = long.split_at(long.len() - 4096);
    let mut fed = 0;
    for read in reads.chunks(4096) {
        assert_eq!(drain(&mut framer, read), (0, 0));
        fed += read.len();
        // Everything fed so far is known to hold no terminator: the next
        // search starts at the next read's first byte.
        assert_eq!(framer.pending_len(), fed);
        assert_eq!(framer.scanned_len(), fed);
    }
    assert_eq!(drain(&mut framer, last), (1, long.len() - 1));
    assert_eq!(framer.pending_len(), 0);

    // --- session queues: a push is a pointer, a drain is a copy ---------
    // The `fanout` workload's delivery half: every payload of the cycle
    // into every queue (the service's default cap), then each queue out
    // through one scratch buffer a write-coalescing chunk at a time.
    const SESSIONS: usize = 64;
    const PUSH_CAP: usize = 1024;
    const DRAIN_CHUNK: usize = 64 << 10;
    let cycle_bytes: usize = payloads.iter().map(|p| p.len()).sum();
    let sessions: Vec<SessionOut> = (0..SESSIONS).map(|_| SessionOut::new()).collect();
    let mut scratch = Vec::new();
    // The first cycle brings the queues and the scratch to their working size.
    for warm in [false, true] {
        let (pushed, _, ()) = counted(|| {
            for payload in &payloads {
                for out in &sessions {
                    assert!(out.try_push_shared(Arc::clone(payload), PUSH_CAP));
                }
            }
        });
        let (drained, _, bytes) = counted(|| {
            let mut bytes = 0;
            for out in &sessions {
                loop {
                    let staged = out.peek_coalesced(&mut scratch, DRAIN_CHUNK);
                    if staged == 0 {
                        break;
                    }
                    out.advance(staged);
                    bytes += staged;
                }
            }
            bytes
        });
        assert_eq!(bytes, SESSIONS * cycle_bytes);
        assert!(
            !warm || (pushed, drained) == (0, 0),
            "{} pushes allocated {pushed} times, draining them {drained} times",
            SESSIONS * D
        );
    }
    // One line a cycle, the `fanout` workload's shape: the front line
    // sits inline in the queue, so fresh queues need no warm-up cycle.
    let fresh: Vec<SessionOut> = (0..SESSIONS).map(|_| SessionOut::new()).collect();
    for cycle in ["cold", "warm"] {
        let (pushed, _, ()) = counted(|| {
            for out in &fresh {
                assert!(out.try_push_shared(Arc::clone(&payloads[0]), PUSH_CAP));
            }
        });
        let (drained, _, bytes) = counted(|| {
            let mut bytes = 0;
            for out in &fresh {
                loop {
                    let staged = out.peek_coalesced(&mut scratch, DRAIN_CHUNK);
                    if staged == 0 {
                        break;
                    }
                    out.advance(staged);
                    bytes += staged;
                }
            }
            bytes
        });
        assert_eq!(bytes, SESSIONS * payloads[0].len());
        assert_eq!(
            (pushed, drained),
            (0, 0),
            "{cycle} one-line cycle: pushing allocated {pushed} times, draining {drained}"
        );
    }
    // A reply goes through the same private `enqueue` and owns its line:
    // it costs the terminator's regrowth and the payload.
    let reply = String::from("OK @78 queued=1");
    let (calls, _, ()) = counted(|| sessions[0].send_reply(reply));
    assert!(calls <= 2, "a reply allocated {calls} times");

    // --- loopback: a warm TICK costs its parts, process-wide -----------
    // A real service, one client that ingests and follows every query;
    // each tick is one tuple that beats all earlier ones, so every top-1
    // changes and nothing recomputes. The reactor reads the line
    // (`read_some`), the engine owner runs the cycle and fans it out
    // (`fan_out`), the reactor writes the session's queue (`flush_some`).
    // What that may allocate is the sum of the parts pinned above and in
    // `alloc_per_tick`: the framed line (1), its arrivals (2), the batch
    // `take_deltas` hands out (1), one payload per delta, the reply's
    // text (2: a 15-byte `OK @.. queued=1` grows 8 → 16) and its payload
    // (1); ingest, maintenance without a recomputation, the queue push,
    // the coalesced write and the client's parse of inline deltas add 0.
    const QUERIES: usize = 16;
    const WINDOW: usize = 256;
    const TICK_BUDGET: u64 = QUERIES as u64 + 1 + 2 + 1 + 2 + 1;
    let cfg = ServiceConfig::new(ServerConfig::sma(2, WINDOW));
    let service = Service::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    let low: Vec<f64> = (0..2 * WINDOW).map(|i| (i % 97) as f64 / 200.0).collect();
    client.tick(&low).expect("prefill");
    for q in 0..QUERIES {
        let w = (q + 1) as f64 / QUERIES as f64;
        let id = client.register_linear(1, &[w, 1.0]).expect("register");
        client.subscribe(id).expect("subscribe");
    }
    let mut at = 0.5;
    let mut rising_tick = |client: &mut ServiceClient| {
        at += 1.0 / 1024.0;
        client.tick(&[at, at]).expect("tick");
        let mut pushes = 0;
        while client.try_buffered_push().is_some() {
            pushes += 1;
        }
        assert_eq!(pushes, QUERIES, "every result changes on every tick");
    };
    for _ in 0..32 {
        rising_tick(&mut client);
    }
    for tick in 0..16 {
        let (calls, _, ()) = counted(|| rising_tick(&mut client));
        assert!(
            calls <= TICK_BUDGET,
            "warm loopback tick {tick} allocated {calls} times (budget {TICK_BUDGET})"
        );
    }
    client.quit().expect("quit");
    service.shutdown();
}
