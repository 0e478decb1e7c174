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
//!   line arriving in small reads is searched for its terminator once.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running on another thread would be counted too.

mod counting_alloc;

use counting_alloc::counted;
use topk_monitor::service::protocol::encode_delta_push;
use topk_monitor::service::{
    parse_request, parse_server_line, FramedLine, LineFramer, Push, Request, ServerLine,
    MAX_REQUEST_LINE,
};
use topk_monitor::{QueryId, ResultDelta, Scored, Timestamp, TupleId};

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
}
