//! Protocol fuzz hardening (no new deps: proptest is already vendored).
//!
//! Three layers: pure parser fuzz — [`parse_request`] / [`parse_server_line`]
//! must never panic on arbitrary byte soup, semi-structured near-miss
//! lines, or truncations of valid lines, and everything they do accept
//! must reparse to the same value from its own encoding — reactor framing
//! fuzz (PR 10): `LineFramer` reassembly is chunking-invariant (one-byte
//! reads, cuts inside multi-byte UTF-8 sequences, lines split across
//! wakeups) and `SessionOut` partial-write resumption reproduces the
//! queued byte stream exactly at arbitrary write granularities — and a
//! live session fuzz: a raw socket feeding junk (including split
//! multi-byte UTF-8 and an absurd `k=`) gets a clean `ERR` per line and
//! the session keeps serving.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use topk_monitor::service::{
    apply_push, parse_request, parse_server_line, Family, FramedLine, LineFramer, Push, QuerySpec,
    Reply, Request, ServerLine, Service, ServiceConfig, SessionOut, MAX_REQUEST_LINE,
};
use topk_monitor::{QueryId, ResultDelta, Scored, ServerConfig, Timestamp, TupleId};

/// A push payload as the server enqueues it: the line plus terminator.
fn payload(line: &str) -> Arc<[u8]> {
    Arc::from(format!("{line}\n").into_bytes())
}

/// If a line parses, its canonical encoding must parse back to the same
/// value — the fixed point every fuzz case below is checked against.
fn assert_request_fixed_point(line: &str) {
    if let Ok(req) = parse_request(line) {
        let encoded = req.to_string();
        match parse_request(&encoded) {
            Ok(again) => assert_eq!(req, again, "request round-trip via {encoded:?}"),
            Err(e) => panic!("canonical encoding {encoded:?} rejected: {e}"),
        }
    }
}

fn assert_server_line_fixed_point(line: &str) {
    if let Ok(parsed) = parse_server_line(line) {
        let encoded = match &parsed {
            topk_monitor::service::ServerLine::Reply(r) => r.to_string(),
            topk_monitor::service::ServerLine::Push(p) => p.to_string(),
        };
        match parse_server_line(&encoded) {
            Ok(again) => assert_eq!(parsed, again, "server-line round-trip via {encoded:?}"),
            Err(e) => panic!("canonical encoding {encoded:?} rejected: {e}"),
        }
    }
}

/// Builds a token that looks almost like a protocol argument — near-misses
/// exercise far more parser branches than uniform noise does.
fn near_token(kind: u8, a: u32, b: u32) -> String {
    match kind % 18 {
        0 => format!("q{a}"),
        1 => format!("t{a}:{}", b as f64 / 8.0),
        2 => format!(
            "{}t{a}:{}",
            if b.is_multiple_of(2) { '+' } else { '-' },
            a as f64 / 4.0
        ),
        3 => format!("@{}", a as i64 - 500),
        4 => format!("k={}", (a as u64) * (b as u64)),
        5 => format!("weights={},{}e{}", a as f64 / 7.0, b, a % 400),
        6 => ["fn=linear", "fn=product", "fn=quadratic", "fn=lin", "fn="][a as usize % 5].into(),
        7 => format!(
            "range={}:{},{}",
            a as f64 / 3.0,
            b,
            if b.is_multiple_of(2) { ":" } else { "" }
        ),
        8 => format!(
            "window={}:{a}",
            ["count", "time", "tick", ""][b as usize % 4]
        ),
        9 => [
            "nan", "inf", "NaN", "-inf", "1e308", "-1e-308", "0x10", "--1",
        ][a as usize % 8]
            .into(),
        10 => format!("queued={a}"),
        11 => [
            "pong", "bye", "STATS", "t:", "q", "@", "+t1:", "=", ",,", ":",
        ][a as usize % 10]
            .into(),
        12 => format!("{a}.{b}.{a}"),
        13 => format!("{}", f64::from_bits((a as u64) << 32 | b as u64)),
        // Site-tier argument shapes (SITE / SITEDELTA / SITETICK / ADOPT).
        14 => format!("s{a}"),
        15 => format!(
            "base={}",
            if b.is_multiple_of(3) {
                "x".into()
            } else {
                a.to_string()
            }
        ),
        16 => format!("dims={}", (a as u64) * (b as u64)),
        _ => ["retire", "retire extra", "s", "s-1", "base=", "dims="][a as usize % 6].into(),
    }
}

const VERBS: [&str; 21] = [
    "REGISTER",
    "UNREGISTER",
    "SUBSCRIBE",
    "UNSUBSCRIBE",
    "SNAPSHOT",
    "TICK",
    "TICKAT",
    "STATS",
    "PING",
    "QUIT",
    "SITE",
    "SITEDELTA",
    "SITETICK",
    "OK",
    "ERR",
    "DELTA",
    "RESYNC",
    "ADOPT",
    "DEGRADED",
    "tick",
    "",
];

fn near_line(verb: usize, toks: &[(u8, u32, u32)]) -> String {
    let mut line = VERBS[verb % VERBS.len()].to_string();
    for (kind, a, b) in toks {
        line.push(' ');
        line.push_str(&near_token(*kind, *a, *b));
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup (decoded lossily, as the session reader does)
    /// never panics either parser, and anything accepted is a fixed point
    /// of its own encoding.
    #[test]
    fn parsers_survive_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let line = String::from_utf8_lossy(&bytes);
        assert_request_fixed_point(&line);
        assert_server_line_fixed_point(&line);
    }

    /// Near-miss protocol lines — right verbs, plausible-but-mangled
    /// arguments — never panic and round-trip when accepted.
    #[test]
    fn parsers_survive_near_miss_lines(
        verb in 0usize..21,
        toks in prop::collection::vec((any::<u8>(), 0u32..2000, 0u32..2000), 0..7),
    ) {
        let line = near_line(verb, &toks);
        assert_request_fixed_point(&line);
        assert_server_line_fixed_point(&line);
    }

    /// Every byte-truncation of a valid request line (re-decoded lossily,
    /// so cuts can land inside a UTF-8 sequence) parses without panicking;
    /// the untruncated line must parse.
    #[test]
    fn truncated_valid_requests_never_panic(
        k in 1usize..16,
        weights in prop::collection::vec(-4i16..4, 1..5),
        arrivals in prop::collection::vec(0u16..1000, 0..6),
        cut in any::<u16>(),
    ) {
        let ws: Vec<String> = weights.iter().map(|w| (*w as f64 / 4.0).to_string()).collect();
        let vs: Vec<String> = arrivals.iter().map(|v| (*v as f64 / 1000.0).to_string()).collect();
        for line in [
            format!("REGISTER k={k} weights={} window=count:32", ws.join(",")),
            format!("REGISTER k={k} weights=1,0.5 fn=quadratic range=0:0.5,0.25:1 window=time:{k}"),
            format!("UNREGISTER q{k}"),
            format!("SUBSCRIBE q{k}"),
            format!("UNSUBSCRIBE {k}"),
            format!("SNAPSHOT q{k}"),
            "STATS".to_string(),
            "PING".to_string(),
            "QUIT".to_string(),
            format!("TICK {}", vs.join(" ")),
            format!("TICKAT @{k} {}", vs.join(" ")),
            format!("SITE {k} dims={}", weights.len()),
            format!("SITEDELTA q{k} @{k} +t{k}:0.5 -t1:0.25"),
            format!("SITETICK @{k} base={k} {}", vs.join(" ")),
            format!("SITETICK @{k}"),
        ] {
            prop_assert!(parse_request(&line).is_ok(), "seed line rejected: {line}");
            let cut = cut as usize % (line.len() + 1);
            let truncated = String::from_utf8_lossy(&line.as_bytes()[..cut]);
            assert_request_fixed_point(&truncated);
        }
    }

    /// Byte-truncations of valid server lines (replies and pushes) never
    /// panic the client-side parser.
    #[test]
    fn truncated_valid_server_lines_never_panic(
        ids in prop::collection::vec(0u32..100, 1..5),
        cut in any::<u16>(),
    ) {
        let entries: Vec<String> =
            ids.iter().map(|i| format!("+t{i}:{}", *i as f64 / 8.0)).collect();
        for line in [
            format!("DELTA q1 @7{}", entries.iter().map(|e| format!(" {e}")).collect::<String>()),
            format!("OK SNAPSHOT q2 @9 t{}:0.5", ids[0]),
            format!("SNAPSHOT q{} @3 t{}:0.5 t1:-0.25", ids[0], ids[0]),
            format!("OK q{}", ids[0]),
            format!("OK @{} queued={}", ids[0], ids.len()),
            "OK pong".to_string(),
            "OK bye".to_string(),
            "OK STATS sessions=3 shed=0".to_string(),
            "ERR busy server inbox full; request dropped, retry later".to_string(),
            "RESYNC 2".to_string(),
            format!("OK s{}", ids[0]),
            format!("ADOPT q{} k=2 weights=1,0.5 fn=product", ids[0]),
            format!("ADOPT q{} retire", ids[0]),
            format!("DEGRADED q{} s0 s{}", ids[0], ids[0] + 1),
            "DEGRADED q0".to_string(),
        ] {
            prop_assert!(parse_server_line(&line).is_ok(), "seed line rejected: {line}");
            let cut = cut as usize % (line.len() + 1);
            let truncated = String::from_utf8_lossy(&line.as_bytes()[..cut]);
            assert_server_line_fixed_point(&truncated);
        }
    }
}

/// `parse(encode(x)) == x` to the bit, on the values a shortest-round-trip
/// text encoding is most likely to get wrong — signed zero, subnormals,
/// the extremes, arbitrary bit patterns — with `u64::MAX` ids and
/// timestamps, through every line shape that carries a float, and through
/// a `TICK` as long as the request cap allows (25 000 tuples).
#[test]
fn edge_values_round_trip_bit_for_bit() {
    let mut state = 0x5EED_u64;
    let mut word = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let edges = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1 + 0.2,
        1.0 / 3.0,
        1e23,
        5e-324,
        9_007_199_254_740_993.0,
    ];
    let mut value = |i: usize| match edges.get(i) {
        Some(edge) => *edge,
        // Any finite bit pattern.
        None => loop {
            let v = f64::from_bits(word());
            if v.is_finite() {
                break v;
            }
        },
    };
    let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let entry_bits = |entries: &[Scored]| {
        let scores: Vec<f64> = entries.iter().map(|e| e.score.get()).collect();
        (
            bits(&scores),
            entries.iter().map(|e| e.id).collect::<Vec<_>>(),
        )
    };

    let vals: Vec<f64> = (0..400).map(&mut value).collect();
    let ts = Timestamp(u64::MAX);
    for req in [
        Request::Tick {
            arrivals: vals.clone(),
        },
        Request::TickAt {
            at: ts,
            arrivals: vals.clone(),
        },
        Request::SiteIngest {
            at: ts,
            base: u64::MAX,
            arrivals: vals.clone(),
        },
    ] {
        match parse_request(&req.to_string()).expect("own encoding") {
            Request::Tick { arrivals } => assert_eq!(bits(&arrivals), bits(&vals)),
            Request::TickAt { at, arrivals } => {
                assert_eq!((at, bits(&arrivals)), (ts, bits(&vals)));
            }
            Request::SiteIngest { at, base, arrivals } => {
                assert_eq!((at, base, bits(&arrivals)), (ts, u64::MAX, bits(&vals)));
            }
            other => panic!("{req} parsed as {other:?}"),
        }
    }

    let entries: Vec<Scored> = vals
        .iter()
        .enumerate()
        .map(|(i, v)| Scored::new(*v, TupleId(u64::MAX - i as u64)))
        .collect();
    let query = QueryId(u64::MAX);
    let delta = ResultDelta {
        query,
        added: entries[..7].to_vec().into(),
        removed: entries[7..40].to_vec().into(),
    };
    let want = (entry_bits(&delta.added), entry_bits(&delta.removed));

    // The crate prints floats with its own writer; its reference is std's
    // `Display`. Every line shape that carries a float equals the line
    // assembled here with `{}` per value.
    let std_vals = |vals: &[f64]| vals.iter().map(|v| format!(" {v}")).collect::<String>();
    let std_entries = |sign: &str, entries: &[Scored]| {
        entries
            .iter()
            .map(|e| format!(" {sign}t{}:{}", e.id.0, e.score.get()))
            .collect::<String>()
    };
    let spec = QuerySpec {
        k: 3,
        weights: vals[..20].to_vec(),
        family: Family::Quadratic,
        range: Some(vals[20..60].chunks(2).map(|c| (c[0], c[1])).collect()),
    };
    let std_spec = format!(
        "k=3 weights={} fn=quadratic range={}",
        vals[..20]
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(","),
        vals[20..60]
            .chunks(2)
            .map(|c| format!("{}:{}", c[0], c[1]))
            .collect::<Vec<_>>()
            .join(",")
    );
    let (added, removed) = (
        std_entries("+", &delta.added),
        std_entries("-", &delta.removed),
    );
    for (line, std_line) in [
        (
            Request::Tick {
                arrivals: vals.clone(),
            }
            .to_string(),
            format!("TICK{}", std_vals(&vals)),
        ),
        (
            Request::TickAt {
                at: ts,
                arrivals: vals.clone(),
            }
            .to_string(),
            format!("TICKAT {ts}{}", std_vals(&vals)),
        ),
        (
            Request::SiteIngest {
                at: ts,
                base: 9,
                arrivals: vals.clone(),
            }
            .to_string(),
            format!("SITETICK {ts} base=9{}", std_vals(&vals)),
        ),
        (
            Request::SiteDelta {
                at: ts,
                delta: delta.clone(),
            }
            .to_string(),
            format!("SITEDELTA {query} {ts}{added}{removed}"),
        ),
        (
            Push::Delta {
                at: ts,
                delta: delta.clone(),
            }
            .to_string(),
            format!("DELTA {query} {ts}{added}{removed}"),
        ),
        (
            Push::Snapshot {
                query,
                at: ts,
                entries: entries.clone(),
            }
            .to_string(),
            format!("SNAPSHOT {query} {ts}{}", std_entries("", &entries)),
        ),
        (
            Reply::OkSnapshot {
                query,
                at: ts,
                entries: entries.clone(),
            }
            .to_string(),
            format!("OK SNAPSHOT {query} {ts}{}", std_entries("", &entries)),
        ),
        (
            Request::Register {
                spec: spec.clone(),
                window: None,
            }
            .to_string(),
            format!("REGISTER {std_spec}"),
        ),
        (
            Push::Adopt {
                query,
                spec: Some(spec),
            }
            .to_string(),
            format!("ADOPT {query} {std_spec}"),
        ),
    ] {
        assert_eq!(line, std_line);
    }

    let shipped = Request::SiteDelta {
        at: ts,
        delta: delta.clone(),
    }
    .to_string();
    match parse_request(&shipped).expect("own encoding") {
        Request::SiteDelta { at, delta: got } => {
            assert_eq!((at, got.query), (ts, query));
            assert_eq!((entry_bits(&got.added), entry_bits(&got.removed)), want);
        }
        other => panic!("SITEDELTA parsed as {other:?}"),
    }
    let pushed = Push::Delta { at: ts, delta }.to_string();
    match parse_server_line(&pushed).expect("own encoding") {
        ServerLine::Push(Push::Delta { at, delta: got }) => {
            assert_eq!((at, got.query), (ts, query));
            assert_eq!((entry_bits(&got.added), entry_bits(&got.removed)), want);
        }
        other => panic!("DELTA parsed as {other:?}"),
    }
    for line in [
        Push::Snapshot {
            query,
            at: ts,
            entries: entries.clone(),
        }
        .to_string(),
        Reply::OkSnapshot {
            query,
            at: ts,
            entries: entries.clone(),
        }
        .to_string(),
    ] {
        match parse_server_line(&line).expect("own encoding") {
            ServerLine::Push(Push::Snapshot {
                query: q,
                at,
                entries: got,
            })
            | ServerLine::Reply(Reply::OkSnapshot {
                query: q,
                at,
                entries: got,
            }) => {
                assert_eq!((q, at), (query, ts));
                assert_eq!(entry_bits(&got), entry_bits(&entries));
            }
            other => panic!("snapshot parsed as {other:?}"),
        }
    }

    // As many full-precision coordinates as fit under the request cap.
    let long: Vec<f64> = (0..50_000)
        .map(|_| (word() >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    let line = Request::Tick {
        arrivals: long.clone(),
    }
    .to_string();
    assert!(line.len() <= MAX_REQUEST_LINE, "{} bytes", line.len());
    assert_eq!(line, format!("TICK{}", std_vals(&long)));
    match parse_request(&line).expect("own encoding") {
        Request::Tick { arrivals } => assert_eq!(bits(&arrivals), bits(&long)),
        other => panic!("TICK parsed as {other:?}"),
    }
}

/// Builds one framer-test line from fuzz integers: protocol-ish content
/// via [`near_token`], sometimes empty, sometimes with a multi-byte UTF-8
/// tail so chunk cuts can land mid-sequence.
fn framer_line(kind: u8, a: u32, b: u32) -> String {
    let mut line = if a.is_multiple_of(11) {
        String::new()
    } else {
        near_token(kind, a, b)
    };
    line.push_str(["", "é", "λ🦀", "→"][b as usize % 4]);
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reactor framing (PR 10): a line stream cut at arbitrary byte
    /// positions — including mid-UTF-8-sequence — reassembles to exactly
    /// the original lines, in order, with nothing left buffered; and any
    /// reassembled line the parser accepts is a fixed point of its own
    /// encoding.
    #[test]
    fn framer_reassembles_lines_under_arbitrary_chunking(
        specs in prop::collection::vec((any::<u8>(), 0u32..2000, 0u32..2000), 1..10),
        cuts in prop::collection::vec(any::<u16>(), 0..24),
    ) {
        let lines: Vec<String> =
            specs.iter().map(|(k, a, b)| framer_line(*k, *a, *b)).collect();
        let mut stream = Vec::new();
        for l in &lines {
            stream.extend_from_slice(l.as_bytes());
            stream.push(b'\n');
        }
        let mut splits: Vec<usize> =
            cuts.iter().map(|c| *c as usize % (stream.len() + 1)).collect();
        splits.sort_unstable();
        splits.push(stream.len());

        let mut framer = LineFramer::new(MAX_REQUEST_LINE);
        let mut got = Vec::new();
        let mut prev = 0;
        for cut in splits {
            framer.feed(&stream[prev..cut]);
            prev = cut;
            while let Some(framed) = framer.next_line() {
                match framed {
                    FramedLine::Line(l) => got.push(l),
                    other => prop_assert!(false, "unexpected {other:?}"),
                }
            }
        }
        prop_assert_eq!(framer.pending_len(), 0, "bytes left buffered");
        prop_assert_eq!(&got, &lines);
        for l in &got {
            assert_request_fixed_point(l);
            assert_server_line_fixed_point(l);
        }
    }

    /// Arbitrary byte chunks — invalid UTF-8, no terminators, whatever —
    /// never panic the framer, and a small cap is honoured: no yielded
    /// line exceeds it.
    #[test]
    fn framer_survives_arbitrary_byte_chunks(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..12),
    ) {
        let cap = 32;
        let mut framer = LineFramer::new(cap);
        for chunk in &chunks {
            framer.feed(chunk);
            while let Some(framed) = framer.next_line() {
                if let FramedLine::Line(l) = framed {
                    prop_assert!(l.len() <= cap, "line over cap: {l:?}");
                }
            }
        }
    }

    /// A writer that stages arbitrary step sizes (from one byte, leaving
    /// the cursor mid-entry, to stages spanning entries) and whose socket
    /// takes all or only part of each stage reproduces the queued byte
    /// stream exactly, however enqueues and partial drains interleave:
    /// the queue empties, refills from its inline front line, spills
    /// behind it and drains back, overflows (dropping every push but a
    /// half-written front) and is closed, all checked against a model
    /// after every step, `peek_coalesced` answering 0 exactly when the
    /// model is empty and `is_drained()` agreeing.
    #[test]
    fn session_out_partial_writes_reproduce_the_exact_stream(
        specs in prop::collection::vec(
            (any::<u8>(), 0u32..2000, 0u32..2000, any::<u8>()), 1..10),
        steps in prop::collection::vec((any::<u8>(), 1u16..96), 1..32),
        close_at in any::<u8>(),
    ) {
        // The model: queued lines with their push flag, the bytes of the
        // front already written, and the two latches.
        let mut model: VecDeque<(Vec<u8>, bool)> = VecDeque::new();
        let (mut cursor, mut overflowed, mut closed) = (0usize, false, false);
        let out = SessionOut::new();
        let mut scratch = Vec::new();
        let mut step_no = 0usize;
        let close_at = usize::from(close_at) % (specs.len() + 1);
        // One partial write: stage a step, let the socket take all or a
        // strict part of it, check both against the model.
        let mut drain_step = |model: &mut VecDeque<(Vec<u8>, bool)>,
                              cursor: &mut usize|
         -> Result<(), proptest::test_runner::TestCaseError> {
            let (short, step) = steps[step_no % steps.len()];
            step_no += 1;
            let staged = out.peek_coalesced(&mut scratch, usize::from(step));
            let want: Vec<u8> = model
                .iter()
                .flat_map(|(bytes, _)| bytes)
                .skip(*cursor)
                .take(usize::from(step))
                .copied()
                .collect();
            prop_assert_eq!(&scratch[..], &want[..], "staged bytes");
            if staged == 0 {
                return Ok(());
            }
            let wrote = if short % 2 == 0 { staged } else { 1 + short as usize % staged };
            out.advance(wrote);
            *cursor += wrote;
            while model.front().is_some_and(|(bytes, _)| *cursor >= bytes.len()) {
                if let Some((bytes, _)) = model.pop_front() {
                    *cursor -= bytes.len();
                }
            }
            Ok(())
        };
        for (i, (kind, a, b, mode)) in specs.iter().enumerate() {
            if i == close_at {
                out.close();
                closed = true;
            }
            let line = near_token(*kind, *a, *b);
            let mut bytes = line.clone().into_bytes();
            bytes.push(b'\n');
            let pushes = model.iter().filter(|(_, push)| *push).count();
            match mode % 4 {
                0 => {
                    out.send_reply(line);
                    if !closed {
                        model.push_back((bytes, false));
                    }
                }
                // Uncapped and capped (2) pushes: refused while latched,
                // the capped one overflowing, which drops every queued
                // push except a half-written front.
                op @ (1 | 2) => {
                    let cap = if op == 1 { 1 << 20 } else { 2 };
                    let accepted = out.try_push_shared(payload(&line), cap);
                    let overflow = !closed && !overflowed && pushes >= cap;
                    if overflow {
                        let mut idx = 0;
                        model.retain(|(_, push)| {
                            let keep = !push || (idx == 0 && cursor > 0);
                            idx += 1;
                            keep
                        });
                        overflowed = true;
                    } else if !closed && !overflowed {
                        model.push_back((bytes, true));
                    }
                    prop_assert_eq!(accepted, closed || !overflowed, "push verdict");
                }
                // The engine owner's re-baseline: re-arm, then force.
                _ => {
                    out.clear_overflow();
                    overflowed = false;
                    out.force_push(line);
                    if !closed {
                        model.push_back((bytes, true));
                    }
                }
            }
            prop_assert_eq!(out.is_drained(), model.is_empty(), "after enqueue {}", i);
            for _ in 0..(mode / 4) % 4 {
                drain_step(&mut model, &mut cursor)?;
                prop_assert_eq!(out.is_drained(), model.is_empty(), "after a drain");
            }
        }
        if close_at == specs.len() {
            out.close();
        }
        while !model.is_empty() {
            drain_step(&mut model, &mut cursor)?;
            prop_assert_eq!(out.is_drained(), model.is_empty(), "final drain");
        }
        prop_assert_eq!(out.peek_coalesced(&mut Vec::new(), 64), 0);
        prop_assert!(out.is_drained() && out.is_closed());
        prop_assert_eq!(out.queued_pushes(), 0);
    }
}

/// Byte-at-a-time reads (the worst wakeup pattern the reactor can see)
/// reassemble real protocol lines exactly, and each reassembled line is a
/// fixed point of its own encoding.
#[test]
fn framer_handles_one_byte_reads() {
    let lines = [
        "REGISTER k=4 weights=1,0.5 window=count:32",
        "SUBSCRIBE q0",
        "TICKAT @7 0.25 0.75",
        "",
        "DELTA q0 @7 +t1:0.75 -t0:0.25",
        "PING",
    ];
    let mut framer = LineFramer::new(MAX_REQUEST_LINE);
    let mut got = Vec::new();
    for line in &lines {
        for b in line.as_bytes() {
            framer.feed(std::slice::from_ref(b));
            assert_eq!(framer.next_line(), None, "yielded before the terminator");
        }
        framer.feed(b"\n");
        match framer.next_line() {
            Some(FramedLine::Line(l)) => got.push(l),
            other => panic!("expected a line, got {other:?}"),
        }
    }
    assert_eq!(got, lines);
    for l in &got {
        assert_request_fixed_point(l);
        assert_server_line_fixed_point(l);
    }
}

/// The documented overflow contract: when the push cap trips, the queued
/// backlog is dropped but a partially-written front line is finished (the
/// stream stays line-aligned), and the forced `RESYNC` still goes out.
#[test]
fn session_out_overflow_keeps_the_stream_line_aligned() {
    let out = SessionOut::new();
    assert!(out.try_push_shared(payload("DELTA q0 @1 +t1:0.5"), 2));
    assert!(out.try_push_shared(payload("DELTA q0 @2 +t2:0.5"), 2));
    // Four bytes of the front line are already on the wire.
    let mut scratch = Vec::new();
    let n = out.peek_coalesced(&mut scratch, 4);
    assert_eq!(n, 4);
    let mut collected = scratch[..n].to_vec();
    out.advance(n);
    // The cap trips: the backlog is dropped, the in-flight front stays.
    assert!(!out.try_push_shared(payload("DELTA q0 @3 +t3:0.5"), 2));
    assert_eq!(out.queued_pushes(), 1, "only the in-flight front survives");
    out.force_push("RESYNC 1".into());
    let n = out.peek_coalesced(&mut scratch, usize::MAX);
    collected.extend_from_slice(&scratch);
    out.advance(n);
    assert_eq!(collected, b"DELTA q0 @1 +t1:0.5\nRESYNC 1\n");
    // A closed queue swallows pushes without demanding a resync.
    out.close();
    assert!(out.is_closed());
    assert!(out.try_push_shared(payload("DELTA q0 @4 +t4:0.5"), 2));
    assert!(out.is_drained());
}

/// Live-session fuzz: seeded junk lines over a raw socket each earn a
/// reply (never a hang, never a dropped session), split-across-write
/// UTF-8 reassembles, an absurd `k=` draws `ERR bad-arg`, and after all
/// of it the session still answers `PING` and serves a real register.
#[test]
fn junk_over_a_raw_socket_gets_errs_and_the_session_survives() {
    let cfg = ServiceConfig::new(ServerConfig::sma(2, 16));
    let service = Service::bind("127.0.0.1:0", cfg).expect("bind");
    let sock = TcpStream::connect(service.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
    let mut sock = sock;

    let reply = |reader: &mut BufReader<TcpStream>| -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        assert!(
            line.starts_with("OK") || line.starts_with("ERR"),
            "not a reply: {line:?}"
        );
        line
    };

    // 64 deterministic junk lines of non-whitespace byte soup (whitespace-
    // only lines are silently skipped by the reader, so every line here is
    // guaranteed a reply), pipelined, then drained.
    let mut state = 0xF00DF00Du64;
    let mut junk = Vec::new();
    let mut sent = 0usize;
    for _ in 0..64 {
        junk.clear();
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let len = 1 + (state >> 40) as usize % 48;
        for i in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly printable-and-beyond, occasional interior space —
            // never b'\n', and byte 0 is never whitespace.
            let b = 0x21 + ((state >> 33) % 0xDE) as u8;
            junk.push(if i > 0 && b.is_multiple_of(13) {
                b' '
            } else {
                b
            });
        }
        junk.push(b'\n');
        sock.write_all(&junk).expect("write junk");
        sent += 1;
    }
    sock.flush().expect("flush");
    for _ in 0..sent {
        reply(&mut reader);
    }

    // A multi-byte UTF-8 character split across two writes reassembles
    // into one (invalid) request — one clean parse error, no hang.
    sock.write_all("caf".as_bytes()).expect("split 1");
    sock.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(20));
    let e_acute = "é".as_bytes();
    sock.write_all(&e_acute[..1]).expect("split 2");
    sock.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(20));
    sock.write_all(&e_acute[1..]).expect("split 3");
    sock.write_all(b"\n").expect("split end");
    sock.flush().expect("flush");
    assert!(reply(&mut reader).starts_with("ERR parse "));

    // Same split trick on a *valid* verb must still succeed.
    sock.write_all(b"PI").expect("half verb");
    sock.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(20));
    sock.write_all(b"NG\n").expect("other half");
    sock.flush().expect("flush");
    assert_eq!(reply(&mut reader), "OK pong\n");

    // Oversized-but-parseable arguments are rejected cleanly, not obeyed.
    sock.write_all(b"REGISTER k=999999999999 weights=1,1\n")
        .expect("huge k");
    assert!(reply(&mut reader).starts_with("ERR bad-arg "));

    // The session is still fully functional: register, subscribe, tick,
    // and mirror the pushed delta.
    sock.write_all(b"REGISTER k=2 weights=1,1\nSUBSCRIBE q0\nTICK 0.5 0.5\n")
        .expect("real work");
    assert_eq!(reply(&mut reader), "OK q0\n");
    let mut mirror: BTreeMap<_, Vec<Scored>> = BTreeMap::new();
    let mut pushed = 0;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("line");
        match parse_server_line(line.trim_end()).expect("classify") {
            topk_monitor::service::ServerLine::Push(p) => {
                pushed += 1;
                apply_push(&mut mirror, &p);
                if pushed == 2 {
                    break; // baseline snapshot + the tick's delta
                }
            }
            topk_monitor::service::ServerLine::Reply(_) => {
                assert!(line.starts_with("OK"), "mid-stream failure: {line:?}")
            }
        }
    }
    let entries = &mirror[&mirror.keys().next().copied().expect("q")];
    assert_eq!(entries.len(), 1, "one tuple in the window: {entries:?}");
    assert_eq!(entries[0].score.get(), 1.0);

    sock.write_all(b"QUIT\n").expect("quit");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain");
    assert!(rest.contains("OK bye"), "no farewell in {rest:?}");
    service.shutdown();
}

/// A push stream interleaved with junk on the same socket: garbage lines
/// earn `ERR parse` replies while subscriptions keep flowing undisturbed.
#[test]
fn junk_between_requests_does_not_disturb_the_push_stream() {
    let cfg = ServiceConfig::new(ServerConfig::sma(1, 8));
    let service = Service::bind("127.0.0.1:0", cfg).expect("bind");
    let sock = TcpStream::connect(service.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
    let mut sock = sock;

    sock.write_all(b"REGISTER k=1 weights=1\nSUBSCRIBE q0\n")
        .expect("setup");
    let mut mirror: BTreeMap<_, Vec<Scored>> = BTreeMap::new();
    let mut errs = 0;
    let mut deltas = 0;
    for round in 0..8u32 {
        // Strictly increasing, so every tick dethrones the top-1 and is
        // guaranteed to push a delta.
        let v = f64::from(round + 1) / 10.0;
        sock.write_all(format!("\x01garbage {round}\x02\nTICK {v}\n").as_bytes())
            .expect("round");
        sock.flush().expect("flush");
        while deltas <= round {
            let mut line = String::new();
            reader.read_line(&mut line).expect("line");
            if line.starts_with("ERR parse ") {
                errs += 1;
            } else if let Ok(topk_monitor::service::ServerLine::Push(p)) =
                parse_server_line(line.trim_end())
            {
                if matches!(p, Push::Delta { .. }) {
                    deltas += 1;
                }
                apply_push(&mut mirror, &p);
            }
        }
    }
    assert_eq!(errs, 8, "every junk line draws exactly one ERR parse");
    let q = mirror.keys().next().copied().expect("q");
    assert_eq!(mirror[&q].len(), 1, "top-1 mirror: {:?}", mirror[&q]);
    sock.write_all(b"QUIT\n").expect("quit");
    service.shutdown();
}
