//! End-to-end tests of the `tkm_service` TCP serving layer over loopback:
//! concurrent subscriber clients reconstruct oracle-identical top-k
//! results purely from the wire's delta stream, including across the
//! drop-to-snapshot backpressure resync, and the protocol's error grammar
//! behaves as documented.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use topk_monitor::service::{
    apply_push, ClientError, ErrCode, Family, Push, Service, ServiceClient, ServiceConfig,
    TickPolicy, WireWindow,
};
use topk_monitor::{
    EngineKind, MonitorServer, Query, QueryId, Rect, ScoreFn, Scored, ServerConfig, Timestamp,
};

fn lcg_batches(seed: u64, ticks: usize, rate: usize, dims: usize) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Coarse 32-level coordinates for tie pressure.
        ((state >> 11) % 32) as f64 / 31.0
    };
    (0..ticks)
        .map(|_| (0..rate * dims).map(|_| rnd()).collect())
        .collect()
}

/// The acceptance scenario: 4 concurrent subscriber clients over loopback,
/// each following a different query (one constrained), all reconstructing
/// oracle-identical results from the delta stream alone.
#[test]
fn four_subscribers_reconstruct_oracle_results() {
    let dims = 2;
    let window = 300;
    let scfg = ServerConfig::sma(dims, window);
    let service = Service::bind("127.0.0.1:0", ServiceConfig::new(scfg)).expect("bind");
    let addr = service.local_addr();

    // Queries: three linear (different weights/k), one constrained.
    type Spec = (usize, Vec<f64>, Option<Vec<(f64, f64)>>);
    let specs: Vec<Spec> = vec![
        (3, vec![1.0, 2.0], None),
        (7, vec![1.0, -0.5], None),
        (1, vec![0.25, 0.25], None),
        (5, vec![2.0, 1.0], Some(vec![(0.0, 0.5), (0.25, 1.0)])),
    ];

    // Independent in-process oracle fed the same batches directly.
    let mut oracle = MonitorServer::new(scfg).expect("oracle");
    let mut oracle_ids = Vec::new();
    for (k, weights, range) in &specs {
        let f = ScoreFn::linear(weights.clone()).expect("weights");
        let q = match range {
            None => Query::top_k(f, *k).expect("query"),
            Some(spans) => {
                let (lo, hi): (Vec<f64>, Vec<f64>) = spans.iter().copied().unzip();
                Query::constrained(f, *k, Rect::new(lo, hi).expect("rect")).expect("query")
            }
        };
        oracle_ids.push(oracle.register(q).expect("oracle register"));
    }

    let subscribed = Arc::new(Barrier::new(specs.len() + 1));
    let ingested = Arc::new(Barrier::new(specs.len() + 1));
    let mut handles = Vec::new();
    for (k, weights, range) in specs.clone() {
        let subscribed = Arc::clone(&subscribed);
        let ingested = Arc::clone(&ingested);
        handles.push(std::thread::spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("connect");
            let q = client
                .register(
                    k,
                    &weights,
                    Family::Linear,
                    range,
                    Some(WireWindow::Count(300)),
                )
                .expect("register");
            let baseline = client.subscribe(q).expect("subscribe");
            let mut mirror: BTreeMap<_, _> = [(q, baseline)].into_iter().collect();
            subscribed.wait();
            ingested.wait(); // all ticks acknowledged; our pushes are queued
            let (_, wire_truth) = client.snapshot(q).expect("snapshot");
            // FIFO ordering: every delta enqueued before the snapshot reply
            // is now buffered. Apply them, then compare.
            let mut deltas_seen = 0usize;
            while let Some(push) = client.try_buffered_push() {
                if matches!(push, Push::Delta { .. }) {
                    deltas_seen += 1;
                }
                apply_push(&mut mirror, &push);
            }
            assert_eq!(
                mirror.get(&q).map(Vec::as_slice),
                Some(wire_truth.as_slice()),
                "reconstruction diverged from the server snapshot"
            );
            assert!(deltas_seen > 0, "subscriber saw no deltas at all");
            client.quit().expect("quit");
            (q, mirror.remove(&q).unwrap())
        }));
    }

    // Subscriptions exist before the first arrival: registration order on
    // the wire matches the oracle's registration order.
    subscribed.wait();
    let mut ingest = ServiceClient::connect(addr).expect("ingest connect");
    let batches = lcg_batches(7, 50, 12, dims);
    for batch in &batches {
        ingest.tick(batch).expect("tick");
        oracle.tick(batch).expect("oracle tick");
    }
    let stats = ingest.stats().expect("stats");
    assert_eq!(stats["ticks"], "50");
    assert_eq!(stats["arrivals"], "600");
    assert_eq!(stats["subscriptions"], "4");
    assert_eq!(stats["resyncs"], "0", "no backpressure at this scale");
    // The robustness counters exist and stay zero on a healthy run: no
    // idle reaping, nothing shed.
    assert_eq!(stats["reaped"], "0", "nothing idle long enough to reap");
    assert_eq!(stats["shed"], "0", "nothing is ever shed");
    ingested.wait();

    for handle in handles {
        let (q, mirror) = handle.join().expect("subscriber");
        // The four REGISTERs race, so wire ids don't map positionally onto
        // the oracle's; the distinct k values make matching by result
        // identity unambiguous instead.
        let matched = oracle_ids
            .iter()
            .any(|oid| oracle.result(*oid).expect("oracle result") == mirror);
        assert!(matched, "no oracle query matches reconstruction of {q}");
    }
    service.shutdown();
}

/// Subscriber-side identity check with deterministic ids: a single
/// subscriber's queries match the oracle one-to-one, and its mirror —
/// subscribe baselines plus the delta stream alone — reconstructs them,
/// for both engines, unsharded and over a 3-shard engine (the serving
/// layer is the same one thread either way).
#[test]
fn single_session_matches_oracle_per_query() {
    for (engine, shards) in [
        (EngineKind::Tma, 1),
        (EngineKind::Tma, 3),
        (EngineKind::Sma, 1),
        (EngineKind::Sma, 3),
    ] {
        let scfg = ServerConfig::sma(2, 120).with_engine(engine);
        let service = Service::bind("127.0.0.1:0", ServiceConfig::new(scfg.with_shards(shards)))
            .expect("bind");
        let mut oracle = MonitorServer::new(scfg).expect("oracle");

        let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
        let mut mirror: BTreeMap<_, Vec<Scored>> = BTreeMap::new();
        for (k, w) in [(2, [1.0, 0.5]), (5, [0.1, 1.0]), (4, [1.0, 1.0])] {
            let wire = client.register_linear(k, &w).expect("register");
            let f = ScoreFn::linear(w.to_vec()).expect("weights");
            let local = oracle
                .register(Query::top_k(f, k).expect("query"))
                .expect("oracle register");
            assert_eq!(wire, local, "sequential registration shares id order");
            let baseline = client.subscribe(wire).expect("subscribe");
            assert!(baseline.is_empty());
            mirror.insert(wire, baseline);
        }

        let batches = lcg_batches(99, 40, 9, 2);
        for batch in &batches {
            let now = client.tick(batch).expect("tick");
            oracle.tick(batch).expect("oracle tick");
            assert_eq!(Timestamp(now.0), Timestamp(oracle.now().0));
        }

        let queries: Vec<_> = mirror.keys().copied().collect();
        for q in &queries {
            let (_, truth) = client.snapshot(*q).expect("snapshot");
            assert_eq!(
                truth,
                oracle.result(*q).expect("oracle"),
                "wire vs oracle ({engine:?}, {shards} shards)"
            );
        }
        // Every tick's pushes were enqueued ahead of that tick's reply,
        // so the whole delta stream is buffered by now.
        while let Some(push) = client.try_buffered_push() {
            apply_push(&mut mirror, &push);
        }
        for q in &queries {
            assert_eq!(
                mirror[q],
                oracle.result(*q).expect("oracle"),
                "delta mirror vs oracle ({engine:?}, {shards} shards)"
            );
        }
        client.quit().expect("quit");
        service.shutdown();
    }
}

/// The serving loop's cost per request as exact counts. One ingest
/// client, one mirror subscribed to 64 queries, 50 ticks that each change
/// most of the results, a `PING` fence on the mirror connection per tick.
/// However many `DELTA` lines a tick queues, the loop wakes once per
/// request (plus its idle timeouts) and hands each touched session to the
/// kernel in one write — counted from `STATS`, not timed — and the mirror
/// equals the brute-force oracle after every fence.
#[test]
fn one_wakeup_per_request_and_one_write_per_session() {
    const QUERIES: usize = 64;
    let scfg = ServerConfig::sma(2, 64);
    let service = Service::bind("127.0.0.1:0", ServiceConfig::new(scfg)).expect("bind");
    let mut oracle = MonitorServer::new(scfg.with_engine(EngineKind::Oracle)).expect("oracle");
    let mut ingest = ServiceClient::connect(service.local_addr()).expect("ingest");
    let mut mirror_conn = ServiceClient::connect(service.local_addr()).expect("mirror");
    let mut mirror: BTreeMap<QueryId, Vec<Scored>> = BTreeMap::new();
    for i in 0..QUERIES {
        let w = [1.0 + i as f64 / 8.0, 9.0 - i as f64 / 8.0];
        let q = mirror_conn.register_linear(4, &w).expect("register");
        let f = ScoreFn::linear(w.to_vec()).expect("weights");
        let local = oracle.register(Query::top_k(f, 4).expect("query"));
        assert_eq!(local.expect("oracle register"), q);
        mirror.insert(q, mirror_conn.subscribe(q).expect("subscribe"));
    }
    let count = |stats: &BTreeMap<String, String>, key: &str| -> u64 {
        let value = stats
            .get(key)
            .unwrap_or_else(|| panic!("STATS carries {key}"));
        value.parse().expect("a count")
    };

    let before = ingest.stats().expect("stats");
    let started = std::time::Instant::now();
    let batches = lcg_batches(41, 50, 32, 2);
    for batch in &batches {
        ingest.tick(batch).expect("tick");
        oracle.tick(batch).expect("oracle tick");
        // The tick's pushes were queued before its reply, and the pong
        // is queued behind them on the mirror's one ordered stream.
        mirror_conn.ping().expect("fence");
        while let Some(push) = mirror_conn.try_buffered_push() {
            assert!(!matches!(push, Push::Resync { .. }), "no backpressure");
            apply_push(&mut mirror, &push);
        }
        for (q, got) in &mirror {
            assert_eq!(
                got,
                &oracle.result(*q).expect("oracle"),
                "{q} after a fence"
            );
        }
    }
    let after = ingest.stats().expect("stats");
    // The loop's 500 ms poll timeout may also have expired in between.
    let timeouts = 1 + started.elapsed().as_millis() as u64 / 500;
    let spent = |key: &str| count(&after, key) - count(&before, key);

    // Between the two snapshots: the second STATS, 50 ticks and 50 pings.
    let requests = 1 + 2 * batches.len() as u64;
    let deltas = spent("deltas");
    assert!(
        deltas > (batches.len() * QUERIES / 2) as u64,
        "the stream should change most results on most ticks ({deltas} deltas)"
    );
    assert_eq!(spent("encodes"), deltas, "one encode per routed delta");
    assert!(
        spent("wakeups") <= requests + timeouts,
        "{} wakeups for {requests} requests and {deltas} pushes",
        spent("wakeups")
    );
    // Per tick and fence: the tick's reply, the mirror's whole cycle in
    // one write, the pong.
    assert!(
        spent("sock_writes") <= 2 * requests,
        "{} socket writes for {requests} requests and {deltas} pushes",
        spent("sock_writes")
    );
    ingest.quit().expect("quit");
    mirror_conn.quit().expect("quit");
    service.shutdown();
}

/// The drop-to-snapshot backpressure path: a subscriber that stops reading
/// has its push backlog dropped, receives `RESYNC` + fresh snapshots when
/// it resumes, and still converges to the oracle-exact result.
#[test]
fn slow_subscriber_resyncs_and_reconverges() {
    let dims = 2;
    let scfg = ServerConfig::sma(dims, 128);
    let service =
        Service::bind("127.0.0.1:0", ServiceConfig::new(scfg).with_push_queue(2)).expect("bind");
    let addr = service.local_addr();
    let mut oracle = MonitorServer::new(scfg).expect("oracle");

    let mut sub = ServiceClient::connect(addr).expect("subscriber");
    let q = sub.register_linear(50, &[1.0, 1.0]).expect("register");
    oracle
        .register(Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).expect("w"), 50).expect("q"))
        .expect("oracle register");
    let baseline = sub.subscribe(q).expect("subscribe");
    let mut mirror: BTreeMap<_, _> = [(q, baseline)].into_iter().collect();

    // Tick (without the subscriber reading) until the server records a
    // resync: the session queue cap is 2, so once the socket buffers fill,
    // the backlog is dropped. Bounded by the finite kernel buffers.
    let mut ingest = ServiceClient::connect(addr).expect("ingest");
    let mut state = 0xbeef_u64;
    let mut resyncs = 0u64;
    let mut fed = Vec::new();
    for round in 0..100_000u32 {
        let mut batch = Vec::with_capacity(64 * dims);
        for _ in 0..64 * dims {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            batch.push(((state >> 11) % 1024) as f64 / 1023.0);
        }
        ingest.tick(&batch).expect("tick");
        fed.push(batch);
        if round % 64 == 0 {
            resyncs = ingest.stats().expect("stats")["resyncs"].parse().unwrap();
            if resyncs >= 1 {
                break;
            }
        }
    }
    assert!(
        resyncs >= 1,
        "no resync after 100k ticks against a cap-2 push queue"
    );
    for batch in &fed {
        oracle.tick(batch).expect("oracle tick");
    }

    // The subscriber wakes up and drains: it must observe the RESYNC
    // marker, re-baseline from the snapshots that follow, and then match
    // the server and oracle exactly.
    let (_, wire_truth) = sub.snapshot(q).expect("snapshot");
    let mut saw_resync = false;
    while let Some(push) = sub.try_buffered_push() {
        if let Push::Resync { count } = push {
            assert_eq!(count, 1, "one subscription to re-baseline");
            saw_resync = true;
        }
        apply_push(&mut mirror, &push);
    }
    assert!(saw_resync, "server recorded a resync the client never saw");
    assert_eq!(mirror[&q], wire_truth, "post-resync reconstruction");
    assert_eq!(
        mirror[&q],
        oracle.result(QueryId(0)).expect("oracle result"),
        "post-resync reconstruction vs oracle"
    );

    // Delta flow resumes after a resync: further ticks keep the mirror
    // exact when read promptly.
    for batch in lcg_batches(3, 5, 16, dims) {
        ingest.tick(&batch).expect("tick");
        oracle.tick(&batch).expect("oracle tick");
        let (_, truth) = sub.snapshot(q).expect("snapshot");
        while let Some(push) = sub.try_buffered_push() {
            apply_push(&mut mirror, &push);
        }
        assert_eq!(mirror[&q], truth);
    }
    assert_eq!(
        mirror[&q],
        oracle.result(QueryId(0)).expect("oracle result")
    );
    sub.quit().expect("quit");
    service.shutdown();
}

/// A second SUBSCRIBE on a connection that already has deltas buffered
/// must still find its baseline snapshot (regression: the client used to
/// pop the *oldest* buffered push and mistake an earlier delta for the
/// baseline).
#[test]
fn late_subscribe_with_buffered_deltas() {
    let scfg = ServerConfig::sma(2, 50);
    let service = Service::bind("127.0.0.1:0", ServiceConfig::new(scfg)).expect("bind");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");

    let q0 = client.register_linear(2, &[1.0, 1.0]).expect("register q0");
    let q1 = client.register_linear(3, &[0.5, 2.0]).expect("register q1");
    assert!(client.subscribe(q0).expect("subscribe q0").is_empty());

    // This tick produces a DELTA for q0 that sits unread in the buffer…
    client.tick(&[0.9, 0.1, 0.2, 0.8]).expect("tick");
    // …while the late subscribe must still return q1's (non-empty)
    // baseline, not trip over the buffered q0 delta.
    let baseline = client.subscribe(q1).expect("late subscribe q1");
    assert_eq!(baseline.len(), 2, "q1 baseline reflects the window");
    // The q0 delta is still there, in order.
    match client.next_push().expect("buffered q0 delta") {
        Push::Delta { delta, .. } => assert_eq!(delta.query, q0),
        other => panic!("expected the buffered q0 delta, got {other:?}"),
    }
    client.quit().expect("quit");
    service.shutdown();
}

/// The documented error grammar, end to end over a raw socket.
#[test]
fn protocol_error_grammar() {
    let scfg = ServerConfig::sma(2, 10);
    let service = Service::bind("127.0.0.1:0", ServiceConfig::new(scfg)).expect("bind");
    let addr = service.local_addr();

    // Raw socket: unparseable verbs answer ERR parse without killing the
    // connection.
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    let mut lines = BufReader::new(raw.try_clone().expect("clone"));
    let ask = |raw: &mut TcpStream, lines: &mut BufReader<TcpStream>, req: &str| -> String {
        raw.write_all(format!("{req}\n").as_bytes()).expect("write");
        let mut line = String::new();
        lines.read_line(&mut line).expect("read");
        line.trim().to_string()
    };
    assert!(ask(&mut raw, &mut lines, "FROB 1 2").starts_with("ERR parse "));
    assert!(ask(&mut raw, &mut lines, "REGISTER k=0x3 weights=1,1").starts_with("ERR parse "));
    assert!(ask(&mut raw, &mut lines, "SNAPSHOT q99").starts_with("ERR unknown-query "));
    assert!(ask(&mut raw, &mut lines, "TICK 0.5").starts_with("ERR bad-arg "));
    assert!(ask(
        &mut raw,
        &mut lines,
        "REGISTER k=3 weights=1,1 window=count:11"
    )
    .starts_with("ERR window-mismatch "));
    assert_eq!(ask(&mut raw, &mut lines, "QUIT"), "OK bye");

    // Typed client: server errors surface as ClientError::Server with the
    // matching code.
    let mut client = ServiceClient::connect(addr).expect("connect");
    match client.subscribe(QueryId(42)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrCode::UnknownQuery),
        other => panic!("expected unknown-query, got {other:?}"),
    }
    let q = client.register_linear(2, &[1.0, 1.0]).expect("register");
    client.tick(&[0.5, 0.5]).expect("tick");
    // TICKAT must be monotone.
    client.tick_at(Timestamp(5), &[0.5, 0.5]).expect("tickat");
    match client.tick_at(Timestamp(1), &[]) {
        Err(ClientError::Server { code, .. }) => {
            assert!(matches!(code, ErrCode::BadArg | ErrCode::Internal))
        }
        other => panic!("expected rejection of a decreasing TICKAT, got {other:?}"),
    }
    // Unsubscribe is idempotent; unregister then re-subscribe fails.
    client.unsubscribe(q).expect("unsubscribe");
    client.unregister(q).expect("unregister");
    match client.subscribe(q) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrCode::UnknownQuery),
        other => panic!("expected unknown-query after unregister, got {other:?}"),
    }
    client.quit().expect("quit");
    service.shutdown();
}

/// Interval ticking batches every arrival queued during the interval into
/// one engine cycle and keeps serving correct results.
#[test]
fn interval_mode_batches_queued_arrivals() {
    let scfg = ServerConfig::sma(2, 100);
    let cfg = ServiceConfig::new(scfg)
        .with_tick(TickPolicy::Interval(std::time::Duration::from_millis(10)));
    let service = Service::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");

    let q = client.register_linear(3, &[1.0, 1.0]).expect("register");
    // TICKAT is meaningless when the timer owns the clock.
    match client.tick_at(Timestamp(9), &[0.1, 0.1]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrCode::Unsupported),
        other => panic!("expected unsupported, got {other:?}"),
    }
    // Five TICKs land inside (at most a few) timer intervals.
    for v in [0.9, 0.7, 0.5, 0.3, 0.1] {
        client.tick(&[v, v, v * 0.5, v]).expect("tick");
    }
    // Wait until the timer has flushed everything.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = client.stats().expect("stats");
        if stats["pending"] == "0" && stats["arrivals"] == "10" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timer never flushed: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let (_, result) = client.snapshot(q).expect("snapshot");
    assert_eq!(result.len(), 3);
    assert_eq!(result[0].score.get(), 0.9 + 0.9);
    client.quit().expect("quit");
    service.shutdown();
}
