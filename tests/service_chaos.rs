//! Seeded chaos soak over loopback: a fleet of subscribers rides out
//! scripted link faults — resets, mid-line truncation, byte garbling,
//! stalls, split writes, each injected by a [`chaos_proxy`] between the
//! subscriber and the service — while an ingest connection drives hundreds
//! of ticks. Every subscriber that survives or reconnects must end with an
//! `apply_push` mirror bit-exact against an in-process oracle fed the same
//! batches, and the self-healing clients must actually have reconnected.

mod chaos_proxy;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use chaos_proxy::{ChaosProxy, Dir, Kind, Rule};
use topk_monitor::service::{
    apply_push, ClientError, Push, ReconnectPolicy, Service, ServiceClient, ServiceConfig,
};
use topk_monitor::{MonitorServer, Query, QueryId, ScoreFn, Scored, ServerConfig};

/// Data coordinates stay strictly below 1.0 (max 30/32), so a tuple at
/// exactly (1.0, 1.0) — still inside the unit workspace — scores exactly
/// `Σ wᵢ`, which no data tuple can reach: the sentinel that tells a
/// subscriber the stream is over.
fn lcg_batches(seed: u64, ticks: usize, rate: usize, dims: usize) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) % 31) as f64 / 32.0
    };
    (0..ticks)
        .map(|_| (0..rate * dims).map(|_| rnd()).collect())
        .collect()
}

fn saw_sentinel(mirror: &BTreeMap<QueryId, Vec<Scored>>, q: QueryId, threshold: f64) -> bool {
    mirror
        .get(&q)
        .is_some_and(|entries| entries.iter().any(|s| s.score.get() >= threshold))
}

#[test]
fn chaos_soak_survivors_reconstruct_oracle_results() {
    let dims = 2;
    let window = 200;
    let k = 8;
    let ticks = 600;
    let scfg = ServerConfig::sma(dims, window);

    // Five of the six subscribers (83% ≥ the required 25%) dial their own
    // proxy, whose rule counts the lines the service sends down that link
    // (the baseline `SNAPSHOT` is line 1, the `OK` line 2); the first and
    // the ingest client dial the service. A proxy faults its first
    // connection only, so a redial runs clean.
    let faults: [Rule; 5] = [
        (Dir::Down, Kind::Reset, 12, 0),
        (Dir::Down, Kind::Stall(10), 9, 40),
        (Dir::Down, Kind::Garble, 10, 0),
        (Dir::Down, Kind::Truncate, 16, 0),
        (Dir::Down, Kind::Partial, 8, 50),
    ];
    let service = Service::bind("127.0.0.1:0", ServiceConfig::new(scfg)).expect("bind");
    let addr = service.local_addr();
    let proxies = faults.map(|rule| ChaosProxy::start(addr, &[rule], 1, 0xC4A05));

    // One registering connection keeps wire query ids positional with the
    // oracle's registration order.
    let weights: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![1.0, 1.0]];
    let mut ingest = ServiceClient::connect(addr).expect("ingest");
    let mut qids = Vec::new();
    for w in &weights {
        qids.push(ingest.register_linear(k, w).expect("register"));
    }
    let mut oracle = MonitorServer::new(scfg).expect("oracle");
    for w in &weights {
        let f = ScoreFn::linear(w.clone()).expect("weights");
        let oid = oracle
            .register(Query::top_k(f, k).expect("query"))
            .expect("oracle register");
        assert!(qids.contains(&oid), "wire and oracle ids diverged");
    }

    // Subscribers connect serially, then consume concurrently.
    let dials = std::iter::once(addr).chain(proxies.iter().map(|p| p.addr()));
    let mut subs = Vec::new();
    for (i, dial) in (0..6u64).zip(dials) {
        let policy = ReconnectPolicy {
            base: Duration::from_millis(5),
            max: Duration::from_millis(100),
            retries: 40,
            seed: 0xBAD5EED ^ i,
            ..ReconnectPolicy::default()
        };
        let mut client = ServiceClient::connect(dial)
            .expect("subscriber connect")
            .with_reconnect(policy);
        let q = qids[(i % 3) as usize];
        let threshold: f64 = weights[(i % 3) as usize].iter().sum();
        let baseline = client.subscribe(q).expect("subscribe");
        subs.push((client, q, threshold, baseline));
    }

    let handles: Vec<_> = subs
        .into_iter()
        .map(|(mut client, q, threshold, baseline)| {
            std::thread::spawn(move || {
                let mut mirror: BTreeMap<_, _> = [(q, baseline)].into_iter().collect();
                while !saw_sentinel(&mirror, q, threshold) {
                    let push = client.next_push().expect("push stream");
                    apply_push(&mut mirror, &push);
                }
                (client, q, mirror)
            })
        })
        .collect();

    // The soak: hundreds of ticks into both the service and the oracle,
    // then one unmistakable sentinel tick that outranks all data.
    for batch in lcg_batches(0xD15EA5E, ticks, 10, dims) {
        ingest.tick(&batch).expect("tick");
        oracle.tick(&batch).expect("oracle tick");
    }
    let sentinel: Vec<f64> = vec![1.0; k * dims];
    ingest.tick(&sentinel).expect("sentinel tick");
    oracle.tick(&sentinel).expect("oracle sentinel");

    let mut fleet_reconnects = 0u64;
    for (idx, handle) in handles.into_iter().enumerate() {
        let (mut client, q, mut mirror) = handle.join().expect("subscriber thread");
        fleet_reconnects += client.reconnects();
        if idx == 3 {
            // The garbled connection: a one-byte flip can corrupt a score
            // digit into a line that still parses, which no checksum-free
            // text protocol can detect mid-stream. The recovery story is
            // re-baselining: resume and apply the fresh RESYNC/SNAPSHOT.
            client.resume().expect("garble-victim resume");
            match client.next_push().expect("resync") {
                Push::Resync { count } => assert_eq!(count, 1),
                other => panic!("expected RESYNC, got {other:?}"),
            }
            let push = client.next_push().expect("baseline");
            assert!(matches!(push, Push::Snapshot { .. }), "got {push:?}");
            apply_push(&mut mirror, &push);
        }
        let truth = oracle.result(q).expect("oracle result");
        assert_eq!(
            mirror.get(&q).map(Vec::as_slice),
            Some(truth.as_slice()),
            "subscriber {idx} diverged from the oracle"
        );
        match idx {
            // Killed connections (reset, truncate) must have self-healed.
            1 | 4 => assert!(
                client.reconnects() >= 1,
                "subscriber {idx} never reconnected"
            ),
            _ => {}
        }
    }
    assert!(
        fleet_reconnects >= 2,
        "the fleet reconnected only {fleet_reconnects} times"
    );

    // Server-side truth matches the oracle too, and the faults were real.
    let mut verifier = ServiceClient::connect(addr).expect("verifier");
    for (q, w) in qids.iter().zip(&weights) {
        let (_, wire) = verifier.snapshot(*q).expect("snapshot");
        let truth = oracle.result(*q).expect("oracle result");
        assert_eq!(wire, truth, "server snapshot diverged for weights {w:?}");
    }
    let injected: usize = proxies.iter().map(|p| p.log().len()).sum();
    assert!(injected >= 3, "the proxies injected {injected} faults");
    verifier.quit().expect("quit");
    let _ = ingest.quit();
    service.shutdown();
}

/// The same seed and rule replayed twice garble the same lines at the
/// same bytes with the same masks, and end in identical re-baselined
/// results: line indices do not depend on how the kernel batches writes.
#[test]
fn chaos_runs_are_reproducible_given_the_seed() {
    let run = |seed: u64| {
        let scfg = ServerConfig::sma(2, 50);
        let service = Service::bind("127.0.0.1:0", ServiceConfig::new(scfg)).expect("bind");
        let addr = service.local_addr();
        let proxy = ChaosProxy::start(addr, &[(Dir::Down, Kind::Garble, 6, 7)], 1, seed);
        let mut ingest = ServiceClient::connect(addr).expect("ingest");
        let q = ingest.register_linear(4, &[1.0, 1.0]).expect("register");

        // The garbled subscriber reads pushes until the stream breaks or
        // the sentinel arrives, then is re-baselined via a fresh snapshot.
        let mut sub = ServiceClient::connect(proxy.addr())
            .expect("sub")
            .with_reconnect(ReconnectPolicy {
                base: Duration::from_millis(2),
                retries: 20,
                ..ReconnectPolicy::default()
            });
        let baseline = sub.subscribe(q).expect("subscribe");
        let mut mirror: BTreeMap<_, _> = [(q, baseline)].into_iter().collect();
        for batch in lcg_batches(3, 60, 4, 2) {
            ingest.tick(&batch).expect("tick");
        }
        ingest.tick(&[1.0; 8]).expect("sentinel");

        // The link carried `SNAPSHOT`, `OK` and one `DELTA` per engine
        // delta. The subscriber reads nothing until the proxy has passed
        // them all on, so no redial can cut the faulted connection short.
        let stats = ingest.stats().expect("stats");
        let lines = 2 + stats["deltas"].parse::<usize>().expect("deltas");
        let garbles = (lines - 6) / 7 + 1;
        let deadline = Instant::now() + Duration::from_secs(30);
        while proxy.log().len() < garbles {
            assert!(Instant::now() < deadline, "the proxy stalled: {stats:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        while !saw_sentinel(&mirror, q, 2.0) {
            match sub.next_push() {
                Ok(p) => {
                    apply_push(&mut mirror, &p);
                }
                Err(ClientError::Server { .. }) => panic!("server err on push stream"),
                Err(e) => panic!("push stream died: {e}"),
            }
        }
        sub.resume().expect("re-baseline");
        while sub.take_status().is_some() {}
        let _ = sub.next_push().expect("resync");
        let p = sub.next_push().expect("snapshot");
        apply_push(&mut mirror, &p);

        let log = proxy.log();
        assert_eq!(log.len(), garbles, "a redialed connection runs clean");
        let result = mirror.remove(&q).expect("mirror");
        let _ = ingest.quit();
        service.shutdown();
        (result, log)
    };
    let (a_result, a_log) = run(77);
    let (b_result, b_log) = run(77);
    assert_eq!(a_result, b_result, "results differ across identical seeds");
    assert!(
        a_log.len() >= 2,
        "the garble rule fired once at most: {a_log:?}"
    );
    assert_eq!(a_log, b_log, "line, byte position and mask of every garble");
}

/// The proxy's self-test: eight numbered lines through rules naming every
/// kind. The first connection takes each fault at its line, the second
/// runs clean.
#[test]
fn chaos_proxy_applies_each_kind_at_its_line_to_the_first_connection_only() {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use Kind::{Garble, Partial, Reset, Stall, Truncate};
    let origin = TcpListener::bind("127.0.0.1:0").expect("origin bind");
    let target = origin.local_addr().expect("origin addr");
    let sent: String = (1..=8).map(|i| format!("line {i}\n")).collect();
    let (sent, payload) = (sent.clone().into_bytes(), sent);
    std::thread::spawn(move || {
        // The origin never hangs up first: a link ends by fault or client.
        for mut stream in origin.incoming().flatten() {
            let _ = stream.write_all(payload.as_bytes());
            let _ = stream.read_to_end(&mut Vec::new());
        }
    });
    let fetch = |proxy: &ChaosProxy, say: &[u8], most: usize| {
        let mut got = Vec::new();
        let mut client = TcpStream::connect(proxy.addr()).expect("dial proxy");
        client.write_all(say).expect("write");
        let _ = client.take(most as u64).read_to_end(&mut got);
        got
    };
    let rules = [
        (Partial, 2, 3),
        (Garble, 3, 0),
        (Stall(3), 4, 0),
        (Truncate, 7, 0),
    ];
    let rules = rules.map(|(kind, at, every)| (Dir::Down, kind, at, every));
    let proxy = ChaosProxy::start(target, &rules, 1, 7);
    let faulted = fetch(&proxy, b"", usize::MAX);
    let log = proxy.log();
    let (lines, kinds): (Vec<u64>, Vec<Kind>) = log.iter().map(|hit| (hit.2, hit.3)).unzip();
    assert_eq!(lines, [2, 3, 4, 5, 7]);
    assert_eq!(kinds, [Partial, Garble, Stall(3), Partial, Truncate]);
    assert!(log.iter().all(|hit| hit.0 == 0 && hit.1 == Dir::Down));
    let (at, mask) = log[1].4.expect("the garble's draw");
    let mut expect = sent[..6 * 7 + 3].to_vec(); // six lines and half of "line 7\n"
    expect[2 * 7 + at] ^= mask;
    assert_eq!(faulted, expect, "one byte of line 3 flipped, line 7 cut");
    let clean = fetch(&proxy, b"", sent.len());
    assert_eq!(clean, sent, "the second connection runs clean");
    assert_eq!(proxy.log(), log, "and injects nothing");

    let proxy = ChaosProxy::start(target, &[(Dir::Up, Reset, 2, 0)], 1, 7);
    fetch(&proxy, b"a\nb\nc\n", usize::MAX);
    assert_eq!(proxy.log(), [(0, Dir::Up, 2, Reset, None)], "upstream");
}
