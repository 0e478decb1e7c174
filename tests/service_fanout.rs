//! Reactor fan-out soak (PR 10): the epoll serving path under a mixed
//! fleet — steady readers, a mid-soak joiner, an early leaver, one
//! faulted-and-reconnecting session, and one deliberately slow reader
//! forced through the drop-to-snapshot resync — every survivor's
//! `apply_push` mirror bit-exact against an in-process oracle, with the
//! encode-once counter (`STATS encodes=`) pinned to the engine's delta
//! count and strictly below the number of deliveries it amortised.
//!
//! Also here: the two-thread / no-fd-leak regression (hundreds of
//! connect/disconnect cycles against `/proc/self` baselines) and the
//! per-session backpressure determinism check (a slow reader resyncs at
//! the configured cap while a fast subscriber of the *same* query sees a
//! gapless delta stream).

mod chaos_proxy;

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use chaos_proxy::{ChaosProxy, Dir, Kind};
use topk_monitor::service::{
    apply_push, Push, ReconnectPolicy, Service, ServiceClient, ServiceConfig,
};
use topk_monitor::{MonitorServer, Query, QueryId, ScoreFn, Scored, ServerConfig, Timestamp};

/// The tests of this binary share one process, and `/proc/self/fd` lists
/// every thread's descriptors (`thread_count` can filter by thread name,
/// `fd_count` cannot): a neighbour opening sockets mid-churn read as a
/// leak about once in three runs. Every test that opens sockets holds
/// this lock for its whole body, so the churn test's baseline is its own.
static SOCKETS: Mutex<()> = Mutex::new(());

fn sockets_to_myself() -> MutexGuard<'static, ()> {
    // A neighbour that failed while holding the lock opened no more
    // sockets: nothing to protect against.
    SOCKETS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Data coordinates stay strictly below 1.0 (max 30/32), so the sentinel
/// tick of k tuples at exactly (1.0, ..) scores exactly `Σ wᵢ` — beyond
/// anything the data stream can reach.
fn lcg_batch(state: &mut u64, rate: usize, dims: usize) -> Vec<f64> {
    (0..rate * dims)
        .map(|_| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*state >> 11) % 31) as f64 / 32.0
        })
        .collect()
}

fn saw_sentinel(mirror: &BTreeMap<QueryId, Vec<Scored>>, q: QueryId, threshold: f64) -> bool {
    mirror
        .get(&q)
        .is_some_and(|entries| entries.iter().any(|s| s.score.get() >= threshold))
}

/// Reads pushes until the sentinel lands in the mirror, counting applied
/// deltas and observed `RESYNC` markers.
fn follow(
    client: &mut ServiceClient,
    mirror: &mut BTreeMap<QueryId, Vec<Scored>>,
    q: QueryId,
    threshold: f64,
) -> (u64, u64) {
    let (mut deltas, mut resyncs) = (0u64, 0u64);
    while !saw_sentinel(mirror, q, threshold) {
        let push = client.next_push().expect("push stream");
        match &push {
            Push::Delta { .. } => deltas += 1,
            Push::Resync { .. } => resyncs += 1,
            _ => {}
        }
        apply_push(mirror, &push);
    }
    (deltas, resyncs)
}

/// The tentpole soak: ~300 ticks of mixed-fleet traffic over the reactor,
/// then pressure ticks until the non-reading subscriber is forced through
/// a resync, then one sentinel tick. Survivors must reconstruct the
/// oracle exactly, the per-tick encoding must have happened once per
/// routed delta (`encodes == deltas`), and the shared payloads must have
/// been delivered more times than they were encoded.
#[test]
fn fanout_soak_mixed_fleet_matches_oracle_and_encodes_once() {
    let _alone = sockets_to_myself();
    let dims = 2;
    let k = 8;
    let soak_ticks = 300u64;
    let scfg = ServerConfig::sma(dims, 200);

    // The second q2 subscriber dials a proxy that resets its link at the
    // 40th line the service sends down it, mid-soak; it must self-heal
    // through its reconnect policy (the redial passes through clean).
    let cfg = ServiceConfig::new(scfg).with_push_queue(16);
    let service = Service::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = service.local_addr();
    let flaky = ChaosProxy::start(addr, &[(Dir::Down, Kind::Reset, 40, 0)], 1, 0xFA0007);

    // One registering connection keeps wire query ids positional with the
    // oracle's registration order.
    let weights: Vec<Vec<f64>> = vec![
        vec![1.0, 2.0],
        vec![2.0, 1.0],
        vec![1.0, 1.0],
        vec![3.0, 1.0],
    ];
    let thresholds: Vec<f64> = weights.iter().map(|w| w.iter().sum()).collect();
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

    // The fleet connects serially; consumption is concurrent.
    let connect_sub = |dial, q: QueryId, seed: u64| {
        let mut client = ServiceClient::connect(dial)
            .expect("subscriber connect")
            .with_reconnect(ReconnectPolicy {
                base: Duration::from_millis(5),
                max: Duration::from_millis(100),
                retries: 40,
                seed,
                ..ReconnectPolicy::default()
            });
        let baseline = client.subscribe(q).expect("subscribe");
        let mirror: BTreeMap<_, _> = [(q, baseline)].into_iter().collect();
        (client, mirror)
    };
    // One steady reader per query q0..q2.
    let steady: Vec<_> = (0..3)
        .map(|i| connect_sub(addr, qids[i], 0x57EAD0 + i as u64))
        .collect();
    // The faulted second q2 subscriber.
    let faulted = connect_sub(flaky.addr(), qids[2], 0xFA17ED);
    // The leaver — unsubscribes q1 and quits mid-soak.
    let leaver = connect_sub(addr, qids[1], 0x1EAFE5);
    // The slow reader — subscribes q3 and reads nothing until the soak is
    // over.
    let (mut slow, mut slow_mirror) = connect_sub(addr, qids[3], 0x510000);

    let mut handles = Vec::new();
    for (i, (mut client, mut mirror)) in steady.into_iter().enumerate() {
        let (q, threshold) = (qids[i], thresholds[i]);
        handles.push(std::thread::spawn(move || {
            let (deltas, _) = follow(&mut client, &mut mirror, q, threshold);
            (client, mirror, q, deltas)
        }));
    }
    {
        let (mut client, mut mirror) = faulted;
        let (q, threshold) = (qids[2], thresholds[2]);
        handles.push(std::thread::spawn(move || {
            let (deltas, _) = follow(&mut client, &mut mirror, q, threshold);
            (client, mirror, q, deltas)
        }));
    }
    let leaver_handle = {
        let (mut client, mut mirror) = leaver;
        let (q, threshold) = (qids[1], thresholds[1]);
        std::thread::spawn(move || {
            // Apply up to 60 deltas, then leave the fleet for good — the
            // unsubscribe/quit races live fan-out on the same shard.
            let mut deltas = 0u64;
            while deltas < 60 && !saw_sentinel(&mirror, q, threshold) {
                let push = client.next_push().expect("leaver push");
                if matches!(push, Push::Delta { .. }) {
                    deltas += 1;
                }
                apply_push(&mut mirror, &push);
            }
            client.unsubscribe(q).expect("unsubscribe");
            client.quit().expect("leaver quit");
            deltas
        })
    };

    // The soak: 300 ticks into both the service and the oracle, with a
    // new q0 subscriber joining the live stream halfway through.
    let mut rng = 0xD15EA5Eu64;
    let mut joiner_handle = None;
    for t in 0..soak_ticks {
        if t == soak_ticks / 2 {
            let (q, threshold) = (qids[0], thresholds[0]);
            joiner_handle = Some(std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("joiner connect");
                let baseline = client.subscribe(q).expect("joiner subscribe");
                let mut mirror: BTreeMap<_, _> = [(q, baseline)].into_iter().collect();
                let (deltas, _) = follow(&mut client, &mut mirror, q, threshold);
                (client, mirror, q, deltas)
            }));
        }
        let batch = lcg_batch(&mut rng, 12, dims);
        ingest.tick(&batch).expect("tick");
        oracle.tick(&batch).expect("oracle tick");
    }

    // Pressure phase: keep ticking until the slow reader's session queue
    // overflows the 16-push cap and the server re-baselines it (the
    // kernel's socket buffers absorb a while first; the bound is a
    // liveness backstop, not the expectation).
    let mut forced = false;
    for extra in 0..100_000u64 {
        let batch = lcg_batch(&mut rng, 12, dims);
        ingest.tick(&batch).expect("pressure tick");
        oracle.tick(&batch).expect("oracle pressure tick");
        if extra.is_multiple_of(32) {
            let resyncs: u64 = ingest.stats().expect("stats")["resyncs"]
                .parse()
                .expect("resyncs");
            if resyncs >= 1 {
                forced = true;
                break;
            }
        }
    }
    assert!(forced, "the slow reader was never forced through a resync");

    // One unmistakable sentinel tick that outranks all data, ending every
    // follower loop.
    let sentinel: Vec<f64> = vec![1.0; k * dims];
    ingest.tick(&sentinel).expect("sentinel tick");
    oracle.tick(&sentinel).expect("oracle sentinel");

    // Harvest the fleet: steady 0..2, the faulted session, the joiner.
    let mut applied_deltas = 0u64;
    let mut faulted_reconnects = 0u64;
    for (idx, handle) in handles.into_iter().enumerate() {
        let (client, mirror, q, deltas) = handle.join().expect("subscriber thread");
        applied_deltas += deltas;
        if idx == 3 {
            faulted_reconnects = client.reconnects();
        }
        let truth = oracle.result(q).expect("oracle result");
        assert_eq!(
            mirror.get(&q).map(Vec::as_slice),
            Some(truth.as_slice()),
            "subscriber {idx} diverged from the oracle"
        );
    }
    let (_, joiner_mirror, jq, joiner_deltas) = joiner_handle
        .expect("joiner spawned")
        .join()
        .expect("joiner thread");
    applied_deltas += joiner_deltas;
    assert!(joiner_deltas >= 1, "the joiner never saw a live delta");
    assert_eq!(
        joiner_mirror.get(&jq),
        Some(&oracle.result(jq).expect("oracle result")),
        "the mid-soak joiner diverged from the oracle"
    );
    let left_after = leaver_handle.join().expect("leaver thread");
    applied_deltas += left_after;
    assert!(
        left_after >= 1,
        "the leaver never saw a delta before leaving"
    );
    assert!(
        faulted_reconnects >= 1,
        "the faulted session never reconnected"
    );

    // Drain the slow reader: its dropped backlog must have been replaced
    // by a RESYNC + fresh snapshot, after which it reconverges exactly.
    let (slow_deltas, slow_resyncs) = follow(&mut slow, &mut slow_mirror, qids[3], thresholds[3]);
    applied_deltas += slow_deltas;
    assert!(
        slow_resyncs >= 1,
        "the slow reader never saw its RESYNC marker"
    );
    assert_eq!(
        slow_mirror.get(&qids[3]),
        Some(&oracle.result(qids[3]).expect("oracle result")),
        "the resynced slow reader diverged from the oracle"
    );

    // Server-side truth and the encode-once accounting. Every query kept
    // at least one subscriber for the whole run, so every engine delta
    // was routed — and must have been encoded exactly once (`encodes ==
    // deltas`), while the fan-out delivered those shared payloads to
    // more sessions than that (`applied > encodes`).
    let mut verifier = ServiceClient::connect(addr).expect("verifier");
    for (q, w) in qids.iter().zip(&weights) {
        let (_, wire) = verifier.snapshot(*q).expect("snapshot");
        let truth = oracle.result(*q).expect("oracle result");
        assert_eq!(wire, truth, "server snapshot diverged for weights {w:?}");
    }
    let stats = verifier.stats().expect("stats");
    let encodes: u64 = stats["encodes"].parse().expect("encodes");
    let deltas: u64 = stats["deltas"].parse().expect("deltas");
    assert!(encodes > 0, "no deltas were ever encoded: {stats:?}");
    assert_eq!(
        encodes, deltas,
        "each routed delta must be encoded exactly once: {stats:?}"
    );
    assert!(
        applied_deltas > encodes,
        "fan-out amortisation: {applied_deltas} deliveries should exceed \
         {encodes} encodings"
    );
    assert_eq!(flaky.log().len(), 1, "the reset fires once: {stats:?}");
    verifier.quit().expect("verifier quit");
    let _ = ingest.quit();
    service.shutdown();
}

/// Live threads spawned (transitively) by the calling test. Tests of this
/// binary share one process, so the process-wide `Threads:` count moves
/// under a concurrently running neighbour; but a Linux thread inherits
/// its creator's `comm` and the harness names each test thread after its
/// test, so matching on it counts this test's threads only.
fn thread_count() -> Option<usize> {
    let me = std::fs::read_to_string("/proc/thread-self/comm").ok()?;
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter(|t| std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c == me))
            .count(),
    )
}

fn fd_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

/// 500 connect/subscribe/disconnect cycles — half clean `QUIT`s, half
/// abrupt drops — must return the process to its baseline fd and thread
/// counts: the reactor owns all sockets on one thread, so churn
/// may not leak either resource. (Both sides of every connection live in
/// this process, so `/proc/self` sees server-side leaks too.) The thread
/// inventory itself is pinned too: a manual-tick service is the reactor
/// plus the engine owner, nothing else, and `shutdown` joins both.
#[test]
fn connection_churn_leaks_no_fds_or_threads() {
    let _alone = sockets_to_myself();
    if thread_count().is_none() || fd_count().is_none() {
        return; // no /proc — nothing to measure on this platform
    }
    let unbound_threads = thread_count().expect("pre-bind threads");
    let service =
        Service::bind("127.0.0.1:0", ServiceConfig::new(ServerConfig::sma(2, 50))).expect("bind");
    assert_eq!(
        thread_count().expect("bound threads"),
        unbound_threads + 2,
        "a manual-tick service is exactly two threads: reactor + engine owner"
    );
    let addr = service.local_addr();
    let mut control = ServiceClient::connect(addr).expect("control");
    let q = control.register_linear(4, &[1.0, 1.0]).expect("register");

    // Warm-up cycle so lazily-created resources are in the baseline.
    let warm = ServiceClient::connect(addr).expect("warmup");
    drop(warm);
    let settled = |control: &mut ServiceClient| -> bool {
        control.stats().expect("stats")["sessions"] == "1"
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !settled(&mut control) {
        assert!(Instant::now() < deadline, "warm-up session never reaped");
        std::thread::sleep(Duration::from_millis(5));
    }
    let base_threads = thread_count().expect("baseline threads");
    let base_fds = fd_count().expect("baseline fds");

    for cycle in 0..500 {
        let mut client = ServiceClient::connect(addr).expect("cycle connect");
        let baseline = client.subscribe(q).expect("cycle subscribe");
        assert!(baseline.is_empty(), "no data was ever ingested");
        if cycle % 2 == 0 {
            client.quit().expect("cycle quit");
        } else {
            drop(client); // abrupt: the reactor sees EOF and reaps
        }
    }

    // Teardown is asynchronous: wait for the session table to drain, then
    // for the closed fds to disappear from /proc.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if settled(&mut control)
            && fd_count().expect("fds") <= base_fds
            && thread_count().expect("threads") <= base_threads
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leak after churn: {} sessions, {} fds (baseline {base_fds}), \
             {} threads (baseline {base_threads})",
            control.stats().expect("stats")["sessions"],
            fd_count().expect("fds"),
            thread_count().expect("threads"),
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = control.quit();
    service.shutdown();
    // A joined thread can linger in /proc for a moment after `join`.
    let deadline = Instant::now() + Duration::from_secs(30);
    while thread_count().expect("threads") != unbound_threads {
        assert!(
            Instant::now() < deadline,
            "shutdown left {} threads (pre-bind {unbound_threads})",
            thread_count().expect("threads"),
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Backpressure is strictly per-session: a subscriber that stops reading
/// is re-baselined at the configured cap, while a fast subscriber of the
/// *same query* (same shard, same shared payloads) observes every single
/// delta with no gap and never sees a `RESYNC`.
#[test]
fn backpressure_is_per_session_and_fast_readers_see_no_gaps() {
    let _alone = sockets_to_myself();
    let dims = 2;
    let k = 4;
    let scfg = ServerConfig::sma(dims, 200);
    let cfg = ServiceConfig::new(scfg).with_push_queue(8);
    let service = Service::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = service.local_addr();

    let mut ingest = ServiceClient::connect(addr).expect("ingest");
    let q = ingest.register_linear(k, &[1.0, 1.0]).expect("register");
    let mut oracle = MonitorServer::new(scfg).expect("oracle");
    let f = ScoreFn::linear(vec![1.0, 1.0]).expect("weights");
    oracle
        .register(Query::top_k(f, k).expect("query"))
        .expect("oracle register");

    let mut fast = ServiceClient::connect(addr).expect("fast");
    let fast_baseline = fast.subscribe(q).expect("fast subscribe");
    let mut slow = ServiceClient::connect(addr).expect("slow");
    let slow_baseline = slow.subscribe(q).expect("slow subscribe");
    let mut slow_mirror: BTreeMap<_, _> = [(q, slow_baseline)].into_iter().collect();

    // Data tuples score at most ~1.2; the sentinel (1.0, 1.0) scores 2.0.
    let sentinel_score = 2.0;
    let fast_handle = std::thread::spawn(move || {
        let mut mirror: BTreeMap<_, _> = [(q, fast_baseline)].into_iter().collect();
        let mut ats: Vec<Timestamp> = Vec::new();
        let mut resyncs = 0u64;
        while !saw_sentinel(&mirror, q, sentinel_score) {
            let push = fast.next_push().expect("fast push");
            match &push {
                Push::Delta { at, .. } => ats.push(*at),
                Push::Resync { .. } => resyncs += 1,
                _ => {}
            }
            apply_push(&mut mirror, &push);
        }
        (mirror, ats, resyncs)
    });

    // One strictly-increasing tuple per tick: every tick dethrones the
    // top-1, so every tick is guaranteed exactly one DELTA per query —
    // which makes "gapless" checkable as a contiguous timestamp run.
    let mut ticks = 0u64;
    let mut forced = false;
    while ticks < 100_000 {
        ticks += 1;
        let batch = vec![0.5 + ticks as f64 * 1e-6; dims];
        ingest.tick(&batch).expect("tick");
        oracle.tick(&batch).expect("oracle tick");
        if ticks.is_multiple_of(64) {
            let resyncs: u64 = ingest.stats().expect("stats")["resyncs"]
                .parse()
                .expect("resyncs");
            if resyncs >= 1 {
                forced = true;
                break;
            }
        }
    }
    assert!(forced, "the slow reader never hit the push cap");
    let sentinel = vec![1.0; k * dims];
    ingest.tick(&sentinel).expect("sentinel");
    oracle.tick(&sentinel).expect("oracle sentinel");

    let (fast_mirror, ats, fast_resyncs) = fast_handle.join().expect("fast thread");
    assert_eq!(fast_resyncs, 0, "the fast reader must never be resynced");
    let expected: Vec<Timestamp> = (1..=ticks + 1).map(Timestamp).collect();
    assert_eq!(
        ats,
        expected,
        "the fast reader's delta stream has a gap (got {} of {} ticks)",
        ats.len(),
        expected.len()
    );
    assert_eq!(
        fast_mirror.get(&q),
        Some(&oracle.result(q).expect("oracle result")),
        "the fast reader diverged from the oracle"
    );

    // The slow reader drains its (resynced) stream and reconverges. Its
    // stream must read DELTA.. RESYNC SNAPSHOT DELTA..: every delta it
    // receives is the next tick's (no stray delta after a drop and
    // before its RESYNC), and a RESYNC is followed by one SNAPSHOT per
    // subscription before deltas resume from the baseline's tick.
    let mut slow_resyncs = 0u64;
    let mut owed_snapshots = 0usize;
    let mut next_at = Timestamp(1);
    while !saw_sentinel(&slow_mirror, q, sentinel_score) {
        let push = slow.next_push().expect("slow push");
        match &push {
            Push::Delta { at, .. } => {
                assert_eq!(owed_snapshots, 0, "DELTA @{at} inside a RESYNC baseline");
                assert_eq!(*at, next_at, "DELTA across a gap with no RESYNC before it");
                next_at = Timestamp(at.0 + 1);
            }
            Push::Resync { count } => {
                assert_eq!(*count, 1, "one SNAPSHOT per subscription");
                slow_resyncs += 1;
                owed_snapshots = *count;
            }
            Push::Snapshot { query, at, .. } => {
                assert_eq!(owed_snapshots, 1, "SNAPSHOT @{at} not owed by a RESYNC");
                assert_eq!(*query, q);
                assert!(
                    *at >= next_at,
                    "baseline @{at} older than a delivered delta"
                );
                owed_snapshots = 0;
                next_at = Timestamp(at.0 + 1);
            }
            other => panic!("unexpected push on the slow session: {other}"),
        }
        apply_push(&mut slow_mirror, &push);
    }
    assert_eq!(owed_snapshots, 0, "stream ended inside a RESYNC baseline");
    assert!(slow_resyncs >= 1, "the slow reader never saw its RESYNC");
    assert_eq!(
        slow_mirror.get(&q),
        Some(&oracle.result(q).expect("oracle result")),
        "the resynced slow reader diverged from the oracle"
    );

    let _ = ingest.quit();
    service.shutdown();
}
