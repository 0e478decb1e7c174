//! Failure-mode tests of the serving layer: heartbeats, idle reaping,
//! oversized-line recovery, fairness under a pipelining flood, leak-free
//! teardown of abruptly-vanished clients, and client-side
//! reconnect/resume.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use topk_monitor::service::{
    apply_push, ClientError, ClientStatus, Push, ReconnectPolicy, Service, ServiceClient,
    ServiceConfig,
};
use topk_monitor::ServerConfig;

/// Number of threads in this process, from /proc/self/status. `None` when
/// the platform doesn't expose it (the caller then skips thread-count
/// assertions but keeps the rest of its checks).
fn thread_count() -> Option<usize> {
    let mut text = String::new();
    std::fs::File::open("/proc/self/status")
        .ok()?
        .read_to_string(&mut text)
        .ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn ask(raw: &mut TcpStream, lines: &mut BufReader<TcpStream>, req: &str) -> String {
    raw.write_all(req.as_bytes()).expect("write");
    raw.write_all(b"\n").expect("write nl");
    // Skip asynchronous pushes (e.g. the baseline SNAPSHOT a SUBSCRIBE
    // enqueues before its OK): the reply is the first OK/ERR line.
    loop {
        let mut line = String::new();
        lines.read_line(&mut line).expect("read");
        let line = line.trim();
        if line.starts_with("OK") || line.starts_with("ERR") {
            return line.to_string();
        }
    }
}

#[test]
fn ping_pong_heartbeat() {
    let service =
        Service::bind("127.0.0.1:0", ServiceConfig::new(ServerConfig::sma(2, 10))).expect("bind");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    client.ping().expect("ping");
    client.ping().expect("ping again");
    client.quit().expect("quit");
    service.shutdown();
}

/// An oversized request line is answered with `ERR parse` and the session
/// keeps working — it used to kill the connection. Same for binary junk
/// that is not UTF-8, for a hostile `k` that must be rejected before it
/// reaches an allocator, and for a `TICKAT` the clock cannot move past.
#[test]
fn oversized_and_binary_lines_answer_err_and_survive() {
    let service =
        Service::bind("127.0.0.1:0", ServiceConfig::new(ServerConfig::sma(2, 10))).expect("bind");
    let mut raw = TcpStream::connect(service.local_addr()).expect("connect");
    let mut lines = BufReader::new(raw.try_clone().expect("clone"));

    // 1.5 MiB of 'a' in one line: over the 1 MiB cap.
    let huge = vec![b'a'; 3 << 19];
    raw.write_all(&huge).expect("write huge");
    raw.write_all(b"\n").expect("write nl");
    let mut line = String::new();
    lines.read_line(&mut line).expect("read");
    assert!(
        line.starts_with("ERR parse ") && line.contains("exceeds"),
        "oversized line reply: {line:?}"
    );

    // The session survived: next request answered normally.
    assert_eq!(ask(&mut raw, &mut lines, "PING"), "OK pong");

    // A complete line of invalid UTF-8 is also an ERR, not a hangup.
    raw.write_all(&[0xC3, 0x28, 0xFF, b'\n']).expect("binary");
    let mut line = String::new();
    lines.read_line(&mut line).expect("read");
    assert!(
        line.starts_with("ERR parse ") && line.contains("UTF-8"),
        "binary line reply: {line:?}"
    );
    assert_eq!(ask(&mut raw, &mut lines, "PING"), "OK pong");

    let reply = ask(&mut raw, &mut lines, "REGISTER k=999999999999 weights=1,1");
    assert!(reply.starts_with("ERR bad-arg "), "huge k reply: {reply:?}");

    // A timestamp with no successor used to panic the engine owner (debug)
    // or wrap the clock to @0 and strand every later TICK (release).
    let reply = ask(&mut raw, &mut lines, "TICKAT 18446744073709551615 0.5 0.5");
    assert!(
        reply.starts_with("ERR bad-arg "),
        "TICKAT u64::MAX: {reply:?}"
    );
    let reply = ask(&mut raw, &mut lines, "TICK 0.5 0.5");
    assert!(reply.starts_with("OK @1 "), "TICK after it: {reply:?}");
    assert_eq!(ask(&mut raw, &mut lines, "QUIT"), "OK bye");
    service.shutdown();
}

/// A connection silent in both directions past the idle deadline is
/// reaped (counted in `STATS reaped=`); a connection that heartbeats
/// stays alive across many deadlines.
#[test]
fn idle_sessions_are_reaped_heartbeats_are_not() {
    let cfg =
        ServiceConfig::new(ServerConfig::sma(2, 10)).with_idle_timeout(Duration::from_millis(150));
    let service = Service::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = service.local_addr();

    // The victim: connects and never speaks.
    let victim = TcpStream::connect(addr).expect("victim connect");
    // The observer polls STATS; every request is activity, so it is never
    // idle itself.
    let mut observer = ServiceClient::connect(addr).expect("observer");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = observer.stats().expect("stats");
        if stats["reaped"] == "1" && stats["sessions"] == "1" {
            break;
        }
        assert!(Instant::now() < deadline, "victim never reaped: {stats:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
    // The reaped socket is actually closed: reads see EOF (tolerating a
    // timeout instead of flaking on scheduler delay).
    let mut probe = victim.try_clone().expect("clone");
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = [0u8; 8];
    assert_eq!(probe.read(&mut buf).unwrap_or(0), 0, "victim socket EOF");

    // A silent-but-heartbeating client outlives many idle deadlines. The
    // observer polls along so it does not go idle itself.
    let mut beater = ServiceClient::connect(addr).expect("beater");
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(80));
        beater.ping().expect("heartbeat");
        observer.stats().expect("observer heartbeat");
    }
    let stats = observer.stats().expect("stats");
    assert_eq!(stats["reaped"], "1", "the heartbeater was not reaped");
    beater.quit().expect("quit");
    observer.quit().expect("quit");
    service.shutdown();
}

/// The writer-thread leak regression: a subscriber that vanishes without
/// closing its socket (keeps the connection open, stops reading) used to
/// leave its writer thread blocked forever and its `DeltaRouter`
/// subscription (plus router bytes) leaked. With a write deadline the
/// session is poisoned, both its threads exit, and the subscription is
/// dropped — counters return to baseline.
#[test]
fn abrupt_disconnect_reaps_threads_and_subscriptions() {
    let cfg = ServiceConfig::new(ServerConfig::sma(2, 64))
        .with_write_timeout(Duration::from_millis(200))
        .with_push_queue(1 << 20); // no resyncs: keep the socket filling
    let service = Service::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = service.local_addr();

    let mut ingest = ServiceClient::connect(addr).expect("ingest");
    let q = ingest.register_linear(64, &[1.0, 1.0]).expect("register");

    let baseline_stats = ingest.stats().expect("stats");
    let baseline_router: u64 = baseline_stats["router_bytes"]
        .parse()
        .expect("router_bytes");
    let baseline_threads = thread_count();

    // The deadbeat subscriber: subscribes, then never reads again while
    // keeping the connection open.
    let deadbeat = TcpStream::connect(addr).expect("deadbeat connect");
    {
        let mut w = deadbeat.try_clone().expect("clone");
        let mut lines = BufReader::new(deadbeat.try_clone().expect("clone"));
        let reply = ask(&mut w, &mut lines, &format!("SUBSCRIBE {q}"));
        assert!(reply.starts_with("OK"), "subscribe reply: {reply:?}");
    }
    let wait = Instant::now() + Duration::from_secs(5);
    loop {
        if ingest.stats().expect("stats")["subscriptions"] == "1" {
            break;
        }
        assert!(Instant::now() < wait, "subscription never registered");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Flood pushes until the deadbeat's socket buffers fill and the
    // server writer trips the write deadline; teardown must drop the
    // subscription. Each tick replaces the whole count-64 window, so
    // every delta churns the full top-64 result.
    let mut state = 0x5eed_u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let mut batch = Vec::with_capacity(64 * 2);
        for _ in 0..64 * 2 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            batch.push(((state >> 11) % 4096) as f64 / 4095.0);
        }
        ingest.tick(&batch).expect("tick");
        let stats = ingest.stats().expect("stats");
        if stats["subscriptions"] == "0" && stats["sessions"] == "1" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "deadbeat session never torn down: {stats:?}"
        );
    }

    // Router memory accounting returns to baseline.
    let stats = ingest.stats().expect("stats");
    let router: u64 = stats["router_bytes"].parse().expect("router_bytes");
    assert!(
        router <= baseline_router,
        "router bytes leaked: {router} > {baseline_router}"
    );

    // Both session threads (reader + writer) exit. Thread counts are
    // process-global, so poll until we are back at (or below) the
    // baseline; skipped silently where /proc is unavailable.
    if let Some(base) = baseline_threads {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match thread_count() {
                None => break,
                Some(now) if now <= base => break,
                Some(now) => {
                    assert!(
                        Instant::now() < deadline,
                        "threads leaked: {now} > baseline {base}"
                    );
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    }
    drop(deadbeat);
    ingest.quit().expect("quit");
    service.shutdown();
}

/// A pipelining client cannot starve a quiet one: the loop serves at
/// most a budget of each session's requests per wakeup and leaves the
/// rest for the next pass, so a `STATS` sent while a flood of heavy ticks
/// is being worked through is answered before the flood ends — it counts
/// fewer ticks than the flood holds (an ordering check, not a timing
/// one) — and the flooder still gets every reply, in order.
#[test]
fn pipelining_flood_cannot_starve_a_quiet_client() {
    let service = Service::bind(
        "127.0.0.1:0",
        ServiceConfig::new(ServerConfig::sma(2, 2000)),
    )
    .expect("bind");
    let addr = service.local_addr();

    // Queries make ticks expensive: every arrival is scored per query.
    let mut setup = ServiceClient::connect(addr).expect("setup");
    for i in 0..8 {
        let w = 1.0 + f64::from(i) / 8.0;
        setup.register_linear(32, &[w, 2.0 - w]).expect("register");
    }
    setup.quit().expect("quit");

    // Many times the per-wakeup budget of 5k-tuple ticks, pipelined.
    const TICKS: u64 = 128;
    let heavy = {
        let mut line = String::from("TICK");
        for i in 0..200 {
            line.push_str(if i % 2 == 0 { " 0.5" } else { " 0.25" });
        }
        line.push('\n');
        line
    };
    let mut flooder = TcpStream::connect(addr).expect("flooder");
    let mut flooder_lines = BufReader::new(flooder.try_clone().expect("clone"));
    let writer = std::thread::spawn(move || {
        for _ in 0..TICKS {
            flooder.write_all(heavy.as_bytes()).expect("write heavy");
        }
        flooder
    });
    // Each tick reply carries the clock, one step per tick.
    let mut read_tick = || {
        let mut line = String::new();
        flooder_lines.read_line(&mut line).expect("tick reply");
        let now = line
            .strip_prefix("OK @")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|ts| ts.parse::<u64>().ok());
        now.unwrap_or_else(|| panic!("tick reply: {line:?}"))
    };
    // The first reply: the flood is being served.
    let first = read_tick();

    let mut quiet = TcpStream::connect(addr).expect("quiet");
    let mut quiet_lines = BufReader::new(quiet.try_clone().expect("clone"));
    let stats = ask(&mut quiet, &mut quiet_lines, "STATS");
    let ticks: u64 = stats
        .split(' ')
        .find_map(|kv| kv.strip_prefix("ticks="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("STATS carries ticks=: {stats:?}"));
    assert!(
        ticks < TICKS,
        "the quiet client waited out the whole flood: {stats:?}"
    );

    let mut last = first;
    for _ in 1..TICKS {
        let now = read_tick();
        assert_eq!(now, last + 1, "tick replies in order");
        last = now;
    }
    let mut flooder = writer.join().expect("writer");
    assert_eq!(ask(&mut quiet, &mut quiet_lines, "QUIT"), "OK bye");
    assert_eq!(ask(&mut flooder, &mut flooder_lines, "QUIT"), "OK bye");
    service.shutdown();
}

/// Client-side self-healing: the connection dies mid-stream; the client
/// reconnects with backoff, re-`SUBSCRIBE`s, surfaces Degraded/Recovered,
/// and its `apply_push` mirror re-baselines through the synthetic
/// RESYNC/SNAPSHOT pushes to match the live result bit-exactly.
#[test]
fn client_reconnects_resubscribes_and_rebaselines() {
    let service =
        Service::bind("127.0.0.1:0", ServiceConfig::new(ServerConfig::sma(2, 100))).expect("bind");
    let addr = service.local_addr();

    let mut ingest = ServiceClient::connect(addr).expect("ingest");
    let q = ingest.register_linear(5, &[1.0, 2.0]).expect("register");

    let policy = ReconnectPolicy {
        base: Duration::from_millis(5),
        max: Duration::from_millis(50),
        retries: 10,
        ..ReconnectPolicy::default()
    };
    let mut sub = ServiceClient::connect(addr)
        .expect("subscriber")
        .with_reconnect(policy);
    let baseline = sub.subscribe(q).expect("subscribe");
    let mut mirror: BTreeMap<_, _> = [(q, baseline)].into_iter().collect();

    ingest.tick(&[0.9, 0.9, 0.1, 0.2]).expect("tick 1");
    match sub.next_push().expect("delta 1") {
        p @ Push::Delta { .. } => {
            apply_push(&mut mirror, &p);
        }
        other => panic!("expected a delta, got {other:?}"),
    }

    // A tick the subscriber will never see: its connection is torn down
    // before reading, and the re-baseline must repair the loss.
    ingest.tick(&[0.8, 0.8, 0.2, 0.2]).expect("tick 2");
    sub.resume().expect("resume");
    assert!(sub.reconnects() >= 1, "resume recorded");
    let mut saw_degraded = false;
    let mut saw_recovered = false;
    while let Some(status) = sub.take_status() {
        match status {
            ClientStatus::Degraded { .. } => saw_degraded = true,
            ClientStatus::Recovered { resubscribed, .. } => {
                assert_eq!(resubscribed, 1);
                saw_recovered = true;
            }
        }
    }
    assert!(saw_degraded && saw_recovered, "status transitions surfaced");

    // The resumed stream re-baselines the mirror: RESYNC then SNAPSHOT.
    match sub.next_push().expect("resync marker") {
        Push::Resync { count } => assert_eq!(count, 1),
        other => panic!("expected RESYNC, got {other:?}"),
    }
    match sub.next_push().expect("baseline") {
        p @ Push::Snapshot { .. } => {
            apply_push(&mut mirror, &p);
        }
        other => panic!("expected SNAPSHOT, got {other:?}"),
    }
    let (_, truth) = sub.snapshot(q).expect("snapshot");
    assert_eq!(mirror[&q], truth, "re-baselined mirror matches the server");

    // Delta flow continues on the resumed session, still bit-exact.
    ingest.tick(&[0.95, 0.95]).expect("tick 3");
    let p = sub.next_push().expect("delta 3");
    apply_push(&mut mirror, &p);
    let (_, truth) = sub.snapshot(q).expect("snapshot");
    assert_eq!(mirror[&q], truth, "post-resume deltas stay exact");

    // Once the server is gone for good, reconnecting gives up cleanly.
    ingest.quit().expect("quit");
    service.shutdown();
    let err = loop {
        match sub.next_push() {
            Ok(_) => continue, // drain any straggler pushes
            Err(e) => break e,
        }
    };
    assert!(
        matches!(err, ClientError::Io(_)),
        "exhausted retries surface as Io, got {err:?}"
    );
}
