//! Distributed-tier integration tests: a coordinator merging per-site
//! candidate deltas must track a single-node oracle bit-exactly, keep
//! serving (flagged `DEGRADED`) while a site is down, reap silent sites
//! through the lease, reconverge across uplink resets, read coordinator
//! traffic as events, survive a coordinator that refuses or ignores the
//! hello, and ship at least 5× fewer uplink bytes than forwarding the
//! stream would.

mod chaos_proxy;

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use chaos_proxy::{ChaosProxy, Dir, Kind};
use topk_monitor::datagen::{DataDist, PointGen};
use topk_monitor::service::{
    apply_push, Family, Push, Role, Service, ServiceClient, ServiceConfig, SiteRole,
};
use topk_monitor::{QueryId, Scored, ServerConfig, Timestamp, WindowSpec};

/// Deterministic per-(seed) batch of `tuples` points in `[0,1)^dims`.
fn batch(seed: u64, dims: usize, tuples: usize) -> Vec<f64> {
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..dims * tuples)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((s >> 33) as f64) / (u64::from(u32::MAX) as f64)
        })
        .collect()
}

fn bind_coordinator(cfg: &ServerConfig) -> Service {
    Service::bind(
        "127.0.0.1:0",
        ServiceConfig::new(*cfg).with_role(Role::Coordinator),
    )
    .expect("bind coordinator")
}

fn bind_site(cfg: &ServerConfig, role: SiteRole) -> (Service, ServiceClient) {
    let svc = Service::bind(
        "127.0.0.1:0",
        ServiceConfig::new(*cfg).with_role(Role::Site(role)),
    )
    .expect("bind site");
    let driver = ServiceClient::connect(svc.local_addr()).expect("connect site driver");
    (svc, driver)
}

/// The single-node oracle is a *standalone* service fed the full global
/// stream — identical code paths (parser, query builder, engine) with no
/// distribution, so any mesh/oracle mismatch is the mesh's fault.
fn bind_oracle(cfg: &ServerConfig) -> (Service, ServiceClient) {
    let svc = Service::bind("127.0.0.1:0", ServiceConfig::new(*cfg)).expect("bind oracle");
    let client = ServiceClient::connect(svc.local_addr()).expect("connect oracle");
    (svc, client)
}

/// Drives empty catch-up cycles (advancing time in lockstep on the mesh
/// and the oracle) until the coordinator's published results match the
/// oracle's for every query. Extra cycles re-dial dropped uplinks, re-ship
/// baselines after heals, and advance the frontier past in-flight markers.
fn settle(
    control: &mut ServiceClient,
    oracle: &mut ServiceClient,
    drivers: &mut [&mut ServiceClient],
    ts: &mut u64,
    queries: &[QueryId],
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        *ts += 1;
        for d in drivers.iter_mut() {
            let _ = d.site_ingest(Timestamp(*ts), 0, &[]);
        }
        oracle.tick_at(Timestamp(*ts), &[]).expect("oracle tick");
        let mut matched = true;
        for &q in queries {
            let got = control.snapshot(q).expect("coordinator snapshot").1;
            let want = oracle.snapshot(q).expect("oracle snapshot").1;
            if got != want {
                matched = false;
                break;
            }
        }
        if matched {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "mesh failed to reconverge with the oracle by t={ts}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Pumps the subscriber's socket (a `PING` reply is a read barrier) and
/// drains buffered pushes: result pushes into `mirror`, `DEGRADED` site
/// lists into `degradations`.
fn pump(
    subscriber: &mut ServiceClient,
    mirror: &mut BTreeMap<QueryId, Vec<Scored>>,
    degradations: &mut Vec<Vec<u64>>,
) {
    subscriber.ping().expect("subscriber ping");
    while let Some(push) = subscriber.try_buffered_push() {
        if let Push::Degraded { sites, .. } = &push {
            degradations.push(sites.clone());
        } else {
            apply_push(mirror, &push);
        }
    }
}

/// Two sites against the in-process oracle: 30 cycles of partitioned
/// ingest, a second (ranged, product-scored) query registered mid-run and
/// adopted by the sites on the fly, then bit-exact convergence on both
/// queries — through snapshots *and* through a subscriber's delta mirror.
#[test]
fn mesh_matches_single_node_oracle() {
    let cfg = ServerConfig::sma(2, 64).with_window(WindowSpec::Time(8));
    let coordinator = bind_coordinator(&cfg);
    let coord_addr = coordinator.local_addr().to_string();
    let mut control = ServiceClient::connect(coordinator.local_addr()).expect("connect control");
    let mut subscriber =
        ServiceClient::connect(coordinator.local_addr()).expect("connect subscriber");
    let (oracle_svc, mut oracle) = bind_oracle(&cfg);

    let q0 = control
        .register(3, &[1.0, 0.5], Family::Linear, None, None)
        .expect("register q0");
    assert_eq!(
        q0,
        oracle
            .register(3, &[1.0, 0.5], Family::Linear, None, None)
            .expect("oracle q0")
    );
    assert!(subscriber.subscribe(q0).expect("subscribe q0").is_empty());

    let (site0, mut d0) = bind_site(&cfg, SiteRole::new(0, coord_addr.clone()));
    let (site1, mut d1) = bind_site(&cfg, SiteRole::new(1, coord_addr));

    let mut queries = vec![q0];
    let mut base = 0u64;
    let mut ts = 0u64;
    const PER_SITE: usize = 3;
    for t in 1..=30u64 {
        ts = t;
        let c0 = batch(t * 2, 2, PER_SITE);
        let c1 = batch(t * 2 + 1, 2, PER_SITE);
        d0.site_ingest(Timestamp(t), base, &c0)
            .expect("site 0 ingest");
        d1.site_ingest(Timestamp(t), base + PER_SITE as u64, &c1)
            .expect("site 1 ingest");
        base += 2 * PER_SITE as u64;
        let mut full = c0;
        full.extend_from_slice(&c1);
        oracle.tick_at(Timestamp(t), &full).expect("oracle tick");

        if t == 10 {
            // Mid-run registration: the sites must adopt the new query and
            // ship its baseline without a re-enrollment.
            let range = Some(vec![(0.2, 0.9), (0.0, 0.8)]);
            let q1 = control
                .register(2, &[0.7, 0.3], Family::Product, range.clone(), None)
                .expect("register q1");
            assert_eq!(
                q1,
                oracle
                    .register(2, &[0.7, 0.3], Family::Product, range, None)
                    .expect("oracle q1")
            );
            queries.push(q1);
        }
    }

    settle(
        &mut control,
        &mut oracle,
        &mut [&mut d0, &mut d1],
        &mut ts,
        &queries,
    );

    // The subscriber's delta mirror converges to the same result.
    let want = oracle.snapshot(q0).expect("oracle q0").1;
    assert!(!want.is_empty(), "oracle top-k should not be empty");
    let mut mirror = BTreeMap::new();
    let mut degradations = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        pump(&mut subscriber, &mut mirror, &mut degradations);
        if mirror.get(&q0) == Some(&want) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "subscriber mirror never converged: {:?} vs {want:?}",
            mirror.get(&q0)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        degradations.is_empty(),
        "no site failed, so no DEGRADED pushes: {degradations:?}"
    );

    // Candidate shipping beats naive stream forwarding, and both sites
    // enrolled exactly once.
    for d in [&mut d0, &mut d1] {
        let stats = d.stats().expect("site stats");
        assert_eq!(stats["role"], "site");
        assert_eq!(stats["uplink"], "up");
        assert_eq!(stats["adopted"], "2");
        assert_eq!(stats["enrollments"], "1");
        assert_eq!(stats["translate_misses"], "0");
        let shipped: u64 = stats["bytes_shipped"].parse().unwrap();
        let naive: u64 = stats["bytes_naive"].parse().unwrap();
        assert!(
            shipped > 0 && naive > shipped,
            "shipped {shipped} vs naive {naive}"
        );
    }
    let stats = control.stats().expect("coordinator stats");
    assert_eq!(stats["role"], "coordinator");
    assert_eq!(stats["sites"], "2");
    assert_eq!(stats["sites_live"], "2");
    assert_eq!(stats["degraded_sites"], "");

    // Role guard: a site serves no client-plane verbs, a coordinator no
    // raw ingest.
    assert!(d0.register_linear(3, &[1.0, 0.5]).is_err());
    assert!(control.tick_at(Timestamp(ts + 1), &[0.1, 0.2]).is_err());

    site0.shutdown();
    site1.shutdown();
    oracle_svc.shutdown();
    coordinator.shutdown();
}

/// A killed site degrades the mesh but never stops it: the coordinator
/// keeps serving (flagged `DEGRADED s2`), the restarted site re-enrolls,
/// heals the flag, and the mesh reconverges with the oracle bit-exactly.
#[test]
fn coordinator_serves_through_site_kill_and_heals() {
    let cfg = ServerConfig::sma(2, 64).with_window(WindowSpec::Time(6));
    let coordinator = bind_coordinator(&cfg);
    let coord_addr = coordinator.local_addr().to_string();
    let mut control = ServiceClient::connect(coordinator.local_addr()).expect("connect control");
    let mut subscriber =
        ServiceClient::connect(coordinator.local_addr()).expect("connect subscriber");
    let (oracle_svc, mut oracle) = bind_oracle(&cfg);

    let q0 = control
        .register_linear(3, &[0.8, 0.6])
        .expect("register q0");
    oracle.register_linear(3, &[0.8, 0.6]).expect("oracle q0");
    subscriber.subscribe(q0).expect("subscribe q0");

    let (site0, mut d0) = bind_site(&cfg, SiteRole::new(0, coord_addr.clone()));
    let (site1, mut d1) = bind_site(&cfg, SiteRole::new(1, coord_addr.clone()));
    let (site2, mut d2) = bind_site(&cfg, SiteRole::new(2, coord_addr.clone()));

    let mut mirror = BTreeMap::new();
    let mut degradations = Vec::new();
    let mut base = 0u64;
    let mut ts = 0u64;
    const PER_SITE: usize = 2;

    let feed = |d: &mut ServiceClient, t: u64, seed: u64, base: &mut u64| -> Vec<f64> {
        let c = batch(seed, 2, PER_SITE);
        d.site_ingest(Timestamp(t), *base, &c).expect("site ingest");
        *base += PER_SITE as u64;
        c
    };

    for t in 1..=10u64 {
        ts = t;
        let mut full = feed(&mut d0, t, t * 3, &mut base);
        full.extend(feed(&mut d1, t, t * 3 + 1, &mut base));
        full.extend(feed(&mut d2, t, t * 3 + 2, &mut base));
        oracle.tick_at(Timestamp(t), &full).expect("oracle tick");
    }

    // Kill site 2 outright. The coordinator sees the uplink EOF, degrades
    // the merge, and tells the subscriber.
    drop(d2);
    site2.shutdown();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !degradations.iter().any(|s| s == &vec![2]) {
        assert!(
            Instant::now() < deadline,
            "DEGRADED s2 never reached the subscriber: {degradations:?}"
        );
        pump(&mut subscriber, &mut mirror, &mut degradations);
        std::thread::sleep(Duration::from_millis(10));
    }

    // A subscriber arriving mid-outage is warned immediately.
    let mut late = ServiceClient::connect(coordinator.local_addr()).expect("connect late");
    late.subscribe(q0).expect("late subscribe");
    let mut late_mirror = BTreeMap::new();
    let mut late_degr = Vec::new();
    pump(&mut late, &mut late_mirror, &mut late_degr);
    assert!(
        late_degr.iter().any(|s| s == &vec![2]),
        "new subscriber was not told about the outage: {late_degr:?}"
    );

    // Two sites carry the stream; the coordinator keeps serving.
    for t in 11..=19u64 {
        ts = t;
        let mut full = feed(&mut d0, t, t * 3, &mut base);
        full.extend(feed(&mut d1, t, t * 3 + 1, &mut base));
        oracle.tick_at(Timestamp(t), &full).expect("oracle tick");
        control.snapshot(q0).expect("snapshot while degraded");
    }
    let stats = control.stats().expect("coordinator stats");
    assert_eq!(stats["degraded_sites"], "2");
    assert_eq!(stats["sites_live"], "2");

    // Restart site 2 under the same identity (a fresh port is fine — the
    // coordinator keys liveness on the site id, not the socket).
    let (site2b, mut d2) = bind_site(&cfg, SiteRole::new(2, coord_addr));
    for t in 20..=30u64 {
        ts = t;
        let mut full = feed(&mut d0, t, t * 3, &mut base);
        full.extend(feed(&mut d1, t, t * 3 + 1, &mut base));
        full.extend(feed(&mut d2, t, t * 3 + 2, &mut base));
        oracle.tick_at(Timestamp(t), &full).expect("oracle tick");
    }

    settle(
        &mut control,
        &mut oracle,
        &mut [&mut d0, &mut d1, &mut d2],
        &mut ts,
        &[q0],
    );

    // The heal was announced: an empty DEGRADED site list after the s2 one.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !degradations.iter().any(|s| s.is_empty()) {
        assert!(
            Instant::now() < deadline,
            "heal was never announced: {degradations:?}"
        );
        pump(&mut subscriber, &mut mirror, &mut degradations);
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = control.stats().expect("coordinator stats");
    assert_eq!(stats["degraded_sites"], "");
    assert_eq!(stats["sites_live"], "3");
    let stats = d2.stats().expect("restarted site stats");
    assert_eq!(stats["enrollments"], "1");

    site0.shutdown();
    site1.shutdown();
    site2b.shutdown();
    oracle_svc.shutdown();
    coordinator.shutdown();
}

/// A site that enrolls and then goes silent misses its lease: the idle
/// reaper tears the session down, the coordinator degrades the merge and
/// keeps answering snapshots.
#[test]
fn silent_site_misses_its_lease_and_is_reaped() {
    let cfg = ServerConfig::sma(2, 16);
    let coordinator = Service::bind(
        "127.0.0.1:0",
        ServiceConfig::new(cfg)
            .with_role(Role::Coordinator)
            .with_idle_timeout(Duration::from_millis(150)),
    )
    .expect("bind coordinator");
    let mut control = ServiceClient::connect(coordinator.local_addr()).expect("connect control");
    let q0 = control
        .register_linear(2, &[1.0, 1.0])
        .expect("register q0");

    let mut silent = ServiceClient::connect(coordinator.local_addr()).expect("connect site");
    assert_eq!(silent.enroll_site(7, 2).expect("enroll"), 7);
    let stats = control.stats().expect("stats");
    assert_eq!(stats["sites"], "1");
    assert_eq!(stats["sites_live"], "1");

    // No heartbeat markers: the lease lapses and the reaper fires. The
    // control client's own polling keeps *it* alive.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = control.stats().expect("stats");
        if stats["degraded_sites"] == "7" {
            assert_eq!(stats["sites_live"], "0");
            assert!(
                stats["reaped"].parse::<u64>().unwrap() >= 1,
                "reaped: {stats:?}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "silent site was never reaped: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(30));
    }

    // Degraded, not down: snapshots still answer.
    let (_, entries) = control.snapshot(q0).expect("snapshot while degraded");
    assert!(entries.is_empty());
    drop(silent);
    coordinator.shutdown();
}

/// One site reaches its coordinator through a proxy that resets the first
/// two uplink connections at their 25th upstream line, forcing redials and
/// re-enrollments; every heal re-ships the site's baseline and the mesh
/// still lands bit-exact on the oracle.
#[test]
fn uplink_resets_redial_and_reconverge() {
    let cfg = ServerConfig::sma(2, 64).with_window(WindowSpec::Time(8));
    let coordinator = bind_coordinator(&cfg);
    let coord_addr = coordinator.local_addr().to_string();
    let mut control = ServiceClient::connect(coordinator.local_addr()).expect("connect control");
    let (oracle_svc, mut oracle) = bind_oracle(&cfg);

    let q0 = control
        .register_linear(3, &[0.4, 0.9])
        .expect("register q0");
    oracle.register_linear(3, &[0.4, 0.9]).expect("oracle q0");

    let (site0, mut d0) = bind_site(&cfg, SiteRole::new(0, coord_addr));
    let resets = [(Dir::Up, Kind::Reset, 25, 0)];
    let flaky = ChaosProxy::start(coordinator.local_addr(), &resets, 2, 42);
    let (site1, mut d1) = bind_site(&cfg, SiteRole::new(1, flaky.addr().to_string()));

    let mut base = 0u64;
    let mut ts = 0u64;
    const PER_SITE: usize = 2;
    for t in 1..=40u64 {
        ts = t;
        let c0 = batch(t * 5, 2, PER_SITE);
        let c1 = batch(t * 5 + 1, 2, PER_SITE);
        d0.site_ingest(Timestamp(t), base, &c0)
            .expect("site 0 ingest");
        d1.site_ingest(Timestamp(t), base + PER_SITE as u64, &c1)
            .expect("site 1 ingest");
        base += 2 * PER_SITE as u64;
        let mut full = c0;
        full.extend_from_slice(&c1);
        oracle.tick_at(Timestamp(t), &full).expect("oracle tick");
    }

    settle(
        &mut control,
        &mut oracle,
        &mut [&mut d0, &mut d1],
        &mut ts,
        &[q0],
    );

    let stats = d1.stats().expect("faulty site stats");
    let enrollments: u64 = stats["enrollments"].parse().unwrap();
    let errors: u64 = stats["uplink_errors"].parse().unwrap();
    assert!(
        enrollments >= 2,
        "resets should force re-enrollment: {stats:?}"
    );
    assert!(errors >= 1, "resets should be counted: {stats:?}");
    assert!(!flaky.log().is_empty(), "the proxy never reset the uplink");

    site0.shutdown();
    site1.shutdown();
    oracle_svc.shutdown();
    coordinator.shutdown();
}

/// A query registered after a site enrolled reaches the site on its
/// uplink session's readiness alone: with no further `SITETICK`, the
/// site adopts it. Each `STATS` round trip paces the site's loop.
#[test]
fn adopt_is_read_as_an_event() {
    let cfg = ServerConfig::sma(2, 16);
    let coordinator = bind_coordinator(&cfg);
    let mut control = ServiceClient::connect(coordinator.local_addr()).expect("connect control");
    let (site, mut driver) =
        bind_site(&cfg, SiteRole::new(0, coordinator.local_addr().to_string()));
    driver
        .site_ingest(Timestamp(1), 0, &[])
        .expect("enrolling cycle");
    let stats = driver.stats().expect("site stats");
    assert_eq!(stats["enrollments"], "1");
    assert_eq!(stats["adopted"], "0");

    control
        .register_linear(2, &[1.0, 1.0])
        .expect("register q0");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = driver.stats().expect("site stats");
        if stats["adopted"] == "1" {
            assert_eq!(stats["ticks"], "1", "no ingest ran: {stats:?}");
            assert_eq!(stats["uplink_errors"], "0");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the ADOPT was never read: {stats:?}"
        );
    }

    site.shutdown();
    coordinator.shutdown();
}

/// A coordinator that refuses the dial, and one whose kernel completes the
/// handshake but which never answers the hello: either way the site's
/// cycle still answers `OK` within the 2 s hello deadline plus 1 s, and
/// the uplink stays down. Only the unanswered hello counts as an uplink
/// error.
#[test]
fn failed_dial_and_unanswered_hello_leave_the_uplink_down() {
    let refusing = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind silent coordinator");
    let cfg = ServerConfig::sma(2, 16);
    for (coordinator, errors) in [(refusing, "0"), (silent.local_addr().expect("addr"), "1")] {
        let (site, mut driver) = bind_site(&cfg, SiteRole::new(0, coordinator.to_string()));
        let started = Instant::now();
        driver
            .site_ingest(Timestamp(1), 0, &[0.5, 0.5])
            .expect("the cycle answers without its coordinator");
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(3),
            "SITETICK against {coordinator} took {took:?}"
        );
        let stats = driver.stats().expect("site stats");
        assert_eq!(stats["uplink"], "down", "{coordinator}: {stats:?}");
        assert_eq!(stats["enrollments"], "0", "{coordinator}: {stats:?}");
        assert_eq!(stats["uplink_errors"], errors, "{coordinator}: {stats:?}");
        assert_eq!(stats["ticks"], "1", "{coordinator}: {stats:?}");
        site.shutdown();
    }
    drop(silent);
}

/// One run of the uplink-efficiency shape (3 sites, d = 2, a 10-tick time
/// window, 4 linear top-8 queries, 40 cycles of 200 tuples split
/// contiguously, then a sentinel cycle of 8 max-score tuples that changes
/// every result): the mesh must converge to the oracle; returns the
/// sites' summed (`bytes_shipped`, `bytes_naive`).
fn uplink_bytes(seed: u64) -> (u64, u64) {
    const SITES: usize = 3;
    const RATE: usize = 200;
    const K: usize = 8;
    let cfg = ServerConfig::sma(2, 2_000).with_window(WindowSpec::Time(10));
    let coordinator = bind_coordinator(&cfg);
    let coord_addr = coordinator.local_addr().to_string();
    let mut control = ServiceClient::connect(coordinator.local_addr()).expect("connect control");
    let (oracle_svc, mut oracle) = bind_oracle(&cfg);

    let mut queries = Vec::new();
    for c in 0..4 {
        let weights = [
            0.25 + (c % 7) as f64 / 4.0,
            0.25 + ((c + 3) % 7) as f64 / 4.0,
        ];
        let q = control.register_linear(K, &weights).expect("register");
        assert_eq!(q, oracle.register_linear(K, &weights).expect("oracle q"));
        queries.push(q);
    }
    // Bound after the queries exist: each site adopts all four inside its
    // enrollment hello, so nothing is shipped at a moment that could vary.
    let mut sites: Vec<(Service, ServiceClient)> = (0..SITES)
        .map(|s| bind_site(&cfg, SiteRole::new(s as u64, coord_addr.clone())))
        .collect();

    let mut gen = PointGen::new(2, DataDist::Ind, seed).expect("gen");
    let mut base = 0u64;
    for t in 1..=40u64 {
        let mut full = Vec::with_capacity(RATE * 2);
        for (s, (_, driver)) in sites.iter_mut().enumerate() {
            let n = RATE / SITES + if s + 1 == SITES { RATE % SITES } else { 0 };
            let chunk: Vec<f64> = (0..n).flat_map(|_| gen.point()).collect();
            driver
                .site_ingest(Timestamp(t), base, &chunk)
                .expect("site ingest");
            base += n as u64;
            full.extend(chunk);
        }
        oracle.tick_at(Timestamp(t), &full).expect("oracle tick");
    }
    let mut ts = 41u64;
    let sentinel = vec![1.0; K * 2];
    for (s, (_, driver)) in sites.iter_mut().enumerate() {
        let chunk: &[f64] = if s == 0 { &sentinel } else { &[] };
        driver
            .site_ingest(Timestamp(ts), base, chunk)
            .expect("sentinel ingest");
    }
    oracle
        .tick_at(Timestamp(ts), &sentinel)
        .expect("oracle sentinel");

    // A site ships its cycle before it answers the ingest, so the tallies
    // are final here. `settle` below adds as many catch-up markers as the
    // coordinator's timing needs; they are not part of the measurement.
    let (mut shipped, mut naive) = (0u64, 0u64);
    for (_, driver) in &mut sites {
        let stats = driver.stats().expect("site stats");
        assert_eq!(stats["enrollments"], "1");
        assert_eq!(stats["uplink_errors"], "0");
        shipped += stats["bytes_shipped"].parse::<u64>().unwrap();
        naive += stats["bytes_naive"].parse::<u64>().unwrap();
    }

    let mut drivers: Vec<&mut ServiceClient> = sites.iter_mut().map(|(_, d)| d).collect();
    settle(&mut control, &mut oracle, &mut drivers, &mut ts, &queries);
    for &q in &queries {
        let top = control.snapshot(q).expect("snapshot").1;
        assert_eq!(top.len(), K, "the sentinel fills every top-{K}");
    }

    for (site, _) in sites {
        site.shutdown();
    }
    oracle_svc.shutdown();
    coordinator.shutdown();
    (shipped, naive)
}

/// Candidate shipping must stay at least 5× cheaper than forwarding the
/// raw stream, as an exact byte count: the same seed ships the same bytes
/// twice (43 697 shipped / 311 143 naive at this one, 7.1×).
#[test]
fn uplink_ships_five_times_fewer_bytes_than_forwarding() {
    let (shipped, naive) = uplink_bytes(0xC4A05 ^ 7);
    assert!(
        shipped > 0 && naive >= 5 * shipped,
        "uplink reduction {:.2}x is below the 5x floor: {shipped} shipped vs {naive} naive",
        naive as f64 / shipped.max(1) as f64
    );
    assert_eq!(
        uplink_bytes(0xC4A05 ^ 7),
        (shipped, naive),
        "same seed, different uplink bytes"
    );
}
