//! The `tkm_service` TCP server, and the two socket-level measurements
//! nothing else in the repository takes.
//!
//! Three modes:
//!
//! * **serve** (default): bind the wire-protocol server and run until
//!   killed.
//!
//!   ```console
//!   $ cargo run --release -p tkm_bench --bin serve -- \
//!         --addr 127.0.0.1:7171 --dims 2 --window 10000 --tick-ms 100
//!   ```
//!
//! * **`--fanout`**: the subscriber fan-out sweep — for each tier of the
//!   sweep (1k/5k/10k subscribers; one tier with an explicit `--subs N`)
//!   the parent binds a fresh server and spawns *itself* as a
//!   `--fanout-client` child process that opens the whole subscriber
//!   fleet (so each process stays inside its fd limit), drives the tick
//!   loop, and measures how long the reactor takes to push every tick's
//!   delta to the entire fleet. Reports fan-out pushes/s and the push
//!   completion latency distribution per tier, and fails on a missed
//!   delivery or a broken encode-once invariant (server-side
//!   `STATS encodes= == deltas=`).
//!
//! * **`--sites N`**: multi-site mode — N site services each run a local
//!   engine on their shard of the stream and ship only candidate deltas
//!   (plus a per-cycle watermark) to a coordinator that merges them into
//!   the global top-k, while a single-node oracle ingests the full
//!   stream directly. Reports uplink bytes shipped vs naive stream
//!   forwarding and the ingest→merge→push latency distribution, and
//!   fails unless the merged results are bit-exact against the oracle.
//!
//! `--json` prints the measurement as a single JSON object on stdout. A
//! flag this binary does not know, or a value it cannot read, is a usage
//! error (one line on stderr, exit code 2).

// A CLI tool: stdout is the interface.
#![allow(clippy::print_stdout)]

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tkm_bench::cli;
use tkm_core::{EngineKind, MonitorServer, Query, ServerConfig};
use tkm_datagen::{DataDist, PointGen};
use tkm_service::{
    apply_push, FramedLine, LineFramer, Poller, Push, Role, Service, ServiceClient, ServiceConfig,
    SiteRole, TickPolicy, MAX_REQUEST_LINE,
};
use tkm_window::WindowSpec;

#[derive(Debug)]
struct Args {
    addr: String,
    dims: usize,
    window: usize,
    engine: EngineKind,
    tick_ms: u64,
    push_queue: usize,
    clients: usize,
    ticks: usize,
    rate: usize,
    k: usize,
    fanout: bool,
    fanout_client: bool,
    subs: usize,
    sites: usize,
    seed: u64,
    json: bool,
}

/// Every flag this binary reads; anything else is refused.
const FLAGS: &str = "--addr --dims --window --engine --tick-ms --push-queue --clients --ticks \
                     --rate --k --fanout --fanout-client --subs --sites --seed --json";

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    cli::parse_flag(args, flag, default, "a non-negative integer", |v| {
        v.parse().ok()
    })
}

fn parse_engine(name: &str) -> Option<EngineKind> {
    match name {
        "tma" => Some(EngineKind::Tma),
        "sma" => Some(EngineKind::Sma),
        "tsl" => Some(EngineKind::Tsl),
        "oracle" => Some(EngineKind::Oracle),
        _ => None,
    }
}

/// Reads the arguments (program name excluded).
fn parse_args(argv: &[String]) -> Result<Args, String> {
    cli::check_flags(argv, FLAGS)?;
    let fanout = argv.iter().any(|a| a == "--fanout");
    let fanout_client = argv.iter().any(|a| a == "--fanout-client");
    // Fan-out runs are few ticks over huge fleets: per-tick cost scales
    // with subscribers, and each tick already yields one latency sample
    // per subscriber. Multi-site runs push a high per-tick rate:
    // candidate shipping wins over stream forwarding exactly when rate ≫
    // top-k churn, and the byte ratio measures that margin.
    let (ticks, window) = if fanout || fanout_client {
        (12, 2_000)
    } else {
        (150, 10_000)
    };
    Ok(Args {
        addr: cli::parse_flag(argv, "--addr", "127.0.0.1:7171".into(), "host:port", |v| {
            Some(v.to_string())
        })?,
        dims: parse_num(argv, "--dims", 2)?,
        window: parse_num(argv, "--window", window)?,
        engine: cli::parse_flag(
            argv,
            "--engine",
            EngineKind::Sma,
            "tma|sma|tsl|oracle",
            parse_engine,
        )?,
        tick_ms: parse_num(argv, "--tick-ms", 100)?,
        push_queue: parse_num(argv, "--push-queue", 1024)?,
        clients: parse_num(argv, "--clients", 8)?,
        ticks: parse_num(argv, "--ticks", ticks)?,
        rate: parse_num(argv, "--rate", 600)?,
        k: parse_num(argv, "--k", 8)?,
        fanout,
        fanout_client,
        subs: parse_num(argv, "--subs", 0)?,
        sites: parse_num(argv, "--sites", 0)?,
        seed: parse_num(argv, "--seed", 0xC4A05)?,
        json: argv.iter().any(|a| a == "--json"),
    })
}

fn server_config(args: &Args) -> ServerConfig {
    ServerConfig::sma(args.dims, args.window).with_engine(args.engine)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::or_usage_exit(parse_args(&argv));
    if args.fanout_client {
        fanout_client(&args);
    } else if args.fanout {
        fanout(&args);
    } else if args.sites > 0 {
        distrib(&args);
    } else {
        serve_forever(&args);
    }
}

fn serve_forever(args: &Args) {
    let cfg = ServiceConfig::new(server_config(args))
        .with_tick(TickPolicy::Interval(std::time::Duration::from_millis(
            args.tick_ms.max(1),
        )))
        .with_push_queue(args.push_queue);
    let service = Service::bind(args.addr.as_str(), cfg).expect("bind");
    println!(
        "serving {} (dims={}, window={}) on {} — one cycle per {}ms, push cap {}",
        engine_name(args.engine),
        args.dims,
        args.window,
        service.local_addr(),
        args.tick_ms.max(1),
        args.push_queue
    );
    println!("protocol: see the README `Serving` section. Ctrl-C to stop.");
    loop {
        std::thread::park();
    }
}

/// Subscriber-count tiers of the full `--fanout` sweep.
const FANOUT_TIERS: [usize; 3] = [1_000, 5_000, 10_000];
/// Distinct queries backing the fleet; subscriber `i` follows query
/// `i % FANOUT_QUERIES`, so the encode-once path amortizes each tick's
/// `FANOUT_QUERIES` encodes over the whole fleet.
const FANOUT_QUERIES: usize = 64;

fn engine_name(e: EngineKind) -> &'static str {
    match e {
        EngineKind::Tma => "TMA",
        EngineKind::Sma => "SMA",
        EngineKind::Tsl => "TSL",
        EngineKind::Oracle => "ORACLE",
    }
}

/// The `p`-quantile of ascending `sorted` (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[((n as f64 - 1.0) * p).round() as usize],
    }
}

/// Extracts the `@<t>` timestamp of a `DELTA`/`SNAPSHOT` push line
/// without paying for a full parse — the fan-out client classifies tens
/// of thousands of lines per tick on one core.
fn push_at(line: &str) -> Option<u64> {
    let pos = line.find(" @")?;
    let rest = &line[pos + 2..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One subscriber socket of the fan-out fleet.
struct FanSub {
    stream: TcpStream,
    framer: LineFramer,
    /// Highest push timestamp seen (`u64::MAX` once the socket died).
    last_at: u64,
}

/// The `--fanout-client` child process: opens `--subs` subscriber sockets
/// against the parent's server (split across two processes so each side
/// stays inside its fd limit), drives the tick loop from its own ingest
/// connection, and measures per tick how long the server's reactor takes
/// to push that tick's delta to the *entire* fleet. Prints one flat JSON
/// object on stdout for the parent to merge.
fn fanout_client(args: &Args) {
    let n = args.subs.max(1);
    let nq = n.min(FANOUT_QUERIES);
    let addr = args.addr.as_str();

    let mut control = ServiceClient::connect(addr).expect("control connect");
    let mut query_ids = Vec::with_capacity(nq);
    for c in 0..nq {
        let weights: Vec<f64> = (0..args.dims)
            .map(|d| 0.25 + ((c + d * 3) % 7) as f64 / 4.0)
            .collect();
        query_ids.push(control.register_linear(args.k, &weights).expect("register"));
    }

    // The fleet: raw nonblocking sockets driven by the service crate's own
    // exported `Poller`, with its `LineFramer` reassembling the push
    // stream across partial reads. The handshake (baseline `SNAPSHOT`,
    // then `OK`) runs blocking; measurement runs level-triggered.
    let mut poller = Poller::new().expect("poller");
    let mut subs: Vec<FanSub> = Vec::with_capacity(n);
    let mut buf = [0u8; 4096];
    for i in 0..n {
        let q = query_ids[i % nq];
        let mut stream = TcpStream::connect(addr).expect("subscriber connect");
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
            .write_all(format!("SUBSCRIBE {q}\n").as_bytes())
            .expect("subscribe");
        let mut framer = LineFramer::new(MAX_REQUEST_LINE);
        'handshake: loop {
            while let Some(line) = framer.next_line() {
                match line {
                    FramedLine::Line(l) if l.starts_with("OK") => break 'handshake,
                    FramedLine::Line(l) if l.starts_with("ERR") => {
                        panic!("subscriber {i}: {l}")
                    }
                    FramedLine::Line(_) => {} // the baseline SNAPSHOT push
                    bad => panic!("subscriber {i}: framing error {bad:?}"),
                }
            }
            let got = stream.read(&mut buf).expect("handshake read");
            assert!(got > 0, "server closed subscriber {i} during handshake");
            framer.feed(&buf[..got]);
        }
        stream.set_read_timeout(None).expect("clear timeout");
        stream.set_nonblocking(true).expect("nonblocking");
        poller
            .add(stream.as_raw_fd(), i as u64, true, false)
            .expect("poller add");
        subs.push(FanSub {
            stream,
            framer,
            last_at: 0,
        });
    }

    let mut ingest = ServiceClient::connect(addr).expect("ingest connect");
    let ticks = args.ticks as u64;
    let mut latencies: Vec<f64> = Vec::with_capacity(n * args.ticks);
    let mut events = Vec::new();
    let mut pushes = 0u64;
    let mut resyncs = 0u64;
    let mut ok = true;
    let started = Instant::now();
    'ticks: for t in 1..=ticks {
        // Each tick's single tuple scores strictly above every predecessor
        // under any positive-weight linear query, so it enters every
        // top-k and every query emits exactly one DELTA per tick.
        let batch = vec![0.5 + t as f64 * 1e-6; args.dims];
        let sent = Instant::now();
        ingest.tick(&batch).expect("tick");
        let mut behind = subs.iter().filter(|s| s.last_at < t).count();
        let deadline = sent + Duration::from_secs(60);
        while behind > 0 {
            if Instant::now() > deadline {
                eprintln!("tick {t}: {behind} subscribers never saw their delta");
                ok = false;
                break 'ticks;
            }
            poller
                .wait(&mut events, Duration::from_millis(100))
                .expect("poller wait");
            for ev in &events {
                let s = &mut subs[ev.token as usize];
                if s.last_at == u64::MAX {
                    continue;
                }
                let mut dead = false;
                loop {
                    match s.stream.read(&mut buf) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(got) => s.framer.feed(&buf[..got]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                while let Some(line) = s.framer.next_line() {
                    let FramedLine::Line(line) = line else {
                        dead = true;
                        break;
                    };
                    pushes += 1;
                    if line.starts_with("RESYNC") {
                        resyncs += 1;
                        continue;
                    }
                    // A backpressure re-baseline SNAPSHOT at >= t counts
                    // as catching up too: the subscriber holds tick t's
                    // state even though the delta itself was dropped.
                    if let Some(at) = push_at(&line) {
                        let was_behind = s.last_at < t;
                        if at > s.last_at {
                            s.last_at = at;
                        }
                        if was_behind && s.last_at >= t {
                            behind -= 1;
                            latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                }
                if dead {
                    eprintln!("subscriber {} died mid-run", ev.token);
                    ok = false;
                    poller.remove(s.stream.as_raw_fd());
                    if s.last_at < t {
                        behind -= 1;
                    }
                    s.last_at = u64::MAX;
                }
            }
        }
    }
    let elapsed = started.elapsed();

    // The encode-once invariant, asserted against the server's own
    // counters: every engine delta was encoded exactly once, no matter
    // how many subscribers its bytes fanned out to.
    let stats = ingest.stats().expect("stats");
    let stat_num = |k: &str| -> u64 { stats.get(k).and_then(|v| v.parse().ok()).unwrap_or(0) };
    let encodes = stat_num("encodes");
    let deltas = stat_num("deltas");
    if encodes != deltas || encodes == 0 {
        eprintln!("encode-once violated: encodes={encodes} != deltas={deltas}");
        ok = false;
    }
    let _ = ingest.quit();
    let _ = control.quit();

    latencies.sort_by(|a, b| a.total_cmp(b));
    let per_s = pushes as f64 / elapsed.as_secs_f64();
    println!(
        "{{\"subs\":{n},\"queries\":{nq},\"ticks\":{ticks},\"pushes\":{pushes},\
         \"pushes_per_s\":{per_s:.0},\"push_p50_us\":{:.1},\"push_p99_us\":{:.1},\
         \"resyncs\":{resyncs},\"encodes\":{encodes},\"deltas\":{deltas},\"ok\":{ok}}}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    );
    if !ok {
        std::process::exit(1);
    }
}

/// The `--fanout` parent: per tier, binds a fresh server and re-executes
/// this binary as a `--fanout-client` child owning the whole subscriber
/// fleet, then merges the child's measurement with the server-side
/// verdict. Two processes keep a 10k-subscriber tier inside both sides'
/// fd limits — the server holds the accepted sockets, the child the
/// connecting ones.
fn fanout(args: &Args) {
    let tiers: Vec<usize> = if args.subs > 0 {
        vec![args.subs]
    } else {
        FANOUT_TIERS.to_vec()
    };
    let exe = std::env::current_exe().expect("current exe");
    let mut tier_json: Vec<String> = Vec::new();
    let mut all_ok = true;
    let started = Instant::now();
    for &nsubs in &tiers {
        let scfg = server_config(args);
        let service = Service::bind(
            "127.0.0.1:0",
            ServiceConfig::new(scfg).with_push_queue(args.push_queue),
        )
        .expect("bind fanout");
        let addr = service.local_addr().to_string();
        let out = std::process::Command::new(&exe)
            .args([
                "--fanout-client",
                "--addr",
                &addr,
                "--subs",
                &nsubs.to_string(),
                "--ticks",
                &args.ticks.to_string(),
                "--dims",
                &args.dims.to_string(),
                "--k",
                &args.k.to_string(),
            ])
            .output()
            .expect("spawn fanout client");
        service.shutdown();
        if !out.stderr.is_empty() {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
        }
        let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if !(out.status.success() && text.contains("\"ok\":true")) {
            eprintln!("fanout tier {nsubs}: client run failed");
            all_ok = false;
        }
        tier_json.push(text);
    }
    let elapsed = started.elapsed();

    if args.json {
        println!(
            "{{\"mode\":\"fanout\",\"engine\":\"{}\",\"dims\":{},\"ticks\":{},\
             \"tiers\":[{}],\"ok\":{all_ok}}}",
            engine_name(args.engine),
            args.dims,
            args.ticks,
            tier_json.join(","),
        );
    } else {
        println!("== serve fan-out ==");
        println!(
            "   {} tier(s) × {} ticks over {} engine (d={}), {:.3}s wall time",
            tiers.len(),
            args.ticks,
            engine_name(args.engine),
            args.dims,
            elapsed.as_secs_f64()
        );
        for text in &tier_json {
            let num = |k: &str| json_num(text, k).unwrap_or(0.0);
            println!(
                "   {:>6.0} subs × {:.0} queries: {:>9.0} pushes/s   \
                 push p50 {:>8.1}µs  p99 {:>8.1}µs   ({:.0} pushes, {:.0} resyncs)",
                num("subs"),
                num("queries"),
                num("pushes_per_s"),
                num("push_p50_us"),
                num("push_p99_us"),
                num("pushes"),
                num("resyncs"),
            );
        }
        println!(
            "   verification: {}",
            if all_ok {
                "encode-once + fleet-complete"
            } else {
                "FAILED"
            }
        );
    }
    if !all_ok {
        std::process::exit(1);
    }
}

/// Scans `"key": <number>` (with or without the space) out of a flat JSON
/// object — the fan-out child's report is written by this binary, so the
/// shape is known and a parser dependency stays unnecessary.
fn json_num(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The multi-site harness: `--sites N` site services shard the stream,
/// ship candidate deltas to one coordinator, and the merged global top-k
/// is verified bit-exact against a single-node oracle fed the full
/// stream in-process.
fn distrib(args: &Args) {
    // A time window distributes cleanly (each site expires its own shard
    // by timestamp); a quarter of the run keeps expiry churn in frame.
    let window_ticks = (args.ticks as u64 / 4).max(8);
    let scfg = server_config(args).with_window(WindowSpec::Time(window_ticks));
    let coordinator = Service::bind(
        "127.0.0.1:0",
        ServiceConfig::new(scfg)
            .with_role(Role::Coordinator)
            .with_push_queue(args.push_queue),
    )
    .expect("bind coordinator");
    let addr = coordinator.local_addr();
    let coord_addr = addr.to_string();

    let mut oracle = MonitorServer::new(scfg).expect("oracle");
    let mut control = ServiceClient::connect(addr).expect("control connect");
    let mut query_ids = Vec::new();
    for c in 0..args.clients {
        let weights: Vec<f64> = (0..args.dims)
            .map(|d| 0.25 + ((c + d * 3) % 7) as f64 / 4.0)
            .collect();
        let id = control.register_linear(args.k, &weights).expect("register");
        let f = tkm_common::ScoreFn::linear(weights).unwrap();
        oracle
            .register(Query::top_k(f, args.k).unwrap())
            .expect("oracle register");
        query_ids.push(id);
    }

    // One subscriber mirrors every query from the coordinator's delta
    // stream; per-push latency is measured from the instant its round's
    // first shard was sent (ingest → site → merge → push).
    let send_instants: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
    let data_ticks = args.ticks;
    let qids = query_ids.clone();
    let instants = Arc::clone(&send_instants);
    let sub = std::thread::spawn(move || {
        let mut client = ServiceClient::connect(addr).expect("subscriber connect");
        let mut mirror = BTreeMap::new();
        for q in &qids {
            mirror.insert(*q, client.subscribe(*q).expect("subscribe"));
        }
        let mut latencies = Vec::new();
        let mut pushes = 0usize;
        loop {
            let push = client.next_push().expect("push stream");
            let received = Instant::now();
            pushes += 1;
            let at = match &push {
                Push::Delta { at, .. } | Push::Snapshot { at, .. } => Some(at.0),
                _ => None,
            };
            apply_push(&mut mirror, &push);
            if let Some(at) = at {
                if at >= 1 && at as usize <= data_ticks {
                    let sent = instants.lock().unwrap()[at as usize - 1];
                    latencies.push(received.duration_since(sent).as_secs_f64() * 1e6);
                }
                if at as usize > data_ticks {
                    break; // sentinel observed
                }
            }
        }
        // Delta reconstruction must agree with the coordinator's own
        // published snapshot for every query (the oracle comparison runs
        // against the coordinator in the main thread).
        let mut ok = true;
        for q in &qids {
            let (_, wire) = client.snapshot(*q).expect("final snapshot");
            while let Some(p) = client.try_buffered_push() {
                apply_push(&mut mirror, &p);
            }
            if mirror.get(q).map(Vec::as_slice) != Some(wire.as_slice()) {
                eprintln!("subscriber: delta reconstruction != coordinator snapshot for {q}");
                ok = false;
            }
        }
        let _ = client.quit();
        (latencies, pushes, ok)
    });

    // Each site: its service plus the driver connection that feeds it
    // shard batches.
    let mut sites: Vec<(Service, ServiceClient)> = (0..args.sites as u64)
        .map(|s| {
            let role = Role::Site(SiteRole::new(s, coord_addr.clone()));
            let svc = Service::bind("127.0.0.1:0", ServiceConfig::new(scfg).with_role(role))
                .expect("bind site");
            let driver = ServiceClient::connect(svc.local_addr()).expect("site driver connect");
            (svc, driver)
        })
        .collect();

    let mut gen = PointGen::new(args.dims, DataDist::Ind, args.seed ^ 7).expect("gen");
    let mut base = 0u64;
    let soak_start = Instant::now();
    for t in 1..=args.ticks {
        // Shard the round contiguously (the remainder to the last site)
        // so global ids stay dense in arrival order.
        let (per, rest) = (args.rate / args.sites, args.rate % args.sites);
        send_instants.lock().unwrap().push(Instant::now());
        let mut full = Vec::with_capacity(args.rate * args.dims);
        for (s, (_, driver)) in sites.iter_mut().enumerate() {
            let n = per + if s + 1 == args.sites { rest } else { 0 };
            let mut chunk = Vec::with_capacity(n * args.dims);
            for _ in 0..n {
                chunk.extend(gen.point());
            }
            driver
                .site_ingest(tkm_common::Timestamp(t as u64), base, &chunk)
                .expect("site ingest");
            base += n as u64;
            full.extend_from_slice(&chunk);
        }
        oracle
            .tick_at(tkm_common::Timestamp(t as u64), &full)
            .expect("oracle tick");
    }
    let soak_elapsed = soak_start.elapsed();

    // Sentinel cycle: k max-score tuples through site 0 (they dominate
    // every query, so each one's result changes), bare markers from the
    // rest so the frontier advances and the merge publishes.
    let sentinel_t = args.ticks as u64 + 1;
    let sentinel = vec![1.0; args.k * args.dims];
    for (s, (_, driver)) in sites.iter_mut().enumerate() {
        let chunk: &[f64] = if s == 0 { &sentinel } else { &[] };
        driver
            .site_ingest(tkm_common::Timestamp(sentinel_t), base, chunk)
            .expect("sentinel ingest");
    }
    oracle
        .tick_at(tkm_common::Timestamp(sentinel_t), &sentinel)
        .expect("oracle sentinel");

    // Convergence: poll the coordinator against the oracle, driving
    // empty catch-up cycles (lockstep on both sides) so in-flight
    // markers land.
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    let mut settle_t = sentinel_t;
    let mut converged = false;
    while !converged && Instant::now() < deadline {
        converged = query_ids.iter().all(|q| {
            let wire = control.snapshot(*q).expect("verify snapshot").1;
            oracle.result(*q).is_ok_and(|want| want == wire)
        });
        if converged {
            break;
        }
        settle_t += 1;
        for (_, driver) in &mut sites {
            let _ = driver.site_ingest(tkm_common::Timestamp(settle_t), 0, &[]);
        }
        oracle
            .tick_at(tkm_common::Timestamp(settle_t), &[])
            .expect("oracle settle");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let (mut latencies, pushes, sub_ok) = sub.join().expect("subscriber thread");
    latencies.sort_by(|a, b| a.total_cmp(b));

    let mut bytes_shipped = 0u64;
    let mut bytes_naive = 0u64;
    for (_, driver) in &mut sites {
        let stats = driver.stats().expect("site stats");
        let num = |k: &str| {
            stats
                .get(k)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        bytes_shipped += num("bytes_shipped");
        bytes_naive += num("bytes_naive");
    }
    let ratio = bytes_naive as f64 / bytes_shipped.max(1) as f64;

    let all_ok = sub_ok && converged;
    if !converged {
        eprintln!("mesh never converged with the single-node oracle");
    }

    let _ = control.quit();
    for (svc, driver) in sites {
        let _ = driver.quit();
        svc.shutdown();
    }
    coordinator.shutdown();

    if args.json {
        println!(
            "{{\"mode\":\"distrib\",\"sites\":{},\"dims\":{},\"window_ticks\":{},\
             \"clients\":{},\"ticks\":{},\"rate\":{},\"k\":{},\"seed\":{},\
             \"bytes_shipped\":{bytes_shipped},\"bytes_naive\":{bytes_naive},\
             \"bytes_ratio\":{ratio:.2},\"merge_p50_us\":{:.1},\"merge_p99_us\":{:.1},\
             \"pushes\":{pushes},\"ok\":{all_ok}}}",
            args.sites,
            args.dims,
            window_ticks,
            args.clients,
            args.ticks + 1,
            args.rate,
            args.k,
            args.seed,
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.99),
        );
    } else {
        println!("== serve multi-site ==");
        println!(
            "   {} sites → 1 coordinator, {} queries × top-{} (d={}), window {} ticks",
            args.sites, args.clients, args.k, args.dims, window_ticks
        );
        println!(
            "   {} ticks × {} tuples in {:.3}s soak wall time",
            args.ticks + 1,
            args.rate,
            soak_elapsed.as_secs_f64()
        );
        println!(
            "   uplink bytes      : {bytes_shipped} shipped vs {bytes_naive} naive forwarding \
             ({ratio:.1}x fewer)"
        );
        println!(
            "   merge latency     : p50 {:.1}µs   p99 {:.1}µs   ({} samples)",
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.99),
            latencies.len()
        );
        println!(
            "   verification: {}",
            if all_ok { "oracle-identical" } else { "FAILED" }
        );
    }
    if !all_ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn absent_flags_take_the_mode_defaults() {
        let a = parse("").unwrap();
        assert_eq!(a.addr, "127.0.0.1:7171");
        assert_eq!((a.dims, a.window, a.tick_ms), (2, 10_000, 100));
        assert_eq!((a.engine, a.push_queue), (EngineKind::Sma, 1024));
        assert!(!a.fanout && !a.fanout_client && !a.json && a.sites == 0);
        let a = parse("--fanout --json").unwrap();
        assert!(a.fanout && a.json);
        assert_eq!((a.ticks, a.window, a.subs), (12, 2_000, 0));
        let a = parse("--sites 3").unwrap();
        assert_eq!((a.sites, a.clients, a.ticks), (3, 8, 150));
        assert_eq!((a.rate, a.k, a.seed), (600, 8, 0xC4A05));
    }

    #[test]
    fn accepted_values_are_read() {
        let a = parse(
            "--fanout-client --addr 0.0.0.0:9 --dims 3 --window 500 --tick-ms 5 --push-queue 16 \
             --clients 2 --ticks 7 --rate 30 --k 4 --subs 100 --sites 2 --seed 9",
        )
        .unwrap();
        assert!(a.fanout_client && a.addr == "0.0.0.0:9");
        assert_eq!((a.dims, a.window, a.tick_ms), (3, 500, 5));
        assert_eq!((a.push_queue, a.clients, a.ticks), (16, 2, 7));
        assert_eq!((a.rate, a.k, a.subs), (30, 4, 100));
        assert_eq!((a.sites, a.seed), (2, 9));
        for name in ["tma", "sma", "tsl", "oracle"] {
            let a = parse(&format!("--engine {name}")).unwrap();
            assert_eq!(engine_name(a.engine).to_lowercase(), name);
        }
    }

    #[test]
    fn bad_values_missing_values_and_unknown_flags_are_usage_errors() {
        let err = |line: &str| parse(line).unwrap_err();
        assert_eq!(
            err("--engine tls"),
            "--engine: invalid value `tls` (accepted: tma|sma|tsl|oracle)"
        );
        assert!(err("--window 10k").starts_with("--window: invalid value `10k`"));
        assert!(err("--sites -1").starts_with("--sites: invalid value `-1`"));
        assert!(err("--json --ticks").starts_with("--ticks: missing value"));
        assert!(err("--engine").starts_with("--engine: missing value"));
        assert!(err("--addr").starts_with("--addr: missing value"));
        // A removed mode's flag must not fall through to serving forever.
        for flag in "--smoke --bench --chaos --fault".split(' ') {
            let unknown = format!("{flag}: unknown flag");
            assert!(err(&format!("--fanout {flag}")).starts_with(&unknown));
        }
    }
}
