//! The serving event loop.
//!
//! One [`Service`] owns one [`MonitorServer`] and any number of TCP
//! clients, on **two threads**: the [`crate::reactor`] event loop owns
//! every socket, and a single **engine-owner thread**, fed by a bounded
//! inbox channel, owns the engine, the subscription table and every
//! enqueue onto a session's outbound queue ([`TickPolicy::Interval`]
//! adds a third thread, the ticker). The owner thread:
//!
//! 1. executes requests in arrival order, replying on the issuing
//!    session's queue;
//! 2. accumulates `TICK`/`TICKAT` arrivals and flushes them as **one**
//!    `tick_at` per processing cycle — immediately under
//!    [`TickPolicy::Manual`], or once per wall-clock interval under
//!    [`TickPolicy::Interval`], so a burst of ingest requests inside one
//!    interval becomes a single engine cycle;
//! 3. drains the cycle's [`tkm_core::ResultDelta`]s and, for each one
//!    with subscribers, encodes it **once** into a shared byte payload
//!    and enqueues that payload onto every subscriber's queue, applying
//!    the drop-to-snapshot backpressure policy to slow consumers;
//! 4. signals the reactor **once** per inbox event, after its last
//!    enqueue (pushes, reply, closes): enqueues only mark sessions dirty,
//!    so the reactor writes each touched session's bytes in one call.
//!
//! There is one subscription table (a [`DeltaRouter`] whose entries
//! carry the subscriber's queue handle) and one fan-out loop, so the
//! ordering subscribers rely on is program order on the owner thread:
//!
//! * a baseline `SNAPSHOT` precedes the subscriber's first `DELTA` — the
//!   subscribe handler enqueues it before the next inbox event runs;
//! * a tick's pushes precede that tick's reply — the fan-out loop runs
//!   inside the tick handler, before the reply is enqueued;
//! * no `DELTA` lands between an overflow drop and its `RESYNC` — the
//!   queue's latch refuses the rest of the cycle's pushes, and the owner
//!   clears it and enqueues the `RESYNC` baseline back to back.
//!
//! Fan-out sharding (worker threads with a mirrored subscriber map) was
//! removed: no configuration in the tree ever ran more than one worker,
//! and the benchmark's `fanout` workload bounds this single loop at
//! ≈0.1 µs per push — measure before re-adding it.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::distrib::{CoordState, Role, SiteState};
use crate::protocol::{
    encode_delta_push, write_ingest, ErrCode, Family, Push, QuerySpec, Reply, Request,
};
use crate::reactor::{Reactor, ReactorCfg, Waker};
use crate::session::{SessionId, SessionOut};
use tkm_common::{QueryId, Rect, Result, ScoreFn, Scored, Timestamp, TkmError};
use tkm_core::{DeltaRouter, MonitorServer, Query, ResultDelta, ServerConfig};

/// When queued arrivals are flushed into an engine cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickPolicy {
    /// Every `TICK`/`TICKAT` request flushes immediately — deterministic,
    /// the mode used by tests and the loopback bench.
    Manual,
    /// Arrivals queue up; a timer flushes them as one `tick_at` per
    /// interval. `TICKAT` is rejected in this mode (the timer owns the
    /// clock).
    Interval(Duration),
}

/// Configuration of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The engine configuration. Delta tracking is forced on — the serving
    /// layer is built around per-tick result changes.
    pub server: ServerConfig,
    /// When queued arrivals become engine cycles.
    pub tick: TickPolicy,
    /// Per-session cap on queued push lines before the drop-to-snapshot
    /// policy kicks in.
    pub push_queue: usize,
    /// Bound of the engine-owner inbox (requests in flight across all
    /// sessions); senders block when full, back-pressuring readers — until
    /// the [`ServiceConfig::busy_timeout`] shedding deadline.
    pub inbox: usize,
    /// Tear down a connection with no traffic in either direction for
    /// this long (`None` = never reap). Silent clients stay alive by
    /// sending `PING`.
    pub idle_timeout: Option<Duration>,
    /// Tear down a session whose queued output has made no progress for
    /// this long (`None` = wait forever). A peer that stops draining its
    /// socket produces no write readiness, so the reactor enforces this
    /// deadline from its timer pass, not from `epoll`.
    pub write_timeout: Option<Duration>,
    /// How long a full engine inbox may stall a request before the
    /// session sheds it with `ERR busy` (only when no earlier request of
    /// the same session is still awaiting its reply).
    pub busy_timeout: Duration,
    /// The part this server plays in a deployment (see
    /// [`crate::distrib`]); standalone unless configured otherwise.
    pub role: Role,
}

impl ServiceConfig {
    /// A manual-tick service over the given engine configuration, with a
    /// 1024-line push cap, a 1024-event inbox, no idle/write deadlines
    /// and a 250 ms shedding deadline.
    pub fn new(server: ServerConfig) -> ServiceConfig {
        ServiceConfig {
            server: server.with_delta_tracking(true),
            tick: TickPolicy::Manual,
            push_queue: 1024,
            inbox: 1024,
            idle_timeout: None,
            write_timeout: None,
            busy_timeout: Duration::from_millis(250),
            role: Role::Standalone,
        }
    }

    /// Selects the tick policy.
    pub fn with_tick(mut self, tick: TickPolicy) -> ServiceConfig {
        self.tick = tick;
        self
    }

    /// Selects the per-session push cap (minimum 1).
    pub fn with_push_queue(mut self, cap: usize) -> ServiceConfig {
        self.push_queue = cap.max(1);
        self
    }

    /// Selects the idle-reaping deadline.
    pub fn with_idle_timeout(mut self, deadline: Duration) -> ServiceConfig {
        self.idle_timeout = Some(deadline);
        self
    }

    /// Selects the per-write deadline.
    pub fn with_write_timeout(mut self, deadline: Duration) -> ServiceConfig {
        self.write_timeout = Some(deadline);
        self
    }

    /// Selects the overload-shedding deadline.
    pub fn with_busy_timeout(mut self, deadline: Duration) -> ServiceConfig {
        self.busy_timeout = deadline;
        self
    }

    /// Selects the deployment role (site or coordinator).
    pub fn with_role(mut self, role: Role) -> ServiceConfig {
        self.role = role;
        self
    }
}

/// Verbs a session can shed with `ERR busy`, in the order their counters
/// appear in [`Metrics::shed_by_verb`]; `parse` stands for lines that
/// never parsed into a verb at all.
pub(crate) const SHED_VERBS: [&str; 14] = [
    "REGISTER",
    "UNREGISTER",
    "SUBSCRIBE",
    "UNSUBSCRIBE",
    "SNAPSHOT",
    "TICK",
    "TICKAT",
    "STATS",
    "PING",
    "SITE",
    "SITEDELTA",
    "SITETICK",
    "QUIT",
    "parse",
];

/// Robustness counters shared by the session threads (which record) and
/// the engine owner (which reports them via `STATS`).
#[derive(Default)]
pub(crate) struct Metrics {
    /// Connections torn down by the idle deadline.
    pub(crate) reaped: AtomicU64,
    /// Requests answered `ERR busy` without reaching the engine.
    pub(crate) shed: AtomicU64,
    /// The same sheds broken down per verb (indexed like [`SHED_VERBS`]),
    /// so shedding of site uplink traffic is distinguishable from
    /// shedding of subscriber traffic.
    pub(crate) shed_by_verb: [AtomicU64; SHED_VERBS.len()],
    /// `DELTA` payload encodings performed — exactly one per routed
    /// delta per tick, **not** one per subscriber (the encode-once
    /// invariant the fan-out tests assert against `STATS encodes=`).
    pub(crate) encodes: AtomicU64,
    /// Bytes written to the reactor's wakeup socketpair.
    pub(crate) pokes: AtomicU64,
    /// `epoll_wait` returns of the reactor loop.
    pub(crate) wakeups: AtomicU64,
    /// `read` calls on connection sockets.
    pub(crate) sock_reads: AtomicU64,
    /// `write` calls on connection sockets.
    pub(crate) sock_writes: AtomicU64,
}

impl Metrics {
    /// Tallies one `ERR busy` shed of `verb` (both the total and the
    /// per-verb slot).
    pub(crate) fn record_shed(&self, verb: &str) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = SHED_VERBS.iter().position(|v| *v == verb) {
            self.shed_by_verb[i].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// An event consumed by the engine-owner thread.
pub(crate) enum Event {
    /// A new connection: its id, its outbound queue, and its in-flight
    /// request counter (see `session::forward` for the shedding
    /// contract).
    Connect(SessionId, Arc<SessionOut>, Arc<AtomicUsize>),
    /// A parsed request from a session.
    Request(SessionId, Request),
    /// An unparseable line from a session (the parse error).
    Bad(SessionId, String),
    /// A session's reader hit EOF/error; tear the session down.
    Gone(SessionId),
    /// Timer fired (interval mode): flush queued arrivals.
    Flush,
    /// Stop the event loop and close every session.
    Shutdown,
}

/// A running TCP serving layer over one [`MonitorServer`].
///
/// Dropping a `Service` without calling [`Service::shutdown`] leaves the
/// background threads running detached; call `shutdown` for an orderly
/// stop.
pub struct Service {
    addr: SocketAddr,
    inbox: SyncSender<Event>,
    stopping: Arc<AtomicBool>,
    waker: Arc<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl Service {
    /// Binds a listener and spawns the accept + engine (+ timer) threads.
    ///
    /// Bind to port 0 to let the OS choose; [`Service::local_addr`] reports
    /// the actual endpoint.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServiceConfig) -> Result<Service> {
        let server = MonitorServer::new(cfg.server.with_delta_tracking(true))?;
        let listener = TcpListener::bind(addr)
            .map_err(|e| TkmError::InvalidParameter(format!("bind failed: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| TkmError::Internal(format!("local_addr: {e}")))?;
        let (tx, rx) = std::sync::mpsc::sync_channel(cfg.inbox.max(1));
        let stopping = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Metrics::default());
        let mut threads = Vec::new();

        let (mut reactor, waker) = Reactor::new(
            listener,
            tx.clone(),
            Arc::clone(&stopping),
            Arc::clone(&metrics),
            ReactorCfg {
                idle: cfg.idle_timeout,
                write_timeout: cfg.write_timeout,
                busy: cfg.busy_timeout,
            },
        )
        .map_err(|e| TkmError::Internal(format!("reactor setup: {e}")))?;
        threads.push(std::thread::spawn(move || reactor.run()));

        if let TickPolicy::Interval(period) = cfg.tick {
            let timer_tx = tx.clone();
            let timer_stop = Arc::clone(&stopping);
            threads.push(std::thread::spawn(move || {
                // Deadline-based so the cadence tracks `period` exactly,
                // sleeping in short slices so shutdown is not held hostage
                // by a long tick interval.
                let slice = Duration::from_millis(25);
                let mut next = Instant::now() + period;
                loop {
                    if timer_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep((next - now).min(slice));
                        continue;
                    }
                    next += period;
                    if timer_tx.send(Event::Flush).is_err() {
                        return;
                    }
                }
            }));
        }

        let role = match cfg.role.clone() {
            Role::Standalone => RoleState::Standalone,
            Role::Coordinator => RoleState::Coordinator(CoordState::new()),
            Role::Site(site) => RoleState::Site(SiteState::new(site)),
        };
        let mut owner = EngineOwner {
            server,
            cfg,
            role,
            sessions: BTreeMap::new(),
            router: DeltaRouter::new(),
            pending: Vec::new(),
            line: String::new(),
            stats: Counters::default(),
            metrics,
            waker: Arc::clone(&waker),
        };
        threads.push(std::thread::spawn(move || owner.run(&rx)));

        Ok(Service {
            addr: local,
            inbox: tx,
            stopping,
            waker,
            threads,
        })
    }

    /// The address the service listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every session, and joins the reactor /
    /// timer / engine threads. The reactor performs one final
    /// best-effort flush of queued output before closing sockets, so
    /// delivery of already-queued lines is best-effort on shutdown.
    pub fn shutdown(mut self) {
        self.stopping.store(true, Ordering::Relaxed);
        let _ = self.inbox.send(Event::Shutdown);
        self.waker.notify();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

#[derive(Default)]
struct Counters {
    ticks: u64,
    arrivals: u64,
    deltas: u64,
    resyncs: u64,
    tick_errors: u64,
}

/// The engine owner's view of one live session.
struct SessionHandle {
    sub: Subscriber,
    /// Requests accepted by the reader but not yet replied to; the engine
    /// decrements it *after* enqueuing each reply (shedding contract).
    inflight: Arc<AtomicUsize>,
}

/// A session and its outbound queue — also the entry type of the
/// subscription table, so the fan-out loop enqueues straight into the
/// queue with no per-push session lookup. Identity is the session id.
#[derive(Clone)]
struct Subscriber {
    sid: SessionId,
    out: Arc<SessionOut>,
}

impl PartialEq for Subscriber {
    fn eq(&self, other: &Subscriber) -> bool {
        self.sid == other.sid
    }
}

impl Eq for Subscriber {}

impl Ord for Subscriber {
    fn cmp(&self, other: &Subscriber) -> std::cmp::Ordering {
        self.sid.cmp(&other.sid)
    }
}

impl PartialOrd for Subscriber {
    fn partial_cmp(&self, other: &Subscriber) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Role-specific state carried by the engine owner (a separate field from
/// the engine so site/coordinator code can borrow both disjointly).
enum RoleState {
    Standalone,
    Coordinator(CoordState),
    Site(SiteState),
}

struct EngineOwner {
    server: MonitorServer,
    cfg: ServiceConfig,
    role: RoleState,
    sessions: BTreeMap<SessionId, SessionHandle>,
    /// The one subscription table: query → subscriber queues.
    router: DeltaRouter<Subscriber>,
    /// Arrivals queued since the last flush (interval ticking only).
    pending: Vec<f64>,
    /// The buffer every push line of a cycle is encoded through.
    line: String,
    stats: Counters,
    metrics: Arc<Metrics>,
    /// The reactor's waker: signalled once per inbox event.
    waker: Arc<Waker>,
}

impl EngineOwner {
    fn run(&mut self, rx: &Receiver<Event>) {
        let started = Instant::now();
        while let Ok(event) = rx.recv() {
            match event {
                Event::Connect(sid, out, inflight) => {
                    let sub = Subscriber { sid, out };
                    self.sessions.insert(sid, SessionHandle { sub, inflight });
                }
                Event::Request(sid, req) => {
                    let quitting = matches!(req, Request::Quit);
                    if quitting {
                        self.reply(sid, &Reply::OkBye);
                    } else {
                        let reply = self.execute(sid, req, started);
                        self.reply(sid, &reply);
                    }
                    self.acknowledge(sid);
                    if quitting {
                        self.teardown(sid);
                    }
                }
                Event::Bad(sid, msg) => {
                    self.reply(
                        sid,
                        &Reply::Err {
                            code: ErrCode::Parse,
                            message: msg,
                        },
                    );
                    self.acknowledge(sid);
                }
                Event::Gone(sid) => self.teardown(sid),
                Event::Flush => {
                    if self.flush().is_err() {
                        self.stats.tick_errors += 1;
                    }
                }
                Event::Shutdown => break,
            }
            // The event's one poke, after its last enqueue.
            self.waker.flush();
        }
        for handle in self.sessions.values() {
            handle.sub.out.close();
        }
        self.waker.flush();
        // Connects that were still queued behind the Shutdown event would
        // otherwise leave the reactor holding sockets that can never be
        // adopted; closing their queues lets it shut them down.
        while let Ok(event) = rx.try_recv() {
            if let Event::Connect(_, out, _) = event {
                out.close();
            }
        }
    }

    fn reply(&self, sid: SessionId, reply: &Reply) {
        if let Some(handle) = self.sessions.get(&sid) {
            handle.sub.out.send_reply(reply.to_string());
        }
    }

    /// Releases one in-flight token *after* the corresponding reply was
    /// enqueued — the ordering that makes reader-side `ERR busy` shedding
    /// safe (see `session::forward`).
    fn acknowledge(&self, sid: SessionId) {
        if let Some(handle) = self.sessions.get(&sid) {
            handle.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn teardown(&mut self, sid: SessionId) {
        if let Some(handle) = self.sessions.remove(&sid) {
            self.router.drop_subscriber(&handle.sub);
            handle.sub.out.close();
        }
        // If the dead session was a site uplink, the site just missed its
        // lease: drop its contribution, keep serving from the survivors,
        // and flag every query degraded (graceful degradation — the
        // coordinator never stops answering).
        if let RoleState::Coordinator(coord) = &mut self.role {
            if coord.gone(sid).is_some() {
                let deltas = coord.republish();
                let at = coord.publish_ts();
                self.fan_out(at, &deltas);
                self.push_degraded();
            }
        }
    }

    /// Executes one request, returning its reply. `Quit` is handled by the
    /// caller.
    fn execute(&mut self, sid: SessionId, req: Request, started: Instant) -> Reply {
        if let Some(reject) = self.role_guard(&req) {
            return reject;
        }
        match req {
            Request::Register { spec, window } => self.register(spec, window),
            Request::Unregister(q) => match self.server.unregister(q) {
                Ok(()) => {
                    self.router.drop_query(q);
                    if let RoleState::Coordinator(coord) = &mut self.role {
                        coord.unregister(q);
                    }
                    self.broadcast_adopt(q, None);
                    Reply::OkQuery(q)
                }
                Err(e) => err_reply(&e),
            },
            Request::Subscribe(q) => match self.result_of(q) {
                Ok(entries) => {
                    // Baseline the subscriber immediately before its OK:
                    // FIFO ordering guarantees the snapshot arrives with
                    // the reply and before any subsequent delta.
                    if let Some(SessionHandle { sub, .. }) = self.sessions.get(&sid) {
                        self.router.subscribe(q, sub.clone());
                        sub.out.force_push(
                            Push::Snapshot {
                                query: q,
                                at: self.now_ts(),
                                entries,
                            }
                            .to_string(),
                        );
                        // A subscriber arriving mid-degradation learns the
                        // current status with its baseline.
                        if let RoleState::Coordinator(coord) = &self.role {
                            let sites = coord.degraded_sites();
                            if !sites.is_empty() {
                                sub.out
                                    .force_push(Push::Degraded { query: q, sites }.to_string());
                            }
                        }
                    }
                    Reply::OkQuery(q)
                }
                Err(e) => err_reply(&e),
            },
            Request::Unsubscribe(q) => {
                if let Some(handle) = self.sessions.get(&sid) {
                    self.router.unsubscribe(q, &handle.sub);
                }
                Reply::OkQuery(q)
            }
            Request::Snapshot(q) => match self.result_of(q) {
                Ok(entries) => Reply::OkSnapshot {
                    query: q,
                    at: self.now_ts(),
                    entries,
                },
                Err(e) => err_reply(&e),
            },
            Request::Tick { arrivals } => self.ingest(&arrivals, None),
            Request::TickAt { at, arrivals } => {
                if self.cfg.tick != TickPolicy::Manual {
                    return Reply::Err {
                        code: ErrCode::Unsupported,
                        message: "TICKAT requires a manual-tick server (the interval timer \
                                  owns the clock)"
                            .into(),
                    };
                }
                self.ingest(&arrivals, Some(at))
            }
            Request::Stats => self.stats_reply(started),
            Request::Ping => Reply::OkPong,
            Request::SiteHello { site, dims } => self.site_hello(sid, site, dims),
            Request::SiteDelta { at: _, delta } => self.site_delta(sid, &delta),
            Request::SiteIngest { at, base, arrivals } => self.site_ingest(at, base, &arrivals),
            // On a coordinator a bare SITETICK is a site's cycle marker;
            // on a site it is an empty ingest cycle (keeps the local clock
            // in lockstep when this site drew no arrivals).
            Request::SiteCycle { at } => match self.role {
                RoleState::Coordinator(_) => self.site_marker(sid, at),
                _ => self.site_ingest(at, 0, &[]),
            },
            // The event loop intercepts QUIT before dispatch; answering
            // defensively keeps the server alive if that ever regresses.
            Request::Quit => Reply::Err {
                code: ErrCode::Unsupported,
                message: "QUIT is handled by the session layer".into(),
            },
        }
    }

    /// Rejects verbs the configured role does not serve (`None` = serve
    /// it). Sites only speak the ingest verbs plus diagnostics; the
    /// coordinator's clock is owned by its sites, so direct ticking is
    /// refused; a standalone server knows nothing of the site verbs.
    fn role_guard(&self, req: &Request) -> Option<Reply> {
        let allowed = match (&self.role, req) {
            (_, Request::Stats | Request::Ping | Request::Quit) => true,
            (
                RoleState::Standalone,
                Request::SiteHello { .. }
                | Request::SiteDelta { .. }
                | Request::SiteIngest { .. }
                | Request::SiteCycle { .. },
            ) => false,
            (RoleState::Standalone, _) => true,
            (
                RoleState::Coordinator(_),
                Request::Tick { .. } | Request::TickAt { .. } | Request::SiteIngest { .. },
            ) => false,
            (RoleState::Coordinator(_), _) => true,
            (RoleState::Site(_), Request::SiteIngest { .. } | Request::SiteCycle { .. }) => true,
            (RoleState::Site(_), _) => false,
        };
        (!allowed).then(|| Reply::Err {
            code: ErrCode::Unsupported,
            message: format!(
                "{} is not served in the {} role",
                req.verb(),
                self.role_name()
            ),
        })
    }

    fn role_name(&self) -> &'static str {
        match self.role {
            RoleState::Standalone => "standalone",
            RoleState::Coordinator(_) => "coordinator",
            RoleState::Site(_) => "site",
        }
    }

    /// The result a subscriber-facing verb serves: the coordinator's
    /// merged published view, or the local engine's.
    fn result_of(&self, q: QueryId) -> Result<Vec<Scored>> {
        match &self.role {
            RoleState::Coordinator(coord) => coord.result_of(q).ok_or(TkmError::UnknownQuery(q)),
            _ => self.server.result(q),
        }
    }

    /// The timestamp subscriber-facing output is labeled with: the
    /// coordinator's publish frontier, or the local engine clock.
    fn now_ts(&self) -> Timestamp {
        match &self.role {
            RoleState::Coordinator(coord) => coord.publish_ts(),
            _ => self.server.now(),
        }
    }

    /// Forwards a query's adoption (or retirement, `spec: None`) to every
    /// live site uplink. Coordinator-only; a no-op elsewhere.
    fn broadcast_adopt(&self, query: QueryId, spec: Option<QuerySpec>) {
        let RoleState::Coordinator(coord) = &self.role else {
            return;
        };
        let line = Push::Adopt { query, spec }.to_string();
        for sid in coord.uplink_sids() {
            if let Some(handle) = self.sessions.get(&sid) {
                handle.sub.out.force_push(line.clone());
            }
        }
    }

    /// Pushes the current degradation status (`DEGRADED q<ID> [sites]`) to
    /// every subscriber of every query; an empty site list announces the
    /// heal.
    fn push_degraded(&self) {
        let RoleState::Coordinator(coord) = &self.role else {
            return;
        };
        let sites = coord.degraded_sites();
        for q in coord.queries() {
            let line = Push::Degraded {
                query: q,
                sites: sites.clone(),
            }
            .to_string();
            for sub in self.router.subscribers(q) {
                sub.out.force_push(line.clone());
            }
        }
    }

    /// Enrolls a site uplink (`SITE`): checks dimensionality, supersedes
    /// any previous session for the same site id, and replays the query
    /// set as `ADOPT` pushes ahead of the `OK s<id>` reply.
    fn site_hello(&mut self, sid: SessionId, site: u64, dims: usize) -> Reply {
        let want = self.server.dims();
        let RoleState::Coordinator(coord) = &mut self.role else {
            return internal_reply("SITE outside the coordinator role");
        };
        if dims != want {
            return Reply::Err {
                code: ErrCode::BadArg,
                message: format!("site monitors {dims} dims but the coordinator expects {want}"),
            };
        }
        let replay = coord.enroll(sid, site);
        if let Some(handle) = self.sessions.get(&sid) {
            for (q, spec) in replay {
                handle.sub.out.force_push(
                    Push::Adopt {
                        query: q,
                        spec: Some(spec),
                    }
                    .to_string(),
                );
            }
        }
        Reply::OkSite(site)
    }

    /// Merges one shipped `SITEDELTA` into the sender's pool.
    fn site_delta(&mut self, sid: SessionId, delta: &ResultDelta) -> Reply {
        let RoleState::Coordinator(coord) = &mut self.role else {
            return internal_reply("SITEDELTA outside the coordinator role");
        };
        match coord.apply_delta(sid, delta) {
            Ok(q) => Reply::OkQuery(q),
            Err(message) => Reply::Err {
                code: ErrCode::BadArg,
                message,
            },
        }
    }

    /// Processes a site's cycle marker: advance its watermark, and when
    /// the frontier moved (or the site just healed) re-merge and fan the
    /// changes out to subscribers.
    fn site_marker(&mut self, sid: SessionId, at: Timestamp) -> Reply {
        let (now, publish) = {
            let RoleState::Coordinator(coord) = &mut self.role else {
                return internal_reply("SITETICK marker outside the coordinator role");
            };
            if coord.site_of(sid).is_none() {
                return Reply::Err {
                    code: ErrCode::BadArg,
                    message: "SITETICK from a connection that has not enrolled with SITE".into(),
                };
            }
            let publish = coord
                .marker(sid, at)
                .map(|o| (o.at, o.healed, coord.republish()));
            (coord.publish_ts(), publish)
        };
        if let Some((publish_at, healed, deltas)) = publish {
            self.fan_out(publish_at, &deltas);
            if healed {
                self.push_degraded();
            }
        }
        Reply::OkTick { now, queued: 0 }
    }

    /// Runs one site-local ingest cycle (`SITETICK … base=…`): tick the
    /// local engine, record the local↔global id mapping, and ship the
    /// resulting deltas plus the cycle marker up the coordinator uplink.
    fn site_ingest(&mut self, at: Timestamp, base: u64, arrivals: &[f64]) -> Reply {
        let window = self.cfg.server.window;
        let RoleState::Site(site) = &mut self.role else {
            return internal_reply("SITETICK ingest outside the site role");
        };
        site.ensure_uplink(&mut self.server);
        site.drain(&mut self.server);
        let dims = self.server.dims();
        if !arrivals.len().is_multiple_of(dims) {
            return Reply::Err {
                code: ErrCode::BadArg,
                message: format!(
                    "arrival buffer of {} values is not a whole number of {dims}-dim tuples",
                    arrivals.len()
                ),
            };
        }
        // What forwarding the raw ingest upstream would have cost — the
        // baseline the distributed bench compares shipped bytes against.
        self.line.clear();
        // Writing into a `String` cannot fail.
        let _ = write_ingest(&mut self.line, Some((at, Some(base))), arrivals);
        let naive = self.line.len() as u64 + 1;
        if let Err(e) = self.server.tick_at(at, arrivals) {
            self.stats.tick_errors += 1;
            return err_reply(&e);
        }
        let tuples = (arrivals.len() / dims) as u64;
        site.record_batch(at, base, tuples, window);
        self.stats.ticks += 1;
        self.stats.arrivals += tuples;
        let deltas = self.server.take_deltas();
        self.stats.deltas += deltas.len() as u64;
        site.ship_cycle(at, &deltas, naive);
        Reply::OkTick {
            now: self.server.now(),
            queued: tuples as usize,
        }
    }

    fn register(&mut self, spec: QuerySpec, window: Option<crate::protocol::WireWindow>) -> Reply {
        if let Some(w) = window {
            if !w.matches(self.server.config().window) {
                return Reply::Err {
                    code: ErrCode::WindowMismatch,
                    message: format!(
                        "client asserted window={w} but the server monitors {:?}",
                        self.server.config().window
                    ),
                };
            }
        }
        match build_query(&spec).and_then(|q| self.server.register(q)) {
            Ok(id) => {
                if let RoleState::Coordinator(coord) = &mut self.role {
                    coord.register(id, spec.clone());
                }
                self.broadcast_adopt(id, Some(spec));
                Reply::OkQuery(id)
            }
            Err(e) => err_reply(&e),
        }
    }

    fn ingest(&mut self, arrivals: &[f64], at: Option<Timestamp>) -> Reply {
        let dims = self.server.dims();
        if !arrivals.len().is_multiple_of(dims) {
            return Reply::Err {
                code: ErrCode::BadArg,
                message: format!(
                    "arrival buffer of {} values is not a whole number of {dims}-dim tuples",
                    arrivals.len()
                ),
            };
        }
        let queued = arrivals.len() / dims;
        if self.cfg.tick == TickPolicy::Manual {
            // Nothing is queued between manual ticks: run from the slice.
            if let Err(e) = self.cycle(at, arrivals) {
                return err_reply(&e);
            }
        } else {
            self.pending.extend_from_slice(arrivals);
        }
        Reply::OkTick {
            now: self.server.now(),
            queued,
        }
    }

    /// Runs one engine cycle over the queued arrivals (interval ticking),
    /// keeping the queue's capacity for the next interval.
    fn flush(&mut self) -> Result<()> {
        let mut arrivals = std::mem::take(&mut self.pending);
        let outcome = self.cycle(None, &arrivals);
        arrivals.clear();
        self.pending = arrivals;
        outcome
    }

    /// Runs one engine cycle over `arrivals` and fans its deltas out. A
    /// rejected cycle (e.g. a regressing TICKAT) drops its arrivals.
    fn cycle(&mut self, at: Option<Timestamp>, arrivals: &[f64]) -> Result<()> {
        match at {
            Some(t) => self.server.tick_at(t, arrivals),
            None => self.server.tick(arrivals),
        }?;
        self.stats.ticks += 1;
        self.stats.arrivals += (arrivals.len() / self.server.dims().max(1)) as u64;

        let now = self.server.now();
        let deltas = self.server.take_deltas();
        self.stats.deltas += deltas.len() as u64;
        self.fan_out(now, &deltas);
        Ok(())
    }

    /// Fans a cycle's result deltas out to their subscribers, applying
    /// the drop-to-snapshot backpressure policy to slow consumers.
    ///
    /// Each routed delta is encoded exactly **once** (tallied in
    /// `STATS encodes=`) through one reused line buffer into an
    /// `Arc<[u8]>` payload whose bytes every subscriber's queue shares;
    /// the per-subscriber work left is one pointer enqueue. The reactor
    /// is signalled after the event's reply, not by these enqueues, so a
    /// subscriber receives the whole cycle in one write.
    fn fan_out(&mut self, now: Timestamp, deltas: &[ResultDelta]) {
        let cap = self.cfg.push_queue;
        let mut overflowed: Vec<Subscriber> = Vec::new();
        for delta in deltas {
            let subscribers = self.router.subscribers(delta.query);
            if subscribers.is_empty() {
                continue;
            }
            let bytes = encode_delta_push(&mut self.line, now, delta);
            self.metrics.encodes.fetch_add(1, Ordering::Relaxed);
            for sub in subscribers {
                // Once a queue overflows, its latch refuses every later
                // push of this cycle too, so a session can be collected
                // here once per subscribed query.
                if !sub.out.try_push_shared(Arc::clone(&bytes), cap) {
                    overflowed.push(sub.clone());
                }
            }
        }
        self.resync(now, overflowed);
    }

    /// Re-baselines the subscribers whose queues overflowed this cycle.
    fn resync(&mut self, now: Timestamp, mut overflowed: Vec<Subscriber>) {
        if overflowed.is_empty() {
            return;
        }
        overflowed.sort_unstable();
        overflowed.dedup();
        // One pass over the subscription table for the whole batch: a
        // fleet overflowing in one cycle must not scan it per session.
        let groups = self.router.subscriptions_of_each(&overflowed);
        // Slow consumers lost their queued pushes: re-baseline every one
        // of their subscriptions from the (post-cycle) current results.
        // Nothing else pushes while this loop runs, so no delta can land
        // between clearing the overflow latch and the RESYNC.
        for (sub, subs) in overflowed.iter().zip(groups) {
            self.stats.resyncs += 1;
            sub.out.clear_overflow();
            sub.out
                .force_push(Push::Resync { count: subs.len() }.to_string());
            for q in subs {
                let entries = self.result_of(q).unwrap_or_default();
                sub.out.force_push(
                    Push::Snapshot {
                        query: q,
                        at: now,
                        entries,
                    }
                    .to_string(),
                );
            }
        }
    }

    fn stats_reply(&self, started: Instant) -> Reply {
        let mut pairs = vec![
            ("engine".into(), self.server.engine_name().to_string()),
            ("dims".into(), self.server.dims().to_string()),
            ("now".into(), self.server.now().to_string()),
            ("sessions".into(), self.sessions.len().to_string()),
            ("subscriptions".into(), self.router.len().to_string()),
            ("ticks".into(), self.stats.ticks.to_string()),
            ("arrivals".into(), self.stats.arrivals.to_string()),
            ("deltas".into(), self.stats.deltas.to_string()),
            counter("encodes", &self.metrics.encodes),
            ("resyncs".into(), self.stats.resyncs.to_string()),
            counter("pokes", &self.metrics.pokes),
            counter("wakeups", &self.metrics.wakeups),
            counter("sock_reads", &self.metrics.sock_reads),
            counter("sock_writes", &self.metrics.sock_writes),
            counter("reaped", &self.metrics.reaped),
            counter("shed", &self.metrics.shed),
            ("tick_errors".into(), self.stats.tick_errors.to_string()),
            (
                "pending".into(),
                (self.pending.len() / self.server.dims().max(1)).to_string(),
            ),
            ("space_bytes".into(), self.server.space_bytes().to_string()),
            ("router_bytes".into(), self.router.space_bytes().to_string()),
            (
                "uptime_ms".into(),
                started.elapsed().as_millis().to_string(),
            ),
        ];
        // Per-verb shed breakdown (only non-zero slots, to keep the line
        // short); the sum over these equals `shed=`.
        for (i, verb) in SHED_VERBS.iter().enumerate() {
            let n = self.metrics.shed_by_verb[i].load(Ordering::Relaxed);
            if n > 0 {
                pairs.push((format!("shed_{verb}"), n.to_string()));
            }
        }
        match &self.role {
            RoleState::Standalone => pairs.push(("role".into(), "standalone".into())),
            RoleState::Coordinator(coord) => pairs.extend(coord.stats()),
            RoleState::Site(site) => pairs.extend(site.stats()),
        }
        Reply::OkStats(pairs)
    }
}

/// Builds an engine [`Query`] from a wire [`QuerySpec`] — shared by
/// `REGISTER` on the serving path and `ADOPT` adoption on site uplinks.
pub(crate) fn build_query(spec: &QuerySpec) -> Result<Query> {
    // Engines pre-allocate k result slots per query, so an untrusted
    // wire k must be bounded before it reaches an allocator.
    const MAX_WIRE_K: usize = 1 << 16;
    if spec.k > MAX_WIRE_K {
        return Err(TkmError::InvalidParameter(format!(
            "k={} exceeds the serving-layer cap of {MAX_WIRE_K}",
            spec.k
        )));
    }
    let f = match spec.family {
        Family::Linear => ScoreFn::linear(spec.weights.clone()),
        Family::Product => ScoreFn::product(spec.weights.clone()),
        Family::Quadratic => ScoreFn::quadratic(spec.weights.clone()),
    }?;
    match &spec.range {
        None => Query::top_k(f, spec.k),
        Some(spans) => {
            let (lo, hi): (Vec<f64>, Vec<f64>) = spans.iter().copied().unzip();
            Rect::new(lo, hi).and_then(|rect| Query::constrained(f, spec.k, rect))
        }
    }
}

/// One relaxed counter as a `STATS` pair.
fn counter(key: &str, value: &AtomicU64) -> (String, String) {
    (key.into(), value.load(Ordering::Relaxed).to_string())
}

fn internal_reply(message: &str) -> Reply {
    Reply::Err {
        code: ErrCode::Internal,
        message: message.into(),
    }
}

fn err_reply(e: &TkmError) -> Reply {
    let code = match &e {
        TkmError::UnknownQuery(_) => ErrCode::UnknownQuery,
        TkmError::DimensionMismatch { .. } | TkmError::InvalidParameter(_) => ErrCode::BadArg,
        TkmError::Unsupported(_) => ErrCode::Unsupported,
        _ => ErrCode::Internal,
    };
    Reply::Err {
        code,
        message: e.to_string(),
    }
}
