//! The serving layer's request handlers and its public handle.
//!
//! One [`Service`] owns one [`MonitorServer`] and any number of TCP
//! clients on **one thread**: the [`crate::reactor`] event loop owns the
//! listener and every socket, and when it frames a request line it calls
//! the handlers of this module's `EngineOwner` directly. The owner holds
//! the engine, the subscription table and the role state, and:
//!
//! 1. executes requests in arrival order, replying on the issuing
//!    session's queue;
//! 2. accumulates `TICK`/`TICKAT` arrivals and flushes them as **one**
//!    `tick_at` per processing cycle — immediately under
//!    [`TickPolicy::Manual`], or once per wall-clock interval under
//!    [`TickPolicy::Interval`] (the loop's `epoll_wait` timeout is the next
//!    flush deadline), so a burst of ingest requests inside one interval
//!    becomes a single engine cycle;
//! 3. drains the cycle's [`tkm_core::ResultDelta`]s and, for each one
//!    with subscribers, encodes it **once** into a shared byte payload
//!    and enqueues that payload onto every subscriber's queue, applying
//!    the drop-to-snapshot backpressure policy to slow consumers.
//!
//! Enqueues only put sessions on the loop's dirty list; at the end of a
//! wakeup pass the loop writes each touched session once.
//!
//! There is one subscription table (a [`DeltaRouter`] whose entries
//! carry the subscriber's queue handle) and one fan-out loop, so the
//! ordering subscribers rely on is program order on the one thread:
//!
//! * a baseline `SNAPSHOT` precedes the subscriber's first `DELTA` — the
//!   subscribe handler enqueues it before the next request runs;
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
use std::os::unix::net::UnixStream;
use std::rc::Rc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::distrib::{CoordState, Role, SiteState};
use crate::protocol::{
    encode_delta_push, write_ingest, ErrCode, Family, Push, QuerySpec, Reply, Request,
};
use crate::reactor::Reactor;
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
    /// Tear down a connection with no traffic in either direction for
    /// this long (`None` = never reap). Silent clients stay alive by
    /// sending `PING`.
    pub idle_timeout: Option<Duration>,
    /// Tear down a session whose queued output has made no progress for
    /// this long (`None` = wait forever). A peer that stops draining its
    /// socket produces no write readiness, so the reactor enforces this
    /// deadline from its timer pass, not from `epoll`.
    pub write_timeout: Option<Duration>,
    /// The part this server plays in a deployment (see
    /// [`crate::distrib`]); standalone unless configured otherwise.
    pub role: Role,
}

impl ServiceConfig {
    /// A manual-tick service over the given engine configuration, with a
    /// 1024-line push cap and no idle/write deadlines.
    pub fn new(server: ServerConfig) -> ServiceConfig {
        ServiceConfig {
            server: server.with_delta_tracking(true),
            tick: TickPolicy::Manual,
            push_queue: 1024,
            idle_timeout: None,
            write_timeout: None,
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

    /// Selects the deployment role (site or coordinator).
    pub fn with_role(mut self, role: Role) -> ServiceConfig {
        self.role = role;
        self
    }
}

/// A running TCP serving layer over one [`MonitorServer`].
///
/// Dropping a `Service` without calling [`Service::shutdown`] stops it
/// too (its event loop sees the stop socket close) but does not wait for
/// the thread to finish; call `shutdown` for an orderly stop.
pub struct Service {
    addr: SocketAddr,
    /// Closing this end of a socket pair wakes the loop to stop.
    stop: UnixStream,
    thread: JoinHandle<()>,
}

impl Service {
    /// Binds a listener and spawns the thread that serves it.
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
        let (stop, stop_rx) =
            UnixStream::pair().map_err(|e| TkmError::Internal(format!("stop socket: {e}")))?;
        let poller = Reactor::poller(&listener, &stop_rx)
            .map_err(|e| TkmError::Internal(format!("reactor setup: {e}")))?;
        // The session queues are shared through `Rc`s, so the loop and
        // its owner are built on the thread that runs them.
        let thread = std::thread::spawn(move || {
            Reactor::new(poller, listener, stop_rx, EngineOwner::new(server, cfg)).run();
        });
        Ok(Service {
            addr: local,
            stop,
            thread,
        })
    }

    /// The address the service listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every session, and joins the serving
    /// thread. The loop performs one final best-effort flush of queued
    /// output before closing sockets, so delivery of already-queued lines
    /// is best-effort on shutdown.
    pub fn shutdown(self) {
        drop(self.stop);
        let _ = self.thread.join();
    }
}

/// Serving-layer counters, reported by `STATS`.
#[derive(Default)]
pub(crate) struct Counters {
    ticks: u64,
    arrivals: u64,
    deltas: u64,
    resyncs: u64,
    tick_errors: u64,
    /// Connections torn down by the idle deadline.
    pub(crate) reaped: u64,
    /// `DELTA` payload encodings performed — exactly one per routed
    /// delta per tick, **not** one per subscriber (the encode-once
    /// invariant the fan-out tests assert against `STATS encodes=`).
    encodes: u64,
    /// `epoll_wait` returns of the event loop.
    pub(crate) wakeups: u64,
    /// `read` calls on connection sockets.
    pub(crate) sock_reads: u64,
    /// `write` calls on connection sockets.
    pub(crate) sock_writes: u64,
}

/// A session and its outbound queue — also the entry type of the
/// subscription table, so the fan-out loop enqueues straight into the
/// queue with no per-push session lookup. Identity is the session id.
#[derive(Clone)]
struct Subscriber {
    sid: SessionId,
    out: Rc<SessionOut>,
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

/// The engine, the subscription table and the role state, with the
/// request handlers the event loop calls.
pub(crate) struct EngineOwner {
    server: MonitorServer,
    pub(crate) cfg: ServiceConfig,
    role: RoleState,
    sessions: BTreeMap<SessionId, Subscriber>,
    /// The one subscription table: query → subscriber queues.
    router: DeltaRouter<Subscriber>,
    /// Arrivals queued since the last flush (interval ticking only).
    pending: Vec<f64>,
    /// The buffer every push line of a cycle is encoded through.
    line: String,
    /// Counted by the handlers and the event loop.
    pub(crate) stats: Counters,
    started: Instant,
}

impl EngineOwner {
    fn new(server: MonitorServer, cfg: ServiceConfig) -> EngineOwner {
        let role = match cfg.role.clone() {
            Role::Standalone => RoleState::Standalone,
            Role::Coordinator => RoleState::Coordinator(CoordState::new()),
            Role::Site(site) => RoleState::Site(SiteState::new(site)),
        };
        EngineOwner {
            server,
            cfg,
            role,
            sessions: BTreeMap::new(),
            router: DeltaRouter::new(),
            pending: Vec::new(),
            line: String::new(),
            stats: Counters::default(),
            started: Instant::now(),
        }
    }

    /// Adopts a new connection's outbound queue.
    pub(crate) fn connect(&mut self, sid: SessionId, out: Rc<SessionOut>) {
        self.sessions.insert(sid, Subscriber { sid, out });
    }

    /// Serves one framed request line of session `sid` (`Err` carries the
    /// parse error): its reply, and every push it causes, are on the
    /// session queues when this returns.
    pub(crate) fn serve(&mut self, sid: SessionId, req: std::result::Result<Request, String>) {
        match req {
            Ok(Request::Quit) => {
                self.reply(sid, &Reply::OkBye);
                self.teardown(sid);
            }
            Ok(req) => {
                let reply = self.execute(sid, req);
                self.reply(sid, &reply);
            }
            Err(message) => self.reply(
                sid,
                &Reply::Err {
                    code: ErrCode::Parse,
                    message,
                },
            ),
        }
    }

    /// The interval timer fired: flush queued arrivals as one cycle.
    pub(crate) fn tick_timer(&mut self) {
        if self.flush().is_err() {
            self.stats.tick_errors += 1;
        }
    }

    fn reply(&self, sid: SessionId, reply: &Reply) {
        if let Some(sub) = self.sessions.get(&sid) {
            sub.out.send_reply(reply.to_string());
        }
    }

    /// Forgets a session (idempotent): its subscriptions go and its queue
    /// closes.
    pub(crate) fn teardown(&mut self, sid: SessionId) {
        if let Some(sub) = self.sessions.remove(&sid) {
            self.router.drop_subscriber(&sub);
            sub.out.close();
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
    fn execute(&mut self, sid: SessionId, req: Request) -> Reply {
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
                    if let Some(sub) = self.sessions.get(&sid) {
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
                if let Some(sub) = self.sessions.get(&sid) {
                    self.router.unsubscribe(q, sub);
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
            Request::Stats => self.stats_reply(),
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
            if let Some(sub) = self.sessions.get(&sid) {
                sub.out.force_push(line.clone());
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
        if let Some(sub) = self.sessions.get(&sid) {
            for (q, spec) in replay {
                sub.out.force_push(
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
    /// the per-subscriber work left is one pointer enqueue. The loop
    /// writes each touched session once at the end of its pass, so a
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
            self.stats.encodes += 1;
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

    fn stats_reply(&self) -> Reply {
        let mut pairs = vec![
            ("engine".into(), self.server.engine_name().to_string()),
            ("dims".into(), self.server.dims().to_string()),
            ("now".into(), self.server.now().to_string()),
            ("sessions".into(), self.sessions.len().to_string()),
            ("subscriptions".into(), self.router.len().to_string()),
            ("ticks".into(), self.stats.ticks.to_string()),
            ("arrivals".into(), self.stats.arrivals.to_string()),
            ("deltas".into(), self.stats.deltas.to_string()),
            ("encodes".into(), self.stats.encodes.to_string()),
            ("resyncs".into(), self.stats.resyncs.to_string()),
            ("wakeups".into(), self.stats.wakeups.to_string()),
            ("sock_reads".into(), self.stats.sock_reads.to_string()),
            ("sock_writes".into(), self.stats.sock_writes.to_string()),
            ("reaped".into(), self.stats.reaped.to_string()),
            // Nothing is shed any more; the key stays because the frozen
            // benchmark reads it (ROADMAP item 6 retires it).
            ("shed".into(), "0".into()),
            ("tick_errors".into(), self.stats.tick_errors.to_string()),
            (
                "pending".into(),
                (self.pending.len() / self.server.dims().max(1)).to_string(),
            ),
            ("space_bytes".into(), self.server.space_bytes().to_string()),
            ("router_bytes".into(), self.router.space_bytes().to_string()),
            (
                "uptime_ms".into(),
                self.started.elapsed().as_millis().to_string(),
            ),
        ];
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
