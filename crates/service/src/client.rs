//! A small blocking client for the wire protocol.
//!
//! [`ServiceClient`] owns one TCP connection and demultiplexes the
//! server's single ordered line stream into *replies* (returned from the
//! request methods) and *pushes* (buffered, read with
//! [`ServiceClient::next_push`]). [`apply_push`] maintains a client-side
//! mirror of subscribed results from the push stream — the reconstruction
//! path the integration tests pin against the engine oracle.
//!
//! With a [`ReconnectPolicy`] attached, the client is *self-healing*: a
//! dead or garbled connection is re-dialed with exponential backoff and
//! jitter, every remembered subscription is re-`SUBSCRIBE`d, and the
//! mirror is re-baselined through the same `RESYNC`-then-`SNAPSHOT`
//! machinery the server uses for slow consumers — a consumer of
//! [`ServiceClient::next_push`] + [`apply_push`] converges back to the
//! oracle without any extra code. [`ClientStatus`] events surface the
//! `Degraded`/`Recovered` transitions.
//!
//! This client is deliberately *blocking* — one socket, simple control
//! flow — which is the right shape for tests, examples, and ingest
//! loops. It is **not** how the server side scales: the service owns all
//! of its connections from one epoll reactor thread (see
//! [`crate::reactor`]), and a client-side fleet can do the same — the
//! `serve --fanout` bench follows 10 000 subscriber sockets from one
//! thread with the exported [`crate::reactor::Poller`] and
//! [`crate::session::LineFramer`].

use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    parse_server_line, write_ingest, Family, Push, QuerySpec, Reply, Request, ServerLine,
    WireWindow,
};
use tkm_common::{QueryId, Scored, Timestamp};

/// A client-side failure: transport, framing, or a server `ERR` reply.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(std::io::Error),
    /// The server sent a line this client cannot parse, or a reply of an
    /// unexpected shape.
    Protocol(String),
    /// The server answered `ERR`.
    Server {
        /// The machine-readable code.
        code: crate::protocol::ErrCode,
        /// The human-readable message.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Convenience alias for client results.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// Reconnect behavior of a self-healing [`ServiceClient`].
///
/// Attempt `n` (1-based) sleeps `min(base·factorⁿ⁻¹, max)` scaled by a
/// seeded jitter factor in `[0.5, 1.0]` before re-dialing, so a fleet of
/// clients dropped by the same fault does not reconnect in lockstep.
#[derive(Clone, Debug)]
pub struct ReconnectPolicy {
    /// First-attempt backoff.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Exponential growth factor per failed attempt.
    pub factor: f64,
    /// Attempts before [`ServiceClient::resume`] gives up.
    pub retries: u32,
    /// Jitter seed (deterministic per client).
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> ReconnectPolicy {
        ReconnectPolicy {
            base: Duration::from_millis(20),
            max: Duration::from_secs(2),
            factor: 2.0,
            retries: 16,
            seed: 0x6A77,
        }
    }
}

/// A connection-health transition surfaced by a self-healing client
/// (drained with [`ServiceClient::take_status`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientStatus {
    /// The connection died; reconnect attempt `attempt` is starting.
    Degraded {
        /// 1-based attempt counter within one [`ServiceClient::resume`].
        attempt: u32,
    },
    /// A reconnect succeeded and the session was resumed.
    Recovered {
        /// Subscriptions re-established (and re-baselined).
        resubscribed: usize,
        /// Attempts the recovery took.
        attempts: u32,
    },
}

/// A blocking connection to a [`Service`](crate::Service).
pub struct ServiceClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The request line being sent and the server line being read.
    line_out: String,
    line_in: String,
    /// Pushes received while waiting for a reply, in arrival order.
    pending: VecDeque<Push>,
    /// The endpoint we dialed (needed to re-dial).
    addr: Option<SocketAddr>,
    /// Self-healing configuration; `None` = fail fast (the default).
    policy: Option<ReconnectPolicy>,
    /// Live subscriptions, remembered for session resume.
    subs: Vec<QueryId>,
    /// Degraded/Recovered transitions not yet drained by the caller.
    statuses: VecDeque<ClientStatus>,
    /// Successful session resumes over this client's lifetime.
    reconnects: u64,
    /// Jitter state.
    rng: u64,
}

impl ServiceClient {
    /// Connects to a running service.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<ServiceClient> {
        let stream = TcpStream::connect(addr)?;
        // Requests are small lines; Nagle would stall pipelined sends.
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone()?;
        let addr = stream.peer_addr().ok();
        Ok(ServiceClient {
            writer: stream,
            reader: BufReader::new(read_half),
            line_out: String::new(),
            line_in: String::new(),
            pending: VecDeque::new(),
            addr,
            policy: None,
            subs: Vec::new(),
            statuses: VecDeque::new(),
            reconnects: 0,
            rng: 0,
        })
    }

    /// Makes the client self-healing: on transport or framing failure,
    /// [`ServiceClient::next_push`] (and explicit [`ServiceClient::resume`]
    /// calls) reconnect under `policy` and resume the session.
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> ServiceClient {
        self.rng = policy.seed;
        self.policy = Some(policy);
        self
    }

    /// Next unread connection-health transition, if any.
    pub fn take_status(&mut self) -> Option<ClientStatus> {
        self.statuses.pop_front()
    }

    /// Successful session resumes over this client's lifetime.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Tears the current connection down, re-dials under the reconnect
    /// policy (exponential backoff + jitter), re-`SUBSCRIBE`s every
    /// remembered subscription, and re-baselines the push stream: a
    /// synthetic `RESYNC` marker followed by the fresh baseline
    /// `SNAPSHOT`s lands in the pending-push buffer, so an
    /// [`apply_push`]-driven mirror self-corrects exactly as it does for
    /// a server-side resync.
    ///
    /// Intermediate pushes sent while the connection was down are lost —
    /// that is what the re-baseline repairs. Fails only once `retries`
    /// attempts are exhausted (or no policy/endpoint is configured).
    pub fn resume(&mut self) -> ClientResult<()> {
        let Some(policy) = self.policy.clone() else {
            return Err(ClientError::Protocol(
                "no reconnect policy configured".into(),
            ));
        };
        let Some(addr) = self.addr else {
            return Err(ClientError::Protocol(
                "peer address unknown; cannot reconnect".into(),
            ));
        };
        // The old socket is dead or poisoned either way; make it
        // unambiguous so a half-working connection cannot interleave.
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        let mut backoff = policy.base;
        for attempt in 1..=policy.retries.max(1) {
            self.statuses.push_back(ClientStatus::Degraded { attempt });
            // Jitter in [0.5, 1.0]: never sleeps longer than the nominal
            // backoff, never less than half of it.
            let unit = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
            std::thread::sleep(backoff.mul_f64(0.5 + 0.5 * unit));
            backoff = Duration::from_secs_f64(
                (backoff.as_secs_f64() * policy.factor).min(policy.max.as_secs_f64()),
            );
            let Ok(stream) = TcpStream::connect(addr) else {
                continue;
            };
            let Ok(read_half) = stream.try_clone() else {
                continue;
            };
            self.writer = stream;
            self.reader = BufReader::new(read_half);
            // Stale pushes from the dead connection must not survive into
            // the resumed stream; the baselines below replace them.
            self.pending.clear();
            match self.resubscribe_all() {
                Ok(resubscribed) => {
                    self.reconnects += 1;
                    self.statuses.push_back(ClientStatus::Recovered {
                        resubscribed,
                        attempts: attempt,
                    });
                    return Ok(());
                }
                // The fresh connection died during resume (or the server
                // is still coming up): keep backing off.
                Err(ClientError::Io(_) | ClientError::Protocol(_)) => continue,
                Err(e @ ClientError::Server { .. }) => return Err(e),
            }
        }
        Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("reconnect gave up after {} attempts", policy.retries.max(1)),
        )))
    }

    /// Re-`SUBSCRIBE`s every remembered subscription on a fresh
    /// connection. The server enqueues each baseline `SNAPSHOT` before
    /// its `OK`, so the baselines accumulate in the pending-push buffer
    /// in subscription order; a `RESYNC` marker is prepended so consumers
    /// can tell intermediate states were lost. Subscriptions whose query
    /// vanished while we were away are dropped from the resume set.
    fn resubscribe_all(&mut self) -> ClientResult<usize> {
        self.pending.push_back(Push::Resync {
            count: self.subs.len(),
        });
        let mut kept = Vec::new();
        for q in self.subs.clone() {
            self.send(&Request::Subscribe(q))?;
            match self.wait_reply()? {
                Reply::OkQuery(_) => kept.push(q),
                Reply::Err { .. } => continue,
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected reply shape: {other}"
                    )))
                }
            }
        }
        let resubscribed = kept.len();
        self.subs = kept;
        Ok(resubscribed)
    }

    /// Runs one closure, healing the connection and retrying once if it
    /// fails on transport/framing while a reconnect policy is attached.
    fn heal<T>(
        &mut self,
        mut op: impl FnMut(&mut ServiceClient) -> ClientResult<T>,
    ) -> ClientResult<T> {
        match op(self) {
            Err(ClientError::Io(_) | ClientError::Protocol(_)) if self.policy.is_some() => {
                self.resume()?;
                op(self)
            }
            other => other,
        }
    }

    /// Sends a raw request line (terminator added here).
    pub fn send(&mut self, req: &Request) -> ClientResult<()> {
        self.send_with(|line| write!(line, "{req}"))
    }

    /// Sends the line `encode` writes into the reused request buffer.
    fn send_with(&mut self, encode: impl FnOnce(&mut String) -> fmt::Result) -> ClientResult<()> {
        self.line_out.clear();
        let _ = encode(&mut self.line_out); // a `String` takes it all
        self.line_out.push('\n');
        self.writer.write_all(self.line_out.as_bytes())?;
        Ok(())
    }

    fn read_line(&mut self) -> ClientResult<ServerLine> {
        self.line_in.clear();
        if self.reader.read_line(&mut self.line_in)? == 0 {
            return Err(ClientError::Protocol("connection closed".into()));
        }
        parse_server_line(self.line_in.trim()).map_err(ClientError::Protocol)
    }

    fn expect_tick(&mut self) -> ClientResult<Timestamp> {
        match self.wait_reply()? {
            Reply::OkTick { now, .. } => Ok(now),
            other => fail(other),
        }
    }

    /// Reads until the next *reply*, buffering any pushes that arrive
    /// first.
    pub fn wait_reply(&mut self) -> ClientResult<Reply> {
        loop {
            match self.read_line()? {
                ServerLine::Reply(r) => return Ok(r),
                ServerLine::Push(p) => self.pending.push_back(p),
            }
        }
    }

    /// Returns the next push, blocking on the socket if none is buffered.
    ///
    /// On a self-healing client (see [`ServiceClient::with_reconnect`]) a
    /// transport or framing failure here — a reset connection, a garbled
    /// line — triggers [`ServiceClient::resume`]; the caller then simply
    /// receives the synthetic `RESYNC` and baseline `SNAPSHOT` pushes of
    /// the resumed session.
    pub fn next_push(&mut self) -> ClientResult<Push> {
        loop {
            if let Some(p) = self.pending.pop_front() {
                return Ok(p);
            }
            match self.read_line() {
                Ok(ServerLine::Push(p)) => return Ok(p),
                Ok(ServerLine::Reply(r)) => {
                    return Err(ClientError::Protocol(format!(
                        "unsolicited reply while reading pushes: {r}"
                    )))
                }
                Err(ClientError::Io(_) | ClientError::Protocol(_)) if self.policy.is_some() => {
                    // The resume seeds `pending`; loop around to drain it.
                    self.resume()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Returns a buffered push without touching the socket.
    pub fn try_buffered_push(&mut self) -> Option<Push> {
        self.pending.pop_front()
    }

    fn expect_query(&mut self) -> ClientResult<QueryId> {
        match self.wait_reply()? {
            Reply::OkQuery(q) => Ok(q),
            other => fail(other),
        }
    }

    /// Registers an unconstrained linear query; returns its server id.
    pub fn register_linear(&mut self, k: usize, weights: &[f64]) -> ClientResult<QueryId> {
        self.register(k, weights, Family::Linear, None, None)
    }

    /// Registers a query with full control over the wire arguments.
    pub fn register(
        &mut self,
        k: usize,
        weights: &[f64],
        family: Family,
        range: Option<Vec<(f64, f64)>>,
        window: Option<WireWindow>,
    ) -> ClientResult<QueryId> {
        self.send(&Request::Register {
            spec: QuerySpec {
                k,
                weights: weights.to_vec(),
                family,
                range,
            },
            window,
        })?;
        self.expect_query()
    }

    /// Terminates a query.
    pub fn unregister(&mut self, q: QueryId) -> ClientResult<()> {
        self.send(&Request::Unregister(q))?;
        self.expect_query().map(drop)
    }

    /// Subscribes to a query's delta stream and returns the baseline
    /// snapshot.
    ///
    /// The server enqueues the baseline `SNAPSHOT` push immediately before
    /// the `OK` reply, so after the reply it is guaranteed to sit in the
    /// push buffer — possibly *behind* deltas of other subscriptions this
    /// connection already holds, which stay buffered for
    /// [`ServiceClient::next_push`] in order.
    pub fn subscribe(&mut self, q: QueryId) -> ClientResult<Vec<Scored>> {
        self.send(&Request::Subscribe(q))?;
        self.expect_query()?;
        if !self.subs.contains(&q) {
            self.subs.push(q);
        }
        // rposition: the baseline is the *last* snapshot enqueued before
        // the reply (earlier buffered snapshots for `q` can exist after an
        // unsubscribe/resubscribe cycle).
        let baseline = self
            .pending
            .iter()
            .rposition(|p| matches!(p, Push::Snapshot { query, .. } if *query == q));
        match baseline.and_then(|pos| self.pending.remove(pos)) {
            Some(Push::Snapshot { entries, .. }) => Ok(entries),
            _ => Err(ClientError::Protocol(format!(
                "baseline snapshot for {q} missing from the subscribe reply"
            ))),
        }
    }

    /// Stops a subscription (idempotent).
    pub fn unsubscribe(&mut self, q: QueryId) -> ClientResult<()> {
        self.subs.retain(|s| *s != q);
        self.send(&Request::Unsubscribe(q))?;
        self.expect_query().map(drop)
    }

    /// One-shot result read. Idempotent, so a self-healing client retries
    /// it once across a resume.
    pub fn snapshot(&mut self, q: QueryId) -> ClientResult<(Timestamp, Vec<Scored>)> {
        self.heal(|c| {
            c.send(&Request::Snapshot(q))?;
            match c.wait_reply()? {
                Reply::OkSnapshot { query, at, entries } if query == q => Ok((at, entries)),
                other => fail(other),
            }
        })
    }

    /// Heartbeat round-trip. Idempotent, so a self-healing client retries
    /// it once across a resume.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.heal(|c| {
            c.send(&Request::Ping)?;
            match c.wait_reply()? {
                Reply::OkPong => Ok(()),
                other => fail(other),
            }
        })
    }

    /// Queues a batch of arrivals (and, under manual ticking, runs the
    /// cycle); returns the server's logical time after the request.
    pub fn tick(&mut self, arrivals: &[f64]) -> ClientResult<Timestamp> {
        self.send_with(|line| write_ingest(line, None, arrivals))?;
        self.expect_tick()
    }

    /// Like [`ServiceClient::tick`] with an explicit timestamp.
    pub fn tick_at(&mut self, at: Timestamp, arrivals: &[f64]) -> ClientResult<Timestamp> {
        self.send_with(|line| write_ingest(line, Some((at, None)), arrivals))?;
        self.expect_tick()
    }

    /// Enrolls this connection as site `site`'s uplink on a coordinator
    /// (`SITE <id> dims=<d>`); any `ADOPT` replay pushed ahead of the
    /// reply lands in the push buffer. Returns the acknowledged site id.
    ///
    /// Test/bench drivers use this to play a site by hand; a real site
    /// server maintains its own uplink internally.
    pub fn enroll_site(&mut self, site: u64, dims: usize) -> ClientResult<u64> {
        self.send(&Request::SiteHello { site, dims })?;
        match self.wait_reply()? {
            Reply::OkSite(id) => Ok(id),
            other => fail(other),
        }
    }

    /// Drives one ingest cycle on a site server (`SITETICK @t base=g …`):
    /// `base` is the global id of the batch's first tuple. Returns the
    /// site's logical time after the cycle.
    pub fn site_ingest(
        &mut self,
        at: Timestamp,
        base: u64,
        arrivals: &[f64],
    ) -> ClientResult<Timestamp> {
        self.send_with(|line| write_ingest(line, Some((at, Some(base))), arrivals))?;
        self.expect_tick()
    }

    /// Server counters as a key → value map. Idempotent, so a
    /// self-healing client retries it once across a resume.
    pub fn stats(&mut self) -> ClientResult<BTreeMap<String, String>> {
        self.heal(|c| {
            c.send(&Request::Stats)?;
            match c.wait_reply()? {
                Reply::OkStats(pairs) => Ok(pairs.into_iter().collect()),
                other => fail(other),
            }
        })
    }

    /// Says goodbye and consumes the connection.
    pub fn quit(mut self) -> ClientResult<()> {
        self.send(&Request::Quit)?;
        match self.wait_reply()? {
            Reply::OkBye => Ok(()),
            other => fail(other),
        }
    }
}

/// SplitMix64: the deterministic generator behind the backoff jitter and
/// the float writer's seeded tests (kept dependency-free on purpose).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fail<T>(reply: Reply) -> ClientResult<T> {
    match reply {
        Reply::Err { code, message } => Err(ClientError::Server { code, message }),
        other => Err(ClientError::Protocol(format!(
            "unexpected reply shape: {other}"
        ))),
    }
}

/// Applies one push to a client-side mirror of subscribed results.
///
/// `DELTA` edits the query's list via [`tkm_core::ResultDelta::apply`];
/// `SNAPSHOT` replaces it wholesale (this is what makes the
/// drop-to-snapshot resync self-healing); `RESYNC` itself changes nothing
/// — the snapshots that follow it do the re-baselining. `ADOPT` (a
/// site-role instruction) and `DEGRADED` (a data-quality marker) never
/// carry result data, so they leave the mirror untouched. Returns the
/// query the push affected, if any.
pub fn apply_push(mirror: &mut BTreeMap<QueryId, Vec<Scored>>, push: &Push) -> Option<QueryId> {
    match push {
        Push::Delta { delta, .. } => {
            delta.apply(mirror.entry(delta.query).or_default());
            Some(delta.query)
        }
        Push::Snapshot { query, entries, .. } => {
            mirror.insert(*query, entries.clone());
            Some(*query)
        }
        Push::Resync { .. } | Push::Adopt { .. } | Push::Degraded { .. } => None,
    }
}
