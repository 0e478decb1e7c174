//! The distributed site/coordinator tier.
//!
//! The ROADMAP's multi-site deployment shape: N **site** servers each run
//! a full local engine over their share of the stream and push only their
//! *local result changes* — `SITEDELTA` lines, a few entries per cycle —
//! up one uplink connection to a **coordinator**, which merges the per-site
//! partial results into the global top-k and serves ordinary subscribers
//! unchanged. Because every query's global top-k is contained in the union
//! of the per-site local top-k's (the per-site engine keeps the k best of
//! its subset under the same total order), merging is a concatenate / sort
//! / truncate over tiny pools — the paper's influence-region economics,
//! applied to the network instead of the grid.
//!
//! **Failure model.** The uplink rides the ordinary session layer, so the
//! coordinator's idle reaping doubles as the site *lease*: a site that
//! misses its lease (crash, partition, stall) is reaped, its pools are
//! dropped, and every query is flagged `DEGRADED` to subscribers while the
//! coordinator keeps serving from the surviving sites. Each `SITETICK`
//! marker advances the site's *watermark*; the minimum watermark over live
//! sites is the publish **frontier** — results are merged and pushed only
//! at timestamps every live site has reached, which bounds staleness to
//! the slowest live site. On reconnect a site re-enrolls (`SITE`), the
//! coordinator replays the query set as `ADOPT` pushes, the site re-ships
//! its full local state as baseline `SITEDELTA`s, and the next marker
//! heals the degradation — after which the published results are again
//! bit-exact against a single-node engine fed the union stream.
//!
//! Everything here runs on the one serving thread (see
//! [`crate::service`]); this module only holds the two role state
//! machines, `CoordState` and `SiteState`. Uplink and subscriber
//! connections alike are ordinary sessions of the epoll loop
//! ([`crate::reactor`]), so a coordinator inherits the fan-out tier's
//! scaling: its merged `DELTA`s are encoded once per cycle and the bytes
//! shared across every subscriber queue.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::protocol::{parse_server_line, Push, Reply, Request, ServerLine};
use tkm_common::{QueryId, Scored, Timestamp, TupleId};
use tkm_core::{DeltaList, MonitorServer, ResultDelta};
use tkm_window::WindowSpec;

use crate::protocol::QuerySpec;

/// Which part a server plays in a (possibly single-node) deployment.
#[derive(Clone, Debug, Default)]
pub enum Role {
    /// The classic single-node server: ingests, monitors, serves.
    #[default]
    Standalone,
    /// Merges site partial results into global top-k's and serves
    /// subscribers; ingests only via enrolled sites (`TICK` is rejected).
    Coordinator,
    /// Runs a local engine over a partition of the stream (driven by
    /// `SITETICK` ingest requests) and ships local result changes up its
    /// coordinator uplink; subscriber verbs are rejected.
    Site(SiteRole),
}

/// Configuration of a [`Role::Site`] server's coordinator uplink.
#[derive(Clone, Debug)]
pub struct SiteRole {
    /// The site's stable identifier (survives restarts and reconnects).
    pub site: u64,
    /// Coordinator address, e.g. `127.0.0.1:7071`.
    pub coordinator: String,
}

impl SiteRole {
    /// An uplink to `coordinator` for site `site`.
    pub fn new(site: u64, coordinator: impl Into<String>) -> SiteRole {
        SiteRole {
            site,
            coordinator: coordinator.into(),
        }
    }
}

// ------------------------------------------------------------- coordinator

use crate::session::SessionId;

/// One enrolled site as the coordinator sees it.
struct SiteLink {
    /// The uplink session currently speaking for this site (`None` while
    /// the site is down or being reaped).
    sid: Option<SessionId>,
    /// The site's last `SITETICK` marker (`None` until the first marker
    /// after (re-)enrollment — such a site blocks the frontier, bounding
    /// staleness while it baselines).
    watermark: Option<Timestamp>,
}

/// Coordinator-role state: enrolled sites, per-site result pools, and the
/// merged results last published to subscribers.
pub(crate) struct CoordState {
    /// site id → link state, for every site ever enrolled.
    links: BTreeMap<u64, SiteLink>,
    /// live uplink session → site id.
    by_sid: BTreeMap<SessionId, u64>,
    /// Sites that missed their lease and have not yet healed (their data
    /// is missing from the published merges).
    degraded: BTreeSet<u64>,
    /// Query shapes, replayed as `ADOPT` on (re-)enrollment.
    specs: BTreeMap<QueryId, QuerySpec>,
    /// query → site id → that site's local top-k (desc, global ids).
    pools: BTreeMap<QueryId, BTreeMap<u64, Vec<Scored>>>,
    /// query → merged result last pushed to subscribers.
    published: BTreeMap<QueryId, Vec<Scored>>,
    /// Publish clock: the largest frontier published so far (clamped
    /// non-decreasing so degrade-time republishes never regress it).
    last_ts: Timestamp,
    /// `SITEDELTA`s merged into pools so far.
    pub(crate) deltas_in: u64,
}

/// What a processed `SITETICK` marker asks the engine owner to do.
pub(crate) struct MarkerOutcome {
    /// Timestamp to label the publish with.
    pub(crate) at: Timestamp,
    /// Whether this marker healed the site (emit `DEGRADED` updates).
    pub(crate) healed: bool,
}

impl CoordState {
    pub(crate) fn new() -> CoordState {
        CoordState {
            links: BTreeMap::new(),
            by_sid: BTreeMap::new(),
            degraded: BTreeSet::new(),
            specs: BTreeMap::new(),
            pools: BTreeMap::new(),
            published: BTreeMap::new(),
            last_ts: Timestamp(0),
            deltas_in: 0,
        }
    }

    /// Enrolls (or re-enrolls) `site` on session `sid`, returning the
    /// query set to replay as `ADOPT` pushes. Any previous session for the
    /// same site id is superseded, and the site's pools are cleared — the
    /// site re-ships its state as baseline `SITEDELTA`s right after the
    /// hello.
    pub(crate) fn enroll(&mut self, sid: SessionId, site: u64) -> Vec<(QueryId, QuerySpec)> {
        if let Some(old) = self.links.get(&site).and_then(|l| l.sid) {
            self.by_sid.remove(&old);
        }
        self.links.insert(
            site,
            SiteLink {
                sid: Some(sid),
                watermark: None,
            },
        );
        self.by_sid.insert(sid, site);
        for per_site in self.pools.values_mut() {
            per_site.remove(&site);
        }
        self.specs.iter().map(|(q, s)| (*q, s.clone())).collect()
    }

    /// The site id enrolled on `sid`, if any.
    pub(crate) fn site_of(&self, sid: SessionId) -> Option<u64> {
        self.by_sid.get(&sid).copied()
    }

    /// The sessions of every live site uplink (`ADOPT` broadcast targets).
    pub(crate) fn uplink_sids(&self) -> Vec<SessionId> {
        self.by_sid.keys().copied().collect()
    }

    /// Handles a dead session. If it carried a site's uplink, the site's
    /// pools are dropped and the site is marked degraded; returns the site
    /// id so the owner republishes and notifies subscribers.
    pub(crate) fn gone(&mut self, sid: SessionId) -> Option<u64> {
        let site = self.by_sid.remove(&sid)?;
        let link = self.links.get_mut(&site)?;
        if link.sid != Some(sid) {
            return None;
        }
        link.sid = None;
        link.watermark = None;
        for per_site in self.pools.values_mut() {
            per_site.remove(&site);
        }
        self.degraded.insert(site);
        Some(site)
    }

    /// Merges a `SITEDELTA` into the sending site's pool for the query.
    pub(crate) fn apply_delta(
        &mut self,
        sid: SessionId,
        delta: &ResultDelta,
    ) -> Result<QueryId, String> {
        let site = self
            .site_of(sid)
            .ok_or("SITEDELTA from a connection that has not enrolled with SITE")?;
        let q = delta.query;
        if !self.specs.contains_key(&q) {
            return Err(format!("SITEDELTA for unregistered query {q}"));
        }
        let pool = self.pools.entry(q).or_default().entry(site).or_default();
        delta.apply(pool);
        self.deltas_in += 1;
        Ok(q)
    }

    /// Advances the sending site's watermark on a `SITETICK` marker.
    /// Returns what to publish: the frontier advanced, or the site just
    /// healed (its baseline is in; merges must be refreshed either way).
    pub(crate) fn marker(&mut self, sid: SessionId, at: Timestamp) -> Option<MarkerOutcome> {
        let site = self.site_of(sid)?;
        if let Some(link) = self.links.get_mut(&site) {
            link.watermark = Some(link.watermark.map_or(at, |w| w.max(at)));
        }
        let healed = self.degraded.remove(&site);
        let advanced = match self.frontier() {
            Some(f) if f > self.last_ts => {
                self.last_ts = f;
                true
            }
            _ => false,
        };
        (advanced || healed).then_some(MarkerOutcome {
            at: self.last_ts,
            healed,
        })
    }

    /// The bounded-staleness frontier: the minimum watermark over live
    /// sites. `None` while any live site has no watermark yet (it is
    /// baselining; publishing around it would silently drop its data) or
    /// no site is live at all.
    fn frontier(&self) -> Option<Timestamp> {
        let mut min = None;
        for link in self.links.values() {
            if link.sid.is_none() {
                continue;
            }
            match (min, link.watermark) {
                (_, None) => return None,
                (None, w) => min = w,
                (Some(m), Some(w)) => min = Some(m.min(w)),
            }
        }
        min
    }

    /// Records a freshly registered query (already accepted by the
    /// coordinator's engine, which allocated its id).
    pub(crate) fn register(&mut self, q: QueryId, spec: QuerySpec) {
        self.specs.insert(q, spec);
        self.published.insert(q, Vec::new());
    }

    /// Drops a terminated query.
    pub(crate) fn unregister(&mut self, q: QueryId) {
        self.specs.remove(&q);
        self.pools.remove(&q);
        self.published.remove(&q);
    }

    /// The merged result last published for `q` (what subscribers and
    /// `SNAPSHOT` see), if the query is registered.
    pub(crate) fn result_of(&self, q: QueryId) -> Option<Vec<Scored>> {
        if !self.specs.contains_key(&q) {
            return None;
        }
        Some(self.published.get(&q).cloned().unwrap_or_default())
    }

    /// The global top-k of one query: concatenate the per-site pools, sort
    /// by the global total order, truncate to k. Pool tuple ids are global
    /// (sites translate before shipping), so the tie-break order is
    /// bit-exact against a single-node engine over the union stream.
    fn merge(&self, q: QueryId, k: usize) -> Vec<Scored> {
        let mut all: Vec<Scored> = self
            .pools
            .get(&q)
            .map(|per_site| per_site.values().flatten().copied().collect())
            .unwrap_or_default();
        all.sort_unstable_by(|a, b| b.cmp(a));
        all.dedup();
        all.truncate(k);
        all
    }

    /// Re-merges every query against its published result, updating the
    /// published state and returning the differences to fan out.
    pub(crate) fn republish(&mut self) -> Vec<ResultDelta> {
        let mut out = Vec::new();
        let queries: Vec<(QueryId, usize)> = self.specs.iter().map(|(q, s)| (*q, s.k)).collect();
        for (q, k) in queries {
            let fresh = self.merge(q, k);
            let stale = self.published.get(&q).map(Vec::as_slice).unwrap_or(&[]);
            if stale != fresh.as_slice() {
                out.push(ResultDelta::diff(q, stale, &fresh));
                self.published.insert(q, fresh);
            }
        }
        out
    }

    /// The publish clock (for degrade-time republishes, which reuse the
    /// last published timestamp rather than advancing it).
    pub(crate) fn publish_ts(&self) -> Timestamp {
        self.last_ts
    }

    /// Sites currently missing from the merges, ascending (the payload of
    /// a `DEGRADED` push; empty = healed).
    pub(crate) fn degraded_sites(&self) -> Vec<u64> {
        self.degraded.iter().copied().collect()
    }

    /// Every registered query id (each is affected when a site's liveness
    /// changes, since every query draws from every site).
    pub(crate) fn queries(&self) -> Vec<QueryId> {
        self.specs.keys().copied().collect()
    }

    /// `STATS` pairs specific to the coordinator role.
    pub(crate) fn stats(&self) -> Vec<(String, String)> {
        let live = self.links.values().filter(|l| l.sid.is_some()).count();
        let degraded = self
            .degraded
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        vec![
            ("role".into(), "coordinator".into()),
            ("sites".into(), self.links.len().to_string()),
            ("sites_live".into(), live.to_string()),
            ("degraded_sites".into(), degraded),
            ("frontier".into(), self.last_ts.to_string()),
            ("site_deltas".into(), self.deltas_in.to_string()),
        ]
    }
}

// -------------------------------------------------------------------- site

/// A contiguous run of locally ingested tuples and where they live in the
/// global id space: `SITETICK` ingest batch `base=<g>` with `len` tuples
/// maps local ids `[local, local+len)` to global `[global, global+len)`.
struct Chunk {
    local: u64,
    global: u64,
    len: u64,
    at: Timestamp,
}

/// How long an uplink read may block while draining queued coordinator
/// traffic at the top of each cycle (also the slice width of the blocking
/// hello read loop). The uplink socket is nonblocking — a timeout-based
/// read would round up to a scheduler jiffy (~4ms) on the ingest RPC's
/// critical path; this is only the sleep quantum between explicit polls.
const DRAIN_SLICE: Duration = Duration::from_millis(1);

/// Overall deadline on the enrollment hello (connect, `SITE`, `ADOPT`
/// replay, `OK s<id>`).
const HELLO_DEADLINE: Duration = Duration::from_secs(2);

/// Deadline on one uplink write; a coordinator that stopped reading kills
/// the uplink (and the site redials next cycle) instead of wedging the
/// serving thread.
const UPLINK_WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Hard cap on one uplink line (same bound as the session reader).
const MAX_UPLINK_LINE: u64 = 1 << 20;

/// The site's half of the uplink: a buffered line reader and a writer over
/// the two handles of one socket, plus the partial-line carry between
/// read slices.
struct Uplink {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

/// One polled uplink line.
enum Polled {
    Line(String),
    Empty,
    Dead,
}

impl Uplink {
    /// Reads one line if available, resuming partial lines across read
    /// timeout slices. With a deadline, keeps polling until it passes
    /// (the hello path); without one, returns after the first empty slice
    /// (the per-cycle drain).
    fn poll_line(&mut self, deadline: Option<Instant>) -> Polled {
        use std::io::{ErrorKind, Read};
        loop {
            let room = MAX_UPLINK_LINE.saturating_sub(self.buf.len() as u64);
            if room == 0 {
                return Polled::Dead;
            }
            match self
                .reader
                .by_ref()
                .take(room)
                .read_until(b'\n', &mut self.buf)
            {
                Ok(0) => return Polled::Dead,
                Ok(_) => {
                    if self.buf.last() == Some(&b'\n') {
                        let line = match std::str::from_utf8(&self.buf) {
                            Ok(s) => s.trim().to_string(),
                            Err(_) => return Polled::Dead,
                        };
                        self.buf.clear();
                        return Polled::Line(line);
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    match deadline {
                        Some(d) if Instant::now() < d => std::thread::sleep(DRAIN_SLICE),
                        _ => return Polled::Empty,
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Polled::Dead,
            }
        }
    }

    /// Writes one line, returning the bytes put on the wire. The socket is
    /// nonblocking, so a full send buffer is paced out explicitly — up to
    /// [`UPLINK_WRITE_DEADLINE`], after which the uplink counts as dead.
    fn send_line(&mut self, line: &str) -> std::io::Result<u64> {
        use std::io::ErrorKind;
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let deadline = Instant::now() + UPLINK_WRITE_DEADLINE;
        let mut off = 0;
        while off < bytes.len() {
            match self.writer.write(&bytes[off..]) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
                Ok(n) => off += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(DRAIN_SLICE);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.writer.flush()?;
        Ok(bytes.len() as u64)
    }
}

/// Site-role state: the coordinator uplink, the local↔global id maps, and
/// the communication accounting the distributed bench reports.
pub(crate) struct SiteState {
    role: SiteRole,
    uplink: Option<Uplink>,
    /// global query id → local engine query id.
    gmap: BTreeMap<QueryId, QueryId>,
    /// local engine query id → global query id.
    lmap: BTreeMap<QueryId, QueryId>,
    /// Local→global tuple id translation, newest last, pruned to the
    /// window's reach.
    chunks: VecDeque<Chunk>,
    /// Local arrival sequence: the engine assigns dense ids in ingest
    /// order, so this mirrors its internal counter.
    next_local: u64,
    /// Bytes actually shipped up the uplink (deltas + markers + hello).
    pub(crate) bytes_shipped: u64,
    /// Bytes naive forwarding would have shipped (the raw ingest lines).
    pub(crate) bytes_naive: u64,
    /// Failed uplink writes / rejected uplink replies / bad uplink lines.
    pub(crate) uplink_errors: u64,
    /// Uplink (re)connection attempts that completed the hello.
    pub(crate) enrollments: u64,
    /// Local tuple ids that could not be translated (accounting bug
    /// guard; shipped deltas skip them instead of killing the site).
    pub(crate) translate_misses: u64,
}

impl SiteState {
    pub(crate) fn new(role: SiteRole) -> SiteState {
        SiteState {
            role,
            uplink: None,
            gmap: BTreeMap::new(),
            lmap: BTreeMap::new(),
            chunks: VecDeque::new(),
            next_local: 0,
            bytes_shipped: 0,
            bytes_naive: 0,
            uplink_errors: 0,
            enrollments: 0,
            translate_misses: 0,
        }
    }

    /// Ensures the uplink is connected and enrolled, redialing (one
    /// attempt; the next cycle retries) after a failure. On a successful
    /// re-enrollment the coordinator has cleared this site's pools, so the
    /// current local results are re-shipped as baseline `SITEDELTA`s.
    pub(crate) fn ensure_uplink(&mut self, server: &mut MonitorServer) {
        if self.uplink.is_some() {
            return;
        }
        let Some(mut link) = self.connect() else {
            return;
        };
        if !self.hello(&mut link, server) {
            return;
        }
        self.uplink = Some(link);
        self.enrollments += 1;
        self.ship_baseline(server);
    }

    /// Opens the socket without speaking yet.
    fn connect(&self) -> Option<Uplink> {
        let Ok(stream) = TcpStream::connect(&self.role.coordinator) else {
            return None;
        };
        // Deltas and watermarks are small lines on the merge's critical
        // path; Nagle batching would cost tens of ms per cycle. The
        // socket is nonblocking (both halves share the fd): the per-cycle
        // drain must return instantly when no coordinator traffic is
        // queued, and [`Uplink`] paces reads and writes explicitly.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return None;
        }
        let Ok(writer) = stream.try_clone() else {
            return None;
        };
        Some(Uplink {
            reader: BufReader::new(stream),
            writer,
            buf: Vec::new(),
        })
    }

    /// Speaks the enrollment hello: `SITE <id> dims=<d>`, then drains the
    /// coordinator's `ADOPT` replay (installing each query locally) until
    /// the `OK s<id>` reply.
    fn hello(&mut self, link: &mut Uplink, server: &mut MonitorServer) -> bool {
        let hello = Request::SiteHello {
            site: self.role.site,
            dims: server.dims(),
        }
        .to_string();
        let Ok(n) = link.send_line(&hello) else {
            self.uplink_errors += 1;
            return false;
        };
        self.bytes_shipped += n;
        let deadline = Instant::now() + HELLO_DEADLINE;
        loop {
            match link.poll_line(Some(deadline)) {
                Polled::Line(line) => match parse_server_line(&line) {
                    Ok(ServerLine::Push(push)) => {
                        // ship_baseline after enrollment covers these.
                        let _ = self.apply_adopt(&push, server);
                    }
                    Ok(ServerLine::Reply(Reply::OkSite(_))) => return true,
                    Ok(ServerLine::Reply(Reply::Err { .. })) | Err(_) => {
                        self.uplink_errors += 1;
                        return false;
                    }
                    Ok(ServerLine::Reply(_)) => {}
                },
                Polled::Empty | Polled::Dead => {
                    self.uplink_errors += 1;
                    return false;
                }
            }
        }
    }

    /// Installs or retires one `ADOPT`ed query in the local engine.
    /// Returns the (global, local) ids of a newly installed query, whose
    /// current local result must then be shipped as a baseline.
    fn apply_adopt(
        &mut self,
        push: &Push,
        server: &mut MonitorServer,
    ) -> Option<(QueryId, QueryId)> {
        let Push::Adopt { query: gid, spec } = push else {
            return None;
        };
        match spec {
            Some(spec) => {
                if self.gmap.contains_key(gid) {
                    return None;
                }
                match crate::service::build_query(spec).and_then(|q| server.register(q)) {
                    Ok(lid) => {
                        self.gmap.insert(*gid, lid);
                        self.lmap.insert(lid, *gid);
                        Some((*gid, lid))
                    }
                    Err(_) => {
                        self.uplink_errors += 1;
                        None
                    }
                }
            }
            None => {
                if let Some(lid) = self.gmap.remove(gid) {
                    self.lmap.remove(&lid);
                    let _ = server.unregister(lid);
                }
                None
            }
        }
    }

    /// Drains queued coordinator traffic (query adoptions, acks of shipped
    /// deltas) without blocking past one empty read slice. A query adopted
    /// mid-run immediately ships its current local result as a baseline
    /// `SITEDELTA` — the coordinator's pool for it starts empty.
    pub(crate) fn drain(&mut self, server: &mut MonitorServer) {
        let Some(mut link) = self.uplink.take() else {
            return;
        };
        loop {
            match link.poll_line(None) {
                Polled::Line(line) => match parse_server_line(&line) {
                    Ok(ServerLine::Push(push)) => {
                        if let Some((gid, lid)) = self.apply_adopt(&push, server) {
                            if !self.ship_query_baseline(&mut link, gid, lid, server) {
                                self.uplink_errors += 1;
                                return;
                            }
                        }
                    }
                    Ok(ServerLine::Reply(Reply::Err { .. })) => self.uplink_errors += 1,
                    Ok(ServerLine::Reply(_)) => {}
                    Err(_) => self.uplink_errors += 1,
                },
                Polled::Empty => break,
                Polled::Dead => {
                    self.uplink_errors += 1;
                    return;
                }
            }
        }
        self.uplink = Some(link);
    }

    /// Records one ingest batch's local↔global id mapping and prunes
    /// mappings the window can no longer surface.
    pub(crate) fn record_batch(
        &mut self,
        at: Timestamp,
        base: u64,
        tuples: u64,
        window: WindowSpec,
    ) {
        if tuples > 0 {
            self.chunks.push_back(Chunk {
                local: self.next_local,
                global: base,
                len: tuples,
                at,
            });
            self.next_local += tuples;
        }
        match window {
            WindowSpec::Count(n) => {
                // Keep enough chunks to cover the window plus the batch
                // that evicts into it.
                let floor = self.next_local.saturating_sub(2 * n as u64 + tuples);
                while let Some(front) = self.chunks.front() {
                    if front.local + front.len <= floor {
                        self.chunks.pop_front();
                    } else {
                        break;
                    }
                }
            }
            WindowSpec::Time(d) | WindowSpec::TimeSized { duration: d, .. } => {
                let floor = Timestamp(at.0.saturating_sub(d.saturating_add(2)));
                while let Some(front) = self.chunks.front() {
                    if front.at < floor {
                        self.chunks.pop_front();
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// Translates a local tuple id to its global id.
    fn global_id(&mut self, local: TupleId) -> Option<TupleId> {
        let idx = self.chunks.partition_point(|c| c.local + c.len <= local.0);
        match self.chunks.get(idx) {
            Some(c) if local.0 >= c.local => Some(TupleId(c.global + (local.0 - c.local))),
            _ => {
                self.translate_misses += 1;
                None
            }
        }
    }

    /// Translates one local delta into coordinator space: local query id →
    /// global query id, local tuple ids → global tuple ids.
    fn translate(&mut self, delta: &ResultDelta) -> Option<ResultDelta> {
        let gid = *self.lmap.get(&delta.query)?;
        let mut translated = ResultDelta {
            query: gid,
            added: DeltaList::new(),
            removed: DeltaList::new(),
        };
        for e in &delta.added {
            translated.added.push(Scored {
                score: e.score,
                id: self.global_id(e.id)?,
            });
        }
        for e in &delta.removed {
            translated.removed.push(Scored {
                score: e.score,
                id: self.global_id(e.id)?,
            });
        }
        Some(translated)
    }

    /// Ships one cycle's worth of local result changes plus the cycle
    /// marker up the uplink, and tallies what naive forwarding of the raw
    /// ingest line would have cost instead.
    pub(crate) fn ship_cycle(&mut self, at: Timestamp, deltas: &[ResultDelta], naive_bytes: u64) {
        self.bytes_naive += naive_bytes;
        let Some(mut link) = self.uplink.take() else {
            return;
        };
        for delta in deltas {
            let Some(translated) = self.translate(delta) else {
                continue;
            };
            if translated.is_empty() {
                continue;
            }
            let line = Request::SiteDelta {
                at,
                delta: translated,
            }
            .to_string();
            match link.send_line(&line) {
                Ok(n) => self.bytes_shipped += n,
                Err(_) => {
                    self.uplink_errors += 1;
                    return;
                }
            }
        }
        let marker = Request::SiteCycle { at }.to_string();
        match link.send_line(&marker) {
            Ok(n) => {
                self.bytes_shipped += n;
                self.uplink = Some(link);
            }
            Err(_) => self.uplink_errors += 1,
        }
    }

    /// Re-ships the full current local result of every adopted query as
    /// baseline `SITEDELTA`s (the heal path: the coordinator cleared this
    /// site's pools at re-enrollment).
    fn ship_baseline(&mut self, server: &MonitorServer) {
        let Some(mut link) = self.uplink.take() else {
            return;
        };
        let adopted: Vec<(QueryId, QueryId)> = self.gmap.iter().map(|(g, l)| (*g, *l)).collect();
        for (gid, lid) in adopted {
            if !self.ship_query_baseline(&mut link, gid, lid, server) {
                self.uplink_errors += 1;
                return;
            }
        }
        self.uplink = Some(link);
    }

    /// Ships one query's full current local result as a baseline `SITEDELTA`
    /// over `link`. Returns false when the uplink write failed (the caller
    /// drops the link and counts the error).
    fn ship_query_baseline(
        &mut self,
        link: &mut Uplink,
        gid: QueryId,
        lid: QueryId,
        server: &MonitorServer,
    ) -> bool {
        let Ok(entries) = server.result(lid) else {
            return true;
        };
        let mut baseline = ResultDelta {
            query: gid,
            added: DeltaList::new(),
            removed: DeltaList::new(),
        };
        for e in &entries {
            if let Some(global) = self.global_id(e.id) {
                baseline.added.push(Scored {
                    score: e.score,
                    id: global,
                });
            }
        }
        if baseline.added.is_empty() {
            return true;
        }
        let line = Request::SiteDelta {
            at: server.now(),
            delta: baseline,
        }
        .to_string();
        match link.send_line(&line) {
            Ok(n) => {
                self.bytes_shipped += n;
                true
            }
            Err(_) => false,
        }
    }

    /// `STATS` pairs specific to the site role.
    pub(crate) fn stats(&self) -> Vec<(String, String)> {
        vec![
            ("role".into(), "site".into()),
            ("site".into(), self.role.site.to_string()),
            (
                "uplink".into(),
                if self.uplink.is_some() { "up" } else { "down" }.into(),
            ),
            ("adopted".into(), self.gmap.len().to_string()),
            ("bytes_shipped".into(), self.bytes_shipped.to_string()),
            ("bytes_naive".into(), self.bytes_naive.to_string()),
            ("enrollments".into(), self.enrollments.to_string()),
            ("uplink_errors".into(), self.uplink_errors.to_string()),
            ("translate_misses".into(), self.translate_misses.to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(score: f64, id: u64) -> Scored {
        Scored::new(score, TupleId(id))
    }

    fn spec(k: usize) -> QuerySpec {
        QuerySpec {
            k,
            weights: vec![1.0],
            family: crate::protocol::Family::Linear,
            range: None,
        }
    }

    #[test]
    fn merge_is_concat_sort_truncate_with_global_tiebreak() {
        let mut c = CoordState::new();
        c.register(QueryId(0), spec(3));
        c.enroll(SessionId(1), 10);
        c.enroll(SessionId(2), 20);
        c.apply_delta(
            SessionId(1),
            &ResultDelta {
                query: QueryId(0),
                added: vec![s(0.9, 4), s(0.5, 7)].into(),
                removed: vec![].into(),
            },
        )
        .expect("site 10 delta");
        c.apply_delta(
            SessionId(2),
            &ResultDelta {
                query: QueryId(0),
                added: vec![s(0.9, 2), s(0.7, 9)].into(),
                removed: vec![].into(),
            },
        )
        .expect("site 20 delta");
        // Equal scores break ties on the smaller (older) global id.
        assert_eq!(
            c.merge(QueryId(0), 3),
            vec![s(0.9, 2), s(0.9, 4), s(0.7, 9)]
        );
    }

    #[test]
    fn frontier_is_min_watermark_over_live_sites() {
        let mut c = CoordState::new();
        c.register(QueryId(0), spec(2));
        c.enroll(SessionId(1), 0);
        c.enroll(SessionId(2), 1);
        // One site baselining: no frontier, no publishes.
        assert!(c.marker(SessionId(1), Timestamp(5)).is_none());
        // Both reported: frontier = min(5, 3) = 3.
        let out = c.marker(SessionId(2), Timestamp(3)).expect("publish");
        assert_eq!(out.at, Timestamp(3));
        assert!(!out.healed);
        // The slow site catches up: frontier advances to 5.
        let out = c.marker(SessionId(2), Timestamp(5)).expect("publish");
        assert_eq!(out.at, Timestamp(5));
        // A dead site stops gating the frontier.
        assert_eq!(c.gone(SessionId(1)), Some(0));
        assert_eq!(c.degraded_sites(), vec![0]);
        let out = c.marker(SessionId(2), Timestamp(9)).expect("publish");
        assert_eq!(out.at, Timestamp(9));
    }

    #[test]
    fn reenrollment_supersedes_and_heals_on_first_marker() {
        let mut c = CoordState::new();
        c.register(QueryId(0), spec(2));
        c.enroll(SessionId(1), 7);
        c.apply_delta(
            SessionId(1),
            &ResultDelta {
                query: QueryId(0),
                added: vec![s(1.0, 0)].into(),
                removed: vec![].into(),
            },
        )
        .expect("delta");
        c.marker(SessionId(1), Timestamp(1));
        let deltas = c.republish();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].added, vec![s(1.0, 0)]);
        assert_eq!(c.gone(SessionId(1)), Some(7));
        let deltas = c.republish();
        assert_eq!(deltas.len(), 1, "dropping the pool empties the merge");
        assert_eq!(deltas[0].removed, vec![s(1.0, 0)]);
        // Re-enroll on a new session: replay carries the query set.
        let replay = c.enroll(SessionId(9), 7);
        assert_eq!(replay.len(), 1);
        assert!(c.degraded_sites() == vec![7], "degraded until first marker");
        // A stale Gone for the old session must not re-degrade.
        assert_eq!(c.gone(SessionId(1)), None);
        c.apply_delta(
            SessionId(9),
            &ResultDelta {
                query: QueryId(0),
                added: vec![s(1.0, 0)].into(),
                removed: vec![].into(),
            },
        )
        .expect("baseline");
        let out = c.marker(SessionId(9), Timestamp(2)).expect("heal publish");
        assert!(out.healed);
        assert!(c.degraded_sites().is_empty());
        let deltas = c.republish();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].added, vec![s(1.0, 0)]);
    }

    #[test]
    fn site_translates_local_ids_through_batch_chunks() {
        let mut site = SiteState::new(SiteRole::new(3, "127.0.0.1:1"));
        let w = WindowSpec::Time(100);
        site.record_batch(Timestamp(1), 40, 2, w); // locals 0,1 → 40,41
        site.record_batch(Timestamp(2), 90, 3, w); // locals 2,3,4 → 90,91,92
        assert_eq!(site.global_id(TupleId(0)), Some(TupleId(40)));
        assert_eq!(site.global_id(TupleId(1)), Some(TupleId(41)));
        assert_eq!(site.global_id(TupleId(4)), Some(TupleId(92)));
        assert_eq!(site.global_id(TupleId(5)), None);
        assert_eq!(site.translate_misses, 1);
    }

    #[test]
    fn chunk_pruning_respects_the_window_reach() {
        let mut site = SiteState::new(SiteRole::new(0, "127.0.0.1:1"));
        let w = WindowSpec::Time(5);
        for t in 0..20u64 {
            site.record_batch(Timestamp(t), t * 10, 1, w);
        }
        // Old chunks are gone, recent ones (within duration + slack) stay.
        assert_eq!(site.global_id(TupleId(0)), None);
        assert_eq!(site.global_id(TupleId(19)), Some(TupleId(190)));
        assert_eq!(site.global_id(TupleId(14)), Some(TupleId(140)));
        assert!(site.chunks.len() <= 9);
    }
}
