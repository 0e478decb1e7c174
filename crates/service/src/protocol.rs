//! The line-oriented wire protocol.
//!
//! Everything on the wire is UTF-8 text, one message per `\n`-terminated
//! line, tokens separated by spaces. Three message classes exist:
//!
//! * **requests** (client → server): [`Request`] — `REGISTER`,
//!   `UNREGISTER`, `SUBSCRIBE`, `UNSUBSCRIBE`, `SNAPSHOT`, `TICK`,
//!   `TICKAT`, `STATS`, `PING`, `QUIT`, plus the distributed-tier verbs
//!   `SITE` (a site enrolls on its coordinator uplink), `SITEDELTA` (a
//!   site ships its local result change) and `SITETICK` (cycle marker /
//!   site-local ingestion — see [`Request::SiteCycle`] and
//!   [`Request::SiteIngest`]);
//! * **replies** (server → client, exactly one per request, in request
//!   order): [`Reply`] — lines starting `OK` or `ERR`;
//! * **pushes** (server → subscriber, asynchronous): [`Push`] — lines
//!   starting `DELTA`, `SNAPSHOT`, `RESYNC`, `ADOPT` (coordinator →
//!   site: install/retire a query) or `DEGRADED` (coordinator →
//!   subscriber: which sites a query is currently missing).
//!
//! Replies and pushes share one ordered stream per connection, so a client
//! that issues a request is guaranteed to see every push enqueued before
//! the reply first — [`parse_server_line`] classifies a received line into
//! [`ServerLine::Reply`] vs [`ServerLine::Push`] unambiguously by its first
//! token.
//!
//! Scored entries are encoded `t<id>:<score>`. Every float on the wire —
//! scores, coordinates, weights, range bounds — is printed by the crate's
//! own shortest-round-trip writer (Ryu, Adams 2018), whose reference is
//! std's `f64: Display`: byte-identical, an exact tie rounded up as std
//! does, never an exponent, about twice as fast (≈ 55 against ≈ 120 ns a
//! value), and pinned by its tests and `tests/protocol_fuzz.rs`. So
//! `encode → parse` is bit-exact and a subscriber can reconstruct results
//! oracle-identically.
//! That determinism is also what makes the fan-out path's encode-once
//! sharing sound: each `DELTA` is serialized exactly once per cycle and
//! the same bytes are delivered to every subscriber of the query, so no
//! two subscribers can ever observe differently-rendered scores.
//! The full verb-by-verb grammar is documented in the README's *Serving*
//! section; the round-trip property is pinned by this module's tests.

use std::fmt;
use std::sync::Arc;

use tkm_common::{QueryId, Scored, Timestamp, TupleId};
use tkm_core::{DeltaList, ResultDelta};
use tkm_window::WindowSpec;

use crate::float::write_f64;

/// Scoring-function family selector of a `REGISTER` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `Σ wᵢ·xᵢ` (the default).
    Linear,
    /// `Π (wᵢ + xᵢ)`.
    Product,
    /// `Σ wᵢ·xᵢ²`.
    Quadratic,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Family::Linear => "linear",
            Family::Product => "product",
            Family::Quadratic => "quadratic",
        })
    }
}

/// The query-shape arguments shared by `REGISTER` requests and `ADOPT`
/// pushes: `k=<K> weights=<w,..> [fn=<family>] [range=<lo:hi,..>]`.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    /// Result cardinality.
    pub k: usize,
    /// Per-dimension function parameters (weights/offsets).
    pub weights: Vec<f64>,
    /// Scoring-function family.
    pub family: Family,
    /// Optional per-dimension `(lo, hi)` constraint region (§7).
    pub range: Option<Vec<(f64, f64)>>,
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `REGISTER k=<K> weights=<w,..> [fn=<family>] [range=<lo:hi,..>]
    /// [window=count:<N>|time:<T>]` — registers a continuous query.
    ///
    /// The optional `window` argument is a deployment assertion: the
    /// server rejects the registration unless it matches the window it
    /// was started with, so a client cannot silently monitor a different
    /// window than it believes it does.
    Register {
        /// The query shape.
        spec: QuerySpec,
        /// Optional window assertion.
        window: Option<WireWindow>,
    },
    /// `UNREGISTER q<ID>` — terminates a query.
    Unregister(QueryId),
    /// `SUBSCRIBE q<ID>` — starts streaming the query's result changes to
    /// this connection; a baseline `SNAPSHOT` push is enqueued immediately
    /// before the `OK` reply.
    Subscribe(QueryId),
    /// `UNSUBSCRIBE q<ID>` — stops the stream (idempotent).
    Unsubscribe(QueryId),
    /// `SNAPSHOT q<ID>` — one-shot read of the current result.
    Snapshot(QueryId),
    /// `TICK [v1 v2 ..]` — queues arrivals (one tuple per `dims` values)
    /// for the next processing cycle. Under manual ticking the cycle runs
    /// immediately; under interval ticking all arrivals queued during the
    /// interval are batched into one cycle.
    Tick {
        /// Flat coordinate buffer of the queued arrivals.
        arrivals: Vec<f64>,
    },
    /// `TICKAT @<ts> [v1 v2 ..]` — like `TICK` with an explicit
    /// (non-decreasing) logical timestamp. Manual ticking only.
    TickAt {
        /// Logical timestamp of the cycle.
        at: Timestamp,
        /// Flat coordinate buffer of the queued arrivals.
        arrivals: Vec<f64>,
    },
    /// `STATS` — server counters as `key=value` pairs.
    Stats,
    /// `PING` — heartbeat; the server replies `OK pong`. Keeps a
    /// connection that is silent in both directions alive under the
    /// server's idle deadline.
    Ping,
    /// `QUIT` — server replies `OK bye` and closes the connection.
    Quit,
    /// `SITE <id> dims=<d>` — a site enrolls (or re-enrolls after a
    /// failure) on its uplink connection to a coordinator. The
    /// coordinator replies `OK s<id>`, preceded by one `ADOPT` push per
    /// currently registered query, so a site that drains pushes until
    /// the reply holds the full query set synchronously.
    SiteHello {
        /// The site's stable identifier (survives reconnects).
        site: u64,
        /// The site engine's dimensionality; must match the coordinator.
        dims: usize,
    },
    /// `SITEDELTA q<ID> @<ts> [+entry].. [-entry]..` — a site ships the
    /// change of its *local* top-k for one query at local cycle `ts`.
    /// Entry tuple ids are global (the site translates before shipping),
    /// so the coordinator can merge pools from different sites with the
    /// exact global tie-break order.
    SiteDelta {
        /// The site's local cycle timestamp.
        at: Timestamp,
        /// The local result change, in global tuple ids.
        delta: ResultDelta,
    },
    /// `SITETICK @<ts> base=<gid> [v1 v2 ..]` — drives one local cycle
    /// of a *site-role* server: the arrivals (one tuple per `dims`
    /// values) carry the global tuple ids `base`, `base+1`, … in order.
    /// The site runs the cycle at `ts` and ships any `SITEDELTA`s plus a
    /// bare `SITETICK @<ts>` marker up its coordinator uplink.
    SiteIngest {
        /// Logical timestamp of the cycle (global clock).
        at: Timestamp,
        /// Global tuple id of the first arrival in this batch.
        base: u64,
        /// Flat coordinate buffer of the batch.
        arrivals: Vec<f64>,
    },
    /// `SITETICK @<ts>` — the cycle marker a site sends its coordinator
    /// *after* the cycle's `SITEDELTA`s: "my local engine is now at
    /// `ts`". The coordinator advances the site's watermark; when the
    /// minimum watermark over live sites advances, it merges and
    /// publishes. Doubles as the site's lease heartbeat.
    SiteCycle {
        /// The site's local cycle timestamp.
        at: Timestamp,
    },
}

impl Request {
    /// The wire verb of this request — the first token of its encoding.
    /// Used by the overload-shedding metrics to attribute `ERR busy`
    /// sheds per verb.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Register { .. } => "REGISTER",
            Request::Unregister(_) => "UNREGISTER",
            Request::Subscribe(_) => "SUBSCRIBE",
            Request::Unsubscribe(_) => "UNSUBSCRIBE",
            Request::Snapshot(_) => "SNAPSHOT",
            Request::Tick { .. } => "TICK",
            Request::TickAt { .. } => "TICKAT",
            Request::Stats => "STATS",
            Request::Ping => "PING",
            Request::Quit => "QUIT",
            Request::SiteHello { .. } => "SITE",
            Request::SiteDelta { .. } => "SITEDELTA",
            Request::SiteIngest { .. } | Request::SiteCycle { .. } => "SITETICK",
        }
    }
}

/// The window shape carried by a `REGISTER … window=` assertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireWindow {
    /// `count:<N>` — the `N` most recent tuples.
    Count(usize),
    /// `time:<T>` — tuples younger than `T` ticks.
    Time(u64),
}

impl WireWindow {
    /// Whether the assertion matches a server's configured window.
    /// `TimeSized` is a `Time` window with a pre-allocation hint, so it
    /// matches `time:<T>` on equal duration.
    pub fn matches(self, spec: WindowSpec) -> bool {
        match (self, spec) {
            (WireWindow::Count(n), WindowSpec::Count(m)) => n == m,
            (WireWindow::Time(t), WindowSpec::Time(u)) => t == u,
            (WireWindow::Time(t), WindowSpec::TimeSized { duration, .. }) => t == duration,
            _ => false,
        }
    }
}

impl fmt::Display for WireWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireWindow::Count(n) => write!(f, "count:{n}"),
            WireWindow::Time(t) => write!(f, "time:{t}"),
        }
    }
}

/// Machine-readable error class of an `ERR` reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// The request line did not parse.
    Parse,
    /// An argument was syntactically valid but semantically rejected.
    BadArg,
    /// The query id is not registered.
    UnknownQuery,
    /// A `REGISTER … window=` assertion did not match the server window.
    WindowMismatch,
    /// The operation is not supported in this server mode.
    Unsupported,
    /// The server is overloaded and shed this request before it reached
    /// the engine; the request had no effect and can be retried.
    Busy,
    /// The engine reported an internal error.
    Internal,
}

impl ErrCode {
    fn as_str(self) -> &'static str {
        match self {
            ErrCode::Parse => "parse",
            ErrCode::BadArg => "bad-arg",
            ErrCode::UnknownQuery => "unknown-query",
            ErrCode::WindowMismatch => "window-mismatch",
            ErrCode::Unsupported => "unsupported",
            ErrCode::Busy => "busy",
            ErrCode::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Option<ErrCode> {
        Some(match s {
            "parse" => ErrCode::Parse,
            "bad-arg" => ErrCode::BadArg,
            "unknown-query" => ErrCode::UnknownQuery,
            "window-mismatch" => ErrCode::WindowMismatch,
            "unsupported" => ErrCode::Unsupported,
            "busy" => ErrCode::Busy,
            "internal" => ErrCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A server reply — exactly one per request, in request order.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// `OK q<ID>` — the query id affected by a
    /// register/unregister/subscribe/unsubscribe.
    OkQuery(QueryId),
    /// `OK @<t> queued=<n>` — tick accepted; `t` is the logical time
    /// after any flush, `n` the tuples queued by this request.
    OkTick {
        /// Logical time after the request was processed.
        now: Timestamp,
        /// Number of tuples this request queued.
        queued: usize,
    },
    /// `OK SNAPSHOT q<ID> @<t> [entries..]` — a one-shot result read.
    OkSnapshot {
        /// The query read.
        query: QueryId,
        /// Logical time of the read.
        at: Timestamp,
        /// The current result, best first.
        entries: Vec<Scored>,
    },
    /// `OK STATS key=value ..` — server counters.
    OkStats(Vec<(String, String)>),
    /// `OK pong` — heartbeat answer to `PING`.
    OkPong,
    /// `OK bye` — connection closing after `QUIT`.
    OkBye,
    /// `OK s<ID>` — a coordinator accepted a `SITE` enrollment.
    OkSite(u64),
    /// `ERR <code> <message>` — the request failed.
    Err {
        /// Machine-readable error class.
        code: ErrCode,
        /// Human-readable explanation.
        message: String,
    },
}

/// An asynchronous server push to a subscribed connection.
#[derive(Clone, Debug, PartialEq)]
pub enum Push {
    /// `DELTA q<ID> @<t> [+entry].. [-entry]..` — the query's result
    /// changed at tick `t`; apply added (`+`) and removed (`-`) entries to
    /// the mirrored list.
    Delta {
        /// Logical time of the change.
        at: Timestamp,
        /// The change itself.
        delta: ResultDelta,
    },
    /// `SNAPSHOT q<ID> @<t> [entries..]` — a full result baseline: sent
    /// right after `SUBSCRIBE` and during a backpressure resync. Replaces
    /// the mirrored list wholesale.
    Snapshot {
        /// The query whose state this is.
        query: QueryId,
        /// Logical time of the baseline.
        at: Timestamp,
        /// The full result, best first.
        entries: Vec<Scored>,
    },
    /// `RESYNC <n>` — this connection consumed pushes too slowly and its
    /// backlog was dropped; the server has enqueued `n` fresh `SNAPSHOT`
    /// pushes (one per subscription) to re-baseline it.
    ///
    /// `n` is advisory, not a framing guarantee: if the consumer is
    /// *still* too slow, an in-flight resync can itself be superseded by
    /// a further `RESYNC` before all `n` snapshots were delivered. A
    /// conforming client therefore treats every `SNAPSHOT` push as an
    /// authoritative replacement of that query's mirror (as
    /// [`apply_push`](crate::client::apply_push) does) and uses `RESYNC`
    /// only to detect that intermediate states were lost.
    Resync {
        /// Number of `SNAPSHOT` pushes enqueued behind this marker.
        count: usize,
    },
    /// `ADOPT q<ID> (retire | k=<K> weights=<..> [fn=..] [range=..])` —
    /// coordinator → site: install (or retire, when `spec` is `None`)
    /// the query under the coordinator's *global* query id. Pushed to
    /// every enrolled site when a query is registered/unregistered, and
    /// replayed in full ahead of the `OK s<id>` reply when a site
    /// (re-)enrolls.
    Adopt {
        /// The coordinator's id for the query.
        query: QueryId,
        /// The query shape, or `None` to retire it.
        spec: Option<QuerySpec>,
    },
    /// `DEGRADED q<ID> [s<1> s<2> ..]` — coordinator → subscriber: the
    /// query's published result is currently merged *without* the listed
    /// sites (they missed their lease or dropped their uplink). An empty
    /// site list marks the query healed: every enrolled site contributes
    /// again. Mirrors are unaffected — this is a data-quality marker,
    /// not a result change.
    Degraded {
        /// The affected query.
        query: QueryId,
        /// Sites currently missing from the merge (ascending, empty =
        /// healed).
        sites: Vec<u64>,
    },
}

/// A classified server-to-client line.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerLine {
    /// A reply to a request this connection sent.
    Reply(Reply),
    /// An asynchronous push.
    Push(Push),
}

// ---------------------------------------------------------------- encoding

fn write_entries<W: fmt::Write>(out: &mut W, entries: &[Scored], sign: &str) -> fmt::Result {
    for e in entries {
        write!(out, " {sign}t{}:", e.id.0)?;
        write_f64(out, e.score.get())?;
    }
    Ok(())
}

/// Appends `<verb> <query> <at> +t..:.. … -t..:.. …` to `out`: the body
/// `DELTA` and `SITEDELTA` share, written straight from a borrowed delta
/// into whatever the caller is filling (a formatter, a reused line).
fn write_delta_line<W: fmt::Write>(
    out: &mut W,
    verb: &str,
    at: Timestamp,
    delta: &ResultDelta,
) -> fmt::Result {
    write!(out, "{verb} {} {at}", delta.query)?;
    write_entries(out, &delta.added, "+")?;
    write_entries(out, &delta.removed, "-")
}

/// Encodes one `DELTA` push line, terminator included, into a payload
/// every subscriber's queue can share. The text goes through `line`
/// (cleared first, capacity kept): the payload is the only allocation.
pub fn encode_delta_push(line: &mut String, at: Timestamp, delta: &ResultDelta) -> Arc<[u8]> {
    line.clear();
    let _ = write_delta_line(line, "DELTA", at, delta); // a `String` takes it all
    line.push('\n');
    Arc::from(line.as_bytes())
}

/// The three ingest requests from a borrowed slice — `TICK [v ..]`,
/// `TICKAT @<at> [v ..]`, or with a `base` `SITETICK @<at> base=<base>
/// [v ..]` — so a sender need not own the arrivals to encode them.
pub(crate) fn write_ingest<W: fmt::Write>(
    out: &mut W,
    at: Option<(Timestamp, Option<u64>)>,
    arrivals: &[f64],
) -> fmt::Result {
    match at {
        None => out.write_str("TICK")?,
        Some((at, None)) => write!(out, "TICKAT {at}")?,
        Some((at, Some(base))) => write!(out, "SITETICK {at} base={base}")?,
    }
    for &v in arrivals {
        out.write_str(" ")?;
        write_f64(out, v)?;
    }
    Ok(())
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k={} weights=", self.k)?;
        for (i, &w) in self.weights.iter().enumerate() {
            f.write_str(if i == 0 { "" } else { "," })?;
            write_f64(f, w)?;
        }
        if self.family != Family::Linear {
            write!(f, " fn={}", self.family)?;
        }
        if let Some(r) = &self.range {
            f.write_str(" range=")?;
            for (i, &(lo, hi)) in r.iter().enumerate() {
                f.write_str(if i == 0 { "" } else { "," })?;
                write_f64(f, lo)?;
                f.write_str(":")?;
                write_f64(f, hi)?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Register { spec, window } => {
                write!(f, "REGISTER {spec}")?;
                if let Some(w) = window {
                    write!(f, " window={w}")?;
                }
                Ok(())
            }
            Request::Unregister(q) => write!(f, "UNREGISTER {q}"),
            Request::Subscribe(q) => write!(f, "SUBSCRIBE {q}"),
            Request::Unsubscribe(q) => write!(f, "UNSUBSCRIBE {q}"),
            Request::Snapshot(q) => write!(f, "SNAPSHOT {q}"),
            Request::Tick { arrivals } => write_ingest(f, None, arrivals),
            Request::TickAt { at, arrivals } => write_ingest(f, Some((*at, None)), arrivals),
            Request::Stats => f.write_str("STATS"),
            Request::Ping => f.write_str("PING"),
            Request::Quit => f.write_str("QUIT"),
            Request::SiteHello { site, dims } => write!(f, "SITE {site} dims={dims}"),
            Request::SiteDelta { at, delta } => write_delta_line(f, "SITEDELTA", *at, delta),
            Request::SiteIngest { at, base, arrivals } => {
                write_ingest(f, Some((*at, Some(*base))), arrivals)
            }
            Request::SiteCycle { at } => write!(f, "SITETICK {at}"),
        }
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::OkQuery(q) => write!(f, "OK {q}"),
            Reply::OkTick { now, queued } => write!(f, "OK {now} queued={queued}"),
            Reply::OkSnapshot { query, at, entries } => {
                write!(f, "OK SNAPSHOT {query} {at}")?;
                write_entries(f, entries, "")
            }
            Reply::OkStats(pairs) => {
                write!(f, "OK STATS")?;
                for (k, v) in pairs {
                    write!(f, " {k}={v}")?;
                }
                Ok(())
            }
            Reply::OkPong => f.write_str("OK pong"),
            Reply::OkBye => f.write_str("OK bye"),
            Reply::OkSite(id) => write!(f, "OK s{id}"),
            Reply::Err { code, message } => write!(f, "ERR {code} {message}"),
        }
    }
}

impl fmt::Display for Push {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Push::Delta { at, delta } => write_delta_line(f, "DELTA", *at, delta),
            Push::Snapshot { query, at, entries } => {
                write!(f, "SNAPSHOT {query} {at}")?;
                write_entries(f, entries, "")
            }
            Push::Resync { count } => write!(f, "RESYNC {count}"),
            Push::Adopt { query, spec } => match spec {
                Some(spec) => write!(f, "ADOPT {query} {spec}"),
                None => write!(f, "ADOPT {query} retire"),
            },
            Push::Degraded { query, sites } => {
                write!(f, "DEGRADED {query}")?;
                for sid in sites {
                    write!(f, " s{sid}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for ServerLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerLine::Reply(r) => r.fmt(f),
            ServerLine::Push(p) => p.fmt(f),
        }
    }
}

// ----------------------------------------------------------------- parsing

fn parse_qid(tok: &str) -> Result<QueryId, String> {
    let digits = tok.strip_prefix('q').unwrap_or(tok);
    digits
        .parse::<u64>()
        .map(QueryId)
        .map_err(|_| format!("expected query id, got `{tok}`"))
}

fn parse_ts(tok: &str) -> Result<Timestamp, String> {
    let digits = tok.strip_prefix('@').unwrap_or(tok);
    digits
        .parse::<u64>()
        .map(Timestamp)
        .map_err(|_| format!("expected timestamp, got `{tok}`"))
}

fn parse_f64(tok: &str) -> Result<f64, String> {
    let v: f64 = tok
        .parse()
        .map_err(|_| format!("expected number, got `{tok}`"))?;
    if !v.is_finite() {
        return Err(format!("non-finite value `{tok}`"));
    }
    Ok(v)
}

fn parse_entry(tok: &str) -> Result<Scored, String> {
    let body = tok
        .strip_prefix('t')
        .ok_or_else(|| format!("expected t<id>:<score>, got `{tok}`"))?;
    let (id, score) = body
        .split_once(':')
        .ok_or_else(|| format!("expected t<id>:<score>, got `{tok}`"))?;
    let id = id
        .parse::<u64>()
        .map_err(|_| format!("bad tuple id in `{tok}`"))?;
    Ok(Scored::new(parse_f64(score)?, TupleId(id)))
}

fn parse_floats(csv: &str) -> Result<Vec<f64>, String> {
    if csv.is_empty() {
        return Err("empty number list".into());
    }
    csv.split(',').map(parse_f64).collect()
}

/// The tokens of one line, split exactly where `str::split_whitespace`
/// splits but by bytes: ASCII — all a conforming peer sends — costs one
/// table load per byte and no character decoding. Parsers consume this
/// directly (no token list); the field is the rest of the line.
#[derive(Clone)]
struct Toks<'a>(&'a str);

/// Per byte: 0 = starts no whitespace, 1 = ASCII whitespace, 2 = decode
/// to tell (the lead bytes of U+0085, U+00A0, U+1680, U+2000..U+205F and
/// U+3000: every non-ASCII whitespace character starts with one).
static WS_CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        class[i] = match i as u8 {
            b'\t'..=b'\r' | b' ' => 1,
            0xC2 | 0xE1..=0xE3 => 2,
            _ => 0,
        };
        i += 1;
    }
    class
};

/// Byte length of the whitespace character starting at `s[i]`, or 0.
fn ws_len(s: &str, i: usize) -> usize {
    match WS_CLASS[s.as_bytes()[i] as usize] {
        2 => s[i..]
            .chars()
            .next()
            .filter(|c| c.is_whitespace())
            .map_or(0, char::len_utf8),
        ascii => ascii as usize,
    }
}

impl<'a> Iterator for Toks<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        while !self.0.is_empty() {
            let s = self.0;
            // Cut at a whitespace character's first byte and resume just
            // past it: both fall on character boundaries.
            let (tok, rest) = match (0..s.len()).find(|&i| ws_len(s, i) != 0) {
                Some(i) => (&s[..i], &s[i + ws_len(s, i)..]),
                None => (s, ""),
            };
            self.0 = rest;
            if !tok.is_empty() {
                return Some(tok);
            }
        }
        None
    }
}

fn one_arg<'a>(toks: &mut Toks<'a>, verb: &str) -> Result<&'a str, String> {
    match (toks.next(), toks.next()) {
        (Some(arg), None) => Ok(arg),
        _ => Err(format!("{verb} takes exactly one argument")),
    }
}

/// Parses every remaining token as a finite coordinate: the tail of
/// `TICK`, `TICKAT` and `SITETICK`.
fn parse_values(toks: Toks<'_>) -> Result<Vec<f64>, String> {
    // Room for the most values the remaining bytes can spell (a byte and a
    // separator each), trimmed afterwards: two allocator calls, no regrowth.
    let mut vals = Vec::with_capacity(toks.0.len() / 2);
    for tok in toks {
        vals.push(parse_f64(tok)?);
    }
    vals.shrink_to_fit();
    Ok(vals)
}

/// Parses the shared `k= weights= [fn=] [range=]` query-shape grammar of
/// `REGISTER` (which additionally allows `window=`) and `ADOPT` (which
/// rejects it: the window is the coordinator's, not per-query).
fn parse_query_args(
    toks: Toks<'_>,
    verb: &str,
    allow_window: bool,
) -> Result<(QuerySpec, Option<WireWindow>), String> {
    let mut k = None;
    let mut weights = None;
    let mut family = Family::Linear;
    let mut range = None;
    let mut window = None;
    for tok in toks {
        let (key, value) = tok
            .split_once('=')
            .ok_or_else(|| format!("{verb} arguments are key=value, got `{tok}`"))?;
        match key {
            "k" => {
                let v: usize = value.parse().map_err(|_| format!("bad k `{value}`"))?;
                k = Some(v);
            }
            "weights" => weights = Some(parse_floats(value)?),
            "fn" => {
                family = match value {
                    "linear" => Family::Linear,
                    "product" => Family::Product,
                    "quadratic" => Family::Quadratic,
                    _ => return Err(format!("unknown fn family `{value}`")),
                }
            }
            "range" => {
                let spans: Result<Vec<(f64, f64)>, String> = value
                    .split(',')
                    .map(|span| {
                        let (lo, hi) = span
                            .split_once(':')
                            .ok_or_else(|| format!("range spans are lo:hi, got `{span}`"))?;
                        Ok((parse_f64(lo)?, parse_f64(hi)?))
                    })
                    .collect();
                range = Some(spans?);
            }
            "window" if allow_window => {
                let (kind, size) = value
                    .split_once(':')
                    .ok_or_else(|| format!("window is count:<N> or time:<T>, got `{value}`"))?;
                let n: u64 = size
                    .parse()
                    .map_err(|_| format!("bad window size `{size}`"))?;
                window = Some(match kind {
                    "count" => WireWindow::Count(n as usize),
                    "time" => WireWindow::Time(n),
                    _ => return Err(format!("unknown window kind `{kind}`")),
                });
            }
            _ => return Err(format!("unknown {verb} argument `{key}`")),
        }
    }
    let spec = QuerySpec {
        k: k.ok_or_else(|| format!("{verb} requires k="))?,
        weights: weights.ok_or_else(|| format!("{verb} requires weights="))?,
        family,
        range,
    };
    Ok((spec, window))
}

/// Parses one client request line.
///
/// Returns a human-readable description of the first problem found; the
/// serving layer wraps it into an `ERR parse` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut toks = Toks(line);
    let verb = toks.next().ok_or("empty request")?;
    match verb {
        "REGISTER" => {
            let (spec, window) = parse_query_args(toks, "REGISTER", true)?;
            Ok(Request::Register { spec, window })
        }
        "UNREGISTER" => Ok(Request::Unregister(parse_qid(one_arg(&mut toks, verb)?)?)),
        "SUBSCRIBE" => Ok(Request::Subscribe(parse_qid(one_arg(&mut toks, verb)?)?)),
        "UNSUBSCRIBE" => Ok(Request::Unsubscribe(parse_qid(one_arg(&mut toks, verb)?)?)),
        "SNAPSHOT" => Ok(Request::Snapshot(parse_qid(one_arg(&mut toks, verb)?)?)),
        "TICK" => Ok(Request::Tick {
            arrivals: parse_values(toks)?,
        }),
        "TICKAT" => {
            let at = toks.next().ok_or("TICKAT requires a timestamp")?;
            Ok(Request::TickAt {
                at: parse_ts(at)?,
                arrivals: parse_values(toks)?,
            })
        }
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        "SITE" => {
            let site = toks.next().ok_or("SITE requires a site id")?;
            let site = site
                .parse::<u64>()
                .map_err(|_| format!("expected site id, got `{site}`"))?;
            let dims_arg = one_arg(&mut toks, "SITE <id>")?;
            let dims = dims_arg
                .strip_prefix("dims=")
                .and_then(|d| d.parse::<usize>().ok())
                .ok_or_else(|| format!("expected dims=<d>, got `{dims_arg}`"))?;
            if dims == 0 {
                return Err("SITE dims must be positive".into());
            }
            Ok(Request::SiteHello { site, dims })
        }
        "SITEDELTA" => {
            let (at, delta) = parse_delta_body(toks, "SITEDELTA")?;
            Ok(Request::SiteDelta { at, delta })
        }
        "SITETICK" => {
            let at = toks.next().ok_or("SITETICK requires a timestamp")?;
            let at = parse_ts(at)?;
            match toks.next() {
                None => Ok(Request::SiteCycle { at }),
                Some(first) => {
                    let base = first
                        .strip_prefix("base=")
                        .and_then(|d| d.parse::<u64>().ok())
                        .ok_or_else(|| format!("expected base=<gid>, got `{first}`"))?;
                    Ok(Request::SiteIngest {
                        at,
                        base,
                        arrivals: parse_values(toks)?,
                    })
                }
            }
        }
        _ => Err(format!("unknown verb `{verb}`")),
    }
}

/// Parses `q<ID> @<ts> [+entry].. [-entry]..`, the body `DELTA` and
/// `SITEDELTA` share. Problems are reported entries first, then the
/// timestamp, then the query id.
fn parse_delta_body(mut toks: Toks<'_>, verb: &str) -> Result<(Timestamp, ResultDelta), String> {
    let query = toks.next().ok_or_else(|| missing(verb, "a query id"))?;
    let at = toks.next().ok_or_else(|| missing(verb, "a timestamp"))?;
    let (mut added, mut removed) = (DeltaList::new(), DeltaList::new());
    for tok in toks {
        if let Some(body) = tok.strip_prefix('+') {
            added.push(parse_entry(body)?);
        } else if let Some(body) = tok.strip_prefix('-') {
            removed.push(parse_entry(body)?);
        } else {
            return Err(format!("DELTA entries are +t..:.. or -t..:.., got `{tok}`"));
        }
    }
    let (at, query) = (parse_ts(at)?, parse_qid(query)?);
    let delta = ResultDelta {
        query,
        added,
        removed,
    };
    Ok((at, delta))
}

fn missing(verb: &str, what: &str) -> String {
    format!("{verb} requires {what}")
}

/// Parses one server-to-client line into a reply or a push.
pub fn parse_server_line(line: &str) -> Result<ServerLine, String> {
    let mut toks = Toks(line);
    let head = toks.next().ok_or("empty server line")?;
    match head {
        "OK" => parse_ok(toks).map(ServerLine::Reply),
        "ERR" => {
            let code = toks.next().ok_or("ERR requires a code")?;
            let code =
                ErrCode::from_str(code).ok_or_else(|| format!("unknown ERR code `{code}`"))?;
            Ok(ServerLine::Reply(Reply::Err {
                code,
                message: toks.collect::<Vec<_>>().join(" "),
            }))
        }
        "DELTA" => {
            let (at, delta) = parse_delta_body(toks, "DELTA")?;
            Ok(ServerLine::Push(Push::Delta { at, delta }))
        }
        "SNAPSHOT" => {
            let (query, at, entries) = parse_snapshot_body(toks)?;
            Ok(ServerLine::Push(Push::Snapshot { query, at, entries }))
        }
        "RESYNC" => {
            let count: usize = one_arg(&mut toks, "RESYNC")?
                .parse()
                .map_err(|_| "bad RESYNC count".to_string())?;
            Ok(ServerLine::Push(Push::Resync { count }))
        }
        "ADOPT" => {
            let query = parse_qid(toks.next().ok_or("ADOPT requires a query id")?)?;
            let mut args = toks.clone();
            let spec = if args.next() == Some("retire") && args.next().is_none() {
                None
            } else {
                Some(parse_query_args(toks, "ADOPT", false)?.0)
            };
            Ok(ServerLine::Push(Push::Adopt { query, spec }))
        }
        "DEGRADED" => {
            let query = toks.next().ok_or("DEGRADED requires a query id")?;
            let sites: Result<Vec<u64>, String> = toks.map(parse_site_id).collect();
            Ok(ServerLine::Push(Push::Degraded {
                query: parse_qid(query)?,
                sites: sites?,
            }))
        }
        _ => Err(format!("unknown server line `{head}`")),
    }
}

fn parse_site_id(tok: &str) -> Result<u64, String> {
    tok.strip_prefix('s')
        .and_then(|d| d.parse::<u64>().ok())
        .ok_or_else(|| format!("expected site id s<N>, got `{tok}`"))
}

fn parse_snapshot_body(mut toks: Toks<'_>) -> Result<(QueryId, Timestamp, Vec<Scored>), String> {
    let query = toks.next().ok_or("SNAPSHOT requires a query id")?;
    let at = toks.next().ok_or("SNAPSHOT requires a timestamp")?;
    let entries: Result<Vec<Scored>, String> = toks.map(parse_entry).collect();
    Ok((parse_qid(query)?, parse_ts(at)?, entries?))
}

fn parse_ok(mut toks: Toks<'_>) -> Result<Reply, String> {
    let all = toks.clone();
    let (first, mut rest) = (toks.next(), toks.clone());
    match (first, rest.next(), rest.next()) {
        (Some("bye"), None, _) => Ok(Reply::OkBye),
        (Some("pong"), None, _) => Ok(Reply::OkPong),
        (Some("SNAPSHOT"), ..) => {
            let (query, at, entries) = parse_snapshot_body(toks)?;
            Ok(Reply::OkSnapshot { query, at, entries })
        }
        (Some("STATS"), ..) => {
            let pairs: Result<Vec<(String, String)>, String> = toks
                .map(|tok| {
                    tok.split_once('=')
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .ok_or_else(|| format!("STATS pairs are key=value, got `{tok}`"))
                })
                .collect();
            Ok(Reply::OkStats(pairs?))
        }
        (Some(ts), Some(queued), None) if queued.starts_with("queued=") => Ok(Reply::OkTick {
            now: parse_ts(ts)?,
            queued: queued["queued=".len()..]
                .parse()
                .map_err(|_| "bad queued count".to_string())?,
        }),
        (Some(tok), None, _) => match parse_site_id(tok) {
            Ok(id) => Ok(Reply::OkSite(id)),
            Err(_) => Ok(Reply::OkQuery(parse_qid(tok)?)),
        },
        _ => Err(format!(
            "unparseable OK reply `{}`",
            all.collect::<Vec<_>>().join(" ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(score: f64, id: u64) -> Scored {
        Scored::new(score, TupleId(id))
    }

    #[test]
    fn request_round_trips() {
        let cases = vec![
            Request::Register {
                spec: QuerySpec {
                    k: 5,
                    weights: vec![1.0, -0.25],
                    family: Family::Linear,
                    range: None,
                },
                window: Some(WireWindow::Count(1000)),
            },
            Request::Register {
                spec: QuerySpec {
                    k: 1,
                    weights: vec![0.5, 0.5, 0.125],
                    family: Family::Quadratic,
                    range: Some(vec![(0.0, 0.5), (0.25, 1.0), (0.0, 1.0)]),
                },
                window: Some(WireWindow::Time(60)),
            },
            Request::Unregister(QueryId(3)),
            Request::Subscribe(QueryId(0)),
            Request::Unsubscribe(QueryId(9)),
            Request::Snapshot(QueryId(2)),
            Request::Tick {
                arrivals: vec![0.5, 0.75, 0.125, 1.0],
            },
            Request::Tick { arrivals: vec![] },
            Request::TickAt {
                at: Timestamp(17),
                arrivals: vec![0.5, -0.5],
            },
            Request::Stats,
            Request::Ping,
            Request::Quit,
            Request::SiteHello { site: 2, dims: 3 },
            Request::SiteDelta {
                at: Timestamp(41),
                delta: ResultDelta {
                    query: QueryId(6),
                    added: vec![s(0.75, 1_000_000)].into(),
                    removed: vec![s(0.5, 3)].into(),
                },
            },
            Request::SiteDelta {
                at: Timestamp(0),
                delta: ResultDelta {
                    query: QueryId(0),
                    added: vec![].into(),
                    removed: vec![].into(),
                },
            },
            Request::SiteIngest {
                at: Timestamp(7),
                base: 9_000,
                arrivals: vec![0.25, 0.5, 0.75, 1.0],
            },
            Request::SiteIngest {
                at: Timestamp(8),
                base: 0,
                arrivals: vec![],
            },
            Request::SiteCycle { at: Timestamp(12) },
        ];
        for req in cases {
            let line = req.to_string();
            assert_eq!(parse_request(&line), Ok(req.clone()), "line: {line}");
        }
    }

    #[test]
    fn server_line_round_trips() {
        let cases = vec![
            ServerLine::Reply(Reply::OkQuery(QueryId(4))),
            ServerLine::Reply(Reply::OkTick {
                now: Timestamp(12),
                queued: 8,
            }),
            ServerLine::Reply(Reply::OkSnapshot {
                query: QueryId(1),
                at: Timestamp(3),
                entries: vec![s(0.875, 10), s(-0.5, 2)],
            }),
            ServerLine::Reply(Reply::OkSnapshot {
                query: QueryId(1),
                at: Timestamp(3),
                entries: vec![],
            }),
            ServerLine::Reply(Reply::OkStats(vec![
                ("engine".into(), "SMA".into()),
                ("queries".into(), "3".into()),
            ])),
            ServerLine::Reply(Reply::OkPong),
            ServerLine::Reply(Reply::OkBye),
            ServerLine::Reply(Reply::Err {
                code: ErrCode::UnknownQuery,
                message: "unknown query q7".into(),
            }),
            ServerLine::Reply(Reply::Err {
                code: ErrCode::Busy,
                message: "server inbox full".into(),
            }),
            ServerLine::Push(Push::Delta {
                at: Timestamp(9),
                delta: ResultDelta {
                    query: QueryId(2),
                    added: vec![s(0.75, 40)].into(),
                    removed: vec![s(0.25, 3), s(0.125, 4)].into(),
                },
            }),
            ServerLine::Push(Push::Snapshot {
                query: QueryId(5),
                at: Timestamp(100),
                entries: vec![s(1.5, 7)],
            }),
            ServerLine::Push(Push::Resync { count: 3 }),
            ServerLine::Reply(Reply::OkSite(7)),
            ServerLine::Push(Push::Adopt {
                query: QueryId(3),
                spec: Some(QuerySpec {
                    k: 4,
                    weights: vec![0.5, 0.25],
                    family: Family::Product,
                    range: Some(vec![(0.0, 1.0), (-0.5, 0.5)]),
                }),
            }),
            ServerLine::Push(Push::Adopt {
                query: QueryId(9),
                spec: None,
            }),
            ServerLine::Push(Push::Degraded {
                query: QueryId(2),
                sites: vec![0, 4],
            }),
            ServerLine::Push(Push::Degraded {
                query: QueryId(2),
                sites: vec![],
            }),
        ];
        for line in cases {
            let text = line.to_string();
            assert_eq!(parse_server_line(&text), Ok(line.clone()), "text: {text}");
        }
    }

    #[test]
    fn scores_round_trip_bit_exactly() {
        // Shortest-round-trip formatting: parse(to_string(x)) == x exactly.
        for &score in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -987654.321,
            0.30000000000000004,
        ] {
            let push = Push::Snapshot {
                query: QueryId(0),
                at: Timestamp(0),
                entries: vec![s(score, 1)],
            };
            let ServerLine::Push(Push::Snapshot { entries, .. }) =
                parse_server_line(&push.to_string()).unwrap()
            else {
                panic!("wrong shape");
            };
            assert_eq!(entries[0].score.get().to_bits(), score.to_bits());
        }
    }

    #[test]
    fn parse_rejections() {
        for bad in [
            "",
            "FROB",
            "REGISTER",
            "REGISTER k=3",
            "REGISTER k=x weights=1",
            "REGISTER k=3 weights=",
            "REGISTER k=3 weights=1 window=century:5",
            "REGISTER k=3 weights=1 fn=cubic",
            "SUBSCRIBE",
            "SUBSCRIBE q1 q2",
            "UNREGISTER qq",
            "TICK 0.5 nan",
            "TICKAT",
            "SITE",
            "SITE 3",
            "SITE x dims=2",
            "SITE 3 dims=0",
            "SITE 3 dims=two",
            "SITE 3 dims=2 extra",
            "SITEDELTA",
            "SITEDELTA q1",
            "SITEDELTA q1 @2 t3:4",
            "SITETICK",
            "SITETICK @3 0.5",
            "SITETICK @3 base=x 0.5",
            "SITETICK @3 base=7 nan",
        ] {
            assert!(parse_request(bad).is_err(), "should reject `{bad}`");
        }
        for bad in [
            "",
            "OK",
            "WHAT 1",
            "ERR",
            "ERR weird msg",
            "DELTA q1 @2 t3:4",
            "ADOPT",
            "ADOPT q1",
            "ADOPT q1 retire extra",
            "ADOPT q1 k=3 weights=1 window=count:5",
            "DEGRADED",
            "DEGRADED q1 7",
            "DEGRADED q1 sX",
        ] {
            assert!(parse_server_line(bad).is_err(), "should reject `{bad}`");
        }
    }

    /// The byte tokenizer cuts exactly where `split_whitespace` cuts:
    /// around every character there is (so every whitespace character is
    /// found and no other is taken for one), and over runs, edges and
    /// multi-byte neighbours.
    #[test]
    fn toks_split_exactly_like_split_whitespace() {
        let same = |line: &str| {
            let want: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(Toks(line).collect::<Vec<_>>(), want, "line {line:?}");
        };
        for c in (0..=char::MAX as u32).filter_map(char::from_u32) {
            same(&format!("a{c}é{c}{c}b"));
        }
        for line in [
            "",
            " ",
            "TICK",
            "  TICK \t0.5\r\n",
            "\u{2003}TICK\u{a0}0.5\u{3000}\u{85}0.25\u{1680}",
            "é\u{2028}\u{c2}\u{e1}\u{e2}x\u{e3}\u{205f}→ λ🦀",
            "\u{b}\u{c}a\u{1c}b\u{1f}c",
        ] {
            same(line);
        }
        assert_eq!(
            parse_request("TICK\u{2003}0.5\u{a0}0.25"),
            Ok(Request::Tick {
                arrivals: vec![0.5, 0.25]
            })
        );
    }

    #[test]
    fn window_assertion_matching() {
        assert!(WireWindow::Count(5).matches(WindowSpec::Count(5)));
        assert!(!WireWindow::Count(5).matches(WindowSpec::Count(6)));
        assert!(!WireWindow::Count(5).matches(WindowSpec::Time(5)));
        assert!(WireWindow::Time(60).matches(WindowSpec::Time(60)));
        assert!(WireWindow::Time(60).matches(WindowSpec::TimeSized {
            duration: 60,
            capacity: 1000
        }));
    }
}
