//! Per-connection session state: outbound byte queue and line framing.
//!
//! Connections are **not** driven by per-connection threads: the
//! [`crate::reactor`] event loop owns every socket and serves all of them
//! from one thread, the same thread that runs the engine. This module
//! provides the two pieces of per-connection state that loop keeps:
//!
//! * [`SessionOut`] — one ordered outbound queue per connection, shared by
//!   replies and pushes. The request handlers enqueue whole lines as
//!   reference-counted byte payloads — one tick's `DELTA` line is encoded
//!   **once** per query and the same `Arc<[u8]>` is enqueued for every
//!   subscriber — and the loop drains it with a *partial-write cursor*: a
//!   short write leaves the front payload in place with its offset
//!   advanced, so flushing resumes mid-line at the next write-readiness
//!   wakeup without ever splicing two lines together. Filling an empty
//!   queue (or closing it) puts the session on the loop's dirty list, so
//!   at the end of a wakeup pass the loop writes each touched session
//!   once, however many lines the pass queued. The front line sits inline
//!   in the queue state, so a session that holds one line at a time never
//!   allocates; lines behind it spill to a `VecDeque`.
//! * [`LineFramer`] — incremental request-line reassembly. The reactor
//!   reads whatever the socket has ready (possibly one byte, possibly a
//!   dozen pipelined lines, possibly a UTF-8 sequence split across two
//!   wakeups) and feeds the raw chunks in; the framer yields complete
//!   lines plus the same oversized/non-UTF-8 classifications the
//!   thread-per-connection reader used to produce, moving a cursor —
//!   not the buffer — per line and never searching a byte twice.
//!
//! **Backpressure policy** (drop-to-snapshot, unchanged since PR 5):
//! replies are never dropped, but the number of queued *push* lines is
//! capped. When a handler pushes to a session whose cap is reached — a
//! consumer reading slower than its subscriptions produce — every queued
//! push is discarded and the engine re-baselines the session with a
//! `RESYNC` marker followed by a fresh `SNAPSHOT` per subscription. Two
//! subtleties come with coalesced writes. First, a push *staged for a
//! socket write* — copied out by [`SessionOut::peek_coalesced`] and
//! accounted for afterwards by [`SessionOut::advance`] — is never
//! discarded: dropping it would desynchronize that accounting (popping
//! lines that were never written) or resume the stream mid-line and
//! garble the next payload. Second, an overflow *latches*: until the
//! engine re-arms the queue with [`SessionOut::clear_overflow`] right
//! before the `RESYNC` baseline, every capped push is refused outright,
//! so the rest of the cycle's deltas cannot land ahead of the pending
//! resync.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::BufRead;
use std::rc::Rc;
use std::sync::Arc;

/// Identifier of one session of the event loop (an accepted connection or
/// a site's uplink), unique within a service run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The sessions whose queue became non-empty (or was closed) since the
/// event loop last flushed: the loop's dirty list, shared with every
/// queue it adopted.
pub(crate) type DirtyList = Rc<RefCell<Vec<SessionId>>>;

/// Opens the event loop's sessions — accepted connections and a site's
/// coordinator uplink alike: ids unique within a service run, and queues
/// that mark the loop's dirty list.
#[derive(Default)]
pub(crate) struct SessionOpener {
    /// The loop's dirty list, shared with every queue opened here.
    pub(crate) dirty: DirtyList,
    next: u64,
}

impl SessionOpener {
    /// A fresh session id and its empty open queue.
    pub(crate) fn open(&mut self) -> (SessionId, Rc<SessionOut>) {
        let sid = SessionId(self.next);
        self.next += 1;
        let out = SessionOut {
            state: RefCell::default(),
            dirty: Some((Rc::clone(&self.dirty), sid)),
        };
        (sid, Rc::new(out))
    }
}

/// A queued outbound line, classed by droppability.
struct OutEntry {
    /// The full encoded line, terminator included. Shared (`Arc`) so a
    /// fan-out of one payload to 10⁴ subscribers enqueues 10⁴ pointers,
    /// not 10⁴ copies.
    bytes: Arc<[u8]>,
    /// `true` for asynchronous pushes (droppable on overflow), `false`
    /// for replies (never dropped).
    push: bool,
}

#[derive(Default)]
struct OutState {
    /// The oldest queued line, inline: a one-line queue owns no buffer.
    front: Option<OutEntry>,
    /// The lines behind `front`, in order; empty whenever `front` is.
    rest: VecDeque<OutEntry>,
    /// Bytes of the front entry already written to the socket.
    cursor: usize,
    /// Number of `push` entries currently queued.
    pushes: usize,
    /// Front entries currently *staged* for a socket write:
    /// [`SessionOut::peek_coalesced`] copies their bytes out, the socket
    /// write happens, and [`SessionOut::advance`] accounts for it
    /// afterwards by popping exactly these entries. The overflow drop
    /// must never discard a staged entry: `advance` would then pop lines
    /// enqueued *after* the drop (losing replies/`RESYNC`s) or leave the
    /// cursor mid-entry (garbling the stream).
    staged: usize,
    /// The push backlog was dropped on overflow and the engine has not
    /// yet re-baselined this session: further capped pushes are refused
    /// (not enqueued) so no delta can slip in ahead of the pending
    /// `RESYNC`.
    overflowed: bool,
    /// No further lines will be accepted; the reactor drains what is
    /// queued and then shuts the socket down.
    closed: bool,
}

impl OutState {
    fn is_empty(&self) -> bool {
        self.front.is_none()
    }

    fn push_back(&mut self, entry: OutEntry) {
        match self.front {
            None => self.front = Some(entry),
            Some(_) => self.rest.push_back(entry),
        }
    }

    fn pop_front(&mut self) {
        self.front = self.rest.pop_front();
    }

    fn iter(&self) -> impl Iterator<Item = &OutEntry> {
        self.front.iter().chain(&self.rest)
    }
}

/// The outbound side of one session: an ordered reply/push byte queue
/// filled by the request handlers and drained by the event loop with
/// partial-write resumption.
///
/// Every method takes `&self`, so the subscription table and the loop's
/// connection can share one queue. Consumption
/// ([`SessionOut::peek_coalesced`] / [`SessionOut::advance`]) is
/// single-consumer by contract.
#[derive(Default)]
pub struct SessionOut {
    state: RefCell<OutState>,
    /// The event loop's dirty list and this session's id there (set when
    /// the loop adopts the connection); an enqueue into an empty queue
    /// marks the session on it.
    dirty: Option<(DirtyList, SessionId)>,
}

impl SessionOut {
    /// Creates an empty open queue.
    pub fn new() -> SessionOut {
        SessionOut::default()
    }

    /// Puts this session on the loop's dirty list (when attached). Only
    /// the empty→non-empty transition and `close` need a mark: while the
    /// queue is non-empty the loop is already due to flush it, through
    /// either this list or its write interest.
    fn mark(&self) {
        if let Some((dirty, sid)) = &self.dirty {
            dirty.borrow_mut().push(*sid);
        }
    }

    fn enqueue(&self, bytes: Arc<[u8]>, push: bool) {
        let was_idle = {
            let mut st = self.state.borrow_mut();
            if st.closed {
                return;
            }
            let was_idle = st.is_empty();
            if push {
                st.pushes += 1;
            }
            st.push_back(OutEntry { bytes, push });
            was_idle
        };
        if was_idle {
            self.mark();
        }
    }

    /// Enqueues a reply line (terminator appended here). Replies are
    /// exempt from the push cap — their volume is bounded by the client's
    /// own (flow-controlled) request rate, so they cannot grow without
    /// bound.
    pub fn send_reply(&self, line: String) {
        self.enqueue(line_bytes(line), false);
    }

    /// Tries to enqueue an already-encoded push payload (terminator
    /// included) under a cap of `cap` pending pushes.
    ///
    /// On overflow every queued push is discarded — except entries
    /// staged for (or partially completed by) a socket write, which must
    /// stay so the write's accounting pops the right lines and the byte
    /// stream stays line-aligned — replies are retained in order, and
    /// `false` is returned: the caller must re-baseline the session with
    /// `RESYNC` + `SNAPSHOT` pushes via [`SessionOut::force_push`]. Until
    /// [`SessionOut::clear_overflow`] marks that re-baseline as underway,
    /// every further capped push is refused (returning `false` again)
    /// without touching the queue, so no later delta can land ahead of
    /// the pending `RESYNC`.
    pub fn try_push_shared(&self, bytes: Arc<[u8]>, cap: usize) -> bool {
        let was_idle = {
            let mut guard = self.state.borrow_mut();
            let st = &mut *guard;
            if st.closed {
                // A vanishing session needs no resync.
                return true;
            }
            if st.overflowed {
                return false;
            }
            if st.pushes >= cap {
                let protect = st.staged.max(usize::from(st.cursor > 0));
                if let Some(front) = st.front.take() {
                    st.rest.push_front(front);
                }
                let mut idx = 0usize;
                st.rest.retain(|l| {
                    let keep = !l.push || idx < protect;
                    idx += 1;
                    keep
                });
                st.pop_front();
                st.pushes = st.iter().filter(|l| l.push).count();
                st.overflowed = true;
                return false;
            }
            let was_idle = st.is_empty();
            st.push_back(OutEntry { bytes, push: true });
            st.pushes += 1;
            was_idle
        };
        if was_idle {
            self.mark();
        }
        true
    }

    /// Re-arms capped pushes after an overflow drop. Called by the engine
    /// immediately before it enqueues the `RESYNC` + `SNAPSHOT` baseline
    /// (nothing else pushes in between).
    pub fn clear_overflow(&self) {
        self.state.borrow_mut().overflowed = false;
    }

    /// Enqueues a push line bypassing the cap — used only for the `RESYNC`
    /// marker and its snapshots, whose volume is bounded by the session's
    /// subscription count.
    pub fn force_push(&self, line: String) {
        self.enqueue(line_bytes(line), true);
    }

    /// Marks the queue closed: already-queued lines are still delivered,
    /// then the reactor shuts the socket down.
    pub fn close(&self) {
        self.state.borrow_mut().closed = true;
        self.mark();
    }

    /// Whether [`SessionOut::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.borrow().closed
    }

    /// Whether nothing is queued (a closed, drained session can be shut
    /// down).
    pub fn is_drained(&self) -> bool {
        self.state.borrow().is_empty()
    }

    /// Copies up to `max` pending bytes (starting at the partial-write
    /// cursor, spanning entries) into `scratch`, returning how many were
    /// staged — a burst of small push lines becomes one socket write.
    /// Single-consumer: only the drainer may pair this with
    /// [`SessionOut::advance`]. Every entry copied from is recorded as
    /// staged — protected from the overflow drop — until that `advance`.
    pub fn peek_coalesced(&self, scratch: &mut Vec<u8>, max: usize) -> usize {
        scratch.clear();
        let mut st = self.state.borrow_mut();
        let mut skip = st.cursor;
        let mut staged = 0usize;
        for entry in st.iter() {
            if scratch.len() >= max {
                break;
            }
            let body = &entry.bytes[skip.min(entry.bytes.len())..];
            skip = 0;
            let room = max - scratch.len();
            scratch.extend_from_slice(&body[..body.len().min(room)]);
            staged += 1;
        }
        st.staged = staged;
        scratch.len()
    }

    /// Records `n` bytes as written, popping every entry the cursor moves
    /// past (partial progress stays in the cursor) and releasing the
    /// staged-entry protection (the write is fully accounted; anything
    /// left re-stages at the next peek).
    pub fn advance(&self, n: usize) {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        st.cursor += n;
        while let Some(front) = &st.front {
            let len = front.bytes.len();
            if st.cursor < len {
                break;
            }
            st.cursor -= len;
            if front.push {
                st.pushes -= 1;
            }
            st.pop_front();
        }
        st.staged = 0;
        // An over-advance past the queue tail cannot represent bytes on
        // the wire; clamp so a buggy caller cannot wedge the cursor.
        if st.is_empty() {
            st.cursor = 0;
        }
    }

    /// Number of currently queued push lines (test/stats hook).
    pub fn queued_pushes(&self) -> usize {
        self.state.borrow().pushes
    }
}

/// Encodes one outbound line: the string's bytes plus the `\n`
/// terminator, as a shareable payload.
pub(crate) fn line_bytes(line: String) -> Arc<[u8]> {
    let mut bytes = line.into_bytes();
    bytes.push(b'\n');
    Arc::from(bytes)
}

/// Hard cap on one request line, keeping per-connection framing memory
/// bounded against a peer that never sends `\n`. Generous: a `TICK` batch
/// of ~25k 2-d tuples still fits.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// One framed inbound line (or its rejection), yielded by
/// [`LineFramer::next_line`].
#[derive(Debug, PartialEq, Eq)]
pub enum FramedLine {
    /// A complete UTF-8 line, terminator stripped.
    Line(String),
    /// The line exceeded the framer's byte cap; its remainder (up to the
    /// next `\n`) is silently discarded and framing resumes at the next
    /// line.
    TooLong,
    /// A complete line that is not valid UTF-8.
    NotUtf8,
}

/// Incremental `\n`-line reassembly over arbitrary read-chunk boundaries.
///
/// Feed whatever the socket produced — single bytes, half a UTF-8
/// sequence, a dozen pipelined lines — via [`LineFramer::feed`], then
/// drain complete lines with [`LineFramer::next_line`]. Memory is bounded
/// by the line cap: once a line exceeds it, the framer switches to a
/// discard mode that scans (without storing) until the terminator.
/// Yielding a line moves a cursor, not the buffer: the consumed prefix is
/// reclaimed once per `feed`, and a partial line is searched for its
/// terminator only past the bytes already searched.
pub struct LineFramer {
    buf: Vec<u8>,
    /// `buf[..head]` was already yielded as lines.
    head: usize,
    /// `buf[head..scanned]` is known to hold no terminator.
    scanned: usize,
    /// An oversized line was reported; bytes are dropped until `\n`.
    discarding: bool,
    max: usize,
}

impl LineFramer {
    /// A framer with the given line cap ([`MAX_REQUEST_LINE`] for the
    /// serving layer).
    pub fn new(max: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            head: 0,
            scanned: 0,
            discarding: false,
            max: max.max(1),
        }
    }

    /// Appends one read chunk.
    pub fn feed(&mut self, mut chunk: &[u8]) {
        if self.discarding {
            match chunk.iter().position(|b| *b == b'\n') {
                Some(i) => {
                    self.discarding = false;
                    chunk = &chunk[i + 1..];
                }
                None => return,
            }
        }
        // The one compaction: the unyielded tail (a partial line) moves.
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.scanned -= self.head;
            self.head = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes currently buffered (partial line + any complete lines not
    /// yet drained).
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// How many of the [`LineFramer::pending_len`] bytes are known to hold
    /// no terminator: [`LineFramer::next_line`] searches past them.
    pub fn scanned_len(&self) -> usize {
        self.scanned - self.head
    }

    /// Yields the next complete line (or cap/encoding rejection), `None`
    /// when more bytes are needed.
    pub fn next_line(&mut self) -> Option<FramedLine> {
        // `memchr`, as the standard library offers it: consumes through
        // the first terminator, or everything.
        let skipped = (&self.buf[self.scanned..]).skip_until(b'\n').unwrap_or(0);
        self.scanned += skipped;
        if skipped == 0 || self.buf[self.scanned - 1] != b'\n' {
            if self.pending_len() > self.max {
                // Oversized with no terminator in sight: report once, drop
                // what we hold (the next feed reclaims it), scan for it.
                self.head = self.scanned;
                self.discarding = true;
                return Some(FramedLine::TooLong);
            }
            return None;
        }
        let end = self.scanned - 1;
        let mut line = &self.buf[self.head..end];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1]; // tolerate CRLF peers
        }
        let framed = if line.len() > self.max {
            FramedLine::TooLong
        } else {
            match std::str::from_utf8(line) {
                Ok(s) => FramedLine::Line(s.to_owned()),
                Err(_) => FramedLine::NotUtf8,
            }
        };
        self.head = self.scanned;
        Some(framed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the queue through `step`-byte stages, as a socket accepting
    /// at most that much per write would.
    fn drain_by(out: &SessionOut, step: usize) -> Vec<u8> {
        let (mut got, mut scratch) = (Vec::new(), Vec::new());
        loop {
            let n = out.peek_coalesced(&mut scratch, step);
            if n == 0 {
                return got;
            }
            got.extend_from_slice(&scratch);
            out.advance(n);
        }
    }

    /// Drains the queue as a writer with unbounded appetite would.
    fn drain_all(out: &SessionOut) -> Vec<u8> {
        drain_by(out, usize::MAX)
    }

    #[test]
    fn replies_survive_push_overflow() {
        let out = SessionOut::new();
        out.send_reply("OK q0".into());
        assert!(out.try_push_shared(line_bytes("DELTA 1".into()), 2));
        assert!(out.try_push_shared(line_bytes("DELTA 2".into()), 2));
        // Third push overflows the cap of 2: pushes dropped, replies kept.
        assert!(!out.try_push_shared(line_bytes("DELTA 3".into()), 2));
        out.send_reply("OK q1".into());
        out.force_push("RESYNC 1".into());
        out.close();
        assert_eq!(drain_all(&out), b"OK q0\nOK q1\nRESYNC 1\n");
        assert!(out.is_drained());
    }

    #[test]
    fn overflow_never_drops_a_partially_written_push() {
        let out = SessionOut::new();
        assert!(out.try_push_shared(line_bytes("DELTA first".into()), 2));
        assert!(out.try_push_shared(line_bytes("DELTA second".into()), 2));
        // Simulate a short write: 3 bytes of "DELTA first\n" on the wire.
        out.advance(3);
        assert!(
            !out.try_push_shared(line_bytes("DELTA third".into()), 2),
            "cap overflow"
        );
        out.force_push("RESYNC 1".into());
        out.close();
        // The in-flight line survives (resuming at its cursor), the rest
        // of the backlog is gone, the resync follows.
        assert_eq!(drain_all(&out), b"TA first\nRESYNC 1\n");
    }

    #[test]
    fn overflow_never_drops_staged_entries() {
        let out = SessionOut::new();
        assert!(out.try_push_shared(line_bytes("DELTA a".into()), 2));
        assert!(out.try_push_shared(line_bytes("DELTA b".into()), 2));
        // The reactor stages both lines for one coalesced write and is
        // now writing with the queue lock released...
        let mut scratch = Vec::new();
        let staged = out.peek_coalesced(&mut scratch, 64);
        assert_eq!(scratch, b"DELTA a\nDELTA b\n");
        // ...when the engine owner overflows the cap mid-write: the staged
        // entries must survive the drop so the pending advance() pops
        // exactly the lines that went on the wire.
        assert!(
            !out.try_push_shared(line_bytes("DELTA c".into()), 2),
            "cap overflow"
        );
        out.clear_overflow();
        out.force_push("RESYNC 1".into());
        out.advance(staged);
        out.close();
        assert_eq!(drain_all(&out), b"RESYNC 1\n");
    }

    #[test]
    fn overflow_latches_pushes_until_cleared() {
        let out = SessionOut::new();
        assert!(out.try_push_shared(line_bytes("DELTA a".into()), 1));
        assert!(
            !out.try_push_shared(line_bytes("DELTA b".into()), 1),
            "cap overflow"
        );
        // Until the owner re-baselines, every capped push — e.g. the
        // cycle's next delta — is refused without being queued.
        assert!(
            !out.try_push_shared(line_bytes("DELTA c".into()), 8),
            "latched"
        );
        assert_eq!(out.queued_pushes(), 0);
        out.clear_overflow();
        out.force_push("RESYNC 1".into());
        assert!(
            out.try_push_shared(line_bytes("DELTA d".into()), 8),
            "re-armed"
        );
        out.close();
        assert_eq!(drain_all(&out), b"RESYNC 1\nDELTA d\n");
    }

    #[test]
    fn partial_write_cursor_resumes_mid_line() {
        let out = SessionOut::new();
        out.send_reply("0123456789".into());
        out.send_reply("ab".into());
        // Drain in 4-byte nibbles: the cursor stops mid-line twice and
        // the third stage spans the entry boundary.
        assert_eq!(drain_by(&out, 4), b"0123456789\nab\n");
    }

    #[test]
    fn coalesced_peek_spans_entries_and_respects_cursor() {
        let out = SessionOut::new();
        out.send_reply("AA".into());
        out.send_reply("BB".into());
        out.send_reply("CC".into());
        out.advance(1); // "A" already on the wire
        let mut scratch = Vec::new();
        assert_eq!(out.peek_coalesced(&mut scratch, 5), 5);
        assert_eq!(scratch, b"A\nBB\n");
        out.advance(5);
        assert_eq!(out.peek_coalesced(&mut scratch, 64), 3);
        assert_eq!(scratch, b"CC\n");
    }

    #[test]
    fn closed_queue_accepts_nothing() {
        let out = SessionOut::new();
        out.close();
        out.send_reply("late".into());
        assert!(
            out.try_push_shared(line_bytes("late push".into()), 4),
            "no resync for corpses"
        );
        out.force_push("late force".into());
        assert!(out.is_drained());
        assert_eq!(out.peek_coalesced(&mut Vec::new(), 64), 0);
    }

    #[test]
    fn framer_reassembles_across_arbitrary_chunks() {
        let mut framer = LineFramer::new(1024);
        for b in b"PING\nSTA" {
            framer.feed(&[*b]);
        }
        assert_eq!(framer.next_line(), Some(FramedLine::Line("PING".into())));
        assert_eq!(framer.next_line(), None);
        framer.feed(b"TS\n");
        assert_eq!(framer.next_line(), Some(FramedLine::Line("STATS".into())));
    }

    #[test]
    fn framer_splits_utf8_across_chunks() {
        let mut framer = LineFramer::new(1024);
        let line = "PING é✓\n".as_bytes();
        let (a, b) = line.split_at(6); // mid-é
        framer.feed(a);
        assert_eq!(framer.next_line(), None);
        framer.feed(b);
        assert_eq!(framer.next_line(), Some(FramedLine::Line("PING é✓".into())));
    }

    #[test]
    fn framer_rejects_oversized_then_recovers() {
        let mut framer = LineFramer::new(8);
        framer.feed(b"0123456789abcdef"); // oversized, no terminator yet
        assert_eq!(framer.next_line(), Some(FramedLine::TooLong));
        assert_eq!(framer.next_line(), None);
        framer.feed(b"junk junk\nPING\n");
        assert_eq!(framer.next_line(), Some(FramedLine::Line("PING".into())));
    }

    #[test]
    fn framer_rejects_oversized_complete_line_once() {
        let mut framer = LineFramer::new(4);
        framer.feed(b"toolongline\nok\n");
        assert_eq!(framer.next_line(), Some(FramedLine::TooLong));
        assert_eq!(framer.next_line(), Some(FramedLine::Line("ok".into())));
    }

    #[test]
    fn framer_classifies_non_utf8() {
        let mut framer = LineFramer::new(64);
        framer.feed(&[0xFF, 0xFE, b'\n', b'o', b'k', b'\n']);
        assert_eq!(framer.next_line(), Some(FramedLine::NotUtf8));
        assert_eq!(framer.next_line(), Some(FramedLine::Line("ok".into())));
    }
}
