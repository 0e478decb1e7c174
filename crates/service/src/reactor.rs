//! The serving event loop: one thread, every socket, the engine.
//!
//! Two blocking threads per connection would cap fan-out at a few
//! thousand subscribers per node. A `Service` runs **one thread**: a
//! hand-rolled, level-triggered `epoll` loop (no async runtime, no
//! external crates) that owns the listener and every socket, and runs the
//! request handlers of [`crate::service`] inline:
//!
//! * nonblocking `accept`, with each new socket registered for read
//!   readiness under its session-id token — and likewise a site's uplink,
//!   which a `SITETICK` handler dials and the loop then takes over; its
//!   framed lines (`ADOPT`s, acks) go to the site role, not to `serve`;
//! * incremental line framing on partial reads — a request line split
//!   across any number of `epoll` wakeups (even mid-UTF-8-sequence)
//!   reassembles through [`crate::session::LineFramer`] — and each framed
//!   request is served on the spot, its reply and pushes enqueued before
//!   the next line is looked at;
//! * a per-wakeup **request budget** per session: a session with lines
//!   left over loses its read interest and is revisited on the next pass,
//!   which polls with a zero timeout, so a pipelining client gets TCP
//!   backpressure and cannot starve the others;
//! * one write per touched session per pass: enqueues put a session on
//!   the loop's dirty list, and the end of the pass flushes each listed
//!   session in one coalesced `write`;
//! * write-interest-driven flushing on partial writes — each session's
//!   [`crate::session::SessionOut`] keeps a byte cursor into its front
//!   payload, so a short write resumes exactly where the kernel stopped
//!   accepting bytes, and `EPOLLOUT` interest is held only while a
//!   session actually has queued output;
//! * timers from the `epoll_wait` timeout: write deadlines (a fixed one
//!   for an uplink), idle reaping (which spares an uplink) and, under
//!   [`crate::TickPolicy::Interval`], the next flush of queued arrivals;
//! * a stop socket: [`crate::Service::shutdown`] closes its peer, the
//!   loop reads EOF, flushes what it can and closes every connection.
//!
//! The syscall surface is four functions (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `close`) declared in the scoped `sys` module — the
//! only `unsafe` in the workspace.

use std::collections::{BTreeSet, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::distrib::{Dialed, UPLINK_WRITE_DEADLINE};
use crate::protocol::parse_request;
use crate::service::{Counters, EngineOwner, TickPolicy};
use crate::session::{FramedLine, LineFramer, SessionId, SessionOut, MAX_REQUEST_LINE};

/// Raw `epoll` bindings — the workspace's only `unsafe` code, scoped to
/// four syscalls and one `#[repr(C)]` struct. Everything above this
/// module is safe Rust over [`Poller`].
#[allow(unsafe_code)]
mod sys {
    use std::ffi::c_int;

    /// One kernel readiness record. x86-64 packs it (kernel ABI), other
    /// architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub(super) events: u32,
        pub(super) data: u64,
    }

    pub(super) const EPOLL_CLOEXEC: c_int = 0x80000;
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;
    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// SAFETY wrappers: each call passes either owned fds or pointers to
    /// live stack/heap buffers whose lengths are passed alongside.
    pub(super) fn create() -> c_int {
        unsafe { epoll_create1(EPOLL_CLOEXEC) }
    }

    pub(super) fn ctl(epfd: c_int, op: c_int, fd: c_int, ev: Option<&mut EpollEvent>) -> c_int {
        let ptr = ev.map_or(std::ptr::null_mut(), std::ptr::from_mut);
        unsafe { epoll_ctl(epfd, op, fd, ptr) }
    }

    pub(super) fn wait(epfd: c_int, events: &mut [EpollEvent], timeout_ms: c_int) -> c_int {
        unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) }
    }

    pub(super) fn close_fd(fd: c_int) {
        unsafe {
            close(fd);
        }
    }
}

/// A readiness event reported by [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// The descriptor has bytes to read (or a pending accept).
    pub readable: bool,
    /// The descriptor can accept more bytes.
    pub writable: bool,
    /// The peer closed or the descriptor errored; reads will observe
    /// EOF/the error.
    pub hangup: bool,
}

/// A minimal level-triggered `epoll` wrapper: register descriptors under
/// a `u64` token with read/write interest, then [`Poller::wait`] for
/// readiness.
///
/// Public because the fan-out benchmark's client fleet reuses it to
/// follow tens of thousands of subscriber sockets from one thread.
pub struct Poller {
    epfd: std::ffi::c_int,
    buf: Vec<sys::EpollEvent>,
}

impl Poller {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> std::io::Result<Poller> {
        let epfd = sys::create();
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn interest(readable: bool, writable: bool) -> u32 {
        let mut ev = sys::EPOLLRDHUP;
        if readable {
            ev |= sys::EPOLLIN;
        }
        if writable {
            ev |= sys::EPOLLOUT;
        }
        ev
    }

    fn ctl(&self, op: std::ffi::c_int, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        if sys::ctl(self.epfd, op, fd, Some(&mut ev)) < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> std::io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_ADD,
            fd,
            Poller::interest(readable, writable),
            token,
        )
    }

    /// Changes the interest set of a registered descriptor.
    pub fn modify(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> std::io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_MOD,
            fd,
            Poller::interest(readable, writable),
            token,
        )
    }

    /// Deregisters a descriptor (harmless if the kernel already dropped
    /// it on close).
    pub fn remove(&self, fd: RawFd) {
        let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, None);
    }

    /// Blocks until readiness or `timeout`, appending the ready set to
    /// `out` (cleared first). `EINTR` retries internally.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> std::io::Result<()> {
        out.clear();
        let ms = timeout.as_millis().min(i32::MAX as u128) as std::ffi::c_int;
        loop {
            let n = sys::wait(self.epfd, &mut self.buf, ms);
            if n < 0 {
                let err = std::io::Error::last_os_error();
                if err.kind() == ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for ev in self.buf.iter().take(n.max(0) as usize) {
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data,
                    readable: bits & sys::EPOLLIN != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                });
            }
            return Ok(());
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// What to do with a connection after handling it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum After {
    Keep,
    Drop,
}

/// Per-connection reactor state.
struct Conn {
    sid: SessionId,
    stream: TcpStream,
    out: Rc<SessionOut>,
    framer: LineFramer,
    /// A site's uplink to its coordinator: its lines go to the site role,
    /// not to the request handlers, and the idle sweep skips it.
    uplink: bool,
    /// How long queued output may make no progress before the session is
    /// torn down (`None` = wait forever).
    write_deadline: Option<Duration>,
    /// The last inbound bytes or successful flush (the idle clock): a
    /// pure subscriber is kept alive by its own delta stream, a
    /// connection silent in both directions must `PING`.
    active: Instant,
    /// The read budget ran out with requests possibly left: the session
    /// is revisited next pass, its read interest off until then.
    more: bool,
    /// The socket has refused bytes since this instant while output was
    /// queued (the write-deadline clock).
    blocked_since: Option<Instant>,
    /// Interest currently registered with the poller.
    reg_read: bool,
    reg_write: bool,
}

const LISTENER_TOKEN: u64 = u64::MAX;
const STOP_TOKEN: u64 = u64::MAX - 1;
/// Per-wakeup request budget per connection: a session with requests
/// left over waits for the next pass, so a pipelining client cannot
/// starve the others.
const REQUEST_BUDGET: usize = 16;
/// Per-wakeup read budget per connection (bounds a peer that streams
/// bytes without ever finishing a line).
const READ_BUDGET: usize = 16;
/// Read buffer size: a 200-tuple `TICK` line (8 KB) arrives in one `read`.
const READ_CHUNK: usize = 64 * 1024;
/// Coalesced write staging size: a busy tick's pushes to a subscriber
/// (17 KB) leave in one `write`.
const WRITE_CHUNK: usize = 64 * 1024;
/// Per-wakeup write budget per connection, in staged chunks.
const WRITE_BUDGET: usize = 16;

/// The serving loop: owns the listener, every accepted connection and
/// the engine owner whose handlers it runs; one per [`crate::Service`],
/// on its one thread.
pub(crate) struct Reactor {
    poller: Poller,
    listener: TcpListener,
    /// Reads EOF once the `Service` handle closes its peer: stop.
    _stop: UnixStream,
    owner: EngineOwner,
    conns: HashMap<u64, Conn>,
    /// Sessions whose request budget ran out last pass.
    backlog: BTreeSet<u64>,
    /// Sessions with a write deadline running — scanned each loop so the
    /// common case stays O(ready), not O(conns).
    attention: BTreeSet<u64>,
    /// The list being flushed, swapped with the owner's dirty list (keeps
    /// both buffers).
    flushing: Vec<SessionId>,
    /// When the interval timer next flushes queued arrivals, and its
    /// period (`None` under manual ticking).
    ticker: Option<(Instant, Duration)>,
    scratch: Vec<u8>,
    /// The buffer every connection reads through.
    read_buf: Vec<u8>,
}

impl Reactor {
    /// An `epoll` instance watching the listener and the stop socket
    /// (both made nonblocking).
    pub(crate) fn poller(listener: &TcpListener, stop: &UnixStream) -> std::io::Result<Poller> {
        listener.set_nonblocking(true)?;
        stop.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        poller.add(stop.as_raw_fd(), STOP_TOKEN, true, false)?;
        Ok(poller)
    }

    /// A loop over [`Reactor::poller`]'s instance.
    pub(crate) fn new(
        poller: Poller,
        listener: TcpListener,
        stop: UnixStream,
        owner: EngineOwner,
    ) -> Reactor {
        let ticker = match owner.cfg.tick {
            TickPolicy::Manual => None,
            TickPolicy::Interval(period) => Some((Instant::now() + period, period)),
        };
        Reactor {
            poller,
            listener,
            _stop: stop,
            owner,
            ticker,
            conns: HashMap::new(),
            backlog: BTreeSet::new(),
            attention: BTreeSet::new(),
            flushing: Vec::new(),
            scratch: Vec::with_capacity(WRITE_CHUNK),
            read_buf: vec![0; READ_CHUNK],
        }
    }

    /// The event loop. Returns when the stop socket closes.
    pub(crate) fn run(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            let timeout = self.poll_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                // epoll itself failing is unrecoverable; fall back to a
                // clean stop instead of spinning.
                break;
            }
            self.owner.stats.wakeups += 1;
            for token in std::mem::take(&mut self.backlog) {
                self.drive_reads(token);
            }
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    STOP_TOKEN => {
                        self.drain_and_exit();
                        return;
                    }
                    token => self.conn_ready(token, ev),
                }
            }
            if let Some((due, period)) = self.ticker {
                if Instant::now() >= due {
                    self.ticker = Some((due + period, period));
                    self.owner.tick_timer();
                }
            }
            self.flush_dirty();
            self.service_deadlines();
            if let Some(idle) = self.owner.cfg.idle_timeout {
                if last_sweep.elapsed() >= idle_slice(idle) {
                    last_sweep = Instant::now();
                    self.idle_sweep(idle);
                }
            }
        }
        self.drain_and_exit();
    }

    /// Picks the `epoll_wait` timeout: zero while a session has requests
    /// left over, short while write deadlines are running, an idle slice
    /// when reaping is configured, long otherwise — and never past the
    /// next interval tick.
    fn poll_timeout(&self) -> Duration {
        if !self.backlog.is_empty() {
            return Duration::ZERO;
        }
        let mut timeout = if !self.attention.is_empty() {
            Duration::from_millis(1)
        } else {
            let idle = self.owner.cfg.idle_timeout;
            idle.map_or(Duration::from_millis(500), idle_slice)
        };
        if let Some((due, _)) = self.ticker {
            // Rounded up to epoll's millisecond so the loop does not spin
            // through the last fraction of one.
            let until = due.saturating_duration_since(Instant::now());
            timeout = timeout.min(until + Duration::from_micros(999));
        }
        timeout
    }

    /// Accepts every pending connection.
    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            // Pushes are small one-way lines (no reply to piggyback an
            // ACK on); Nagle would batch them into ~40ms stalls.
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let (sid, out) = self.owner.connect();
            self.add_conn(sid, stream, out, LineFramer::new(MAX_REQUEST_LINE), false);
        }
    }

    /// Takes over the uplink a site's request handler just dialed: from
    /// here on it is a session of this loop like an accepted one.
    fn adopt_uplink(&mut self, dialed: Dialed) {
        // Lines framed past the hello's `OK` are read already: no
        // readiness will announce them, so serve them next pass.
        if dialed.framer.pending_len() > 0 {
            self.backlog.insert(dialed.sid.0);
        }
        self.add_conn(dialed.sid, dialed.stream, dialed.out, dialed.framer, true);
    }

    /// Registers a session's socket for read readiness and starts driving
    /// it; the session is torn down if the poller refuses it. An uplink
    /// runs under its fixed write deadline, any other session under the
    /// configured one.
    fn add_conn(
        &mut self,
        sid: SessionId,
        stream: TcpStream,
        out: Rc<SessionOut>,
        framer: LineFramer,
        uplink: bool,
    ) {
        if self
            .poller
            .add(stream.as_raw_fd(), sid.0, true, false)
            .is_err()
        {
            self.owner.teardown(sid);
            return;
        }
        let write_deadline = if uplink {
            Some(UPLINK_WRITE_DEADLINE)
        } else {
            self.owner.cfg.write_timeout
        };
        let conn = Conn {
            sid,
            stream,
            out,
            framer,
            uplink,
            write_deadline,
            active: Instant::now(),
            more: false,
            blocked_since: None,
            reg_read: true,
            reg_write: false,
        };
        self.conns.insert(sid.0, conn);
    }

    /// Writes every session the pass queued output for (or closed), once
    /// each; teardowns along the way may queue more, so it repeats until
    /// nothing is marked.
    fn flush_dirty(&mut self) {
        loop {
            std::mem::swap(
                &mut *self.owner.opener.dirty.borrow_mut(),
                &mut self.flushing,
            );
            if self.flushing.is_empty() {
                return;
            }
            let mut flushing = std::mem::take(&mut self.flushing);
            // A repeated id finds nothing left to flush.
            for sid in flushing.drain(..) {
                self.drive_writes(sid.0);
            }
            self.flushing = flushing;
        }
    }

    /// Handles readiness of one connection token.
    fn conn_ready(&mut self, token: u64, ev: PollEvent) {
        if ev.writable {
            self.drive_writes(token);
        }
        if ev.readable || ev.hangup {
            self.drive_reads(token);
        }
    }

    /// Runs the read side of one connection: nonblocking reads into the
    /// framer, each framed request served inline. A request that dialed a
    /// site uplink leaves it for the loop to adopt here.
    fn drive_reads(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.out.is_closed() {
                return;
            }
            let outcome = read_some(conn, &mut self.owner, &mut self.read_buf);
            if conn.more {
                self.backlog.insert(token);
            }
            outcome
        };
        if let Some(dialed) = self.owner.dialed.take() {
            self.adopt_uplink(dialed);
        }
        self.settle(token, outcome);
    }

    /// Runs the write side of one connection (called on `EPOLLOUT` and
    /// for each dirty session).
    fn drive_writes(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            flush_some(conn, &mut self.owner.stats, &mut self.scratch)
        };
        self.settle(token, outcome);
    }

    /// Applies a handler outcome: drop the connection or refresh its
    /// poller interest and attention membership.
    fn settle(&mut self, token: u64, outcome: After) {
        if outcome == After::Drop {
            self.teardown(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // A closed and fully drained queue is the engine saying goodbye
        // (QUIT, teardown): nothing can be enqueued any more, so finish
        // the socket.
        let (closed, drained) = (conn.out.is_closed(), conn.out.is_drained());
        if closed && drained {
            self.teardown(token);
            return;
        }
        let wants_read = !conn.more && !closed;
        let wants_write = !drained;
        if wants_read != conn.reg_read || wants_write != conn.reg_write {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, wants_read, wants_write)
                .is_err()
            {
                self.teardown(token);
                return;
            }
            conn.reg_read = wants_read;
            conn.reg_write = wants_write;
        }
        if conn.write_deadline.is_some() && conn.blocked_since.is_some() {
            self.attention.insert(token);
        } else {
            self.attention.remove(&token);
        }
    }

    /// Enforces write deadlines: a socket whose buffer stays full never
    /// reports `EPOLLOUT` again, so the deadline fires from here.
    fn service_deadlines(&mut self) {
        let tokens: Vec<u64> = self.attention.iter().copied().collect();
        let now = Instant::now();
        for token in tokens {
            let expired = self.conns.get(&token).is_some_and(|conn| {
                conn.blocked_since
                    .zip(conn.write_deadline)
                    .is_some_and(|(since, limit)| now.duration_since(since) >= limit)
            });
            if expired {
                self.teardown(token);
            } else if !self.conns.contains_key(&token) {
                self.attention.remove(&token);
            }
        }
        self.flush_dirty();
    }

    /// Reaps connections silent in both directions past the idle
    /// deadline. A site's own uplink is exempt: the coordinator's lease
    /// is the one liveness rule for it.
    fn idle_sweep(&mut self, idle: Duration) {
        let reap: Vec<u64> = self
            .conns
            .values()
            .filter(|c| !c.uplink && c.active.elapsed() >= idle)
            .map(|c| c.sid.0)
            .collect();
        for token in reap {
            self.owner.stats.reaped += 1;
            self.teardown(token);
        }
        self.flush_dirty();
    }

    /// Removes one connection: deregister, close the queue and the
    /// socket, and let the engine owner forget the session.
    fn teardown(&mut self, token: u64) {
        self.attention.remove(&token);
        self.backlog.remove(&token);
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.poller.remove(conn.stream.as_raw_fd());
        conn.out.close();
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.owner.teardown(conn.sid);
    }

    /// Final best-effort flush of every session's remaining output, then
    /// closes everything.
    fn drain_and_exit(&mut self) {
        let deadline = Instant::now() + Duration::from_millis(250);
        while Instant::now() < deadline {
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            let mut pending = false;
            for token in tokens {
                self.drive_writes(token);
                if let Some(conn) = self.conns.get(&token) {
                    pending |= !conn.out.is_drained();
                }
            }
            if !pending {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.teardown(token);
        }
    }
}

/// How often idle reaping scans the connections.
fn idle_slice(idle: Duration) -> Duration {
    (idle / 4).clamp(Duration::from_millis(10), Duration::from_millis(250))
}

/// Reads whatever the socket has ready into the loop's buffer and serves
/// the framed requests, up to the per-pass budgets.
fn read_some(conn: &mut Conn, owner: &mut EngineOwner, buf: &mut [u8]) -> After {
    let mut budget = REQUEST_BUDGET;
    let mut reads = 0;
    let mut emptied = false;
    loop {
        budget = serve_lines(conn, owner, budget);
        conn.more = budget == 0 || (!emptied && reads == READ_BUDGET);
        if conn.more || emptied || conn.out.is_closed() {
            return After::Keep;
        }
        reads += 1;
        owner.stats.sock_reads += 1;
        match conn.stream.read(buf) {
            Ok(0) => return After::Drop,
            Ok(n) => {
                conn.active = Instant::now();
                conn.framer.feed(&buf[..n]);
                // A short read emptied the socket, and level-triggered
                // epoll reports what arrives later: no `EAGAIN` probe.
                emptied = n < buf.len();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return After::Keep,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return After::Drop,
        }
    }
}

/// Serves up to `budget` complete lines out of the framer (an uplink's go
/// to the site role), stopping once the session is closed (`QUIT`);
/// returns the budget left.
fn serve_lines(conn: &mut Conn, owner: &mut EngineOwner, mut budget: usize) -> usize {
    while budget > 0 && !conn.out.is_closed() {
        let Some(framed) = conn.framer.next_line() else {
            break;
        };
        if conn.uplink {
            owner.uplink_line(framed);
            budget -= 1;
            continue;
        }
        let req = match framed {
            FramedLine::TooLong => Err(format!("request line exceeds {MAX_REQUEST_LINE} bytes")),
            FramedLine::NotUtf8 => Err("request line is not UTF-8".into()),
            FramedLine::Line(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                parse_request(trimmed)
            }
        };
        owner.serve(conn.sid, req);
        budget -= 1;
    }
    budget
}

/// Flushes queued output: stages up to [`WRITE_CHUNK`] bytes spanning
/// queue entries and hands them to the kernel in one call, resuming a
/// short write at the queue's cursor.
fn flush_some(conn: &mut Conn, stats: &mut Counters, scratch: &mut Vec<u8>) -> After {
    for _ in 0..WRITE_BUDGET {
        let staged = conn.out.peek_coalesced(scratch, WRITE_CHUNK);
        if staged == 0 {
            conn.blocked_since = None;
            return After::Keep;
        }
        stats.sock_writes += 1;
        match conn.stream.write(scratch) {
            Ok(0) => return After::Drop,
            Ok(n) => {
                conn.out.advance(n);
                conn.active = Instant::now();
                conn.blocked_since = None;
                if n < staged {
                    // The kernel buffer is full; EPOLLOUT resumes us.
                    conn.blocked_since = Some(Instant::now());
                    return After::Keep;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // The write-deadline clock keeps running across refusals;
                // the timer pass (`service_deadlines`) enforces it.
                conn.blocked_since.get_or_insert_with(Instant::now);
                return After::Keep;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return After::Drop,
        }
    }
    After::Keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn poller_reports_read_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new().expect("epoll");
        poller
            .add(listener.as_raw_fd(), 7, true, false)
            .expect("add");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(10))
            .expect("wait");
        assert!(events.is_empty(), "nothing pending yet");
        let _client = TcpStream::connect(addr).expect("connect");
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "pending accept surfaces as readable: {events:?}"
        );
    }

    #[test]
    fn poller_tracks_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new().expect("epoll");
        let fd = server.as_raw_fd();
        poller.add(fd, 1, false, true).expect("add");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(500))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "an idle socket is writable: {events:?}"
        );
        // Drop write interest: nothing should be reported any more.
        poller.modify(fd, 1, false, false).expect("modify");
        poller
            .wait(&mut events, Duration::from_millis(20))
            .expect("wait");
        assert!(events.is_empty(), "no interest, no events: {events:?}");
        poller.remove(fd);
        drop(client);
    }
}
