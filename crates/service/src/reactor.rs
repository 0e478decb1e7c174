//! The readiness-based connection event loop (PR 10).
//!
//! Before PR 10 every accepted connection cost two dedicated threads (a
//! blocking reader and a blocking writer). That caps fan-out at a few
//! thousand subscribers per node — the "wall for production fan-out" in
//! the ROADMAP. This module replaces the pair with **one reactor thread**
//! owning every subscriber socket through a hand-rolled, level-triggered
//! `epoll` loop (no async runtime, no external crates):
//!
//! * nonblocking `accept`, with each new socket registered for read
//!   readiness under its session-id token;
//! * incremental line framing on partial reads — a request line split
//!   across any number of `epoll` wakeups (even mid-UTF-8-sequence)
//!   reassembles through [`crate::session::LineFramer`];
//! * write-interest-driven flushing on partial writes — each session's
//!   [`crate::session::SessionOut`] keeps a byte cursor into its front
//!   payload, so a short write resumes exactly where the kernel stopped
//!   accepting bytes, and `EPOLLOUT` interest is held only while a
//!   session actually has queued output;
//! * a self-pipe `Waker` so the engine owner (which runs on another
//!   thread) can hand the reactor freshly queued output without the
//!   loop polling every session: enqueues only mark sessions dirty, and
//!   the owner writes one byte per inbox event — one wake-up and one
//!   coalesced write per touched session, however many lines it queued;
//! * the reader-side overload contract unchanged: when the engine inbox
//!   stays full past the busy deadline and the session has no earlier
//!   request awaiting its reply, the request is shed with `ERR busy`
//!   without ever reaching the engine. While a request is parked on a
//!   full inbox the session's read interest is dropped, which is exactly
//!   the TCP backpressure the blocking reader used to apply by not
//!   reading. Accepts obey the same rule: a `Connect` handoff that finds
//!   the inbox full parks the new socket and drops the *listener's* read
//!   interest until the retry lands, so overload defers new connections
//!   instead of freezing the loop.
//!
//! The syscall surface is four functions (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `close`) declared in the scoped `sys` module — the
//! only `unsafe` in the workspace.

use std::collections::{BTreeSet, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::{parse_request, ErrCode, Reply};
use crate::service::{Event, Metrics};
use crate::session::{FramedLine, LineFramer, Liveness, SessionId, SessionOut, MAX_REQUEST_LINE};

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

/// Self-pipe wakeup channel into the reactor, in two steps so a burst of
/// enqueues costs one wake-up: [`Waker::mark`] records that a session
/// gained output (or was closed) and writes nothing; [`Waker::flush`],
/// called by the engine owner once per inbox event after the event's last
/// enqueue, pokes one byte down the socketpair the reactor polls.
///
/// No wake-up is lost: a producer marks *before* it signals, and
/// [`Waker::take`] clears `signaled` *before* it swaps the dirty list
/// out. So a mark either lands in the list being swapped out, or its
/// `flush` runs after `signaled` was cleared and writes a fresh byte (at
/// worst the reactor wakes once more, to an empty list). Marks made on
/// the reactor's own thread (`ERR busy` sheds, teardown closes) need no
/// byte: `Reactor::settle` keeps write interest on a non-empty queue.
pub(crate) struct Waker {
    dirty: Mutex<Vec<SessionId>>,
    /// A wakeup byte is already in flight; coalesces pokes.
    signaled: AtomicBool,
    tx: std::os::unix::net::UnixStream,
    metrics: Arc<Metrics>,
}

impl Waker {
    fn lock_dirty(&self) -> std::sync::MutexGuard<'_, Vec<SessionId>> {
        self.dirty
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Wakes the loop unless a byte is already in flight. With nothing
    /// marked this is the shutdown notice: the loop re-checks its stop
    /// flag on every wakeup.
    pub(crate) fn notify(&self) {
        if !self.signaled.swap(true, Ordering::SeqCst) {
            self.metrics.pokes.fetch_add(1, Ordering::Relaxed);
            // A full pipe means a byte is already pending — the wakeup
            // still happens.
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// Marks `sid` as having fresh output; wakes nobody.
    pub(crate) fn mark(&self, sid: SessionId) {
        self.lock_dirty().push(sid);
    }

    /// Wakes the loop if any session was marked since the last
    /// [`Waker::take`].
    pub(crate) fn flush(&self) {
        if !self.lock_dirty().is_empty() {
            self.notify();
        }
    }

    /// Swaps the marked sessions with `into` (cleared first).
    fn take(&self, into: &mut Vec<SessionId>) {
        self.signaled.store(false, Ordering::SeqCst);
        into.clear();
        std::mem::swap(&mut *self.lock_dirty(), into);
    }
}

/// Reactor knobs copied from the service configuration.
pub(crate) struct ReactorCfg {
    /// Tear down a connection silent in both directions this long.
    pub(crate) idle: Option<Duration>,
    /// Kill a session whose socket accepted no bytes for this long while
    /// output was queued.
    pub(crate) write_timeout: Option<Duration>,
    /// How long a full engine inbox may park a request before it is shed
    /// with `ERR busy`.
    pub(crate) busy: Duration,
}

/// A request parked on a full engine inbox (read interest is dropped
/// while one is pending).
struct PendingSend {
    event: Option<Event>,
    verb: &'static str,
    since: Instant,
}

/// An accepted connection whose `Connect` handoff found the engine inbox
/// full: adoption is deferred — and the listener's read interest dropped,
/// the same backpressure parked requests apply — until the event loop's
/// timer pass can place the event without blocking.
struct ParkedAccept {
    stream: TcpStream,
    sid: SessionId,
    out: Arc<SessionOut>,
    inflight: Arc<AtomicUsize>,
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
    out: Arc<SessionOut>,
    inflight: Arc<AtomicUsize>,
    framer: LineFramer,
    liveness: Liveness,
    pending: Option<PendingSend>,
    /// The socket has refused bytes since this instant while output was
    /// queued (the write-deadline clock).
    blocked_since: Option<Instant>,
    /// Interest currently registered with the poller.
    reg_read: bool,
    reg_write: bool,
}

impl Conn {
    /// Whether any timed deadline needs the loop to wake without I/O.
    fn needs_timer(&self, write_timeout: Option<Duration>) -> bool {
        self.pending.is_some() || (write_timeout.is_some() && self.blocked_since.is_some())
    }
}

/// Everything connection handlers need besides the connection itself.
struct Ctx {
    inbox: SyncSender<Event>,
    metrics: Arc<Metrics>,
    busy: Duration,
    write_timeout: Option<Duration>,
}

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// Per-wakeup read budget per connection (fairness under pipelining).
const READ_BUDGET: usize = 16;
/// Read buffer size: a 200-tuple `TICK` line (8 KB) arrives in one `read`.
const READ_CHUNK: usize = 64 * 1024;
/// Coalesced write staging size: a busy tick's pushes to a subscriber
/// (17 KB) leave in one `write`.
const WRITE_CHUNK: usize = 64 * 1024;
/// Per-wakeup write budget per connection, in staged chunks.
const WRITE_BUDGET: usize = 16;

/// The reactor: owns the listener, the wakeup pipe, and every accepted
/// connection; runs on one dedicated thread.
pub(crate) struct Reactor {
    poller: Poller,
    listener: TcpListener,
    waker: Arc<Waker>,
    waker_rx: std::os::unix::net::UnixStream,
    stopping: Arc<AtomicBool>,
    ctx: Ctx,
    cfg: ReactorCfg,
    conns: HashMap<u64, Conn>,
    /// Sessions with a timed deadline (parked send, write block) —
    /// scanned each loop so the common case stays O(ready), not O(conns).
    attention: BTreeSet<u64>,
    /// An accept awaiting engine-inbox room (listener interest is off
    /// while one is parked).
    parked_accept: Option<ParkedAccept>,
    next_sid: u64,
    scratch: Vec<u8>,
    /// The buffer every connection reads through.
    read_buf: Vec<u8>,
    /// The marked-session list swapped with the waker's on each poke.
    dirty: Vec<SessionId>,
}

impl Reactor {
    /// Builds a reactor over an already-bound listener.
    pub(crate) fn new(
        listener: TcpListener,
        inbox: SyncSender<Event>,
        stopping: Arc<AtomicBool>,
        metrics: Arc<Metrics>,
        cfg: ReactorCfg,
    ) -> std::io::Result<(Reactor, Arc<Waker>)> {
        listener.set_nonblocking(true)?;
        let (waker_rx, waker_tx) = std::os::unix::net::UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let waker = Arc::new(Waker {
            dirty: Mutex::new(Vec::new()),
            signaled: AtomicBool::new(false),
            tx: waker_tx,
            metrics: Arc::clone(&metrics),
        });
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        poller.add(waker_rx.as_raw_fd(), WAKER_TOKEN, true, false)?;
        let busy = cfg.busy;
        let write_timeout = cfg.write_timeout;
        Ok((
            Reactor {
                poller,
                listener,
                waker: Arc::clone(&waker),
                waker_rx,
                stopping,
                ctx: Ctx {
                    inbox,
                    metrics,
                    busy,
                    write_timeout,
                },
                cfg,
                conns: HashMap::new(),
                attention: BTreeSet::new(),
                parked_accept: None,
                next_sid: 0,
                scratch: Vec::with_capacity(WRITE_CHUNK),
                read_buf: vec![0; READ_CHUNK],
                dirty: Vec::new(),
            },
            waker,
        ))
    }

    /// The event loop. Returns when the service is stopping or the engine
    /// owner is gone.
    pub(crate) fn run(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if self.stopping.load(Ordering::Relaxed) {
                self.drain_and_exit();
                return;
            }
            let timeout = self.poll_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                // epoll itself failing is unrecoverable; fall back to a
                // clean stop instead of spinning.
                self.drain_and_exit();
                return;
            }
            self.ctx.metrics.wakeups.fetch_add(1, Ordering::Relaxed);
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => {
                        if self.accept_ready() == After::Drop {
                            return;
                        }
                    }
                    WAKER_TOKEN => self.waker_ready(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.service_deadlines();
            if self.retry_parked_accept() == After::Drop {
                return;
            }
            if let Some(idle) = self.cfg.idle {
                let slice = (idle / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
                if last_sweep.elapsed() >= slice {
                    last_sweep = Instant::now();
                    self.idle_sweep(idle);
                }
            }
        }
    }

    /// Picks the `epoll_wait` timeout: short while timed deadlines or a
    /// parked accept are outstanding, an idle-slice when reaping is
    /// configured, long otherwise (wakeups then come from readiness and
    /// the waker pipe).
    fn poll_timeout(&self) -> Duration {
        if !self.attention.is_empty() || self.parked_accept.is_some() {
            return Duration::from_millis(1);
        }
        match self.cfg.idle {
            Some(idle) => (idle / 4).clamp(Duration::from_millis(10), Duration::from_millis(250)),
            None => Duration::from_millis(500),
        }
    }

    /// Accepts every pending connection. `After::Drop` means the engine
    /// owner is gone and the loop should exit.
    ///
    /// The `Connect` handoff to the engine is strictly nonblocking: a
    /// full inbox — the overload case — parks the accepted socket and
    /// turns the listener's read interest off instead of stalling the
    /// event loop (which would freeze every existing connection's reads,
    /// writes, and deadlines until the engine drained a slot).
    fn accept_ready(&mut self) -> After {
        if self.parked_accept.is_some() {
            return After::Keep;
        }
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return After::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return After::Keep,
            };
            // Pushes are small one-way lines (no reply to piggyback an
            // ACK on); Nagle would batch them into ~40ms stalls.
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let sid = SessionId(self.next_sid);
            self.next_sid += 1;
            let out = Arc::new(SessionOut::new());
            out.attach_waker(Arc::clone(&self.waker), sid);
            let inflight = Arc::new(AtomicUsize::new(0));
            match self.ctx.inbox.try_send(Event::Connect(
                sid,
                Arc::clone(&out),
                Arc::clone(&inflight),
            )) {
                Ok(()) => {}
                Err(TrySendError::Disconnected(_)) => return After::Drop,
                Err(TrySendError::Full(_)) => {
                    // Level-triggered epoll would spin on the un-drained
                    // backlog, so stop listening until the retry lands.
                    let _ =
                        self.poller
                            .modify(self.listener.as_raw_fd(), LISTENER_TOKEN, false, false);
                    self.parked_accept = Some(ParkedAccept {
                        stream,
                        sid,
                        out,
                        inflight,
                    });
                    return After::Keep;
                }
            }
            self.adopt(stream, sid, out, inflight);
        }
    }

    /// Retries the `Connect` handoff of a parked accept; once the inbox
    /// has room, adopts the connection, restores the listener's read
    /// interest, and drains whatever backlog piled up while parked.
    fn retry_parked_accept(&mut self) -> After {
        let Some(parked) = self.parked_accept.take() else {
            return After::Keep;
        };
        let ParkedAccept {
            stream,
            sid,
            out,
            inflight,
        } = parked;
        match self
            .ctx
            .inbox
            .try_send(Event::Connect(sid, Arc::clone(&out), Arc::clone(&inflight)))
        {
            Ok(()) => {
                let _ = self
                    .poller
                    .modify(self.listener.as_raw_fd(), LISTENER_TOKEN, true, false);
                self.adopt(stream, sid, out, inflight);
                self.accept_ready()
            }
            Err(TrySendError::Disconnected(_)) => After::Drop,
            Err(TrySendError::Full(_)) => {
                self.parked_accept = Some(ParkedAccept {
                    stream,
                    sid,
                    out,
                    inflight,
                });
                After::Keep
            }
        }
    }

    /// Finishes adoption of an accepted connection whose `Connect` event
    /// the engine inbox took: poller registration, state.
    fn adopt(
        &mut self,
        stream: TcpStream,
        sid: SessionId,
        out: Arc<SessionOut>,
        inflight: Arc<AtomicUsize>,
    ) {
        if self.stopping.load(Ordering::Relaxed) {
            // Shutdown raced this accept: the engine may never process
            // the Connect, so close the queue ourselves (idempotent).
            out.close();
        }
        if self
            .poller
            .add(stream.as_raw_fd(), sid.0, true, false)
            .is_err()
        {
            let _ = self.ctx.inbox.send(Event::Gone(sid));
            return;
        }
        self.conns.insert(
            sid.0,
            Conn {
                sid,
                stream,
                out,
                inflight,
                framer: LineFramer::new(MAX_REQUEST_LINE),
                liveness: Liveness::new(),
                pending: None,
                blocked_since: None,
                reg_read: true,
                reg_write: false,
            },
        );
    }

    /// Drains the wakeup pipe and flushes every session producers marked
    /// dirty.
    fn waker_ready(&mut self) {
        // `signaled` admits one byte between two `take`s: one read suffices.
        let _ = (&self.waker_rx).read(&mut [0u8; 8]);
        let mut dirty = std::mem::take(&mut self.dirty);
        self.waker.take(&mut dirty);
        // One entry per touched session (a repeat finds nothing to flush).
        for sid in &dirty {
            self.drive_writes(sid.0);
        }
        self.dirty = dirty;
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
    /// framer, then request dispatch.
    fn drive_reads(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // (`read_some` itself stands down for a parked send.)
            if conn.out.is_closed() {
                return;
            }
            read_some(conn, &self.ctx, &mut self.read_buf)
        };
        self.settle(token, outcome);
    }

    /// Runs the write side of one connection (called on `EPOLLOUT` and on
    /// a waker poke).
    fn drive_writes(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            flush_some(conn, &self.ctx, &mut self.scratch)
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
        // One lock-free read of the queue's mirror word. A stale "drained"
        // only delays: the enqueue that made it busy marked the session,
        // and the waker's next pass flushes it. A closed and fully
        // drained queue is the engine saying goodbye (QUIT, teardown):
        // nothing can be enqueued any more, so finish the socket.
        let (closed, drained) = conn.out.flags();
        if closed && drained {
            self.teardown(token);
            return;
        }
        let wants_read = conn.pending.is_none() && !closed;
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
        if conn.needs_timer(self.ctx.write_timeout) {
            self.attention.insert(token);
        } else {
            self.attention.remove(&token);
        }
    }

    /// Services timed deadlines: parked sends (retry/shed) and
    /// write-block deadlines (kill).
    fn service_deadlines(&mut self) {
        let tokens: Vec<u64> = self.attention.iter().copied().collect();
        let now = Instant::now();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                self.attention.remove(&token);
                continue;
            };
            // The write deadline must fire from the timer: a socket
            // whose buffer stays full never reports EPOLLOUT again.
            let outcome = match (self.ctx.write_timeout, conn.blocked_since) {
                (Some(limit), Some(since)) if now.duration_since(since) >= limit => After::Drop,
                _ => retry_pending(conn, &self.ctx, now),
            };
            // retry_pending may have unparked the session: settling
            // refreshes its interest and attention membership.
            self.settle(token, outcome);
        }
    }

    /// Reaps connections silent in both directions past the idle
    /// deadline.
    fn idle_sweep(&mut self, idle: Duration) {
        let reap: Vec<u64> = self
            .conns
            .values()
            .filter(|c| c.liveness.idle() >= idle)
            .map(|c| c.sid.0)
            .collect();
        for token in reap {
            self.ctx.metrics.reaped.fetch_add(1, Ordering::Relaxed);
            self.teardown(token);
        }
    }

    /// Removes one connection: deregister, release any parked in-flight
    /// token, close the socket, and tell the engine exactly once.
    fn teardown(&mut self, token: u64) {
        self.attention.remove(&token);
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        self.poller.remove(conn.stream.as_raw_fd());
        if conn.pending.take().is_some() {
            conn.inflight.fetch_sub(1, Ordering::SeqCst);
        }
        conn.out.close();
        let _ = conn.stream.shutdown(Shutdown::Both);
        let _ = self.ctx.inbox.send(Event::Gone(conn.sid));
    }

    /// Final best-effort flush of every session's remaining output, then
    /// closes everything. Mirrors the old detached-writer behavior where
    /// queued lines drained after shutdown when the sockets allowed it.
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

/// Reads whatever the socket has ready into the reactor's buffer, feeds
/// the framer, and dispatches complete lines.
fn read_some(conn: &mut Conn, ctx: &Ctx, buf: &mut [u8]) -> After {
    for _ in 0..READ_BUDGET {
        if conn.pending.is_some() {
            return After::Keep;
        }
        ctx.metrics.sock_reads.fetch_add(1, Ordering::Relaxed);
        match conn.stream.read(buf) {
            Ok(0) => return After::Drop,
            Ok(n) => {
                conn.liveness.touch();
                conn.framer.feed(&buf[..n]);
                if dispatch_lines(conn, ctx) == After::Drop {
                    return After::Drop;
                }
                // A short read emptied the socket, and level-triggered
                // epoll reports what arrives later: no `EAGAIN` probe.
                if n < buf.len() {
                    return After::Keep;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return After::Keep,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return After::Drop,
        }
    }
    After::Keep
}

/// Drains complete lines out of the framer into engine events, honoring
/// the overload contract (park on a full inbox, read interest off).
fn dispatch_lines(conn: &mut Conn, ctx: &Ctx) -> After {
    while conn.pending.is_none() {
        let Some(framed) = conn.framer.next_line() else {
            return After::Keep;
        };
        let (event, verb): (Event, &'static str) = match framed {
            FramedLine::TooLong => (
                Event::Bad(
                    conn.sid,
                    format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                ),
                "parse",
            ),
            FramedLine::NotUtf8 => (
                Event::Bad(conn.sid, "request line is not UTF-8".into()),
                "parse",
            ),
            FramedLine::Line(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                match parse_request(trimmed) {
                    Ok(req) => {
                        let verb = req.verb();
                        (Event::Request(conn.sid, req), verb)
                    }
                    Err(msg) => (Event::Bad(conn.sid, msg), "parse"),
                }
            }
        };
        // The shedding contract: the in-flight token is taken *before*
        // the send attempt, released by the engine after the reply.
        conn.inflight.fetch_add(1, Ordering::SeqCst);
        match ctx.inbox.try_send(event) {
            Ok(()) => {}
            Err(TrySendError::Disconnected(_)) => {
                conn.inflight.fetch_sub(1, Ordering::SeqCst);
                return After::Drop;
            }
            Err(TrySendError::Full(event)) => {
                conn.pending = Some(PendingSend {
                    event: Some(event),
                    verb,
                    since: Instant::now(),
                });
                return After::Keep;
            }
        }
    }
    After::Keep
}

/// Retries a parked send; sheds it with `ERR busy` once the deadline has
/// passed and no earlier request of this session still awaits its reply.
fn retry_pending(conn: &mut Conn, ctx: &Ctx, now: Instant) -> After {
    let Some(pending) = &mut conn.pending else {
        return After::Keep;
    };
    let Some(event) = pending.event.take() else {
        conn.pending = None;
        return After::Keep;
    };
    match ctx.inbox.try_send(event) {
        Ok(()) => {
            conn.pending = None;
            // Bytes may already be framed behind the parked line.
            dispatch_lines(conn, ctx)
        }
        Err(TrySendError::Disconnected(_)) => {
            conn.inflight.fetch_sub(1, Ordering::SeqCst);
            conn.pending = None;
            After::Drop
        }
        Err(TrySendError::Full(event)) => {
            let verb = pending.verb;
            if now >= pending.since + ctx.busy && conn.inflight.load(Ordering::SeqCst) == 1 {
                // Every earlier request was replied to, so an out-of-band
                // ERR keeps the one-reply-per-request order; the request
                // never reached the engine, so a client retry is safe.
                conn.inflight.fetch_sub(1, Ordering::SeqCst);
                conn.pending = None;
                ctx.metrics.record_shed(verb);
                conn.out.send_reply(
                    Reply::Err {
                        code: ErrCode::Busy,
                        message: "server inbox full; request dropped, retry later".into(),
                    }
                    .to_string(),
                );
                return dispatch_lines(conn, ctx);
            }
            pending.event = Some(event);
            After::Keep
        }
    }
}

/// Flushes queued output: stages up to [`WRITE_CHUNK`] bytes spanning
/// queue entries and hands them to the kernel in one call, resuming a
/// short write at the queue's cursor. The peek that finds the queue
/// emptied takes no lock, so a one-line flush locks the queue twice (the
/// peek that stages the line and the `advance` that pops it).
fn flush_some(conn: &mut Conn, ctx: &Ctx, scratch: &mut Vec<u8>) -> After {
    for _ in 0..WRITE_BUDGET {
        let staged = conn.out.peek_coalesced(scratch, WRITE_CHUNK);
        if staged == 0 {
            conn.blocked_since = None;
            return After::Keep;
        }
        ctx.metrics.sock_writes.fetch_add(1, Ordering::Relaxed);
        match conn.stream.write(scratch) {
            Ok(0) => return After::Drop,
            Ok(n) => {
                conn.out.advance(n);
                conn.liveness.touch();
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

    fn test_waker() -> (Waker, std::os::unix::net::UnixStream, Arc<Metrics>) {
        let (rx, tx) = std::os::unix::net::UnixStream::pair().expect("pair");
        tx.set_nonblocking(true).expect("nonblocking");
        let metrics = Arc::new(Metrics::default());
        let waker = Waker {
            dirty: Mutex::new(Vec::new()),
            signaled: AtomicBool::new(false),
            tx,
            metrics: Arc::clone(&metrics),
        };
        (waker, rx, metrics)
    }

    #[test]
    fn waker_coalesces_and_drains() {
        let (waker, rx, metrics) = test_waker();
        rx.set_nonblocking(true).expect("nonblocking");
        let mut sink = [0u8; 16];
        waker.flush();
        waker.mark(SessionId(3));
        waker.mark(SessionId(5));
        waker.mark(SessionId(3));
        assert!((&rx).read(&mut sink).is_err(), "marks write no byte");
        waker.flush();
        waker.flush();
        assert_eq!((&rx).read(&mut sink).expect("the poke"), 1, "one byte");
        assert_eq!(metrics.pokes.load(Ordering::Relaxed), 1);
        // A mark that beats `take` rides in the swapped-out list: its
        // flush finds a byte already in flight and writes none.
        waker.mark(SessionId(7));
        waker.flush();
        let mut got = vec![SessionId(99)];
        waker.take(&mut got);
        assert_eq!(
            got,
            [SessionId(3), SessionId(5), SessionId(3), SessionId(7)]
        );
        assert!((&rx).read(&mut sink).is_err(), "still one byte in all");
        // A mark that loses to `take` produces a fresh byte.
        waker.mark(SessionId(9));
        waker.flush();
        assert_eq!((&rx).read(&mut sink).expect("fresh byte"), 1);
        waker.take(&mut got);
        assert_eq!(got, [SessionId(9)]);
        waker.take(&mut got);
        assert!(got.is_empty(), "drained");
        waker.flush();
        assert!((&rx).read(&mut sink).is_err(), "nothing marked, no byte");
        assert_eq!(metrics.pokes.load(Ordering::Relaxed), 2);
    }

    /// A producer marking and flushing at full speed against a consumer
    /// that sleeps on the pipe: every id arrives, so no interleaving of
    /// mark / flush / take lost a wake-up (the consumer would time out).
    #[test]
    fn waker_loses_no_mark_under_a_racing_take() {
        const N: u64 = 20_000;
        let (waker, rx, metrics) = test_waker();
        rx.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut seen = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..N {
                    waker.mark(SessionId(i));
                    waker.flush();
                }
            });
            let (mut sink, mut got) = ([0u8; 16], Vec::new());
            while (seen.len() as u64) < N {
                let n = (&rx).read(&mut sink).expect("a mark was stranded");
                assert_eq!(n, 1, "at most one byte in flight");
                waker.take(&mut got);
                seen.extend_from_slice(&got);
            }
        });
        assert!(seen.iter().map(|s| s.0).eq(0..N), "in order, exactly once");
        assert!(metrics.pokes.load(Ordering::Relaxed) <= N);
    }

    /// The session queue's lock-free "empty" read against a producer on
    /// another thread: the consumer follows `flush_some`'s contract (drain
    /// until the peek answers 0, then sleep on the waker socket and
    /// `take`), so a stale "empty" that no mark or byte covered would
    /// strand lines and time the read out.
    #[test]
    fn session_queue_loses_no_line_to_a_lock_free_empty_read() {
        const LINES: usize = 10_000;
        let (waker, rx, _) = test_waker();
        let waker = Arc::new(waker);
        rx.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let out = SessionOut::new();
        out.attach_waker(Arc::clone(&waker), SessionId(1));
        let line = |i: usize| format!("DELTA q{i}");
        let mut got = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut i = 0;
                // Bursts of 1, 2, … 7 lines, each ended by one flush.
                for burst in (1..=7).cycle() {
                    for _ in 0..burst {
                        if i == LINES {
                            return;
                        }
                        out.send_reply(line(i));
                        i += 1;
                    }
                    waker.flush();
                }
            });
            let (mut scratch, mut dirty, mut sink) = (Vec::new(), Vec::new(), [0u8; 16]);
            let mut lines = 0;
            while lines < LINES {
                loop {
                    let staged = out.peek_coalesced(&mut scratch, 4096);
                    if staged == 0 {
                        break;
                    }
                    lines += scratch.iter().filter(|b| **b == b'\n').count();
                    got.extend_from_slice(&scratch);
                    out.advance(staged);
                }
                if lines < LINES {
                    let n = (&rx).read(&mut sink).expect("a line was stranded");
                    assert_eq!(n, 1, "at most one byte in flight");
                    waker.take(&mut dirty);
                }
            }
        });
        let want: String = (0..LINES).map(|i| line(i) + "\n").collect();
        assert!(got == want.as_bytes(), "every line, in order, once");
        assert!(out.is_drained());
    }
}
