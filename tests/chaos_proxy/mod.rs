//! A loopback chaos proxy: unreliability lives on the link, outside the
//! server. A faulted client (or a site's uplink) dials [`ChaosProxy::addr`]
//! instead of the service; each direction is pumped **line by line** on a
//! blocking thread, and [`Rule`]s keyed on the per-direction 1-based line
//! index inject resets, truncations, one-byte garbles, split writes and
//! stalls into the first `conns` accepted connections (a redial runs
//! clean). Line indices do not depend on how the kernel batches writes, so
//! seeded rules over the same traffic yield the same [`Injection`] log.
//! The threads are detached: a pump ends when either of its peers closes.
//! `service_chaos::chaos_proxy_applies_each_kind_at_its_line…` is the
//! self-test (a `#[test]` here would run once per including binary, and
//! `service_fanout` accounts for every descriptor its tests open).

// Each including binary uses a subset of the kinds and directions.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which way a line travels: `Up` client → server, `Down` server → client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dir {
    Up,
    Down,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Close both sockets instead of forwarding the line.
    Reset,
    /// Forward the first half of the line, then close both sockets.
    Truncate,
    /// XOR one seeded byte of the line with a seeded non-zero mask.
    Garble,
    /// Forward the line in two writes, a millisecond apart.
    Partial,
    /// Hold the line back this many milliseconds.
    Stall(u64),
}

/// `(direction, kind, at, every)`: fires at line `at` of that direction,
/// then every `every` lines (0 = once). The first matching rule wins.
pub type Rule = (Dir, Kind, u64, u64);

/// One applied fault: `(connection, direction, line, kind, garble)`, the
/// last being the `(byte position, mask)` a garble drew.
pub type Injection = (usize, Dir, u64, Kind, Option<(usize, u8)>);

pub struct ChaosProxy {
    addr: SocketAddr,
    rules: Vec<Rule>,
    conns: usize,
    seed: u64,
    log: Mutex<Vec<Injection>>,
}

impl ChaosProxy {
    /// Listens on a loopback port and forwards every connection to
    /// `target`, applying `rules` to the first `conns` of them.
    pub fn start(target: SocketAddr, rules: &[Rule], conns: usize, seed: u64) -> Arc<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy bind");
        let (addr, rules) = (listener.local_addr().expect("proxy addr"), rules.to_vec());
        let log = Mutex::default();
        let proxy = Arc::new(ChaosProxy {
            addr,
            rules,
            conns,
            seed,
            log,
        });
        let shared = Arc::clone(&proxy);
        std::thread::spawn(move || {
            let clone = |s: &TcpStream| s.try_clone().expect("clone");
            for (conn, client) in listener.incoming().flatten().enumerate() {
                let Ok(server) = TcpStream::connect(target) else {
                    continue;
                };
                for (dir, src, dst) in [(Dir::Up, &client, &server), (Dir::Down, &server, &client)]
                {
                    let (proxy, src, dst) = (Arc::clone(&shared), clone(src), clone(dst));
                    let _ = dst.set_nodelay(true);
                    std::thread::spawn(move || proxy.pump(conn, dir, &src, &dst));
                }
            }
        });
        proxy
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Every injection so far, ordered by (connection, direction, line).
    pub fn log(&self) -> Vec<Injection> {
        let mut log = self.log.lock().expect("proxy log").clone();
        log.sort();
        log
    }

    /// Forwards `src` to `dst` one line at a time until either side closes
    /// or a fault kills the link, then closes both (ending the peer pump).
    fn pump(&self, conn: usize, dir: Dir, src: &TcpStream, mut dst: &TcpStream) {
        let mut rng = self.seed ^ (2 * conn + dir as usize) as u64;
        let mut draw = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng >> 24) as usize
        };
        let fires = |n, at, every| n == at || (every > 0 && n > at && (n - at) % every == 0);
        let live = |r: &&Rule| r.0 == dir && conn < self.conns;
        let rules: Vec<&Rule> = self.rules.iter().filter(live).collect();
        let (mut reader, mut line) = (BufReader::new(src), Vec::new());
        for n in 1u64.. {
            line.clear();
            if reader.read_until(b'\n', &mut line).unwrap_or(0) == 0 {
                break;
            }
            let kind = rules.iter().find(|r| fires(n, r.2, r.3)).map(|r| r.1);
            let mut cut = line.len();
            if let Some(kind) = kind {
                let garble = (kind == Kind::Garble).then(|| (draw() % cut, draw() as u8 | 1));
                let hit = (conn, dir, n, kind, garble);
                self.log.lock().expect("proxy log").push(hit);
                if let Some((at, mask)) = garble {
                    line[at] ^= mask;
                }
                match kind {
                    Kind::Reset => break,
                    Kind::Truncate | Kind::Partial => cut /= 2,
                    Kind::Stall(ms) => std::thread::sleep(Duration::from_millis(ms)),
                    Kind::Garble => {}
                }
            }
            if dst.write_all(&line[..cut]).is_err() || kind == Some(Kind::Truncate) {
                break;
            }
            if kind == Some(Kind::Partial) {
                std::thread::sleep(Duration::from_millis(1));
            }
            if dst.write_all(&line[cut..]).is_err() {
                break;
            }
        }
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    }
}
