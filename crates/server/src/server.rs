//! The TCP server: one thread per connection, at most `workers` of them
//! executing at once.
//!
//! ## Threads
//!
//! * **accept loop** — non-blocking accept with admission control: beyond
//!   `max_sessions` a connection is answered with a retryable
//!   [`WireErrorCode::Overloaded`] frame and dropped; a fenced engine
//!   answers [`WireErrorCode::Fenced`] and drops. Nothing is queued for a
//!   connection the server cannot serve.
//! * **one thread per connection** — owns its [`Session`] and executes its
//!   own requests: read a frame, take one of `workers` execution permits,
//!   execute, give the permit back, write the reply. Requests on one
//!   connection run one after another, so replies come back in request
//!   order and the engine's `&mut Transaction` discipline holds by
//!   construction. The thread reads its socket again only after replying
//!   to every frame it has buffered: a client that sends faster than the
//!   engine serves is backpressured through TCP, never queued here. The
//!   permit is released *before* the reply write, so a client that stops
//!   reading stalls only its own thread (for the write timeout), never a
//!   permit.
//!
//! ## Shutdown (the ordering that makes acks honest)
//!
//! [`Server::shutdown`] drains: stop accepting → each connection thread
//! finishes its request, writes its reply and stops at a frame boundary,
//! rolling back an idle open transaction → **the commit pipeline drains and
//! the WAL tail is flushed** (`Database::drain_commits`). Every ack the
//! server ever wrote corresponds to a commit that was durable before the
//! process let go of the log.
//!
//! [`Server::kill_now`] is the abortive path for crash drills: it
//! atomically stops response writes and severs every client socket, and is
//! safe to call from *inside* a request (e.g. a WAL crash-probe callback) —
//! it never joins threads. After a kill, no ack is emitted for any commit
//! whose durability the crash may retract; callers then freeze the fault
//! store and check recovery against the set of acks that actually escaped.

use crate::session::{Disposition, Session};
use crate::wire::{self, Request, Response, WireErrorCode};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use txview_common::{Error, Result};
use txview_engine::{Database, HealthState};

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Requests executing at once; a connection thread beyond this waits
    /// for a permit before it executes.
    pub workers: usize,
    /// Admission cap on concurrent sessions; excess connections are shed
    /// with a retryable `Overloaded` error.
    pub max_sessions: usize,
    /// Socket read timeout — the cadence at which blocked readers notice
    /// state changes. Smaller = snappier shutdown, more wakeups.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { workers: 4, max_sessions: 64, poll_interval: Duration::from_millis(25) }
    }
}

/// Run-state lattice; transitions only move right.
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const KILLED: u8 = 2;

/// Monotonic counters, snapshotted by [`Server::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Connections admitted.
    pub accepted: u64,
    /// Connections shed by the session cap (`Overloaded`).
    pub shed_overloaded: u64,
    /// Connections refused because the engine is fenced.
    pub refused_fenced: u64,
    /// Requests executed.
    pub requests: u64,
    /// Error responses sent.
    pub error_responses: u64,
    /// Responses suppressed because the server was killed mid-request.
    pub suppressed_responses: u64,
    /// Connections dropped for wire-protocol violations.
    pub protocol_errors: u64,
}

#[derive(Default)]
struct Stats {
    accepted: AtomicU64,
    shed_overloaded: AtomicU64,
    refused_fenced: AtomicU64,
    requests: AtomicU64,
    error_responses: AtomicU64,
    suppressed_responses: AtomicU64,
    protocol_errors: AtomicU64,
}

struct Inner {
    db: Arc<Database>,
    cfg: ServerConfig,
    state: AtomicU8,
    /// Free execution permits, `workers` of them.
    permits: Mutex<usize>,
    /// Signalled when a permit comes back or the state changes.
    permit_cv: Condvar,
    /// A clone of each live connection's socket, for [`ServerKiller`]'s
    /// abortive teardown and the `max_sessions` count.
    sessions: Mutex<HashMap<u64, TcpStream>>,
    next_session: AtomicU64,
    stats: Stats,
}

impl Inner {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn advance_state(&self, to: u8) {
        // Monotonic: never move left (a kill during a drain stays a kill).
        let mut cur = self.state.load(Ordering::Acquire);
        while cur < to {
            match self.state.compare_exchange(cur, to, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        // Under the permit lock: a permit waiter checks the state under the
        // same lock before it sleeps, so it cannot miss this wake.
        let _permits = self.permits.lock();
        self.permit_cv.notify_all();
    }
}

/// Cloneable abortive-kill handle, safe to invoke while a request executes
/// (e.g. inside a WAL crash probe). See [`Server::kill_now`].
#[derive(Clone)]
pub struct ServerKiller {
    inner: Arc<Inner>,
}

impl ServerKiller {
    /// Abortive stop: suppress all further response writes, then sever
    /// every client socket. Never blocks on thread joins.
    pub fn kill_now(&self) {
        self.inner.advance_state(KILLED);
        for stream in self.inner.sessions.lock().values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// A running server bound to a local TCP address.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    /// The accept thread; it returns the connection threads it spawned.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `db`.
    pub fn start(db: Arc<Database>, addr: &str, cfg: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let inner = Arc::new(Inner {
            db,
            permits: Mutex::new(cfg.workers.max(1)),
            cfg,
            state: AtomicU8::new(RUNNING),
            permit_cv: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            stats: Stats::default(),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("txview-accept".into())
                .spawn(move || accept_loop(listener, &inner))
                .map_err(Error::Io)?
        };
        Ok(Server { inner, addr: bound, accept: Some(accept) })
    }

    /// The bound address (use with port 0 to discover the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        let s = &self.inner.stats;
        ServerStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            shed_overloaded: s.shed_overloaded.load(Ordering::Relaxed),
            refused_fenced: s.refused_fenced.load(Ordering::Relaxed),
            requests: s.requests.load(Ordering::Relaxed),
            error_responses: s.error_responses.load(Ordering::Relaxed),
            suppressed_responses: s.suppressed_responses.load(Ordering::Relaxed),
            protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// Handle for abortive kills from other threads / crash probes.
    pub fn killer(&self) -> ServerKiller {
        ServerKiller { inner: Arc::clone(&self.inner) }
    }

    /// Graceful drain, then stop. See the module docs for the ordering.
    pub fn shutdown(mut self) -> Result<ServerStats> {
        self.inner.advance_state(DRAINING);
        // Each connection thread finishes its request, writes its reply,
        // rolls back an idle open transaction and deregisters.
        self.join_threads();
        // The seam this ordering exists for: only after every reply is out
        // and no new commit can arrive does the engine quiesce its
        // group-commit pipeline and flush the WAL tail.
        if self.inner.state() != KILLED {
            self.inner.db.drain_commits()?;
        }
        Ok(self.stats())
    }

    /// Abortive stop (see [`ServerKiller::kill_now`]).
    pub fn kill_now(&self) {
        self.killer().kill_now();
    }

    /// Join all threads after a [`Server::kill_now`]. Separate from the
    /// kill itself so a kill from inside a request never self-joins.
    pub fn join_after_kill(mut self) -> ServerStats {
        assert_eq!(self.inner.state(), KILLED, "join_after_kill requires kill_now first");
        self.join_threads();
        self.stats()
    }

    fn join_threads(&mut self) {
        if let Some(Ok(conns)) = self.accept.take().map(JoinHandle::join) {
            for h in conns {
                let _ = h.join();
            }
        }
    }
}

fn accept_loop(listener: TcpListener, inner: &Arc<Inner>) -> Vec<JoinHandle<()>> {
    let mut conns = Vec::new();
    while inner.state() == RUNNING {
        match listener.accept() {
            Ok((stream, _peer)) => admit(stream, inner, &mut conns),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    conns
}

/// Write one frame and drop the connection — the shed path never allocates
/// session state.
fn refuse(mut stream: TcpStream, code: WireErrorCode, msg: &str) {
    let resp = Response::Err { code, msg: msg.into() };
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(&wire::encode_frame(&resp.encode()));
}

fn admit(stream: TcpStream, inner: &Arc<Inner>, conns: &mut Vec<JoinHandle<()>>) {
    if inner.db.health().state() == HealthState::Fenced {
        inner.stats.refused_fenced.fetch_add(1, Ordering::Relaxed);
        refuse(stream, WireErrorCode::Fenced, &inner.db.health().reason());
        return;
    }
    if inner.sessions.lock().len() >= inner.cfg.max_sessions {
        inner.stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
        refuse(stream, WireErrorCode::Overloaded, "session limit reached; retry after backoff");
        return;
    }
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.cfg.poll_interval));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(registered) = stream.try_clone() else { return };
    let id = inner.next_session.fetch_add(1, Ordering::Relaxed);
    inner.sessions.lock().insert(id, registered);
    inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
    let inner2 = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(format!("txview-conn-{id}"))
        .spawn(move || serve_connection(&inner2, id, stream));
    match handle {
        Ok(h) => conns.push(h),
        Err(_) => {
            inner.sessions.lock().remove(&id);
        }
    }
}

fn serve_connection(inner: &Inner, id: u64, mut stream: TcpStream) {
    let mut session = Session::new(Arc::clone(&inner.db));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    'outer: while inner.state() == RUNNING {
        match stream.read(&mut chunk) {
            Ok(0) => break, // client EOF
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    match wire::decode_frame(&buf) {
                        Ok(Some((payload, used))) => {
                            buf.drain(..used);
                            if !execute(inner, &mut session, &mut stream, &payload) {
                                break 'outer;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Stream-level corruption: framing is lost, the
                            // connection cannot be resynchronized.
                            inner.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            let resp = Response::Err {
                                code: WireErrorCode::Protocol,
                                msg: e.to_string(),
                            };
                            let _ = stream.write_all(&wire::encode_frame(&resp.encode()));
                            break 'outer;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // poll tick: re-check state, keep reading
            }
            Err(_) => break,
        }
    }
    // After a kill the crash drill owns the engine: leave the open
    // transaction to recovery.
    if inner.state() != KILLED {
        session.abort();
    }
    inner.sessions.lock().remove(&id);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Execute one frame under a permit and write its reply. Returns false
/// when the connection should close.
fn execute(inner: &Inner, session: &mut Session, stream: &mut TcpStream, payload: &[u8]) -> bool {
    {
        let mut free = inner.permits.lock();
        while *free == 0 && inner.state() != KILLED {
            inner.permit_cv.wait(&mut free);
        }
        if inner.state() == KILLED {
            // Killed: the request is abandoned un-executed and un-acked.
            inner.stats.suppressed_responses.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        *free -= 1;
    }
    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
    let (resp, disp) = match Request::decode(payload) {
        Ok(req) => session.execute(req),
        Err(e) => (
            Response::Err { code: WireErrorCode::Protocol, msg: e.to_string() },
            Disposition::Keep,
        ),
    };
    // Back before the write: a client that stops reading must not hold a
    // permit for the write timeout.
    *inner.permits.lock() += 1;
    inner.permit_cv.notify_one();
    if matches!(resp, Response::Err { .. }) {
        inner.stats.error_responses.fetch_add(1, Ordering::Relaxed);
    }
    // The kill point: once the state is KILLED no ack leaves the process,
    // so a commit whose durability the crash drill is about to retract is
    // never reported successful.
    if inner.state() == KILLED {
        inner.stats.suppressed_responses.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    stream.write_all(&wire::encode_frame(&resp.encode())).is_ok() && disp == Disposition::Keep
}
