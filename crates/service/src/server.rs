//! The serving node: a [`QuantileServer`] hosts a sharded engine behind
//! a `TcpListener` and answers [`crate::proto`] frames.
//!
//! ## Threading
//!
//! There is no async runtime in the build environment, so the server
//! reuses the crate's `std::thread` idiom ([`hsq_core::parallel`]):
//! `worker_count` acceptor threads each block in `accept()` on a cloned
//! listener handle and hand every connection to its own serving thread
//! — thread-per-connection, which matches the intended deployment (a
//! handful of coordinator connections, not the open internet). Shutdown
//! sets a flag and self-connects once per acceptor to unblock the
//! accepts; serving threads poll the flag between frames via a 100 ms
//! read timeout and are joined before shutdown returns.
//!
//! ## Sessions
//!
//! [`Request::OpenSession`] pins a per-tenant snapshot epoch shared by
//! every connection: repeated dashboard queries from one tenant keep
//! hitting the same [`ShardedSnapshot`] until the tenant refreshes. A
//! node builds no scope of its own — `Extract` ships the per-source
//! views the coordinator builds the scope from, and `Probe` answers
//! through the snapshot's fan-in probe source. Probe state (block caches
//! and the exact ranks of recent probes) is *per connection*, keyed by
//! `(tenant, epoch, window)`, so concurrent connections never contend.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hsq_core::parallel::worker_count;
use hsq_core::query::{ProbeState, RankProbeSource};
use hsq_core::{ShardedEngine, ShardedSnapshot};
use hsq_storage::{BlockDevice, Item};

use crate::proto::{read_frame_bounded, write_frame, FrameLimits, FrameRead, Request, Response};

/// How long a serving thread waits for the next frame before polling
/// the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Write deadline per response (`SO_SNDTIMEO`): a peer that stops
/// draining its socket gets its connection dropped instead of pinning a
/// serving thread in `write()` forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

struct SessionEntry<T: Item, D: BlockDevice> {
    epoch: u64,
    snapshot: Arc<ShardedSnapshot<T, D>>,
}

struct ServerState<T: Item, D: BlockDevice> {
    engine: Mutex<ShardedEngine<T, D>>,
    sessions: Mutex<HashMap<u64, SessionEntry<T, D>>>,
    next_epoch: Mutex<u64>,
}

impl<T: Item, D: BlockDevice> ServerState<T, D> {
    /// Pin (or reuse) the tenant's session snapshot.
    fn open_session(&self, tenant: u64, refresh: bool) -> Response<T> {
        let mut sessions = self.sessions.lock().unwrap();
        if refresh || !sessions.contains_key(&tenant) {
            let snapshot = Arc::new(self.engine.lock().unwrap().snapshot());
            let mut next = self.next_epoch.lock().unwrap();
            *next += 1;
            sessions.insert(
                tenant,
                SessionEntry {
                    epoch: *next,
                    snapshot,
                },
            );
        }
        let entry = &sessions[&tenant];
        let snap = &entry.snapshot;
        Response::Session {
            epoch: entry.epoch,
            total: snap.total_len(),
            stream_weight: snap.stream_len(),
            quarantined: snap.quarantined_total(),
            epsilon: snap.query_epsilon(),
            shards: snap.num_shards() as u64,
        }
    }

    fn session_snapshot(&self, tenant: u64) -> Option<(u64, Arc<ShardedSnapshot<T, D>>)> {
        let sessions = self.sessions.lock().unwrap();
        sessions
            .get(&tenant)
            .map(|e| (e.epoch, Arc::clone(&e.snapshot)))
    }
}

/// A networked quantile node: a [`ShardedEngine`] served over TCP via
/// the [`crate::proto`] wire protocol. See the module docs for the
/// threading and session model.
pub struct QuantileServer<T: Item, D: BlockDevice> {
    state: Arc<ServerState<T, D>>,
}

/// A running server: its bound address plus the shutdown control.
/// Dropping the handle without calling [`ServerHandle::shutdown`] leaves
/// the acceptor threads running for the life of the process.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The address the server is accepting on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, unblock the acceptor threads, and join every
    /// thread. In-flight connections are drained: serving threads
    /// notice the flag at their next idle poll (≤ 100 ms) and close.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for _ in &self.workers {
            // Unblock one accept() per worker; errors just mean the
            // listener is already gone.
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers {
            let _ = w.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for c in conns {
            let _ = c.join();
        }
    }
}

impl<T: Item, D: BlockDevice> QuantileServer<T, D> {
    /// Wrap an engine for serving. The engine stays fully owned by the
    /// server; remote ingest and `end_time_step` go through the wire.
    pub fn new(engine: ShardedEngine<T, D>) -> Self {
        QuantileServer {
            state: Arc::new(ServerState {
                engine: Mutex::new(engine),
                sessions: Mutex::new(HashMap::new()),
                next_epoch: Mutex::new(0),
            }),
        }
    }

    /// Start serving on `listener` with a small acceptor pool; returns
    /// the handle controlling the server's lifetime.
    pub fn spawn(self, listener: TcpListener) -> io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let n = worker_count(4).max(1);
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = listener.try_clone()?;
            let state = Arc::clone(&self.state);
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            workers.push(std::thread::spawn(move || {
                accept_loop(listener, state, shutdown, conns)
            }));
        }
        Ok(ServerHandle {
            addr,
            shutdown,
            workers,
            conns,
        })
    }
}

fn accept_loop<T: Item, D: BlockDevice>(
    listener: TcpListener,
    state: Arc<ServerState<T, D>>,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let conn = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok((stream, _)) => {
                // Thread-per-connection: acceptors must never serve
                // inline, or concurrent clients would serialize behind
                // (and on a small machine, deadlock against) each other.
                let state = Arc::clone(&state);
                let stop = Arc::clone(&shutdown);
                let handle = std::thread::spawn(move || {
                    let _ = serve_conn(stream, &state, &stop);
                });
                let mut conns = conns.lock().unwrap();
                // Reap finished serving threads so a long-lived server
                // doesn't accumulate handles.
                conns.retain(|c| !c.is_finished());
                conns.push(handle);
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake);
                // keep accepting.
            }
        }
    }
}

/// Per-connection probe state, keyed by `(tenant, epoch, window)` so a
/// session refresh or a different window never reuses another
/// selection's state. It only ever holds verified decoded blocks and
/// exact ranks of the pinned epoch's partitions, so reuse across requests
/// only saves reads. Bounded by the tenants' current epochs times their
/// aligned windows.
type ProbeStates<T> = HashMap<(u64, u64, Option<u64>), Vec<ProbeState<T>>>;

fn serve_conn<T: Item, D: BlockDevice>(
    mut stream: TcpStream,
    state: &ServerState<T, D>,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IDLE_POLL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut caches: ProbeStates<T> = HashMap::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        // The tight server stall budget (≈ 1 s of IDLE_POLLs) is what
        // lets shutdown join promptly even when a peer hangs mid-frame.
        let raw = match read_frame_bounded(&mut stream, FrameLimits::server()) {
            Ok(FrameRead::Frame(raw)) => raw,
            Ok(FrameRead::Eof) => return Ok(()),
            Ok(FrameRead::Idle) => continue,
            Err(e) => {
                // Torn or oversized frame: tell the peer (best effort)
                // and drop the connection — resync is not attempted.
                let resp: Response<T> = Response::Error {
                    message: format!("bad frame: {e}"),
                };
                let _ = write_frame(&mut stream, &resp.encode());
                return Err(e);
            }
        };
        let resp = match Request::<T>::decode(&raw) {
            Ok(req) => handle_request(req, state, &mut caches),
            Err(e) => {
                // The frame arrived whole but failed validation; the
                // stream itself is still framed, so answer and go on.
                Response::Error {
                    message: format!("bad request: {e}"),
                }
            }
        };
        write_frame(&mut stream, &resp.encode())?;
    }
}

fn handle_request<T: Item, D: BlockDevice>(
    req: Request<T>,
    state: &ServerState<T, D>,
    caches: &mut ProbeStates<T>,
) -> Response<T> {
    match req {
        Request::Ping => Response::Pong,
        Request::Ingest { items } => {
            let weight: u64 = items.iter().map(|&(_, w)| w).sum();
            let count = items.len() as u64;
            state.engine.lock().unwrap().stream_extend_weighted(&items);
            Response::Ingested {
                items: count,
                weight,
            }
        }
        Request::EndStep => match state.engine.lock().unwrap().end_time_step() {
            Ok(reports) => Response::StepEnded {
                shards: reports.len() as u64,
            },
            Err(e) => Response::Error {
                message: format!("end_time_step failed: {e}"),
            },
        },
        Request::OpenSession { tenant, refresh } => state.open_session(tenant, refresh),
        Request::Extract { tenant, window } => {
            let Some((_, snap)) = state.session_snapshot(tenant) else {
                return unknown_tenant(tenant);
            };
            match snap.source_views(window) {
                Some((sources, total)) => Response::Extract { total, sources },
                None => Response::WindowUnavailable,
            }
        }
        Request::Probe { tenant, window, zs } => {
            let Some((epoch, snap)) = state.session_snapshot(tenant) else {
                return unknown_tenant(tenant);
            };
            // A refreshed session drops the states of its earlier epochs,
            // and only a window that aligns gets its states (back).
            let key = (tenant, epoch, window);
            let mut states = caches.remove(&key).unwrap_or_else(|| {
                caches.retain(|&(t, e, _), _| t != tenant || e == epoch);
                snap.new_cache_set()
            });
            let Some(mut probes) = snap.probes(window, &mut states) else {
                return Response::WindowUnavailable;
            };
            // The bisection runs on the coordinator, so the node applies
            // the driver's strict-mode gate itself.
            let bounds: io::Result<Vec<_>> = snap
                .strict_gate()
                .and_then(|()| zs.into_iter().map(|z| probes.probe(z)).collect());
            drop(probes);
            caches.insert(key, states);
            match bounds {
                Ok(bounds) => Response::Bounds { bounds },
                Err(e) => Response::Error {
                    message: format!("probe failed: {e}"),
                },
            }
        }
    }
}

fn unknown_tenant<T>(tenant: u64) -> Response<T> {
    Response::Error {
        message: format!("unknown tenant {tenant}: open a session first"),
    }
}
