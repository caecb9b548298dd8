//! The multi-tenant garbler service.
//!
//! One [`GarblerService`] accepts TCP connections, performs the typed
//! service preamble (tags 9–12 of the wire protocol), and multiplexes
//! every accepted session over a bounded worker pool:
//!
//! ```text
//!             ┌──────────────┐  ServiceRequest   ┌─────────────────┐
//!  client ───▶│ accept loop  │──────────────────▶│ preamble thread │
//!             └──────────────┘                   │  validate+match │
//!                                                └───────┬─────────┘
//!                                       ServiceAccept /  │ enqueue
//!                                       ServiceReject    ▼
//!             ┌──────────────────────────────────────────────────┐
//!             │ worker pool (N workers, bounded job queue)       │
//!             │  per session: QueuedChannel(s) → drive_garbler   │
//!             └──────────────────────────────────────────────────┘
//! ```
//!
//! * A session's shard sub-streams arrive as separate connections
//!   carrying [`Message::ServiceAttach`]; the service holds the partial
//!   bundle in a pending map and enqueues the job once every shard is
//!   attached. A reaper thread expires parked bundles whose remaining
//!   attachments miss the attach deadline, freeing their slot.
//! * Each session writes through its own bounded [`QueuedChannel`]s, so
//!   a slow evaluator backpressures only its own worker — never the
//!   accept loop, never another session.
//! * Every torn-down session fails with one typed [`SessionError`] —
//!   deadline, disconnect, corrupt frame (with its tag), attach expiry,
//!   shutdown — kept in its [`SessionRecord`] and counted per reason in
//!   [`Metrics`]; co-tenant sessions are untouched.
//! * Deadlines are end-to-end: the preamble read, shard attachment,
//!   per-session socket io (from [`ServiceConfig::io_timeout`]), and a
//!   drain deadline on [`shutdown_drain`](GarblerService::shutdown_drain).
//! * Every counter in the [`Metrics`] registry is deterministic (no
//!   clocks), so CI pins service-level behaviour byte-for-byte.
//!
//! [`Message::ServiceAttach`]: arm2gc_proto::Message::ServiceAttach

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use arm2gc_comm::{Channel, ChannelError, TcpChannel};
use arm2gc_core::{drive_garbler, SessionOptions, SkipGateStats};
use arm2gc_crypto::Prg;
use arm2gc_ot::OtSender;
use arm2gc_proto::{Message, OtBackend, OtConfig, OtSenderState, ResumableOtSender, StreamConfig};
use threadpool::ThreadPool;

use crate::error::SessionError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::QueuedChannel;
use crate::workload;

/// Tuning knobs of a [`GarblerService`].
///
/// `#[non_exhaustive]`: build with [`ServiceConfig::new`] (or
/// `default()`) plus the chained setters.
#[non_exhaustive]
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads garbling sessions concurrently.
    pub workers: usize,
    /// Most accepted sessions allowed to wait for a worker; beyond
    /// this, requests are rejected with a typed "server busy".
    pub max_queued: usize,
    /// Bound of each session's per-channel send queue (frames). The
    /// knob that decides how far a garbler may run ahead of a slow
    /// evaluator before blocking.
    pub send_queue_frames: usize,
    /// OT stack every session uses (out-of-band configuration: clients
    /// must drive with the same backend).
    pub ot: OtBackend,
    /// Base-OT group for [`OtBackend::NaorPinkasIknp`] sessions
    /// (default: the production 1279-bit group). Clients must use the
    /// same group — element widths are group constants.
    pub ot_config: OtConfig,
    /// How long a cached base-OT resume state may sit unused before the
    /// reaper evicts it (default 300 s). `None` caches forever — every
    /// abandoned token then holds its state until shutdown.
    pub ot_cache_timeout: Option<Duration>,
    /// Garbler-side table-streaming configuration.
    pub stream: StreamConfig,
    /// How long a fresh connection may take to produce its complete
    /// preamble frame before being dropped (default 10 s). `None`
    /// waits forever — a connect-and-stall client then pins one
    /// preamble thread, though never the accept loop.
    pub preamble_timeout: Option<Duration>,
    /// How long a parked sharded session may wait for its remaining
    /// `ServiceAttach` connections before the reaper expires it
    /// (default 30 s). `None` parks forever — the pre-deadline
    /// behaviour that leaked pending entries.
    pub attach_timeout: Option<Duration>,
    /// Per-session socket read/write deadline applied to every session
    /// stream once it leaves the preamble (default `None`: block
    /// forever, the historical behaviour — a wedged-but-connected
    /// evaluator holds its worker, contained by its own send queue).
    pub io_timeout: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_queued: 256,
            send_queue_frames: 64,
            ot: OtBackend::default(),
            ot_config: OtConfig::default(),
            ot_cache_timeout: Some(Duration::from_secs(300)),
            stream: StreamConfig::default(),
            preamble_timeout: Some(Duration::from_secs(10)),
            attach_timeout: Some(Duration::from_secs(30)),
            io_timeout: None,
        }
    }
}

impl ServiceConfig {
    /// The default configuration (4 workers, 256 queued sessions,
    /// 64-frame send queues, insecure reference OT, 10 s preamble
    /// deadline, 30 s attach deadline, no session io deadline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the accepted-but-waiting session bound.
    #[must_use]
    pub fn max_queued(mut self, max_queued: usize) -> Self {
        self.max_queued = max_queued;
        self
    }

    /// Sets the per-channel send-queue bound (frames).
    #[must_use]
    pub fn send_queue_frames(mut self, frames: usize) -> Self {
        self.send_queue_frames = frames;
        self
    }

    /// Selects the OT backend.
    #[must_use]
    pub fn ot(mut self, ot: OtBackend) -> Self {
        self.ot = ot;
        self
    }

    /// Selects the Naor–Pinkas base-OT group.
    #[must_use]
    pub fn ot_config(mut self, ot_config: OtConfig) -> Self {
        self.ot_config = ot_config;
        self
    }

    /// Sets (or disables, with `None`) the OT resume-state eviction
    /// deadline.
    #[must_use]
    pub fn ot_cache_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.ot_cache_timeout = timeout;
        self
    }

    /// Sets (or disables, with `None`) the preamble deadline.
    #[must_use]
    pub fn preamble_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.preamble_timeout = timeout;
        self
    }

    /// Sets (or disables, with `None`) the shard-attach deadline.
    #[must_use]
    pub fn attach_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.attach_timeout = timeout;
        self
    }

    /// Sets (or clears, with `None`) the per-session socket deadline.
    #[must_use]
    pub fn io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.io_timeout = timeout;
        self
    }
}

/// What one session did, for the deterministic registry.
#[derive(Clone, Debug)]
pub struct SessionRecord {
    /// Service-assigned session id (dense, in accept order).
    pub session: u64,
    /// The workload name the client requested.
    pub workload: String,
    /// Negotiated shard count.
    pub shards: usize,
    /// Negotiated lane count.
    pub instances: usize,
    /// Per-lane cost counters on success, or the typed teardown reason.
    pub result: Result<Vec<SkipGateStats>, SessionError>,
}

/// A session accepted but still waiting for shard attachments.
struct Pending {
    workload: String,
    shards: usize,
    instances: usize,
    main: TcpStream,
    shard_streams: Vec<Option<TcpStream>>,
    /// When the reaper may expire this bundle (`None`: never).
    deadline: Option<Instant>,
    /// The client's base-OT reuse token (0: none).
    ot_token: u64,
    /// Resume state checked out of the OT cache at accept time; rides
    /// with the parked bundle and returns to the cache if the bundle
    /// expires (it was never advanced).
    ot_state: Option<OtSenderState>,
}

/// One cached IKNP extension state, keyed by (client token) in
/// [`Shared::ot_cache`]. Checkout is exclusive: the entry is *removed*
/// while its session runs, so a concurrent session reusing the token
/// falls back to a fresh setup instead of forking the counter state.
struct OtCacheEntry {
    state: OtSenderState,
    /// When the reaper may evict this entry (`None`: never).
    deadline: Option<Instant>,
}

struct Shared {
    config: ServiceConfig,
    metrics: Arc<Metrics>,
    records: Mutex<Vec<SessionRecord>>,
    pending: Mutex<HashMap<u64, Pending>>,
    /// Base-OT reuse cache: client token → parked IKNP sender state.
    ot_cache: Mutex<HashMap<u64, OtCacheEntry>>,
    /// Per token, the newest session that checked the cache — the only
    /// one whose state return is accepted. A slow teardown of an older
    /// session must not clobber a newer session's banked state: the
    /// IKNP counters would silently desync against the client's half.
    ot_latest: Mutex<HashMap<u64, u64>>,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    /// Set while [`GarblerService::shutdown_drain`] runs: new requests
    /// are rejected but attaches for already-parked sessions still
    /// land.
    draining: AtomicBool,
    pool: ThreadPool,
    /// Reaper parking brake: `lock` then flip to `true` and
    /// `notify` to stop the reaper promptly.
    reaper_stop: Mutex<bool>,
    reaper_wake: Condvar,
}

impl Shared {
    /// Expires every pending bundle past its deadline (or all of them,
    /// when `expire_all` — shutdown). Returns the number expired.
    fn expire_pending(&self, expire_all: bool, reason: SessionError) -> usize {
        let now = Instant::now();
        let expired: Vec<(u64, Pending)> = {
            let mut pending = self.pending.lock().unwrap();
            let ids: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| expire_all || p.deadline.is_some_and(|d| d <= now))
                .map(|(&id, _)| id)
                .collect();
            ids.into_iter()
                .map(|id| (id, pending.remove(&id).expect("held lock")))
                .collect()
        };
        let count = expired.len();
        for (session, entry) in expired {
            match reason {
                SessionError::Shutdown => self.metrics.parked_shutdown(),
                _ => self.metrics.attach_expired(),
            }
            // The bundle never ran, so its checked-out OT state was
            // never advanced — hand it back to the cache.
            self.return_ot_state(entry.ot_token, session, entry.ot_state);
            // Tell the waiting client why before the sockets drop.
            if let Ok(mut ch) = TcpChannel::from_stream(entry.main) {
                let _ = ch.send(
                    &Message::ServiceReject {
                        reason: reason.to_string(),
                    }
                    .encode(),
                );
            }
            self.records.lock().unwrap().push(SessionRecord {
                session,
                workload: entry.workload,
                shards: entry.shards,
                instances: entry.instances,
                result: Err(reason.clone()),
            });
        }
        count
    }

    /// Removes and returns the cached OT state for `token` (exclusive
    /// checkout; expired entries are not handed out), and records
    /// `session` as the token's newest tenant — from here on, only its
    /// state return is accepted.
    fn checkout_ot(&self, token: u64, session: u64) -> Option<OtSenderState> {
        self.ot_latest.lock().unwrap().insert(token, session);
        let mut cache = self.ot_cache.lock().unwrap();
        let entry = cache.remove(&token)?;
        if entry.deadline.is_some_and(|d| d <= Instant::now()) {
            // Overdue but not yet reaped: evict instead of resuming.
            drop(cache);
            self.metrics.ot_evicted(1);
            return None;
        }
        Some(entry.state)
    }

    /// Parks `state` (if any) back in the cache under `token` with a
    /// refreshed eviction deadline — but only from the token's newest
    /// session. A stale return (an older same-token session whose
    /// teardown outlived a newer accept) is dropped on the floor:
    /// caching it would desync the next resume against the client's
    /// banked receiver counters.
    fn return_ot_state(&self, token: u64, session: u64, state: Option<OtSenderState>) {
        let Some(state) = state else { return };
        if token == 0 {
            return;
        }
        if self.ot_latest.lock().unwrap().get(&token) != Some(&session) {
            return;
        }
        let deadline = self.config.ot_cache_timeout.map(|t| Instant::now() + t);
        self.ot_cache
            .lock()
            .unwrap()
            .insert(token, OtCacheEntry { state, deadline });
    }

    /// Evicts every cached OT state past its deadline. Returns the
    /// number evicted.
    fn evict_ot_cache(&self) -> usize {
        let now = Instant::now();
        let evicted = {
            let mut cache = self.ot_cache.lock().unwrap();
            let before = cache.len();
            cache.retain(|_, e| !e.deadline.is_some_and(|d| d <= now));
            before - cache.len()
        };
        if evicted > 0 {
            self.metrics.ot_evicted(evicted as u64);
        }
        evicted
    }
}

/// A running multi-tenant garbler service.
///
/// Binds a listener, spawns the accept loop and the attach reaper, and
/// garbles every accepted session on the worker pool until
/// [`shutdown`] / [`shutdown_drain`]. The server plays Alice: each
/// session's inputs come from the requested deterministic
/// [`workload`].
///
/// [`shutdown`]: Self::shutdown
/// [`shutdown_drain`]: Self::shutdown_drain
pub struct GarblerService {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
}

impl GarblerService {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting sessions.
    ///
    /// # Errors
    /// Propagates socket errors from binding.
    pub fn bind(addr: impl ToSocketAddrs, config: ServiceConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            metrics: Arc::new(Metrics::default()),
            records: Mutex::new(Vec::new()),
            pending: Mutex::new(HashMap::new()),
            ot_cache: Mutex::new(HashMap::new()),
            ot_latest: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            pool: ThreadPool::new(config.workers.max(1)),
            reaper_stop: Mutex::new(false),
            reaper_wake: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || accept_loop(&listener, &accept_shared));
        let reaper_shared = Arc::clone(&shared);
        let reaper = thread::spawn(move || reaper_loop(&reaper_shared));
        Ok(Self {
            addr,
            shared,
            accept: Some(accept),
            reaper: Some(reaper),
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Records of every finished session, ordered by session id.
    pub fn records(&self) -> Vec<SessionRecord> {
        let mut records = self.shared.records.lock().unwrap().clone();
        records.sort_by_key(|r| r.session);
        records
    }

    /// Immediate shutdown: [`shutdown_drain`](Self::shutdown_drain)
    /// with a zero drain window. Parked sessions are discarded with a
    /// typed [`SessionError::Shutdown`]; running sessions keep their
    /// (detached) workers until they finish on their own.
    pub fn shutdown(self) {
        self.shutdown_drain(Duration::ZERO);
    }

    /// Graceful shutdown: stops accepting, discards parked sessions
    /// with a typed [`SessionError::Shutdown`], then waits up to
    /// `drain` for active and queued sessions to finish. Returns `true`
    /// when everything drained inside the window; on `false`, the
    /// stragglers keep their detached workers (they may still complete,
    /// but nobody is left to ask).
    pub fn shutdown_drain(mut self, drain: Duration) -> bool {
        // New preambles are rejected from here on.
        self.shared.draining.store(true, Ordering::SeqCst);
        self.stop_accepting();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Parked bundles can never complete once attaches stop arriving.
        self.shared.expire_pending(true, SessionError::Shutdown);
        self.stop_reaper();
        let deadline = Instant::now() + drain;
        loop {
            if self.shared.pool.active_count() == 0 && self.shared.pool.queued_count() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    fn stop_accepting(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    fn stop_reaper(&mut self) {
        *self.shared.reaper_stop.lock().unwrap() = true;
        self.shared.reaper_wake.notify_all();
        if let Some(handle) = self.reaper.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for GarblerService {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_accepting();
        }
        if self.reaper.is_some() {
            self.stop_reaper();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Preamble handling gets its own short-lived thread so a
        // client that connects and stalls cannot block the accept
        // loop for everyone else.
        let shared = Arc::clone(shared);
        thread::spawn(move || handle_connection(&shared, stream));
    }
}

/// Expires overdue parked sessions every tick until told to stop.
fn reaper_loop(shared: &Arc<Shared>) {
    let tick = Duration::from_millis(25);
    let mut stop = shared.reaper_stop.lock().unwrap();
    while !*stop {
        let (guard, _) = shared.reaper_wake.wait_timeout(stop, tick).unwrap();
        stop = guard;
        if *stop {
            return;
        }
        drop(stop);
        shared.expire_pending(false, SessionError::AttachTimeout);
        shared.evict_ot_cache();
        stop = shared.reaper_stop.lock().unwrap();
    }
}

/// Reads and dispatches one connection's first frame, under the
/// preamble deadline.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(pre_stream) = stream.try_clone() else {
        return;
    };
    let Ok(mut pre) = TcpChannel::from_stream(pre_stream) else {
        return;
    };
    if pre
        .set_read_timeout(shared.config.preamble_timeout)
        .is_err()
    {
        return;
    }
    let frame = match pre.recv() {
        Ok(frame) => frame,
        Err(ChannelError::Timeout) => {
            // Connected but never produced a preamble: count and drop.
            shared.metrics.preamble_timeout();
            return;
        }
        Err(_) => return,
    };
    match Message::decode(&frame) {
        Ok(Message::ServiceRequest {
            shards,
            instances,
            ot_token,
            workload,
        }) => handle_request(
            shared, stream, &mut pre, shards, instances, ot_token, workload,
        ),
        Ok(Message::ServiceAttach { session, shard }) => {
            handle_attach(shared, stream, &mut pre, session, shard);
        }
        _ => reject(shared, &mut pre, "malformed service preamble".into()),
    }
}

fn reject(shared: &Arc<Shared>, pre: &mut TcpChannel, reason: String) {
    shared.metrics.session_rejected();
    let _ = pre.send(&Message::ServiceReject { reason }.encode());
}

fn handle_request(
    shared: &Arc<Shared>,
    stream: TcpStream,
    pre: &mut TcpChannel,
    shards: u8,
    instances: u16,
    ot_token: u64,
    workload: String,
) {
    if shared.draining.load(Ordering::SeqCst) {
        return reject(shared, pre, "service shutting down".into());
    }
    let check = SessionOptions::new()
        .shards(shards as usize)
        .instances(instances as usize);
    if let Err(e) = check.validate() {
        return reject(shared, pre, e.to_string());
    }
    if workload::resolve(&workload, 1).is_none() {
        return reject(shared, pre, format!("unknown workload {workload:?}"));
    }
    let queued = shared.metrics.snapshot().job_queue_depth;
    if queued >= shared.config.max_queued as u64 {
        return reject(
            shared,
            pre,
            format!("server busy: {queued} sessions queued"),
        );
    }
    let session = shared.next_session.fetch_add(1, Ordering::SeqCst) + 1;
    // Checkout happens after every reject gate, so a rejected request
    // never pulls a cached state out of circulation. Exclusive: a
    // concurrent session on the same token finds the slot empty and
    // pays a fresh setup instead of forking the counter state.
    let ot_state = if ot_token != 0 && shared.config.ot == OtBackend::NaorPinkasIknp {
        shared.checkout_ot(ot_token, session)
    } else {
        None
    };
    let resumed = ot_state.is_some();
    let shard_count = shards as usize;
    if shard_count > 1 {
        // Park until every shard sub-stream attaches (or the reaper
        // expires the bundle). Insert before sending Accept so an
        // eager client's attach can't miss.
        shared.pending.lock().unwrap().insert(
            session,
            Pending {
                workload,
                shards: shard_count,
                instances: instances as usize,
                main: stream,
                shard_streams: (0..shard_count).map(|_| None).collect(),
                deadline: shared.config.attach_timeout.map(|t| Instant::now() + t),
                ot_token,
                ot_state,
            },
        );
        if pre
            .send(&Message::ServiceAccept { session, resumed }.encode())
            .is_err()
        {
            if let Some(entry) = shared.pending.lock().unwrap().remove(&session) {
                shared.return_ot_state(entry.ot_token, session, entry.ot_state);
            }
            return;
        }
        shared.metrics.session_accepted();
    } else {
        if pre
            .send(&Message::ServiceAccept { session, resumed }.encode())
            .is_err()
        {
            // The client never saw the accept; its next request should
            // still find the cached state.
            shared.return_ot_state(ot_token, session, ot_state);
            return;
        }
        shared.metrics.session_accepted();
        enqueue(
            shared,
            session,
            workload,
            1,
            instances as usize,
            stream,
            Vec::new(),
            ot_token,
            ot_state,
        );
    }
}

fn handle_attach(
    shared: &Arc<Shared>,
    stream: TcpStream,
    pre: &mut TcpChannel,
    session: u64,
    shard: u8,
) {
    let ready = {
        let mut pending = shared.pending.lock().unwrap();
        let Some(entry) = pending.get_mut(&session) else {
            drop(pending);
            return reject(shared, pre, format!("unknown session {session}"));
        };
        let slot = shard as usize;
        if slot >= entry.shards {
            drop(pending);
            return reject(shared, pre, format!("shard {shard} out of range"));
        }
        if entry.shard_streams[slot].is_some() {
            drop(pending);
            return reject(shared, pre, format!("shard {shard} already attached"));
        }
        entry.shard_streams[slot] = Some(stream);
        if entry.shard_streams.iter().all(Option::is_some) {
            pending.remove(&session)
        } else {
            None
        }
    };
    if let Some(entry) = ready {
        enqueue(
            shared,
            session,
            entry.workload,
            entry.shards,
            entry.instances,
            entry.main,
            entry.shard_streams.into_iter().flatten().collect(),
            entry.ot_token,
            entry.ot_state,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn enqueue(
    shared: &Arc<Shared>,
    session: u64,
    workload: String,
    shards: usize,
    instances: usize,
    main: TcpStream,
    shard_streams: Vec<TcpStream>,
    ot_token: u64,
    ot_state: Option<OtSenderState>,
) {
    shared.metrics.job_queued();
    let job_shared = Arc::clone(shared);
    shared.pool.execute(move || {
        run_session(
            &job_shared,
            session,
            workload,
            shards,
            instances,
            main,
            shard_streams,
            ot_token,
            ot_state,
        );
    });
}

#[allow(clippy::too_many_arguments)]
fn run_session(
    shared: &Arc<Shared>,
    session: u64,
    workload: String,
    shards: usize,
    instances: usize,
    main: TcpStream,
    shard_streams: Vec<TcpStream>,
    ot_token: u64,
    ot_state: Option<OtSenderState>,
) {
    shared.metrics.job_started();
    let cap = shared.config.send_queue_frames;
    let io_timeout = shared.config.io_timeout;
    let mut prg = Prg::from_entropy();
    // The OT endpoint lives outside the session closure so its
    // extension state and setup counters survive the run — booked into
    // metrics either way, returned to the cache only on success (a
    // failed session may have desynced the peer's counters mid-batch).
    let mut np_sender = match shared.config.ot {
        OtBackend::NaorPinkasIknp => Some(match ot_state {
            Some(state) => ResumableOtSender::resume(state, &mut prg),
            None => ResumableOtSender::fresh(shared.config.ot_config, &mut prg),
        }),
        _ => None,
    };
    let np_ref = np_sender.as_mut();
    let result = (|| -> Result<Vec<SkipGateStats>, SessionError> {
        let wl = workload::resolve(&workload, instances)
            .ok_or_else(|| SessionError::Workload(workload.clone()))?;
        let opts = SessionOptions::new()
            .shards(shards)
            .instances(instances)
            .ot(shared.config.ot)
            .ot_config(shared.config.ot_config)
            .stream(shared.config.stream)
            .io_timeout(io_timeout);
        // Apply the session deadline to every stream — unconditionally,
        // so the preamble deadline left on the main socket is replaced,
        // not inherited.
        for s in std::iter::once(&main).chain(shard_streams.iter()) {
            s.set_read_timeout(io_timeout)
                .and_then(|()| s.set_write_timeout(io_timeout))
                .map_err(|e| SessionError::Io(e.kind()))?;
        }
        let mut main_ch = QueuedChannel::new(main, cap, Arc::clone(&shared.metrics))
            .map_err(|e| SessionError::Io(e.kind()))?;
        let shard_chs = shard_streams
            .into_iter()
            .map(|s| {
                QueuedChannel::new(s, cap, Arc::clone(&shared.metrics))
                    .map(|c| Box::new(c) as Box<dyn Channel>)
            })
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| SessionError::Io(e.kind()))?;
        let mut insecure;
        let ot: &mut dyn OtSender = match np_ref {
            Some(snd) => snd,
            None => {
                insecure = opts.ot.sender(opts.ot_config, &mut prg);
                insecure.as_mut()
            }
        };
        let outcome = drive_garbler(
            &wl.circuit,
            &wl.alices,
            &wl.publics,
            wl.cycles,
            &mut main_ch,
            shard_chs,
            ot,
            &mut prg,
            &opts,
        )?;
        Ok(outcome.lanes.iter().map(|l| l.stats).collect())
    })();
    if let Some(snd) = np_sender {
        shared.metrics.ot_session(snd.base_setups(), snd.extended());
        if result.is_ok() {
            shared.return_ot_state(ot_token, session, snd.into_state());
        }
    }
    match &result {
        Ok(stats) => {
            let tables: u64 = stats.iter().map(|s| s.garbled_tables).sum();
            let bytes: u64 = stats.iter().map(|s| s.table_bytes).sum();
            shared.metrics.session_completed(tables, bytes);
        }
        // Teardown: the session's channels (and their writer threads)
        // drop here, closing its sockets; nothing else is touched.
        Err(e) => shared.metrics.session_failed(e.reason()),
    }
    shared.records.lock().unwrap().push(SessionRecord {
        session,
        workload,
        shards,
        instances,
        result,
    });
}
