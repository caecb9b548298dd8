//! The multi-tenant garbler service.
//!
//! One [`GarblerService`] accepts TCP connections, performs the typed
//! service preamble (tags 9–11 of the wire protocol), and multiplexes
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
//!             │  per session: QueuedChannel → drive_garbler      │
//!             └──────────────────────────────────────────────────┘
//! ```
//!
//! * A session is one TCP connection: the preamble and the whole
//!   protocol run over the socket the client opened. A request for more
//!   than one table shard gets a typed [`Message::ServiceReject`].
//! * Each session writes through its own bounded [`QueuedChannel`], so
//!   a slow evaluator backpressures only its own worker — never the
//!   accept loop, never another session.
//! * Every torn-down session fails with one typed [`SessionError`] —
//!   deadline, disconnect, corrupt frame (with its tag) — kept in its
//!   [`SessionRecord`] and counted per reason in [`Metrics`]; co-tenant
//!   sessions are untouched.
//! * Deadlines are end-to-end: the preamble read, per-session socket io
//!   (from [`ServiceConfig::io_timeout`]), and a drain deadline on
//!   [`shutdown_drain`](GarblerService::shutdown_drain).
//! * Base-OT reuse keeps one slot per client token in one map under one
//!   lock. A session checks its token's cached state out in one
//!   critical section and returns it in another, and only the token's
//!   newest session may return. A reaper thread evicts cached states
//!   past their deadline.
//! * Every counter in the [`Metrics`] registry is deterministic (no
//!   clocks), so CI pins service-level behaviour byte-for-byte.

use std::collections::{HashMap, VecDeque};
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
use arm2gc_proto::{Message, OtBackend, OtConfig, OtSenderState, ResumableOtSender};
use threadpool::ThreadPool;

use crate::error::SessionError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::QueuedChannel;
use crate::workload;

/// Most accepted sessions allowed to wait for a worker; beyond this,
/// requests are rejected with a typed "server busy".
const MAX_QUEUED: u64 = 256;

/// Bound of each session's send queue (frames): how far a garbler may
/// run ahead of a slow evaluator before blocking.
const SEND_QUEUE_FRAMES: usize = 64;

/// Tuning knobs of a [`GarblerService`].
///
/// `#[non_exhaustive]`: build with [`ServiceConfig::new`] (or
/// `default()`) plus the chained setters.
#[non_exhaustive]
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads garbling sessions concurrently.
    pub workers: usize,
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
    /// How long a fresh connection may take to produce its complete
    /// preamble frame before being dropped (default 10 s). `None`
    /// waits forever — a connect-and-stall client then pins one
    /// preamble thread, though never the accept loop.
    pub preamble_timeout: Option<Duration>,
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
            ot: OtBackend::default(),
            ot_config: OtConfig::default(),
            ot_cache_timeout: Some(Duration::from_secs(300)),
            preamble_timeout: Some(Duration::from_secs(10)),
            io_timeout: None,
        }
    }
}

impl ServiceConfig {
    /// The default configuration (4 workers, insecure reference OT,
    /// 300 s OT cache deadline, 10 s preamble deadline, no session io
    /// deadline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
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
    /// Negotiated lane count.
    pub instances: usize,
    /// Per-lane cost counters on success, or the typed teardown reason.
    pub result: Result<Vec<SkipGateStats>, SessionError>,
}

/// One cached IKNP extension state with its eviction deadline.
struct OtCacheEntry {
    state: OtSenderState,
    /// When the reaper may evict this entry (`None`: never).
    deadline: Option<Instant>,
}

/// One client token's entry in [`Shared::ot_slots`]. It exists only
/// while a state is cached or a session under the token is in flight.
struct OtSlot {
    /// The newest session that checked the token out: the only one
    /// whose return is honoured. A slow teardown of an older session
    /// must not replace a newer session's state, or the IKNP counters
    /// would silently desync against the client's half.
    newest: u64,
    /// The parked sender state. Checkout takes it, so a concurrent
    /// session on the same token finds the slot empty and pays a fresh
    /// setup instead of forking the counter state.
    cached: Option<OtCacheEntry>,
}

impl OtSlot {
    fn overdue(&self, now: Instant) -> bool {
        self.cached
            .as_ref()
            .is_some_and(|e| e.deadline.is_some_and(|d| d <= now))
    }
}

/// Finished-session records the service keeps: the most recent ones.
/// A long-running service must not grow with every session it serves;
/// the aggregate counters live in [`Metrics`].
const RECORD_LOG: usize = 1024;

struct Shared {
    config: ServiceConfig,
    metrics: Arc<Metrics>,
    /// The last [`RECORD_LOG`] finished sessions, oldest first.
    records: Mutex<VecDeque<SessionRecord>>,
    /// Base-OT reuse: client token → its slot. Checkout and return are
    /// each one critical section on this lock.
    ot_slots: Mutex<HashMap<u64, OtSlot>>,
    next_session: AtomicU64,
    /// Set once the service stops accepting: the accept loop exits and
    /// preambles still in flight are rejected.
    shutdown: AtomicBool,
    pool: ThreadPool,
    /// Reaper parking brake: `lock` then flip to `true` and
    /// `notify` to stop the reaper promptly.
    reaper_stop: Mutex<bool>,
    reaper_wake: Condvar,
}

impl Shared {
    /// Appends a finished session's record, dropping the oldest one
    /// once [`RECORD_LOG`] are kept.
    fn record(&self, record: SessionRecord) {
        let mut records = self.records.lock().unwrap();
        if records.len() == RECORD_LOG {
            records.pop_front();
        }
        records.push_back(record);
    }

    /// Makes `session` the newest tenant of `token` and takes the
    /// token's cached state, unless it is overdue (then it is evicted).
    fn checkout_ot(&self, token: u64, session: u64) -> Option<OtSenderState> {
        let now = Instant::now();
        let mut slots = self
            .ot_slots
            .lock()
            .expect("no thread panics holding the OT slots");
        let slot = slots.entry(token).or_insert(OtSlot {
            newest: session,
            cached: None,
        });
        slot.newest = session;
        let overdue = slot.overdue(now);
        let entry = slot.cached.take()?;
        drop(slots);
        if overdue {
            self.metrics.ot_evicted(1);
            return None;
        }
        Some(entry.state)
    }

    /// Ends `session`'s tenancy of `token`: caches `state` with a fresh
    /// eviction deadline, or removes the slot when there is no state to
    /// keep (the session failed, or had none to give back). A return from
    /// any session but the token's newest is dropped: caching it would
    /// desync the next resume against the client's receiver state.
    fn return_ot_state(&self, token: u64, session: u64, state: Option<OtSenderState>) {
        let mut slots = self
            .ot_slots
            .lock()
            .expect("no thread panics holding the OT slots");
        let Some(slot) = slots.get_mut(&token).filter(|s| s.newest == session) else {
            return;
        };
        match state {
            Some(state) => {
                let deadline = self.config.ot_cache_timeout.map(|t| Instant::now() + t);
                slot.cached = Some(OtCacheEntry { state, deadline });
            }
            None => {
                slots.remove(&token);
            }
        }
    }

    /// Removes every slot whose cached state is past its deadline.
    /// Returns the number evicted.
    fn evict_ot_cache(&self) -> usize {
        let now = Instant::now();
        let evicted = {
            let mut slots = self
                .ot_slots
                .lock()
                .expect("no thread panics holding the OT slots");
            let before = slots.len();
            slots.retain(|_, slot| !slot.overdue(now));
            before - slots.len()
        };
        if evicted > 0 {
            self.metrics.ot_evicted(evicted as u64);
        }
        evicted
    }
}

/// A running multi-tenant garbler service.
///
/// Binds a listener, spawns the accept loop and the OT-cache reaper,
/// and garbles every accepted session on the worker pool until
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
            records: Mutex::new(VecDeque::new()),
            ot_slots: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
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

    /// Records of the most recent finished sessions (at most 1,024),
    /// ordered by session id.
    pub fn records(&self) -> Vec<SessionRecord> {
        let mut records: Vec<SessionRecord> = self
            .shared
            .records
            .lock()
            .unwrap()
            .iter()
            .cloned()
            .collect();
        records.sort_by_key(|r| r.session);
        records
    }

    /// Immediate shutdown: [`shutdown_drain`](Self::shutdown_drain)
    /// with a zero drain window. Running sessions keep their (detached)
    /// workers until they finish on their own.
    pub fn shutdown(self) {
        self.shutdown_drain(Duration::ZERO);
    }

    /// Graceful shutdown: stops accepting, then waits up to `drain` for
    /// active and queued sessions to finish. Returns `true` when
    /// everything drained inside the window; on `false`, the stragglers
    /// keep their detached workers (they may still complete, but nobody
    /// is left to ask).
    pub fn shutdown_drain(mut self, drain: Duration) -> bool {
        self.stop_accepting();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
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

/// Evicts overdue cached OT states every tick until told to stop.
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
    if shared.shutdown.load(Ordering::SeqCst) {
        return reject(shared, pre, "service shutting down".into());
    }
    if shards != 1 {
        return reject(
            shared,
            pre,
            format!(
                "{shards} table shards requested: a service session is one connection, one shard"
            ),
        );
    }
    let check = SessionOptions::new().instances(instances as usize);
    if let Err(e) = check.validate() {
        return reject(shared, pre, e.to_string());
    }
    if !workload::is_known(&workload) {
        return reject(shared, pre, format!("unknown workload {workload:?}"));
    }
    let queued = shared.metrics.snapshot().job_queue_depth;
    if queued >= MAX_QUEUED {
        return reject(
            shared,
            pre,
            format!("server busy: {queued} sessions queued"),
        );
    }
    let session = shared.next_session.fetch_add(1, Ordering::SeqCst) + 1;
    // Checkout happens after every reject gate, so a rejected request
    // never pulls a cached state out of circulation.
    let ot_state = if ot_token != 0 && shared.config.ot == OtBackend::NaorPinkasIknp {
        shared.checkout_ot(ot_token, session)
    } else {
        None
    };
    let resumed = ot_state.is_some();
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
    shared.metrics.job_queued();
    let job_shared = Arc::clone(shared);
    shared.pool.execute(move || {
        run_session(
            &job_shared,
            session,
            workload,
            instances as usize,
            stream,
            ot_token,
            ot_state,
        );
    });
}

fn run_session(
    shared: &Arc<Shared>,
    session: u64,
    workload: String,
    instances: usize,
    stream: TcpStream,
    ot_token: u64,
    ot_state: Option<OtSenderState>,
) {
    shared.metrics.job_started();
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
            .instances(instances)
            .ot(shared.config.ot)
            .ot_config(shared.config.ot_config)
            .io_timeout(io_timeout);
        // Apply the session deadline unconditionally, so the preamble
        // deadline left on the socket is replaced, not inherited.
        stream
            .set_read_timeout(io_timeout)
            .and_then(|()| stream.set_write_timeout(io_timeout))
            .map_err(|e| SessionError::Io(e.kind()))?;
        let mut ch = QueuedChannel::new(stream, SEND_QUEUE_FRAMES, Arc::clone(&shared.metrics))
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
            &mut ch,
            Vec::new(),
            ot,
            &mut prg,
            &opts,
        )?;
        Ok(outcome.lanes.iter().map(|l| l.stats).collect())
    })();
    if let Some(snd) = np_sender {
        shared.metrics.ot_session(snd.base_setups(), snd.extended());
        let state = if result.is_ok() {
            snd.into_state()
        } else {
            None
        };
        shared.return_ot_state(ot_token, session, state);
    }
    match &result {
        Ok(stats) => {
            let tables: u64 = stats.iter().map(|s| s.garbled_tables).sum();
            let bytes: u64 = stats.iter().map(|s| s.table_bytes).sum();
            shared.metrics.session_completed(tables, bytes);
        }
        // Teardown: the session's channel (and its writer thread)
        // drops here, closing its socket; nothing else is touched.
        Err(e) => shared.metrics.session_failed(e.reason()),
    }
    shared.record(SessionRecord {
        session,
        workload,
        instances,
        result,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_log_keeps_only_the_most_recent_sessions() {
        let svc = GarblerService::bind("127.0.0.1:0", ServiceConfig::new().workers(1))
            .expect("bind loopback service");
        for session in 0..RECORD_LOG as u64 + 10 {
            svc.shared.record(SessionRecord {
                session,
                workload: "sum32:0".into(),
                instances: 1,
                result: Ok(Vec::new()),
            });
        }
        let records = svc.records();
        assert_eq!(records.len(), RECORD_LOG);
        assert_eq!(records[0].session, 10);
        assert_eq!(records[RECORD_LOG - 1].session, RECORD_LOG as u64 + 9);
        svc.shutdown();
    }

    /// A token's slot lives only while a state is cached or a session
    /// under the token is in flight: evicted states and failed sessions
    /// leave the map empty, however many tokens came by.
    #[test]
    fn ot_slots_go_when_states_are_evicted_or_sessions_fail() {
        let svc = GarblerService::bind(
            "127.0.0.1:0",
            ServiceConfig::new()
                .workers(2)
                .ot(OtBackend::NaorPinkasIknp)
                .ot_config(OtConfig::TEST)
                .ot_cache_timeout(Some(Duration::from_millis(50))),
        )
        .expect("bind loopback service");
        let addr = svc.local_addr();
        let opts = SessionOptions::new()
            .ot(OtBackend::NaorPinkasIknp)
            .ot_config(OtConfig::TEST);
        let wait_until = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                thread::sleep(Duration::from_millis(5));
            }
        };
        // Three tokens bank a state each; the reaper evicts all three.
        for token in 1..=3 {
            let mut resume = crate::client::OtResume::new(token);
            crate::client::run_session_resumed(addr, "sum32:1", &opts, &mut resume)
                .expect("session");
        }
        wait_until("states evicted", &|| svc.metrics().ot_cache_evicted == 3);
        // Two more tokens fail: each client leaves right after its
        // preamble.
        for token in 4..=5 {
            drop(
                crate::client::connect_with_token(addr, "sum32:1", &opts, token).expect("preamble"),
            );
        }
        wait_until("sessions failed", &|| svc.metrics().sessions_failed == 2);
        assert!(
            svc.shared.ot_slots.lock().unwrap().is_empty(),
            "slots outlived their tokens"
        );
        svc.shutdown();
    }
}
