//! Evaluator-side client for the garbler service.
//!
//! [`run_session`] is the whole story for most callers: name a
//! [`workload`], pick [`SessionOptions`], and get back
//! the session's [`InstancedOutcome`] — the same value a solo
//! [`run_two_party_opts`](arm2gc_core::run_two_party_opts) run of the
//! same workload produces, which is exactly how the load generator
//! verifies the service. [`connect`] exposes the bare preamble
//! (request and verdict) for harnesses that want to drive — or stall —
//! the session themselves. A session is one TCP connection.
//!
//! Transient connection failures (refused, reset, timed out) can be
//! absorbed with a deterministic capped-exponential [`RetryPolicy`]
//! via [`connect_with_retry`] / [`run_session_with_retry`]; permanent
//! answers (a typed `ServiceReject`, local config errors) are never
//! retried, and giving up surfaces as
//! [`ClientError::RetriesExhausted`] wrapping the last failure.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use arm2gc_comm::{Channel, ChannelError, TcpChannel};
use arm2gc_core::{drive_evaluator, InstancedOutcome, ProtocolError, SessionOptions};
use arm2gc_crypto::Prg;
use arm2gc_ot::OtReceiver;
use arm2gc_proto::{
    ConfigError, Message, OtBackend, OtReceiverState, ProtoError, ResumableOtReceiver,
};

use crate::workload;

/// Everything that can go wrong on the client side of a service
/// session.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The connection dropped mid-frame.
    Closed,
    /// A socket read/write deadline elapsed (see
    /// [`SessionOptions::io_timeout`]).
    Timeout,
    /// An unparsable or out-of-place preamble frame.
    Proto(ProtoError),
    /// The service turned the request away (typed reason from its
    /// `ServiceReject` frame).
    Rejected(String),
    /// The requested options fail validation locally, before any
    /// connection is made.
    Config(ConfigError),
    /// The workload name doesn't resolve locally.
    UnknownWorkload(String),
    /// The garbling protocol itself failed after the session started.
    Protocol(ProtocolError),
    /// The service resumed a cached base-OT state this client no longer
    /// holds (e.g. the previous session failed client-side after the
    /// garbler banked its state). Not retryable on the same token —
    /// reconnect with a fresh [`OtResume`].
    ResumeDesync,
    /// Every attempt allowed by the [`RetryPolicy`] failed with a
    /// transient error; `last` is the final one.
    RetriesExhausted {
        /// How many connection attempts were made.
        attempts: u32,
        /// The failure of the last attempt.
        last: Box<ClientError>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Closed => write!(f, "connection closed"),
            ClientError::Timeout => write!(f, "socket deadline elapsed"),
            ClientError::Proto(e) => write!(f, "preamble error: {e}"),
            ClientError::Rejected(reason) => write!(f, "service rejected session: {reason}"),
            ClientError::Config(e) => write!(f, "invalid session options: {e}"),
            ClientError::UnknownWorkload(name) => write!(f, "unknown workload {name:?}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::ResumeDesync => {
                write!(
                    f,
                    "service resumed a base-OT state this client does not hold"
                )
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether retrying the whole connection could plausibly succeed.
    ///
    /// Transient: connection refused/reset/aborted, broken pipe, socket
    /// timeouts, and mid-frame closes (a restarting or momentarily
    /// overloaded service). Permanent: typed rejections, local config
    /// errors, unknown workloads, decode and protocol failures — the
    /// answer won't change.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Closed | ClientError::Timeout => true,
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::UnexpectedEof
            ),
            _ => false,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ChannelError> for ClientError {
    fn from(e: ChannelError) -> Self {
        match e {
            ChannelError::Closed => ClientError::Closed,
            ChannelError::Timeout => ClientError::Timeout,
            ChannelError::Io(kind) => ClientError::Io(io::Error::from(kind)),
        }
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<ConfigError> for ClientError {
    fn from(e: ConfigError) -> Self {
        ClientError::Config(e)
    }
}

/// Deterministic capped-exponential backoff for connection attempts.
///
/// Delays double from [`base_delay`](Self::base_delay) up to
/// [`max_delay`](Self::max_delay), with deterministic jitter derived
/// from [`seed`](Self::seed) — two clients with different seeds spread
/// out, while a fixed seed reproduces the exact retry schedule in
/// tests.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total connection attempts (including the first); 0 is treated
    /// as 1.
    pub attempts: u32,
    /// Backoff before the second attempt.
    pub base_delay: Duration,
    /// Upper bound on any single backoff.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(640),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before attempt `attempt + 1` (so `delay(0)` is
    /// slept after the first failure): the capped exponential
    /// `base * 2^attempt`, jittered deterministically into its upper
    /// half `[exp/2, exp]`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.max_delay);
        let exp_us = exp.as_micros() as u64;
        if exp_us == 0 {
            return Duration::ZERO;
        }
        // splitmix64 of (seed, attempt): cheap, stateless, and good
        // enough to decorrelate clients.
        let mut z = self
            .seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let jittered = exp_us / 2 + z % (exp_us / 2 + 1);
        Duration::from_micros(jittered)
    }
}

/// An accepted session whose protocol proper has not started yet.
#[derive(Debug)]
pub struct Connection {
    /// The service-assigned session id.
    pub session: u64,
    /// Whether the service checked out a cached base-OT state for this
    /// session's token (always `false` for token 0).
    pub resumed: bool,
    /// The session's protocol channel.
    pub main: TcpChannel,
}

/// Client-side base-OT reuse handle: a token plus the receiver
/// extension state banked by the last successful session under it.
///
/// The token is an identifier, not a secret — it scopes which cache
/// slot the service checks; the security of reuse rests on the
/// counter-advancing IKNP state itself. Token 0 disables reuse.
///
/// Feed the same handle to successive [`run_session_resumed`] calls:
/// the first pays one base-OT setup, later ones extend the cached
/// columns. A failed session clears the state (both ends drop it), so
/// the next call transparently pays a fresh setup.
#[derive(Debug, Default)]
pub struct OtResume {
    /// The token sent in the preamble (0 disables reuse).
    pub token: u64,
    /// Receiver extension state from the last successful session.
    pub state: Option<OtReceiverState>,
}

impl OtResume {
    /// A fresh handle for `token` with no banked state.
    pub fn new(token: u64) -> Self {
        Self { token, state: None }
    }
}

/// Performs the service preamble: sends `ServiceRequest` and awaits
/// the verdict. Any `io_timeout` in `opts` is applied to the socket
/// before the first frame.
///
/// # Errors
/// [`ClientError::Config`] on locally invalid options,
/// [`ClientError::Rejected`] when the service says no, plus transport
/// and decode failures.
pub fn connect(
    addr: SocketAddr,
    workload: &str,
    opts: &SessionOptions,
) -> Result<Connection, ClientError> {
    connect_with_token(addr, workload, opts, 0)
}

/// [`connect`] carrying a base-OT reuse token in the preamble. The
/// returned [`Connection::resumed`] flag reports whether the service
/// checked out a cached state for it; [`run_session_resumed`] handles
/// the matching receiver-side state for you.
///
/// # Errors
/// Same as [`connect`].
pub fn connect_with_token(
    addr: SocketAddr,
    workload: &str,
    opts: &SessionOptions,
    ot_token: u64,
) -> Result<Connection, ClientError> {
    opts.validate()?;
    let mut main = TcpChannel::from_stream(TcpStream::connect(addr)?)?;
    main.set_read_timeout(opts.io_timeout)?;
    main.set_write_timeout(opts.io_timeout)?;
    main.send(
        &Message::ServiceRequest {
            shards: opts.shards as u8,
            instances: opts.instances as u16,
            ot_token,
            workload: workload.to_string(),
        }
        .encode(),
    )?;
    let (session, resumed) = match Message::decode(&main.recv()?)? {
        Message::ServiceAccept { session, resumed } => (session, resumed),
        Message::ServiceReject { reason } => return Err(ClientError::Rejected(reason)),
        _ => {
            return Err(ClientError::Proto(ProtoError::Malformed(
                "expected verdict",
            )))
        }
    };
    Ok(Connection {
        session,
        resumed,
        main,
    })
}

/// [`connect`] with transient failures retried under `policy`.
///
/// Only [transient](ClientError::is_transient) errors are retried — a
/// typed rejection or config error returns immediately, un-wrapped.
///
/// # Errors
/// [`ClientError::RetriesExhausted`] once every allowed attempt failed
/// transiently; otherwise the first permanent error.
pub fn connect_with_retry(
    addr: SocketAddr,
    workload: &str,
    opts: &SessionOptions,
    policy: &RetryPolicy,
) -> Result<Connection, ClientError> {
    let attempts = policy.attempts.max(1);
    let mut last: Option<ClientError> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(policy.delay(attempt - 1));
        }
        match connect(addr, workload, opts) {
            Ok(conn) => return Ok(conn),
            Err(e) if e.is_transient() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(ClientError::RetriesExhausted {
        attempts,
        last: Box::new(last.expect("at least one attempt ran")),
    })
}

/// The result of one complete client session.
#[derive(Debug)]
pub struct SessionRun {
    /// The service-assigned session id.
    pub session: u64,
    /// The evaluator-side outcome — outputs and per-lane cost counters
    /// identical to a solo run of the same workload and options.
    pub outcome: InstancedOutcome,
}

/// Connects and drives the evaluator side of one session of
/// `workload` end to end.
///
/// # Errors
/// Everything [`connect`] can raise, plus
/// [`ClientError::UnknownWorkload`] and protocol failures from the
/// drive itself.
pub fn run_session(
    addr: SocketAddr,
    workload: &str,
    opts: &SessionOptions,
) -> Result<SessionRun, ClientError> {
    let wl = workload::resolve(workload, opts.instances)
        .ok_or_else(|| ClientError::UnknownWorkload(workload.to_string()))?;
    let conn = connect(addr, workload, opts)?;
    drive(conn, &wl, opts)
}

/// [`run_session`] with the *connection* phase retried under `policy`.
/// Failures after the session started are not retried — the garbling
/// transcript is stateful, so a broken session can only be reported.
///
/// # Errors
/// Everything [`connect_with_retry`] and [`drive`] can raise.
pub fn run_session_with_retry(
    addr: SocketAddr,
    workload: &str,
    opts: &SessionOptions,
    policy: &RetryPolicy,
) -> Result<SessionRun, ClientError> {
    let wl = workload::resolve(workload, opts.instances)
        .ok_or_else(|| ClientError::UnknownWorkload(workload.to_string()))?;
    let conn = connect_with_retry(addr, workload, opts, policy)?;
    drive(conn, &wl, opts)
}

/// Drives the evaluator over an already established [`Connection`].
/// Split out of [`run_session`] so harnesses can hold the connection
/// (e.g. to stall between preamble and protocol) before driving.
///
/// # Errors
/// Protocol failures from the drive.
pub fn drive(
    conn: Connection,
    wl: &workload::Workload,
    opts: &SessionOptions,
) -> Result<SessionRun, ClientError> {
    let mut prg = Prg::from_entropy();
    let mut ot = opts.ot.receiver(opts.ot_config, &mut prg);
    drive_with_ot(conn, wl, opts, ot.as_mut())
}

/// [`drive`] with a caller-supplied OT endpoint — the seam
/// [`run_session_resumed`] uses to thread resumable receiver state
/// through a session.
///
/// # Errors
/// Protocol failures from the drive.
pub fn drive_with_ot(
    mut conn: Connection,
    wl: &workload::Workload,
    opts: &SessionOptions,
    ot: &mut dyn OtReceiver,
) -> Result<SessionRun, ClientError> {
    let outcome = drive_evaluator(
        &wl.circuit,
        &wl.bobs,
        &wl.publics,
        wl.cycles,
        &mut conn.main,
        Vec::new(),
        ot,
        opts,
    )
    .map_err(ClientError::Protocol)?;
    Ok(SessionRun {
        session: conn.session,
        outcome,
    })
}

/// [`run_session`] with base-OT reuse: the first call under a token
/// pays one Naor–Pinkas setup, every later call extends the banked
/// IKNP state — same outputs, a fraction of the setup cost.
///
/// `resume.state` is updated in place: banked on success, cleared on
/// failure (mirroring the service, which drops its side of a failed
/// session's state). With [`OtBackend::Insecure`] or token 0 this is
/// plain [`run_session`].
///
/// # Errors
/// Everything [`run_session`] can raise, plus
/// [`ClientError::ResumeDesync`] when the service banked state this
/// client no longer holds.
pub fn run_session_resumed(
    addr: SocketAddr,
    workload: &str,
    opts: &SessionOptions,
    resume: &mut OtResume,
) -> Result<SessionRun, ClientError> {
    if opts.ot != OtBackend::NaorPinkasIknp || resume.token == 0 {
        return run_session(addr, workload, opts);
    }
    let wl = workload::resolve(workload, opts.instances)
        .ok_or_else(|| ClientError::UnknownWorkload(workload.to_string()))?;
    let conn = connect_with_token(addr, workload, opts, resume.token)?;
    let mut prg = Prg::from_entropy();
    let mut rcv = match (conn.resumed, resume.state.take()) {
        (true, Some(state)) => ResumableOtReceiver::resume(state, &mut prg),
        (true, None) => return Err(ClientError::ResumeDesync),
        // Not resumed: the service lost or evicted its side, so any
        // stale local state is dropped and both ends set up fresh.
        (false, _) => ResumableOtReceiver::fresh(opts.ot_config, &mut prg),
    };
    let run = drive_with_ot(conn, &wl, opts, &mut rcv)?;
    resume.state = rcv.into_state();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered_into_the_upper_half() {
        let p = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(640),
            seed: 42,
        };
        for attempt in 0..8 {
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << attempt)
                .min(p.max_delay);
            let d = p.delay(attempt);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d:?} vs {exp:?}"
            );
            // Deterministic: same policy, same schedule.
            assert_eq!(d, p.delay(attempt));
        }
        // Different seeds decorrelate at least one step of the schedule.
        let q = RetryPolicy { seed: 43, ..p };
        assert!((0..8).any(|a| p.delay(a) != q.delay(a)));
    }

    #[test]
    fn transience_is_judged_by_class() {
        assert!(ClientError::Closed.is_transient());
        assert!(ClientError::Timeout.is_transient());
        assert!(ClientError::Io(io::Error::from(io::ErrorKind::ConnectionRefused)).is_transient());
        assert!(!ClientError::Rejected("busy".into()).is_transient());
        assert!(!ClientError::UnknownWorkload("x".into()).is_transient());
        assert!(!ClientError::Proto(ProtoError::Malformed("expected verdict")).is_transient());
    }
}
