//! Deterministic service metrics.
//!
//! Every counter is an event count or a queue-depth high-water mark —
//! no timestamps, no rates — so identical request sequences produce
//! identical snapshots and the CI harness can pin them byte-for-byte.
//! Rates (tables/sec) are computed by observers such as the `load_gen`
//! binary, which own the wall clock.
//!
//! Failures are accounted per reason: `sessions_failed` always equals
//! the sum of the `failed_*` buckets, so the fault-matrix suite can
//! assert exact books after every injected fault.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::FailureReason;

/// Shared counters of one [`GarblerService`](crate::GarblerService).
///
/// Updated lock-free from the accept loop, preamble threads and worker
/// jobs; read via [`Metrics::snapshot`].
#[derive(Debug, Default)]
pub struct Metrics {
    sessions_accepted: AtomicU64,
    sessions_rejected: AtomicU64,
    sessions_active: AtomicU64,
    sessions_completed: AtomicU64,
    sessions_failed: AtomicU64,
    failed_timeout: AtomicU64,
    failed_peer_disconnect: AtomicU64,
    failed_corrupt_frame: AtomicU64,
    failed_other: AtomicU64,
    rejected_preamble_timeout: AtomicU64,
    ot_base_setups: AtomicU64,
    ot_extended: AtomicU64,
    ot_cache_evicted: AtomicU64,
    tables_sent: AtomicU64,
    table_bytes_sent: AtomicU64,
    job_queue_depth: AtomicU64,
    job_queue_high_water: AtomicU64,
    send_queue_high_water: AtomicU64,
}

/// A point-in-time copy of every counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Sessions whose preamble was accepted (a `ServiceAccept` frame
    /// was sent).
    pub sessions_accepted: u64,
    /// Preambles turned away with a typed `ServiceReject` (bad
    /// configuration, unknown workload, malformed frame, server busy)
    /// or abandoned at the preamble deadline.
    pub sessions_rejected: u64,
    /// Sessions currently garbling on a worker.
    pub sessions_active: u64,
    /// Sessions that ran to completion.
    pub sessions_completed: u64,
    /// Sessions torn down after acceptance by a mid-run failure. Always
    /// the sum of the `failed_*` buckets.
    pub sessions_failed: u64,
    /// Failed sessions whose socket deadline elapsed.
    pub failed_timeout: u64,
    /// Failed sessions whose peer disconnected mid-run.
    pub failed_peer_disconnect: u64,
    /// Failed sessions torn down by an undecodable frame.
    pub failed_corrupt_frame: u64,
    /// Failed sessions outside the dedicated buckets (io, config,
    /// workload, session-level protocol violations).
    pub failed_other: u64,
    /// Connections dropped because no complete preamble frame arrived
    /// within the preamble deadline. Counted inside
    /// [`sessions_rejected`](Self::sessions_rejected).
    pub rejected_preamble_timeout: u64,
    /// Naor–Pinkas base-OT setups paid across all sessions. With base-OT
    /// reuse, N sequential sessions from one client under one resume
    /// token cost exactly 1.
    pub ot_base_setups: u64,
    /// OTs served by IKNP extension across all sessions (fresh or
    /// resumed columns). Counts transferred labels, so it is a pure
    /// function of the workloads run.
    pub ot_extended: u64,
    /// Cached OT resume states the reaper evicted at their deadline
    /// (abandoned tokens releasing their slot).
    pub ot_cache_evicted: u64,
    /// Garbled tables sent across all completed sessions.
    pub tables_sent: u64,
    /// Bytes of garbled tables across all completed sessions.
    pub table_bytes_sent: u64,
    /// Accepted sessions currently waiting for a free worker.
    pub job_queue_depth: u64,
    /// Most sessions ever waiting for a worker at once.
    pub job_queue_high_water: u64,
    /// Deepest any session's bounded send queue ever got (frames). A
    /// slow evaluator fills its own queue — and only its own — so this
    /// rising while other sessions complete is the backpressure
    /// isolation story in one number.
    pub send_queue_high_water: u64,
}

impl Metrics {
    /// Copies every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            sessions_accepted: self.sessions_accepted.load(Ordering::SeqCst),
            sessions_rejected: self.sessions_rejected.load(Ordering::SeqCst),
            sessions_active: self.sessions_active.load(Ordering::SeqCst),
            sessions_completed: self.sessions_completed.load(Ordering::SeqCst),
            sessions_failed: self.sessions_failed.load(Ordering::SeqCst),
            failed_timeout: self.failed_timeout.load(Ordering::SeqCst),
            failed_peer_disconnect: self.failed_peer_disconnect.load(Ordering::SeqCst),
            failed_corrupt_frame: self.failed_corrupt_frame.load(Ordering::SeqCst),
            failed_other: self.failed_other.load(Ordering::SeqCst),
            rejected_preamble_timeout: self.rejected_preamble_timeout.load(Ordering::SeqCst),
            ot_base_setups: self.ot_base_setups.load(Ordering::SeqCst),
            ot_extended: self.ot_extended.load(Ordering::SeqCst),
            ot_cache_evicted: self.ot_cache_evicted.load(Ordering::SeqCst),
            tables_sent: self.tables_sent.load(Ordering::SeqCst),
            table_bytes_sent: self.table_bytes_sent.load(Ordering::SeqCst),
            job_queue_depth: self.job_queue_depth.load(Ordering::SeqCst),
            job_queue_high_water: self.job_queue_high_water.load(Ordering::SeqCst),
            send_queue_high_water: self.send_queue_high_water.load(Ordering::SeqCst),
        }
    }

    pub(crate) fn session_accepted(&self) {
        self.sessions_accepted.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn session_rejected(&self) {
        self.sessions_rejected.fetch_add(1, Ordering::SeqCst);
    }

    /// A connection dropped at the preamble deadline: rejected, in the
    /// dedicated bucket.
    pub(crate) fn preamble_timeout(&self) {
        self.sessions_rejected.fetch_add(1, Ordering::SeqCst);
        self.rejected_preamble_timeout
            .fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn job_queued(&self) {
        let depth = self.job_queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.job_queue_high_water.fetch_max(depth, Ordering::SeqCst);
    }

    pub(crate) fn job_started(&self) {
        self.job_queue_depth.fetch_sub(1, Ordering::SeqCst);
        self.sessions_active.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn session_completed(&self, tables: u64, table_bytes: u64) {
        self.sessions_active.fetch_sub(1, Ordering::SeqCst);
        self.sessions_completed.fetch_add(1, Ordering::SeqCst);
        self.tables_sent.fetch_add(tables, Ordering::SeqCst);
        self.table_bytes_sent
            .fetch_add(table_bytes, Ordering::SeqCst);
    }

    /// A running session tore down; `reason` picks the bucket.
    pub(crate) fn session_failed(&self, reason: FailureReason) {
        self.sessions_active.fetch_sub(1, Ordering::SeqCst);
        self.sessions_failed.fetch_add(1, Ordering::SeqCst);
        let bucket = match reason {
            FailureReason::Timeout => &self.failed_timeout,
            FailureReason::PeerDisconnect => &self.failed_peer_disconnect,
            FailureReason::CorruptFrame => &self.failed_corrupt_frame,
            FailureReason::Other => &self.failed_other,
        };
        bucket.fetch_add(1, Ordering::SeqCst);
    }

    /// Books one session's OT activity: base setups paid and OTs
    /// extended. Recorded whether the session completed or failed, so
    /// the counters are a pure function of the request sequence.
    pub(crate) fn ot_session(&self, base_setups: u64, extended: u64) {
        self.ot_base_setups.fetch_add(base_setups, Ordering::SeqCst);
        self.ot_extended.fetch_add(extended, Ordering::SeqCst);
    }

    /// Cached OT resume states evicted at their deadline.
    pub(crate) fn ot_evicted(&self, count: u64) {
        self.ot_cache_evicted.fetch_add(count, Ordering::SeqCst);
    }

    /// Raises the send-queue high-water mark to at least `depth`.
    pub(crate) fn note_send_queue_depth(&self, depth: u64) {
        self.send_queue_high_water
            .fetch_max(depth, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_counters_balance() {
        let m = Metrics::default();
        m.session_accepted();
        m.job_queued();
        m.job_queued();
        assert_eq!(m.snapshot().job_queue_high_water, 2);
        m.job_started();
        m.job_started();
        m.session_completed(10, 320);
        m.session_failed(FailureReason::PeerDisconnect);
        let s = m.snapshot();
        assert_eq!(s.sessions_active, 0);
        assert_eq!(s.sessions_completed, 1);
        assert_eq!(s.sessions_failed, 1);
        assert_eq!(s.failed_peer_disconnect, 1);
        assert_eq!(s.tables_sent, 10);
        assert_eq!(s.table_bytes_sent, 320);
        assert_eq!(s.job_queue_depth, 0);
    }

    #[test]
    fn failure_buckets_sum_to_total() {
        let m = Metrics::default();
        for _ in 0..4 {
            m.job_queued();
            m.job_started();
        }
        m.session_failed(FailureReason::Timeout);
        m.session_failed(FailureReason::PeerDisconnect);
        m.session_failed(FailureReason::CorruptFrame);
        m.session_failed(FailureReason::Other);
        m.preamble_timeout();
        let s = m.snapshot();
        assert_eq!(s.sessions_failed, 4);
        assert_eq!(
            s.failed_timeout + s.failed_peer_disconnect + s.failed_corrupt_frame + s.failed_other,
            s.sessions_failed
        );
        assert_eq!(s.sessions_rejected, 1);
        assert_eq!(s.rejected_preamble_timeout, 1);
        assert_eq!(s.sessions_active, 0);
    }

    #[test]
    fn high_water_is_monotone() {
        let m = Metrics::default();
        m.note_send_queue_depth(5);
        m.note_send_queue_depth(2);
        assert_eq!(m.snapshot().send_queue_high_water, 5);
    }

    #[test]
    fn ot_books_accumulate() {
        let m = Metrics::default();
        m.ot_session(1, 96); // first session: setup + extension
        m.ot_session(0, 96); // resumed session: extension only
        m.ot_evicted(2);
        let s = m.snapshot();
        assert_eq!(s.ot_base_setups, 1);
        assert_eq!(s.ot_extended, 192);
        assert_eq!(s.ot_cache_evicted, 2);
    }
}
