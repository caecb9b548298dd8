//! Per-session bounded send queues.
//!
//! The garbler writes tables much faster than a slow evaluator drains
//! them. Writing straight to the socket would park the worker inside
//! the kernel's send buffer with nothing to show for it; sharing one
//! writer across sessions would let a single stalled evaluator starve
//! everyone. [`QueuedChannel`] gives every session its *own* writer
//! thread fed by a bounded in-process queue: the garbling worker blocks
//! only once **its own** queue is full — backpressure stays
//! session-local by construction.
//!
//! When the writer thread dies on a socket error, the error is parked
//! in a shared slot and the queue is disconnected, so the next `send`
//! returns the *original* typed [`ChannelError`] immediately instead of
//! blocking forever against a queue nobody drains.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use arm2gc_comm::{Channel, ChannelError, TcpChannel};
use crossbeam::channel::{bounded, Sender};

use crate::metrics::Metrics;

/// A [`Channel`] over a TCP stream whose sends go through a bounded
/// queue drained by a dedicated writer thread.
///
/// `send` enqueues the frame and returns immediately while the queue
/// has room; once the peer stops draining and the queue fills, `send`
/// blocks — that is the session's backpressure point. If the writer
/// thread has died on a socket error, `send` instead fails immediately
/// with that error. `recv` reads the socket directly (the
/// evaluator-to-garbler direction is sparse), honouring any socket
/// read deadline. Queue depth is reported to the service-wide
/// [`Metrics`] high-water mark on every send.
///
/// Dropping the channel disconnects the queue; the writer thread drains
/// what was already enqueued and exits.
pub struct QueuedChannel {
    tx: Sender<Vec<u8>>,
    reader: TcpChannel,
    depth: Arc<AtomicU64>,
    fail: Arc<Mutex<Option<ChannelError>>>,
    metrics: Arc<Metrics>,
}

impl QueuedChannel {
    /// Splits `stream` into a direct read half and a queued write half
    /// with room for `cap` frames.
    ///
    /// # Errors
    /// Propagates socket errors (cloning the stream, `TCP_NODELAY`).
    pub fn new(stream: TcpStream, cap: usize, metrics: Arc<Metrics>) -> std::io::Result<Self> {
        let write_half = stream.try_clone()?;
        let reader = TcpChannel::from_stream(stream)?;
        let mut writer = TcpChannel::from_stream(write_half)?;
        let (tx, rx) = bounded::<Vec<u8>>(cap);
        let depth = Arc::new(AtomicU64::new(0));
        let fail = Arc::new(Mutex::new(None));
        let writer_depth = Arc::clone(&depth);
        let writer_fail = Arc::clone(&fail);
        thread::spawn(move || {
            // Exits when every sender is gone (session over) or the
            // socket dies (peer torn down). On death the original error
            // is parked first, *then* the thread returns — dropping
            // `rx` disconnects the queue, so a sender blocked on a full
            // queue wakes with an error and finds the diagnosis.
            while let Ok(frame) = rx.recv() {
                let sent = writer.send(&frame);
                writer_depth.fetch_sub(1, Ordering::SeqCst);
                if let Err(e) = sent {
                    *writer_fail.lock().unwrap() = Some(e);
                    return;
                }
            }
        });
        Ok(Self {
            tx,
            reader,
            depth,
            fail,
            metrics,
        })
    }

    /// The error that killed the writer thread, if it has died.
    pub fn writer_failure(&self) -> Option<ChannelError> {
        *self.fail.lock().unwrap()
    }

    /// Reads the parked writer error, defaulting to `Closed` when the
    /// writer exited without recording one.
    fn writer_error(&self) -> ChannelError {
        self.writer_failure().unwrap_or(ChannelError::Closed)
    }
}

impl Channel for QueuedChannel {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        // Fail fast with the original socket error once the writer has
        // died — never block against a queue nobody drains.
        if let Some(e) = self.writer_failure() {
            return Err(e);
        }
        // Count before enqueueing so a concurrent dequeue can never
        // make the depth read as zero while a frame is in flight.
        let depth = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics.note_send_queue_depth(depth);
        self.tx.send(data.to_vec()).map_err(|_| {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            self.writer_error()
        })
    }

    fn recv(&mut self) -> Result<Vec<u8>, ChannelError> {
        self.reader.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn frames_flow_through_the_writer_thread() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut ch = TcpChannel::from_stream(stream).unwrap();
            for i in 0..20u8 {
                assert_eq!(ch.recv().unwrap(), vec![i; i as usize]);
            }
            ch.send(b"reply").unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let metrics = Arc::new(Metrics::default());
        let mut ch = QueuedChannel::new(stream, 4, Arc::clone(&metrics)).unwrap();
        for i in 0..20u8 {
            ch.send(&vec![i; i as usize]).unwrap();
        }
        assert_eq!(ch.recv().unwrap(), b"reply");
        peer.join().unwrap();
        assert!(metrics.snapshot().send_queue_high_water >= 1);
    }

    #[test]
    fn stalled_peer_fills_the_queue_until_drained() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let big = 256 * 1024; // larger than typical socket buffers
        let peer = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut ch = TcpChannel::from_stream(stream).unwrap();
            release_rx.recv().unwrap(); // stall: read nothing until told
            for _ in 0..8 {
                assert_eq!(ch.recv().unwrap().len(), big);
            }
        });
        let stream = TcpStream::connect(addr).unwrap();
        let metrics = Arc::new(Metrics::default());
        let mut ch = QueuedChannel::new(stream, 2, Arc::clone(&metrics)).unwrap();
        let sender = thread::spawn(move || {
            for _ in 0..8 {
                ch.send(&vec![0u8; big]).unwrap();
            }
            ch
        });
        // The writer wedges against the stalled peer, the queue tops
        // out at its bound, and the sender blocks - session-local
        // backpressure. Unstall and everything drains.
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(metrics.snapshot().send_queue_high_water >= 2);
        release_tx.send(()).unwrap();
        let _ch = sender.join().unwrap();
        peer.join().unwrap();
    }

    #[test]
    fn dead_writer_fails_sends_immediately_with_the_original_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Close the peer outright: once its FIN-then-RST lands, the
            // writer hits a real socket error mid-stream.
            drop(stream);
        });
        let stream = TcpStream::connect(addr).unwrap();
        let metrics = Arc::new(Metrics::default());
        // Tiny queue: without fail-fast, sends after writer death would
        // block forever once the queue filled.
        let mut ch = QueuedChannel::new(stream, 1, Arc::clone(&metrics)).unwrap();
        peer.join().unwrap();
        // Pump until the writer thread observes the dead socket and
        // parks its error; each send must return, never hang.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let err = loop {
            assert!(
                std::time::Instant::now() < deadline,
                "writer death never surfaced"
            );
            if let Err(e) = ch.send(&vec![0u8; 64 * 1024]) {
                break e;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        // The typed reason survives: a reset/broken-pipe style
        // disconnect, not a generic closed-by-us.
        assert!(
            err.is_disconnect(),
            "expected a disconnect-class error, got {err:?}"
        );
        assert_eq!(ch.writer_failure(), Some(err));
        // And it is sticky: the next send fails instantly.
        assert_eq!(ch.send(&[1]), Err(err));
    }
}
