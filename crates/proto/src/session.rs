//! Garbler/evaluator session abstractions.
//!
//! A session owns one side of a protocol run: the framed channel, the
//! party's crypto context (PRG and free-XOR Δ on the garbler side), the
//! OT endpoint and the cost counters. Both engines (`arm2gc_garble`'s
//! conventional baseline and `arm2gc_core`'s SkipGate) are thin loops
//! over this shared layer, which provides:
//!
//! * the versioned [`Message::Hello`] handshake at establishment,
//! * input-label delivery — direct labels one way, OT (tunnelled through
//!   typed [`Message::OtPayload`] frames) the other,
//! * **pipelined table streaming**: the garbler pushes tables into a
//!   buffered sink that flushes in [`StreamConfig`]-sized chunks, while
//!   the evaluator *pulls* tables on demand, so garbling of cycle `t+1`
//!   overlaps evaluation of cycle `t` instead of rendezvousing once per
//!   cycle,
//! * **sharded parallel streaming** ([`ShardConfig`]): each cycle's
//!   tables are partitioned into contiguous ranges and each range rides
//!   its own sub-stream — a dedicated worker thread on the garbler side
//!   buffers, frames and sends it (overlapping serialisation and wire
//!   I/O with garbling, which itself stays in topological order because
//!   half-gate output labels are hash-derived and feed downstream
//!   gates), while the evaluator pulls from each sub-stream lazily and
//!   reassembles tables in gate order,
//! * the output-revelation exchange (decode colours vs. values).

use arm2gc_comm::{Channel, ChannelError};
use arm2gc_crypto::{Delta, Label, Prg};
use arm2gc_ot::{OtError, OtReceiver, OtSender};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::shard::{ShardConfig, ShardPlan};
use crate::wire::{
    Message, ProtoError, SessionRole, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION, TAG_OT_PAYLOAD,
    TAG_TABLES, TAG_TABLE_SHARD,
};

/// How the garbler's table sink batches tables onto the wire.
///
/// A chunked stream flushes on two triggers: whenever more than
/// `chunk_bytes` table bytes are buffered, and at a cycle boundary once
/// [`CYCLE_FLUSH_VISITS`] gate visits have passed since the last
/// boundary flush (see [`GarblerSession::end_cycle`]). The second keeps
/// the evaluator busy on circuits whose many cycles garble few tables
/// each, where a whole session's tables fit in one chunk. Both triggers
/// read public counts only, so frame boundaries — and the transcript —
/// are the same on every run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Flush whenever at least this many table bytes are buffered.
    /// `None` reproduces the legacy lockstep behaviour: one flush at
    /// every cycle boundary, regardless of size.
    pub chunk_bytes: Option<usize>,
}

/// Gate visits (gates × active lanes, summed over cycles) after which a
/// chunked stream flushes its buffered tables at the next cycle
/// boundary. 2²⁰ visits are about seven cycles of the garbled CPU
/// (163,628 gates), some 19 ms of decision pass, so the evaluator never
/// waits long for work, while small circuits (a 7-gate comparator for
/// 16,384 cycles is 114,688 visits) never reach it and keep their
/// size-chunked frames.
pub const CYCLE_FLUSH_VISITS: u64 = 1 << 20;

impl StreamConfig {
    /// Legacy per-cycle flushing (one `Tables` frame per clock cycle).
    pub const fn lockstep() -> Self {
        Self { chunk_bytes: None }
    }

    /// Flush in chunks of at least `bytes` table bytes.
    pub const fn chunked(bytes: usize) -> Self {
        Self {
            chunk_bytes: Some(bytes),
        }
    }
}

impl Default for StreamConfig {
    /// 64 KiB chunks (2048 half-gate tables): large enough to amortise
    /// per-frame overhead, small enough that the evaluator starts while
    /// the garbler is still working.
    fn default() -> Self {
        Self::chunked(64 * 1024)
    }
}

/// Cost counters a session accumulates; engines fold these into their
/// public stats structs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Garbled tables pushed (garbler) or pulled (evaluator).
    pub garbled_tables: u64,
    /// Bytes of garbled tables, excluding framing.
    pub table_bytes: u64,
    /// 1-out-of-2 OTs executed for the evaluator's input bits.
    pub ots: u64,
}

/// Adapter that tunnels an OT sub-protocol's raw messages through typed
/// [`Message::OtPayload`] frames.
///
/// OT implementations keep speaking [`Channel`]; wrapping the session
/// channel in an `OtTunnel` makes every byte they exchange a well-formed
/// protocol frame. A frame arriving mid-OT that fails to decode (or
/// decodes to something other than `OtPayload`) is recorded and
/// surfaced verbatim — [`ProtoError::CorruptFrame`] for decode
/// failures, [`ProtoError::Malformed`] for wrong-frame-here — once the
/// OT call returns.
pub struct OtTunnel<'a> {
    ch: &'a mut dyn Channel,
    failure: Option<ProtoError>,
}

impl<'a> OtTunnel<'a> {
    /// Wraps a channel.
    pub fn new(ch: &'a mut dyn Channel) -> Self {
        Self { ch, failure: None }
    }

    /// Converts an OT result, preferring a recorded framing error (the
    /// OT layer only sees a closed channel when the tunnel rejects a
    /// frame, so the tunnel's diagnosis is the accurate one).
    pub fn finish<T>(self, res: Result<T, OtError>) -> Result<T, ProtoError> {
        match self.failure {
            Some(e) => Err(e),
            None => res.map_err(ProtoError::Ot),
        }
    }
}

impl Channel for OtTunnel<'_> {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        // Frame in place (tag + body) — IKNP correction matrices run to
        // hundreds of KB, so avoid the Message round-trip's extra copy.
        self.ch.send(&crate::wire::prefixed(TAG_OT_PAYLOAD, data))
    }

    fn recv(&mut self) -> Result<Vec<u8>, ChannelError> {
        let raw = self.ch.recv()?;
        match Message::decode(&raw) {
            Ok(Message::OtPayload(p)) => Ok(p),
            Ok(_) => {
                self.failure = Some(ProtoError::Malformed("expected ot payload frame"));
                Err(ChannelError::Closed)
            }
            Err(e) => {
                self.failure = Some(e);
                Err(ChannelError::Closed)
            }
        }
    }
}

fn send_msg(ch: &mut dyn Channel, msg: &Message) -> Result<(), ProtoError> {
    ch.send(&msg.encode())?;
    Ok(())
}

fn recv_msg(ch: &mut dyn Channel) -> Result<Message, ProtoError> {
    Message::decode(&ch.recv()?)
}

/// Runs the versioned hello exchange. The garbler speaks first.
///
/// Each side advertises the highest version it speaks
/// ([`PROTOCOL_VERSION`]); the session then runs at the *lowest common*
/// version. Only a peer older than [`MIN_PROTOCOL_VERSION`] is rejected,
/// so mismatched-but-compatible builds interoperate.
fn handshake(ch: &mut dyn Channel, role: SessionRole) -> Result<u16, ProtoError> {
    let mine = Message::Hello {
        version: PROTOCOL_VERSION,
        role,
    };
    if role == SessionRole::Garbler {
        send_msg(ch, &mine)?;
    }
    let peer = recv_msg(ch)?;
    if role == SessionRole::Evaluator {
        send_msg(ch, &mine)?;
    }
    match peer {
        Message::Hello { version, .. } if version < MIN_PROTOCOL_VERSION => {
            Err(ProtoError::Malformed("incompatible protocol version"))
        }
        Message::Hello {
            role: peer_role, ..
        } if peer_role != role.peer() => Err(ProtoError::Malformed("peer claims the same role")),
        Message::Hello { version, .. } => Ok(version.min(PROTOCOL_VERSION)),
        _ => Err(ProtoError::Malformed("expected hello frame")),
    }
}

/// Commands the garbler's main thread feeds a shard worker.
enum ShardCmd {
    /// One garbled table's bytes, to buffer and eventually send.
    Bytes(Vec<u8>),
    /// Flush the buffer now (lockstep cycle boundary).
    Flush,
}

/// A per-shard sender thread plus its command queue. Dropping the
/// sender makes the worker flush its tail and exit.
struct ShardWorker {
    tx: Option<Sender<ShardCmd>>,
    handle: Option<std::thread::JoinHandle<Result<(), ChannelError>>>,
}

impl ShardWorker {
    /// Spawns the worker owning `ch`; it assembles `TableShard` frames
    /// for `shard`, flushing by `chunk` bytes (`None` = only on `Flush`
    /// commands and at shutdown).
    fn spawn(shard: u8, mut ch: Box<dyn Channel>, chunk: Option<usize>) -> Self {
        let (tx, rx): (Sender<ShardCmd>, Receiver<ShardCmd>) = unbounded();
        let handle = std::thread::spawn(move || {
            // Pre-framed `TableShard` message under construction.
            let mut buf = vec![TAG_TABLE_SHARD, shard];
            const HDR: usize = 2;
            let mut flush = |buf: &mut Vec<u8>| -> Result<(), ChannelError> {
                if buf.len() > HDR {
                    ch.send(buf)?;
                    buf.truncate(HDR);
                }
                Ok(())
            };
            loop {
                match rx.recv() {
                    Ok(ShardCmd::Bytes(b)) => {
                        buf.extend_from_slice(&b);
                        if chunk.is_some_and(|c| buf.len() - HDR > c) {
                            flush(&mut buf)?;
                        }
                    }
                    Ok(ShardCmd::Flush) => flush(&mut buf)?,
                    // Sender dropped: orderly shutdown, flush the tail.
                    Err(_) => return flush(&mut buf),
                }
            }
        });
        Self {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    fn push(&self, cmd: ShardCmd) -> Result<(), ProtoError> {
        self.tx
            .as_ref()
            .ok_or(ProtoError::Channel(ChannelError::Closed))?
            .send(cmd)
            .map_err(|_| ProtoError::Channel(ChannelError::Closed))
    }

    /// Signals shutdown (drops the queue) and joins, surfacing send
    /// failures the worker hit.
    fn finish(&mut self) -> Result<(), ProtoError> {
        drop(self.tx.take());
        match self.handle.take() {
            Some(h) => match h.join() {
                Ok(res) => res.map_err(ProtoError::Channel),
                Err(_) => Err(ProtoError::Malformed("shard worker panicked")),
            },
            None => Ok(()),
        }
    }
}

/// The garbler's table transport: the legacy single inline stream, or
/// one worker per shard.
enum GarblerTables {
    /// Pre-framed `Tables` message under construction: `[TAG_TABLES]`
    /// followed by buffered table bytes, sent as-is on flush.
    Inline { buf: Vec<u8> },
    /// Sharded: per-shard worker threads plus the current cycle's
    /// partition and position. Because shard ranges are contiguous,
    /// tables for the current shard accumulate in `pending` and are
    /// handed to the worker in chunk-sized batches (or at a shard
    /// switch / cycle end), not one channel send per table.
    Sharded {
        workers: Vec<ShardWorker>,
        plan: ShardPlan,
        next_index: usize,
        current: usize,
        pending: Vec<u8>,
    },
}

/// Alice's side of a protocol run.
///
/// Owns the channel, the PRG, the global free-XOR offset Δ (drawn at
/// establishment), the OT sender and the table transport (buffered sink
/// or per-shard workers).
pub struct GarblerSession<'a> {
    ch: &'a mut dyn Channel,
    ot: &'a mut dyn OtSender,
    prg: &'a mut Prg,
    delta: Delta,
    version: u16,
    instances: u16,
    stream: StreamConfig,
    tables: GarblerTables,
    /// Gate visits since the last cycle-boundary flush.
    visits_since_flush: u64,
    /// `stats.garbled_tables` at the last cycle-boundary flush.
    tables_at_flush: u64,
    stats: SessionStats,
}

impl<'a> GarblerSession<'a> {
    /// Performs the versioned handshake and draws Δ.
    ///
    /// # Errors
    /// Channel failures, or a peer with the wrong version or role.
    pub fn establish(
        ch: &'a mut dyn Channel,
        ot: &'a mut dyn OtSender,
        prg: &'a mut Prg,
        stream: StreamConfig,
    ) -> Result<Self, ProtoError> {
        Self::establish_instanced(ch, Vec::new(), ot, prg, stream, ShardConfig::single(), 1)
    }

    /// [`GarblerSession::establish`] with a sharded table stream, for
    /// a session garbling `instances` independent runs of the same
    /// circuit.
    ///
    /// Each of the `shards.shards` sub-streams gets a dedicated channel
    /// from `shard_chs` and a worker thread that frames and sends its
    /// share of every cycle's tables. With `shards == 1` the transport
    /// is the inline stream (byte-identical to an unsharded session)
    /// and `shard_chs` must be empty; engines must then still call
    /// [`GarblerSession::begin_cycle`], which is a no-op.
    ///
    /// When `instances > 1` the garbler announces the count in a
    /// [`Message::Instances`] frame right after the handshake
    /// (requiring protocol version ≥ 2); with `instances == 1` no frame
    /// is sent and the wire bytes are identical to a single-instance
    /// session.
    ///
    /// # Errors
    /// Channel failures, a peer with an incompatible version or the
    /// wrong role, a `shard_chs` count not matching `shards`, a zero
    /// instance count or (when `instances > 1`) a peer whose negotiated
    /// version predates instanced sessions.
    pub fn establish_instanced(
        ch: &'a mut dyn Channel,
        shard_chs: Vec<Box<dyn Channel>>,
        ot: &'a mut dyn OtSender,
        prg: &'a mut Prg,
        stream: StreamConfig,
        shards: ShardConfig,
        instances: u16,
    ) -> Result<Self, ProtoError> {
        if instances == 0 {
            return Err(ProtoError::Malformed("zero instance count"));
        }
        let tables = garbler_tables(shard_chs, stream, shards)?;
        let version = handshake(ch, SessionRole::Garbler)?;
        if instances > 1 {
            if version < 2 {
                return Err(ProtoError::Malformed("instanced session needs protocol v2"));
            }
            send_msg(ch, &Message::Instances(instances))?;
        }
        let delta = Delta::random(prg);
        Ok(Self {
            ch,
            ot,
            prg,
            delta,
            version,
            instances,
            stream,
            tables,
            visits_since_flush: 0,
            tables_at_flush: 0,
            stats: SessionStats::default(),
        })
    }

    /// The session's global free-XOR offset.
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// The protocol version negotiated at the handshake (the lowest
    /// common version of the two builds).
    pub fn negotiated_version(&self) -> u16 {
        self.version
    }

    /// How many circuit instances this session batches (1 unless
    /// established via [`GarblerSession::establish_instanced`]).
    pub fn instances(&self) -> u16 {
        self.instances
    }

    /// Draws a fresh uniformly random wire label.
    pub fn fresh_label(&mut self) -> Label {
        Label::random(self.prg)
    }

    /// Delivers the direct (non-OT) input labels. Always sends a frame,
    /// even when empty — the evaluator always expects one.
    ///
    /// # Errors
    /// Channel failures.
    pub fn send_direct_labels(&mut self, labels: &[Label]) -> Result<(), ProtoError> {
        send_msg(self.ch, &Message::DirectLabels(labels.to_vec()))
    }

    /// Runs the OT batch for the evaluator's input bits (no-op when
    /// `pairs` is empty, matching the receiving side).
    ///
    /// # Errors
    /// Channel, OT and framing failures.
    pub fn ot_send(&mut self, pairs: &[(Label, Label)]) -> Result<(), ProtoError> {
        if !pairs.is_empty() {
            let mut tunnel = OtTunnel::new(&mut *self.ch);
            let res = self.ot.send(&mut tunnel, pairs);
            tunnel.finish(res)?;
        }
        self.stats.ots += pairs.len() as u64;
        Ok(())
    }

    /// Announces the number of tables the coming cycle will produce.
    ///
    /// In a sharded session this fixes the cycle's contiguous partition
    /// (both parties derive the same one from public knowledge); in an
    /// unsharded session it is a no-op. Engines call it once per clock
    /// cycle, before the first [`GarblerSession::push_table`].
    pub fn begin_cycle(&mut self, tables: usize) {
        if let GarblerTables::Sharded {
            workers,
            plan,
            next_index,
            current,
            ..
        } = &mut self.tables
        {
            *plan = ShardPlan::new(tables, workers.len());
            *next_index = 0;
            *current = 0;
        }
    }

    /// Buffers one garbled table, flushing when the configured chunk
    /// size is reached. In a sharded session the table is handed to the
    /// worker owning the current gate range instead.
    ///
    /// # Errors
    /// Channel failures on flush, or (sharded) a push beyond the count
    /// announced via [`GarblerSession::begin_cycle`].
    pub fn push_table(&mut self, table: &[u8]) -> Result<(), ProtoError> {
        self.stats.garbled_tables += 1;
        self.stats.table_bytes += table.len() as u64;
        match &mut self.tables {
            GarblerTables::Inline { buf } => {
                buf.extend_from_slice(table);
                if self
                    .stream
                    .chunk_bytes
                    .is_some_and(|chunk| buf.len() > chunk)
                {
                    flush_inline(self.ch, buf)?;
                }
                Ok(())
            }
            GarblerTables::Sharded {
                workers,
                plan,
                next_index,
                current,
                pending,
            } => {
                if *next_index >= plan.tables() {
                    return Err(ProtoError::Malformed(
                        "table outside the cycle's shard plan",
                    ));
                }
                let shard = plan.shard_of(*next_index, *current);
                if shard != *current && !pending.is_empty() {
                    workers[*current].push(ShardCmd::Bytes(std::mem::take(pending)))?;
                }
                *current = shard;
                *next_index += 1;
                pending.extend_from_slice(table);
                if self
                    .stream
                    .chunk_bytes
                    .is_some_and(|chunk| pending.len() > chunk)
                {
                    workers[*current].push(ShardCmd::Bytes(std::mem::take(pending)))?;
                }
                Ok(())
            }
        }
    }

    /// Marks a clock-cycle boundary after a cycle of `visits` gate
    /// visits (the netlist's gate count times the lanes still running).
    ///
    /// A lockstep stream flushes the cycle's tables here (on every
    /// shard). A chunked stream flushes here once at least
    /// [`CYCLE_FLUSH_VISITS`] visits have passed since its last
    /// boundary flush and a table was pushed in between; a sharded
    /// session then sends `Flush` to every worker. Size-triggered
    /// flushes in [`push_table`](Self::push_table) do not reset the
    /// count. A sharded session also hands the current shard's locally
    /// batched tables to its worker here, so `pending` never spans a
    /// cycle boundary.
    ///
    /// # Errors
    /// Channel failures on flush.
    pub fn end_cycle(&mut self, visits: u64) -> Result<(), ProtoError> {
        self.visits_since_flush += visits;
        let flush = match self.stream.chunk_bytes {
            None => true,
            Some(_) => {
                self.visits_since_flush >= CYCLE_FLUSH_VISITS
                    && self.stats.garbled_tables > self.tables_at_flush
            }
        };
        match &mut self.tables {
            GarblerTables::Inline { buf } => {
                if flush {
                    flush_inline(self.ch, buf)?;
                }
            }
            GarblerTables::Sharded {
                workers,
                current,
                pending,
                ..
            } => {
                if !pending.is_empty() {
                    workers[*current].push(ShardCmd::Bytes(std::mem::take(pending)))?;
                }
                if flush {
                    for w in workers {
                        w.push(ShardCmd::Flush)?;
                    }
                }
            }
        }
        if flush {
            self.visits_since_flush = 0;
            self.tables_at_flush = self.stats.garbled_tables;
        }
        Ok(())
    }

    /// Flushes whatever table transport is active; sharded workers are
    /// shut down and joined (they flush their tails on the way out).
    fn finish_table_stream(&mut self) -> Result<(), ProtoError> {
        match &mut self.tables {
            GarblerTables::Inline { buf } => flush_inline(self.ch, buf),
            GarblerTables::Sharded {
                workers,
                current,
                pending,
                ..
            } => {
                let mut res = if pending.is_empty() {
                    Ok(())
                } else {
                    workers[*current].push(ShardCmd::Bytes(std::mem::take(pending)))
                };
                for w in workers {
                    let r = w.finish();
                    if res.is_ok() {
                        res = r;
                    }
                }
                res
            }
        }
    }

    /// Sends the decode (colour) bits, receives the evaluator's revealed
    /// values. Flushes any still-buffered tables first (joining shard
    /// workers), so this can never deadlock against an evaluator still
    /// pulling tables.
    ///
    /// # Errors
    /// Channel failures, or an `Outputs` frame of the wrong length.
    pub fn reveal_outputs(&mut self, decode_bits: &[bool]) -> Result<Vec<bool>, ProtoError> {
        self.finish_table_stream()?;
        send_msg(self.ch, &Message::DecodeBits(decode_bits.to_vec()))?;
        match recv_msg(self.ch)? {
            Message::Outputs(values) if values.len() == decode_bits.len() => Ok(values),
            Message::Outputs(_) => Err(ProtoError::Malformed("output bit count")),
            _ => Err(ProtoError::Malformed("expected outputs frame")),
        }
    }

    /// The accumulated cost counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

/// Builds the garbler's table transport, validating the shard setup.
fn garbler_tables(
    shard_chs: Vec<Box<dyn Channel>>,
    stream: StreamConfig,
    shards: ShardConfig,
) -> Result<GarblerTables, ProtoError> {
    validate_shards(shards, shard_chs.len())?;
    if !shards.is_sharded() {
        return Ok(GarblerTables::Inline {
            buf: vec![TAG_TABLES],
        });
    }
    let workers = shard_chs
        .into_iter()
        .enumerate()
        .map(|(k, ch)| ShardWorker::spawn(k as u8, ch, stream.chunk_bytes))
        .collect();
    Ok(GarblerTables::Sharded {
        workers,
        plan: ShardPlan::new(0, shards.shards),
        next_index: 0,
        current: 0,
        pending: Vec::new(),
    })
}

/// A sharded session needs exactly one dedicated channel per shard; an
/// unsharded one rides the main channel and must not be handed any.
fn validate_shards(shards: ShardConfig, channels: usize) -> Result<(), ProtoError> {
    if shards.shards == 0 || shards.shards > ShardConfig::MAX_SHARDS {
        return Err(ProtoError::Malformed("shard count out of range"));
    }
    let expected = if shards.is_sharded() {
        shards.shards
    } else {
        0
    };
    if channels != expected {
        return Err(ProtoError::Malformed("shard channel count mismatch"));
    }
    Ok(())
}

/// Sends a pre-framed `Tables` buffer and resets it to just the tag.
fn flush_inline(ch: &mut dyn Channel, buf: &mut Vec<u8>) -> Result<(), ProtoError> {
    if buf.len() > 1 {
        ch.send(buf)?;
        buf.truncate(1);
    }
    Ok(())
}

impl std::fmt::Debug for GarblerSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shards = match &self.tables {
            GarblerTables::Inline { .. } => 1,
            GarblerTables::Sharded { workers, .. } => workers.len(),
        };
        f.debug_struct("GarblerSession")
            .field("stream", &self.stream)
            .field("shards", &shards)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// One shard's pull-based sub-stream on the evaluator side: its own
/// channel, expected shard id and reassembly buffer.
struct ShardSource {
    ch: Box<dyn Channel>,
    shard: u8,
    buf: Vec<u8>,
    pos: usize,
}

impl ShardSource {
    fn drained(&self) -> bool {
        self.buf.len() == self.pos
    }
}

/// The shared pull loop of every table sub-stream: tops `buf` up to
/// `len` unconsumed bytes, receiving frames from `ch` as needed and
/// compacting the consumed prefix first. `shard` selects the frame
/// layout: `None` accepts legacy `Tables` frames, `Some(id)` accepts
/// `TableShard` frames for exactly that shard. Frame bodies are
/// appended straight into the buffer instead of materialising a
/// [`Message`] copy (hot path), and validated to hold a whole number
/// of `align`-byte tables (0 disables the check).
fn pull_tables(
    ch: &mut dyn Channel,
    buf: &mut Vec<u8>,
    pos: &mut usize,
    len: usize,
    align: usize,
    shard: Option<u8>,
) -> Result<(), ProtoError> {
    while buf.len() - *pos < len {
        if *pos > 0 {
            buf.drain(..*pos);
            *pos = 0;
        }
        let raw = ch.recv()?;
        let tables = match (shard, raw.split_first()) {
            (None, Some((&TAG_TABLES, body))) => body,
            (Some(want), Some((&TAG_TABLE_SHARD, body))) => {
                let (&got, tables) = body
                    .split_first()
                    .ok_or(ProtoError::Malformed("table shard frame too short"))?;
                if got != want {
                    return Err(ProtoError::Malformed("table shard id mismatch"));
                }
                tables
            }
            (None, _) => return Err(ProtoError::Malformed("expected tables frame")),
            (Some(_), _) => return Err(ProtoError::Malformed("expected table shard frame")),
        };
        if align != 0 && tables.len() % align != 0 {
            return Err(ProtoError::Malformed("table stream"));
        }
        buf.extend_from_slice(tables);
    }
    Ok(())
}

/// The evaluator's table transport: the legacy single inline stream, or
/// one pull source per shard.
enum EvaluatorTables {
    Inline {
        buf: Vec<u8>,
        pos: usize,
    },
    Sharded {
        subs: Vec<ShardSource>,
        plan: ShardPlan,
        next_index: usize,
        current: usize,
    },
}

/// Bob's side of a protocol run.
///
/// Owns the channel, the OT receiver and a pull-based table source fed
/// by the garbler's chunked `Tables` frames (or, sharded, one source
/// per `TableShard` sub-stream, reassembled in gate order).
pub struct EvaluatorSession<'a> {
    ch: &'a mut dyn Channel,
    ot: &'a mut dyn OtReceiver,
    /// Every received table frame must be a multiple of this (the
    /// engine's table size); 0 disables the check.
    table_align: usize,
    version: u16,
    instances: u16,
    tables: EvaluatorTables,
    stats: SessionStats,
}

impl<'a> EvaluatorSession<'a> {
    /// Performs the versioned handshake.
    ///
    /// `table_align` is the engine's garbled-table byte size; incoming
    /// table frames are validated against it.
    ///
    /// # Errors
    /// Channel failures, or a peer with an incompatible version or the
    /// wrong role.
    pub fn establish(
        ch: &'a mut dyn Channel,
        ot: &'a mut dyn OtReceiver,
        table_align: usize,
    ) -> Result<Self, ProtoError> {
        Self::establish_instanced(ch, Vec::new(), ot, table_align, ShardConfig::single(), 1)
    }

    /// [`EvaluatorSession::establish`] with a sharded table stream, for
    /// a session of `instances` runs; the mirror of
    /// [`GarblerSession::establish_instanced`].
    ///
    /// Tables are pulled lazily from each shard's channel and
    /// reassembled in gate order using the partition both parties
    /// derive per cycle. Both parties configure the instance count out
    /// of band (like the shard count); when it is greater than one the
    /// garbler's [`Message::Instances`] announcement is received and
    /// checked against it.
    ///
    /// # Errors
    /// Channel failures, a peer with an incompatible version or the
    /// wrong role, a `shard_chs` count not matching `shards`, a zero
    /// instance count, a peer whose negotiated version predates
    /// instanced sessions, or an announcement not matching the
    /// configured count.
    pub fn establish_instanced(
        ch: &'a mut dyn Channel,
        shard_chs: Vec<Box<dyn Channel>>,
        ot: &'a mut dyn OtReceiver,
        table_align: usize,
        shards: ShardConfig,
        instances: u16,
    ) -> Result<Self, ProtoError> {
        if instances == 0 {
            return Err(ProtoError::Malformed("zero instance count"));
        }
        validate_shards(shards, shard_chs.len())?;
        let tables = if shards.is_sharded() {
            EvaluatorTables::Sharded {
                subs: shard_chs
                    .into_iter()
                    .enumerate()
                    .map(|(k, ch)| ShardSource {
                        ch,
                        shard: k as u8,
                        buf: Vec::new(),
                        pos: 0,
                    })
                    .collect(),
                plan: ShardPlan::new(0, shards.shards),
                next_index: 0,
                current: 0,
            }
        } else {
            EvaluatorTables::Inline {
                buf: Vec::new(),
                pos: 0,
            }
        };
        let version = handshake(ch, SessionRole::Evaluator)?;
        if instances > 1 {
            if version < 2 {
                return Err(ProtoError::Malformed("instanced session needs protocol v2"));
            }
            match recv_msg(ch)? {
                Message::Instances(n) if n == instances => {}
                Message::Instances(_) => {
                    return Err(ProtoError::Malformed("instance count mismatch"))
                }
                _ => return Err(ProtoError::Malformed("expected instances frame")),
            }
        }
        Ok(Self {
            ch,
            ot,
            table_align,
            version,
            instances,
            tables,
            stats: SessionStats::default(),
        })
    }

    /// The protocol version negotiated at the handshake (the lowest
    /// common version of the two builds).
    pub fn negotiated_version(&self) -> u16 {
        self.version
    }

    /// How many circuit instances this session batches (1 unless
    /// established via [`EvaluatorSession::establish_instanced`]).
    pub fn instances(&self) -> u16 {
        self.instances
    }

    /// Announces the number of tables the coming cycle will consume;
    /// the mirror of [`GarblerSession::begin_cycle`]. No-op unsharded.
    pub fn begin_cycle(&mut self, tables: usize) {
        if let EvaluatorTables::Sharded {
            subs,
            plan,
            next_index,
            current,
        } = &mut self.tables
        {
            *plan = ShardPlan::new(tables, subs.len());
            *next_index = 0;
            *current = 0;
        }
    }

    /// Receives the direct input labels.
    ///
    /// # Errors
    /// Channel failures or a non-`DirectLabels` frame.
    pub fn recv_direct_labels(&mut self) -> Result<Vec<Label>, ProtoError> {
        match recv_msg(self.ch)? {
            Message::DirectLabels(labels) => Ok(labels),
            _ => Err(ProtoError::Malformed("expected direct labels frame")),
        }
    }

    /// Runs the OT batch for this party's choice bits (no-op when
    /// `choices` is empty, matching the sending side).
    ///
    /// # Errors
    /// Channel, OT and framing failures.
    pub fn ot_receive(&mut self, choices: &[bool]) -> Result<Vec<Label>, ProtoError> {
        let labels = if choices.is_empty() {
            Vec::new()
        } else {
            let mut tunnel = OtTunnel::new(&mut *self.ch);
            let res = self.ot.receive(&mut tunnel, choices);
            tunnel.finish(res)?
        };
        self.stats.ots += choices.len() as u64;
        Ok(labels)
    }

    /// Pulls the next `len` bytes of garbled table from the stream,
    /// receiving further table frames as needed. In a sharded session
    /// the pull is routed to the sub-stream carrying the current gate
    /// range.
    ///
    /// # Errors
    /// Channel failures, an unexpected frame, a frame that is not a
    /// whole number of tables, or (sharded) a pull beyond the count
    /// announced via [`EvaluatorSession::begin_cycle`].
    pub fn next_table(&mut self, len: usize) -> Result<&[u8], ProtoError> {
        self.stats.garbled_tables += 1;
        self.stats.table_bytes += len as u64;
        // Route to the buffer/channel/frame-layout of the active
        // sub-stream; the pull loop itself ([`pull_tables`]) is shared.
        let align = self.table_align;
        match &mut self.tables {
            EvaluatorTables::Inline { buf, pos } => {
                pull_tables(&mut *self.ch, buf, pos, len, align, None)?;
                let start = *pos;
                *pos += len;
                Ok(&buf[start..start + len])
            }
            EvaluatorTables::Sharded {
                subs,
                plan,
                next_index,
                current,
            } => {
                if *next_index >= plan.tables() {
                    return Err(ProtoError::Malformed(
                        "table pull outside the cycle's shard plan",
                    ));
                }
                *current = plan.shard_of(*next_index, *current);
                *next_index += 1;
                let sub = &mut subs[*current];
                pull_tables(
                    &mut *sub.ch,
                    &mut sub.buf,
                    &mut sub.pos,
                    len,
                    align,
                    Some(sub.shard),
                )?;
                let start = sub.pos;
                sub.pos += len;
                Ok(&sub.buf[start..start + len])
            }
        }
    }

    /// Asserts the table stream (every sub-stream, if sharded) was fully
    /// consumed.
    ///
    /// # Errors
    /// [`ProtoError::Malformed`] when buffered table bytes remain.
    pub fn finish_tables(&self) -> Result<(), ProtoError> {
        let drained = match &self.tables {
            EvaluatorTables::Inline { buf, pos } => buf.len() == *pos,
            EvaluatorTables::Sharded { subs, .. } => subs.iter().all(ShardSource::drained),
        };
        if !drained {
            return Err(ProtoError::Malformed("extra tables"));
        }
        Ok(())
    }

    /// Receives the decode bits, XORs them against this party's output
    /// colours, sends the revealed values back, and returns them.
    ///
    /// # Errors
    /// Channel failures, leftover tables, or a `DecodeBits` frame of the
    /// wrong length.
    pub fn reveal_outputs(&mut self, colours: &[bool]) -> Result<Vec<bool>, ProtoError> {
        self.finish_tables()?;
        let decode = match recv_msg(self.ch)? {
            Message::DecodeBits(bits) => bits,
            _ => return Err(ProtoError::Malformed("expected decode bits frame")),
        };
        if decode.len() != colours.len() {
            return Err(ProtoError::Malformed("decode bit count"));
        }
        let values: Vec<bool> = colours.iter().zip(&decode).map(|(&c, &z)| c ^ z).collect();
        send_msg(self.ch, &Message::Outputs(values.clone()))?;
        Ok(values)
    }

    /// The accumulated cost counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

impl std::fmt::Debug for EvaluatorSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shards = match &self.tables {
            EvaluatorTables::Inline { .. } => 1,
            EvaluatorTables::Sharded { subs, .. } => subs.len(),
        };
        f.debug_struct("EvaluatorSession")
            .field("table_align", &self.table_align)
            .field("shards", &shards)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use arm2gc_comm::duplex;
    use arm2gc_ot::InsecureOt;

    fn pair_up<F, G, R, S>(garbler: F, evaluator: G) -> (R, S)
    where
        F: FnOnce(&mut dyn Channel) -> R + Send,
        G: FnOnce(&mut dyn Channel) -> S,
        R: Send,
    {
        let (mut ca, mut cb) = duplex();
        std::thread::scope(|s| {
            let g = s.spawn(move || garbler(&mut ca));
            let e = evaluator(&mut cb);
            (g.join().expect("garbler thread"), e)
        })
    }

    #[test]
    fn handshake_and_streaming_roundtrip() {
        let chunk = StreamConfig::chunked(64);
        let (sent, got) = pair_up(
            |ch| {
                let mut ot = InsecureOt;
                let mut prg = Prg::from_seed([1; 16]);
                let mut s = GarblerSession::establish(ch, &mut ot, &mut prg, chunk).expect("g");
                let mut sent = Vec::new();
                for cycle in 0..10u8 {
                    for t in 0..3u8 {
                        let table = [cycle * 16 + t; 32];
                        s.push_table(&table).expect("push");
                        sent.push(table.to_vec());
                    }
                    s.end_cycle(7).expect("end");
                }
                let values = s.reveal_outputs(&[true, false, true]).expect("reveal");
                assert_eq!(s.stats().garbled_tables, 30);
                assert_eq!(s.stats().table_bytes, 960);
                (sent, values)
            },
            |ch| {
                let mut ot = InsecureOt;
                let mut s = EvaluatorSession::establish(ch, &mut ot, 32).expect("e");
                let mut got = Vec::new();
                for _ in 0..30 {
                    got.push(s.next_table(32).expect("pull").to_vec());
                }
                let values = s.reveal_outputs(&[false, false, false]).expect("reveal");
                (got, values)
            },
        );
        assert_eq!(sent.0, got.0);
        // Evaluator's colours were all-false, so values == decode bits.
        assert_eq!(sent.1, vec![true, false, true]);
        assert_eq!(got.1, vec![true, false, true]);
    }

    #[test]
    fn lockstep_flushes_per_cycle_and_chunked_batches() {
        for (cfg, expect_table_frames) in [
            (StreamConfig::lockstep(), 4u64),    // one frame per non-empty cycle
            (StreamConfig::chunked(1 << 20), 1), // everything in the final flush
        ] {
            let (frames, ()) = pair_up(
                move |ch| {
                    let (counted, stats) = arm2gc_comm::CountingChannel::new(&mut *ch);
                    let mut counted = counted;
                    let mut ot = InsecureOt;
                    let mut prg = Prg::from_seed([2; 16]);
                    let mut s =
                        GarblerSession::establish(&mut counted, &mut ot, &mut prg, cfg).expect("g");
                    for _ in 0..4 {
                        s.push_table(&[7u8; 32]).expect("push");
                        s.end_cycle(7).expect("end");
                    }
                    s.reveal_outputs(&[]).expect("reveal");
                    // hello + table frames + decode bits.
                    stats.sent_msgs() - 2
                },
                |ch| {
                    let mut ot = InsecureOt;
                    let mut s = EvaluatorSession::establish(ch, &mut ot, 32).expect("e");
                    for _ in 0..4 {
                        s.next_table(32).expect("pull");
                    }
                    s.reveal_outputs(&[]).expect("reveal");
                },
            );
            assert_eq!(frames, expect_table_frames);
        }
    }

    /// Runs a chunked session over `cycles` of `(tables, visits)` with
    /// chunks too large to fill, and returns the table-frame sizes (in
    /// tables) the garbler sent, summed over every shard channel.
    fn cycle_flush_frames(cycles: &[(usize, u64)], shards: usize) -> Vec<usize> {
        let cycles = cycles.to_vec();
        let plan = cycles.clone();
        let (g_shards, e_shards) = if shards > 1 {
            shard_duplexes(shards)
        } else {
            (Vec::new(), Vec::new())
        };
        let sharding = ShardConfig::new(shards);
        let (frames, ()) = pair_up(
            move |ch| {
                let mut rec = Recording::new(ch);
                let (shard_chs, logs): (Vec<Box<dyn Channel>>, Vec<_>) = g_shards
                    .into_iter()
                    .map(|ch| {
                        let rec = Recording::new(ch);
                        let log = Arc::clone(&rec.sent);
                        (Box::new(rec) as Box<dyn Channel>, log)
                    })
                    .unzip();
                let mut ot = InsecureOt;
                let mut prg = Prg::from_seed([4; 16]);
                let mut s = GarblerSession::establish_instanced(
                    &mut rec,
                    shard_chs,
                    &mut ot,
                    &mut prg,
                    StreamConfig::chunked(1 << 20),
                    sharding,
                    1,
                )
                .expect("g");
                for &(tables, visits) in &cycles {
                    s.begin_cycle(tables);
                    for _ in 0..tables {
                        s.push_table(&[7u8; 32]).expect("push");
                    }
                    s.end_cycle(visits).expect("end");
                }
                s.reveal_outputs(&[]).expect("reveal");
                let mut frames = rec.frames();
                for log in logs {
                    frames.extend(log.lock().expect("frame log").drain(..));
                }
                frames
                    .iter()
                    .filter_map(|f| match f[0] {
                        TAG_TABLES => Some((f.len() - 1) / 32),
                        TAG_TABLE_SHARD => Some((f.len() - 2) / 32),
                        _ => None,
                    })
                    .collect()
            },
            move |ch| {
                let mut ot = InsecureOt;
                let mut s =
                    EvaluatorSession::establish_instanced(ch, e_shards, &mut ot, 32, sharding, 1)
                        .expect("e");
                for &(tables, _) in &plan {
                    s.begin_cycle(tables);
                    for _ in 0..tables {
                        s.next_table(32).expect("pull");
                    }
                }
                s.reveal_outputs(&[]).expect("reveal");
            },
        );
        frames
    }

    #[test]
    fn chunked_stream_flushes_at_cycle_boundaries_by_gate_visits() {
        const HALF: u64 = CYCLE_FLUSH_VISITS / 2;
        // 2^19 visits a cycle: every second non-empty cycle flushes.
        assert_eq!(cycle_flush_frames(&[(1, HALF); 8], 1), vec![2, 2, 2, 2]);
        assert_eq!(
            cycle_flush_frames(&[(1, HALF), (2, HALF), (3, HALF)], 1),
            vec![3, 3],
            "the tail goes out with the final flush"
        );
        // Sharded: a boundary flush reaches every worker, so each of the
        // two shards sends one frame per flush.
        assert_eq!(cycle_flush_frames(&[(2, HALF); 4], 2), vec![2; 4]);
        // Fewer than 2^20 visits in all: only the final flush.
        assert_eq!(
            cycle_flush_frames(&[(1, CYCLE_FLUSH_VISITS / 8); 7], 1),
            vec![7]
        );
        // An empty buffer never makes a frame; the count carries over to
        // the first cycle that pushes a table.
        assert!(cycle_flush_frames(&[(0, CYCLE_FLUSH_VISITS); 3], 1).is_empty());
        assert_eq!(
            cycle_flush_frames(&[(0, CYCLE_FLUSH_VISITS), (1, 0), (1, 0)], 1),
            vec![1, 1]
        );
    }

    #[test]
    fn ot_roundtrip_is_tunnelled() {
        let mut prg = Prg::from_seed([3; 16]);
        let pairs: Vec<(Label, Label)> = (0..40)
            .map(|_| (Label::random(&mut prg), Label::random(&mut prg)))
            .collect();
        let choices: Vec<bool> = (0..40).map(|i| i % 3 == 1).collect();
        let expected: Vec<Label> = pairs
            .iter()
            .zip(&choices)
            .map(|(p, &c)| if c { p.1 } else { p.0 })
            .collect();
        let pairs2 = pairs.clone();
        let choices2 = choices.clone();
        let (g_ots, labels) = pair_up(
            move |ch| {
                let mut ot = InsecureOt;
                let mut prg = Prg::from_seed([4; 16]);
                let mut s =
                    GarblerSession::establish(ch, &mut ot, &mut prg, StreamConfig::default())
                        .expect("g");
                s.ot_send(&pairs2).expect("ot send");
                s.ot_send(&[]).expect("empty ot is a no-op");
                s.reveal_outputs(&[]).expect("reveal");
                s.stats().ots
            },
            move |ch| {
                let mut ot = InsecureOt;
                let mut s = EvaluatorSession::establish(ch, &mut ot, 32).expect("e");
                let labels = s.ot_receive(&choices2).expect("ot receive");
                assert!(s.ot_receive(&[]).expect("empty").is_empty());
                s.reveal_outputs(&[]).expect("reveal");
                assert_eq!(s.stats().ots, 40);
                labels
            },
        );
        assert_eq!(g_ots, 40);
        assert_eq!(labels, expected);
    }

    #[test]
    fn newer_peer_negotiates_down_to_lowest_common() {
        let (mut ca, mut cb) = duplex();
        // A fake peer speaking a future version: compatible, and the
        // session must run at *our* (the lower) version.
        ca.send(
            &Message::Hello {
                version: PROTOCOL_VERSION + 3,
                role: SessionRole::Garbler,
            }
            .encode(),
        )
        .expect("send");
        let mut ot = InsecureOt;
        let sess = EvaluatorSession::establish(&mut cb, &mut ot, 32).expect("compatible peer");
        assert_eq!(sess.negotiated_version(), PROTOCOL_VERSION);
        // The evaluator still advertised its own (highest) version.
        match Message::decode(&ca.recv().expect("peer hello")).expect("decode") {
            Message::Hello { version, role } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(role, SessionRole::Evaluator);
            }
            other => panic!("expected hello, got {other:?}"),
        }
    }

    #[test]
    fn incompatible_version_is_rejected() {
        let (mut ca, mut cb) = duplex();
        // A fake peer below the minimum supported version.
        ca.send(
            &Message::Hello {
                version: MIN_PROTOCOL_VERSION - 1,
                role: SessionRole::Garbler,
            }
            .encode(),
        )
        .expect("send");
        let mut ot = InsecureOt;
        let err = EvaluatorSession::establish(&mut cb, &mut ot, 32).expect_err("must reject");
        assert!(matches!(
            err,
            ProtoError::Malformed("incompatible protocol version")
        ));
    }

    #[test]
    fn instanced_establishment_announces_and_validates_count() {
        let (mut ca, mut cb) = duplex();
        std::thread::scope(|s| {
            let g = s.spawn(move || {
                let mut ot = InsecureOt;
                let mut prg = Prg::from_seed([5; 16]);
                let sess = GarblerSession::establish_instanced(
                    &mut ca,
                    Vec::new(),
                    &mut ot,
                    &mut prg,
                    StreamConfig::default(),
                    ShardConfig::single(),
                    4,
                )
                .expect("garbler");
                assert_eq!(sess.instances(), 4);
            });
            let mut ot = InsecureOt;
            let sess = EvaluatorSession::establish_instanced(
                &mut cb,
                Vec::new(),
                &mut ot,
                32,
                ShardConfig::single(),
                4,
            )
            .expect("evaluator");
            assert_eq!(sess.instances(), 4);
            g.join().expect("garbler thread");
        });
    }

    #[test]
    fn instance_count_mismatch_is_rejected() {
        let (mut ca, mut cb) = duplex();
        ca.send(
            &Message::Hello {
                version: PROTOCOL_VERSION,
                role: SessionRole::Garbler,
            }
            .encode(),
        )
        .expect("hello");
        ca.send(&Message::Instances(3).encode()).expect("instances");
        let mut ot = InsecureOt;
        let err = EvaluatorSession::establish_instanced(
            &mut cb,
            Vec::new(),
            &mut ot,
            32,
            ShardConfig::single(),
            4,
        )
        .expect_err("must reject");
        assert!(matches!(
            err,
            ProtoError::Malformed("instance count mismatch")
        ));
    }

    #[test]
    fn instanced_session_rejects_v1_peer() {
        let (mut ca, mut cb) = duplex();
        // A v1 peer predates the Instances frame entirely.
        ca.send(
            &Message::Hello {
                version: 1,
                role: SessionRole::Garbler,
            }
            .encode(),
        )
        .expect("hello");
        let mut ot = InsecureOt;
        let err = EvaluatorSession::establish_instanced(
            &mut cb,
            Vec::new(),
            &mut ot,
            32,
            ShardConfig::single(),
            2,
        )
        .expect_err("must reject");
        assert!(matches!(
            err,
            ProtoError::Malformed("instanced session needs protocol v2")
        ));
    }

    #[test]
    fn zero_instances_is_rejected() {
        let (mut ca, _cb) = duplex();
        let mut ot = InsecureOt;
        let mut prg = Prg::from_seed([6; 16]);
        let err = GarblerSession::establish_instanced(
            &mut ca,
            Vec::new(),
            &mut ot,
            &mut prg,
            StreamConfig::default(),
            ShardConfig::single(),
            0,
        )
        .expect_err("must reject");
        assert!(matches!(err, ProtoError::Malformed("zero instance count")));
    }

    #[test]
    fn same_role_is_rejected() {
        let (mut ca, mut cb) = duplex();
        ca.send(
            &Message::Hello {
                version: PROTOCOL_VERSION,
                role: SessionRole::Evaluator,
            }
            .encode(),
        )
        .expect("send");
        let mut ot = InsecureOt;
        let err = EvaluatorSession::establish(&mut cb, &mut ot, 32).expect_err("must reject");
        assert!(matches!(
            err,
            ProtoError::Malformed("peer claims the same role")
        ));
    }

    /// A scripted pair of connected shard-channel vectors.
    #[allow(clippy::type_complexity)]
    fn shard_duplexes(n: usize) -> (Vec<Box<dyn Channel>>, Vec<Box<dyn Channel>>) {
        let mut g: Vec<Box<dyn Channel>> = Vec::new();
        let mut e: Vec<Box<dyn Channel>> = Vec::new();
        for _ in 0..n {
            let (x, y) = duplex();
            g.push(Box::new(x));
            e.push(Box::new(y));
        }
        (g, e)
    }

    #[test]
    fn sharded_streaming_reassembles_in_gate_order() {
        // Cycles with zero tables, fewer tables than shards, and more:
        // every partition shape the plan can produce.
        const COUNTS: [usize; 6] = [5, 0, 1, 2, 7, 3];
        for cfg in [StreamConfig::lockstep(), StreamConfig::chunked(48)] {
            let shards = 3;
            let (mut ca, mut cb) = duplex();
            let (g_shards, e_shards) = shard_duplexes(shards);
            std::thread::scope(|s| {
                let g = s.spawn(move || {
                    let mut ot = InsecureOt;
                    let mut prg = Prg::from_seed([9; 16]);
                    let mut sess = GarblerSession::establish_instanced(
                        &mut ca,
                        g_shards,
                        &mut ot,
                        &mut prg,
                        cfg,
                        ShardConfig::new(shards),
                        1,
                    )
                    .expect("garbler");
                    let mut sent = Vec::new();
                    let mut v = 0u8;
                    for &n in &COUNTS {
                        sess.begin_cycle(n);
                        for _ in 0..n {
                            v = v.wrapping_add(1);
                            let table = [v; 32];
                            sess.push_table(&table).expect("push");
                            sent.push(table.to_vec());
                        }
                        sess.end_cycle(7).expect("end");
                    }
                    sess.reveal_outputs(&[]).expect("reveal");
                    (sent, sess.stats())
                });
                let mut ot = InsecureOt;
                let mut sess = EvaluatorSession::establish_instanced(
                    &mut cb,
                    e_shards,
                    &mut ot,
                    32,
                    ShardConfig::new(shards),
                    1,
                )
                .expect("evaluator");
                let mut got = Vec::new();
                for &n in &COUNTS {
                    sess.begin_cycle(n);
                    for _ in 0..n {
                        got.push(sess.next_table(32).expect("pull").to_vec());
                    }
                }
                sess.reveal_outputs(&[]).expect("reveal");
                let (sent, g_stats) = g.join().expect("garbler thread");
                assert_eq!(sent, got, "tables reassembled out of order");
                assert_eq!(g_stats, sess.stats());
            });
        }
    }

    /// Channel wrapper recording every frame the garbler sends; the log
    /// is shared so a shard worker thread can own the channel.
    struct Recording<C> {
        inner: C,
        sent: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl<C: Channel> Recording<C> {
        fn new(inner: C) -> Self {
            Self {
                inner,
                sent: Arc::default(),
            }
        }

        fn frames(&self) -> Vec<Vec<u8>> {
            self.sent.lock().expect("frame log").clone()
        }
    }

    impl<C: Channel> Channel for Recording<C> {
        fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
            self.sent.lock().expect("frame log").push(data.to_vec());
            self.inner.send(data)
        }

        fn recv(&mut self) -> Result<Vec<u8>, ChannelError> {
            self.inner.recv()
        }
    }

    #[test]
    fn single_shard_stream_is_byte_identical_to_legacy() {
        // The exact frame sequences the pre-sharding implementation put
        // on the wire for 2 cycles × 3 32-byte tables, pinned as bytes.
        let table = |i: u8| [i; 32];
        let frame = |ts: &[u8]| {
            let mut f = vec![TAG_TABLES];
            for &i in ts {
                f.extend_from_slice(&table(i));
            }
            f
        };
        for (cfg, table_frames) in [
            // Lockstep: one frame per cycle.
            (
                StreamConfig::lockstep(),
                vec![frame(&[1, 2, 3]), frame(&[4, 5, 6])],
            ),
            // 64-byte chunks: flush whenever the buffer exceeds 64 bytes,
            // irrespective of cycle boundaries.
            (
                StreamConfig::chunked(64),
                vec![frame(&[1, 2]), frame(&[3, 4]), frame(&[5, 6])],
            ),
        ] {
            let (frames, ()) = pair_up(
                move |ch| {
                    let mut rec = Recording::new(ch);
                    let mut ot = InsecureOt;
                    let mut prg = Prg::from_seed([3; 16]);
                    let mut sess = GarblerSession::establish(&mut rec, &mut ot, &mut prg, cfg)
                        .expect("garbler");
                    for cycle in 0..2u8 {
                        sess.begin_cycle(3);
                        for t in 0..3u8 {
                            sess.push_table(&table(cycle * 3 + t + 1)).expect("push");
                        }
                        sess.end_cycle(7).expect("end");
                    }
                    sess.reveal_outputs(&[]).expect("reveal");
                    rec.frames()
                },
                |ch| {
                    let mut ot = InsecureOt;
                    let mut sess = EvaluatorSession::establish(ch, &mut ot, 32).expect("e");
                    for _ in 0..6 {
                        sess.next_table(32).expect("pull");
                    }
                    sess.reveal_outputs(&[]).expect("reveal");
                },
            );
            let mut expected = vec![Message::Hello {
                version: PROTOCOL_VERSION,
                role: SessionRole::Garbler,
            }
            .encode()];
            expected.extend(table_frames);
            expected.push(Message::DecodeBits(vec![]).encode());
            assert_eq!(frames, expected, "shards=1 wire bytes changed");
        }
    }

    #[test]
    fn shard_channel_count_mismatch_is_rejected() {
        let (mut ca, _cb) = duplex();
        let (g_shards, _e_shards) = shard_duplexes(1);
        let mut ot = InsecureOt;
        let mut prg = Prg::from_seed([1; 16]);
        let err = GarblerSession::establish_instanced(
            &mut ca,
            g_shards,
            &mut ot,
            &mut prg,
            StreamConfig::default(),
            ShardConfig::new(2),
            1,
        )
        .expect_err("one channel for two shards");
        assert!(matches!(
            err,
            ProtoError::Malformed("shard channel count mismatch")
        ));

        let (mut cb, _ca) = duplex();
        let (e_shards, _g_shards) = shard_duplexes(2);
        let mut ot = InsecureOt;
        let err = EvaluatorSession::establish_instanced(
            &mut cb,
            e_shards,
            &mut ot,
            32,
            ShardConfig::single(),
            1,
        )
        .expect_err("channels for an unsharded session");
        assert!(matches!(
            err,
            ProtoError::Malformed("shard channel count mismatch")
        ));
    }

    #[test]
    fn misrouted_shard_frame_is_rejected() {
        let (mut ca, mut cb) = duplex();
        let (mut g_shards, e_shards) = shard_duplexes(2);
        std::thread::scope(|s| {
            s.spawn(move || {
                ca.send(
                    &Message::Hello {
                        version: PROTOCOL_VERSION,
                        role: SessionRole::Garbler,
                    }
                    .encode(),
                )
                .expect("hello");
                ca.recv().expect("peer hello");
                // Shard 1's frame arriving on shard 0's channel.
                g_shards[0]
                    .send(
                        &Message::TableShard {
                            shard: 1,
                            tables: vec![0; 32],
                        }
                        .encode(),
                    )
                    .expect("misrouted frame");
            });
            let mut ot = InsecureOt;
            let mut sess = EvaluatorSession::establish_instanced(
                &mut cb,
                e_shards,
                &mut ot,
                32,
                ShardConfig::new(2),
                1,
            )
            .expect("evaluator");
            sess.begin_cycle(2);
            let err = sess.next_table(32).expect_err("wrong shard id");
            assert!(matches!(
                err,
                ProtoError::Malformed("table shard id mismatch")
            ));
        });
    }

    #[test]
    fn misaligned_table_frame_is_rejected() {
        let (mut ca, mut cb) = duplex();
        std::thread::scope(|s| {
            s.spawn(move || {
                ca.send(
                    &Message::Hello {
                        version: PROTOCOL_VERSION,
                        role: SessionRole::Garbler,
                    }
                    .encode(),
                )
                .expect("hello");
                ca.recv().expect("peer hello");
                ca.send(&Message::Tables(vec![1, 2, 3]).encode())
                    .expect("tables");
            });
            let mut ot = InsecureOt;
            let mut sess = EvaluatorSession::establish(&mut cb, &mut ot, 32).expect("e");
            let err = sess.next_table(32).expect_err("misaligned");
            assert!(matches!(err, ProtoError::Malformed("table stream")));
        });
    }
}
