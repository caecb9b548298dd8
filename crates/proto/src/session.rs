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
//!   buffered sink that sends a frame once [`TABLE_CHUNK_BYTES`] are
//!   buffered, and at a cycle boundary every [`CYCLE_FLUSH_VISITS`] gate
//!   visits, while the evaluator *pulls* tables on demand, so garbling
//!   of cycle `t+1` overlaps evaluation of cycle `t` instead of
//!   rendezvousing once per cycle,
//! * **striping** over shard channels: a session handed `n` shard
//!   channels sends the same whole frames, dealt round-robin — frame `f`
//!   travels as a [`Message::TableShard`] on shard `f mod n` — and the
//!   evaluator pulls frame `f` from that shard. Frames are sent in the
//!   order they are consumed, so a garbler blocked on a full socket only
//!   waits for the evaluator to read frames already sent: one thread per
//!   party cannot deadlock, however large a cycle,
//! * the output-revelation exchange (decode colours vs. values).

use arm2gc_comm::{Channel, ChannelError};
use arm2gc_crypto::{Delta, Label, Prg};
use arm2gc_ot::{OtError, OtReceiver, OtSender};

use crate::config::MAX_SHARDS;
use crate::wire::{
    Message, ProtoError, SessionRole, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION, TAG_OT_PAYLOAD,
    TAG_TABLES, TAG_TABLE_SHARD,
};

/// Table bytes the garbler buffers before it sends them as one frame:
/// 64 KiB (2048 half-gate tables), large enough to amortise per-frame
/// overhead, small enough that the evaluator starts while the garbler
/// is still working.
pub const TABLE_CHUNK_BYTES: usize = 64 * 1024;

/// Gate visits (gates × active lanes, summed over cycles) after which
/// the garbler sends its buffered tables at the next cycle boundary,
/// short of [`TABLE_CHUNK_BYTES`]. This keeps the evaluator busy on
/// circuits whose many cycles garble few tables each, where a whole
/// session's tables fit in one chunk. 2²⁰ visits are about seven cycles
/// of the garbled CPU (163,628 gates), some 19 ms of decision pass, so
/// the evaluator never waits long for work, while small circuits (a
/// 7-gate comparator for 16,384 cycles is 114,688 visits) never reach
/// it and keep their size-chunked frames. Both triggers read public
/// counts only, so frame boundaries — and the transcript — are the same
/// on every run.
pub const CYCLE_FLUSH_VISITS: u64 = 1 << 20;

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

/// The channels a session's table frames travel on, and the number of
/// frames that have gone so far.
///
/// With no shard channels every frame is a [`Message::Tables`] on the
/// main channel. With `n` shard channels the same frames are dealt
/// round-robin: frame `f` is a [`Message::TableShard`] for shard
/// `f mod n`, on that shard's channel.
struct TableStripes {
    shards: Vec<Box<dyn Channel>>,
    frames: usize,
}

impl TableStripes {
    /// Stripes over `shards`: none (the main channel alone) or 2 to
    /// [`MAX_SHARDS`] channels. A single shard channel is a caller's
    /// mismatch, since a one-shard stream rides the main channel.
    fn new(shards: Vec<Box<dyn Channel>>) -> Result<Self, ProtoError> {
        if shards.len() == 1 || shards.len() > MAX_SHARDS {
            return Err(ProtoError::Malformed("shard channel count mismatch"));
        }
        Ok(Self { shards, frames: 0 })
    }

    /// The shard id the next frame carries; `None` on the main channel.
    fn shard(&self) -> Option<u8> {
        (!self.shards.is_empty()).then(|| (self.frames % self.shards.len()) as u8)
    }

    /// Bytes of a frame header: the tag, plus the shard id if striped.
    fn header_len(&self) -> usize {
        1 + usize::from(!self.shards.is_empty())
    }

    /// Clears `buf` to the header of the next frame.
    fn start_frame(&self, buf: &mut Vec<u8>) {
        buf.clear();
        match self.shard() {
            None => buf.push(TAG_TABLES),
            Some(k) => buf.extend_from_slice(&[TAG_TABLE_SHARD, k]),
        }
    }

    /// The channel the next frame travels on; counts that frame as gone.
    fn advance<'c>(&'c mut self, main: &'c mut dyn Channel) -> &'c mut dyn Channel {
        let frame = self.frames;
        self.frames += 1;
        match self.shards.len() {
            0 => main,
            n => self.shards[frame % n].as_mut(),
        }
    }
}

/// Alice's side of a protocol run.
///
/// Owns the channel, the PRG, the global free-XOR offset Δ (drawn at
/// establishment), the OT sender and the buffered table sink.
pub struct GarblerSession<'a> {
    ch: &'a mut dyn Channel,
    ot: &'a mut dyn OtSender,
    prg: &'a mut Prg,
    delta: Delta,
    version: u16,
    instances: u16,
    stripes: TableStripes,
    /// The next table frame: its header, then the buffered tables.
    buf: Vec<u8>,
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
    ) -> Result<Self, ProtoError> {
        Self::establish_instanced(ch, Vec::new(), ot, prg, 1)
    }

    /// [`GarblerSession::establish`] for a session garbling `instances`
    /// independent runs of the same circuit, its table frames striped
    /// over `shard_chs`.
    ///
    /// With no shard channels the tables ride the main channel as
    /// `Tables` frames. With two or more, the same frames are dealt
    /// round-robin over them as `TableShard` frames.
    ///
    /// When `instances > 1` the garbler announces the count in a
    /// [`Message::Instances`] frame right after the handshake
    /// (requiring protocol version ≥ 2); with `instances == 1` no frame
    /// is sent and the wire bytes are identical to a single-instance
    /// session.
    ///
    /// # Errors
    /// Channel failures, a peer with an incompatible version or the
    /// wrong role, one shard channel or more than [`MAX_SHARDS`], a
    /// zero instance count or (when `instances > 1`) a peer whose
    /// negotiated version predates instanced sessions.
    pub fn establish_instanced(
        ch: &'a mut dyn Channel,
        shard_chs: Vec<Box<dyn Channel>>,
        ot: &'a mut dyn OtSender,
        prg: &'a mut Prg,
        instances: u16,
    ) -> Result<Self, ProtoError> {
        if instances == 0 {
            return Err(ProtoError::Malformed("zero instance count"));
        }
        let stripes = TableStripes::new(shard_chs)?;
        let mut buf = Vec::new();
        stripes.start_frame(&mut buf);
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
            stripes,
            buf,
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

    /// Buffers one garbled table, sending the frame once
    /// [`TABLE_CHUNK_BYTES`] are buffered.
    ///
    /// # Errors
    /// Channel failures on flush.
    pub fn push_table(&mut self, table: &[u8]) -> Result<(), ProtoError> {
        self.stats.garbled_tables += 1;
        self.stats.table_bytes += table.len() as u64;
        self.buf.extend_from_slice(table);
        if self.buf.len() - self.stripes.header_len() >= TABLE_CHUNK_BYTES {
            self.flush_tables()?;
        }
        Ok(())
    }

    /// Marks a clock-cycle boundary after a cycle of `visits` gate
    /// visits (the netlist's gate count times the lanes still running).
    ///
    /// Sends the buffered tables once at least [`CYCLE_FLUSH_VISITS`]
    /// visits have passed since the last boundary flush and a table was
    /// pushed in between. Size-triggered flushes in
    /// [`push_table`](Self::push_table) do not reset the count.
    ///
    /// # Errors
    /// Channel failures on flush.
    pub fn end_cycle(&mut self, visits: u64) -> Result<(), ProtoError> {
        self.visits_since_flush += visits;
        if self.visits_since_flush >= CYCLE_FLUSH_VISITS
            && self.stats.garbled_tables > self.tables_at_flush
        {
            self.flush_tables()?;
            self.visits_since_flush = 0;
            self.tables_at_flush = self.stats.garbled_tables;
        }
        Ok(())
    }

    /// Sends the buffered tables, if any, as the next frame.
    fn flush_tables(&mut self) -> Result<(), ProtoError> {
        if self.buf.len() > self.stripes.header_len() {
            self.stripes.advance(self.ch).send(&self.buf)?;
            self.stripes.start_frame(&mut self.buf);
        }
        Ok(())
    }

    /// Sends the decode (colour) bits, receives the evaluator's revealed
    /// values. Flushes any still-buffered tables first, so this can
    /// never deadlock against an evaluator still pulling tables.
    ///
    /// # Errors
    /// Channel failures, or an `Outputs` frame of the wrong length.
    pub fn reveal_outputs(&mut self, decode_bits: &[bool]) -> Result<Vec<bool>, ProtoError> {
        self.flush_tables()?;
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

impl std::fmt::Debug for GarblerSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GarblerSession")
            .field("shards", &self.stripes.shards.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Bob's side of a protocol run.
///
/// Owns the channel, the OT receiver and a pull-based table source fed
/// by the garbler's table frames, from the main channel or, striped,
/// from each shard channel in turn.
pub struct EvaluatorSession<'a> {
    ch: &'a mut dyn Channel,
    ot: &'a mut dyn OtReceiver,
    /// Every received table frame must be a multiple of this (the
    /// engine's table size); 0 disables the check.
    table_align: usize,
    version: u16,
    instances: u16,
    stripes: TableStripes,
    /// Received table bytes; `buf[pos..]` are not yet pulled.
    buf: Vec<u8>,
    pos: usize,
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
        Self::establish_instanced(ch, Vec::new(), ot, table_align, 1)
    }

    /// [`EvaluatorSession::establish`] for a session of `instances`
    /// runs whose table frames are striped over `shard_chs`; the mirror
    /// of [`GarblerSession::establish_instanced`].
    ///
    /// Both parties configure the instance count out of band (like the
    /// shard count); when it is greater than one the garbler's
    /// [`Message::Instances`] announcement is received and checked
    /// against it.
    ///
    /// # Errors
    /// Channel failures, a peer with an incompatible version or the
    /// wrong role, one shard channel or more than [`MAX_SHARDS`], a
    /// zero instance count, a peer whose negotiated version predates
    /// instanced sessions, or an announcement not matching the
    /// configured count.
    pub fn establish_instanced(
        ch: &'a mut dyn Channel,
        shard_chs: Vec<Box<dyn Channel>>,
        ot: &'a mut dyn OtReceiver,
        table_align: usize,
        instances: u16,
    ) -> Result<Self, ProtoError> {
        if instances == 0 {
            return Err(ProtoError::Malformed("zero instance count"));
        }
        let stripes = TableStripes::new(shard_chs)?;
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
            stripes,
            buf: Vec::new(),
            pos: 0,
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
    /// receiving further table frames as needed.
    ///
    /// # Errors
    /// Channel failures, an unexpected frame, a frame from the wrong
    /// shard, or a frame that is not a whole number of tables.
    pub fn next_table(&mut self, len: usize) -> Result<&[u8], ProtoError> {
        self.stats.garbled_tables += 1;
        self.stats.table_bytes += len as u64;
        while self.buf.len() - self.pos < len {
            self.pull_frame()?;
        }
        let start = self.pos;
        self.pos += len;
        Ok(&self.buf[start..start + len])
    }

    /// Receives the next table frame from the channel it travels on and
    /// appends its tables to the buffer, dropping the pulled prefix
    /// first. The body goes straight into the buffer instead of through
    /// a [`Message`] copy (hot path), once its tag, shard id and
    /// `table_align` multiple are checked.
    fn pull_frame(&mut self) -> Result<(), ProtoError> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let shard = self.stripes.shard();
        let raw = self.stripes.advance(self.ch).recv()?;
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
        if self.table_align != 0 && tables.len() % self.table_align != 0 {
            return Err(ProtoError::Malformed("table stream"));
        }
        self.buf.extend_from_slice(tables);
        Ok(())
    }

    /// Asserts the table stream was fully consumed.
    ///
    /// # Errors
    /// [`ProtoError::Malformed`] when buffered table bytes remain.
    pub fn finish_tables(&self) -> Result<(), ProtoError> {
        if self.buf.len() != self.pos {
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
        f.debug_struct("EvaluatorSession")
            .field("table_align", &self.table_align)
            .field("shards", &self.stripes.shards.len())
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
        let (sent, got) = pair_up(
            |ch| {
                let mut ot = InsecureOt;
                let mut prg = Prg::from_seed([1; 16]);
                let mut s = GarblerSession::establish(ch, &mut ot, &mut prg).expect("g");
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
        // Four one-table cycles of 7 gate visits: everything goes out in
        // the final flush.
        let (frames, ()) = pair_up(
            move |ch| {
                let (counted, stats) = arm2gc_comm::CountingChannel::new(&mut *ch);
                let mut counted = counted;
                let mut ot = InsecureOt;
                let mut prg = Prg::from_seed([2; 16]);
                let mut s = GarblerSession::establish(&mut counted, &mut ot, &mut prg).expect("g");
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
        assert_eq!(frames, 1);
    }

    /// Runs a session over `cycles` of `(tables, visits)` with fewer
    /// tables than a chunk, and returns the table-frame sizes (in
    /// tables) the garbler sent: the main channel's, then each shard
    /// channel's.
    fn cycle_flush_frames(cycles: &[(usize, u64)], shards: usize) -> Vec<usize> {
        let cycles = cycles.to_vec();
        let plan = cycles.clone();
        let (g_shards, e_shards) = if shards > 1 {
            shard_duplexes(shards)
        } else {
            (Vec::new(), Vec::new())
        };
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
                let mut s =
                    GarblerSession::establish_instanced(&mut rec, shard_chs, &mut ot, &mut prg, 1)
                        .expect("g");
                for &(tables, visits) in &cycles {
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
                    EvaluatorSession::establish_instanced(ch, e_shards, &mut ot, 32, 1).expect("e");
                for &(tables, _) in &plan {
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
        // Striped: the same two frames, one on each of the two shards.
        assert_eq!(cycle_flush_frames(&[(2, HALF); 4], 2), vec![4, 4]);
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
                let mut s = GarblerSession::establish(ch, &mut ot, &mut prg).expect("g");
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
                let sess =
                    GarblerSession::establish_instanced(&mut ca, Vec::new(), &mut ot, &mut prg, 4)
                        .expect("garbler");
                assert_eq!(sess.instances(), 4);
            });
            let mut ot = InsecureOt;
            let sess = EvaluatorSession::establish_instanced(&mut cb, Vec::new(), &mut ot, 32, 4)
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
        let err = EvaluatorSession::establish_instanced(&mut cb, Vec::new(), &mut ot, 32, 4)
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
        let err = EvaluatorSession::establish_instanced(&mut cb, Vec::new(), &mut ot, 32, 2)
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
        let err = GarblerSession::establish_instanced(&mut ca, Vec::new(), &mut ot, &mut prg, 0)
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
        // Cycles with zero tables, fewer tables than shards and more,
        // each sent at its boundary, then one cycle a table past a whole
        // chunk: frames of every size, dealt over three shards.
        const CHUNK: usize = TABLE_CHUNK_BYTES / 32;
        const COUNTS: [usize; 7] = [5, 0, 1, 2, 7, 3, CHUNK + 1];
        let shards = 3;
        let (mut ca, mut cb) = duplex();
        let (g_shards, e_shards) = shard_duplexes(shards);
        let (g_shards, logs): (Vec<Box<dyn Channel>>, Vec<_>) = g_shards
            .into_iter()
            .map(|ch| {
                let rec = Recording::new(ch);
                let log = Arc::clone(&rec.sent);
                (Box::new(rec) as Box<dyn Channel>, log)
            })
            .unzip();
        std::thread::scope(|s| {
            let g = s.spawn(move || {
                let mut ot = InsecureOt;
                let mut prg = Prg::from_seed([9; 16]);
                let mut sess =
                    GarblerSession::establish_instanced(&mut ca, g_shards, &mut ot, &mut prg, 1)
                        .expect("garbler");
                let mut sent = Vec::new();
                let mut v = 0u8;
                for &n in &COUNTS {
                    for _ in 0..n {
                        v = v.wrapping_add(1);
                        let table = [v; 32];
                        sess.push_table(&table).expect("push");
                        sent.push(table.to_vec());
                    }
                    sess.end_cycle(CYCLE_FLUSH_VISITS).expect("end");
                }
                sess.reveal_outputs(&[]).expect("reveal");
                (sent, sess.stats())
            });
            let mut ot = InsecureOt;
            let mut sess = EvaluatorSession::establish_instanced(&mut cb, e_shards, &mut ot, 32, 1)
                .expect("evaluator");
            let mut got = Vec::new();
            for _ in 0..COUNTS.iter().sum::<usize>() {
                got.push(sess.next_table(32).expect("pull").to_vec());
            }
            sess.reveal_outputs(&[]).expect("reveal");
            let (sent, g_stats) = g.join().expect("garbler thread");
            assert_eq!(sent, got, "tables reassembled out of order");
            assert_eq!(g_stats, sess.stats());
        });
        // Seven frames, frame f on shard f mod 3, each naming its shard.
        for (k, log) in logs.iter().enumerate() {
            let frames = log.lock().expect("frame log");
            assert_eq!(frames.len(), if k == 0 { 3 } else { 2 }, "shard {k}");
            assert!(frames.iter().all(|f| f[..2] == [TAG_TABLE_SHARD, k as u8]));
        }
    }

    /// Channel wrapper recording every frame the garbler sends; the log
    /// is shared so it can be read after a session took the channel.
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
        // The exact frames the unsharded stream puts on the wire, pinned
        // as bytes: a size flush at a whole chunk mid-cycle, a boundary
        // flush once the cycles reach CYCLE_FLUSH_VISITS, and the tail
        // in the final flush.
        const CHUNK: usize = TABLE_CHUNK_BYTES / 32;
        const CYCLES: [(usize, u64); 3] = [(CHUNK + 1, 7), (3, CYCLE_FLUSH_VISITS), (2, 7)];
        let table = |i: usize| [(i % 251) as u8; 32];
        let frame = |ts: std::ops::Range<usize>| {
            let mut f = vec![TAG_TABLES];
            for i in ts {
                f.extend_from_slice(&table(i));
            }
            f
        };
        let (frames, ()) = pair_up(
            move |ch| {
                let mut rec = Recording::new(ch);
                let mut ot = InsecureOt;
                let mut prg = Prg::from_seed([3; 16]);
                let mut sess =
                    GarblerSession::establish(&mut rec, &mut ot, &mut prg).expect("garbler");
                let mut i = 0;
                for (tables, visits) in CYCLES {
                    for _ in 0..tables {
                        sess.push_table(&table(i)).expect("push");
                        i += 1;
                    }
                    sess.end_cycle(visits).expect("end");
                }
                sess.reveal_outputs(&[]).expect("reveal");
                rec.frames()
            },
            |ch| {
                let mut ot = InsecureOt;
                let mut sess = EvaluatorSession::establish(ch, &mut ot, 32).expect("e");
                for _ in 0..CHUNK + 6 {
                    sess.next_table(32).expect("pull");
                }
                sess.reveal_outputs(&[]).expect("reveal");
            },
        );
        let expected = vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
                role: SessionRole::Garbler,
            }
            .encode(),
            frame(0..CHUNK),
            frame(CHUNK..CHUNK + 4),
            frame(CHUNK + 4..CHUNK + 6),
            Message::DecodeBits(vec![]).encode(),
        ];
        assert!(frames == expected, "shards=1 wire bytes changed");
    }

    #[test]
    fn shard_channel_count_mismatch_is_rejected() {
        // One shard channel: a one-shard stream rides the main channel.
        let (mut ca, _cb) = duplex();
        let (g_shards, _e_shards) = shard_duplexes(1);
        let mut ot = InsecureOt;
        let mut prg = Prg::from_seed([1; 16]);
        let err = GarblerSession::establish_instanced(&mut ca, g_shards, &mut ot, &mut prg, 1)
            .expect_err("one shard channel");
        assert!(matches!(
            err,
            ProtoError::Malformed("shard channel count mismatch")
        ));

        // More shards than a one-byte shard id can name.
        let (mut cb, _ca) = duplex();
        let (e_shards, _g_shards) = shard_duplexes(MAX_SHARDS + 1);
        let mut ot = InsecureOt;
        let err = EvaluatorSession::establish_instanced(&mut cb, e_shards, &mut ot, 32, 1)
            .expect_err("too many shard channels");
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
            let mut sess = EvaluatorSession::establish_instanced(&mut cb, e_shards, &mut ot, 32, 1)
                .expect("evaluator");
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
