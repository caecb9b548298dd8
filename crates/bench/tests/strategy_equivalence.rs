//! Cross-strategy differential harness: every way a session can run
//! must be *indistinguishable* in what it computes and costs.
//!
//! Every lane count runs one walk: each cycle in netlist order over the
//! gates that move a label, an instanced session visiting each gate's
//! lanes in turn through one wavefront batcher. It runs over any shard
//! count and any lane count. Outputs and every per-lane cost counter
//! must match the unsharded single-lane run — on every pinned Table 1
//! circuit and on proptest-random circuits — and an instanced lane's
//! share of the transcript, garbled tables included, must be
//! byte-identical to a single-lane session's.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use arm2gc_bench::runner::{run_session, run_stats, table1_circuits};
use arm2gc_circuit::bench_circuits::BenchCircuit;
use arm2gc_circuit::random::{random_circuit, random_inputs, RandomCircuitParams, TestRng};
use arm2gc_circuit::sim::{PartyData, Simulator};
use arm2gc_circuit::{Circuit, CircuitBuilder, OutputMode, Role};
use arm2gc_comm::{duplex, Channel, ChannelError};
use arm2gc_core::{
    drive_evaluator, drive_garbler, run_two_party_opts, shard_duplexes, EngineKind,
    InstancedOutcome, OtBackend, OtConfig, SessionOptions,
};
use arm2gc_crypto::Prg;
use arm2gc_proto::Message;

const SHARDS: [usize; 3] = [1, 2, 4];

/// Runs one session of `circuit` with per-lane inputs; returns both
/// parties' outcomes.
fn two_party(
    circuit: &Circuit,
    lanes: &[(PartyData, PartyData, PartyData)],
    cycles: usize,
    opts: &SessionOptions,
) -> (InstancedOutcome, InstancedOutcome) {
    let alices: Vec<PartyData> = lanes.iter().map(|l| l.0.clone()).collect();
    let bobs: Vec<PartyData> = lanes.iter().map(|l| l.1.clone()).collect();
    let publics: Vec<PartyData> = lanes.iter().map(|l| l.2.clone()).collect();
    run_two_party_opts(circuit, &alices, &bobs, &publics, cycles, opts)
}

/// SkipGate: every shard count agrees with the unsharded single-lane
/// run on every cost counter (outputs are checked against the semantic
/// expectation inside every run).
#[test]
fn skipgate_strategies_agree_on_table1() {
    for bc in &table1_circuits(true) {
        let name = bc.circuit.name().to_string();
        let reference = run_stats(bc, &SessionOptions::new());
        for shards in SHARDS {
            let got = run_stats(bc, &SessionOptions::new().shards(shards));
            assert_eq!(reference, got, "{name}: skipgate x {shards} shards");
        }
    }
}

/// Classic baseline engine: same invariant.
#[test]
fn baseline_strategies_agree_on_table1() {
    let baseline = SessionOptions::new().engine(EngineKind::Baseline);
    for bc in &table1_circuits(true) {
        let name = bc.circuit.name().to_string();
        let reference = run_stats(bc, &baseline);
        for shards in SHARDS {
            let got = run_stats(bc, &baseline.shards(shards));
            assert_eq!(reference, got, "{name}: baseline x {shards} shards");
        }
    }
}

/// A [`Channel`] wrapper recording every frame sent through it.
struct Recording<C> {
    inner: C,
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl<C> Recording<C> {
    fn new(inner: C) -> (Self, Arc<Mutex<Vec<Vec<u8>>>>) {
        let sent = Arc::new(Mutex::new(Vec::new()));
        let rec = Self {
            inner,
            sent: Arc::clone(&sent),
        };
        (rec, sent)
    }
}

impl<C: Channel> Channel for Recording<C> {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.sent
            .lock()
            .expect("transcript lock")
            .push(data.to_vec());
        self.inner.send(data)
    }

    fn recv(&mut self) -> Result<Vec<u8>, ChannelError> {
        self.inner.recv()
    }
}

/// Runs one session through `drive_garbler`/`drive_evaluator` with
/// fixed PRG seeds and returns the garbler's outcome plus every frame
/// it sent, per channel: the main channel first, then each shard
/// sub-channel.
#[allow(clippy::type_complexity)]
fn transcript(
    circuit: &Circuit,
    lanes: &[(PartyData, PartyData, PartyData)],
    cycles: usize,
    opts: &SessionOptions,
) -> (InstancedOutcome, Vec<Vec<Vec<u8>>>) {
    let alices: Vec<PartyData> = lanes.iter().map(|l| l.0.clone()).collect();
    let bobs: Vec<PartyData> = lanes.iter().map(|l| l.1.clone()).collect();
    let publics: Vec<PartyData> = lanes.iter().map(|l| l.2.clone()).collect();
    let (ca, mut cb) = duplex();
    let (mut ca, main_log) = Recording::new(ca);
    let (g_shards, e_shards) = shard_duplexes(opts.shards);
    let mut logs = vec![main_log];
    let g_shards: Vec<Box<dyn Channel>> = g_shards
        .into_iter()
        .map(|ch| {
            let (rec, log) = Recording::new(ch);
            logs.push(log);
            Box::new(rec) as Box<dyn Channel>
        })
        .collect();
    let outcome = std::thread::scope(|s| {
        let garbler = s.spawn(|| {
            let mut prg = Prg::from_seed([71; 16]);
            let mut ot = OtBackend::Insecure.sender(OtConfig::TEST, &mut prg);
            let (c, ch) = (circuit, &mut ca);
            drive_garbler(
                c,
                &alices,
                &publics,
                cycles,
                ch,
                g_shards,
                ot.as_mut(),
                &mut prg,
                opts,
            )
            .expect("garbler")
        });
        let mut prg = Prg::from_seed([72; 16]);
        let mut ot = OtBackend::Insecure.receiver(OtConfig::TEST, &mut prg);
        let bob = drive_evaluator(
            circuit,
            &bobs,
            &publics,
            cycles,
            &mut cb,
            e_shards,
            ot.as_mut(),
            opts,
        )
        .expect("evaluator");
        let alice = garbler.join().expect("garbler thread");
        for (a, b) in alice.lanes.iter().zip(&bob.lanes) {
            assert_eq!(a.outputs, b.outputs, "parties agree on outputs");
        }
        assert_eq!(alice.batching, bob.batching, "parties agree on batching");
        alice
    });
    let frames = logs
        .iter()
        .map(|log| log.lock().expect("transcript lock").clone())
        .collect();
    (outcome, frames)
}

/// The garbled tables one channel carried, 32 bytes each, in wire
/// order (main-channel `Tables` and shard `TableShard` frames alike).
fn tables(frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let bytes: Vec<u8> = frames
        .iter()
        .filter_map(|frame| match Message::decode(frame) {
            Ok(Message::Tables(bytes) | Message::TableShard { tables: bytes, .. }) => Some(bytes),
            _ => None,
        })
        .flatten()
        .collect();
    bytes.chunks(32).map(<[u8]>::to_vec).collect()
}

/// An unsharded [`transcript`] reduced to the garbled tables sent, in
/// wire order.
fn garbled_tables(
    circuit: &Circuit,
    lanes: &[(PartyData, PartyData, PartyData)],
    cycles: usize,
    opts: &SessionOptions,
) -> (InstancedOutcome, Vec<Vec<u8>>) {
    let (outcome, frames) = transcript(circuit, lanes, cycles, opts);
    (outcome, tables(&frames[0]))
}

/// Lane 0's tables out of a two-lane session whose lanes share every
/// decision: the merged stream interleaves gate-major/lane-minor, so
/// lane 0 owns every even slot.
fn lane0(tables: &[Vec<u8>]) -> Vec<Vec<u8>> {
    tables.iter().step_by(2).cloned().collect()
}

/// The frames of a stream striped over two shard channels, dealt back
/// in turn: frame `f` travelled on shard `f mod 2`.
fn unstripe(shard0: &[Vec<u8>], shard1: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let dealt = shard1.len() <= shard0.len() && shard0.len() <= shard1.len() + 1;
    assert!(dealt, "frames dealt unevenly");
    let mut frames = Vec::new();
    for (i, f) in shard0.iter().enumerate() {
        frames.push(f.clone());
        frames.extend(shard1.get(i).cloned());
    }
    frames
}

/// One [`transcript`] lane per Table 1 circuit's canonical inputs.
fn canonical_lane(bc: &BenchCircuit) -> (PartyData, PartyData, PartyData) {
    (bc.alice.clone(), bc.bob.clone(), bc.public.clone())
}

/// The headline wire guarantee: an instanced session garbles
/// byte-identical tables to a single-lane one. Two identical lanes
/// share every decision, so lane 0 of a two-lane session must send
/// exactly the one-lane session's tables, in wire order, with identical
/// PRG seeds. At 2 shards the unsharded run's frames are dealt
/// round-robin over the shard channels, so dealing them back in turn
/// must rebuild its table stream exactly, the main channel carrying
/// none of it.
#[test]
fn layered_transcript_is_byte_identical() {
    const N: usize = 2;
    let circuits = table1_circuits(true);
    let aes = circuits.iter().filter(|bc| bc.circuit.name() == "aes_128");
    for bc in circuits[..7].iter().chain(aes) {
        let name = bc.circuit.name().to_string();
        let single = [canonical_lane(bc)];
        let lanes = vec![canonical_lane(bc); N];
        let (netlist, tx_n) =
            garbled_tables(&bc.circuit, &single, bc.cycles, &SessionOptions::new());
        let (instanced, tx_l) = garbled_tables(
            &bc.circuit,
            &lanes,
            bc.cycles,
            &SessionOptions::new().instances(N),
        );
        for lane in &instanced.lanes {
            assert_eq!(lane.outputs, netlist.lanes[0].outputs, "{name}: outputs");
            assert_eq!(lane.stats, netlist.lanes[0].stats, "{name}: cost counters");
        }
        assert_eq!(tx_l.len(), N * tx_n.len(), "{name}: table count");
        assert_eq!(lane0(&tx_l), tx_n, "{name}: lane 0 tables differ");

        let unsharded = [(&single[..], tx_n), (&lanes[..], tx_l)];
        for (lanes, tx) in unsharded {
            let opts = SessionOptions::new().shards(2).instances(lanes.len());
            let (sharded, frames) = transcript(&bc.circuit, lanes, bc.cycles, &opts);
            assert_eq!(frames.len(), 3, "{name}: main channel plus 2 shards");
            assert!(
                tables(&frames[0]).is_empty(),
                "{name}: tables left the main channel"
            );
            assert_eq!(
                tables(&unstripe(&frames[1], &frames[2])),
                tx,
                "{name}: {} lanes at 2 shards send other tables",
                lanes.len()
            );
            for lane in &sharded.lanes {
                assert_eq!(
                    lane.outputs, netlist.lanes[0].outputs,
                    "{name}: sharded outputs"
                );
                assert_eq!(
                    lane.stats, netlist.lanes[0].stats,
                    "{name}: sharded counters"
                );
            }
        }
    }
}

/// The first half of `v`: lane 0's share of a lane-major payload from
/// a two-lane session.
fn first_half<T: Clone + std::fmt::Debug>(v: &[T]) -> Vec<T> {
    assert_eq!(v.len() % 2, 0, "lane-major payload of odd length {v:?}");
    v[..v.len() / 2].to_vec()
}

/// The N=1 pin: an instanced session adds nothing to the transcript of
/// its lane 0 but its lane-count announcement. Stripped of the
/// `Instances(2)` frame right after the handshake, a two-lane session
/// with identical lanes sends the one-lane session's frames kind for
/// kind, in order, and lane 0's share of each is byte-identical to the
/// one-lane payload: the first half of the lane-major input labels, OT
/// messages and decode bits, and every even slot of the gate-major
/// table stream. Fixed PRG seeds, unsharded.
#[test]
fn single_lane_instanced_transcript_is_byte_identical() {
    let circuits = table1_circuits(true);
    let aes = circuits.iter().filter(|bc| bc.circuit.name() == "aes_128");
    for bc in circuits[..7].iter().chain(aes) {
        let name = bc.circuit.name().to_string();
        let decoded = |frames: &[Vec<u8>]| -> Vec<Message> {
            frames
                .iter()
                .map(|f| Message::decode(f).expect("well-formed frame"))
                .filter(|m| !matches!(m, Message::Tables(_)))
                .collect()
        };
        let opts = SessionOptions::new();
        let (_, single) = transcript(&bc.circuit, &[canonical_lane(bc)], bc.cycles, &opts);
        let lanes = vec![canonical_lane(bc); 2];
        let (_, inst) = transcript(&bc.circuit, &lanes, bc.cycles, &opts.instances(2));
        assert_eq!(
            lane0(&tables(&inst[0])),
            tables(&single[0]),
            "{name}: tables"
        );

        let single = decoded(&single[0]);
        let mut inst = decoded(&inst[0]);
        assert!(
            !single.iter().any(|m| matches!(m, Message::Instances(_))),
            "{name}: a one-lane session announces no lane count"
        );
        assert_eq!(
            inst.get(1),
            Some(&Message::Instances(2)),
            "{name}: announcement"
        );
        inst.remove(1);
        assert_eq!(single.len(), inst.len(), "{name}: frame count");
        for (one, two) in single.iter().zip(&inst) {
            let lane0_share = match two {
                Message::DirectLabels(labels) => Message::DirectLabels(first_half(labels)),
                Message::OtPayload(bytes) => Message::OtPayload(first_half(bytes)),
                Message::DecodeBits(bits) => Message::DecodeBits(first_half(bits)),
                other => other.clone(),
            };
            assert_eq!(
                one, &lane0_share,
                "{name}: lane 0's share of a frame differs"
            );
        }
    }
}

/// Builds a circuit engineered to make the SkipGate decision pass emit
/// `Alias` edges into wires at a deeper topological level than the
/// aliasing gate's own.
///
/// Per gadget: a garbled AND chain produces a deep wire `t`; the XOR
/// ladder `z = (t ⊕ a ⊕ b) ⊕ t` cancels `t` out of the lineage, so `z`
/// (living at a deep level) becomes the representative for `a ⊕ b`.
/// A later plain `m = a ⊕ b` (static level 0) then aliases to `z` —
/// an edge from level 0 into a deep wire — feeding the AND that
/// consumes `m`.
fn alias_cross_circuit(gadgets: usize, depth: usize, mode: OutputMode) -> Circuit {
    let mut b = CircuitBuilder::new("alias_cross");
    b.set_output_mode(mode);
    let mut outs = Vec::new();
    for _ in 0..gadgets {
        let a = b.input(Role::Alice);
        let bb = b.input(Role::Bob);
        let p = b.input(Role::Alice);
        let q = b.input(Role::Bob);
        let mut t = b.and(p, q);
        for _ in 0..depth {
            t = b.and(t, q);
        }
        let x = b.xor(t, a);
        let y = b.xor(x, bb);
        let z = b.xor(y, t); // lineage a ⊕ b at a deep level
        let keep_z = b.and(z, p);
        let m = b.xor(a, bb); // Alias { src: z } — into a deeper wire
        let w = b.and(m, q); // reads the aliased label
        outs.push(keep_z);
        outs.push(w);
    }
    b.outputs(&outs);
    b.build()
}

/// Alias-heavy circuits whose alias edges reach into deeper wires: a
/// two-lane session must agree with the simulator and the single-lane
/// session on outputs and every cost counter at every shard count, and
/// send lane 0's tables byte-identical to the single-lane session's.
#[test]
fn releveled_cycles_are_wire_identical_on_alias_crossing_circuits() {
    const N: usize = 2;
    let gadgets = 3usize;
    for (cycles, mode) in [(1usize, OutputMode::FinalOnly), (3, OutputMode::PerCycle)] {
        let c = alias_cross_circuit(gadgets, 2, mode);
        let mut rng = TestRng::new(4242 + cycles as u64);
        let inputs = random_inputs(&mut rng, &c, cycles);
        let (a, b, p) = &inputs;
        let sim = Simulator::new(&c).run(a, b, p, cycles);
        let single = [inputs.clone()];
        let (ref_a, ref_b) = two_party(&c, &single, cycles, &SessionOptions::new());
        let (ref_a, ref_b) = (&ref_a.lanes[0], &ref_b.lanes[0]);
        assert_eq!(ref_a.outputs, sim.outputs, "netlist outputs vs simulator");
        let lanes = vec![inputs.clone(); N];
        for shards in SHARDS {
            let opts = SessionOptions::new().shards(shards).instances(N);
            let (ga, gb) = two_party(&c, &lanes, cycles, &opts);
            assert_eq!(ga.batching, gb.batching, "parties agree on batching");
            for (la, lb) in ga.lanes.iter().zip(&gb.lanes) {
                assert_eq!(la.outputs, sim.outputs, "lane outputs at {shards} shards");
                assert_eq!(lb.outputs, sim.outputs);
                assert_eq!(la.stats, ref_a.stats, "cost counters at {shards} shards");
                assert_eq!(lb.stats, ref_b.stats);
            }
        }
        // The wire guarantee, covering deep alias edges.
        let (_, tx_single) = garbled_tables(&c, &single, cycles, &SessionOptions::new());
        let (_, tx_inst) = garbled_tables(&c, &lanes, cycles, &SessionOptions::new().instances(N));
        assert_eq!(tx_inst.len(), N * tx_single.len());
        assert_eq!(
            lane0(&tx_inst),
            tx_single,
            "lane 0 tables at {cycles} cycles"
        );
    }
}

/// Checks that N identical lanes of `wanted` form exactly the single
/// lane's wavefronts, each N× wider: every lane of a ready gate joins
/// the same batch, and no cycle is re-leveled.
fn assert_identical_lanes_widen_every_wavefront(wanted: &str) {
    const N: u64 = 2;
    let circuits = table1_circuits(true);
    let bc = circuits
        .iter()
        .find(|bc| bc.circuit.name() == wanted)
        .unwrap_or_else(|| panic!("{wanted} missing from the Table 1 quick set"));
    let single = run_session(bc, &SessionOptions::new()).batching;
    let lanes = run_session(bc, &SessionOptions::new().instances(N as usize)).batching;
    assert_eq!(lanes.batches, single.batches, "{wanted}: batch count");
    assert_eq!(
        lanes.batched_gates,
        N * single.batched_gates,
        "{wanted}: batched gates"
    );
    assert_eq!(
        lanes.largest_batch as u64,
        N * single.largest_batch as u64,
        "{wanted}: largest batch"
    );
    assert_eq!(lanes.mean_batch_per_instance(), single.mean_batch());
    assert!(
        lanes.mean_batch() > single.mean_batch(),
        "{wanted}: {N}-lane mean batch {:.2} not above one lane's {:.2}",
        lanes.mean_batch(),
        single.mean_batch()
    );
    assert_eq!(lanes.releveled_cycles, 0, "{wanted}: no cycle re-levels");
    assert_eq!(single.releveled_cycles, 0);
}

/// aes_128's alias edges reach into deeper wires; two lanes still only
/// widen each of the single lane's wavefronts, with no per-lane
/// fallback and no re-leveling.
#[test]
fn aes128_relevels_instead_of_falling_back() {
    assert_identical_lanes_widen_every_wavefront("aes_128");
}

/// mult_32 (shift-add chains) and matmul_3x3_32 interleave long
/// dependency chains in netlist order: two lanes form the same number
/// of wavefronts as one, each twice as wide.
#[test]
fn layered_beats_wavefront_on_chain_heavy_circuits() {
    for wanted in ["mult_32", "matmul_3x3_32"] {
        assert_identical_lanes_widen_every_wavefront(wanted);
    }
}

/// An all-public circuit: SkipGate resolves every gate locally, so the
/// run forms zero batches — occupancy reporting must stay clean (0.0,
/// never NaN/garbage) end to end, at one and two lanes.
#[test]
fn all_public_run_reports_zero_batches_cleanly() {
    let mut b = CircuitBuilder::new("all_public");
    let xs = b.inputs(Role::Public, 4);
    let a0 = b.and(xs[0], xs[1]);
    let a1 = b.xor(xs[2], xs[3]);
    let a2 = b.and(a0, a1);
    b.outputs(&[a0, a1, a2]);
    let c = b.build();
    let mut rng = TestRng::new(7);
    let inputs = random_inputs(&mut rng, &c, 1);
    let sim = Simulator::new(&c).run(&inputs.0, &inputs.1, &inputs.2, 1);
    for instances in [1, 2] {
        let lanes = vec![inputs.clone(); instances];
        let opts = SessionOptions::new().instances(instances);
        let (ga, gb) = two_party(&c, &lanes, 1, &opts);
        for lane in &ga.lanes {
            assert_eq!(lane.outputs, sim.outputs, "{instances} lanes");
            assert_eq!(lane.stats.garbled_tables, 0);
        }
        assert_eq!(gb.lanes[0].outputs, sim.outputs);
        assert_eq!(
            ga.batching.batches, 0,
            "{instances} lanes: nothing to batch"
        );
        assert_eq!(ga.batching.batched_gates, 0);
        assert_eq!(ga.batching.mean_batch(), 0.0);
        assert!(!ga.batching.mean_batch().is_nan());
        assert_eq!(ga.batching.mean_batch_per_instance(), 0.0);
        assert_eq!(gb.batching.batches, 0);
        assert_eq!(gb.batching.mean_batch(), 0.0);
    }
}

/// Instanced runs on the Table 1 circuits: every lane's outputs and
/// cost counters must equal a single-lane session on the same inputs,
/// at every shard count.
#[test]
fn instanced_lanes_match_sequential_on_table1() {
    const N: usize = 2;
    for bc in &table1_circuits(true) {
        let name = bc.circuit.name().to_string();
        let seq = &run_session(bc, &SessionOptions::new()).lanes[0];
        for shards in SHARDS {
            let inst = run_session(bc, &SessionOptions::new().shards(shards).instances(N));
            assert_eq!(inst.lanes.len(), N);
            assert_eq!(
                inst.batching.instances, N as u64,
                "{name}: instanced stats carry the lane count"
            );
            for (lane, got) in inst.lanes.iter().enumerate() {
                assert_eq!(
                    got.outputs, seq.outputs,
                    "{name}: lane {lane} outputs at {shards} shards"
                );
                assert_eq!(
                    got.stats, seq.stats,
                    "{name}: lane {lane} stats at {shards} shards"
                );
            }
            // Identical lanes share every decision, so the whole
            // session hashes exactly one lane's gates N times.
            assert_eq!(
                inst.batching.batched_gates,
                seq.batching.batched_gates * N as u64,
                "{name}: instanced hashes N lanes' gates"
            );
        }
    }
}

/// The instanced amortization claim on matmul_3x3: at N=8 the
/// session-wide mean batch must be at least 5x a single-lane session's
/// (and the per-instance amortized width must stay at least that).
#[test]
fn instanced_matmul_batches_at_least_5x_wider() {
    let circuits = table1_circuits(true);
    let bc = circuits
        .iter()
        .find(|bc| bc.circuit.name() == "matmul_3x3_32")
        .expect("matmul_3x3_32 in the Table 1 quick set");
    let single = run_session(bc, &SessionOptions::new()).batching;
    let inst = run_session(bc, &SessionOptions::new().instances(8)).batching;
    assert!(
        inst.mean_batch() >= 5.0 * single.mean_batch(),
        "instanced N=8 mean batch {:.1} not 5x the single-lane {:.1}",
        inst.mean_batch(),
        single.mean_batch()
    );
    assert!(
        inst.mean_batch_per_instance() >= single.mean_batch(),
        "amortized width {:.1} fell below the single-lane width {:.1}",
        inst.mean_batch_per_instance(),
        single.mean_batch()
    );
}

fn proptest_cases(default_cases: u32) -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(default_cases)
    }
}

fn random_params(seed: u64) -> RandomCircuitParams {
    RandomCircuitParams {
        inputs: (2, 2, 2),
        dffs: 3,
        gates: 40,
        outputs: 4,
        output_mode: if seed % 2 == 0 {
            OutputMode::PerCycle
        } else {
            OutputMode::FinalOnly
        },
    }
}

proptest! {
    #![proptest_config(proptest_cases(48))]

    /// Random sequential circuits: every shard count x lane count
    /// matches the cleartext simulator and the unsharded single-lane
    /// stats.
    #[test]
    fn strategies_agree_on_random_circuits(seed in 1u64..5000, cycles in 1usize..5, shards in 1usize..4) {
        let mut rng = TestRng::new(seed);
        let c = random_circuit(&mut rng, random_params(seed));
        let inputs = random_inputs(&mut rng, &c, cycles);
        let sim = Simulator::new(&c).run(&inputs.0, &inputs.1, &inputs.2, cycles);
        let single = [inputs.clone()];
        let (ref_a, _) = two_party(&c, &single, cycles, &SessionOptions::new());
        let ref_a = &ref_a.lanes[0];
        prop_assert_eq!(&ref_a.outputs, &sim.outputs);
        for instances in [1usize, 2] {
            let lanes = vec![inputs.clone(); instances];
            let opts = SessionOptions::new().shards(shards).instances(instances);
            let (ga, gb) = two_party(&c, &lanes, cycles, &opts);
            prop_assert_eq!(ga.batching, gb.batching);
            prop_assert_eq!(
                ga.batching.batched_gates,
                instances as u64 * ref_a.batching.batched_gates
            );
            for (la, lb) in ga.lanes.iter().zip(&gb.lanes) {
                prop_assert_eq!(&la.outputs, &sim.outputs);
                prop_assert_eq!(&lb.outputs, &sim.outputs);
                prop_assert_eq!(la.stats, ref_a.stats);
            }
        }
    }

    /// Random circuits with *different* inputs per lane — public inputs
    /// included, so the per-lane decision vectors diverge and the walk
    /// merges the lanes' moving-gate lists. Every lane must equal
    /// its own single-lane session (simulator outputs + full cost
    /// counters).
    #[test]
    fn instanced_diverging_lanes_match_sequential(seed in 1u64..5000, cycles in 1usize..4, shards in 1usize..4) {
        const N: usize = 3;
        let mut rng = TestRng::new(seed);
        let c = random_circuit(&mut rng, random_params(seed));
        let lanes: Vec<(PartyData, PartyData, PartyData)> =
            (0..N).map(|_| random_inputs(&mut rng, &c, cycles)).collect();
        let opts = SessionOptions::new().shards(shards).instances(N);
        let (ia, ib) = two_party(&c, &lanes, cycles, &opts);
        prop_assert_eq!(ia.batching, ib.batching);
        prop_assert_eq!(ia.batching.instances, N as u64);
        for (lane, inputs) in lanes.iter().enumerate() {
            let sim = Simulator::new(&c).run(&inputs.0, &inputs.1, &inputs.2, cycles);
            let (sa, _) = two_party(&c, std::slice::from_ref(inputs), cycles, &SessionOptions::new());
            prop_assert_eq!(&sa.lanes[0].outputs, &sim.outputs);
            prop_assert_eq!(&ia.lanes[lane].outputs, &sim.outputs, "lane {} outputs", lane);
            prop_assert_eq!(&ib.lanes[lane].outputs, &sim.outputs);
            prop_assert_eq!(ia.lanes[lane].stats, sa.lanes[0].stats, "lane {} stats", lane);
        }
    }
}

/// Slow tier: a pathological all-chain circuit — every AND feeds the
/// next — must degrade to one gate per lane per batch (and lane 0 must
/// still send the single-lane session's tables), while a maximally wide
/// circuit must hash every lane of every gate in one batch.
/// `cargo test -- --ignored`.
#[test]
#[ignore = "slow tier: deep pathological schedules"]
fn deep_chain_and_wide_parallel_extremes() {
    const N: usize = 2000;
    const LANES: usize = 2;

    // All-chain: c_0 = a_0 & b_0; c_i = c_{i-1} & b_i.
    let mut b = CircuitBuilder::new("deep_chain");
    let xs = b.inputs(Role::Alice, 1);
    let ys = b.inputs(Role::Bob, N);
    let mut acc = b.and(xs[0], ys[0]);
    for &y in &ys[1..] {
        acc = b.and(acc, y);
    }
    b.output(acc);
    let chain = b.build();

    let inputs = (
        PartyData::from_stream(vec![vec![true]]),
        PartyData::from_stream(vec![vec![true; N]]),
        PartyData::default(),
    );
    let lanes = vec![inputs.clone(); LANES];
    let opts = SessionOptions::new().instances(LANES);
    let (chain_out, tx_inst) = garbled_tables(&chain, &lanes, 1, &opts);
    assert_eq!(chain_out.lanes[0].outputs, vec![vec![true]]);
    assert_eq!(chain_out.batching.batches, N as u64, "one batch per link");
    assert_eq!(
        chain_out.batching.largest_batch, LANES,
        "chains cannot batch"
    );
    let (_, tx_single) = garbled_tables(&chain, &[inputs], 1, &SessionOptions::new());
    assert_eq!(
        lane0(&tx_inst),
        tx_single,
        "deep chain: lane 0 tables match"
    );

    // All-parallel: N independent ANDs — one full-width batch.
    let mut b = CircuitBuilder::new("wide_parallel");
    let xs = b.inputs(Role::Alice, N);
    let ys = b.inputs(Role::Bob, N);
    let outs: Vec<_> = xs.iter().zip(&ys).map(|(&x, &y)| b.and(x, y)).collect();
    b.outputs(&outs);
    let wide = b.build();

    let mut rng = TestRng::new(99);
    let inputs = random_inputs(&mut rng, &wide, 1);
    let sim = Simulator::new(&wide).run(&inputs.0, &inputs.1, &inputs.2, 1);
    let (wide_out, _) = two_party(&wide, &vec![inputs; LANES], 1, &opts);
    assert_eq!(wide_out.lanes[0].outputs, sim.outputs);
    assert_eq!(
        wide_out.batching.largest_batch,
        N * LANES,
        "wide circuit batches every gate across lanes"
    );
    assert_eq!(wide_out.batching.batches, 1);
}
